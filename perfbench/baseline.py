"""Write a baseline file: every workload, untraced and traced, at the default seed.

Usage (from the repository root):

    python3 perfbench/baseline.py perfbench/BENCH_baseline.json

Each entry is the full record that ``run.py`` prints (metrics, input digest,
environment, commit), so a later baseline can be compared field by field.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(ROOT / "src"))
from run import WORKLOADS  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402


def record_of(workload: str, trace: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(DEFAULT_SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        raise SystemExit(f"{workload} trace {trace} failed: {res.stderr.strip()[-500:]}")
    line = next(ln for ln in res.stdout.splitlines() if ln.startswith("record "))
    return json.loads(line[len("record "):])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("output", type=Path)
    args = p.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    results = {w: {f"trace{t}": record_of(w, t, seconds) for t in (0, 1)} for w in WORKLOADS}
    first = results[WORKLOADS[0]]["trace0"]
    out = {"seed": DEFAULT_SEED, "seconds": seconds,
           "git_commit": first["environment"]["git_commit"], "results": results}
    args.output.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
