"""Record the outputs that ``flex_certify`` and ``cli_cold`` are checked against.

Usage (from the repository root): python3 perfbench/record_expected.py

Writes ``perfbench/expected/flex_certify.json`` (determinations and push
iteration counts at the default seed) and ``perfbench/expected/cli_cold.json``
(exit code and comparable output of every CLI invocation).  Outputs that
``tests/golden`` also covers must agree with the golden, or nothing is
written.  Run it only when a change of expected output is intended.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402


def record_flex() -> dict:
    data = wl.generate("flex_certify", wl.DEFAULT_SEED, ROOT)
    items = {}
    for spec in data:
        item = wl.flex_item(spec, None)
        problems = item.run()
        if problems:
            raise SystemExit(f"{item.name}: {problems}")
        items[item.name] = dict(item.record)
    return {"seed": wl.DEFAULT_SEED, "items": items}


def record_cli() -> dict:
    data = wl.generate("cli_cold", wl.DEFAULT_SEED, ROOT)
    runner = wl.CliRunner(ROOT)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        for name, text in data["documents"].items():
            (workdir / f"{name}.json").write_text(text)
        recorded = {}
        for argv in data["invocations"]:
            rc, stdout, stderr, _ = runner(argv, workdir)
            output = wl.cli_observed_output(argv, stdout, workdir) if rc == 0 or argv[0] == "push" else None
            recorded[" ".join(argv)] = {"exit": rc, "output": output}
        for argv in data["invocations"]:
            rc, want = wl.cli_expected_output(argv, ROOT, recorded)
            got = recorded[" ".join(argv)]["output"]
            if want is not None and got != want:
                raise SystemExit(f"{' '.join(argv)}: output disagrees with tests/golden")
        return dict(sorted(recorded.items()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    expected = HERE / "expected"
    expected.mkdir(exist_ok=True)
    flex = record_flex()
    cli = record_cli()
    (expected / "flex_certify.json").write_text(json.dumps(flex, indent=1, sort_keys=True) + "\n")
    (expected / "cli_cold.json").write_text(json.dumps(cli, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
