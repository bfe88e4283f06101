"""extrig benchmark: one workload, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` for the inputs and their checks):

* ``barjoint_ladder``: triangle at t = 1..5 and seeded rigid fans of 10 and 30
  vertices at t = 1..3; each item runs extrude_framework,
  verify_extrusion_symmetry, fowler_guest_count and infinitesimal_analysis.
* ``flex_certify``: finite_flex_test on seeded fans of 10..40 vertices at
  t = 1, 2; t = 1 adds minimal_pinning and linear_push.
* ``cli_cold``: fresh ``extrig`` processes (analyze, analyze --json, pin, push)
  on the bundled gallery documents.

The program is imported from ``src/`` of the checkout this file sits in.
Items run one after another; a pass runs every item once.  Untraced, the
items run in pass order over and over while the next one is predicted to end
within ``--seconds``, so the last pass may stop part way; at least one whole
pass runs.  For the in-process workloads, 80 small seeded inputs (the
invocation probes) run in turn between the items, taking about PROBE_SHARE
of the item time.  An item or probe whose output check fails or that raises
counts in ``failed``.

Every latency is scaled to a fixed reference speed by a host speed gauge
(see ``gauge.py``), because the speed of a shared host drifts by more than
the metrics' bounds over minutes.  The raw latencies and the gauge samples
are kept in the record.

With ``--trace 0`` the result holds the end-to-end metrics, in seconds at
the reference speed:

* ``wall_s``: wall time of one pass, as the sum over its items of each
  item's median latency in the run; set-up excluded.
* ``top_rung_s``: median latency of the workload's largest input; for
  ``cli_cold``, ``extrig analyze`` of the largest gallery document, which
  runs ten times per pass.
* ``invocation_p50_s`` / ``invocation_p75_s``: median and third quartile,
  over at least 40 distinct invocations (the count is printed), of each
  invocation's median latency.  For ``cli_cold`` an invocation is one
  distinct CLI command in a fresh process; for the in-process workloads it
  is one of the invocation probes.
* ``setup_s``: median of three set-ups (import extrig, generate the inputs,
  one untimed warm-up item), one here and two in fresh interpreters.
* ``peak_rss_mb``: peak resident memory of the workload's own process; for
  ``cli_cold``, of the largest CLI process.

With ``--trace 1`` each round is one untraced and one traced pass, and the
result holds the per-layer metrics of the traced passes (medians over
rounds): calls and self/total seconds per pass of the public functions of
each module, computed SVD operation counts, and ratios.  These are raw, not
scaled; ``trace.overhead_ratio`` compares the best traced and untraced
latency of each item, which ran next to each other.

The last line of standard output is the result JSON; the line before it is
the full record, which is also written to ``.perfbench_out/`` together
with the spans of the traced passes.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("barjoint_ladder", "flex_certify", "cli_cold")
SETUP_REPEATS = 3
MIN_INVOCATIONS = 40        # so that p75 has at least ten samples beyond it
PROBE_SHARE = 0.15          # probe time as a share of item time, in-process workloads


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="extrig benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time one set-up and print it (used by the benchmark itself)")
    return p.parse_args(argv)


def setup(workload: str, seed: int, workdir: Path):
    """Import the program, generate the inputs, run one untimed warm-up item."""
    start = time.perf_counter()
    import extrig
    import workloads as wl

    if Path(extrig.__file__).resolve().parent != (SRC / "extrig").resolve():
        raise SystemExit(f"error: imported extrig from {extrig.__file__}, not from {SRC}")
    data = wl.inputs(workload, seed, ROOT)
    runner = wl.CliRunner(ROOT) if workload == "cli_cold" else None
    items = wl.prepare(workload, data["items"], seed, ROOT, workdir, runner)
    probes = wl.prepare_probes(workload, data["probes"])
    items[0].run()
    return time.perf_counter() - start, data, items, probes, runner


def probe_setup(args) -> tuple:
    """(start, seconds) of one set-up measured in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    start = time.perf_counter()
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {res.stderr.strip()[-500:]}")
    return start, json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


class Tally:
    """Latencies of each of a list of items, and the failures among their runs."""

    def __init__(self, items):
        self.items = items
        self.latencies = [[] for _ in items]
        self.starts = [[] for _ in items]
        self.attempted = self.failed = 0
        self.problems = []

    def run(self, k: int) -> float:
        """Run item ``k`` once; an exception counts as a failed run."""
        item = self.items[k]
        t0 = time.perf_counter()
        try:
            found = item.run()
        except Exception as exc:  # an exception is a failed operation, reported below
            found = [f"{item.name}: {type(exc).__name__}: {exc}"]
        latency = time.perf_counter() - t0
        self.latencies[k].append(latency)
        self.starts[k].append(t0)
        self.attempted += 1
        if found:
            self.failed += 1
            self.problems.extend(found)
        return latency

    def best(self) -> list:
        """Best latency of each item over its runs."""
        return [min(x) for x in self.latencies]

    def scaled(self, gauge) -> dict:
        """Latencies at the gauge's reference speed, per item name (repeats of
        one input share a name)."""
        by_name = {}
        for item, starts, latencies in zip(self.items, self.starts, self.latencies):
            by_name.setdefault(item.name, []).extend(
                x * gauge.scale(t0, t0 + x) for t0, x in zip(starts, latencies))
        return by_name


def run_pass(items, tally=None) -> Tally:
    """Run every item once, into ``tally`` if given."""
    tally = tally or Tally(items)
    for k in range(len(items)):
        tally.run(k)
    return tally


def merge_snapshots(snaps) -> dict:
    """Spans and counts of several traced processes as one tracer snapshot."""
    out = {"spans": [], "counts": {}, "flops": {}, "iterations": 0}
    for snap in snaps:
        offset = len(out["spans"])
        out["spans"] += [[n, None if p is None else p + offset, s, e] for n, p, s, e in snap["spans"]]
        for key in ("counts", "flops"):
            for name, value in snap[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["iterations"] += snap["iterations"]
    return out


def traced_pass(tally: Tally, runner, workdir: Path) -> dict:
    """One pass with spans recorded; returns the tracer snapshot."""
    from spans import Tracer

    if runner is None:
        with Tracer() as tracer:
            run_pass(tally.items, tally)
        return tracer.snapshot()
    trace_dir = workdir / "spans"
    trace_dir.mkdir(exist_ok=True)
    for old in trace_dir.glob("*.json"):
        old.unlink()
    runner.trace_dir = trace_dir
    try:
        run_pass(tally.items, tally)
    finally:
        runner.trace_dir = None
    snaps = []
    for path in sorted(trace_dir.glob("*.json"), key=lambda p: int(p.stem)):
        with open(path, encoding="utf-8") as fh:
            snaps.append(json.load(fh))
    return merge_snapshots(snaps)


def layer_metrics(snap, analyses: int) -> dict:
    """Per-layer values of one traced pass (seconds are per pass)."""
    from spans import summarize

    summary = summarize(snap["spans"])

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def per(num, den):
        return num / den if den else 0.0

    linalg = [v for k, v in summary.items() if k.startswith("linalg.")]
    return {
        "graphs.PHGraph.act.calls": snap["counts"].get("graphs.PHGraph.act", 0),
        "graphs.extrusion_product.total_s": get("graphs.extrusion_product", "total_s"),
        "graphs.complete_decorated.total_s": get("graphs.complete_decorated", "total_s"),
        "frameworks.extrude_framework.self_s": get("frameworks.extrude_framework", "self_s"),
        "frameworks.verify_extrusion_symmetry.calls": get("frameworks.verify_extrusion_symmetry", "calls"),
        "frameworks.verify_extrusion_symmetry.self_s": get("frameworks.verify_extrusion_symmetry", "self_s"),
        "ratio.verify_per_analysis": per(get("frameworks.verify_extrusion_symmetry", "calls"), analyses),
        "rigidity.rigidity_matrix.calls": get("rigidity.rigidity_matrix", "calls"),
        "rigidity.rigidity_matrix.self_s": get("rigidity.rigidity_matrix", "self_s"),
        "rigidity.infinitesimal_analysis.self_s": get("rigidity.infinitesimal_analysis", "self_s"),
        "rigidity.minimal_pinning.self_s": get("rigidity.minimal_pinning", "self_s"),
        "rigidity.hyperplane_pinning.self_s": get("rigidity.hyperplane_pinning", "self_s"),
        "rigidity.trivial_motion_basis.calls": get("rigidity.trivial_motion_basis", "calls"),
        "ratio.rigidity_builds_per_analysis": per(get("rigidity.rigidity_matrix", "calls"), analyses),
        "symmetry.build_reps.calls": get("symmetry.build_reps", "calls"),
        "symmetry.build_reps.self_s": get("symmetry.build_reps", "self_s"),
        "symmetry.character_rows.self_s": get("symmetry.character_rows", "self_s"),
        "symmetry.symmetry_adapted_basis.calls": get("symmetry.symmetry_adapted_basis", "calls"),
        "symmetry.symmetry_adapted_basis.self_s": get("symmetry.symmetry_adapted_basis", "self_s"),
        "symmetry.block_decompose.self_s": get("symmetry.block_decompose", "self_s"),
        "symmetry.fowler_guest_count.total_s": get("symmetry.fowler_guest_count", "total_s"),
        "ratio.fgc_over_dense_s": per(get("symmetry.fowler_guest_count", "total_s"),
                                      get("rigidity.infinitesimal_analysis", "total_s")),
        "linalg.calls": sum(v["calls"] for v in linalg),
        "linalg.self_s": sum(v["self_s"] for v in linalg),
        "linalg.flops_computed.symmetric": snap["flops"].get("symmetric", 0),
        "linalg.flops_computed.dense": snap["flops"].get("dense", 0),
        "finiteflex.measurement_map.self_s": get("finiteflex.measurement_map", "self_s"),
        "finiteflex.MeasurementMap.jacobian.calls": get("finiteflex.MeasurementMap.jacobian", "calls"),
        "finiteflex.MeasurementMap.jacobian.self_s": get("finiteflex.MeasurementMap.jacobian", "self_s"),
        "finiteflex.regular_point_test.self_s": get("finiteflex.regular_point_test", "self_s"),
        "finiteflex.symmetric_subspace.total_s": get("finiteflex.symmetric_subspace", "total_s"),
        "finiteflex.finite_flex_test.total_s": get("finiteflex.finite_flex_test", "total_s"),
        "finiteflex.linear_push.total_s": get("finiteflex.linear_push", "total_s"),
        "finiteflex.linear_push.iterations": snap["iterations"],
        "cli.import_s": get("cli.import", "total_s"),
        "documents.load.self_s": get("documents.load", "self_s"),
        "cli.build_report.self_s": get("cli.build_report", "self_s"),
        "cli.render_text.self_s": get("cli.render_text", "self_s"),
    }


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.startswith("ratio.") or name == "trace.overhead_ratio":
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if ".flops_computed." in name:
        return "flop"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "extrig" / "__init__.py").is_file():
        print(f"error: no extrig sources under {SRC}", file=sys.stderr)
        return 2
    import machine

    os.environ.update(machine.BLAS_ENV)          # before numpy is first imported
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {WORKLOADS}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup(args.workload, args.seed, workdir)[0]}))
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_untraced(items: Tally, probes: Tally, gauge, seconds: float) -> None:
    """Items in pass order, over and over, while the next one is predicted to end
    within ``seconds``; at least one whole pass, and every probe at least once.
    After each item, probes run in turn until their time reaches PROBE_SHARE of
    the item time so far.  The gauge samples whenever it is due between runs,
    and once at the end, so that every run has samples on both sides."""
    n, spent, k, j = len(items.items), [0.0, 0.0], 0, 0
    share = PROBE_SHARE if probes.items else 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        whole = items.attempted >= n and all(probes.latencies)
        if whole and elapsed + items.latencies[k][-1] * (1 + share) > seconds:
            break
        gauge.sample_if_due()
        spent[0] += items.run(k)
        k = (k + 1) % n
        while probes.items and spent[1] < share * spent[0]:
            gauge.sample_if_due()
            spent[1] += probes.run(j)
            j = (j + 1) % len(probes.items)
    gauge.sample()


def end_to_end_metrics(items: Tally, probes: Tally, gauge, runner, setups) -> dict:
    """Medians of gauge-scaled latencies.  An invocation is a probe in-process
    and a distinct CLI command for cli_cold."""
    scaled = items.scaled(gauge)
    item_s = {name: statistics.median(x) for name, x in scaled.items()}
    invocation_s = ([statistics.median(x) for x in probes.scaled(gauge).values()]
                    if probes.items else list(item_s.values()))
    top_size = max(it.size for it in items.items)
    top = [x for name in {it.name for it in items.items if it.size == top_size} for x in scaled[name]]
    if runner is not None:
        rss_kb = max(it.record.get("maxrss_kb", 0) for it in items.items)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    quartiles = statistics.quantiles(invocation_s, n=4)
    return {
        "wall_s": sum(item_s[it.name] for it in items.items),
        "top_rung_s": statistics.median(top),
        "invocations": len(invocation_s),
        "invocation_p50_s": quartiles[1],
        "invocation_p75_s": quartiles[2],
        "setup_s": statistics.median(x * gauge.scale(t0, t0 + x) for t0, x in setups),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def measure(args, workdir: Path) -> int:
    setup_start = time.perf_counter()
    setup_s, data, item_list, probe_list, runner = setup(args.workload, args.seed, workdir)
    import machine
    import workloads as wl
    from gauge import Gauge

    gauge = Gauge.for_processes(runner is not None)
    gauge.sample()
    setups = [(setup_start, setup_s)]
    for _ in range(SETUP_REPEATS - 1):
        setups.append(probe_setup(args))
        gauge.sample()

    items, probes, traced, snaps = Tally(item_list), Tally(probe_list), Tally(item_list), []
    end_to_end, per_layer = {}, {}
    if args.trace:
        start = time.perf_counter()
        while True:
            run_pass(item_list, items)
            snaps.append(traced_pass(traced, runner, workdir))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(snaps) > args.seconds:
                break
        layers = [layer_metrics(snap, sum(it.analysis for it in item_list)) for snap in snaps]
        per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        per_layer["trace.overhead_ratio"] = sum(traced.best()) / sum(items.best())
    else:
        measure_untraced(items, probes, gauge, args.seconds)
        end_to_end = end_to_end_metrics(items, probes, gauge, runner, setups)
    invocations = end_to_end.pop("invocations", None)

    env = machine.environment(ROOT)
    tallies = (items, probes, traced)
    problems = [p for t in tallies for p in t.problems]
    if not env["blas"]["threads"] or env["blas"]["threads"] > env["nproc"]:
        problems.append(f"BLAS threads {env['blas']['threads']} not within nproc {env['nproc']}")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    if invocations is not None and invocations < MIN_INVOCATIONS:
        problems.append(f"only {invocations} distinct invocations timed, need {MIN_INVOCATIONS}")

    metrics = per_layer if args.trace else end_to_end
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "input_digest": wl.digest(data), "passes": min(map(len, items.latencies)),
        "traced_passes": len(snaps), "invocations": invocations,
        "probe_runs": probes.attempted, "ops": attempted, "ops_failed": failed,
        "problems": problems[:20], "setup_samples_s": [x for _, x in setups],
        "gauge_samples_s": [x for _, x in gauge.samples],
        "item_latencies_s": [[it.name, x] for it, x in zip(item_list, items.latencies)],
        "traced_item_latencies_s": [[it.name, x] for it, x in zip(item_list, traced.latencies)
                                    if x],
        "items": {it.name: it.record for it in item_list},
        "end_to_end": end_to_end, "per_layer": per_layer, "environment": env,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if snaps:
        (OUT / f"{name}-spans.json").write_text(json.dumps(snaps))

    print(f"workload {args.workload}  seed {args.seed}  digest {record['input_digest']}")
    print(f"  passes {record['passes']} untraced, {len(snaps)} traced")
    if invocations is not None:
        print(f"  invocations N = {invocations} (probe runs {probes.attempted})")
    for key, value in {**end_to_end, **per_layer}.items():
        print(f"  {key:46s} {value:>14.6g} {unit_of(key)}")
    print(f"  {'ops':46s} {attempted:>14d} count")
    print(f"  {'ops_failed':46s} {failed:>14d} count")
    for problem in problems[:5]:
        print(f"  problem: {problem}")
    print("record " + json.dumps(record, separators=(",", ":")))
    result = {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
