"""Seeded inputs, call chains and output checks of the benchmark workloads.

Each generator takes the workload seed and returns plain data: vertex
names, coordinates, edge lists, extrusion directions and CLI argument
lists.  :func:`digest` hashes that data, so two results with equal digests
measured the same inputs.  :func:`prepare` turns the data into extrig
objects and :class:`Item` callables.  An item calls the program through the
``extrig`` namespaces (so a traced run sees every call) and returns the
problems its output checks found; an empty list means the output is
correct.

Generators never re-draw an input: shapes are built so that they stay away
from degenerate positions for every seed.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import extrig
import extrig.cli
from extrig import Configuration, Framework, PHGraph, Vertex

DEFAULT_SEED = 1

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"

FINITE_FLEX_CERTIFIED = "FiniteFlexCertified"
LINEARLY_DETECTABLE = "LinearlyDetectable"


@dataclass
class Item:
    """One unit of work: ``run()`` returns the problems its checks found."""

    name: str
    size: int                      # larger means a bigger input; the largest is the top rung
    run: object
    record: dict = field(default_factory=dict)   # outputs kept for the result record
    analysis: bool = True          # counts as one analysis in the per-analysis ratios


# -- generators -----------------------------------------------------------------


def _rng(seed, *tag):
    return np.random.default_rng([seed, *tag])


def _unit(angle):
    return [math.cos(angle), math.sin(angle)]


def triangle_base():
    return {"dim": 2, "points": {"p1": [0.0, 0.0], "p2": [3.0, 0.0], "p3": [1.5, 1.0]},
            "pp": [["p1", "p2"], ["p1", "p3"], ["p2", "p3"]]}


def rigid_fan(rng, n):
    """Triangulated fan: a hub joined to every rim vertex, rim vertices in a path.

    Rim vertices sit on a convex arc at jittered angles and radii, so every
    fan triangle keeps an area bounded away from zero (2n - 3 bars, rigid).
    """
    step = math.pi / (n - 1)
    points = {"v00": [0.0, 0.0]}
    for i in range(1, n):
        angle = (i - 1 + rng.uniform(0.3, 0.7)) * step
        radius = rng.uniform(3.0, 5.0)
        points[f"v{i:02d}"] = [radius * math.cos(angle), radius * math.sin(angle)]
    pp = [["v00", f"v{i:02d}"] for i in range(1, n)]
    pp += [[f"v{i:02d}", f"v{i + 1:02d}"] for i in range(1, n - 1)]
    return {"dim": 2, "points": points, "pp": pp}


def plane_directions(rng, t, lo=0.0, hi=math.pi):
    """t directions in the plane with angles spread over (lo, hi) and lengths in [2, 4]."""
    width = (hi - lo) / t
    return [[x * rng.uniform(2.0, 4.0) for x in _unit(lo + (h + rng.uniform(0.2, 0.8)) * width)]
            for h in range(t)]


def generate(workload: str, seed: int, root: Path) -> list:
    """Plain-data inputs of one workload; equal seeds give equal data."""
    if workload == "barjoint_ladder":
        items = []
        for t in range(1, 6):
            items.append({"name": f"triangle_t{t}", "base": triangle_base(),
                          "directions": plane_directions(_rng(seed, 0, t), t), "fixed": [[]] * t})
        for n in (10, 30):
            base = rigid_fan(_rng(seed, 1, n), n)
            for t in range(1, 4):
                items.append({"name": f"fan{n}_t{t}", "base": base,
                              "directions": plane_directions(_rng(seed, 2, n, t), t),
                              "fixed": [[]] * t})
        return items
    if workload == "flex_certify":
        items = []
        for n in (10, 20, 30, 40):
            base = rigid_fan(_rng(seed, 5, n), n)
            for t in (1, 2):
                items.append({"name": f"fan{n}_t{t}", "base": base,
                              "directions": plane_directions(_rng(seed, 6, n, t), t),
                              "fixed": [[]] * t, "t": t})
        return items
    if workload == "cli_cold":
        return cli_invocations(seed, root)
    raise ValueError(f"unknown workload {workload!r}")


PROBE_SIZES = range(4, 14)
PROBE_VARIANTS = 8          # 80 probes: p75 then has twenty samples beyond it, and
                            # moves less with the seeded geometry of a few probes


def probes(workload: str, seed: int) -> list:
    """Seeded rigid fans of 4..13 vertices at t = 1, eight of each size: the
    in-process invocations.

    The invocation quantiles are taken over the probes' best latencies, so
    they describe how the per-call cost of small inputs spreads with their
    size.  Returned in a seeded order, so that sizes mix across the run.
    """
    if workload not in ("barjoint_ladder", "flex_certify"):
        return []
    specs = [{"name": f"probe_fan{n}_{v}", "base": rigid_fan(_rng(seed, 8, n, v), n),
              "directions": plane_directions(_rng(seed, 9, n, v), 1), "fixed": [[]], "t": 1}
             for n in PROBE_SIZES for v in range(PROBE_VARIANTS)]
    return [specs[i] for i in _rng(seed, 10).permutation(len(specs))]


def inputs(workload: str, seed: int, root: Path) -> dict:
    """Everything a run of the workload feeds the program: items and probes."""
    return {"items": generate(workload, seed, root), "probes": probes(workload, seed)}


def digest(data) -> str:
    """sha256 of the canonical JSON of the generated inputs (floats by repr)."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


# -- building program objects ------------------------------------------------------


def build_base(spec) -> Framework:
    """Bar-joint base framework: points and point-point bars."""
    pts = {name: Vertex(name) for name in spec["points"]}
    graph = PHGraph(points=tuple(pts.values()), hyperplanes=(),
                    edges_pp=tuple((pts[a], pts[b]) for a, b in spec["pp"]))
    d = spec["dim"]
    coords = np.array([spec["points"][v.base] for v in graph.points], dtype=float).reshape(-1, d)
    return Framework(graph, Configuration(d, coords, np.empty((0, d + 1))))


def ladder_problems(sym, mob, ana) -> list:
    """Block ranks sum to the dense rank; the blocks exhaust columns and rows."""
    problems = []
    if not sym.ok:
        problems.append(f"extrusion symmetry violated: {sym.violations[:1]}")
    ranks = [shape[0] - mob.stress_dims[i] for i, shape in enumerate(mob.block_shapes)]
    kernel_ranks = [shape[1] - mob.detected_flex_dims[i] for i, shape in enumerate(mob.block_shapes)]
    if ranks != kernel_ranks:
        problems.append(f"block ranks from stresses {ranks} != from kernels {kernel_ranks}")
    cols, rows = ana.rank + ana.nullity, ana.rank + ana.stress_dim
    if sum(ranks) != ana.rank:
        problems.append(f"sum of block ranks {sum(ranks)} != dense rank {ana.rank}")
    if int(sum(mob.freedoms)) != cols or sum(s[1] for s in mob.block_shapes) != cols:
        problems.append(f"sum of lambda {int(sum(mob.freedoms))} != columns {cols}")
    if int(sum(mob.constraints)) != rows or sum(s[0] for s in mob.block_shapes) != rows:
        problems.append(f"sum of mu {int(sum(mob.constraints))} != rows {rows}")
    return problems


def ladder_item(spec) -> Item:
    base = build_base(spec["base"])
    directions = np.asarray(spec["directions"], dtype=float)
    fixed = [tuple(f) for f in spec["fixed"]]
    record = {}

    def run():
        fw = extrig.extrude_framework(base, directions, fixed)
        sym = extrig.verify_extrusion_symmetry(fw)
        mob = extrig.fowler_guest_count(fw)
        ana = extrig.infinitesimal_analysis(fw)
        record.update(active=list(fw.extrusion.active), rank=ana.rank,
                      shape=[ana.rank + ana.stress_dim, ana.rank + ana.nullity],
                      nets=[int(x) for x in mob.nets])
        return ladder_problems(sym, mob, ana)

    size = len(base.graph.vertices) * 2 ** len(directions)
    return Item(spec["name"], size, run, record)


def flex_item(spec, expected) -> Item:
    """finite_flex_test on the extruded fan; t = 1 adds minimal_pinning and linear_push.

    ``expected`` maps item names to the outputs recorded at the default seed,
    or is None on other seeds, where only the t = 1 verdicts are fixed.
    """
    fw = extrig.extrude_framework(build_base(spec["base"]),
                                  np.asarray(spec["directions"], dtype=float),
                                  [tuple(f) for f in spec["fixed"]])
    record = {}

    def run():
        record.clear()
        res = extrig.finite_flex_test(fw)
        record["determination"] = res.determination
        if spec["t"] == 1:
            pin = extrig.minimal_pinning(fw)
            push = extrig.linear_push(fw, pin)
            record.update(push=push.determination, iterations=push.iterations)
        if expected is not None:
            want = expected.get(spec["name"])
            return [] if record == want else [f"got {record}, recorded {want}"]
        if spec["t"] == 1 and (record["determination"] != FINITE_FLEX_CERTIFIED
                               or record["push"] != LINEARLY_DETECTABLE):
            return [f"t=1 fan gave {record}"]
        return []

    return Item(spec["name"], len(fw.graph.vertices), run, record)


# -- cli_cold ------------------------------------------------------------------------

RESIDUAL = re.compile(r"\d\.\d\de[+-]\d\d")
PIN_MINIMAL = ("prism", "triangle", "prism_twofold", "triangle_cycle", "k33_orthogonal")
PIN_HYPERPLANE = ("point_line_extruded_fixed", "point_line_twofold", "constrained_cube")
TOP_RUNG_REPEATS = 10  # enough samples of the top rung for a steady median


def mask_residuals(text: str) -> str:
    """Drop round-off digits (residuals such as 2.22e-16); integers stay."""
    return RESIDUAL.sub("<residual>", text)


def gallery(root: Path) -> dict:
    data = root / "src" / "extrig" / "data"
    return {p.stem: p.read_text() for p in sorted(data.glob("*.json"))}


def cli_invocations(seed: int, root: Path) -> dict:
    """Pins first (their outputs feed push), then analyze/push in seeded order.

    ``analyze`` of the largest document, the top rung, runs TOP_RUNG_REPEATS times.
    """
    docs = gallery(root)
    # ties go to the later name, so a *_pinned document beats its unpinned source
    largest = max(docs, key=lambda name: (document_size(docs[name]), name))
    pins = [["pin", "--mode", "minimal", f"{n}.json", "-o", f"{n}_min.json"] for n in PIN_MINIMAL]
    pins += [["pin", "--mode", "hyperplane", f"{n}.json", "-o", f"{n}_hp.json"]
             for n in PIN_HYPERPLANE]
    rest = [["analyze", f"{n}.json"] for n in docs]
    rest += [["analyze", f"{n}.json", "--json"] for n in docs]
    rest += [["push", f"{n}_min.json", "--seed", "11", "--json"] for n in PIN_MINIMAL]
    rest += [["push", f"{n}.json", "--json"] for n in docs if n.endswith("_pinned")]
    top_rung = ["analyze", f"{largest}.json"]
    rest += [top_rung] * (TOP_RUNG_REPEATS - 1)
    order = _rng(seed, 7).permutation(len(rest))
    return {"documents": docs, "invocations": pins + [rest[i] for i in order], "top_rung": top_rung}


def cli_expected_output(argv, root: Path, recorded: dict):
    """(exit code, expected text or None) for one invocation.

    Text comes from ``tests/golden`` where a golden exists, otherwise from the
    output recorded at this benchmark's introduction.
    """
    key = " ".join(argv)
    want = recorded[key]
    golden = root / "tests" / "golden"
    if argv[0] == "analyze":
        g = golden / f"analyze_{Path(argv[1]).stem}.txt"
        if g.is_file():
            return want["exit"], mask_residuals(g.read_text())
    if argv[0] == "push" and argv[1] == "prism_min.json" and (golden / "push_prism.json").is_file():
        expected = json.loads((golden / "push_prism.json").read_text())
        expected["input"] = "prism_min.json"
        return want["exit"], json.dumps(expected, sort_keys=True)
    return want["exit"], want["output"]


def cli_observed_output(argv, stdout: str, workdir: Path) -> str:
    """Comparable form of an invocation's output.

    analyze text is masked; analyze --json is rendered through the CLI's own
    text renderer and masked; push --json is re-serialised with sorted keys;
    pin is the written document (coordinates round-trip exactly).
    """
    if argv[0] == "analyze":
        if "--json" in argv:
            return mask_residuals(extrig.cli.render_text(json.loads(stdout)))
        return mask_residuals(stdout)
    if argv[0] == "push":
        return json.dumps(json.loads(stdout), sort_keys=True) if stdout.strip() else ""
    out = workdir / argv[argv.index("-o") + 1]
    return out.read_text() if out.is_file() else ""


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- prepare -----------------------------------------------------------------------------


def prepare(workload: str, data, seed: int, root: Path, workdir: Path, cli_runner=None) -> list:
    """Program objects and items for a workload's generated data."""
    if workload == "barjoint_ladder":
        return [ladder_item(spec) for spec in data]
    if workload == "flex_certify":
        recorded = load_json(EXPECTED / "flex_certify.json")
        expected = recorded["items"] if seed == recorded["seed"] else None
        return [flex_item(spec, expected) for spec in data]
    if workload == "cli_cold":
        recorded = load_json(EXPECTED / "cli_cold.json")
        for name, text in data["documents"].items():
            (workdir / f"{name}.json").write_text(text)
        return [cli_item(argv, root, workdir, recorded, cli_runner, argv == data["top_rung"])
                for argv in data["invocations"]]
    raise ValueError(f"unknown workload {workload!r}")


def prepare_probes(workload: str, specs) -> list:
    """Probe items; a flex probe is held to the t = 1 verdicts, as on any seed."""
    if workload == "flex_certify":
        return [flex_item(spec, None) for spec in specs]
    return [ladder_item(spec) for spec in specs]


def document_size(text: str) -> int:
    doc = json.loads(text)
    return len(doc["vertices"]) + len(doc["edges"])


def cli_item(argv, root: Path, workdir: Path, recorded: dict, runner, top: bool) -> Item:
    code, want = cli_expected_output(argv, root, recorded)
    record = {}

    def run():
        rc, stdout, stderr, maxrss_kb = runner(argv, workdir)
        record.update(exit=rc, maxrss_kb=max(record.get("maxrss_kb", 0), maxrss_kb))
        problems = []
        if rc != code:
            problems.append(f"{' '.join(argv)}: exit {rc}, expected {code}: {stderr.strip()[-200:]}")
        elif want is not None and cli_observed_output(argv, stdout, workdir) != want:
            problems.append(f"{' '.join(argv)}: output differs from the expected output")
        return problems

    return Item(" ".join(argv), int(top), run, record, analysis=argv[0] == "analyze")


# -- running CLI processes ------------------------------------------------------------------


def run_process(cmd, cwd: Path, env: dict):
    """Run a child to completion; returns (exit code, stdout, stderr, peak RSS in KiB)."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(), err_path.read_text(), usage.ru_maxrss)


class CliRunner:
    """Runs one CLI command in a fresh interpreter.

    Untraced it is ``python -m extrig.cli``; while ``trace_dir`` is set it is
    ``cli_child.py``, which records spans into a file in that directory.
    """

    def __init__(self, root: Path):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.child = HERE / "cli_child.py"
        self.trace_dir = None
        self.calls = 0

    def __call__(self, argv, workdir: Path):
        self.calls += 1
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "extrig.cli", *argv]
        else:
            cmd = [sys.executable, str(self.child), str(self.trace_dir / f"{self.calls}.json"), *argv]
        return run_process(cmd, workdir, self.env)
