"""Self-tests of the benchmark: python3 -m pytest perfbench (from the repository root)."""
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import extrig  # noqa: E402
import extrig.fixtures  # noqa: E402
from gauge import Gauge  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_digest(workload):
    first = wl.digest(wl.inputs(workload, 5, ROOT))
    assert first == wl.digest(wl.inputs(workload, 5, ROOT))
    assert first != wl.digest(wl.inputs(workload, 6, ROOT))


def test_self_time_on_nested_span_tree():
    # root [0, 10] has children [1, 4] and [5, 9]; [1, 4] has child [2, 3]
    tree = [["root", None, 0.0, 10.0], ["a", 0, 1.0, 4.0], ["a.x", 1, 2.0, 3.0],
            ["b", 0, 5.0, 9.0]]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    summary = spans.summarize(tree)
    assert summary["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert summary["a.x"]["total_s"] == 1.0


def test_nested_same_name_counts_total_once():
    tree = [["f", None, 0.0, 4.0], ["f", 0, 1.0, 2.0]]
    assert spans.summarize(tree)["f"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}


def test_tracer_patches_imported_names_and_restores_them():
    original = extrig.symmetry.block_decompose
    original_fgc = extrig.symmetry.fowler_guest_count
    with spans.Tracer() as tracer:
        assert extrig.finiteflex.block_decompose is not original
        assert extrig.cli.fowler_guest_count is not original_fgc
        fw = extrig.fixtures.prism()
        extrig.fowler_guest_count(fw)
        extrig.infinitesimal_analysis(fw)
    assert extrig.finiteflex.block_decompose is original
    assert extrig.symmetry.block_decompose is original
    assert extrig.cli.fowler_guest_count is original_fgc
    names = {s[0] for s in tracer.spans}
    assert {"symmetry.fowler_guest_count", "symmetry.block_decompose",
            "rigidity.infinitesimal_analysis", "linalg.nullspace"} <= names
    assert tracer.counts["graphs.PHGraph.act"] > 0
    assert tracer.flops["symmetric"] > 0 and tracer.flops["dense"] > 0
    # every span closed, and each parent encloses its child
    for name, parent, start, end in tracer.spans:
        assert end >= start
        if parent is not None:
            assert tracer.spans[parent][2] <= start and end <= tracer.spans[parent][3]


def small_ladder():
    data = [spec for spec in wl.generate("barjoint_ladder", wl.DEFAULT_SEED, ROOT)
            if spec["name"] in ("triangle_t1", "triangle_t2", "fan10_t1")]
    return wl.prepare("barjoint_ladder", data, wl.DEFAULT_SEED, ROOT, None)


def test_ladder_checks_pass():
    result = run.run_pass(small_ladder())
    assert result.failed == 0, result.problems


def test_injected_wrong_block_rank_counts_as_failed(monkeypatch):
    real = extrig.fowler_guest_count

    def wrong_rank(*args, **kwargs):
        mob = real(*args, **kwargs)
        dims = dict(mob.stress_dims)
        dims[0] += 1                     # one block claims rank one lower
        return replace(mob, stress_dims=dims)

    monkeypatch.setattr(extrig, "fowler_guest_count", wrong_rank)
    result = run.run_pass(small_ladder())
    assert result.failed == 3
    assert all("block ranks" in p or "sum of block ranks" in p for p in result.problems)


def test_exception_counts_as_failed(monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(extrig, "infinitesimal_analysis", boom)
    result = run.run_pass(small_ladder())
    assert result.failed == 3


def test_flex_expectations_are_for_the_default_seed():
    recorded = wl.load_json(wl.EXPECTED / "flex_certify.json")
    assert recorded["seed"] == wl.DEFAULT_SEED
    names = {spec["name"] for spec in wl.generate("flex_certify", wl.DEFAULT_SEED, ROOT)}
    assert set(recorded["items"]) == names


def test_cli_top_rung_is_a_successful_analysis():
    data = wl.generate("cli_cold", wl.DEFAULT_SEED, ROOT)
    recorded = wl.load_json(wl.EXPECTED / "cli_cold.json")
    assert data["invocations"].count(data["top_rung"]) == wl.TOP_RUNG_REPEATS
    assert recorded[" ".join(data["top_rung"])]["exit"] == 0
    assert len({tuple(argv) for argv in data["invocations"]}) >= run.MIN_INVOCATIONS


def test_untraced_loop_runs_a_whole_pass_and_every_probe():
    def item(name):
        return wl.Item(name, 1, lambda: [])

    items = run.Tally([item("a"), item("b"), item("c")])
    probes = run.Tally([item(f"p{i}") for i in range(5)])
    gauge = Gauge.for_processes(False)
    run.measure_untraced(items, probes, gauge, 0.0)
    assert all(items.latencies) and all(probes.latencies) and gauge.samples
    assert items.failed == probes.failed == 0
    assert items.best() == [min(x) for x in items.latencies]


def test_masking_keeps_integers():
    line = "blocks: rho_0: 3x6 (off-diagonal residual 1.48e-16)"
    assert wl.mask_residuals(line) == "blocks: rho_0: 3x6 (off-diagonal residual <residual>)"
