"""One analysis builds its coordinate and row bookkeeping once per use.

Counted by wrapping the constructors of ``CoordinateIndex`` and of
``RowLayout`` (the one definition of the row order), and
``parallel_respecting_basis``, which only the linear push and
point-hyperplane subspaces read.  ``PHGraph.act`` is called only by the
symmetry residual pass, once per vertex and element of Z2^t other than the
identity, whose row is zero: (2^t - 1) |V| calls mean one pass per
framework, however many symmetry checks read it.
"""
from collections import Counter
from importlib import resources

import pytest

import extrig.finiteflex
import extrig.rigidity
from extrig import documents
from extrig.cli import build_report
from extrig.finiteflex import finite_flex_test, linear_push
from extrig.fixtures import (point_line_extruded_fixed, point_line_twofold_pinned, prism,
                             prism_twofold)
from extrig.graphs import PHGraph
from extrig.rigidity import EMPTY_PIN, RowLayout, infinitesimal_analysis, minimal_pinning
from extrig.symmetry import fowler_guest_count


def prism_twofold_report():
    doc = documents.load(resources.files("extrig").joinpath("data", "prism_twofold.json"))
    build_report("prism_twofold.json", doc.framework, doc.pinning or EMPTY_PIN, 1e-9)


@pytest.fixture
def counts(monkeypatch):
    seen = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls in (extrig.rigidity.CoordinateIndex, extrig.rigidity.RowLayout):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    monkeypatch.setattr(PHGraph, "act", counted("PHGraph.act", PHGraph.act))
    monkeypatch.setattr(extrig.finiteflex, "parallel_respecting_basis",
                        counted("parallel_respecting_basis",
                                extrig.finiteflex.parallel_respecting_basis))
    return seen


# PHGraph.act: (2^t - 1) |V| for prism (t = 1, 6 vertices), prism_twofold
# (t = 2, 12) and point_line_twofold_pinned (t = 2, 8; the pass covers the
# inactive direction too)
CALLS = {
    # an unpinned bar-joint extrusion's blocks come from its base edges and
    # lift to full coordinates directly: no index and no layout
    "fowler_guest_count": (lambda: fowler_guest_count(prism()),
                           {"CoordinateIndex": 0, "RowLayout": 0, "PHGraph.act": 1 * 6}),
    # the trivial-motion count reads the rigidity matrix's own index
    "infinitesimal_analysis": (lambda: infinitesimal_analysis(prism()),
                               {"CoordinateIndex": 1, "RowLayout": 1}),
    # the report's check and the block decomposition's gate share one pass;
    # its rank line reads the blocks, and only the trivial motions index
    "build_report": (prism_twofold_report, {"CoordinateIndex": 1, "RowLayout": 0,
                                            "PHGraph.act": 3 * 12}),
    # irreducible 0 of an unpinned bar-joint extrusion evaluates its base rows
    # from the edge ends, with no layout; the gate's residual pass is the only
    # other work
    "finite_flex_test": (lambda: finite_flex_test(prism()),
                         {"RowLayout": 0, "PHGraph.act": 1 * 6}),
    # any other irreducible takes the general path: the representations, the
    # measurement map and the trivial motions each index the coordinates
    "finite_flex_test_irrep_1": (lambda: finite_flex_test(prism(), irrep_index=1),
                                 {"CoordinateIndex": 3, "RowLayout": 2, "PHGraph.act": 1 * 6}),
    # the complete decorated graph gets no layout: its rank comes from the
    # trivial motions
    "finite_flex_test_point_hyperplane": (lambda: finite_flex_test(*point_line_twofold_pinned()),
                                          {"CoordinateIndex": 3, "RowLayout": 2,
                                           "parallel_respecting_basis": 1,
                                           "PHGraph.act": 3 * 8}),
    "minimal_pinning": (lambda: minimal_pinning(prism()), {}),
    # the trivial count reads the measurement map's index; a bar-joint
    # framework's domain is every unpinned coordinate, so no basis of it is built
    "linear_push": (lambda: linear_push(prism(), minimal_pinning(prism()), seed=11),
                    {"CoordinateIndex": 1, "RowLayout": 1, "parallel_respecting_basis": 0}),
    "linear_push_point_hyperplane": (
        lambda: linear_push(point_line_extruded_fixed(),
                            minimal_pinning(point_line_extruded_fixed()), seed=3),
        {"CoordinateIndex": 1, "RowLayout": 1, "parallel_respecting_basis": 1}),
}


@pytest.mark.parametrize("name", CALLS)
def test_bookkeeping_is_built_once_per_use(counts, name):
    call, expected = CALLS[name]
    call()
    # a name listed with 0 must not be counted at all
    assert {name: counts[name] for name in counts.keys() | expected.keys()} == expected


def refuse_row_layout(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("row layout evaluated")

    monkeypatch.setattr(RowLayout, "nonzeros", refuse)


def test_base_certificate_evaluates_no_row_layout(monkeypatch):
    """With the count of 0 layouts above: no layout's nonzeros are read either."""
    refuse_row_layout(monkeypatch)
    assert finite_flex_test(prism()).determination == "FiniteFlexCertified"


@pytest.mark.parametrize("fixture", [prism, prism_twofold])
def test_copy_zero_blocks_evaluate_no_row_layout(monkeypatch, fixture):
    """fowler_guest_count on the copy-0 path reads no layout's nonzeros."""
    fw = fixture()
    refuse_row_layout(monkeypatch)
    assert fowler_guest_count(fw).block_shapes


@pytest.mark.parametrize("name", ["prism_twofold.json", "point_line_twofold_pinned.json",
                                  "constrained_cube_pinned.json"])
def test_row_layout_is_built_from_integer_edge_ends(monkeypatch, name):
    """No vertex position is looked up while the rows are laid out; the labels,
    derived afterwards, name the ends held as integers."""
    doc = documents.load(resources.files("extrig").joinpath("data", name))
    fw, pin = doc.framework, doc.pinning or EMPTY_PIN
    graph = fw.graph

    def refuse(*args):
        raise AssertionError("vertex position looked up")

    with monkeypatch.context() as patched:
        patched.setattr(PHGraph, "position", property(refuse))
        patched.setattr(PHGraph, "is_point", refuse)
        layout = RowLayout(graph, fw.dim, pin)
    for kind, (_, where, positions, *_) in layout.groups.items():
        for r, ends in zip(where, positions.T):
            label = layout.rows[r]
            assert label[0] == kind
            verts = (label[1],) if kind == "norm" else label[1]
            assert [graph.position[v] for v in verts] == ends.tolist()
