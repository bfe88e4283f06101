"""One analysis builds its coordinate and row bookkeeping once per use.

Counted by wrapping the constructors of ``CoordinateIndex`` and of
``RowLayout`` (the one definition of the row order), and
``parallel_respecting_basis``, which only the linear push and
point-hyperplane subspaces read.  ``PHGraph.act`` is called only by the
symmetry residual pass, once per vertex and element of Z2^t: 2^t |V| calls
mean one pass per framework, however many symmetry checks read it.
"""
from collections import Counter
from importlib import resources

import pytest

import extrig.finiteflex
import extrig.rigidity
from extrig import documents
from extrig.cli import build_report
from extrig.finiteflex import finite_flex_test
from extrig.fixtures import point_line_twofold_pinned, prism
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


# PHGraph.act: 2^t |V| for prism (t = 1, 6 vertices), prism_twofold (t = 2,
# 12) and point_line_twofold_pinned (t = 2, 8; the pass covers the inactive
# direction too)
CALLS = {
    "fowler_guest_count": (lambda: fowler_guest_count(prism()),
                           {"CoordinateIndex": 1, "RowLayout": 1, "PHGraph.act": 2 * 6}),
    "infinitesimal_analysis": (lambda: infinitesimal_analysis(prism()),
                               {"CoordinateIndex": 2, "RowLayout": 1}),
    # the report's check and the block decomposition's gate share one pass
    "build_report": (prism_twofold_report, {"CoordinateIndex": 3, "RowLayout": 2,
                                            "PHGraph.act": 4 * 12}),
    "finite_flex_test": (lambda: finite_flex_test(prism()),
                         {"CoordinateIndex": 3, "RowLayout": 2, "PHGraph.act": 2 * 6}),
    # the complete decorated graph gets no layout: its rank comes from the
    # trivial motions
    "finite_flex_test_point_hyperplane": (lambda: finite_flex_test(*point_line_twofold_pinned()),
                                          {"CoordinateIndex": 3, "RowLayout": 2,
                                           "parallel_respecting_basis": 1,
                                           "PHGraph.act": 4 * 8}),
    "minimal_pinning": (lambda: minimal_pinning(prism()), {}),
}


@pytest.mark.parametrize("name", CALLS)
def test_bookkeeping_is_built_once_per_use(counts, name):
    call, expected = CALLS[name]
    call()
    assert dict(counts) == expected


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
