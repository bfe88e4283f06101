"""Built-in example frameworks used by the test suite and the CLI gallery.

Each fixture loads ``extrig/data/<name>.json``, the one definition of the
gallery, and returns a fresh :class:`Framework`; the ``*_pinned`` variants
also return the document's pinning, which restores the block structure or
removes the rigid-body freedoms.
"""
from __future__ import annotations

from pathlib import Path

from .documents import load
from .graphs import Vertex
from .rigidity import PinningSpec

DATA = Path(__file__).with_name("data")


def _fixture(name, doc=None):
    """The fixture ``name``, with docstring ``doc``: a load of its bundled document."""
    def fixture():
        document = load(DATA / f"{name}.json")
        if name.endswith("_pinned"):
            return document.framework, document.pinning
        return document.framework
    fixture.__name__ = fixture.__qualname__ = name
    fixture.__doc__ = doc
    return fixture


triangle = _fixture("triangle", "Isostatic triangle in the plane.")
prism = _fixture("prism", "Triangle extruded once upward: the flexible triangular prism framework.")
prism_pinned = _fixture("prism_pinned", "Prism with the two leftmost vertices pinned and "
                                        "their joining bar removed.")
prism_twofold = _fixture("prism_twofold",
                         "Triangle extruded twice; twelve vertices with Z2 x Z2 symmetry.")
point_line_base = _fixture("point_line_base",
                           "One point constrained against two lines in the plane.")
point_line_extruded = _fixture("point_line_extruded",
                               "Point-line framework extruded along a direction in neither line.")
point_line_extruded_fixed = _fixture(
    "point_line_extruded_fixed",
    "Point-line framework extruded along the first line, which is contracted.")
point_line_extruded_fixed_pinned = _fixture("point_line_extruded_fixed_pinned")
point_line_twofold = _fixture("point_line_twofold",
                              "Two-fold extrusion along both lines; every line contains a direction.")
point_line_twofold_pinned = _fixture("point_line_twofold_pinned")
constrained_cube = _fixture(
    "constrained_cube",
    "Unit cube with coplanarity constraints on four faces and two parallel pairs.\n\n"
    "One point on two orthogonal planes, extruded along x, y, and z.")
constrained_cube_pinned = _fixture("constrained_cube_pinned")
triangle_cycle = _fixture("triangle_cycle", "Three translated copies of a triangle, "
                                            "corresponding vertices all joined.")
k33_orthogonal = _fixture("k33_orthogonal", "K33 with the partite sets on two orthogonal lines; "
                                            "flexible but isostatic by count.")


def triangle_cycle_classes():
    """Vertex classes whose shared-velocity subspace carries the finite flex."""
    return [[Vertex(f"v{j + 1}c{c + 1}") for c in range(3)] for j in range(3)]


def k33_pinnings():
    """Minimal pinnings on a non-adjacent and an adjacent vertex pair."""
    a1, a2, b1 = Vertex("a1"), Vertex("a2"), Vertex("b1")
    non_adjacent = PinningSpec(coords={(a1, 0), (a1, 1), (a2, 1)})
    adjacent = PinningSpec(coords={(a1, 0), (a1, 1), (b1, 0)})
    return non_adjacent, adjacent


FIXTURES = {f.__name__: f for f in (
    triangle, prism, prism_twofold, point_line_base, point_line_extruded,
    point_line_extruded_fixed, point_line_twofold, constrained_cube, triangle_cycle,
    k33_orthogonal)}

PINNED_FIXTURES = {f.__name__: f for f in (
    prism_pinned, point_line_extruded_fixed_pinned, point_line_twofold_pinned,
    constrained_cube_pinned)}
