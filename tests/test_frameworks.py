import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extrusion_oracles import (extrusion_displacement, pairwise_coincident, residual_table,
                               scalar_verify_extrusion_symmetry)
from extrusions import random_bar_joint_extrusions, random_point_hyperplane_extrusions
from extrig.frameworks import (Configuration, ExtrusionSpec, Framework, _has_coincident,
                               affine_span_check, apply_affine, apply_infinitesimal_rotation,
                               displacements, extrude_framework,
                               normalize_hyperplanes, verify_extrusion_symmetry)
from extrig.graphs import PHGraph, Vertex, group_elements
from extrig.symmetry import SymmetryPreconditionError, fowler_guest_count
from extrig.fixtures import (constrained_cube, k33_orthogonal, point_line_base,
                             point_line_extruded, point_line_extruded_fixed,
                             point_line_twofold, prism, prism_twofold, triangle)
from extrig.linalg import COINCIDENT_TOL
from extrig.rigidity import rigidity_matrix

EXTRUSION_FIXTURES = [prism, prism_twofold, point_line_extruded,
                      point_line_extruded_fixed, point_line_twofold, constrained_cube]


@settings(deadline=None)
@given(st.one_of(random_bar_joint_extrusions(),
                 random_point_hyperplane_extrusions().map(lambda case: case[0])))
def test_displacements_match_the_word_definition_bitwise(fw):
    """displacements on the graph's steps is, vertex by vertex, the
    displacement of its word by definition, to the bit."""
    spec, graph = fw.extrusion, fw.graph
    for gamma in group_elements(spec.order):
        rows = displacements(spec, graph.steps, gamma)
        for v, row in zip(graph.vertices, rows):
            assert np.array_equal(row, extrusion_displacement(spec, v.word, gamma))


def test_contracted_hyperplanes_come_from_the_words():
    """The spec holds no contracted sets: a spec built without them still
    leaves the ph edge on the contracted line w1|* live, which the block
    decomposition refuses."""
    fw = point_line_extruded_fixed()
    spec = ExtrusionSpec(fw.extrusion.directions)
    assert fw.graph.fixed_sets == (frozenset({"w1"}),)
    with pytest.raises(SymmetryPreconditionError, match=r"w1\|\* \(direction 0\)"):
        fowler_guest_count(Framework(fw.graph, fw.config, spec))


def test_prism_coordinates():
    fw = prism()
    assert np.allclose(fw.point(Vertex("p1", "1")), [0.0, 2.0])
    assert np.allclose(fw.point(Vertex("p3", "1")), [1.5, 3.0])
    assert verify_extrusion_symmetry(fw, 1e-12).ok


def test_twofold_coordinates():
    fw = prism_twofold()
    assert len(fw.graph.vertices) == 12
    assert np.allclose(fw.point(Vertex("p3", "11")), [1.0 + 4.0, 1.0 + 3.0 - 0.8])
    assert verify_extrusion_symmetry(fw, 1e-12).ok


def test_point_line_extruded_fixed_matches_known_values():
    fw = point_line_extruded_fixed()
    a, r = fw.hyperplane(Vertex("w1", "*"))
    assert np.allclose(a, [1.0, -1.0]) and r == -1.0
    a, r = fw.hyperplane(Vertex("w2", "1"))
    assert np.allclose(a, [0.0, 1.0]) and r == pytest.approx(1.5)
    assert np.allclose(fw.point(Vertex("v1", "1")), [2.0, 2.0])
    assert verify_extrusion_symmetry(fw, 1e-12).ok


def test_offset_shift_law_twofold():
    fw = point_line_twofold()
    _, r0 = fw.hyperplane(Vertex("w1", "*0"))
    _, r1 = fw.hyperplane(Vertex("w1", "*1"))
    assert r0 == -1.0 and r1 == pytest.approx(3.0)  # shift by <a, tau_2> = 4
    assert verify_extrusion_symmetry(fw, 1e-12).ok


def test_extrude_rejects_zero_direction():
    with pytest.raises(ValueError, match="zero extrusion direction"):
        extrude_framework(triangle(), [(0.0, 0.0)])


def test_extrude_rejects_inconsistent_fixed_sets():
    base = point_line_base()
    # direction along w1 but not declared fixed
    with pytest.raises(ValueError, match="not in fixed set"):
        extrude_framework(base, [(2.0, 2.0)], [()])
    # w2 declared fixed although the direction leaves it
    with pytest.raises(ValueError, match="does not lie"):
        extrude_framework(base, [(2.0, 2.0)], [("w1", "w2")])


def test_verify_reports_perturbation():
    fw = prism()
    pts = fw.config.points.copy()
    pts[3] += np.array([0.1, 0.0])
    broken = Framework(fw.graph, Configuration(2, pts, fw.config.hyperplanes), fw.extrusion)
    report = verify_extrusion_symmetry(broken, 1e-9)
    assert not report.ok
    assert any(law == "point-translation" for law, _, _ in report.violations)


def assert_reports_equal(fw, tol, active_only):
    got = verify_extrusion_symmetry(fw, tol, active_only)
    want = scalar_verify_extrusion_symmetry(fw, tol, active_only)
    assert got.ok == want.ok
    assert got.max_residual == want.max_residual and type(got.max_residual) is float
    assert got.violations == want.violations
    assert got.notes == want.notes


@st.composite
def symmetry_checks(draw):
    """A generated extrusion, unperturbed or with coordinates moved by a drawn
    amount, a random active set, and the (tol, active_only) calls to make on
    it, in a drawn order."""
    fw = draw(st.one_of(random_bar_joint_extrusions(),
                        random_point_hyperplane_extrusions().map(lambda pair: pair[0])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.sampled_from([0.0, 1e-13, 1e-10, 1e-7, 1e-3]))
    moved = [arr + size * rng.normal(size=arr.shape) * (rng.random(arr.shape) < 0.3)
             for arr in (fw.config.points, fw.config.hyperplanes)]
    active = tuple(h for h in range(fw.extrusion.order) if draw(st.booleans()))
    fw = Framework(fw.graph, Configuration(fw.dim, *moved), replace(fw.extrusion, active=active))
    calls = list(itertools.product((1e-12, 1e-9, 1e-6), (False, True))) * 2
    return fw, draw(st.permutations(calls))


@settings(max_examples=150, deadline=None)
@given(symmetry_checks())
def test_verify_matches_the_scalar_check_on_repeated_calls(case):
    """Residuals kept on the framework give every call, in any order, the
    report of the loop that evaluates each law per call."""
    fw, calls = case
    for tol, active_only in calls:
        assert_reports_equal(fw, tol, active_only)


@settings(max_examples=150, deadline=None)
@given(symmetry_checks())
def test_residual_table_equals_the_per_pair_norms_bitwise(case):
    """Each residual is the per-pair np.linalg.norm of its law, to the bit,
    and the identity row is zero."""
    fw, _ = case
    table = fw.symmetry_residuals
    assert table.tobytes() == residual_table(fw).tobytes()
    assert not table[0].any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_verify_matches_the_scalar_check_on_non_finite_coordinates(value):
    fw = prism_twofold()
    broken = []
    for i in (0, 3):
        pts = fw.config.points.copy()
        pts[i, 0] = value
        broken.append(Framework(fw.graph, Configuration(2, pts, fw.config.hyperplanes), fw.extrusion))
    fw = point_line_twofold()
    hyp = fw.config.hyperplanes.copy()
    hyp[1, -1] = value
    broken.append(Framework(fw.graph, Configuration(2, fw.config.points, hyp), fw.extrusion))
    for case in broken:
        for tol, active_only in itertools.product((1e-12, 1e-6), (False, True)):
            assert_reports_equal(case, tol, active_only)
        # the identity row is zero without being evaluated; the rest are the per-pair norms
        table = case.symmetry_residuals
        assert not table[0].any()
        assert table[1:].tobytes() == residual_table(case)[1:].tobytes()


def test_residuals_are_kept_on_the_framework_and_read_only():
    fw = prism_twofold()
    table = fw.symmetry_residuals
    assert table.shape == (4, len(fw.graph.points) + 2 * len(fw.graph.hyperplanes))
    assert not table.flags.writeable and fw.symmetry_residuals is table
    verify_extrusion_symmetry(fw, 1e-9)
    assert fw.symmetry_residuals is table


def test_verify_flags_dependent_directions():
    fw = extrude_framework(triangle(), [(0.0, 2.0), (0.0, 4.0)])
    report = verify_extrusion_symmetry(fw, 1e-9)
    assert report.ok
    assert report.notes


def test_apply_affine_identity():
    fw = prism()
    out = apply_affine(fw, np.eye(2), np.zeros(2))
    assert np.allclose(out.config.points, fw.config.points)
    assert np.allclose(out.extrusion.directions, fw.extrusion.directions)


def test_apply_affine_prism_diag():
    fw = prism()
    out = apply_affine(fw, np.diag([2.0, 1.0]), np.array([1.0, 1.0]))
    assert np.allclose(out.extrusion.directions, [[0.0, 2.0]])
    assert verify_extrusion_symmetry(out, 1e-9).ok


def test_apply_affine_rotation_keeps_containment():
    fw = point_line_extruded_fixed()
    th = np.pi / 6
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    out = apply_affine(fw, rot, np.array([0.3, -0.2]))
    assert verify_extrusion_symmetry(out, 1e-9).ok


@pytest.mark.parametrize("builder", EXTRUSION_FIXTURES)
def test_random_affine_preserves_symmetry(builder):
    fw = builder()
    rng = np.random.default_rng(42)
    d = fw.dim
    for _ in range(10):
        mat = rng.normal(size=(d, d))
        while abs(np.linalg.det(mat)) < 1e-3:
            mat = rng.normal(size=(d, d))
        out = apply_affine(fw, mat, rng.normal(size=d))
        assert verify_extrusion_symmetry(out, 1e-8).ok


def test_orthogonal_affine_preserves_edge_lengths():
    fw = prism_twofold()
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    out = apply_affine(fw, rot, np.array([5.0, -2.0]))
    for u, v in fw.graph.edges_pp:
        before = np.linalg.norm(fw.point(u) - fw.point(v))
        after = np.linalg.norm(out.point(u) - out.point(v))
        assert abs(before - after) <= 1e-12 * (1 + before)


def test_infinitesimal_rotation_identity_at_zero():
    fw = constrained_cube()
    skew = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 2.0], [0.0, -2.0, 0.0]])
    out = apply_infinitesimal_rotation(fw, 0.0, skew)
    assert np.allclose(out.config.points, fw.config.points)
    assert np.allclose(out.config.hyperplanes, fw.config.hyperplanes)


def test_infinitesimal_rotation_preserves_rank():
    fw = prism()
    skew = np.array([[0.0, -1.0], [1.0, 0.0]])
    out = apply_infinitesimal_rotation(fw, 0.01, skew)
    assert rigidity_matrix(out).rank() == rigidity_matrix(fw).rank() == 8


def test_infinitesimal_rotation_rejects_non_skew():
    with pytest.raises(ValueError, match="skew"):
        apply_infinitesimal_rotation(prism(), 0.1, np.eye(2))


def test_affine_span_check():
    assert affine_span_check(prism())
    assert affine_span_check(point_line_twofold())
    v1, v2 = Vertex("a"), Vertex("b")
    g = PHGraph(points=(v1, v2), hyperplanes=(), edges_pp=((v1, v2),))
    collinear = Framework(g, Configuration(2, np.array([[0.0, 0.0], [1.0, 0.0]]),
                                           np.zeros((0, 3))))
    assert not affine_span_check(collinear)


def test_normalize_hyperplanes_keeps_rank():
    fw = point_line_twofold()
    out = normalize_hyperplanes(fw)
    norms = np.linalg.norm(out.config.hyperplanes[:, :-1], axis=1)
    assert np.allclose(norms, 1.0)
    assert rigidity_matrix(out).rank() == rigidity_matrix(fw).rank()


def test_zero_normal_rejected():
    with pytest.raises(ValueError, match="zero normal"):
        Configuration(2, np.zeros((0, 2)), np.array([[0.0, 0.0, 1.0]]))


def test_bar_joint_flag():
    assert k33_orthogonal().is_bar_joint()
    assert not point_line_base().is_bar_joint()


def test_extrusion_warns_on_a_coincident_pair_only():
    base = Framework(PHGraph(points=(Vertex("a"), Vertex("b")), hyperplanes=()),
                     Configuration(2, [[0.0, 0.0], [1.0, 0.5]], np.zeros((0, 3))))
    with pytest.warns(UserWarning, match="coincident points"):
        extrude_framework(base, [(1.0, 0.5)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        extrude_framework(base, [(1.0, 0.5 + 10 * COINCIDENT_TOL)])


@st.composite
def point_sets(draw):
    """0..5 random points in d = 2 or 3 at a drawn scale, with up to three
    planted rows: an exact duplicate of a row, a row 0.5, 1 or 2 times
    COINCIDENT_TOL from one along an axis or a diagonal, or a copy of a row
    with a NaN or infinite coordinate."""
    d = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = list(rng.normal(size=(draw(st.integers(0, 5)), d)) * draw(st.sampled_from([1e-12, 1.0, 1e3])))
    for _ in range(draw(st.integers(0, 3))):
        p = rows[draw(st.integers(0, len(rows) - 1))] if rows else rng.normal(size=d)
        plant = draw(st.sampled_from(["duplicate", "axis", "diagonal", "non-finite"]))
        q = p.copy()
        if plant in ("axis", "diagonal"):
            step = np.eye(d)[draw(st.integers(0, d - 1))] if plant == "axis" else np.ones(d) / np.sqrt(d)
            q += draw(st.sampled_from([0.5, 1.0, 2.0])) * COINCIDENT_TOL * step
        elif plant == "non-finite":
            q[draw(st.integers(0, d - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        rows.insert(draw(st.integers(0, len(rows))), q)
    return np.array(rows).reshape(-1, d)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=500, deadline=None)
@given(point_sets())
def test_coincidence_sweep_matches_all_pairs(points):
    """The sweep finds a pair closer than COINCIDENT_TOL exactly when the
    table of all pairwise distances does."""
    assert _has_coincident(points) == pairwise_coincident(points)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("points, want", [
    ([], False), ([[0.0, 0.0]], False), ([[0.0, 0.0], [0.0, 0.0]], True),
    ([[0.0, 0.0], [0.5 * COINCIDENT_TOL, 0.0]], True), ([[0.0, 0.0], [COINCIDENT_TOL, 0.0]], False),
    ([[1.0, 1.0], [1.0 + 0.5 * COINCIDENT_TOL, 1.0 + 0.5 * COINCIDENT_TOL]], True),
    ([[np.nan, 0.0], [np.nan, 0.0]], False), ([[np.inf, 0.0], [np.inf, 0.0]], False),
    ([[np.inf, 0.0], [0.0, 0.0], [5.0, 1.0], [0.0, 0.0]], True)])
def test_coincidence_on_small_and_non_finite_sets(d, points, want):
    pts = np.array([p + [0.0] * (d - 2) for p in points]).reshape(-1, d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert _has_coincident(pts) == pairwise_coincident(pts) == want


@settings(max_examples=100, deadline=None)
@given(st.one_of(random_bar_joint_extrusions(),
                 random_point_hyperplane_extrusions().map(lambda case: case[0])))
def test_extruded_points_are_the_word_sums_bitwise(fw):
    """Each copy is its base point plus the sum, from zero and in direction
    order, of the directions its word has a 1 for; each hyperplane copy has
    its base normal, and its base offset plus the sum of <a, tau_h> over
    those directions."""
    dirs = fw.extrusion.directions
    for v, p in zip(fw.graph.points, fw.config.points):
        shift = sum((dirs[h] for h, c in enumerate(v.word) if c == "1"), np.zeros(fw.dim))
        assert np.array_equal(p, fw.point(Vertex(v.base, "0" * len(v.word))) + shift)
    for w in fw.graph.hyperplanes:
        a, r = fw.hyperplane(w)
        a0, r0 = fw.hyperplane(Vertex(w.base, w.word.replace("1", "0")))
        shift = sum(float(np.dot(a0, dirs[h])) for h, c in enumerate(w.word) if c == "1")
        assert np.array_equal(a, a0) and r == r0 + shift
