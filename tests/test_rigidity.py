from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extrig import documents
from extrig.finiteflex import measurement_map
from extrig.frameworks import Configuration, Framework, affine_span_check
from extrig.graphs import PHGraph, Vertex
from extrig.fixtures import (constrained_cube, constrained_cube_pinned, k33_orthogonal,
                             k33_pinnings, point_line_twofold, point_line_twofold_pinned,
                             prism, prism_pinned, prism_twofold, triangle, triangle_cycle)
from extrig.rigidity import (EMPTY_PIN, PinningSpec, RowLayout, hyperplane_pinning,
                             infinitesimal_analysis, maxwell_rhs, minimal_pinning, parallel_axes,
                             rigidity_matrix, trivial_motion_basis, trivial_motion_dim)
from extrusions import random_bar_joint_extrusions

ALL_UNPINNED = [triangle, prism, prism_twofold, point_line_twofold, constrained_cube,
                triangle_cycle, k33_orthogonal]
GALLERY = sorted(p.name for p in resources.files("extrig").joinpath("data").iterdir()
                 if p.name.endswith(".json"))


def test_prism_matrix():
    rig = rigidity_matrix(prism())
    assert rig.shape == (9, 12)
    assert rig.rank() == 8


def test_prism_pp_row_entries():
    fw = prism()
    rig = rigidity_matrix(fw)
    row_idx = rig.row_labels.index(("pp", (Vertex("p1", "0"), Vertex("p2", "0"))))
    row = rig.matrix[row_idx]
    cols = rig.index.pos
    assert row[cols[(Vertex("p1", "0"), 0)]] == -3.0
    assert row[cols[(Vertex("p1", "0"), 1)]] == 0.0
    assert row[cols[(Vertex("p2", "0"), 0)]] == 3.0
    assert np.count_nonzero(row) == 2


def test_pinned_prism_matrix():
    fw, pin = prism_pinned()
    rig = rigidity_matrix(fw, pin)
    assert rig.shape == (8, 8)
    assert rig.rank() == 7
    assert trivial_motion_basis(fw, pin).shape[1] == 0


def test_point_line_pinned_matrix_shape():
    fw, pin = point_line_twofold_pinned()
    rig = rigidity_matrix(fw, pin)
    assert rig.shape == (15, 15)
    kinds = [lab[0] for lab in rig.row_labels]
    assert kinds.count("pp") == 4 and kinds.count("ph") == 8
    assert kinds.count("par") == 1 and kinds.count("norm") == 2
    point_cols = sum(1 for v, _ in rig.index.labels if fw.graph.is_point(v))
    assert point_cols == 8 and rig.shape[1] - point_cols == 7


def test_trivial_motions_in_nullspace():
    for builder in ALL_UNPINNED:
        fw = builder()
        rig = rigidity_matrix(fw)
        basis = trivial_motion_basis(fw)
        assert basis.shape[1] == fw.dim * (fw.dim + 1) // 2
        resid = np.abs(rig.matrix @ basis).max(initial=0.0)
        assert resid <= 1e-9 * max(1.0, np.abs(rig.matrix).max())


def test_trivial_dim_point_line_pinned():
    fw, pin = point_line_twofold_pinned()
    assert trivial_motion_basis(fw, pin).shape[1] == 1


def test_trivial_dim_cube_pinned():
    fw, pin = constrained_cube_pinned()
    # two translations in the pinned plane plus the rotation about its normal
    assert trivial_motion_basis(fw, pin).shape[1] == 3


def test_infinitesimal_analysis_examples():
    ana = infinitesimal_analysis(prism())
    assert (ana.flex_dim, ana.stress_dim) == (1, 1)
    ana = infinitesimal_analysis(triangle_cycle())
    assert (ana.flex_dim, ana.stress_dim) == (1, 4)
    ana = infinitesimal_analysis(triangle())
    assert (ana.flex_dim, ana.stress_dim) == (0, 0)


@pytest.mark.parametrize("builder", ALL_UNPINNED)
def test_maxwell_identity(builder):
    fw = builder()
    ana = infinitesimal_analysis(fw)
    assert ana.flex_dim - ana.stress_dim == maxwell_rhs(fw)


def test_rank_invariant_under_hyperplane_rescaling():
    fw = point_line_twofold()
    base_rank = rigidity_matrix(fw).rank()
    hyper = fw.config.hyperplanes.copy()
    hyper[0] *= -2.5
    hyper[2] *= 0.3
    scaled = Framework(fw.graph, Configuration(fw.dim, fw.config.points, hyper))
    assert rigidity_matrix(scaled).rank() == base_rank


def test_bar_joint_matrix_is_half_length_jacobian():
    fw = prism_twofold()
    rig = rigidity_matrix(fw)
    step = 1e-6
    x0 = rig.index.full_vector()

    def lengths_sq(x):
        pts = x.reshape(-1, 2)
        idx = {v: i for i, v in enumerate(fw.graph.points)}
        return np.array([np.sum((pts[idx[u]] - pts[idx[v]]) ** 2)
                         for u, v in fw.graph.edges_pp])

    for j in range(len(x0)):
        bump = np.zeros_like(x0)
        bump[j] = step
        fd = (lengths_sq(x0 + bump) - lengths_sq(x0 - bump)) / (2 * step)
        assert np.allclose(fd / 2.0, rig.matrix[:, j], rtol=1e-6, atol=1e-6)


def test_minimal_pinning_prism():
    fw = prism()
    pin = minimal_pinning(fw)
    assert len(pin.coords) == 3
    first = fw.graph.points[0]
    assert {(first, 0), (first, 1)} <= set(pin.coords)
    assert trivial_motion_basis(fw, pin).shape[1] == 0
    rig = rigidity_matrix(fw, pin)
    assert rig.shape[1] - rig.rank() == 1


def test_minimal_pinning_triangle():
    pin = minimal_pinning(triangle())
    assert len(pin.coords) == 3
    rig = rigidity_matrix(triangle(), pin)
    assert rig.shape[1] - rig.rank() == 0


def test_minimal_pinning_k33():
    fw = k33_orthogonal()
    assert infinitesimal_analysis(fw).nullity == 4
    pin = minimal_pinning(fw)
    assert len(pin.coords) == 3
    rig = rigidity_matrix(fw, pin)
    assert rig.shape[1] - rig.rank() == 1


def test_k33_fixture_pinnings_remove_trivial_motions():
    fw = k33_orthogonal()
    for pin in k33_pinnings():
        assert trivial_motion_basis(fw, pin).shape[1] == 0
        rig = rigidity_matrix(fw, pin)
        assert rig.shape[1] - rig.rank() == 1


def test_minimal_pinning_requires_point_vertex():
    w1, w2 = Vertex("w1"), Vertex("w2")
    g = PHGraph(points=(), hyperplanes=(w1, w2), edges_hh_angle=((w1, w2),))
    fw = Framework(g, Configuration(2, np.zeros((0, 2)),
                                    np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])))
    with pytest.raises(ValueError, match="point vertex"):
        minimal_pinning(fw)


def test_hyperplane_pinning_point_line():
    fw = point_line_twofold()
    pin, reduced = hyperplane_pinning(fw)
    assert pin.full_hyperplanes == frozenset({Vertex("w1", "*0")})
    assert pin.parallel_only == frozenset({Vertex("w1", "*1")})
    assert reduced.active == (0,)


def test_hyperplane_pinning_cube():
    fw = constrained_cube()
    pin, reduced = hyperplane_pinning(fw)
    assert pin.full_hyperplanes == frozenset({Vertex("w1", "**0")})
    assert pin.parallel_only == frozenset({Vertex("w1", "**1")})
    assert reduced.active == (0,)


def test_hyperplane_pinning_needs_fixed_hyperplane():
    with pytest.raises(ValueError, match="no hyperplane contains"):
        hyperplane_pinning(prism())


def test_pinning_validation():
    with pytest.raises(ValueError):
        PinningSpec(full_hyperplanes={Vertex("w")}, parallel_only={Vertex("w")})
    fw = prism()
    with pytest.raises(ValueError, match="unknown vertex"):
        rigidity_matrix(fw, PinningSpec(coords={(Vertex("zz"), 0)}))


def test_parallel_rows_rejected_in_high_dimension():
    w1, w2 = Vertex("w1"), Vertex("w2")
    g = PHGraph(points=(), hyperplanes=(w1, w2), edges_hh_par=((w1, w2),))
    rows = np.array([[1.0, 0.0, 0.0, 0.0, 2.0], [2.0, 0.0, 0.0, 0.0, 1.0]])
    fw = Framework(g, Configuration(4, np.zeros((0, 4)), rows))
    with pytest.raises(ValueError, match="d = 2 and d = 3"):
        rigidity_matrix(fw)


def test_parallel_row_annihilates_parallel_preserving_motions():
    fw = constrained_cube()
    rig = rigidity_matrix(fw)
    # equal normal velocities on both planes of a class stay parallel
    vec = np.zeros(rig.index.full_size)
    for w in (Vertex("w2", "0**"), Vertex("w2", "1**")):
        sl = rig.index.vertex_slice(w)
        vec[sl.start:sl.start + 3] = [0.0, 0.5, -0.25]
    par_rows = [i for i, lab in enumerate(rig.row_labels)
                if lab[0] == "par" and lab[1][0].base == "w2"]
    assert np.abs(rig.matrix[par_rows] @ vec[rig.index.keep]).max() <= 1e-12


def gallery_document(name):
    doc = documents.load(resources.files("extrig").joinpath("data", name))
    return doc.framework, doc.pinning or EMPTY_PIN


def reference_row(fw, index, label):
    """One rigidity row written out on its own: the reference for the
    vectorised assembly, which must reproduce it bit for bit."""
    d = fw.dim
    row = np.zeros(index.full_size)
    kind, ends = label[0], label[1]
    sl = index.vertex_slice
    if kind == "pp":
        diff = fw.point(ends[0]) - fw.point(ends[1])
        row[sl(ends[0])], row[sl(ends[1])] = diff, -diff
    elif kind == "ph":
        p, w = ends
        row[sl(p)] = fw.hyperplane(w)[0]
        row[sl(w)] = np.append(fw.point(p), -1.0)
    elif kind == "norm":
        row[sl(ends)][:d] = fw.hyperplane(ends)[0]
    else:
        au, av = fw.hyperplane(ends[0])[0], fw.hyperplane(ends[1])[0]
        if kind == "angle":
            gu, gv = av, au
        elif d == 2:
            gu, gv = np.array([-av[1], av[0]]), -np.array([-au[1], au[0]])
        else:
            axis = parallel_axes(au)[label[2]]
            gu, gv = np.cross(av, axis), -np.cross(au, axis)
        row[sl(ends[0])][:d], row[sl(ends[1])][:d] = gu, gv
    return row


@pytest.mark.parametrize("name", GALLERY)
def test_rigidity_matrix_matches_row_by_row_reference(name):
    fw, pin = gallery_document(name)
    rig = rigidity_matrix(fw, pin)
    ref = np.zeros((len(rig.row_labels), rig.index.full_size))
    for i, lab in enumerate(rig.row_labels):
        ref[i] = reference_row(fw, rig.index, lab)
    assert np.array_equal(rig.matrix, ref[:, rig.index.keep])


@pytest.mark.parametrize("name", GALLERY)
def test_measurement_jacobian_is_scaled_rigidity_matrix(name):
    # one row table: J is R without its parallel rows, pp and norm rows doubled
    fw, pin = gallery_document(name)
    rig = rigidity_matrix(fw, pin)
    mm = measurement_map(fw, pin)
    keep = [i for i, lab in enumerate(rig.row_labels) if lab[0] != "par"]
    factor = np.array([2.0 if rig.row_labels[i][0] in ("pp", "norm") else 1.0 for i in keep])
    assert mm.rows == [rig.row_labels[i] for i in keep]
    assert np.array_equal(mm.jacobian(mm.base_reduced()), factor[:, None] * rig.matrix[keep])


@pytest.mark.parametrize("name", GALLERY)
def test_nonzero_pattern_is_built_once_per_layout(name):
    """Later calls return the first call's read-only row and column arrays,
    equal to those of a new layout at other coordinates; the values match
    the new layout's bitwise."""
    fw, pin = gallery_document(name)
    moved = (1.1 * fw.config.points + 0.3, 0.9 * fw.config.hyperplanes - 0.2)
    for include_parallel in (True, False):
        layout = RowLayout(fw.graph, fw.dim, pin, include_parallel=include_parallel)
        row, col, _ = layout.nonzeros(fw.config.points, fw.config.hyperplanes)
        assert not row.flags.writeable and not col.flags.writeable
        for scaled in (False, True):
            again = layout.nonzeros(*moved, scaled)
            assert again[0] is row and again[1] is col
            fresh = RowLayout(fw.graph, fw.dim, pin, include_parallel=include_parallel)
            for got, want in zip(again, fresh.nonzeros(*moved, scaled)):
                assert np.array_equal(got, want) and got.dtype == want.dtype


def reference_left_nullspace(mat, tol=1e-9):
    """Left nullspace from its own SVD of the transpose, the way it was once computed."""
    if mat.size == 0:
        return np.eye(mat.shape[0])
    _, sigma, vt = np.linalg.svd(mat.T)
    rank = int(np.sum(sigma > tol * max(mat.shape) * sigma[0])) if sigma[0] > 0.0 else 0
    return vt[rank:].T


@pytest.mark.parametrize("pinned", [True, False])
@pytest.mark.parametrize("name", GALLERY)
def test_stress_basis_from_the_one_factorisation(name, pinned):
    fw, pin = gallery_document(name)
    pin = pin if pinned else EMPTY_PIN
    rig = rigidity_matrix(fw, pin)
    ana = infinitesimal_analysis(fw, pin)
    rows, cols = rig.shape
    stresses = ana.stress_basis
    assert stresses.shape == (rows, ana.stress_dim)
    assert np.allclose(stresses.T @ stresses, np.eye(ana.stress_dim), rtol=0, atol=1e-12)
    assert np.linalg.norm(rig.matrix.T @ stresses, 2) <= 1e-10 * np.linalg.norm(rig.matrix, 2)
    ref = reference_left_nullspace(rig.matrix)
    assert ref.shape[1] == ana.stress_dim
    assert np.abs(stresses - ref @ (ref.T @ stresses)).max(initial=0.0) <= 1e-10
    assert np.abs(ref - stresses @ (stresses.T @ ref)).max(initial=0.0) <= 1e-10
    assert ana.rank == rig.rank()
    assert ana.rank + ana.nullity == cols and ana.rank + ana.stress_dim == rows


@pytest.mark.parametrize("pinned", [True, False])
@pytest.mark.parametrize("name", GALLERY)
def test_nullspace_basis_from_the_one_factorisation(name, pinned):
    fw, pin = gallery_document(name)
    pin = pin if pinned else EMPTY_PIN
    rig = rigidity_matrix(fw, pin)
    ana = infinitesimal_analysis(fw, pin)
    null = ana.nullspace_basis
    assert null.shape == (rig.shape[1], ana.nullity)
    assert np.allclose(null.T @ null, np.eye(ana.nullity), rtol=0, atol=1e-12)
    assert np.linalg.norm(rig.matrix @ null, 2) <= 1e-10 * np.linalg.norm(rig.matrix, 2)


@pytest.mark.parametrize("name", GALLERY)
def test_infinitesimal_analysis_requests_no_singular_vectors_until_a_basis_is_read(
        monkeypatch, name):
    fw, pin = gallery_document(name)
    rig = rigidity_matrix(fw, pin).matrix
    sigma = np.linalg.svd(rig, compute_uv=False)
    calls = []
    svd = np.linalg.svd

    def recorded(mat, *args, **kwargs):
        out = svd(mat, *args, **kwargs)
        calls.append((kwargs.get("compute_uv", True), mat, out))
        return out

    monkeypatch.setattr(np.linalg, "svd", recorded)
    ana = infinitesimal_analysis(fw, pin)
    assert calls and not any(uv for uv, _, _ in calls)
    # one of them is R (or its triangular factor); the rest are the
    # d(d+1)/2-column trivial-motion generators
    of_rig = [out for _, _, out in calls if out.shape == sigma.shape and np.allclose(out, sigma)]
    assert len(of_rig) == 1
    assert all(fw.dim * (fw.dim + 1) // 2 in mat.shape for _, mat, out in calls
               if out is not of_rig[0])
    calls.clear()
    null, stresses = ana.nullspace_basis, ana.stress_basis
    assert len(calls) == 1 and calls[0][0] and np.array_equal(calls[0][1], rig)
    assert null.shape[1] == ana.nullity and stresses.shape[1] == ana.stress_dim


def check_trivial_dim(fw, pin):
    assert trivial_motion_dim(fw, pin) == trivial_motion_basis(fw, pin).shape[1]


@pytest.mark.parametrize("name", GALLERY)
def test_trivial_motion_dim_equals_the_basis_width_on_gallery(name):
    fw, pin = gallery_document(name)
    for p in {EMPTY_PIN, pin}:
        check_trivial_dim(fw, p)


@settings(max_examples=60, deadline=None)
@given(random_bar_joint_extrusions(), st.data())
def test_trivial_motion_dim_equals_the_basis_width_on_random_extrusions(fw, data):
    coords = [(v, c) for v in fw.graph.points for c in range(fw.dim)]
    drawn = data.draw(st.sets(st.sampled_from(coords), max_size=2 * fw.dim))
    pins = [EMPTY_PIN, PinningSpec(coords=frozenset(drawn))]
    if affine_span_check(fw):
        pins.append(minimal_pinning(fw))
    for pin in pins:
        check_trivial_dim(fw, pin)
