import itertools
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import extrig.rigidity
import extrig.symmetry
from closed_blocks import closed_blocks
from dense_blocks import dense_block_decompose
from extrusion_oracles import extrusion_coordinate, extrusion_displacement, word_add
from extrig import documents
from extrig.frameworks import (Configuration, ExtrusionSpec, Framework, apply_affine,
                               extrude_framework, normalize_hyperplanes)
from extrig.fixtures import (constrained_cube_pinned, point_line_extruded,
                             point_line_extruded_fixed, point_line_extruded_fixed_pinned,
                             point_line_twofold, point_line_twofold_pinned, prism,
                             prism_pinned, prism_twofold, triangle)
from extrig.graphs import PHGraph, Vertex, group_elements, subgroup_elements
from extrig.cli import build_report
from extrig.linalg import RANK_TOL, numeric_rank
from extrig.rigidity import (EMPTY_PIN, CoordinateIndex, PinningSpec, RowLayout,
                             infinitesimal_analysis, rigidity_matrix, trivial_motion_generators)
from extrig.symmetry import (PermutationRep, SymmetryPreconditionError, _copy_zero_characters,
                             _orbit_blocks, active_elements, block_decompose, build_reps, coordinate_action,
                             copy_zero_rows,
                             character_matrix, character_of, character_rows,
                             decompose_character, fowler_guest_count,
                             intertwining_residual, irreducible_characters,
                             symmetry_adapted_basis,
                             translation_character)
from extrusions import (extruded, ladder_rung, random_bar_joint_bases, random_bar_joint_extrusions,
                        random_point_hyperplane_extrusions, rigid_fan_extrusions, triangle_extruded,
                        with_extra_bars, with_starred_point)

SYMMETRIC_CASES = [
    ("prism", lambda: (prism(), EMPTY_PIN)),
    ("prism_pinned", prism_pinned),
    ("prism_twofold", lambda: (prism_twofold(), EMPTY_PIN)),
    ("point_line_extruded", lambda: (point_line_extruded(), EMPTY_PIN)),
    ("point_line_extruded_fixed_pinned", point_line_extruded_fixed_pinned),
    ("point_line_twofold_pinned", point_line_twofold_pinned),
    ("constrained_cube_pinned", constrained_cube_pinned),
]


def test_irreducible_characters_small():
    assert np.array_equal(irreducible_characters(1), [[1, 1], [1, -1]])
    assert np.array_equal(irreducible_characters(2),
                          [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_character_orthogonality(t):
    table = irreducible_characters(t)
    assert np.array_equal(table @ table.T, (2 ** t) * np.eye(2 ** t))


@pytest.mark.parametrize("t", [0, 1, 2, 3, 4, 5])
def test_character_matrix_matches_loop_reference(t):
    for elements in (group_elements(t), subgroup_elements(t, range(0, t, 2))):
        reference = np.array([[(-1.0) ** sum(a * b for a, b in zip(gi, gj)) for gj in elements]
                              for gi in elements])
        assert np.array_equal(character_matrix(elements), reference)


def test_decompose_examples():
    el = group_elements(1)
    assert np.array_equal(decompose_character([12, 0], el), [6, 6])
    assert np.array_equal(decompose_character([9, -3], el), [3, 6])
    el2 = group_elements(2)
    assert np.array_equal(decompose_character([24, -6, -6, 0], el2), [3, 6, 6, 9])
    with pytest.raises(ValueError, match="integrally"):
        decompose_character([1.5, 0.2], el)


def test_decompose_a_stack_row_by_row():
    # fowler_guest_count decomposes lambda, mu and nu against one table
    el2 = group_elements(2)
    stack = [[24, -6, -6, 0], [12, 0, 0, 0], [2, -2, 2, -2]]
    got = decompose_character(np.array(stack), el2)
    assert got.dtype == decompose_character(stack[0], el2).dtype
    assert np.array_equal(got, [decompose_character(row, el2) for row in stack])
    with pytest.raises(ValueError, match="integrally"):
        decompose_character([[12, 0], [1.5, 0.2]], group_elements(1))


def test_reps_are_homomorphisms():
    for name, case in SYMMETRIC_CASES:
        fw, pin = case()
        reps = build_reps(fw, pin)
        lookup = {g: i for i, g in enumerate(reps.elements)}
        for g1, g2 in itertools.product(reps.elements, repeat=2):
            combined = tuple((a + b) % 2 for a, b in zip(g1, g2))
            for mats in (reps.external, reps.internal):
                prod = mats[lookup[g1]] @ mats[lookup[g2]]
                assert np.abs(prod - mats[lookup[combined]]).max() <= 1e-12, name


def test_identity_reps_are_identity():
    reps = build_reps(prism())
    assert np.array_equal(reps.external[0], np.eye(12))
    assert np.array_equal(reps.internal[0], np.eye(9))


def test_internal_trace_examples():
    reps = build_reps(prism())
    assert np.trace(reps.internal[1]) == -3.0
    fw2 = prism_twofold()
    reps2 = build_reps(fw2)
    traces = [np.trace(m) for m in reps2.internal]
    assert traces == [24.0, -6.0, -6.0, 0.0]


def test_combinatorial_characters_match_traces():
    for name, case in SYMMETRIC_CASES:
        fw, pin = case()
        reps = build_reps(fw, pin)
        _, ext_total, int_total, _ = character_rows(fw, reps)
        assert np.allclose(ext_total, character_of(reps.external)), name
        assert np.allclose(int_total, character_of(reps.internal)), name


@pytest.mark.parametrize("name,case", SYMMETRIC_CASES)
def test_intertwining_on_symmetric_fixtures(name, case):
    fw, pin = case()
    assert intertwining_residual(fw, pin) <= 1e-12


def test_intertwining_detects_broken_symmetry():
    fw = prism()
    pts = fw.config.points.copy()
    pts[0] += np.array([0.1, 0.0])
    broken = Framework(fw.graph, Configuration(2, pts, fw.config.hyperplanes), fw.extrusion)
    assert intertwining_residual(broken) >= 1e-2
    with pytest.raises(ValueError, match="not extrusion-symmetric"):
        build_reps(broken)


def test_translation_characters():
    assert np.array_equal(translation_character(prism()), [2, 2])
    fw, pin = point_line_twofold_pinned()
    assert np.array_equal(translation_character(fw, pin), [1, 1])
    fwc, pinc = constrained_cube_pinned()
    assert np.array_equal(translation_character(fwc, pinc), [2, 2])
    fwp, pinp = prism_pinned()
    assert np.array_equal(translation_character(fwp, pinp), [0, 0])


def test_translation_character_of_a_pinned_hyperplane_offset():
    # parallel_only keeps the offset column; pinning it as well leaves only the
    # translations tangent to the hyperplane: nu is d less the rank of the
    # translation generators at the pinned coordinates
    fw, w = point_line_extruded_fixed(), Vertex("w1", "*")
    pin = PinningSpec(coords={(w, fw.dim)}, parallel_only={w})
    translations = trivial_motion_generators(fw)[:, :fw.dim]
    nu = fw.dim - numeric_rank(translations[~CoordinateIndex(fw, pin).keep])
    assert nu == 1
    assert np.array_equal(translation_character(fw, pin), [nu, nu])


def test_prism_mobility_report():
    mob = fowler_guest_count(prism())
    rows = dict(mob.char_rows)
    assert rows["chi(P_V)"] == (6, 0)
    assert rows["chi(P_V x I2)"] == (12, 0)
    assert rows["chi(P'_E)"] == (9, -3)
    assert rows["chi(P_V x I2)^(T)"] == (2, 2)
    assert list(mob.freedoms) == [6, 6]
    assert list(mob.translations) == [2, 0]
    assert list(mob.constraints) == [3, 6]
    assert list(mob.nets) == [1, 0]
    assert mob.block_shapes == [(3, 6), (6, 6)]
    assert mob.summary() == ["+1 rho_0 flex"]


def test_point_line_pinned_mobility_report():
    fw, pin = point_line_twofold_pinned()
    mob = fowler_guest_count(fw, pin)
    assert list(mob.nets) == [1, -2]
    assert mob.block_shapes == [(6, 8), (9, 7)]
    assert any("not unitary" in c for c in mob.caveats)


def test_cube_pinned_mobility_report():
    fw, pin = constrained_cube_pinned()
    mob = fowler_guest_count(fw, pin)
    assert list(mob.nets) == [2, -3]
    assert any("rotations" in c for c in mob.caveats)


def test_block_offdiagonal_residual():
    for name, case in SYMMETRIC_CASES:
        fw, pin = case()
        dec = block_decompose(fw, pin)
        assert dec.offdiag_residual <= 1e-9, name
        rig = rigidity_matrix(fw, pin)
        assert sum(int(x) for x in dec.freedoms) == rig.shape[1]
        assert sum(int(x) for x in dec.constraints) == rig.shape[0]


def test_symmetric_flexes_satisfy_sign_law():
    for name, case in SYMMETRIC_CASES:
        fw, pin = case()
        reps = build_reps(fw, pin)
        rig = rigidity_matrix(fw, pin)
        table = character_matrix(reps.elements)
        mob = fowler_guest_count(fw, pin)
        for i in range(len(reps.elements)):
            vecs = mob.detected_flexes[i]
            if vecs.shape[1] == 0:
                continue
            reduced = vecs[rig.index.keep, :]
            assert np.abs(rig.matrix @ reduced).max() <= 1e-9 * (1 + np.abs(rig.matrix).max()), name
            for j, ext in enumerate(reps.external):
                sign = table[i, j]
                assert np.abs(ext @ reduced - sign * reduced).max() <= 1e-9, name


def test_prism_symmetric_kernels():
    fw = prism()
    mob = fowler_guest_count(fw)
    # rho_0 kernel: two translations plus the simultaneous-rotation flex
    assert mob.detected_flex_dims == {0: 3, 1: 1}
    assert mob.stress_dims == {0: 0, 1: 1}
    # the rho_1 kernel vector is a horizontal shear: equal velocities on the
    # bottom copy, orthogonal to the extrusion direction
    shear = mob.detected_flexes[1][:, 0]
    rig = rigidity_matrix(fw)
    vel = {v: shear[rig.index.vertex_slice(v)] for v in fw.graph.points}
    bottom = [v for v in fw.graph.points if v.word == "0"]
    for v in bottom[1:]:
        assert np.allclose(vel[v], vel[bottom[0]], atol=1e-9)
    assert abs(np.dot(vel[bottom[0]], fw.extrusion.directions[0])) <= 1e-9


def test_ph_hypothesis_requires_pinning():
    with pytest.raises(SymmetryPreconditionError, match="hyperplane_pinning"):
        build_reps(point_line_twofold())
    # after pinning the same framework passes
    fw, pin = point_line_twofold_pinned()
    build_reps(fw, pin)


def test_point_line_extruded_fixed_needs_pin_too():
    with pytest.raises(SymmetryPreconditionError):
        build_reps(point_line_extruded_fixed())


def test_trivial_group_single_block():
    fw = triangle()
    dec = block_decompose(fw)
    assert len(dec.blocks) == 1
    rig = rigidity_matrix(fw)
    assert dec.blocks[0].shape == rig.shape
    # orthogonal changes of basis preserve the rank and singular values
    assert np.allclose(np.linalg.svd(dec.blocks[0], compute_uv=False),
                       np.linalg.svd(rig.matrix, compute_uv=False))
    mob = fowler_guest_count(fw)
    assert list(mob.nets) == [3 * 2 - 2 - 3]  # 6 freedoms - 2 translations - 3 edges = 1


def test_extruded_bar_joint_never_isostatic():
    # a fully-symmetric flex is always detected when the base spans >= d-1
    from extrig.frameworks import extrude_framework
    from extrig.graphs import PHGraph

    v1, v2 = Vertex("q1"), Vertex("q2")
    bar = Framework(PHGraph(points=(v1, v2), hyperplanes=(), edges_pp=((v1, v2),)),
                    Configuration(2, np.array([[0.0, 0.0], [3.0, 0.0]]), np.zeros((0, 3))))
    square = extrude_framework(bar, [(0.0, 2.0)])
    for fw in (square, prism(), prism_twofold()):
        mob = fowler_guest_count(fw)
        assert mob.nets[0] >= 1


def test_projection_rank_mismatch_raises():
    reps = build_reps(prism())
    with pytest.raises(ValueError, match="does not match"):
        symmetry_adapted_basis(reps.external, [2, 6])


def test_orbit_sums_follow_signs_that_vary_along_an_orbit():
    # the generator sends e0 to -e1 and e1 to -e0: the invariant vector is e0 - e1
    rep = PermutationRep([(0,), (1,)], np.array([[0, 1], [1, 0]]),
                         np.array([[1.0, 1.0], [-1.0, -1.0]]), np.arange(2))
    bases = symmetry_adapted_basis(rep, [1, 1])
    assert np.allclose(bases[0].dense()[:, 0], [2 ** -0.5, -(2 ** -0.5)])
    assert np.allclose(bases[1].dense()[:, 0], [2 ** -0.5, 2 ** -0.5])


def test_pinning_must_respect_orbits():
    from extrig.rigidity import PinningSpec

    fw = prism()
    half = PinningSpec(coords={(Vertex("p1", "0"), 0), (Vertex("p1", "0"), 1)})
    with pytest.raises(ValueError, match="not invariant"):
        build_reps(fw, half)


GALLERY = sorted(p.name for p in resources.files("extrig").joinpath("data").iterdir()
                 if p.name.endswith(".json"))


def word_image(gamma, v):
    """The extrusion action by its definition on words."""
    return Vertex(v.base, word_add(v.word, gamma))


def reference_reps(fw, pin, gamma):
    """Full-coordinate Ext(gamma) and Int(gamma) written out vertex by vertex
    and row label by row label from :func:`word_image`."""
    graph, d = fw.graph, fw.dim
    index = CoordinateIndex(fw, pin)
    ext = np.zeros((index.full_size, index.full_size))
    for v in graph.vertices:
        dst, src = index.vertex_slice(v), index.vertex_slice(word_image(gamma, v))
        block = np.eye(dst.stop - dst.start)
        if not graph.is_point(v):
            block[d, :d] = -extrusion_displacement(fw.extrusion, v.word, gamma) \
                if fw.extrusion is not None else 0.0
        ext[dst, src] = block
    rows = RowLayout(graph, d, pin).rows
    row_pos = {lab: i for i, lab in enumerate(rows)}
    itn = np.zeros((len(rows), len(rows)))
    for i, lab in enumerate(rows):
        if lab[0] == "norm":
            image = word_image(gamma, lab[1])
        else:
            image = tuple(sorted((word_image(gamma, w) for w in lab[1]), key=graph.position.get))
        flip = extrusion_coordinate(lab[1]) if lab[0] in ("pp", "par") else None
        sign = -1.0 if flip is not None and gamma[flip] == 1 else 1.0
        itn[row_pos[(lab[0], image, *lab[2:])], i] = sign
    return ext, itn, index.keep


@pytest.mark.parametrize("pinned", [True, False])
@pytest.mark.parametrize("name", GALLERY)
def test_action_matches_word_reference(name, pinned):
    doc = documents.load(resources.files("extrig").joinpath("data", name))
    fw, pin = doc.framework, (doc.pinning or EMPTY_PIN) if pinned else EMPTY_PIN
    elements = active_elements(fw)
    for gamma in group_elements(fw.graph.extrusion_order):
        for v in fw.graph.vertices:
            assert fw.graph.act(gamma, v) == word_image(gamma, v)
    try:
        reps = build_reps(fw, pin)
    except SymmetryPreconditionError:   # ph edges meet live fixed hyperplanes
        reps = None
    coords = coordinate_action(fw, elements)
    layout = RowLayout(fw.graph, fw.dim, pin)
    rows = layout.rows
    actions = layout.action(elements)
    for k, gamma in enumerate(elements):
        ext, itn, keep = reference_reps(fw, pin, gamma)
        assert np.array_equal(coords[k], ext)
        target, sign = actions[k]
        assert np.array_equal(itn[target, np.arange(len(rows))], sign)
        assert np.count_nonzero(itn) == len(rows)
        if reps is not None:
            assert np.array_equal(reps.external[k], ext[keep][:, keep])
            assert np.array_equal(reps.internal[k], itn)


def test_same_base_edge_across_two_coordinates_is_rejected():
    p = {w: Vertex("p", w) for w in ("00", "01", "10", "11")}
    graph = PHGraph(points=tuple(p.values()), hyperplanes=(), extrusion_order=2,
                    edges_pp=((p["00"], p["11"]), (p["10"], p["01"])))
    fw = Framework(graph, Configuration(2, [[0, 0], [0, 1], [1, 0], [1, 1]], np.zeros((0, 3))),
                   ExtrusionSpec(np.eye(2)))
    with pytest.raises(ValueError, match="joins copies differing in 2 coordinates"):
        build_reps(fw)


def densified(bases) -> list:
    """The isotypic bases of every irreducible as dense matrices."""
    return [bases[i].dense() for i in range(len(bases))]


def dense_projector_range(rep, table_row):
    """Orthonormal basis of the range of (1/|G|) sum chi_i(gamma) rho(gamma), by SVD."""
    proj = sum(c * rep[k] for k, c in enumerate(table_row)) / len(table_row)
    if proj.size == 0:
        return proj[:, :0]
    u, sigma, _ = np.linalg.svd(proj)
    return u[:, :int(np.sum(sigma > 1e-9 * max(proj.shape) * max(sigma[0], 1.0)))]


@pytest.mark.parametrize("pinned", [True, False])
@pytest.mark.parametrize("name", GALLERY)
def test_isotypic_bases_against_dense_projector(name, pinned):
    doc = documents.load(resources.files("extrig").joinpath("data", name))
    fw, pin = doc.framework, (doc.pinning or EMPTY_PIN) if pinned else EMPTY_PIN
    try:
        dec = block_decompose(fw, pin)
    except SymmetryPreconditionError:
        return
    reps = build_reps(fw, pin)
    table = character_matrix(reps.elements)
    for rep, bases in ((reps.external, dec.external_bases), (reps.internal, dec.internal_bases)):
        for i, basis in enumerate(densified(bases)):
            assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), rtol=0, atol=1e-12)
            for k in range(len(rep)):
                assert np.abs(rep[k] @ basis - table[i, k] * basis).max(initial=0.0) <= 1e-12
            ref = dense_projector_range(rep, table[i])
            assert ref.shape[1] == basis.shape[1]
            assert np.abs(basis - ref @ (ref.T @ basis)).max(initial=0.0) <= 1e-12
            assert np.abs(ref - basis @ (basis.T @ ref)).max(initial=0.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(random_bar_joint_extrusions())
def test_blocks_partition_the_dense_analysis(fw):
    dec = block_decompose(fw)
    ana = infinitesimal_analysis(fw)
    rig = rigidity_matrix(fw)
    assert sum(numeric_rank(b) for b in dec.blocks) == ana.rank
    assert int(sum(dec.freedoms)) == rig.shape[1]
    assert int(sum(dec.constraints)) == rig.shape[0]
    for tol in TOLS:
        assert report_counts(fw, tol=tol) == dense_counts(fw, tol=tol), tol


# from 1e-2 up, cutting a block against its own shape and scale, not R's, shows
TOLS = (RANK_TOL, 1e-6, 1e-3, 1e-2, 5e-2)


def dense_counts(fw, pin=EMPTY_PIN, tol=RANK_TOL) -> dict:
    """The five counts of the dense analysis, keyed as in the report."""
    ana = infinitesimal_analysis(fw, pin, tol)
    return {"rank": ana.rank, "nullity": ana.nullity, "trivial_dim": ana.trivial_dim,
            "flexes": ana.flex_dim, "stresses": ana.stress_dim}


def report_counts(fw, pin=EMPTY_PIN, tol=RANK_TOL) -> dict:
    """The same five counts as ``extrig analyze`` reports them."""
    analysis = build_report("generated.json", fw, pin, tol)["analysis"]
    return {key: analysis[key] for key in ("rank", "nullity", "trivial_dim", "flexes", "stresses")}


@pytest.mark.parametrize("bar_joint", [True, False])
def test_report_counts_match_the_dense_analysis_on_the_gallery(bar_joint):
    cases = gallery_cases(bar_joint)
    assert len(cases) >= 5
    for tol in TOLS:
        for name, fw, pin in cases:
            assert report_counts(fw, pin, tol) == dense_counts(fw, pin, tol), (name, tol)


@pytest.mark.parametrize("eps", [1e-10, 1e-8, 5e-7])
@pytest.mark.parametrize("name, case", SYMMETRIC_CASES)
def test_report_counts_match_the_dense_analysis_off_symmetry(name, case, eps):
    # below the gate the blocks are those of the symmetrised framework; past
    # --tol the report decides the rank on R itself
    fw, pin = case()
    rng = np.random.default_rng(7)
    pts, hyp = (x + eps * rng.normal(size=x.shape)
                for x in (fw.config.points, fw.config.hyperplanes))
    moved = Framework(fw.graph, Configuration(fw.dim, pts, hyp), fw.extrusion)
    assert build_report(name, moved, pin, RANK_TOL)["symmetry"]["ok"] == (eps < RANK_TOL)
    assert report_counts(moved, pin) == dense_counts(moved, pin)


@pytest.mark.parametrize("pinned", [True, False])
@pytest.mark.parametrize("name", GALLERY)
def test_block_counts_from_one_kernel(name, pinned):
    doc = documents.load(resources.files("extrig").joinpath("data", name))
    fw, pin = doc.framework, (doc.pinning or EMPTY_PIN) if pinned else EMPTY_PIN
    try:
        mob = fowler_guest_count(fw, pin)
    except SymmetryPreconditionError:
        return
    dec = block_decompose(fw, pin)
    # each block is cut as R: against R's shape and largest singular value
    shape = (int(sum(dec.constraints)), int(sum(dec.freedoms)))
    scale = max((np.linalg.norm(b, 2) for b in dec.blocks if b.size), default=0.0)
    for i, block in enumerate(dec.blocks):
        rank = numeric_rank(block, scale=scale, shape=shape)
        assert mob.stress_dims[i] == block.shape[0] - rank
        assert mob.detected_flex_dims[i] == block.shape[1] - rank


def assert_blocks_match_dense(fw, pin=EMPTY_PIN):
    """Orbit-assembled blocks against the dense B^T (R A_i): equal shapes, and
    singular values within 1e-12 of max |R| (a column's sign is free)."""
    dec = block_decompose(fw, pin)
    blocks, resid, scale = dense_block_decompose(fw, pin)
    assert dec.block_shapes == [b.shape for b in blocks]
    for mine, ref in zip(dec.blocks, blocks):
        if mine.size:
            gap = np.linalg.svd(mine, compute_uv=False) - np.linalg.svd(ref, compute_uv=False)
            assert np.abs(gap).max() <= 1e-12 * scale
    assert dec.offdiag_residual <= 1e-12 and resid <= 1e-12 * max(scale, 1.0)


@pytest.mark.parametrize("pinned", [True, False])
@pytest.mark.parametrize("name", GALLERY)
def test_blocks_match_dense_reference_on_gallery(name, pinned):
    doc = documents.load(resources.files("extrig").joinpath("data", name))
    fw, pin = doc.framework, (doc.pinning or EMPTY_PIN) if pinned else EMPTY_PIN
    try:
        build_reps(fw, pin)
    except SymmetryPreconditionError:
        with pytest.raises(SymmetryPreconditionError):
            block_decompose(fw, pin)
        return
    assert_blocks_match_dense(fw, pin)


@settings(max_examples=40, deadline=None)
@given(random_bar_joint_extrusions())
def test_blocks_match_dense_reference_on_random_extrusions(fw):
    assert_blocks_match_dense(fw)


@pytest.mark.parametrize("name,case", SYMMETRIC_CASES)
def test_offdiag_residual_matches_dense_definition_off_symmetry(name, case):
    # a perturbation below the symmetry gate: the residual sees it as the dense product does
    fw, pin = case()
    rng = np.random.default_rng(7)
    pts, hyp = (x + 1e-8 * rng.normal(size=x.shape)
                for x in (fw.config.points, fw.config.hyperplanes))
    moved = Framework(fw.graph, Configuration(fw.dim, pts, hyp), fw.extrusion)
    _, resid, scale = dense_block_decompose(moved, pin)
    assert resid / scale >= 1e-10
    assert block_decompose(moved, pin).offdiag_residual == pytest.approx(resid / scale, rel=1e-6)


def test_fowler_guest_count_never_forms_the_rigidity_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("rigidity matrix formed")

    monkeypatch.setattr(extrig.symmetry, "rigidity_matrix", refuse)
    monkeypatch.setattr(extrig.rigidity, "rigidity_matrix", refuse)
    monkeypatch.setattr(RowLayout, "matrix", refuse)
    for name, case in SYMMETRIC_CASES:
        fw, pin = case()
        mob = fowler_guest_count(fw, pin)
        assert sum(int(x) for x in mob.freedoms) == CoordinateIndex(fw, pin).size, name
    # nor does the report of a bar-joint framework, whose rank line is read off the blocks
    cases = gallery_cases(bar_joint=True)
    assert len(cases) >= 5
    for name, fw, pin in cases:
        ana = build_report(name, fw, pin, RANK_TOL)["analysis"]
        assert ana["rank"] + ana["nullity"] == CoordinateIndex(fw, pin).size, name


@settings(max_examples=60, deadline=None)
@given(random_point_hyperplane_extrusions())
def test_point_hyperplane_blocks_partition_the_dense_analysis(case):
    fw, pin = case
    mob = fowler_guest_count(fw, pin)
    ana = infinitesimal_analysis(fw, pin)
    ranks = [shape[0] - mob.stress_dims[i] for i, shape in enumerate(mob.block_shapes)]
    assert sum(ranks) == ana.rank
    assert int(sum(mob.freedoms)) == ana.rank + ana.nullity
    assert int(sum(mob.constraints)) == ana.rank + ana.stress_dim
    assert_blocks_match_dense(fw, pin)
    for tol in TOLS:
        assert report_counts(fw, pin, tol) == dense_counts(fw, pin, tol), tol


@settings(max_examples=60, deadline=None)
@given(random_point_hyperplane_extrusions())
def test_rank_tolerance_does_not_reach_the_isotypic_bases(case):
    """The bases are combinatorial in the orbits: a coarse rank tolerance
    changes block ranks, never the block shapes.  (When the tolerance also
    cut the projection ranks, some draws failed from 5e-2.)"""
    fw, pin = case
    assert fowler_guest_count(fw, pin, 5e-2).block_shapes == block_decompose(fw, pin).block_shapes


def verdict(fw, pin=EMPTY_PIN):
    """The integer content of a mobility report: lambda, nu, mu, the nets,
    the block shapes and each block's kernel and stress dimensions."""
    mob = fowler_guest_count(fw, pin)
    counts = [[int(x) for x in v] for v in (mob.freedoms, mob.translations, mob.constraints,
                                             mob.nets)]
    return counts, mob.block_shapes, mob.detected_flex_dims, mob.stress_dims


def well_conditioned_affine(rng, d):
    """A random affine map x -> A x + v whose singular values lie in [0.5, 2]."""
    q1, q2 = (np.linalg.qr(rng.normal(size=(d, d)))[0] for _ in range(2))
    return q1 @ np.diag(rng.uniform(0.5, 2.0, d)) @ q2, rng.normal(size=d)


def gallery_cases(bar_joint: bool) -> list:
    """(name, framework, pinning) of every gallery document of one family that
    analyses, pinned as stored and unpinned."""
    out = []
    for name in GALLERY:
        doc = documents.load(resources.files("extrig").joinpath("data", name))
        if doc.framework.is_bar_joint() != bar_joint:
            continue
        for pin in [EMPTY_PIN] + ([doc.pinning] if doc.pinning else []):
            try:
                fowler_guest_count(doc.framework, pin)
            except SymmetryPreconditionError:
                continue
            out.append((name, doc.framework, pin))
    return out


def test_verdicts_survive_affine_maps_on_the_gallery():
    rng = np.random.default_rng(11)
    cases = [(name, fw) for name, fw, pin in gallery_cases(bar_joint=True) if pin.is_empty()]
    assert len(cases) >= 4
    for name, fw in cases:
        before = verdict(fw)
        for _ in range(3):
            moved = apply_affine(fw, *well_conditioned_affine(rng, fw.dim))
            assert verdict(moved) == before, name


@settings(max_examples=20, deadline=None)
@given(random_bar_joint_extrusions(), st.integers(0, 2 ** 32 - 1))
def test_verdicts_survive_affine_maps_on_random_extrusions(fw, seed):
    moved = apply_affine(fw, *well_conditioned_affine(np.random.default_rng(seed), fw.dim))
    assert verdict(moved) == verdict(fw)


@pytest.mark.parametrize("scale", [0.25, 3.0])
def test_verdicts_survive_hyperplane_rescaling(scale):
    cases = gallery_cases(bar_joint=False)
    assert len(cases) >= 4
    for name, fw, pin in cases:
        before = verdict(fw, pin)
        assert verdict(normalize_hyperplanes(fw), pin) == before, name
        scaled = Configuration(fw.dim, fw.config.points, scale * fw.config.hyperplanes)
        assert verdict(Framework(fw.graph, scaled, fw.extrusion), pin) == before, name


# -- the copy-0 blocks of an unpinned bar-joint extrusion ----------------------


def bits(value):
    """``value`` with every array replaced by its dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, dict):
        return {key: bits(v) for key, v in value.items()}
    return value


def orbit_path(fw, pin=EMPTY_PIN):
    """The block decomposition and the mobility report of the orbit path,
    which block_decompose hands every framework copy_zero_rows refuses."""
    with mock.patch.object(extrig.symmetry, "block_decompose", _orbit_blocks):
        return _orbit_blocks(fw, pin), fowler_guest_count(fw, pin)


def copy_class_pinning():
    """The extruded triangle with coordinate 0 pinned on both copies of p0."""
    fw = triangle_extruded()
    return fw, PinningSpec(coords={(v, 0) for v in fw.graph.points if v.base == "p0"})


def inactive_direction():
    """The triangle extruded twice, with only direction 0 active."""
    fw = triangle_extruded(((1.3, 0.4), (-0.2, 1.1)))
    return Framework(fw.graph, fw.config, ExtrusionSpec(fw.extrusion.directions, active=(0,)))


def permuted_active():
    """The triangle extruded twice, both directions active, listed in reverse:
    the elements are then not in the order of the copy numbers."""
    fw = triangle_extruded(((1.3, 0.4), (-0.2, 1.1)))
    return Framework(fw.graph, fw.config, ExtrusionSpec(fw.extrusion.directions, active=(1, 0)))


@settings(max_examples=300, deadline=None)
@given(case=random_bar_joint_extrusions().map(lambda fw: (fw, EMPTY_PIN)), hand_over=st.just(False))
@example(case=(with_starred_point(triangle_extruded()), EMPTY_PIN), hand_over=True)
@example(case=(with_extra_bars(triangle_extruded(), [("p0|0", "p1|1"), ("p0|1", "p1|0")]),
               EMPTY_PIN), hand_over=True)
@example(case=copy_class_pinning(), hand_over=True)
@example(case=(inactive_direction(), EMPTY_PIN), hand_over=True)
@example(case=(permuted_active(), EMPTY_PIN), hand_over=True)
@example(case=(ladder_rung("triangle_t4"), EMPTY_PIN), hand_over=False)
@example(case=(ladder_rung("triangle_t5"), EMPTY_PIN), hand_over=False)
@example(case=(ladder_rung("fan10_t3"), EMPTY_PIN), hand_over=False)
def test_copy_zero_blocks_equal_the_orbit_blocks(case, hand_over):
    """Blocks, detected flexes and every integer field are the same bits on
    both paths; the residuals, summed in another order, agree to round-off.
    A starred point, an edge across words, a pinning, an inactive direction
    and active directions out of order hand over to the orbit path."""
    fw, pin = case
    with mock.patch.object(extrig.symmetry, "_orbit_blocks", wraps=_orbit_blocks) as spy:
        dec = block_decompose(fw, pin)
        mob = fowler_guest_count(fw, pin)
    assert spy.called == hand_over
    assert (dec.copies is None) == hand_over
    ref, ref_mob = orbit_path(fw, pin)
    assert [bits(b) for b in dec.blocks] == [bits(b) for b in ref.blocks]
    assert np.array_equal(dec.freedoms, ref.freedoms)
    assert np.array_equal(dec.constraints, ref.constraints)
    fields = [f for f in vars(mob) if f != "offdiag_residual"]
    assert {f: bits(getattr(mob, f)) for f in fields} == {f: bits(getattr(ref_mob, f)) for f in fields}
    mine, theirs = dec.offdiag_residual, ref.offdiag_residual
    assert max(mine, theirs) <= 1e-12 or mine == pytest.approx(theirs, rel=1e-6)


def test_copy_zero_path_reads_the_bases_only_on_request():
    fw = prism_twofold()
    dec = block_decompose(fw)
    assert dec.copies is not None and "external" not in vars(dec.reps)
    ref = _orbit_blocks(fw)
    for mine, theirs in ((dec.external_bases, ref.external_bases),
                         (dec.internal_bases, ref.internal_bases)):
        assert all(np.array_equal(mine[i].dense(), theirs[i].dense()) for i in range(len(mine)))


def assert_closed_characters_equal_the_counted_ones(fw):
    dec = block_decompose(fw)
    assert dec.copies is not None
    closed, counted = _copy_zero_characters(fw, dec.copies), character_rows(fw, dec.reps)
    assert [name for name, _ in closed[0]] == [name for name, _ in counted[0]]
    for mine, theirs in zip([vec for _, vec in closed[0]] + list(closed[1:]),
                            [vec for _, vec in counted[0]] + list(counted[1:])):
        assert np.array_equal(mine, theirs)


@settings(max_examples=300, deadline=None)
@given(random_bar_joint_extrusions())
def test_closed_form_characters_equal_the_counted_ones(fw):
    """chi(P_V) and chi(P'_E) in closed form equal the fixed vertices and
    rows that character_rows counts, on every copy-0 framework."""
    assert_closed_characters_equal_the_counted_ones(fw)


@settings(max_examples=50, deadline=None)
@given(rigid_fan_extrusions())
def test_closed_form_characters_equal_the_counted_ones_on_fans(fw):
    assert_closed_characters_equal_the_counted_ones(fw)


@pytest.mark.parametrize("name", ["prism.json", "prism_twofold.json"])
def test_closed_form_characters_equal_the_counted_ones_on_gallery(name):
    assert_closed_characters_equal_the_counted_ones(
        documents.load(resources.files("extrig").joinpath("data", name)).framework)


@settings(max_examples=300, deadline=None)
@given(random_bar_joint_extrusions())
def test_copy_zero_cut_scale_is_the_last_blocks_norm(fw):
    """Every copy-0 block is a row subset of the last one, so its 2-norm is
    the largest, to the bit."""
    dec = block_decompose(fw)
    assert dec.copies is not None
    norms = [np.linalg.norm(block, 2) for block in dec.blocks if block.size]
    assert np.linalg.norm(dec.blocks[-1], 2) == max(norms)


@pytest.mark.parametrize("name, path, expected", [
    ("prism.json", "copy-0", 0), ("prism_twofold.json", "copy-0", 0),
    ("prism_pinned.json", "orbit", 2), ("point_line_twofold_pinned.json", "orbit", 2)])
def test_cut_scale_takes_one_matrix_norm_on_the_copy_zero_path(monkeypatch, name, path, expected):
    """fowler_guest_count takes no 2-norm on the copy-0 path, where the cut
    scale comes from the SVD that gives the last block's kernel, one SVD per
    block, and the 2-norm of each of the blocks, one per element of the
    active subgroup, on the orbit path."""
    doc = documents.load(resources.files("extrig").joinpath("data", name))
    fw, pin = doc.framework, doc.pinning or EMPTY_PIN
    dec = block_decompose(fw, pin)
    assert (dec.copies is not None) == (path == "copy-0")
    seen, svds, norm, svd = [], [], np.linalg.norm, np.linalg.svd

    def counted(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            seen.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    def counted_svd(x, *args, **kwargs):
        svds.append(np.shape(x))
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    fowler_guest_count(fw, pin)
    assert len(seen) == expected
    if path == "copy-0":
        assert svds == dec.block_shapes[-1:] + dec.block_shapes[:-1]


def moved_prism():
    fw = prism()
    points = fw.config.points.copy()
    points[0] += (1e-3, 0.0)
    return Framework(fw.graph, Configuration(fw.dim, points, fw.config.hyperplanes), fw.extrusion)


PRECONDITION_FAILURES = {
    "off symmetry": moved_prism,
    "copy edge across two directions": lambda: with_extra_bars(
        extruded([(0, 0), (2, 0.5), (0.4, 1.7)], [(0, 1), (1, 2)], [(1.3, 0.4), (-0.2, 1.1)]),
        [("p0|00", "p0|11"), ("p0|01", "p0|10")]),
}


@pytest.mark.parametrize("name", PRECONDITION_FAILURES)
def test_precondition_failures_raise_alike_on_both_paths(name):
    fw = PRECONDITION_FAILURES[name]()
    raised = []
    for call in (copy_zero_rows, block_decompose, _orbit_blocks):
        with pytest.raises(ValueError) as caught:
            call(fw)
        raised.append((type(caught.value), str(caught.value)))
    assert raised[0] == raised[1] == raised[2]


@settings(max_examples=100, deadline=None)
@given(random_bar_joint_bases())
def test_blocks_match_the_closed_form(drawn):
    """Each block has the shape, the singular values (to round-off) and the
    rank of [R_base ; sqrt(2) D_S], built from the base and the directions."""
    base, directions = drawn
    fw = extrude_framework(base, directions)
    dec, mob = block_decompose(fw), fowler_guest_count(fw)
    oracle = closed_blocks(base, directions)
    shape = (sum(b.shape[0] for b in oracle), sum(b.shape[1] for b in oracle))
    scale = max(np.linalg.norm(b, 2) for b in oracle if b.size)
    assert dec.block_shapes == [b.shape for b in oracle]
    for i, (mine, ref) in enumerate(zip(dec.blocks, oracle)):
        if ref.size:
            gap = np.linalg.svd(mine, compute_uv=False) - np.linalg.svd(ref, compute_uv=False)
            assert np.abs(gap).max() <= 1e-12 * scale
        assert mob.detected_flex_dims[i] == ref.shape[1] - numeric_rank(ref, scale=scale, shape=shape)
