import itertools
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import extrig.rigidity
import extrig.symmetry
from dense_blocks import dense_block_decompose
from extrig import documents
from extrig.frameworks import (Configuration, ExtrusionSpec, Framework, apply_affine,
                               extrude_framework, extrusion_displacement, normalize_hyperplanes)
from extrig.fixtures import (constrained_cube_pinned, point_line_extruded,
                             point_line_extruded_fixed, point_line_extruded_fixed_pinned,
                             point_line_twofold, point_line_twofold_pinned, prism,
                             prism_pinned, prism_twofold, triangle)
from extrig.graphs import PHGraph, Vertex, group_elements, subgroup_elements, word_add
from extrig.linalg import numeric_rank
from extrig.rigidity import (EMPTY_PIN, CoordinateIndex, RowLayout, hyperplane_pinning,
                             infinitesimal_analysis, rigidity_matrix)
from extrig.symmetry import (PermutationRep, SymmetryPreconditionError, active_elements,
                             block_decompose, build_reps, coordinate_action,
                             character_matrix, character_of, character_rows,
                             decompose_character, fowler_guest_count,
                             intertwining_residual, irreducible_characters,
                             symmetric_flexes, symmetry_adapted_basis,
                             translation_character)

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
        for i in range(len(reps.elements)):
            vecs = symmetric_flexes(fw, pin, i)
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
        sign = graph.edge_sign(gamma, lab[1]) if lab[0] in ("pp", "par") else 1.0
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
                   ExtrusionSpec(np.eye(2), ((), ())))
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


@st.composite
def random_bar_joint_extrusions(draw):
    """A generic bar-joint base of 2..5 points with random bars, extruded t <= 3 times."""
    d = draw(st.integers(2, 3))
    n = draw(st.integers(2, 5))
    t = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = [Vertex(f"p{i}") for i in range(n)]
    bars = tuple(e for e in itertools.combinations(pts, 2) if draw(st.booleans()))
    base = Framework(PHGraph(points=tuple(pts), hyperplanes=(), edges_pp=bars),
                     Configuration(d, rng.normal(size=(n, d)), np.zeros((0, d + 1))))
    return extrude_framework(base, rng.normal(size=(t, d)))


@settings(max_examples=40, deadline=None)
@given(random_bar_joint_extrusions())
def test_blocks_partition_the_dense_analysis(fw):
    dec = block_decompose(fw)
    ana = infinitesimal_analysis(fw)
    rig = rigidity_matrix(fw)
    assert sum(numeric_rank(b) for b in dec.blocks) == ana.rank
    assert int(sum(dec.freedoms)) == rig.shape[1]
    assert int(sum(dec.constraints)) == rig.shape[0]


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
    for i, block in enumerate(dec.blocks):
        assert mob.stress_dims[i] == block.shape[0] - numeric_rank(block)
        assert mob.detected_flex_dims[i] == block.shape[1] - numeric_rank(block)
        assert np.array_equal(mob.detected_flexes[i], symmetric_flexes(fw, pin, i))


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
        raise AssertionError("rigidity_matrix called")

    monkeypatch.setattr(extrig.symmetry, "rigidity_matrix", refuse)
    monkeypatch.setattr(extrig.rigidity, "rigidity_matrix", refuse)
    for name, case in SYMMETRIC_CASES:
        fw, pin = case()
        mob = fowler_guest_count(fw, pin)
        assert sum(int(x) for x in mob.freedoms) == CoordinateIndex(fw, pin).size, name


@st.composite
def random_point_hyperplane_extrusions(draw):
    """A generic point-hyperplane base (d = 2, 3) with random pp, ph and angle
    edges, extruded t <= 3 times.  Each base hyperplane is contracted along a
    random set of at most d - 1 directions, its normal drawn orthogonal to
    them.  When a ph edge meets a contracted hyperplane, the framework comes
    with :func:`hyperplane_pinning` and its reduced active set."""
    d = draw(st.integers(2, 3))
    t = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    directions = rng.normal(size=(t, d))
    pts = [Vertex(f"p{i}") for i in range(draw(st.integers(1, 3)))]
    hyps = [Vertex(f"w{i}") for i in range(draw(st.integers(1, 3)))]
    contracted = [draw(st.sets(st.integers(0, t - 1), max_size=d - 1)) for _ in hyps]
    rows = []
    for along in contracted:
        normal = rng.normal(size=d)
        if along:
            q = np.linalg.qr(directions[sorted(along)].T)[0]
            normal -= q @ (q.T @ normal)
        rows.append(np.append(normal, rng.normal()))
    pick = lambda pairs: tuple(e for e in pairs if draw(st.booleans()))  # noqa: E731
    graph = PHGraph(points=tuple(pts), hyperplanes=tuple(hyps),
                    edges_pp=pick(itertools.combinations(pts, 2)),
                    edges_ph=pick(itertools.product(pts, hyps)),
                    edges_hh_angle=pick(itertools.combinations(hyps, 2)))
    base = Framework(graph, Configuration(d, rng.normal(size=(len(pts), d)), np.array(rows)))
    fixed = [{w.base for w, along in zip(hyps, contracted) if h in along} for h in range(t)]
    fw = extrude_framework(base, directions, fixed)
    if any("*" in w.word for _, w in fw.graph.edges_ph):
        pin, reduced = hyperplane_pinning(fw)
        return Framework(fw.graph, fw.config, reduced), pin
    return fw, EMPTY_PIN


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
