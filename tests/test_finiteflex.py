from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

import extrig.finiteflex
from extrig import documents
from extrig.finiteflex import (FINITE_FLEX_CERTIFIED, LINEARLY_DETECTABLE, NO_SYMMETRIC_FLEX,
                               NOT_LINEARLY_DETECTABLE, NOT_REGULAR, PRECONDITION_FAILED,
                               AffineSubspace, _OrbitSampler, _regularity, finite_flex_test,
                               linear_push, measurement_map, regular_point_test,
                               restricted_jacobian, symmetric_subspace,
                               uniform_velocity_subspace)
from extrig.fixtures import (constrained_cube, constrained_cube_pinned, k33_orthogonal,
                             k33_pinnings, point_line_extruded_fixed, point_line_twofold,
                             point_line_twofold_pinned, prism, prism_twofold, triangle,
                             triangle_cycle, triangle_cycle_classes)
from extrig.frameworks import (Configuration, ExtrusionSpec, Framework, affine_span_check,
                               complete_kernel_check, extrude_framework)
from extrig.graphs import PHGraph, Vertex
from extrig.linalg import RANK_TOL, clears_cut, numeric_rank
from extrig.rigidity import (EMPTY_PIN, PinningSpec, minimal_pinning, rigidity_matrix,
                             trivial_motion_basis)
from extrig.symmetry import SymmetryPreconditionError, block_decompose
from coordinate_labels import coordinate_labels
from extrusions import (degenerate_point_hyperplane_extrusions, extruded,
                        random_bar_joint_extrusions, random_point_hyperplane_extrusions,
                        rigid_fan_extrusions, triangle_extruded, with_extra_bars,
                        with_starred_point)
from flex_oracles import (block_rank_at, complete_graph_oracle, complete_kernel_excess,
                          dense_regularity, layout_base_flex_test, reference_linear_push,
                          restricted_rank_oracle, sampled_regularity)

GALLERY = sorted(p.name for p in (resources.files("extrig") / "data").iterdir()
                 if p.name.endswith(".json"))

JACOBIAN_FIXTURES = [prism, prism_twofold, point_line_twofold, constrained_cube,
                     triangle_cycle, k33_orthogonal]


def test_pp_jacobian_row_entries():
    fw = prism()
    mm = measurement_map(fw)
    jac = mm.jacobian(mm.base_reduced())
    i = mm.layout.rows.index(("pp", (Vertex("p1", "0"), Vertex("p2", "0"))))
    row = jac[i]
    pos = {lab: j for j, lab in enumerate(coordinate_labels(mm.index))}
    assert row[pos[(Vertex("p1", "0"), 0)]] == -6.0
    assert row[pos[(Vertex("p2", "0"), 0)]] == 6.0
    assert np.count_nonzero(row) == 2


@pytest.mark.parametrize("builder", JACOBIAN_FIXTURES)
def test_jacobian_matches_finite_differences(builder):
    fw = builder()
    mm = measurement_map(fw)
    rng = np.random.default_rng(7)
    base = mm.base_reduced()
    step = 1e-6
    for _ in range(3):
        x = base + rng.uniform(-0.3, 0.3, base.shape)
        jac = mm.jacobian(x)
        scale = np.abs(jac).max() + 1.0
        for j in range(len(x)):
            bump = np.zeros_like(x)
            bump[j] = step
            fd = (mm.values(x + bump) - mm.values(x - bump)) / (2 * step)
            assert np.abs(fd - jac[:, j]).max() <= 1e-6 * scale


@pytest.mark.parametrize("builder", JACOBIAN_FIXTURES)
def test_jacobian_rank_equals_rigidity_rank(builder):
    fw = builder()
    mm = measurement_map(fw)
    assert numeric_rank(mm.jacobian(mm.base_reduced())) == rigidity_matrix(fw).rank()


@pytest.mark.parametrize("builder", JACOBIAN_FIXTURES + [point_line_extruded_fixed])
def test_restricted_jacobian_kernel_matches_rigidity_kernel(builder):
    # on the parallel-respecting domain the measurement kernel is exactly the
    # motion space of the rigidity matrix, parallel rows included
    fw = builder()
    mm = measurement_map(fw)
    jac = mm.jacobian(mm.base_reduced()) @ mm.wg_basis
    rig = rigidity_matrix(fw)
    assert jac.shape[1] - numeric_rank(jac) == rig.shape[1] - rig.rank()


def test_measurement_rows_against_rigidity_rows():
    fw, pin = point_line_twofold_pinned()
    mm = measurement_map(fw, pin)
    rig = rigidity_matrix(fw, pin)
    jac = mm.jacobian(mm.base_reduced())
    rig_rows = {lab: i for i, lab in enumerate(rig.layout.rows)}
    for i, lab in enumerate(mm.layout.rows):
        factor = 2.0 if lab[0] in ("pp", "norm") else 1.0
        assert np.allclose(jac[i], factor * rig.matrix[rig_rows[lab]])


def parallel_residual(mm, reduced) -> float:
    """How far a configuration strays from keeping class normals parallel."""
    full = mm.base_full.copy()
    full[mm.index.keep] = reduced
    hyp = mm.index.split(full)[1]
    graph = mm.fw.graph
    worst = 0.0
    for cls in graph.parallel_classes:
        normals = hyp[[graph.position[w] - len(graph.points) for w in cls], :-1]
        units = normals / np.linalg.norm(normals, axis=1)[:, None]
        units *= np.sign(units @ units[0])[:, None]
        worst = max(worst, float(np.abs(units - units[0]).max()))
    return worst


def test_parallel_residual_tracks_class_drift():
    fw = constrained_cube()
    mm = measurement_map(fw)
    base = mm.base_reduced()
    assert parallel_residual(mm, base) <= 1e-12
    drift = base.copy()
    drift[coordinate_labels(mm.index).index((Vertex("w2", "0**"), 1))] += 0.2
    assert parallel_residual(mm, drift) > 1e-3
    # moving along the parallel-respecting domain keeps every class parallel
    along = base + mm.wg_basis @ np.random.default_rng(0).uniform(-0.2, 0.2, mm.wg_basis.shape[1])
    assert parallel_residual(mm, along) <= 1e-12


def test_affine_subspace_membership():
    base = np.zeros(4)
    basis = np.eye(4)[:, :2]
    sub = AffineSubspace(base, basis)
    assert sub.contains(np.array([0.3, -1.0, 0.0, 0.0]))
    assert not sub.contains(np.array([0.0, 0.0, 0.5, 0.0]))
    mm = measurement_map(prism())
    with pytest.raises(ValueError, match="outside"):
        restricted_jacobian(mm, AffineSubspace(mm.base_reduced() + 10.0,
                                               np.zeros((mm.index.size, 0))))


def test_zero_dimensional_subspace_is_regular():
    mm = measurement_map(prism())
    sub = AffineSubspace(mm.base_reduced(), np.zeros((mm.index.size, 0)))
    assert regular_point_test(mm, sub)


def test_prism_symmetric_subspace_regular():
    fw = prism()
    mm = measurement_map(fw)
    sub = symmetric_subspace(fw)
    assert sub.dim == 6
    assert regular_point_test(mm, sub, samples=10, seed=1)


def test_cube_base_point_not_regular():
    fw, pin = constrained_cube_pinned()
    mm = measurement_map(fw, pin)
    sub = symmetric_subspace(fw, pin, 0)
    assert not regular_point_test(mm, sub, samples=10, seed=3)


def test_finite_flex_determinations():
    assert finite_flex_test(prism()).determination == FINITE_FLEX_CERTIFIED
    assert finite_flex_test(triangle()).determination == NO_SYMMETRIC_FLEX
    fw, pin = constrained_cube_pinned()
    assert finite_flex_test(fw, pin, 0, seed=3).determination == NOT_REGULAR


def test_complete_rank_counts_subspace_trivial_motions():
    fw = prism()
    res = finite_flex_test(fw)
    sub = symmetric_subspace(fw)
    triv = trivial_motion_basis(fw)
    # dim(T intersect X) = rank T + rank X - rank [T X]; here both translations
    preserved = (numeric_rank(triv) + numeric_rank(sub.basis)
                 - numeric_rank(np.hstack([triv, sub.basis])))
    assert preserved == 2
    assert res.rank_complete == sub.dim - preserved
    assert res.rank_graph <= res.rank_complete


def assert_ranks_match_oracle(fw, pin, sub):
    res = finite_flex_test(fw, pin, subspace=sub, samples=0)
    mm = measurement_map(fw, pin)
    assert res.rank_graph == restricted_rank_oracle(mm.jacobian(mm.base_reduced()), sub.basis)
    assert res.rank_complete == complete_graph_oracle(fw, pin, sub)


def isotypic_subspaces(fw, pin):
    """Every isotypic subspace of the pinned framework; none when the symmetry
    analysis rejects the pinning (not invariant, or a live contracted
    hyperplane)."""
    try:
        count = len(block_decompose(fw, pin).blocks)
    except SymmetryPreconditionError:
        return []
    return [symmetric_subspace(fw, pin, i) for i in range(count)]


def copy_classes(fw):
    """The extrusion copies of each base point, as one class each."""
    classes = {}
    for v in fw.graph.points:
        classes.setdefault(v.base, []).append(v)
    return list(classes.values())


def drawn_orbit_pinning(fw, data):
    """A drawn set of coordinates pinned on every copy of a base point
    (invariant, and often leaving trivial motions)."""
    classes = copy_classes(fw)
    chosen = data.draw(st.sets(st.tuples(st.integers(0, len(classes) - 1),
                                         st.integers(0, fw.dim - 1)), max_size=4))
    return PinningSpec(coords=frozenset((v, c) for k, c in chosen for v in classes[k]))


def drawn_pinnings(fw, data):
    """No pinning, the minimal pinning, and a drawn orbit pinning."""
    orbit_pin = drawn_orbit_pinning(fw, data)
    return [EMPTY_PIN, minimal_pinning(fw), orbit_pin]


@settings(max_examples=40, deadline=None)
@given(random_bar_joint_extrusions(), st.data())
def test_trivial_motion_rank_matches_complete_graph_on_random_extrusions(fw, data):
    if not affine_span_check(fw):
        with pytest.raises(ValueError, match="affinely span"):
            finite_flex_test(fw)
        return
    for pin in drawn_pinnings(fw, data):
        for sub in isotypic_subspaces(fw, pin):
            assert_ranks_match_oracle(fw, pin, sub)


@settings(max_examples=40, deadline=None)
@given(random_bar_joint_extrusions(), st.data())
def test_trivial_motion_rank_matches_complete_graph_on_uniform_velocities(fw, data):
    if not affine_span_check(fw):
        with pytest.raises(ValueError, match="affinely span"):
            finite_flex_test(fw, subspace=uniform_velocity_subspace(fw, copy_classes(fw)))
        return
    points = fw.graph.points
    labels = data.draw(st.lists(st.integers(0, 3), min_size=len(points), max_size=len(points)))
    drawn = [[v for v, k in zip(points, labels) if k == c] for c in range(4)]
    for classes in (copy_classes(fw), [c for c in drawn if c]):
        for pin in drawn_pinnings(fw, data):
            assert_ranks_match_oracle(fw, pin, uniform_velocity_subspace(fw, classes, pin))


@pytest.mark.parametrize("name", GALLERY)
def test_flex_ranks_match_complete_graph_on_gallery(name):
    doc = documents.load(resources.files("extrig").joinpath("data", name))
    fw = doc.framework
    pins = {EMPTY_PIN, doc.pinning or EMPTY_PIN}
    for pin in pins:
        for sub in isotypic_subspaces(fw, pin):
            assert_ranks_match_oracle(fw, pin, sub)
        if fw.is_bar_joint():
            for classes in (copy_classes(fw), [list(fw.graph.points)]):
                assert_ranks_match_oracle(fw, pin, uniform_velocity_subspace(fw, classes, pin))


def test_complete_rank_of_a_translation_subspace_is_zero():
    # one class moving as a whole: the subspace is the translations, the
    # complete graph's kernel; S - T T^T S is round-off here, so the rank is
    # taken from [T S] on the unit scale of the orthonormal columns
    fw = prism()
    sub = uniform_velocity_subspace(fw, [list(fw.graph.points)])
    assert sub.dim == 2
    assert finite_flex_test(fw, subspace=sub).rank_complete == 0


def test_graph_rank_of_a_translation_subspace_is_zero():
    # J S is round-off when S is the translations; cut against |J|_F it has rank 0
    fw = prism()
    sub = uniform_velocity_subspace(fw, [list(fw.graph.points)])
    res = finite_flex_test(fw, subspace=sub)
    assert (res.rank_graph, res.rank_complete, res.regular) == (0, 0, True)
    assert res.determination == NO_SYMMETRIC_FLEX
    assert regular_point_test(measurement_map(fw), sub)


def test_certificate_never_builds_the_complete_graph(monkeypatch):
    # no graph at all is built: the complete graph's rank comes from the
    # trivial motions for both framework kinds
    def refuse(self):
        raise AssertionError("graph built")

    cases = [((prism(),), FINITE_FLEX_CERTIFIED), ((triangle(),), NO_SYMMETRIC_FLEX),
             (point_line_twofold_pinned(), FINITE_FLEX_CERTIFIED)]
    monkeypatch.setattr(PHGraph, "__post_init__", refuse)
    for args, determination in cases:
        assert finite_flex_test(*args).determination == determination


def framework_of(d, points, hyperplanes, parallel=()):
    """Framework on points p0.. and hyperplane rows (a, r) w0..; the index
    pairs in ``parallel`` are parallel edges, the only edges: the complete
    graph's motions depend on the vertices and the parallel classes alone."""
    pts = tuple(Vertex(f"p{i}") for i in range(len(points)))
    hyps = tuple(Vertex(f"w{i}") for i in range(len(hyperplanes)))
    graph = PHGraph(points=pts, hyperplanes=hyps,
                    edges_hh_par=tuple((hyps[i], hyps[j]) for i, j in parallel))
    return Framework(graph, Configuration(d, np.array(points, dtype=float).reshape(-1, d),
                                          np.array(hyperplanes, dtype=float)))


VERTICAL_PLANES = [(1, 0, 0, 0), (0, 1, 0, 1), (1, 1, 0, 3)]

# (d, points, hyperplanes, parallel pairs, whether the complete graph's
# motions are the trivial ones)
DEGENERATE = {
    "no points, two parallel lines": (2, [], [(1, 0, 0), (1, 0, 1)], [(0, 1)], False),
    "no points, two lines": (2, [], [(1, 0, 0), (0, 1, 1)], [], True),
    "no points, three lines": (2, [], [(1, 0, 0), (0, 1, 1), (1, 1, 3)], [], False),
    "no points, three planes": (3, [], [(1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 2)], [], True),
    "no points, four planes": (3, [], [(1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 2), (1, 1, 1, 1)],
                               [], False),
    "one point, two planes sharing a direction": (3, [(0.3, 0.2, 0.1)], VERTICAL_PLANES[:2],
                                                  [], True),
    "one point, three planes sharing a direction": (3, [(0.3, 0.2, 0.1)], VERTICAL_PLANES,
                                                    [], False),
    "two points off three vertical planes' direction": (3, [(0, 0, 0), (0.2, 0.5, 1)],
                                                        VERTICAL_PLANES, [], True),
    "two points across three vertical planes": (3, [(0, 0, 0), (1, 2, 0)], VERTICAL_PLANES,
                                                [], False),
    "one point, two parallel lines in one class": (2, [(0.5, 0.5)], [(1, 0, 0), (1, 0, 2)],
                                                   [(0, 1)], True),
    "one point, two parallel lines in two classes": (2, [(0.5, 0.5)], [(1, 0, 0), (1, 0, 2)],
                                                     [], False),
    "two points along a line's normal": (2, [(0, 0), (1, 0)], [(1, 0, 3)], [], False),
    "two points and a line": (2, [(0, 0), (1, 1)], [(1, 0, 3)], [], True),
}


@pytest.mark.parametrize("name", DEGENERATE)
def test_complete_kernel_check_on_degenerate_frameworks(name):
    d, points, hyperplanes, parallel, trivial = DEGENERATE[name]
    fw = framework_of(d, points, hyperplanes, parallel)
    assert affine_span_check(fw)
    assert complete_kernel_check(fw) == trivial
    assert (complete_kernel_excess(fw) == 0) == trivial
    if not trivial:
        with pytest.raises(ValueError, match="beyond the trivial"):
            finite_flex_test(fw)
        return
    # on the whole parallel-respecting domain the complete rank still
    # matches the complete graph's
    mm = measurement_map(fw)
    sub = AffineSubspace(mm.base_reduced(), mm.wg_basis)
    res = finite_flex_test(fw, subspace=sub)
    assert res.rank_complete == complete_graph_oracle(fw, EMPTY_PIN, sub)


def test_point_free_extrusion_matches_complete_graph():
    # two planes containing the extrusion direction, no points: the normals
    # are independent, and the isotypic subspaces run the whole certificate
    fw = extrude_framework(framework_of(3, [], [(1, 0, 0, 0), (0, 1, 0, 1)]), [(0, 0, 1)],
                           [{"w0", "w1"}])
    assert complete_kernel_check(fw)
    for sub in isotypic_subspaces(fw, EMPTY_PIN):
        assert_ranks_match_oracle(fw, EMPTY_PIN, sub)
    assert finite_flex_test(fw).determination == FINITE_FLEX_CERTIFIED


def test_subspace_must_keep_parallel_classes_parallel():
    # one point, two parallel lines in one class: turning one line about the
    # point leaves the domain; the complete graph does not see it (no
    # parallel rows) while the trivial motions give rank 1
    fw = framework_of(2, [(0.5, 0.5)], [(1, 0, 0), (1, 0, 2)], [(0, 1)])
    mm = measurement_map(fw)
    turn = np.zeros(mm.index.size)
    start = mm.index.vertex_slice(Vertex("w1")).start
    turn[start:start + 3] = (0.0, 1.0, 0.5)   # da = (0, 1), dr = <p, da>
    sub = AffineSubspace(mm.base_reduced(), (turn / np.linalg.norm(turn))[:, None])
    assert complete_graph_oracle(fw, EMPTY_PIN, sub) == 0
    with pytest.raises(ValueError, match="parallel classes parallel"):
        finite_flex_test(fw, subspace=sub)


@settings(max_examples=40, deadline=None)
@given(degenerate_point_hyperplane_extrusions())
def test_complete_rank_matches_complete_graph_on_degenerate_extrusions(case):
    fw, pin = case
    trivial = complete_kernel_check(fw)
    assert (complete_kernel_excess(fw) == 0) == trivial
    if not affine_span_check(fw):
        with pytest.raises(ValueError, match="affinely span"):
            finite_flex_test(fw, pin)
    elif not trivial:
        with pytest.raises(ValueError, match="beyond the trivial"):
            finite_flex_test(fw, pin)
    else:
        for sub in isotypic_subspaces(fw, pin):
            assert_ranks_match_oracle(fw, pin, sub)


def test_uniform_velocity_subspace_cycle():
    fw = triangle_cycle()
    sub = uniform_velocity_subspace(fw, triangle_cycle_classes())
    assert sub.dim == 6
    res = finite_flex_test(fw, subspace=sub)
    assert res.determination == FINITE_FLEX_CERTIFIED
    assert (res.rank_graph, res.rank_complete) == (3, 4)


def test_uniform_velocity_subspace_validation():
    fw = triangle_cycle()
    with pytest.raises(ValueError, match="partition"):
        uniform_velocity_subspace(fw, [[Vertex("v1c1")]])
    with pytest.raises(ValueError, match="bar-joint"):
        uniform_velocity_subspace(point_line_twofold(), [list(point_line_twofold().graph.points)])


def test_block_path_agrees_with_measurement_path():
    # probing regularity of the fully-symmetric component on the diagonal
    # block gives the same ranks as the restricted measurement Jacobian
    cases = [(prism(), EMPTY_PIN), (prism_twofold(), EMPTY_PIN),
             point_line_twofold_pinned(), constrained_cube_pinned()]
    rng = np.random.default_rng(17)
    for fw, pin in cases:
        mm = measurement_map(fw, pin)
        sub = symmetric_subspace(fw, pin, 0)
        for _ in range(4):
            q = sub.sample(rng, 0.2 * (1.0 + np.linalg.norm(sub.base)))
            rank_meas = numeric_rank(mm.jacobian(q) @ sub.basis)
            assert rank_meas == block_rank_at(fw, pin, 0, q)


def sampled_points(sub, seed):
    """The configuration and seeded points of the subspace, near and far."""
    rng = np.random.default_rng(seed)
    scale = 1.0 + float(np.linalg.norm(sub.base))
    return [sub.base] + [sub.sample(rng, r * scale) for r in (0.1, 0.1, 1.0)]


def assert_sampler_matches_dense(fw, pin, bar_joint):
    """On every isotypic subspace, the rank from one row per orbit equals
    the rank of the dense J(q) S cut against |J|_F, at every sampled point."""
    subspaces = isotypic_subspaces(fw, pin)
    mm = measurement_map(fw, pin)
    for i, sub in enumerate(subspaces):
        sampler = _OrbitSampler(mm, sub)
        for q in sampled_points(sub, i):
            jac = mm.jacobian(q)
            dense = numeric_rank(jac @ sub.basis, RANK_TOL, scale=float(np.linalg.norm(jac)))
            assert sampler.rank(q, RANK_TOL) == dense
    if bar_joint and subspaces:
        # the fully-symmetric subspace is fixed by the whole active group:
        # its compressed rows are the rows of block 0
        dec = block_decompose(fw, pin)
        assert _OrbitSampler(mm, subspaces[0]).rows == dec.blocks[0].shape[0]


@settings(max_examples=40, deadline=None)
@given(random_bar_joint_extrusions(), st.data())
def test_orbit_sampler_matches_dense_rank_on_bar_joint_extrusions(fw, data):
    for pin in (EMPTY_PIN, drawn_orbit_pinning(fw, data)):
        assert_sampler_matches_dense(fw, pin, bar_joint=True)


@settings(max_examples=40, deadline=None)
@given(random_point_hyperplane_extrusions())
def test_orbit_sampler_matches_dense_rank_on_point_hyperplane_extrusions(case):
    fw, pin = case
    assert_sampler_matches_dense(fw, pin, bar_joint=False)


def assert_regularity_matches_full_sampling(fw, pin):
    """On every isotypic subspace, at the sampler's rank bound and below it,
    the regularity decision equals drawing all 20 samples on the orbit rows
    and drawing them on the dense J(q) S; returns, per subspace, whether its
    configuration is at the bound."""
    mm = measurement_map(fw, pin)
    at_bound = []
    for sub in isotypic_subspaces(fw, pin):
        args = (mm, sub, 20, 0, RANK_TOL)
        got = _regularity(*args)
        assert got == sampled_regularity(*args) == dense_regularity(*args)
        at_bound.append(got[0] == min(_OrbitSampler(mm, sub).rows, sub.dim))
    return at_bound


@settings(max_examples=60, deadline=None)
@given(random_bar_joint_extrusions(), st.data())
def test_regularity_matches_full_sampling_on_bar_joint_extrusions(fw, data):
    for pin in (EMPTY_PIN, drawn_orbit_pinning(fw, data)):
        assert_regularity_matches_full_sampling(fw, pin)


@settings(max_examples=60, deadline=None)
@given(random_point_hyperplane_extrusions())
def test_regularity_matches_full_sampling_on_point_hyperplane_extrusions(case):
    assert_regularity_matches_full_sampling(*case)


def test_regularity_at_and_below_the_rank_bound_on_fixtures():
    # prism's rho_0 block is 3 x 6 of rank 3; its rho_1 block (9 x 6, rank 5)
    # and triangle_cycle's (18 x 18, rank 14) are not regular
    assert assert_regularity_matches_full_sampling(prism(), EMPTY_PIN) == [True, False]
    assert assert_regularity_matches_full_sampling(triangle_cycle(), EMPTY_PIN) == [False]


@pytest.fixture
def sampler_ranks(monkeypatch):
    ranks = []
    real = _OrbitSampler.rank

    def counted(self, reduced, tol):
        ranks.append(real(self, reduced, tol))
        return ranks[-1]

    monkeypatch.setattr(_OrbitSampler, "rank", counted)
    return ranks


def test_configuration_at_the_rank_bound_draws_no_sample(sampler_ranks):
    # the orbit-sampled path ranks the configuration once; the base path,
    # which prism's unpinned rho_0 takes, builds no sampler at all
    fw = prism()
    assert finite_flex_test(fw, subspace=symmetric_subspace(fw)).determination \
        == FINITE_FLEX_CERTIFIED
    assert len(sampler_ranks) == 1
    assert finite_flex_test(fw).determination == FINITE_FLEX_CERTIFIED
    assert len(sampler_ranks) == 1


def test_configuration_below_the_rank_bound_samples_until_one_exceeds(sampler_ranks):
    result = finite_flex_test(triangle_cycle())
    assert result.determination == NOT_REGULAR
    here, *samples = sampler_ranks
    assert samples and max(samples[:-1], default=here) <= here < samples[-1]


def assert_subspace_reads_the_block_basis(fw, pin=EMPTY_PIN):
    dec = block_decompose(fw, pin)
    for i in range(len(dec.blocks)):
        assert np.array_equal(symmetric_subspace(fw, pin, i).basis,
                              dec.reps.external_bases[i].dense())


@pytest.mark.parametrize("name", ["prism.json", "prism_twofold.json"])
def test_symmetric_subspace_is_the_block_decomposition_basis_on_gallery(name):
    doc = documents.load(resources.files("extrig") / "data" / name)
    assert_subspace_reads_the_block_basis(doc.framework)


@settings(max_examples=40, deadline=None)
@given(random_bar_joint_extrusions())
def test_symmetric_subspace_is_the_block_decomposition_basis(fw):
    """Read from the external representation alone, the bar-joint subspace is
    bitwise the A_i of the whole block decomposition."""
    assert_subspace_reads_the_block_basis(fw)


def test_subspace_is_fixed_by_elements_flipping_only_character_one_directions():
    # at t = 2 the irreducible rho_11 has character +1 on 11, but 11 flips two
    # directions of character -1, so it does not fix the points of the subspace
    fw = prism_twofold()
    fixed = [symmetric_subspace(fw, irrep_index=i).fixed_by for i in range(4)]
    assert fixed == [((0, 0), (0, 1), (1, 0), (1, 1)), ((0, 0), (1, 0)),
                     ((0, 0), (0, 1)), ((0, 0),)]
    assert uniform_velocity_subspace(triangle_cycle(), triangle_cycle_classes()).fixed_by == ()


def dense_flex_test(monkeypatch, *args, **kwargs):
    """finite_flex_test with regularity sampled on the dense J(q) S."""
    with monkeypatch.context() as patched:
        patched.setattr(extrig.finiteflex, "_regularity", dense_regularity)
        return finite_flex_test(*args, **kwargs)


@pytest.mark.parametrize("name", GALLERY)
def test_finite_flex_test_matches_dense_sampling_on_gallery(monkeypatch, name):
    doc = documents.load(resources.files("extrig").joinpath("data", name))
    fw = doc.framework
    for pin in {EMPTY_PIN, doc.pinning or EMPTY_PIN}:
        for i in range(len(isotypic_subspaces(fw, pin))):
            for seed in (0, 1):
                got = finite_flex_test(fw, pin, i, seed=seed)
                assert got == dense_flex_test(monkeypatch, fw, pin, i, seed=seed)


def trivial_group_case():
    fw = triangle_cycle()
    sub = uniform_velocity_subspace(fw, triangle_cycle_classes())
    return (fw,), {"subspace": sub}, FINITE_FLEX_CERTIFIED


def not_regular_case():
    fw, pin = constrained_cube_pinned()
    return (fw, pin, 0), {"seed": 3}, NOT_REGULAR


@pytest.mark.parametrize("case", [trivial_group_case, not_regular_case])
def test_finite_flex_test_matches_dense_sampling(monkeypatch, case):
    args, kwargs, determination = case()
    got = finite_flex_test(*args, **kwargs)
    assert got == dense_flex_test(monkeypatch, *args, **kwargs)
    assert got.determination == determination


def general_flex_test(fw, tol=RANK_TOL):
    """finite_flex_test on the fully-symmetric subspace, passed in: a given
    subspace always takes the orbit-sampled path."""
    return finite_flex_test(fw, tol=tol, subspace=symmetric_subspace(fw, tol=tol))


def outcome(call):
    """The result of ``call``, or the type and message of what it raised."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


def k4_extruded():
    # K4 in the plane has rank 5 < min(6 base rows, dim S = 8): below the bound
    return extruded([(0, 0), (3, 0.2), (1, 2.5), (2.2, 1.1)],
                    [(i, j) for i in range(4) for j in range(i + 1, 4)], [(0.7, 1.9)])


@settings(max_examples=300, deadline=None)
@given(random_bar_joint_extrusions())
@example(k4_extruded())
def test_base_path_matches_the_general_path(fw):
    """The copy-0 certificate equals the orbit-sampled one, field by field,
    and fails its preconditions with the same error."""
    assert outcome(lambda: finite_flex_test(fw)) == outcome(lambda: general_flex_test(fw))


@pytest.mark.parametrize("tol", [1e-3, 5e-2])
def test_a_coarse_tolerance_takes_the_general_path(monkeypatch, tol):
    # from 1e-3 the general path's cut of rank [T S] can give another
    # rank_complete than the directions' rank does
    fw = prism()
    want = general_flex_test(fw, tol)
    monkeypatch.setattr(extrig.finiteflex, "_base_flex_test", None)
    assert finite_flex_test(fw, tol=tol) == want


HAND_OVERS = {
    "below the rank bound": k4_extruded,
    # p0|0 - p1|1 and its image p0|1 - p1|0 have no member on copy-0 points
    "edge across words": lambda: with_extra_bars(triangle_extruded(),
                                                 [("p0|0", "p1|1"), ("p0|1", "p1|0")]),
    # the coordinates of q|* lie in the fully-symmetric subspace, yet no
    # copy-0 row touches them
    "starred point": lambda: with_starred_point(triangle_extruded()),
}


@pytest.mark.parametrize("name", HAND_OVERS)
def test_the_base_path_hands_over(name):
    fw = HAND_OVERS[name]()
    assert extrig.finiteflex._base_flex_test(fw, RANK_TOL) is None
    assert finite_flex_test(fw) == general_flex_test(fw)


def moved(fw, shift):
    """The framework with its first point moved by ``shift``."""
    points = fw.config.points.copy()
    points[0] += shift
    return Framework(fw.graph, Configuration(fw.dim, points, fw.config.hyperplanes), fw.extrusion)


PRECONDITION_FAILURES = {
    "collinear": (lambda: extruded([(0, 0), (1, 0)], [(0, 1)], [(2, 0)]), "affinely span"),
    "off symmetry": (lambda: moved(prism(), (1e-3, 0)), "not extrusion-symmetric"),
    "copy edge across two directions": (
        lambda: with_extra_bars(extruded([(0, 0), (2, 0.5), (0.4, 1.7)], [(0, 1), (1, 2)],
                                         [(1.3, 0.4), (-0.2, 1.1)]),
                                [("p0|00", "p0|11"), ("p0|01", "p0|10")]),
        "copies"),
}


@pytest.mark.parametrize("name", PRECONDITION_FAILURES)
def test_precondition_failures_raise_alike_on_both_paths(name):
    build, match = PRECONDITION_FAILURES[name]
    fw = build()
    with pytest.raises(ValueError, match=match) as base:
        finite_flex_test(fw)
    with pytest.raises(ValueError, match=match) as general:
        general_flex_test(fw)
    assert type(base.value) is type(general.value)
    assert str(base.value) == str(general.value)


def base_certificate(fw, tol=RANK_TOL, pin=EMPTY_PIN):
    """``(result, matrix, scale, shape)`` of ``_base_flex_test``: its first
    rank decision, the SVD-free ``clears_cut`` or the SVD's ``numeric_rank``,
    is on the base rows, and the matrix, scale (``clears_cut``'s norm) and
    shape it cut are read off that call (None where it hands over before
    ranking)."""
    seen = []

    def rank_spy(mat, tol=RANK_TOL, scale=None, shape=None):
        seen.append((mat, scale, shape))
        return numeric_rank(mat, tol, scale, shape)

    def cut_spy(mat, tol, shape, norm, upper=False):
        seen.append((mat, norm, shape))
        return clears_cut(mat, tol, shape, norm, upper)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(extrig.finiteflex, "numeric_rank", rank_spy)
        patched.setattr(extrig.finiteflex, "clears_cut", cut_spy)
        result = extrig.finiteflex._base_flex_test(fw, tol, pin)
    return (result, *(seen[0] if seen else (None, None, None)))


def assert_certificate_matches_the_layout_oracle(fw, pin=EMPTY_PIN):
    """The base rows equal, bit for bit, the rows the whole layout gives;
    |J|_F, summed in another order, agrees to round-off; the results, and
    what either raises (type and message), are equal."""
    got = outcome(lambda: base_certificate(fw, RANK_TOL, pin))
    want = outcome(lambda: layout_base_flex_test(fw, RANK_TOL, pin))
    if isinstance(want[0], type):
        assert got == want
        return
    (result, mat, scale, shape), (ref, ref_mat, ref_scale) = got, want
    assert result == ref
    assert (mat is None) == (ref_mat is None)
    if ref_mat is not None:
        assert (mat.shape, mat.tobytes()) == (ref_mat.shape, ref_mat.tobytes())
        assert shape == (len(fw.graph.edges_pp), mat.shape[1])
        assert scale == pytest.approx(ref_scale, rel=1e-14)


@settings(max_examples=300, deadline=None)
@given(random_bar_joint_extrusions())
def test_base_certificate_equals_the_layout_oracle(fw):
    assert_certificate_matches_the_layout_oracle(fw)


@settings(max_examples=100, deadline=None)
@given(rigid_fan_extrusions())
def test_base_certificate_equals_the_layout_oracle_on_fans(fw):
    assert_certificate_matches_the_layout_oracle(fw)


@pytest.mark.parametrize("name", GALLERY)
def test_base_certificate_equals_the_layout_oracle_on_gallery(name):
    doc = documents.load(resources.files("extrig").joinpath("data", name))
    for pin in {EMPTY_PIN, doc.pinning or EMPTY_PIN}:
        assert_certificate_matches_the_layout_oracle(doc.framework, pin)


def two_direction_edge():
    return PRECONDITION_FAILURES["copy edge across two directions"][0]()


def with_spec(fw, active):
    return Framework(fw.graph, fw.config, ExtrusionSpec(fw.extrusion.directions, active=active))


def copy_class_pinned(fw):
    return fw, PinningSpec(coords={(v, 0) for v in fw.graph.points if v.base == "p0"})


# (framework, pinning), and what the base certificate gives: None for a
# hand-over, else the exception type; where several apply, the first in
# the entry's order decides
CERTIFICATE_CASES = {
    "pinned": (lambda: copy_class_pinned(triangle_extruded()), None),
    "pinned off symmetry": (lambda: copy_class_pinned(moved(triangle_extruded(), (1e-3, 0))), None),
    "inactive direction": (lambda: (with_spec(triangle_extruded(((1.3, 0.4), (-0.2, 1.1))), (0,)),
                                    EMPTY_PIN), None),
    "active out of order": (lambda: (with_spec(triangle_extruded(((1.3, 0.4), (-0.2, 1.1))),
                                               (1, 0)), EMPTY_PIN), None),
    "starred point": (lambda: (HAND_OVERS["starred point"](), EMPTY_PIN), None),
    "starred point off symmetry": (lambda: (moved(HAND_OVERS["starred point"](), (1e-3, 0)),
                                            EMPTY_PIN), None),
    "edge across words": (lambda: (HAND_OVERS["edge across words"](), EMPTY_PIN), None),
    "edge across words off symmetry": (
        lambda: (moved(HAND_OVERS["edge across words"](), (1e-3, 0)), EMPTY_PIN), None),
    "below the rank bound": (lambda: (k4_extruded(), EMPTY_PIN), None),
    "off symmetry": (lambda: (moved(prism(), (1e-3, 0)), EMPTY_PIN), SymmetryPreconditionError),
    "copy edge across two directions": (lambda: (two_direction_edge(), EMPTY_PIN), ValueError),
    "two directions off symmetry": (lambda: (moved(two_direction_edge(), (1e-3, 0)), EMPTY_PIN),
                                    SymmetryPreconditionError),
}


@pytest.mark.parametrize("name", CERTIFICATE_CASES)
def test_certificate_hand_overs_and_errors_keep_their_order(name):
    """Each hand-over and each error of the copy-0 entry, alone or ahead of
    another, as the layout oracle gives it: None, or the same exception
    type and message; finite_flex_test then equals the general path."""
    build, expect = CERTIFICATE_CASES[name]
    fw, pin = build()
    assert_certificate_matches_the_layout_oracle(fw, pin)
    got = outcome(lambda: extrig.finiteflex._base_flex_test(fw, RANK_TOL, pin))
    if expect is None:
        assert got is None
    else:
        assert got[0] is expect
        assert outcome(lambda: finite_flex_test(fw, pin)) == got
    if not pin.is_empty():
        return
    assert outcome(lambda: finite_flex_test(fw)) == outcome(lambda: general_flex_test(fw))


def test_linear_push_prism():
    fw = prism()
    pin = minimal_pinning(fw)
    res = linear_push(fw, pin, seed=11)
    assert res.determination == LINEARLY_DETECTABLE
    assert res.iterations <= 6 * 2  # nd bound
    assert all(dim <= 6 * 2 for _, dim in res.trace)


def test_linear_push_k33_depends_on_pinning():
    fw = k33_orthogonal()
    non_adjacent, adjacent = k33_pinnings()
    assert linear_push(fw, non_adjacent, seed=5).determination == LINEARLY_DETECTABLE
    assert linear_push(fw, adjacent, seed=5).determination == NOT_LINEARLY_DETECTABLE


def test_linear_push_deterministic():
    fw = k33_orthogonal()
    non_adjacent, _ = k33_pinnings()
    a = linear_push(fw, non_adjacent, seed=9)
    b = linear_push(fw, non_adjacent, seed=9)
    assert a.determination == b.determination
    assert a.iterations == b.iterations
    assert a.trace == b.trace
    assert np.array_equal(a.subspace.basis, b.subspace.basis)


def test_linear_push_rejects_rigid_framework():
    fw = triangle()
    res = linear_push(fw, minimal_pinning(fw), seed=1)
    assert res.determination == PRECONDITION_FAILED
    assert "nullity 0" in res.reason


def test_linear_push_rejects_a_pinning_that_keeps_a_rotation():
    # d(d+1)/2 pins, but x, y of p and y of q leave the rotation about p
    p, q = Vertex("p"), Vertex("q")
    fw = Framework(PHGraph(points=(p, q), hyperplanes=(), edges_pp=((p, q),)),
                   Configuration(2, np.array([[0.0, 0.0], [0.0, 1.0]]), np.zeros((0, 3))))
    res = linear_push(fw, PinningSpec(coords={(p, 0), (p, 1), (q, 1)}))
    assert res.determination == PRECONDITION_FAILED
    assert res.reason == "pinned framework retains trivial motions"
    assert res.iterations == 0


def test_linear_push_stops_at_max_iter():
    # the prism is certified after two samples (the @example below)
    fw = prism()
    res = linear_push(fw, minimal_pinning(fw), seed=11, max_iter=1)
    assert res.determination == PRECONDITION_FAILED
    assert res.reason == "no determination within 1 iterations"
    assert res.iterations == len(res.trace) == 1


def test_linear_push_point_hyperplane():
    # an extrusion-symmetric point-line framework is linearly detectable
    # under any minimal pinning; ranks run on the parallel-respecting domain
    fw = point_line_extruded_fixed()
    pin = minimal_pinning(fw)
    res = linear_push(fw, pin, seed=3)
    assert res.determination == LINEARLY_DETECTABLE


def test_linear_push_rejects_bad_pinning():
    fw = prism()
    res = linear_push(fw, EMPTY_PIN, seed=1)
    assert res.determination == PRECONDITION_FAILED
    assert "expected 3" in res.reason


def push_outcome(res):
    return res.determination, res.iterations, res.trace, res.reason, res.subspace.dim


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.one_of(random_bar_joint_extrusions(),
                           random_point_hyperplane_extrusions().map(lambda drawn: drawn[0]))
                 .map(lambda fw: (fw, None, False)),
                 rigid_fan_extrusions().map(lambda fw: (fw, None, True))),
       st.integers(0, 20))
@example((k33_orthogonal(), k33_pinnings()[1], True), 5).via(
    "adjacent pinning: NotLinearlyDetectable")
@example((prism(), None, True), 11).via("LinearlyDetectable after two samples")
def test_linear_push_equals_the_svd_kernel_push(case, seed):
    # inverse iteration on one triangular factor decides as the full SVD
    # does; the flexes agree only up to sign, and so do the samples drawn
    # along them, so the subspaces are compared by dimension.  A case with
    # one flex (every extruded rigid fan) must reach the sample loop.
    fw, pin, one_flex = case
    if pin is None:
        try:
            pin = minimal_pinning(fw)
        except ValueError:
            assert not one_flex
            reject()
    got = linear_push(fw, pin, seed=seed)
    assert got.iterations > 0 or not one_flex, got.reason
    assert push_outcome(got) == push_outcome(reference_linear_push(fw, pin, seed=seed))


@pytest.mark.parametrize("fw,pin", [(prism(), None), (k33_orthogonal(), k33_pinnings()[0]),
                                    (k33_orthogonal(), k33_pinnings()[1])])
def test_linear_push_forms_no_singular_vectors(monkeypatch, fw, pin):
    pin = minimal_pinning(fw) if pin is None else pin
    svd = np.linalg.svd

    def values_only(mat, *args, compute_uv=True, **kwargs):
        assert not compute_uv, "singular vectors formed inside linear_push"
        return svd(mat, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", values_only)
    assert linear_push(fw, pin, seed=5).iterations > 0


def test_certified_subspace_is_stable():
    fw = prism()
    pin = minimal_pinning(fw)
    res = linear_push(fw, pin, seed=11)
    assert res.determination == LINEARLY_DETECTABLE
    mm = measurement_map(fw, pin)
    base_rank = numeric_rank(mm.jacobian(mm.base_reduced()))
    rng = np.random.default_rng(123)
    for _ in range(20):
        q = res.subspace.sample(rng, 1.0 + float(np.linalg.norm(res.subspace.base)))
        assert numeric_rank(mm.jacobian(q)) == base_rank
