"""Finite-flex certification and the numerical linear push.

The measurement map records squared point-point distances, point-hyperplane
offsets, hyperplane angle cosines, and the normal normalizations; parallel
constraints live in the domain (configurations keeping class normals
parallel), not in the map.  Values and Jacobian come from the row table of
:mod:`extrig.rigidity`, so the Jacobian is the rigidity matrix without its
parallel rows and with its pp and normalization rows doubled.

Restricting the Jacobian to an affine subspace whose points achieve
locally maximal rank turns an infinitesimal flex into a certified finite
one; the linear push grows such a subspace from a single flex of a
minimally pinned framework.  It ranks each Jacobian and takes its flex
from one triangular factor (:func:`~extrig.linalg.rank_and_kernel_vector`),
on every unpinned coordinate of a bar-joint framework and on the
parallel-respecting directions of a point-hyperplane one.

Regularity is sampled on one row per orbit.  An extrusion element that
flips only directions along which the subspace's character is +1 keeps
every point q of the subspace extrusion-symmetric, so J(q) intertwines
the representations and the rows of J(q) S are equal up to sign along the
element's row orbits.  Then (J S)^T (J S) is the sum over orbits of
|orbit| k^T k for one representative row k, which is exact: the
representatives weighted by sqrt(|orbit|) have the singular values of
J S, and an orbit whose stabiliser negates it has J S rows that vanish.
This is the orbit rigidity matrix (Schulze & Whiteley 2011) read per
irreducible (Kangwai & Guest 2000).  The rank cut stays on the shape of
J S and on |J|_F, taken from the nonzeros of every row.  Every sample is
ranked on orbit rows of the same shape, so none exceeds min(orbit rows,
dim S): a configuration at that bound has maximal rank, so it is regular
(Asimow & Roth 1978), and no sample is drawn.  On the fully-symmetric
component of an unpinned bar-joint extrusion those orbit rows are the base
framework's rows on its copy-0 points, so there no subspace is built at all
(:func:`_base_flex_test`).

The certificate compares the graph's restricted rank with the complete
decorated graph's, read off the trivial motions T of the pinning for both
framework kinds: no complete graph is built.  That needs the complete
graph's kernel, on the parallel-respecting domain, to be exactly T.  For
bar-joint frameworks whose points affinely span this is Asimow & Roth,
"The rigidity of graphs" (1978).  For point-hyperplane frameworks
:func:`~extrig.frameworks.complete_kernel_check` decides it (see
Eftekhari et al., "Point-hyperplane frameworks, slider joints, and rigidity
preserving transformations", 2019); :func:`finite_flex_test` refuses a
framework that fails it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .frameworks import Framework, affine_span_check, complete_kernel_check
from .linalg import (CONTAINMENT_TOL, RANK_TOL, clears_cut, intersect_columns, nullspace,
                     numeric_rank, orthonormal_columns, projection_residual,
                     rank_and_kernel_vector)
from .rigidity import (CoordinateIndex, EMPTY_PIN, ROW_KINDS, PinningSpec, RowLayout,
                       _surviving_trivial_motions, trivial_motion_basis, trivial_motion_generators)
from .symmetry import block_decompose  # noqa: F401  (perfbench traces it under this name)
from .symmetry import build_reps, copy_zero_rows

FINITE_FLEX_CERTIFIED = "FiniteFlexCertified"
NO_SYMMETRIC_FLEX = "NoSymmetricFlex"
NOT_REGULAR = "NotRegular"

LINEARLY_DETECTABLE = "LinearlyDetectable"
NOT_LINEARLY_DETECTABLE = "NotLinearlyDetectable"
PRECONDITION_FAILED = "PreconditionFailed"


@dataclass(frozen=True)
class MeasurementMap:
    """Constraint measurements of a (pinned) framework as a map on the
    surviving coordinates; pinned coordinates are frozen at their framework
    values.  ``wg_basis`` spans the domain directions along which parallel
    classes keep their normal ratios (everything, for bar-joint)."""

    fw: Framework
    pin: PinningSpec
    index: CoordinateIndex
    layout: RowLayout
    base_full: np.ndarray

    @cached_property
    def wg_basis(self) -> np.ndarray:
        return parallel_respecting_basis(self.fw, self.index)

    def base_reduced(self) -> np.ndarray:
        return self.base_full[self.index.keep]

    def _coordinates(self, reduced):
        full = self.base_full.copy()
        full[self.index.keep] = np.asarray(reduced, dtype=float)
        return self.index.split(full)

    def values(self, reduced) -> np.ndarray:
        return self.layout.values(*self._coordinates(reduced))

    def jacobian(self, reduced) -> np.ndarray:
        """Jacobian at a reduced coordinate vector, pinned columns removed: the
        rigidity rows, pp and normalization rows doubled (squared quantities)."""
        return self.layout.matrix(*self._coordinates(reduced), scaled=True, keep=self.index.keep)


def parallel_respecting_basis(fw: Framework, index: CoordinateIndex,
                              tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis, in pinned coordinates, of the directions along which
    every parallel class keeps its exact normal ratios.

    This is the linearization of the measurement map's domain: the rigidity
    matrix carries explicit parallel rows, the measurement map instead lives
    on configurations whose class normals stay parallel.  For bar-joint
    frameworks this is the whole space.
    """
    d = fw.dim
    conditions = []
    for cls in fw.graph.parallel_classes:
        if len(cls) < 2:
            continue
        rep = cls[0]
        a_rep, _ = fw.hyperplane(rep)
        for other in cls[1:]:
            a_other, _ = fw.hyperplane(other)
            beta = float(np.dot(a_other, a_rep) / np.dot(a_rep, a_rep))
            for c in range(d):
                row = np.zeros(index.full_size)
                row[index.vertex_slice(other).start + c] = 1.0
                row[index.vertex_slice(rep).start + c] = -beta
                row = row[index.keep]
                if np.any(row):
                    conditions.append(row)
    if not conditions:
        return np.eye(index.size)
    return nullspace(np.stack(conditions), tol)


def measurement_map(fw: Framework, pin: PinningSpec = EMPTY_PIN) -> MeasurementMap:
    index = CoordinateIndex(fw, pin)
    return MeasurementMap(fw=fw, pin=pin, index=index,
                          layout=RowLayout(fw.graph, fw.dim, pin, include_parallel=False),
                          base_full=index.full_vector())


@dataclass(frozen=True)
class AffineSubspace:
    """base + span(orthonormal basis columns), in pinned coordinates.

    ``fixed_by`` lists extrusion elements under which every point of the
    subspace is a symmetric configuration; regularity sampling reads the
    restricted Jacobian on one row per orbit of them.  Empty means no
    symmetry is known, and every row is its own orbit.
    """

    base: np.ndarray
    basis: np.ndarray
    fixed_by: tuple = ()

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def contains(self, vec) -> bool:
        delta = np.asarray(vec, dtype=float) - self.base
        bound = CONTAINMENT_TOL * (1.0 + np.linalg.norm(delta))
        return projection_residual(delta, self.basis) <= bound

    def point(self, coeff) -> np.ndarray:
        return self.base + self.basis @ np.asarray(coeff, dtype=float)

    def sample(self, rng, scale: float) -> np.ndarray:
        return self.point(rng.uniform(-1.0, 1.0, self.dim) * scale)


def restricted_jacobian(mm: MeasurementMap, sub: AffineSubspace, reduced=None) -> np.ndarray:
    vec = mm.base_reduced() if reduced is None else np.asarray(reduced, dtype=float)
    if not sub.contains(vec):
        raise ValueError("configuration lies outside the affine subspace")
    return mm.jacobian(vec) @ sub.basis


def symmetric_subspace(fw: Framework, pin: PinningSpec = EMPTY_PIN, irrep_index: int = 0,
                       tol: float = RANK_TOL) -> AffineSubspace:
    """Affine subspace through the configuration along one isotypic component.

    The component is intersected with the parallel-respecting directions so
    that every point of the subspace is a valid decorated configuration; for
    the fully-symmetric component of an extrusion framework this changes
    nothing.

    The subspace is fixed by the active elements that flip only directions
    on which the irreducible's character is +1.  Moving along the component
    displaces the copies of a vertex across such a direction alike, so they
    stay one extrusion vector apart and the element remains a symmetry.  An
    element with character +1 that flips two directions of character -1 is
    not one: the copies across either direction move apart by opposite
    amounts, and the copy edges its orbit pairs change length differently.

    Only the external representation is read: the isotypic bases A_i of
    :func:`~extrig.symmetry.block_decompose`, without its blocks.
    """
    reps = build_reps(fw, pin)
    index = reps.index
    basis = reps.external_bases[irrep_index].dense()
    if not fw.is_bar_joint():
        wg = parallel_respecting_basis(fw, index, tol)
        if wg.shape[1] < index.size:
            basis = intersect_columns(basis, wg, tol)
    elements = reps.elements
    flips = np.array(elements, dtype=bool).reshape(len(elements), -1)
    fixed_by = tuple(g for g, f in zip(elements, flips) if not (f & flips[irrep_index]).any())
    return AffineSubspace(base=index.reduce(index.full_vector()), basis=basis, fixed_by=fixed_by)


def uniform_velocity_subspace(fw: Framework, classes, pin: PinningSpec = EMPTY_PIN,
                              tol: float = RANK_TOL) -> AffineSubspace:
    """Fixed space of a copy-permutation action given by vertex classes.

    Each class of point vertices moves with one shared velocity; the basis
    is the fully-symmetric subspace of the corresponding permutation
    representation tensor identity.  Bar-joint frameworks only.
    """
    if not fw.is_bar_joint():
        raise ValueError("uniform velocity subspaces are defined for bar-joint frameworks")
    index = CoordinateIndex(fw, pin)
    d = fw.dim
    listed = [v for cls in classes for v in cls]
    if len(listed) != len(set(listed)) or set(listed) != set(fw.graph.points):
        raise ValueError("classes must partition the point vertices")
    cols = []
    for cls in classes:
        for c in range(d):
            vec = np.zeros(index.full_size)
            for v in cls:
                vec[index.vertex_slice(v).start + c] = 1.0
            cols.append(vec)
    basis = orthonormal_columns(np.column_stack(cols)[index.keep, :], tol)
    return AffineSubspace(base=index.reduce(index.full_vector()), basis=basis)


class _OrbitSampler:
    """Rank of J(q) S at points q of a subspace, from one row per orbit.

    Built once per subspace from the measurement rows' signed permutations
    under ``sub.fixed_by``: one representative per orbit, weighted by
    sqrt(|orbit|); orbits whose stabiliser carries a -1 sign are dropped,
    since their rows of J S vanish.  The positions of the kept rows'
    nonzeros in the compressed rows are recorded here, so a sample only
    evaluates the row table's nonzero values.
    """

    def __init__(self, mm: MeasurementMap, sub: AffineSubspace):
        layout, keep = mm.layout, mm.index.keep
        m = layout.shape[0]
        moves = layout.action(sub.fixed_by)
        target = np.array([np.arange(m)] + [t for t, _ in moves])
        sign = np.array([np.ones(m)] + [s for _, s in moves])
        first = target.min(axis=0)
        reps = np.flatnonzero(first == np.arange(m))
        size = np.bincount(np.searchsorted(reps, first), minlength=len(reps))
        vanish = ((target[:, reps] == reps) & (sign[:, reps] < 0)).any(axis=0)
        slot = np.full(m, -1)
        slot[reps[~vanish]] = np.arange(int((~vanish).sum()))
        row, col, _ = layout.nonzeros(*mm._coordinates(mm.base_reduced()), scaled=True)
        self.kept = keep[col]
        self.used = self.kept & (slot[row] >= 0)
        self.at = slot[row[self.used]] * mm.index.size + (np.cumsum(keep) - 1)[col[self.used]]
        self.weight = np.sqrt(size[~vanish][slot[row[self.used]]])
        self.rows = int((~vanish).sum())
        self.mm, self.basis, self.shape = mm, sub.basis, (m, sub.dim)

    def rank(self, reduced, tol: float) -> int:
        """Rank of J S at ``reduced``, cut on the shape of J S against |J|_F."""
        mm = self.mm
        value = mm.layout.nonzeros(*mm._coordinates(reduced), scaled=True)[2]
        rows = np.zeros(self.rows * mm.index.size)
        rows[self.at] = self.weight * value[self.used]
        prod = rows.reshape(self.rows, mm.index.size) @ self.basis
        return numeric_rank(prod, tol, scale=float(np.linalg.norm(value[self.kept])),
                            shape=self.shape)


def _regularity(mm: MeasurementMap, sub: AffineSubspace, samples: int, seed: int,
                tol: float) -> tuple:
    """(rank of the restricted Jacobian at the configuration, whether no
    seeded sample of the subspace exceeds it); no sample is drawn when the
    rank is already min(orbit rows, dim S).  Samples lie within 0.1 (1 + |q|)
    of the configuration q along each basis direction of the subspace."""
    if sub.dim == 0:
        return 0, True
    here = mm.base_reduced()
    radius = 0.1 * (1.0 + float(np.linalg.norm(here)))
    sampler = _OrbitSampler(mm, sub)
    rank_here = sampler.rank(here, tol)
    if rank_here == min(sampler.rows, sub.dim):
        return rank_here, True
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        q = here + sub.basis @ (rng.uniform(-1.0, 1.0, sub.dim) * radius)
        if sampler.rank(q, tol) > rank_here:
            return rank_here, False
    return rank_here, True


def regular_point_test(mm: MeasurementMap, sub: AffineSubspace, samples: int = 20,
                       seed: int = 0, tol: float = RANK_TOL) -> bool:
    """True iff the configuration achieves the maximal restricted-Jacobian
    rank among seeded random points of the subspace near it (see
    :func:`_regularity`)."""
    return _regularity(mm, sub, samples, seed, tol)[1]


def _complete_rank(fw: Framework, pin: PinningSpec, sub: AffineSubspace, tol: float) -> int:
    """Rank, at the configuration, of the complete decorated graph's
    measurement Jacobian restricted to the subspace.

    Given the preconditions of :func:`finite_flex_test`, that Jacobian's
    kernel on the parallel-respecting domain is the trivial motions T of
    the pinning and S lies in that domain, so the rank is
    dim S - dim(S n T) = rank(S - T T^T S), taken here as rank [T S] - dim T
    so that the rank cut stays on the unit scale of the orthonormal columns
    even when S lies inside T.
    """
    triv = trivial_motion_basis(fw, pin, tol)
    return numeric_rank(np.hstack([triv, sub.basis]), tol) - triv.shape[1]


@dataclass
class FlexTestResult:
    determination: str
    regular: bool
    rank_graph: int
    rank_complete: int
    subspace_dim: int


def _determination(regular: bool, rank_graph: int, rank_complete: int) -> str:
    if not regular:
        return NOT_REGULAR
    return FINITE_FLEX_CERTIFIED if rank_graph < rank_complete else NO_SYMMETRIC_FLEX


def _base_flex_test(fw: Framework, tol: float, pin: PinningSpec = EMPTY_PIN):
    """The fully-symmetric certificate of an unpinned bar-joint extrusion
    with every direction active, read off the copy-0 points; None where the
    orbit-sampled path has to decide.

    Every point of the fully-symmetric subspace S is the extrusion of a base
    configuration.  A copy edge keeps its length along S, and every other
    edge orbit has one member on copy-0 points, so J S has the singular
    values of the base rows on the copy-0 columns: the orbit rigidity
    matrix of rho_0 (Schulze & Whiteley 2011), the only rows evaluated.  They
    are cut as :class:`_OrbitSampler` cuts them, on the shape of J S and
    |J|_F, here from the pp blocks of every edge, which bounds |base rows|_F.
    Full rank is certified without an SVD where it is certain
    (:func:`~extrig.linalg.clears_cut`, a shifted Cholesky of the rows' Gram
    matrix), and decided by the SVD elsewhere.  At the rank bound
    min(base rows, dim S) the configuration is regular; below it, and
    wherever :func:`~extrig.symmetry.copy_zero_rows` hands over (a pinning,
    an inactive direction, a starred point, an edge across words), None.
    The trivial motions in S are the translations and the rotations W with
    W tau_h = 0 for every direction, (d - r)(d - r - 1)/2 of them for r =
    rank of the directions, so the complete graph's rank dim S - dim(S n T)
    needs no SVD of [T S].
    """
    found = copy_zero_rows(fw, pin)
    if found is None:
        return None
    lo, hi, copy = found
    d, kind = fw.dim, ROW_KINDS["pp"]
    blocks = kind.blocks(fw.config.points, fw.config.hyperplanes, (lo, hi), None)
    base = (copy[lo] == 0) & (copy[hi] == 0)   # both ends on copy-0 points
    column = d * (np.cumsum(copy == 0) - 1)[:, None] + np.arange(d)   # a copy-0 point's columns
    mat = np.zeros((int(np.count_nonzero(base)), d * int(np.count_nonzero(copy == 0))))
    for end, block in zip((lo[base], hi[base]), blocks):
        mat[np.arange(len(mat))[:, None], column[end]] = kind.jacobian_factor * block[base]
    rows, dim = mat.shape
    scale = kind.jacobian_factor * float(np.linalg.norm([np.linalg.norm(b) for b in blocks]))
    rank_g, shape = min(rows, dim), (len(lo), dim)
    if not clears_cut(mat, tol, shape, scale) and numeric_rank(mat, tol, scale, shape) < rank_g:
        return None
    free = d - numeric_rank(fw.extrusion.directions, tol)
    rank_k = dim - d - free * (free - 1) // 2
    return FlexTestResult(determination=_determination(True, rank_g, rank_k), regular=True,
                          rank_graph=rank_g, rank_complete=rank_k, subspace_dim=dim)


def finite_flex_test(fw: Framework, pin: PinningSpec = EMPTY_PIN, irrep_index: int = 0,
                     samples: int = 20, seed: int = 0, tol: float = RANK_TOL,
                     subspace: AffineSubspace = None) -> FlexTestResult:
    """Certify a finite flex along a symmetric subspace.

    At a regular point of the subspace, a strict rank deficit of the graph
    measurement against the complete decorated graph proves a finite flex.
    The complete graph's rank comes from the trivial motions
    (:func:`_complete_rank`), which needs its kernel to be exactly them:
    ValueError unless the points and hyperplanes affinely span and
    :func:`~extrig.frameworks.complete_kernel_check` passes.  Pass
    ``subspace`` to override the isotypic component (e.g. the uniform
    velocity subspace of a copy-permutation action); for a point-hyperplane
    framework it must lie in the parallel-respecting directions
    ``MeasurementMap.wg_basis`` (else ValueError), since the measurement
    map has no parallel rows.

    Without ``subspace``, at the default ``tol``, on irreducible 0 of an
    unpinned bar-joint extrusion whose directions are all active, the ranks
    are read off the copy-0 points (:func:`_base_flex_test`); below the rank
    bound the orbit-sampled path decides, as on every other call.  A coarser
    ``tol`` takes the orbit-sampled path: there its cut of rank [T S] on the
    coordinate count can give a complete graph's rank other than the one
    the directions' rank gives.
    """
    if not affine_span_check(fw, tol):
        raise ValueError("points and hyperplanes do not affinely span the ambient space")
    if not complete_kernel_check(fw, tol):
        raise ValueError("the complete decorated graph has motions beyond the trivial ones")
    if subspace is None and irrep_index == 0 and tol == RANK_TOL:
        result = _base_flex_test(fw, tol, pin)
        if result is not None:
            return result
    sub = subspace
    if sub is None:
        sub = symmetric_subspace(fw, pin, irrep_index, tol)
    mm = measurement_map(fw, pin)
    if (subspace is not None and not fw.is_bar_joint()
            and projection_residual(sub.basis, mm.wg_basis) > CONTAINMENT_TOL * np.sqrt(sub.dim)):
        raise ValueError("subspace leaves the directions that keep parallel classes parallel")
    rank_g, regular = _regularity(mm, sub, samples, seed, tol)
    rank_k = _complete_rank(fw, pin, sub, tol)
    return FlexTestResult(determination=_determination(regular, rank_g, rank_k), regular=regular,
                          rank_graph=rank_g, rank_complete=rank_k, subspace_dim=sub.dim)


@dataclass
class LinearPushResult:
    determination: str
    subspace: AffineSubspace
    iterations: int
    trace: list          # (sample rank, subspace dim) per iteration
    seed: int
    reason: str = ""


def linear_push(fw: Framework, pin: PinningSpec, seed: int = 0, max_iter: int = None,
                tol: float = RANK_TOL) -> LinearPushResult:
    """Grow an affine subspace from the single flex of a minimally pinned
    framework until the flex is certified linearly detectable or refuted.

    Each iteration samples a seeded random point of the current subspace;
    a rank above the base rank refutes detectability, a sample flex
    already inside the subspace certifies it, anything else extends the
    subspace by the sample's unit flex.  Ranks and flexes come from
    :func:`~extrig.linalg.rank_and_kernel_vector`: one triangular factor
    per Jacobian, no singular vectors.  They are taken on the
    parallel-respecting domain, which for point-hyperplane frameworks
    replaces the rigidity matrix's explicit parallel rows; a bar-joint
    framework's domain is every unpinned coordinate, so there no basis of
    it is built or multiplied.
    """
    d = fw.dim
    expected = d * (d + 1) // 2
    mm = measurement_map(fw, pin)
    wg = None if fw.is_bar_joint() else mm.wg_basis   # None: every unpinned coordinate
    base = mm.base_reduced()
    width = mm.index.size if wg is None else wg.shape[1]

    def lift(vecs):
        return vecs if wg is None else wg @ vecs

    def jacobian(reduced):
        jac = mm.jacobian(reduced)
        return jac if wg is None else jac @ wg

    def subspace(basis_w):
        return AffineSubspace(base, lift(basis_w))

    def failed(reason, iterations=0, trace=None, sub=None):
        return LinearPushResult(determination=PRECONDITION_FAILED,
                                subspace=sub if sub is not None
                                else subspace(np.zeros((width, 0))),
                                iterations=iterations, trace=trace or [], seed=seed,
                                reason=reason)

    n_pinned = mm.index.full_size - mm.index.size
    if n_pinned != expected:
        return failed(f"pinning removes {n_pinned} coordinates, expected {expected}")
    if _surviving_trivial_motions(trivial_motion_generators(fw), tol)(~mm.index.keep) != 0:
        return failed("pinned framework retains trivial motions")
    rank_base, flex = rank_and_kernel_vector(jacobian(base), tol)
    if flex is None:
        return failed(f"pinned framework has nullity {width - rank_base}, need exactly 1")

    cap = width if max_iter is None else min(max_iter, width)
    basis = flex[:, None]  # columns in the parallel-respecting coordinates
    rng = np.random.default_rng(seed)
    scale = 1.0 + float(np.linalg.norm(base))
    trace = []
    for it in range(1, cap + 1):
        z = basis @ (rng.uniform(-1.0, 1.0, basis.shape[1]) * scale)
        rank_q, gen = rank_and_kernel_vector(jacobian(base + lift(z)), tol)
        trace.append((rank_q, basis.shape[1]))
        if rank_q > rank_base:
            return LinearPushResult(NOT_LINEARLY_DETECTABLE, subspace(basis), it, trace, seed)
        if rank_q < rank_base:
            return failed(f"sample at iteration {it} has nullity "
                          f"{width - rank_q} > 1, outside the single-flex hypothesis",
                          it, trace, subspace(basis))
        if projection_residual(gen, basis) <= CONTAINMENT_TOL:
            return LinearPushResult(LINEARLY_DETECTABLE, subspace(basis), it, trace, seed)
        extra = gen - basis @ (basis.T @ gen)
        basis = np.column_stack([basis, extra / np.linalg.norm(extra)])
    return failed(f"no determination within {cap} iterations", cap, trace, subspace(basis))
