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
minimally pinned framework.

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
J S and on |J|_F, taken from the nonzeros of every row.

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
from .linalg import (CONTAINMENT_TOL, RANK_TOL, intersect_columns, nullspace, numeric_rank,
                     orthonormal_columns, projection_residual)
from .rigidity import (CoordinateIndex, EMPTY_PIN, PinningSpec, RowLayout, trivial_motion_basis,
                       trivial_motion_dim)
from .symmetry import block_decompose  # noqa: F401  (perfbench traces it under this name)
from .symmetry import build_reps, decompose_character, symmetry_adapted_basis

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

    @property
    def rows(self) -> list:
        return self.layout.rows

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
        return self.layout.matrix(*self._coordinates(reduced), scaled=True)[:, self.index.keep]


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
                row = np.zeros(index.size)
                lab_o, lab_r = (other, c), (rep, c)
                if lab_o in index.pos:
                    row[index.pos[lab_o]] = 1.0
                if lab_r in index.pos:
                    row[index.pos[lab_r]] = -beta
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
    freedoms = decompose_character(reps.external.traces(), reps.elements)
    basis = symmetry_adapted_basis(reps.external, freedoms, tol)[irrep_index].dense()
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


def _regularity(mm: MeasurementMap, sub: AffineSubspace, samples: int, radius: float,
                seed: int, tol: float) -> tuple:
    """(rank of the restricted Jacobian at the configuration, whether no
    seeded sample of the subspace within ``radius`` exceeds it)."""
    if sub.dim == 0:
        return 0, True
    here = mm.base_reduced()
    if radius is None:
        radius = 0.1 * (1.0 + float(np.linalg.norm(here)))
    sampler = _OrbitSampler(mm, sub)
    rank_here = sampler.rank(here, tol)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        q = here + sub.basis @ (rng.uniform(-1.0, 1.0, sub.dim) * radius)
        if sampler.rank(q, tol) > rank_here:
            return rank_here, False
    return rank_here, True


def regular_point_test(mm: MeasurementMap, sub: AffineSubspace, samples: int = 20,
                       radius: float = None, seed: int = 0, tol: float = RANK_TOL) -> bool:
    """True iff the configuration achieves the maximal restricted-Jacobian
    rank among seeded random points of the subspace within ``radius``."""
    return _regularity(mm, sub, samples, radius, seed, tol)[1]


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


def finite_flex_test(fw: Framework, pin: PinningSpec = EMPTY_PIN, irrep_index: int = 0,
                     samples: int = 20, seed: int = 0, radius: float = None,
                     tol: float = RANK_TOL, subspace: AffineSubspace = None) -> FlexTestResult:
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
    """
    if not affine_span_check(fw, tol):
        raise ValueError("points and hyperplanes do not affinely span the ambient space")
    if not complete_kernel_check(fw, tol):
        raise ValueError("the complete decorated graph has motions beyond the trivial ones")
    sub = subspace
    if sub is None:
        sub = symmetric_subspace(fw, pin, irrep_index, tol)
    mm = measurement_map(fw, pin)
    if (subspace is not None and not fw.is_bar_joint()
            and projection_residual(sub.basis, mm.wg_basis) > CONTAINMENT_TOL * np.sqrt(sub.dim)):
        raise ValueError("subspace leaves the directions that keep parallel classes parallel")
    rank_g, regular = _regularity(mm, sub, samples, radius, seed, tol)
    rank_k = _complete_rank(fw, pin, sub, tol)
    if not regular:
        det = NOT_REGULAR
    elif rank_g < rank_k:
        det = FINITE_FLEX_CERTIFIED
    else:
        det = NO_SYMMETRIC_FLEX
    return FlexTestResult(determination=det, regular=regular, rank_graph=rank_g,
                          rank_complete=rank_k, subspace_dim=sub.dim)


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
    a rank above the base rank refutes detectability, a sample nullspace
    already inside the subspace certifies it, anything else extends the
    subspace by the sample's unit flex.  All ranks and nullspaces are taken
    on the parallel-respecting domain, which for point-hyperplane
    frameworks replaces the rigidity matrix's explicit parallel rows.
    """
    d = fw.dim
    expected = d * (d + 1) // 2
    mm = measurement_map(fw, pin)
    wg = mm.wg_basis
    base = mm.base_reduced()

    def subspace(basis_w):
        return AffineSubspace(base, wg @ basis_w)

    def failed(reason, iterations=0, trace=None, sub=None):
        return LinearPushResult(determination=PRECONDITION_FAILED,
                                subspace=sub if sub is not None
                                else subspace(np.zeros((wg.shape[1], 0))),
                                iterations=iterations, trace=trace or [], seed=seed,
                                reason=reason)

    n_pinned = mm.index.full_size - mm.index.size
    if n_pinned != expected:
        return failed(f"pinning removes {n_pinned} coordinates, expected {expected}")
    if trivial_motion_dim(fw, pin, tol) != 0:
        return failed("pinned framework retains trivial motions")
    jac = mm.jacobian(base) @ wg
    kern = nullspace(jac, tol)
    rank_base = jac.shape[1] - kern.shape[1]
    if kern.shape[1] != 1:
        return failed(f"pinned framework has nullity {kern.shape[1]}, need exactly 1")

    cap = wg.shape[1] if max_iter is None else min(max_iter, wg.shape[1])
    basis = kern  # columns in the parallel-respecting coordinates
    rng = np.random.default_rng(seed)
    scale = 1.0 + float(np.linalg.norm(base))
    trace = []
    for it in range(1, cap + 1):
        z = basis @ (rng.uniform(-1.0, 1.0, basis.shape[1]) * scale)
        jq = mm.jacobian(base + wg @ z) @ wg
        kern_q = nullspace(jq, tol)
        rank_q = jq.shape[1] - kern_q.shape[1]
        trace.append((rank_q, basis.shape[1]))
        if rank_q > rank_base:
            return LinearPushResult(NOT_LINEARLY_DETECTABLE, subspace(basis), it, trace, seed)
        if rank_q < rank_base:
            return failed(f"sample at iteration {it} has nullity "
                          f"{wg.shape[1] - rank_q} > 1, outside the single-flex hypothesis",
                          it, trace, subspace(basis))
        gen = kern_q[:, 0]
        if projection_residual(gen, basis) <= CONTAINMENT_TOL:
            return LinearPushResult(LINEARLY_DETECTABLE, subspace(basis), it, trace, seed)
        extra = gen - basis @ (basis.T @ gen)
        basis = np.column_stack([basis, extra / np.linalg.norm(extra)])
    return failed(f"no determination within {cap} iterations", cap, trace, subspace(basis))
