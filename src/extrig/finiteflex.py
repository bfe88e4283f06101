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
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .frameworks import Configuration, Framework, affine_span_check
from .graphs import complete_decorated
from .linalg import (CONTAINMENT_TOL, RANK_TOL, intersect_columns, nullspace, numeric_rank,
                     orthonormal_columns, projection_residual)
from .rigidity import CoordinateIndex, EMPTY_PIN, PinningSpec, RowLayout, trivial_motion_basis
from .symmetry import block_decompose

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

    @property
    def n_coords(self) -> int:
        return self.index.size

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

    def parallel_residual(self, reduced) -> float:
        """How far the configuration strays from keeping class normals parallel."""
        _, hyp = self._coordinates(reduced)
        graph = self.fw.graph
        worst = 0.0
        for cls in graph.parallel_classes:
            if len(cls) < 2:
                continue
            normals = hyp[[graph.position[w] - len(graph.points) for w in cls], :-1]
            norms = np.linalg.norm(normals, axis=1)
            units = normals / norms[:, None]
            units *= np.sign(units @ units[0])[:, None]
            worst = max(worst, float(np.abs(units - units[0]).max()))
        return worst


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


def measurement_map(fw: Framework, pin: PinningSpec = EMPTY_PIN,
                    complete: bool = False) -> MeasurementMap:
    graph = complete_decorated(fw.graph) if complete else fw.graph
    index = CoordinateIndex(fw, pin)
    return MeasurementMap(fw=fw, pin=pin, index=index,
                          layout=RowLayout(graph, fw.dim, pin, include_parallel=False),
                          base_full=index.full_vector())


@dataclass(frozen=True)
class AffineSubspace:
    """base + span(orthonormal basis columns), in pinned coordinates."""

    base: np.ndarray
    basis: np.ndarray

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
    """
    dec = block_decompose(fw, pin, tol)
    index = dec.reps.index
    basis = dec.external_bases[irrep_index].dense()
    if not fw.is_bar_joint():
        wg = parallel_respecting_basis(fw, index, tol)
        if wg.shape[1] < index.size:
            basis = intersect_columns(basis, wg, tol)
    return AffineSubspace(base=index.reduce(index.full_vector()), basis=basis)


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


def framework_at(fw: Framework, index: CoordinateIndex, reduced) -> Framework:
    """Framework with the same graph, pinning values, and extrusion spec, at
    new values of the unpinned coordinates."""
    pts, hyp = index.split(index.expand(np.asarray(reduced, dtype=float)))
    return Framework(fw.graph, Configuration(fw.dim, pts, hyp), fw.extrusion)


def block_rank_at(fw: Framework, pin: PinningSpec, irrep_index: int, reduced,
                  tol: float = RANK_TOL) -> int:
    """Rank of one diagonal block of the rigidity matrix re-evaluated at a
    pushed configuration.

    A push along the fully-symmetric component keeps the extrusion symmetry,
    so the block structure survives and regularity of that component can be
    probed on the block alone; this agrees with the restricted measurement
    Jacobian rank at the same point.
    """
    moved = framework_at(fw, CoordinateIndex(fw, pin), reduced)
    return numeric_rank(block_decompose(moved, pin, tol).blocks[irrep_index], tol)


def regular_point_test(mm: MeasurementMap, sub: AffineSubspace, samples: int = 20,
                       radius: float = None, seed: int = 0, tol: float = RANK_TOL) -> bool:
    """True iff the configuration achieves the maximal restricted-Jacobian
    rank among seeded random points of the subspace within ``radius``."""
    if sub.dim == 0:
        return True
    here = mm.base_reduced()
    if radius is None:
        radius = 0.1 * (1.0 + float(np.linalg.norm(here)))
    rank_here = numeric_rank(mm.jacobian(here) @ sub.basis, tol)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        q = here + sub.basis @ (rng.uniform(-1.0, 1.0, sub.dim) * radius)
        if numeric_rank(mm.jacobian(q) @ sub.basis, tol) > rank_here:
            return False
    return True


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
    Pass ``subspace`` to override the isotypic component (e.g. the uniform
    velocity subspace of a copy-permutation action).
    """
    if not affine_span_check(fw, tol):
        raise ValueError("points and hyperplanes do not affinely span the ambient space")
    sub = subspace
    if sub is None:
        sub = symmetric_subspace(fw, pin, irrep_index, tol)
    mm_g = measurement_map(fw, pin)
    mm_k = measurement_map(fw, pin, complete=True)
    rank_g = numeric_rank(mm_g.jacobian(mm_g.base_reduced()) @ sub.basis, tol)
    rank_k = numeric_rank(mm_k.jacobian(mm_k.base_reduced()) @ sub.basis, tol)
    regular = regular_point_test(mm_g, sub, samples=samples, radius=radius, seed=seed, tol=tol)
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
    if trivial_motion_basis(fw, pin, tol).shape[1] != 0:
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
