"""Test-only references for finite-flex sampling.

:func:`dense_regularity` samples the rank of the dense restricted Jacobian
J(q) S, all m rows, at the configuration and at the same seeded points as
:func:`extrig.finiteflex._regularity`, which reads one row per orbit and must
agree with it.  :func:`sampled_regularity` ranks every seeded sample on the
package's orbit rows, even where the configuration's rank is already the
largest those rows can have, at which point the package stops.
:func:`block_rank_at` reruns the block decomposition at a
moved configuration, the block-0 reference for the fully-symmetric
component.  :func:`complete_graph_oracle` ranks the complete decorated
graph's measurement Jacobian, which the package reads off the trivial
motions instead.  :func:`reference_linear_push` is the linear push on
kernels from full SVDs, which the package replaced by inverse iteration on
one triangular factor per sample.  :func:`layout_base_flex_test` assembles
the copy-0 certificate of :func:`extrig.finiteflex._base_flex_test` from the
graph's whole :class:`~extrig.rigidity.RowLayout`: every row's nonzeros,
masked to the base rows, after a gate that builds the full symmetry report.
None is a code path of the package.
"""
import numpy as np

from extrig.finiteflex import (LINEARLY_DETECTABLE, NOT_LINEARLY_DETECTABLE, PRECONDITION_FAILED,
                               AffineSubspace, FlexTestResult, LinearPushResult, MeasurementMap,
                               _OrbitSampler, _determination, measurement_map)
from extrig.frameworks import Configuration, Framework, verify_extrusion_symmetry
from extrig.graphs import complete_decorated
from extrig.linalg import (CONTAINMENT_TOL, RANK_TOL, SYMMETRY_TOL, nullspace, numeric_rank,
                           projection_residual)
from extrig.rigidity import EMPTY_PIN, CoordinateIndex, RowLayout, trivial_motion_dim
from extrig.symmetry import SymmetryPreconditionError, block_decompose


def _product_rank(jac, basis, tol: float) -> int:
    """Rank of J S for S with orthonormal columns, cut against |J|_F rather
    than the largest singular value of J S, so that a product which is
    round-off (S inside the kernel of J) has rank 0."""
    return numeric_rank(jac @ basis, tol, scale=float(np.linalg.norm(jac)))


def dense_regularity(mm, sub, samples, seed, tol):
    """(rank of J S at the configuration, whether no seeded sample exceeds it),
    each rank from the dense m x n Jacobian times S, cut against |J|_F."""
    if sub.dim == 0:
        return 0, True
    here = mm.base_reduced()
    radius = 0.1 * (1.0 + float(np.linalg.norm(here)))
    rank_here = _product_rank(mm.jacobian(here), sub.basis, tol)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        q = here + sub.basis @ (rng.uniform(-1.0, 1.0, sub.dim) * radius)
        if _product_rank(mm.jacobian(q), sub.basis, tol) > rank_here:
            return rank_here, False
    return rank_here, True


def sampled_regularity(mm, sub, samples, seed, tol):
    """(rank of J S at the configuration, whether no seeded sample exceeds it),
    each rank from :class:`extrig.finiteflex._OrbitSampler`, all samples drawn."""
    if sub.dim == 0:
        return 0, True
    here = mm.base_reduced()
    radius = 0.1 * (1.0 + float(np.linalg.norm(here)))
    sampler = _OrbitSampler(mm, sub)
    rank_here = sampler.rank(here, tol)
    rng = np.random.default_rng(seed)
    exceeded = False
    for _ in range(samples):
        q = here + sub.basis @ (rng.uniform(-1.0, 1.0, sub.dim) * radius)
        exceeded |= sampler.rank(q, tol) > rank_here
    return rank_here, not exceeded


def framework_at(fw, index, reduced):
    """Framework with the same graph, pinning values, and extrusion spec, at
    new values of the unpinned coordinates."""
    full = index.full_vector()
    full[index.keep] = reduced
    pts, hyp = index.split(full)
    return Framework(fw.graph, Configuration(fw.dim, pts, hyp), fw.extrusion)


def block_rank_at(fw, pin, irrep_index, reduced, tol=RANK_TOL):
    """Rank of one diagonal block of the rigidity matrix re-evaluated at a
    pushed configuration.

    A push along the fully-symmetric component keeps the extrusion symmetry,
    so the block structure survives and the rank of that component can be
    read on the block alone; it agrees with the restricted measurement
    Jacobian rank at the same point.
    """
    moved = framework_at(fw, CoordinateIndex(fw, pin), reduced)
    return numeric_rank(block_decompose(moved, pin).blocks[irrep_index], tol)


def restricted_rank_oracle(jac, basis):
    """Rank of J S for orthonormal S, from a plain SVD of the product.

    The cut is relative to the Jacobian's own largest singular value, not the
    product's: a subspace inside the kernel of J (trivial motions, or motions
    the graph's edges do not see) makes the product zero up to round-off,
    which a cut relative to the product's largest singular value would count
    as rank.
    """
    prod = jac @ basis
    if prod.size == 0:
        return 0
    sigma = np.linalg.svd(prod, compute_uv=False)
    return int(np.sum(sigma > RANK_TOL * max(prod.shape) * np.linalg.norm(jac, 2)))


def complete_measurement_map(fw, pin):
    """The measurement map of the complete decorated graph on the framework's
    vertices, parallel classes kept in the domain."""
    index = CoordinateIndex(fw, pin)
    layout = RowLayout(complete_decorated(fw.graph), fw.dim, pin, include_parallel=False)
    return MeasurementMap(fw=fw, pin=pin, index=index, layout=layout,
                          base_full=index.full_vector())


def complete_graph_oracle(fw, pin, sub):
    """Rank of the complete decorated graph's measurement Jacobian restricted
    to the subspace, at the configuration."""
    mm = complete_measurement_map(fw, pin)
    return restricted_rank_oracle(mm.jacobian(mm.base_reduced()), sub.basis)


def complete_kernel_excess(fw):
    """Dimension of the complete decorated graph's infinitesimal motions that
    keep parallel classes parallel, beyond the trivial motions."""
    mm = complete_measurement_map(fw, EMPTY_PIN)
    jac = mm.jacobian(mm.base_reduced()) @ mm.wg_basis
    return jac.shape[1] - numeric_rank(jac) - trivial_motion_dim(fw)


def reference_linear_push(fw, pin, seed=0, max_iter=None, tol=RANK_TOL):
    """The linear push with every rank and flex read off a full SVD
    (:func:`extrig.linalg.nullspace`) of the Jacobian times the
    parallel-respecting basis, the identity for a bar-joint framework."""
    d = fw.dim
    mm = measurement_map(fw, pin)
    wg = mm.wg_basis
    base = mm.base_reduced()

    def subspace(basis_w):
        return AffineSubspace(base, wg @ basis_w)

    def failed(reason, iterations=0, trace=None, sub=None):
        return LinearPushResult(PRECONDITION_FAILED,
                                sub if sub is not None else subspace(np.zeros((wg.shape[1], 0))),
                                iterations, trace or [], seed, reason)

    n_pinned = mm.index.full_size - mm.index.size
    if n_pinned != d * (d + 1) // 2:
        return failed(f"pinning removes {n_pinned} coordinates, expected {d * (d + 1) // 2}")
    if trivial_motion_dim(fw, pin, tol) != 0:
        return failed("pinned framework retains trivial motions")
    jac = mm.jacobian(base) @ wg
    kern = nullspace(jac, tol)
    rank_base = jac.shape[1] - kern.shape[1]
    if kern.shape[1] != 1:
        return failed(f"pinned framework has nullity {kern.shape[1]}, need exactly 1")
    cap = wg.shape[1] if max_iter is None else min(max_iter, wg.shape[1])
    basis = kern
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


def layout_copy_zero_rows(fw, pin=EMPTY_PIN):
    """``(layout, rows, copy)``: the copy-0 entry read off the graph's
    :class:`RowLayout`.  The same eligibility and hand-overs as
    :func:`extrig.symmetry.copy_zero_rows`, then the gate on the full report
    of :func:`verify_extrusion_symmetry`, then the layout's flip coordinates,
    which raise for an edge joining copies that differ in two directions.
    ``rows`` are the rows from a copy-0 point."""
    spec, graph = fw.extrusion, fw.graph
    if (spec is None or not pin.is_empty() or not fw.is_bar_joint()
            or spec.active != tuple(range(spec.order)) or (graph.steps == 0).any()):
        return None
    t = spec.order
    copy = (graph.steps < 0) @ (1 << np.arange(t - 1, -1, -1))
    start = np.arange(len(copy)) - copy
    lo, hi = graph.edge_ends[0].T
    if ((start[lo] != start[hi]) & (copy[lo] != copy[hi])).any():
        return None
    check = verify_extrusion_symmetry(fw, tol=SYMMETRY_TOL, active_only=True)
    if not check.ok:
        law, where, _ = check.violations[0]
        raise SymmetryPreconditionError(f"framework is not extrusion-symmetric: {law} at {where}")
    layout = RowLayout(graph, fw.dim)
    layout.flip
    return layout, np.flatnonzero(copy[lo] == 0), copy


def layout_base_flex_test(fw, tol=RANK_TOL, pin=EMPTY_PIN):
    """``(result, matrix, scale)`` of the copy-0 certificate from every row's
    nonzeros: the base rows on the copy-0 columns, and |J|_F over all rows.
    ``result`` is None where the package hands over, and the matrix and
    scale are None where it hands over before ranking."""
    found = layout_copy_zero_rows(fw, pin)
    if found is None:
        return None, None, None
    layout, first, copy = found
    d, t = fw.dim, fw.graph.extrusion_order
    m = layout.shape[0]
    base_row = np.zeros(m, dtype=bool)
    base_row[first[layout.flip[first] == t]] = True
    on_base = np.repeat(copy == 0, d)
    row, col, value = layout.nonzeros(fw.config.points, fw.config.hyperplanes, scaled=True)
    kept = base_row[row]
    mat = np.zeros((int(np.count_nonzero(base_row)), int(np.count_nonzero(on_base))))
    mat[(np.cumsum(base_row) - 1)[row[kept]], (np.cumsum(on_base) - 1)[col[kept]]] = value[kept]
    scale = float(np.linalg.norm(value))
    rows, dim = mat.shape
    rank_g = numeric_rank(mat, tol, scale=scale, shape=(m, dim))
    if rank_g < min(rows, dim):
        return None, mat, scale
    free = d - numeric_rank(fw.extrusion.directions, tol)
    rank_k = dim - d - free * (free - 1) // 2
    return FlexTestResult(_determination(True, rank_g, rank_k), True, rank_g, rank_k, dim), mat, scale
