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
motions instead.  None is a code path of the package.
"""
import numpy as np

from extrig.finiteflex import MeasurementMap, _OrbitSampler
from extrig.frameworks import Configuration, Framework
from extrig.graphs import complete_decorated
from extrig.linalg import RANK_TOL, numeric_rank
from extrig.rigidity import EMPTY_PIN, CoordinateIndex, RowLayout, trivial_motion_dim
from extrig.symmetry import block_decompose


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
