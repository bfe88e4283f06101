"""Test-only references for finite-flex sampling.

:func:`dense_regularity` samples the rank of the dense restricted Jacobian
J(q) S, all m rows, at the configuration and at the same seeded points as
:func:`extrig.finiteflex._regularity`, which reads one row per orbit and must
agree with it.  :func:`block_rank_at` reruns the block decomposition at a
moved configuration, the block-0 reference for the fully-symmetric
component.  Neither is a code path of the package.
"""
import numpy as np

from extrig.finiteflex import _product_rank
from extrig.frameworks import Configuration, Framework
from extrig.linalg import RANK_TOL, numeric_rank
from extrig.rigidity import CoordinateIndex
from extrig.symmetry import block_decompose


def dense_regularity(mm, sub, samples, radius, seed, tol):
    """(rank of J S at the configuration, whether no seeded sample exceeds it),
    each rank from the dense m x n Jacobian times S, cut against |J|_F."""
    if sub.dim == 0:
        return 0, True
    here = mm.base_reduced()
    if radius is None:
        radius = 0.1 * (1.0 + float(np.linalg.norm(here)))
    rank_here = _product_rank(mm.jacobian(here), sub.basis, tol)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        q = here + sub.basis @ (rng.uniform(-1.0, 1.0, sub.dim) * radius)
        if _product_rank(mm.jacobian(q), sub.basis, tol) > rank_here:
            return rank_here, False
    return rank_here, True


def framework_at(fw, index, reduced):
    """Framework with the same graph, pinning values, and extrusion spec, at
    new values of the unpinned coordinates."""
    pts, hyp = index.split(index.expand(np.asarray(reduced, dtype=float)))
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
    return numeric_rank(block_decompose(moved, pin, tol).blocks[irrep_index], tol)
