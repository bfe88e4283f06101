"""Dense rank / nullspace helpers with an explicit tolerance contract.

Every rank decision is made by :func:`_rank` on the singular values of
one SVD: a singular value counts iff it exceeds ``tol * max(shape) *
sigma_max``.  The default ``tol`` can be overridden per call and is
surfaced on the CLI (``--tol``, ``EXTRIG_TOL``).

Every other tolerance of the package is defined here too, once; none of
them is an option.
"""
from __future__ import annotations

import numpy as np

RANK_TOL = 1e-9
INT_TOL = 1e-9           # character multiplicities and pinned-coordinate invariance
CONTAINMENT_TOL = 1e-8   # relative distance of a vector from an affine subspace
SYMMETRY_TOL = 1e-6      # extrusion-symmetry gate before the block decomposition
MIN_SYMMETRY_TOL = 1e-12  # floor of the tolerance of the reported symmetry check
COINCIDENT_TOL = 1e-12   # distance below which extruded points count as coincident
MAX_MAGNITUDE = 1e100    # largest accepted |number| of a document: squares stay finite


def _rank(sigma, shape, tol: float) -> int:
    """Number of singular values above ``tol * max(shape) * sigma_max``."""
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > tol * max(shape) * sigma[0]))


def numeric_rank(mat, tol: float = RANK_TOL) -> int:
    """Numerical rank of a dense matrix."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return 0
    return _rank(np.linalg.svd(mat, compute_uv=False), mat.shape, tol)


def kernels(mat, tol: float = RANK_TOL):
    """Orthonormal (right, left) nullspace bases, (n, n - rank) and (m, m - rank), from one SVD."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return np.eye(mat.shape[1]), np.eye(mat.shape[0])
    u, sigma, vt = np.linalg.svd(mat)
    rank = _rank(sigma, mat.shape, tol)
    return vt[rank:].T, u[:, rank:]


def nullspace(mat, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the (right) nullspace, columns of shape (n, nullity)."""
    return kernels(mat, tol)[0]


def orthonormal_columns(mat, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis for the column space of ``mat`` (rank-trimmed SVD)."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return np.zeros((mat.shape[0], 0))
    u, sigma, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, :_rank(sigma, mat.shape, tol)]


def projection_residual(vec, basis) -> float:
    """Norm of the component of ``vec`` outside span(basis columns)."""
    vec = np.asarray(vec, dtype=float)
    if basis.shape[1] == 0:
        return float(np.linalg.norm(vec))
    return float(np.linalg.norm(vec - basis @ (basis.T @ vec)))


def intersect_columns(u_mat, v_mat, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of span(u_mat) intersected with span(v_mat)."""
    u_mat = np.atleast_2d(np.asarray(u_mat, dtype=float))
    v_mat = np.atleast_2d(np.asarray(v_mat, dtype=float))
    if u_mat.shape[1] == 0 or v_mat.shape[1] == 0:
        return np.zeros((u_mat.shape[0], 0))
    stacked = np.hstack([u_mat, -v_mat])
    kern = nullspace(stacked, tol)
    if kern.shape[1] == 0:
        return np.zeros((u_mat.shape[0], 0))
    return orthonormal_columns(u_mat @ kern[: u_mat.shape[1]], tol)
