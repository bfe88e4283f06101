"""Dense rank / nullspace helpers with an explicit tolerance contract.

Every rank decision is made by :func:`_rank` on the singular values of
one SVD: a singular value counts iff it exceeds ``tol * max(shape) *
scale``, where ``shape`` is that of the matrix the caller passed and
``scale`` is its largest singular value unless the caller names a
reference scale (a product J S with orthonormal S is cut against |J|_F,
so that a product which is round-off has rank 0).  The default ``tol``
can be overridden per call and is surfaced on the CLI (``--tol``,
``EXTRIG_TOL``).

The one other decision, :func:`full_column_rank`, only ever says "full
column rank", and only where :func:`_rank` would: given a table of rows,
each on one group of columns, it bounds the least singular value of any
matrix holding them from below by their block-diagonal form, and certifies
when the bound exceeds ``CERTIFICATE_SAFETY`` (4) times ``max(tol, eps) *
max(shape) * norm``, which is above the cut for every scale up to ``norm``
(the caller's |matrix|_F).  Whatever it does not certify goes to the SVD.

:func:`numeric_rank` computes singular values only.  For a matrix with
n < m < 11n/6 (after transposing a wide one) and at least
``_QR_MIN_COLUMNS`` columns it first replaces the matrix by the n x n
triangular factor of its QR decomposition, which has the same singular
values (Chan, "An improved algorithm for computing the singular value
decomposition", ACM TOMS 1982).  Above 11n/6 LAPACK's dgesdd makes that
reduction by itself; below the column floor the extra factorisation costs
more than it saves.  The cut is still taken only in :func:`_rank`, on the
original shape, or on the shape of the matrix the caller's compressed one
stands for.

:func:`rank_and_kernel_vector` keeps that contract: its rank is the same
cut, on the matrix's shape, of the singular values of the triangular
factor R of one QR decomposition.  Only when the nullity is exactly 1 does
it return a unit kernel vector, found without singular vectors by inverse
iteration on R^T R = J^T J from a seeded start: three triangular solves
(Ipsen, "Computing an eigenvector with inverse iteration", SIAM Review
1997), each by block substitution (Higham 2002, ch. 13).  Its error is
the SVD's, of order eps sigma_1 / sigma_{n-1}.

Every other tolerance of the package is defined here too, once; none of
them is an option.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

RANK_TOL = 1e-9
INT_TOL = 1e-9           # character multiplicities and pinned-coordinate invariance
CONTAINMENT_TOL = 1e-8   # relative distance of a vector from an affine subspace
SYMMETRY_TOL = 1e-6      # extrusion-symmetry gate before the block decomposition
MIN_SYMMETRY_TOL = 1e-12  # floor of the tolerance of the reported symmetry check
COINCIDENT_TOL = 1e-12   # distance below which extruded points count as coincident
MAX_MAGNITUDE = 1e100    # largest accepted |number| of a document: squares stay finite

# Fewest columns for which numeric_rank QR-reduces a matrix in the band
# n < m < 11n/6.  Measured on extruded rigidity matrices, one OpenBLAS
# thread on a 2-vCPU Intel Xeon with 4 MiB L2: QR plus values-only SVD
# took 1.05-2.1x the time of the plain values-only SVD at n <= 192,
# about 1x at n = 224-320 and 0.74-0.88x at n >= 384.
_QR_MIN_COLUMNS = 256

# Multiple of the cut bound that full_column_rank's lower bound on the least
# singular value must exceed.  The SVD that would decide a certified block
# errs by at most p * eps * sigma_1 with p a small multiple of the block's
# size, so a margin of 3 * max(shape) * eps * |mat|_F above the cut covers it.
CERTIFICATE_SAFETY = 4.0

# Largest diagonal block _triangular_solve hands to np.linalg.solve, an
# O(n^3) LU blind to the zeros.  The three solves of rank_and_kernel_vector
# on the R of a random 1.24n x n matrix, same host: equal at n <= 64, then
# 96 -> 83 us at n = 72, 252 -> 157 at 117 and 476 -> 207 at 157.
_SOLVE_BLOCK = 64


def _rank(sigma, shape, tol: float, scale: float = None) -> int:
    """Number of singular values above ``tol * max(shape) * scale``, where
    ``scale`` defaults to the largest singular value."""
    if sigma.size == 0:
        return 0
    return int(np.sum(sigma > tol * max(shape) * (sigma[0] if scale is None else scale)))


def full_column_rank(table, tol: float, shape: tuple, norm: float) -> np.ndarray:
    """Per subset S of the t labels, in binary order (label j is bit j of
    the subset's index), True when every matrix whose rows include, for each
    group g of ``width`` consecutive columns, the rows ``table[g, j]`` for j
    in S at g's columns is certain to have full column rank at
    :func:`_rank`'s cut against ``shape`` and any scale up to ``norm``.

    ``table`` is (groups, t, width) with t >= width, a zero row where a
    group lacks a label.  Group g's rows in S, T_g^S, make the matrix hold
    the block-diagonal diag_g T_g^S up to row and column order, so its least
    singular value is at least min_g sigma_width(T_g^S), which is at least
    sigma_width(T^S) - max_g |T_g - T|_F for the mean T of the T_g (Weyl).
    One stacked values-only SVD gives every sigma_width(T^S); the rank is
    certain when that bound exceeds ``CERTIFICATE_SAFETY`` times max(tol,
    eps) * max(shape) * ``norm``, an upper bound on the cut that needs no SVD
    of the matrix.  The margin covers the round-off of this bound and of the
    SVD that would decide the matrix's rank (a backward error of a small
    multiple of eps times the largest singular value), and the eps floor
    keeps a tolerance below round-off from certifying on noise.  A subset of
    fewer than ``width`` labels certifies nothing."""
    t, width = table.shape[1:]
    masks = np.arange(2 ** t)[:, None] >> np.arange(t) & 1
    mean = table.sum(axis=0) / len(table)
    spread = np.sqrt(np.max(((table - mean) ** 2).sum(axis=(1, 2))))
    sigma = np.linalg.svd(mean * masks[:, :, None], compute_uv=False)[:, width - 1]
    cut = max(tol, np.finfo(float).eps) * max(shape)
    return (masks.sum(axis=1) >= width) & (sigma - spread > CERTIFICATE_SAFETY * cut * norm)


def _singular_values(mat) -> np.ndarray:
    """Singular values of a non-empty 2-d array, largest first (values-only SVD)."""
    tall = mat.T if mat.shape[1] > mat.shape[0] else mat
    m, n = tall.shape
    if _QR_MIN_COLUMNS <= n < m < 11 * n / 6:
        tall = np.linalg.qr(tall, mode="r")
    return np.linalg.svd(tall, compute_uv=False)


def numeric_rank(mat, tol: float = RANK_TOL, scale: float = None, shape: tuple = None) -> int:
    """Numerical rank of a dense matrix, from its singular values alone.

    ``scale`` is the reference of the cut (see :func:`_rank`).  ``shape``
    replaces the matrix's own shape in the cut when ``mat`` stands for a
    larger matrix with the same singular values (rows compressed by orbit),
    or when ``mat`` is cut as a matrix it was taken from."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return 0
    return _rank(_singular_values(mat), mat.shape if shape is None else shape, tol, scale)


def rank_and_scale(mat, tol: float = RANK_TOL, shape: tuple = None) -> tuple:
    """(numerical rank, largest singular value) of a dense matrix, from one
    values-only SVD; ``shape`` is that of :func:`numeric_rank`.  Passing the
    same scale and shape to :func:`numeric_rank` cuts a set of ``mat``'s rows
    at the same threshold as ``mat``; a row subset's singular values never
    exceed ``mat``'s (interlacing), so its rank is then never above ``mat``'s."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return 0, 0.0
    sigma = _singular_values(mat)
    return _rank(sigma, mat.shape if shape is None else shape, tol), float(sigma[0])


def kernels(mat, tol: float = RANK_TOL, rank: int = None):
    """Orthonormal (right, left) nullspace bases, (n, n - rank) and (m, m - rank), from one SVD.

    ``rank``, when given, is a rank already decided on ``mat`` and replaces the cut."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return np.eye(mat.shape[1]), np.eye(mat.shape[0])
    u, sigma, vt = np.linalg.svd(mat)
    if rank is None:
        rank = _rank(sigma, mat.shape, tol)
    return vt[rank:].T, u[:, rank:]


def nullspace(mat, tol: float = RANK_TOL, scale: float = None, shape: tuple = None) -> np.ndarray:
    """Orthonormal basis of the (right) nullspace, columns of shape (n, nullity).

    ``scale`` and ``shape`` set the cut as in :func:`numeric_rank`; a ``scale``
    taken from another SVD is raised to this one's largest singular value
    when rounding left it below.  The left factor is full only for a wide
    matrix, where it is the small one: either way the SVD returns the
    complete n x n right factor."""
    return _kernel(mat, tol, scale, shape)[0]


def kernel_and_scale(mat, tol: float = RANK_TOL, shape: tuple = None) -> tuple:
    """(:func:`nullspace`, largest singular value) from the one SVD."""
    return _kernel(mat, tol, None, shape)


def _kernel(mat, tol, scale, shape) -> tuple:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return np.eye(mat.shape[1]), 0.0
    m, n = mat.shape
    _, sigma, vt = np.linalg.svd(mat, full_matrices=m < n)
    scale = None if scale is None else max(scale, sigma[0])
    return vt[_rank(sigma, mat.shape if shape is None else shape, tol, scale):].T, sigma[0]


@lru_cache(maxsize=None)
def _start(n: int) -> np.ndarray:
    """The seeded start of inverse iteration on n columns (read-only)."""
    vec = np.random.default_rng(n).standard_normal(n)
    vec.flags.writeable = False
    return vec


def rank_and_kernel_vector(mat, tol: float = RANK_TOL) -> tuple:
    """(numerical rank, unit kernel vector or None) of a dense matrix; the
    vector only when the nullity is exactly 1.

    The rank is :func:`numeric_rank`'s cut, on the matrix's shape, of the
    singular values of the triangular factor R of one QR decomposition.
    The vector is R^-1 R^-T R^-1 s for a seeded s, normalised: one step of
    inverse iteration on R^T R = J^T J from the start R^-1 s, three
    triangular solves in all (:func:`_triangular_solve`).  Against the
    singular vectors V of J, R^-1 s weights v_i by 1 / sigma_i and the step
    by 1 / sigma_i^2 more, so the start's error shrinks by (sigma_n /
    sigma_{n-1})^3 and what is left is the solves' round-off, eps sigma_1 /
    sigma_{n-1} as for the SVD.  A wide
    matrix is padded with zero rows, and an exactly zero pivot is replaced
    by eps * max|R|."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    n = mat.shape[1]
    if mat.size == 0:
        return 0, (np.ones(1) if n == 1 else None)
    r = np.linalg.qr(mat, mode="r")
    rank = _rank(np.linalg.svd(r, compute_uv=False), mat.shape, tol)
    if rank != n - 1:
        return rank, None
    if r.shape[0] < n:
        r = np.vstack([r, np.zeros((n - r.shape[0], n))])
    r /= np.abs(r).max() or 1.0      # max|R| = 1: the solves neither overflow nor underflow
    diag = np.diagonal(r)
    if not diag.all():
        r += np.diag(np.where(diag == 0, np.finfo(float).eps, 0.0))
    vec = _triangular_solve(r, _triangular_solve(r.T, _triangular_solve(r, _start(n), False), True),
                            False)
    return rank, vec / np.linalg.norm(vec)


def _triangular_solve(tri, rhs, lower: bool) -> np.ndarray:
    """tri^-1 rhs by substitution on halves, down to diagonal blocks of at
    most ``_SOLVE_BLOCK`` rows, each one ``np.linalg.solve``."""
    if len(rhs) <= _SOLVE_BLOCK:
        return np.linalg.solve(tri, rhs)
    halves = slice(0, len(rhs) // 2), slice(len(rhs) // 2, None)
    a, b = halves if lower else halves[::-1]   # a is solved first
    out = np.empty(len(rhs))
    out[a] = _triangular_solve(tri[a, a], rhs[a], lower)
    out[b] = _triangular_solve(tri[b, b], rhs[b] - tri[b, a] @ out[a], lower)
    return out


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
