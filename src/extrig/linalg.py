"""Dense rank / nullspace helpers with an explicit tolerance contract.

Every rank decision is made by :func:`_rank` on the singular values of
one SVD: a singular value counts iff it exceeds ``tol * max(shape) *
scale``, where ``shape`` is that of the matrix the caller passed and
``scale`` is its largest singular value unless the caller names a
reference scale (a product J S with orthonormal S is cut against |J|_F,
so that a product which is round-off has rank 0).  The default ``tol``
can be overridden per call and is surfaced on the CLI (``--tol``,
``EXTRIG_TOL``).

Two other decisions only ever say that a least singular value clears the
cut, and only where :func:`_rank` would.  Each certifies when a lower
bound on that value exceeds ``CERTIFICATE_SAFETY`` (4) times ``max(tol,
eps) * max(shape) * norm``, which is above the cut for every scale up to
``norm`` (the caller's |matrix|_F) by more than the SVD's own error;
whatever they do not certify goes to the SVD.  :func:`full_column_rank`,
given a table of rows, each on one group of columns, bounds any matrix
holding them by their block-diagonal form.  :func:`clears_cut` bounds one
matrix: a triangular one by the Frobenius norm of its inverse, solved in
column slices (Higham 2002, ch. 8 and 14), any other by a Cholesky
factorisation of its Gram matrix shifted by the bound squared plus the
round-off of forming and factoring it (Rump, "Verification of positive
definiteness", BIT 2006).

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
factor R of one QR decomposition, scaled to max|R| = 1.  Rank n - 1 takes
no SVD where it is certain: sigma_n <= |r_nn| lies below the least cut,
and :func:`clears_cut` puts sigma_min(R_11), which bounds sigma_{n-1} from
below, over the greatest.  Only when the nullity is exactly 1 does it
return a unit kernel vector, found without singular vectors by inverse
iteration on R^T R = J^T J from a seeded start: three triangular solves
(Ipsen, "Computing an eigenvector with inverse iteration", SIAM Review
1997), each by block substitution (Higham 2002, ch. 13).  Its error is
the SVD's, of order eps sigma_1 / sigma_{n-1}.

Every other tolerance of the package is defined here too, once; none of
them is an option.
"""
from __future__ import annotations

import math
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

# Multiple of the cut bound that a certificate's lower bound on a least
# singular value (full_column_rank, clears_cut) must exceed.  The SVD that
# would decide a certified matrix errs by at most p * eps * sigma_1 with p a
# small multiple of its size, so a margin of 3 * max(shape) * eps * |mat|_F
# above the cut covers it.
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


def clears_cut(mat, tol: float, shape: tuple, norm: float, upper: bool = False) -> bool:
    """True when the least singular value of ``mat``, its min(m, n)-th, is
    certain to exceed ``CERTIFICATE_SAFETY`` times max(tol, eps) *
    max(``shape``) * ``norm``, where ``norm`` bounds |mat|_F.  Then
    :func:`_rank` on an SVD of ``mat`` counts that value at the cut against
    ``shape`` and any scale up to ``norm``: the margin covers the SVD's own
    error, as in :func:`full_column_rank`.  False decides nothing; the caller
    falls back to the SVD.

    An ``upper`` triangular square ``mat`` (k x k) is bounded through its
    inverse, sigma_min >= 1 / |mat^-1|_F.  The inverse X is solved
    ``_SOLVE_BLOCK`` columns of the identity at a time, each against the
    leading rows it reaches (:func:`_triangular_solve`), so that no
    transient exceeds that many columns of ``mat``.  Each column x of X
    solves (mat + E) x = e_j with |E| <= gamma_{k+1} |mat| whatever the
    order of the substitution's sums (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, ch. 8 and 14), so |X - mat^-1|_F <= rho
    |mat^-1|_F and sigma_min >= (1 - rho) / |X|_F, with rho = 2 (k + 1) eps
    |mat|_F |X|_F: twice gamma_{k+1} |mat|_F |X|_F, which also covers the
    rounding of the norms and of a reciprocal pivot.

    Any other ``mat`` is bounded through the Gram matrix G = A A^T of its
    short side A (p x q, p <= q), scaled by a power of two to max|A| in
    [1/2, 1), so that nothing overflows and trace G >= 1/4 (an underflow
    errs by at most 2^-1074 per operation, far inside the round-off term
    below).  After Rump, "Verification of positive definiteness" (BIT 46,
    2006), with u = eps / 2: the computed G~ has |G~ - G| <= gamma_q |A|
    |A|^T, of 2-norm at most gamma_q trace G; subtracting s from the
    diagonal errs by at most u (trace G~ + s); and a floating-point Cholesky
    of the shifted H that runs to completion gives R^T R = H + F with |F| <=
    gamma_{p+1} |R^T| |R|, so |F|_2 <= gamma_{p+1} / (1 - gamma_{p+1}) trace
    H by Cauchy-Schwarz on R's columns.  Hence lambda_min(G) > s (1 - u) - X
    with X = (p + q + 4) u trace G~.  The shift s = level^2 + 2 X, with s
    below trace G~ once the Cholesky succeeds, leaves lambda_min(G) >
    level^2: sigma_min(mat) > level.  A value that is not finite certifies
    nothing."""
    mat = np.asarray(mat, dtype=float)
    eps = np.finfo(float).eps
    level = CERTIFICATE_SAFETY * max(tol, eps) * max(shape) * float(norm)
    if not mat.size or not level < math.inf:
        return False
    if upper:   # sigma_min <= |last pivot|: a small one spares the inverse
        return abs(mat[-1, -1]) > level and _inverse_bound(mat, float(norm)) > level
    short = mat if mat.shape[0] <= mat.shape[1] else mat.T
    top = float(np.abs(short).max())
    if not 0.0 < top < math.inf:
        return False
    exponent = math.frexp(top)[1]
    short = np.ldexp(short, -exponent)
    gram = short @ short.T
    bar = math.ldexp(level, -exponent)
    shift = bar * bar + (sum(short.shape) + 4) * eps * float(gram.trace())   # level^2 + 2 X
    if not shift < math.inf:
        return False
    gram.flat[::len(gram) + 1] -= shift
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _inverse_bound(tri, norm: float) -> float:
    """(1 - rho) / |X|_F of :func:`clears_cut`, a lower bound on the least
    singular value of the upper triangular ``tri`` (``norm`` >= |tri|_F), or
    0.0 where it bounds nothing (a zero pivot, an overflow, rho >= 1)."""
    k, square = len(tri), 0.0
    with np.errstate(all="ignore"):
        try:
            for start in range(0, k, _SOLVE_BLOCK):
                stop = min(start + _SOLVE_BLOCK, k)
                inverse = _triangular_solve(tri[:stop, :stop], np.eye(stop, stop - start, -start),
                                            False)
                square += float(np.vdot(inverse, inverse))
        except np.linalg.LinAlgError:   # an exactly zero pivot: tri is singular
            return 0.0
    size = math.sqrt(square)
    rho = 2 * (k + 1) * np.finfo(float).eps * norm * size
    return (1.0 - rho) / size if rho < 1.0 else 0.0


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
    singular values of the triangular factor R of one QR decomposition,
    scaled to max|R| = 1; no SVD is taken where :func:`_nullity_one`
    certifies rank n - 1.
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
    rows = len(r)
    if rows < n:
        r = np.vstack([r, np.zeros((n - rows, n))])
    r /= np.abs(r).max() or 1.0      # max|R| = 1: the solves neither overflow nor underflow
    if not _nullity_one(r, mat.shape, tol):
        rank = _rank(np.linalg.svd(r[:rows], compute_uv=False), mat.shape, tol)
        if rank != n - 1:
            return rank, None
    diag = np.diagonal(r)
    if not diag.all():
        r += np.diag(np.where(diag == 0, np.finfo(float).eps, 0.0))
    vec = _triangular_solve(r, _triangular_solve(r.T, _triangular_solve(r, _start(n), False), True),
                            False)
    return n - 1, vec / np.linalg.norm(vec)


def _nullity_one(r, shape, tol) -> bool:
    """True when the SVD of the n x n upper triangular ``r``, scaled to
    max|r| = 1 (zero rows padded below a wide one's), is certain to give
    rank n - 1 at :func:`_rank`'s cut against ``shape``.  sigma_n <= |r_nn|
    exactly, so the SVD's sigma_n is at most |r_nn| + max(shape) eps |R|_F,
    which must lie below the least cut, tol max(shape) max|r| (sigma_1 is at
    least any entry), by ``CERTIFICATE_SAFETY``.  Deleting R's last column
    leaves [R_11; 0], so sigma_{n-1} >= sigma_min(R_11) (interlacing), which
    :func:`clears_cut` bounds."""
    norm = math.sqrt(np.vdot(r, r))
    small = CERTIFICATE_SAFETY * (abs(r[-1, -1]) + max(shape) * np.finfo(float).eps * norm)
    return small < tol * max(shape) and clears_cut(r[:-1, :-1], tol, shape, norm, upper=True)


def _triangular_solve(tri, rhs, lower: bool) -> np.ndarray:
    """tri^-1 rhs, for a vector or a matrix ``rhs``, by substitution on
    halves, down to diagonal blocks of at most ``_SOLVE_BLOCK`` rows, each
    one ``np.linalg.solve``."""
    if len(rhs) <= _SOLVE_BLOCK:
        return np.linalg.solve(tri, rhs)
    halves = slice(0, len(rhs) // 2), slice(len(rhs) // 2, None)
    a, b = halves if lower else halves[::-1]   # a is solved first
    out = np.empty(rhs.shape)
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
