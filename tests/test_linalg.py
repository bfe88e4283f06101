import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import extrig.linalg
from extrig.finiteflex import (FINITE_FLEX_CERTIFIED, finite_flex_test, linear_push,
                               measurement_map)
from extrig.fixtures import prism
from extrig.linalg import (_SOLVE_BLOCK, RANK_TOL, _rank, _triangular_solve, clears_cut,
                           full_column_rank, kernel_and_scale, kernels, nullspace, numeric_rank,
                           orthonormal_columns, rank_and_kernel_vector)
from extrig.rigidity import minimal_pinning
from extrusions import flex_certify_frameworks

EPS = np.finfo(float).eps


def low_rank_matrix(draw, m, n):
    """A random m x n matrix of drawn rank r, with nonzero singular values in [0.5, 2] * scale."""
    r = draw(st.integers(0, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = np.linalg.qr(rng.normal(size=(m, m)))[0][:, :r] if m else np.zeros((0, 0))
    v = np.linalg.qr(rng.normal(size=(n, n)))[0][:, :r] if n else np.zeros((0, 0))
    scale = 10.0 ** draw(st.integers(-6, 6))
    return (u * (rng.uniform(0.5, 2.0, r) * scale)) @ v.T, r


@st.composite
def low_rank_matrices(draw):
    return low_rank_matrix(draw, draw(st.integers(0, 9)), draw(st.integers(0, 9)))


@st.composite
def shaped_low_rank_matrices(draw):
    """Low-rank matrices inside the QR band n < m < 11n/6, its transpose, square and very tall."""
    n = draw(st.integers(6, 40))
    band = draw(st.integers(n + 1, -(-11 * n // 6) - 1))
    m, n = draw(st.sampled_from([(band, n), (n, band), (n, n), (5 * n, n)]))
    return low_rank_matrix(draw, m, n)


@settings(max_examples=200, deadline=None)
@given(low_rank_matrices())
@example((np.zeros((0, 0)), 0)).via("empty")
@example((np.zeros((0, 3)), 0)).via("no rows")
@example((np.zeros((4, 0)), 0)).via("no columns")
@example((np.zeros((3, 5)), 0)).via("all zero, wide")
@example((np.zeros((5, 3)), 0)).via("all zero, tall")
def test_rank_decisions_agree(case):
    mat, r = case
    m, n = mat.shape
    right, left = kernels(mat)
    assert right.shape == (n, n - r) and left.shape == (m, m - r)
    assert numeric_rank(mat) == r
    assert orthonormal_columns(mat).shape == (m, r)
    assert np.array_equal(nullspace(mat), right)
    norm = max(np.abs(mat).max(initial=0.0), 1e-300)
    assert np.abs(mat @ right).max(initial=0.0) <= 1e-12 * norm
    assert np.abs(left.T @ mat).max(initial=0.0) <= 1e-12 * norm
    assert np.allclose(right.T @ right, np.eye(n - r), rtol=0, atol=1e-12)
    assert np.allclose(left.T @ left, np.eye(m - r), rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(shaped_low_rank_matrices())
@example((np.zeros((9, 6)), 0)).via("all zero, in the QR band")
@example((np.zeros((6, 9)), 0)).via("all zero, wide")
@example((np.zeros((0, 6)), 0)).via("empty")
def test_values_only_rank_equals_the_full_svd_cut(case):
    # the QR reduction keeps the singular values, and so the decision; the
    # column floor is lowered so that these small matrices take it too
    mat, r = case
    full = _rank(np.linalg.svd(mat, compute_uv=False), mat.shape, RANK_TOL) if mat.size else 0
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(extrig.linalg, "_QR_MIN_COLUMNS", 1)
        assert numeric_rank(mat) == full == r
    assert numeric_rank(mat) == r


def test_qr_reduction_only_inside_the_band(monkeypatch):
    # above 11n/6 LAPACK reduces by itself, below the column floor the extra
    # factorisation costs more than it saves
    shapes = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda mat, mode: shapes.append(mat.shape) or qr(mat, mode))
    rng = np.random.default_rng(5)
    n = extrig.linalg._QR_MIN_COLUMNS
    for shape in ((n, n), (n + 1, n), (469, n), (470, n), (3 * n, n), (n, 300),
                  (61, 60), (60, 100)):
        numeric_rank(rng.normal(size=shape))
    assert n == 256 and shapes == [(n + 1, n), (469, n), (300, n)]


def test_reference_scale_makes_a_round_off_product_rank_zero():
    # J S with S spanning the kernel of J: round-off relative to its own
    # largest singular value, zero relative to |J|_F
    rng = np.random.default_rng(3)
    jac = rng.normal(size=(9, 4)) @ rng.normal(size=(4, 6))
    kern = nullspace(jac)
    prod = jac @ kern
    assert kern.shape[1] == 2 and np.abs(prod).max() > 0.0
    assert numeric_rank(prod, scale=np.linalg.norm(jac)) == 0
    assert numeric_rank(jac @ np.eye(6)[:, :3], scale=np.linalg.norm(jac)) == 3


def test_rank_threshold_is_relative_to_shape_and_largest_value():
    # a singular value counts iff it exceeds 1e-9 * max(shape) * sigma_max
    for shape, scale in (((2, 2), 1.0), ((2, 6), 1e5), ((6, 2), 1e-5)):
        for factor, rank in ((1.5, 2), (0.5, 1)):
            mat = np.zeros(shape)
            mat[0, 0], mat[1, 1] = scale, factor * 1e-9 * max(shape) * scale
            right, left = kernels(mat)
            assert numeric_rank(mat) == rank == shape[1] - right.shape[1] == shape[0] - left.shape[1]
            assert orthonormal_columns(mat).shape[1] == rank


# sigma_n (or sigma_{n-1}, for the last case) placed against the rank cut
# tol * max(shape) * sigma_1
SPECTRUM_ENDS = {
    "sigma_n zero": lambda cut: (None, 0.0),
    "sigma_n at eps sigma_1": lambda cut: (None, EPS),
    "sigma_n just below the cut": lambda cut: (None, 0.9 * cut),
    "sigma_n just above the cut": lambda cut: (None, 1.1 * cut),
    "sigma_n-1 just above the cut": lambda cut: (1.1 * cut, 0.0),
    "sigma_n-1 just below the cut": lambda cut: (0.9 * cut, EPS),
}


# Column counts of the push properties: small ones, and counts near those
# of the largest push Jacobians (77 and 157), whose R_11^-1 is solved in two
# or three blocks of _SOLVE_BLOCK identity columns
PUSH_COLUMNS = st.integers(2, 24) | st.integers(65, 80) | st.integers(145, 160)


@st.composite
def prescribed_spectra(draw):
    """A tall, square or wide (n - 1) x n matrix with singular values drawn
    in [1e-2, 1] * scale, the largest exactly scale, and its smallest one or
    two placed by :data:`SPECTRUM_ENDS` (a wide matrix has no sigma_n)."""
    n = draw(PUSH_COLUMNS)
    m = draw(st.sampled_from([n + draw(st.integers(1, 2 * n)), n, n - 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sigma = np.sort(rng.uniform(1e-2, 1.0, n))[::-1]
    sigma[0] = 1.0
    second, last = SPECTRUM_ENDS[draw(st.sampled_from(sorted(SPECTRUM_ENDS)))](RANK_TOL * max(m, n))
    sigma[-1] = last
    if second is not None:
        sigma[-2] = second
    k = min(m, n)
    u = np.linalg.qr(rng.normal(size=(m, m)))[0][:, :k]
    v = np.linalg.qr(rng.normal(size=(n, n)))[0][:, :k]
    return (u * (sigma[:k] * 10.0 ** draw(st.integers(-6, 6)))) @ v.T


def pinned_prism_jacobian():
    """The measurement Jacobian of the minimally pinned prism: integer
    entries, nullity 1."""
    fw = prism()
    mm = measurement_map(fw, minimal_pinning(fw))
    return mm.jacobian(mm.base_reduced())


def with_zero_column(seed, m, n, col):
    """A random m x n matrix whose column ``col`` is zero: its R factor has an
    exactly zero pivot there, and its kernel is e_col."""
    mat = np.random.default_rng(seed).normal(size=(m, n))
    mat[:, col] = 0.0
    return mat


@settings(max_examples=300, deadline=None)
@given(prescribed_spectra())
@example(pinned_prism_jacobian()).via("integer prism Jacobian")
@example(with_zero_column(1, 9, 6, 2)).via("zero column, tall")
@example(with_zero_column(2, 5, 6, 5)).via("zero column, wide")
@example(with_zero_column(3, 6, 6, 0)).via("zero column, square")
@example(np.zeros((3, 1))).via("one zero column")
@example(np.zeros((0, 1))).via("no rows, one column")
@example(np.zeros((4, 2))).via("all zero, nullity 2")
@example(with_zero_column(4, 90, 70, 66)).via("zero pivot in the second solve block")
@example(with_zero_column(5, 190, 150, 140)).via("zero pivot in the third solve block")
def test_rank_and_kernel_vector_against_the_svd(mat):
    # equal rank; a vector only at nullity 1, within c eps sigma_1 / sigma_{n-1}
    # of the SVD's v_n up to sign.  Both vectors carry round-off of that
    # size; c = 100 holds the worst of 5000 draws (3400 past 64 columns),
    # 42, with room
    m, n = mat.shape
    _, sigma, vt = np.linalg.svd(mat) if mat.size else (None, np.zeros(0), np.eye(n))
    rank = _rank(sigma, mat.shape, RANK_TOL)
    got, vec = rank_and_kernel_vector(mat)
    assert got == rank
    if n - rank != 1:
        assert vec is None
        return
    bound = 100 * EPS * (sigma[0] / sigma[n - 2] if n > 1 else 1.0)
    assert min(np.linalg.norm(vec - vt[-1]), np.linalg.norm(vec + vt[-1])) <= bound


@st.composite
def triangular_systems(draw):
    """``(R, rhs)``: the n x n triangular factor of a matrix whose singular
    values are spread log-uniformly from 1 down to 10^-k, the condition
    number of R, and a normal right-hand side, a vector or a matrix of up to
    ``_SOLVE_BLOCK`` columns; n reaches past three halvings of
    ``_SOLVE_BLOCK``."""
    n = draw(st.integers(1, 4 * _SOLVE_BLOCK + 7))
    k = draw(st.integers(0, 10))
    columns = draw(st.sampled_from([None, 1, 3, _SOLVE_BLOCK]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sigma = np.sort(10.0 ** (-k * rng.uniform(0.0, 1.0, n)))[::-1]
    sigma[0], sigma[-1] = 1.0, 10.0 ** -k
    u = np.linalg.qr(rng.normal(size=(n, n)))[0]
    v = np.linalg.qr(rng.normal(size=(n, n)))[0]
    rhs = rng.normal(size=n if columns is None else (n, columns))
    return np.linalg.qr((u * sigma) @ v.T, mode="r"), rhs


@settings(max_examples=150, deadline=None)
@given(triangular_systems())
@example((np.triu(np.ones((2 * _SOLVE_BLOCK + 1,) * 2)), np.ones(2 * _SOLVE_BLOCK + 1)))
@example((np.triu(np.ones((2 * _SOLVE_BLOCK + 1,) * 2)), np.eye(2 * _SOLVE_BLOCK + 1)[:, 1:])
         ).via("identity columns, as the inverse of R_11 is solved")
def test_triangular_solve_against_lu(system):
    """Up to ``_SOLVE_BLOCK`` rows the solve is np.linalg.solve, bit for bit;
    above it both solutions lie within n eps cond(R) |x| of each other
    (Frobenius norms for a matrix right-hand side, column by column), the
    size of either one's forward error bound (the worst of 800 draws read
    1e-2 of it)."""
    r, rhs = system
    got, want = _triangular_solve(r, rhs), np.linalg.solve(r, rhs)
    n = len(rhs)
    if n <= _SOLVE_BLOCK:
        assert got.tobytes() == want.tobytes()
        return
    sigma = np.linalg.svd(r, compute_uv=False)
    assert np.linalg.norm(got - want) <= n * EPS * sigma[0] / sigma[-1] * np.linalg.norm(want)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 1), (5, 3), (3, 5), (6, 6)])
def test_kernel_and_scale_is_the_nullspace_and_the_largest_singular_value(shape):
    mat = np.random.default_rng(sum(shape)).normal(size=shape)
    mat[:, :1] = 0.0
    kern, scale = kernel_and_scale(mat)
    assert kern.tobytes() == nullspace(mat).tobytes()
    # the SVD with singular vectors: its values may differ in the last bits
    # from those of a values-only one
    assert scale == (np.linalg.svd(mat, full_matrices=shape[0] < shape[1])[1][0] if mat.size else 0.0)


def test_push_jacobians_up_to_the_largest_probe_iterate_through_one_lu_inverse():
    """A t = 1 fan of 13 points, pinned minimally, has 4 * 13 - 3 = 49
    columns: its flex is the inverse iteration through X = R_11^-1, one
    np.linalg.solve of the identity, bit for bit."""
    rng = np.random.default_rng(49)
    mat = rng.normal(size=(60, 48)) @ rng.normal(size=(48, 49))
    r = np.linalg.qr(mat, mode="r")
    r /= np.abs(r).max()
    x, c, pivot = np.linalg.solve(r[:-1, :-1], np.eye(48)), r[:-1, -1], r[-1, -1]
    start = extrig.linalg._start(49)
    y_tail = start[-1] / pivot                   # y = R^-1 s
    y_head = x @ (start[:-1] - c * y_tail)
    z_head = x.T @ y_head                        # z = R^-T y
    z_tail = (y_tail - c @ z_head) / pivot
    w_tail = z_tail / pivot                      # R^-1 z
    vec = np.append(x @ (z_head - c * w_tail), w_tail)
    rank, got = rank_and_kernel_vector(mat)
    assert rank == 48
    assert got.tobytes() == (vec / np.linalg.norm(vec)).tobytes()


@st.composite
def grouped_rows(draw):
    """``(table, mat, label)``: a table for :func:`full_column_rank` of g
    groups of ``width`` columns and t >= width labels, each group's row of
    label j near a common row tau_j (off by a drawn relative size from 0 to
    1), zero where a drawn label is missing, or parallel to its group's row
    of label 0; and ``mat``, the table's drawn rows at their groups' columns
    with their ``label``, and a few unlabelled rows (label -1) over all
    columns."""
    width, g = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    t = draw(st.integers(width, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tau = rng.normal(size=(t, width)) * 10.0 ** draw(st.integers(-3, 3))
    off = draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 1e-2, 1.0]))
    table, rows, label = np.zeros((g, t, width)), [], []
    for group in range(g):
        cells = tau * (1.0 + off * rng.normal(size=tau.shape))
        for j in range(t):
            fate = draw(st.sampled_from(["near", "near", "missing", "parallel"]))
            if fate == "missing":
                continue
            table[group, j] = cells[0] * rng.uniform(0.5, 2.0) if fate == "parallel" else cells[j]
            row = np.zeros(g * width)
            row[group * width:(group + 1) * width] = table[group, j]
            rows.append(row)
            label.append(j)
    for _ in range(draw(st.integers(0, 2))):
        rows.append(rng.normal(size=g * width))
        label.append(-1)
    order = rng.permutation(len(rows))
    return table, np.array(rows).reshape(-1, g * width)[order], np.array(label, dtype=int)[order]


@settings(max_examples=300, deadline=None)
@given(grouped_rows(), st.sampled_from([1e-12, RANK_TOL, 1e-6, 1e-3]))
def test_full_column_rank_never_passes_a_deficient_matrix(case, tol):
    """Each matrix of the unlabelled rows and the rows a subset of labels
    selects, when certified, has full column rank at the SVD cut against
    sigma_1 of ``mat`` (which bounds any row subset's): a zero, parallel or
    off-average group row never slips through."""
    table, mat, label = case
    sure = full_column_rank(table, tol, mat.shape, np.linalg.norm(mat))
    scale = np.linalg.norm(mat, 2) if mat.size else 0.0
    for k in np.flatnonzero(sure):
        held = mat[(label < 0) | (k >> np.maximum(label, 0) & 1 == 1) & (label >= 0)]
        assert numeric_rank(held, tol, scale=scale, shape=mat.shape) == mat.shape[1]


def test_full_column_rank_weighs_the_spread_of_the_groups():
    """Group 0 holds two parallel rows, group 1 two independent ones: their
    mean is well conditioned, but the spread takes the bound below zero.
    With group 0's rows independent too, only the subset of both labels passes."""
    table = np.array([[[1.0, 0.0], [2.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]])
    assert not full_column_rank(table, RANK_TOL, (4, 4), np.linalg.norm(table)).any()
    table[0, 1] = [0.0, 2.0]
    assert full_column_rank(table, RANK_TOL, (4, 4), np.linalg.norm(table)).tolist() == [
        False, False, False, True]


# 2^-500 and 2^500: an unscaled Gram matrix of such entries under- or overflows
SCALES = (2.0 ** -500, 1.0, 2.0 ** 500)
TOLS = st.floats(-16.0, -3.0).map(lambda e: 10.0 ** e)


def with_spectrum(rng, m, n, sigma, last=False):
    """A random m x n matrix with singular values ``sigma`` (min(m, n) of
    them, largest first); with ``last``, the right singular vector of
    sigma_n is e_n, so that the last pivot of R is sigma_n."""
    k = min(m, n)
    u = np.linalg.qr(rng.normal(size=(m, m)))[0][:, :k]
    v = np.linalg.qr(rng.normal(size=(n, n)))[0]
    if last:
        v[:, -1], v[-1] = 0.0, 0.0
        v[:-1, :-1], v[-1, -1] = np.linalg.qr(rng.normal(size=(n - 1, n - 1)))[0], 1.0
    return (u * sigma) @ v[:, :k].T


@st.composite
def cut_cases(draw):
    """``(mat, tol, shape, norm)`` for :func:`clears_cut`: a tall, square or
    wide matrix whose least singular value is drawn from 0.1 to 10 times the
    cut tol * max(shape) * norm, the others in [1e-2, 1]; ``norm`` is
    |mat|_F or twice it, ``shape`` is the matrix's or has more rows.  Some
    draws get a zero row or column, and every draw is scaled by 2^-500, 1 or
    2^500."""
    n = draw(st.integers(1, 24))
    m = draw(st.sampled_from([n + draw(st.integers(1, 2 * n)), n, draw(st.integers(1, n))]))
    tol = draw(TOLS)
    shape = (m + draw(st.integers(0, 3 * m)), n)
    slack = draw(st.sampled_from([1.0, 2.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sigma = np.sort(rng.uniform(1e-2, 1.0, min(m, n)))[::-1]
    sigma[0] = 1.0
    if len(sigma) > 1:
        rest = slack * np.linalg.norm(sigma[:-1])
        sigma[-1] = 10.0 ** rng.uniform(-1.0, 1.0) * tol * max(shape) * rest
    mat = with_spectrum(rng, m, n, np.sort(sigma)[::-1])
    defect = draw(st.sampled_from([None, "zero row", "zero column"]))
    if defect == "zero row":
        mat[draw(st.integers(0, m - 1))] = 0.0
    elif defect == "zero column":
        mat[:, draw(st.integers(0, n - 1))] = 0.0
    mat *= draw(st.sampled_from(SCALES))
    return mat, tol, shape, slack * np.linalg.norm(mat)


@settings(max_examples=500, deadline=None)
@given(cut_cases())
def test_clears_cut_only_certifies_what_the_svd_decides(case):
    """Wherever the certificate passes, the SVD gives full rank at the cut
    against ``shape``, both at the scale ``norm`` and at the matrix's own
    largest singular value."""
    mat, tol, shape, norm = case
    if clears_cut(mat, tol, shape, norm):
        sigma = np.linalg.svd(mat, compute_uv=False)
        assert _rank(sigma, shape, tol, norm) == _rank(sigma, shape, tol) == min(mat.shape)


@st.composite
def push_cases(draw):
    """``(mat, tol)``: a tall, square or wide ((n - 1) x n) matrix whose
    sigma_{n-1} and sigma_n are drawn from 0.1 to 10 times the cut tol *
    max(shape) * sigma_1, the others log-uniform in [1e-3, 1] (so that
    |R|_F, which the certificate's margin scales with, stays near sigma_1
    and the certificate passes on a fair share), and for half the draws
    |r_nn| = sigma_n, the bound's best case; some draws get a zero
    column (an exact zero pivot of R) or zero rows below, and every draw is
    scaled by 2^-500, 1 or 2^500."""
    n = draw(PUSH_COLUMNS)
    m = draw(st.sampled_from([n + draw(st.integers(1, 2 * n)), n, n - 1]))
    tol = draw(TOLS)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sigma = 10.0 ** rng.uniform(-3.0, 0.0, n)
    sigma[0] = 1.0
    sigma[-2:] = 10.0 ** rng.uniform(-1.0, 1.0, 2) * tol * max(m, n)
    mat = with_spectrum(rng, m, n, np.sort(sigma)[::-1][:min(m, n)], last=draw(st.booleans()))
    defect = draw(st.sampled_from([None, "zero column", "zero rows"]))
    if defect == "zero column":
        mat[:, draw(st.integers(0, n - 1))] = 0.0
    elif defect == "zero rows":
        mat = np.vstack([mat, np.zeros((draw(st.integers(1, 3)), n))])
    return mat * draw(st.sampled_from(SCALES)), tol


@settings(max_examples=1000, deadline=None)
@given(push_cases())
@example((with_zero_column(6, 160, 150, 100), RANK_TOL)).via("zero pivot past the first solve block")
def test_push_certificate_only_confirms_the_svd(case):
    """The rank is _rank on the SVD of the scaled factor R the solves use, and
    wherever the nullity-1 certificate passes, that SVD gives rank n - 1."""
    mat, tol = case
    n = mat.shape[1]
    seen = []
    nullity_one = extrig.linalg._nullity_one

    def spy(r, shape, tol):
        inverse = nullity_one(r, shape, tol)
        seen.append((r.copy(), inverse is not None))
        return inverse

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(extrig.linalg, "_nullity_one", spy)
        rank, vec = rank_and_kernel_vector(mat, tol)
    (r, sure), = seen
    want = _rank(np.linalg.svd(r[:min(mat.shape)], compute_uv=False), mat.shape, tol)
    assert rank == want and (vec is None) == (rank != n - 1)
    if sure:
        assert want == n - 1


def push_jacobians(seed=1):
    """Every Jacobian that rank_and_kernel_vector gets in the flex_certify
    t = 1 pushes, items and probes."""
    jacobians = []

    def keep(mat, tol=RANK_TOL):
        jacobians.append(mat)
        return rank_and_kernel_vector(mat, tol)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(extrig.finiteflex, "rank_and_kernel_vector", keep)
        for _, fw, t in flex_certify_frameworks(seed):
            if t == 1:
                linear_push(fw, minimal_pinning(fw))
    return tuple(jacobians)


def inverse_solves(k):
    """The np.linalg.solve calls of the inverse of a k x k triangular matrix:
    a block of up to _SOLVE_BLOCK identity columns at a time, against the
    rows it reaches, halved down to blocks of at most _SOLVE_BLOCK rows."""
    def leaves(rows):
        return 1 if rows <= _SOLVE_BLOCK else leaves(rows // 2) + leaves(rows - rows // 2)
    return sum(leaves(min(start + _SOLVE_BLOCK, k)) for start in range(0, k, _SOLVE_BLOCK))


def test_push_jacobians_take_one_qr_and_the_solves_of_one_inverse(monkeypatch):
    """Every Jacobian of the seed-1 flex_certify t = 1 pushes gets nullity 1
    from one np.linalg.qr call, no SVD, and the np.linalg.solve leaves of
    R_11^-1 alone: a block of up to _SOLVE_BLOCK identity columns at a time,
    each against the rows it reaches, halved down to _SOLVE_BLOCK rows.  That
    is one solve up to _SOLVE_BLOCK + 1 columns and 1 + 2 + 4 at 157."""
    assert inverse_solves(_SOLVE_BLOCK) == 1 and inverse_solves(156) == 1 + 2 + 4
    jacobians, calls = push_jacobians(), []
    for name in ("qr", "svd", "solve"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *args, name=name, real=real, **kwargs:
                            calls.append(name) or real(*args, **kwargs))
    assert max(mat.shape[1] for mat in jacobians) == 4 * 40 - 3
    for mat in jacobians:
        calls.clear()
        rank, vec = rank_and_kernel_vector(mat)
        assert rank == mat.shape[1] - 1 and vec is not None
        assert calls == ["qr"] + ["solve"] * inverse_solves(mat.shape[1] - 1)


def test_top_rung_base_rows_take_no_values_only_svd(monkeypatch):
    """On fan40_t2 the base rows of finite_flex_test take no values-only SVD:
    the SVDs left are those of the point-set preconditions and of the
    directions, each on at most d columns."""
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda mat, *args, **kwargs:
                        shapes.append(np.shape(mat)) or svd(mat, *args, **kwargs))
    fw, = (fw for name, fw, _ in flex_certify_frameworks(seed=1) if name == "fan40_t2")
    assert finite_flex_test(fw).determination == FINITE_FLEX_CERTIFIED
    assert shapes and all(min(shape) <= fw.dim for shape in shapes)
