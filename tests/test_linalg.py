import numpy as np
from hypothesis import example, given, settings, strategies as st

from extrig.linalg import kernels, nullspace, numeric_rank, orthonormal_columns


@st.composite
def low_rank_matrices(draw):
    """A random m x n matrix of known rank r, with nonzero singular values in [0.5, 2] * scale."""
    m, n = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    r = draw(st.integers(0, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = np.linalg.qr(rng.normal(size=(m, m)))[0][:, :r] if m else np.zeros((0, 0))
    v = np.linalg.qr(rng.normal(size=(n, n)))[0][:, :r] if n else np.zeros((0, 0))
    scale = 10.0 ** draw(st.integers(-6, 6))
    return (u * (rng.uniform(0.5, 2.0, r) * scale)) @ v.T, r


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


def test_rank_threshold_is_relative_to_shape_and_largest_value():
    # a singular value counts iff it exceeds 1e-9 * max(shape) * sigma_max
    for shape, scale in (((2, 2), 1.0), ((2, 6), 1e5), ((6, 2), 1e-5)):
        for factor, rank in ((1.5, 2), (0.5, 1)):
            mat = np.zeros(shape)
            mat[0, 0], mat[1, 1] = scale, factor * 1e-9 * max(shape) * scale
            right, left = kernels(mat)
            assert numeric_rank(mat) == rank == shape[1] - right.shape[1] == shape[0] - left.shape[1]
            assert orthonormal_columns(mat).shape[1] == rank
