import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from sagrs.linalg import SINGULARITY_TOL, SingularMatrixError, solve


def test_mat_mul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(np.eye(2) @ a, a)


def test_mat_mul_zero_vector():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    z = np.zeros((2, 1))
    assert np.array_equal(a @ z, z)


def test_mat_mul_hand_value():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0], [6.0]])
    assert np.array_equal(a @ b, np.array([[17.0], [39.0]]))


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        np.ones((2, 3)) @ np.ones((2, 2))


def test_mat_mul_associative():
    rng = np.random.default_rng(7)
    for _ in range(50):
        dims = rng.integers(1, 6, size=4)
        a = rng.uniform(-1, 1, size=(dims[0], dims[1]))
        b = rng.uniform(-1, 1, size=(dims[1], dims[2]))
        c = rng.uniform(-1, 1, size=(dims[2], dims[3]))
        left = (a @ b) @ c
        right = a @ (b @ c)
        assert np.max(np.abs(left - right)) < 1e-10


def test_solve_identity_system():
    b = np.array([[3.0], [-1.0], [2.5]])
    assert np.array_equal(solve(np.eye(3), b), b)


def test_solve_diagonal():
    a = np.array([[2.0, 0.0], [0.0, 4.0]])
    b = np.array([[2.0], [8.0]])
    assert np.allclose(solve(a, b), np.array([[1.0], [2.0]]), atol=1e-14)


@pytest.mark.parametrize("n", [40, 100, 300])
def test_solve_factors_in_32_column_panels(n):
    # LAPACK's workspace query gives a 64-column panel, whose bits differ from n = 65 on
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    a += a.T
    b = rng.standard_normal((n, 1))
    ldu, ipiv, info = scipy.linalg.lapack.dsytrf(a.T, lwork=32 * n)
    assert info == 0
    assert np.array_equal(solve(a.copy(), b), scipy.linalg.lapack.dsytrs(ldu, ipiv, b)[0])


def test_solve_rank_deficient():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularMatrixError):
        solve(a, np.array([[1.0], [2.0]]))


def normal_equations(rng, m, d):
    """X^T X for the LSM design matrix [1, x, x^2] of m uniform points in [-2, 2]^d."""
    x = rng.uniform(-2, 2, size=(m, d))
    x_mat = np.hstack([np.ones((m, 1)), x, x * x])
    return x_mat.T @ x_mat


def test_solve_identical_rows_always_singular():
    # positive definite normal equations, two of whose rows and columns are made equal
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        a = normal_equations(rng, int(rng.integers(2 * d + 1, 20)), d)
        n = len(a)
        i, j = rng.choice(n, size=2, replace=False)
        a[i], a[:, i] = a[j], a[:, j]
        a[i, i] = a[i, j] = a[j, i] = a[j, j]
        assert np.array_equal(a[i], a[j]) and np.array_equal(a, a.T)
        with pytest.raises(SingularMatrixError):
            solve(a, rng.uniform(-1, 1, size=(n, 1)))


def test_solve_roundtrip_random_systems():
    # solve(a, a @ x0) must recover x0 componentwise to 1e-8 relative on the
    # positive definite normal equations that the LSM fit solves
    rng = np.random.default_rng(19)
    trials = 0
    while trials < 200:
        d = int(rng.integers(1, 5))
        a = normal_equations(rng, int(rng.integers(2 * d + 1, 40)), d)
        if np.linalg.cond(a) > 1e6:  # skip the rare near-singular draw
            continue
        x0 = rng.uniform(-10, 10, size=(len(a), 1))
        x = solve(a.copy(), a @ x0)
        assert np.all(np.abs(x - x0) <= 1e-8 * (1.0 + np.abs(x0)))
        trials += 1


def test_solve_shape_validation():
    with pytest.raises(ValueError):
        solve(np.ones((2, 3)), np.ones((2, 1)))
    with pytest.raises(ValueError):
        solve(np.eye(2), np.ones((3, 1)))
    for a, b in ((np.ones(3), np.ones((3, 1))), (np.empty((0, 0)), np.ones((1, 1))), (np.eye(2), np.ones(2))):
        with pytest.raises(ValueError, match="must be 2-D with at least one row and column"):
            solve(a, b)


def test_solve_multiple_right_hand_sides():
    rng = np.random.default_rng(5)
    a = rng.uniform(-1, 1, size=(4, 4))
    a = a + a.T + 4.0 * np.eye(4)
    b = rng.uniform(-1, 1, size=(4, 3))
    x = solve(a.copy(), b)
    assert np.allclose(a @ x, b, atol=1e-10)


def random_symmetric(rng, n, zero_diagonal):
    a = rng.uniform(-1, 1, size=(n, n))
    a = a + a.T
    if zero_diagonal:
        np.fill_diagonal(a, 0.0)
    return a


def two_by_two_blocks(a):
    """Number of 2x2 pivot blocks in the Bunch-Kaufman factorization of a."""
    ipiv = scipy.linalg.lapack.dsytrf(a.copy(order="F"))[1]
    return int(np.sum(ipiv < 0)) // 2


def test_solve_symmetric_roundtrip_indefinite_systems():
    # solve(a, a @ x0) must recover x0 componentwise to 1e-8 relative;
    # zero diagonals force 2x2 pivot blocks
    rng = np.random.default_rng(29)
    trials = blocks = 0
    while trials < 200:
        n = int(rng.integers(2, 12))
        a = random_symmetric(rng, n, zero_diagonal=trials % 2 == 0)
        if np.linalg.cond(a) > 1e6:
            continue
        blocks += two_by_two_blocks(a)
        x0 = rng.uniform(-10, 10, size=(n, 2))
        x = solve(a.copy(), a @ x0)
        assert np.all(np.abs(x - x0) <= 1e-8 * (1.0 + np.abs(x0)))
        trials += 1
    assert blocks > 100


def test_solve_symmetric_factors_in_place():
    rng = np.random.default_rng(31)
    a = random_symmetric(rng, 6, zero_diagonal=True)
    for order in ("C", "F"):
        work = np.array(a, order=order)
        solve(work, np.ones((6, 1)))
        assert not np.array_equal(work, a)  # the factor went into work, not into a copy


def test_solve_symmetric_identical_rows_always_singular():
    rng = np.random.default_rng(37)
    for trial in range(40):
        n = int(rng.integers(2, 9))
        a = random_symmetric(rng, n, zero_diagonal=trial % 2 == 0)
        i, j = rng.choice(n, size=2, replace=False)
        a[i], a[:, i] = a[j], a[:, j]  # row and column i copy j, so a stays symmetric
        a[i, i] = a[i, j] = a[j, i] = a[j, j]
        assert np.array_equal(a[i], a[j]) and np.array_equal(a, a.T)
        with pytest.raises(SingularMatrixError):
            solve(a, rng.uniform(-1, 1, size=(n, 1)))


def test_solve_symmetric_zero_row_nan_entry_and_small_pivot():
    rng = np.random.default_rng(41)
    a = random_symmetric(rng, 5, zero_diagonal=True)
    zero_row = a.copy()
    zero_row[2], zero_row[:, 2] = 0.0, 0.0
    with pytest.raises(SingularMatrixError, match="all-zero row"):
        solve(zero_row, np.ones((5, 1)))
    with_nan = a.copy()
    with_nan[1, 3] = with_nan[3, 1] = np.nan
    with pytest.raises(SingularMatrixError):
        solve(with_nan, np.ones((5, 1)))
    with pytest.raises(SingularMatrixError):  # two 1x1 pivots, the second 1e-15
        solve(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]), np.ones((2, 1)))


@pytest.mark.parametrize("eps", [0.0, 1e-14, 1e-3])
def test_solve_symmetric_two_by_two_block_of_a_singular_system(eps):
    # dsytrf works upwards: the last 2x2 block m is its first pivot block and
    # leaves the Schur complement m / 4 + eps * m - m / 4 = eps * m, exact up
    # to the rounding of 1/4 + eps. That is the second 2x2 pivot block, with
    # eigenvalues +-eps against row scales of 1/2.
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = np.block([[(0.25 + eps) * m, 0.5 * m], [0.5 * m, m]])
    ipiv, info = scipy.linalg.lapack.dsytrf(a.copy(order="F"))[1:]
    assert list(ipiv[2:]) == [-3, -3]
    if eps == 0.0:
        assert info == 2  # an exactly zero column where the second block would be
    else:
        assert info == 0 and ipiv[0] == ipiv[1] < 0
    if eps == 1e-3:
        x = solve(a.copy(), a @ np.arange(1.0, 5.0).reshape(4, 1))
        assert np.allclose(x.ravel(), [1.0, 2.0, 3.0, 4.0], rtol=1e-9)
    else:
        with pytest.raises(SingularMatrixError):
            solve(a, np.ones((4, 1)))


def test_solve_symmetric_judges_a_block_by_its_larger_row_scale():
    # As above, with the first row and column scaled by 1e-3: the second 2x2
    # block has eigenvalues +-1e-13 and rows of scale 5e-4 and 0.5. It is
    # singular against the larger scale, though not against the smaller.
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = np.block([[(0.25 + 1e-10) * m, 0.5 * m], [0.5 * m, m]])
    a[0] *= 1e-3
    a[:, 0] *= 1e-3
    with pytest.raises(SingularMatrixError):
        solve(a, np.ones((4, 1)))


def reference_is_singular_symmetric(a):
    """solve's singularity test, read from scipy.linalg.ldl's D and permutation."""
    _, d, perm = scipy.linalg.ldl(a, lower=False)
    row_scale = np.max(np.abs(a), axis=1)[perm]
    if not np.all(np.isfinite(d)):
        return True
    k = 0
    while k < len(d):
        size = 2 if k + 1 < len(d) and d[k, k + 1] != 0.0 else 1
        block = d[k : k + size, k : k + size]
        pivot = np.min(np.abs(np.linalg.eigvalsh(block)))
        if pivot < SINGULARITY_TOL * np.max(row_scale[k : k + size]):
            return True
        k += size
    return False


def test_solve_symmetric_singularity_matches_ldl_reference():
    # near-singular symmetric indefinite systems under a symmetric scaling,
    # so rows and pivot blocks have different scales; the zero-diagonal ones
    # are mostly regular and decided by their 2x2 blocks
    rng = np.random.default_rng(43)
    outcomes = set()
    for trial in range(300):
        n = int(rng.integers(2, 12))
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        eig = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 2.0, size=n)
        if rng.random() < 0.7:
            eig[int(rng.integers(0, n))] *= 10.0 ** rng.uniform(-17, -9)
        a = (q * eig) @ q.T
        a = (a + a.T) / 2
        if trial % 3 == 0:
            np.fill_diagonal(a, 0.0)
        scale = 10.0 ** rng.uniform(-3, 0, size=n)
        a = scale[:, None] * a * scale[None, :]
        expected = reference_is_singular_symmetric(a)
        try:
            solve(a.copy(), np.ones((n, 1)))
            singular = False
        except SingularMatrixError:
            singular = True
        assert singular == expected
        outcomes.add(singular)
    assert outcomes == {True, False}
