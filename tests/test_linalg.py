import numpy as np
import pytest

from sagrs.linalg import SingularMatrixError, solve


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


def test_solve_rank_deficient():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularMatrixError):
        solve(a, np.array([[1.0], [2.0]]))


def test_solve_identical_rows_always_singular():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = rng.uniform(-2, 2, size=(n, n))
        i, j = rng.choice(n, size=2, replace=False)
        a[i] = a[j]
        with pytest.raises(SingularMatrixError):
            solve(a, rng.uniform(-1, 1, size=(n, 1)))


def test_solve_roundtrip_random_systems():
    # solve(a, a @ x0) must recover x0 componentwise to 1e-8 relative
    rng = np.random.default_rng(19)
    trials = 0
    while trials < 200:
        n = int(rng.integers(2, 9))
        a = rng.uniform(-1, 1, size=(n, n))
        if np.linalg.cond(a) > 1e6:  # skip the rare near-singular draw
            continue
        x0 = rng.uniform(-10, 10, size=(n, 1))
        x = solve(a, a @ x0)
        assert np.all(np.abs(x - x0) <= 1e-8 * (1.0 + np.abs(x0)))
        trials += 1


def test_solve_shape_validation():
    with pytest.raises(ValueError):
        solve(np.ones((2, 3)), np.ones((2, 1)))
    with pytest.raises(ValueError):
        solve(np.eye(2), np.ones((3, 1)))


def test_solve_multiple_right_hand_sides():
    rng = np.random.default_rng(5)
    a = rng.uniform(-1, 1, size=(4, 4)) + 4.0 * np.eye(4)
    b = rng.uniform(-1, 1, size=(4, 3))
    x = solve(a, b)
    assert np.allclose(a @ x, b, atol=1e-10)
