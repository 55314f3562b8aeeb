import math

import numpy as np
import pytest

from sagrs.objectives import make_objective
from sagrs.surrogate import (
    EvaluatedPool,
    Item,
    LsmModel,
    MeanModel,
    SurrogateFitError,
    compute_sigma,
    design_row,
    fit,
    fit_lsm,
    fit_or_fallback,
    fit_rbf,
    gaussian_bump,
)


def pool_from(points, values):
    return EvaluatedPool(items=[Item(np.asarray(p, float), float(v)) for p, v in zip(points, values)])


def quadratic_pool(coeffs, points):
    """Pool whose fitness is generated by the surrogate's own polynomial form."""
    coeffs = np.asarray(coeffs, float)
    values = [float(coeffs @ design_row(np.asarray(p, float))) for p in points]
    return pool_from(points, values)


GENERAL_POSITION_6 = [(0.3, -0.7), (1.2, 0.4), (-0.5, 1.1), (2.0, -1.3), (-1.7, 0.9), (0.8, 2.2)]


# ---------------------------------------------------------------- pool


def test_pool_rejects_unevaluated_items():
    with pytest.raises(ValueError):
        EvaluatedPool().add(Item(np.zeros(2)))


def test_pool_deduplicates_at_insertion():
    pool = pool_from([(0.0, 0.0)], [1.0])
    assert not pool.add(Item(np.array([0.0, 5e-10]), 1.0))
    assert pool.add(Item(np.array([0.0, 1e-6]), 2.0))
    assert len(pool) == 2


def test_pool_min_distance_and_extremes():
    pool = pool_from([(0.0, 0.0), (3.0, 4.0)], [2.0, 7.0])
    assert pool.min_distance([0.0, 0.0]) == 0.0
    assert pool.min_distance([3.0, 0.0]) == pytest.approx(3.0)
    assert pool.best_fitness() == 2.0
    assert pool.worst_fitness() == 7.0


def test_pool_tail_window():
    pool = pool_from([(float(i), 0.0) for i in range(5)], range(5))
    tail = pool.tail(2)
    assert len(tail) == 2
    assert tail.points()[0, 0] == 3.0
    assert pool.tail(None) is pool
    assert pool.tail(99) is pool


# ---------------------------------------------------------------- LSM


def test_fit_lsm_recovers_generating_quadratic():
    pool = quadratic_pool([0.7, 0.0, 0.0, 1.0, 2.0], GENERAL_POSITION_6)
    model = fit_lsm(pool)
    assert np.allclose(model.theta, [0.7, 0.0, 0.0, 1.0, 2.0], atol=1e-8)


def test_fit_lsm_recovers_constant():
    pool = pool_from(GENERAL_POSITION_6, [5.0] * 6)
    model = fit_lsm(pool)
    assert np.allclose(model.theta, [5.0, 0.0, 0.0, 0.0, 0.0], atol=1e-8)


def test_fit_lsm_underdetermined():
    pool = quadratic_pool([0.7, 0.0, 0.0, 1.0, 2.0], GENERAL_POSITION_6[:4])
    with pytest.raises(SurrogateFitError):
        fit_lsm(pool)


def test_fit_lsm_boundary_count_is_enough():
    pool = quadratic_pool([0.7, 0.0, 0.0, 1.0, 2.0], GENERAL_POSITION_6[:5])
    assert np.allclose(fit_lsm(pool).theta, [0.7, 0.0, 0.0, 1.0, 2.0], atol=1e-8)


def test_fit_lsm_singular_design():
    # all points on the x2 = 0 line: the x2 and x2^2 columns vanish
    points = [(float(i), 0.0) for i in range(6)]
    with pytest.raises(SurrogateFitError):
        fit_lsm(pool_from(points, [float(i) for i in range(6)]))


def test_predict_lsm_hand_values():
    model = LsmModel(theta=np.array([0.7, 0.0, 0.0, 1.0, 2.0]))
    assert model.predict([0.0, 0.0]) == pytest.approx(0.7)
    assert model.predict([1.0, 1.0]) == pytest.approx(3.7)
    linear = LsmModel(theta=np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
    for x in (-3.0, 0.5, 11.0):
        assert linear.predict([x, 123.0]) == pytest.approx(x)


def test_lsm_exactness_on_its_own_model_class():
    rng = np.random.default_rng(41)
    obj = make_objective("bohachevsky")
    for _ in range(20):
        coeffs = rng.uniform(-3, 3, size=5)
        train = obj.sample_uniform(rng, int(rng.integers(5, 30)))
        model = fit_lsm(quadratic_pool(coeffs, train))
        probes = obj.sample_uniform(rng, 100)
        for p in probes:
            want = float(coeffs @ design_row(p))
            assert model.predict(p) == pytest.approx(want, abs=1e-6 * (1 + abs(want)))


def test_lsm_residual_local_optimality():
    rng = np.random.default_rng(17)
    pts = rng.uniform(-5, 5, size=(12, 2))
    values = [float(p @ p + rng.normal(0, 0.5)) for p in pts]
    pool = pool_from(pts, values)
    model = fit_lsm(pool)

    def ssr(theta):
        m = LsmModel(theta=theta)
        return sum((m.predict(p) - v) ** 2 for p, v in zip(pts, values))

    base = ssr(model.theta)
    for i in range(5):
        for delta in (-1e-3, 1e-3):
            bumped = model.theta.copy()
            bumped[i] += delta
            assert ssr(bumped) >= base - 1e-12


# ---------------------------------------------------------------- sigma


def test_compute_sigma_single_pair():
    assert compute_sigma(pool_from([(0.0, 0.0), (3.0, 4.0)], [0, 0])) == pytest.approx(5.0, abs=1e-12)


def test_compute_sigma_three_collinear():
    pool = pool_from([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [0, 0, 0])
    assert compute_sigma(pool) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_compute_sigma_homogeneous_scaling():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-2, 2, size=(8, 2))
    base = compute_sigma(pool_from(pts, np.zeros(8)))
    doubled = compute_sigma(pool_from(2.0 * pts, np.zeros(8)))
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_compute_sigma_needs_two_points():
    with pytest.raises(SurrogateFitError):
        compute_sigma(pool_from([(0.0, 0.0)], [1.0]))


def test_compute_sigma_matches_pairwise_mean_oracle():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-10, 10, size=(9, 3))
    dists = [
        math.dist(pts[i], pts[j]) for i in range(len(pts)) for j in range(i + 1, len(pts))
    ]
    pool = EvaluatedPool(items=[Item(p, 0.0) for p in pts])
    assert compute_sigma(pool) == pytest.approx(sum(dists) / len(dists), abs=1e-12)


# ---------------------------------------------------------------- RBF


def test_gaussian_bump_shape():
    radii = np.linspace(0.0, 50.0, 400)
    values = gaussian_bump(radii, sigma=3.0)
    assert values[0] == 0.0
    assert np.all(np.diff(values) >= 0.0)
    assert np.all(values <= 1.0)


def test_fit_rbf_two_point_hand_solve():
    t1, t2 = 3.0, -1.5
    pool = pool_from([(0.0, 0.0), (3.0, 4.0)], [t1, t2])
    model = fit_rbf(pool)
    assert model.sigma == pytest.approx(5.0)
    phi_d = float(gaussian_bump(5.0, 5.0))
    # phi(0) = 0 makes the 2x2 system anti-diagonal
    assert np.allclose(model.weights, [t2 / phi_d, t1 / phi_d], atol=1e-10)


def test_fit_rbf_interpolates_training_points():
    rng = np.random.default_rng(13)
    for name in ("bohachevsky", "ackley", "schwefel"):
        obj = make_objective(name)
        for size in (3, 7, 20):
            pts = obj.sample_uniform(rng, size)
            pool = pool_from(pts, [obj.evaluate(p) for p in pts])
            model = fit_rbf(pool)
            assert model.ridge == 0.0
            scale = 1.0 + max(abs(v) for v in pool.fitnesses())
            for item in pool.items:
                assert abs(model.predict(item.point) - item.fitness) <= 1e-6 * scale


def test_fit_rbf_single_point_fails():
    with pytest.raises(SurrogateFitError):
        fit_rbf(pool_from([(0.0, 0.0)], [1.0]))


def test_predict_rbf_far_field_limit():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(6, 2))
    pool = pool_from(pts, rng.uniform(-5, 5, size=6))
    model = fit_rbf(pool)
    total = float(np.sum(model.weights))
    far = np.array([100.0 * model.sigma, 100.0 * model.sigma])
    assert abs(model.predict(far) - total) <= 1e-3 * abs(total)


def test_predict_rbf_zero_weights():
    model = fit_rbf(pool_from([(0.0, 0.0), (1.0, 1.0)], [0.0, 0.0]))
    assert np.allclose(model.weights, 0.0)
    assert model.predict([0.3, 0.9]) == 0.0


# ---------------------------------------------------------------- dispatch


def test_fit_dispatch_lsm_exact_recovery():
    pool = quadratic_pool([0.7, 0.0, 0.0, 1.0, 2.0], GENERAL_POSITION_6)
    model = fit("lsm", pool)
    assert np.allclose(model.theta, [0.7, 0.0, 0.0, 1.0, 2.0], atol=1e-8)


def test_fit_dispatch_rbf_interpolates():
    pool = pool_from([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [1.0, 2.0, 3.0])
    model = fit("rbf", pool)
    for item in pool.items:
        assert model.predict(item.point) == pytest.approx(item.fitness, abs=1e-6)


def test_fit_unknown_kind():
    pool = pool_from([(0.0, 0.0), (1.0, 0.0)], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit("kriging", pool)
    with pytest.raises(ValueError):
        fit_or_fallback("kriging", pool)


def test_fit_or_fallback_degrades_to_mean():
    pool = pool_from([(0.0, 0.0), (1.0, 0.0)], [1.0, 3.0])
    model, ok = fit_or_fallback("lsm", pool)  # 2 < 2d+1, LSM cannot fit
    assert not ok
    assert isinstance(model, MeanModel)
    assert model.predict([9.0, 9.0]) == pytest.approx(2.0)
    model, ok = fit_or_fallback("rbf", pool)
    assert ok


def test_model_invariant_validation():
    from sagrs.surrogate import RbfModel

    with pytest.raises(ValueError):
        LsmModel(theta=np.array([1.0, 2.0]))  # even length cannot be 2d+1
    with pytest.raises(ValueError):
        RbfModel(centers=np.zeros((3, 2)), weights=np.zeros(2), sigma=1.0)
    with pytest.raises(ValueError):
        RbfModel(centers=np.zeros((2, 2)), weights=np.zeros(2), sigma=0.0)


def test_refit_is_bitwise_stable():
    rng = np.random.default_rng(31)
    obj = make_objective("ackley")
    pts = obj.sample_uniform(rng, 12)
    pool = pool_from(pts, [obj.evaluate(p) for p in pts])
    lsm_a, lsm_b = fit_lsm(pool), fit_lsm(pool)
    assert np.array_equal(lsm_a.theta, lsm_b.theta)
    rbf_a, rbf_b = fit_rbf(pool), fit_rbf(pool)
    assert rbf_a.sigma == rbf_b.sigma
    assert np.array_equal(rbf_a.weights, rbf_b.weights)
    assert np.array_equal(rbf_a.centers, rbf_b.centers)
