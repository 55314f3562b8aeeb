import math

import numpy as np
import pytest
import scipy.linalg
from scipy.spatial.distance import pdist, squareform

import sagrs.surrogate as surrogate_mod
from sagrs.linalg import SingularMatrixError
from sagrs.objectives import make_objective
from sagrs.recommender import SagrsConfig, run_sagrs
from sagrs.surrogate import (
    EvaluatedPool,
    LsmModel,
    MeanModel,
    RbfModel,
    SurrogateFitError,
    fit,
    fit_lsm,
    fit_or_fallback,
    fit_rbf,
    gaussian_bump,
)


def pool_from(points, values):
    pool = EvaluatedPool(np.shape(points)[1])
    pool.add(np.asarray(points, float), np.asarray(values, float))
    return pool


def design_row(x):
    """Feature row (1, x_1..x_d, x_1^2..x_d^2) of the quadratic surface."""
    return np.concatenate(([1.0], x, x * x))


def compute_sigma(pool):
    """Mean Euclidean distance over all unordered pairs of pool points."""
    return float(np.mean(pdist(pool.points())))


def quadratic_pool(coeffs, points):
    """Pool whose fitness is generated by the surrogate's own polynomial form."""
    coeffs = np.asarray(coeffs, float)
    values = [float(coeffs @ design_row(np.asarray(p, float))) for p in points]
    return pool_from(points, values)


GENERAL_POSITION_6 = [(0.3, -0.7), (1.2, 0.4), (-0.5, 1.1), (2.0, -1.3), (-1.7, 0.9), (0.8, 2.2)]


# ---------------------------------------------------------------- pool


def test_pool_rejects_unevaluated_items():
    with pytest.raises(ValueError):
        EvaluatedPool(2).add(np.zeros((1, 2)), [None])
    with pytest.raises(ValueError):
        EvaluatedPool(2).add(np.zeros((1, 2)), [math.nan])
    with pytest.raises(ValueError):
        EvaluatedPool(2).add(np.zeros((2, 2)), [1.0])  # one fitness for two points


def test_pool_deduplicates_at_insertion():
    pool = pool_from([(0.0, 0.0)], [1.0])
    assert pool.add([[0.0, 5e-10]], [1.0]).tolist() == [False]
    assert pool.add([[0.0, 1e-6]], [2.0]).tolist() == [True]
    assert len(pool) == 2


@pytest.mark.parametrize("chunk_rows", [surrogate_mod.DISTINCT_CHUNK_ROWS, 2])
def test_batch_insert_keeps_what_single_inserts_keep(monkeypatch, chunk_rows):
    monkeypatch.setattr(surrogate_mod, "DISTINCT_CHUNK_ROWS", chunk_rows)
    # row 2 is within epsilon of row 0 of the batch and row 3 of a pool
    # point; row 4 is within epsilon of the dropped row 2 only, so it stays
    batch = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 1.0 + 0.9e-9], [5.0, 5.0 + 1e-10],
                      [1.0, 1.0 + 1.8e-9], [3.0, 3.0]])
    fitness = np.arange(6.0)
    batched, single = pool_from([(5.0, 5.0)], [9.0]), pool_from([(5.0, 5.0)], [9.0])
    mask = batched.add(batch, fitness)
    singles = [bool(single.add(p[None], [f])[0]) for p, f in zip(batch, fitness)]
    assert mask.tolist() == singles == [True, True, False, False, True, True]
    assert batched.points().tobytes() == single.points().tobytes()
    assert batched.fitnesses().tobytes() == single.fitnesses().tobytes()


def seeded_batch(kind, rng):
    """20 base points and a batch of 60 rows drawn from them.

    An "exact" row is a copy of its base point, a "near" one is shifted by
    under 0.9e-9, so two near rows of one base point may or may not be
    within epsilon of each other; "mixed" rows are either.
    """
    base = rng.uniform(-1.0, 1.0, size=(20, 2))
    batch = base[rng.integers(0, 20, size=60)]
    shifted = rng.random(60) < {"exact": 0.0, "near": 1.0, "mixed": 0.5}[kind]
    batch[shifted, 1] += rng.uniform(-0.9e-9, 0.9e-9, size=np.count_nonzero(shifted))
    return base, batch


@pytest.mark.parametrize("clear", ["none", "pool", "random"])
@pytest.mark.parametrize("kind", ["exact", "near", "mixed"])
@pytest.mark.parametrize("chunk_rows", [surrogate_mod.DISTINCT_CHUNK_ROWS, 2])
def test_first_distinct_matches_single_inserts(monkeypatch, chunk_rows, kind, clear):
    # clear: every row; the rows more than epsilon from a pool holding 5 of
    # the base points; or a random mask, under which copies differ
    monkeypatch.setattr(surrogate_mod, "DISTINCT_CHUNK_ROWS", chunk_rows)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        base, batch = seeded_batch(kind, rng)
        pool = pool_from(base[:5], np.zeros(5)) if clear == "pool" else EvaluatedPool(2)
        mask = {"none": np.ones(len(batch), dtype=bool),
                "pool": pool.min_distance(batch) > surrogate_mod.EXCLUSION_EPSILON,
                "random": rng.random(len(batch)) < 0.7}[clear]
        kept = surrogate_mod.first_distinct(batch, mask)
        if clear == "pool":  # the pool's own exclusion rule, checked before the inserts below
            assert pool.admissible(batch).tolist() == kept.tolist()
        # a row outside the mask is neither inserted nor held against later rows
        singles = [bool(m) and bool(pool.add(row[None], [1.0])[0]) for row, m in zip(batch, mask)]
        assert kept.tolist() == singles
        assert 0 < np.count_nonzero(kept) < len(batch)


def test_pool_arrays_equal_stacked_accepted_items():
    rng = np.random.default_rng(5)
    pool = EvaluatedPool(3)
    accepted = []
    for point in rng.uniform(-1.0, 1.0, size=(40, 3)):
        for candidate in (point, point + 1e-10):  # the second is a duplicate
            fitness = float(rng.normal())
            if pool.add(candidate[None], [fitness])[0]:
                accepted.append((candidate, fitness))
    assert len(accepted) == len(pool) == 40
    points = np.array([point for point, _ in accepted], dtype=float)
    fitness = np.array([fitness for _, fitness in accepted], dtype=float)
    assert pool.points().tobytes() == points.tobytes() and pool.points().shape == (40, 3)
    assert pool.fitnesses().tobytes() == fitness.tobytes()


def test_pool_arrays_are_read_only():
    pool = pool_from([(0.0, 0.0), (1.0, 2.0)], [1.0, 3.0])
    with pytest.raises(ValueError):
        pool.points()[0, 0] = 5.0
    with pytest.raises(ValueError):
        pool.fitnesses()[0] = 5.0
    with pytest.raises(ValueError):
        pool.tail(1).fitnesses()[0] = 5.0
    assert pool.best_fitness() == 1.0


def test_pool_min_distance_and_extremes():
    pool = pool_from([(0.0, 0.0), (3.0, 4.0)], [2.0, 7.0])
    at_origin, at_three = pool.min_distance([[0.0, 0.0], [3.0, 0.0]])
    assert at_origin == 0.0
    assert at_three == pytest.approx(3.0)
    assert pool.best_fitness() == 2.0
    assert pool.worst_fitness() == 7.0


def test_pool_tail_window():
    pool = pool_from([(float(i), 0.0) for i in range(5)], range(5))
    tail = pool.tail(2)
    assert len(tail) == 2
    assert tail.points()[0, 0] == 3.0
    assert pool.tail(None) is pool
    assert pool.tail(99) is pool
    for n in (0, -3):  # slicing [-n:] would return every point, or all but the first three
        with pytest.raises(ValueError, match="n >= 1"):
            pool.tail(n)


def test_tail_view_and_parent_grow_apart():
    pool = pool_from([(float(i), 0.0) for i in range(5)], range(5))
    view = pool.tail(2)
    assert pool.add([[9.0, 9.0]], [-1.0]).all()
    assert len(view) == 2
    assert view.points().tolist() == [[3.0, 0.0], [4.0, 0.0]]
    assert view.fitnesses().tolist() == [3.0, 4.0]
    assert view.add([[7.0, 7.0]], [-2.0]).all()
    assert len(view) == 3 and view.best_fitness() == -2.0
    assert len(pool) == 6 and pool.best_fitness() == -1.0
    assert pool.min_distance([[7.0, 7.0]])[0] > 1.0


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
    at_origin, at_ones = model.predict([[0.0, 0.0], [1.0, 1.0]])
    assert at_origin == pytest.approx(0.7)
    assert at_ones == pytest.approx(3.7)
    linear = LsmModel(theta=np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
    xs = (-3.0, 0.5, 11.0)
    for x, got in zip(xs, linear.predict([[x, 123.0] for x in xs])):
        assert got == pytest.approx(x)


def test_lsm_exactness_on_its_own_model_class():
    rng = np.random.default_rng(41)
    obj = make_objective("bohachevsky")
    for _ in range(20):
        coeffs = rng.uniform(-3, 3, size=5)
        train = obj.sample_uniform(rng, int(rng.integers(5, 30)))
        model = fit_lsm(quadratic_pool(coeffs, train))
        probes = obj.sample_uniform(rng, 100)
        for p, got in zip(probes, model.predict(probes)):
            want = float(coeffs @ design_row(p))
            assert got == pytest.approx(want, abs=1e-6 * (1 + abs(want)))


def test_lsm_residual_local_optimality():
    rng = np.random.default_rng(17)
    pts = rng.uniform(-5, 5, size=(12, 2))
    values = [float(p @ p + rng.normal(0, 0.5)) for p in pts]
    pool = pool_from(pts, values)
    model = fit_lsm(pool)

    def ssr(theta):
        m = LsmModel(theta=theta)
        return sum((got - v) ** 2 for got, v in zip(m.predict(pts), values))

    base = ssr(model.theta)
    for i in range(5):
        for delta in (-1e-3, 1e-3):
            bumped = model.theta.copy()
            bumped[i] += delta
            assert ssr(bumped) >= base - 1e-12


@pytest.mark.parametrize("name", ["bohachevsky", "schwefel", "ackley"])
@pytest.mark.parametrize("dimension", [2, 10])
def test_fit_lsm_matches_lstsq_reference(name, dimension):
    # The normal equations go through the Bunch-Kaufman solve; numpy's SVD
    # least squares on the design matrix is an independent reference. Their
    # X^T X reach condition numbers of 1e12 (schwefel at d = 10), and the
    # largest difference measured was 4.4e-11 of the largest coefficient.
    obj = make_objective(name, dimension)
    pts = obj.sample_uniform(np.random.default_rng(dimension), 300)
    pool = pool_from(pts, [obj.evaluate(p) for p in pts])
    want = np.linalg.lstsq(np.vstack([design_row(p) for p in pts]), pool.fitnesses(), rcond=None)[0]
    got = fit_lsm(pool).theta
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


# ---------------------------------------------------------------- sigma


def test_compute_sigma_single_pair():
    assert fit_rbf(pool_from([(0.0, 0.0), (3.0, 4.0)], [0, 0])).sigma == pytest.approx(5.0, abs=1e-12)


def test_compute_sigma_three_collinear():
    pool = pool_from([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [0, 0, 0])
    assert fit_rbf(pool).sigma == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_compute_sigma_homogeneous_scaling():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-2, 2, size=(8, 2))
    base = fit_rbf(pool_from(pts, np.zeros(8))).sigma
    doubled = fit_rbf(pool_from(2.0 * pts, np.zeros(8))).sigma
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_compute_sigma_needs_two_points():
    with pytest.raises(SurrogateFitError):
        fit_rbf(pool_from([(0.0, 0.0)], [1.0]))


def test_compute_sigma_matches_pairwise_mean_oracle():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-10, 10, size=(9, 3))
    dists = [
        math.dist(pts[i], pts[j]) for i in range(len(pts)) for j in range(i + 1, len(pts))
    ]
    pool = pool_from(pts, np.zeros(len(pts)))
    assert fit_rbf(pool).sigma == pytest.approx(sum(dists) / len(dists), abs=1e-12)


# ---------------------------------------------------------------- RBF


def test_gaussian_bump_shape():
    radii = np.linspace(0.0, 50.0, 400)
    values = gaussian_bump(radii.copy(), sigma=3.0)
    assert np.array_equal(values, bump_reference(radii, 3.0))
    assert values[0] == 0.0
    assert np.all(np.diff(values) >= 0.0)
    assert np.all(values <= 1.0)


def test_fit_rbf_two_point_hand_solve():
    t1, t2 = 3.0, -1.5
    pool = pool_from([(0.0, 0.0), (3.0, 4.0)], [t1, t2])
    model = fit_rbf(pool)
    assert model.sigma == pytest.approx(5.0)
    phi_d = 1.0 - math.exp(-0.5)
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
            for got, fitness in zip(model.predict(pool.points()), pool.fitnesses()):
                assert abs(got - fitness) <= 1e-6 * scale


def test_fit_rbf_sigma_is_compute_sigma_bitwise():
    rng = np.random.default_rng(41)
    obj = make_objective("schwefel")
    for size in (2, 9, 60, 150):
        pts = obj.sample_uniform(rng, size)
        pool = pool_from(pts, [obj.evaluate(p) for p in pts])
        assert fit_rbf(pool).sigma == compute_sigma(pool)


def test_flagged_pool_fits_match_fresh_pools_bitwise():
    # A pool whose plain solve failed skips it from then on; a fresh pool of
    # the same items tries it first. The growing pool must never miss a fit
    # that the plain solve would have given.
    rng = np.random.default_rng(43)
    obj = make_objective("bohachevsky")
    pool = EvaluatedPool(obj.dimension)
    while len(pool) < 300:
        pts = obj.sample_uniform(rng, 100 if len(pool) == 0 else 8)
        pool.add(pts, [obj.evaluate(p) for p in pts])
        model = fit_rbf(pool)
        fresh = fit_rbf(pool_from(pool.points(), pool.fitnesses()))
        assert pool.needs_ridge  # at 100 points the plain system is already singular
        assert model.ridge > 0.0
        assert model.sigma == fresh.sigma
        assert model.ridge == fresh.ridge
        assert np.array_equal(model.weights, fresh.weights)


def test_flagged_pool_factors_once_per_fit(monkeypatch):
    # The flag is what saves the plain factorization: without it every fit of a
    # growing pool would factor its singular plain system before the ridged one.
    sizes = []
    real_solve = surrogate_mod.solve

    def counting(a, b):
        sizes.append(len(a))
        return real_solve(a, b)

    monkeypatch.setattr(surrogate_mod, "solve", counting)
    obj = make_objective("bohachevsky")
    rng = np.random.default_rng(1)
    pts = obj.sample_uniform(rng, 100)
    pool = pool_from(pts, [obj.evaluate(p) for p in pts])
    fit_rbf(pool)
    assert sizes == [100, 100]  # the plain system, then the ridged one
    assert pool.needs_ridge
    for size in (108, 116, 124):
        sizes.clear()
        pts = obj.sample_uniform(rng, 8)
        pool.add(pts, [obj.evaluate(p) for p in pts])
        fit_rbf(pool)
        assert sizes == [size]


@pytest.mark.parametrize("size", [150, 300, 500, 900])
def test_ridged_fit_matches_lu_reference(size):
    # The ridged system is factored by Bunch-Kaufman; a general LU of the
    # same ridged matrix gives the same model to rounding.
    rng = np.random.default_rng(size + 1)
    obj = make_objective("bohachevsky")
    pts = obj.sample_uniform(rng, size)
    pool = pool_from(pts, [obj.evaluate(p) for p in pts])
    model = fit_rbf(pool)
    assert model.ridge > 0.0
    phi = squareform(bump_reference(pdist(pts), model.sigma)) + model.ridge * np.eye(size)
    weights = scipy.linalg.lu_solve(scipy.linalg.lu_factor(phi), pool.fitnesses())
    assert np.max(np.abs(model.weights - weights)) <= 1e-6 * np.max(np.abs(weights))
    probes = np.vstack([obj.sample_uniform(rng, 200), pts[:20]])
    want = RbfModel(centers=pts, weights=weights, sigma=model.sigma, ridge=model.ridge).predict(probes)
    assert np.max(np.abs(model.predict(probes) - want)) <= 1e-9 * np.max(np.abs(want))


def test_rbf_fit_approximates_at_real_pool_sizes():
    # At the pool sizes of real runs the model does not interpolate: on uniform
    # bohachevsky draws of 100, 500 and 900 points, in that order from one
    # generator at seed 1, each fit carries a ridge and misses its own
    # training points by far more than rounding.
    obj = make_objective("bohachevsky")
    rng = np.random.default_rng(1)
    for size, ridge, largest, median in ((100, 3.9253960756876595e-07, 17.53924, 3.021573),
                                         (500, 1.9723953192327947e-06, 179.0794, 29.73940),
                                         (900, 3.555730981692082e-06, 277.7719, 39.68494)):
        pts = obj.sample_uniform(rng, size)
        pool = pool_from(pts, [obj.evaluate(p) for p in pts])
        model = fit_rbf(pool)
        residual = np.abs(model.predict(pts) - pool.fitnesses())
        assert len(pool) == size
        assert model.ridge == pytest.approx(ridge, rel=1e-12)  # no LAPACK call shapes the ridge
        # the residuals come from the solve: the OpenBLAS kernel moves them in the eighth digit
        assert residual.max() == pytest.approx(largest, rel=1e-5)
        assert np.median(residual) == pytest.approx(median, rel=1e-5)


def test_tail_view_of_flagged_pool_is_unflagged():
    rng = np.random.default_rng(47)
    obj = make_objective("bohachevsky")
    pts = obj.sample_uniform(rng, 120)
    pool = pool_from(pts, [obj.evaluate(p) for p in pts])
    assert fit_rbf(pool).ridge > 0.0 and pool.needs_ridge
    assert pool.tail(None).needs_ridge
    window = pool.tail(10)
    assert not window.needs_ridge
    assert fit_rbf(window).ridge == 0.0  # a small window interpolates again
    assert pool.needs_ridge


def test_fit_rbf_single_point_fails():
    with pytest.raises(SurrogateFitError):
        fit_rbf(pool_from([(0.0, 0.0)], [1.0]))


def test_fit_rbf_fails_when_the_ridged_system_is_singular_too(monkeypatch):
    def singular(a, b):
        raise SingularMatrixError("injected")

    monkeypatch.setattr(surrogate_mod, "solve", singular)
    pool = pool_from([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [1.0, 2.0, 6.0])
    with pytest.raises(SurrogateFitError, match="singular even with ridge"):
        fit_rbf(pool)
    assert pool.needs_ridge
    model, ok = fit_or_fallback("rbf", pool)
    assert not ok
    assert isinstance(model, MeanModel) and model.mean_fitness == 3.0


def test_predict_rbf_far_field_limit():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(6, 2))
    pool = pool_from(pts, rng.uniform(-5, 5, size=6))
    model = fit_rbf(pool)
    total = float(np.sum(model.weights))
    far = np.array([100.0 * model.sigma, 100.0 * model.sigma])
    assert abs(model.predict(far[None])[0] - total) <= 1e-3 * abs(total)


def test_predict_rbf_zero_weights():
    model = fit_rbf(pool_from([(0.0, 0.0), (1.0, 1.0)], [0.0, 0.0]))
    assert np.allclose(model.weights, 0.0)
    assert model.predict([[0.3, 0.9]])[0] == 0.0


# ---------------------------------------------------------------- dispatch


def test_fit_dispatch_lsm_exact_recovery():
    pool = quadratic_pool([0.7, 0.0, 0.0, 1.0, 2.0], GENERAL_POSITION_6)
    model = fit("lsm", pool)
    assert np.allclose(model.theta, [0.7, 0.0, 0.0, 1.0, 2.0], atol=1e-8)


def test_fit_dispatch_rbf_interpolates():
    pool = pool_from([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [1.0, 2.0, 3.0])
    model = fit("rbf", pool)
    for got, fitness in zip(model.predict(pool.points()), pool.fitnesses()):
        assert got == pytest.approx(fitness, abs=1e-6)


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
    assert model.predict([[9.0, 9.0]])[0] == pytest.approx(2.0)
    model, ok = fit_or_fallback("rbf", pool)
    assert ok


def test_model_invariant_validation():
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


# ---------------------------------------------------------------- batch bits
# The batch methods must give, row for row, the bits of these per-point
# formulas: every seeded run's output depends on them.


def bump_reference(r, sigma):
    return 1.0 - np.exp(-(r * r) / (2.0 * sigma * sigma))


def lsm_row_reference(model, x):
    d = model.dimension
    return float(model.theta[0] + model.theta[1 : d + 1] @ x + model.theta[d + 1 :] @ (x * x))


def distance_row_reference(centers, x):
    """Distances from x to each center, squared differences summed in coordinate order."""
    diffs = centers - x
    total = np.zeros(len(centers))
    for term in (diffs * diffs).T:
        total = total + term
    return np.sqrt(total)


def rbf_row_reference(model, x):
    return float(model.weights @ bump_reference(distance_row_reference(model.centers, x), model.sigma))


def min_distance_row_reference(pool, x):
    return float(np.min(distance_row_reference(pool.points(), x)))


@pytest.mark.parametrize("size", [20, 60, 150, 400, 900])
def test_batch_predict_and_min_distance_match_row_references_bitwise(size):
    rng = np.random.default_rng(size)
    for name, dimension in (("bohachevsky", 2), ("schwefel", 5), ("ackley", 9)):
        obj = make_objective(name, dimension)
        pts = obj.sample_uniform(rng, size)
        pool = pool_from(pts, [obj.evaluate(p) for p in pts])
        probes = np.vstack([obj.sample_uniform(rng, 60), pts[:5]])
        lsm, rbf = fit_lsm(pool), fit_rbf(pool)
        if dimension == 2:  # from about 55 points on, 2-D pools carry a ridge
            assert (rbf.ridge > 0.0) == (size >= 60)
        for model, reference in ((lsm, lsm_row_reference), (rbf, rbf_row_reference)):
            want = np.array([reference(model, x) for x in probes])
            assert model.predict(probes).tobytes() == want.tobytes()
        want = np.array([min_distance_row_reference(pool, x) for x in probes])
        assert pool.min_distance(probes).tobytes() == want.tobytes()


@pytest.mark.parametrize("dimension", [*range(1, 20), 64, 127, 128, 129, 136, 300])
def test_squared_distances_match_per_point_sums_bitwise(dimension):
    # the pool's distances sum the squared differences in coordinate order,
    # as pdist does; np.sum adds in another order from 8 coordinates on
    rng = np.random.default_rng(dimension)
    scale = 10.0 ** rng.uniform(-6, 6, size=dimension)
    centers = rng.standard_normal((40, dimension)) * scale
    points = np.vstack([rng.standard_normal((15, dimension)) * scale, centers[:3]])
    want = np.array([distance_row_reference(centers, x) for x in points])
    # column j: the distances to a pool holding centers[j] alone
    got = np.column_stack([pool_from([c], [0.0]).min_distance(points) for c in centers])
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == squareform(pdist(np.vstack([points, centers])))[: len(points), len(points) :].tobytes()
    assert pool_from(centers, np.zeros(40)).min_distance(points).tobytes() == want.min(axis=1).tobytes()
    if dimension <= 7:
        per_point = np.array([np.sqrt(np.sum((centers - x) ** 2, axis=1)) for x in points])
        assert got.tobytes() == per_point.tobytes()


@pytest.mark.parametrize("name, dimension", [("bohachevsky", 2), ("schwefel", 5), ("ackley", 9), ("ackley", 64)])
def test_rbf_scores_its_centers_with_the_fit_rows_bitwise(name, dimension):
    obj = make_objective(name, dimension)
    pts = obj.sample_uniform(np.random.default_rng(dimension), 120)
    model = fit_rbf(pool_from(pts, [obj.evaluate(p) for p in pts]))
    phi = squareform(gaussian_bump(pdist(pts), model.sigma))
    want = np.array([row @ model.weights for row in phi])
    assert model.predict(pts).tobytes() == want.tobytes()


def test_batch_shapes_and_empty_pool():
    model = LsmModel(theta=np.array([0.7, 0.0, 0.0, 1.0, 2.0]))
    assert model.predict(np.zeros((0, 2))).shape == (0,)
    assert MeanModel(2.0).predict(np.zeros((3, 2))).tolist() == [2.0, 2.0, 2.0]
    for bad in ([0.0, 0.0], np.zeros((2, 3))):
        with pytest.raises(ValueError):
            model.predict(bad)
    with pytest.raises(ValueError):
        MeanModel(2.0).predict([0.0, 0.0])
    assert EvaluatedPool(3).min_distance(np.zeros((2, 3))).tolist() == [math.inf, math.inf]
    with pytest.raises(ValueError, match=r"expected \(m, 3\)"):  # the width is the pool's from the start
        EvaluatedPool(3).add(np.zeros((1, 2)), [1.0])
    with pytest.raises(SurrogateFitError, match="need at least 7 items for dimension 3, have 0"):
        fit_lsm(EvaluatedPool(3))
    with pytest.raises(ValueError):
        pool_from([(0.0, 0.0)], [1.0]).min_distance([0.0, 0.0])
    for dimension in (2, 9):  # no rows against a non-empty pool
        pool = pool_from(np.eye(3, dimension), [1.0, 2.0, 3.0])
        none = np.zeros((0, dimension))
        assert pool.min_distance(none).shape == (0,)
        assert fit_rbf(pool).predict(none).shape == (0,)
        assert surrogate_mod.first_distinct(none, np.ones(0, dtype=bool)).shape == (0,)


def predict_row_by_row(self, points):
    reference = lsm_row_reference if isinstance(self, LsmModel) else rbf_row_reference
    return np.array([reference(self, x) for x in np.asarray(points, dtype=float)])


@pytest.mark.parametrize("kind, rate", [("lsm", 16), ("rbf", 1)])
def test_batch_scoring_run_matches_row_by_row_run(monkeypatch, kind, rate):
    obj = make_objective("ackley")
    cfg = SagrsConfig(model_kind=kind, evaluation_rate=rate, suggestions_per_cycle=4,
                      cycles=12, pool_handling="no_reset", initial_pool_size=100)
    batched = run_sagrs(obj, cfg, np.random.default_rng(23))
    monkeypatch.setattr(LsmModel if kind == "lsm" else RbfModel, "predict", predict_row_by_row)
    row_by_row = run_sagrs(obj, cfg, np.random.default_rng(23))
    assert len(batched.cycle_records) == len(row_by_row.cycle_records) == 12
    for a, b in zip(batched.cycle_records, row_by_row.cycle_records):
        assert a.surrogate_fit_ok and b.surrogate_fit_ok
        assert (a.accepted_count, a.best_true_fitness_so_far) == (b.accepted_count, b.best_true_fitness_so_far)
        assert a.suggested.tobytes() == b.suggested.tobytes()
        assert a.suggested_fitness.tobytes() == b.suggested_fitness.tobytes()
