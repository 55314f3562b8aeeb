import numpy as np
import pytest

import sagrs.baselines
from sagrs.baselines import (
    BudgetedObjective,
    BudgetExhaustedError,
    run_ga_baseline,
    run_random_recommender,
    shape_ga,
)
from sagrs.evolution import GaConfig, init_population
from sagrs.objectives import Objective, make_objective
from sagrs.recommender import RunResult, SagrsConfig, run_sagrs
from sagrs.surrogate import EXCLUSION_EPSILON


def recording(base, log):
    """base with every point it evaluates appended to log."""
    return Objective(name=base.name, dimension=base.dimension, lower=base.lower, upper=base.upper,
                     fn=lambda x: (log.append(np.array(x)), base.fn(x))[1])


def sphere_objective():
    box = make_objective("bohachevsky")  # [-100, 100]^2
    return Objective(name="sphere", dimension=2, lower=box.lower, upper=box.upper,
                     fn=lambda x: float(x @ x))


def assert_run_results_identical(a, b):
    assert a.best_fitness == b.best_fitness
    assert a.convergence_cycle == b.convergence_cycle
    assert a.acceptance_rate == b.acceptance_rate
    assert a.true_evaluations_used == b.true_evaluations_used
    assert len(a.cycle_records) == len(b.cycle_records)
    for ra, rb in zip(a.cycle_records, b.cycle_records):
        assert ra.cycle_index == rb.cycle_index
        assert ra.accepted_count == rb.accepted_count
        assert ra.best_true_fitness_so_far == rb.best_true_fitness_so_far
        assert ra.surrogate_fit_ok == rb.surrogate_fit_ok
        assert ra.suggested.tobytes() == rb.suggested.tobytes()
        assert ra.suggested_fitness.tobytes() == rb.suggested_fitness.tobytes()


def shape(n_eval):
    """shape_ga's (population size, generation count) for n_eval."""
    cfg, n_gen = shape_ga(n_eval)
    return cfg.population_size, n_gen


def test_shape_examples():
    assert shape(1000) == (31, 31)
    assert shape(900) == (30, 30)
    assert shape(4) == (2, 2)


def test_shape_never_over_budget():
    for n_eval in range(4, 10_001):
        n_pop, n_gen = shape(n_eval)
        assert n_pop == n_gen
        assert n_pop * n_gen <= n_eval


def test_shape_rejects_tiny_budgets():
    with pytest.raises(ValueError):
        shape_ga(3)


def test_budgeted_objective_counts_and_caps():
    inner = make_objective("bohachevsky")
    budgeted = BudgetedObjective(inner, budget=3)
    points = [[2.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    for point in points:
        budgeted.evaluate(point)
    assert len(budgeted.values) == 3
    # every value paid for, in call order: the GA's best-so-far trace
    assert budgeted.values == [inner.evaluate(p) for p in points]
    with pytest.raises(BudgetExhaustedError):
        budgeted.evaluate([9.0, 9.0])
    assert len(budgeted.values) == 3  # a refused call appends nothing
    assert budgeted.values == [inner.evaluate(p) for p in points]
    assert min(budgeted.values) == inner.evaluate([0.0, 0.0])
    with pytest.raises(ValueError, match="budget must be >= 1"):
        BudgetedObjective(make_objective("bohachevsky"), budget=0)


def test_ga_baseline_beats_random_sampling_on_sphere():
    # parameters chosen for search strength; the comparison defaults are
    # deliberately much weaker
    obj = sphere_objective()
    ga = GaConfig(selection_factor=0.5, mutation_prob=0.8, mutation_scale=0.02)
    ga_bests, random_bests = [], []
    for seed in range(10):
        result = run_ga_baseline(obj, 961, ga=ga, rng=np.random.default_rng(seed))
        ga_bests.append(result.best_fitness)
        samples = np.random.default_rng(10_000 + seed).uniform(-100, 100, size=(961, 2))
        random_bests.append(float(np.min(np.sum(samples * samples, axis=1))))
    assert np.median(ga_bests) < np.median(random_bests)


def test_ga_baseline_same_seed_same_trajectory():
    obj = make_objective("ackley")
    log_a, log_b = [], []
    a = run_ga_baseline(recording(obj, log_a), 400, rng=np.random.default_rng(6))
    b = run_ga_baseline(recording(obj, log_b), 400, rng=np.random.default_rng(6))
    assert a.best_fitness == b.best_fitness
    assert a.true_evaluations_used == b.true_evaluations_used == len(log_a)
    assert np.array(log_a).tobytes() == np.array(log_b).tobytes()


def test_ga_baseline_respects_budget(monkeypatch):
    shaped = []

    def init_recording(obj, cfg, rng):
        shaped.append(cfg)
        return init_population(obj, cfg, rng)

    monkeypatch.setattr(sagrs.baselines, "init_population", init_recording)
    obj = make_objective("schwefel")
    for n_eval in (4, 36, 100, 961):
        result = run_ga_baseline(obj, n_eval, rng=np.random.default_rng(n_eval))
        assert result.true_evaluations_used <= n_eval
        assert shaped.pop().population_size ** 2 <= n_eval


def test_ga_baseline_stops_on_exhaustion_mid_generation():
    # constant mutation forces a full re-scoring every generation
    obj = make_objective("bohachevsky")
    ga = GaConfig(mutation_prob=1.0, elitism=0)
    result = run_ga_baseline(obj, 9, ga=ga, rng=np.random.default_rng(0))
    assert result.true_evaluations_used == 9
    assert np.isfinite(result.best_fitness)


def test_ga_baseline_best_is_never_a_nan_value():
    # an objective may return NaN; a first value is the one a plain min() over the values would report
    ackley, log = make_objective("ackley"), []
    nan_first = recording(Objective(name="nan-first ackley", dimension=2, lower=ackley.lower, upper=ackley.upper,
                                    fn=lambda x: ackley.fn(x) if log[1:] else np.nan), log)
    result = run_ga_baseline(nan_first, 100, rng=np.random.default_rng(0))
    assert result.true_evaluations_used == len(log)
    assert result.best_fitness == min(ackley.fn(x) for x in log[1:])


def test_ga_baseline_returns_a_cycleless_run_result():
    result = run_ga_baseline(make_objective("ackley"), 36, rng=np.random.default_rng(1))
    assert isinstance(result, RunResult)
    assert result.cycle_records == []
    assert result.convergence_cycle is None and result.acceptance_rate is None
    with pytest.raises(TypeError):  # an unseeded run could not be reproduced
        run_ga_baseline(make_objective("ackley"), 36)


def test_random_recommender_equals_rate_zero_reset():
    obj = make_objective("bohachevsky")
    cfg = SagrsConfig(model_kind="lsm", evaluation_rate=5, suggestions_per_cycle=2,
                      cycles=6, pool_handling="no_reset", initial_pool_size=10,
                      ga=GaConfig(population_size=15))
    forced = SagrsConfig(model_kind="lsm", evaluation_rate=0, suggestions_per_cycle=2,
                         cycles=6, pool_handling="reset", initial_pool_size=10,
                         ga=GaConfig(population_size=15))
    for seed in range(10):
        via_baseline = run_random_recommender(obj, cfg, np.random.default_rng(seed))
        direct = run_sagrs(obj, forced, np.random.default_rng(seed))
        assert_run_results_identical(via_baseline, direct)


def test_random_recommender_respects_exclusion():
    log = []
    spy = recording(make_objective("ackley"), log)
    cfg = SagrsConfig(model_kind="rbf", suggestions_per_cycle=3, cycles=8,
                      initial_pool_size=8, ga=GaConfig(population_size=10))
    run_random_recommender(spy, cfg, np.random.default_rng(3))
    pts = np.array(log)
    for i in range(1, len(pts)):
        assert np.min(np.sqrt(np.sum((pts[:i] - pts[i]) ** 2, axis=1))) > EXCLUSION_EPSILON
