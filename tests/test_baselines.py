import numpy as np
import pytest

from sagrs.baselines import (
    BudgetedObjective,
    BudgetExhaustedError,
    ga_baseline_shape,
    run_ga_baseline,
    run_random_recommender,
)
from sagrs.evolution import GaConfig
from sagrs.objectives import Objective, make_objective
from sagrs.recommender import SagrsConfig, run_sagrs
from sagrs.surrogate import EXCLUSION_EPSILON


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
        assert len(ra.suggested) == len(rb.suggested)
        for ia, ib in zip(ra.suggested, rb.suggested):
            assert np.array_equal(ia.point, ib.point)
            assert ia.fitness == ib.fitness


def test_shape_examples():
    assert ga_baseline_shape(1000) == (31, 31)
    assert ga_baseline_shape(900) == (30, 30)
    assert ga_baseline_shape(4) == (2, 2)


def test_shape_never_over_budget():
    for n_eval in range(4, 10_001):
        n_pop, n_gen = ga_baseline_shape(n_eval)
        assert n_pop == n_gen
        assert n_pop * n_gen <= n_eval


def test_shape_rejects_tiny_budgets():
    with pytest.raises(ValueError):
        ga_baseline_shape(3)


def test_budgeted_objective_counts_and_caps():
    budgeted = BudgetedObjective(make_objective("bohachevsky"), budget=3)
    for i in range(3):
        budgeted.evaluate([float(i), 0.0])
    assert budgeted.used == 3
    with pytest.raises(BudgetExhaustedError):
        budgeted.evaluate([9.0, 9.0])
    assert budgeted.used == 3
    assert budgeted.best_fitness == make_objective("bohachevsky").evaluate([0.0, 0.0])
    assert np.array_equal(budgeted.best_point, [0.0, 0.0])


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
    a = run_ga_baseline(obj, 400, rng=np.random.default_rng(6))
    b = run_ga_baseline(obj, 400, rng=np.random.default_rng(6))
    assert a.best_fitness == b.best_fitness
    assert a.true_evaluations_used == b.true_evaluations_used
    assert np.array_equal(a.best_point, b.best_point)


def test_ga_baseline_respects_budget():
    obj = make_objective("schwefel")
    for n_eval in (4, 36, 100, 961):
        result = run_ga_baseline(obj, n_eval, rng=np.random.default_rng(n_eval))
        assert result.true_evaluations_used <= n_eval
        assert result.population_size ** 2 <= n_eval


def test_ga_baseline_stops_on_exhaustion_mid_generation():
    # constant mutation forces a full re-scoring every generation
    obj = make_objective("bohachevsky")
    ga = GaConfig(mutation_prob=1.0, elitism=0)
    result = run_ga_baseline(obj, 9, ga=ga, rng=np.random.default_rng(0))
    assert result.true_evaluations_used <= 9
    assert result.generations_run <= result.generations_planned
    assert np.isfinite(result.best_fitness)


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
    base = make_objective("ackley")
    spy = Objective(name=base.name, dimension=2, lower=base.lower, upper=base.upper,
                    fn=lambda x: (log.append(np.array(x)), base.fn(x))[1])
    cfg = SagrsConfig(model_kind="rbf", suggestions_per_cycle=3, cycles=8,
                      initial_pool_size=8, ga=GaConfig(population_size=10))
    run_random_recommender(spy, cfg, np.random.default_rng(3))
    pts = np.array(log)
    for i in range(1, len(pts)):
        assert np.min(np.sqrt(np.sum((pts[:i] - pts[i]) ** 2, axis=1))) > EXCLUSION_EPSILON
