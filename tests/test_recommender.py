import numpy as np
import pytest

import sagrs.recommender as recommender_mod
import sagrs.surrogate as surrogate_mod
from sagrs.evolution import GaConfig, Population, init_population, score_population, step_generation
from sagrs.objectives import Objective, make_objective
from sagrs.recommender import (
    CycleRecord,
    SagrsConfig,
    acceptance_rate,
    convergence_cycle,
    count_accepted,
    run_sagrs,
    select_suggestions,
)
from sagrs.surrogate import EXCLUSION_EPSILON, EvaluatedPool, MeanModel, SurrogateFitError, fit_lsm


def recording_objective(name="bohachevsky", dimension=2):
    """Objective whose evaluate() logs every true evaluation, in order."""
    base = make_objective(name, dimension)
    log = []

    def observed(x):
        log.append(np.array(x, dtype=float))
        return base.fn(x)

    spy = Objective(name=base.name, dimension=base.dimension,
                    lower=base.lower, upper=base.upper, fn=observed)
    return spy, log


def small_config(**overrides):
    defaults = dict(model_kind="lsm", evaluation_rate=1, suggestions_per_cycle=3,
                    cycles=8, initial_pool_size=12,
                    ga=GaConfig(population_size=20))
    defaults.update(overrides)
    return SagrsConfig(**defaults)


def pool_from(points, values):
    pool = EvaluatedPool(np.shape(points)[1])
    pool.add(np.asarray(points, float), np.asarray(values, float))
    return pool


def records_from_counts(accepted_counts, per_cycle=4):
    return [CycleRecord(i, np.zeros((per_cycle, 2)), np.zeros(per_cycle), count, 0.0, True)
            for i, count in enumerate(accepted_counts, start=1)]


# ------------------------------------------------------------ config


def test_config_validation():
    with pytest.raises(ValueError):
        SagrsConfig(model_kind="kriging")
    with pytest.raises(ValueError):
        SagrsConfig(evaluation_rate=-1)
    with pytest.raises(ValueError):
        SagrsConfig(suggestions_per_cycle=0)
    with pytest.raises(ValueError):
        SagrsConfig(pool_handling="sometimes")
    # counts are checked before a run spends true evaluations on its initial pool
    for bad in ({"cycles": 2.5}, {"cycles": True}, {"suggestions_per_cycle": 2.5},
                {"initial_pool_size": 10.5}, {"training_window": 3.5}, {"evaluation_rate": 1.0},
                {"cycles": None}, {"initial_pool_size": None}):
        [(name, value)] = bad.items()
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            SagrsConfig(**bad)
    with pytest.raises(ValueError):
        # 2d+1 = 5 at d=2
        small_config(initial_pool_size=4).validate_for(make_objective("bohachevsky"))
    # a window below the floor would make every cycle fall back to the mean model
    with pytest.raises(ValueError, match="training_window must be >= 5 at dimension 2 .* got 4"):
        small_config(training_window=4).validate_for(make_objective("bohachevsky"))
    small_config(training_window=5).validate_for(make_objective("bohachevsky"))


# ------------------------------------------------------------ metric ops


def test_count_accepted_direct_rule():
    pool = pool_from([(0.0, 0.0), (1.0, 0.0)], [2.0, 10.0])
    accepted = count_accepted(np.array([5.0, 12.0]), pool)
    assert accepted == 1 and type(accepted) is int


def test_count_accepted_none_better():
    pool = pool_from([(0.0, 0.0)], [10.0])
    assert count_accepted(np.array([11.0, 10.5]), pool) == 0


def test_count_accepted_tie_is_not_accepted():
    pool = pool_from([(0.0, 0.0)], [10.0])
    assert count_accepted(np.array([10.0]), pool) == 0


def test_convergence_cycle_last_acceptance():
    assert convergence_cycle(records_from_counts([1, 0, 2, 0])) == 3
    assert convergence_cycle(records_from_counts([0, 0, 0])) == 0
    assert convergence_cycle(records_from_counts([0, 1, 0, 2])) == 4
    with pytest.raises(ValueError):
        convergence_cycle([])


def test_acceptance_rate_totals():
    assert acceptance_rate(records_from_counts([2], per_cycle=4)) == 0.5
    assert acceptance_rate(records_from_counts([0, 0], per_cycle=3)) == 0.0
    assert acceptance_rate(records_from_counts([4, 4], per_cycle=4)) == 1.0
    with pytest.raises(ValueError):
        acceptance_rate([])


# ------------------------------------------------------------ suggestion selection


def test_select_suggestions_takes_lowest_scores():
    pool = pool_from([(50.0, 50.0)], [1.0])
    pop = Population(individuals=np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),
                     scores=np.array([0.7, 0.1, 0.5]))
    model = MeanModel(0.0)  # scores already cached; model is not consulted
    picks = select_suggestions(pop, pool, 2, model, make_objective("bohachevsky"),
                               np.random.default_rng(0))
    assert np.array_equal(picks[0], [2.0, 2.0])
    assert np.array_equal(picks[1], [3.0, 3.0])
    with pytest.raises(ValueError, match="k must be >= 1"):
        select_suggestions(pop, pool, 0, model, make_objective("bohachevsky"), np.random.default_rng(0))


def test_select_suggestions_skips_pool_duplicates():
    pool = pool_from([(2.0, 2.0)], [1.0])
    pop = Population(individuals=np.array([[2.0, 2.0], [3.0, 3.0], [4.0, 4.0]]),
                     scores=np.array([0.1, 0.5, 0.7]))
    picks = select_suggestions(pop, pool, 1, MeanModel(0.0), make_objective("bohachevsky"),
                               np.random.default_rng(0))
    assert np.array_equal(picks[0], [3.0, 3.0])


def test_select_suggestions_fills_with_uniform_samples():
    pool = pool_from([(1.0, 1.0), (2.0, 2.0)], [1.0, 2.0])
    # two population members duplicate pool points, so only two are admissible
    pop = Population(individuals=np.array([[1.0, 1.0], [2.0, 2.0], [5.0, 5.0], [6.0, 6.0]]),
                     scores=np.array([0.1, 0.2, 0.3, 0.4]))
    obj = make_objective("bohachevsky")
    picks = select_suggestions(pop, pool, 4, MeanModel(0.0), obj, np.random.default_rng(42))
    assert np.array_equal(picks[0], [5.0, 5.0])
    assert np.array_equal(picks[1], [6.0, 6.0])
    assert len(picks) == 4
    for p in picks[2:]:  # the uniform fills respect domain and exclusion
        assert np.all(p >= obj.lower) and np.all(p <= obj.upper)
        assert pool.min_distance([p])[0] > 1e-9


def test_select_suggestions_mutual_exclusion():
    pool = pool_from([(90.0, 90.0)], [1.0])
    pop = Population(individuals=np.array([[1.0, 1.0], [1.0, 1.0], [7.0, 7.0]]),
                     scores=np.array([0.1, 0.1, 0.9]))
    picks = select_suggestions(pop, pool, 2, MeanModel(0.0), make_objective("bohachevsky"),
                               np.random.default_rng(1))
    assert np.array_equal(picks[0], [1.0, 1.0])
    assert np.array_equal(picks[1], [7.0, 7.0])  # the clone was skipped


def test_select_suggestions_scores_population_with_model():
    obj = make_objective("bohachevsky")
    train = pool_from([(0.3, -0.7), (1.2, 0.4), (-0.5, 1.1), (2.0, -1.3), (-1.7, 0.9), (0.8, 2.2)],
                      [float(i * i) for i in range(6)])
    model = fit_lsm(train)
    pop = Population(individuals=np.array([[10.0, 10.0], [0.5, 0.5], [30.0, -30.0]]))
    picks = select_suggestions(pop, train, 3, model, obj, np.random.default_rng(0))
    want = pop.individuals[np.argsort(model.predict(pop.individuals), kind="stable")]
    assert all(np.array_equal(a, b) for a, b in zip(picks, want))


class NanForPositiveFirstCoordinate:
    """A surrogate that predicts NaN for some points and logs every row it is asked about."""

    def __init__(self):
        self.asked: list[tuple] = []

    def predict(self, points):
        self.asked.extend(map(tuple, points))
        return np.where(points[:, 0] > 0.0, np.nan, np.sum(points * points, axis=1))


def test_nan_prediction_counts_as_scored():
    obj = make_objective("bohachevsky")
    cfg = GaConfig(population_size=30, mutation_prob=0.5)
    rng = np.random.default_rng(19)
    model = NanForPositiveFirstCoordinate()
    pop = init_population(obj, cfg, rng)
    for _ in range(3):
        pop = step_generation(pop, model.predict, cfg, obj, rng)
    select_suggestions(pop, EvaluatedPool(obj.dimension), 4, model, obj, rng)
    assert pop.scored.all()
    assert np.isnan(pop.scores).any()  # NaN scores survived into the last population
    assert len(model.asked) == len(set(model.asked))  # no individual was asked twice
    assert set(map(tuple, pop.individuals)) <= set(model.asked)


# ------------------------------------------------------------ the loop


def test_rate_zero_skips_the_ga_entirely(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("step_generation must not run at rate 0")

    monkeypatch.setattr(recommender_mod, "step_generation", boom)
    obj = make_objective("bohachevsky")
    result = run_sagrs(obj, small_config(evaluation_rate=0, cycles=2), np.random.default_rng(0))
    assert result.true_evaluations_used == 12 + 2 * 3

    monkeypatch.undo()
    with pytest.raises(AssertionError):
        monkeypatch.setattr(recommender_mod, "step_generation", boom)
        run_sagrs(obj, small_config(evaluation_rate=1, cycles=1), np.random.default_rng(0))


def test_budget_accounting_exact():
    obj, log = recording_objective()
    cfg = small_config(cycles=6, suggestions_per_cycle=4, initial_pool_size=15)
    result = run_sagrs(obj, cfg, np.random.default_rng(8))
    assert result.true_evaluations_used == 15 + 6 * 4
    assert len(log) == result.true_evaluations_used


def test_full_scale_budget():
    obj = make_objective("bohachevsky")
    cfg = SagrsConfig(model_kind="lsm", evaluation_rate=1, suggestions_per_cycle=8,
                      cycles=100, initial_pool_size=100)
    result = run_sagrs(obj, cfg, np.random.default_rng(0))
    assert result.true_evaluations_used == 900
    assert len(result.cycle_records) == 100


def test_single_cycle_run_monotone_vs_initial_pool():
    obj, log = recording_objective()
    cfg = small_config(cycles=1, suggestions_per_cycle=1)
    result = run_sagrs(obj, cfg, np.random.default_rng(4))
    assert len(result.cycle_records) == 1
    initial_best = min(obj.fn(p) for p in log[:12])
    assert result.best_fitness <= initial_best


def test_exclusion_invariant_over_full_run():
    obj, log = recording_objective()
    cfg = small_config(cycles=10, evaluation_rate=2)
    run_sagrs(obj, cfg, np.random.default_rng(15))
    pts = np.array(log)
    for i in range(1, len(pts)):
        dists = np.sqrt(np.sum((pts[:i] - pts[i]) ** 2, axis=1))
        assert np.min(dists) > EXCLUSION_EPSILON


def test_best_fitness_so_far_monotone_and_pool_growth():
    obj, log = recording_objective()
    cfg = small_config(cycles=12)
    result = run_sagrs(obj, cfg, np.random.default_rng(2))
    bests = [r.best_true_fitness_so_far for r in result.cycle_records]
    assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))
    # every cycle contributes exactly suggestions_per_cycle evaluations
    for t, record in enumerate(result.cycle_records, start=1):
        assert len(record.suggested) == cfg.suggestions_per_cycle
    assert len(log) == cfg.initial_pool_size + cfg.cycles * cfg.suggestions_per_cycle
    assert result.best_fitness == bests[-1]


def test_run_is_deterministic():
    obj = make_objective("ackley")
    cfg = small_config(model_kind="rbf", cycles=5)
    a = run_sagrs(obj, cfg, np.random.default_rng(77))
    b = run_sagrs(obj, cfg, np.random.default_rng(77))
    assert a.best_fitness == b.best_fitness
    assert a.true_evaluations_used == b.true_evaluations_used
    assert a.convergence_cycle == b.convergence_cycle
    assert a.acceptance_rate == b.acceptance_rate
    for ra, rb in zip(a.cycle_records, b.cycle_records):
        assert ra.accepted_count == rb.accepted_count
        assert ra.suggested.tobytes() == rb.suggested.tobytes()
        assert ra.suggested_fitness.tobytes() == rb.suggested_fitness.tobytes()


def test_reset_and_no_reset_diverge():
    obj = make_objective("bohachevsky")
    a = run_sagrs(obj, small_config(pool_handling="reset", cycles=4), np.random.default_rng(5))
    b = run_sagrs(obj, small_config(pool_handling="no_reset", cycles=4), np.random.default_rng(5))
    pts_a = np.concatenate([r.suggested for r in a.cycle_records])
    pts_b = np.concatenate([r.suggested for r in b.cycle_records])
    assert not np.array_equal(pts_a, pts_b)


def test_fit_failure_falls_back_and_is_flagged(monkeypatch):
    def failing_fit(pool):
        raise SurrogateFitError("forced")

    monkeypatch.setattr(surrogate_mod, "fit_lsm", failing_fit)
    obj = make_objective("bohachevsky")
    cfg = small_config(cycles=3)
    result = run_sagrs(obj, cfg, np.random.default_rng(1))
    assert all(not r.surrogate_fit_ok for r in result.cycle_records)
    assert result.true_evaluations_used == cfg.initial_pool_size + 3 * cfg.suggestions_per_cycle


def test_suggested_items_carry_true_fitness():
    obj = make_objective("schwefel")
    result = run_sagrs(obj, small_config(cycles=3), np.random.default_rng(10))
    for record in result.cycle_records:
        want = np.array([obj.evaluate(p) for p in record.suggested])
        assert record.suggested.shape == (3, 2)
        assert record.suggested_fitness.tobytes() == want.tobytes()


# ------------------------------------------------------------ block draws


def per_point_initial_pool(obj, size, rng, rejected):
    """The initial pool drawn, checked and inserted one point at a time."""
    pool = EvaluatedPool(obj.dimension)
    while len(pool) < size:
        draw = obj.sample_uniform(rng, 1)
        if pool.min_distance(draw)[0] <= surrogate_mod.EXCLUSION_EPSILON:
            rejected["initial"] += 1
            continue
        pool.add(draw, [obj.evaluate(draw[0])])
    return pool


def per_point_select(pop, pool, k, model, obj, rng, rejected):
    """select_suggestions with a uniform fill drawn one point at a time."""
    eps = surrogate_mod.EXCLUSION_EPSILON
    score_population(pop, model.predict)
    pool_distances = pool.min_distance(pop.individuals)
    chosen = []

    def admissible(point, pool_distance):
        return pool_distance > eps and all(np.linalg.norm(point - c) > eps for c in chosen)

    for idx in np.argsort(pop.scores, kind="stable"):
        if len(chosen) == k:
            break
        if admissible(pop.individuals[idx], pool_distances[idx]):
            chosen.append(pop.individuals[idx].copy())
    while len(chosen) < k:
        draw = obj.sample_uniform(rng, 1)
        if admissible(draw[0], pool.min_distance(draw)[0]):
            chosen.append(draw[0])
        else:
            rejected["fill"] += 1
    return np.array(chosen)


@pytest.mark.parametrize("kind", ["lsm", "rbf"])
def test_block_draws_match_per_point_reference(monkeypatch, kind):
    # A wide exclusion radius makes draws collide with earlier ones, and a
    # 4-individual population leaves at least 2 of 6 suggestions to the fill.
    monkeypatch.setattr(surrogate_mod, "EXCLUSION_EPSILON", 3.0)  # every exclusion test reads it there
    obj = make_objective("ackley")
    cfg = small_config(model_kind=kind, suggestions_per_cycle=6, cycles=6, initial_pool_size=30,
                       ga=GaConfig(population_size=4))
    block_rng, reference_rng = np.random.default_rng(23), np.random.default_rng(23)
    block = run_sagrs(obj, cfg, block_rng)

    rejected = {"initial": 0, "fill": 0}
    monkeypatch.setattr(recommender_mod, "draw_initial_pool",
                        lambda *args: per_point_initial_pool(*args, rejected))
    monkeypatch.setattr(recommender_mod, "select_suggestions",
                        lambda *args: per_point_select(*args, rejected))
    reference = run_sagrs(obj, cfg, reference_rng)

    assert rejected["initial"] > 0 and rejected["fill"] > 0  # the collisions happened
    assert block_rng.bit_generator.state == reference_rng.bit_generator.state
    assert len(block.cycle_records) == len(reference.cycle_records)
    for got, want in zip(block.cycle_records, reference.cycle_records):
        assert got.suggested.tobytes() == want.suggested.tobytes()
        assert got.suggested_fitness.tobytes() == want.suggested_fitness.tobytes()
        assert (got.accepted_count, got.best_true_fitness_so_far, got.surrogate_fit_ok) == \
            (want.accepted_count, want.best_true_fitness_so_far, want.surrogate_fit_ok)
    assert block.best_fitness == reference.best_fitness
