import numpy as np
import pytest

from sagrs.evolution import (
    GaConfig,
    Population,
    best_k,
    init_population,
    score_population,
    step_generation,
    survivor_count,
)
from sagrs.objectives import make_objective


def sphere(points):
    return np.sum(points * points, axis=1)


def one_by_one(fn):
    """A per-point function as a batch fitness callable."""
    return lambda points: np.array([fn(p) for p in points])


def as_multiset(individuals):
    return sorted(map(tuple, np.asarray(individuals)))


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population_size=1)
    with pytest.raises(ValueError):
        GaConfig(selection_factor=0.0)
    with pytest.raises(ValueError):
        GaConfig(mutation_prob=1.5)
    with pytest.raises(ValueError):
        GaConfig(elitism=50, population_size=50)


def test_init_population_in_domain_and_deterministic():
    obj = make_objective("bohachevsky")
    cfg = GaConfig(population_size=50)
    pop = init_population(obj, cfg, np.random.default_rng(5))
    assert len(pop) == 50
    assert np.all(pop.individuals >= -100.0) and np.all(pop.individuals <= 100.0)
    again = init_population(obj, cfg, np.random.default_rng(5))
    assert np.array_equal(pop.individuals, again.individuals)
    assert pop.scores is None


def test_all_operators_disabled_is_a_fixed_point():
    obj = make_objective("bohachevsky")
    cfg = GaConfig(population_size=12, selection_factor=1.0, mutation_prob=0.0,
                   recombination_prob=0.0, elitism=1)
    rng = np.random.default_rng(3)
    pop = init_population(obj, cfg, rng)
    before = as_multiset(pop.individuals)
    for _ in range(5):
        pop = step_generation(pop, sphere, cfg, obj, rng)
    assert as_multiset(pop.individuals) == before


def test_elitism_keeps_best_score_monotone():
    obj = make_objective("bohachevsky")
    cfg = GaConfig(population_size=20, elitism=1)
    rng = np.random.default_rng(11)
    pop = init_population(obj, cfg, rng)
    best = np.inf
    for _ in range(40):
        pop = step_generation(pop, sphere, cfg, obj, rng)
        current = float(np.nanmin(pop.scores))
        assert current <= best + 1e-15
        best = min(best, current)


def test_individuals_always_in_domain():
    obj = make_objective("ackley")
    cfg = GaConfig(population_size=30, mutation_prob=0.9, mutation_scale=0.5)
    rng = np.random.default_rng(21)
    pop = init_population(obj, cfg, rng)
    for _ in range(15):
        pop = step_generation(pop, sphere, cfg, obj, rng)
        assert np.all(pop.individuals >= obj.lower) and np.all(pop.individuals <= obj.upper)


def test_generation_sequence_deterministic():
    obj = make_objective("schwefel")
    cfg = GaConfig(population_size=25)

    def trajectory(seed):
        rng = np.random.default_rng(seed)
        pop = init_population(obj, cfg, rng)
        frames = []
        for _ in range(10):
            pop = step_generation(pop, one_by_one(obj.evaluate), cfg, obj, rng)
            frames.append(pop.individuals.copy())
        return frames

    a, b = trajectory(123), trajectory(123)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_truncation_survivor_counts():
    assert survivor_count(0.9, 10) == 9
    assert survivor_count(0.9, 50) == 45
    assert survivor_count(0.9, 31) == 28


def test_sphere_convergence_across_seeds():
    # engine sanity: the optimum is 0; tuned for search strength, unlike the
    # deliberately weak comparison defaults
    obj = make_objective("bohachevsky")  # the [-100, 100]^2 box
    cfg = GaConfig(population_size=50, selection_factor=0.5,
                   mutation_prob=0.5, mutation_scale=0.01)
    bests = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pop = init_population(obj, cfg, rng)
        best = np.inf
        for _ in range(100):
            pop = step_generation(pop, sphere, cfg, obj, rng)
            best = min(best, float(np.nanmin(pop.scores)))
        bests.append(best)
    assert np.median(bests) < 1e-1


def test_lazy_scoring_never_rescores_cached_individuals():
    obj = make_objective("bohachevsky")
    cfg = GaConfig(population_size=16)
    rng = np.random.default_rng(9)
    seen: list[tuple] = []

    def counting(points):
        seen.extend(map(tuple, points))
        return sphere(points)

    pop = init_population(obj, cfg, rng)
    for _ in range(8):
        pop = step_generation(pop, counting, cfg, obj, rng)
    score_population(pop, counting)
    assert len(seen) == len(set(seen))  # no point is ever paid for twice


def test_best_k_tie_breaks_and_bounds():
    pop = Population(individuals=np.array([[0.0], [1.0], [2.0]]),
                     scores=np.array([3.0, 1.0, 2.0]))
    (vec, score), = best_k(pop, 1)
    assert vec[0] == 1.0 and score == 1.0

    tied = Population(individuals=np.array([[0.0], [1.0], [2.0]]),
                      scores=np.array([1.0, 1.0, 2.0]))
    picks = best_k(tied, 2)
    assert [v[0] for v, _ in picks] == [0.0, 1.0]

    everything = best_k(tied, 3)
    assert [s for _, s in everything] == [1.0, 1.0, 2.0]

    with pytest.raises(ValueError):
        best_k(tied, 4)
    with pytest.raises(ValueError):
        best_k(tied, 0)
    with pytest.raises(ValueError):
        best_k(Population(individuals=np.zeros((2, 1))), 1)
