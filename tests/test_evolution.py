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


def test_generation_keeps_elites_and_clone_scores_and_unscores_the_rest():
    obj = make_objective("ackley")
    cfg = GaConfig(population_size=40, selection_factor=0.6, mutation_prob=0.3,
                   recombination_prob=0.4, mutation_scale=0.5, elitism=3)
    rng = np.random.default_rng(31)
    pop = init_population(obj, cfg, rng)
    for _ in range(20):
        score_population(pop, sphere)
        old = {row.tobytes(): score for row, score in zip(pop.individuals, pop.scores)}
        ranked = np.argsort(pop.scores, kind="stable")
        nxt = step_generation(pop, sphere, cfg, obj, rng)
        elites = ranked[:cfg.elitism]
        assert nxt.individuals[:cfg.elitism].tobytes() == pop.individuals[elites].tobytes()
        assert nxt.scores[:cfg.elitism].tobytes() == pop.scores[elites].tobytes()
        for row, score, scored in zip(nxt.individuals, nxt.scores, nxt.scored):
            if scored:  # a survivor or a clone: an old individual with its cached score
                assert old[row.tobytes()] == score
            else:
                assert np.isnan(score)
        # rows that are no old individual (mutated or blended) are never scored
        assert not any(s for row, s in zip(nxt.individuals, nxt.scored) if row.tobytes() not in old)
        assert not nxt.fully_scored
        assert np.all(nxt.individuals >= obj.lower) and np.all(nxt.individuals <= obj.upper)
        pop = nxt


@pytest.mark.parametrize("operator", ["recombination", "mutation"])
def test_operator_rates_within_binomial_bounds(operator):
    # With one operator switched off, the unscored rows a generation leaves
    # are exactly the rows the other operator touched.
    obj = make_objective("bohachevsky")
    p = 0.05 if operator == "recombination" else 0.1
    cfg = GaConfig(population_size=50, recombination_prob=p if operator == "recombination" else 0.0,
                   mutation_prob=p if operator == "mutation" else 0.0)
    m = survivor_count(cfg.selection_factor, cfg.population_size)
    slots = cfg.population_size - (m if operator == "recombination" else cfg.elitism)
    rng = np.random.default_rng(2000)
    pop = init_population(obj, cfg, rng)
    touched = 0
    generations = 2000
    for _ in range(generations):
        pop = step_generation(pop, sphere, cfg, obj, rng)
        touched += int(np.count_nonzero(~pop.scored))
    trials = generations * slots
    assert abs(touched - p * trials) <= 4.0 * np.sqrt(trials * p * (1.0 - p))


def looped_generation(pop, fitness, cfg, obj, rng):
    """step_generation written slot by slot over the declared block draws."""
    score_population(pop, fitness)
    n, d = pop.individuals.shape
    order = np.argsort(pop.scores, kind="stable")
    ranked, ranked_scores = pop.individuals[order], pop.scores[order]
    m = survivor_count(cfg.selection_factor, n)
    pairs = rng.integers(0, m, size=(n - m, 2))
    recombine = rng.random(n - m) < cfg.recombination_prob
    weights = iter(rng.random((int(recombine.sum()), d)))
    inds, scores, scored = list(ranked[:m]), list(ranked_scores[:m]), [True] * m
    for (i, j), blend in zip(pairs, recombine):
        if blend:
            w = next(weights)
            inds.append(w * ranked[i] + (1.0 - w) * ranked[j])
            scores.append(np.nan)
            scored.append(False)
        else:
            better = i if ranked_scores[i] <= ranked_scores[j] else j
            inds.append(ranked[better])
            scores.append(ranked_scores[better])
            scored.append(True)
    mutate = rng.random(n - cfg.elitism) < cfg.mutation_prob
    noise = iter(rng.normal(size=(int(mutate.sum()), d)))
    for slot in cfg.elitism + np.flatnonzero(mutate):
        inds[slot] = inds[slot] + next(noise) * (cfg.mutation_scale * obj.width)
        scores[slot] = np.nan
        scored[slot] = False
    return Population(np.clip(np.array(inds), obj.lower, obj.upper), np.array(scores), np.array(scored))


@pytest.mark.parametrize("cfg", [
    GaConfig(),
    GaConfig(population_size=30, selection_factor=0.5, mutation_prob=0.5, recombination_prob=0.5, elitism=2),
    GaConfig(population_size=7, selection_factor=1.0, mutation_prob=1.0, recombination_prob=1.0, elitism=0),
])
def test_generation_matches_slot_by_slot_reference(cfg):
    obj = make_objective("schwefel", 3)
    rng, reference_rng = np.random.default_rng(55), np.random.default_rng(55)
    pop = init_population(obj, cfg, rng)
    reference = init_population(obj, cfg, reference_rng)
    for _ in range(30):
        pop = step_generation(pop, sphere, cfg, obj, rng)
        reference = looped_generation(reference, sphere, cfg, obj, reference_rng)
        assert pop.individuals.tobytes() == reference.individuals.tobytes()
        assert pop.scores.tobytes() == reference.scores.tobytes()
        assert pop.scored.tolist() == reference.scored.tolist()
    assert rng.bit_generator.state == reference_rng.bit_generator.state
