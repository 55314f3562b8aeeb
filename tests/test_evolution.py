import numpy as np
import pytest

from sagrs.evolution import (
    GaConfig,
    Population,
    init_population,
    score_population,
    step_generation,
    survivor_count,
)
from sagrs.objectives import Objective, make_objective


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
    with pytest.raises(ValueError, match=r"elitism must be in \[0, population_size 50\), got -1"):
        GaConfig(elitism=-1)
    # the elites are carried from the mating pool, here of one survivor
    with pytest.raises(ValueError, match=r"elitism must be <= the mating pool, .* = 1, got 5"):
        GaConfig(population_size=10, selection_factor=0.1, elitism=5)
    for counts in ({"population_size": 10.5}, {"population_size": True}, {"elitism": 0.5}, {"elitism": False},
                   {"population_size": None}):
        with pytest.raises(ValueError, match="must be an integer"):
            GaConfig(**counts)
    for rates in ({"mutation_scale": float("nan")}, {"mutation_scale": float("inf")},
                  {"selection_factor": float("nan")}, {"recombination_prob": float("-inf")},
                  {"selection_factor": True}, {"mutation_prob": True}, {"recombination_prob": False},
                  {"mutation_scale": True}, {"mutation_prob": "0.1"}):
        with pytest.raises(ValueError, match="must be a finite number"):
            GaConfig(**rates)
    with pytest.raises(ValueError, match="mutation_scale must be >= 0"):
        GaConfig(mutation_scale=-0.1)


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


def test_clip_keeps_a_coordinate_at_its_bound_as_np_clip_does():
    # with a bound of zero only the sign of a zero coordinate tells them apart
    obj = Objective(name="zero-bounds", dimension=2, lower=np.array([0.0, -1.0]),
                    upper=np.array([1.0, -0.0]), fn=lambda x: float(np.sum(x * x)))
    cfg = GaConfig(population_size=4, selection_factor=1.0, mutation_prob=0.0, recombination_prob=0.0)
    individuals = np.array([[-0.0, 0.0]] * 4)
    pop = step_generation(Population(individuals.copy()), sphere, cfg, obj, np.random.default_rng(0))
    assert pop.individuals.tobytes() == np.clip(individuals, obj.lower, obj.upper).tobytes()


def test_step_generation_rejects_empty_population():
    obj = make_objective("bohachevsky")
    with pytest.raises(ValueError, match="population is empty"):
        step_generation(Population(np.empty((0, 2))), sphere, GaConfig(), obj, np.random.default_rng(0))


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
    # cached elites and clones are never rescored; at this seed no blend of two equal parents repeats a point
    assert len(seen) == len(set(seen))


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
        assert not nxt.scored.all()
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


def sphere_mostly_nan(points):
    """sphere, but NaN wherever the first coordinate exceeds -400 (90% of schwefel's domain)."""
    return np.where(points[:, 0] > -400.0, np.nan, sphere(points))


REFERENCE_CONFIGS = [
    GaConfig(),
    GaConfig(population_size=30, selection_factor=0.5, mutation_prob=0.5, recombination_prob=0.5, elitism=2),
    GaConfig(population_size=7, selection_factor=1.0, mutation_prob=1.0, recombination_prob=1.0, elitism=0),
    # the blend block, then the mutation block, is empty in every generation
    GaConfig(population_size=20, selection_factor=0.5, mutation_prob=0.3, recombination_prob=0.0),
    GaConfig(population_size=20, selection_factor=0.5, mutation_prob=0.0, recombination_prob=0.3),
]


def scored_nan_rows_over_reference_run(cfg, fitness):
    """Run 30 generations next to looped_generation, assert equal bits, count scored NaN rows."""
    obj = make_objective("schwefel", 3)
    rng, reference_rng = np.random.default_rng(55), np.random.default_rng(55)
    pop = init_population(obj, cfg, rng)
    reference = init_population(obj, cfg, reference_rng)
    scored_nan = 0
    for _ in range(30):
        pop = step_generation(pop, fitness, cfg, obj, rng)
        reference = looped_generation(reference, fitness, cfg, obj, reference_rng)
        assert pop.individuals.tobytes() == reference.individuals.tobytes()
        assert pop.scores.tobytes() == reference.scores.tobytes()
        assert pop.scored.tolist() == reference.scored.tolist()
        scored_nan += int(np.count_nonzero(pop.scored & np.isnan(pop.scores)))
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    return scored_nan


@pytest.mark.parametrize("cfg", REFERENCE_CONFIGS)
def test_generation_matches_slot_by_slot_reference(cfg):
    scored_nan_rows_over_reference_run(cfg, sphere)


@pytest.mark.parametrize("cfg", REFERENCE_CONFIGS)
def test_generation_with_nan_scores_matches_slot_by_slot_reference(cfg):
    scored_nan = scored_nan_rows_over_reference_run(cfg, sphere_mostly_nan)
    if cfg.mutation_prob < 1.0:  # at 1.0 every row is mutated and unscored
        assert scored_nan > 0  # survivors and clones with a cached NaN score stayed scored
