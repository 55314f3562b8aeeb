"""Real-valued genetic algorithm over an arbitrary fitness contract.

The fitness contract is any callable that maps an (m, d) array of points to
their (m,) fitness, lower is better; the same engine optimizes against a
surrogate or against the true objective. Scoring is lazy: individuals carry
their score and a scored flag, and unchanged individuals are never
re-scored, which keeps true-objective budgets honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .objectives import Objective

FitnessContract = Callable[[np.ndarray], np.ndarray]

# How step_generation draws from the rng; metadata.json records it, since
# any other order gives other runs from the same seed.
GA_RNG_LAYOUT = (
    "one block per kind and generation, in order: parent pairs integers(0, m, (n - m, 2)); "
    "recombine flags random(n - m); blend weights random((b, d)) for the b recombined rows; "
    "mutate flags random(n - elitism); noise normal(size=(u, d)) for the u mutated rows"
)


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 50
    selection_factor: float = 0.9  # surviving fraction under truncation selection
    mutation_prob: float = 0.1
    recombination_prob: float = 0.05
    mutation_scale: float = 0.05  # noise std as a fraction of domain width
    elitism: int = 1

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 0.0 < self.selection_factor <= 1.0:
            raise ValueError("selection_factor must be in (0, 1]")
        for name in ("mutation_prob", "recombination_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.mutation_scale < 0.0:
            raise ValueError("mutation_scale must be >= 0")
        if not 0 <= self.elitism < self.population_size:
            raise ValueError("elitism must be in [0, population_size)")


@dataclass(eq=False)
class Population:
    individuals: np.ndarray  # (n, d)
    scores: np.ndarray | None = None  # (n,); rows not yet scored hold NaN
    scored: np.ndarray | None = None  # (n,) bool; if omitted, all rows are scored iff scores is given

    def __post_init__(self):
        if self.scored is None:
            self.scored = np.full(len(self), self.scores is not None)

    def __len__(self) -> int:
        return self.individuals.shape[0]

    @property
    def fully_scored(self) -> bool:
        return bool(np.all(self.scored))


def survivor_count(selection_factor: float, population_size: int) -> int:
    """Mating-pool size under truncation selection."""
    return math.ceil(selection_factor * population_size)


def init_population(obj: Objective, cfg: GaConfig, rng: np.random.Generator) -> Population:
    """Fresh uniform in-domain population, not yet scored."""
    return Population(individuals=obj.sample_uniform(rng, cfg.population_size))


def score_population(pop: Population, fitness: FitnessContract) -> Population:
    """Fill in missing scores in place with one fitness call over the unscored rows.

    Cached entries are left untouched, and a score of NaN counts as scored.
    """
    if pop.scores is None:
        pop.scores = np.full(len(pop), np.nan)
    todo = np.flatnonzero(~pop.scored)
    if todo.size:
        pop.scores[todo] = fitness(pop.individuals[todo])
        pop.scored[todo] = True
    return pop


def step_generation(
    pop: Population,
    fitness: FitnessContract,
    cfg: GaConfig,
    obj: Objective,
    rng: np.random.Generator,
) -> Population:
    """Advance one generation and return the new population.

    Score -> truncation-select the best ceil(selection_factor * n) as the
    mating pool -> refill to n (arithmetic blend with probability
    recombination_prob, else clone the better parent) -> Gaussian mutation
    per individual -> clip to bounds, with the elitism best carried through
    untouched at the front.

    Each kind of random value is drawn as one block, in this order (see
    ``GA_RNG_LAYOUT``): parent pairs, recombine flags, blend weights of the
    recombined rows, mutate flags, noise of the mutated rows.
    """
    if len(pop) == 0:
        raise ValueError("population is empty")
    n = len(pop)
    d = pop.individuals.shape[1]
    score_population(pop, fitness)

    order = np.argsort(pop.scores, kind="stable")
    m = survivor_count(cfg.selection_factor, n)

    a, b = order[rng.integers(0, m, size=(n - m, 2))].T  # parent rows of pop
    blend = rng.random(n - m) < cfg.recombination_prob
    w = rng.random((np.count_nonzero(blend), d))
    # the survivors, then per refill slot the better parent: a clone keeps
    # its cached score, and the blended slots are overwritten below
    rows = np.concatenate((order[:m], np.where(pop.scores[a] <= pop.scores[b], a, b)))
    next_inds = pop.individuals[rows]
    next_scores = pop.scores[rows]
    next_scored = np.ones(n, dtype=bool)
    next_inds[m:][blend] = w * pop.individuals[a[blend]] + (1.0 - w) * pop.individuals[b[blend]]
    next_scores[m:][blend] = np.nan
    next_scored[m:][blend] = False

    mutate = rng.random(n - cfg.elitism) < cfg.mutation_prob
    noise = rng.normal(size=(np.count_nonzero(mutate), d))
    mutants = next_inds[cfg.elitism:]
    mutants[mutate] = mutants[mutate] + noise * (cfg.mutation_scale * obj.width)
    next_scores[cfg.elitism:][mutate] = np.nan
    next_scored[cfg.elitism:][mutate] = False

    np.clip(next_inds, obj.lower, obj.upper, out=next_inds)
    return Population(individuals=next_inds, scores=next_scores, scored=next_scored)


def best_k(pop: Population, k: int) -> list[tuple[np.ndarray, float]]:
    """The k lowest-score individuals, ties broken by lower index."""
    if not pop.fully_scored:
        raise ValueError("population must be fully scored")
    if not 1 <= k <= len(pop):
        raise ValueError(f"k must be in [1, {len(pop)}], got {k}")
    order = np.argsort(pop.scores, kind="stable")[:k]
    return [(pop.individuals[i].copy(), float(pop.scores[i])) for i in order]
