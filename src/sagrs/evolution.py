"""Real-valued genetic algorithm over an arbitrary fitness contract.

The fitness contract is any callable that maps an (m, d) array of points to
their (m,) fitness, lower is better; the same engine optimizes against a
surrogate or against the true objective. Scoring is lazy: individuals carry
their score and a scored flag, and unchanged individuals are never
re-scored, which keeps true-objective budgets honest.
"""

from __future__ import annotations

import math
import numbers
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


def check_counts(owner, **minimums) -> None:
    """Check that each named field of owner is an int, not a bool, and at least its minimum.

    A minimum of None takes any int. A config file can hold any JSON value where a count belongs.
    """
    for name, minimum in minimums.items():
        value = getattr(owner, name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ValueError(f"{name} must be >= {minimum}")


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 50
    selection_factor: float = 0.9  # surviving fraction under truncation selection
    mutation_prob: float = 0.1
    recombination_prob: float = 0.05
    mutation_scale: float = 0.05  # noise std as a fraction of domain width
    elitism: int = 1

    def __post_init__(self):
        check_counts(self, population_size=2, elitism=None)
        for name in ("selection_factor", "mutation_prob", "recombination_prob", "mutation_scale"):
            rate = getattr(self, name)
            if isinstance(rate, bool) or not isinstance(rate, numbers.Real) or not math.isfinite(rate):
                raise ValueError(f"{name} must be a finite number, got {rate!r}")
        if not 0.0 < self.selection_factor <= 1.0:
            raise ValueError("selection_factor must be in (0, 1]")
        for name in ("mutation_prob", "recombination_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.mutation_scale < 0.0:
            raise ValueError("mutation_scale must be >= 0")
        if not 0 <= self.elitism < self.population_size:
            raise ValueError(f"elitism must be in [0, population_size {self.population_size}), got {self.elitism}")
        # step_generation carries the elites from the mating pool; slots past it are refilled
        mating_pool = survivor_count(self.selection_factor, self.population_size)
        if self.elitism > mating_pool:
            raise ValueError(f"elitism must be <= the mating pool, ceil(selection_factor * population_size) = "
                             f"{mating_pool}, got {self.elitism}")


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
    todo = (~pop.scored).nonzero()[0]
    if todo.size:
        pop.scores[todo] = fitness(pop.individuals.take(todo, axis=0))
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

    The random draws follow ``GA_RNG_LAYOUT``, which metadata.json records.
    """
    if len(pop) == 0:
        raise ValueError("population is empty")
    n = len(pop)
    d = pop.individuals.shape[1]
    score_population(pop, fitness)

    scores = pop.scores
    order = scores.argsort(kind="stable")
    m = survivor_count(cfg.selection_factor, n)

    # take is fancy indexing without its overhead, a copy of the same values
    a, b = order.take(rng.integers(0, m, size=(n - m, 2))).T  # parent rows of pop
    blended = (rng.random(n - m) < cfg.recombination_prob).nonzero()[0]  # refill slots
    # the survivors, then per refill slot the better parent: a clone keeps
    # its cached score, and the blended and mutated rows lose theirs below
    rows = order  # the ranks past the mating pool are not needed again
    rows[m:] = np.where(scores.take(a) <= scores.take(b), a, b)
    next_inds = pop.individuals.take(rows, axis=0)
    refreshed = np.zeros(n, dtype=bool)
    # an empty weight or noise block is not drawn: drawing it consumes no random numbers
    if blended.size:
        w = rng.random((blended.size, d))
        parent_a = pop.individuals.take(a.take(blended), axis=0)
        parent_b = pop.individuals.take(b.take(blended), axis=0)
        next_inds[m + blended] = w * parent_a + (1.0 - w) * parent_b
        refreshed[m + blended] = True

    mutants = cfg.elitism + (rng.random(n - cfg.elitism) < cfg.mutation_prob).nonzero()[0]
    if mutants.size:
        noise = rng.normal(size=(mutants.size, d))
        next_inds[mutants] = next_inds.take(mutants, axis=0) + noise * (cfg.mutation_scale * obj.width)
        refreshed[mutants] = True

    next_scores = scores.take(rows)
    next_scores[refreshed] = np.nan
    # clip, not np.maximum and np.minimum: at a bound of zero they can
    # disagree with it on the sign of a zero coordinate
    next_inds.clip(obj.lower, obj.upper, out=next_inds)
    return Population(individuals=next_inds, scores=next_scores, scored=~refreshed)
