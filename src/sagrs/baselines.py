"""Comparison systems: a budget-matched plain GA and the random recommender.

The plain GA optimizes the true objective directly under a hard evaluation
budget, shaped so that population size and generation count are both
floor(sqrt(budget)). The random recommender is the recommendation loop with
the optimization switched off (evaluation rate 0, population reset every
cycle), i.e. a plain content-based recommender.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .evolution import GaConfig, init_population, score_population, step_generation
from .objectives import Objective
from .recommender import RunResult, SagrsConfig, run_sagrs


class BudgetExhaustedError(RuntimeError):
    """Raised on any true evaluation past the allowed budget."""


class BudgetedObjective:
    """Wraps an objective with a hard cap on true evaluations.

    Tracks how many evaluations were spent and the best value seen, so a run
    interrupted mid-generation still reports an honest optimum.
    """

    def __init__(self, inner: Objective, budget: int):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.inner = inner
        self.budget = budget
        self.used = 0
        self.best_fitness = math.inf
        self.best_point: np.ndarray | None = None

    def evaluate(self, point) -> float:
        if self.used >= self.budget:
            raise BudgetExhaustedError(f"evaluation budget of {self.budget} exhausted")
        value = self.inner.evaluate(point)
        self.used += 1
        if value < self.best_fitness:
            self.best_fitness = value
            self.best_point = np.asarray(point, dtype=float).copy()
        return value

    def evaluate_batch(self, points) -> np.ndarray:
        """The GA fitness contract: one ``evaluate`` per row, in row order.

        The budget check runs per point, so an exhausted budget stops the
        batch at the first row past it.
        """
        return np.array([self.evaluate(p) for p in points], dtype=float)


@dataclass(eq=False)
class BaselineResult:
    best_fitness: float
    best_point: np.ndarray | None
    true_evaluations_used: int
    generations_run: int
    population_size: int
    generations_planned: int


def ga_baseline_shape(n_eval: int) -> tuple[int, int]:
    """Population size and generation count for an evaluation budget."""
    if n_eval < 4:
        raise ValueError("budget must be >= 4 to shape a GA run")
    side = math.isqrt(n_eval)
    return side, side


def run_ga_baseline(
    obj: Objective,
    n_eval: int,
    ga: GaConfig | None = None,
    rng: np.random.Generator | None = None,
) -> BaselineResult:
    """Plain GA on the true objective under an n_eval evaluation budget.

    Lazy scoring means cached individuals (elites, clones) cost nothing, so
    the run normally finishes all generations under budget; if the budget
    runs out mid-generation the run stops there and reports what it saw.
    """
    n_pop, n_gen = ga_baseline_shape(n_eval)
    cfg = replace(ga if ga is not None else GaConfig(), population_size=n_pop)
    rng = rng if rng is not None else np.random.default_rng()
    budgeted = BudgetedObjective(obj, n_eval)
    population = init_population(obj, cfg, rng)
    generations = 0
    try:
        for _ in range(n_gen):
            population = step_generation(population, budgeted.evaluate_batch, cfg, obj, rng)
            generations += 1
        # the last generation's offspring still need scoring to count
        score_population(population, budgeted.evaluate_batch)
    except BudgetExhaustedError:
        pass
    return BaselineResult(
        best_fitness=budgeted.best_fitness,
        best_point=budgeted.best_point,
        true_evaluations_used=budgeted.used,
        generations_run=generations,
        population_size=n_pop,
        generations_planned=n_gen,
    )


def run_random_recommender(obj: Objective, cfg: SagrsConfig, rng: np.random.Generator) -> RunResult:
    """Recommendation loop with optimization disabled: rate 0, reset pool."""
    return run_sagrs(obj, replace(cfg, evaluation_rate=0, pool_handling="reset"), rng)
