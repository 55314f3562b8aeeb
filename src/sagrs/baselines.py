"""Comparison systems: a plain GA capped at a true-evaluation budget, and the random recommender.

The plain GA optimizes the true objective directly under a hard evaluation
budget, shaped so that population size and generation count are both
floor(sqrt(budget)); it never re-evaluates elites and clones, so it spends
less (``true_evals`` in runs.csv). The random recommender is the
recommendation loop with the optimization switched off (evaluation rate 0,
population reset every cycle), i.e. a plain content-based recommender.

Both return the loop's ``RunResult``. The GA has no recommendation cycles,
so its ``cycle_records`` is empty and its convergence cycle and acceptance
rate are None.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .evolution import GaConfig, init_population, score_population, step_generation
from .objectives import Objective
from .recommender import RunResult, SagrsConfig, run_sagrs


class BudgetExhaustedError(RuntimeError):
    """Raised on any true evaluation past the allowed budget."""


class BudgetedObjective:
    """Wraps an objective with a hard cap on true evaluations.

    ``values`` holds every true value paid for, in evaluation order: its
    length is the spend, and a run interrupted mid-generation still reports
    an honest optimum from it.
    """

    def __init__(self, inner: Objective, budget: int):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.inner = inner
        self.budget = budget
        self.values: list[float] = []

    def evaluate(self, point) -> float:
        if len(self.values) >= self.budget:
            raise BudgetExhaustedError(f"evaluation budget of {self.budget} exhausted")
        value = self.inner.evaluate(point)
        self.values.append(value)
        return value

    def evaluate_batch(self, points) -> np.ndarray:
        """The GA fitness contract: one ``evaluate`` per row, in row order.

        The budget check runs per point, so an exhausted budget stops the
        batch at the first row past it.
        """
        return np.array([self.evaluate(p) for p in points], dtype=float)


def shape_ga(n_eval: int, ga: GaConfig | None = None) -> tuple[GaConfig, int]:
    """run_ga_baseline's GA and generation count for an n_eval budget; ValueError if none fits it."""
    if n_eval < 4:
        raise ValueError(f"budget must be >= 4 to shape a GA run, got {n_eval}")
    side = math.isqrt(n_eval)
    return replace(ga if ga is not None else GaConfig(), population_size=side), side


def run_ga_baseline(
    obj: Objective,
    n_eval: int,
    ga: GaConfig | None = None,
    *,
    rng: np.random.Generator,
) -> RunResult:
    """Plain GA on the true objective under an n_eval evaluation budget.

    Lazy scoring means cached individuals (elites, clones) cost nothing, so
    the run normally finishes all generations under budget; if the budget
    runs out mid-generation the run stops there and reports what it saw.
    """
    cfg, n_gen = shape_ga(n_eval, ga)
    budgeted = BudgetedObjective(obj, n_eval)
    population = init_population(obj, cfg, rng)
    try:
        for _ in range(n_gen):
            population = step_generation(population, budgeted.evaluate_batch, cfg, obj, rng)
        # the last generation's offspring still need scoring to count
        score_population(population, budgeted.evaluate_batch)
    except BudgetExhaustedError:
        pass
    # NaN compares false, so starting the fold at inf keeps a NaN value, wherever it falls, from being the best
    return RunResult(cycle_records=[], best_fitness=min([math.inf, *budgeted.values]), convergence_cycle=None,
                     acceptance_rate=None, true_evaluations_used=len(budgeted.values))


def run_random_recommender(obj: Objective, cfg: SagrsConfig, rng: np.random.Generator) -> RunResult:
    """Recommendation loop with optimization disabled: rate 0, reset pool."""
    return run_sagrs(obj, replace(cfg, evaluation_rate=0, pool_handling="reset"), rng)
