"""The surrogate-assisted genetic recommendation loop.

Each cycle fits a meta-model to the pool of true-evaluated items, runs the
GA against it for ``evaluation_rate`` generations, suggests the best still
unseen candidates, true-evaluates them, and folds them back into the pool.
Suggested items are excluded from all future suggestions, so the search
space shrinks as the run progresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .evolution import GaConfig, Population, init_population, score_population, step_generation
from .objectives import Objective
from .surrogate import (
    EXCLUSION_EPSILON,
    MODEL_KINDS,
    EvaluatedPool,
    Item,
    MetaModel,
    first_distinct,
    fit_or_fallback,
)

POOL_HANDLING_MODES = ("reset", "no_reset")


@dataclass(frozen=True)
class SagrsConfig:
    model_kind: str = "lsm"
    evaluation_rate: int = 1  # GA generations per recommendation cycle; 0 = random recommender
    suggestions_per_cycle: int = 4
    cycles: int = 100
    pool_handling: str = "reset"
    initial_pool_size: int = 100
    ga: GaConfig = field(default_factory=GaConfig)
    training_window: int | None = None  # None = always train on the whole pool

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"model_kind must be one of {MODEL_KINDS}, got {self.model_kind!r}")
        if self.evaluation_rate < 0:
            raise ValueError("evaluation_rate must be >= 0")
        if self.suggestions_per_cycle < 1:
            raise ValueError("suggestions_per_cycle must be >= 1")
        if self.cycles < 1:
            raise ValueError("cycles must be >= 1")
        if self.pool_handling not in POOL_HANDLING_MODES:
            raise ValueError(f"pool_handling must be one of {POOL_HANDLING_MODES}, got {self.pool_handling!r}")
        if self.training_window is not None and self.training_window < 1:
            raise ValueError("training_window must be >= 1 when set")

    def validate_for(self, obj: Objective) -> None:
        floor = max(2 * obj.dimension + 1, 2)
        if self.initial_pool_size < floor:
            raise ValueError(
                f"initial_pool_size must be >= {floor} at dimension {obj.dimension} "
                "so both surrogates can fit"
            )


@dataclass(eq=False)
class CycleRecord:
    cycle_index: int  # 1-based
    suggested: list[Item]
    accepted_count: int
    best_true_fitness_so_far: float
    surrogate_fit_ok: bool


@dataclass(eq=False)
class RunResult:
    cycle_records: list[CycleRecord]
    best_fitness: float
    convergence_cycle: int
    acceptance_rate: float
    true_evaluations_used: int


def count_accepted(suggested: list[Item], pool_before: EvaluatedPool) -> int:
    """Suggestions evaluated strictly better than the pool's worst item."""
    worst = pool_before.worst_fitness()
    return sum(1 for item in suggested if item.fitness < worst)


def convergence_cycle(records: list[CycleRecord]) -> int:
    """1-based index of the last cycle that accepted a suggestion, 0 if none."""
    if not records:
        raise ValueError("need at least one cycle record")
    last = 0
    for record in records:
        if record.accepted_count >= 1:
            last = record.cycle_index
    return last


def acceptance_rate(records: list[CycleRecord]) -> float:
    """Accepted suggestions as a fraction of everything suggested."""
    if not records:
        raise ValueError("need at least one cycle record")
    suggested = sum(len(r.suggested) for r in records)
    accepted = sum(r.accepted_count for r in records)
    return accepted / suggested


def select_suggestions(
    pop: Population,
    pool: EvaluatedPool,
    k: int,
    model: MetaModel,
    obj: Objective,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick k suggestion points, best predicted fitness first, as a (k, d) array.

    Candidates come from the population in ascending surrogate-score order;
    anything within EXCLUSION_EPSILON of a pool item or of an already chosen
    suggestion is skipped. If the population runs out, the remainder is
    drawn uniformly from the domain under the same exclusion check.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    score_population(pop, model.predict)
    return _admissible_rows(pop.individuals[np.argsort(pop.scores, kind="stable")], pool, k, obj, rng)


def draw_initial_pool(obj: Objective, size: int, rng: np.random.Generator) -> EvaluatedPool:
    """size uniform points, true-evaluated in draw order, as a new pool.

    A draw within EXCLUSION_EPSILON of an earlier kept one is replaced by a
    fresh draw, instead of double-evaluating the same spot.
    """
    pool = EvaluatedPool()
    points = _admissible_rows(np.empty((0, obj.dimension)), pool, size, obj, rng)
    pool.add(points, [obj.evaluate(p) for p in points])
    return pool


def _admissible_rows(
    candidates: np.ndarray, pool: EvaluatedPool, k: int, obj: Objective, rng: np.random.Generator
) -> np.ndarray:
    """The first k admissible rows of candidates followed by uniform draws.

    A row is admissible when it is more than EXCLUSION_EPSILON from every
    pool item and from every earlier admissible row. The draws come in blocks
    of as many rows as are missing, until k are admissible; this consumes the
    same random stream as drawing one point at a time. The candidates and
    each block are checked against the pool in one call.
    """
    clear = pool.min_distance(candidates) > EXCLUSION_EPSILON
    keep = first_distinct(candidates, clear)
    while np.count_nonzero(keep) < k:
        draws = obj.sample_uniform(rng, k - np.count_nonzero(keep))
        candidates = np.vstack((candidates, draws))
        clear = np.concatenate((clear, pool.min_distance(draws) > EXCLUSION_EPSILON))
        keep = first_distinct(candidates, clear)
    return candidates[keep][:k]


def run_sagrs(obj: Objective, cfg: SagrsConfig, rng: np.random.Generator) -> RunResult:
    """Run the full recommendation loop and summarize it.

    The initial pool is true-evaluated up front; every cycle then refits the
    surrogate, optimizes candidates against it, suggests, true-evaluates and
    re-inserts the suggestions with one pool insert. A failed surrogate fit
    degrades to a mean predictor for that cycle and is flagged in the cycle
    record.
    """
    cfg.validate_for(obj)
    pool = draw_initial_pool(obj, cfg.initial_pool_size, rng)
    evaluations = len(pool)

    records: list[CycleRecord] = []
    population: Population | None = None
    for cycle in range(1, cfg.cycles + 1):
        model, fit_ok = fit_or_fallback(cfg.model_kind, pool.tail(cfg.training_window))
        if cfg.pool_handling == "reset" or population is None:
            population = init_population(obj, cfg.ga, rng)
        else:
            # the surrogate changed, so cached scores are stale
            population = Population(individuals=population.individuals)
        for _ in range(cfg.evaluation_rate):
            population = step_generation(population, model.predict, cfg.ga, obj, rng)

        points = select_suggestions(population, pool, cfg.suggestions_per_cycle, model, obj, rng)
        fitness = [obj.evaluate(p) for p in points]
        suggested = [Item(point=p, fitness=f) for p, f in zip(points, fitness)]
        evaluations += len(suggested)
        accepted = count_accepted(suggested, pool)
        pool.add(points, fitness)
        records.append(
            CycleRecord(
                cycle_index=cycle,
                suggested=suggested,
                accepted_count=accepted,
                best_true_fitness_so_far=pool.best_fitness(),
                surrogate_fit_ok=fit_ok,
            )
        )

    return RunResult(
        cycle_records=records,
        best_fitness=pool.best_fitness(),
        convergence_cycle=convergence_cycle(records),
        acceptance_rate=acceptance_rate(records),
        true_evaluations_used=evaluations,
    )
