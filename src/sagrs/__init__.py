"""Surrogate-assisted genetic recommendation benchmark.

Recommendations are optimized by a genetic algorithm against a meta-model
fit to the pool of true-evaluated items, then evaluated on the true
objective, excluded from future search, and folded back into the pool.
Benchmark objectives simulate the evaluating user.
"""

__version__ = "0.1.0"

from .baselines import (
    BaselineResult,
    BudgetedObjective,
    BudgetExhaustedError,
    ga_baseline_shape,
    run_ga_baseline,
    run_random_recommender,
)
from .evolution import GaConfig, Population, best_k, init_population, step_generation
from .harness import (
    ComparisonResult,
    ExperimentResult,
    ExperimentSpec,
    SummaryStats,
    run_compare,
    run_experiment,
    summarize,
)
from .objectives import OBJECTIVE_NAMES, Objective, make_objective
from .recommender import (
    CycleRecord,
    RunResult,
    SagrsConfig,
    acceptance_rate,
    convergence_cycle,
    count_accepted,
    run_sagrs,
    select_suggestions,
)
from .surrogate import (
    EvaluatedPool,
    Item,
    LsmModel,
    MeanModel,
    MetaModel,
    RbfModel,
    SurrogateFitError,
    compute_sigma,
    fit,
    fit_lsm,
    fit_or_fallback,
    fit_rbf,
)

__all__ = [
    "BaselineResult",
    "BudgetedObjective",
    "BudgetExhaustedError",
    "ComparisonResult",
    "CycleRecord",
    "EvaluatedPool",
    "ExperimentResult",
    "ExperimentSpec",
    "GaConfig",
    "Item",
    "LsmModel",
    "MeanModel",
    "MetaModel",
    "OBJECTIVE_NAMES",
    "Objective",
    "Population",
    "RbfModel",
    "RunResult",
    "SagrsConfig",
    "SummaryStats",
    "SurrogateFitError",
    "acceptance_rate",
    "best_k",
    "compute_sigma",
    "convergence_cycle",
    "count_accepted",
    "fit",
    "fit_lsm",
    "fit_or_fallback",
    "fit_rbf",
    "ga_baseline_shape",
    "init_population",
    "make_objective",
    "run_compare",
    "run_experiment",
    "run_ga_baseline",
    "run_random_recommender",
    "run_sagrs",
    "select_suggestions",
    "step_generation",
    "summarize",
]
