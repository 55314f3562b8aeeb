"""Surrogate-assisted genetic recommendation benchmark.

Recommendations are optimized by a genetic algorithm against a meta-model
fit to the pool of true-evaluated items, then evaluated on the true
objective, excluded from future search, and folded back into the pool.
Benchmark objectives simulate the evaluating user.
"""

__version__ = "0.1.0"

from .baselines import run_ga_baseline, run_random_recommender
from .evolution import GaConfig
from .objectives import OBJECTIVE_NAMES, Objective, make_objective
from .recommender import SagrsConfig, run_sagrs

__all__ = [
    "GaConfig",
    "OBJECTIVE_NAMES",
    "Objective",
    "SagrsConfig",
    "make_objective",
    "run_ga_baseline",
    "run_random_recommender",
    "run_sagrs",
]
