"""Continuous benchmark objectives standing in for a user's true preferences.

All three functions are minimized with optimum value 0 and are evaluated on
their conventional box domains:

    bohachevsky  sum_i [x_i^2 + 2 x_{i+1}^2 - 0.3 cos(3 pi x_i)
                        - 0.4 cos(4 pi x_{i+1}) + 0.7]      on [-100, 100]^d
    ackley       -20 exp(-0.2 sqrt(mean(x^2)))
                 - exp(mean(cos(2 pi x))) + 20 + e          on [-15, 30]^d
    schwefel     418.98288727243369 d - sum_i x_i sin(sqrt(|x_i|))
                                                            on [-500, 500]^d

Dimension defaults to 2; all functions generalize to d coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

SCHWEFEL_OFFSET = 418.98288727243369


def bohachevsky(x: np.ndarray) -> float:
    a, b = x[:-1], x[1:]
    return float(
        np.sum(a**2 + 2.0 * b**2 - 0.3 * np.cos(3.0 * np.pi * a) - 0.4 * np.cos(4.0 * np.pi * b) + 0.7)
    )


def ackley(x: np.ndarray) -> float:
    d = x.size
    term1 = -20.0 * np.exp(-0.2 * np.sqrt(np.sum(x * x) / d))
    term2 = -np.exp(np.sum(np.cos(2.0 * np.pi * x)) / d)
    return float(term1 + term2 + 20.0 + np.e)


def schwefel(x: np.ndarray) -> float:
    return float(SCHWEFEL_OFFSET * x.size - np.sum(x * np.sin(np.sqrt(np.abs(x)))))


# name -> (function, lower, upper, minimum dimension)
_REGISTRY: dict[str, tuple[Callable[[np.ndarray], float], float, float, int]] = {
    "bohachevsky": (bohachevsky, -100.0, 100.0, 2),
    "ackley": (ackley, -15.0, 30.0, 1),
    "schwefel": (schwefel, -500.0, 500.0, 1),
}

OBJECTIVE_NAMES = tuple(sorted(_REGISTRY))


@dataclass(frozen=True, eq=False)
class Objective:
    """A box-constrained minimization target."""

    name: str
    dimension: int
    lower: np.ndarray  # shape (dimension,)
    upper: np.ndarray  # shape (dimension,)
    fn: Callable[[np.ndarray], float] = field(repr=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.lower.shape != (self.dimension,) or self.upper.shape != (self.dimension,):
            raise ValueError("bounds must have one entry per coordinate")
        if not np.all(self.lower < self.upper):
            raise ValueError("lower bound must be strictly below upper bound")

    def _check_point(self, point) -> np.ndarray:
        p = np.asarray(point, dtype=float)
        if p.shape != (self.dimension,):
            raise ValueError(f"point has shape {p.shape}, expected ({self.dimension},)")
        return p

    def evaluate(self, point) -> float:
        """True fitness of a point; lower is better."""
        return self.fn(self._check_point(point))

    def sample_uniform(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. uniform points over the box, shape (n, dimension)."""
        if n < 0:
            raise ValueError("sample count must be >= 0")
        return rng.uniform(self.lower, self.upper, size=(n, self.dimension))

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower


def make_objective(name: str, dimension: int = 2) -> Objective:
    """Look up a benchmark by name and instantiate it on its standard domain."""
    try:
        fn, lo, hi, min_dim = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown objective {name!r}; choose from {OBJECTIVE_NAMES}") from None
    if dimension < min_dim:
        raise ValueError(f"{name} needs dimension >= {min_dim}, got {dimension}")
    d = dimension
    return Objective(name=name, dimension=d, lower=np.full(d, lo), upper=np.full(d, hi), fn=fn)
