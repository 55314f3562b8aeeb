"""Meta-models fit to the pool of true-evaluated items.

Two interchangeable surrogates estimate the fitness of unseen points:

* ``LsmModel`` -- a second-order polynomial without cross terms,
  y = theta_0 + sum_i theta_i x_i + sum_j theta_{d+j} x_j^2, fit by least
  squares through the normal equations.
* ``RbfModel`` -- an interpolating radial basis function network with the
  minimization-adapted Gaussian phi(r) = 1 - exp(-r^2 / (2 sigma^2)) and
  the kernel width set to the mean pairwise distance of the pool.

Both expose ``predict(point) -> float``; ``fit(kind, pool)`` dispatches by
name. ``MeanModel`` is the degenerate fallback used when a fit fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .linalg import SingularMatrixError, solve

MODEL_KINDS = ("lsm", "rbf")

# Euclidean distance below which two pool items count as the same point.
DUPLICATE_EPSILON = 1e-9

# Relative ridge added to the RBF matrix diagonal when the plain fit is
# singular (near-duplicate points after boundary clipping).
RBF_RIDGE_FACTOR = 1e-8


class SurrogateFitError(RuntimeError):
    """Raised when a surrogate cannot be fit to the given pool."""


@dataclass(frozen=True, eq=False)
class Item:
    """A search-space point, optionally paired with its true fitness."""

    point: np.ndarray
    fitness: float | None = None


class EvaluatedPool:
    """Ordered collection of true-evaluated items; also the exclusion set.

    Insertion silently drops items within ``eps_dup`` of an existing one,
    keeping the interpolation matrix invertible and the pool a set.
    """

    def __init__(self, eps_dup: float = DUPLICATE_EPSILON, items: list[Item] | None = None):
        if eps_dup <= 0:
            raise ValueError("eps_dup must be positive")
        self.eps_dup = eps_dup
        self.items: list[Item] = []
        self._stacked: np.ndarray | None = None
        for item in items or []:
            self.add(item)

    def __len__(self) -> int:
        return len(self.items)

    def add(self, item: Item) -> bool:
        """Insert an evaluated item; returns False if it duplicates the pool."""
        if item.fitness is None:
            raise ValueError("pool items must carry a true fitness")
        if self.min_distance(item.point) <= self.eps_dup:
            return False
        self.items.append(item)
        self._stacked = None
        return True

    def points(self) -> np.ndarray:
        """All pool points stacked as an (n, d) array."""
        if self._stacked is None:
            self._stacked = np.array([it.point for it in self.items], dtype=float)
        return self._stacked

    def fitnesses(self) -> np.ndarray:
        return np.array([it.fitness for it in self.items], dtype=float)

    def min_distance(self, point) -> float:
        """Distance from a point to its nearest pool item (inf when empty)."""
        if not self.items:
            return math.inf
        diffs = self.points() - np.asarray(point, dtype=float)
        return float(np.sqrt(np.min(np.sum(diffs * diffs, axis=1))))

    def best_fitness(self) -> float:
        return float(min(it.fitness for it in self.items))

    def worst_fitness(self) -> float:
        return float(max(it.fitness for it in self.items))

    def mean_fitness(self) -> float:
        return float(np.mean(self.fitnesses()))

    def tail(self, n: int | None) -> "EvaluatedPool":
        """The most recent n items as a pool view (None = everything)."""
        if n is None or n >= len(self.items):
            return self
        view = EvaluatedPool.__new__(EvaluatedPool)
        view.eps_dup = self.eps_dup
        view.items = self.items[-n:]
        view._stacked = None
        return view


@dataclass(frozen=True, eq=False)
class LsmModel:
    """Least-squares quadratic response surface (no cross terms)."""

    theta: np.ndarray  # (beta_0, beta_1..beta_d, beta_{d+1}..beta_{2d})

    def __post_init__(self):
        if self.theta.ndim != 1 or self.theta.size < 3 or self.theta.size % 2 == 0:
            raise ValueError("theta must hold 2d+1 coefficients")

    @property
    def dimension(self) -> int:
        return (self.theta.size - 1) // 2

    def predict(self, point) -> float:
        x = np.asarray(point, dtype=float)
        d = self.dimension
        if x.shape != (d,):
            raise ValueError(f"point has shape {x.shape}, expected ({d},)")
        return float(self.theta[0] + self.theta[1 : d + 1] @ x + self.theta[d + 1 :] @ (x * x))


@dataclass(frozen=True, eq=False)
class RbfModel:
    """Interpolating RBF network over the pool points."""

    centers: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,)
    sigma: float
    ridge: float = 0.0  # diagonal regularization actually applied, 0 if none

    def __post_init__(self):
        if self.weights.shape != (self.centers.shape[0],):
            raise ValueError("need exactly one weight per center")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")

    def predict(self, point) -> float:
        x = np.asarray(point, dtype=float)
        if x.shape != (self.centers.shape[1],):
            raise ValueError(f"point has shape {x.shape}, expected ({self.centers.shape[1]},)")
        dist = np.sqrt(np.sum((self.centers - x) ** 2, axis=1))
        return float(self.weights @ gaussian_bump(dist, self.sigma))


@dataclass(frozen=True)
class MeanModel:
    """Constant predictor; the fallback when a real fit is impossible."""

    mean_fitness: float

    def predict(self, point) -> float:
        return self.mean_fitness


MetaModel = LsmModel | RbfModel | MeanModel


def gaussian_bump(r, sigma: float):
    """Minimization-adapted Gaussian activation: 0 at r=0, saturating at 1."""
    r = np.asarray(r, dtype=float)
    return 1.0 - np.exp(-(r * r) / (2.0 * sigma * sigma))


def design_row(x: np.ndarray) -> np.ndarray:
    """Feature row (1, x_1..x_d, x_1^2..x_d^2) for the quadratic surface."""
    return np.concatenate(([1.0], x, x * x))


def fit_lsm(pool: EvaluatedPool) -> LsmModel:
    """Fit the quadratic surface by solving the normal equations.

    Needs at least 2d+1 items; raises SurrogateFitError when underdetermined
    or when the items are degenerate enough to make X^T X singular.
    """
    n = len(pool)
    if n == 0:
        raise SurrogateFitError("cannot fit to an empty pool")
    d = pool.points().shape[1]
    if n < 2 * d + 1:
        raise SurrogateFitError(f"need at least {2 * d + 1} items for dimension {d}, have {n}")
    pts = pool.points()
    x_mat = np.hstack([np.ones((n, 1)), pts, pts * pts])
    y = pool.fitnesses().reshape(n, 1)
    # A contiguous copy: x_mat.T @ x_mat is computed differently and its
    # bits differ, which would change every LSM run's output.
    xt = x_mat.T.copy()
    try:
        theta = solve(xt @ x_mat, xt @ y)
    except SingularMatrixError as exc:
        raise SurrogateFitError(f"normal equations are singular: {exc}") from exc
    return LsmModel(theta=theta.ravel())


def compute_sigma(pool: EvaluatedPool) -> float:
    """Mean Euclidean distance over all unordered pairs of pool points."""
    if len(pool) < 2:
        raise SurrogateFitError("kernel width needs at least 2 pool items")
    return float(np.mean(pdist(pool.points())))


def fit_rbf(pool: EvaluatedPool) -> RbfModel:
    """Fit interpolation weights by solving the activation system.

    Retries once with a small diagonal ridge when the plain system is
    singular; raises SurrogateFitError if that fails too.
    """
    n = len(pool)
    if n < 2:
        raise SurrogateFitError("RBF interpolation needs at least 2 pool items")
    sigma = compute_sigma(pool)
    pts = pool.points()
    phi = gaussian_bump(squareform(pdist(pts)), sigma)
    targets = pool.fitnesses().reshape(n, 1)
    try:
        weights = solve(phi, targets)
        ridge = 0.0
    except SingularMatrixError:
        # phi has a zero diagonal, so scale the ridge by the mean row mass
        # instead of the trace.
        ridge = RBF_RIDGE_FACTOR * float(np.sum(np.abs(phi))) / n
        try:
            weights = solve(phi + ridge * np.eye(n), targets)
        except SingularMatrixError as exc:
            raise SurrogateFitError(f"activation matrix is singular even with ridge: {exc}") from exc
    return RbfModel(centers=pts.copy(), weights=weights.ravel(), sigma=sigma, ridge=ridge)


def fit(kind: str, pool: EvaluatedPool) -> MetaModel:
    """Fit the surrogate named by kind ('lsm' or 'rbf')."""
    if kind == "lsm":
        return fit_lsm(pool)
    if kind == "rbf":
        return fit_rbf(pool)
    raise ValueError(f"unknown meta-model kind {kind!r}; choose from {MODEL_KINDS}")


def fit_or_fallback(kind: str, pool: EvaluatedPool) -> tuple[MetaModel, bool]:
    """Fit the requested surrogate, degrading to a mean predictor on failure.

    Returns (model, fit_ok); the fallback keeps the recommendation loop
    alive through its earliest cycles and degenerate pools.
    """
    try:
        return fit(kind, pool), True
    except SurrogateFitError:
        return MeanModel(pool.mean_fitness()), False
