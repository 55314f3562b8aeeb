"""Meta-models fit to the pool of true-evaluated items.

Two interchangeable surrogates estimate the fitness of unseen points:

* ``LsmModel`` -- a second-order polynomial without cross terms,
  y = theta_0 + sum_i theta_i x_i + sum_j theta_{d+j} x_j^2, fit by least
  squares through the normal equations.
* ``RbfModel`` -- a radial basis function network with the
  minimization-adapted Gaussian phi(r) = 1 - exp(-r^2 / (2 sigma^2)) and
  the kernel width set to the mean pairwise distance of the pool; it
  interpolates small pools and carries a ridge on larger ones.

Both expose ``predict(points) -> scores``, which maps an (m, d) array to
(m,) predicted fitness; ``fit(kind, pool)`` dispatches by name.
``MeanModel`` is the degenerate fallback used when a fit fails.

``EvaluatedPool(dimension)`` holds the evaluated points and their fitness as
two read-only arrays; it is also the exclusion set (see ``EXCLUSION_EPSILON``).
Every distance is scipy's Euclidean one, ``pdist`` in the RBF fit and
``cdist`` elsewhere: an entry has the same bits in any batch and in the fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .linalg import SingularMatrixError, solve

MODEL_KINDS = ("lsm", "rbf")

# Euclidean distance at or below which two points count as the same: the
# pool drops such an insert, and no suggestion comes this close to the pool.
EXCLUSION_EPSILON = 1e-9

# Rows per distance matrix in first_distinct; bounds its memory for large batches.
DISTINCT_CHUNK_ROWS = 256

# Relative ridge added to the RBF matrix diagonal when the plain fit is
# singular (near-duplicate points after boundary clipping).
RBF_RIDGE_FACTOR = 1e-8


class SurrogateFitError(RuntimeError):
    """Raised when a surrogate cannot be fit to the given pool."""


class EvaluatedPool:
    """Ordered true-evaluated points of one dimension and their fitness; also the exclusion set.

    The points start as a (0, dimension) array, and every insert must have
    that width. Both are read-only arrays that each insert replaces, so a
    ``tail`` view never sees later inserts. Insertion silently drops a point
    within ``EXCLUSION_EPSILON`` of the pool or of an earlier point of the
    same batch, keeping the interpolation matrix invertible and the pool a set.

    ``needs_ridge`` turns true once an RBF fit of this pool found the plain
    activation system singular; later fits go straight to the ridged solve.
    """

    def __init__(self, dimension: int):
        self._points = np.empty((0, dimension))
        self._fitness = np.empty(0)
        self.needs_ridge = False

    def __len__(self) -> int:
        return self._fitness.size

    def add(self, points, fitness) -> np.ndarray:
        """Insert (k, d) evaluated points with their (k,) fitness.

        Returns the (k,) mask of the inserted rows: the rows that k single
        inserts in row order would keep. The batch is checked against the
        pool in one ``min_distance`` call.
        """
        points = _check_points(points, self._points.shape[1])
        fitness = np.asarray(fitness, dtype=float)
        if fitness.shape != (len(points),):
            raise ValueError(f"need one fitness per point: {len(points)} points, fitness shape {fitness.shape}")
        if np.isnan(fitness).any():  # also a None fitness, which becomes NaN
            raise ValueError("pool items must carry a true fitness")
        keep = self.admissible(points)
        self._points = np.vstack((self._points, points[keep]))
        self._fitness = np.concatenate((self._fitness, fitness[keep]))
        self._points.flags.writeable = self._fitness.flags.writeable = False
        return keep

    def points(self) -> np.ndarray:
        """All pool points as a read-only (n, d) array."""
        return self._points

    def fitnesses(self) -> np.ndarray:
        """The fitness of each pool point as a read-only (n,) array."""
        return self._fitness

    def admissible(self, points) -> np.ndarray:
        """Mask of the (m, d) rows more than EXCLUSION_EPSILON from the pool and from every earlier kept row."""
        return first_distinct(points, self.min_distance(points) > EXCLUSION_EPSILON)

    def min_distance(self, points) -> np.ndarray:
        """Distance from each of (m, d) points to its nearest pool item (inf when empty)."""
        points = _check_points(points, self._points.shape[1])
        return cdist(points, self._points).min(axis=1, initial=math.inf)

    def best_fitness(self) -> float:
        return float(self._fitness.min())

    def worst_fitness(self) -> float:
        return float(self._fitness.max())

    def tail(self, n: int | None) -> "EvaluatedPool":
        """The most recent n >= 1 items as a pool view (None = everything)."""
        if n is not None and n < 1:  # [-0:] is every item, and a negative n would drop the first -n
            raise ValueError(f"tail needs n >= 1, got {n}")
        if n is None or n >= len(self):
            return self
        # unflagged: a window drops old points, so it tries the plain solve again
        view = EvaluatedPool(self._points.shape[1])
        view._points, view._fitness = self._points[-n:], self._fitness[-n:]
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

    def predict(self, points) -> np.ndarray:
        d = self.dimension
        x = _check_points(points, d)
        return self.theta[0] + _row_dots(x, self.theta[1 : d + 1]) + _row_dots(x * x, self.theta[d + 1 :])


@dataclass(frozen=True, eq=False)
class RbfModel:
    """RBF network over the pool points.

    It interpolates the pool only when ``ridge`` is 0. At the pool sizes of
    real runs every fit carries a ridge, and the model approximates the pool.
    """

    centers: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,)
    sigma: float
    ridge: float = 0.0  # diagonal regularization actually applied, 0 if none

    def __post_init__(self):
        if self.weights.shape != (self.centers.shape[0],):
            raise ValueError("need exactly one weight per center")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")

    def predict(self, points) -> np.ndarray:
        x = _check_points(points, self.centers.shape[1])
        return _row_dots(gaussian_bump(cdist(x, self.centers), self.sigma), self.weights)


@dataclass(frozen=True)
class MeanModel:
    """Constant predictor; the fallback when a real fit is impossible."""

    mean_fitness: float

    def predict(self, points) -> np.ndarray:
        return np.full(len(_check_points(points)), self.mean_fitness)


MetaModel = LsmModel | RbfModel | MeanModel


def _check_points(points, d: int | None = None) -> np.ndarray:
    """points as an (m, d) float array; d=None accepts any width."""
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or (d is not None and x.shape[1] != d):
        raise ValueError(f"points have shape {x.shape}, expected (m, {d or 'd'})")
    return x


def _row_dots(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """rows @ w, one stacked vector dot per row.

    Each row is bitwise ``row @ w``; a plain ``rows @ w`` is a matrix-vector
    product whose rounding differs, which would change every run's output.
    """
    return np.matmul(rows[:, None, :], w[:, None])[:, 0, 0]


def first_distinct(points: np.ndarray, clear: np.ndarray) -> np.ndarray:
    """Mask of the (k, d) rows that taking them one at a time in order keeps.

    Row i is kept when ``clear[i]`` holds and it is more than
    EXCLUSION_EPSILON from every earlier kept row, by the ``cdist`` distance
    that ``min_distance`` uses. Rows are compared in chunks of
    DISTINCT_CHUNK_ROWS, so memory grows with k, not k^2.
    """
    keep = np.array(clear, dtype=bool)
    for start in range(0, len(points), DISTINCT_CHUNK_ROWS):
        stop = min(start + DISTINCT_CHUNK_ROWS, len(points))
        # a row looks back only at the rows before it
        close = np.tril(cdist(points[start:stop], points[:stop]) <= EXCLUSION_EPSILON, start - 1)
        for r in np.flatnonzero(keep[start:stop] & close.any(axis=1)):
            keep[start + r] = not (close[r] & keep[:stop]).any()
    return keep


def gaussian_bump(r: np.ndarray, sigma: float) -> np.ndarray:
    """Minimization-adapted Gaussian activation, written over the float array r.

    Returns r holding 1 - exp(-r^2 / (2 sigma^2)): 0 at r=0, saturating at 1.
    Dividing by the negated width equals negating the quotient exactly.
    """
    np.multiply(r, r, out=r)
    np.divide(r, -(2.0 * sigma * sigma), out=r)
    np.exp(r, out=r)
    return np.subtract(1.0, r, out=r)


def fit_lsm(pool: EvaluatedPool) -> LsmModel:
    """Fit the quadratic surface by solving the normal equations.

    Needs at least 2d+1 items; raises SurrogateFitError when underdetermined
    or when the items are degenerate enough to make X^T X singular.
    """
    n = len(pool)
    pts = pool.points()
    d = pts.shape[1]
    if n < 2 * d + 1:
        raise SurrogateFitError(f"need at least {2 * d + 1} items for dimension {d}, have {n}")
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


def fit_rbf(pool: EvaluatedPool) -> RbfModel:
    """Fit RBF weights by solving the activation system.

    The plain system interpolates the pool. It is singular for near-duplicate
    points and, with the wide mean-distance kernel, for every pool of more
    than roughly 50-75 points, so from there on every fit carries a small
    diagonal ridge and the model only approximates the pool. A pool whose
    plain system was singular once is marked and skips the plain attempt
    afterwards: a pool only grows, and no growing pool was seen to get a
    solvable plain system back.
    Both systems are symmetric and indefinite (a zero diagonal, plus the
    ridge), and both go through the Bunch-Kaufman ``solve``, whose
    singularity check on the plain system decides when the model stops
    interpolating. Raises SurrogateFitError when the ridged system is
    singular too.
    """
    n = len(pool)
    if n < 2:
        raise SurrogateFitError("RBF interpolation needs at least 2 pool items")
    pts = pool.points()
    dists = pdist(pts)
    sigma = float(np.mean(dists))  # mean pairwise distance
    bump = gaussian_bump(dists, sigma)  # the condensed upper triangle of phi
    phi = squareform(bump)  # bump(0) = 0 on the diagonal
    targets = pool.fitnesses().reshape(n, 1)
    if not pool.needs_ridge:
        try:
            weights = solve(phi.copy(), targets)  # solve factors in place; the ridge needs phi
        except SingularMatrixError:
            pool.needs_ridge = True
        else:
            return RbfModel(centers=pts, weights=weights.ravel(), sigma=sigma)
    # phi has a zero diagonal, so scale the ridge by the mean row mass
    # instead of the trace; every entry is >= 0, so no abs is needed. Each
    # off-diagonal entry sits twice in phi and once in bump.
    ridge = RBF_RIDGE_FACTOR * (2.0 * float(np.sum(bump))) / n
    phi[np.diag_indices(n)] += ridge
    try:
        weights = solve(phi, targets)  # factored in place; phi is not used again
    except SingularMatrixError as exc:
        raise SurrogateFitError(f"activation matrix is singular even with ridge: {exc}") from exc
    return RbfModel(centers=pts, weights=weights.ravel(), sigma=sigma, ridge=ridge)


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
        return MeanModel(float(np.mean(pool.fitnesses()))), False
