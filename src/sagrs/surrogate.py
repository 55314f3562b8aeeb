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

``EvaluatedPool`` holds the evaluated points and their fitness as two
read-only arrays; it is also the exclusion set (see ``EXCLUSION_EPSILON``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

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


@dataclass(frozen=True, eq=False)
class Item:
    """A search-space point, optionally paired with its true fitness."""

    point: np.ndarray
    fitness: float | None = None


class EvaluatedPool:
    """Ordered true-evaluated points and their fitness; also the exclusion set.

    Both are read-only arrays that each insert replaces, so a ``tail`` view
    never sees later inserts. Insertion silently drops a point within
    ``EXCLUSION_EPSILON`` of the pool or of an earlier point of the same
    batch, keeping the interpolation matrix invertible and the pool a set.

    ``needs_ridge`` turns true once an RBF fit of this pool found the plain
    activation system singular; later fits go straight to the ridged solve.
    """

    def __init__(self, items: list[Item] | None = None):
        self._points = np.empty((0, 0))
        self._fitness = np.empty(0)
        self.needs_ridge = False
        if items:
            self.add([item.point for item in items], [item.fitness for item in items])

    def __len__(self) -> int:
        return self._fitness.size

    def add(self, points, fitness) -> np.ndarray:
        """Insert (k, d) evaluated points with their (k,) fitness.

        Returns the (k,) mask of the inserted rows: the rows that k single
        inserts in row order would keep. The batch is checked against the
        pool in one ``min_distance`` call.
        """
        points = _check_points(points, self._points.shape[1] if len(self) else None)
        fitness = np.asarray(fitness, dtype=float)
        if fitness.shape != (len(points),):
            raise ValueError(f"need one fitness per point: {len(points)} points, fitness shape {fitness.shape}")
        if np.isnan(fitness).any():  # also a None fitness, which becomes NaN
            raise ValueError("pool items must carry a true fitness")
        keep = first_distinct(points, self.min_distance(points) > EXCLUSION_EPSILON)
        self._points = np.vstack((self._points, points[keep])) if len(self) else points[keep]
        self._fitness = np.concatenate((self._fitness, fitness[keep]))
        self._points.flags.writeable = self._fitness.flags.writeable = False
        return keep

    def points(self) -> np.ndarray:
        """All pool points as a read-only (n, d) array."""
        return self._points

    def fitnesses(self) -> np.ndarray:
        """The fitness of each pool point as a read-only (n,) array."""
        return self._fitness

    def min_distance(self, points) -> np.ndarray:
        """Distance from each of (m, d) points to its nearest pool item (inf when empty)."""
        points = _check_points(points)
        if len(self) == 0:
            return np.full(len(points), math.inf)
        return np.sqrt(np.min(squared_distances(points, self._points), axis=1))

    def best_fitness(self) -> float:
        return float(self._fitness.min())

    def worst_fitness(self) -> float:
        return float(self._fitness.max())

    def mean_fitness(self) -> float:
        return float(np.mean(self._fitness))

    def tail(self, n: int | None) -> "EvaluatedPool":
        """The most recent n items as a pool view (None = everything)."""
        if n is None or n >= len(self):
            return self
        view = EvaluatedPool()  # unflagged: a window drops old points, so it tries the plain solve again
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
        dist = np.sqrt(squared_distances(x, self.centers))
        return _row_dots(gaussian_bump(dist, self.sigma), self.weights)


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


def squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(m, n) squared distances from (m, d) points to (n, d) centers.

    Row i is bitwise ``np.sum((centers - points[i]) ** 2, axis=1)``, the
    per-point formula, so batching changes no output. The coordinate axis
    goes first: each elementwise step then runs over m * n contiguous values
    instead of m * n rows of d, several times faster for small d.
    """
    diffs = np.ascontiguousarray(centers.T)[:, None, :] - points.T[:, :, None]
    return _pairwise_sum(list(diffs * diffs))


def _pairwise_sum(terms: list[np.ndarray]) -> np.ndarray:
    """Elementwise sum of equal-shape arrays in the order ``np.sum`` adds a row.

    numpy adds fewer than 8 terms left to right, up to 128 in eight
    interleaved partial sums, and more by halves. It starts from 0.0, which
    changes no bit of the non-negative terms summed here.
    """
    n = len(terms)
    if n < 8:
        total = terms[0]
        for t in terms[1:]:
            total = total + t
        return total
    if n <= 128:
        r = terms[:8]
        stop = n - n % 8
        for i in range(8, stop, 8):
            r = [r[j] + terms[i + j] for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for t in terms[stop:]:
            total = total + t
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


def _row_dots(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """rows @ w, one stacked vector dot per row.

    Each row is bitwise ``row @ w``; a plain ``rows @ w`` is a matrix-vector
    product whose rounding differs, which would change every run's output.
    """
    return np.matmul(rows[:, None, :], w[:, None])[:, 0, 0]


def first_distinct(points: np.ndarray, clear: np.ndarray | None = None) -> np.ndarray:
    """Mask of the (k, d) rows that taking them one at a time in order keeps.

    Row i is kept when ``clear[i]`` holds (by default every row is clear) and
    it is more than EXCLUSION_EPSILON from every earlier kept row. The
    distances are ``squared_distances`` rows, bitwise the per-point check.
    Only rows with a near earlier row are decided one at a time. Rows are
    compared in chunks of DISTINCT_CHUNK_ROWS, so memory grows with k, not k^2.
    """
    keep = np.ones(len(points), dtype=bool) if clear is None else np.array(clear, dtype=bool)
    for start in range(0, len(points), DISTINCT_CHUNK_ROWS):
        stop = min(start + DISTINCT_CHUNK_ROWS, len(points))
        dist = np.sqrt(squared_distances(points[start:stop], points[:stop]))
        close = np.tril(dist <= EXCLUSION_EPSILON, start - 1)  # row r: only rows before start + r
        for r in np.flatnonzero(keep[start:stop] & close.any(axis=1)):
            keep[start + r] = not np.any(close[r] & keep[:stop])
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


def compute_sigma(pool: EvaluatedPool) -> float:
    """Mean Euclidean distance over all unordered pairs of pool points."""
    if len(pool) < 2:
        raise SurrogateFitError("kernel width needs at least 2 pool items")
    return float(np.mean(pdist(pool.points())))


def fit_rbf(pool: EvaluatedPool) -> RbfModel:
    """Fit RBF weights by solving the activation system.

    The plain system interpolates the pool. It is singular for near-duplicate
    points and, with the wide mean-distance kernel, for every pool of more
    than roughly 50-75 points, so from there on every fit carries a small
    diagonal ridge and the model only approximates the pool. A pool whose
    plain system was singular once is marked and skips the plain attempt
    afterwards: a pool only grows, and no growing pool was seen to get a
    solvable plain system back.
    Raises SurrogateFitError when the ridged system is singular too.
    """
    n = len(pool)
    if n < 2:
        raise SurrogateFitError("RBF interpolation needs at least 2 pool items")
    pts = pool.points()
    dists = pdist(pts)
    sigma = float(np.mean(dists))  # compute_sigma, without a second pdist
    phi = squareform(gaussian_bump(dists, sigma))  # bump(0) = 0 on the diagonal
    targets = pool.fitnesses().reshape(n, 1)
    if not pool.needs_ridge:
        try:
            weights = solve(phi, targets)
        except SingularMatrixError:
            pool.needs_ridge = True
        else:
            return RbfModel(centers=pts, weights=weights.ravel(), sigma=sigma)
    # phi has a zero diagonal, so scale the ridge by the mean row mass
    # instead of the trace; every entry is >= 0, so no abs is needed.
    ridge = RBF_RIDGE_FACTOR * float(np.sum(phi)) / n
    phi[np.diag_indices(n)] += ridge
    try:
        # phi is symmetric and no longer needed: its F-ordered transpose is
        # factored in place, without the copy LAPACK would make of phi.
        weights = solve(phi.T, targets, overwrite_a=True)
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
        return MeanModel(pool.mean_fitness()), False
