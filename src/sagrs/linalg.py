"""Dense symmetric linear solves with an explicit singularity check.

Matrices are 2-D float64 numpy arrays. Both surrogate fits need to detect
rank-deficient systems (coincident pool points make the RBF activation
matrix exactly singular) and regularize. Every system they solve is
symmetric: the LSM normal equations X^T X and the RBF activation matrix,
plain or ridged. So there is one solve, ``solve``, by the Bunch-Kaufman
factorization L D L^T with 1x1 and 2x2 pivot blocks (LAPACK
``dsytrf``/``dsytrs``, in panels of ``PANEL`` columns), which checks its
pivots against the scale of the rows they came from.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg.lapack as lapack

# A pivot below this fraction of the matrix row scale is treated as zero.
SINGULARITY_TOL = 1e-12

# Columns per dsytrf panel. LAPACK's workspace query asks for 64, whose
# level-2 panel work is slower at the RBF systems' n = 100-900. Systems of
# n <= 64 are factored unblocked either way.
PANEL = 32


class SingularMatrixError(ValueError):
    """Raised when a linear system has no reliable solution."""


def _as_matrix(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be 2-D with at least one row and column, got shape {m.shape}")
    return m


def solve(a, b) -> np.ndarray:
    """Solve a @ x = b for symmetric, possibly indefinite a via Bunch-Kaufman.

    a must be symmetric and stored whole: dsytrf reads one triangle, but the
    row scales are taken over every entry. The factorization is written over
    a when a is a C- or Fortran-ordered float64 array (a symmetric C-ordered
    array is factored through its transpose), so pass a copy of a matrix
    that is used again. Raises SingularMatrixError, so callers can fall
    back or regularize instead of silently consuming garbage, on an
    all-zero row, an exactly zero pivot, a non-finite factor, and a 1x1
    pivot or a 2x2 pivot block's smaller |eigenvalue| below SINGULARITY_TOL
    times the scale of the original row it came from (its largest |entry|;
    for a block, the larger scale of its two rows).
    """
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"coefficient matrix must be square, got {a.shape}")
    if b.shape[0] != n:
        raise ValueError(f"right-hand side has {b.shape[0]} rows, expected {n}")
    # max(max(row), -min(row)) is bitwise the largest |entry| without an n^2 abs temporary
    row_scale = np.maximum(a.max(axis=1), -a.min(axis=1))
    if np.any(row_scale == 0.0):
        raise SingularMatrixError("matrix has an all-zero row")

    ldu, ipiv, info = lapack.dsytrf(a.T if a.flags.c_contiguous else a, lwork=PANEL * n, overwrite_a=True)
    if info > 0 or not np.all(np.isfinite(ldu)):
        raise SingularMatrixError("matrix is singular or near-singular")

    # The upper-triangle ipiv is 1-based and read from the last position
    # down: ipiv[k] > 0 swapped rows k and ipiv[k] - 1 and makes D[k, k] a
    # 1x1 pivot; ipiv[k-1] == ipiv[k] < 0 swapped rows k - 1 and -ipiv[k] - 1
    # and makes D[k-1:k+1, k-1:k+1] a 2x2 block. So the negative entries,
    # in order, pair up into the blocks.
    first, second = np.flatnonzero(ipiv < 0).reshape(-1, 2).T
    swaps = np.abs(ipiv) - 1
    swaps[second] = second
    # Applying the swaps in LAPACK's order to the row scales gives each
    # position the scale of the original row that ended up there.
    scale = lapack.dlaswp(row_scale.reshape(-1, 1), swaps, inc=-1)[:, 0]

    d = np.diagonal(ldu)
    pivot = np.abs(d)
    # a block's eigenvalues are half_sum +- radius; both rows get the smaller |eigenvalue|
    half_sum = (d[first] + d[second]) / 2
    radius = np.hypot((d[first] - d[second]) / 2, ldu[first, second])
    pivot[first] = pivot[second] = np.abs(np.abs(half_sum) - radius)
    scale[first] = scale[second] = np.maximum(scale[first], scale[second])
    if np.any(pivot < SINGULARITY_TOL * scale):
        raise SingularMatrixError("matrix is singular or near-singular")

    return lapack.dsytrs(ldu, ipiv, b)[0]
