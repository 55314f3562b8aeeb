"""Dense linear solve with an explicit singularity check.

Matrices are 2-D float64 numpy arrays. The solver is an LU solve with
partial pivoting and an explicit singularity check, because both surrogate
fits need to detect rank-deficient systems (coincident pool points make
the RBF interpolation matrix exactly singular) and regularize.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

# A pivot below this fraction of the matrix row scale is treated as zero.
SINGULARITY_TOL = 1e-12


class SingularMatrixError(ValueError):
    """Raised when a linear system has no reliable solution."""


def _as_matrix(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be 2-D with at least one row and column, got shape {m.shape}")
    return m


def solve(a, b) -> np.ndarray:
    """Solve a @ x = b for square a via partially pivoted LU.

    Raises SingularMatrixError when any pivot falls below SINGULARITY_TOL
    relative to the row scale of a, so callers can fall back or regularize
    instead of silently consuming garbage.
    """
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"coefficient matrix must be square, got {a.shape}")
    if b.shape[0] != n:
        raise ValueError(f"right-hand side has {b.shape[0]} rows, expected {n}")

    row_scale = np.max(np.abs(a), axis=1)
    if np.any(row_scale == 0.0):
        raise SingularMatrixError("matrix has an all-zero row")

    with warnings.catch_warnings():
        # scipy warns instead of raising when U has an exact zero pivot;
        # the explicit check below covers that case and near-zero ones.
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)

    # Recover which original row each pivot came from, so the threshold is
    # relative to that row's own scale.
    perm = np.arange(n)
    for k, p in enumerate(piv):
        perm[k], perm[p] = perm[p], perm[k]
    pivots = np.abs(np.diag(lu))
    if not np.all(np.isfinite(lu)) or np.any(pivots < SINGULARITY_TOL * row_scale[perm]):
        raise SingularMatrixError("matrix is singular or near-singular")

    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
