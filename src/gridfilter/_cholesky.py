"""The one Cholesky factorization of batches of small covariances, for the
path sampler and the likelihood."""

from __future__ import annotations

import numpy as np

from .errors import ModelDefinitionError


def cholesky_rows(covs: np.ndarray, t: int, points: np.ndarray,
                  shift: float = 0.0) -> list[list[np.ndarray]]:
    """Lower Cholesky factor L of ``covs + shift * I``, covariances (B, N, N)
    at ``points`` (B, M), from the lower triangle: row i lists L[i][0..i],
    each a (B,) vector.  A diagonal stack gives LAPACK's factor bit for bit;
    a full one may differ by a few ulps.  ModelDefinitionError, naming t and
    the first point: a pivot that is not finite and positive."""
    bad = np.zeros(len(covs), dtype=bool)
    prod = np.empty(len(covs))
    rows: list[list[np.ndarray]] = []
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for i in range(covs.shape[-1]):
            row = []
            for j in range(i + 1):
                entry = covs[:, i, j] + (shift if i == j else 0.0)
                other = row if i == j else rows[j]
                for k in range(j):
                    entry -= np.multiply(row[k], other[k], out=prod)
                if i == j:
                    bad |= ~((entry > 0.0) & (entry < np.inf))
                    np.sqrt(entry, out=entry)
                else:
                    entry /= rows[j][j]
                row.append(entry)
            rows.append(row)
    if np.any(bad):
        b = int(np.argmax(bad))
        raise ModelDefinitionError(
            f"total covariance not positive definite at t={t}, x={points[b]}")
    return rows


def cholesky_stack(covs: np.ndarray, t: int, points: np.ndarray) -> np.ndarray:
    """``cholesky_rows`` stacked into (B, N, N) lower-triangular factors."""
    chol = np.zeros(covs.shape)
    for i, row in enumerate(cholesky_rows(covs, t, points)):
        for j, entry in enumerate(row):
            chol[:, i, j] = entry
    return chol
