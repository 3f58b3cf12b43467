"""Per-step observation log-likelihood ratios, in two normalizations.

For an observation y at state x with scaled mean m = mean(t, x) and total
covariance C = C_t(x), the full log ratio against a standard normal reference
is

    log_lambda = ||y||^2 / 2 - (y - m)' C^{-1} (y - m) / 2 - log(det C) / 2,

and the reduced form drops the observation-only term:

    log_lambda_hat = log_lambda - ||y||^2 / 2.

The dropped factor depends on the observations alone, so it cancels from
every filtering ratio; the reduced form is what the recursions use because
its running sums stay uniformly bounded above.  All quadratic forms and log
determinants go through Cholesky factors C = L L'.  The per-point functions
solve with L and are the oracle; the batched path keeps the coefficients of
the quadratic form per point set, so a step is one small contraction.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ._cholesky import cholesky_stack
from .errors import DomainError, ModelDefinitionError
from .model import SystemSpec

__all__ = [
    "QuadFormWorkspace",
    "log_lambda",
    "log_lambda_hat",
    "log_lambda_hat_at_points",
]


def _chol_terms(spec: SystemSpec, t: int, x: np.ndarray, y: np.ndarray):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    c = spec.obs.total_cov(t, x[None])
    if not np.all(np.isfinite(c)):
        raise ModelDefinitionError(f"total covariance not finite at t={t}, x={x}")
    y = np.asarray(y, dtype=float).reshape(spec.obs.n)
    resid = y - spec.obs.mean(t, x[None])[0]
    chol = cholesky_stack(c, t, x[None])[0]
    z = np.linalg.solve(chol, resid)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return float(z @ z), logdet, y


def log_lambda_hat(spec: SystemSpec, t: int, x: np.ndarray, y: np.ndarray) -> float:
    """Reduced log likelihood ratio at one state (t, x, y): the per-point
    oracle ``log_lambda_hat_at_points`` is tested against."""
    quad, logdet, _ = _chol_terms(spec, t, x, y)
    return -0.5 * (quad + logdet)


def log_lambda(spec: SystemSpec, t: int, x: np.ndarray, y: np.ndarray) -> float:
    """Full log likelihood ratio; equals log_lambda_hat + ||y||^2 / 2."""
    quad, logdet, y = _chol_terms(spec, t, x, y)
    return -0.5 * (quad + logdet) + 0.5 * float(y @ y)


class QuadFormWorkspace:
    """The reduced log ratio at a fixed point set as a quadratic form in y.

    With P = C^{-1}, q = P m and r = m'q, log_lambda_hat(y) at point k is
    -(y'Py - 2q'y + r + log det C) / 2 = phi(y) . A[:, k] for the features
    phi(y) = [y_i y_j for i <= j, y, 1] (F = N(N+1)/2 + N + 1 of them) and one
    (F, K) matrix A built from the Cholesky factors.  Stationary observation
    models build A once; time-varying ones keep only the A of the step asked
    for last, so memory stays flat over long runs.
    """

    def __init__(self, spec: SystemSpec, points: np.ndarray):
        self.spec = spec
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self._upper = np.triu_indices(spec.obs.n)
        self._cache_t: Optional[int] = None
        self._cache: Optional[np.ndarray] = None

    def _compute(self, t: int) -> np.ndarray:
        spec, pts = self.spec, self.points
        means = spec.obs.mean(t, pts)
        chol = cholesky_stack(spec.obs.total_cov(t, pts), t, pts)
        logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
        linv = np.linalg.inv(chol)
        linv_t = np.swapaxes(linv, 1, 2)
        prec = linv_t @ linv
        w = (linv @ means[..., None])[..., 0]
        q = (linv_t @ w[..., None])[..., 0]
        i, j = self._upper
        quad = np.where(i == j, -0.5, -1.0)[:, None] * prec[:, i, j].T
        const = -0.5 * (np.sum(w * w, axis=1) + logdet)
        return np.concatenate([quad, q.T, const[None]])

    def coefficients(self, t: int) -> np.ndarray:
        """The (F, K) coefficient matrix A at step t."""
        if self.spec.obs.stationary:
            t = 0
        if self._cache_t != t:
            self._cache = self._compute(t)
            self._cache_t = t
        return self._cache

    def features(self, y: np.ndarray) -> np.ndarray:
        """phi(y), shape (F,) or (B, F), for observations (N,) or (B, N)."""
        i, j = self._upper
        pairs = len(i)
        phi = np.empty(y.shape[:-1] + (pairs + y.shape[-1] + 1,))
        phi[..., :pairs] = y[..., i] * y[..., j]
        phi[..., pairs:-1] = y
        phi[..., -1] = 1.0
        return phi


def log_lambda_hat_at_points(spec: SystemSpec, t: int, points: np.ndarray,
                             y: np.ndarray,
                             workspace: Optional[QuadFormWorkspace] = None) -> np.ndarray:
    """Reduced log likelihood ratio of observations at many states at once.

    ``y`` is one observation (N,) or a stack (B, N); the result is (K,) or
    (B, K) for K points.  A row of a stack equals the same observation given
    alone, bit for bit.  Matches per-point ``log_lambda_hat`` up to roundoff
    relative to the terms y'Py, 2q'y, r and log det C.  A workspace, when
    given, must have been built for the same ``spec`` object and the same
    point set (the same array, or an equal one), else DomainError.
    """
    if workspace is None:
        workspace = QuadFormWorkspace(spec, points)
    elif workspace.spec is not spec:
        raise DomainError("the workspace was built for another model")
    elif workspace.points is not points and not np.array_equal(workspace.points, points):
        raise DomainError("the workspace was built for another point set")
    y = np.asarray(y, dtype=float)
    if y.shape[-1:] != (spec.obs.n,):
        raise DomainError(f"observation shape {y.shape}, the model expects N={spec.obs.n}")
    # einsum, not matmul: numpy sends one row to GEMV and a stack to GEMM,
    # which round differently
    return np.einsum("...f,fk->...k", workspace.features(y), workspace.coefficients(t))
