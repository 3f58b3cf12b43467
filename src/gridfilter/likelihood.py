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
determinants go through Cholesky factors C = L L'; C^{-1} is never formed.
The batched path whitens residuals with L^{-1}, factored once per point set
(and per step for time-varying models), so a step is a small matmul.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import DomainError, ModelDefinitionError
from .model import SystemSpec, _cholesky_at

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
    chol = _cholesky_at(c, t, x[None])[0]
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
    """Means, inverse Cholesky factors and log-determinants for a fixed point set.

    Stationary observation models are factorized once and reused at every
    step; time-varying ones keep only the factors of the step asked for last,
    so memory stays flat over long runs.
    """

    def __init__(self, spec: SystemSpec, points: np.ndarray):
        self.spec = spec
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self._cache_t: Optional[int] = None
        self._cache = None

    def _compute(self, t: int):
        spec, pts = self.spec, self.points
        means = spec.obs.mean(t, pts)
        chol = _cholesky_at(spec.obs.total_cov(t, pts), t, pts)
        logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
        return means, np.linalg.inv(chol), logdet

    def factors(self, t: int):
        if self.spec.obs.stationary:
            if self._cache is None:
                self._cache = self._compute(0)
            return self._cache
        if self._cache_t != t:
            self._cache = self._compute(t)
            self._cache_t = t
        return self._cache


def log_lambda_hat_at_points(spec: SystemSpec, t: int, points: np.ndarray,
                             y: np.ndarray,
                             workspace: Optional[QuadFormWorkspace] = None) -> np.ndarray:
    """Reduced log likelihood ratio of observations at many states at once.

    ``y`` is one observation (N,) or a stack (B, N); the result is (K,) or
    (B, K) for K points.  Matches per-point ``log_lambda_hat`` up to floating
    point roundoff; the workspace, when given, must have been built for the
    same point set.
    """
    if workspace is None:
        workspace = QuadFormWorkspace(spec, points)
    y = np.asarray(y, dtype=float)
    if y.shape[-1:] != (spec.obs.n,):
        raise DomainError(f"observation shape {y.shape}, the model expects N={spec.obs.n}")
    means, inv_chol, logdet = workspace.factors(t)
    resid = y[..., None, :] - means
    z = (inv_chol @ resid[..., None])[..., 0]
    quad = np.sum(z * z, axis=-1)
    return -0.5 * (quad + logdet)
