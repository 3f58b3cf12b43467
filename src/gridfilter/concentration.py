"""The tame set the error budget lives on: a path of horizon T is tame when

    sup_{t <= T} ||y_t||^2 < gamma * C * N * (1 + log(T + 1)),

which misses at most (T+1)^{1-CN} e^{-CN} of the probability.  For
U ~ chi2(N), P(U >= N + 2 sqrt(N u) + 2 u) <= exp(-u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import ConfigError, DomainError
from .model import _OBS_CHUNK, AssumptionConstants, SystemSpec, _path_steps, make_rng

__all__ = [
    "TailCheck",
    "ConcentrationReport",
    "chi2_tail_check",
    "gamma_data",
    "gamma_reference",
    "tame_threshold",
    "omega_hat_membership",
    "membership_bound",
    "concentration_experiment",
]


def _binomial_std_err(p: float, n: int) -> float:
    """Standard error of a frequency of ``n`` draws with success probability ``p``."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


@dataclass
class TailCheck:
    """Empirical chi-squared tail frequency against its analytic ceiling."""

    n_dim: int
    u: float
    n_samples: int
    empirical: float
    bound: float

    @property
    def std_err(self) -> float:
        return _binomial_std_err(self.bound, self.n_samples)

    @property
    def passed(self) -> bool:
        return self.empirical <= self.bound + 3.0 * self.std_err


def chi2_tail_check(n_dim: int, u: float, n_samples: int, seed: int = 0) -> TailCheck:
    """Frequency of chi2(n_dim) draws at or above N + 2 sqrt(N u) + 2 u, against
    exp(-u); ConfigError for n_dim or n_samples below 1, or u not in [0, inf)."""
    if n_dim < 1 or n_samples < 1 or not 0.0 <= u < math.inf:
        raise ConfigError(f"need n_dim >= 1, n_samples >= 1 and a finite u >= 0, "
                          f"got {n_dim}, {n_samples}, {u!r}")
    rng = make_rng(seed, 20)
    draws = rng.chisquare(n_dim, size=n_samples)
    threshold = n_dim + 2.0 * math.sqrt(n_dim * u) + 2.0 * u
    empirical = float(np.mean(draws >= threshold))
    return TailCheck(n_dim=n_dim, u=u, n_samples=n_samples,
                     empirical=empirical, bound=math.exp(-u))


def gamma_data(constants: AssumptionConstants) -> float:
    """gamma under the data law: max(5 lambda_sup (1 + mu_sup)^2, 5)."""
    return max(5.0 * constants.lambda_sup * (1.0 + constants.mu_sup) ** 2, 5.0)


def gamma_reference() -> float:
    """Threshold inflation under the reference coupling (standard normal obs)."""
    return 5.0


def _check_case(n_dim: int, horizon: int, **positive: float) -> None:
    """Refuse each named value outside (0, inf), then a dimension below 1,
    then a horizon below 0."""
    for name, value in positive.items():
        if not 0.0 < value < math.inf:
            raise ConfigError(f"{name} must be > 0 and finite, got {value!r}")
    if n_dim < 1:
        raise ConfigError(f"n_dim must be >= 1, got {n_dim}")
    if horizon < 0:
        raise ConfigError(f"horizon must be >= 0, got {horizon}")


def tame_threshold(gamma: float, c_const: float, n_dim: int, horizon: int) -> float:
    """gamma * C * N * (1 + log(T + 1)); ConfigError for gamma or C outside
    (0, inf), N < 1 and T < 0."""
    _check_case(n_dim, horizon, gamma=gamma, c_const=c_const)
    return gamma * c_const * n_dim * (1.0 + math.log(horizon + 1.0))


def _sup_sq_norms(steps) -> np.ndarray:
    """Running (B,) maximum of ||y_t||^2 over the (B, N) steps y_0, y_1, ...,
    each dropped before the next is drawn."""
    sup_sq = None
    for y in steps:
        sq = np.empty(len(y))
        for s in range(0, len(y), _OBS_CHUNK):
            np.sum(np.square(y[s:s + _OBS_CHUNK]), axis=-1, out=sq[s:s + _OBS_CHUNK])
        sup_sq = sq if sup_sq is None else np.maximum(sup_sq, sq, out=sup_sq)
        del y
    return sup_sq


def omega_hat_membership(observations: np.ndarray, c_const: float,
                         gamma: float) -> bool | np.ndarray:
    """Tame-set flag of observations (T+1, N), or (B,) flags of a (B, T+1, N)
    stack; a path on the threshold is out.  DomainError: another shape, or
    T+1 or N of 0."""
    obs = np.asarray(observations, dtype=float)
    if obs.ndim not in (2, 3) or min(obs.shape[-2:]) < 1:
        raise DomainError(f"observations must be (T+1, N) or (B, T+1, N), not {obs.shape}")
    stack = obs if obs.ndim == 3 else obs[None]
    inside = _sup_sq_norms(stack.swapaxes(0, 1)) < tame_threshold(
        gamma, c_const, stack.shape[2], stack.shape[1] - 1)
    return inside if obs.ndim == 3 else bool(inside[0])


@dataclass
class ConcentrationReport:
    """Tame-set frequencies under both measures against the analytic floor."""

    n_dim: int
    c_const: float
    horizon: int
    n_traj: int
    gamma_data: float
    gamma_reference: float
    threshold_data: float
    threshold_reference: float
    empirical_data: float
    empirical_reference: float
    bound: float

    @property
    def passed(self) -> bool:
        return all(p >= self.bound - 3.0 * _binomial_std_err(p, self.n_traj)
                   for p in (self.empirical_data, self.empirical_reference))


def membership_bound(c_const: float, n_dim: int, horizon: int) -> float:
    """Floor 1 - (T+1)^{1-CN} e^{-CN} of the tame-set probability, clamped
    to [0, 1]; ConfigError for C outside (0, inf), N < 1 and T < 0."""
    _check_case(n_dim, horizon, c_const=c_const)
    cn = c_const * n_dim
    return min(1.0, max(0.0, 1.0 - (horizon + 1.0) ** (1.0 - cn) * math.exp(-cn)))


def concentration_experiment(spec: SystemSpec, horizon: int, c_const: float,
                             n_traj: int, seed: int = 0) -> ConcentrationReport:
    """Tame-set frequencies of the paths of ``simulate_batch(spec, horizon,
    n_traj, seed)`` and of the observations of ``simulate_batch(..., seed +
    1, tilde=True)``, equal to ``omega_hat_membership`` on them; each passes
    at the floor less three binomial standard errors.  ConfigError: n_traj
    < 1, and as in ``tame_threshold``."""
    if n_traj < 1:
        raise ConfigError("need n_traj >= 1")
    n_dim = spec.obs.n
    g_p, g_q = gamma_data(spec.constants), gamma_reference()
    thr_p = tame_threshold(g_p, c_const, n_dim, horizon)
    thr_q = tame_threshold(g_q, c_const, n_dim, horizon)
    steps = _path_steps(spec, horizon, n_traj, make_rng(seed, 2), make_rng(seed, 3), tilde=False)
    tame_p = _sup_sq_norms(map(itemgetter(1), steps)) < thr_p
    rng_q = make_rng(seed + 1, 3)
    tame_q = _sup_sq_norms(rng_q.standard_normal((n_traj, n_dim))
                           for _ in range(horizon + 1)) < thr_q
    return ConcentrationReport(
        n_dim=n_dim, c_const=c_const, horizon=horizon, n_traj=n_traj,
        gamma_data=g_p, gamma_reference=g_q,
        threshold_data=thr_p, threshold_reference=thr_q,
        empirical_data=float(np.mean(tame_p)),
        empirical_reference=float(np.mean(tame_q)),
        bound=membership_bound(c_const, n_dim, horizon),
    )
