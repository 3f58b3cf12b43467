"""The registered demonstration systems, each a ``SystemSpec`` whose declared
constants follow from its parameters, and the exact filter of the finite
chain.  ``obs_scale=None`` lifts the covariance eigenvalue floor to
``_LAMBDA_INF_TARGET``."""

from __future__ import annotations

import inspect
import math
import numbers

import numpy as np

from ._normal import ndtr, ndtri
from .errors import ConfigError, DegenerateUpdateError, ModelDefinitionError
from .filtering import _check_inputs
from .likelihood import QuadFormWorkspace, log_lambda_hat_at_points
from .model import (AssumptionConstants, ObservationModel, StateSpace,
                    SystemSpec, TransitionKernel, make_rng)
from .quantize import Grid

__all__ = [
    "FiniteStateKernel",
    "exact_forward_filter",
    "gauss_walk_demo",
    "finite_chain_demo",
    "constant_demo",
    "build_model",
    "MODEL_BUILDERS",
]


class FiniteStateKernel(TransitionKernel):
    """Dynamics on the K ``states`` (K, M) with a row-stochastic (K, K)
    matrix and an initial law (K,); ModelDefinitionError otherwise."""

    def __init__(self, states: np.ndarray, transition_matrix: np.ndarray,
                 initial_probs: np.ndarray):
        states = np.atleast_2d(np.asarray(states, dtype=float))
        if states.ndim != 2:
            raise ModelDefinitionError("states must be a (K, M) array")
        k = states.shape[0]
        p = np.asarray(transition_matrix, dtype=float)
        pi = np.asarray(initial_probs, dtype=float)
        if p.shape != (k, k) or pi.shape != (k,):
            raise ModelDefinitionError("transition matrix / initial law shape mismatch")
        # written so that a NaN entry fails them
        if not (np.all(p >= 0) and np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-12)):
            raise ModelDefinitionError("transition matrix must be row-stochastic")
        if not (np.all(pi >= 0) and abs(pi.sum() - 1.0) <= 1e-12):
            raise ModelDefinitionError("initial law must be a distribution")
        self.states = states
        self.transition_matrix = p
        self.initial_probs = pi
        self._cdf = np.cumsum(p, axis=1)
        self._init_cdf = np.cumsum(pi)
        super().__init__(sampler=self._sample, initial_sampler=self._sample_initial,
                         density=None, initial_density=None)

    def _index_of(self, pts: np.ndarray) -> np.ndarray:
        d = np.sum(np.abs(pts[:, None, :] - self.states[None, :, :]), axis=2)
        return np.argmin(d, axis=1)

    def _draw(self, cdf: np.ndarray, rng) -> np.ndarray:
        """One state per row of ``cdf`` (B, K), by inverse CDF."""
        u = rng.random(len(cdf))
        return self.states[np.minimum((u[:, None] > cdf).sum(axis=1), len(self.states) - 1)]

    def _sample(self, t: int, x_prev, rng: np.random.Generator):
        return self._draw(self._cdf[self._index_of(np.asarray(x_prev, dtype=float))], rng)

    def _sample_initial(self, rng: np.random.Generator, size: int):
        return self._draw(np.broadcast_to(self._init_cdf, (int(size), len(self.states))), rng)


def exact_forward_filter(spec: SystemSpec, observations: np.ndarray) -> np.ndarray:
    """Estimates (.., T+1, M) of the optimal filter of a ``FiniteStateKernel``
    by the forward algorithm, for observations (T+1, N) or (B, T+1, N).
    ModelDefinitionError: another kernel.  Refused as in ``filter_steps``,
    with forward weights that all vanish naming t and b."""
    kernel = spec.kernel
    if not isinstance(kernel, FiniteStateKernel):
        raise ModelDefinitionError(
            "exact filtering needs dynamics supported on finitely many known "
            "states with a known transition matrix")
    observations = np.atleast_2d(np.asarray(observations, dtype=float))
    _check_inputs(spec, None, observations)
    *lead, steps, _ = observations.shape
    states = kernel.states
    workspace = QuadFormWorkspace(spec, states)
    alpha = kernel.initial_probs.copy()
    estimates = np.empty((*lead, steps, states.shape[1]))
    for t in range(steps):
        if t > 0:
            alpha = alpha @ kernel.transition_matrix
        ll = log_lambda_hat_at_points(spec, t, states, observations[..., t, :],
                                      workspace)
        emission = np.exp(ll - np.max(ll, axis=-1, keepdims=True))
        alpha = alpha * emission
        total = alpha.sum(axis=-1, keepdims=True)
        vanished = ~(np.isfinite(total) & (total > 0.0))
        if np.any(vanished):
            raise DegenerateUpdateError(f"forward weights vanished at t={t} in trajectory "
                                        f"b={int(np.flatnonzero(vanished)[0])}")
        alpha = alpha / total
        estimates[..., t, :] = alpha @ states
    return estimates


def _interval_space(lower: float, upper: float) -> StateSpace:
    """The box [lower, upper]; one that ``StateSpace`` refuses is refused
    naming the ``[model]`` keys."""
    try:
        return StateSpace(lower=np.array([float(lower)]), upper=np.array([float(upper)]))
    except ModelDefinitionError as exc:
        raise ConfigError(f"[model] lower = {lower:g} and upper = {upper:g}: {exc}") from None


def _abs_extremes(lower: float, upper: float) -> tuple[float, float]:
    """(min |x|, max |x|) over the interval."""
    hi = max(abs(lower), abs(upper))
    lo = 0.0 if lower <= 0.0 <= upper else min(abs(lower), abs(upper))
    return lo, hi


# Eigenvalue floor of the scaled covariance that a default ``obs_scale`` lifts to.
_LAMBDA_INF_TARGET = 1.25


def _linear_system(model_id: str, space: StateSpace, kernel: TransitionKernel,
                   hi: float, n: int, alpha: float, beta_fn, beta_range: tuple,
                   k_beta: float, sigma_xi_sq: float, obs_scale,
                   **fixed: float) -> SystemSpec:
    """The system observed with mean alpha*x in every coordinate and
    covariance beta_fn(x) * I, for |x| <= hi, beta_fn over beta_range with
    Lipschitz constant k_beta, and the other declared constants ``fixed``.
    ConfigError: a constant that overflows, naming the box."""
    raw_floor = beta_range[0] + sigma_xi_sq
    if obs_scale is None and raw_floor <= 0.0:
        raise ConfigError("cannot derive obs_scale for a singular covariance floor")
    scale = math.sqrt(_LAMBDA_INF_TARGET / raw_floor) if obs_scale is None else float(obs_scale)

    def mean_fn(t, x):
        x = np.asarray(x, dtype=float)
        return alpha * np.repeat(x[:, :1], n, axis=1)

    def cov_fn(t, x):
        x = np.asarray(x, dtype=float)
        return beta_fn(x[:, 0])[:, None, None] * np.eye(n)

    obs = ObservationModel(n=n, mean_fn=mean_fn, cov_fn=cov_fn,
                           sigma_xi_sq=sigma_xi_sq, obs_scale=scale,
                           stationary=True)
    declared = dict(
        lambda_inf=scale**2 * raw_floor,
        lambda_sup=scale**2 * (beta_range[1] + sigma_xi_sq),
        mu_sup=scale * abs(alpha) * math.sqrt(n) * hi,
        k_mu=scale * abs(alpha) * math.sqrt(n),
        k_sigma=scale**2 * k_beta,
    )
    overflowed = [name for name, value in declared.items() if not math.isfinite(value)]
    if overflowed:
        raise ConfigError(
            f"[model] the declared {', '.join(overflowed)} overflow with lower = "
            f"{space.lower[0]:g} and upper = {space.upper[0]:g}; narrow the box or "
            f"shrink alpha, beta or obs_scale")
    constants = AssumptionConstants(**declared, **fixed)
    return SystemSpec(space=space, kernel=kernel, obs=obs, constants=constants,
                      model_id=model_id)


def gauss_walk_demo(n: int = 2, alpha: float = 1.0, beta: float = 0.25,
                    sigma_xi_sq: float = 0.25, step_sigma: float = 0.15,
                    lower: float = 0.0, upper: float = 1.0,
                    obs_scale=None) -> SystemSpec:
    """Truncated Gaussian random walk with informative Gaussian observations."""
    if step_sigma <= 0:
        raise ConfigError("step_sigma must be positive")
    space = _interval_space(lower, upper)
    a, b = float(lower), float(upper)

    def _trunc_bounds(loc):
        return ndtr(np.stack((a - loc, b - loc)) / step_sigma)

    def sampler(t, x_prev, rng):
        loc = np.asarray(x_prev, dtype=float)[:, 0]
        fa, fb = _trunc_bounds(loc)
        u = rng.random(len(loc))
        draw = loc + step_sigma * ndtri(fa + u * (fb - fa))
        return np.clip(draw, a, b)[:, None]

    def density(t, x_prev, xs):
        loc = float(x_prev[0])
        xs1 = np.asarray(xs, dtype=float)[:, 0]
        fa, fb = _trunc_bounds(loc)
        z = (xs1 - loc) / step_sigma
        phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        dens = phi / (step_sigma * (fb - fa))
        return np.where(space.contains(xs), dens, 0.0)

    def increment_cell_mass(lo, hi):
        # Phi(-lo) - Phi(-hi) right of 0: both ends in ndtr's precise lower tail
        right = lo > 0
        return (ndtr(np.where(right, -lo, hi) / step_sigma)
                - ndtr(np.where(right, -hi, lo) / step_sigma))

    def initial_sampler(rng, size):
        return rng.uniform(a, b, size=(int(size), 1))

    def initial_density(xs):
        return np.where(space.contains(xs), 1.0 / (b - a), 0.0)

    kernel = TransitionKernel(sampler=sampler, initial_sampler=initial_sampler,
                              density=density, initial_density=initial_density,
                              increment_cell_mass=increment_cell_mass)
    lo2, hi2 = _abs_extremes(lower, upper)
    try:
        beta_range = (beta + lo2**2, beta + hi2**2)
    except OverflowError:
        raise ConfigError(f"[model] lower = {lower:g} and upper = {upper:g}: beta + x^2 "
                          f"overflows at the box's edge; narrow the box") from None
    return _linear_system("gauss_walk", space, kernel, hi2, n, alpha,
                          lambda x1: beta + x1**2, beta_range, 2.0 * hi2, sigma_xi_sq,
                          obs_scale)


def finite_chain_demo(n_states: int = 8, n: int = 1, alpha: float = 1.0,
                      beta: float = 1.0, sigma_xi_sq: float = 0.5,
                      kind: str = "sticky", stick_prob: float = 0.6,
                      lower: float = 0.0, upper: float = 1.0,
                      obs_scale=None, seed: int = 0) -> SystemSpec:
    """Finite chain on the centers of an n_states-cell grid over an interval."""
    if n_states < 1:
        raise ConfigError("n_states must be >= 1")
    if seed < 0:
        raise ConfigError("[model] seed must be >= 0")
    space = _interval_space(lower, upper)
    states = Grid(space, n_states).centers
    k = n_states
    if kind == "uniform" or k == 1:
        p = np.full((k, k), 1.0 / k)
    elif kind == "sticky":
        if not (0.0 < stick_prob < 1.0):
            raise ConfigError("stick_prob must lie in (0, 1)")
        off = (1.0 - stick_prob) / (k - 1)
        p = np.full((k, k), off)
        np.fill_diagonal(p, stick_prob)
    elif kind == "random":
        p = make_rng(seed, 77).dirichlet(np.ones(k), size=k)
    else:
        raise ConfigError(f"unknown chain kind {kind!r}")
    pi = np.full(k, 1.0 / k)
    kernel = FiniteStateKernel(states=states, transition_matrix=p, initial_probs=pi)
    spec = _linear_system("finite_chain", space, kernel, _abs_extremes(lower, upper)[1],
                          n, alpha, lambda x1: np.full(x1.shape, float(beta)),
                          (beta, beta), 0.0, sigma_xi_sq, obs_scale, k_det=0.0, k_inv=0.0)
    spec.optimal_filter = exact_forward_filter
    return spec


def constant_demo(n: int = 1, value: float = 0.5, mean_const: float = 0.0,
                  cov_const: float = 0.0, sigma_xi_sq: float = 1.0,
                  obs_scale: float = 1.0, lower: float = 0.0,
                  upper: float = 1.0) -> SystemSpec:
    """Frozen state, constant observation law; the defaults give i.i.d.
    standard normal observations and an eigenvalue floor of exactly one,
    which the audits reject."""
    space = _interval_space(lower, upper)
    if not (lower <= value <= upper):
        raise ConfigError("value must lie inside the interval")
    point = np.array([float(value)])

    def sampler(t, x_prev, rng):
        return np.tile(point, (len(x_prev), 1))

    def initial_sampler(rng, size):
        return np.tile(point, (int(size), 1))

    def mean_fn(t, x):
        return np.full((len(x), n), float(mean_const))

    def cov_fn(t, x):
        return np.tile(float(cov_const) * np.eye(n), (len(x), 1, 1))

    kernel = TransitionKernel(sampler=sampler, initial_sampler=initial_sampler)
    obs = ObservationModel(n=n, mean_fn=mean_fn, cov_fn=cov_fn,
                           sigma_xi_sq=sigma_xi_sq, obs_scale=obs_scale,
                           stationary=True)
    lam = obs_scale**2 * (cov_const + sigma_xi_sq)
    constants = AssumptionConstants(
        lambda_inf=lam, lambda_sup=lam,
        mu_sup=obs_scale * abs(mean_const) * math.sqrt(n),
        k_mu=0.0, k_sigma=0.0, k_det=0.0, k_inv=0.0,
    )
    return SystemSpec(space=space, kernel=kernel, obs=obs, constants=constants,
                      model_id="constant")


MODEL_BUILDERS = {
    "gauss_walk": gauss_walk_demo,
    "finite_chain": finite_chain_demo,
    "constant": constant_demo,
}


# What a builder parameter takes, by its default's type; else any real number.
_TAKES = {int: (numbers.Integral, "an integer"), str: (str, "a word")}


def build_model(model_id: str, **params) -> SystemSpec:
    """Build a registered model.  ConfigError: an unknown id or parameter, a
    value of another type than the parameter's default, a non-finite float,
    or a model the builder cannot construct."""
    try:
        builder = MODEL_BUILDERS[model_id]
    except KeyError:
        raise ConfigError(
            f"unknown model id {model_id!r}; known: {sorted(MODEL_BUILDERS)}") from None
    signature = inspect.signature(builder).parameters
    for key, value in params.items():
        if key not in signature:
            raise ConfigError(f"bad parameters for model {model_id!r}: no parameter {key!r}; "
                              f"known: {', '.join(signature)}")
        kind, noun = _TAKES.get(type(signature[key].default), (numbers.Real, "a real number"))
        if not isinstance(value, kind):
            raise ConfigError(f"[model] {key} must be {noun}, not {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"[model] {key} must be finite")
    try:
        return builder(**params)
    except ModelDefinitionError as exc:
        raise ConfigError(f"model {model_id!r}: {exc}") from exc
    except ArithmeticError as exc:
        raise ConfigError(f"model {model_id!r}: {type(exc).__name__} {exc}") from exc
