"""The grid filter recursion, stepped by ``filter_steps`` and collected by
``run_grid_filter``, and the path-sum oracle it is tested against."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import BudgetExceededError, DegenerateUpdateError, DomainError
from .likelihood import QuadFormWorkspace, log_lambda_hat_at_points
from .model import SystemSpec
from .quantize import _FFT_SLICE, QuantizedChain

__all__ = [
    "FilterState",
    "FilterRunResult",
    "initial_filter_state",
    "grid_filter_step",
    "filter_steps",
    "run_grid_filter",
    "path_sum_oracle",
]

_ORACLE_MAX_T = 6
_ORACLE_MAX_PATHS = 10**6
# Largest observation entry accepted; past it the features' y_i y_j overflow.
_Y_MAX = float(np.sqrt(np.finfo(float).max))


@dataclass
class FilterState:
    """Posterior over the grid centers after the observation at time t (at
    t = -1, the chain's initial law).  One trajectory holds (K,) ``weights``
    summing to one, an (M,) ``estimate``, and scalars ``log_norm``, the
    accumulated log normalizer, and ``predict_tau``, the step's
    ``certified_predict`` bound (0 at t = 0); a stack adds a leading B axis.
    A state ``filter_steps`` yields shares its arrays with the next one."""

    t: int
    weights: np.ndarray
    estimate: np.ndarray
    log_norm: float | np.ndarray
    predict_tau: float | np.ndarray = 0.0


@dataclass
class FilterRunResult:
    """Estimates (.., T+1, M), log normalizers (.., T+1) and prediction
    certificates (.., T+1) of a run."""

    estimates: np.ndarray
    log_norms: np.ndarray
    predict_tau: np.ndarray


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x))) over the last axis, shifted by the maximum; an all
    -inf row gives -inf, with a divide warning."""
    shift = x.max(axis=-1, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    scaled = x - shift
    return np.log(np.exp(scaled, out=scaled).sum(axis=-1)) + shift[..., 0]


def initial_filter_state(chain: QuantizedChain) -> FilterState:
    """The state at t = -1: a copy of the chain's initial law and its mean."""
    return FilterState(-1, chain.initial.copy(),
                       np.einsum("...k,km->...m", chain.initial, chain.grid.centers), 0.0)


def grid_filter_step(chain: QuantizedChain, spec: SystemSpec, state: FilterState,
                     y: np.ndarray, workspace: Optional[QuadFormWorkspace] = None,
                     use_full_likelihood: bool = False, *, first_row: int = 0,
                     fft_buffers: Optional[tuple[np.ndarray, np.ndarray]] = None
                     ) -> FilterState:
    """Advance ``state``, weights (K,) or (B, K), by one observation ``y``,
    (N,) or (B, N), which broadcast: a new state at t = ``state.t`` + 1 in
    new arrays; ``state`` and ``chain.initial`` are not written.
    ``fft_buffers`` are ``certified_predict``'s ``buffers``.  A row's result
    is the same bits in any stack.  ``use_full_likelihood`` moves only
    ``log_norm``.  Refused as in ``filter_steps``, with b counted from
    ``first_row``; also ``ValueError`` for ``state.t`` below -1 and
    ``DomainError`` for weights whose last axis is not K, a ``y`` of rank
    above 2, and stacks of weights and ``y`` of different sizes, neither 1,
    naming both and t."""
    if state.t < -1:
        raise ValueError("state.t must be >= -1")
    t = state.t + 1
    y = np.asarray(y, dtype=float)
    if y.ndim > 2:
        raise DomainError(f"y must be (N,) or (B, N), not {y.shape}")
    if (y.ndim == 2 == np.ndim(state.weights) and len(y) != len(state.weights)
            and 1 not in (len(y), len(state.weights))):
        raise DomainError(f"the state holds a stack of {len(state.weights)} trajectories "
                          f"and y one of {len(y)} at t={t}")
    _check_inputs(spec, chain, np.atleast_1d(y)[..., None, :], t)
    ll = log_lambda_hat_at_points(spec, t, chain.grid.centers, y, workspace)
    if use_full_likelihood:
        ll = ll + 0.5 * np.sum(y * y, axis=-1, keepdims=True)
    # logw is this step's own array, so the update runs in place in it
    with np.errstate(divide="ignore"):
        if state.t == -1:
            logw = np.log(state.weights) + ll
            tau = np.zeros(logw.shape[:-1])[()]
        else:
            logw, tau = chain.certified_predict(state.weights, ll, fft_buffers)
            np.log(logw, out=logw)
            logw += ll
        increment = _logsumexp(logw)
    vanished = ~(increment > -np.inf)  # -inf or NaN
    if vanished.any():
        b = int(np.flatnonzero(vanished)[0])
        ll_b = np.broadcast_to(ll, logw.shape).reshape(-1, logw.shape[-1])[b]
        raise DegenerateUpdateError(
            f"all weights vanished at t={t} in trajectory b={first_row + b}; max "
            f"log-likelihood was {ll_b.max():.6g} over reachable cells")
    logw -= increment[..., None]
    weights = np.exp(logw, out=logw)
    return FilterState(
        t=t,
        weights=weights,
        estimate=np.einsum("...k,km->...m", weights, chain.grid.centers),
        log_norm=state.log_norm + increment,
        predict_tau=tau,
    )


def _check_inputs(spec: SystemSpec, chain: Optional[QuantizedChain],
                  observations: np.ndarray, t0: int = 0) -> None:
    """Refused as in ``filter_steps``, for observations from time ``t0``
    and a chain, if there is one."""
    box = spec.space
    chain_box = box if chain is None else chain.grid.space
    if chain_box is not box and not (np.array_equal(box.lower, chain_box.lower)
                                     and np.array_equal(box.upper, chain_box.upper)):
        raise DomainError(
            f"chain was built on the box [{chain_box.lower}, {chain_box.upper}], "
            f"the model's box is [{box.lower}, {box.upper}]")
    if observations.ndim > 3:
        raise DomainError(f"observations must be (T+1, N) or (B, T+1, N), not "
                          f"{observations.shape}")
    if observations.shape[-2] == 0:
        raise DomainError(f"observations of shape {observations.shape} hold no "
                          f"time step (T+1 = 0)")
    if observations.ndim == 3 and len(observations) == 0:
        raise DomainError(f"observations of shape {observations.shape} hold no "
                          f"trajectory (B = 0)")
    if observations.shape[-1] != spec.obs.n:
        raise DomainError(
            f"observation at t={t0} in trajectory b=0 has {observations.shape[-1]} "
            f"components, the model expects N={spec.obs.n}")
    stack = observations if observations.ndim == 3 else observations[None]
    bounded = np.abs(stack) <= _Y_MAX  # NaN fails it too
    if not bounded.all():
        b, t = np.argwhere(~bounded.all(axis=-1))[0]
        what = ("non-finite observation" if not np.isfinite(stack[b, t]).all() else
                f"observation above {_Y_MAX:.3g} in magnitude, whose square overflows,")
        raise DomainError(f"{what} at t={t0 + t} in trajectory b={b}: {stack[b, t]}")


def filter_steps(spec: SystemSpec, chain: QuantizedChain, observations: np.ndarray,
                 use_full_likelihood: bool = False) -> Iterator[FilterState]:
    """Step the grid filter over observations (T+1, N) or (B, T+1, N),
    yielding the ``FilterState`` after each t = 0..T: the same (B, K)
    weights, (B, M) estimate and (B,) ``log_norm`` and ``predict_tau``
    arrays every time (no B axis for one trajectory), which the next step
    overwrites.  Each row equals its single run bit for bit.

    The one list of the filter's refusals.  At the call, before any step,
    ``DomainError``: a chain built on another box; observations of rank
    above 3, or with no time step or no trajectory, naming the shape; an
    observation whose length is not N, or with an entry that is not finite
    or above ``_Y_MAX`` = sqrt(float max) in magnitude, naming t and b.
    During a step, ``DegenerateUpdateError``: a row whose weights all
    vanish, naming t and b.
    """
    observations = np.atleast_2d(np.asarray(observations, dtype=float))
    _check_inputs(spec, chain, observations)
    return _steps(spec, chain, observations, use_full_likelihood)


def _steps(spec: SystemSpec, chain: QuantizedChain, observations: np.ndarray,
           use_full_likelihood: bool) -> Iterator[FilterState]:
    *lead, steps, _ = observations.shape
    workspace = QuadFormWorkspace(spec, chain.grid.centers)
    carried = (np.empty((*lead, chain.grid.total_points)),
               np.empty((*lead, chain.grid.space.dim)), np.empty(lead), np.empty(lead))
    parts, buffers = [(0, ...)], None
    if chain.profile is not None:
        rows = max(1, _FFT_SLICE // chain._spectrum[1])
        if lead:
            parts = [(first, slice(first, first + rows)) for first in range(0, lead[0], rows)]
        buffers = chain.fft_buffers(min(rows, lead[0]) if lead else 1)
    # each slice's state is a view of the carried arrays
    parts = [(first, s, FilterState(-1, *(a[s] for a in carried))) for first, s in parts]
    for t in range(steps):
        for first, s, part in parts:
            new = grid_filter_step(chain, spec, part if t else initial_filter_state(chain),
                                   observations[s][..., t, :], workspace, use_full_likelihood,
                                   first_row=first, fft_buffers=buffers)
            part.weights[...], part.estimate[...] = new.weights, new.estimate
            part.log_norm[...], part.predict_tau[...] = new.log_norm, new.predict_tau
            part.t = t
            del new  # its arrays go before the next step allocates its own
        yield FilterState(t, *carried)


def run_grid_filter(spec: SystemSpec, chain: QuantizedChain, observations: np.ndarray,
                    use_full_likelihood: bool = False) -> FilterRunResult:
    """``filter_steps`` over observations (T+1, N) or (B, T+1, N), collected
    into a ``FilterRunResult`` whose rows equal their single runs bit for
    bit; refused as in ``filter_steps``."""
    observations = np.atleast_2d(np.asarray(observations, dtype=float))
    steps = filter_steps(spec, chain, observations, use_full_likelihood)
    *lead, horizon, _ = observations.shape
    run = FilterRunResult(np.empty((*lead, horizon, chain.grid.space.dim)),
                          np.empty((*lead, horizon)), np.empty((*lead, horizon)))
    for state in steps:
        run.estimates[..., state.t, :] = state.estimate
        run.log_norms[..., state.t] = state.log_norm
        run.predict_tau[..., state.t] = state.predict_tau
    return run


def path_sum_oracle(spec: SystemSpec, chain: QuantizedChain,
                    observations: np.ndarray) -> np.ndarray:
    """Estimates (T+1, M) of one trajectory, each path weighted on its own
    until the final ratio.  Refused as in ``filter_steps``, and a stack with
    ``DomainError``; ``BudgetExceededError`` beyond T = 6 or 10^6 paths,
    naming the budget."""
    observations = np.atleast_2d(np.asarray(observations, dtype=float))
    _check_inputs(spec, chain, observations)
    if observations.ndim != 2:
        raise DomainError(f"the oracle takes one trajectory (T+1, N), not {observations.shape}")
    steps = observations.shape[0]
    k = chain.grid.total_points
    if steps - 1 > _ORACLE_MAX_T:
        raise BudgetExceededError(
            f"oracle horizon limit is T={_ORACLE_MAX_T}; T={steps - 1} requested")
    if k**steps > _ORACLE_MAX_PATHS:
        raise BudgetExceededError(
            f"{k}^{steps} = {k**steps} paths exceed the oracle budget of "
            f"{_ORACLE_MAX_PATHS}")
    centers = chain.grid.centers
    workspace = QuadFormWorkspace(spec, centers)
    with np.errstate(divide="ignore"):
        log_init = np.log(chain.initial)
        log_tr = np.log(chain.transition)
    estimates = np.empty((steps, chain.grid.space.dim))
    log_path = None
    last = None
    for t in range(steps):
        ll = log_lambda_hat_at_points(spec, t, centers, observations[t], workspace)
        if t == 0:
            log_path = log_init + ll
            last = np.arange(k)
        else:
            log_path = (log_path[:, None] + log_tr[last, :] + ll[None, :]).ravel()
            last = np.tile(np.arange(k), log_path.shape[0] // k)
        shift = np.max(log_path)
        if np.isneginf(shift):
            raise DegenerateUpdateError(f"all path weights vanished at t={t}")
        w = np.exp(log_path - shift)
        estimates[t] = (w @ centers[last]) / np.sum(w)
    return estimates
