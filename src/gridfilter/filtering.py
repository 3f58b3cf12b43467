"""Grid filter recursion and brute-force path-sum oracle.

The grid filter tracks a weight per cell center.  Each step propagates the
weights through the quantized chain, multiplies in the reduced likelihood
ratio of the new observation in log domain, renormalizes, and reads the
estimate off as the weighted mean of the centers.  The per-step normalizer
increments accumulate into ``log_norm``, the log of the un-normalized
conditional mass.

``path_sum_oracle`` computes the same ratio by enumerating every chain path
and is the ground truth the recursion is tested against; a model's exact
filter, where it has one, is its ``SystemSpec.optimal_filter``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    "run_grid_filter",
    "path_sum_oracle",
]

_ORACLE_MAX_T = 6
_ORACLE_MAX_PATHS = 10**6
# Largest observation entry accepted: sqrt(float max), ~1.34e154.  Past it the
# products y_i y_j of the likelihood's features overflow.
_Y_MAX = float(np.sqrt(np.finfo(float).max))


@dataclass
class FilterState:
    """Posterior over grid centers after absorbing observations up to time t.

    ``t == -1`` is the pre-observation state holding the chain's initial law.
    ``weights`` are normalized along the last axis (they sum to one);
    ``log_norm`` carries the accumulated log normalizers.  ``predict_tau``
    is this step's certificate from ``QuantizedChain.certified_predict``: a
    bound on the posterior's total variation error from the prediction,
    above 1e-13 where the row fell back to the direct sum, and 0 at t=0.
    A state filtering a stack of B trajectories holds (B, K) weights, (B, M)
    estimates, (B,) normalizers and (B,) certificates; a single trajectory
    drops the B axis.
    """

    t: int
    weights: np.ndarray
    estimate: np.ndarray
    log_norm: float | np.ndarray
    predict_tau: float | np.ndarray = 0.0


@dataclass
class FilterRunResult:
    """Estimates (.., T+1, M), normalizers (.., T+1) and prediction
    certificates (.., T+1) of a full filtering pass; ``gridfilter filter``
    writes one run's estimates and normalizers, not its certificates."""

    estimates: np.ndarray
    log_norms: np.ndarray
    final_state: Optional[FilterState] = None
    predict_tau: Optional[np.ndarray] = None


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x))) over the last axis, shifted by the maximum, with one
    temporary the size of ``x``; an all -inf row gives -inf, with the divide
    warning the caller may silence."""
    shift = x.max(axis=-1, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    scaled = x - shift
    return np.log(np.exp(scaled, out=scaled).sum(axis=-1)) + shift[..., 0]


def initial_filter_state(chain: QuantizedChain) -> FilterState:
    return FilterState(
        t=-1,
        weights=chain.initial.copy(),
        estimate=np.einsum("...k,km->...m", chain.initial, chain.grid.centers),
        log_norm=0.0,
    )


def grid_filter_step(chain: QuantizedChain, spec: SystemSpec, state: FilterState,
                     y: np.ndarray, workspace: Optional[QuadFormWorkspace] = None,
                     use_full_likelihood: bool = False, *, first_row: int = 0,
                     fft_buffers: Optional[tuple[np.ndarray, np.ndarray]] = None
                     ) -> FilterState:
    """Advance the posterior by one observation, for one trajectory or a stack.

    ``y`` is (N,) or (B, N) and ``state.weights`` is (K,) or (B, K); the
    two broadcast, so a single initial state can start a whole stack.  The
    likelihood is evaluated first, and the prediction is
    ``chain.certified_predict`` against it: on a chain with an offset
    profile one batched FFT convolution, with each row whose certificate
    ``predict_tau`` exceeds 1e-13 recomputed by the direct ``predict``; the
    matrix product otherwise.  ``fft_buffers`` go to it as its ``buffers``;
    without them it allocates its own.  Weights whose last axis is not K
    raise ``DomainError``, and so do a ``y`` of rank above 2, stacks of
    weights and of ``y`` of different sizes, neither 1 (naming both and t),
    and the inputs ``run_grid_filter`` refuses: a ``y`` whose last axis is
    not N or that is not finite or above ``_Y_MAX`` (naming t, and b in a
    stack), an empty stack and a chain on another box.
    The estimate is an einsum, not a BLAS product, so each row of a stack
    equals its single run bit for bit.  The log, the likelihood sum and the
    exp run in place in the predicted array, which the step allocated: it
    never writes into ``state.weights`` or ``chain.initial``.
    ``use_full_likelihood`` multiplies in the un-reduced ratio instead; the
    extra factor is constant across cells, so estimates are unchanged and
    only ``log_norm`` moves.  A row whose weights all vanish raises
    ``DegenerateUpdateError`` naming t and the trajectory, counted from
    ``first_row``: the place of ``y[0]`` in a caller's larger stack.
    """
    if state.t < -1:
        raise ValueError("state.t must be >= -1")
    t = state.t + 1
    y = np.asarray(y, dtype=float)
    if y.ndim > 2:
        raise DomainError(f"y must be (N,) or (B, N), not {y.shape}")
    # stacks broadcast only when their sizes agree or one is 1
    if (y.ndim == 2 == np.ndim(state.weights) and len(y) != len(state.weights)
            and 1 not in (len(y), len(state.weights))):
        raise DomainError(f"the state holds a stack of {len(state.weights)} trajectories "
                          f"and y one of {len(y)} at t={t}")
    # four cheap tests per step (the last one fails on NaN too); the full
    # check only runs when one fails
    if (chain.grid.space is not spec.space or y.shape[-1:] != (spec.obs.n,)
            or not y.size or not (np.abs(y) <= _Y_MAX).all()):
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
    """Reject a chain on another box (where there is a chain) and malformed,
    empty (T+1 = 0 or B = 0), non-finite or overflowing (above ``_Y_MAX`` in
    magnitude) observations, the first of which is at time ``t0``."""
    box = spec.space
    chain_box = box if chain is None else chain.grid.space
    if not (np.array_equal(box.lower, chain_box.lower)
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
    bad = np.argwhere(~np.all(np.abs(stack) <= _Y_MAX, axis=-1))
    if bad.size:
        b, t = bad[0]
        what = ("non-finite observation" if not np.isfinite(stack[b, t]).all() else
                f"observation above {_Y_MAX:.3g} in magnitude, whose square overflows,")
        raise DomainError(f"{what} at t={t0 + t} in trajectory b={b}: {stack[b, t]}")


def run_grid_filter(spec: SystemSpec, chain: QuantizedChain, observations: np.ndarray,
                    use_full_likelihood: bool = False) -> FilterRunResult:
    """Fold the step over observations of shape (T+1, N) or (B, T+1, N).

    A stack of B trajectories shares the chain and is filtered in slices of
    rows: at each step every slice makes one ``chain.certified_predict``
    call, and the run writes into preallocated results and one (B, K) array
    of weights that carries the stack from step to step.  A profile chain
    takes at most 2^14 // L rows per slice, L its FFT length (4 at
    K = 2048), so the FFT buffers stay small however large B is; it never
    reads its dense matrix.  The run allocates one pair of those buffers,
    ``chain.fft_buffers`` for its widest slice, passes it to every step (a
    short last slice uses its first rows) and drops it on return, so it
    pays their page faults once rather than at every step (see
    ``certified_predict``).  A matrix chain takes the whole stack in one
    slice.  Each row goes through the same ufuncs in any slice, so it
    equals its single run bit for bit, and a time-varying likelihood is
    still built once per step.  The estimates are (B, T+1, M), the
    log-normalizers and prediction certificates (B, T+1), and the final
    state holds (B, K) weights.  A certificate above 1e-13 marks a step
    whose row was predicted by the direct sum.  Inputs are validated here,
    once, with ``DomainError``.
    """
    observations = np.atleast_2d(np.asarray(observations, dtype=float))
    _check_inputs(spec, chain, observations)
    *lead, steps, _ = observations.shape
    workspace = QuadFormWorkspace(spec, chain.grid.centers)
    estimates = np.empty((*lead, steps, chain.grid.space.dim))
    log_norms = np.empty((*lead, steps))
    predict_tau = np.empty((*lead, steps))
    slices, buffers = [slice(None)], None
    if chain.profile is not None:
        rows = max(1, _FFT_SLICE // chain._spectrum[1])
        if lead:
            slices = [slice(first, first + rows) for first in range(0, lead[0], rows)]
        buffers = chain.fft_buffers(min(rows, lead[0]) if lead else 1)
    weights = np.empty((*lead, chain.grid.total_points))
    initial = initial_filter_state(chain)
    for t in range(steps):
        for s in slices:
            prev = initial if t == 0 else FilterState(
                t - 1, weights[s], estimates[s][..., t - 1, :], log_norms[s][..., t - 1])
            state = grid_filter_step(chain, spec, prev, observations[s][..., t, :],
                                     workspace, use_full_likelihood, first_row=s.start or 0,
                                     fft_buffers=buffers)
            weights[s] = state.weights
            estimates[s][..., t, :] = state.estimate
            log_norms[s][..., t] = state.log_norm
            predict_tau[s][..., t] = state.predict_tau
    final_state = FilterState(t=steps - 1, weights=weights,
                              estimate=estimates[..., -1, :].copy(),
                              log_norm=log_norms[..., -1].copy()[()],
                              predict_tau=predict_tau[..., -1].copy()[()])
    return FilterRunResult(
        estimates=estimates, log_norms=log_norms, final_state=final_state,
        predict_tau=predict_tau)


def path_sum_oracle(spec: SystemSpec, chain: QuantizedChain,
                    observations: np.ndarray) -> np.ndarray:
    """Estimates by exhaustive enumeration of all chain paths.

    Every path keeps its own weight (initial mass, transition masses, and the
    reduced likelihood of each visited center); nothing is marginalized until
    the final ratio.  Refuses horizons beyond T=6 or more than 10^6 paths,
    naming the budget it would need.  Inputs are refused as in
    ``run_grid_filter``, and so is a stack of trajectories.
    """
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
