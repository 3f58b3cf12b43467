"""Grid filter recursion, brute-force path-sum oracle, and exact finite-state filter.

The grid filter tracks a weight per cell center.  Each step propagates the
weights through the quantized chain, multiplies in the reduced likelihood
ratio of the new observation in log domain, renormalizes, and reads the
estimate off as the weighted mean of the centers.  The per-step normalizer
increments accumulate into ``log_norm``, the log of the un-normalized
conditional mass.

``path_sum_oracle`` computes the same ratio by enumerating every chain path
and is the ground truth the recursion is tested against.
``exact_forward_filter`` is the classical scaled forward algorithm for models
whose dynamics really are a finite-state chain; it deliberately runs in
scaled linear domain so the two implementations share no recursion code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BudgetExceededError, DegenerateUpdateError, DomainError,
                     ModelDefinitionError)
from .likelihood import QuadFormWorkspace, log_lambda_hat_at_points
from .model import SystemSpec
from .quantize import QuantizedChain
from .registry import FiniteStateKernel

__all__ = [
    "FilterState",
    "FilterRunResult",
    "initial_filter_state",
    "grid_filter_step",
    "run_grid_filter",
    "path_sum_oracle",
    "exact_forward_filter",
]

_ORACLE_MAX_T = 6
_ORACLE_MAX_PATHS = 10**6


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
    temporary the size of ``x``; an all -inf row gives -inf."""
    shift = np.max(x, axis=-1, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    scaled = x - shift
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(scaled, out=scaled), axis=-1)) + shift[..., 0]


def initial_filter_state(chain: QuantizedChain) -> FilterState:
    return FilterState(
        t=-1,
        weights=chain.initial.copy(),
        estimate=np.einsum("...k,km->...m", chain.initial, chain.grid.centers),
        log_norm=0.0,
    )


def grid_filter_step(chain: QuantizedChain, spec: SystemSpec, state: FilterState,
                     y: np.ndarray, workspace: Optional[QuadFormWorkspace] = None,
                     use_full_likelihood: bool = False) -> FilterState:
    """Advance the posterior by one observation, for one trajectory or a stack.

    ``y`` is (N,) or (B, N) and ``state.weights`` is (K,) or (B, K); the
    two broadcast, so a single initial state can start a whole stack.  The
    likelihood is evaluated first, and the prediction is
    ``chain.certified_predict`` against it: on a chain with an offset
    profile one batched FFT convolution, with each row whose certificate
    ``predict_tau`` exceeds 1e-13 recomputed by the direct ``predict``; the
    matrix product otherwise.  Weights whose last axis is not K raise
    ``DomainError``, and so do a ``y`` of rank above 2, stacks of weights
    and of ``y`` of different sizes, neither 1 (naming both and t), and the
    inputs ``run_grid_filter`` refuses: a ``y`` whose last axis is not N or
    that is not finite (naming t, and b in a stack) and a chain on another
    box.
    The estimate is an einsum, not a BLAS product, so each row of a stack
    equals its single run bit for bit.  The log, the likelihood sum and the
    exp run in place in the predicted array, which the step allocated: it
    never writes into ``state.weights`` or ``chain.initial``.
    ``use_full_likelihood`` multiplies in the un-reduced ratio instead; the
    extra factor is constant across cells, so estimates are unchanged and
    only ``log_norm`` moves.
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
    # three cheap tests per step; the full check only runs when one fails
    if (chain.grid.space is not spec.space or y.shape[-1:] != (spec.obs.n,)
            or not np.isfinite(y).all()):
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
            logw, tau = chain.certified_predict(state.weights, ll)
            np.log(logw, out=logw)
            logw += ll
    increment = _logsumexp(logw)
    vanished = np.isneginf(increment) | np.isnan(increment)
    if np.any(vanished):
        b = int(np.flatnonzero(vanished)[0])
        ll_b = np.broadcast_to(ll, logw.shape).reshape(-1, logw.shape[-1])[b]
        raise DegenerateUpdateError(
            f"all weights vanished at t={t} in trajectory b={b}; max "
            f"log-likelihood was {np.max(ll_b):.6g} over reachable cells")
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
    empty (T+1 = 0) or non-finite observations, the first of which is at
    time ``t0``."""
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
    if observations.shape[-1] != spec.obs.n:
        raise DomainError(
            f"observation at t={t0} in trajectory b=0 has {observations.shape[-1]} "
            f"components, the model expects N={spec.obs.n}")
    stack = observations if observations.ndim == 3 else observations[None]
    bad = np.argwhere(~np.all(np.isfinite(stack), axis=-1))
    if bad.size:
        b, t = bad[0]
        raise DomainError(
            f"non-finite observation at t={t0 + t} in trajectory b={b}: {stack[b, t]}")


def run_grid_filter(spec: SystemSpec, chain: QuantizedChain, observations: np.ndarray,
                    use_full_likelihood: bool = False) -> FilterRunResult:
    """Fold the step over observations of shape (T+1, N) or (B, T+1, N).

    A stack of B trajectories shares the chain and advances in one
    ``chain.certified_predict`` call per step, which never reads a profile
    chain's dense matrix; its estimates are (B, T+1, M), and its
    log-normalizers and prediction certificates (B, T+1).  A certificate
    above 1e-13 marks a step whose row was predicted by the direct sum.
    Inputs are validated here, once, with ``DomainError``.
    """
    observations = np.atleast_2d(np.asarray(observations, dtype=float))
    _check_inputs(spec, chain, observations)
    *lead, steps, _ = observations.shape
    workspace = QuadFormWorkspace(spec, chain.grid.centers)
    state = initial_filter_state(chain)
    estimates = np.empty((*lead, steps, chain.grid.space.dim))
    log_norms = np.empty((*lead, steps))
    predict_tau = np.empty((*lead, steps))
    for t in range(steps):
        state = grid_filter_step(chain, spec, state, observations[..., t, :],
                                 workspace, use_full_likelihood)
        estimates[..., t, :] = state.estimate
        log_norms[..., t] = state.log_norm
        predict_tau[..., t] = state.predict_tau
    return FilterRunResult(
        estimates=estimates, log_norms=log_norms, final_state=state,
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


def exact_forward_filter(spec: SystemSpec, observations: np.ndarray) -> np.ndarray:
    """Optimal filter for dynamics that are exactly a finite-state chain.

    Classical forward algorithm with per-step scaling, run in linear domain,
    over observations of shape (T+1, N) or (B, T+1, N).  The spec's kernel
    must expose states, transition matrix and initial law.  Observations
    are refused as in ``run_grid_filter``.
    """
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
        if np.any(total <= 0.0) or not np.all(np.isfinite(total)):
            raise DegenerateUpdateError(f"forward weights vanished at t={t}")
        alpha = alpha / total
        estimates[..., t, :] = alpha @ states
    return estimates
