"""Convergence experiments: filter error against resolution, with analytic budgets.

The sweep simulates trajectories, drops the ones outside the tame observation
set, filters each kept trajectory at every requested resolution, and measures
the per-trajectory worst-over-time l1 gap to a reference filter.  The
reference is exact when the model supplies its optimal filter
(``SystemSpec.optimal_filter``); otherwise it is a surrogate grid filter at
a much finer resolution, cross-checked against a twice-finer run (the
self-consistency gap must stay below a tenth of the smallest measured error,
else the curve is flagged unconverged).

The analytic budget assembled alongside has three ingredients: a growth
constant for the likelihood-product error (two printed variants, one growing
like T log T from bounding every term by its worst case, one growing like
log T from summing the geometric decay), the worst-case quantization error
sup_t E|X_t - X_t^A| <= half cell width, and an explicit lower bound for the
conditional normalizer.  The normalizer bound underflows float64 for
realistic horizons, so it is carried in logs; sup-over-trajectory quantities
are maxima over the sampled tame trajectories and labeled estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .concentration import (_binomial_std_err, gamma_data, membership_bound,
                            omega_hat_membership, tame_threshold)
from .errors import ConfigError, GridFilterError
from .filtering import run_grid_filter
from .model import SystemSpec, _simulate
from .quantize import Grid, QuantizedChain, build_chain, quantize_points

__all__ = [
    "KGReport",
    "ConvergenceCurve",
    "kg_evaluate",
    "convergence_sweep",
]


@dataclass
class KGReport:
    """Growth constants and assembled error budget per resolution."""

    horizon: int
    c_const: float
    n_dim: int
    gamma: float
    k_o: float
    kg_t_log_t: float
    kg_log_t: float
    delta: float
    log_denominator: float
    resolutions: tuple[int, ...]
    sup_l1_half_cell: tuple[float, ...]
    sup_l1_measured: Optional[tuple[float, ...]]
    bound_log: tuple[float, ...]

    def bounds(self) -> np.ndarray:
        """Budgets in linear scale; saturates to inf past float64 range."""
        with np.errstate(over="ignore"):
            return np.exp(np.asarray(self.bound_log))


def kg_evaluate(spec: SystemSpec, horizon: int, c_const: float,
                resolutions: Sequence[int] = (),
                state_paths: Optional[np.ndarray] = None) -> KGReport:
    """Evaluate both growth-constant variants and the per-resolution budget.

    Needs audited constants (k_det and k_inv present).  ``state_paths`` of
    shape (n_traj, T+1, M), when given, adds a measured sup_t mean
    quantization error per resolution; the budget column always uses the
    a-priori half-cell bound so doubling the resolution exactly halves it.
    """
    c = spec.constants
    if c.k_det is None or c.k_inv is None:
        raise ConfigError("constants lack k_det / k_inv; run audit_derived_constants")
    if c.lambda_inf <= 1.0:
        raise ConfigError("growth constants need an eigenvalue floor > 1")
    n = spec.obs.n
    t1 = horizon + 1.0
    log_lam = math.log(c.lambda_inf)
    gamma = gamma_data(c)
    amp = math.sqrt(gamma) + c.mu_sup
    k_o = c.k_mu * 2.0 * amp / c.lambda_inf + c.k_inv * amp * amp
    log_growth = 1.0 + math.log(t1)
    kg_t_log_t = (k_o * c_const * n * log_growth * t1 / c.lambda_inf ** (n / 2.0)
                  + c.k_det * c.k_sigma * n**2 * t1 / (2.0 * c.lambda_inf**n))
    decay = c.lambda_inf ** (-2.0 / log_lam)
    kg_log_t = (16.0 * k_o * c_const * log_growth * decay / (n * log_lam**2)
                + 8.0 * c.k_det * c.k_sigma * c.lambda_inf ** (-float(n)) * decay / log_lam**2)
    log_den = (-(math.sqrt(tame_threshold(gamma, c_const, n, horizon)) + c.mu_sup) ** 2
               * t1 / (2.0 * c.lambda_inf)
               - 0.5 * n * t1 * math.log(c.lambda_sup))
    delta = spec.space.delta
    grids = [Grid(spec.space, a) for a in resolutions]
    half_cells = tuple(grid.half_cell_l1 for grid in grids)
    bound_log = tuple(math.log(hc * (1.0 + 2.0 * delta * kg_t_log_t)) - log_den
                      for hc in half_cells)
    measured = None
    if state_paths is not None and len(resolutions):
        state_paths = np.asarray(state_paths, dtype=float)
        flat = state_paths.reshape(-1, state_paths.shape[-1])
        vals = []
        for grid in grids:
            centers = grid.centers[quantize_points(grid, flat)]
            err = np.abs(flat - centers).sum(axis=1).reshape(state_paths.shape[:2])
            vals.append(float(np.max(np.mean(err, axis=0))))
        measured = tuple(vals)
    return KGReport(
        horizon=horizon, c_const=c_const, n_dim=n, gamma=gamma, k_o=k_o,
        kg_t_log_t=kg_t_log_t, kg_log_t=kg_log_t, delta=delta,
        log_denominator=log_den, resolutions=tuple(int(a) for a in resolutions),
        sup_l1_half_cell=half_cells, sup_l1_measured=measured,
        bound_log=bound_log)


@dataclass
class ConvergenceCurve:
    """Measured filter error per resolution, with rejection accounting;
    ``gridfilter converge`` writes it as curve.csv and its ``kg`` as kg.csv."""

    mean_sup_errors: np.ndarray
    max_sup_errors: np.ndarray
    n_total: int
    n_kept: int
    reference_label: str
    a_ref: Optional[int]
    reference_converged: Optional[bool]
    reference_gap: Optional[float]
    kg: KGReport = field(repr=False)

    @property
    def resolutions(self) -> tuple[int, ...]:
        return self.kg.resolutions

    @property
    def n_rejected(self) -> int:
        return self.n_total - self.n_kept

    @property
    def order(self) -> float:
        """Fitted convergence order: the least-squares slope of
        -log2(mean_sup_error) against log2(a); nan for one resolution."""
        if len(self.resolutions) < 2:
            return math.nan
        log_a = np.log2(self.resolutions)
        log_a -= log_a.mean()
        return float(log_a @ -np.log2(self.mean_sup_errors) / (log_a @ log_a))

    @property
    def rejection_budget(self) -> float:
        """Allowed rejected fraction: twice the analytic miss probability plus
        three binomial standard errors."""
        miss = 1.0 - membership_bound(self.kg.c_const, self.kg.n_dim, self.kg.horizon)
        return 2.0 * miss + 3.0 * _binomial_std_err(miss, max(self.n_total, 1))


def _sup_l1_errors(estimates: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Worst-over-time l1 gap of each trajectory in a (B, T+1, M) stack."""
    return np.max(np.sum(np.abs(estimates - reference), axis=-1), axis=-1)


# Kept trajectories that the surrogate reference is re-filtered on at twice
# its resolution, to measure its own gap.
_CHECK_TRAJ = 4


def convergence_sweep(spec: SystemSpec, horizon: int, resolutions: Sequence[int],
                      n_traj: int, c_const: float, seed: int = 0,
                      a_ref: Optional[int] = None,
                      build_method: str = "quadrature",
                      n_samples: int = 100_000) -> ConvergenceCurve:
    """Filter-error curve across resolutions against the reference filter.

    The reference is ``spec.optimal_filter`` where the model supplies one,
    and ``a_ref`` is then ignored.  Otherwise it is a grid filter at
    ``a_ref``, which defaults to 8x the largest resolution; a smaller
    surrogate raises ConfigError before any work.  The kept trajectories are
    filtered as one stack per chain.
    """
    resolutions = tuple(int(a) for a in resolutions)
    if not resolutions or any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        raise ConfigError("resolutions must be strictly increasing and nonempty")
    if n_traj < 1:
        raise ConfigError("need n_traj >= 1")
    if spec.optimal_filter is not None:
        a_ref = None
    else:
        a_ref = 8 * resolutions[-1] if a_ref is None else int(a_ref)
        if a_ref < 8 * resolutions[-1]:
            raise ConfigError(f"surrogate resolution {a_ref} is below 8x the largest "
                              f"experimental resolution {resolutions[-1]}")

    def chain_at(a: int) -> QuantizedChain:
        return build_chain(spec, Grid(spec.space, a), build_method, seed=seed,
                           n_samples=n_samples)

    traj_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(n_traj)]
    states, observations = _simulate(spec, horizon, traj_seeds, tilde=False)
    kept = omega_hat_membership(observations, c_const, gamma_data(spec.constants))
    if not np.any(kept):
        raise GridFilterError("every sampled trajectory fell outside the tame set")
    states, observations = states[kept], observations[kept]
    if a_ref is None:
        references, label = spec.optimal_filter(spec, observations), "exact"
    else:
        references = run_grid_filter(spec, chain_at(a_ref), observations).estimates
        label = f"surrogate(a={a_ref})"

    mean_errors = np.empty(len(resolutions))
    max_errors = np.empty(len(resolutions))
    for i, a in enumerate(resolutions):
        errs = _sup_l1_errors(run_grid_filter(spec, chain_at(a), observations).estimates,
                              references)
        mean_errors[i] = float(np.mean(errs))
        max_errors[i] = float(np.max(errs))

    converged: Optional[bool] = None
    gap: Optional[float] = None
    if a_ref is not None:
        fine = run_grid_filter(spec, chain_at(2 * a_ref),
                               observations[:_CHECK_TRAJ]).estimates
        gap = float(np.max(_sup_l1_errors(references[:_CHECK_TRAJ], fine)))
        converged = bool(gap < 0.1 * float(np.min(mean_errors)))

    kg = kg_evaluate(spec, horizon, c_const, resolutions, state_paths=states)
    return ConvergenceCurve(
        mean_sup_errors=mean_errors, max_sup_errors=max_errors, n_total=n_traj,
        n_kept=len(observations), reference_label=label, a_ref=a_ref,
        reference_converged=converged, reference_gap=gap, kg=kg)
