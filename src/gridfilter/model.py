"""Hidden-system models: a Markov state in a box Z observed as

    y_t = scale * (mu_t(x_t) + chol(Sigma_t(x_t) + sigma_xi^2 I) u_t),

u_t standard normal, with total covariance C_t(x) = scale^2 (Sigma_t(x) +
sigma_xi^2 I).  Equal ``(seed, stream...)`` keys give bit-identical draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._cholesky import cholesky_rows
from ._streams import PathStreams
from .errors import AssumptionViolationError, ModelDefinitionError

__all__ = [
    "StateSpace",
    "ObservationModel",
    "TransitionKernel",
    "AssumptionConstants",
    "SystemSpec",
    "Trajectory",
    "make_rng",
    "simulate",
    "simulate_batch",
    "verify_assumptions",
]


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator for stream ``(seed, *stream)``: equal keys give
    bit-identical draws.  ValueError: a negative key."""
    if seed < 0 or any(s < 0 for s in stream):
        raise ValueError("stream keys must be nonnegative integers")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *stream])))


def _checked(a, shape: tuple, name: str, t: int) -> np.ndarray:
    """A callback's output as a float array of ``shape``; any other shape
    raises ModelDefinitionError naming the callback and ``t``."""
    a = np.asarray(a, dtype=float)
    if a.shape != shape:
        raise ModelDefinitionError(f"{name} shape {a.shape} at t={t}, expected {shape}")
    return a


# Most corners ``StateSpace.corners`` lists.
_MAX_CORNERS = 4096

# Most entries per slice of a chain build or a likelihood workspace.
_SLICE_ENTRIES = 1 << 12


@dataclass(frozen=True)
class StateSpace:
    """Closed box ``Z = [lower_1, upper_1] x ... x [lower_M, upper_M]``,
    bounds (M,).  ModelDefinitionError: bounds of different lengths, not
    finite or not lower < upper, or a width that overflows, naming the axis."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ModelDefinitionError("bounds must be 1-d arrays of equal length")
        if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise ModelDefinitionError("bounds must be finite")
        if not np.all(lo < hi):
            raise ModelDefinitionError("need lower < upper in every coordinate")
        with np.errstate(over="ignore"):
            wide = ~np.isfinite(hi - lo)
        if np.any(wide):
            d = int(np.argmax(wide))
            raise ModelDefinitionError(f"the width of axis {d}, upper - lower, overflows "
                                       f"with lower = {lo[d]:g} and upper = {hi[d]:g}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def delta(self) -> float:
        """max over coordinates of max(|lower|, |upper|); bounds any |X_t| coordinate."""
        return float(np.max(np.maximum(np.abs(self.lower), np.abs(self.upper))))

    def contains(self, x: np.ndarray) -> np.ndarray:
        """One flag per row of points (n, M) (a point (M,) is one row): inside
        the closed box; a row with a NaN is not."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.all((x >= self.lower) & (x <= self.upper), axis=1)

    def corners(self) -> np.ndarray:
        """All 2^M corners (2^M, M), or only the two past ``_MAX_CORNERS``."""
        if 2 ** self.dim > _MAX_CORNERS:
            return np.stack([self.lower, self.upper])
        grids = np.meshgrid(*[(self.lower[d], self.upper[d]) for d in range(self.dim)], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass
class ObservationModel:
    """Conditionally Gaussian observation channel with N = ``n``: unscaled
    ``mean_fn(t, x)``, x (B, M) -> (B, N), and ``cov_fn(t, x)`` -> (B, N, N);
    ``obs_scale`` multiplies the observation, so the total covariance by its
    square.  ``stationary``: both callbacks ignore t.  ModelDefinitionError:
    n < 1, or sigma_xi_sq or obs_scale not positive."""

    n: int
    mean_fn: Callable[[int, np.ndarray], np.ndarray]
    cov_fn: Callable[[int, np.ndarray], np.ndarray]
    sigma_xi_sq: float
    obs_scale: float = 1.0
    stationary: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ModelDefinitionError("observation dimension must be >= 1")
        if not (self.sigma_xi_sq > 0.0):
            raise ModelDefinitionError("sigma_xi_sq must be positive")
        if not (self.obs_scale > 0.0):
            raise ModelDefinitionError("obs_scale must be positive")

    def mean(self, t: int, x: np.ndarray) -> np.ndarray:
        """Scaled observation means at states ``x`` (B, M), shape (B, n)."""
        return self.obs_scale * _checked(self.mean_fn(t, x), (len(x), self.n), "mean_fn", t)

    def total_cov(self, t: int, x: np.ndarray) -> np.ndarray:
        """Scaled total covariances C_t(x) at states ``x`` (B, M), shape (B, n, n)."""
        sig = _checked(self.cov_fn(t, x), (len(x), self.n, self.n), "cov_fn", t)
        return self.obs_scale**2 * (sig + self.sigma_xi_sq * np.eye(self.n))


@dataclass
class TransitionKernel:
    """State dynamics on the box Z, as callbacks batched over B paths or n
    points with M axes::

        sampler(t, x_prev, rng)      x_prev (B, M)                      ->  (B, M)
        initial_sampler(rng, size)                                      ->  (size, M)
        density(t, x_prev, xs)       one source x_prev (M,), xs (n, M)  ->  (n,)
        initial_density(xs)          xs (n, M)                          ->  (n,)
        increment_cell_mass(lo, hi)  1-D only, lo and hi (n,)          ->  (n,)

    The densities are per unit Lebesgue measure on Z.  The optional hook
    gives the masses of the step X_t - X_{t-1} in [lo, hi]; ``density(t,
    x_prev, .)`` must then be proportional to the step's density at
    ``. - x_prev``.  An output of another shape raises ModelDefinitionError
    naming the callback and t (0 for the initial callbacks).
    """

    sampler: Callable[..., np.ndarray]
    initial_sampler: Callable[..., np.ndarray]
    density: Optional[Callable[..., np.ndarray]] = None
    initial_density: Optional[Callable[..., np.ndarray]] = None
    increment_cell_mass: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class AssumptionConstants:
    """Regularity constants of the observation channel: lambda_inf and
    lambda_sup bound C_t(x)'s eigenvalues, mu_sup the scaled mean's norm,
    k_mu (l2 over l1) and k_sigma (entries over l1) are Lipschitz constants
    of mean and covariance, and ``audit_derived_constants`` sets k_det and
    k_inv.  ModelDefinitionError: a constant not finite or negative,
    lambda_inf <= 0 or above lambda_sup."""

    lambda_inf: float
    lambda_sup: float
    mu_sup: float
    k_mu: float
    k_sigma: float
    k_det: Optional[float] = None
    k_inv: Optional[float] = None

    def __post_init__(self):
        vals = [self.lambda_inf, self.lambda_sup, self.mu_sup, self.k_mu, self.k_sigma]
        if not all(math.isfinite(v) for v in vals):
            raise ModelDefinitionError("constants must be finite")
        if not (self.lambda_inf > 0.0):
            raise ModelDefinitionError("lambda_inf must be positive")
        if self.lambda_inf > self.lambda_sup:
            raise ModelDefinitionError("need lambda_inf <= lambda_sup")
        if min(self.mu_sup, self.k_mu, self.k_sigma) < 0.0:
            raise ModelDefinitionError("norm bounds must be nonnegative")


@dataclass
class SystemSpec:
    """Bundle of state space, dynamics, observation channel, declared constants
    and, where the model has one, its exact filter ``optimal_filter(spec,
    observations)``: observations (T+1, N) or (B, T+1, N) to estimates."""

    space: StateSpace
    kernel: TransitionKernel
    obs: ObservationModel
    constants: AssumptionConstants
    model_id: str = "custom"
    optimal_filter: Optional[Callable[["SystemSpec", np.ndarray], np.ndarray]] = None


# ``_check_density_mass``'s first panel count and the cap of its doubling.
_MASS_PANELS = (64, 2**14)


# The 8-node Gauss-Legendre rule on [-1, 1], ``leggauss(8)`` bit for bit.
_GL_POS = (0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362)
_GL_POS_W = (0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706)
_GL_NODES = tuple(-x for x in reversed(_GL_POS)) + _GL_POS
_GL_WEIGHTS = _GL_POS_W[::-1] + _GL_POS_W


def _gl_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """8-node Gauss-Legendre nodes and weights on the panels between
    successive ``edges``; both (panels * 8,), panel by panel."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return ((mid[:, None] + half[:, None] * np.array(_GL_NODES)).ravel(),
            (half[:, None] * np.array(_GL_WEIGHTS)).ravel())


def _check_density_mass(spec: SystemSpec, sources: np.ndarray, tol: float) -> None:
    """Refuse a density without unit mass (to ``tol``) from a source, or one
    whose cumulative panel masses differ from ``increment_cell_mass``'s by
    more than 1e-9, each over its total.  Panels double from 64 until two
    masses agree to ``tol / 10``, up to 2^14."""
    if spec.space.dim != 1:
        return
    lo, hi = spec.space.lower[0], spec.space.upper[0]
    hook = spec.kernel.increment_cell_mass
    for x_prev in sources:
        panels, mass = _MASS_PANELS[0], None
        while True:
            xs, ws = _gl_panels(np.linspace(lo, hi, panels + 1))
            xs = xs[:, None]
            dens = _checked(spec.kernel.density(1, x_prev, xs), (len(xs),), "density", 1)
            last, mass = mass, float(dens @ ws)
            if (last is not None and abs(mass - last) <= tol / 10) or panels >= _MASS_PANELS[1]:
                break
            panels *= 2
        if abs(mass - 1.0) > tol:
            raise ModelDefinitionError(
                f"transition density mass {mass:.8f} != 1 from x_prev={x_prev}")
        if hook is None:
            continue
        offsets = np.linspace(lo, hi, panels + 1) - x_prev[0]
        inc = _checked(hook(offsets[:-1], offsets[1:]), (panels,), "increment_cell_mass", 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = np.max(np.abs(np.cumsum((dens * ws).reshape(panels, 8).sum(axis=1)) / mass
                                - np.cumsum(inc) / np.sum(inc)))
        if not gap <= 1e-9:
            raise ModelDefinitionError(
                f"density is not proportional to increment_cell_mass from "
                f"x_prev={x_prev}: their distributions on the box differ by {gap:.3g}")


@dataclass
class Trajectory:
    """One simulated path: states (T+1, M) and observations (T+1, N);
    ModelDefinitionError when their time axes differ."""

    states: np.ndarray
    observations: np.ndarray

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        self.observations = np.atleast_2d(np.asarray(self.observations, dtype=float))
        if self.states.shape[0] != self.observations.shape[0]:
            raise ModelDefinitionError("states and observations must share a time axis")

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1


def _probe_points(space: StateSpace, n_probe: int, rng: np.random.Generator) -> np.ndarray:
    """Box corners, midpoint, and n_probe uniform draws."""
    u = rng.uniform(space.lower, space.upper, size=(n_probe, space.dim))
    mid = 0.5 * (space.lower + space.upper)
    return np.concatenate([space.corners(), mid[None, :], u], axis=0)


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of every ``a[i]`` taken as one flat vector; equal bit
    for bit to ``np.linalg.norm(a[i])`` (a vector) or its Frobenius norm (a
    matrix), which ``np.linalg.norm(a, axis=...)`` is not."""
    flat = a.reshape(len(a), math.prod(a.shape[1:]))
    return np.sqrt((flat[:, None, :] @ flat[:, :, None])[:, 0, 0])


# Rows per slice in ``_observe`` and in the tame-set fold.
_OBS_CHUNK = 2**13


def _observe(spec: SystemSpec, t: int, x: np.ndarray, rng_obs, tilde: bool) -> np.ndarray:
    """Normal draws u_t (B, N), overwritten slice by slice with y_t at ``x`` unless ``tilde``."""
    n = spec.obs.n
    y = rng_obs.standard_normal((len(x), n))
    for s in range(0, 0 if tilde else len(x), _OBS_CHUNK):
        xs, us = x[s:s + _OBS_CHUNK], y[s:s + _OBS_CHUNK]
        raw_cov = _checked(spec.obs.cov_fn(t, xs), (len(xs), n, n), "cov_fn", t)
        chol = cholesky_rows(raw_cov, t, xs, spec.obs.sigma_xi_sq)
        raw_mean = _checked(spec.obs.mean_fn(t, xs), (len(xs), n), "mean_fn", t)
        # Last row first: y_i overwrites u_i, which no earlier row reads.
        for i in range(n - 1, -1, -1):
            lu = chol[i][0] * us[:, 0]
            for k in range(1, i + 1):
                lu += chol[i][k] * us[:, k]
            us[:, i] = spec.obs.obs_scale * (raw_mean[:, i] + lu)
    return y


def _path_steps(spec: SystemSpec, horizon: int, n_paths: int, rng_state, rng_obs,
                tilde: bool):
    """Each step's states (n_paths, M) and observations (n_paths, N), the
    draws u_t when ``tilde``; ModelDefinitionError for a path leaving the box."""
    x = spec.kernel.initial_sampler(rng_state, n_paths)
    for t in range(horizon + 1):
        if t > 0:
            x = spec.kernel.sampler(t, x, rng_state)
        x = _checked(x, (n_paths, spec.space.dim), "sampler" if t else "initial_sampler", t)
        outside = ~spec.space.contains(x)
        if np.any(outside):
            b = int(np.argmax(outside))
            raise ModelDefinitionError(f"kernel left the box at t={t}: path {b}, x={x[b]}")
        yield x, _observe(spec, t, x, rng_obs, tilde)


def _sample_paths(spec: SystemSpec, horizon: int, n_paths: int, rng_state, rng_obs,
                  tilde: bool) -> tuple[np.ndarray, np.ndarray]:
    """``_path_steps`` collected: states (n_paths, T+1, M), observations (n_paths, T+1, N)."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    states = np.empty((n_paths, horizon + 1, spec.space.dim))
    obs = np.empty((n_paths, horizon + 1, spec.obs.n))
    steps = _path_steps(spec, horizon, n_paths, rng_state, rng_obs, tilde)
    for t in range(horizon + 1):
        states[:, t], obs[:, t] = next(steps)
    return states, obs


def _simulate(spec: SystemSpec, horizon: int, seeds: list[int],
              tilde: bool) -> tuple[np.ndarray, np.ndarray]:
    """States (B, T+1, M) and observations (B, T+1, N), one path per seed;
    path b draws its states from stream (seeds[b], 0), its noise from (seeds[b], 1)."""
    return _sample_paths(spec, horizon, len(seeds),
                         PathStreams([make_rng(s, 0) for s in seeds]),
                         PathStreams([make_rng(s, 1) for s in seeds]), tilde)


def simulate(spec: SystemSpec, horizon: int, seed: int, tilde: bool = False) -> Trajectory:
    """One path up to time ``horizon`` from streams (seed, 0) and (seed, 1);
    ``tilde`` emits the draws u_t as the observations."""
    states, obs = _simulate(spec, horizon, [seed], tilde)
    return Trajectory(states=states[0], observations=obs[0])


def simulate_batch(spec: SystemSpec, horizon: int, n_traj: int, seed: int,
                   tilde: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """States (n_traj, T+1, M) and observations (n_traj, T+1, N) from streams
    (seed, 2) and (seed, 3); not equal to ``simulate``'s paths."""
    return _sample_paths(spec, horizon, n_traj, make_rng(seed, 2), make_rng(seed, 3), tilde)


def verify_assumptions(spec: SystemSpec, n_probe: int, seed: int,
                       horizon: int = 0) -> AssumptionConstants:
    """The empirical constants at the box corners, midpoint and ``n_probe``
    uniform points, at t = 0..``horizon``, after three sampler steps and,
    on a 1-D box with a density, its mass checks.  ValueError: n_probe < 2.
    ModelDefinitionError: an output of the wrong shape, naming the callback
    and t; a covariance not symmetric (beyond 1e-12) or not positive
    definite, a path leaving the box or a density without unit mass or not
    proportional to ``increment_cell_mass``, naming t and the point.
    AssumptionViolationError, naming the constant, point or pair and the
    value: an eigenvalue floor <= 1 or a declared constant contradicted
    beyond 1e-9 relative.
    """
    if n_probe < 2:
        raise ValueError("need n_probe >= 2")
    pts = _probe_points(spec.space, n_probe, make_rng(seed, 4))
    k = len(pts)
    rtol = 1e-9
    decl = spec.constants
    lim_mu = decl.k_mu * (1 + rtol) + 1e-12
    lim_sigma = decl.k_sigma * (1 + rtol) + 1e-12
    noise = spec.obs.obs_scale**2 * spec.obs.sigma_xi_sq * np.eye(spec.obs.n)

    lam_lo, lam_hi, mu_hi = np.inf, -np.inf, 0.0
    k_mu_emp, k_sigma_emp = 0.0, 0.0
    for t in range(horizon + 1):
        c = spec.obs.total_cov(t, pts)
        asym = np.max(np.abs(c - np.swapaxes(c, 1, 2)), axis=(1, 2))
        i = int(np.argmax(asym))
        if asym[i] > 1e-12:
            raise ModelDefinitionError(
                f"cov_fn not symmetric at t={t}, x={pts[i]}: max asymmetry {asym[i]:.3e}")
        ev = np.linalg.eigvalsh(c)
        i = int(np.argmin(ev[:, 0]))
        if ev[i, 0] <= 0.0:
            raise ModelDefinitionError(
                f"total covariance not positive definite at t={t}, x={pts[i]}")
        means = spec.obs.mean(t, pts)
        covs = c - noise
        mu = _row_norms(means)
        lam_lo, lam_hi = min(lam_lo, ev[:, 0].min()), max(lam_hi, ev[:, -1].max())
        mu_hi = max(mu_hi, mu.max())
        for name, declared, label, value, bad in (
                ("lambda_inf", decl.lambda_inf, "lambda_min(C)", ev[:, 0],
                 ev[:, 0] < decl.lambda_inf * (1 - rtol)),
                ("lambda_sup", decl.lambda_sup, "lambda_max(C)", ev[:, -1],
                 ev[:, -1] > decl.lambda_sup * (1 + rtol)),
                ("mu_sup", decl.mu_sup, "||mean||", mu,
                 mu > decl.mu_sup * (1 + rtol) + 1e-12)):
            if np.any(bad):
                i = int(np.argmax(bad))
                raise AssumptionViolationError(
                    f"{name}: declared {declared:.6g} but {label}={value[i]:.6g} "
                    f"at t={t}, x={pts[i]}")
        # Row i against every j > i keeps memory O(k) per row.
        for i in range(k - 1):
            d = np.sum(np.abs(pts[i] - pts[i + 1:]), axis=1)
            keep = d != 0.0
            j, d = np.arange(i + 1, k)[keep], d[keep]
            qm = _row_norms(means[i] - means[j]) / d
            qs = np.max(np.abs(covs[i] - covs[j]), axis=(1, 2), initial=0.0) / d
            k_mu_emp = max(k_mu_emp, np.max(qm, initial=0.0))
            k_sigma_emp = max(k_sigma_emp, np.max(qs, initial=0.0))
            bad = (qm > lim_mu) | (qs > lim_sigma)
            if np.any(bad):
                b = int(np.argmax(bad))
                name, declared, q = (("k_mu", decl.k_mu, qm[b]) if qm[b] > lim_mu
                                     else ("k_sigma", decl.k_sigma, qs[b]))
                raise AssumptionViolationError(
                    f"{name}: declared {declared:.6g} but quotient {q:.6g} "
                    f"between x={pts[i]} and x'={pts[j[b]]} at t={t}")
    if lam_lo <= 1.0:
        raise AssumptionViolationError(
            f"lambda_inf: empirical eigenvalue floor {lam_lo:.6g} <= 1; "
            "the observation scale is too small for the error budgets to apply")
    _sample_paths(spec, 3, k, make_rng(seed, 902), make_rng(seed, 903), tilde=True)
    if spec.kernel.density is not None:
        _check_density_mass(spec, pts[:4], tol=1e-6)
    return AssumptionConstants(
        lambda_inf=float(lam_lo), lambda_sup=float(lam_hi), mu_sup=float(mu_hi),
        k_mu=float(k_mu_emp), k_sigma=float(k_sigma_emp),
    )
