"""Hidden-system models: bounded Markov state, conditionally Gaussian observations.

A system couples a Markov state process living in a compact box ``Z`` with
vector observations

    y_t = scale * (mu_t(x_t) + chol(Sigma_t(x_t) + sigma_xi^2 I) u_t),

where ``u_t`` is standard Gaussian and ``scale`` is a single multiplicative
constant applied jointly to the observation mean and (squared) to the
observation covariance.  The scaled total covariance

    C_t(x) = scale^2 * (Sigma_t(x) + sigma_xi^2 I)

is the object every downstream computation sees; filtering theory here needs
its eigenvalues bounded below by a constant strictly greater than one, which
is exactly what the scale knob is for.

Two simulators are provided.  ``simulate`` draws the system as written above.
``simulate_tilde`` keeps the same state dynamics (and, for a fixed seed, the
identical state path and Gaussian draws) but emits the raw draws ``u_t`` as
observations, so observations become i.i.d. standard normal and independent
of the state path.  The pair realizes the reference-measure coupling used by
the filtering recursions and the concentration experiments.

All randomness flows through counter-based Philox streams keyed by
``(seed, stream...)``; equal keys reproduce bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

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
    "simulate_tilde",
    "simulate_batch",
    "verify_assumptions",
]


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator for stream ``(seed, *stream)``.

    Distinct keys give statistically independent streams; equal keys give
    bit-identical draws on every platform.
    """
    if seed < 0 or any(s < 0 for s in stream):
        raise ValueError("stream keys must be nonnegative integers")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *stream])))


@dataclass(frozen=True)
class StateSpace:
    """Axis-aligned closed box ``Z = [lower_1, upper_1] x ... x [lower_M, upper_M]``."""

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
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def delta(self) -> float:
        """max over coordinates of max(|lower|, |upper|); bounds any |X_t| coordinate."""
        return float(np.max(np.maximum(np.abs(self.lower), np.abs(self.upper))))

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def corners(self, cap: int = 4096) -> np.ndarray:
        """All box corners, as a (2^M, M) array (M capped so this stays small)."""
        if 2 ** self.dim > cap:
            return np.stack([self.lower, self.upper])
        grids = np.meshgrid(*[(self.lower[d], self.upper[d]) for d in range(self.dim)], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass
class ObservationModel:
    """Conditionally Gaussian observation channel.

    ``mean_fn(t, x)`` and ``cov_fn(t, x)`` describe the unscaled mean and
    state covariance; ``obs_scale`` multiplies the emitted observation (and
    hence the total covariance by its square).  Set ``stationary`` when both
    callbacks ignore ``t`` so factorizations can be cached, and ``vectorized``
    when they accept a leading batch axis on ``x``.
    """

    n: int
    mean_fn: Callable[..., np.ndarray]
    cov_fn: Callable[..., np.ndarray]
    sigma_xi_sq: float
    obs_scale: float = 1.0
    stationary: bool = False
    vectorized: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ModelDefinitionError("observation dimension must be >= 1")
        if not (self.sigma_xi_sq > 0.0):
            raise ModelDefinitionError("sigma_xi_sq must be positive")
        if not (self.obs_scale > 0.0):
            raise ModelDefinitionError("obs_scale must be positive")

    def mean(self, t: int, x: np.ndarray) -> np.ndarray:
        """Scaled observation mean, shape (n,) (or (batch, n) when vectorized)."""
        return self.obs_scale * np.asarray(self.mean_fn(t, x), dtype=float)

    def total_cov(self, t: int, x: np.ndarray) -> np.ndarray:
        """Scaled total covariance C_t(x), shape (n, n) (batched likewise)."""
        sig = np.asarray(self.cov_fn(t, x), dtype=float)
        return self.obs_scale**2 * (sig + self.sigma_xi_sq * np.eye(self.n))


@dataclass
class TransitionKernel:
    """State dynamics: ``sampler(t, x_prev, rng)`` draws X_t given X_{t-1}.

    ``density(t, x_prev, x_next)``, when present, is the transition density
    with respect to Lebesgue measure on Z and must integrate to one there.
    ``initial_sampler(rng)`` draws X_0; ``initial_density(x)`` is its density.
    Vectorized kernels accept a leading batch axis on ``x_prev`` (and a
    ``size`` argument on ``initial_sampler``).  Only order-1 kernels can be
    turned into a quantized chain.

    ``increment_density(dx)``, optional, declares the dynamics translation
    invariant: it maps offsets of shape (n, M) to the (n,) density of the
    unconstrained step X_t - X_{t-1}, and on the box ``density(t, x_prev, .)``
    must be proportional to ``increment_density(. - x_prev)`` for every
    ``x_prev``.  The per-row constant (a truncation factor, say) is free; it
    cancels when chain rows are renormalized.  With it, quadrature chain
    construction integrates one offset profile (16K evaluations for K cells)
    instead of every row (8K^2); ``SystemSpec.validate`` checks the
    proportionality.  One-dimensional boxes only.
    """

    sampler: Callable[..., np.ndarray]
    initial_sampler: Callable[..., np.ndarray]
    density: Optional[Callable[..., np.ndarray]] = None
    initial_density: Optional[Callable[..., np.ndarray]] = None
    order: int = 1
    vectorized: bool = False
    increment_density: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.order < 1:
            raise ModelDefinitionError("Markov order must be >= 1")


@dataclass(frozen=True)
class AssumptionConstants:
    """Regularity constants of the observation channel.

    lambda_inf / lambda_sup bound the eigenvalues of C_t(x) from below and
    above; mu_sup bounds the scaled mean norm; k_mu and k_sigma are Lipschitz
    constants of the mean (l2 over l1) and of the covariance entries.  The
    optional trailing constants are estimated by the bounds suite and feed the
    quadratic-form and product-error budgets: k_det for determinant
    differences, k_det_minor for size-(n-1) minors, k_inv for the inverse map.

    Audits reject lambda_inf <= 1; construction only requires it positive so
    deliberately degenerate demonstration models remain expressible.
    """

    lambda_inf: float
    lambda_sup: float
    mu_sup: float
    k_mu: float
    k_sigma: float
    k_det: Optional[float] = None
    k_det_minor: Optional[float] = None
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

    def with_derived(self, k_det: float, k_det_minor: float, k_inv: float) -> "AssumptionConstants":
        return AssumptionConstants(
            self.lambda_inf, self.lambda_sup, self.mu_sup, self.k_mu, self.k_sigma,
            k_det=k_det, k_det_minor=k_det_minor, k_inv=k_inv,
        )


@dataclass
class SystemSpec:
    """Bundle of state space, dynamics, observation channel and declared constants."""

    space: StateSpace
    kernel: TransitionKernel
    obs: ObservationModel
    constants: AssumptionConstants
    model_id: str = "custom"

    def validate(self, n_probe: int = 32, seed: int = 0, horizon: int = 0) -> None:
        """Spot-check the callbacks: covariance symmetry and positive
        definiteness, eigenvalue floor above one, sampler range, density mass
        and its proportionality to ``increment_density`` when declared.

        Raises ModelDefinitionError / AssumptionViolationError naming the
        offending evaluation point.
        """
        rng = make_rng(seed, 901)
        pts = _probe_points(self.space, n_probe, rng)
        for t in range(horizon + 1):
            for x in pts:
                c = self.obs.total_cov(t, x)
                if c.shape != (self.obs.n, self.obs.n):
                    raise ModelDefinitionError(f"cov_fn shape {c.shape} at t={t}, x={x}")
                asym = np.max(np.abs(c - c.T))
                if asym > 1e-12:
                    raise ModelDefinitionError(
                        f"cov_fn not symmetric at t={t}, x={x}: max asymmetry {asym:.3e}")
                lam_min = float(np.linalg.eigvalsh(c)[0])
                if lam_min <= 0.0:
                    raise ModelDefinitionError(
                        f"total covariance not positive definite at t={t}, x={x}")
                if lam_min <= 1.0:
                    raise AssumptionViolationError(
                        f"lambda_min(C)={lam_min:.6g} <= 1 at t={t}, x={x}; "
                        "increase obs_scale")
        x = self.kernel.initial_sampler(make_rng(seed, 902))
        for t in range(1, 4):
            if not self.space.contains(x):
                raise ModelDefinitionError(f"sampled state {x} left the box at t={t - 1}")
            x = self.kernel.sampler(t, x, make_rng(seed, 902, t))
        if self.kernel.density is not None and self.kernel.vectorized:
            _check_density_mass(self, pts[: min(4, len(pts))], tol=1e-6)


def _check_density_mass(spec: SystemSpec, sources: np.ndarray, tol: float) -> None:
    """Unit mass of the transition density from each source and, when the
    kernel declares ``increment_density``, a density-to-hook ratio constant
    to 1e-9 relative over the nodes where the density is positive (subnormal
    values, which carry no relative precision, are skipped)."""
    # Gauss-Legendre over the box, 64 panels of order 8 per dimension.
    if spec.space.dim != 1:
        return
    nodes, weights = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(spec.space.lower[0], spec.space.upper[0], 65)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    xs = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()[:, None]
    ws = (half[:, None] * weights[None, :]).ravel()
    hook = spec.kernel.increment_density
    for x_prev in sources:
        dens = np.asarray(spec.kernel.density(1, x_prev, xs), dtype=float).ravel()
        mass = float(dens @ ws)
        if abs(mass - 1.0) > tol:
            raise ModelDefinitionError(
                f"transition density mass {mass:.8f} != 1 from x_prev={x_prev}")
        if hook is None:
            continue
        inc = np.asarray(hook(xs - x_prev), dtype=float).ravel()
        pos = dens >= np.finfo(float).tiny
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = dens[pos] / inc[pos]
        lo, hi = np.min(ratio), np.max(ratio)
        if not (np.isfinite(hi) and lo > 0.0 and hi - lo <= 1e-9 * hi):
            raise ModelDefinitionError(
                f"density is not proportional to increment_density from "
                f"x_prev={x_prev}: density/increment ratio spans [{lo:.8g}, {hi:.8g}]")


@dataclass
class Trajectory:
    """One simulated path: states (T+1, M), observations (T+1, N), and its seed."""

    states: np.ndarray
    observations: np.ndarray
    seed: int

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        self.observations = np.atleast_2d(np.asarray(self.observations, dtype=float))
        if self.states.shape[0] != self.observations.shape[0]:
            raise ModelDefinitionError("states and observations must share a time axis")

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1


def _probe_points(space: StateSpace, n_probe: int, rng: np.random.Generator) -> np.ndarray:
    """Box corners, midpoint, and n_probe uniform draws (corners make the
    empirical eigenvalue range tight for monotone models)."""
    u = rng.uniform(space.lower, space.upper, size=(n_probe, space.dim))
    mid = 0.5 * (space.lower + space.upper)
    return np.concatenate([space.corners(), mid[None, :], u], axis=0)


def _simulate(spec: SystemSpec, horizon: int, seed: int, tilde: bool,
              state_stream: tuple = (), obs_stream: tuple = ()) -> Trajectory:
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    rng_state = make_rng(seed, 0, *state_stream)
    rng_obs = make_rng(seed, 1, *obs_stream)
    m, n = spec.space.dim, spec.obs.n
    states = np.empty((horizon + 1, m))
    obs = np.empty((horizon + 1, n))
    x = np.asarray(spec.kernel.initial_sampler(rng_state), dtype=float).reshape(m)
    for t in range(horizon + 1):
        if t > 0:
            x = np.asarray(spec.kernel.sampler(t, x, rng_state), dtype=float).reshape(m)
        if not spec.space.contains(x):
            raise ModelDefinitionError(f"kernel left the box at t={t}: x={x}")
        states[t] = x
        u = rng_obs.standard_normal(n)
        if tilde:
            obs[t] = u
        else:
            raw_cov = np.asarray(spec.obs.cov_fn(t, x), dtype=float) \
                + spec.obs.sigma_xi_sq * np.eye(n)
            try:
                chol = np.linalg.cholesky(raw_cov)
            except np.linalg.LinAlgError as exc:
                raise ModelDefinitionError(
                    f"total covariance not positive definite at t={t}, x={x}") from exc
            raw_mean = np.asarray(spec.obs.mean_fn(t, x), dtype=float).reshape(n)
            # Factoring obs_scale out keeps y exactly linear in the scale.
            obs[t] = spec.obs.obs_scale * (raw_mean + chol @ u)
    return Trajectory(states=states, observations=obs, seed=seed)


def simulate(spec: SystemSpec, horizon: int, seed: int) -> Trajectory:
    """Draw one path of states and observations up to time ``horizon``.

    Deterministic in ``seed``; the state path coincides with the one
    ``simulate_tilde`` produces for the same seed.
    """
    return _simulate(spec, horizon, seed, tilde=False)


def simulate_tilde(spec: SystemSpec, horizon: int, seed: int) -> Trajectory:
    """Draw one path under the reference coupling: identical state dynamics,
    observations replaced by their driving i.i.d. standard normal draws."""
    return _simulate(spec, horizon, seed, tilde=True)


def simulate_batch(spec: SystemSpec, horizon: int, n_traj: int, seed: int,
                   tilde: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n_traj`` independent paths at once.

    Returns (states, observations) with shapes (n_traj, T+1, M) and
    (n_traj, T+1, N).  Uses the kernel/observation batch callbacks when both
    are flagged vectorized, else falls back to a per-trajectory loop with
    derived seeds.  Deterministic in (seed, n_traj); the batched draws are not
    element-wise equal to per-trajectory ``simulate`` calls.
    """
    if not (spec.kernel.vectorized and spec.obs.vectorized):
        out_s = np.empty((n_traj, horizon + 1, spec.space.dim))
        out_y = np.empty((n_traj, horizon + 1, spec.obs.n))
        for i in range(n_traj):
            traj = _simulate(spec, horizon, seed, tilde, state_stream=(i,), obs_stream=(i,))
            out_s[i], out_y[i] = traj.states, traj.observations
        return out_s, out_y

    rng_state = make_rng(seed, 2)
    rng_obs = make_rng(seed, 3)
    m, n = spec.space.dim, spec.obs.n
    states = np.empty((n_traj, horizon + 1, m))
    obs = np.empty((n_traj, horizon + 1, n))
    x = np.asarray(spec.kernel.initial_sampler(rng_state, size=n_traj), dtype=float).reshape(n_traj, m)
    eye = np.eye(n)
    for t in range(horizon + 1):
        if t > 0:
            x = np.asarray(spec.kernel.sampler(t, x, rng_state), dtype=float).reshape(n_traj, m)
        states[:, t, :] = x
        u = rng_obs.standard_normal((n_traj, n))
        if tilde:
            obs[:, t, :] = u
        else:
            raw_cov = np.asarray(spec.obs.cov_fn(t, x), dtype=float) + spec.obs.sigma_xi_sq * eye
            chol = np.linalg.cholesky(raw_cov)
            raw_mean = np.asarray(spec.obs.mean_fn(t, x), dtype=float).reshape(n_traj, n)
            obs[:, t, :] = spec.obs.obs_scale * (raw_mean + np.einsum("bij,bj->bi", chol, u))
    lo, hi = spec.space.lower, spec.space.upper
    if np.any(states < lo) or np.any(states > hi):
        raise ModelDefinitionError("batched kernel left the box")
    return states, obs


def verify_assumptions(spec: SystemSpec, n_probe: int, seed: int,
                       horizon: int = 0) -> AssumptionConstants:
    """Audit the declared constants against probed model evaluations.

    Probes the box corners, midpoint and ``n_probe`` uniform points at every
    time in ``0..horizon`` (stationary models can leave horizon at 0), and
    measures: eigenvalue range of C_t, sup of the scaled mean norm, and the
    Lipschitz quotients of mean (l2 over l1) and covariance entries (max
    entry over l1) across all probe pairs.  Returns the empirical constants.

    Raises AssumptionViolationError, naming the constant, the probe pair and
    the measured quotient, if the empirical eigenvalue floor is <= 1 or any
    declared constant is contradicted beyond a 1e-9 relative slack.
    """
    if n_probe < 2:
        raise ValueError("need n_probe >= 2")
    rng = make_rng(seed, 4)
    pts = _probe_points(spec.space, n_probe, rng)
    k = len(pts)
    rtol = 1e-9

    lam_lo, lam_hi, mu_hi = np.inf, -np.inf, 0.0
    k_mu_emp, k_sigma_emp = 0.0, 0.0
    decl = spec.constants
    for t in range(horizon + 1):
        means = np.empty((k, spec.obs.n))
        covs = np.empty((k, spec.obs.n, spec.obs.n))
        for i, x in enumerate(pts):
            c = spec.obs.total_cov(t, x)
            ev = np.linalg.eigvalsh(c)
            means[i] = spec.obs.mean(t, x)
            covs[i] = c - spec.obs.obs_scale**2 * spec.obs.sigma_xi_sq * np.eye(spec.obs.n)
            lam_lo, lam_hi = min(lam_lo, ev[0]), max(lam_hi, ev[-1])
            mu = float(np.linalg.norm(means[i]))
            mu_hi = max(mu_hi, mu)
            if ev[0] < decl.lambda_inf * (1 - rtol):
                raise AssumptionViolationError(
                    f"lambda_inf: declared {decl.lambda_inf:.6g} but "
                    f"lambda_min(C)={ev[0]:.6g} at t={t}, x={x}")
            if ev[-1] > decl.lambda_sup * (1 + rtol):
                raise AssumptionViolationError(
                    f"lambda_sup: declared {decl.lambda_sup:.6g} but "
                    f"lambda_max(C)={ev[-1]:.6g} at t={t}, x={x}")
            if mu > decl.mu_sup * (1 + rtol) + 1e-12:
                raise AssumptionViolationError(
                    f"mu_sup: declared {decl.mu_sup:.6g} but ||mean||={mu:.6g} "
                    f"at t={t}, x={x}")
        for i in range(k):
            for j in range(i + 1, k):
                d = float(np.sum(np.abs(pts[i] - pts[j])))
                if d == 0.0:
                    continue
                qm = float(np.linalg.norm(means[i] - means[j])) / d
                qs = float(np.max(np.abs(covs[i] - covs[j]))) / d
                k_mu_emp = max(k_mu_emp, qm)
                k_sigma_emp = max(k_sigma_emp, qs)
                if qm > decl.k_mu * (1 + rtol) + 1e-12:
                    raise AssumptionViolationError(
                        f"k_mu: declared {decl.k_mu:.6g} but quotient {qm:.6g} "
                        f"between x={pts[i]} and x'={pts[j]} at t={t}")
                if qs > decl.k_sigma * (1 + rtol) + 1e-12:
                    raise AssumptionViolationError(
                        f"k_sigma: declared {decl.k_sigma:.6g} but quotient {qs:.6g} "
                        f"between x={pts[i]} and x'={pts[j]} at t={t}")
    if lam_lo <= 1.0:
        raise AssumptionViolationError(
            f"lambda_inf: empirical eigenvalue floor {lam_lo:.6g} <= 1; "
            "the observation scale is too small for the error budgets to apply")
    return AssumptionConstants(
        lambda_inf=float(lam_lo), lambda_sup=float(lam_hi), mu_sup=float(mu_hi),
        k_mu=float(k_mu_emp), k_sigma=float(k_sigma_emp),
    )
