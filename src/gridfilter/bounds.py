"""Numerical checks of the deterministic inequalities behind the error budget.

Every check samples randomized instances, evaluates both sides of one
inequality, and reports the worst left/right ratio; a ratio of one means the
bound is tight, anything meaningfully above one falsifies it.  Empirical
constants are maxima over the sampled instances, with no extrapolation claim
beyond them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .csvio import write_csv
from .errors import AssumptionViolationError, ConfigError
from .model import SystemSpec, _row_norms, make_rng

__all__ = [
    "BoundReport",
    "product_difference_sides",
    "matvec_difference_sides",
    "check_product_bound",
    "adjugate_cofactor",
    "check_adjugate_bound",
    "check_lipschitz_suite",
    "audit_derived_constants",
    "theta_bound",
    "check_theta_bound",
    "k_inv_formula",
    "write_bound_reports",
]

PASS_SLACK = 1e-9


@dataclass
class BoundReport:
    """Outcome of one inequality check."""

    check_id: str
    n_trials: int
    worst_ratio: float
    constants: dict = field(default_factory=dict)
    seed: Optional[int] = None

    @property
    def passed(self) -> bool:
        return self.worst_ratio <= 1.0 + PASS_SLACK


def write_bound_reports(path: str, reports: Sequence[BoundReport],
                        meta: Optional[dict] = None) -> None:
    all_keys = sorted({k for r in reports for k in r.constants})
    header = ["check_id", "n_trials", "worst_ratio", "passed"] + all_keys
    rows = [[r.check_id, r.n_trials, r.worst_ratio, r.passed]
            + [r.constants.get(k, "") for k in all_keys] for r in reports]
    write_csv(path, meta or {}, header, rows)


def _matrix_norm(m: np.ndarray, norm: str) -> float:
    if norm == "fro":
        return float(np.linalg.norm(m, "fro"))
    if norm == "spectral":
        return float(np.linalg.norm(m, 2))
    raise ValueError(f"unsupported matrix norm {norm!r}")


def product_difference_sides(a_seq: Sequence[np.ndarray], b_seq: Sequence[np.ndarray],
                             norm: str = "fro") -> tuple[float, float]:
    """Both sides of the telescoping product bound

        ||prod A_i - prod B_i|| <= sum_i (prod_{j<i} ||A_j||)
                                          (prod_{j>i} ||B_j||) ||A_i - B_i||

    for square matrices under a submultiplicative norm.  Scalars enter as
    1x1 matrices.
    """
    a_seq = [np.atleast_2d(np.asarray(a, dtype=float)) for a in a_seq]
    b_seq = [np.atleast_2d(np.asarray(b, dtype=float)) for b in b_seq]
    if len(a_seq) != len(b_seq) or not a_seq:
        raise ValueError("need two equally long nonempty factor sequences")
    shape = a_seq[0].shape
    if shape[0] != shape[1] or any(m.shape != shape for m in a_seq + b_seq):
        raise ValueError("factors must be square matrices of one common size")
    prod_a = np.linalg.multi_dot(a_seq) if len(a_seq) > 1 else a_seq[0]
    prod_b = np.linalg.multi_dot(b_seq) if len(b_seq) > 1 else b_seq[0]
    lhs = _matrix_norm(prod_a - prod_b, norm)
    norms_a = [_matrix_norm(m, norm) for m in a_seq]
    norms_b = [_matrix_norm(m, norm) for m in b_seq]
    rhs = 0.0
    for i in range(len(a_seq)):
        rhs += (math.prod(norms_a[:i]) * math.prod(norms_b[i + 1:])
                * _matrix_norm(a_seq[i] - b_seq[i], norm))
    return lhs, rhs


def matvec_difference_sides(a: np.ndarray, x: np.ndarray, b: np.ndarray,
                            y: np.ndarray, p: float = 2) -> tuple[float, float]:
    """Both sides of ||Ax - By||_p <= ||A|| ||x - y||_p + ||y||_p ||A - B||
    with the matrix norm subordinate to the vector p-norm."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    lhs = float(np.linalg.norm(a @ x - b @ y, p))
    rhs = (float(np.linalg.norm(a, p)) * float(np.linalg.norm(x - y, p))
           + float(np.linalg.norm(y, p)) * float(np.linalg.norm(a - b, p)))
    return lhs, rhs


def _ratios(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lhs / rhs elementwise; 0 where both sides vanish, inf where only rhs does."""
    pos = rhs > 0.0
    return np.where(pos, lhs / np.where(pos, rhs, 1.0), np.where(lhs <= 0.0, 0.0, math.inf))


def _ratio(lhs: float, rhs: float) -> float:
    return float(_ratios(lhs, rhs))


def check_product_bound(trials: Iterable[tuple[Sequence[np.ndarray], Sequence[np.ndarray]]],
                        norm: str = "fro", seed: Optional[int] = None) -> BoundReport:
    """Worst product-difference ratio over supplied (A-sequence, B-sequence) pairs."""
    worst = 0.0
    count = 0
    for a_seq, b_seq in trials:
        lhs, rhs = product_difference_sides(a_seq, b_seq, norm)
        worst = max(worst, _ratio(lhs, rhs))
        count += 1
    return BoundReport(check_id=f"product-difference-{norm}", n_trials=count,
                       worst_ratio=worst, seed=seed)


def adjugate_cofactor(mat: np.ndarray) -> np.ndarray:
    """Dense adjugate by cofactor expansion; oracle-grade, limited to n <= 5."""
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("need a square matrix")
    if n > 5:
        raise ValueError("cofactor oracle limited to n <= 5")
    if n == 1:
        return np.array([[1.0]])
    adj = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(mat, i, axis=0), j, axis=1)
            adj[j, i] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return adj


def _random_spd(rng: np.random.Generator, n: int, lam_lo: float, lam_hi: float) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(lam_lo, lam_hi, size=n)
    m = (q * lam) @ q.T
    return 0.5 * (m + m.T)


def check_adjugate_bound(n_dim: int, n_trials: int, seed: int = 0) -> BoundReport:
    """||adj(C)||_F <= sqrt(n) det(C) on random SPD matrices with eigenvalues
    above one, adjugate from the cofactor oracle."""
    rng = make_rng(seed, 10)
    worst = 0.0
    for _ in range(n_trials):
        c = _random_spd(rng, n_dim, 1.05, 4.0)
        adj = adjugate_cofactor(c)
        lhs = float(np.linalg.norm(adj, "fro"))
        rhs = math.sqrt(n_dim) * float(np.linalg.det(c))
        worst = max(worst, _ratio(lhs, rhs))
    return BoundReport(check_id=f"adjugate-norm-{n_dim}d", n_trials=n_trials,
                       worst_ratio=worst, seed=seed)


def k_inv_formula(lambda_inf: float, k_det: float, k_det_minor: float,
                  k_sigma: float) -> float:
    """Closed-form inverse-difference constant from the eigenvalue floor and
    the determinant/minor/covariance Lipschitz constants; needs lambda_inf > 1."""
    if lambda_inf <= 1.0:
        raise AssumptionViolationError(
            f"inverse-difference budget needs an eigenvalue floor > 1, "
            f"got {lambda_inf:.6g}")
    log_lam = math.log(lambda_inf)
    prefactor = 27.0 * lambda_inf ** (-3.0 / log_lam) / log_lam**3
    return prefactor * (k_det + k_det_minor) * k_sigma


def _at_times(fn, ts: np.ndarray, pts: np.ndarray, shape: tuple) -> np.ndarray:
    """``fn(t, x)`` at every (ts[i], pts[i]), one batched call per distinct t;
    each value has ``shape``."""
    out = np.empty((len(pts),) + shape)
    for t in np.unique(ts):
        sel = ts == t
        out[sel] = fn(int(t), pts[sel])
    return out


def check_lipschitz_suite(spec: SystemSpec, n_pairs: int, seed: int = 0,
                          horizon: int = 0) -> BoundReport:
    """Estimate the determinant, minor and inverse Lipschitz constants of the
    total covariance map and check the covariance bound and the closed-form
    inverse constant against them.

    Ratios entering the verdict: entrywise covariance differences against the
    declared constant, and the empirical inverse-difference quotient against
    the closed form.  The determinant and minor constants are the maxima of
    their own quotients (reported, tight at one by construction).  All pairs
    are evaluated as stacks in one pass.
    """
    if n_pairs < 1:
        raise ValueError("need n_pairs >= 1")
    rng = make_rng(seed, 11)
    space, obs, decl = spec.space, spec.obs, spec.constants
    n = obs.n
    xs = rng.uniform(space.lower, space.upper, size=(n_pairs, space.dim))
    ys = rng.uniform(space.lower, space.upper, size=(n_pairs, space.dim))
    ts = rng.integers(0, horizon + 1, size=n_pairs)
    d = np.sum(np.abs(xs - ys), axis=1)
    keep = d != 0.0
    d, ts = d[keep], ts[keep]
    cx = _at_times(obs.total_cov, ts, xs[keep], (n, n))
    cy = _at_times(obs.total_cov, ts, ys[keep], (n, n))
    diff = cx - cy
    cdiff = _row_norms(diff)
    entry_diff = np.max(np.abs(diff), axis=(1, 2), initial=0.0)
    sigma_worst = np.max(_ratios(entry_diff, decl.k_sigma * d), initial=0.0)
    det_diff = np.abs(np.linalg.det(cx) - np.linalg.det(cy))
    moved = cdiff > 0.0
    k_det_hat = np.max(det_diff[moved] / (n * cdiff[moved]), initial=0.0)
    k_minor_hat = 0.0
    if n >= 2:
        mx, my = cx[moved], cy[moved]
        for i in range(n):
            for j in range(n):
                sx = np.delete(np.delete(mx, i, axis=1), j, axis=2)
                sy = np.delete(np.delete(my, i, axis=1), j, axis=2)
                sdiff = _row_norms(sx - sy)
                md = np.abs(np.linalg.det(sx) - np.linalg.det(sy))
                ok = sdiff > 0.0
                k_minor_hat = max(k_minor_hat,
                                  np.max(md[ok] / ((n - 1) * sdiff[ok]), initial=0.0))
    inv_diff = _row_norms(np.linalg.inv(cx) - np.linalg.inv(cy))
    k_inv_emp = np.max(inv_diff / d, initial=0.0)
    if decl.k_sigma == 0.0:
        # Constant covariance map: the true inverse-difference constant is zero.
        formula = 0.0
    else:
        formula = k_inv_formula(decl.lambda_inf, k_det_hat, k_minor_hat, decl.k_sigma)
    inv_ratio = _ratio(k_inv_emp, formula)
    # The sampled pairs against the estimated determinant constant; tight at 1
    # when any pair moved the covariance.
    det_worst = np.max(_ratios(det_diff, n * k_det_hat * cdiff), initial=0.0)
    worst = max(sigma_worst, det_worst, inv_ratio)
    return BoundReport(
        check_id="covariance-lipschitz-suite", n_trials=int(keep.sum()),
        worst_ratio=float(worst),
        constants={
            "k_sigma_declared": decl.k_sigma,
            "k_det": float(k_det_hat),
            "k_det_minor": float(k_minor_hat),
            "k_inv_empirical": float(k_inv_emp),
            "k_inv_formula": formula,
        },
        seed=seed)


def _with_derived(spec: SystemSpec, report: BoundReport) -> SystemSpec:
    """``spec`` carrying the constants of a passed Lipschitz-suite report."""
    if not report.passed:
        raise AssumptionViolationError(
            f"covariance regularity check failed with ratio {report.worst_ratio:.6g}")
    c = report.constants
    constants = spec.constants.with_derived(
        k_det=c["k_det"], k_det_minor=c["k_det_minor"], k_inv=c["k_inv_formula"])
    return SystemSpec(space=spec.space, kernel=spec.kernel, obs=spec.obs,
                      constants=constants, model_id=spec.model_id)


def audit_derived_constants(spec: SystemSpec, n_pairs: int = 2000, seed: int = 0,
                            horizon: int = 0) -> SystemSpec:
    """Return a copy of the spec whose constants carry the estimated
    determinant/minor constants and the closed-form inverse constant."""
    return _with_derived(spec, check_lipschitz_suite(spec, n_pairs, seed, horizon))


def theta_bound(spec: SystemSpec, y: np.ndarray) -> float:
    """Lipschitz budget, in the state, of the observation quadratic form:

        Theta(y) = 2 k_mu (||y|| + mu_sup) / lambda_inf
                   + k_inv (||y|| + mu_sup)^2.
    """
    c = spec.constants
    if c.k_inv is None:
        raise ConfigError("constants lack k_inv; run audit_derived_constants first")
    s = float(np.linalg.norm(np.asarray(y, dtype=float))) + c.mu_sup
    return c.k_mu * 2.0 * s / c.lambda_inf + c.k_inv * s * s


def check_theta_bound(spec: SystemSpec, n_draws: int, seed: int = 0,
                      y_sigma: float = 2.0, horizon: int = 0) -> BoundReport:
    """Quadratic-form differences against Theta(y) times the state distance."""
    rng = make_rng(seed, 12)
    space, obs = spec.space, spec.obs
    m, n = space.dim, obs.n
    ts = np.empty(n_draws, dtype=int)
    x1, x2 = np.empty((n_draws, m)), np.empty((n_draws, m))
    ys = np.empty((n_draws, n))
    # One draw at a time keeps the stream order of the trials.
    for i in range(n_draws):
        ts[i] = rng.integers(0, horizon + 1)
        x1[i] = rng.uniform(space.lower, space.upper)
        x2[i] = rng.uniform(space.lower, space.upper)
        ys[i] = y_sigma * rng.standard_normal(n)
    d = np.sum(np.abs(x1 - x2), axis=1)
    keep = d != 0.0
    ts, ys, d = ts[keep], ys[keep], d[keep]
    q = []
    for x in (x1[keep], x2[keep]):
        resid = ys - _at_times(obs.mean, ts, x, (n,))
        sol = np.linalg.solve(_at_times(obs.total_cov, ts, x, (n, n)), resid[..., None])
        q.append((resid[:, None, :] @ sol)[:, 0, 0])
    theta = np.array([theta_bound(spec, y) for y in ys])
    worst = np.max(_ratios(np.abs(q[0] - q[1]), theta * d), initial=0.0)
    return BoundReport(check_id="quadform-difference", n_trials=n_draws,
                       worst_ratio=float(worst), seed=seed)
