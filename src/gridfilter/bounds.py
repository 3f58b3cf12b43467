"""Randomized checks of the deterministic inequalities behind the error
budget: each reports the worst left/right ratio over its trials, and passes
at most ``1 + PASS_SLACK``; its empirical constants are maxima over them."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

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
]

PASS_SLACK = 1e-9
# ``check_theta_bound`` draws its observations from N(0, _THETA_Y_SIGMA^2 I).
_THETA_Y_SIGMA = 2.0


@dataclass
class BoundReport:
    """Outcome of one inequality check."""

    check_id: str
    n_trials: int
    worst_ratio: float
    constants: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.worst_ratio <= 1.0 + PASS_SLACK


def _matrix_norm(m: np.ndarray, norm: str) -> float:
    if norm == "fro":
        return float(np.linalg.norm(m, "fro"))
    if norm == "spectral":
        return float(np.linalg.norm(m, 2))
    raise ValueError(f"unsupported matrix norm {norm!r}")


def product_difference_sides(a_seq: Sequence[np.ndarray], b_seq: Sequence[np.ndarray],
                             norm: str = "fro") -> tuple[float, float]:
    """Both sides of ||prod A_i - prod B_i|| <= sum_i (prod_{j<i} ||A_j||)
    (prod_{j>i} ||B_j||) ||A_i - B_i|| for square factors of one size (a
    scalar is 1x1) in the "fro" or "spectral" norm; ValueError otherwise."""
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


def check_product_bound(n_trials: int, seed: int = 0, norm: str = "fro") -> BoundReport:
    """Worst product-difference ratio over ``n_trials`` pairs of factor
    sequences drawn from stream (seed, 30): per trial a size n in 2..5, a
    length in 1..4, then the n x n standard normal A factors and B factors."""
    if n_trials < 1:
        raise ValueError("need n_trials >= 1")
    rng, worst = make_rng(seed, 30), 0.0
    for _ in range(n_trials):
        n, length = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        a_seq = [rng.standard_normal((n, n)) for _ in range(length)]
        b_seq = [rng.standard_normal((n, n)) for _ in range(length)]
        worst = max(worst, float(_ratios(*product_difference_sides(a_seq, b_seq, norm))))
    return BoundReport(check_id=f"product-difference-{norm}", n_trials=n_trials,
                       worst_ratio=worst)


def adjugate_cofactor(mat: np.ndarray) -> np.ndarray:
    """Dense adjugate by cofactor expansion; oracle-grade, limited to n <= 5."""
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("need a square matrix")
    if n > 5:
        raise ValueError("cofactor oracle limited to n <= 5")
    adj = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(mat, i, axis=0), j, axis=1)
            adj[j, i] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return adj


def _minors(c: np.ndarray) -> Iterator[np.ndarray]:
    """Every minor of the stacked (..., n, n) matrices ``c``, one at a time in
    row-major order of (i, j): ``c[...]`` without row i and column j, each a
    (..., n-1, n-1) stack."""
    k, n = np.arange(c.shape[-1] - 1), c.shape[-1]
    keep = k + (k >= np.arange(n)[:, None])  # keep[i]: 0..n-1 without i
    for i in range(n):
        for j in range(n):
            yield c[..., keep[i][:, None], keep[j]]


def _adjugate_trials(n_dim: int, n_trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The adjugate check's SPD matrices (n_trials, n, n), drawn trial by trial
    (eigenvectors by QR of a Gaussian draw, then eigenvalues in [1.05, 4)), and
    their adjugates, one stacked determinant per cofactor minor."""
    rng = make_rng(seed, 10)
    z, lam = np.empty((n_trials, n_dim, n_dim)), np.empty((n_trials, n_dim))
    for t in range(n_trials):
        z[t], lam[t] = rng.standard_normal((n_dim, n_dim)), rng.uniform(1.05, 4.0, size=n_dim)
    q, _ = np.linalg.qr(z)
    m = (q * lam[:, None, :]) @ np.swapaxes(q, 1, 2)
    c = 0.5 * (m + np.swapaxes(m, 1, 2))
    adj = np.empty_like(c)
    for (i, j), minor in zip(np.ndindex(n_dim, n_dim), _minors(c)):
        adj[:, j, i] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return c, adj


def check_adjugate_bound(n_dim: int, n_trials: int, seed: int = 0) -> BoundReport:
    """||adj(C)||_F <= sqrt(n) det(C) on random SPD matrices with eigenvalues
    above one; ValueError for n_dim or n_trials below 1."""
    if n_dim < 1 or n_trials < 1:
        raise ValueError("need n_dim >= 1 and n_trials >= 1")
    c, adj = _adjugate_trials(n_dim, n_trials, seed)
    worst = np.max(_ratios(_row_norms(adj), math.sqrt(n_dim) * np.linalg.det(c)), initial=0.0)
    return BoundReport(check_id=f"adjugate-norm-{n_dim}d", n_trials=n_trials,
                       worst_ratio=float(worst))


def k_inv_formula(lambda_inf: float, k_det: float, k_det_minor: float,
                  k_sigma: float) -> float:
    """Closed-form inverse-difference constant from the eigenvalue floor and
    the determinant, minor and covariance Lipschitz constants;
    AssumptionViolationError for lambda_inf <= 1."""
    if lambda_inf <= 1.0:
        raise AssumptionViolationError(
            f"inverse-difference budget needs an eigenvalue floor > 1, "
            f"got {lambda_inf:.6g}")
    log_lam = math.log(lambda_inf)
    prefactor = 27.0 * lambda_inf ** (-3.0 / log_lam) / log_lam**3
    return prefactor * (k_det + k_det_minor) * k_sigma


def _at_times(fn, ts: np.ndarray, pts: np.ndarray, shape: tuple) -> np.ndarray:
    """``fn(t, x)`` of ``shape`` at every (ts[i], pts[i]), one batched call
    per distinct t, found by a set (``np.unique`` imports ``numpy.ma``)."""
    out = np.empty((len(pts),) + shape)
    for t in set(ts.tolist()):
        sel = ts == t
        out[sel] = fn(t, pts[sel])
    return out


def check_lipschitz_suite(spec: SystemSpec, n_pairs: int, seed: int = 0,
                          horizon: int = 0) -> BoundReport:
    """The determinant, minor and inverse Lipschitz constants of the total
    covariance map over ``n_pairs`` state pairs; the verdict takes the entry
    differences against the declared k_sigma and the inverse quotient
    against ``k_inv_formula``.  ValueError: n_pairs < 1."""
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
    for sx, sy in zip(_minors(cx[moved]), _minors(cy[moved])):
        md = np.abs(np.linalg.det(sx) - np.linalg.det(sy))
        sdiff = _row_norms(sx - sy)
        ok = sdiff > 0.0
        k_minor_hat = np.max(md[ok] / ((n - 1) * sdiff[ok]), initial=k_minor_hat)
    inv_diff = _row_norms(np.linalg.inv(cx) - np.linalg.inv(cy))
    k_inv_emp = np.max(inv_diff / d, initial=0.0)
    if decl.k_sigma == 0.0:
        # Constant covariance map: the true inverse-difference constant is zero.
        formula = 0.0
    else:
        formula = k_inv_formula(decl.lambda_inf, k_det_hat, k_minor_hat, decl.k_sigma)
    inv_ratio = float(_ratios(k_inv_emp, formula))
    # tight at 1 when any pair moved the covariance
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
            "k_inv_formula": float(formula),
        })


def _with_derived(spec: SystemSpec, report: BoundReport) -> SystemSpec:
    """``spec`` carrying the constants of a passed Lipschitz-suite report."""
    if not report.passed:
        raise AssumptionViolationError(
            f"covariance regularity check failed with ratio {report.worst_ratio:.6g}")
    c = report.constants
    return replace(spec, constants=replace(
        spec.constants, k_det=c["k_det"], k_inv=c["k_inv_formula"]))


def audit_derived_constants(spec: SystemSpec, n_pairs: int = 2000, seed: int = 0,
                            horizon: int = 0) -> SystemSpec:
    """A copy of the spec whose constants carry the estimated k_det and the
    closed-form k_inv; AssumptionViolationError when the suite fails."""
    return _with_derived(spec, check_lipschitz_suite(spec, n_pairs, seed, horizon))


def _theta(constants, s: float | np.ndarray) -> float | np.ndarray:
    """Theta at s = ||y|| + mu_sup, a float or an array of them."""
    return constants.k_mu * 2.0 * s / constants.lambda_inf + constants.k_inv * s * s


def theta_bound(spec: SystemSpec, y: np.ndarray) -> float | np.ndarray:
    """The quadratic form's Lipschitz budget in the state, Theta(y) = 2 k_mu
    (||y|| + mu_sup) / lambda_inf + k_inv (||y|| + mu_sup)^2: a float for
    one observation (N,), a (B,) array for a (B, N) stack.  ConfigError: the
    constants lack k_inv."""
    c = spec.constants
    if c.k_inv is None:
        raise ConfigError("constants lack k_inv; run audit_derived_constants first")
    y = np.asarray(y, dtype=float)
    theta = _theta(c, _row_norms(np.atleast_2d(y)) + c.mu_sup)
    return theta if y.ndim == 2 else float(theta[0])


def check_theta_bound(spec: SystemSpec, n_draws: int, seed: int = 0,
                      horizon: int = 0) -> BoundReport:
    """Quadratic-form differences against Theta(y) times the state distance."""
    if n_draws < 1:
        raise ValueError("need n_draws >= 1")
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
        ys[i] = _THETA_Y_SIGMA * rng.standard_normal(n)
    d = np.sum(np.abs(x1 - x2), axis=1)
    keep = d != 0.0
    ts, ys, d = ts[keep], ys[keep], d[keep]
    q = []
    for x in (x1[keep], x2[keep]):
        resid = ys - _at_times(obs.mean, ts, x, (n,))
        sol = np.linalg.solve(_at_times(obs.total_cov, ts, x, (n, n)), resid[..., None])
        q.append((resid[:, None, :] @ sol)[:, 0, 0])
    worst = np.max(_ratios(np.abs(q[0] - q[1]), theta_bound(spec, ys) * d), initial=0.0)
    return BoundReport(check_id="quadform-difference", n_trials=n_draws,
                       worst_ratio=float(worst))
