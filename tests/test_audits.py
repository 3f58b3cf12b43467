"""The array audits against brute-force per-point and per-pair oracles.

``verify_assumptions`` and ``check_lipschitz_suite`` evaluate every probe
point or pair as one stack; the oracles below walk the points and pairs one
at a time, with one callback call per point, and must return the same
constants exactly.
"""

import math

import numpy as np
import pytest

import gridfilter as gf
from gridfilter.bounds import k_inv_formula, theta_bound
from gridfilter.model import _probe_points


def time_varying_spec(n):
    """Mean and full covariance moving with t and x; generous constants."""
    space = gf.StateSpace(lower=np.array([-1.0]), upper=np.array([2.0]))

    def mean_fn(t, x):
        return np.outer(x[:, 0] * (1.0 + 0.5 * t), np.arange(1.0, n + 1.0))

    def cov_fn(t, x):
        diag = 0.5 + x[:, 0] ** 2 + 0.1 * t
        off = 0.2 * np.sin(x[:, 0] + t)
        return diag[:, None, None] * np.eye(n) + off[:, None, None] * np.ones((n, n)) / n

    kernel = gf.TransitionKernel(
        sampler=lambda t, x, rng: rng.uniform(-1.0, 2.0, size=x.shape),
        initial_sampler=lambda rng, size: rng.uniform(-1.0, 2.0, size=(size, 1)))
    obs = gf.ObservationModel(n=n, mean_fn=mean_fn, cov_fn=cov_fn,
                              sigma_xi_sq=0.5, obs_scale=1.5)
    constants = gf.AssumptionConstants(lambda_inf=1.01, lambda_sup=1e3, mu_sup=1e3,
                                       k_mu=1e3, k_sigma=1e3)
    return gf.SystemSpec(space=space, kernel=kernel, obs=obs, constants=constants,
                         model_id="time-varying")


def pairwise_audit(spec, n_probe, seed, horizon=0):
    """``verify_assumptions`` one point and one i < j pair at a time."""
    pts = _probe_points(spec.space, n_probe, gf.make_rng(seed, 4))
    k, n = len(pts), spec.obs.n
    rtol = 1e-9
    decl = spec.constants
    lam_lo, lam_hi, mu_hi = np.inf, -np.inf, 0.0
    k_mu_emp, k_sigma_emp = 0.0, 0.0
    for t in range(horizon + 1):
        means = np.empty((k, n))
        covs = np.empty((k, n, n))
        for i, x in enumerate(pts):
            c = spec.obs.total_cov(t, x[None])[0]
            ev = np.linalg.eigvalsh(c)
            means[i] = spec.obs.mean(t, x[None])[0]
            covs[i] = c - spec.obs.obs_scale**2 * spec.obs.sigma_xi_sq * np.eye(n)
            lam_lo, lam_hi = min(lam_lo, ev[0]), max(lam_hi, ev[-1])
            mu_hi = max(mu_hi, float(np.linalg.norm(means[i])))
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
                    raise gf.AssumptionViolationError(
                        f"k_mu: declared {decl.k_mu:.6g} but quotient {qm:.6g} "
                        f"between x={pts[i]} and x'={pts[j]} at t={t}")
                if qs > decl.k_sigma * (1 + rtol) + 1e-12:
                    raise gf.AssumptionViolationError(
                        f"k_sigma: declared {decl.k_sigma:.6g} but quotient {qs:.6g} "
                        f"between x={pts[i]} and x'={pts[j]} at t={t}")
    return gf.AssumptionConstants(
        lambda_inf=float(lam_lo), lambda_sup=float(lam_hi), mu_sup=float(mu_hi),
        k_mu=float(k_mu_emp), k_sigma=float(k_sigma_emp))


def ratio(lhs, rhs):
    if rhs > 0.0:
        return lhs / rhs
    return 0.0 if lhs <= 0.0 else math.inf


def pairwise_lipschitz(spec, n_pairs, seed, horizon=0):
    """``check_lipschitz_suite`` one pair at a time, minors by deletion,
    determinant ratios in a second pass: (worst ratio, pairs used, constants)."""
    rng = gf.make_rng(seed, 11)
    space, obs, decl = spec.space, spec.obs, spec.constants
    n = obs.n
    xs = rng.uniform(space.lower, space.upper, size=(n_pairs, space.dim))
    ys = rng.uniform(space.lower, space.upper, size=(n_pairs, space.dim))
    ts = rng.integers(0, horizon + 1, size=n_pairs)
    sigma_worst = det_worst = k_det = k_minor = k_inv = 0.0
    pairs = []
    for x, y, t in zip(xs, ys, ts):
        d = float(np.sum(np.abs(x - y)))
        if d == 0.0:
            continue
        cx = obs.total_cov(int(t), x[None])[0]
        cy = obs.total_cov(int(t), y[None])[0]
        cdiff = float(np.linalg.norm(cx - cy, "fro"))
        det_diff = abs(float(np.linalg.det(cx)) - float(np.linalg.det(cy)))
        pairs.append((cdiff, det_diff))
        sigma_worst = max(sigma_worst, ratio(float(np.max(np.abs(cx - cy))), decl.k_sigma * d))
        if cdiff > 0.0:
            k_det = max(k_det, det_diff / (n * cdiff))
            for i in range(n if n >= 2 else 0):
                for j in range(n):
                    sx = np.delete(np.delete(cx, i, axis=0), j, axis=1)
                    sy = np.delete(np.delete(cy, i, axis=0), j, axis=1)
                    sdiff = float(np.linalg.norm(sx - sy, "fro"))
                    if sdiff > 0.0:
                        md = abs(float(np.linalg.det(sx)) - float(np.linalg.det(sy)))
                        k_minor = max(k_minor, md / ((n - 1) * sdiff))
        inv_diff = float(np.linalg.norm(np.linalg.inv(cx) - np.linalg.inv(cy), "fro"))
        k_inv = max(k_inv, inv_diff / d)
    formula = 0.0 if decl.k_sigma == 0.0 else k_inv_formula(decl.lambda_inf, k_det,
                                                            k_minor, decl.k_sigma)
    for cdiff, det_diff in pairs:
        det_worst = max(det_worst, ratio(det_diff, n * k_det * cdiff))
    worst = max(sigma_worst, det_worst, ratio(k_inv, formula))
    return worst, len(pairs), {"k_sigma_declared": decl.k_sigma, "k_det": k_det,
                               "k_det_minor": k_minor, "k_inv_empirical": k_inv,
                               "k_inv_formula": formula}


CASES = [(lambda n: gf.build_model("gauss_walk", n=n, lower=-1.0, upper=2.0), 0),
         (time_varying_spec, 2)]


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("make, horizon", CASES, ids=["gauss_walk", "time_varying"])
def test_verify_assumptions_equals_pair_loop(make, horizon, n):
    spec = make(n)
    assert gf.verify_assumptions(spec, 40, seed=3, horizon=horizon) == \
        pairwise_audit(spec, 40, seed=3, horizon=horizon)


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("make, horizon", CASES, ids=["gauss_walk", "time_varying"])
def test_lipschitz_suite_equals_pair_loop(make, horizon, n):
    spec = make(n)
    report = gf.check_lipschitz_suite(spec, 300, seed=4, horizon=horizon)
    worst, used, constants = pairwise_lipschitz(spec, 300, seed=4, horizon=horizon)
    assert report.constants == constants
    assert report.worst_ratio == worst
    assert report.n_trials == used


@pytest.mark.parametrize("constant", ["k_mu", "k_sigma"])
def test_violating_pair_is_named(constant):
    spec = time_varying_spec(2)
    tight = gf.AssumptionConstants(**{**vars(spec.constants), constant: 0.5})
    bad = gf.SystemSpec(space=spec.space, kernel=spec.kernel, obs=spec.obs,
                        constants=tight)
    with pytest.raises(gf.AssumptionViolationError) as oracle:
        pairwise_audit(bad, 30, seed=5, horizon=2)
    with pytest.raises(gf.AssumptionViolationError, match="between x=") as batched:
        gf.verify_assumptions(bad, 30, seed=5, horizon=2)
    assert str(batched.value) == str(oracle.value)
    assert str(batched.value).startswith(constant + ":")


def test_theta_check_matches_draw_by_draw_loop():
    spec = gf.audit_derived_constants(time_varying_spec(2), n_pairs=200, seed=0,
                                      horizon=3)
    rng = gf.make_rng(7, 12)
    worst = 0.0
    for _ in range(300):
        t = int(rng.integers(0, 4))
        x1 = rng.uniform(spec.space.lower, spec.space.upper)
        x2 = rng.uniform(spec.space.lower, spec.space.upper)
        y = 2.0 * rng.standard_normal(2)
        q = []
        for x in (x1, x2):
            resid = y - spec.obs.mean(t, x[None])[0]
            q.append(float(resid @ np.linalg.solve(spec.obs.total_cov(t, x[None])[0], resid)))
        d = float(np.sum(np.abs(x1 - x2)))
        worst = max(worst, ratio(abs(q[0] - q[1]), theta_bound(spec, y) * d))
    report = gf.check_theta_bound(spec, 300, seed=7, horizon=3)
    assert report.worst_ratio == pytest.approx(worst, rel=1e-12)
