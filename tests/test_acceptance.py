"""Acceptance suite: one test per advertised guarantee, one printed verdict line each.

Run with `pytest -v tests/test_acceptance.py`.  Every test prints
`[criterion N] <name>: PASS (...)` through the capture bypass so the verdict
lines land in the console log of a full run.
"""

import math
import time

import numpy as np
import pytest

import gridfilter as gf

RESOLUTIONS = (8, 16, 32, 64, 128, 256)
A_REF = 2048
HORIZON = 20
N_TRAJ = 24


def announce(capsys, n, name, detail):
    with capsys.disabled():
        print(f"\n[criterion {n}] {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def audited_walk():
    return gf.audit_derived_constants(gf.build_model("gauss_walk"),
                                      n_pairs=2000, seed=0)


@pytest.fixture(scope="module")
def sweep(audited_walk):
    return gf.convergence_sweep(audited_walk, HORIZON, RESOLUTIONS, N_TRAJ,
                                1.0, seed=0, a_ref=A_REF,
                                build_method="quadrature")


def test_criterion_1_filter_matches_path_sum_oracle(capsys):
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    n_systems = 24
    for trial in range(n_systems):
        a = int(rng.integers(2, 5))
        horizon = int(rng.integers(1, 5))
        n = int(rng.integers(1, 3))
        spec = gf.build_model("gauss_walk", lower=0.5, upper=2.5, n=n)
        grid = gf.Grid(spec.space, a)
        trans = rng.dirichlet(np.ones(a), size=a)
        init = rng.dirichlet(np.ones(a))
        chain = gf.QuantizedChain(grid, trans, init, build_method="injected")
        traj = gf.simulate(spec, horizon, seed=trial)
        res = gf.run_grid_filter(spec, chain, traj.observations)
        oracle = gf.path_sum_oracle(spec, chain, traj.observations)
        rel = np.max(np.abs(res.estimates - oracle)
                     / np.maximum(np.abs(oracle), 1e-30))
        worst = max(worst, float(rel))
    elapsed = time.time() - start
    assert worst <= 1e-9
    assert elapsed < 60.0
    announce(capsys, 1, "filter vs path-sum oracle",
             f"{n_systems} systems, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_exact_dynamics_saturate(capsys):
    start = time.time()
    worst = 0.0
    n_runs = 0
    for k in (2, 8):
        fspec = gf.build_model("finite_chain", n_states=k, kind="random", seed=k)
        kern = fspec.kernel
        grid = gf.Grid(fspec.space, k)
        assert np.allclose(grid.centers, kern.states, atol=1e-12)
        chain = gf.QuantizedChain(grid, kern.transition_matrix,
                                  kern.initial_probs, build_method="exact")
        for seed in range(25):
            traj = gf.simulate(fspec, 50, seed=seed)
            exact = gf.exact_forward_filter(fspec, traj.observations)
            res = gf.run_grid_filter(fspec, chain, traj.observations)
            worst = max(worst, float(np.max(np.abs(res.estimates - exact))))
            n_runs += 1
    elapsed = time.time() - start
    assert worst <= 1e-10
    assert elapsed < 60.0
    announce(capsys, 2, "exactness saturation on finite chains",
             f"K in (2, 8), {n_runs} runs to T=50, worst abs err {worst:.2e}, "
             f"{elapsed:.1f}s")


def test_criterion_3_convergence_curve(capsys, sweep):
    start = time.time()
    curve = sweep
    # reference trustworthy: the doubled-resolution probe moved the answers
    # by less than a tenth of the smallest measured error
    assert curve.reference_converged, (
        f"surrogate reference unconverged: gap {curve.reference_gap:.3e}")
    # rejections within the analytic allowance
    assert curve.n_rejected / curve.n_total <= curve.rejection_budget
    e = curve.mean_sup_errors
    for i in range(len(e) - 1):
        assert e[i + 1] <= 1.05 * e[i], (
            f"error rose from a={curve.resolutions[i]} to "
            f"a={curve.resolutions[i + 1]}: {e[i]:.3e} -> {e[i + 1]:.3e}")
    final_budget = 10.0 / 512.0  # ten half-cells at the finest resolution
    assert e[-1] < final_budget
    elapsed = time.time() - start
    announce(capsys, 3, "grid filter converges with resolution",
             f"errors {e[0]:.2e} -> {e[-1]:.2e} over a=8..256, "
             f"{curve.n_kept}/{curve.n_total} tame, final < {final_budget:.2e}")
    assert elapsed < 600.0


def test_measured_convergence_order_on_gauss_walk(sweep):
    # A measured property of this model, not a theorem: the fitted order is
    # 2.00 here and on demo.ini, and 1.8 leaves a stated margin below it.
    assert sweep.order >= 1.8, f"fitted convergence order {sweep.order:.3f} < 1.8"


def test_criterion_4_tame_set_concentration(capsys):
    start = time.time()
    details = []
    for n_dim, c_const, horizon in ((2, 1.0, 0), (2, 1.0, 9), (4, 1.0, 9)):
        spec = gf.build_model("gauss_walk", n=n_dim)
        report = gf.concentration_experiment(spec, horizon, c_const, 100_000,
                                             seed=0)
        assert report.passed, (
            f"(N={n_dim}, C={c_const}, T={horizon}): data "
            f"{report.empirical_data:.5f}, reference "
            f"{report.empirical_reference:.5f}, floor {report.bound:.5f}")
        details.append(f"N={n_dim},T={horizon}: {report.empirical_reference:.4f}"
                       f">={report.bound:.4f}")
    # frozen floor at the weakest case
    assert gf.membership_bound(1.0, 2, 0) == pytest.approx(1.0 - math.exp(-2.0))
    elapsed = time.time() - start
    assert elapsed < 300.0
    announce(capsys, 4, "tame observation-set frequency",
             "; ".join(details) + f", 1e5 trajectories each, {elapsed:.1f}s")


def test_criterion_5_chi_squared_tails(capsys):
    start = time.time()
    worst_margin = -math.inf
    count = 0
    for n_dim in (1, 2, 8):
        for u in (0.5, 1.0, 2.0, 5.0):
            check = gf.chi2_tail_check(n_dim, u, 100_000, seed=17)
            assert check.passed, (
                f"N={n_dim}, u={u}: {check.empirical:.5f} > "
                f"{check.bound:.5f} + 3se")
            worst_margin = max(worst_margin, check.empirical - check.bound)
            count += 1
    elapsed = time.time() - start
    assert worst_margin <= 0.0  # bound never even grazed
    announce(capsys, 5, "chi-squared tail ceiling",
             f"{count} (N, u) pairs, 1e5 draws each, worst empirical-bound "
             f"margin {worst_margin:.2e}, {elapsed:.1f}s")


def test_criterion_6_deterministic_inequality_suite(capsys, audited_walk):
    start = time.time()
    rng = gf.make_rng(6)
    reports = [gf.check_product_bound(1000, seed=6, norm=norm) for norm in ("fro", "spectral")]
    for n_dim in (2, 3, 4, 5):
        reports.append(gf.check_adjugate_bound(n_dim, 1000, seed=6))
    reports.append(gf.check_lipschitz_suite(audited_walk, 2000, seed=6))
    reports.append(gf.check_theta_bound(audited_walk, 1000, seed=6))
    for report in reports:
        assert report.passed, f"{report.check_id}: ratio {report.worst_ratio}"
        assert report.n_trials >= 1000 or report.check_id.startswith("covariance")
    # matrix-vector variant of the product lemma
    worst_mv = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        lhs, rhs = gf.matvec_difference_sides(
            rng.standard_normal((n, n)), rng.standard_normal(n),
            rng.standard_normal((n, n)), rng.standard_normal(n))
        worst_mv = max(worst_mv, lhs / rhs if rhs > 0 else 0.0)
    assert worst_mv <= 1.0 + 1e-9
    # scalar (1 x 1) factors, which the checked trials (n >= 2) leave out
    worst_scalar = 0.0
    for _ in range(1000):
        length = int(rng.integers(1, 6))
        lhs, rhs = gf.product_difference_sides(rng.standard_normal((length, 1, 1)),
                                               rng.standard_normal((length, 1, 1)))
        worst_scalar = max(worst_scalar, lhs / rhs if rhs > 0 else 0.0)
    assert worst_scalar <= 1.0 + 1e-9
    # the scalar witness achieves ratio one exactly
    lhs, rhs = gf.product_difference_sides(
        [np.array([[2.0]]), np.array([[3.0]])],
        [np.array([[1.0]]), np.array([[1.0]])])
    assert lhs == rhs == 5.0
    elapsed = time.time() - start
    worst = max(r.worst_ratio for r in reports)
    announce(capsys, 6, "inequality suite",
             f"{len(reports)} checks + matvec and scalar variants, worst ratio "
             f"{max(worst, worst_mv, worst_scalar):.10f} <= 1+1e-9, tight witness exact, "
             f"{elapsed:.1f}s")


def test_criterion_7_reduced_likelihood_is_equivalent(capsys, audited_walk):
    start = time.time()
    rng = np.random.default_rng(52)
    worst_est = 0.0
    worst_norm = 0.0
    cases = 0
    # random injected chains, as in criterion 1
    for trial in range(8):
        a = int(rng.integers(2, 5))
        spec = gf.build_model("gauss_walk", lower=0.5, upper=2.5)
        grid = gf.Grid(spec.space, a)
        chain = gf.QuantizedChain(grid, rng.dirichlet(np.ones(a), size=a),
                                  rng.dirichlet(np.ones(a)))
        traj = gf.simulate(spec, 4, seed=trial)
        red = gf.run_grid_filter(spec, chain, traj.observations)
        full = gf.run_grid_filter(spec, chain, traj.observations,
                                  use_full_likelihood=True)
        worst_est = max(worst_est, float(np.max(np.abs(red.estimates
                                                       - full.estimates))))
        shift = 0.5 * np.cumsum(np.sum(traj.observations**2, axis=1))
        worst_norm = max(worst_norm, float(np.max(np.abs(
            (full.log_norms - red.log_norms) - shift))))
        cases += 1
    # the criterion-3 model at a mid-sweep resolution
    chain = gf.build_chain(audited_walk, gf.Grid(audited_walk.space, 64),
                           "quadrature")
    for seed in (0, 1):
        traj = gf.simulate(audited_walk, HORIZON, seed=seed)
        red = gf.run_grid_filter(audited_walk, chain, traj.observations)
        full = gf.run_grid_filter(audited_walk, chain, traj.observations,
                                  use_full_likelihood=True)
        worst_est = max(worst_est, float(np.max(np.abs(red.estimates
                                                       - full.estimates))))
        shift = 0.5 * np.cumsum(np.sum(traj.observations**2, axis=1))
        worst_norm = max(worst_norm, float(np.max(np.abs(
            (full.log_norms - red.log_norms) - shift))))
        cases += 1
    elapsed = time.time() - start
    assert worst_est <= 1e-12
    assert worst_norm <= 1e-10
    announce(capsys, 7, "reduced likelihood leaves estimates unchanged",
             f"{cases} runs, worst estimate gap {worst_est:.2e}, worst "
             f"normalizer mismatch {worst_norm:.2e}, {elapsed:.1f}s")


def test_criterion_8_analytic_budget_dominates(capsys, sweep):
    curve = sweep
    kg = curve.kg
    # quantization ingredient: measured path error within its a-priori budget
    assert kg.sup_l1_measured is not None
    for measured, half_cell in zip(kg.sup_l1_measured, kg.sup_l1_half_cell):
        assert measured <= half_cell + 1e-12
    # assembled budget dominates the measured filter error at every
    # resolution; the budget underflows float64 backwards, so compare in logs
    for i, a in enumerate(curve.resolutions):
        log_err = math.log(max(curve.mean_sup_errors[i], 1e-300))
        assert log_err <= kg.bound_log[i], (
            f"a={a}: log error {log_err:.2f} above budget {kg.bound_log[i]:.2f}")
        assert math.isfinite(kg.bound_log[i])
    # both growth variants are positive and finite at the experiment horizon
    assert 0 < kg.kg_log_t < math.inf
    assert 0 < kg.kg_t_log_t < math.inf
    margin = min(kg.bound_log[i] - math.log(max(curve.mean_sup_errors[i], 1e-300))
                 for i in range(len(curve.resolutions)))
    announce(capsys, 8, "assembled error budget dominates measured error",
             f"min log-margin {margin:.1f} nats across a=8..256 on "
             f"{curve.n_kept} tame runs")
