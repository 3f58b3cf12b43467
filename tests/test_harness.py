import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gridfilter as gf
from gridfilter import harness


@pytest.fixture(scope="module")
def audited():
    return gf.audit_derived_constants(gf.build_model("gauss_walk"),
                                      n_pairs=500, seed=0)


def test_kg_requires_audited_constants():
    spec = gf.build_model("gauss_walk")
    with pytest.raises(gf.ConfigError):
        gf.kg_evaluate(spec, 10, 1.0, (8,))


def test_kg_growth_constants_positive_and_ordered(audited):
    r100 = gf.kg_evaluate(audited, 100, 1.0, ())
    r1000 = gf.kg_evaluate(audited, 1000, 1.0, ())
    assert r100.k_o > 0 and r100.kg_t_log_t > 0 and r100.kg_log_t > 0
    # one variant grows like T log T, the other like log T
    ratio_tlogt = r1000.kg_t_log_t / r100.kg_t_log_t
    ratio_logt = r1000.kg_log_t / r100.kg_log_t
    assert ratio_tlogt > 9.0  # ~10x from T alone
    assert ratio_logt < 2.0
    # the log-denominator falls linearly in T (it is a log of a product)
    assert r1000.log_denominator < r100.log_denominator < 0.0


@pytest.mark.parametrize("resolutions, errors, order", [
    ((8, 16, 32, 64), 3.0 * np.array([8.0, 16.0, 32.0, 64.0]) ** -2.0, 2.0),
    ((8, 32, 64), np.array([0.5, 0.25, 0.125]), 9.0 / 14.0),
    ((8,), np.array([0.1]), math.nan),
], ids=["power_law", "least_squares", "one_resolution"])
def test_fitted_order_is_the_least_squares_slope(audited, resolutions, errors, order):
    curve = harness.ConvergenceCurve(
        mean_sup_errors=errors, max_sup_errors=errors, n_total=1, n_kept=1,
        reference_label="surrogate", a_ref=None, reference_converged=None,
        reference_gap=None, kg=gf.kg_evaluate(audited, 20, 1.0, resolutions))
    assert curve.order == pytest.approx(order, abs=1e-12, nan_ok=True)


def test_budget_column_halves_exactly_with_resolution(audited):
    report = gf.kg_evaluate(audited, 20, 1.0, (8, 16, 32, 64))
    hc = np.array(report.sup_l1_half_cell)
    assert np.allclose(hc[:-1] / hc[1:], 2.0)
    logs = np.array(report.bound_log)
    # bound = half_cell * const / denom, so successive log-gaps are exactly log 2
    assert np.allclose(np.diff(logs), -math.log(2.0), atol=1e-12)


def test_kg_measured_errors_track_half_cell(audited):
    states = np.stack([gf.simulate(audited, 15, seed=s).states for s in range(6)])
    report = gf.kg_evaluate(audited, 15, 1.0, (8, 32), state_paths=states)
    measured = report.sup_l1_measured
    assert measured is not None
    for m, hc in zip(measured, report.sup_l1_half_cell):
        assert 0.0 < m <= hc + 1e-12


def finite_sweep(spec, **kwargs):
    return gf.convergence_sweep(spec, 5, (2, 4), 3, 1.0, build_method="monte_carlo",
                                n_samples=2_000, **kwargs)


def test_reference_filter_delegates_to_exact():
    fspec = gf.build_model("finite_chain", n_states=4)
    assert fspec.optimal_filter is gf.exact_forward_filter
    # the audit copies the spec with dataclasses.replace, which keeps the filter
    audited_finite = gf.audit_derived_constants(fspec, n_pairs=50, seed=0)
    assert audited_finite.optimal_filter is gf.exact_forward_filter
    calls = []

    def spy(spec, observations):
        calls.append(observations.shape)
        return gf.exact_forward_filter(spec, observations)

    curve = finite_sweep(dataclasses.replace(audited_finite, optimal_filter=spy))
    assert (curve.reference_label, curve.a_ref, curve.reference_gap) == ("exact", None, None)
    assert calls == [(curve.n_kept, 6, 1)]
    assert np.array_equal(curve.mean_sup_errors, finite_sweep(fspec).mean_sup_errors)


def test_reference_filter_enforces_resolution_margin(audited):
    with pytest.raises(gf.ConfigError, match=re.escape(
            "surrogate resolution 64 is below 8x the largest experimental resolution 16")):
        gf.convergence_sweep(audited, 3, (8, 16), 2, 1.0, a_ref=64)
    curve = gf.convergence_sweep(audited, 3, (8, 16), 2, 1.0, a_ref=128)
    assert (curve.reference_label, curve.a_ref) == ("surrogate(a=128)", 128)
    assert curve.reference_gap is not None


def test_a_hand_built_finite_chain_spec_without_a_filter_takes_the_surrogate():
    # the reference is exact only where the spec supplies its filter: a
    # FiniteStateKernel alone does not make it so
    fspec = gf.build_model("finite_chain", n_states=4)
    hand_built = gf.SystemSpec(space=fspec.space, kernel=fspec.kernel, obs=fspec.obs,
                               constants=fspec.constants)
    assert hand_built.optimal_filter is None
    with pytest.raises(gf.ConfigError, match="surrogate resolution 1 is below 8x"):
        finite_sweep(hand_built, a_ref=1)
    curve = finite_sweep(hand_built)
    assert (curve.reference_label, curve.a_ref) == ("surrogate(a=32)", 32)
    assert curve.reference_converged is not None


def test_sweep_refuses_a_small_surrogate_before_any_work(monkeypatch, audited):
    def spy(*args, **kwargs):
        raise AssertionError("work ran before the a_ref check")
    monkeypatch.setattr(harness, "_simulate", spy)
    monkeypatch.setattr(harness, "build_chain", spy)
    with pytest.raises(gf.ConfigError, match="surrogate resolution 127 is below 8x"):
        gf.convergence_sweep(audited, 5, (4, 16), 4, 1.0, a_ref=127)


def test_sweep_on_finite_chain_accepts_any_surrogate_resolution():
    fspec = gf.build_model("finite_chain", n_states=4)
    curves = [gf.convergence_sweep(fspec, 4, (2, 4), 3, 1.0, a_ref=a_ref,
                                   build_method="monte_carlo", n_samples=2_000)
              for a_ref in (None, 1)]
    for curve in curves:
        assert (curve.reference_label, curve.a_ref) == ("exact", None)
    assert np.array_equal(curves[0].mean_sup_errors, curves[1].mean_sup_errors)


def test_sweep_keeps_its_paths_as_arrays(monkeypatch, audited):
    def refuse(self):
        raise AssertionError("convergence_sweep built a Trajectory")
    monkeypatch.setattr(gf.Trajectory, "__post_init__", refuse)
    curve = gf.convergence_sweep(audited, 4, (4, 8), 5, 1.0, seed=2, a_ref=64)
    assert curve.n_kept + curve.n_rejected == curve.n_total == 5


@pytest.mark.parametrize("make, message", [
    (lambda spec: gf.kg_evaluate(dataclasses.replace(spec, constants=dataclasses.replace(
        spec.constants, lambda_inf=1.0)), 10, 1.0, (8,)),
     "growth constants need an eigenvalue floor > 1"),
    (lambda spec: gf.convergence_sweep(spec, 5, (4, 8), 0, 1.0), "need n_traj >= 1"),
], ids=["kg_floor_at_one", "sweep_no_paths"])
def test_harness_refusals(audited, make, message):
    with pytest.raises(gf.ConfigError, match=message):
        make(audited)


def test_sweep_requires_increasing_resolutions(audited):
    with pytest.raises(gf.ConfigError):
        gf.convergence_sweep(audited, 5, (16, 8), 2, 1.0)
    with pytest.raises(gf.ConfigError):
        gf.convergence_sweep(audited, 5, (), 2, 1.0)


def test_sweep_error_decreases_with_resolution(audited):
    curve = gf.convergence_sweep(audited, 10, (4, 16, 64), 8, 1.0, seed=0,
                                 a_ref=512)
    assert curve.n_kept >= 1
    e = curve.mean_sup_errors
    assert e[0] > e[1] > e[2] > 0.0
    assert curve.reference_converged
    assert curve.reference_label == "surrogate(a=512)"


def test_sweep_on_finite_chain_uses_exact_reference():
    fspec = gf.build_model("finite_chain", n_states=8, kind="sticky", seed=0)
    curve = gf.convergence_sweep(fspec, 8, (2, 4, 8), 6, 1.0, seed=0,
                                 build_method="monte_carlo", n_samples=50_000)
    assert curve.reference_label == "exact"
    assert curve.reference_converged is None
    # at matching resolution the grid chain is built by sampling, so the
    # error is small but not zero; it must still fall with resolution
    assert curve.mean_sup_errors[-1] <= curve.mean_sup_errors[0]


def test_rejection_budget_formula(audited):
    curve = gf.convergence_sweep(audited, 4, (4, 8), 4, 1.0, seed=1, a_ref=64)
    miss = 1.0 - gf.membership_bound(1.0, audited.obs.n, 4)
    expected = 2.0 * miss + 3.0 * math.sqrt(miss * (1.0 - miss) / 4)
    assert curve.rejection_budget == pytest.approx(expected)
    assert curve.n_rejected <= curve.n_total


def test_sweep_steps_its_trajectories_as_one_batch(audited):
    batches = []
    sampler = audited.kernel.sampler

    def spy(t, x_prev, rng):
        batches.append((t, len(x_prev)))
        return sampler(t, x_prev, rng)

    spec = dataclasses.replace(audited, kernel=dataclasses.replace(audited.kernel,
                                                                   sampler=spy))
    curve = gf.convergence_sweep(spec, 6, (4, 8), 24, 1.0, seed=3, a_ref=64)
    assert batches == [(t, 24) for t in range(1, 7)]
    assert curve.n_total == 24


def test_sweep_peak_memory_on_the_demo_parameters():
    # demo.ini's converge: a = 8..256 on 24 trajectories against a = 2048,
    # and the a = 4096 gap check.  Measured 1.30 MiB (numpy 2.4, x86-64);
    # 2.43 MiB when the reference run stepped all 24 rows at once and each
    # chain weighed its initial law's quadrature nodes in one pass.
    cfg = gf.load_config(str(Path(__file__).resolve().parent.parent
                             / "demos" / "configs" / "demo.ini"))
    spec = gf.audit_derived_constants(gf.build_model(cfg.model_id, **cfg.model_params),
                                      n_pairs=cfg.n_pairs, seed=cfg.seed)
    tracemalloc.start()
    try:
        curve = gf.convergence_sweep(spec, cfg.horizon, cfg.resolutions, cfg.n_traj,
                                     cfg.c_const, seed=cfg.seed, a_ref=cfg.a_ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.reference_converged
    assert peak < 1.6 * 2**20
