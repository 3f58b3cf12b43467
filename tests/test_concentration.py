import dataclasses
import math
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import gridfilter as gf
from gridfilter import concentration, model


def test_chi2_deep_tail_is_empty():
    # u = 20: threshold is far outside anything 1e5 draws will reach
    check = gf.chi2_tail_check(2, 20.0, 100_000, seed=0)
    assert check.empirical == 0.0
    assert check.passed


def test_chi2_moderate_tail():
    check = gf.chi2_tail_check(4, 1.0, 100_000, seed=1)
    assert check.passed
    assert 0.0 < check.empirical < check.bound
    assert check.bound == pytest.approx(math.exp(-1.0))


def test_chi2_tiny_u_is_nearly_vacuous():
    # exp(-0.01) ~ 0.99: essentially every draw is allowed to exceed
    check = gf.chi2_tail_check(1, 0.01, 10_000, seed=2)
    assert check.bound > 0.99
    assert check.passed


def test_chi2_bound_decreases_in_u():
    checks = [gf.chi2_tail_check(2, u, 20_000, seed=3) for u in (0.5, 1.0, 2.0, 5.0)]
    bounds = [c.bound for c in checks]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert all(c.passed for c in checks)


def test_chi2_rejects_bad_arguments():
    with pytest.raises(gf.ConfigError):
        gf.chi2_tail_check(0, 1.0, 100)
    with pytest.raises(gf.ConfigError):
        gf.chi2_tail_check(2, -1.0, 100)


def test_gamma_values():
    spec = gf.build_model("gauss_walk")
    c = spec.constants
    expected = 5.0 * c.lambda_sup * (1.0 + c.mu_sup) ** 2
    assert gf.gamma_data(c) == pytest.approx(expected)
    assert gf.gamma_reference() == 5.0
    # the floor kicks in for tiny constants
    small = gf.AssumptionConstants(lambda_inf=1.1, lambda_sup=1.1, mu_sup=0.0,
                                   k_mu=0.0, k_sigma=0.0)
    assert gf.gamma_data(small) == pytest.approx(5.5)


def test_tame_threshold_growth_is_logarithmic():
    v0 = gf.tame_threshold(5.0, 1.0, 2, 0)
    v9 = gf.tame_threshold(5.0, 1.0, 2, 9)
    assert v0 == pytest.approx(10.0)
    assert v9 == pytest.approx(10.0 * (1.0 + math.log(10.0)))


def test_membership_is_strict_at_the_boundary():
    gamma, c_const = 5.0, 1.0
    thr = gf.tame_threshold(gamma, c_const, 1, 0)
    on_boundary = np.array([[math.sqrt(thr)]])
    just_inside = np.array([[math.sqrt(thr) - 1e-9]])
    assert not gf.omega_hat_membership(on_boundary, c_const, gamma)
    assert gf.omega_hat_membership(just_inside, c_const, gamma)
    assert gf.omega_hat_membership(np.stack([on_boundary, just_inside]),
                                   c_const, gamma).tolist() == [False, True]


def test_membership_checks_every_time_step():
    gamma, c_const = 5.0, 1.0
    thr = gf.tame_threshold(gamma, c_const, 2, 4)
    obs = np.zeros((5, 2))
    obs[3, 0] = math.sqrt(thr) + 1.0  # single excursion late in the path
    assert not gf.omega_hat_membership(obs, c_const, gamma)


def test_membership_bound_values():
    # C = 1, N = 2, T = 0: 1 - (0+1+1)... (T+1)^{1-CN} e^{-CN} = e^{-2}
    assert gf.membership_bound(1.0, 2, 0) == pytest.approx(1.0 - math.exp(-2.0))
    # larger CN pushes the floor toward one
    assert gf.membership_bound(1.0, 4, 9) > gf.membership_bound(1.0, 2, 9)
    assert 0.0 < gf.membership_bound(1.0, 2, 9) < 1.0


def test_membership_bound_is_clamped_to_a_probability():
    # CN < 1 over a long horizon: the raw formula is about -8.6e5
    assert gf.membership_bound(0.01, 1, 10**6) == 0.0
    for c, n, t in [(0.01, 1, 0), (0.5, 1, 100), (1.0, 8, 10**6), (3.0, 4, 0)]:
        assert 0.0 <= gf.membership_bound(c, n, t) <= 1.0


def test_streamed_experiment_equals_membership_of_the_simulated_batches():
    spec = gf.build_model("gauss_walk", n=2)
    _, obs_p = gf.simulate_batch(spec, 9, 2000, 3)
    _, obs_q = gf.simulate_batch(spec, 9, 2000, 4, tilde=True)
    # c = 0.01 leaves the data law's frequency at 0.417 and c = 0.2 the
    # reference measure's at 0.689, so neither equality holds trivially
    for c_const, measure in ((0.01, "empirical_data"), (0.2, "empirical_reference")):
        report = gf.concentration_experiment(spec, 9, c_const, 2000, seed=3)
        assert 0.0 < getattr(report, measure) < 1.0
        assert report.empirical_data == np.mean(
            gf.omega_hat_membership(obs_p, c_const, report.gamma_data))
        assert report.empirical_reference == np.mean(
            gf.omega_hat_membership(obs_q, c_const, report.gamma_reference))


def test_fold_holds_no_step_while_the_next_is_drawn():
    refs = []

    def tracked(y):
        refs.append(weakref.ref(y))
        return y

    def steps():
        for t in range(4):
            assert all(ref() is None for ref in refs)
            yield tracked(np.full((3, 2), float(t)))

    assert np.array_equal(concentration._sup_sq_norms(steps()), np.full(3, 18.0))
    assert len(refs) == 4


@pytest.mark.parametrize("run", [
    lambda spec: gf.concentration_experiment(spec, 5, 1.0, 50, seed=0),
    lambda spec: gf.simulate_batch(spec, 5, 50, seed=0),
], ids=["concentration_experiment", "simulate_batch"])
def test_each_step_is_freed_before_the_next_is_drawn(monkeypatch, run):
    # the sampler of step t + 1 runs after every earlier observation array is gone
    spec, observed = gf.build_model("gauss_walk", n=2), []
    observe, sampler = model._observe, spec.kernel.sampler

    def tracked_observe(*args):
        y = observe(*args)
        observed.append(weakref.ref(y))
        return y

    def sampler_after_release(t, x, rng):
        assert all(ref() is None for ref in observed)
        return sampler(t, x, rng)

    monkeypatch.setattr(model, "_observe", tracked_observe)
    run(dataclasses.replace(spec, kernel=dataclasses.replace(
        spec.kernel, sampler=sampler_after_release)))
    assert len(observed) == 6


def test_experiment_peak_memory_stays_below_one_observation_array():
    spec = gf.build_model("gauss_walk", n=4)
    tracemalloc.start()
    try:
        gf.concentration_experiment(spec, 9, 1.0, 100_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One (B, T+1, N) observation array is 30.5 MiB here, and drawing both
    # measures as whole batches peaks at 48 MiB.  Streamed one (B, N) step at
    # a time the peak is 13.5 MiB; the bound leaves 10.5 MiB above that.
    assert peak <= 24 * 2**20


def test_concentration_experiment_on_demo_model():
    spec = gf.build_model("gauss_walk")
    report = gf.concentration_experiment(spec, 0, 1.0, 30_000, seed=0)
    assert report.passed
    assert report.bound == pytest.approx(1.0 - math.exp(-2.0))
    assert report.empirical_reference >= report.bound - 3 * concentration._binomial_std_err(
        report.empirical_reference, report.n_traj)
    # the data-measure threshold is wildly conservative for this model
    assert report.empirical_data == 1.0


def test_concentration_experiment_longer_horizon():
    spec = gf.build_model("gauss_walk")
    report = gf.concentration_experiment(spec, 9, 1.0, 20_000, seed=1)
    assert report.passed
    assert report.horizon == 9


# verify's Monte-Carlo columns on demo.ini, each against the exact law it samples
DEMO = gf.load_config(Path(__file__).parents[1] / "demos" / "configs" / "demo.ini")


def _within_4_sigma(empirical: float, p: float, n_samples: int) -> bool:
    """Two-sided: within 4 binomial standard errors of the exact p, or within
    1/n_samples where p is so near 0 or 1 that the standard error vanishes."""
    return abs(empirical - p) <= max(4.0 * math.sqrt(p * (1.0 - p) / n_samples),
                                     1.0 / n_samples)


@pytest.mark.parametrize("u", DEMO.chi2_u)
@pytest.mark.parametrize("n", DEMO.chi2_n)
def test_chi2_tail_frequency_is_the_exact_tail(n, u):
    # P(chi2_n >= n + 2 sqrt(nu) + 2u); the worst of the 12 rows is 1.81 sigma
    check = gf.chi2_tail_check(n, u, DEMO.n_conc_traj, seed=DEMO.seed)
    exact = stats.chi2.sf(n + 2.0 * math.sqrt(n * u) + 2.0 * u, n)
    assert _within_4_sigma(check.empirical, exact, check.n_samples)


@pytest.mark.parametrize("case", DEMO.concentration_cases, ids=str)
def test_reference_tame_frequency_is_the_exact_law(case):
    # under the reference measure y_t are iid N(0, I_N): P(tame) = F_N(thr)^(T+1)
    n_dim, c_const, horizon = case
    spec = gf.build_model(DEMO.model_id, **{**DEMO.model_params, "n": n_dim})
    report = gf.concentration_experiment(spec, horizon, c_const, DEMO.n_conc_traj,
                                         seed=DEMO.seed)
    exact = stats.chi2.cdf(report.threshold_reference, n_dim) ** (horizon + 1)
    assert _within_4_sigma(report.empirical_reference, exact, report.n_traj)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_membership_of_a_stack_reads_the_per_path_sup_norms(monkeypatch, n):
    obs = gf.simulate_batch(gf.build_model("gauss_walk", n=n), 6, 50, seed=5)[1]
    before = obs.copy()
    sup_sq = np.array([np.max(np.sum(path**2, axis=1)) for path in obs])
    gamma, c_const = 5.0, float(np.median(sup_sq)) / (5.0 * n * (1.0 + math.log(7.0)))
    tame = gf.omega_hat_membership(obs, c_const, gamma)
    assert 0 < np.sum(tame) < len(obs)
    assert np.array_equal(tame, sup_sq < gf.tame_threshold(gamma, c_const, n, 6))
    assert np.array_equal(tame, [gf.omega_hat_membership(path, c_const, gamma)
                                 for path in obs])
    # thresholds at each path's own sup-norm and one ulp above it: the stack's
    # sup-norms equal the formula's bit for bit
    monkeypatch.setattr(concentration, "tame_threshold", lambda *args: sup_sq)
    assert not np.any(gf.omega_hat_membership(obs, c_const, gamma))
    monkeypatch.setattr(concentration, "tame_threshold",
                        lambda *args: np.nextafter(sup_sq, np.inf))
    assert np.all(gf.omega_hat_membership(obs, c_const, gamma))
    assert np.array_equal(obs, before)


@pytest.mark.parametrize("make, error, message", [
    (lambda: gf.omega_hat_membership(np.zeros(3), 1.0, 5.0), gf.DomainError,
     re.escape("observations must be (T+1, N) or (B, T+1, N), not (3,)")),
    (lambda: gf.omega_hat_membership(np.zeros((2, 3, 4, 1)), 1.0, 5.0), gf.DomainError,
     re.escape("observations must be (T+1, N) or (B, T+1, N), not (2, 3, 4, 1)")),
    (lambda: gf.omega_hat_membership(np.zeros((3, 0, 2)), 1.0, 5.0), gf.DomainError,
     re.escape("observations must be (T+1, N) or (B, T+1, N), not (3, 0, 2)")),
    (lambda: gf.omega_hat_membership(np.zeros((4, 0)), 1.0, 5.0), gf.DomainError,
     re.escape("observations must be (T+1, N) or (B, T+1, N), not (4, 0)")),
    (lambda: gf.concentration_experiment(gf.build_model("gauss_walk"), 3, 1.0, 0),
     gf.ConfigError, "need n_traj >= 1"),
    (lambda: gf.concentration_experiment(gf.build_model("gauss_walk"), 3, math.nan, 100),
     gf.ConfigError, re.escape("c_const must be > 0 and finite, got nan")),
    (lambda: gf.concentration_experiment(gf.build_model("gauss_walk"), 3, 0.0, 100),
     gf.ConfigError, re.escape("c_const must be > 0 and finite, got 0.0")),
    (lambda: gf.concentration_experiment(gf.build_model("gauss_walk"), -1, 1.0, 100),
     gf.ConfigError, re.escape("horizon must be >= 0, got -1")),
    (lambda: gf.omega_hat_membership(np.zeros((3, 2)), math.inf, 5.0),
     gf.ConfigError, re.escape("c_const must be > 0 and finite, got inf")),
    (lambda: gf.kg_evaluate(gf.build_model("finite_chain"), 3, -1.0),
     gf.ConfigError, re.escape("c_const must be > 0 and finite, got -1.0")),
    (lambda: gf.tame_threshold(5.0, 1.0, 2, -1),
     gf.ConfigError, re.escape("horizon must be >= 0, got -1")),
    (lambda: gf.membership_bound(1.0, 2, -1),
     gf.ConfigError, re.escape("horizon must be >= 0, got -1")),
    (lambda: gf.membership_bound(math.nan, 2, 3),
     gf.ConfigError, re.escape("c_const must be > 0 and finite, got nan")),
    (lambda: gf.membership_bound(-1.0, 2, 3),
     gf.ConfigError, re.escape("c_const must be > 0 and finite, got -1.0")),
    (lambda: gf.tame_threshold(math.nan, 1.0, 2, 3),
     gf.ConfigError, re.escape("gamma must be > 0 and finite, got nan")),
    (lambda: gf.omega_hat_membership(np.zeros((4, 2)), 1.0, math.nan),
     gf.ConfigError, re.escape("gamma must be > 0 and finite, got nan")),
    (lambda: gf.tame_threshold(0.0, 1.0, 2, 3),
     gf.ConfigError, re.escape("gamma must be > 0 and finite, got 0.0")),
    (lambda: gf.tame_threshold(5.0, 1.0, -1, 3),
     gf.ConfigError, re.escape("n_dim must be >= 1, got -1")),
    (lambda: gf.membership_bound(1.0, 0, 3),
     gf.ConfigError, re.escape("n_dim must be >= 1, got 0")),
    (lambda: gf.chi2_tail_check(2, math.inf, 100),
     gf.ConfigError, re.escape("a finite u >= 0, got 2, 100, inf")),
    (lambda: gf.chi2_tail_check(2, math.nan, 100),
     gf.ConfigError, re.escape("a finite u >= 0, got 2, 100, nan")),
], ids=["membership_one_axis", "membership_four_axes", "membership_no_steps",
        "membership_no_axes",
        "experiment_no_paths", "experiment_nan_c", "experiment_zero_c",
        "experiment_negative_horizon", "membership_inf_c", "kg_negative_c",
        "threshold_negative_horizon", "floor_negative_horizon", "floor_nan_c",
        "floor_negative_c", "threshold_nan_gamma", "membership_nan_gamma",
        "threshold_zero_gamma", "threshold_negative_dim", "floor_zero_dim", "chi2_inf_u",
        "chi2_nan_u"])
def test_concentration_refusals(make, error, message):
    with pytest.raises(error, match=message):
        make()
