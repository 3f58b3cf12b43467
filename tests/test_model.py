import dataclasses

import numpy as np
import pytest
from scipy import stats

import gridfilter as gf
from gridfilter.model import _simulate


def frozen_spec(n=2, mean_const=0.3, cov_const=1.0, sigma_xi_sq=0.5):
    """Degenerate dynamics: the state never moves, observation law is constant."""
    return gf.build_model("constant", n=n, value=0.5, mean_const=mean_const,
                          cov_const=cov_const, sigma_xi_sq=sigma_xi_sq)


def test_make_rng_streams_are_stable_and_distinct():
    a = gf.make_rng(7, 0).standard_normal(4)
    b = gf.make_rng(7, 0).standard_normal(4)
    c = gf.make_rng(7, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        gf.make_rng(-1)


def test_observation_moments_match_declared_law():
    # Constant mean/cov model: y_t ~ N(mean_const*1, (cov_const+sigma_xi^2) I).
    spec = frozen_spec(n=2, mean_const=0.3, cov_const=1.0, sigma_xi_sq=0.5)
    states, obs = gf.simulate_batch(spec, 0, 100_000, seed=2)
    ys = obs[:, 0, :]
    mean_se = np.sqrt(1.5 / 100_000)
    assert np.all(np.abs(ys.mean(axis=0) - 0.3) < 3 * mean_se)
    cov = np.cov(ys.T)
    # var(sample cov entry) ~ 2 sigma^4 / n on the diagonal
    cov_se = np.sqrt(2 * 1.5**2 / 100_000)
    assert np.all(np.abs(np.diag(cov) - 1.5) < 3 * cov_se)
    assert abs(cov[0, 1]) < 3 * np.sqrt(1.5**2 / 100_000)
    assert np.all(states == 0.5)


def test_simulate_is_deterministic_in_seed():
    spec = gf.build_model("gauss_walk")
    t1 = gf.simulate(spec, 15, seed=9)
    t2 = gf.simulate(spec, 15, seed=9)
    t3 = gf.simulate(spec, 15, seed=10)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.observations, t2.observations)
    assert not np.array_equal(t1.observations, t3.observations)


def test_obs_scale_is_exactly_linear_in_observations():
    base = gf.build_model("gauss_walk", obs_scale=1.0, lambda_inf_target=None)
    scaled = gf.build_model("gauss_walk", obs_scale=3.0, lambda_inf_target=None)
    tb = gf.simulate(base, 12, seed=5)
    ts_ = gf.simulate(scaled, 12, seed=5)
    assert np.array_equal(tb.states, ts_.states)
    assert np.array_equal(3.0 * tb.observations, ts_.observations)


def test_reference_measure_draws_are_standard_normal():
    spec = gf.build_model("gauss_walk")
    states, obs = gf.simulate_batch(spec, 3, 50_000, seed=4, tilde=True)
    flat = obs.reshape(-1, obs.shape[-1])
    n = flat.shape[0]
    assert np.all(np.abs(flat.mean(axis=0)) < 3 / np.sqrt(n))
    cov = np.cov(flat.T)
    assert np.all(np.abs(np.diag(cov) - 1.0) < 3 * np.sqrt(2.0 / n))
    assert abs(cov[0, 1]) < 0.02
    # same underlying state path as the data-measure draw with the same seed
    states_p, _ = gf.simulate_batch(spec, 3, 50_000, seed=4, tilde=False)
    assert np.array_equal(states, states_p)


def test_reference_measure_observations_independent_of_states():
    spec = gf.build_model("gauss_walk")
    states, obs = gf.simulate_batch(spec, 0, 50_000, seed=8, tilde=True)
    x = states[:, 0, 0]
    for d in range(obs.shape[-1]):
        r = np.corrcoef(x, obs[:, 0, d])[0, 1]
        assert abs(r) < 0.02


def test_two_sample_ks_reference_vs_unit_normal():
    spec = gf.build_model("gauss_walk", n=1)
    _, obs_a = gf.simulate_batch(spec, 0, 4000, seed=100, tilde=True)
    rng = gf.make_rng(999)
    sample_b = rng.standard_normal(4000)
    a = obs_a[:, 0, 0]
    n, m = len(a), len(sample_b)
    d = stats.ks_2samp(a, sample_b).statistic
    # 1% critical value for the two-sample statistic
    assert d < 1.628 * np.sqrt((n + m) / (n * m))


def test_batch_paths_match_scalar_simulation():
    spec = gf.build_model("gauss_walk")
    states, obs = gf.simulate_batch(spec, 6, 5, seed=13)
    assert states.shape == (5, 7, 1)
    assert obs.shape == (5, 7, 2)
    assert np.all(states >= spec.space.lower) and np.all(states <= spec.space.upper)


def test_validate_accepts_demo_and_rejects_bad_density():
    spec = gf.build_model("gauss_walk")
    spec.validate()

    bad_kernel = gf.TransitionKernel(
        sampler=spec.kernel.sampler,
        initial_sampler=spec.kernel.initial_sampler,
        density=lambda t, x, xn: 0.5 * spec.kernel.density(t, x, xn),
        initial_density=spec.kernel.initial_density)
    bad = gf.SystemSpec(space=spec.space, kernel=bad_kernel, obs=spec.obs,
                        constants=spec.constants, model_id="bad")
    with pytest.raises(gf.ModelDefinitionError):
        bad.validate()


@pytest.mark.parametrize("scale, accepted", [(1.0, True), (0.5, False)])
def test_validate_resolves_the_mass_of_a_narrow_step(scale, accepted):
    # sigma = 0.01 is a tenth of a 64-panel width on [-3, 3]; the mass
    # quadrature must refine until it resolves the step, and still reject a
    # density of half the mass
    spec = gf.build_model("gauss_walk", lower=-3.0, upper=3.0, step_sigma=0.01)
    density = spec.kernel.density
    scaled = dataclasses.replace(spec, kernel=dataclasses.replace(
        spec.kernel, density=lambda t, x, xs: scale * density(t, x, xs)))
    if accepted:
        scaled.validate()
    else:
        with pytest.raises(gf.ModelDefinitionError, match="mass 0.5"):
            scaled.validate()


def test_validate_rejects_increment_density_of_another_step():
    spec = gf.build_model("gauss_walk", step_sigma=0.15)
    wrong = gf.build_model("gauss_walk", step_sigma=0.2).kernel.increment_density
    bad = dataclasses.replace(
        spec, kernel=dataclasses.replace(spec.kernel, increment_density=wrong))
    with pytest.raises(gf.ModelDefinitionError, match="x_prev="):
        bad.validate()


def test_validate_rejects_a_sampler_that_drops_the_state_axis():
    spec = gf.build_model("gauss_walk")
    flat = dataclasses.replace(spec, kernel=dataclasses.replace(
        spec.kernel, sampler=lambda t, x, rng: spec.kernel.sampler(t, x, rng)[:, 0]))
    with pytest.raises(gf.ModelDefinitionError, match="sampler shape"):
        flat.validate()


def test_validate_rejects_eigenvalue_floor_at_one():
    spec = gf.build_model("constant")  # unit covariance, floor exactly 1
    with pytest.raises(gf.AssumptionViolationError):
        spec.validate()


def test_verify_assumptions_quadratic_cov_is_tight():
    # Sigma(x) = (1+x^2) I with sigma_xi^2 = 1 on [0,1]: eigenvalues span [2, 3].
    space = gf.StateSpace(lower=np.array([0.0]), upper=np.array([1.0]))
    obs = gf.ObservationModel(
        n=2,
        mean_fn=lambda t, x: np.zeros((len(x), 2)),
        cov_fn=lambda t, x: (1.0 + x[:, 0] ** 2)[:, None, None] * np.eye(2),
        sigma_xi_sq=1.0)
    base = gf.build_model("gauss_walk")
    constants = gf.AssumptionConstants(lambda_inf=2.0, lambda_sup=3.0,
                                       mu_sup=0.0, k_mu=0.0, k_sigma=2.0)
    spec = gf.SystemSpec(space=space, kernel=base.kernel, obs=obs,
                         constants=constants, model_id="quadratic-cov")
    emp = gf.verify_assumptions(spec, n_probe=200, seed=0)
    assert emp.lambda_inf == pytest.approx(2.0)
    assert emp.lambda_sup == pytest.approx(3.0)
    assert emp.mu_sup == 0.0


def test_verify_assumptions_flags_overclaimed_floor():
    spec = gf.build_model("gauss_walk")
    inflated = gf.AssumptionConstants(
        lambda_inf=2.0 * spec.constants.lambda_inf,
        lambda_sup=spec.constants.lambda_sup,
        mu_sup=spec.constants.mu_sup, k_mu=spec.constants.k_mu,
        k_sigma=spec.constants.k_sigma)
    bad = gf.SystemSpec(space=spec.space, kernel=spec.kernel, obs=spec.obs,
                        constants=inflated, model_id="overclaimed")
    with pytest.raises(gf.AssumptionViolationError, match="lambda_inf"):
        gf.verify_assumptions(bad, n_probe=100, seed=0)


def test_verify_assumptions_reports_demo_constants():
    spec = gf.build_model("gauss_walk")
    emp = gf.verify_assumptions(spec, n_probe=300, seed=1)
    c = spec.constants
    assert emp.lambda_inf >= c.lambda_inf - 1e-9
    assert emp.lambda_sup <= c.lambda_sup + 1e-9
    assert emp.mu_sup <= c.mu_sup + 1e-9
    assert emp.k_mu <= c.k_mu + 1e-9
    assert emp.k_sigma <= c.k_sigma + 1e-9


def test_simulation_does_not_disturb_global_rng():
    np.random.seed(123)
    before = np.random.get_state()[1][:5].copy()
    gf.simulate(gf.build_model("gauss_walk"), 10, seed=3)
    after = np.random.get_state()[1][:5]
    assert np.array_equal(before, after)


def test_trajectory_coupling_shares_state_path():
    spec = gf.build_model("gauss_walk")
    tp = _simulate(spec, 10, 21, tilde=False)
    tq = _simulate(spec, 10, 21, tilde=True)
    assert np.array_equal(tp.states, tq.states)
    assert not np.array_equal(tp.observations, tq.observations)


def test_constants_validation():
    with pytest.raises(gf.ModelDefinitionError):
        gf.AssumptionConstants(lambda_inf=0.0, lambda_sup=1.0, mu_sup=0.0,
                               k_mu=0.0, k_sigma=0.0)
    with pytest.raises(gf.ModelDefinitionError):
        gf.AssumptionConstants(lambda_inf=2.0, lambda_sup=1.0, mu_sup=0.0,
                               k_mu=0.0, k_sigma=0.0)
    c = gf.AssumptionConstants(lambda_inf=1.5, lambda_sup=2.0, mu_sup=1.0,
                               k_mu=1.0, k_sigma=1.0)
    c2 = c.with_derived(k_det=1.0, k_det_minor=0.5, k_inv=3.0)
    assert c2.k_inv == 3.0 and c.k_inv is None
