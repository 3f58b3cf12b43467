import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

import gridfilter as gf
from gridfilter import model
from gridfilter._cholesky import cholesky_rows, cholesky_stack
from gridfilter.model import _checked
from test_likelihood import time_varying_full_covariance


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
    base = gf.build_model("gauss_walk", obs_scale=1.0)
    scaled = gf.build_model("gauss_walk", obs_scale=3.0)
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
    gf.verify_assumptions(spec, n_probe=32, seed=0)

    def without_hook(scale):
        kernel = gf.TransitionKernel(
            sampler=spec.kernel.sampler,
            initial_sampler=spec.kernel.initial_sampler,
            density=lambda t, x, xn: scale * spec.kernel.density(t, x, xn),
            initial_density=spec.kernel.initial_density)
        return gf.SystemSpec(space=spec.space, kernel=kernel, obs=spec.obs,
                             constants=spec.constants, model_id="bad")

    # without increment_cell_mass only the density's mass is checked
    gf.verify_assumptions(without_hook(1.0), n_probe=32, seed=0)
    with pytest.raises(gf.ModelDefinitionError):
        gf.verify_assumptions(without_hook(0.5), n_probe=32, seed=0)


@pytest.mark.parametrize("m", [1, 2])
def test_validate_checks_the_density_of_a_1d_kernel_only(m):
    # a density with no mass: the audit rejects it in 1-D and, by its
    # documented scope, never evaluates it on a 2-D box
    calls = []

    def density(t, x_prev, xs):
        calls.append(len(xs))
        return np.zeros(len(xs))

    kernel = gf.TransitionKernel(
        sampler=lambda t, x, rng: x, initial_sampler=lambda rng, size: np.full((size, m), 0.5),
        density=density)
    obs = gf.ObservationModel(n=1, mean_fn=lambda t, x: np.zeros((len(x), 1)),
                              cov_fn=lambda t, x: np.zeros((len(x), 1, 1)), sigma_xi_sq=2.0)
    spec = gf.SystemSpec(
        space=gf.StateSpace(lower=np.zeros(m), upper=np.ones(m)), kernel=kernel, obs=obs,
        constants=gf.AssumptionConstants(lambda_inf=2.0, lambda_sup=2.0, mu_sup=0.0,
                                         k_mu=0.0, k_sigma=0.0))
    if m == 1:
        with pytest.raises(gf.ModelDefinitionError, match="transition density mass 0.0"):
            gf.verify_assumptions(spec, n_probe=8, seed=0)
        assert calls
    else:
        assert gf.verify_assumptions(spec, n_probe=8, seed=0).lambda_inf == 2.0
        assert calls == []


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
        gf.verify_assumptions(scaled, n_probe=32, seed=0)
    else:
        with pytest.raises(gf.ModelDefinitionError, match="mass 0.5"):
            gf.verify_assumptions(scaled, n_probe=32, seed=0)


def test_gauss_legendre_rule_is_leggauss_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    base_nodes, base_weights = model._gl_panels(np.array([-1.0, 1.0]))
    assert np.array_equal(base_nodes.view(np.int64), nodes.view(np.int64))
    assert np.array_equal(base_weights.view(np.int64), weights.view(np.int64))


def test_validate_rejects_increment_cell_mass_of_another_step():
    spec = gf.build_model("gauss_walk", step_sigma=0.15)
    wrong = gf.build_model("gauss_walk", step_sigma=0.2).kernel.increment_cell_mass
    bad = dataclasses.replace(
        spec, kernel=dataclasses.replace(spec.kernel, increment_cell_mass=wrong))
    with pytest.raises(gf.ModelDefinitionError, match="x_prev="):
        gf.verify_assumptions(bad, n_probe=32, seed=0)


def test_validate_rejects_increment_cell_mass_with_doubled_tails():
    # right on [-3 sigma, 3 sigma], twice the mass beyond it
    spec = gf.build_model("gauss_walk", step_sigma=0.15)
    mass = spec.kernel.increment_cell_mass

    def doubled(lo, hi):
        return 2.0 * mass(lo, hi) - mass(np.clip(lo, -0.45, 0.45), np.clip(hi, -0.45, 0.45))

    bad = dataclasses.replace(
        spec, kernel=dataclasses.replace(spec.kernel, increment_cell_mass=doubled))
    with pytest.raises(gf.ModelDefinitionError, match="increment_cell_mass from x_prev="):
        gf.verify_assumptions(bad, n_probe=32, seed=0)


def test_validate_rejects_a_sampler_that_drops_the_state_axis():
    spec = gf.build_model("gauss_walk")
    flat = dataclasses.replace(spec, kernel=dataclasses.replace(
        spec.kernel, sampler=lambda t, x, rng: spec.kernel.sampler(t, x, rng)[:, 0]))
    with pytest.raises(gf.ModelDefinitionError, match="sampler shape"):
        gf.verify_assumptions(flat, n_probe=32, seed=0)


def test_validate_rejects_eigenvalue_floor_at_one():
    spec = gf.build_model("constant")  # unit covariance, floor exactly 1
    with pytest.raises(gf.AssumptionViolationError):
        gf.verify_assumptions(spec, n_probe=32, seed=0)


def with_cov(spec, cov_fn):
    return dataclasses.replace(spec, obs=dataclasses.replace(spec.obs, cov_fn=cov_fn))


def test_audit_rejects_an_asymmetric_covariance():
    spec = gf.build_model("gauss_walk")
    cov_fn = spec.obs.cov_fn

    def skewed(t, x):
        c = cov_fn(t, x)
        c[:, 0, 1] += 0.05
        return c

    with pytest.raises(gf.ModelDefinitionError,
                       match=r"cov_fn not symmetric at t=0, x=\[0\.\]: max asymmetry 1\.250e-01"):
        gf.verify_assumptions(with_cov(spec, skewed), n_probe=32, seed=0)


def test_audit_rejects_a_covariance_that_is_not_positive_definite():
    # indefinite at the upper box face only; this check runs before the
    # declared floor would be compared
    spec = gf.build_model("gauss_walk")
    cov_fn = spec.obs.cov_fn

    def indefinite(t, x):
        c = cov_fn(t, x)
        off = np.where(x[:, 0] == 1.0, 10.0, 0.0)
        c[:, 0, 1] += off
        c[:, 1, 0] += off
        return c

    with pytest.raises(gf.ModelDefinitionError,
                       match=r"total covariance not positive definite at t=0, x=\[1\.\]"):
        gf.verify_assumptions(with_cov(spec, indefinite), n_probe=32, seed=0)


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
    tp = gf.simulate(spec, 10, 21)
    tq = gf.simulate(spec, 10, 21, tilde=True)
    assert np.array_equal(tp.states, tq.states)
    assert not np.array_equal(tp.observations, tq.observations)
    # the reference observations are the driving draws of stream (seed, 1)
    assert np.array_equal(tq.observations,
                          gf.make_rng(21, 1).standard_normal((11, spec.obs.n)))


def test_corners_list_every_corner_up_to_4096():
    for m in (1, 3, 12):
        space = gf.StateSpace(lower=-np.arange(1.0, m + 1), upper=np.arange(1.0, m + 1))
        corners = space.corners()
        assert corners.shape == (2**m, m)
        assert len({tuple(c) for c in corners}) == 2**m
        assert np.all((corners == space.lower) | (corners == space.upper))
    space = gf.StateSpace(lower=np.zeros(13), upper=np.ones(13))
    assert np.array_equal(space.corners(), np.stack([np.zeros(13), np.ones(13)]))


def test_constants_validation():
    with pytest.raises(gf.ModelDefinitionError):
        gf.AssumptionConstants(lambda_inf=0.0, lambda_sup=1.0, mu_sup=0.0,
                               k_mu=0.0, k_sigma=0.0)
    with pytest.raises(gf.ModelDefinitionError):
        gf.AssumptionConstants(lambda_inf=2.0, lambda_sup=1.0, mu_sup=0.0,
                               k_mu=0.0, k_sigma=0.0)
    c = gf.AssumptionConstants(lambda_inf=1.5, lambda_sup=2.0, mu_sup=1.0,
                               k_mu=1.0, k_sigma=1.0)
    c2 = dataclasses.replace(c, k_det=1.0, k_inv=3.0)
    assert c2.k_inv == 3.0 and c.k_inv is None


def observation_model(**changes):
    return lambda: gf.ObservationModel(**{
        "n": 2, "mean_fn": None, "cov_fn": None, "sigma_xi_sq": 0.5, **changes})


def constants(**changes):
    return lambda: gf.AssumptionConstants(**{
        "lambda_inf": 1.5, "lambda_sup": 2.0, "mu_sup": 1.0, "k_mu": 1.0,
        "k_sigma": 1.0, **changes})


def escaping_walk():
    spec = gf.build_model("gauss_walk")
    return dataclasses.replace(spec, kernel=dataclasses.replace(
        spec.kernel, sampler=lambda t, x, rng: x + 2.0))


@pytest.mark.parametrize("make, message", [
    (lambda: gf.StateSpace(lower=np.zeros(2), upper=np.ones(3)),
     "bounds must be 1-d arrays of equal length"),
    (lambda: gf.StateSpace(lower=np.zeros(1), upper=np.array([np.inf])),
     "bounds must be finite"),
    (lambda: gf.StateSpace(lower=np.ones(1), upper=np.ones(1)),
     "need lower < upper in every coordinate"),
    (observation_model(n=0), "observation dimension must be >= 1"),
    (observation_model(sigma_xi_sq=0.0), "sigma_xi_sq must be positive"),
    (observation_model(obs_scale=-1.0), "obs_scale must be positive"),
    (constants(mu_sup=np.nan), "constants must be finite"),
    (constants(k_mu=-1.0), "norm bounds must be nonnegative"),
    (lambda: gf.Trajectory(states=np.zeros((3, 1)), observations=np.zeros((2, 2))),
     "states and observations must share a time axis"),
    (lambda: gf.simulate(escaping_walk(), 2, seed=0), r"kernel left the box at t=1"),
], ids=["box_lengths", "box_infinite", "box_empty", "obs_n", "obs_sigma_xi",
        "obs_scale", "constants_nan", "constants_negative",
        "trajectory_lengths", "kernel_left_box"])
def test_model_refusals(make, message):
    with pytest.raises(gf.ModelDefinitionError, match=message):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: gf.simulate(gf.build_model("gauss_walk"), -1, seed=0), "horizon must be >= 0"),
    (lambda: gf.verify_assumptions(gf.build_model("gauss_walk"), n_probe=1, seed=0),
     "need n_probe >= 2"),
], ids=["negative_horizon", "one_probe"])
def test_model_argument_refusals(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def whole_batch_paths(spec, horizon, n_paths, rng_state, rng_obs, tilde):
    """``_sample_paths`` with every step's observation half taken over the
    whole batch at once, through LAPACK's factor and a stacked matmul."""
    m, n = spec.space.dim, spec.obs.n
    states = np.empty((n_paths, horizon + 1, m))
    obs = np.empty((n_paths, horizon + 1, n))
    x = spec.kernel.initial_sampler(rng_state, n_paths)
    for t in range(horizon + 1):
        if t > 0:
            x = spec.kernel.sampler(t, x, rng_state)
        states[:, t] = x
        u = rng_obs.standard_normal((n_paths, n))
        if tilde:
            obs[:, t] = u
            continue
        raw_cov = _checked(spec.obs.cov_fn(t, x), (n_paths, n, n), "cov_fn", t)
        chol = np.linalg.cholesky(raw_cov + spec.obs.sigma_xi_sq * np.eye(n))
        raw_mean = _checked(spec.obs.mean_fn(t, x), (n_paths, n), "mean_fn", t)
        obs[:, t] = spec.obs.obs_scale * (raw_mean + (chol @ u[..., None])[..., 0])
    return states, obs


@pytest.mark.parametrize("tilde", [False, True])
@pytest.mark.parametrize("n_paths", [3, 4, 5])
@pytest.mark.parametrize("model_id", ["gauss_walk", "finite_chain"])
def test_sliced_batch_equals_whole_batch_step(monkeypatch, model_id, n_paths, tilde):
    monkeypatch.setattr(model, "_OBS_CHUNK", 4)
    spec = gf.build_model(model_id, n=3)
    states, obs = gf.simulate_batch(spec, 5, n_paths, seed=8, tilde=tilde)
    want_states, want_obs = whole_batch_paths(spec, 5, n_paths, gf.make_rng(8, 2),
                                              gf.make_rng(8, 3), tilde)
    assert np.array_equal(states, want_states)
    assert np.array_equal(obs, want_obs)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_sliced_batch_is_near_whole_batch_step_on_full_covariances(monkeypatch, n):
    # full factors differ from LAPACK's by a few ulps, and so do the draws;
    # a factor entry applied to the wrong u_k moves them by far more
    monkeypatch.setattr(model, "_OBS_CHUNK", 4)
    spec = time_varying_full_covariance(n)
    states, obs = gf.simulate_batch(spec, 4, 7, seed=8)
    want_states, want_obs = whole_batch_paths(spec, 4, 7, gf.make_rng(8, 2),
                                              gf.make_rng(8, 3), False)
    assert np.array_equal(states, want_states)
    assert np.all(np.abs(obs - want_obs) <= 1e-14 * np.maximum(np.abs(want_obs), 1.0))


def test_covariance_failure_in_a_later_slice_names_its_path(monkeypatch):
    monkeypatch.setattr(model, "_OBS_CHUNK", 4)
    starts = np.linspace(0.0, 1.0, 8)[:, None]
    bad = starts[5]  # the second slice's second path

    def cov_fn(t, x):
        c = np.zeros((len(x), 2, 2))
        c[(t == 1) & (x[:, 0] == bad[0])] = -10.0 * np.eye(2)
        return c

    kernel = gf.TransitionKernel(sampler=lambda t, x, rng: x,
                                 initial_sampler=lambda rng, size: starts[:size].copy())
    obs = gf.ObservationModel(n=2, mean_fn=lambda t, x: np.zeros((len(x), 2)),
                              cov_fn=cov_fn, sigma_xi_sq=1.0)
    spec = gf.SystemSpec(space=gf.StateSpace(lower=np.array([0.0]), upper=np.array([1.0])),
                         kernel=kernel, obs=obs,
                         constants=gf.AssumptionConstants(1.0, 1.0, 0.0, 0.0, 0.0))
    with pytest.raises(gf.ModelDefinitionError,
                       match=re.escape(f"not positive definite at t=1, x={bad}")):
        gf.simulate_batch(spec, 2, 8, seed=0)


def test_batch_peak_memory_stays_near_its_output():
    spec = gf.build_model("gauss_walk", n=4)
    tracemalloc.start()
    try:
        states, obs = gf.simulate_batch(spec, 9, 100_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= states.nbytes + obs.nbytes + 16 * 2**20


def stacked_rows(covs, shift=0.0):
    """``cholesky_rows`` of ``covs`` filled into (B, N, N) lower factors;
    every entry must be a contiguous (B,) vector."""
    chol = np.zeros(covs.shape)
    for i, row in enumerate(cholesky_rows(covs, 0, np.zeros((len(covs), 1)), shift)):
        assert len(row) == i + 1
        for j, entry in enumerate(row):
            assert entry.shape == (len(covs),) and entry.flags.c_contiguous
            chol[:, i, j] = entry
    return chol


@pytest.mark.parametrize("n", range(1, 9))
def test_factor_equals_lapack_on_diagonal_stacks(n):
    rng = gf.make_rng(40, n)
    covs = rng.uniform(0.01, 100.0, size=(500, 1, n)) * np.eye(n)
    assert np.array_equal(stacked_rows(covs), np.linalg.cholesky(covs))
    assert np.array_equal(stacked_rows(covs, 0.7), np.linalg.cholesky(covs + 0.7 * np.eye(n)))
    assert np.array_equal(cholesky_stack(covs, 0, np.zeros((500, 1))), np.linalg.cholesky(covs))


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("model_id", sorted(gf.MODEL_BUILDERS))
def test_factor_equals_lapack_on_registered_models(model_id, n):
    # every registered covariance is diagonal, so the sampler's and the
    # likelihood's factors are LAPACK's bit for bit
    spec = gf.build_model(model_id, n=n)
    pts = gf.make_rng(41).uniform(spec.space.lower, spec.space.upper, size=(300, 1))
    for t in range(3):
        raw = spec.obs.cov_fn(t, pts)
        assert np.array_equal(stacked_rows(raw, spec.obs.sigma_xi_sq),
                              np.linalg.cholesky(raw + spec.obs.sigma_xi_sq * np.eye(n)))
        total = spec.obs.total_cov(t, pts)
        assert np.array_equal(stacked_rows(total), np.linalg.cholesky(total))


# Largest |L - L_lapack|_ij and |L L' - C|_ij, in units of eps sqrt(c_ii) and
# eps sqrt(c_ii c_jj), on well-conditioned full covariances; measured at most
# 1.9 and 2.9 for N <= 8.
_FACTOR_EPS = 8.0


def assert_near_lapack(covs):
    eps = np.finfo(float).eps
    scale = np.sqrt(np.diagonal(covs, axis1=1, axis2=2))
    chol = stacked_rows(covs)
    assert np.all(np.abs(chol - np.linalg.cholesky(covs))
                  <= _FACTOR_EPS * eps * scale[:, :, None])
    assert np.all(np.abs(chol @ np.swapaxes(chol, 1, 2) - covs)
                  <= _FACTOR_EPS * eps * scale[:, :, None] * scale[:, None, :])


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_factor_is_near_lapack_on_full_covariances(n):
    spec = time_varying_full_covariance(n)
    rng = gf.make_rng(42, n)
    pts = rng.uniform(0.0, 1.0, size=(500, 1))
    for t in range(4):
        assert_near_lapack(spec.obs.total_cov(t, pts))
    a = rng.standard_normal((2000, n, n))
    assert_near_lapack(a @ np.swapaxes(a, 1, 2) + n * np.eye(n))


def failing_stack(entry, value):
    """Six 3x3 covariances: point 1 fails at the last column through
    ``entry`` (set on both sides of the diagonal), point 4 at the first."""
    covs = np.tile(np.eye(3), (6, 1, 1))
    covs[1][entry] = covs[1][entry[::-1]] = value
    covs[4][0, 0] = -5.0
    return covs


FAILURES = {
    "negative_pivot": ((2, 2), -5.0),
    "indefinite": ((2, 1), 5.0),
    "nan_pivot": ((2, 2), np.nan),
    "nan_entry": ((2, 1), np.nan),
    "inf_pivot": ((2, 2), np.inf),
    "inf_entry": ((2, 0), np.inf),
    "minus_inf_entry": ((2, 1), -np.inf),
}
FAILING_POINTS = np.linspace(0.0, 1.0, 6)[:, None]


def failing_spec(covs):
    """A frozen model at ``FAILING_POINTS`` whose covariance at t=7 is ``covs``."""
    def cov_fn(t, x):
        if t != 7:
            return np.zeros((len(x), 3, 3))
        return covs[np.rint(5 * x[:, 0]).astype(int)] - np.eye(3)

    kernel = gf.TransitionKernel(sampler=lambda t, x, rng: x,
                                 initial_sampler=lambda rng, size: FAILING_POINTS[:size].copy())
    obs = gf.ObservationModel(n=3, mean_fn=lambda t, x: np.zeros((len(x), 3)),
                              cov_fn=cov_fn, sigma_xi_sq=1.0)
    return gf.SystemSpec(space=gf.StateSpace(lower=np.array([0.0]), upper=np.array([1.0])),
                         kernel=kernel, obs=obs,
                         constants=gf.AssumptionConstants(1.0, 1.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("failure", list(FAILURES))
def test_factor_refusal_names_the_lowest_failing_point(failure):
    covs = failing_stack(*FAILURES[failure])
    spec = failing_spec(covs)
    message = re.escape(f"total covariance not positive definite at t=7, x={FAILING_POINTS[1]}")
    calls = [lambda: cholesky_rows(covs, 7, FAILING_POINTS),
             lambda: cholesky_stack(covs, 7, FAILING_POINTS),
             lambda: gf.simulate_batch(spec, 8, 6, seed=0),
             lambda: gf.log_lambda_hat_at_points(spec, 7, FAILING_POINTS, np.ones(3))]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(gf.ModelDefinitionError, match=message):
                call()


def one_path(spec, horizon, seed, tilde):
    """One path on plain generators for streams (seed, 0) and (seed, 1): what
    every path of a many-seeds batch must reproduce."""
    states, obs = model._sample_paths(spec, horizon, 1, gf.make_rng(seed, 0),
                                      gf.make_rng(seed, 1), tilde)
    return states[0], obs[0]


BATCH_MODELS = {
    "gauss_walk-n2": lambda: gf.build_model("gauss_walk", n=2),
    "gauss_walk-n4": lambda: gf.build_model("gauss_walk", n=4),
    "finite_chain": lambda: gf.build_model("finite_chain"),
    **{f"time_varying-n{n}": (lambda n=n: time_varying_full_covariance(n))
       for n in (1, 2, 3, 8)},
}


@pytest.mark.parametrize("tilde", [False, True], ids=["simulate", "simulate_tilde"])
@pytest.mark.parametrize("n_paths", [1, 2, 24])
@pytest.mark.parametrize("name", list(BATCH_MODELS))
def test_many_seeds_batch_equals_one_path_runs(name, n_paths, tilde):
    spec = BATCH_MODELS[name]()
    seeds = [int(s) for s in np.random.SeedSequence(31).generate_state(n_paths)]
    states, obs = model._simulate(spec, 7, seeds, tilde)
    assert states.shape[0] == obs.shape[0] == n_paths
    for b, seed in enumerate(seeds):
        want_states, want_obs = one_path(spec, 7, seed, tilde)
        tr = gf.simulate(spec, 7, seed, tilde=tilde)
        for got_states, got_obs in ((states[b], obs[b]), (tr.states, tr.observations)):
            assert np.array_equal(got_states, want_states)
            assert np.array_equal(got_obs, want_obs)


def drawing_walk(draw):
    """``gauss_walk`` whose sampler returns ``draw(rng, x_prev)``."""
    spec = gf.build_model("gauss_walk")
    return dataclasses.replace(spec, kernel=dataclasses.replace(
        spec.kernel, sampler=lambda t, x, rng: draw(rng, x)))


@pytest.mark.parametrize("draw, message", [
    (lambda rng, x: np.full(x.shape, rng.random()),
     "rng.random(size=None) on per-path streams: the leading size must be the path count 3"),
    (lambda rng, x: rng.uniform(0.0, 1.0, size=(len(x) + 1, 1))[:len(x)],
     "rng.uniform(size=(4, 1)) on per-path streams: the leading size must be the path count 3"),
    (lambda rng, x: rng.normal(0.5, 0.1, size=x.shape),
     "rng.normal is not offered by per-path streams; draw with random, uniform or "
     "standard_normal"),
], ids=["no_path_axis", "wrong_leading_size", "unsupported_method"])
def test_per_path_streams_refuse_draws_they_cannot_split(draw, message):
    with pytest.raises(gf.ModelDefinitionError, match=re.escape(message)):
        model._simulate(drawing_walk(draw), 2, [0, 1, 2], tilde=False)
