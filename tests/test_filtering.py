import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridfilter as gf
from gridfilter import filtering
from gridfilter.filtering import _logsumexp
from gridfilter.quantize import _FFT_SLICE


def interval_spec(lower=0.5, upper=2.5, n=2):
    """Observation law with spread mean so cells are distinguishable."""
    return gf.build_model("gauss_walk", lower=lower, upper=upper, n=n)


def random_chain(grid, rng):
    k = grid.total_points
    trans = rng.dirichlet(np.ones(k), size=k)
    init = rng.dirichlet(np.ones(k))
    return gf.QuantizedChain(grid, trans, init, build_method="injected")


def test_single_cell_filter_is_constant():
    spec = interval_spec()
    grid = gf.Grid(spec.space, 1)
    chain = gf.QuantizedChain(grid, np.array([[1.0]]), np.array([1.0]))
    traj = gf.simulate(spec, 8, seed=0)
    res = gf.run_grid_filter(spec, chain, traj.observations)
    assert np.allclose(res.estimates, grid.centers[0])


def test_flat_likelihood_returns_predicted_prior():
    # constant model: the likelihood does not depend on the cell, so the
    # posterior must equal the chain prediction at every step
    spec = gf.build_model("constant", n=1, value=0.5, cov_const=1.0,
                          sigma_xi_sq=0.5)
    grid = gf.Grid(spec.space, 4)
    rng = gf.make_rng(1)
    chain = random_chain(grid, rng)
    obs = rng.standard_normal((5, 1))
    res = gf.run_grid_filter(spec, chain, obs)
    p = chain.initial.copy()
    for t in range(5):
        if t > 0:
            p = chain.transition.T @ p
        assert np.allclose(res.estimates[t], p @ grid.centers, atol=1e-12)


def test_two_state_posterior_closed_form():
    spec = interval_spec(n=1)
    grid = gf.Grid(spec.space, 2)
    trans = np.array([[0.8, 0.2], [0.3, 0.7]])
    init = np.array([0.6, 0.4])
    chain = gf.QuantizedChain(grid, trans, init)
    y = np.array([[1.1]])
    ll = np.array([gf.log_lambda_hat(spec, 0, grid.centers[k], y[0])
                   for k in range(2)])
    w = init * np.exp(ll)
    expected = (w / w.sum()) @ grid.centers
    res = gf.run_grid_filter(spec, chain, y)
    assert np.allclose(res.estimates[0], expected, atol=1e-12)
    assert res.log_norms[0] == pytest.approx(float(np.log(w.sum())), abs=1e-12)


def test_hand_computed_two_step_values():
    # A=2, T=1, every number traced through the recursion by hand
    spec = interval_spec(n=1)
    grid = gf.Grid(spec.space, 2)
    trans = np.array([[0.5, 0.5], [0.25, 0.75]])
    init = np.array([1.0, 0.0])
    chain = gf.QuantizedChain(grid, trans, init)
    ys = np.array([[0.4], [1.9]])
    l0 = np.array([gf.log_lambda_hat(spec, 0, grid.centers[k], ys[0])
                   for k in range(2)])
    l1 = np.array([gf.log_lambda_hat(spec, 1, grid.centers[k], ys[1])
                   for k in range(2)])
    w0 = init * np.exp(l0)
    post0 = w0 / w0.sum()
    w1 = (trans.T @ post0) * np.exp(l1)
    post1 = w1 / w1.sum()
    res = gf.run_grid_filter(spec, chain, ys)
    assert np.allclose(res.estimates[0], post0 @ grid.centers, atol=1e-12)
    assert np.allclose(res.estimates[1], post1 @ grid.centers, atol=1e-12)
    assert res.log_norms[1] == pytest.approx(
        float(np.log(w0.sum()) + np.log(w1.sum())), abs=1e-12)


def test_filter_matches_path_sum_on_random_systems():
    rng = np.random.default_rng(42)
    for trial in range(20):
        a = int(rng.integers(2, 5))
        horizon = int(rng.integers(1, 5))
        n = int(rng.integers(1, 3))
        spec = interval_spec(n=n)
        grid = gf.Grid(spec.space, a)
        chain = random_chain(grid, rng)
        traj = gf.simulate(spec, horizon, seed=trial)
        res = gf.run_grid_filter(spec, chain, traj.observations)
        oracle = gf.path_sum_oracle(spec, chain, traj.observations)
        rel = np.abs(res.estimates - oracle) / np.maximum(np.abs(oracle), 1e-30)
        assert rel.max() < 1e-9, f"trial {trial}: rel err {rel.max():.3e}"


def test_oracle_refuses_long_horizons():
    spec = interval_spec(n=1)
    grid = gf.Grid(spec.space, 2)
    chain = random_chain(grid, gf.make_rng(0))
    obs = np.zeros((8, 1))
    with pytest.raises(gf.BudgetExceededError, match="T=6"):
        gf.path_sum_oracle(spec, chain, obs)


def test_oracle_refuses_excessive_path_counts():
    spec = interval_spec(n=1)
    grid = gf.Grid(spec.space, 32)
    chain = random_chain(grid, gf.make_rng(0))
    obs = np.zeros((5, 1))  # 32^5 > 10^6
    with pytest.raises(gf.BudgetExceededError, match="33554432"):
        gf.path_sum_oracle(spec, chain, obs)


def test_empty_observation_sequence():
    spec = interval_spec()
    chain = gf.build_chain(spec, gf.Grid(spec.space, 4), "quadrature")
    exact = gf.build_model("finite_chain", n=2)
    for run in (lambda obs: gf.run_grid_filter(spec, chain, obs),
                lambda obs: gf.path_sum_oracle(spec, chain, obs),
                lambda obs: gf.exact_forward_filter(exact, obs)):
        for shape in ((0, 2), (3, 0, 2)):
            with pytest.raises(gf.DomainError, match=re.escape(
                    f"observations of shape {shape} hold no time step (T+1 = 0)")):
                run(np.empty(shape))


def test_reduced_and_full_likelihood_agree_on_estimates():
    spec = interval_spec()
    chain = gf.build_chain(spec, gf.Grid(spec.space, 8), "quadrature")
    traj = gf.simulate(spec, 12, seed=4)
    red = gf.run_grid_filter(spec, chain, traj.observations)
    full = gf.run_grid_filter(spec, chain, traj.observations,
                              use_full_likelihood=True)
    assert np.allclose(red.estimates, full.estimates, atol=1e-12)
    # normalizers differ by exactly the accumulated half squared norms
    half_norms = 0.5 * np.cumsum(np.sum(traj.observations**2, axis=1))
    assert np.allclose(full.log_norms - red.log_norms, half_norms, atol=1e-10)


def test_exact_filter_rejects_continuous_dynamics():
    spec = interval_spec()
    with pytest.raises(gf.ModelDefinitionError):
        gf.exact_forward_filter(spec, np.zeros((3, 2)))


def test_exact_filter_tracks_deterministic_cycle():
    # deterministic 2-cycle with near-noiseless observations pins the state
    fspec = gf.build_model("finite_chain", n_states=2, kind="uniform",
                          beta=0.01, sigma_xi_sq=0.01, alpha=4.0)
    kern = fspec.kernel
    cycle = gf.FiniteStateKernel(
        states=kern.states,
        transition_matrix=np.array([[0.0, 1.0], [1.0, 0.0]]),
        initial_probs=np.array([1.0, 0.0]))
    spec = gf.SystemSpec(space=fspec.space, kernel=cycle, obs=fspec.obs,
                         constants=fspec.constants, model_id="cycle")
    traj = gf.simulate(spec, 9, seed=8)
    expected_idx = [t % 2 for t in range(10)]
    assert np.allclose(traj.states[:, 0], kern.states[expected_idx, 0])
    est = gf.exact_forward_filter(spec, traj.observations)
    assert np.max(np.abs(est - traj.states)) < 1e-3


def test_uninformative_emissions_leave_symmetric_chain_flat():
    # state-independent observation law: posterior equals the (flat) chain marginal
    fspec = gf.build_model("finite_chain", n_states=4, kind="uniform", alpha=0.0)
    traj = gf.simulate(fspec, 6, seed=1)
    est = gf.exact_forward_filter(fspec, traj.observations)
    flat = np.full(4, 0.25) @ fspec.kernel.states
    assert np.allclose(est, flat, atol=1e-12)


def test_grid_filter_matches_exact_filter_through_injected_chain():
    fspec = gf.build_model("finite_chain", n_states=8, kind="sticky", seed=2)
    kern = fspec.kernel
    grid = gf.Grid(fspec.space, 8)
    chain = gf.QuantizedChain(grid, kern.transition_matrix, kern.initial_probs,
                              build_method="exact")
    assert np.allclose(grid.centers, kern.states, atol=1e-12)
    traj = gf.simulate(fspec, 30, seed=3)
    exact = gf.exact_forward_filter(fspec, traj.observations)
    res = gf.run_grid_filter(fspec, chain, traj.observations)
    assert np.max(np.abs(res.estimates - exact)) < 1e-10


def test_degenerate_update_is_reported():
    spec = interval_spec(n=1)
    grid = gf.Grid(spec.space, 2)
    # initial mass only on cell 0, transition keeps it there, but the
    # chain row for cell 0 is a zero row after masking: force via -inf weights
    trans = np.array([[1.0, 0.0], [0.0, 1.0]])
    init = np.array([0.0, 1.0])
    chain = gf.QuantizedChain(grid, trans, init)
    state = gf.initial_filter_state(chain)
    # corrupt the weights to simulate total mass loss
    state.weights[:] = 0.0
    with pytest.raises(gf.DegenerateUpdateError):
        gf.grid_filter_step(chain, spec, state, np.array([0.0]))


def test_filter_state_invariants():
    spec = interval_spec()
    chain = gf.build_chain(spec, gf.Grid(spec.space, 8), "quadrature")
    traj = gf.simulate(spec, 10, seed=5)
    state = gf.initial_filter_state(chain)
    assert state.t == -1
    for t in range(11):
        state = gf.grid_filter_step(chain, spec, state, traj.observations[t])
        assert state.t == t
        assert np.sum(state.weights) == pytest.approx(1.0, abs=1e-10)
        assert spec.space.contains(state.estimate)


def test_stacked_run_matches_single_runs():
    spec = interval_spec()
    chain = gf.build_chain(spec, gf.Grid(spec.space, 32), "quadrature")
    obs = np.stack([gf.simulate(spec, 9, seed=s).observations for s in range(5)])
    stacked = gf.run_grid_filter(spec, chain, obs)
    assert stacked.estimates.shape == (5, 10, 1)
    assert stacked.log_norms.shape == (5, 10)
    for b in range(5):
        single = gf.run_grid_filter(spec, chain, obs[b])
        np.testing.assert_allclose(stacked.estimates[b], single.estimates,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(stacked.log_norms[b], single.log_norms,
                                   rtol=0, atol=1e-12)


def test_stacked_run_matches_path_sum_column_by_column():
    rng = np.random.default_rng(7)
    for trial in range(10):
        a = int(rng.integers(2, 5))
        horizon = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        spec = interval_spec(n=n)
        chain = random_chain(gf.Grid(spec.space, a), rng)
        obs = np.stack([gf.simulate(spec, horizon, seed=10 * trial + b).observations
                        for b in range(3)])
        stacked = gf.run_grid_filter(spec, chain, obs)
        for b in range(3):
            single = gf.run_grid_filter(spec, chain, obs[b])
            np.testing.assert_allclose(stacked.estimates[b], single.estimates,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(stacked.log_norms[b], single.log_norms,
                                       rtol=0, atol=1e-12)
            oracle = gf.path_sum_oracle(spec, chain, obs[b])
            rel = (np.abs(stacked.estimates[b] - oracle)
                   / np.maximum(np.abs(oracle), 1e-30))
            assert rel.max() < 1e-9, f"trial {trial}, column {b}: {rel.max():.3e}"


def test_stack_of_one_is_bit_identical_to_single_run():
    spec = interval_spec()
    chain = gf.build_chain(spec, gf.Grid(spec.space, 64), "quadrature")
    obs = gf.simulate(spec, 15, seed=2).observations
    single = gf.run_grid_filter(spec, chain, obs)
    stacked = gf.run_grid_filter(spec, chain, obs[None])
    assert np.array_equal(stacked.estimates[0], single.estimates)
    assert np.array_equal(stacked.log_norms[0], single.log_norms)


def last_state(spec, chain, obs):
    """The state ``filter_steps`` yields after its last step."""
    *_, state = gf.filter_steps(spec, chain, obs)
    return state


def test_vanished_column_is_named():
    spec = interval_spec(n=1)
    chain = gf.build_chain(spec, gf.Grid(spec.space, 4), "quadrature")
    state = last_state(spec, chain, np.zeros((3, 2, 1)))
    state.weights[1] = 0.0  # total mass loss in trajectory 1 only
    with pytest.raises(gf.DegenerateUpdateError, match=r"t=2 in trajectory b=1"):
        gf.grid_filter_step(chain, spec, state, np.zeros((3, 1)))


def test_non_finite_observation_is_a_domain_error():
    spec = interval_spec()
    chain = gf.build_chain(spec, gf.Grid(spec.space, 4), "quadrature")
    obs = np.zeros((3, 5, 2))
    obs[2, 3, 1] = np.nan
    with pytest.raises(gf.DomainError, match=r"t=3 in trajectory b=2"):
        gf.run_grid_filter(spec, chain, obs)
    with pytest.raises(gf.DomainError, match=r"t=1 in trajectory b=0"):
        gf.run_grid_filter(spec, chain, np.array([[0.0, 0.0], [np.inf, 0.0]]))


def test_wrong_observation_length_is_a_domain_error():
    spec = interval_spec(n=2)
    chain = gf.build_chain(spec, gf.Grid(spec.space, 4), "quadrature")
    with pytest.raises(gf.DomainError, match="3 components.*N=2"):
        gf.run_grid_filter(spec, chain, np.zeros((5, 3)))
    with pytest.raises(gf.DomainError, match="N=2"):
        gf.run_grid_filter(spec, chain, np.zeros((2, 5, 1)))
    with pytest.raises(gf.DomainError, match=r"\(B, T\+1, N\)"):
        gf.run_grid_filter(spec, chain, np.zeros((2, 2, 5, 2)))


def test_chain_on_another_box_is_a_domain_error():
    spec = interval_spec(lower=5.0, upper=9.0)
    other = interval_spec(lower=0.0, upper=1.0)
    chain = gf.build_chain(other, gf.Grid(other.space, 4), "quadrature")
    obs = gf.simulate(spec, 3, seed=0).observations
    with pytest.raises(gf.DomainError, match="box"):
        gf.run_grid_filter(spec, chain, obs)


def test_exact_filter_stack_matches_single_runs():
    fspec = gf.build_model("finite_chain", n_states=6, kind="sticky", seed=1)
    obs = np.stack([gf.simulate(fspec, 7, seed=s).observations for s in range(4)])
    stacked = gf.exact_forward_filter(fspec, obs)
    for b in range(4):
        np.testing.assert_allclose(stacked[b], gf.exact_forward_filter(fspec, obs[b]),
                                   rtol=0, atol=1e-12)


# Property tests on random injected chains: B <= 4 trajectories, K <= 6
# cells, horizon T <= 4.

def random_stack(b, k, horizon, seed):
    spec = interval_spec()
    rng = gf.make_rng(seed)
    chain = random_chain(gf.Grid(spec.space, k), rng)
    return spec, chain, 1.5 * rng.standard_normal((b, horizon + 1, spec.obs.n))


stacks = st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(0, 4),
                   st.integers(0, 2**16))


@settings(max_examples=40, deadline=None)
@given(stacks, st.randoms(use_true_random=False))
def test_permuting_a_stack_permutes_its_estimates(case, random):
    spec, chain, obs = random_stack(*case)
    perm = list(range(len(obs)))
    random.shuffle(perm)
    res = gf.run_grid_filter(spec, chain, obs)
    shuffled = gf.run_grid_filter(spec, chain, obs[perm])
    assert np.array_equal(shuffled.estimates, res.estimates[perm])
    assert np.array_equal(shuffled.log_norms, res.log_norms[perm])


@settings(max_examples=40, deadline=None)
@given(stacks)
def test_estimates_stay_inside_the_grid_centers(case):
    spec, chain, obs = random_stack(*case)
    centers = chain.grid.centers
    est = gf.run_grid_filter(spec, chain, obs).estimates
    assert np.all(est >= centers.min(axis=0)) and np.all(est <= centers.max(axis=0))


@settings(max_examples=40, deadline=None)
@given(stacks)
def test_log_norm_increments_are_the_step_normalizers(case):
    spec, chain, obs = random_stack(*case)
    log_norms = gf.run_grid_filter(spec, chain, obs).log_norms
    log_weights = np.log(chain.initial)
    for t in range(obs.shape[1]):
        if t > 0:
            log_weights = np.log(np.exp(log_weights) @ chain.transition)
        unnormalized = log_weights + gf.log_lambda_hat_at_points(
            spec, t, chain.grid.centers, obs[:, t])
        increment = _logsumexp(unnormalized)
        previous = log_norms[:, t - 1] if t > 0 else 0.0
        assert np.allclose(log_norms[:, t] - previous, increment, rtol=0, atol=1e-12)
        log_weights = unnormalized - increment[:, None]


# Chains with an offset profile predict every trajectory by one batched FFT,
# certified per row against the step's likelihood, with the direct sum as the
# fallback; the dense product stays the oracle.
# The walk is random: box [lower, lower + width] in K cells, step sigma of
# 10^log_sigma cell widths.

def walk(lower, width, log_sigma, k, n=2):
    spec = gf.build_model("gauss_walk", lower=lower, upper=lower + width,
                          step_sigma=width / k * 10.0**log_sigma, n=n)
    chain = gf.build_chain(spec, gf.Grid(spec.space, k), "quadrature")
    assert chain.profile is not None
    return spec, chain


boxes = (st.floats(-5.0, 5.0), st.floats(0.1, 10.0), st.floats(-0.7, 3.5))


def assert_runs_agree(a, b, index=()):
    for field in ("estimates", "log_norms"):
        np.testing.assert_allclose(getattr(a, field), getattr(b, field)[index],
                                   rtol=1e-12, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(*boxes, st.integers(0, 2**16))
def test_profile_run_matches_dense_run(lower, width, log_sigma, seed):
    spec, chain = walk(lower, width, log_sigma, 512)
    obs = gf.simulate(spec, 200, seed=seed).observations
    dense = gf.QuantizedChain(chain.grid, chain.transition, chain.initial)
    assert_runs_agree(gf.run_grid_filter(spec, chain, obs),
                      gf.run_grid_filter(spec, dense, obs))


@settings(max_examples=25, deadline=None)
@given(*boxes, st.integers(1, 300), st.integers(0, 2**16))
def test_single_profile_run_matches_a_stack_of_two(lower, width, log_sigma, k, seed):
    spec, chain = walk(lower, width, log_sigma, k)
    obs = gf.simulate(spec, 200, seed=seed).observations
    single = gf.run_grid_filter(spec, chain, obs)
    stacked = gf.run_grid_filter(spec, chain, np.stack([obs, obs]))
    for b in range(2):
        assert_runs_agree(single, stacked, b)


@settings(max_examples=40, deadline=None)
@given(*boxes, st.integers(1, 8), st.integers(0, 4), st.integers(0, 2**16))
def test_profile_run_matches_path_sum(lower, width, log_sigma, k, horizon, seed):
    spec, chain = walk(lower, width, log_sigma, k, n=1)
    obs = gf.simulate(spec, horizon, seed=seed).observations
    est = gf.run_grid_filter(spec, chain, obs).estimates
    oracle = gf.path_sum_oracle(spec, chain, obs)
    np.testing.assert_allclose(est, oracle, rtol=1e-12, atol=0)


def test_state_of_another_length_is_a_domain_error():
    spec = interval_spec()
    chain = gf.build_chain(spec, gf.Grid(spec.space, 8), "quadrature")
    other = gf.build_chain(spec, gf.Grid(spec.space, 6), "quadrature")
    state = last_state(spec, other, np.zeros((1, 2)))
    with pytest.raises(gf.DomainError, match="length 6 .*K=8"):
        gf.grid_filter_step(chain, spec, state, np.zeros(2))


def test_profile_chain_filters_without_its_dense_matrix():
    # one dense K x K matrix at K = 4096 takes 128 MiB
    spec = gf.build_model("gauss_walk")
    _, obs = gf.simulate_batch(spec, 20, 4, seed=0)
    tracemalloc.start()
    try:
        chain = gf.build_chain(spec, gf.Grid(spec.space, 4096), "quadrature")
        gf.run_grid_filter(spec, chain, obs)
        gf.run_grid_filter(spec, chain, obs[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_run_records_the_prediction_certificates():
    spec, chain = walk(0.0, 1.0, 0.5, 256)
    _, obs = gf.simulate_batch(spec, 12, 3, seed=4)
    stacked = gf.run_grid_filter(spec, chain, obs)
    single = gf.run_grid_filter(spec, chain, obs[0])
    assert stacked.predict_tau.shape == (3, 13) and single.predict_tau.shape == (13,)
    assert np.all(stacked.predict_tau[:, 0] == 0.0) and single.predict_tau[0] == 0.0
    assert np.all(stacked.predict_tau[:, 1:] > 0.0)
    assert np.array_equal(last_state(spec, chain, obs).predict_tau, stacked.predict_tau[:, -1])
    # a matrix chain's product carries no certificate
    dense = gf.QuantizedChain(chain.grid, chain.transition, chain.initial)
    assert np.all(gf.run_grid_filter(spec, dense, obs).predict_tau == 0.0)


def test_outlier_observation_falls_back_and_matches_the_dense_run():
    # an outlier drives the posterior to the edge of the box, where the next
    # prediction's FFT error swamps the mass the likelihood weighs
    spec, chain = walk(0.0, 1.0, 0.5, 512)
    obs = gf.simulate(spec, 10, seed=0).observations
    obs[5] = 100.0
    run = gf.run_grid_filter(spec, chain, obs)
    assert np.sum(run.predict_tau > 1e-13) >= 1
    dense = gf.QuantizedChain(chain.grid, chain.transition, chain.initial)
    assert_runs_agree(run, gf.run_grid_filter(spec, dense, obs))


@pytest.fixture(scope="module")
def k2048():
    spec = gf.build_model("gauss_walk", n=2, beta=0.25, step_sigma=0.15)
    chain = gf.build_chain(spec, gf.Grid(spec.space, 2048), "quadrature")
    _, obs = gf.simulate_batch(spec, 20, 5, seed=1)
    obs[2, 8] = 100.0  # one trajectory takes the fallback
    return spec, chain, obs


def test_stack_of_one_is_bit_identical_to_the_single_run(k2048):
    spec, chain, obs = k2048
    for b in (0, 2):
        single = gf.run_grid_filter(spec, chain, obs[b])
        one = gf.run_grid_filter(spec, chain, obs[b:b + 1])
        for field in ("estimates", "log_norms", "predict_tau"):
            assert np.array_equal(getattr(one, field)[0], getattr(single, field))


def test_permuted_stack_predicts_bit_identically(k2048):
    spec, chain, obs = k2048
    perm = [2, 0, 4, 3, 1]
    run = gf.run_grid_filter(spec, chain, obs)
    permuted = gf.run_grid_filter(spec, chain, obs[perm])
    assert np.any(run.predict_tau[2] > 1e-13) and np.all(run.predict_tau[0] <= 1e-13)
    for field in ("estimates", "log_norms", "predict_tau"):
        assert np.array_equal(getattr(permuted, field), getattr(run, field)[perm])
    assert np.array_equal(last_state(spec, chain, obs[perm]).weights,
                          last_state(spec, chain, obs).weights[perm])


def assert_rows_equal_single_runs(spec, chain, obs):
    """Each row of the stacked run on ``obs`` equals its single run bit for
    bit; returns the stacked run."""
    stacked = gf.run_grid_filter(spec, chain, obs)
    weights = last_state(spec, chain, obs).weights
    for b in range(len(obs)):
        single = gf.run_grid_filter(spec, chain, obs[b])
        for field in ("estimates", "log_norms", "predict_tau"):
            assert np.array_equal(getattr(stacked, field)[b], getattr(single, field))
        assert np.array_equal(weights[b], last_state(spec, chain, obs[b]).weights)
    return stacked


def test_every_row_of_a_stack_equals_its_single_run(k2048):
    assert_rows_equal_single_runs(*k2048)


def test_a_stack_wider_than_one_fft_slice_equals_its_single_runs(k2048):
    spec, chain, _ = k2048
    _, obs = gf.simulate_batch(spec, 20, 9, seed=2)
    obs[8, 8] = 100.0  # the one row of the short last slice takes the fallback
    assert _FFT_SLICE // chain._spectrum[1] == 4  # slices of 4 + 4 + 1 rows
    stacked = assert_rows_equal_single_runs(spec, chain, obs)
    assert np.any(stacked.predict_tau[8] > 1e-13)


def test_a_stack_with_a_short_last_slice_equals_its_single_runs_at_k4096():
    spec = gf.build_model("gauss_walk", n=2, beta=0.25, step_sigma=0.15)
    chain = gf.build_chain(spec, gf.Grid(spec.space, 4096), "quadrature")
    _, obs = gf.simulate_batch(spec, 20, 5, seed=2)
    obs[4, 8] = 100.0
    assert _FFT_SLICE // chain._spectrum[1] == 2  # slices of 2 + 2 + 1 rows
    stacked = assert_rows_equal_single_runs(spec, chain, obs)
    assert np.any(stacked.predict_tau[4] > 1e-13)


def assert_steps_equal_the_run(spec, chain, obs):
    """Each state ``filter_steps`` yields equals the step folded over the
    whole stack, and the states, copied and collected, equal
    ``run_grid_filter``, all bit for bit."""
    run = gf.run_grid_filter(spec, chain, obs)
    folded = gf.initial_filter_state(chain)
    workspace = gf.QuadFormWorkspace(spec, chain.grid.centers)
    collected = {"estimates": [], "log_norms": [], "predict_tau": []}
    for state in gf.filter_steps(spec, chain, obs):
        folded = gf.grid_filter_step(chain, spec, folded, obs[..., state.t, :], workspace)
        for field in ("weights", "estimate", "log_norm", "predict_tau"):
            assert np.array_equal(getattr(state, field), getattr(folded, field)), field
        for values, value in zip(collected.values(),
                                 (state.estimate, state.log_norm, state.predict_tau)):
            values.append(np.copy(value))
    assert state.t == obs.shape[-2] - 1
    for field, values in collected.items():
        assert np.array_equal(np.stack(values, axis=obs.ndim - 2), getattr(run, field))


@pytest.mark.parametrize("dense", [False, True], ids=["profile", "matrix"])
def test_run_equals_the_step_folded_over_the_whole_stack(dense):
    # a matrix chain's stack is one slice, so its rows keep the bits of one
    # product per step; a profile chain's rows equal them in any slice
    spec, chain = walk(0.0, 1.0, 0.5, 1024)
    if dense:
        chain = gf.QuantizedChain(chain.grid, chain.transition, chain.initial)
    _, obs = gf.simulate_batch(spec, 12, 11, seed=5)
    assert_steps_equal_the_run(spec, chain, obs)
    assert_steps_equal_the_run(spec, chain, obs[3])


def test_a_vanished_row_is_named_by_its_place_in_the_whole_stack(k2048):
    spec, chain, _ = k2048
    _, obs = gf.simulate_batch(spec, 6, 9, seed=0)
    # at obs_scale 0.05 the quadratic form overflows to -inf at every cell
    # for an entry of 1e153, below the 1.34e154 the run refuses; row 1 of
    # the second slice
    spec = dataclasses.replace(spec, obs=dataclasses.replace(spec.obs, obs_scale=0.05))
    obs[5, 3] = 1e153
    with np.errstate(over="ignore"), pytest.raises(
            gf.DegenerateUpdateError, match=r"t=3 in trajectory b=5; max log-likelihood was -inf"):
        gf.run_grid_filter(spec, chain, obs)


def test_a_time_varying_likelihood_is_built_once_per_step(monkeypatch, k2048):
    spec, chain, _ = k2048
    spec = dataclasses.replace(spec, obs=dataclasses.replace(spec.obs, stationary=False))
    _, obs = gf.simulate_batch(spec, 6, 9, seed=0)
    built = []
    compute = gf.QuadFormWorkspace._compute
    monkeypatch.setattr(gf.QuadFormWorkspace, "_compute",
                        lambda self, t: built.append(t) or compute(self, t))
    gf.run_grid_filter(spec, chain, obs)
    assert built == list(range(7))  # not once per slice of rows


def test_stack_filter_peak_memory_stays_near_a_few_stacks(k2048):
    # (24, 2048) floats take 0.375 MiB.  The run holds one (24, 2048) array
    # of weights and, per slice of 4 rows, a few (4, 2048) arrays and one
    # slice's FFT buffers.  Measured 1.07 MiB (numpy 2.4, x86-64); 2.17 MiB
    # with the whole stack in every step, so only row slices meet it.
    spec, chain, _ = k2048
    _, obs = gf.simulate_batch(spec, 20, 24, seed=3)
    gf.run_grid_filter(spec, chain, obs)
    tracemalloc.start()
    try:
        gf.run_grid_filter(spec, chain, obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_one_run_transforms_every_slice_in_the_same_two_buffers(monkeypatch, k2048):
    # slices of 4 + 4 + 1 rows; the short one writes into the first row
    spec, chain, _ = k2048
    _, obs = gf.simulate_batch(spec, 6, 9, seed=0)
    chain._spectrum  # the profile's own transform is not the run's
    outs = {"rfft": [], "irfft": []}
    for name, calls in outs.items():
        def spy(*args, out=None, _transform=getattr(np.fft, name), _calls=calls, **kwargs):
            _calls.append(out)
            return _transform(*args, out=out, **kwargs)
        monkeypatch.setattr(np.fft, name, spy)
    gf.run_grid_filter(spec, chain, obs)
    monkeypatch.undo()
    buffers = []
    for name, calls in outs.items():
        assert all(out is not None for out in calls), name
        assert [len(out) for out in calls] == [4, 4, 1] * 6, name
        buffers.append(calls[0].base)
        assert buffers[-1] is not None and all(out.base is buffers[-1] for out in calls), name
    assert buffers[0].shape == (4, 2049) and buffers[1].shape == (4, 4096)
    held = [v for value in vars(chain).values()
            for v in (value if isinstance(value, tuple) else (value,))]
    assert not any(np.shares_memory(buffer, v) for buffer in buffers
                   for v in held if isinstance(v, np.ndarray))


def test_collected_steps_equal_the_run_on_a_stack_of_three_slices(k2048):
    spec, chain, _ = k2048
    _, obs = gf.simulate_batch(spec, 20, 9, seed=2)
    obs[8, 8] = 100.0  # the one row of the short last slice takes the fallback
    assert _FFT_SLICE // chain._spectrum[1] == 4  # slices of 4 + 4 + 1 rows
    assert_steps_equal_the_run(spec, chain, obs)
    assert_steps_equal_the_run(spec, chain, obs[8])
    assert np.any(gf.run_grid_filter(spec, chain, obs[8]).predict_tau > 1e-13)


def test_zipped_iterators_at_two_resolutions_each_give_their_own_run():
    # slices of 32 rows at K = 256 and of 8 + 3 at K = 1024
    runs = []
    for k in (256, 1024):
        spec, chain = walk(0.0, 1.0, 0.5, k)
        runs.append((spec, chain, gf.simulate_batch(spec, 12, 11, seed=k)[1]))
    results = [gf.run_grid_filter(*run) for run in runs]
    finals = [last_state(*run).weights.copy() for run in runs]
    for states in zip(*(gf.filter_steps(*run) for run in runs)):
        for state, result in zip(states, results):
            assert np.array_equal(state.estimate, result.estimates[:, state.t])
            assert np.array_equal(state.log_norm, result.log_norms[:, state.t])
            assert np.array_equal(state.predict_tau, result.predict_tau[:, state.t])
    for state, weights in zip(states, finals):
        assert np.array_equal(state.weights, weights)


@pytest.mark.parametrize("stack", [True, False], ids=["stack", "single"])
def test_every_step_yields_the_same_arrays(k2048, stack):
    spec, chain, obs = k2048
    states = list(gf.filter_steps(spec, chain, obs if stack else obs[0]))
    assert [state.t for state in states] == list(range(21))
    for field in ("weights", "estimate", "log_norm", "predict_tau"):
        arrays = [getattr(state, field) for state in states]
        assert isinstance(arrays[0], np.ndarray)
        assert all(array is arrays[0] for array in arrays), field


@pytest.mark.parametrize("dense", [False, True], ids=["profile", "matrix"])
def test_step_writes_into_no_array_of_its_caller(dense):
    spec, chain = walk(0.0, 1.0, 0.5, 64)
    if dense:
        chain = gf.QuantizedChain(chain.grid, chain.transition, chain.initial)
    _, obs = gf.simulate_batch(spec, 1, 3, seed=0)
    initial = chain.initial.copy()
    stack = np.full((3, 64), 1.0 / 64)
    for t, weights, y in [(-1, chain.initial, obs[0, 0]), (-1, chain.initial, obs[:, 0]),
                          (0, chain.initial, obs[:, 1]), (0, stack, obs[:, 1]),
                          (0, stack[0], obs[0, 1])]:
        before = weights.copy()
        state = gf.FilterState(t=t, weights=weights, estimate=np.zeros(1), log_norm=0.0)
        after = gf.grid_filter_step(chain, spec, state, y)
        assert np.array_equal(weights, before) and np.array_equal(chain.initial, initial)
        assert not np.shares_memory(after.weights, weights)


# The largest observation entry the filters take, sqrt(float max), and how
# they refuse one above it.
Y_MAX = 1.3407807929942596e154
OVERFLOW = re.escape("observation above 1.34e+154 in magnitude, whose square overflows, ")


def test_the_largest_accepted_entry_squares_without_overflow():
    assert filtering._Y_MAX == Y_MAX == np.sqrt(np.finfo(float).max)
    assert np.isfinite(Y_MAX * Y_MAX)
    with np.errstate(over="ignore"):
        assert np.isinf(np.nextafter(Y_MAX, np.inf) ** 2)


def with_observation(t, value, steps=4, n=1):
    obs = np.zeros((steps, n))
    obs[t, 0] = value
    return obs


def finite_chain_stuck_at_first_state():
    """``finite_chain`` on 4 states whose path never leaves state 0."""
    spec = gf.build_model("finite_chain", n_states=4)
    kernel = gf.FiniteStateKernel(spec.kernel.states, np.eye(4), [1.0, 0.0, 0.0, 0.0])
    return dataclasses.replace(spec, kernel=kernel)


def oracle_on_unit_interval(obs, lower=0.0, upper=1.0):
    spec = interval_spec(lower=0.0, upper=1.0, n=1)
    chain_spec = interval_spec(lower=lower, upper=upper, n=1)
    chain = gf.build_chain(chain_spec, gf.Grid(chain_spec.space, 4), "quadrature")
    return lambda: gf.path_sum_oracle(spec, chain, obs)


def oracle_stuck_at_first_cell(obs):
    """The oracle on a chain that never leaves its first cell, at obs_scale
    0.01, where an entry of 1e153 overflows the quadratic form to -inf."""
    spec = gf.build_model("gauss_walk", lower=0.5, upper=2.5, n=1, obs_scale=0.01)
    chain = gf.QuantizedChain(gf.Grid(spec.space, 2), np.eye(2), [1.0, 0.0],
                              build_method="injected")

    def run():
        with np.errstate(over="ignore"):
            return gf.path_sum_oracle(spec, chain, obs)
    return run


def step_to_t1_on_unit_interval(y, lower=0.0, upper=1.0, weights=np.full(4, 0.25)):
    """One ``grid_filter_step`` from t=0 on a [0, 1] model with N=2, through
    a chain built on [lower, upper] with K=4."""
    spec = interval_spec(lower=0.0, upper=1.0)
    chain_spec = spec if (lower, upper) == (0.0, 1.0) else interval_spec(lower, upper)
    chain = gf.build_chain(chain_spec, gf.Grid(chain_spec.space, 4), "quadrature")
    state = gf.FilterState(t=0, weights=weights, estimate=np.zeros(1), log_norm=0.0)
    return lambda: gf.grid_filter_step(chain, spec, state, np.array(y))


@pytest.mark.parametrize("make, error, message", [
    (oracle_on_unit_interval(with_observation(1, np.nan)), gf.DomainError,
     r"non-finite observation at t=1 in trajectory b=0"),
    (oracle_on_unit_interval(with_observation(2, np.inf)), gf.DomainError,
     r"non-finite observation at t=2 in trajectory b=0"),
    (oracle_on_unit_interval(np.zeros((2, 3, 1))), gf.DomainError,
     r"the oracle takes one trajectory \(T\+1, N\), not \(2, 3, 1\)"),
    (oracle_on_unit_interval(np.zeros((3, 1)), lower=0.5, upper=2.5), gf.DomainError,
     r"chain was built on the box \[\[0.5\], \[2.5\]\], the model's box is \[\[0.\], \[1.\]\]"),
    (lambda: gf.exact_forward_filter(gf.build_model("finite_chain"),
                                     with_observation(1, np.nan)),
     gf.DomainError, r"non-finite observation at t=1 in trajectory b=0"),
    (lambda: gf.exact_forward_filter(gf.build_model("finite_chain"),
                                     np.stack([np.zeros((4, 1)), with_observation(2, -np.inf)])),
     gf.DomainError, r"non-finite observation at t=2 in trajectory b=1"),
    (lambda: gf.exact_forward_filter(gf.build_model("finite_chain"), np.zeros((4, 2))),
     gf.DomainError, "2 components, the model expects N=1"),
    (lambda: gf.grid_filter_step(
        gf.build_chain(interval_spec(), gf.Grid(interval_spec().space, 2)), interval_spec(),
        gf.FilterState(t=-2, weights=np.full(2, 0.5), estimate=np.zeros(1), log_norm=0.0),
        np.zeros(2)),
     ValueError, r"state.t must be >= -1"),
    (oracle_stuck_at_first_cell(with_observation(1, 1e153)), gf.DegenerateUpdateError,
     "all path weights vanished at t=1"),
    (lambda: gf.exact_forward_filter(finite_chain_stuck_at_first_state(),
                                     with_observation(1, 1e4)),
     gf.DegenerateUpdateError, "forward weights vanished at t=1 in trajectory b=0"),
    (lambda: gf.exact_forward_filter(finite_chain_stuck_at_first_state(),
                                     np.stack([np.zeros((4, 1)), with_observation(2, 1e4)])),
     gf.DegenerateUpdateError, "forward weights vanished at t=2 in trajectory b=1"),
    (lambda: gf.run_grid_filter(interval_spec(), gf.build_chain(
        interval_spec(), gf.Grid(interval_spec().space, 4)), np.stack(
            [np.zeros((4, 2)), with_observation(2, 1e200, n=2)])),
     gf.DomainError, OVERFLOW + r"at t=2 in trajectory b=1: \[1.e\+200 0.e\+000\]"),
    (oracle_on_unit_interval(with_observation(3, -1e200)), gf.DomainError,
     OVERFLOW + "at t=3 in trajectory b=0"),
    (lambda: gf.exact_forward_filter(gf.build_model("finite_chain"),
                                     np.stack([np.zeros((4, 1)), with_observation(1, 1e200)])),
     gf.DomainError, OVERFLOW + "at t=1 in trajectory b=1"),
    (step_to_t1_on_unit_interval([[0.0, 0.0], [0.0, np.nextafter(Y_MAX, np.inf)]]),
     gf.DomainError, OVERFLOW + "at t=1 in trajectory b=1"),
    (step_to_t1_on_unit_interval([np.nan, 0.0]), gf.DomainError,
     r"non-finite observation at t=1 in trajectory b=0: \[nan  0.\]"),
    (step_to_t1_on_unit_interval([np.inf, 0.0]), gf.DomainError,
     r"non-finite observation at t=1 in trajectory b=0: \[inf  0.\]"),
    (step_to_t1_on_unit_interval([[0.0, 0.0], [0.0, -np.inf]]), gf.DomainError,
     r"non-finite observation at t=1 in trajectory b=1"),
    (step_to_t1_on_unit_interval([0.0, 0.0], lower=0.5, upper=2.5), gf.DomainError,
     r"chain was built on the box \[\[0.5\], \[2.5\]\], the model's box is \[\[0.\], \[1.\]\]"),
    (step_to_t1_on_unit_interval(np.zeros((2, 2, 2))), gf.DomainError,
     r"y must be \(N,\) or \(B, N\), not \(2, 2, 2\)"),
    (step_to_t1_on_unit_interval([0.0, 0.0, 0.0]), gf.DomainError,
     r"observation at t=1 in trajectory b=0 has 3 components, the model expects N=2"),
    (step_to_t1_on_unit_interval(np.zeros((4, 2)), weights=np.full((3, 4), 0.25)),
     gf.DomainError, r"the state holds a stack of 3 trajectories and y one of 4 at t=1"),
    (lambda: gf.run_grid_filter(interval_spec(), gf.build_chain(
        interval_spec(), gf.Grid(interval_spec().space, 4)), np.empty((0, 4, 2))),
     gf.DomainError, re.escape("observations of shape (0, 4, 2) hold no trajectory (B = 0)")),
    (lambda: gf.exact_forward_filter(gf.build_model("finite_chain"), np.empty((0, 4, 1))),
     gf.DomainError, re.escape("observations of shape (0, 4, 1) hold no trajectory (B = 0)")),
    (step_to_t1_on_unit_interval(np.empty((0, 2))), gf.DomainError,
     re.escape("observations of shape (0, 1, 2) hold no trajectory (B = 0)")),
    # the iterator refuses when it is called, before any next()
    (lambda: gf.filter_steps(interval_spec(), gf.build_chain(
        interval_spec(), gf.Grid(interval_spec().space, 4)), np.stack(
            [np.zeros((4, 2)), with_observation(3, np.nan, n=2)])),
     gf.DomainError, r"non-finite observation at t=3 in trajectory b=1"),
    (lambda: gf.filter_steps(interval_spec(), gf.build_chain(
        interval_spec(0.0, 1.0), gf.Grid(interval_spec(0.0, 1.0).space, 4)), np.zeros((3, 2))),
     gf.DomainError, r"chain was built on the box \[\[0.\], \[1.\]\]"),
], ids=["oracle_nan", "oracle_inf", "oracle_stack", "oracle_other_box", "exact_nan", "exact_inf",
        "exact_components", "step_before_start", "oracle_weights_vanish",
        "exact_weights_vanish", "exact_stack_weights_vanish", "run_overflow",
        "oracle_overflow", "exact_overflow", "step_overflow", "step_nan", "step_inf",
        "step_stack_inf", "step_other_box", "step_rank3", "step_components",
        "step_stack_sizes", "run_no_trajectory", "exact_no_trajectory",
        "step_no_trajectory", "steps_nan_at_call", "steps_other_box_at_call"])
@pytest.mark.filterwarnings("error")
def test_filtering_refusals(make, error, message):
    with pytest.raises(error, match=message):
        make()
