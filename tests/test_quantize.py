import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridfilter as gf


def unit_interval_grid(a):
    space = gf.StateSpace(lower=np.array([0.0]), upper=np.array([1.0]))
    return gf.Grid(space, a)


def test_frozen_cell_indices_and_centers():
    grid = unit_interval_grid(4)
    # cells [0,.25) [.25,.5) [.5,.75) [.75,1]; centers .125 .375 .625 .875
    assert gf.quantize_point(grid, np.array([0.3])) == 1
    assert grid.centers[1, 0] == pytest.approx(0.375)
    assert gf.quantize_point(grid, np.array([0.25])) == 1
    assert gf.quantize_point(grid, np.array([0.0])) == 0
    # upper box face folds into the last cell
    assert gf.quantize_point(grid, np.array([1.0])) == 3
    assert grid.centers[3, 0] == pytest.approx(0.875)


def test_single_cell_grid():
    grid = unit_interval_grid(1)
    assert grid.total_points == 1
    for v in (0.0, 0.37, 1.0):
        assert gf.quantize_point(grid, np.array([v])) == 0
    assert grid.centers[0, 0] == pytest.approx(0.5)


def test_out_of_box_point_is_rejected():
    grid = unit_interval_grid(4)
    with pytest.raises(gf.DomainError):
        gf.quantize_point(grid, np.array([-0.01]))
    with pytest.raises(gf.DomainError):
        gf.quantize_point(grid, np.array([1.01]))


def test_two_dim_row_major_indexing():
    space = gf.StateSpace(lower=np.array([0.0, 0.0]), upper=np.array([1.0, 1.0]))
    grid = gf.Grid(space, (2, 3))
    assert grid.total_points == 6
    # point in cell (row 1, col 2) -> linear index 1*3 + 2
    idx = gf.quantize_point(grid, np.array([0.9, 0.9]))
    assert idx == 5
    assert np.allclose(grid.centers[5], [0.75, 5.0 / 6.0])


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 1.0, allow_nan=False))
def test_quantize_center_roundtrip(a, v):
    grid = unit_interval_grid(a)
    idx = gf.quantize_point(grid, np.array([v]))
    center = grid.centers[idx]
    assert abs(center[0] - v) <= grid.half_cell_l1 + 1e-12
    assert gf.quantize_point(grid, center) == idx


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6))
def test_centers_round_trip_to_their_own_cells(a0, a1):
    space = gf.StateSpace(lower=np.array([-1.0, 0.5]), upper=np.array([2.0, 3.5]))
    grid = gf.Grid(space, (a0, a1))
    idx = gf.quantize_points(grid, grid.centers)
    assert np.array_equal(idx, np.arange(grid.total_points))


def test_identity_kernel_gives_identity_chain():
    # sampler that returns its input: every row must be a point mass on itself
    space = gf.StateSpace(lower=np.array([0.0]), upper=np.array([1.0]))
    kernel = gf.TransitionKernel(
        sampler=lambda t, x, rng: x,
        initial_sampler=lambda rng, size: rng.uniform(0.0, 1.0, size=(size, 1)))
    obs = gf.ObservationModel(n=1, mean_fn=lambda t, x: np.zeros((len(x), 1)),
                              cov_fn=lambda t, x: np.ones((len(x), 1, 1)), sigma_xi_sq=1.0)
    constants = gf.AssumptionConstants(lambda_inf=2.0, lambda_sup=2.0,
                                       mu_sup=0.0, k_mu=0.0, k_sigma=0.0)
    spec = gf.SystemSpec(space=space, kernel=kernel, obs=obs, constants=constants)
    chain = gf.build_chain(spec, gf.Grid(space, 5), "monte_carlo", seed=0,
                           n_samples=2000)
    assert np.allclose(chain.transition, np.eye(5))


def test_uniform_kernel_rows_are_flat():
    space = gf.StateSpace(lower=np.array([0.0]), upper=np.array([1.0]))
    kernel = gf.TransitionKernel(
        sampler=lambda t, x, rng: rng.uniform(0.0, 1.0, size=x.shape),
        initial_sampler=lambda rng, size: rng.uniform(0.0, 1.0, size=(size, 1)))
    obs = gf.ObservationModel(n=1, mean_fn=lambda t, x: np.zeros((len(x), 1)),
                              cov_fn=lambda t, x: np.ones((len(x), 1, 1)), sigma_xi_sq=1.0)
    constants = gf.AssumptionConstants(lambda_inf=2.0, lambda_sup=2.0,
                                       mu_sup=0.0, k_mu=0.0, k_sigma=0.0)
    spec = gf.SystemSpec(space=space, kernel=kernel, obs=obs, constants=constants)
    a, n = 4, 40_000
    chain = gf.build_chain(spec, gf.Grid(space, a), "monte_carlo", seed=1,
                           n_samples=n)
    p = 1.0 / a
    se = np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(chain.transition - p) < 3 * np.sqrt(a) * se)


def test_quadrature_and_monte_carlo_chains_agree():
    spec = gf.build_model("gauss_walk")
    grid = gf.Grid(spec.space, 8)
    cq = gf.build_chain(spec, grid, "quadrature")
    cm = gf.build_chain(spec, grid, "monte_carlo", seed=3, n_samples=1_000_000)
    assert np.max(np.abs(cq.transition - cm.transition)) < 0.005
    assert np.max(np.abs(cq.initial - cm.initial)) < 0.005
    assert cq.build_method == "quadrature"
    assert cm.build_method == "monte_carlo(1000000)"


def test_chain_rows_are_distributions():
    spec = gf.build_model("gauss_walk")
    chain = gf.build_chain(spec, gf.Grid(spec.space, 16), "quadrature")
    assert np.all(chain.transition >= 0.0)
    assert np.allclose(chain.transition.sum(axis=1), 1.0, atol=1e-12)
    assert chain.initial.sum() == pytest.approx(1.0, abs=1e-12)


def test_chain_validation_names_offending_row():
    grid = unit_interval_grid(2)
    bad = np.array([[0.7, 0.7], [0.5, 0.5]])
    with pytest.raises(gf.ChainConstructionError, match="row 0"):
        gf.QuantizedChain(grid, bad, np.array([0.5, 0.5]))
    with pytest.raises(gf.ChainConstructionError):
        gf.QuantizedChain(grid, np.array([[0.5, 0.5], [0.5, 0.5]]),
                          np.array([0.9, 0.2]))


def test_second_order_kernel_is_refused():
    spec = gf.build_model("gauss_walk")
    k2 = gf.TransitionKernel(sampler=spec.kernel.sampler,
                             initial_sampler=spec.kernel.initial_sampler,
                             density=spec.kernel.density,
                             initial_density=spec.kernel.initial_density,
                             order=2)
    spec2 = gf.SystemSpec(space=spec.space, kernel=k2, obs=spec.obs,
                          constants=spec.constants)
    with pytest.raises(gf.ChainConstructionError):
        gf.build_chain(spec2, gf.Grid(spec.space, 4), "quadrature")


def test_marginal_approximation_follows_trajectory():
    spec = gf.build_model("gauss_walk")
    traj = gf.simulate(spec, 25, seed=6)
    grid = gf.Grid(spec.space, 32)
    idx = gf.marginal_approximation(grid, traj)
    assert idx.shape == (traj.horizon + 1,)
    approx = grid.centers[idx]
    assert np.max(np.abs(approx - traj.states)) <= grid.half_cell_l1 + 1e-12


def test_cweak_diagnostic_bounded_for_lipschitz_function():
    spec = gf.build_model("gauss_walk")
    traj = gf.simulate(spec, 40, seed=2)
    grid = gf.Grid(spec.space, 16)
    dev = gf.cweak_diagnostic(grid, traj, lambda x: float(x[0]), modulus=1.0)
    assert dev <= grid.half_cell_l1 + 1e-12


def test_chain_round_trips_through_csv(tmp_path):
    spec = gf.build_model("gauss_walk")
    chain = gf.build_chain(spec, gf.Grid(spec.space, 6), "quadrature")
    path = tmp_path / "chain.csv"
    chain.to_csv(str(path))
    meta, header, data = gf.read_csv(str(path))
    assert meta["build_method"] == "quadrature"
    assert header == [f"p{j}" for j in range(6)]
    assert np.allclose(data, chain.transition)


def without_hook(spec, **kernel_changes):
    """The same spec with ``increment_density`` dropped (or replaced)."""
    kernel_changes.setdefault("increment_density", None)
    return dataclasses.replace(
        spec, kernel=dataclasses.replace(spec.kernel, **kernel_changes))


@pytest.mark.parametrize("a", [1, 2, 7, 64, 512])
def test_profile_chain_matches_per_row_chain(a):
    spec = gf.build_model("gauss_walk")
    grid = gf.Grid(spec.space, a)
    fast = gf.build_chain(spec, grid, "quadrature")
    rows = gf.build_chain(without_hook(spec), grid, "quadrature")
    assert np.all(np.abs(fast.transition - rows.transition) <= 1e-14 * rows.transition)
    assert np.array_equal(fast.initial, rows.initial)
    assert fast.build_method == rows.build_method == "quadrature"


def test_profile_chain_filters_like_per_row_chain():
    spec = gf.build_model("gauss_walk", lower=0.5, upper=2.5)
    grid = gf.Grid(spec.space, 48)
    obs = np.stack([gf.simulate(spec, 15, seed=s).observations for s in range(3)])
    fast = gf.run_grid_filter(spec, gf.build_chain(spec, grid), obs)
    rows = gf.run_grid_filter(spec, gf.build_chain(without_hook(spec), grid), obs)
    assert np.max(np.abs(fast.estimates - rows.estimates)) <= 1e-12
    assert np.allclose(fast.log_norms, rows.log_norms, rtol=1e-12, atol=1e-12)


def test_zero_increment_density_names_row_0():
    spec = without_hook(gf.build_model("gauss_walk"),
                        increment_density=lambda dx: np.zeros(len(dx)))
    with pytest.raises(gf.ChainConstructionError, match="row 0"):
        gf.build_chain(spec, gf.Grid(spec.space, 8), "quadrature")


def test_increment_density_on_two_dim_box_is_refused():
    space = gf.StateSpace(lower=np.zeros(2), upper=np.ones(2))
    kernel = gf.TransitionKernel(
        sampler=lambda t, x, rng: x,
        initial_sampler=lambda rng, size: rng.uniform(0.0, 1.0, size=(size, 2)),
        density=lambda t, x_prev, xs: np.ones(len(xs)),
        initial_density=lambda xs: np.ones(len(xs)),
        increment_density=lambda dx: np.ones(len(dx)))
    obs = gf.ObservationModel(n=1, mean_fn=lambda t, x: np.zeros((len(x), 1)),
                              cov_fn=lambda t, x: np.ones((len(x), 1, 1)), sigma_xi_sq=1.0)
    constants = gf.AssumptionConstants(lambda_inf=2.0, lambda_sup=2.0,
                                       mu_sup=0.0, k_mu=0.0, k_sigma=0.0)
    spec = gf.SystemSpec(space=space, kernel=kernel, obs=obs, constants=constants)
    with pytest.raises(gf.ChainConstructionError, match="M=2"):
        gf.build_chain(spec, gf.Grid(space, 3), "quadrature")
    # the row-by-row path still handles the same density on the same box
    chain = gf.build_chain(without_hook(spec), gf.Grid(space, 3), "quadrature")
    assert np.allclose(chain.transition, 1.0 / 9.0)
