import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [[np.nan, 0.2], [0.2, np.nan]])
def test_nan_point_is_rejected_by_name(bad):
    grid = gf.Grid(gf.StateSpace(lower=np.zeros(2), upper=np.ones(2)), 3)
    with pytest.raises(gf.DomainError, match=r"point \[.*nan.*\] outside the box"):
        gf.quantize_points(grid, np.array([[0.5, 0.5], bad]))
    with pytest.raises(gf.DomainError, match="nan"):
        gf.quantize_point(grid, np.array(bad))


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


# Chains that carry their offset profile: transition[r, c] equals
# profile[c - r + K - 1] / row_mass[r], and predict convolves with it.

def profile_chain():
    spec = gf.build_model("gauss_walk")
    return gf.build_chain(spec, gf.Grid(spec.space, 8), "quadrature")


def test_only_profile_chains_carry_a_profile():
    chain = profile_chain()
    assert chain.profile.shape == (15,) and chain.row_mass.shape == (8,)
    rows = gf.build_chain(without_hook(gf.build_model("gauss_walk")),
                          gf.Grid(chain.grid.space, 8), "quadrature")
    assert rows.profile is None and rows.row_mass is None


def _scaled(array, index, factor):
    out = array.copy()
    out[index] *= factor
    return out


def _zeroed(array, where):
    out = array.copy()
    out[where] = 0.0
    return out


# Row r of a K=8 profile chain is the window profile[7 - r : 15 - r].
@pytest.mark.parametrize("change, message", [
    (lambda c: {"profile": c.profile[:-1]}, r"profile shape \(14,\), expected \(15,\)"),
    (lambda c: {"profile": _scaled(c.profile, 3, np.nan)}, "profile entry 3 is nan"),
    (lambda c: {"profile": _scaled(c.profile, 5, np.inf)}, "profile entry 5 is inf"),
    (lambda c: {"profile": _scaled(c.profile, 0, -1.0)}, "profile entry 0 is -"),
    (lambda c: {"profile": _zeroed(c.profile, slice(7, None))},
     r"row 0 \(center \[0.0625\]\) received zero transition mass"),
    (lambda c: {"profile": _zeroed(c.profile, slice(None, 8))},
     r"row 7 \(center \[0.9375\]\) received zero transition mass"),
    (lambda c: {"transition": c.transition}, "a transition matrix or a profile"),
    (lambda c: {"profile": None}, "a transition matrix or a profile"),
], ids=["profile-shape", "profile-nan", "profile-inf", "profile-negative",
        "row-0", "row-K-1", "matrix-and-profile", "neither"])
def test_inconsistent_profile_is_refused(change, message):
    chain = profile_chain()
    given = {"transition": None, "profile": chain.profile, **change(chain)}
    with pytest.raises(gf.ChainConstructionError, match=message):
        gf.QuantizedChain(chain.grid, given["transition"], chain.initial,
                          chain.build_method, given["profile"])


@pytest.mark.parametrize("with_profile", [True, False])
def test_predict_rejects_weights_of_another_length(with_profile):
    chain = profile_chain()
    if not with_profile:
        chain = gf.QuantizedChain(chain.grid, chain.transition, chain.initial)
    with pytest.raises(gf.DomainError, match="length 7 .*K=8"):
        chain.predict(np.full(7, 1 / 7))
    with pytest.raises(gf.DomainError, match="length 9 .*K=8"):
        chain.predict(np.full((3, 9), 1 / 9))
    with pytest.raises(gf.DomainError, match="a scalar .*K=8"):
        chain.predict(1.0)


# A random walk with drift: box [lower, lower + width] in K cells, step
# sigma of 10^log_sigma cell widths, mean step of drift * sigma (a drift
# makes the profile and the row masses asymmetric).  Steps much narrower than
# a fifth of a cell fall between the quadrature nodes and leave rows without
# mass.
walks = st.tuples(st.floats(-5.0, 5.0), st.floats(0.1, 10.0), st.floats(-0.7, 3.5),
                  st.integers(1, 300), st.floats(-2.0, 2.0))


def drifting_walk_chain(lower, width, log_sigma, k, drift):
    sigma = width / k * 10.0**log_sigma
    spec = gf.build_model("gauss_walk", lower=lower, upper=lower + width,
                          step_sigma=sigma)
    spec = without_hook(spec, increment_density=lambda dx: np.exp(
        -0.5 * ((dx[:, 0] - drift * sigma) / sigma) ** 2))
    return gf.build_chain(spec, gf.Grid(spec.space, k), "quadrature")


@settings(max_examples=60, deadline=None)
@given(walks, st.integers(1, 5), st.integers(0, 2**16))
def test_structured_predict_matches_the_matrix_product(walk, stack, seed):
    chain = drifting_walk_chain(*walk)
    k = chain.grid.total_points
    rng = gf.make_rng(seed)
    # mass spread over 300 decades, with exact zeros
    weights = rng.random((stack, k)) * 10.0 ** -rng.integers(0, 301, (stack, k))
    weights[rng.random((stack, k)) < 0.3] = 0.0
    dense = weights @ chain.transition
    # relative precision holds down to the smallest normal float; below it
    # products are subnormal in both sums and carry fewer digits
    for fast, exact in ((chain.predict(weights), dense),
                        (chain.predict(weights[0]), dense[0])):
        assert np.all(np.abs(fast - exact) <= 1e-13 * exact + np.finfo(float).tiny)


@pytest.mark.parametrize("k", [63, 64, 65, 129])
def test_stacked_predict_across_block_boundaries(k):
    # stacks are predicted in 64 x 64 blocks: one partial block, exactly
    # one, one plus a single cell, two plus a single cell
    chain = drifting_walk_chain(-1.0, 3.0, 0.8, k, 0.5)
    weights = gf.make_rng(k).dirichlet(np.ones(k), size=3)
    dense = weights @ chain.transition
    assert np.all(np.abs(chain.predict(weights) - dense) <= 1e-13 * dense)


# A chain built from a profile stores no K x K matrix; reading
# ``transition`` builds one for the oracles and does not keep it.

def test_profile_chain_builds_its_matrix_on_demand():
    chain = profile_chain()
    k = chain.grid.total_points
    expected = sliding_window_view(chain.profile, k)[::-1] / chain.row_mass[:, None]
    assert np.array_equal(chain.transition, expected)
    assert chain.transition is not chain.transition
    with pytest.raises(AttributeError):
        chain.transition = expected


def test_repr_and_eq_do_not_build_the_matrix(tmp_path):
    spec = gf.build_model("gauss_walk")
    grid = gf.Grid(spec.space, 64)
    chain = gf.build_chain(spec, grid, "quadrature")
    assert "transition" not in repr(chain)
    assert chain == chain
    assert chain != gf.build_chain(spec, grid, "quadrature")
    chain.to_csv(str(tmp_path / "chain.csv"))
    gf.path_sum_oracle(spec, chain, gf.simulate(spec, 1, seed=0).observations)
    assert not any(np.shape(v) == (64, 64) for v in vars(chain).values())


def test_profile_chain_writes_the_csv_of_its_matrix(tmp_path):
    chain = profile_chain()
    dense = gf.QuantizedChain(chain.grid, chain.transition, chain.initial,
                              chain.build_method)
    chain.to_csv(str(tmp_path / "profile.csv"))
    dense.to_csv(str(tmp_path / "dense.csv"))
    assert ((tmp_path / "profile.csv").read_bytes()
            == (tmp_path / "dense.csv").read_bytes())


def test_profile_only_chain_checks_every_row_sum():
    chain = profile_chain()

    def profile_only(profile):
        return gf.QuantizedChain(chain.grid, None, chain.initial,
                                 chain.build_method, profile)

    assert np.array_equal(profile_only(chain.profile).row_mass, chain.row_mass)
    # only row 3's window, profile[4:12], is all zero
    with pytest.raises(gf.ChainConstructionError, match="row 3 .*zero transition mass"):
        profile_only(_zeroed(chain.profile, slice(4, 12)))


@pytest.mark.parametrize("transition, initial, message", [
    ([[np.nan, 0.5], [0.5, 0.5]], [0.5, 0.5], r"transition entry \(0, 0\) is nan"),
    ([[1.0, 0.0], [0.5, 0.5]], [np.nan, 0.5], "initial entry 0 is nan"),
    ([[1.0, 0.0], [0.5, np.inf]], [0.5, 0.5], r"transition entry \(1, 1\) is inf"),
    ([[1.0, 0.0], [0.5, 0.5]], [0.5, -np.inf], "initial entry 1 is -inf"),
], ids=["transition-nan", "initial-nan", "transition-inf", "initial-inf"])
def test_non_finite_chain_entries_are_refused(transition, initial, message):
    with pytest.raises(gf.ChainConstructionError, match=message):
        gf.QuantizedChain(unit_interval_grid(2), np.array(transition),
                          np.array(initial))
