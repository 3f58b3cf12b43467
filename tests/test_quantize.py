import dataclasses
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import gridfilter as gf
from gridfilter._normal import ndtr


def unit_interval_grid(a):
    space = gf.StateSpace(lower=np.array([0.0]), upper=np.array([1.0]))
    return gf.Grid(space, a)


def test_frozen_cell_indices_and_centers():
    grid = unit_interval_grid(4)
    # cells [0,.25) [.25,.5) [.5,.75) [.75,1]; centers .125 .375 .625 .875;
    # the upper box face folds into the last cell
    assert gf.quantize_points(grid, [[0.3], [0.25], [0.0], [1.0]]).tolist() == [1, 1, 0, 3]
    assert grid.centers[1, 0] == pytest.approx(0.375)
    assert grid.centers[3, 0] == pytest.approx(0.875)


def test_single_cell_grid():
    grid = unit_interval_grid(1)
    assert grid.total_points == 1
    assert gf.quantize_points(grid, [[0.0], [0.37], [1.0]]).tolist() == [0, 0, 0]
    assert grid.centers[0, 0] == pytest.approx(0.5)


@pytest.mark.filterwarnings("error")
def test_contains_flags_each_row_that_quantize_points_refuses():
    space = gf.StateSpace(lower=np.zeros(2), upper=np.ones(2))
    grid = gf.Grid(space, 3)
    points = np.array([[0.5, 0.5], [0.0, 1.0], [1.0, np.nextafter(1.0, 2.0)],
                       [np.nan, 0.5], [0.5, -np.inf], [-0.1, 0.2]])
    inside = space.contains(points)
    assert inside.tolist() == [True, True, False, False, False, False]
    for point, flag in zip(points, inside):
        if flag:
            gf.quantize_points(grid, point[None])
        else:
            with pytest.raises(gf.DomainError, match="outside the box"):
                gf.quantize_points(grid, point[None])
    assert space.contains(np.array([0.5, 0.5])).tolist() == [True]
    assert space.contains(np.empty((0, 2))).shape == (0,)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [[np.nan, 0.2], [0.2, np.nan]])
def test_nan_point_is_rejected_by_name(bad):
    grid = gf.Grid(gf.StateSpace(lower=np.zeros(2), upper=np.ones(2)), 3)
    with pytest.raises(gf.DomainError, match=r"point \[.*nan.*\] outside the box"):
        gf.quantize_points(grid, np.array([[0.5, 0.5], bad]))
    with pytest.raises(gf.DomainError, match="nan"):
        gf.quantize_points(grid, np.array([bad]))


def test_out_of_box_point_is_rejected():
    grid = unit_interval_grid(4)
    with pytest.raises(gf.DomainError):
        gf.quantize_points(grid, [[-0.01]])
    with pytest.raises(gf.DomainError):
        gf.quantize_points(grid, [[1.01]])


def test_two_dim_row_major_indexing():
    space = gf.StateSpace(lower=np.array([0.0, 0.0]), upper=np.array([1.0, 1.0]))
    grid = gf.Grid(space, (2, 3))
    assert grid.total_points == 6
    # point in cell (row 1, col 2) -> linear index 1*3 + 2
    assert gf.quantize_points(grid, [[0.9, 0.9]]).tolist() == [5]
    assert np.allclose(grid.centers[5], [0.75, 5.0 / 6.0])


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 1.0, allow_nan=False))
def test_quantize_center_roundtrip(a, v):
    grid = unit_interval_grid(a)
    idx = gf.quantize_points(grid, [[v]])
    center = grid.centers[idx]
    assert abs(center[0, 0] - v) <= grid.half_cell_l1 + 1e-12
    assert gf.quantize_points(grid, center).tolist() == idx.tolist()


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


def test_marginal_approximation_follows_trajectory():
    spec = gf.build_model("gauss_walk")
    traj = gf.simulate(spec, 25, seed=6)
    grid = gf.Grid(spec.space, 32)
    idx = gf.quantize_points(grid, traj.states)
    assert idx.shape == (traj.horizon + 1,)
    approx = grid.centers[idx]
    assert np.max(np.abs(approx - traj.states)) <= grid.half_cell_l1 + 1e-12


def test_cweak_diagnostic_bounded_for_lipschitz_function():
    spec = gf.build_model("gauss_walk")
    traj = gf.simulate(spec, 40, seed=2)
    grid = gf.Grid(spec.space, 16)
    # every center lies within the l1 half cell of its state, so a statistic
    # that is 1-Lipschitz in l1 moves by at most that much
    centers = grid.centers[gf.quantize_points(grid, traj.states)]
    assert np.max(np.sum(np.abs(centers - traj.states), axis=1)) <= grid.half_cell_l1 + 1e-12


def without_hook(spec, **kernel_changes):
    """The same spec with ``increment_cell_mass`` dropped (or replaced)."""
    kernel_changes.setdefault("increment_cell_mass", None)
    return dataclasses.replace(
        spec, kernel=dataclasses.replace(spec.kernel, **kernel_changes))


EPS = np.finfo(float).eps


def mpmath_step_masses(sigma, k, h):
    """Masses of N(0, sigma^2) on the offset cells [(d -+ 1/2) h], d = -(k-1)..k-1,
    at 50 digits; cells right of 0 are taken from the upper tail."""
    d = np.arange(1 - k, k)
    out = []
    with mpmath.workdps(50):
        for lo, hi in zip((d - 0.5) * h, (d + 0.5) * h):
            lo, hi = mpmath.mpf(lo) / sigma, mpmath.mpf(hi) / sigma
            out.append(mpmath.ncdf(-lo) - mpmath.ncdf(-hi) if lo > 0
                       else mpmath.ncdf(hi) - mpmath.ncdf(lo))
    return np.array([float(m) for m in out])


def mpmath_transition(masses, k):
    """The truncated walk's K x K chain from its step masses: row r is the
    window masses[k-1-r : 2k-1-r] over its sum (each within eps/2 of exact)."""
    with mpmath.workdps(50):
        sums = [float(mpmath.fsum(masses[k - 1 - r:2 * k - 1 - r])) for r in range(k)]
    return sliding_window_view(masses, k)[::-1] / np.array(sums)[:, None]


@pytest.mark.parametrize("sigma, a", [(0.15, 1), (0.15, 7), (0.15, 64), (0.15, 512),
                                      (0.15, 4096), (0.001, 1), (0.001, 2), (0.001, 7)])
def test_profile_is_the_closed_form_cell_masses(sigma, a):
    # an ndtr difference loses about log10(sigma / h) digits; far tails included
    spec = gf.build_model("gauss_walk", step_sigma=sigma)
    grid = gf.Grid(spec.space, a)
    profile = gf.build_chain(spec, grid, "quadrature").profile
    want = mpmath_step_masses(sigma, a, grid.widths[0])
    bound = 8 * EPS * max(1.0, sigma / grid.widths[0])
    assert np.all(np.abs(profile - want) <= bound * want)


@pytest.mark.parametrize("a", [1, 2, 7, 64, 512])
def test_profile_chain_matches_per_row_chain(a):
    # both chains against the exact truncated walk, each at its own bound:
    # the closed form loses log10(sigma / h) digits (5.3e-14 at a=512), and
    # Gauss-Legendre resolves the step only from a=7 (1.8e-14 there, 2.5e-15
    # from a=16; at a=2 it is 3e-9 off)
    spec = gf.build_model("gauss_walk")
    grid = gf.Grid(spec.space, a)
    fast = gf.build_chain(spec, grid, "quadrature")
    rows = gf.build_chain(without_hook(spec), grid, "quadrature")
    want = mpmath_transition(mpmath_step_masses(0.15, a, grid.widths[0]), a)
    bound = 8 * EPS * max(1.0, 0.15 / grid.widths[0]) + 2 * EPS
    assert np.all(np.abs(fast.transition - want) <= bound * want)
    if a >= 7:
        assert np.all(np.abs(rows.transition - want) <= 3e-14 * want)
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


@pytest.mark.parametrize("a", [1, 2])
def test_step_narrower_than_a_cell_builds_the_identity_chain(a):
    spec = gf.build_model("gauss_walk", step_sigma=0.001)
    chain = gf.build_chain(spec, gf.Grid(spec.space, a), "quadrature")
    assert np.array_equal(chain.transition, np.eye(a))
    gf.verify_assumptions(spec, n_probe=32, seed=0)


def test_zero_increment_cell_mass_names_row_0():
    spec = without_hook(gf.build_model("gauss_walk"),
                        increment_cell_mass=lambda lo, hi: np.zeros(len(lo)))
    with pytest.raises(gf.ChainConstructionError, match="row 0"):
        gf.build_chain(spec, gf.Grid(spec.space, 8), "quadrature")


def test_increment_cell_mass_on_two_dim_box_is_refused():
    space = gf.StateSpace(lower=np.zeros(2), upper=np.ones(2))
    kernel = gf.TransitionKernel(
        sampler=lambda t, x, rng: x,
        initial_sampler=lambda rng, size: rng.uniform(0.0, 1.0, size=(size, 2)),
        density=lambda t, x_prev, xs: np.ones(len(xs)),
        initial_density=lambda xs: np.ones(len(xs)),
        increment_cell_mass=lambda lo, hi: hi - lo)
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
    (lambda p: p[:-1], r"profile shape \(14,\), expected \(15,\)"),
    (lambda p: _scaled(p, 3, np.nan), "profile entry 3 is nan"),
    (lambda p: _scaled(p, 5, np.inf), "profile entry 5 is inf"),
    (lambda p: _scaled(p, 0, -1.0), "profile entry 0 is -"),
    (lambda p: _zeroed(p, slice(7, None)),
     r"row 0 \(center \[0.0625\]\) received zero transition mass"),
    (lambda p: _zeroed(p, slice(None, 8)),
     r"row 7 \(center \[0.9375\]\) received zero transition mass"),
], ids=["profile-shape", "profile-nan", "profile-inf", "profile-negative",
        "row-0", "row-K-1"])
def test_inconsistent_profile_is_refused(change, message):
    chain = profile_chain()
    with pytest.raises(gf.ChainConstructionError, match=message):
        gf.QuantizedChain(chain.grid, change(chain.profile), chain.initial,
                          chain.build_method)


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
    with pytest.raises(gf.DomainError, match="length 7 .*K=8"):
        chain.certified_predict(np.full(7, 1 / 7), np.zeros(7))


def test_matrix_chain_predicts_by_its_matrix():
    spec = gf.build_model("gauss_walk")
    chain = gf.build_chain(without_hook(spec), gf.Grid(spec.space, 8), "quadrature")
    assert chain.profile is None
    weights = np.random.default_rng(0).dirichlet(np.ones(8), size=3)
    for w in (weights[0], weights):
        assert np.array_equal(chain.predict(w), w @ chain.transition)
        predicted, tau = chain.certified_predict(w, np.zeros(8))
        assert np.array_equal(predicted, w @ chain.transition)
        assert np.shape(tau) == w.shape[:-1] and np.all(tau == 0.0)


# A random walk with drift: box [lower, lower + width] in K cells, step
# sigma of 10^log_sigma cell widths, down to a thousandth of a cell, and a
# mean step of drift * sigma (a drift makes the profile and the row masses
# asymmetric).
walks = st.tuples(st.floats(-5.0, 5.0), st.floats(0.1, 10.0), st.floats(-3.0, 3.5),
                  st.integers(1, 300), st.floats(-2.0, 2.0))


def drifting_walk_chain(lower, width, log_sigma, k, drift):
    sigma = width / k * 10.0**log_sigma
    spec = gf.build_model("gauss_walk", lower=lower, upper=lower + width,
                          step_sigma=sigma)

    def cell_mass(lo, hi):
        # mass of N(drift sigma, sigma^2) on [lo, hi], upper tail right of the mean
        lo, hi = lo / sigma - drift, hi / sigma - drift
        right = lo > 0
        return ndtr(np.where(right, -lo, hi)) - ndtr(np.where(right, -hi, lo))

    spec = without_hook(spec, increment_cell_mass=cell_mass)
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


def _posterior(predicted, log_lik):
    w = predicted * np.exp(log_lik - np.max(log_lik, axis=-1, keepdims=True))
    return w / np.sum(w, axis=-1, keepdims=True)


@pytest.mark.parametrize("k", [1, 2, 3, 512, 513, 1025])
def test_stacked_predict_across_fft_length_boundaries(k):
    # the FFT length is L = 2^ceil(log2(2K - 1)): L = 1, 4 and 8 at K = 1, 2, 3;
    # 2K - 1 = 1023 fits L = 1024 at K = 512, and 2K - 1 is one past a power
    # of two at K = 513 (L = 2048) and K = 1025 (L = 4096)
    chain = drifting_walk_chain(-1.0, 3.0, 0.8, k, 0.5)
    rng = gf.make_rng(k)
    weights = rng.dirichlet(np.ones(k), size=3)
    log_lik = -0.5 * ((chain.grid.centers[:, 0] - rng.uniform(-1.0, 2.0, (3, 1))) / 0.5) ** 2
    dense = weights @ chain.transition
    assert np.all(np.abs(chain.predict(weights) - dense) <= 1e-13 * dense)
    predicted, tau = chain.certified_predict(weights, log_lik)
    accepted = tau <= 1e-13
    assert tau.shape == (3,) and np.all(np.isfinite(tau))
    exact, approx = (_posterior(p, log_lik) for p in (dense, predicted))
    tv = 0.5 * np.sum(np.abs(exact - approx), axis=1)
    assert np.all(tv[accepted] <= tau[accepted])
    assert np.array_equal(predicted[~accepted], chain.predict(weights[~accepted]))


@pytest.mark.parametrize("k", [1, 2, 7, 64, 2048])
def test_single_trajectory_predict_convolves_on_aligned_weights(k, monkeypatch):
    # the direct predict correlates each row with its reversed weights, once
    # per row; the values are the convolution's
    spec = gf.build_model("gauss_walk")
    chain = gf.build_chain(spec, gf.Grid(spec.space, k), "quadrature")
    weights = gf.make_rng(k).dirichlet(np.ones(k))
    expected = np.convolve(chain.profile, weights / chain.row_mass, "valid")
    calls = []
    correlate = np.correlate

    def spy(a, v, mode):
        calls.append(len(v))
        return correlate(a, v, mode)

    monkeypatch.setattr(np, "correlate", spy)
    assert np.array_equal(chain.predict(weights), expected)
    assert np.array_equal(chain.predict(weights[None]), expected[None])
    assert calls == [k, k]


# certified_predict: one batched FFT, each row certified against the step's
# likelihood, and a row that fails its certificate predicted directly.

@settings(max_examples=60, deadline=None)
@given(walks, st.integers(1, 5), st.integers(0, 2**16))
def test_certified_predict_bounds_the_posterior_error(walk, stack, seed):
    chain = drifting_walk_chain(*walk)
    k = chain.grid.total_points
    rng = gf.make_rng(seed)
    # mass spread over 300 decades, with exact zeros
    weights = rng.random((stack, k)) * 10.0 ** -rng.integers(0, 301, (stack, k))
    weights[rng.random((stack, k)) < 0.3] = 0.0
    weights[:, rng.integers(k)] = 1.0  # no row without mass
    x = chain.grid.centers[:, 0]
    peak = rng.uniform(x[0], x[-1], (stack, 1))
    log_lik = -0.5 * ((x - peak) / (rng.uniform(0.01, 2.0, (stack, 1)) * (x[-1] - x[0] + 1e-3))) ** 2
    predicted, tau = chain.certified_predict(weights, log_lik)
    exact = chain.predict(weights)
    assert tau.shape == (stack,) and np.all(predicted >= 0.0)
    accepted = tau <= 1e-13
    tv = 0.5 * np.sum(np.abs(_posterior(predicted, log_lik) - _posterior(exact, log_lik)),
                      axis=1)
    assert np.all(tv[accepted] <= tau[accepted])
    assert np.array_equal(predicted[~accepted], exact[~accepted])


def test_outlier_observation_takes_the_direct_fallback():
    spec = gf.build_model("gauss_walk")
    chain = gf.build_chain(spec, gf.Grid(spec.space, 512), "quadrature")
    x = chain.grid.centers[:, 0]
    weights = np.zeros((2, 512))
    weights[:, :8] = 1.0 / 8
    # the second likelihood peaks at the far end of the box, where the
    # predicted masses sit far below the FFT's absolute error
    log_lik = np.stack([-0.5 * ((x - 0.05) / 0.1) ** 2, -0.5 * ((x - 1.0) / 0.001) ** 2])
    predicted, tau = chain.certified_predict(weights, log_lik)
    assert tau[0] <= 1e-13 < tau[1]
    exact = chain.predict(weights)
    assert np.array_equal(predicted[1], exact[1])
    assert not np.array_equal(predicted[0], exact[0])
    single, single_tau = chain.certified_predict(weights[1], log_lik[1])
    assert np.array_equal(single, exact[1]) and single_tau == tau[1]


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


def test_repr_and_eq_do_not_build_the_matrix():
    spec = gf.build_model("gauss_walk")
    grid = gf.Grid(spec.space, 64)
    chain = gf.build_chain(spec, grid, "quadrature")
    assert "transition" not in repr(chain)
    assert chain == chain
    assert chain != gf.build_chain(spec, grid, "quadrature")
    gf.path_sum_oracle(spec, chain, gf.simulate(spec, 1, seed=0).observations)
    assert not any(np.shape(v) == (64, 64) for v in vars(chain).values())


def test_profile_only_chain_checks_every_row_sum():
    chain = profile_chain()

    def profile_only(profile):
        return gf.QuantizedChain(chain.grid, profile, chain.initial,
                                 chain.build_method)

    assert np.array_equal(profile_only(chain.profile).row_mass, chain.row_mass)
    # only row 3's window, profile[4:12], is all zero
    with pytest.raises(gf.ChainConstructionError, match="row 3 .*zero transition mass"):
        profile_only(_zeroed(chain.profile, slice(4, 12)))


@pytest.mark.parametrize("bad", ["nan", "inf", "negative"])
@pytest.mark.parametrize("name, at", [("profile", 1), ("transition", (0, 1)), ("initial", 1)],
                         ids=["profile", "transition", "initial"])
def test_non_finite_chain_entries_are_refused(name, at, bad):
    """A NaN, inf or negative entry of any of the three arrays is named."""
    arrays = {"profile": np.array([0.25, 0.5, 0.25]), "transition": np.full((2, 2), 0.5),
              "initial": np.full(2, 0.5)}
    value = {"nan": np.nan, "inf": np.inf, "negative": -0.5}[bad]
    arrays[name][at] = value
    operator = arrays["profile" if name == "profile" else "transition"]
    message = f"{name} entry {at} is {value}, not finite and >= 0"
    with pytest.raises(gf.ChainConstructionError, match=re.escape(message)):
        gf.QuantizedChain(unit_interval_grid(2), operator, arrays["initial"])


def test_one_cell_profile_and_matrix_are_told_apart_by_shape():
    profile = gf.QuantizedChain(unit_interval_grid(1), np.array([0.7]), np.ones(1))
    matrix = gf.QuantizedChain(unit_interval_grid(1), np.ones((1, 1)), np.ones(1))
    assert profile.profile is not None and np.array_equal(profile.row_mass, [0.7])
    assert matrix.profile is None and matrix.row_mass is None
    assert np.array_equal(profile.transition, matrix.transition)


def gauss_walk_with(**kernel_changes):
    spec = gf.build_model("gauss_walk")
    return dataclasses.replace(
        spec, kernel=dataclasses.replace(spec.kernel, **kernel_changes))


@pytest.mark.parametrize("make, error, message", [
    (lambda: gf.Grid(unit_interval_grid(1).space, (4, 4)), ValueError,
     "a_per_dim length must match the state dimension"),
    (lambda: unit_interval_grid(0), ValueError, "need at least one cell per dimension"),
    (lambda: gf.QuantizedChain(unit_interval_grid(2), np.eye(3), np.full(2, 0.5)),
     gf.ChainConstructionError, r"transition shape \(3, 3\), expected \(2, 2\)"),
    (lambda: gf.QuantizedChain(unit_interval_grid(2), np.eye(2), np.ones(1)),
     gf.ChainConstructionError, r"initial shape \(1,\), expected \(2,\)"),
    (lambda: gf.QuantizedChain(unit_interval_grid(2), [[1.5, -0.5], [0.0, 1.0]],
                               np.full(2, 0.5)),
     gf.ChainConstructionError, r"transition entry \(0, 1\) is -0.5, not finite and >= 0"),
    (lambda: gf.QuantizedChain(unit_interval_grid(2), np.eye(2), [1.5, -0.5]),
     gf.ChainConstructionError, "initial entry 1 is -0.5, not finite and >= 0"),
    (lambda: gf.QuantizedChain(unit_interval_grid(2), 0.5, np.full(2, 0.5)),
     gf.ChainConstructionError,
     r"operator shape \(\) is neither a \(3,\) profile nor a \(2, 2\) matrix"),
    (lambda: gf.QuantizedChain(unit_interval_grid(2), np.ones((3, 2, 2)), np.full(2, 0.5)),
     gf.ChainConstructionError, r"operator shape \(3, 2, 2\) is neither"),
    (lambda: gf.build_chain(gf.build_model("constant"), unit_interval_grid(4)),
     gf.ConfigError, "build method 'quadrature' needs the kernel's density"),
    (lambda: gf.build_chain(gauss_walk_with(initial_density=None), unit_interval_grid(4)),
     gf.ConfigError, "build method 'quadrature' needs the kernel's initial_density"),
    (lambda: gf.build_chain(gf.build_model("gauss_walk"), unit_interval_grid(4), "simpson"),
     gf.ConfigError, "unknown build method 'simpson'; known: quadrature, monte_carlo"),
    (lambda: gf.build_chain(gauss_walk_with(initial_density=lambda xs: np.zeros(len(xs))),
                            unit_interval_grid(4)),
     gf.ChainConstructionError, "initial law received zero mass"),
], ids=["grid_length", "grid_zero_cells", "transition_shape", "initial_shape",
        "negative_transition", "negative_initial", "operator_0d", "operator_3d", "no_density",
        "no_initial_density", "unknown_method", "zero_initial_mass"])
def test_quantize_refusals(make, error, message):
    with pytest.raises(error, match=message):
        make()


def two_columns(fn):
    """``fn`` with its output doubled into two columns: (n,) or (n, 1) -> (n, 2)."""
    return lambda *args: np.column_stack([fn(*args)] * 2)


WALK = gf.build_model("gauss_walk").kernel


@pytest.mark.parametrize("changes, method, name, t, audited", [
    ({"density": two_columns(WALK.density), "increment_cell_mass": None},
     "quadrature", "density", 1, True),
    ({"initial_density": lambda xs: 1.0}, "quadrature", "initial_density", 0, False),
    ({"increment_cell_mass": two_columns(WALK.increment_cell_mass)},
     "quadrature", "increment_cell_mass", 1, True),
    ({"increment_cell_mass": lambda lo, hi: WALK.increment_cell_mass(lo, hi)[:-1]},
     "quadrature", "increment_cell_mass", 1, True),
    ({"sampler": two_columns(WALK.sampler)}, "monte_carlo", "sampler", 1, True),
    ({"initial_sampler": two_columns(WALK.initial_sampler)},
     "monte_carlo", "initial_sampler", 0, True),
], ids=["density_two_columns", "initial_density_scalar", "hook_two_columns",
        "hook_one_short", "sampler_two_columns", "initial_sampler_two_columns"])
def test_wrong_shaped_kernel_callbacks_are_refused_by_name(changes, method, name, t, audited):
    spec = gauss_walk_with(**changes)
    message = rf"^{name} shape \(.*\) at t={t}, expected \(\d+(, 1)?,?\)$"
    with pytest.raises(gf.ModelDefinitionError, match=message):
        gf.build_chain(spec, unit_interval_grid(8), method, n_samples=100)
    if audited:  # the audit calls every kernel callback but initial_density
        with pytest.raises(gf.ModelDefinitionError, match=message):
            gf.verify_assumptions(spec, n_probe=8, seed=0)
