import math

import numpy as np
import pytest

import gridfilter as gf
from gridfilter import likelihood


def make_spec(n, mean_fn, cov_fn, sigma_xi_sq=1.0, lam=(1.5, 4.0)):
    space = gf.StateSpace(lower=np.array([0.0]), upper=np.array([1.0]))
    kernel = gf.TransitionKernel(
        sampler=lambda t, x, rng: rng.uniform(0.0, 1.0, size=x.shape),
        initial_sampler=lambda rng, size: rng.uniform(0.0, 1.0, size=(size, 1)))
    obs = gf.ObservationModel(n=n, mean_fn=mean_fn, cov_fn=cov_fn,
                              sigma_xi_sq=sigma_xi_sq)
    constants = gf.AssumptionConstants(lambda_inf=lam[0], lambda_sup=lam[1],
                                       mu_sup=10.0, k_mu=10.0, k_sigma=10.0)
    return gf.SystemSpec(space=space, kernel=kernel, obs=obs, constants=constants)


def constant(value):
    """Batched callback returning ``value`` at every state."""
    value = np.asarray(value, dtype=float)
    return lambda t, x: np.broadcast_to(value, (len(x),) + value.shape)


X = np.array([0.5])


def test_frozen_unit_covariance_value():
    # C = I, mean 0, y = 2: full ratio is exactly 1, reduced form is -||y||^2/2.
    spec = make_spec(1, constant(np.zeros(1)), constant(0.5 * np.eye(1)),
                     sigma_xi_sq=0.5)
    y = np.array([2.0])
    assert gf.log_lambda(spec, 0, X, y) == pytest.approx(0.0, abs=1e-13)
    assert gf.log_lambda_hat(spec, 0, X, y) == pytest.approx(-2.0, abs=1e-13)


def test_frozen_scalar_log_det_value():
    # C = e, y = 0: only the -log(det)/2 term survives.
    spec = make_spec(1, constant(np.zeros(1)),
                     constant((math.e - 1.0) * np.eye(1)), sigma_xi_sq=1.0)
    y = np.array([0.0])
    assert gf.log_lambda(spec, 0, X, y) == pytest.approx(-0.5, abs=1e-13)
    assert gf.log_lambda_hat(spec, 0, X, y) == pytest.approx(-0.5, abs=1e-13)


def test_frozen_two_dim_value():
    # mean (1,0), C = diag(2,4), y = (1,2): residual (0,2),
    # log ratio = 5/2 - 1/2 - log(8)/2.
    spec = make_spec(2, constant([1.0, 0.0]), constant(np.diag([1.0, 3.0])),
                     sigma_xi_sq=1.0)
    y = np.array([1.0, 2.0])
    expected = 2.0 - 0.5 * math.log(8.0)
    assert gf.log_lambda(spec, 0, X, y) == pytest.approx(expected, abs=1e-13)


def test_reduced_form_differs_by_half_observation_norm():
    spec = gf.build_model("gauss_walk")
    rng = gf.make_rng(77)
    for _ in range(25):
        x = rng.uniform(spec.space.lower, spec.space.upper)
        y = rng.standard_normal(spec.obs.n) * 2.0
        full = gf.log_lambda(spec, 0, x, y)
        red = gf.log_lambda_hat(spec, 0, x, y)
        assert full - red == pytest.approx(0.5 * float(y @ y), abs=1e-12)


def test_matches_dense_two_by_two_formula():
    # oracle: explicit inverse and determinant of a 2x2
    a, b, c = 3.0, 0.7, 2.0

    spec = make_spec(2, constant([0.2, -0.1]), constant(np.array([[a, b], [b, c]]) - np.eye(2)),
                     sigma_xi_sq=1.0)
    y = np.array([0.9, -1.3])
    resid = y - np.array([0.2, -0.1])
    det = a * c - b * b
    inv = np.array([[c, -b], [-b, a]]) / det
    quad = float(resid @ inv @ resid)
    expected = 0.5 * float(y @ y) - 0.5 * quad - 0.5 * math.log(det)
    assert gf.log_lambda(spec, 0, X, y) == pytest.approx(expected, abs=1e-12)


def test_degenerate_covariance_is_reported_with_location():
    spec = make_spec(1, constant(np.zeros(1)), constant(-1.0 * np.eye(1)),
                     sigma_xi_sq=0.5)
    with pytest.raises(gf.ModelDefinitionError, match="t=0"):
        gf.log_lambda(spec, 0, X, np.array([1.0]))
    with pytest.raises(gf.ModelDefinitionError, match="t=0"):
        gf.log_lambda_hat_at_points(spec, 0, X[None], np.array([1.0]))


@pytest.mark.parametrize("entry", [(0, 0), (1, 0), (0, 1)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_covariance_is_refused(entry, value):
    cov = np.eye(2)
    cov[entry] = value
    spec = make_spec(2, constant(np.zeros(2)), constant(cov))
    with pytest.raises(gf.ModelDefinitionError, match=r"not finite at t=3, x=\[0.5\]"):
        gf.log_lambda_hat(spec, 3, X, np.ones(2))


def test_callback_without_batch_axis_is_named():
    spec = make_spec(2, lambda t, x: np.zeros(2), constant(np.eye(2)))
    with pytest.raises(gf.ModelDefinitionError, match=r"mean_fn shape \(2,\) at t=0"):
        gf.log_lambda_hat_at_points(spec, 0, np.array([[0.2], [0.7]]), np.zeros(2))


def test_reduced_product_decays_with_eigenvalue_floor():
    # each reduced term is at most -(N/2) log(lambda_inf) in expectation-free form:
    # quad >= 0 and det C >= lambda_inf^N pointwise
    spec = gf.build_model("gauss_walk")
    rng = gf.make_rng(5)
    c = spec.constants
    total = 0.0
    for t in range(50):
        x = rng.uniform(spec.space.lower, spec.space.upper)
        y = rng.standard_normal(spec.obs.n)
        term = gf.log_lambda_hat(spec, t, x, y)
        ceiling = -0.5 * spec.obs.n * math.log(c.lambda_inf)
        assert term <= ceiling + 1e-12
        total += term
    assert total <= -0.5 * spec.obs.n * 50 * math.log(c.lambda_inf) + 1e-9


def test_batched_evaluation_matches_pointwise():
    spec = gf.build_model("gauss_walk")
    grid = gf.Grid(spec.space, 24)
    rng = gf.make_rng(11)
    y = rng.standard_normal(spec.obs.n)
    batch = gf.log_lambda_hat_at_points(spec, 0, grid.centers, y)
    single = np.array([gf.log_lambda_hat(spec, 0, grid.centers[k], y)
                       for k in range(grid.total_points)])
    assert np.allclose(batch, single, atol=1e-12)


def test_whitened_batch_matches_pointwise_for_time_varying_full_covariance():
    # non-diagonal covariance that moves with t and x: the quadratic-form
    # coefficients are rebuilt per step and must match a triangular solve
    def mean_fn(t, x):
        return np.stack([x[:, 0], -t * x[:, 0], np.full(len(x), 0.2)], axis=1)

    def cov_fn(t, x):
        u = np.stack([np.ones(len(x)), x[:, 0], np.full(len(x), 0.5 * t)], axis=1)
        diag = np.stack([np.full(len(x), 0.3), 0.2 + x[:, 0],
                         np.full(len(x), 0.1 * (t + 1))], axis=1)
        return u[:, :, None] * u[:, None, :] + diag[:, :, None] * np.eye(3)

    spec = make_spec(3, mean_fn, cov_fn)
    pts = gf.Grid(spec.space, 9).centers
    ws = gf.QuadFormWorkspace(spec, pts)
    rng = gf.make_rng(14)
    for t in range(4):
        y = rng.standard_normal(3)
        batch = gf.log_lambda_hat_at_points(spec, t, pts, y, workspace=ws)
        single = np.array([gf.log_lambda_hat(spec, t, x, y) for x in pts])
        assert np.allclose(batch, single, atol=1e-12)


def test_workspace_reuse_is_transparent():
    spec = gf.build_model("gauss_walk")
    grid = gf.Grid(spec.space, 16)
    ws = gf.QuadFormWorkspace(spec, grid.centers)
    rng = gf.make_rng(12)
    for t in range(4):
        y = rng.standard_normal(spec.obs.n)
        with_ws = gf.log_lambda_hat_at_points(spec, t, grid.centers, y, workspace=ws)
        without = gf.log_lambda_hat_at_points(spec, t, grid.centers, y)
        assert np.allclose(with_ws, without, atol=1e-14)


def test_workspace_for_another_point_set_is_refused():
    spec = gf.build_model("gauss_walk")
    ws = gf.QuadFormWorkspace(spec, gf.Grid(spec.space, 16).centers)
    wide = gf.StateSpace(lower=np.array([0.0]), upper=np.array([2.0]))
    y = np.full(spec.obs.n, 0.3)
    with pytest.raises(gf.DomainError, match="another point set"):
        gf.log_lambda_hat_at_points(spec, 0, gf.Grid(wide, 16).centers, y, workspace=ws)
    assert np.array_equal(
        gf.log_lambda_hat_at_points(spec, 0, ws.points.copy(), y, workspace=ws),
        gf.log_lambda_hat_at_points(spec, 0, ws.points, y))


def test_workspace_for_another_model_is_refused():
    # the workspace holds the coefficients of the model it was built for;
    # with another spec it would answer for the first model
    narrow = gf.build_model("gauss_walk", beta=0.25)
    wide = gf.build_model("gauss_walk", beta=1.0)
    centers = gf.Grid(narrow.space, 16).centers
    ws = gf.QuadFormWorkspace(narrow, centers)
    y = np.full(narrow.obs.n, 0.3)
    with pytest.raises(gf.DomainError, match="another model"):
        gf.log_lambda_hat_at_points(wide, 0, centers, y, workspace=ws)
    gap = (gf.log_lambda_hat_at_points(wide, 0, centers, y)
           - gf.log_lambda_hat_at_points(narrow, 0, centers, y, workspace=ws))
    assert np.max(np.abs(gap)) > 0.5


def time_varying_full_covariance(n):
    """An N-dimensional model whose mean and full covariance move with t and x."""
    def mean_fn(t, x):
        return np.stack([(k + 1) * x[:, 0] - 0.1 * t * k for k in range(n)], axis=1)

    def cov_fn(t, x):
        cycle = (np.ones(len(x)), x[:, 0], np.full(len(x), 0.5 * t))
        u = np.stack([cycle[k % 3] for k in range(n)], axis=1)
        v = np.stack([np.sin(k + t + x[:, 0]) for k in range(n)], axis=1)
        diag = np.stack([0.1 * (k + 1) + x[:, 0] for k in range(n)], axis=1)
        return (u[:, :, None] * u[:, None, :] + v[:, :, None] * v[:, None, :]
                + diag[:, :, None] * np.eye(n))

    return make_spec(n, mean_fn, cov_fn)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("model", ["gauss_walk", "time_varying"])
def test_expanded_form_error_is_bounded_by_its_terms(n, model):
    # the batch expands -(y - m)'P(y - m)/2 into y'Py - 2q'y + r, which
    # cancels when ||y|| is large: its error is bounded per cell by the size
    # of the terms, not by the size of the result
    if model == "gauss_walk":
        spec = gf.build_model("gauss_walk", n=n)
    else:
        spec = time_varying_full_covariance(n)
    pts = gf.Grid(spec.space, 12).centers
    ws = gf.QuadFormWorkspace(spec, pts)
    rng = gf.make_rng(40 + n)
    eps = np.finfo(float).eps
    for t in range(3):
        cov = spec.obs.total_cov(t, pts)
        prec = np.linalg.inv(cov)
        means = spec.obs.mean(t, pts)
        q = np.einsum("kij,kj->ki", prec, means)
        r = np.einsum("ki,ki->k", means, q)
        logdet = np.linalg.slogdet(cov)[1]
        for norm in (0.0, 1.0, 10.0, 1e3):
            direction = rng.standard_normal(n)
            y = norm * direction / np.linalg.norm(direction)
            batch = gf.log_lambda_hat_at_points(spec, t, pts, y, workspace=ws)
            oracle = np.array([gf.log_lambda_hat(spec, t, x, y) for x in pts])
            terms = (np.abs(np.einsum("i,kij,j->k", y, prec, y))
                     + 2.0 * np.abs(q @ y) + np.abs(r) + np.abs(logdet))
            assert np.all(np.abs(batch - oracle) <= 16.0 * eps * terms)


def test_rotation_invariance_of_isotropic_model():
    # isotropic covariance, zero mean: the value depends on y only through ||y||
    spec = make_spec(3, constant(np.zeros(3)), constant(2.0 * np.eye(3)),
                     sigma_xi_sq=1.0)
    rng = gf.make_rng(21)
    y = rng.standard_normal(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    v1 = gf.log_lambda_hat(spec, 0, X, y)
    v2 = gf.log_lambda_hat(spec, 0, X, q @ y)
    assert v1 == pytest.approx(v2, abs=1e-10)


def test_long_horizon_high_dim_stays_finite():
    spec = make_spec(8, constant(np.zeros(8)), constant(np.eye(8)),
                     sigma_xi_sq=1.0)
    rng = gf.make_rng(30)
    total = 0.0
    ys = rng.standard_normal((10_000, 8))
    for t in range(10_000):
        total += gf.log_lambda_hat(spec, 0, X, ys[t])
    assert math.isfinite(total)
    assert total < 0.0


def test_stacked_observations_match_one_at_a_time():
    spec = gf.build_model("gauss_walk")
    grid = gf.Grid(spec.space, 24)
    ys = gf.make_rng(13).standard_normal((5, spec.obs.n))
    stacked = gf.log_lambda_hat_at_points(spec, 0, grid.centers, ys)
    assert stacked.shape == (5, grid.total_points)
    for b in range(5):
        assert np.array_equal(
            stacked[b], gf.log_lambda_hat_at_points(spec, 0, grid.centers, ys[b]))
    # a length-1 observation must not broadcast across N components
    with pytest.raises(gf.DomainError, match="N=2"):
        gf.log_lambda_hat_at_points(spec, 0, grid.centers, np.array([0.5]))


@pytest.mark.parametrize("model", ["gauss_walk", "time_varying"])
def test_sliced_workspace_equals_the_unsliced_build(monkeypatch, model):
    # K = 2048 points go through in slices of 4096 // N^2 points: 2 slices
    # of the stationary N = 2 model, 5 of the time-varying N = 3 one
    spec = gf.build_model("gauss_walk") if model == "gauss_walk" \
        else time_varying_full_covariance(3)
    points = gf.Grid(spec.space, 2048).centers
    assert likelihood._SLICE_ENTRIES // spec.obs.n**2 < len(points)
    workspace = gf.QuadFormWorkspace(spec, points)
    sliced = [workspace.coefficients(t).copy() for t in range(3)]
    monkeypatch.setattr(likelihood, "_SLICE_ENTRIES", 1 << 40)
    whole = gf.QuadFormWorkspace(spec, points)
    for t in range(3):
        assert np.array_equal(whole.coefficients(t), sliced[t])
