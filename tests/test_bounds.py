import math
import tracemalloc

import numpy as np
import pytest

import gridfilter as gf
from gridfilter import bounds
from gridfilter.bounds import _adjugate_trials, _minors, _with_derived


def _random_spd(rng, n, lam_lo, lam_hi):
    """One random SPD matrix: eigenvectors by QR of a Gaussian draw, then
    its eigenvalues."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(lam_lo, lam_hi, size=n)
    m = (q * lam) @ q.T
    return 0.5 * (m + m.T)


def test_scalar_witness_is_tight():
    # A = (2, 3), B = (1, 1): |6 - 1| = 5, bound = 1*|3-1| + 1*|2-1|*3 = 5
    lhs, rhs = gf.product_difference_sides(
        [np.array([[2.0]]), np.array([[3.0]])],
        [np.array([[1.0]]), np.array([[1.0]])])
    assert lhs == 5.0
    assert rhs == 5.0


def test_equal_sequences_give_zero_difference():
    rng = gf.make_rng(0)
    seq = [rng.standard_normal((3, 3)) for _ in range(4)]
    lhs, rhs = gf.product_difference_sides(seq, [m.copy() for m in seq])
    assert lhs == 0.0
    assert rhs == 0.0


def test_product_bound_on_random_matrices():
    rng = gf.make_rng(1)
    for _ in range(100):
        length = int(rng.integers(1, 6))
        a = [rng.standard_normal((3, 3)) for _ in range(length)]
        b = [rng.standard_normal((3, 3)) for _ in range(length)]
        for norm in ("fro", "spectral"):
            lhs, rhs = gf.product_difference_sides(a, b, norm)
            assert lhs <= rhs * (1 + 1e-9)


def test_two_factor_scalar_expansion():
    # a1 a2 - b1 b2 = (a1-b1) a2 + b1 (a2-b2), bound holds with equality for
    # positive factors and aligned signs
    a1, a2, b1, b2 = 2.0, 5.0, 1.5, 3.0
    lhs, rhs = gf.product_difference_sides(
        [np.array([[a1]]), np.array([[a2]])],
        [np.array([[b1]]), np.array([[b2]])])
    assert lhs == pytest.approx(abs(a1 * a2 - b1 * b2))
    assert rhs == pytest.approx(abs(a1 - b1) * b2 + a1 * abs(a2 - b2))


def test_matvec_variant_holds():
    rng = gf.make_rng(2)
    for _ in range(200):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        lhs, rhs = gf.matvec_difference_sides(a, x, b, y)
        assert lhs <= rhs * (1 + 1e-9)


def _product_worst_by_length(seed, n_trials):
    """The worst ratio per product length over the trials that
    ``check_product_bound`` documents, redrawn from stream (seed, 30)."""
    rng, worst = gf.make_rng(seed, 30), {}
    for _ in range(n_trials):
        n, length = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        a = [rng.standard_normal((n, n)) for _ in range(length)]
        b = [rng.standard_normal((n, n)) for _ in range(length)]
        lhs, rhs = gf.product_difference_sides(a, b, "fro")
        worst[length] = max(worst.get(length, 0.0), lhs / rhs)
    return worst


def test_check_product_bound_report():
    report = gf.check_product_bound(50, seed=3, norm="fro")
    assert report.passed
    assert report.n_trials == 50
    assert report.check_id == "product-difference-fro"
    assert report.worst_ratio == max(_product_worst_by_length(3, 50).values())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_product_bound_is_measured_beyond_one_factor(seed):
    # A length-1 trial has lhs == rhs, so the reported worst ratio is pinned
    # at 1.0 whatever the right-hand side of longer products says.  The
    # length-2 trials' worst ratio measured 0.67 / 0.72 / 0.86 at seeds
    # 0 / 1 / 2; a right-hand side doubled for products of two or more
    # factors halves it.
    worst = _product_worst_by_length(seed, 1000)
    assert sorted(worst) == [1, 2, 3, 4]
    assert worst[1] == 1.0
    assert 0.6 <= worst[2] <= 1.0
    assert max(worst[3], worst[4]) <= 1.0
    assert gf.check_product_bound(1000, seed=seed).worst_ratio == max(worst.values())


def test_adjugate_matches_inverse_times_det():
    rng = gf.make_rng(4)
    for n in (2, 3, 4, 5):
        m = _random_spd(rng, n, 1.2, 3.0)
        adj = gf.adjugate_cofactor(m)
        expected = np.linalg.det(m) * np.linalg.inv(m)
        assert np.allclose(adj, expected, atol=1e-8)
    assert gf.adjugate_cofactor(np.array([[7.0]])) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        gf.adjugate_cofactor(np.eye(6))


def test_adjugate_norm_bound_needs_eigenvalue_floor():
    # where the floor fails, the bound can fail: diag(0.1, 0.1)
    m = np.diag([0.1, 0.1])
    adj = gf.adjugate_cofactor(m)
    lhs = np.linalg.norm(adj, "fro")
    rhs = math.sqrt(2) * np.linalg.det(m)
    assert lhs > rhs  # counterexample below the floor
    report = gf.check_adjugate_bound(3, 500, seed=0)
    assert report.passed


@pytest.mark.parametrize("seed", [0, 9])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_batched_adjugate_check_equals_trial_loop(n, seed):
    rng = gf.make_rng(seed, 10)
    cs, adjs, worst = [], [], 0.0
    for _ in range(300):
        c = _random_spd(rng, n, 1.05, 4.0)
        adj = gf.adjugate_cofactor(c)
        lhs = float(np.linalg.norm(adj, "fro"))
        rhs = math.sqrt(n) * float(np.linalg.det(c))
        worst = max(worst, lhs / rhs)
        cs.append(c)
        adjs.append(adj)
    c, adj = _adjugate_trials(n, 300, seed)
    assert np.array_equal(c, np.array(cs))
    assert np.array_equal(adj, np.array(adjs))
    assert gf.check_adjugate_bound(n, 300, seed=seed).worst_ratio == worst


@pytest.mark.parametrize("n", [1, 2, 4])
def test_minors_are_yielded_in_row_major_order(n):
    c = gf.make_rng(8).standard_normal((3, n, n))
    expected = [np.delete(np.delete(c, i, axis=1), j, axis=2)
                for i in range(n) for j in range(n)]
    minors = list(_minors(c))
    assert len(minors) == n * n
    for got, want in zip(minors, expected):
        assert got.shape == (3, n - 1, n - 1)
        assert np.array_equal(got, want)


def test_adjugate_check_peak_memory_stays_near_its_trials():
    gf.check_adjugate_bound(5, 1)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        gf.check_adjugate_bound(5, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Gathering all 25 minors of every trial as one (P, 5, 5, 4, 4) stack
    # peaks at 4.2 MiB; one (P, 4, 4) minor at a time peaks at 1.4 MiB.
    assert peak < 2.5 * 2**20


@pytest.mark.parametrize("n_dim, n_trials", [(0, 10), (2, 0)])
def test_adjugate_check_rejects_empty_trials(n_dim, n_trials):
    with pytest.raises(ValueError, match="n_dim >= 1 and n_trials >= 1"):
        gf.check_adjugate_bound(n_dim, n_trials)


def test_theta_check_rejects_zero_draws():
    spec = gf.audit_derived_constants(gf.build_model("gauss_walk"),
                                      n_pairs=200, seed=0)
    with pytest.raises(ValueError, match="n_draws >= 1"):
        gf.check_theta_bound(spec, 0)


def test_scalar_covariance_closed_form_constants():
    # C(x) = 1.5 + x on [0, 1]: k_det = k_sigma = 1, inverse difference
    # |1/cx - 1/cy| = |cx - cy| / (cx cy) <= |x - y| / 1.5^2
    space = gf.StateSpace(lower=np.array([0.0]), upper=np.array([1.0]))
    kernel = gf.TransitionKernel(
        sampler=lambda t, x, rng: rng.uniform(0.0, 1.0, size=x.shape),
        initial_sampler=lambda rng, size: rng.uniform(0.0, 1.0, size=(size, 1)))
    obs = gf.ObservationModel(n=1, mean_fn=lambda t, x: np.zeros((len(x), 1)),
                              cov_fn=lambda t, x: (1.0 + x[:, 0])[:, None, None] * np.eye(1),
                              sigma_xi_sq=0.5)
    constants = gf.AssumptionConstants(lambda_inf=1.5, lambda_sup=2.5,
                                       mu_sup=0.0, k_mu=0.0, k_sigma=1.0)
    spec = gf.SystemSpec(space=space, kernel=kernel, obs=obs, constants=constants)
    report = gf.check_lipschitz_suite(spec, 2000, seed=0)
    assert report.passed
    c = report.constants
    assert c["k_det"] == pytest.approx(1.0, rel=1e-6)
    assert c["k_inv_empirical"] <= 1.0 / 1.5**2 + 1e-9
    # closed form dominates the empirical value by a wide margin here
    assert c["k_inv_formula"] >= c["k_inv_empirical"]


def test_constant_covariance_has_zero_inverse_constant():
    spec = gf.build_model("finite_chain", n_states=4)
    report = gf.check_lipschitz_suite(spec, 500, seed=1)
    assert report.passed
    assert report.constants["k_inv_empirical"] == 0.0
    assert report.constants["k_inv_formula"] == 0.0


@pytest.mark.parametrize("n", [2, 8])
def test_lipschitz_suite_constants_are_python_floats(n):
    # np.float64 subclasses float, so isinstance would not tell them apart
    report = gf.check_lipschitz_suite(gf.build_model("gauss_walk", n=n), 200, seed=0)
    assert {key: type(v) for key, v in report.constants.items()} == dict.fromkeys(
        report.constants, float)


def test_k_inv_formula_values():
    # prefactor at lambda = e: 27 e^{-3} / 1 = 27 e^{-3}
    val = gf.k_inv_formula(math.e, 1.0, 1.0, 1.0)
    assert val == pytest.approx(2.0 * 27.0 * math.exp(-3.0), rel=1e-12)
    with pytest.raises(gf.AssumptionViolationError):
        gf.k_inv_formula(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(gf.AssumptionViolationError):
        gf.k_inv_formula(0.5, 1.0, 1.0, 1.0)


def test_audit_attaches_derived_constants():
    spec = gf.build_model("gauss_walk")
    assert spec.constants.k_inv is None
    audited = gf.audit_derived_constants(spec, n_pairs=500, seed=0)
    assert audited.constants.k_det is not None
    assert audited.constants.k_inv > 0.0
    # original spec untouched
    assert spec.constants.k_inv is None


def test_theta_bound_zero_when_model_is_state_free():
    spec = gf.build_model("constant", n=2, cov_const=1.0, sigma_xi_sq=0.5)
    audited = gf.audit_derived_constants(spec, n_pairs=200, seed=0)
    assert gf.theta_bound(audited, np.array([1.0, 2.0])) == 0.0


def test_theta_bound_monotone_in_observation_norm():
    spec = gf.audit_derived_constants(gf.build_model("gauss_walk"),
                                      n_pairs=500, seed=0)
    v1 = gf.theta_bound(spec, np.array([1.0, 0.0]))
    v2 = gf.theta_bound(spec, np.array([2.0, 0.0]))
    v3 = gf.theta_bound(spec, np.array([0.0, 5.0]))
    assert 0.0 < v1 < v2 < v3


def test_theta_bound_requires_audit():
    spec = gf.build_model("gauss_walk")
    with pytest.raises(gf.ConfigError):
        gf.theta_bound(spec, np.zeros(2))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_theta_bound_of_a_stack_equals_its_rows(n):
    spec = gf.audit_derived_constants(gf.build_model("gauss_walk", n=n), n_pairs=200, seed=0)
    ys = 2.0 * gf.make_rng(3, n).standard_normal((500, n))
    theta = gf.theta_bound(spec, ys)
    rows = [gf.theta_bound(spec, y) for y in ys]
    assert all(type(v) is float for v in rows)
    assert theta.shape == (500,) and np.array_equal(theta, rows)
    # the closed form with numpy's vector norm, bit for bit
    c = spec.constants
    s = np.array([np.linalg.norm(y) for y in ys]) + c.mu_sup
    assert np.array_equal(theta, c.k_mu * 2.0 * s / c.lambda_inf + c.k_inv * s * s)


def test_theta_check_calls_the_budget_once(monkeypatch):
    spec = gf.audit_derived_constants(gf.build_model("gauss_walk"), n_pairs=200, seed=0)
    theta_bound, calls = bounds.theta_bound, []

    def counted(spec, y):
        calls.append(np.shape(y))
        return theta_bound(spec, y)

    monkeypatch.setattr(bounds, "theta_bound", counted)
    assert gf.check_theta_bound(spec, 1000, seed=0).passed
    # every drawn pair is kept, and all of them take one stacked call
    assert calls == [(1000, spec.obs.n)]


def test_quadform_difference_dominated_by_theta():
    spec = gf.audit_derived_constants(gf.build_model("gauss_walk"),
                                      n_pairs=500, seed=0)
    report = gf.check_theta_bound(spec, 1000, seed=0)
    assert report.passed
    assert report.worst_ratio < 1.0  # budget is loose, not just valid


@pytest.mark.parametrize("make, error, message", [
    (lambda: gf.product_difference_sides([np.eye(2)], [np.eye(2)], norm="nuclear"),
     ValueError, "unsupported matrix norm 'nuclear'"),
    (lambda: gf.product_difference_sides([], []),
     ValueError, "need two equally long nonempty factor sequences"),
    (lambda: gf.product_difference_sides([np.eye(2)] * 2, [np.eye(2)]),
     ValueError, "need two equally long nonempty factor sequences"),
    (lambda: gf.product_difference_sides([np.ones((2, 3))], [np.ones((2, 3))]),
     ValueError, "factors must be square matrices of one common size"),
    (lambda: gf.product_difference_sides([np.eye(2), np.eye(3)], [np.eye(2), np.eye(2)]),
     ValueError, "factors must be square matrices of one common size"),
    (lambda: gf.adjugate_cofactor(np.ones((2, 3))), ValueError, "need a square matrix"),
    (lambda: gf.check_product_bound(0), ValueError, "need n_trials >= 1"),
    (lambda: gf.check_lipschitz_suite(gf.build_model("gauss_walk"), 0),
     ValueError, r"need n_pairs >= 1"),
    (lambda: _with_derived(gf.build_model("gauss_walk"),
                           gf.BoundReport("covariance-lipschitz-suite", 10, 1.5)),
     gf.AssumptionViolationError, "covariance regularity check failed with ratio 1.5"),
], ids=["unknown_norm", "empty_sequences", "unequal_sequences", "non_square",
        "mixed_sizes", "adjugate_non_square", "zero_product_trials", "zero_pairs",
        "failed_suite"])
def test_bounds_refusals(make, error, message):
    with pytest.raises(error, match=message):
        make()
