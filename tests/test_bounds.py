import math

import numpy as np
import pytest

import gridfilter as gf
from gridfilter.bounds import _random_spd


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


def test_check_product_bound_report():
    rng = gf.make_rng(3)
    trials = [([rng.standard_normal((2, 2)) for _ in range(3)],
               [rng.standard_normal((2, 2)) for _ in range(3)])
              for _ in range(50)]
    report = gf.check_product_bound(trials, norm="fro", seed=3)
    assert report.passed
    assert report.n_trials == 50
    assert report.check_id == "product-difference-fro"


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


def test_quadform_difference_dominated_by_theta():
    spec = gf.audit_derived_constants(gf.build_model("gauss_walk"),
                                      n_pairs=500, seed=0)
    report = gf.check_theta_bound(spec, 1000, seed=0)
    assert report.passed
    assert report.worst_ratio < 1.0  # budget is loose, not just valid


def test_bound_reports_serialize(tmp_path):
    spec = gf.build_model("gauss_walk")
    reports = [gf.check_adjugate_bound(2, 50, seed=0),
               gf.check_lipschitz_suite(spec, 100, seed=0)]
    path = tmp_path / "bounds.csv"
    gf.write_bound_reports(str(path), reports, meta={"seed": 0})
    meta, header, data = gf.read_csv(str(path), numeric=False)
    assert "check_id" in header
    assert meta["seed"] == "0"
    assert data[0][0] == "adjugate-norm-2d"
    assert data[0][header.index("passed")] == "True"
