"""Randomized falsification attempts on the deterministic inequalities.

Each check samples many random instances, evaluates both sides, and reports
the worst left/right ratio.  A ratio above one (beyond float slack) would
falsify the inequality; a ratio of exactly one shows tightness.  The
covariance suite also extracts empirical Lipschitz constants and compares
the closed-form inverse-difference constant against the measured one.
"""

import numpy as np

import gridfilter as gf


def main():
    rep = gf.check_product_bound(2000, seed=14, norm="fro")
    print(f"{rep.check_id}: worst ratio {rep.worst_ratio:.12f} over "
          f"{rep.n_trials} trials")

    # the two-factor scalar witness attains the bound exactly
    lhs, rhs = gf.product_difference_sides(
        [np.array([[2.0]]), np.array([[3.0]])],
        [np.array([[1.0]]), np.array([[1.0]])])
    print(f"tight witness (2,3) vs (1,1): lhs {lhs} = rhs {rhs}")

    for n_dim in (2, 3, 5):
        rep = gf.check_adjugate_bound(n_dim, 2000, seed=14)
        print(f"{rep.check_id}: worst ratio {rep.worst_ratio:.6f}")

    spec = gf.build_model("gauss_walk")
    suite = gf.check_lipschitz_suite(spec, 5000, seed=14)
    print(f"\n{suite.check_id}: worst ratio {suite.worst_ratio:.12f}")
    for key, value in suite.constants.items():
        print(f"  {key:18s} {value:.6g}")
    print("the closed form is a worst-case budget; the measured constant "
          "sits far below it")

    audited = gf.audit_derived_constants(spec, n_pairs=5000, seed=14)
    theta = gf.check_theta_bound(audited, 5000, seed=14)
    print(f"\n{theta.check_id}: worst ratio {theta.worst_ratio:.6g} "
          f"(quadratic-form differences vs their state-Lipschitz budget)")


if __name__ == "__main__":
    main()
