"""Filter error against grid resolution, next to the assembled analytic budget.

The sweep simulates tame trajectories, filters each one at every resolution,
and measures the worst-over-time l1 distance to a fine reference filter.  The
reference is itself cross-checked against a twice-finer probe.  Alongside the
measurements, the analytic error budget is assembled from the audited model
constants; its normalizer term underflows float64, so the budget column is
carried in log10.  The budget is astronomically loose at desk scale, but it
halves exactly when the resolution doubles, which is the behavior the
measured errors are expected to echo (or beat).
"""

import numpy as np

import gridfilter as gf


def main():
    spec = gf.audit_derived_constants(gf.build_model("gauss_walk"),
                                      n_pairs=2000, seed=0)
    print(f"audited constants: k_det={spec.constants.k_det:.4f}, "
          f"k_inv={spec.constants.k_inv:.4f}")

    curve = gf.convergence_sweep(spec, 20, (8, 16, 32, 64, 128, 256),
                                 n_traj=24, c_const=1.0, seed=0, a_ref=2048)
    print(f"\nreference: {curve.reference_label}, self-consistency gap "
          f"{curve.reference_gap:.2e} (converged: {curve.reference_converged})")
    print(f"tame trajectories kept: {curve.n_kept}/{curve.n_total} "
          f"(allowance {curve.rejection_budget:.3f})\n")

    bounds_log10 = np.array(curve.kg.bound_log) / np.log(10.0)
    print(f"{'A':>5} {'mean sup err':>13} {'max sup err':>13} {'budget log10':>13}")
    for i, a in enumerate(curve.resolutions):
        print(f"{a:>5} {curve.mean_sup_errors[i]:>13.3e} "
              f"{curve.max_sup_errors[i]:>13.3e} {bounds_log10[i]:>13.1f}")

    ratios = curve.mean_sup_errors[:-1] / curve.mean_sup_errors[1:]
    print(f"\nper-doubling error reduction factors: "
          f"{np.array2string(ratios, precision=2)}")
    print("the budget column drops by exactly log10(2) ~ 0.301 per doubling")


if __name__ == "__main__":
    main()
