"""Build a model, check its declared regularity constants, and simulate it.

The bundled random-walk model has a truncated-Gaussian state on [0, 1] and a
two-dimensional observation whose mean and covariance both depend on the
state.  Every model carries declared constants (eigenvalue floor/ceiling of
the observation covariance, mean bound, Lipschitz constants); the audit
probes the model on a point cloud and refuses constants the evaluations
contradict.
"""

import numpy as np

import gridfilter as gf


def main():
    spec = gf.build_model("gauss_walk")
    print(f"model: {spec.model_id}")
    print(f"state box: {spec.space.lower} .. {spec.space.upper}")
    print(f"observation dim: {spec.obs.n}")
    c = spec.constants
    print(f"declared: lambda_inf={c.lambda_inf:.4f} lambda_sup={c.lambda_sup:.4f} "
          f"mu_sup={c.mu_sup:.4f} k_mu={c.k_mu:.4f} k_sigma={c.k_sigma:.4f}")

    empirical = gf.verify_assumptions(spec, n_probe=500, seed=0)
    print(f"audited:  lambda_inf={empirical.lambda_inf:.4f} "
          f"lambda_sup={empirical.lambda_sup:.4f} mu_sup={empirical.mu_sup:.4f}")
    print("declared constants survive the probe audit\n")

    traj = gf.simulate(spec, 20, seed=7)
    print(f"one trajectory, horizon 20 (seed 7):")
    print(f"  state range   [{traj.states.min():.3f}, {traj.states.max():.3f}]")
    print(f"  max ||y_t||^2  {np.max(np.sum(traj.observations**2, axis=1)):.3f}")

    # Under the reference coupling the same state path gets synthetic
    # standard-normal observations; useful for change-of-measure experiments.
    ref = gf.simulate(spec, 20, seed=7, tilde=True)
    assert np.array_equal(ref.states, traj.states)
    print(f"  reference-coupling obs are unit normal: "
          f"mean {ref.observations.mean():+.3f}, "
          f"var {ref.observations.var():.3f}")

    states, obs = gf.simulate_batch(spec, 20, 10_000, seed=7)
    print(f"\n10k trajectories drawn in batch: states {states.shape}, "
          f"observations {obs.shape}")
    print(f"  grand mean state {states.mean():.4f}")


if __name__ == "__main__":
    main()
