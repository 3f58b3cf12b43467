"""Quantize the state box into cells and reduce the dynamics to a finite chain.

A grid splits each axis into equal half-open cells (the top face of the box
folds into the last cell).  Points map to cell centers; the state kernel maps
to a row-stochastic matrix whose row k is the distribution of the next cell
when the current state sits at center k.  Two constructions are available:
quadrature against the kernel density, or Monte Carlo from the kernel
sampler.  They agree up to sampling noise.  The random walk here declares its
step's cell masses in closed form, so its "quadrature" chain is one offset
profile of normal-CDF differences rather than integrated row by row.
"""

import numpy as np

import gridfilter as gf


def main():
    spec = gf.build_model("gauss_walk")
    grid = gf.Grid(spec.space, 8)
    print(f"grid: {grid.a_per_dim} cells, widths {grid.widths}, "
          f"half-cell l1 radius {grid.half_cell_l1:.4f}")

    xs = np.array([[0.0], [0.3], [0.25], [1.0]])
    for v, idx in zip(xs[:, 0], gf.quantize_points(grid, xs)):
        print(f"  x={v:<5} -> cell {idx} centered at {grid.centers[idx][0]:.4f}")

    cq = gf.build_chain(spec, grid, "quadrature")
    cm = gf.build_chain(spec, grid, "monte_carlo", seed=0, n_samples=400_000)
    gap = np.max(np.abs(cq.transition - cm.transition))
    print(f"\nchain rows sum to one: {np.allclose(cq.transition.sum(axis=1), 1.0)}")
    print(f"quadrature vs monte carlo transition gap: {gap:.2e}")
    print(f"build methods recorded as {cq.build_method!r} / {cm.build_method!r}")

    print("\nquadrature transition matrix (A=8):")
    with np.printoptions(precision=3, suppress=True):
        print(cq.transition)

    # How far does quantization move a trajectory, in the worst step?
    traj = gf.simulate(spec, 50, seed=1)
    centers = grid.centers[gf.quantize_points(grid, traj.states)]
    worst = np.max(np.abs(centers - traj.states))
    print(f"\nworst per-step quantization displacement over T=50: {worst:.4f}")
    print(f"a-priori ceiling (half cell): {grid.half_cell_l1:.4f}")

    # For any 1-Lipschitz statistic the induced value gap obeys the same ceiling.
    dev = np.max(np.abs(centers[:, 0] - traj.states[:, 0]))
    print(f"worst statistic gap for f(x)=x_0: {dev:.4f}")


if __name__ == "__main__":
    main()
