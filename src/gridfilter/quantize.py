"""Uniform grid quantization of the state box and quantized Markov chains.

The box is split into a tensor product of half-open cells (the upper boundary
of the box belongs to the last cell of each axis), every point maps to the
center of its cell, and a state kernel induces a finite chain on the cell
centers: row k holds the probability of landing in each cell when the kernel
is started from center k.  The chain is one admissible finite approximation
of the dynamics; which one was used is recorded in ``build_method`` and in
the serialized metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .csvio import write_csv
from .errors import ChainConstructionError, DomainError
from .model import StateSpace, SystemSpec, Trajectory, make_rng

__all__ = [
    "Grid",
    "QuantizedChain",
    "quantize_point",
    "quantize_points",
    "marginal_approximation",
    "build_chain",
    "cweak_diagnostic",
]


@dataclass(frozen=True)
class Grid:
    """Uniform cell grid over a state box.

    ``a_per_dim`` counts cells along each axis; linear indices are row-major
    (last axis fastest), matching ``numpy.ravel_multi_index``.
    """

    space: StateSpace
    a_per_dim: tuple[int, ...]

    def __init__(self, space: StateSpace, a_per_dim):
        if np.isscalar(a_per_dim):
            a = (int(a_per_dim),) * space.dim
        else:
            a = tuple(int(v) for v in a_per_dim)
        if len(a) != space.dim:
            raise ValueError("a_per_dim length must match the state dimension")
        if any(v < 1 for v in a):
            raise ValueError("need at least one cell per dimension")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "a_per_dim", a)

    @property
    def total_points(self) -> int:
        return int(np.prod(self.a_per_dim))

    @property
    def widths(self) -> np.ndarray:
        return (self.space.upper - self.space.lower) / np.asarray(self.a_per_dim)

    @property
    def half_cell_l1(self) -> float:
        """l1 radius of a cell around its center: max quantization error."""
        return float(np.sum(self.widths) / 2.0)

    def edges(self, dim: int) -> np.ndarray:
        return np.linspace(self.space.lower[dim], self.space.upper[dim],
                           self.a_per_dim[dim] + 1)

    @cached_property
    def centers(self) -> np.ndarray:
        """All cell centers, shape (total_points, M), in linear-index order."""
        axes = [self.space.lower[d] + (np.arange(self.a_per_dim[d]) + 0.5) * self.widths[d]
                for d in range(self.space.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=-1)


def quantize_points(grid: Grid, xs: np.ndarray) -> np.ndarray:
    """Linear cell indices for points ``xs`` of shape (n, M)."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    lo, hi = grid.space.lower, grid.space.upper
    bad = np.any((xs < lo) | (xs > hi), axis=1)
    if np.any(bad):
        raise DomainError(f"point {xs[np.argmax(bad)]} outside the box "
                          f"[{lo}, {hi}]")
    a = np.asarray(grid.a_per_dim)
    frac = (xs - lo) / (hi - lo) * a
    idx = np.minimum(np.floor(frac).astype(int), a - 1)
    return np.ravel_multi_index(tuple(idx.T), grid.a_per_dim, order="C")


def quantize_point(grid: Grid, x) -> int:
    """Linear index of the cell containing ``x`` (upper box face included)."""
    return int(quantize_points(grid, np.asarray(x, dtype=float).reshape(1, -1))[0])


def marginal_approximation(grid: Grid, traj: Trajectory) -> np.ndarray:
    """Cell index of every state along a trajectory, shape (T+1,)."""
    return quantize_points(grid, traj.states)


def cweak_diagnostic(grid: Grid, traj: Trajectory, f: Callable[[np.ndarray], float],
                     modulus: Optional[float] = None) -> float:
    """Largest gap |f(center(x_t)) - f(x_t)| along a trajectory.

    ``modulus`` is the caller's declared Lipschitz bound for ``f`` (l1 domain
    norm); it is not used in the computation but states the contract under
    which the returned deviation is bounded by ``modulus * grid.half_cell_l1``.
    """
    if modulus is not None and modulus < 0:
        raise ValueError("modulus must be nonnegative")
    idx = marginal_approximation(grid, traj)
    centers = grid.centers[idx]
    dev = 0.0
    for t in range(traj.states.shape[0]):
        dev = max(dev, abs(float(f(centers[t])) - float(f(traj.states[t]))))
    return dev


@dataclass
class QuantizedChain:
    """Finite chain on grid-cell centers: row-stochastic transition + initial law."""

    grid: Grid
    transition: np.ndarray
    initial: np.ndarray
    build_method: str = "direct"

    def __post_init__(self):
        k = self.grid.total_points
        self.transition = np.asarray(self.transition, dtype=float)
        self.initial = np.asarray(self.initial, dtype=float)
        if self.transition.shape != (k, k):
            raise ChainConstructionError(
                f"transition shape {self.transition.shape}, expected {(k, k)}")
        if self.initial.shape != (k,):
            raise ChainConstructionError(
                f"initial shape {self.initial.shape}, expected {(k,)}")
        if np.any(self.transition < 0) or np.any(self.initial < 0):
            raise ChainConstructionError("negative probability entry")
        sums = self.transition.sum(axis=1)
        bad = np.argmax(np.abs(sums - 1.0))
        if abs(sums[bad] - 1.0) > 1e-12:
            raise ChainConstructionError(
                f"transition row {bad} sums to {sums[bad]!r}, not 1")
        if abs(self.initial.sum() - 1.0) > 1e-12:
            raise ChainConstructionError(
                f"initial law sums to {self.initial.sum()!r}, not 1")

    def to_csv(self, path: str, extra_meta: Optional[dict] = None) -> None:
        meta = {
            "a_per_dim": " ".join(str(a) for a in self.grid.a_per_dim),
            "lower": " ".join(repr(v) for v in self.grid.space.lower),
            "upper": " ".join(repr(v) for v in self.grid.space.upper),
            "build_method": self.build_method,
            "initial": " ".join(repr(v) for v in self.initial),
        }
        meta.update(extra_meta or {})
        k = self.grid.total_points
        header = [f"p{j}" for j in range(k)]
        write_csv(path, meta, header, self.transition)


def _gl_cells(grid: Grid, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes over every cell: (nodes (n, M), weights (n,),
    owning cell linear index (n,))."""
    per_dim = []
    base_nodes, base_weights = np.polynomial.legendre.leggauss(order)
    for d in range(grid.space.dim):
        e = grid.edges(d)
        mid = 0.5 * (e[:-1] + e[1:])
        half = 0.5 * (e[1:] - e[:-1])
        nodes = (mid[:, None] + half[:, None] * base_nodes[None, :]).ravel()
        weights = (half[:, None] * base_weights[None, :]).ravel()
        owner = np.repeat(np.arange(grid.a_per_dim[d]), order)
        per_dim.append((nodes, weights, owner))
    mesh_n = np.meshgrid(*[p[0] for p in per_dim], indexing="ij")
    mesh_w = np.meshgrid(*[p[1] for p in per_dim], indexing="ij")
    mesh_o = np.meshgrid(*[p[2] for p in per_dim], indexing="ij")
    nodes = np.stack([g.ravel() for g in mesh_n], axis=-1)
    weights = np.prod(np.stack([g.ravel() for g in mesh_w], axis=-1), axis=1)
    owner = np.ravel_multi_index(tuple(g.ravel() for g in mesh_o),
                                 grid.a_per_dim, order="C")
    return nodes, weights, owner


def build_chain(spec: SystemSpec, grid: Grid, method: str = "quadrature",
                seed: int = 0, n_samples: int = 100_000,
                quad_order: int = 8) -> QuantizedChain:
    """Induce a finite chain on the grid centers from the state kernel.

    ``method="quadrature"`` integrates the transition density over every cell
    with fixed-order Gauss-Legendre rules (needs ``density`` and
    ``initial_density``); ``method="monte_carlo"`` histograms ``n_samples``
    kernel draws per source center.  Rows are renormalized; a row with no
    mass raises ChainConstructionError naming it.

    A kernel declaring ``increment_density`` (1-D boxes only) has rows that
    are one shifted step profile up to a per-row constant.  Quadrature then
    integrates that profile once, relative to the first and the last center
    (2 * quad_order * K evaluations instead of quad_order * K^2), and
    copies it into the matrix as a Toeplitz view before the renormalization.
    Kernels without the hook take the row-by-row path, which is also the
    reference the profile path is tested against.
    """
    if spec.kernel.order != 1:
        raise ChainConstructionError(
            f"chain construction needs an order-1 kernel, got order {spec.kernel.order}")
    k = grid.total_points
    centers = grid.centers
    transition = np.empty((k, k))

    if method == "quadrature":
        if spec.kernel.density is None or spec.kernel.initial_density is None:
            raise ChainConstructionError(
                "quadrature construction needs density and initial_density")
        nodes, weights, owner = _gl_cells(grid, quad_order)

        def cell_mass(dens):
            dens = np.asarray(dens, dtype=float).reshape(len(nodes))
            return np.bincount(owner, weights=dens * weights, minlength=k)

        hook = spec.kernel.increment_density
        if hook is not None:
            if grid.space.dim != 1:
                raise ChainConstructionError(
                    f"increment_density needs a 1-D box, the state box has "
                    f"M={grid.space.dim} axes")
            # Offsets from the last center give the cell masses d = -(k-1)..0
            # cells from the source, offsets from the first center d = 0..k-1;
            # row r of the chain is profile[k-1-r : 2k-1-r].
            back, fwd = (cell_mass(hook(nodes - src)) for src in (centers[-1], centers[0]))
            profile = np.concatenate([back, fwd[1:]])
            transition[:] = sliding_window_view(profile, k)[::-1]
        else:
            for row in range(k):
                transition[row] = cell_mass(spec.kernel.density(1, centers[row], nodes))
        initial = cell_mass(spec.kernel.initial_density(nodes))
        label = "quadrature"
    elif method == "monte_carlo":
        m = grid.space.dim
        for row in range(k):
            src = np.broadcast_to(centers[row], (n_samples, m))
            draws = spec.kernel.sampler(1, src, make_rng(seed, 5, row))
            idx = quantize_points(grid, np.asarray(draws, dtype=float).reshape(n_samples, m))
            transition[row] = np.bincount(idx, minlength=k) / n_samples
        draws0 = spec.kernel.initial_sampler(make_rng(seed, 6), n_samples)
        idx0 = quantize_points(grid, np.asarray(draws0, dtype=float).reshape(n_samples, m))
        initial = np.bincount(idx0, minlength=k) / n_samples
        label = f"monte_carlo({n_samples})"
    else:
        raise ValueError(f"unknown build method {method!r}")

    row_mass = transition.sum(axis=1)
    if np.any(row_mass <= 0.0):
        row = int(np.argmax(row_mass <= 0.0))
        raise ChainConstructionError(
            f"row {row} (center {centers[row]}) received zero transition mass")
    transition /= row_mass[:, None]
    init_mass = initial.sum()
    if init_mass <= 0.0:
        raise ChainConstructionError("initial law received zero mass")
    initial = initial / init_mass
    return QuantizedChain(grid=grid, transition=transition, initial=initial,
                          build_method=label)
