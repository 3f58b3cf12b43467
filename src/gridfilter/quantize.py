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
from .model import StateSpace, SystemSpec, Trajectory, _gl_panels, make_rng

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
    bad = ~np.all((xs >= lo) & (xs <= hi), axis=1)
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


def _check_finite(name: str, values: np.ndarray) -> None:
    bad = ~np.isfinite(values)
    if np.any(bad):
        at = tuple(int(i) for i in np.argwhere(bad)[0])
        where = at[0] if len(at) == 1 else at
        raise ChainConstructionError(
            f"{name} entry {where} is {values[at]}, not finite")


def _row_mass(grid: Grid, rows: np.ndarray) -> np.ndarray:
    """Sums of a chain's unnormalized rows; a row without mass is refused
    by name."""
    mass = rows.sum(axis=1)
    if np.any(mass <= 0.0):
        row = int(np.argmax(mass <= 0.0))
        raise ChainConstructionError(
            f"row {row} (center {grid.centers[row]}) received zero transition mass")
    return mass


# Stacks are predicted in b x b blocks, b = min(_BLOCK, K): every block on
# one block-diagonal of a Toeplitz matrix is the same.
_BLOCK = 64


class QuantizedChain:
    """Finite chain on grid-cell centers: one transition operator + initial law.

    The operator is given in exactly one of two forms.  ``transition`` is a
    row-stochastic K x K matrix.  ``profile``, shape (2K-1,), is a
    non-negative offset profile whose rows are its windows:
    ``transition[r, c] == profile[c - r + K - 1] / row_mass[r]``, where the
    chain derives ``row_mass`` (K,) from the profile as the window sums.  A
    profile chain holds no K x K matrix: reading ``transition`` builds one
    anew on every read and does not keep it, for the oracles
    (``path_sum_oracle``, ``to_csv``, the tests); ``predict`` never does.
    Chains compare equal only to themselves.
    """

    def __init__(self, grid: Grid, transition: Optional[np.ndarray],
                 initial: np.ndarray, build_method: str = "direct",
                 profile: Optional[np.ndarray] = None):
        if (transition is None) == (profile is None):
            raise ChainConstructionError(
                "a chain takes a transition matrix or a profile")
        k = grid.total_points
        self.grid = grid
        self.build_method = build_method
        self.profile = self.row_mass = self._matrix = None
        if profile is not None:
            self.profile = np.asarray(profile, dtype=float)
            if self.profile.shape != (2 * k - 1,):
                raise ChainConstructionError(
                    f"profile shape {self.profile.shape}, expected {(2 * k - 1,)}")
            bad = ~(np.isfinite(self.profile) & (self.profile >= 0))
            if np.any(bad):
                d = int(np.argmax(bad))
                raise ChainConstructionError(
                    f"profile entry {d} is {self.profile[d]}, not finite and >= 0")
            self.row_mass = _row_mass(grid, sliding_window_view(self.profile, k)[::-1])
        else:
            self._matrix = np.asarray(transition, dtype=float)
            if self._matrix.shape != (k, k):
                raise ChainConstructionError(
                    f"transition shape {self._matrix.shape}, expected {(k, k)}")
            _check_finite("transition", self._matrix)
            if np.any(self._matrix < 0):
                raise ChainConstructionError("negative probability entry")
            sums = self._matrix.sum(axis=1)
            bad = np.argmax(np.abs(sums - 1.0))
            if abs(sums[bad] - 1.0) > 1e-12:
                raise ChainConstructionError(
                    f"transition row {bad} sums to {sums[bad]!r}, not 1")
        self.initial = np.asarray(initial, dtype=float)
        if self.initial.shape != (k,):
            raise ChainConstructionError(
                f"initial shape {self.initial.shape}, expected {(k,)}")
        _check_finite("initial", self.initial)
        if np.any(self.initial < 0):
            raise ChainConstructionError("negative probability entry")
        if abs(self.initial.sum() - 1.0) > 1e-12:
            raise ChainConstructionError(
                f"initial law sums to {self.initial.sum()!r}, not 1")

    @property
    def transition(self) -> np.ndarray:
        """The K x K matrix: as given, or built from the profile on this read."""
        if self.profile is None:
            return self._matrix
        k = self.grid.total_points
        return sliding_window_view(self.profile, k)[::-1] / self.row_mass[:, None]

    @cached_property
    def _blocks(self) -> np.ndarray:
        """The 2n-1 distinct b x b blocks of the Toeplitz matrix
        profile[c - r + K - 1] (rows and columns zero-padded to n*b), in
        block-diagonal order: ``_blocks[D + n - 1]`` multiplies block
        column J - D into block column J."""
        k = self.grid.total_points
        b = min(_BLOCK, k)
        n = -(-k // b)
        windows = sliding_window_view(np.pad(self.profile, n * b - k), b)
        return windows[np.arange(2 * n - 1)[:, None] * b + np.arange(b - 1, -1, -1)]

    def predict(self, weights: np.ndarray) -> np.ndarray:
        """One step of the chain: ``weights @ transition`` for (K,) or (B, K)
        weights.

        On a chain with a profile, with u = weights / row_mass, one
        trajectory (K,) or (1, K) is ``convolve(profile, u, "valid")`` and a
        stack is one GEMM per block-diagonal of the Toeplitz matrix, on the
        chain's 2n-1 distinct b x b blocks (b = min(64, K), n = ceil(K/b);
        2Kb numbers built on the first stacked call).  Neither reads the
        K x K matrix, and both sum non-negative terms directly, with no FFT,
        so small predicted masses keep their relative precision.  Chains
        without a profile use the matrix product.
        """
        k = self.grid.total_points
        weights = np.asarray(weights, dtype=float)
        if weights.ndim == 0 or weights.shape[-1] != k:
            given = weights.shape[-1] if weights.ndim else "a scalar"
            raise DomainError(
                f"weights have length {given} along the last axis, the chain "
                f"has K={k} cells")
        if self.profile is None:
            return weights @ self._matrix
        if weights.size == k:
            flat = weights.reshape(k) / self.row_mass
            return np.convolve(self.profile, flat, "valid").reshape(weights.shape)
        blocks = self._blocks
        n, b = (len(blocks) + 1) // 2, blocks.shape[-1]
        stack = weights.reshape(-1, k)
        rows = len(stack)
        # block-major layout: block I of every trajectory is one (rows, b)
        # slab, so a block-diagonal is a single 2-D GEMM
        padded = np.zeros((rows, n * b))
        padded[:, :k] = stack / self.row_mass
        u = padded.reshape(rows, n, b).transpose(1, 0, 2).reshape(n * rows, b)
        out = np.zeros_like(u)
        for d in range(1 - n, n):
            shift = abs(d) * rows
            if d >= 0:
                out[shift:] += u[:len(u) - shift] @ blocks[d + n - 1]
            else:
                out[:len(u) - shift] += u[shift:] @ blocks[d + n - 1]
        out = out.reshape(n, rows, b).transpose(1, 0, 2).reshape(rows, n * b)
        return out[:, :k].reshape(weights.shape)

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
    for d in range(grid.space.dim):
        nodes, weights = _gl_panels(grid.edges(d), order)
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
    (2 * quad_order * K evaluations instead of quad_order * K^2), and the
    chain is that profile alone, at O(K) memory: it derives its row masses
    itself, and no K x K matrix is made unless an oracle reads
    ``transition``.  Kernels without the hook take the row-by-row path,
    which is also the reference the profile path is tested against; their
    chains, like monte_carlo ones, are dense matrices and carry no profile.
    """
    if spec.kernel.order != 1:
        raise ChainConstructionError(
            f"chain construction needs an order-1 kernel, got order {spec.kernel.order}")
    k = grid.total_points
    centers = grid.centers
    transition = profile = None

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
        else:
            transition = np.empty((k, k))
            for row in range(k):
                transition[row] = cell_mass(spec.kernel.density(1, centers[row], nodes))
        initial = cell_mass(spec.kernel.initial_density(nodes))
        label = "quadrature"
    elif method == "monte_carlo":
        m = grid.space.dim
        transition = np.empty((k, k))
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

    if profile is None:
        transition /= _row_mass(grid, transition)[:, None]
    init_mass = initial.sum()
    if init_mass <= 0.0:
        raise ChainConstructionError("initial law received zero mass")
    return QuantizedChain(grid, transition, initial / init_mass, label, profile)
