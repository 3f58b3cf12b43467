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

import sys
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ChainConstructionError, ConfigError, DomainError
from .model import (_SLICE_ENTRIES, StateSpace, SystemSpec, _checked, _gl_panels,
                    make_rng)

__all__ = [
    "Grid",
    "QuantizedChain",
    "quantize_points",
    "build_chain",
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

    @cached_property
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
    bad = ~grid.space.contains(xs)
    if np.any(bad):
        raise DomainError(f"point {xs[np.argmax(bad)]} outside the box "
                          f"[{lo}, {hi}]")
    a = np.asarray(grid.a_per_dim)
    frac = (xs - lo) / (hi - lo) * a
    idx = np.minimum(np.floor(frac).astype(int), a - 1)
    return np.ravel_multi_index(tuple(idx.T), grid.a_per_dim, order="C")


def _checked_entries(name: str, values: np.ndarray, shape: tuple) -> np.ndarray:
    """``values`` as floats, refused unless they have ``shape`` and every
    entry is finite and >= 0; a refusal names the first bad entry."""
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ChainConstructionError(f"{name} shape {values.shape}, expected {shape}")
    bad = ~(np.isfinite(values) & (values >= 0))
    if np.any(bad):
        at = tuple(int(i) for i in np.argwhere(bad)[0])
        where = at[0] if len(at) == 1 else at
        raise ChainConstructionError(
            f"{name} entry {where} is {values[at]}, not finite and >= 0")
    return values


def _row_mass(grid: Grid, rows: np.ndarray) -> np.ndarray:
    """Sums of a chain's unnormalized rows; a row without mass is refused
    by name."""
    mass = rows.sum(axis=1)
    if np.any(mass <= 0.0):
        row = int(np.argmax(mass <= 0.0))
        raise ChainConstructionError(
            f"row {row} (center {grid.centers[row]}) received zero transition mass")
    return mass


# An FFT-predicted entry errs by at most delta = _FFT_C eps log2(L) ||profile||
# ||u|| (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed.,
# ch. 24); rows certified worse than _TAU_MAX are summed directly.
# ``run_grid_filter`` hands a profile chain at most _FFT_SLICE // L rows at a
# time, so the FFT buffers stay small however many trajectories it filters.
_FFT_C = 4.0
_TAU_MAX = 1e-13
_FFT_SLICE = 1 << 14


class QuantizedChain:
    """Finite chain on grid-cell centers: one transition operator + initial law.

    The operator's shape gives its form.  A (K, K) ``operator`` is the
    row-stochastic ``transition``; a (2K-1,) one is a non-negative offset
    ``profile`` whose rows are its windows, ``transition[r, c] ==
    profile[c - r + K - 1] / row_mass[r]`` with the window sums ``row_mass``
    (K,), so at K = 1, (1,) is a profile and (1, 1) a matrix.  Any other
    shape, and an operator or ``initial`` entry that is not finite and >= 0,
    raise ChainConstructionError naming it.  A profile chain holds no K x K
    matrix: reading ``transition`` builds one anew on every read and does not
    keep it, for the oracles; ``predict`` never does.  Chains compare equal
    only to themselves.
    """

    def __init__(self, grid: Grid, operator: np.ndarray, initial: np.ndarray,
                 build_method: str = "direct"):
        k = grid.total_points
        self.grid = grid
        self.build_method = build_method
        self.profile = self.row_mass = self._matrix = None
        operator = np.asarray(operator, dtype=float)
        if operator.ndim == 1:
            self.profile = _checked_entries("profile", operator, (2 * k - 1,))
            self.row_mass = _row_mass(grid, sliding_window_view(self.profile, k)[::-1])
        elif operator.ndim == 2:
            self._matrix = _checked_entries("transition", operator, (k, k))
            sums = self._matrix.sum(axis=1)
            bad = np.argmax(np.abs(sums - 1.0))
            if abs(sums[bad] - 1.0) > 1e-12:
                raise ChainConstructionError(
                    f"transition row {bad} sums to {sums[bad]!r}, not 1")
        else:
            raise ChainConstructionError(
                f"operator shape {operator.shape} is neither a {(2 * k - 1,)} "
                f"profile nor a {(k, k)} matrix")
        self.initial = _checked_entries("initial", initial, (k,))
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
    def _spectrum(self) -> tuple[np.ndarray, int, float]:
        """rfft of the profile at L = 2^ceil(log2(2K-1)), L, and the entry
        error bound delta per unit ||u||_2."""
        n_fft = 1 << (len(self.profile) - 1).bit_length()
        delta_per_norm = (_FFT_C * sys.float_info.epsilon * np.log2(max(n_fft, 2))
                          * float(np.linalg.norm(self.profile)))
        return np.fft.rfft(self.profile, n_fft), n_fft, delta_per_norm

    def _checked(self, weights: np.ndarray) -> np.ndarray:
        k = self.grid.total_points
        weights = np.asarray(weights, dtype=float)
        if weights.ndim == 0 or weights.shape[-1] != k:
            given = weights.shape[-1] if weights.ndim else "a scalar"
            raise DomainError(
                f"weights have length {given} along the last axis, the chain "
                f"has K={k} cells")
        return weights

    def predict(self, weights: np.ndarray) -> np.ndarray:
        """One exact step of the chain, ``weights @ transition`` for (K,) or
        (B, K) weights: the oracle and the fallback of ``certified_predict``.
        On a profile chain each row of u = weights / row_mass is the direct
        sum ``np.correlate(profile, u[::-1], "valid")``, so small predicted
        masses keep their relative precision, and no K x K matrix is read.
        """
        weights = self._checked(weights)
        if self.profile is None:
            return weights @ self._matrix
        rows = (weights / self.row_mass).reshape(-1, self.grid.total_points)
        return np.array([np.correlate(self.profile, u[::-1], "valid")
                         for u in rows]).reshape(weights.shape)

    def fft_buffers(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """New, uninitialized complex (rows, L//2+1) and real (rows, L)
        arrays: the spectrum and the signal of ``certified_predict``'s
        transforms of up to ``rows`` rows on this profile chain, L its FFT
        length."""
        n_fft = self._spectrum[1]
        return np.empty((rows, n_fft // 2 + 1), complex), np.empty((rows, n_fft))

    def certified_predict(self, weights: np.ndarray, log_lik: np.ndarray,
                          buffers: Optional[tuple[np.ndarray, np.ndarray]] = None
                          ) -> tuple[np.ndarray, np.ndarray]:
        """``predict`` for (K,) or (B, K) weights and the step's log-likelihood
        (they broadcast), and tau, (B,) or a scalar: a bound on the total
        variation distance between the posteriors ``predicted * exp(log_lik)``
        of this and of ``predict``.

        A profile chain predicts the rows by real FFTs of u = weights /
        row_mass at length L = 2^ceil(log2(2K-1)), all rows in one
        transform, clamped at 0; each entry is within delta =
        4 eps log2(max(L, 2)) ||profile|| ||u|| of the direct sum.  With a =
        exp(log_lik - max log_lik), tau = delta sum(a) / sum(max(predicted -
        delta, 0) a).  A row with tau above 1e-13 (or not finite) is
        recomputed by ``predict`` and equals it bit for bit.  A matrix chain
        returns the product and tau = 0.  Either way ``predicted`` is a new
        array of the broadcast shape, which the caller may overwrite.

        The transforms write through ``out=`` into the first rows of
        ``buffers``, a pair from ``fft_buffers(R)`` with R at least the
        number of rows, which also hold the call's (rows, K) temporaries
        while the transforms do not need them; their contents on return are
        scratch.  Without
        ``buffers`` the call allocates its own.  At 4 rows of K = 2048 each
        is just above glibc's 128 KiB mmap threshold, so fresh ones on every
        call of a loop pay page faults every time: ``run_grid_filter``
        allocates one pair per run, for its at most 2^14 // L rows per call,
        and the chain, which may be shared, keeps none.
        """
        weights = self._checked(weights)
        if weights.shape != np.shape(log_lik):
            weights, log_lik = np.broadcast_arrays(weights, log_lik)
        if self.profile is None:
            return weights @ self._matrix, np.zeros(weights.shape[:-1])[()]
        k = self.grid.total_points
        spectrum, n_fft, delta_per_norm = self._spectrum
        # 2-D views: the rows of a (K,) call are one row
        w, ll = weights.reshape(-1, k), log_lik.reshape(-1, k)
        n = len(w)
        f, x = (b[:n] for b in (buffers or self.fft_buffers(n)))
        # contiguous (n, K) scratch over the buffers' first n K entries, free
        # in the spectrum before the forward and after the inverse transform,
        # and in the signal before the inverse transform and after the clamp
        f_free, x_free = (b.reshape(-1)[:n * k].reshape(n, k) for b in (f.view(float), x))
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.divide(w, self.row_mass, out=x_free)
            # ||u||, summed as np.linalg.norm sums it
            squares = np.multiply(u, u, out=f_free)
            delta = delta_per_norm * np.sqrt(squares.sum(axis=-1, keepdims=True))
            np.fft.rfft(u, n_fft, out=f)
            f *= spectrum
            np.fft.irfft(f, n_fft, out=x)
            p = np.maximum(x[:, k - 1:2 * k - 1], 0.0)
            a = np.subtract(ll, ll.max(axis=-1, keepdims=True), out=f_free)
            np.exp(a, out=a)
            margin = np.subtract(p, delta, out=x_free)
            np.maximum(margin, 0.0, out=margin)
            margin *= a
            tau = delta[:, 0] * a.sum(axis=-1) / margin.sum(axis=-1)
        refused = ~(tau <= _TAU_MAX)
        if refused.any():
            p[refused] = self.predict(w[refused])
        return p.reshape(weights.shape), tau.reshape(weights.shape[:-1])[()]


def _gl_cells(grid: Grid, first: range) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """8-node Gauss-Legendre nodes per axis over the cells whose index on the
    first axis is in ``first``: (nodes (n, M), weights (n,), owning cell's
    linear index counted from the first of them (n,)).  These cells are
    contiguous in linear-index order, and so are their nodes."""
    per_dim = []
    for d in range(grid.space.dim):
        cells = first if d == 0 else range(grid.a_per_dim[d])
        nodes, weights = _gl_panels(grid.edges(d)[cells.start:cells.stop + 1])
        per_dim.append((nodes, weights, np.repeat(np.arange(len(cells)), 8)))
    mesh_n, mesh_w, mesh_o = (np.meshgrid(*axes, indexing="ij") for axes in zip(*per_dim))
    nodes = np.stack([g.ravel() for g in mesh_n], axis=-1)
    weights = np.prod(np.stack([g.ravel() for g in mesh_w], axis=-1), axis=1)
    owner = np.ravel_multi_index(tuple(g.ravel() for g in mesh_o),
                                 (len(first), *grid.a_per_dim[1:]), order="C")
    return nodes, weights, owner


def build_chain(spec: SystemSpec, grid: Grid, method: str = "quadrature",
                seed: int = 0, n_samples: int = 100_000) -> QuantizedChain:
    """Induce a finite chain on the grid centers from the state kernel.

    ``method="quadrature"`` integrates the transition density over every cell
    with 8-node Gauss-Legendre rules (needs ``density`` and
    ``initial_density``); ``method="monte_carlo"`` histograms ``n_samples``
    kernel draws per source center.  Rows are renormalized; a row with no
    mass raises ChainConstructionError naming it, a callback output of the
    wrong shape ModelDefinitionError naming the callback and t, and an
    unknown method or one the kernel cannot serve ConfigError.

    A kernel declaring ``increment_cell_mass`` (1-D boxes only) has rows
    that are one shifted step profile up to a per-row constant.  The hook on
    the 2K-1 offset cells [(d - 1/2) h, (d + 1/2) h], d = -(K-1)..K-1, called
    on at most 2^12 of them at a time, gives that profile, and the chain is
    the profile alone, at O(K) memory: no K x K matrix is made unless an
    oracle reads ``transition``.  Kernels without the hook take the
    row-by-row path, the reference for the profile path; their chains, like
    monte_carlo ones, are dense matrices.  The quadrature initial law is
    weighed over slices of the first axis's cells with at most 2^12 nodes
    (or over one of them, if it has more); each cell's mass is the same sum
    as over all nodes at once.
    """
    k = grid.total_points
    centers = grid.centers

    if method == "quadrature":
        for name in ("density", "initial_density"):
            if getattr(spec.kernel, name) is None:
                raise ConfigError(f"build method 'quadrature' needs the kernel's {name}")

        def cell_mass(cells, density, name, t):
            nodes, weights, owner = cells
            dens = _checked(density(nodes), (len(nodes),), name, t)
            return np.bincount(owner, weights=dens * weights)

        hook = spec.kernel.increment_cell_mass
        if hook is not None:
            if grid.space.dim != 1:
                raise ChainConstructionError(
                    f"increment_cell_mass needs a 1-D box, the state box has "
                    f"M={grid.space.dim} axes")
            # profile[d + k - 1] is the mass d cells from the source
            operator, h = np.empty(2 * k - 1), grid.widths[0]
            for s in range(0, 2 * k - 1, _SLICE_ENTRIES):
                d = np.arange(s, min(s + _SLICE_ENTRIES, 2 * k - 1)) + 1 - k
                operator[s:s + len(d)] = _checked(hook((d - 0.5) * h, (d + 0.5) * h),
                                                  d.shape, "increment_cell_mass", 1)
        else:
            cells = _gl_cells(grid, range(grid.a_per_dim[0]))
            operator = np.empty((k, k))
            for row, x_prev in enumerate(centers):
                operator[row] = cell_mass(cells, partial(spec.kernel.density, 1, x_prev),
                                          "density", 1)
        # the initial law, over slices of the first axis's cells
        a0 = grid.a_per_dim[0]
        step = max(1, _SLICE_ENTRIES // (k // a0 * 8**grid.space.dim))
        initial = np.concatenate([
            cell_mass(_gl_cells(grid, range(i, min(i + step, a0))),
                      spec.kernel.initial_density, "initial_density", 0)
            for i in range(0, a0, step)])
        label = "quadrature"
    elif method == "monte_carlo":
        m = grid.space.dim

        def histogram(draws, name, t):
            idx = quantize_points(grid, _checked(draws, (n_samples, m), name, t))
            return np.bincount(idx, minlength=k) / n_samples

        src = np.broadcast_to(centers[:, None], (k, n_samples, m))
        operator = np.stack([histogram(spec.kernel.sampler(1, src[row], make_rng(seed, 5, row)),
                                       "sampler", 1) for row in range(k)])
        initial = histogram(spec.kernel.initial_sampler(make_rng(seed, 6), n_samples),
                            "initial_sampler", 0)
        label = f"monte_carlo({n_samples})"
    else:
        raise ConfigError(f"unknown build method {method!r}; known: quadrature, monte_carlo")

    if np.ndim(operator) == 2:
        operator /= _row_mass(grid, operator)[:, None]
    init_mass = initial.sum()
    if init_mass <= 0.0:
        raise ChainConstructionError("initial law received zero mass")
    return QuantizedChain(grid, operator, initial / init_mass, label)
