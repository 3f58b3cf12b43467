"""Per-path random streams drawn as one generator."""

from __future__ import annotations

import numpy as np

from .errors import ModelDefinitionError


class PathStreams:
    """One generator per path, drawn as one ``rng``: a draw whose leading size
    is the path count B takes row b from generator b, the values path b gets
    drawn alone.  ModelDefinitionError, naming it: a method other than
    ``random``, ``uniform`` and ``standard_normal``, or a size without B."""

    def __init__(self, gens: list[np.random.Generator]):
        self._gens = gens

    def _rows(self, method: str, size, *args) -> np.ndarray:
        shape = () if size is None else tuple(np.atleast_1d(size).tolist())
        if shape[:1] != (len(self._gens),):
            raise ModelDefinitionError(
                f"rng.{method}(size={size!r}) on per-path streams: the leading "
                f"size must be the path count {len(self._gens)}")
        args = [np.broadcast_to(a, shape) for a in args]
        return np.stack([getattr(g, method)(*(a[b] for a in args), size=shape[1:])
                         for b, g in enumerate(self._gens)])

    def random(self, size=None) -> np.ndarray:
        return self._rows("random", size)

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return self._rows("uniform", size, low, high)

    def standard_normal(self, size=None) -> np.ndarray:
        return self._rows("standard_normal", size)

    def __getattr__(self, name: str):
        raise ModelDefinitionError(
            f"rng.{name} is not offered by per-path streams; draw with random, "
            "uniform or standard_normal")
