"""CSV files of '#'-prefixed metadata lines, a header row and a numeric body."""

from __future__ import annotations

import contextlib
import os
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError

__all__ = ["write_csv", "read_csv"]


@contextlib.contextmanager
def _file_access(action: str, path: str):
    """Raise an OSError or a UnicodeDecodeError of the block as a ConfigError
    saying ``cannot <action> <path>``."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot {action} {path}: {exc}") from exc


def write_csv(path: str, meta: Mapping[str, object], header: Sequence[str],
              rows: Iterable[Sequence[object]]) -> None:
    """Write ``path``, making its directory; ConfigError naming the path when
    either cannot be made or written."""
    with _file_access("write", path):
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for key, value in meta.items():
                fh.write(f"# {key} = {value}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(value: object) -> str:
    """A CSV cell or config value as text; a tuple is an n:c:horizon case."""
    if isinstance(value, tuple):
        return ":".join(map(_fmt, value))
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def read_csv(path: str, numeric: bool = True) -> tuple[dict[str, str], list[str], np.ndarray]:
    """(meta, header, data) of a file ``write_csv`` wrote: data (rows,
    columns), floats, or strings unless ``numeric``.  ConfigError: a path
    that cannot be read or is not UTF-8, no header, or a malformed or
    wrong-width row, naming it (1-based after the header)."""
    meta: dict[str, str] = {}
    header: list[str] = []
    body: list[list] = []
    with _file_access("read", path), open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "=" in line:
                    key, _, value = line[1:].partition("=")
                    meta[key.strip()] = value.strip()
                continue
            if not header:
                header = [c.strip() for c in line.split(",")]
                continue
            cells = line.split(",")
            if len(cells) != len(header):
                raise ConfigError(
                    f"{path}: row {len(body) + 1} has {len(cells)} fields, "
                    f"expected {len(header)}")
            if numeric:
                try:
                    body.append([float(c) for c in cells])
                except ValueError as exc:
                    raise ConfigError(f"{path}: row {len(body) + 1}: {exc}") from exc
            else:
                body.append(cells)
    if not header:
        raise ConfigError(f"{path}: no header row")
    if numeric:
        data = np.asarray(body, dtype=float) if body else np.empty((0, len(header)))
    else:
        data = np.asarray(body, dtype=object) if body else np.empty((0, len(header)), dtype=object)
    return meta, header, data
