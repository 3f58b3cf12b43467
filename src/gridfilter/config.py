"""Run configuration: flat key-value files with nested sections (INI dialect).

Sections: [model] selects and parameterizes a registered system, [run] holds
horizon/seed/output, [filter] the single-resolution settings, [converge] the
sweep, [verify] the check suite; any other section, or a key outside [model]
that ``_KEYS`` does not declare, is refused.  Parsing and rendering
round-trip exactly; no environment variables are consulted, and the only
override channel is the documented CLI flag set.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field

from .csvio import _file_access, _fmt
from .errors import ConfigError

__all__ = ["RunConfig", "parse_config", "render_config", "load_config"]


@dataclass
class RunConfig:
    model_id: str
    model_params: dict = field(default_factory=dict)
    horizon: int = 20
    seed: int = 0
    out_dir: str = "out"
    resolution: int = 64
    build_method: str = "quadrature"
    n_samples: int = 100_000
    resolutions: tuple[int, ...] = (8, 16, 32, 64, 128, 256)
    a_ref: int = 2048
    c_const: float = 1.0
    n_traj: int = 24
    n_pairs: int = 2000
    n_trials: int = 1000
    n_conc_traj: int = 100_000
    chi2_u: tuple[float, ...] = (0.5, 1.0, 2.0, 5.0)
    chi2_n: tuple[int, ...] = (1, 2, 8)
    concentration_cases: tuple[tuple[int, float, int], ...] = ((2, 1.0, 0), (2, 1.0, 9), (4, 1.0, 9))

    def validate(self) -> None:
        """Refuse a value that the run cannot use, naming its key."""
        if not self.model_id:
            raise ConfigError("missing [model] id")
        if not 0.0 < self.c_const < math.inf:
            raise ConfigError("[converge] c must be > 0 and finite")
        for section, option, name, _, least in _KEYS:
            value = getattr(self, name)
            many = isinstance(value, tuple)
            values = value if many else (value,)
            if not values:
                raise ConfigError(f"[{section}] {option} must be nonempty")
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ConfigError(f"[{section}] {option} must "
                                  f"{'all ' if many else ''}be finite")
            if least is not None and min(values) < least:
                raise ConfigError(f"[{section}] {option} must "
                                  f"{'all ' if many else ''}be >= {least}")
        if self.build_method not in ("quadrature", "monte_carlo"):
            raise ConfigError(
                f"[filter] build_method {self.build_method!r} is not one of "
                "quadrature, monte_carlo")
        for n, c, horizon in self.concentration_cases:
            if n < 1 or not 0.0 < c < math.inf or horizon < 0:
                raise ConfigError(
                    f"[verify] concentration case {n}:{c!r}:{horizon} needs "
                    "n >= 1, finite c > 0 and horizon >= 0")


def _list_of(conv):
    return lambda raw: tuple(conv(v) for v in raw.split())


def _case(item: str) -> tuple[int, float, int]:
    parts = item.split(":")
    if len(parts) != 3:
        raise ValueError(f"case {item!r} is not n:c:horizon")
    return int(parts[0]), float(parts[1]), int(parts[2])


# Every key outside [model], once: section, option, RunConfig field, parser,
# and the least allowed value (of each element, for a list; None when only a
# key-specific check in ``validate`` applies).
_KEYS = (
    ("run", "horizon", "horizon", int, 0),
    ("run", "seed", "seed", int, 0),
    ("run", "out_dir", "out_dir", str, None),
    ("filter", "resolution", "resolution", int, 1),
    ("filter", "build_method", "build_method", str, None),
    ("filter", "n_samples", "n_samples", int, 1),
    ("converge", "resolutions", "resolutions", _list_of(int), 1),
    ("converge", "a_ref", "a_ref", int, None),
    ("converge", "c", "c_const", float, None),
    ("converge", "n_traj", "n_traj", int, 1),
    ("verify", "n_pairs", "n_pairs", int, 1),
    ("verify", "n_trials", "n_trials", int, 1),
    ("verify", "n_trajectories", "n_conc_traj", int, 1),
    ("verify", "chi2_u", "chi2_u", _list_of(float), 0),
    ("verify", "chi2_n", "chi2_n", _list_of(int), 1),
    ("verify", "concentration", "concentration_cases", _list_of(_case), None),
)
_SECTIONS = ("model", "run", "filter", "converge", "verify")


def _coerce(text: str):
    """A [model] value as an int, else a float, else the text itself."""
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    return text


def parse_config(text: str) -> RunConfig:
    # No default section: a [DEFAULT] key would reach every section unchecked.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from exc
    keys = {(section, option) for section, option, *_ in _KEYS}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"[{section}] is not a known section; known: "
                              f"{', '.join(_SECTIONS)}")
        for option in parser.options(section):
            if section != "model" and (section, option) not in keys:
                raise ConfigError(f"[{section}] {option} is not a known key")
    if not parser.has_option("model", "id"):
        raise ConfigError("missing [model] id")
    values = {}
    for section, option, name, parse, _ in _KEYS:
        if parser.has_option(section, option):
            try:
                values[name] = parse(parser.get(section, option))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"[{section}] {option}: {exc}") from exc
    cfg = RunConfig(model_id=parser.get("model", "id"),
                    model_params={key: _coerce(val) for key, val in parser.items("model")
                                  if key != "id"},
                    **values)
    cfg.validate()
    return cfg


def render_config(cfg: RunConfig) -> str:
    sections = {"model": {"id": cfg.model_id,
                          **{key: _fmt(val) for key, val in cfg.model_params.items()}}}
    for section, option, name, _, _ in _KEYS:
        value = getattr(cfg, name)
        sections.setdefault(section, {})[option] = (
            " ".join(map(_fmt, value)) if isinstance(value, tuple) else _fmt(value))
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def load_config(path: str) -> RunConfig:
    """Parse the file at ``path``; one that cannot be read or is not UTF-8 is
    a ConfigError naming the path."""
    with _file_access("read config", path), open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
