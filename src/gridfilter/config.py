"""Run configuration: flat key-value files with nested sections (INI dialect).

Sections: [model] selects and parameterizes a registered system, [run] holds
horizon/seed/output, [filter] the single-resolution settings, [converge] the
sweep, [verify] the check suite.  Parsing and rendering round-trip exactly;
no environment variables are consulted, and the only override channel is the
documented CLI flag set.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, replace

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
        if not self.model_id:
            raise ConfigError("missing [model] id")
        if self.horizon < 0:
            raise ConfigError("[run] horizon must be >= 0")
        if self.seed < 0:
            raise ConfigError("[run] seed must be >= 0")
        if self.resolution < 1:
            raise ConfigError("[filter] resolution must be >= 1")
        if self.build_method not in ("quadrature", "monte_carlo"):
            raise ConfigError(
                f"[filter] build_method {self.build_method!r} is not one of "
                "quadrature, monte_carlo")
        if self.n_samples < 1:
            raise ConfigError("[filter] n_samples must be >= 1")
        if not self.resolutions:
            raise ConfigError("[converge] resolutions must be nonempty")
        if min(self.resolutions) < 1:
            raise ConfigError("[converge] resolutions must all be >= 1")
        if not self.c_const > 0.0:
            raise ConfigError("[converge] c must be > 0")
        for key, value in (("n_pairs", self.n_pairs), ("n_trials", self.n_trials),
                           ("n_trajectories", self.n_conc_traj)):
            if value < 1:
                raise ConfigError(f"[verify] {key} must be >= 1")
        for n, c, horizon in self.concentration_cases:
            if n < 1 or not c > 0.0 or horizon < 0:
                raise ConfigError(
                    f"[verify] concentration case {n}:{c!r}:{horizon} needs "
                    "n >= 1, c > 0 and horizon >= 0")


def _coerce(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from exc
    if not parser.has_section("model") or not parser.has_option("model", "id"):
        raise ConfigError("missing [model] id")
    model_id = parser.get("model", "id")
    model_params = {key: _coerce(val) for key, val in parser.items("model")
                    if key != "id"}
    cfg = RunConfig(model_id=model_id, model_params=model_params)

    def take(section: str, option: str, conv, current):
        if parser.has_option(section, option):
            raw = parser.get(section, option)
            try:
                return conv(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"[{section}] {option}: {exc}") from exc
        return current

    ints = lambda raw: tuple(int(v) for v in raw.split())
    floats = lambda raw: tuple(float(v) for v in raw.split())

    def cases(raw: str):
        out = []
        for item in raw.split():
            parts = item.split(":")
            if len(parts) != 3:
                raise ValueError(f"case {item!r} is not n:c:horizon")
            out.append((int(parts[0]), float(parts[1]), int(parts[2])))
        return tuple(out)

    cfg = replace(
        cfg,
        horizon=take("run", "horizon", int, cfg.horizon),
        seed=take("run", "seed", int, cfg.seed),
        out_dir=take("run", "out_dir", str, cfg.out_dir),
        resolution=take("filter", "resolution", int, cfg.resolution),
        build_method=take("filter", "build_method", str, cfg.build_method),
        n_samples=take("filter", "n_samples", int, cfg.n_samples),
        resolutions=take("converge", "resolutions", ints, cfg.resolutions),
        a_ref=take("converge", "a_ref", int, cfg.a_ref),
        c_const=take("converge", "c", float, cfg.c_const),
        n_traj=take("converge", "n_traj", int, cfg.n_traj),
        n_pairs=take("verify", "n_pairs", int, cfg.n_pairs),
        n_trials=take("verify", "n_trials", int, cfg.n_trials),
        n_conc_traj=take("verify", "n_trajectories", int, cfg.n_conc_traj),
        chi2_u=take("verify", "chi2_u", floats, cfg.chi2_u),
        chi2_n=take("verify", "chi2_n", ints, cfg.chi2_n),
        concentration_cases=take("verify", "concentration", cases,
                                 cfg.concentration_cases),
    )
    cfg.validate()
    return cfg


def render_config(cfg: RunConfig) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    parser["model"] = {"id": cfg.model_id}
    for key, value in cfg.model_params.items():
        parser["model"][key] = _fmt(value)
    parser["run"] = {"horizon": str(cfg.horizon), "seed": str(cfg.seed),
                     "out_dir": cfg.out_dir}
    parser["filter"] = {"resolution": str(cfg.resolution),
                        "build_method": cfg.build_method,
                        "n_samples": str(cfg.n_samples)}
    parser["converge"] = {"resolutions": " ".join(str(a) for a in cfg.resolutions),
                          "a_ref": str(cfg.a_ref), "c": _fmt(cfg.c_const),
                          "n_traj": str(cfg.n_traj)}
    parser["verify"] = {
        "n_pairs": str(cfg.n_pairs), "n_trials": str(cfg.n_trials),
        "n_trajectories": str(cfg.n_conc_traj),
        "chi2_u": " ".join(_fmt(u) for u in cfg.chi2_u),
        "chi2_n": " ".join(str(n) for n in cfg.chi2_n),
        "concentration": " ".join(f"{n}:{_fmt(c)}:{t}"
                                  for n, c, t in cfg.concentration_cases),
    }
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
