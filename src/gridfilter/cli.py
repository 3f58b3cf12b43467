"""Command-line front end.

Subcommands: simulate, filter, converge, verify-bounds, verify-concentration,
verify.  Exit codes: 0 on success, 1 when a scientific check fails, 2 on
usage or configuration errors.  Outputs are pure functions of (config, flags),
so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import numpy as np

from .bounds import (_with_derived, audit_derived_constants, check_adjugate_bound,
                     check_lipschitz_suite, check_product_bound, check_theta_bound,
                     write_bound_reports)
from .concentration import (chi2_tail_check, concentration_experiment,
                            write_concentration_reports, write_tail_checks)
from .config import RunConfig, load_config
from .csvio import read_csv, write_csv
from .errors import ConfigError, GridFilterError
from .filtering import run_grid_filter
from .harness import convergence_sweep
from .model import Trajectory, make_rng, simulate, verify_assumptions
from .quantize import Grid, build_chain
from .registry import build_model

USAGE_ERROR = 2
CHECK_FAILED = 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        handler = {
            "simulate": cmd_simulate,
            "filter": cmd_filter,
            "converge": cmd_converge,
            "verify-bounds": cmd_verify_bounds,
            "verify-concentration": cmd_verify_concentration,
            "verify": cmd_verify,
        }[args.command]
        return handler(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except GridFilterError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridfilter",
        description="Grid-based approximate filtering and its verification suite")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("simulate", "draw a trajectory and write it as CSV"),
        ("filter", "run the grid filter over a simulated trajectory"),
        ("converge", "error-versus-resolution sweep with analytic budgets"),
        ("verify-bounds", "randomized checks of the deterministic inequalities"),
        ("verify-concentration", "tail and tame-set frequency checks"),
        ("verify", "all checks: assumptions, bounds, concentration"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to an INI run config")
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        p.add_argument("--out", default=None, help="override [run] out_dir")
        p.add_argument("--resolution", type=int, default=None,
                       help="override [filter] resolution")
    return parser


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    from dataclasses import replace
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.resolution is not None:
        if args.resolution < 1:
            raise ConfigError("--resolution must be >= 1")
        cfg = replace(cfg, resolution=args.resolution)
    return cfg


def _spec_from(cfg: RunConfig):
    return build_model(cfg.model_id, **cfg.model_params)


def _traj_path(cfg: RunConfig) -> str:
    return os.path.join(cfg.out_dir, f"trajectory_seed{cfg.seed}.csv")


def cmd_simulate(cfg: RunConfig, args) -> int:
    spec = _spec_from(cfg)
    traj = simulate(spec, cfg.horizon, cfg.seed)
    path = _traj_path(cfg)
    m, n = traj.states.shape[1], traj.observations.shape[1]
    header = ["t"] + [f"x{d}" for d in range(m)] + [f"y{d}" for d in range(n)]
    rows = [[t, *traj.states[t], *traj.observations[t]]
            for t in range(traj.horizon + 1)]
    write_csv(path, {"model_id": cfg.model_id, "seed": cfg.seed,
                     "horizon": cfg.horizon, "state_dim": m, "obs_dim": n},
              header, rows)
    print(f"wrote {path}")
    return 0


def _load_trajectory(cfg: RunConfig, spec) -> Trajectory:
    path = _traj_path(cfg)
    if not os.path.exists(path):
        raise ConfigError(f"no trajectory at {path}; run `gridfilter simulate` first")
    meta, header, data = read_csv(path)
    m, n = spec.space.dim, spec.obs.n
    expected = 1 + m + n
    if len(header) != expected:
        raise ConfigError(
            f"{path}: {len(header)} columns, model expects {expected} "
            f"(state dim {m}, observation dim {n})")
    if meta.get("model_id", cfg.model_id) != cfg.model_id:
        raise ConfigError(
            f"{path} was simulated from model {meta.get('model_id')!r}, "
            f"config says {cfg.model_id!r}")
    return Trajectory(states=data[:, 1:1 + m], observations=data[:, 1 + m:],
                      seed=int(meta.get("seed", cfg.seed)))


def cmd_filter(cfg: RunConfig, args) -> int:
    spec = _spec_from(cfg)
    traj = _load_trajectory(cfg, spec)
    chain = build_chain(spec, Grid(spec.space, cfg.resolution), cfg.build_method,
                        seed=cfg.seed, n_samples=cfg.n_samples)
    result = run_grid_filter(spec, chain, traj.observations)
    out = os.path.join(cfg.out_dir, f"estimates_seed{cfg.seed}_a{cfg.resolution}.csv")
    result.to_csv(out, meta={"model_id": cfg.model_id, "seed": cfg.seed,
                             "chain": chain.build_method})
    print(f"wrote {out}")
    return 0


def cmd_converge(cfg: RunConfig, args) -> int:
    spec = audit_derived_constants(_spec_from(cfg), n_pairs=cfg.n_pairs,
                                   seed=cfg.seed)
    curve = convergence_sweep(
        spec, cfg.horizon, cfg.resolutions, cfg.n_traj, cfg.c_const,
        seed=cfg.seed, a_ref=cfg.a_ref, build_method=cfg.build_method,
        n_samples=cfg.n_samples)
    curve_path = os.path.join(cfg.out_dir, "curve.csv")
    kg_path = os.path.join(cfg.out_dir, "kg.csv")
    curve.to_csv(curve_path)
    curve.kg.to_csv(kg_path, meta={"model_id": cfg.model_id, "seed": cfg.seed})
    print(f"wrote {curve_path}")
    print(f"wrote {kg_path}")
    if curve.reference_converged is False:
        print(f"check failed: reference filter unconverged "
              f"(gap {curve.reference_gap:.3e})", file=sys.stderr)
        return CHECK_FAILED
    return 0


def _product_trials(cfg: RunConfig, rng: np.random.Generator):
    for _ in range(cfg.n_trials):
        n = int(rng.integers(2, 6))
        length = int(rng.integers(1, 5))
        a_seq = [rng.standard_normal((n, n)) for _ in range(length)]
        b_seq = [rng.standard_normal((n, n)) for _ in range(length)]
        yield a_seq, b_seq


def cmd_verify_bounds(cfg: RunConfig, args) -> int:
    spec = _spec_from(cfg)
    rng = make_rng(cfg.seed, 30)
    reports = [check_product_bound(_product_trials(cfg, rng), norm="fro",
                                   seed=cfg.seed)]
    for n_dim in (2, 3, 5):
        reports.append(check_adjugate_bound(n_dim, cfg.n_trials, seed=cfg.seed))
    suite = check_lipschitz_suite(spec, cfg.n_pairs, seed=cfg.seed)
    reports.append(suite)
    reports.append(check_theta_bound(_with_derived(spec, suite), cfg.n_trials,
                                     seed=cfg.seed))
    out = os.path.join(cfg.out_dir, "bounds.csv")
    write_bound_reports(out, reports, meta={"model_id": cfg.model_id,
                                            "seed": cfg.seed})
    print(f"wrote {out}")
    failed = [r.check_id for r in reports if not r.passed]
    for r in reports:
        print(f"{r.check_id}: worst ratio {r.worst_ratio:.6g} "
              f"({'pass' if r.passed else 'FAIL'})")
    if failed:
        print(f"check failed: {', '.join(failed)}", file=sys.stderr)
        return CHECK_FAILED
    return 0


def cmd_verify_concentration(cfg: RunConfig, args) -> int:
    spec = _spec_from(cfg)
    checks = [chi2_tail_check(n, u, cfg.n_conc_traj, seed=cfg.seed)
              for n in cfg.chi2_n for u in cfg.chi2_u]
    reports = []
    for n_dim, c_const, horizon in cfg.concentration_cases:
        case_spec = spec if spec.obs.n == n_dim else build_model(
            cfg.model_id, **{**cfg.model_params, "n": n_dim})
        reports.append(concentration_experiment(case_spec, horizon, c_const,
                                                cfg.n_conc_traj, seed=cfg.seed))
    write_tail_checks(os.path.join(cfg.out_dir, "chi2.csv"), checks,
                      meta={"seed": cfg.seed})
    write_concentration_reports(os.path.join(cfg.out_dir, "concentration.csv"),
                                reports, meta={"model_id": cfg.model_id,
                                               "seed": cfg.seed})
    print(f"wrote {os.path.join(cfg.out_dir, 'chi2.csv')}")
    print(f"wrote {os.path.join(cfg.out_dir, 'concentration.csv')}")
    ok = all(c.passed for c in checks) and all(r.passed for r in reports)
    for c in checks:
        print(f"chi2 tail n={c.n_dim} u={c.u}: {c.empirical:.5f} <= "
              f"{c.bound:.5f}+3se ({'pass' if c.passed else 'FAIL'})")
    for r in reports:
        print(f"tame set n={r.n_dim} c={r.c_const} horizon={r.horizon}: "
              f"data {r.empirical_data:.5f} / reference "
              f"{r.empirical_reference:.5f} >= {r.bound:.5f}-3se "
              f"({'pass' if r.passed else 'FAIL'})")
    if not ok:
        print("check failed: concentration", file=sys.stderr)
        return CHECK_FAILED
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    spec = _spec_from(cfg)
    try:
        verify_assumptions(spec, n_probe=64, seed=cfg.seed, horizon=0)
        print("assumption audit: pass")
    except GridFilterError as exc:
        print(f"assumption audit: FAIL ({exc})", file=sys.stderr)
        return CHECK_FAILED
    rc_bounds = cmd_verify_bounds(cfg, args)
    rc_conc = cmd_verify_concentration(cfg, args)
    return max(rc_bounds, rc_conc)


if __name__ == "__main__":
    sys.exit(main())
