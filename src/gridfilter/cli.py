"""Command-line front end.

Subcommands: simulate, filter, converge, verify-bounds, verify-concentration,
verify.  Exit codes: 0 on success, 1 when a scientific check fails, 2 on
usage or configuration errors and on input the library refuses (DomainError,
such as a non-finite value in a trajectory CSV).  Outputs are pure functions
of (config, flags), so reruns are byte-identical.  verify-concentration and
verify run the tame-set cases in min(cases, CPUs) worker processes, beside
the other checks; each case has its own streams, so the outputs do not
depend on the worker count.  ``main`` builds the model once and hands it to
the command; a worker rebuilds its case's model from the config.  This
module names every column and metadata key of the files it writes; the
library writes none.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from typing import Optional

from .bounds import (_with_derived, audit_derived_constants, check_adjugate_bound,
                     check_lipschitz_suite, check_product_bound, check_theta_bound)
from .concentration import ConcentrationReport, chi2_tail_check, concentration_experiment
from .config import RunConfig, load_config
from .csvio import read_csv, write_csv
from .errors import ConfigError, DomainError, GridFilterError
from .filtering import run_grid_filter
from .harness import convergence_sweep
from .model import SystemSpec, Trajectory, simulate, verify_assumptions
from .quantize import Grid, build_chain
from .registry import build_model

USAGE_ERROR = 2
CHECK_FAILED = 1


def main(argv: Optional[list[str]] = None) -> int:
    given = vars(_build_parser().parse_args(argv))
    handler, path = given.pop("handler"), given.pop("config")
    try:
        cfg = replace(load_config(path), **given)
        cfg.validate()
        return handler(cfg, build_model(cfg.model_id, **cfg.model_params))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except DomainError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except GridFilterError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    """Each subcommand with its handler; a flag's dest is the RunConfig field
    it overrides, and a flag left out stays out of the namespace."""
    parser = argparse.ArgumentParser(
        prog="gridfilter",
        description="Grid-based approximate filtering and its verification suite")
    sub = parser.add_subparsers(metavar="command", required=True)
    for name, handler, help_text in [
        ("simulate", cmd_simulate, "draw a trajectory and write it as CSV"),
        ("filter", cmd_filter, "run the grid filter over a simulated trajectory"),
        ("converge", cmd_converge, "error-versus-resolution sweep with analytic budgets"),
        ("verify-bounds", cmd_verify_bounds, "randomized checks of the deterministic inequalities"),
        ("verify-concentration", cmd_verify_concentration, "tail and tame-set frequency checks"),
        ("verify", cmd_verify, "all checks: assumptions, bounds, concentration"),
    ]:
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, help="path to an INI run config")
        p.add_argument("--seed", type=int, help="override [run] seed")
        p.add_argument("--out", dest="out_dir", help="override [run] out_dir")
        if name == "filter":
            p.add_argument("--resolution", type=int, help="override [filter] resolution")
    return parser


def _traj_name(cfg: RunConfig) -> str:
    return f"trajectory_seed{cfg.seed}.csv"


def _write(cfg: RunConfig, name: str, meta: dict, columns: dict) -> None:
    """Write ``name`` under the run's out_dir; each key of ``columns`` is a
    column's header and its value the column, one entry per row."""
    path = os.path.join(cfg.out_dir, name)
    write_csv(path, meta, list(columns), zip(*columns.values(), strict=True))
    print(f"wrote {path}")


def _fields(records, names: str) -> dict:
    """One column per space-separated attribute name, one row per record."""
    return {name: [getattr(r, name) for r in records] for name in names.split()}


def cmd_simulate(cfg: RunConfig, spec: SystemSpec) -> int:
    traj = simulate(spec, cfg.horizon, cfg.seed)
    states, obs = traj.states, traj.observations
    _write(cfg, _traj_name(cfg),
           {"model_id": cfg.model_id, "seed": cfg.seed, "horizon": cfg.horizon,
            "state_dim": states.shape[1], "obs_dim": obs.shape[1]},
           {"t": range(traj.horizon + 1),
            **{f"x{d}": states[:, d] for d in range(states.shape[1])},
            **{f"y{d}": obs[:, d] for d in range(obs.shape[1])}})
    return 0


def _load_trajectory(cfg: RunConfig, spec: SystemSpec) -> Trajectory:
    path = os.path.join(cfg.out_dir, _traj_name(cfg))
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
    if meta.get("horizon", str(len(data) - 1)) != str(len(data) - 1):
        raise ConfigError(
            f"{path} has {len(data)} rows, but its metadata's horizon = "
            f"{meta['horizon']} needs one per time step 0..{meta['horizon']}")
    return Trajectory(states=data[:, 1:1 + m], observations=data[:, 1 + m:])


def cmd_filter(cfg: RunConfig, spec: SystemSpec) -> int:
    traj = _load_trajectory(cfg, spec)
    chain = build_chain(spec, Grid(spec.space, cfg.resolution), cfg.build_method,
                        seed=cfg.seed, n_samples=cfg.n_samples)
    result = run_grid_filter(spec, chain, traj.observations)
    est = result.estimates
    _write(cfg, f"estimates_seed{cfg.seed}_a{cfg.resolution}.csv",
           {"a_per_dim": " ".join(str(a) for a in chain.grid.a_per_dim),
            "horizon": len(est) - 1, "model_id": cfg.model_id, "seed": cfg.seed,
            "chain": chain.build_method},
           {"t": range(len(est)),
            **{f"estimate_{d}": est[:, d] for d in range(est.shape[1])},
            "log_norm": result.log_norms})
    return 0


def cmd_converge(cfg: RunConfig, spec: SystemSpec) -> int:
    spec = audit_derived_constants(spec, n_pairs=cfg.n_pairs, seed=cfg.seed)
    curve = convergence_sweep(
        spec, cfg.horizon, cfg.resolutions, cfg.n_traj, cfg.c_const,
        seed=cfg.seed, a_ref=cfg.a_ref, build_method=cfg.build_method,
        n_samples=cfg.n_samples)
    kg, k = curve.kg, len(curve.resolutions)
    bound_log10 = [b / math.log(10.0) for b in kg.bound_log]
    _write(cfg, "curve.csv",
           {"model_id": cfg.model_id, "horizon": kg.horizon, "c_const": kg.c_const,
            "seed": cfg.seed, "reference": curve.reference_label, "a_ref": curve.a_ref,
            "reference_converged": curve.reference_converged,
            "reference_gap": curve.reference_gap, "n_total": curve.n_total},
           {"a": curve.resolutions, "mean_sup_error": curve.mean_sup_errors,
            "max_sup_error": curve.max_sup_errors, "analytic_bound": kg.bounds(),
            "analytic_bound_log10": bound_log10, "n_traj": [curve.n_kept] * k,
            "n_rejected": [curve.n_rejected] * k})
    _write(cfg, "kg.csv",
           {"horizon": kg.horizon, "c_const": kg.c_const, "n_dim": kg.n_dim,
            "gamma": kg.gamma, "k_o": kg.k_o, "kg_t_log_t": kg.kg_t_log_t,
            "kg_log_t": kg.kg_log_t, "delta": kg.delta,
            "log10_denominator": kg.log_denominator / math.log(10.0),
            "model_id": cfg.model_id, "seed": cfg.seed},
           {"a": kg.resolutions, "sup_l1_half_cell": kg.sup_l1_half_cell,
            "sup_l1_measured": kg.sup_l1_measured, "bound_log10": bound_log10})
    print(f"fitted convergence order {curve.order:.2f} "
          "(least-squares slope of -log2 mean_sup_error over log2 a)")
    if curve.reference_converged is False:
        print(f"check failed: reference filter unconverged "
              f"(gap {curve.reference_gap:.3e})", file=sys.stderr)
        return CHECK_FAILED
    return 0


def cmd_verify_bounds(cfg: RunConfig, spec: SystemSpec) -> int:
    reports = [check_product_bound(cfg.n_trials, seed=cfg.seed, norm="fro")]
    reports += [check_adjugate_bound(n_dim, cfg.n_trials, seed=cfg.seed) for n_dim in (2, 3, 5)]
    suite = check_lipschitz_suite(spec, cfg.n_pairs, seed=cfg.seed)
    reports += [suite, check_theta_bound(_with_derived(spec, suite), cfg.n_trials, seed=cfg.seed)]
    keys = sorted({key for r in reports for key in r.constants})
    _write(cfg, "bounds.csv", {"model_id": cfg.model_id, "seed": cfg.seed},
           {**_fields(reports, "check_id n_trials worst_ratio passed"),
            **{key: [r.constants.get(key, "") for r in reports] for key in keys}})
    failed = [r.check_id for r in reports if not r.passed]
    for r in reports:
        print(f"{r.check_id}: worst ratio {r.worst_ratio:.6g} "
              f"({'pass' if r.passed else 'FAIL'})")
    if failed:
        print(f"check failed: {', '.join(failed)}", file=sys.stderr)
        return CHECK_FAILED
    return 0


def _concentration_case(cfg: RunConfig, case: tuple) -> ConcentrationReport:
    """One ``[verify] concentration`` case, run in a worker process.  It
    takes the config, not a spec, because a SystemSpec holds closures that
    cannot be pickled."""
    n_dim, c_const, horizon = case
    spec = build_model(cfg.model_id, **{**cfg.model_params, "n": n_dim})
    return concentration_experiment(spec, horizon, c_const, cfg.n_conc_traj, seed=cfg.seed)


def cmd_verify_concentration(cfg: RunConfig, spec: SystemSpec,
                             beside=lambda cfg, spec: 0) -> int:
    """Run the concentration cases in min(cases, CPUs) worker processes,
    each building its model from ``cfg``, and ``beside(cfg, spec)`` and the
    chi-squared checks here meanwhile; the result is the larger exit code."""
    # Imported here only: they would add over 1 MiB of RSS to every command.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    cases = cfg.concentration_cases
    # the CPUs this process may run on (taskset), where the OS keeps a mask
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    # fork: a worker starts from this process's imports, not a fresh numpy
    pool = ProcessPoolExecutor(min(len(cases), cpus),
                               mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(_concentration_case, cfg, case) for case in cases]
        rc_beside = beside(cfg, spec)
        checks = [chi2_tail_check(n, u, cfg.n_conc_traj, seed=cfg.seed)
                  for n in cfg.chi2_n for u in cfg.chi2_u]
        reports = [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)
    _write(cfg, "chi2.csv", {"seed": cfg.seed},
           _fields(checks, "n_dim u n_samples empirical bound std_err passed"))
    _write(cfg, "concentration.csv", {"model_id": cfg.model_id, "seed": cfg.seed},
           _fields(reports, "n_dim c_const horizon n_traj gamma_data gamma_reference "
                            "threshold_data threshold_reference empirical_data "
                            "empirical_reference bound passed"))
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
    return max(rc_beside, 0 if ok else CHECK_FAILED)


def cmd_verify(cfg: RunConfig, spec: SystemSpec) -> int:
    try:
        verify_assumptions(spec, n_probe=64, seed=cfg.seed, horizon=0)
        print("assumption audit: pass")
    except GridFilterError as exc:
        print(f"assumption audit: FAIL ({exc})", file=sys.stderr)
        return CHECK_FAILED
    return cmd_verify_concentration(cfg, spec, beside=cmd_verify_bounds)


if __name__ == "__main__":
    sys.exit(main())
