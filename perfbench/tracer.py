"""Span tracer for the benchmark's traced run, and the per-layer metrics.

`Tracer.install` wraps the public functions of every `gridfilter` layer
module with timing wrappers, rebinding each name wherever the package
imported it, so calls between modules are seen too.  It also wraps the
`QuadFormWorkspace` constructor and, on every spec that
`registry.build_model` returns, the transition density and the observation
mean and covariance callbacks.  `Tracer.uninstall` puts every original back.
Spans are kept in memory and written out as JSON lines when the run ends.

Run as a script, this file executes one traced CLI invocation:

    python3 perfbench/tracer.py --spans PATH --run-id ID -- converge --config demos/configs/demo.ini
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import itertools
import json
import math
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

PACKAGE = "gridfilter"
LAYERS = ("cli", "config", "csvio", "registry", "model", "quantize",
          "likelihood", "filtering", "harness", "bounds", "concentration")

# Per-layer metrics and their units, in the order BENCHMARK.json lists them.
# `cli.cpu_s` and `trace.overhead_s` come from the untraced run (run.py);
# every other value is derived from the spans by `layer_metrics`.
PER_LAYER = (
    ("quantize.build_chain.calls", "count"),
    ("quantize.build_chain.s", "s"),
    ("quantize.build_chain.self_s", "s"),
    ("quantize.build_chain.s.a2048", "s"),
    ("quantize.build_chain.s.a4096", "s"),
    ("quantize.chain_bytes", "bytes"),
    ("model.density_callback.calls", "count"),
    ("model.density_callback.points", "count"),
    ("model.density_callback.s", "s"),
    ("filtering.run_grid_filter.calls", "count"),
    ("filtering.run_grid_filter.s", "s"),
    ("harness.filters_per_chain", "ratio"),
    ("filtering.grid_filter_step.calls", "count"),
    ("filtering.grid_filter_step.self_s", "s"),
    ("filtering.step_ms.p50", "ms"),
    ("filtering.step_ms.p99", "ms"),
    ("filtering.cell_steps", "count"),
    ("filtering.predict_bytes", "bytes"),
    ("filtering.predict_flops", "count"),
    ("likelihood.workspaces", "count"),
    ("likelihood.log_lambda_hat_at_points.calls", "count"),
    ("likelihood.log_lambda_hat_at_points.s", "s"),
    ("likelihood.log_lambda_hat_at_points.points", "count"),
    ("harness.convergence_sweep.s", "s"),
    ("harness.convergence_sweep.self_s", "s"),
    ("harness.kept_frac", "ratio"),
    ("harness.reference_s", "s"),
    ("bounds.check_lipschitz_suite.calls", "count"),
    ("bounds.check_lipschitz_suite.s", "s"),
    ("bounds.check_lipschitz_suite.distinct_frac", "ratio"),
    ("bounds.audit_derived_constants.s", "s"),
    ("bounds.check_adjugate_bound.s", "s"),
    ("bounds.check_theta_bound.s", "s"),
    ("bounds.check_product_bound.s", "s"),
    ("model.obs_callback.calls", "count"),
    ("model.obs_callback.points", "count"),
    ("model.obs_callback.s", "s"),
    ("model.verify_assumptions.s", "s"),
    ("concentration.concentration_experiment.calls", "count"),
    ("concentration.concentration_experiment.s", "s"),
    ("concentration.chi2_tail_check.s", "s"),
    ("model.simulate_batch.s", "s"),
    ("model.simulate_batch.paths", "count"),
    ("model.simulate.calls", "count"),
    ("model.simulate.s", "s"),
    ("csvio.write_csv.calls", "count"),
    ("csvio.write_csv.s", "s"),
    ("csvio.write_csv.bytes", "bytes"),
    ("csvio.read_csv.s", "s"),
    ("config.load_config.s", "s"),
    ("registry.build_model.calls", "count"),
    ("registry.build_model.s", "s"),
    ("cli.cpu_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Span:
    """One timed call: `parent` is the id of the enclosing span, or None."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _points(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _last_arg_points(arguments: dict, result) -> dict:
    """Points in a model callback's state argument, which comes last."""
    return {"points": _points(list(arguments.values())[-1])}


def _k(chain) -> int:
    return chain.grid.total_points


# Attributes recorded on a span from the call's bound arguments and result.
# They only read shapes and fields; none changes an argument or the result.
_ATTRS: dict[str, Callable[[dict, object], dict]] = {
    "quantize.build_chain": lambda a, r: {"k": a["grid"].total_points},
    "filtering.run_grid_filter": lambda a, r: {"k": _k(a["chain"])},
    "filtering.grid_filter_step": lambda a, r: {
        "k": _k(a["chain"]), "predict": a["state"].t != -1},
    "likelihood.log_lambda_hat_at_points": lambda a, r: {
        "points": _points(a["points"])},
    "harness.convergence_sweep": lambda a, r: {
        "kept": r.n_kept, "total": r.n_total, "a_ref": r.a_ref},
    "bounds.check_lipschitz_suite": lambda a, r: {
        "args": repr([(k, v if isinstance(v, (int, float, str)) else id(v))
                      for k, v in a.items()])},
    "model.simulate_batch": lambda a, r: {"paths": int(a["n_traj"])},
    "csvio.write_csv": lambda a, r: {"bytes": os.path.getsize(a["path"])},
}


class Tracer:
    """Installs timing wrappers, collects spans, and removes the wrappers."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable[[dict, object], dict]] = None) -> Callable:
        """Return `fn` wrapped so that each call records a span `name`."""
        sig = inspect.signature(fn) if attrs is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(next(self._ids), name, 0.0, 0.0,
                        stack[-1] if stack else None, self.run_id)
            self.spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = attrs(bound.arguments, result)
            return result

        return traced

    def _replace(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer's public functions; see the module docstring."""
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer, module in zip(LAYERS, modules):
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(name, fn, _ATTRS.get(name))
                if name == "registry.build_model":
                    traced = self._wrapping_callbacks(traced)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._replace(ns, key, traced)
        workspace = importlib.import_module(f"{PACKAGE}.likelihood").QuadFormWorkspace
        self._replace(workspace, "__init__",
                      self.wrap("likelihood.QuadFormWorkspace", workspace.__init__))

    def _wrapping_callbacks(self, build_model: Callable) -> Callable:
        @functools.wraps(build_model)
        def traced(*args, **kwargs):
            spec = build_model(*args, **kwargs)
            if spec.kernel.density is not None:
                self._replace(spec.kernel, "density", self.wrap(
                    "model.density_callback", spec.kernel.density, _last_arg_points))
            for attr in ("mean_fn", "cov_fn"):
                self._replace(spec.obs, attr, self.wrap(
                    "model.obs_callback", getattr(spec.obs, attr), _last_arg_points))
            return spec
        return traced

    def uninstall(self) -> None:
        """Put back every original, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "run_id": s.run_id, "attrs": s.attrs}) + "\n")


def read_spans(path: str) -> list[Span]:
    with open(path, "r", encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def predict_cost(k: int) -> tuple[int, int]:
    """Computed (bytes, flops) of one dense predict: a K x K float64 GEMV."""
    return 8 * k * k, 2 * k * k


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every span-derived per-layer metric of one traced run (0 when idle)."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    selfs = self_times(spans)

    def group(name):
        return by_name.get(name, [])

    def calls(name):
        return float(len(group(name)))

    def total(name):
        return sum((s.duration for s in group(name)), 0.0)

    def self_s(name):
        return sum((selfs[s.id] for s in group(name)), 0.0)

    def attr_sum(name, key):
        return float(sum(s.attrs[key] for s in group(name)))

    def ratio(num, den):
        return num / den if den else 0.0

    chains = group("quantize.build_chain")

    def chain_s(k):
        return sum((s.duration for s in chains if s.attrs["k"] == k), 0.0)

    steps = group("filtering.grid_filter_step")
    predict_ks = [s.attrs["k"] for s in steps if s.attrs["predict"]]
    step_ms = sorted(s.duration * 1e3 for s in steps)
    sweeps = group("harness.convergence_sweep")
    lipschitz_args = [s.attrs["args"] for s in group("bounds.check_lipschitz_suite")]

    return {
        "quantize.build_chain.calls": calls("quantize.build_chain"),
        "quantize.build_chain.s": total("quantize.build_chain"),
        "quantize.build_chain.self_s": self_s("quantize.build_chain"),
        "quantize.build_chain.s.a2048": chain_s(2048),
        "quantize.build_chain.s.a4096": chain_s(4096),
        "quantize.chain_bytes": float(sum(8 * s.attrs["k"] ** 2 for s in chains)),
        "model.density_callback.calls": calls("model.density_callback"),
        "model.density_callback.points": attr_sum("model.density_callback", "points"),
        "model.density_callback.s": total("model.density_callback"),
        "filtering.run_grid_filter.calls": calls("filtering.run_grid_filter"),
        "filtering.run_grid_filter.s": total("filtering.run_grid_filter"),
        "harness.filters_per_chain": ratio(calls("filtering.run_grid_filter"), len(chains)),
        "filtering.grid_filter_step.calls": calls("filtering.grid_filter_step"),
        "filtering.grid_filter_step.self_s": self_s("filtering.grid_filter_step"),
        "filtering.step_ms.p50": _quantile(step_ms, 0.50),
        "filtering.step_ms.p99": _quantile(step_ms, 0.99),
        "filtering.cell_steps": attr_sum("filtering.grid_filter_step", "k"),
        "filtering.predict_bytes": float(sum(predict_cost(k)[0] for k in predict_ks)),
        "filtering.predict_flops": float(sum(predict_cost(k)[1] for k in predict_ks)),
        "likelihood.workspaces": calls("likelihood.QuadFormWorkspace"),
        "likelihood.log_lambda_hat_at_points.calls": calls("likelihood.log_lambda_hat_at_points"),
        "likelihood.log_lambda_hat_at_points.s": total("likelihood.log_lambda_hat_at_points"),
        "likelihood.log_lambda_hat_at_points.points": attr_sum(
            "likelihood.log_lambda_hat_at_points", "points"),
        "harness.convergence_sweep.s": total("harness.convergence_sweep"),
        "harness.convergence_sweep.self_s": self_s("harness.convergence_sweep"),
        "harness.kept_frac": ratio(sum(s.attrs["kept"] for s in sweeps),
                                   sum(s.attrs["total"] for s in sweeps)),
        "harness.reference_s": _reference_s(spans, sweeps),
        "bounds.check_lipschitz_suite.calls": float(len(lipschitz_args)),
        "bounds.check_lipschitz_suite.s": total("bounds.check_lipschitz_suite"),
        "bounds.check_lipschitz_suite.distinct_frac": ratio(len(set(lipschitz_args)),
                                                            len(lipschitz_args)),
        "bounds.audit_derived_constants.s": total("bounds.audit_derived_constants"),
        "bounds.check_adjugate_bound.s": total("bounds.check_adjugate_bound"),
        "bounds.check_theta_bound.s": total("bounds.check_theta_bound"),
        "bounds.check_product_bound.s": total("bounds.check_product_bound"),
        "model.obs_callback.calls": calls("model.obs_callback"),
        "model.obs_callback.points": attr_sum("model.obs_callback", "points"),
        "model.obs_callback.s": total("model.obs_callback"),
        "model.verify_assumptions.s": total("model.verify_assumptions"),
        "concentration.concentration_experiment.calls": calls(
            "concentration.concentration_experiment"),
        "concentration.concentration_experiment.s": total(
            "concentration.concentration_experiment"),
        "concentration.chi2_tail_check.s": total("concentration.chi2_tail_check"),
        "model.simulate_batch.s": total("model.simulate_batch"),
        "model.simulate_batch.paths": attr_sum("model.simulate_batch", "paths"),
        "model.simulate.calls": calls("model.simulate"),
        "model.simulate.s": total("model.simulate"),
        "csvio.write_csv.calls": calls("csvio.write_csv"),
        "csvio.write_csv.s": total("csvio.write_csv"),
        "csvio.write_csv.bytes": attr_sum("csvio.write_csv", "bytes"),
        "csvio.read_csv.s": total("csvio.read_csv"),
        "config.load_config.s": total("config.load_config"),
        "registry.build_model.calls": calls("registry.build_model"),
        "registry.build_model.s": total("registry.build_model"),
    }


def _quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def _reference_s(spans: list[Span], sweeps: list[Span]) -> float:
    """Time the sweeps spent on chains and filters at a >= a_ref (the
    surrogate reference and its twice-finer check)."""
    sweep_ref = {s.id: s.attrs["a_ref"] for s in sweeps if s.attrs["a_ref"]}
    return sum((s.duration for s in spans
                if s.name in ("quantize.build_chain", "filtering.run_grid_filter")
                and s.parent in sweep_ref and s.attrs["k"] >= sweep_ref[s.parent]), 0.0)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON-lines file for the spans")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for gridfilter.cli.main, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer = Tracer(args.run_id)
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.write(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
