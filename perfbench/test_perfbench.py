"""Tests of the benchmark's own code: span arithmetic, tracer linkage and
transparency, computed counts, output comparison, and BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import configparser
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gridfilter as gf  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Span, Tracer, layer_metrics, self_times  # noqa: E402


def _span(id, start, end, parent=None, name="x"):
    return Span(id=id, name=name, start=start, end=end, parent=parent, run_id="r")


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 3.0, 6.0, parent=0),   # overlaps span 1: [1, 6] covered once
        _span(3, 8.0, 12.0, parent=0),  # runs past its parent: [8, 10] counts
        _span(4, 2.0, 3.0, parent=1),   # grandchild: only span 1 loses it
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


@pytest.fixture
def traced_sweep():
    def sweep():
        spec = gf.audit_derived_constants(gf.build_model("gauss_walk"), n_pairs=50)
        return gf.convergence_sweep(spec, 3, (2, 4), n_traj=2, c_const=1.0, a_ref=32)

    plain = sweep()
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name.startswith("gridfilter")}
    t = Tracer("test")
    t.install()
    try:
        traced = sweep()
    finally:
        t.uninstall()
    return plain, traced, t.spans, before


def test_parent_links_run_from_the_sweep_down_to_the_likelihood(traced_sweep):
    _, _, spans, _ = traced_sweep
    by_id = {s.id: s for s in spans}

    def chain_of(span):
        names = []
        while span.parent is not None:
            span = by_id[span.parent]
            names.append(span.name)
        return names

    lik = [s for s in spans if s.name == "likelihood.log_lambda_hat_at_points"]
    assert lik
    for s in lik:
        assert chain_of(s)[:3] == ["filtering.grid_filter_step",
                                   "filtering.run_grid_filter",
                                   "harness.convergence_sweep"]
    chains = [s for s in spans if s.name == "quantize.build_chain"]
    assert [s.attrs["k"] for s in chains] == [32, 2, 4, 64]
    assert all(by_id[s.parent].name == "harness.convergence_sweep" for s in chains)
    assert {s.run_id for s in spans} == {"test"}


def test_tracer_changes_no_result_and_restores_every_name(traced_sweep):
    plain, traced, _, before = traced_sweep
    np.testing.assert_array_equal(plain.mean_sup_errors, traced.mean_sup_errors)
    np.testing.assert_array_equal(plain.max_sup_errors, traced.max_sup_errors)
    assert plain.reference_gap == traced.reference_gap
    for name, names in before.items():
        module = sys.modules[name]
        for key, value in names.items():
            assert getattr(module, key) is value, f"{name}.{key} not restored"
    assert not hasattr(gf.QuadFormWorkspace.__init__, "__wrapped__")


def test_predict_counts_are_computed_from_k_and_the_horizon():
    k, horizon = 16, 4
    spec = gf.build_model("gauss_walk")
    chain = gf.build_chain(spec, gf.Grid(spec.space, k))
    obs = gf.simulate(spec, horizon, seed=3).observations
    t = Tracer("predict")
    t.install()
    try:
        gf.run_grid_filter(spec, chain, obs)
    finally:
        t.uninstall()
    m = layer_metrics(t.spans)
    # The first step absorbs y_0 under the initial law: no transition product.
    assert m["filtering.predict_bytes"] == 8 * k * k * horizon
    assert m["filtering.predict_flops"] == 2 * k * k * horizon
    assert m["filtering.cell_steps"] == k * (horizon + 1)
    assert m["filtering.grid_filter_step.calls"] == horizon + 1
    assert m["likelihood.workspaces"] == 1


def test_reference_comparison_allows_low_bits_and_catches_real_changes(tmp_path):
    ref = run.REFERENCE / "filter_long" / "estimates_seed0_a2048.csv"
    meta, header, data = gf.read_csv(str(ref))

    def perturbed(rel):
        path = tmp_path / ref.name
        gf.write_csv(str(path), meta, header, data * (1.0 + rel))
        return path

    assert run.compare_csv(ref, perturbed(1e-14)) == []
    assert run.compare_csv(ref, perturbed(1e-10)) != []
    assert run.compare_csv(ref, tmp_path / "absent.csv") != []


def test_filter_long_config_uses_the_demo_model():
    def model_section(path):
        parser = configparser.ConfigParser()
        parser.read(ROOT / path)
        return dict(parser["model"])

    assert model_section(run.FILTER_LONG) == model_section(run.DEMO)


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert set(layer_metrics([])) | {"cli.cpu_s", "trace.overhead_s"} == {
        name for name, _ in tracer.PER_LAYER}
    assert all((run.REFERENCE / w).is_dir() for w in run.WORKLOADS)
