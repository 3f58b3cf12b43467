"""The benchmark's reference outputs, checked in-process.

``converge`` and ``verify`` on demos/configs/demo.ini, and ``simulate`` then
``filter`` on perfbench/configs/filter_long.ini, write CSVs that match the
copies under perfbench/reference (compared by the benchmark's own
``compare_csv``), and a rerun into a fresh directory writes the same bytes.
``converge`` on a finite chain measures against the exact filter and reruns
byte-identically too, a surrogate below 8x the largest resolution is
refused before any CSV is written, and a random walk whose step is narrower
than a cell (an identity chain at a = 2) simulates, filters and verifies
without a warning and reruns byte-identically.
"""

import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import gridfilter as gf
from gridfilter.cli import main

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference"


def _compare_csv():
    """perfbench/run.py's ``compare_csv``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = sys.modules.get(spec.name)
    if module is None:
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    return module.compare_csv


# workload: (config, commands in order, CSVs compared with the reference)
WORKLOADS = {
    "converge_demo": ("demos/configs/demo.ini", ("converge",), ("curve.csv", "kg.csv")),
    "filter_long": ("perfbench/configs/filter_long.ini", ("simulate", "filter"),
                    ("estimates_seed0_a2048.csv",)),
    "verify_demo": ("demos/configs/demo.ini", ("verify",),
                    ("bounds.csv", "chi2.csv", "concentration.csv")),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_outputs_match_the_reference_and_rerun_byte_identically(tmp_path, workload):
    config, commands, names = WORKLOADS[workload]
    runs = [tmp_path / "run", tmp_path / "rerun"]
    for out in runs:
        for command in commands:
            assert main([command, "--config", str(ROOT / config), "--out", str(out)]) == 0
    compare_csv = _compare_csv()
    for name in names:
        assert compare_csv(REFERENCE / workload / name, runs[0] / name) == []
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def demo_ini_with(tmp_path, *edits):
    """demo.ini with each (pattern, replacement) line edit applied, as a path."""
    text = (ROOT / "demos" / "configs" / "demo.ini").read_text()
    for pattern, replacement in edits:
        text, count = re.subn(pattern, replacement, text, flags=re.MULTILINE)
        assert count == 1, pattern
    path = tmp_path / "edited.ini"
    path.write_text(text)
    return str(path)


@pytest.mark.filterwarnings("error")
def test_the_exact_reference_reruns_byte_identically(tmp_path):
    config = demo_ini_with(tmp_path, (r"^id = .*", "id = finite_chain"), (r"^step_sigma.*\n", ""),
                           (r"^build_method = .*", "build_method = monte_carlo"),
                           (r"^n_samples = .*", "n_samples = 20000"),
                           (r"^resolutions = .*", "resolutions = 2 4 8"))
    runs = [tmp_path / "run", tmp_path / "rerun"]
    for out in runs:
        assert main(["converge", "--config", config, "--out", str(out)]) == 0
    assert "# reference = exact" in (runs[0] / "curve.csv").read_text().splitlines()
    for name in ("curve.csv", "kg.csv"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_a_surrogate_below_8x_the_largest_resolution_exits_2_without_a_curve(tmp_path):
    config = demo_ini_with(tmp_path, (r"^a_ref = .*", "a_ref = 8"))
    assert main(["converge", "--config", config, "--out", str(tmp_path / "small")]) == 2
    assert not (tmp_path / "small" / "curve.csv").exists()


@pytest.mark.filterwarnings("error")
def test_a_step_narrower_than_a_cell_runs_and_reruns_byte_identically(tmp_path):
    config = demo_ini_with(tmp_path, (r"^step_sigma = .*", "step_sigma = 0.001"))
    cfg = gf.load_config(config)
    spec = gf.build_model(cfg.model_id, **cfg.model_params)
    assert np.array_equal(gf.build_chain(spec, gf.Grid(spec.space, 2)).transition, np.eye(2))
    runs = [tmp_path / "run", tmp_path / "rerun"]
    for out in runs:
        for command in (["simulate"], ["filter", "--resolution", "2"], ["verify"]):
            assert main([*command, "--config", config, "--out", str(out)]) == 0, command
    names = sorted(path.name for path in runs[0].glob("*.csv"))
    assert "estimates_seed0_a2.csv" in names and "bounds.csv" in names
    assert names == sorted(path.name for path in runs[1].glob("*.csv"))
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
