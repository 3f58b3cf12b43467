"""The benchmark's reference outputs, checked in-process.

``converge`` on demos/configs/demo.ini, and ``simulate`` then ``filter`` on
perfbench/configs/filter_long.ini, write CSVs that match the copies under
perfbench/reference (compared by the benchmark's own ``compare_csv``), and a
rerun into a fresh directory writes the same bytes.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

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
