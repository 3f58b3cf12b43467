"""The CLI's outputs: the benchmark's reference copies, reruns and fresh runs.

``converge`` and ``verify`` on demos/configs/demo.ini, and ``simulate`` then
``filter`` on perfbench/configs/filter_long.ini, match the CSVs under
perfbench/reference (by the benchmark's own ``compare_csv``).  Each run
here, and ``simulate`` then ``filter`` on demo.ini, writes the same bytes as
one fresh interpreter under ``-W error`` without scipy, which then runs
every demo.  ``verify`` at N = 8 peaks below 120 MiB and writes the same
bytes pinned to one CPU.  ``converge`` on a finite chain takes the exact
filter and reruns byte-identically, a surrogate below 8x the largest
resolution is refused before any CSV is written, and a walk whose step is
narrower than a cell (an identity chain at a = 2) runs without a warning and
reruns byte-identically.
"""

import importlib.util
import json
import os
import re
import subprocess
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


DEMO_INI = "demos/configs/demo.ini"
FILTER_LONG_INI = "perfbench/configs/filter_long.ini"
# workload: (config, commands in order, CSVs compared with the reference)
WORKLOADS = {
    "converge_demo": (DEMO_INI, ("converge",), ("curve.csv", "kg.csv")),
    "filter_long": (FILTER_LONG_INI, ("simulate", "filter"), ("estimates_seed0_a2048.csv",)),
    "verify_demo": (DEMO_INI, ("verify",), ("bounds.csv", "chi2.csv", "concentration.csv")),
}

# Run by a fresh interpreter: each CLI argv of the JSON list in argv[1],
# then each demo script named after it.
FRESH_RUN = """\
import json, runpy, sys
sys.modules["scipy"] = None  # what follows must run without scipy
from gridfilter.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv} did not exit 0")
for demo in sys.argv[2:]:
    runpy.run_path(demo, run_name="__main__")
"""


def _env():
    """The environment with this checkout's source as PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    """The directory of one fresh interpreter's run under -W error: the four
    commands on demo.ini into demo/, simulate and filter on filter_long.ini
    into filter_long/, then every demo."""
    root = tmp_path_factory.mktemp("fresh")
    argvs = [[command, "--config", str(ROOT / config), "--out", str(root / Path(config).stem)]
             for config, commands in [(DEMO_INI, ("simulate", "filter", "converge", "verify")),
                                      (FILTER_LONG_INI, ("simulate", "filter"))]
             for command in commands]
    demos = sorted(str(path) for path in (ROOT / "demos").glob("0*.py"))
    assert demos
    done = subprocess.run([sys.executable, "-W", "error", "-c", FRESH_RUN, json.dumps(argvs),
                           *demos], cwd=root, env=_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return root


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_outputs_match_the_reference_and_rerun_byte_identically(tmp_path, fresh_run, workload):
    config, commands, names = WORKLOADS[workload]
    for command in commands:
        assert main([command, "--config", str(ROOT / config), "--out", str(tmp_path)]) == 0
    compare_csv = _compare_csv()
    rerun = fresh_run / Path(config).stem
    for name in names:
        assert compare_csv(REFERENCE / workload / name, tmp_path / name) == []
        assert (tmp_path / name).read_bytes() == (rerun / name).read_bytes(), name


@pytest.mark.filterwarnings("error")
def test_the_cli_and_the_demos_run_fresh_without_scipy_or_warnings(tmp_path, fresh_run):
    """demo.ini's trajectory and estimates; the test above compares its
    other five CSVs with the fresh run's."""
    for command in ("simulate", "filter"):
        assert main([command, "--config", str(ROOT / DEMO_INI), "--out", str(tmp_path)]) == 0
    for name in ("trajectory_seed0.csv", "estimates_seed0_a64.csv"):
        assert (tmp_path / name).read_bytes() == (fresh_run / "demo" / name).read_bytes(), name


def demo_ini_with(tmp_path, *edits):
    """demo.ini with each (pattern, replacement) line edit applied, as a path."""
    text = (ROOT / "demos" / "configs" / "demo.ini").read_text()
    for pattern, replacement in edits:
        text, count = re.subn(pattern, replacement, text, flags=re.MULTILINE)
        assert count == 1, pattern
    path = tmp_path / "edited.ini"
    path.write_text(text)
    return str(path)


# Imports neither numpy nor gridfilter: pinned to its lowest allowed CPU when
# argv[1] is "pin", it spawns the command in argv[2:], waits, and prints the
# command's exit code and peak RSS in KiB.  A child's ru_maxrss carries its
# spawner's high-water mark, so pytest must not spawn the command itself.
LAUNCHER = """\
import os, sys
if sys.argv[1] == "pin":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_verify_at_n_8_peaks_below_120_mib_and_reruns_byte_identically_on_one_cpu(tmp_path):
    config = demo_ini_with(tmp_path, (r"^n = .*", "n = 8"),
                           (r"^concentration = .*", "concentration = 8:1.0:3"))
    runs = [tmp_path / "run", tmp_path / "pinned"]
    for out, pin in zip(runs, ("free", "pin")):
        verify = [sys.executable, "-W", "error", "-m", "gridfilter.cli", "verify",
                  "--config", config, "--out", str(out)]
        done = subprocess.run([sys.executable, "-c", LAUNCHER, pin, *verify], env=_env(),
                              capture_output=True, text=True, check=True)
        code, peak_kib = map(int, done.stdout.split()[-2:])
        assert code == 0, done.stderr
        assert peak_kib < 120 * 1024, f"{pin}: verify peaked at {peak_kib / 1024:.1f} MiB"
    for name in ("bounds.csv", "chi2.csv", "concentration.csv"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


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
