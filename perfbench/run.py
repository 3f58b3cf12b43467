"""gridfilter benchmark: times the `gridfilter` CLI end to end, checks every
output, and in traced mode reports per-layer metrics.

    python3 perfbench/run.py --workload converge_demo --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 0    # every workload in turn

Each workload is one CLI subcommand, run as a fresh interpreter with
PYTHONPATH pointing at this checkout's `src/`, one process at a time.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  perfbench/README.md describes the
workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = BENCH / "reference"
DEMO = "demos/configs/demo.ini"
FILTER_LONG = "perfbench/configs/filter_long.ini"

# The [run] seed of both configs; the reference copies were recorded at it.
DEFAULT_SEED = 0
# On a shared host, machine speed can drift by tens of percent over seconds
# to minutes, so set-up probes are spread through the measuring window, one
# before each CLI run, rather than taken in one burst.
SETUPS_PER_RUN = 1
MIN_RUNS = 2  # two consecutive runs are needed to compare their bytes
# Every child runs OpenBLAS on one thread.  With two threads on a two-vCPU
# host, each GEMV of a filter step waits for both vCPUs, so a neighbour's
# load on either one stretches filter_long by tens of percent.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 120
# Reference tolerance: |a - b| <= ATOL + RTOL * max(|a|, |b|).  A GEMM in
# place of the GEMV moves estimates by ~1e-16 and keeps every output within
# it; dropping transition entries below 1e-9 of their row's largest (a
# truncated band) moves filter_long estimates by 5e-11 and fails it.
RTOL, ATOL = 1e-12, 1e-12

# The body of the `gridfilter` console script.
CLI = "import sys; from gridfilter.cli import main; sys.exit(main())"
SETUP = ("import sys, gridfilter as gf; cfg = gf.load_config(sys.argv[1]); "
         "gf.build_model(cfg.model_id, **cfg.model_params)")


@dataclass
class Proc:
    """One finished child process."""

    wall_s: float
    rss_mib: float
    cpu_s: float
    code: int


@dataclass
class Tally:
    """Operations (child processes) attempted and failed, with the reasons."""

    attempted: int = 0
    failed: int = 0

    def record(self, what: str, proc: Proc, problems: list[str], log: Path) -> bool:
        self.attempted += 1
        if proc.code != 0:
            problems = [f"exit status {proc.code} (log: {log})"] + problems
        for p in problems:
            print(f"FAILED {what}: {p}", file=sys.stderr)
        self.failed += bool(problems)
        return not problems


def run_child(args: list[str], log: Path) -> Proc:
    """Run `python <args>` from the checkout root; time it and read its rusage."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **CHILD_ENV)
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall_s=wall, rss_mib=usage.ru_maxrss / 1024.0,
                cpu_s=usage.ru_utime + usage.ru_stime, code=proc.returncode)


# ---------------------------------------------------------------- output checks

def _float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _close(a: str, b: str) -> bool:
    x, y = _float(a), _float(b)
    if x is None or y is None:
        return a == b
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return repr(x) == repr(y)
    return abs(x - y) <= ATOL + RTOL * max(abs(x), abs(y))


def compare_csv(reference: Path, output: Path) -> list[str]:
    """Problems found comparing an output CSV with its reference copy."""
    from gridfilter.csvio import read_csv
    if not output.is_file():
        return [f"{output.name} missing"]
    ref_meta, ref_header, ref = read_csv(str(reference), numeric=False)
    meta, header, out = read_csv(str(output), numeric=False)
    if header != ref_header or ref.shape != out.shape or meta.keys() != ref_meta.keys():
        return [f"{output.name}: header, metadata keys or shape differ from the reference"]
    problems = [f"{output.name}: metadata {k} = {meta[k]}, reference {ref_meta[k]}"
                for k in ref_meta if not _close(meta[k], ref_meta[k])]
    for i, (row, ref_row) in enumerate(zip(out, ref)):
        for col, a, b in zip(header, row, ref_row):
            if not _close(a, b):
                problems.append(f"{output.name}: row {i + 1} {col} = {a}, reference {b}")
    return problems[:10]


def check_converge(out: Path, config) -> list[str]:
    from gridfilter.csvio import read_csv
    meta, header, data = read_csv(str(out / "curve.csv"))
    problems = []
    if meta.get("reference_converged") != "True":
        problems.append(f"curve.csv: reference_converged = {meta.get('reference_converged')}")
    err, bound = header.index("max_sup_error"), header.index("analytic_bound_log10")
    for row in data:
        if not (row[err] <= 0.0 or math.log10(row[err]) <= row[bound]):
            problems.append(f"curve.csv: a={row[0]:g}: log10(max_sup_error) "
                            f"exceeds analytic_bound_log10 {row[bound]}")
    return problems


def check_filter(out: Path, config) -> list[str]:
    from gridfilter.csvio import read_csv
    from gridfilter.registry import build_model
    space = build_model(config.model_id, **config.model_params).space
    path = out / f"estimates_seed{config.seed}_a{config.resolution}.csv"
    _, header, data = read_csv(str(path))
    est = data[:, [i for i, h in enumerate(header) if h.startswith("estimate_")]]
    log_norm = data[:, header.index("log_norm")]
    problems = []
    if len(data) != config.horizon + 1:
        problems.append(f"{path.name}: {len(data)} rows, expected {config.horizon + 1}")
    bad = ~((est >= space.lower) & (est <= space.upper)).all(axis=1)
    if bad.any():
        problems.append(f"{path.name}: estimate outside the state box or not "
                        f"finite at t={int(data[bad.argmax(), 0])}")
    if not all(math.isfinite(v) for v in log_norm):
        problems.append(f"{path.name}: log_norm not finite")
    return problems


def check_verify(out: Path, config) -> list[str]:
    from gridfilter.csvio import read_csv
    problems = []
    for name in ("bounds.csv", "chi2.csv", "concentration.csv"):
        _, header, data = read_csv(str(out / name), numeric=False)
        passed = header.index("passed")
        problems += [f"{name}: row {i + 1} did not pass"
                     for i, row in enumerate(data) if row[passed] != "True"]
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str
    check: Callable[[Path, object], list[str]]

    @property
    def needs_trajectory(self) -> bool:
        return self.command == "filter"


WORKLOADS = {w.name: w for w in (
    Workload("converge_demo", "converge", DEMO, check_converge),
    Workload("filter_long", "filter", FILTER_LONG, check_filter),
    Workload("verify_demo", "verify", DEMO, check_verify),
)}


def digest(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


class Runner:
    """Runs one workload's CLI command and checks what it wrote."""

    def __init__(self, workload: Workload, seed: int, tally: Tally):
        from gridfilter.config import load_config
        self.w, self.seed, self.tally = workload, seed, tally
        self.work = WORK / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = load_config(str(ROOT / workload.config))
        self.config.seed = seed
        self.trajectory = None
        self.first_digest = None

    def cli_args(self, out: Path) -> list[str]:
        return [self.w.command, "--config", self.w.config, "--seed", str(self.seed),
                "--out", str(out)]

    def set_up(self) -> tuple[Proc, bool]:
        """A fresh interpreter that imports gridfilter, loads the config and
        builds the model."""
        log = self.work / "setup.log"
        proc = run_child(["-c", SETUP, self.w.config], log)
        return proc, self.tally.record("set-up", proc, [], log)

    def make_inputs(self) -> None:
        if not self.w.needs_trajectory:
            return
        inputs = self.work / "input"
        log = self.work / "simulate.log"
        proc = run_child(["-c", CLI, "simulate", "--config", self.w.config,
                          "--seed", str(self.seed), "--out", str(inputs)], log)
        self.tally.record("simulate", proc, [], log)
        self.trajectory = inputs / f"trajectory_seed{self.seed}.csv"

    def _fresh(self, out: Path) -> None:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        if self.trajectory is not None and self.trajectory.is_file():
            shutil.copyfile(self.trajectory, out / self.trajectory.name)

    def run(self) -> tuple[Proc, bool]:
        """One untraced run; its outputs must pass the workload's checks and
        match the first run's bytes (and the reference at the default seed)."""
        out, log = self.work / "out", self.work / "run.log"
        self._fresh(out)
        proc = run_child(["-c", CLI, *self.cli_args(out)], log)
        problems = []
        if proc.code == 0:
            try:
                problems = self._check(out)
            except Exception as exc:  # a malformed output is a failed run
                problems = [f"outputs unreadable: {exc!r}"]
        return proc, self.tally.record(self.w.command, proc, problems, log)

    def _check(self, out: Path) -> list[str]:
        problems = self.w.check(out, self.config)
        files = digest(out)
        if self.first_digest is None:
            self.first_digest = files
            if self.seed == DEFAULT_SEED:
                for ref in sorted((REFERENCE / self.w.name).iterdir()):
                    problems += compare_csv(ref, out / ref.name)
        elif files != self.first_digest:
            problems.append("outputs differ from the first run's bytes")
        return problems

    def run_traced(self, run_id: str) -> tuple[Proc, Path, bool]:
        """One traced run in a fresh interpreter; its outputs must be
        byte-identical to the untraced run's."""
        out, log = self.work / "out_traced", self.work / "traced.log"
        spans = self.work / f"spans_{run_id}.jsonl"
        self._fresh(out)
        proc = run_child([str(BENCH / "tracer.py"), "--spans", str(spans),
                          "--run-id", run_id, "--", *self.cli_args(out)], log)
        problems = []
        if proc.code == 0 and digest(out) != self.first_digest:
            problems.append("traced outputs differ from the untraced run's bytes")
        return proc, spans, self.tally.record(f"traced {self.w.command}", proc,
                                              problems, log)


# ---------------------------------------------------------------- measurement

class Window:
    """The measuring window: an iteration starts only if one of median
    length still ends inside it, so a run lasts `seconds`, not `seconds`
    plus most of one iteration."""

    def __init__(self, seconds: float):
        self.start = self.last = time.perf_counter()
        self.deadline = self.start + seconds
        self.laps: list[float] = []

    def lap(self) -> None:
        now = time.perf_counter()
        self.laps.append(now - self.last)
        self.last = now

    def room(self) -> bool:
        typical = statistics.median(self.laps) if self.laps else 0.0
        return time.perf_counter() + typical <= self.deadline


def measure(w: Workload, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    """End-to-end metrics: medians over the CLI runs made in `seconds`."""
    tally = Tally()
    runner = Runner(w, seed, tally)
    runner.make_inputs()
    runner.set_up()  # fills the bytecode caches; not kept
    setup, runs = [], []
    window = Window(seconds)
    while len(runs) < MIN_RUNS or window.room():
        probes = [runner.set_up() for _ in range(SETUPS_PER_RUN)]
        setup += [p.wall_s for p, _ in probes]
        proc, ok = runner.run()
        runs.append(proc)
        window.lap()
        if not ok or not all(ok for _, ok in probes):
            break
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in runs), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(p.rss_mib for p in runs), "MiB"),
    }
    counts = {"wall_s": len(runs), "setup_s": len(setup), "peak_rss_mb": len(runs)}
    print("samples " + json.dumps({"wall_s": [round(p.wall_s, 4) for p in runs],
                                   "setup_s": [round(s, 4) for s in setup]}))
    return tally, metrics, counts


def measure_traced(w: Workload, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    """Per-layer metrics: medians over pairs of an untraced and a traced run."""
    from tracer import PER_LAYER, layer_metrics, read_spans
    tally = Tally()
    runner = Runner(w, seed, tally)
    runner.make_inputs()
    samples = []
    window = Window(seconds)
    while not samples or window.room():
        plain, ok = runner.run()
        if not ok:
            break
        traced, spans, ok = runner.run_traced(f"{w.name}-seed{seed}-{len(samples)}")
        if not ok:
            break
        sample = layer_metrics(read_spans(str(spans)))
        sample["cli.cpu_s"] = plain.cpu_s
        sample["trace.overhead_s"] = traced.wall_s - plain.wall_s
        samples.append(sample)
        window.lap()
    metrics = {name: (statistics.median(s[name] for s in samples) if samples
                      else math.nan, unit) for name, unit in PER_LAYER}
    return tally, metrics, {name: len(samples) for name in metrics}


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": CHILD_ENV["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def git_sha():
    """HEAD of the checkout's own .git directory, or None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def report(w: Workload, seed: int, trace: int, tally: Tally, metrics: dict,
           counts: dict) -> bool:
    print(f"workload {w.name} (seed {seed}, trace {trace}): {w.command} --config {w.config}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>16.6g} {unit:<6} median of {counts[name]}")
    error_rate = tally.failed / tally.attempted
    print(f"  {'error_rate':<46} {error_rate:>16.6g} {'ratio':<6} "
          f"{tally.failed} failed of {tally.attempted} attempted")
    print("environment " + json.dumps(environment()))
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": None if math.isnan(value) else value,
                                         "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    sys.stdout.flush()
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to keep repeating the measured command")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    missing = [p for p in (SRC / "gridfilter" / "__init__.py", ROOT / DEMO,
                           ROOT / FILTER_LONG) if not p.is_file()]
    if missing:
        print(f"not a gridfilter checkout: missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ok = True
    for w in (WORKLOADS.values() if args.workload == "all" else [WORKLOADS[args.workload]]):
        run = measure_traced if args.trace else measure
        tally, metrics, counts = run(w, args.seed, args.seconds)
        ok &= report(w, args.seed, args.trace, tally, metrics, counts)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
