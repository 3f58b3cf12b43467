import concurrent.futures
import dataclasses
import multiprocessing
import os
import re
from pathlib import Path

import numpy as np
import pytest

import gridfilter as gf
from gridfilter import cli
from gridfilter.cli import main

ROOT = Path(__file__).resolve().parent.parent

BASE = """\
[model]
id = gauss_walk

[run]
horizon = 6
seed = 2
out_dir = {out}

[filter]
resolution = 16

[converge]
resolutions = 4 8
a_ref = 64
c = 1.0
n_traj = 4

[verify]
n_pairs = 200
n_trials = 100
n_trajectories = 5000
chi2_u = 0.5 1
chi2_n = 2
concentration = 2:1.0:0
"""


@pytest.fixture
def workdir(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE.format(out=tmp_path / "out"))
    return tmp_path, str(cfg)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def snapshot(directory):
    """Every file under ``directory``, with its bytes."""
    return {path: path.read_bytes() for path in directory.rglob("*") if path.is_file()}


def test_simulate_writes_trajectory(workdir, capsys):
    tmp, cfg = workdir
    assert main(["simulate", "--config", cfg]) == 0
    path = tmp / "out" / "trajectory_seed2.csv"
    assert path.exists()
    meta, header, data = gf.read_csv(str(path))
    assert header == ["t", "x0", "y0", "y1"]
    assert data.shape == (7, 4)
    assert meta["model_id"] == "gauss_walk"


def test_zero_horizon_yields_single_row(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE.format(out=tmp_path / "out").replace("horizon = 6",
                                                             "horizon = 0"))
    assert main(["simulate", "--config", str(cfg)]) == 0
    _, _, data = gf.read_csv(str(tmp_path / "out" / "trajectory_seed2.csv"))
    assert data.shape == (1, 4)
    assert data[0, 0] == 0.0


def test_simulate_then_filter_round_trip(workdir):
    tmp, cfg = workdir
    assert main(["simulate", "--config", cfg]) == 0
    assert main(["filter", "--config", cfg]) == 0
    est = tmp / "out" / "estimates_seed2_a16.csv"
    meta, header, data = gf.read_csv(str(est))
    assert header == ["t", "estimate_0", "log_norm"]
    assert data.shape == (7, 3)
    assert meta["a_per_dim"] == "16"
    # estimates stay inside the state box
    assert np.all(data[:, 1] >= 0.0) and np.all(data[:, 1] <= 1.0)


def test_filter_without_trajectory_is_usage_error(workdir, capsys):
    _, cfg = workdir
    assert main(["filter", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "simulate" in err


def test_reruns_are_byte_identical(workdir):
    tmp, cfg = workdir
    main(["simulate", "--config", cfg])
    main(["filter", "--config", cfg])
    traj = read_bytes(tmp / "out" / "trajectory_seed2.csv")
    est = read_bytes(tmp / "out" / "estimates_seed2_a16.csv")
    main(["simulate", "--config", cfg])
    main(["filter", "--config", cfg])
    assert read_bytes(tmp / "out" / "trajectory_seed2.csv") == traj
    assert read_bytes(tmp / "out" / "estimates_seed2_a16.csv") == est


def test_resolution_override_is_reflected_in_output(workdir):
    tmp, cfg = workdir
    main(["simulate", "--config", cfg])
    assert main(["filter", "--config", cfg, "--resolution", "8"]) == 0
    est = tmp / "out" / "estimates_seed2_a8.csv"
    assert est.exists()
    meta, _, _ = gf.read_csv(str(est))
    assert meta["a_per_dim"] == "8"


def test_seed_override_changes_output_name(workdir):
    tmp, cfg = workdir
    assert main(["simulate", "--config", cfg, "--seed", "5"]) == 0
    assert (tmp / "out" / "trajectory_seed5.csv").exists()


def test_out_override_moves_the_output(workdir):
    tmp, cfg = workdir
    assert main(["simulate", "--config", cfg, "--out", str(tmp / "elsewhere")]) == 0
    assert (tmp / "elsewhere" / "trajectory_seed2.csv").exists()
    assert not (tmp / "out").exists()


def test_resolution_is_a_filter_flag_only(workdir, capsys):
    _, cfg = workdir
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--config", cfg, "--resolution", "8"])
    assert exc.value.code == 2
    assert "--resolution" in capsys.readouterr().err


def test_missing_model_id_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "broken.ini"
    cfg.write_text("[run]\nhorizon = 3\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "[model] id" in capsys.readouterr().err


def test_unknown_model_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "broken.ini"
    cfg.write_text("[model]\nid = warp_drive\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "warp_drive" in capsys.readouterr().err


def test_corrupt_trajectory_row_is_usage_error(workdir, capsys):
    tmp, cfg = workdir
    main(["simulate", "--config", cfg])
    path = tmp / "out" / "trajectory_seed2.csv"
    lines = path.read_text().splitlines()
    lines[8] = "2,0.5,not_a_number,0.1"
    path.write_text("\n".join(lines) + "\n")
    assert main(["filter", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "row 3" in err


def filter_with_y0_at_t3(workdir, value):
    """``filter``'s exit status on the simulated trajectory with y0 at t=3
    replaced by ``value``."""
    tmp, cfg = workdir
    main(["simulate", "--config", cfg])
    path = tmp / "out" / "trajectory_seed2.csv"
    lines = path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("3,"))
    t, x0, _, y1 = lines[row].split(",")
    lines[row] = ",".join([t, x0, value, y1])
    path.write_text("\n".join(lines) + "\n")
    return main(["filter", "--config", cfg])


def test_non_finite_trajectory_value_is_usage_error(workdir, capsys):
    assert filter_with_y0_at_t3(workdir, "nan") == 2
    assert "input error: non-finite observation at t=3" in capsys.readouterr().err
    assert not list((workdir[0] / "out").glob("estimates_*.csv"))


@pytest.mark.filterwarnings("error")
def test_a_trajectory_value_whose_square_overflows_is_usage_error(workdir, capsys):
    assert filter_with_y0_at_t3(workdir, "1e200") == 2
    assert ("input error: observation above 1.34e+154 in magnitude, whose square "
            "overflows, at t=3 in trajectory b=0") in capsys.readouterr().err
    assert not list((workdir[0] / "out").glob("estimates_*.csv"))


@pytest.mark.parametrize("keep, message", [
    (lambda line: not line[0].isdigit(),
     "has 0 rows, but its metadata's horizon = 6 needs one per time step 0..6"),
    (lambda line: not line[0].isdigit() or int(line.split(",")[0]) < 3,
     "has 3 rows, but its metadata's horizon = 6 needs one per time step 0..6"),
    (lambda line: not line.startswith("# horizon") and not line[0].isdigit(),
     "input error: observations of shape (0, 2) hold no time step (T+1 = 0)"),
], ids=["header_only", "truncated", "header_only_without_horizon"])
def test_trajectory_without_all_its_rows_is_usage_error(workdir, capsys, keep, message):
    tmp, cfg = workdir
    main(["simulate", "--config", cfg])
    path = tmp / "out" / "trajectory_seed2.csv"
    path.write_text("".join(filter(keep, path.read_text().splitlines(keepends=True))))
    assert main(["filter", "--config", cfg]) == 2
    assert message in capsys.readouterr().err
    assert not list((tmp / "out").glob("estimates_*.csv"))


def out_is_a_file(tmp, cfg):
    (tmp / "taken").write_text("")
    return ["simulate", "--config", cfg, "--out", str(tmp / "taken")], tmp / "taken"


def out_under_a_file(tmp, cfg):
    (tmp / "taken").write_text("")
    out = tmp / "taken" / "sub"
    return ["simulate", "--config", cfg, "--out", str(out)], out


def trajectory_is_a_directory(tmp, cfg):
    path = tmp / "out" / "trajectory_seed2.csv"
    path.mkdir(parents=True)
    return ["filter", "--config", cfg], path


def config_is_not_utf8(tmp, cfg):
    with open(cfg, "ab") as fh:
        fh.write(b"; \xff\n")
    return ["simulate", "--config", cfg], cfg


def trajectory_is_not_utf8(tmp, cfg):
    assert main(["simulate", "--config", cfg]) == 0
    path = tmp / "out" / "trajectory_seed2.csv"
    path.write_bytes(b"# \xff\n" + path.read_bytes())
    return ["filter", "--config", cfg], path


@pytest.mark.parametrize("make", [out_is_a_file, out_under_a_file, trajectory_is_a_directory,
                                  config_is_not_utf8, trajectory_is_not_utf8])
def test_a_file_the_cli_cannot_read_or_write_is_a_usage_error(workdir, capsys, make):
    argv, path = make(*workdir)
    capsys.readouterr()
    assert main(argv) == 2  # not an uncaught OSError or UnicodeDecodeError
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot ") and str(path) in err, err


@pytest.mark.parametrize("command", ["converge", "verify"])
def test_an_out_naming_a_file_is_refused_before_any_work(workdir, capsys, monkeypatch, command):
    tmp, cfg = workdir
    (tmp / "taken").write_text("")

    def never(*args, **kwargs):
        raise AssertionError("the command ran before its --out was checked")
    for name in ("convergence_sweep", "audit_derived_constants", "verify_assumptions",
                 "check_product_bound"):
        monkeypatch.setattr(cli, name, never)
    assert main([command, "--config", cfg, "--out", str(tmp / "taken")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {tmp / 'taken'}: "), err


def test_trajectory_of_another_model_is_usage_error(workdir, capsys):
    tmp, cfg = workdir
    main(["simulate", "--config", cfg])
    other = tmp / "other.ini"
    # same column count (state dim 1, observation dim 2), different model
    other.write_text(BASE.format(out=tmp / "out").replace("id = gauss_walk",
                                                          "id = constant\nn = 2"))
    assert main(["filter", "--config", str(other)]) == 2
    assert "simulated from model 'gauss_walk'" in capsys.readouterr().err


def test_dimension_mismatch_is_usage_error(workdir, capsys):
    tmp, cfg = workdir
    main(["simulate", "--config", cfg])
    wider = str(tmp / "wider.ini")
    with open(wider, "w") as fh:
        fh.write(BASE.format(out=tmp / "out").replace("id = gauss_walk",
                                                      "id = gauss_walk\nn = 3"))
    assert main(["filter", "--config", wider]) == 2
    assert "expects" in capsys.readouterr().err


def test_converge_writes_curve_and_budget(workdir, capsys):
    tmp, cfg = workdir
    assert main(["converge", "--config", cfg]) == 0
    meta, header, data = gf.read_csv(str(tmp / "out" / "curve.csv"))
    order = np.polyfit(np.log2(data[:, 0]), -np.log2(data[:, 1]), 1)[0]
    assert f"fitted convergence order {order:.2f} (" in capsys.readouterr().out
    assert header[:3] == ["a", "mean_sup_error", "max_sup_error"]
    assert "analytic_bound_log10" in header
    assert data.shape[0] == 2
    kg_meta, _, kg_data = gf.read_csv(str(tmp / "out" / "kg.csv"))
    assert kg_data.shape[0] == 2
    assert "kg_t_log_t" in kg_meta


def test_no_tame_trajectory_is_a_failed_check(workdir, capsys):
    tmp, cfg = workdir
    text = (tmp / "run.ini").read_text()
    (tmp / "run.ini").write_text(text.replace("c = 1.0", "c = 0.001")
                                 .replace("n_pairs = 200", "n_pairs = 50"))
    assert main(["converge", "--config", cfg]) == 1
    assert "every sampled trajectory fell outside the tame set" in capsys.readouterr().err


def test_verify_bounds_passes_on_demo(workdir, capsys):
    tmp, cfg = workdir
    assert main(["verify-bounds", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "covariance-lipschitz-suite" in out
    assert "FAIL" not in out
    assert (tmp / "out" / "bounds.csv").exists()


def test_verify_bounds_runs_the_lipschitz_suite_once(workdir, monkeypatch):
    tmp, cfg = workdir
    calls = []
    suite = gf.bounds.check_lipschitz_suite

    def counted(*args, **kwargs):
        calls.append(args)
        return suite(*args, **kwargs)

    monkeypatch.setattr("gridfilter.bounds.check_lipschitz_suite", counted)
    monkeypatch.setattr("gridfilter.cli.check_lipschitz_suite", counted)
    assert main(["verify-bounds", "--config", cfg]) == 0
    assert len(calls) == 1
    _, header, data = gf.read_csv(str(tmp / "out" / "bounds.csv"), numeric=False)
    assert [row[0] for row in data] == [
        "product-difference-fro", "adjugate-norm-2d", "adjugate-norm-3d",
        "adjugate-norm-5d", "covariance-lipschitz-suite", "quadform-difference"]


@pytest.mark.parametrize("command", ["simulate", "filter", "converge", "verify-bounds",
                                     "verify-concentration", "verify"])
def test_each_command_builds_its_model_once(workdir, monkeypatch, command):
    tmp, cfg = workdir
    assert main(["simulate", "--config", cfg]) == 0
    builds = []
    build = cli.build_model

    def counted(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    # the forked workers count their own builds in their own copy of the list
    monkeypatch.setattr(cli, "build_model", counted)
    assert main([command, "--config", cfg]) == 0
    assert builds == [("gauss_walk",)]


def test_verify_concentration_passes_on_demo(workdir, capsys):
    tmp, cfg = workdir
    assert main(["verify-concentration", "--config", cfg]) == 0
    assert (tmp / "out" / "chi2.csv").exists()
    assert (tmp / "out" / "concentration.csv").exists()


def test_verify_passes_on_demo_and_writes_every_report(workdir, capsys):
    tmp, cfg = workdir
    assert main(["verify", "--config", cfg]) == 0
    assert "assumption audit: pass" in capsys.readouterr().out
    for name in ("bounds.csv", "chi2.csv", "concentration.csv"):
        assert (tmp / "out" / name).exists()


def estimates_match_a_direct_run(tmp, meta, header, data):
    """The estimates file holds what ``run_grid_filter`` returns on the same
    trajectory and chain, to the bit, and no certificate column."""
    spec = gf.build_model("gauss_walk")
    _, _, traj = gf.read_csv(str(tmp / "out" / "trajectory_seed2.csv"))
    chain = gf.build_chain(spec, gf.Grid(spec.space, 16), "quadrature", seed=2)
    run = gf.run_grid_filter(spec, chain, traj[:, 2:])
    assert meta["chain"] == "quadrature" and meta["a_per_dim"] == "16"
    assert np.array_equal(data[:, 0].astype(float), np.arange(7))
    assert np.array_equal(data[:, 1:2].astype(float), run.estimates)
    assert np.array_equal(data[:, 2].astype(float), run.log_norms)
    assert "predict_tau" not in header


def curve_carries_a_usable_budget(tmp, meta, header, data):
    assert meta["reference"] == "surrogate(a=64)"
    # the linear bound column overflows to inf; the log10 column is the usable one
    bound = data[:, header.index("analytic_bound")].astype(float)
    assert np.all(np.isinf(bound) | (bound > 0))
    assert np.all(np.isfinite(data[:, header.index("analytic_bound_log10")].astype(float)))


def every_check_passed(tmp, meta, header, data):
    assert list(data[:, header.index("passed")]) == ["True"] * len(data)


@pytest.mark.parametrize("commands, name, header, meta_keys, n_rows, check", [
    (["simulate"], "trajectory_seed2.csv", ["t", "x0", "y0", "y1"],
     ["model_id", "seed", "horizon", "state_dim", "obs_dim"], 7, None),
    (["simulate", "filter"], "estimates_seed2_a16.csv", ["t", "estimate_0", "log_norm"],
     ["a_per_dim", "horizon", "model_id", "seed", "chain"], 7, estimates_match_a_direct_run),
    (["converge"], "curve.csv",
     ["a", "mean_sup_error", "max_sup_error", "analytic_bound", "analytic_bound_log10",
      "n_traj", "n_rejected"],
     ["model_id", "horizon", "c_const", "seed", "reference", "a_ref",
      "reference_converged", "reference_gap", "n_total"], 2, curve_carries_a_usable_budget),
    (["converge"], "kg.csv", ["a", "sup_l1_half_cell", "sup_l1_measured", "bound_log10"],
     ["horizon", "c_const", "n_dim", "gamma", "k_o", "kg_t_log_t", "kg_log_t", "delta",
      "log10_denominator", "model_id", "seed"], 2, None),
    (["verify-bounds"], "bounds.csv",
     ["check_id", "n_trials", "worst_ratio", "passed", "k_det", "k_det_minor",
      "k_inv_empirical", "k_inv_formula", "k_sigma_declared"],
     ["model_id", "seed"], 6, every_check_passed),
    (["verify-concentration"], "chi2.csv",
     ["n_dim", "u", "n_samples", "empirical", "bound", "std_err", "passed"],
     ["seed"], 2, every_check_passed),
    (["verify-concentration"], "concentration.csv",
     ["n_dim", "c_const", "horizon", "n_traj", "gamma_data", "gamma_reference",
      "threshold_data", "threshold_reference", "empirical_data", "empirical_reference",
      "bound", "passed"],
     ["model_id", "seed"], 1, every_check_passed),
], ids=["trajectory", "estimates", "curve", "kg", "bounds", "chi2", "concentration"])
def test_each_output_file_has_its_layout(workdir, commands, name, header, meta_keys,
                                         n_rows, check):
    tmp, cfg = workdir
    for command in commands:
        assert main([command, "--config", cfg]) == 0
    meta, got_header, data = gf.read_csv(str(tmp / "out" / name), numeric=False)
    assert got_header == header
    assert list(meta) == meta_keys
    assert len(data) == n_rows
    assert meta["seed"] == "2"
    assert meta.get("model_id", "gauss_walk") == "gauss_walk"
    if check is not None:
        check(tmp, meta, header, data)


def test_verify_fails_on_degenerate_model(tmp_path, capsys):
    # unit-covariance frozen model sits exactly at the eigenvalue floor
    cfg = tmp_path / "flat.ini"
    cfg.write_text("[model]\nid = constant\n\n[run]\nout_dir = "
                   + str(tmp_path / "out") + "\n")
    assert main(["verify", "--config", str(cfg)]) == 1
    assert "assumption audit: FAIL" in capsys.readouterr().err


def test_bad_flag_values_are_usage_errors(workdir, capsys):
    _, cfg = workdir
    assert main(["filter", "--config", cfg, "--resolution", "0"]) == 2
    assert "[filter] resolution must be >= 1" in capsys.readouterr().err
    assert main(["simulate", "--config", cfg, "--seed", "-3"]) == 2
    assert "[run] seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["n_pairs", "n_trials", "n_trajectories"])
def test_zero_verify_counts_are_usage_errors(workdir, capsys, key):
    tmp, cfg = workdir
    text = (tmp / "run.ini").read_text()
    (tmp / "run.ini").write_text(re.sub(rf"^{key} = \d+$", f"{key} = 0", text,
                                        flags=re.M))
    assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "[verify]" in err and key in err


@pytest.mark.parametrize("case", ["2:-1.0:9", "2:1.0:-1", "0:1.0:9"])
def test_bad_concentration_cases_are_usage_errors(workdir, capsys, case):
    tmp, cfg = workdir
    text = (tmp / "run.ini").read_text()
    (tmp / "run.ini").write_text(text.replace("concentration = 2:1.0:0",
                                              f"concentration = {case}"))
    assert main(["verify-concentration", "--config", cfg]) == 2
    assert f"[verify] concentration case {case}" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, command, message", [
    ("c = 1.0", "c = -1.0", "converge", "[converge] c must be > 0"),
    ("c = 1.0", "c = 0.0", "converge", "[converge] c must be > 0"),
    ("c = 1.0", "c = nan", "converge", "[converge] c must be > 0"),
    ("resolutions = 4 8", "resolutions = 0 8", "converge",
     "[converge] resolutions must all be >= 1"),
    ("resolution = 16", "resolution = 16\nbuild_method = monte_carlo\nn_samples = 0",
     "filter", "[filter] n_samples must be >= 1"),
    ("resolution = 16", "resolution = 16\nbuild_method = simpson", "filter",
     "[filter] build_method 'simpson' is not one of quadrature, monte_carlo"),
    ("id = gauss_walk", "id =", "simulate", "missing [model] id"),
    ("n_traj = 4", "n_traj = 0", "converge", "[converge] n_traj must be >= 1"),
    ("chi2_n = 2", "chi2_n = 0", "verify", "[verify] chi2_n must all be >= 1"),
    ("chi2_u = 0.5 1", "chi2_u = 0.5 -1", "verify", "[verify] chi2_u must all be >= 0"),
    ("c = 1.0", "c = inf", "converge", "[converge] c must be > 0 and finite"),
    ("chi2_n = 2", "chi2_n =", "verify", "[verify] chi2_n must be nonempty"),
    ("chi2_u = 0.5 1", "chi2_u =", "verify", "[verify] chi2_u must be nonempty"),
    ("chi2_u = 0.5 1", "chi2_u = 0.5 inf", "verify", "[verify] chi2_u must all be finite"),
    ("chi2_u = 0.5 1", "chi2_u = nan", "verify", "[verify] chi2_u must all be finite"),
    ("concentration = 2:1.0:0", "concentration =", "verify",
     "[verify] concentration must be nonempty"),
    ("concentration = 2:1.0:0", "concentration = 2:inf:9", "verify",
     "[verify] concentration case 2:inf:9 needs n >= 1, finite c > 0"),
    ("resolution = 16", "resoluton = 16", "filter", "[filter] resoluton is not a known key"),
    ("[verify]", "[verfy]", "verify", "[verfy] is not a known section"),
    ("id = gauss_walk", "id = gauss_walk\nn = 2.5", "simulate",
     "[model] n must be an integer, not 2.5"),
    ("id = gauss_walk", "id = gauss_walk\nn = two", "simulate",
     "[model] n must be an integer, not 'two'"),
    ("id = gauss_walk", "id = gauss_walk\nobs_scale = abc", "simulate",
     "[model] obs_scale must be a real number, not 'abc'"),
    ("id = gauss_walk", "id = gauss_walk\nupper = 1e300", "simulate",
     "config error: [model] lower = 0 and upper = 1e+300: beta + x^2 overflows"),
    ("id = gauss_walk", "id = finite_chain", "converge",
     "config error: build method 'quadrature' needs the kernel's density"),
], ids=["c-negative", "c-zero", "c-nan", "resolution-zero", "n_samples-zero",
        "build_method-unknown", "model-id-empty", "n_traj-zero", "chi2_n-zero",
        "chi2_u-negative", "c-inf", "chi2_n-empty", "chi2_u-empty", "chi2_u-inf",
        "chi2_u-nan", "concentration-empty", "concentration-c-inf",
        "resolution-misspelt", "verify-misspelt", "n-float", "n-word",
        "obs_scale-word", "upper-overflow", "quadrature-without-density"])
def test_bad_run_values_are_usage_errors(workdir, capsys, old, new, command, message):
    tmp, cfg = workdir
    # the filter needs a trajectory on disk to get as far as building its chain
    assert main(["simulate", "--config", cfg]) == 0
    before = snapshot(tmp / "out")
    text = (tmp / "run.ini").read_text()
    (tmp / "run.ini").write_text(text.replace(old, new))
    assert main([command, "--config", cfg]) == 2
    assert message in capsys.readouterr().err
    assert snapshot(tmp / "out") == before  # no CSV written or changed


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model", ["finite_chain", "gauss_walk"])
def test_a_box_whose_width_overflows_is_a_usage_error(workdir, capsys, model):
    tmp, cfg = workdir
    text = (tmp / "run.ini").read_text()
    (tmp / "run.ini").write_text(text.replace(
        "id = gauss_walk", f"id = {model}\nlower = -1e308\nupper = 1e308"))
    assert main(["simulate", "--config", cfg]) == 2
    assert ("config error: [model] lower = -1e+308 and upper = 1e+308: the width of "
            "axis 0, upper - lower, overflows") in capsys.readouterr().err
    assert not list(tmp.glob("out/*.csv"))


CHECKED_IN_CONFIGS = sorted(ROOT.glob("*/configs/*.ini"))


@pytest.mark.parametrize("make", [
    lambda: gf.RunConfig(model_id="gauss_walk",
                         model_params={"n": 3, "beta": 0.4, "lower": 0.0},
                         horizon=11, seed=7, out_dir="results",
                         resolutions=(4, 8, 16), a_ref=256, c_const=1.5,
                         chi2_u=(0.25, 1.0), chi2_n=(2,),
                         concentration_cases=((2, 1.0, 4),)),
    *[lambda path=path: gf.load_config(str(path)) for path in CHECKED_IN_CONFIGS],
], ids=["hand_built", *[path.name for path in CHECKED_IN_CONFIGS]])
def test_config_render_parse_identity(make):
    cfg = make()
    # repr, not ==: a model parameter 2 equals 2.0, which build_model refuses
    assert repr(gf.parse_config(gf.render_config(cfg))) == repr(cfg)


def test_model_params_keep_words_as_strings():
    cfg = gf.parse_config("[model]\nid = finite_chain\nkind = sticky\n"
                          "n_states = 4\nstick_prob = 0.7\n")
    assert cfg.model_params == {"kind": "sticky", "n_states": 4, "stick_prob": 0.7}
    assert [type(v) for v in cfg.model_params.values()] == [str, int, float]


def test_parse_rejects_malformed_values():
    with pytest.raises(gf.ConfigError, match="resolutions"):
        gf.parse_config("[model]\nid = gauss_walk\n[converge]\nresolutions = a b\n")
    with pytest.raises(gf.ConfigError, match="n:c:horizon"):
        gf.parse_config("[model]\nid = gauss_walk\n[verify]\nconcentration = 2:1\n")
    with pytest.raises(gf.ConfigError):
        gf.parse_config("[model]\nid = gauss_walk\n[run]\nhorizon = -4\n")


@pytest.mark.parametrize("command, name, changes, message", [
    ("converge", "convergence_sweep", {"reference_converged": False, "reference_gap": 0.5},
     "check failed: reference filter unconverged (gap 5.000e-01)"),
    ("verify-bounds", "check_adjugate_bound", {"worst_ratio": 2.0},
     "check failed: adjugate-norm-2d, adjugate-norm-3d, adjugate-norm-5d"),
    ("verify-concentration", "chi2_tail_check", {"empirical": 1.0},
     "check failed: concentration"),
], ids=["converge", "verify-bounds", "verify-concentration"])
def test_failed_checks_exit_1(workdir, capsys, monkeypatch, command, name, changes, message):
    _, cfg = workdir
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args, **kwargs: dataclasses.replace(
        real(*args, **kwargs), **changes))
    assert main([command, "--config", cfg]) == 1
    assert message in capsys.readouterr().err


THREE_CASES = "concentration = 2:1.0:0 2:1.0:3 3:1.0:2"


def with_three_cases(tmp):
    text = (tmp / "run.ini").read_text()
    (tmp / "run.ini").write_text(text.replace("concentration = 2:1.0:0", THREE_CASES))


def test_pooled_reports_equal_direct_calls_whatever_the_cpu_count(workdir, monkeypatch):
    tmp, cfg = workdir
    with_three_cases(tmp)
    workers, futures = [], []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers, **kwargs)

        def submit(self, *args, **kwargs):
            futures.append(super().submit(*args, **kwargs))
            return futures[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    outputs = {}
    for cpus in (4, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert main(["verify-concentration", "--config", cfg, "--out",
                     str(tmp / f"cpus{cpus}")]) == 0
        outputs[cpus] = [read_bytes(tmp / f"cpus{cpus}" / name)
                         for name in ("chi2.csv", "concentration.csv")]
    assert workers == [3, 1]
    assert outputs[4] == outputs[1]
    direct = [gf.concentration_experiment(gf.build_model("gauss_walk", n=n), horizon, c,
                                          5000, seed=2)
              for n, c, horizon in [(2, 1.0, 0), (2, 1.0, 3), (3, 1.0, 2)]]
    assert [f.result() for f in futures] == direct * 2


def test_without_an_affinity_mask_the_pool_counts_os_cpu_count(workdir, monkeypatch):
    tmp, cfg = workdir
    with_three_cases(tmp)
    workers = []

    class InlinePool(concurrent.futures.Executor):
        """Records its worker count and runs each case here, starting no process."""

        def __init__(self, max_workers, **kwargs):
            workers.append(max_workers)

        def submit(self, fn, *args, **kwargs):
            future = concurrent.futures.Future()
            future.set_result(fn(*args, **kwargs))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    outputs = []
    for cpus in (None, 2):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert main(["verify-concentration", "--config", cfg, "--out",
                     str(tmp / f"cpus{cpus}")]) == 0
        outputs.append([read_bytes(tmp / f"cpus{cpus}" / name)
                        for name in ("chi2.csv", "concentration.csv")])
    assert workers == [1, 2]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("error, code, message", [
    (gf.ModelDefinitionError, 1, "check failed: case n=3 raised"),
    (gf.ConfigError, 2, "config error: case n=3 raised"),
], ids=["model_definition", "config"])
def test_a_case_failing_in_a_worker_exits_as_in_process(workdir, capsys, monkeypatch,
                                                        error, code, message):
    tmp, cfg = workdir
    with_three_cases(tmp)
    real = cli.concentration_experiment

    def failing(spec, *args, **kwargs):  # the forked workers inherit this patch
        if spec.obs.n == 3:
            raise error(f"case n={spec.obs.n} raised")
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(cli, "concentration_experiment", failing)
    assert main(["verify-concentration", "--config", cfg]) == code
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp / "out" / "concentration.csv").exists()


def failing_case(spec, *args, **kwargs):
    raise gf.ModelDefinitionError("a case failed")


def refused_product_bound(n_trials, seed=0, norm="fro"):
    raise gf.ConfigError("a bound check was refused")


@pytest.mark.parametrize("patch, code", [
    ({}, 0),
    ({"concentration_experiment": failing_case}, 1),
    ({"check_adjugate_bound": lambda *args, **kwargs: dataclasses.replace(
        gf.check_adjugate_bound(*args, **kwargs), worst_ratio=2.0)}, 1),
    ({"check_product_bound": refused_product_bound}, 2),
], ids=["pass", "failed_case", "failed_bound", "refused_bound"])
def test_verify_leaves_no_worker_running(workdir, monkeypatch, patch, code):
    tmp, cfg = workdir
    with_three_cases(tmp)
    for name, value in patch.items():
        monkeypatch.setattr(cli, name, value)
    assert main(["verify", "--config", cfg]) == code
    assert multiprocessing.active_children() == []


def table(tmp, text):
    path = tmp / "table.csv"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("make, message", [
    (lambda tmp: gf.parse_config("[model]\nid = gauss_walk\n[converge]\nresolutions =\n"),
     r"\[converge\] resolutions must be nonempty"),
    (lambda tmp: gf.parse_config("[model\nid = gauss_walk\n"), "unparseable config"),
    (lambda tmp: gf.load_config(str(tmp / "missing.ini")),
     "cannot read config .*missing.ini"),
    (lambda tmp: gf.parse_config("[model]\nid = gauss_walk\n[filter]\nresoluton = 8\n"),
     r"\[filter\] resoluton is not a known key"),
    (lambda tmp: gf.parse_config("[model]\nid = gauss_walk\n[verfy]\nn_pairs = 8\n"),
     r"\[verfy\] is not a known section; known: model, run, filter, converge, verify"),
    (lambda tmp: gf.parse_config("[model]\nid = gauss_walk\n[run]\n"
                                 "horizon = 4\nn_pairs = 8\n"),
     r"\[run\] n_pairs is not a known key"),
    (lambda tmp: gf.parse_config("[DEFAULT]\nhorizon = 4\n[model]\nid = gauss_walk\n"),
     r"\[DEFAULT\] is not a known section"),
    (lambda tmp: gf.parse_config("[modle]\nid = gauss_walk\n"),
     r"\[modle\] is not a known section"),
], ids=["resolutions_empty", "unparseable", "unreadable", "misspelt_key",
        "misspelt_section", "key_of_another_section", "default_section",
        "misspelt_model"])
def test_config_refusals(tmp_path, make, message):
    with pytest.raises(gf.ConfigError, match=message):
        make(tmp_path)


@pytest.mark.parametrize("make, message", [
    (lambda tmp: gf.read_csv(table(tmp, "# seed = 0\na,b\n1,2\n3,4,5\n")),
     "table.csv: row 2 has 3 fields, expected 2"),
    (lambda tmp: gf.read_csv(table(tmp, "# seed = 0\n\n")), "table.csv: no header row"),
], ids=["field_count", "no_header"])
def test_csv_refusals(tmp_path, make, message):
    with pytest.raises(gf.ConfigError, match=message):
        make(tmp_path)
