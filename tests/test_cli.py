import numpy as np
import pytest

import gridfilter as gf
from gridfilter.cli import main


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


def test_dimension_mismatch_is_usage_error(workdir, capsys):
    tmp, cfg = workdir
    main(["simulate", "--config", cfg])
    wider = str(tmp / "wider.ini")
    with open(wider, "w") as fh:
        fh.write(BASE.format(out=tmp / "out").replace("id = gauss_walk",
                                                      "id = gauss_walk\nn = 3"))
    assert main(["filter", "--config", wider]) == 2
    assert "expects" in capsys.readouterr().err


def test_converge_writes_curve_and_budget(workdir):
    tmp, cfg = workdir
    assert main(["converge", "--config", cfg]) == 0
    meta, header, data = gf.read_csv(str(tmp / "out" / "curve.csv"))
    assert header[:3] == ["a", "mean_sup_error", "max_sup_error"]
    assert "analytic_bound_log10" in header
    assert data.shape[0] == 2
    kg_meta, _, kg_data = gf.read_csv(str(tmp / "out" / "kg.csv"))
    assert kg_data.shape[0] == 2
    assert "kg_t_log_t" in kg_meta


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


def test_verify_concentration_passes_on_demo(workdir, capsys):
    tmp, cfg = workdir
    assert main(["verify-concentration", "--config", cfg]) == 0
    assert (tmp / "out" / "chi2.csv").exists()
    assert (tmp / "out" / "concentration.csv").exists()


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
    assert main(["simulate", "--config", cfg, "--seed", "-3"]) == 2


def test_config_render_parse_identity():
    cfg = gf.RunConfig(model_id="gauss_walk",
                       model_params={"n": 3, "beta": 0.4, "lower": 0.0},
                       horizon=11, seed=7, out_dir="results",
                       resolutions=(4, 8, 16), a_ref=256, c_const=1.5,
                       chi2_u=(0.25, 1.0), chi2_n=(2,),
                       concentration_cases=((2, 1.0, 4),))
    text = gf.render_config(cfg)
    assert gf.parse_config(text) == cfg


def test_parse_rejects_malformed_values():
    with pytest.raises(gf.ConfigError, match="resolutions"):
        gf.parse_config("[model]\nid = gauss_walk\n[converge]\nresolutions = a b\n")
    with pytest.raises(gf.ConfigError, match="n:c:horizon"):
        gf.parse_config("[model]\nid = gauss_walk\n[verify]\nconcentration = 2:1\n")
    with pytest.raises(gf.ConfigError):
        gf.parse_config("[model]\nid = gauss_walk\n[run]\nhorizon = -4\n")
