import json

import pytest

from conftest import data_path, read_data
from wqmpc.cli import main


@pytest.fixture()
def short_scenario(tmp_path):
    cfg = json.loads(read_data("three_node_scenario.json"))
    cfg.update({"duration_s": 7200.0, "horizon": 12})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run(*argv):
    return main(list(argv))


def test_inspect(capsys):
    code = run(
        "inspect", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "n_J = 1" in out
    assert "periods = 24" in out
    assert "balanced = True" in out


def test_no_arguments_prints_usage(capsys):
    assert run() == 1
    assert "usage" in capsys.readouterr().err


def test_missing_file_is_config_error(capsys):
    assert run("inspect", "--net", "/nonexistent.inp") == 1
    assert "cannot read" in capsys.readouterr().err


def test_bad_network_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.inp"
    bad.write_text("[PIPES]\nP1 A B 10 0.3 0 0 0\n")
    assert run("inspect", "--net", str(bad)) == 1


def test_build_matrices(tmp_path, capsys):
    out_dir = tmp_path / "mats"
    code = run(
        "build-matrices", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--segments", "10", "--out", str(out_dir),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "n_x = 14" in out
    assert (out_dir / "period0_A.csv").exists()
    assert (out_dir / "period0_index.json").exists()
    assert "boosters = J2" in out
    index = json.loads((out_dir / "period0_index.json").read_text())
    assert index["J2"] == 0 and index["M12"] == 13


def test_stagnant_network_is_model_error(tmp_path, capsys):
    net = tmp_path / "net.inp"
    net.write_text(
        "[JUNCTIONS]\nJ1\n[RESERVOIRS]\nR1 1.0\n"
        "[PIPES]\nP1 R1 J1 100 0.3 0 0 0\n"
    )
    hyd = tmp_path / "hyd.csv"
    hyd.write_text("period,entity,kind,value\n0,P1,flow,0\n0,J1,demand,0\n")
    code = run(
        "build-matrices", "--net", str(net), "--hydraulics", str(hyd),
        "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert "stagnant" in capsys.readouterr().err


def test_simulate_writes_csv(tmp_path):
    out = tmp_path / "traj.csv"
    code = run(
        "simulate", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--segments", "10", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("time_s,J2,R1,TK3,P23[0]")
    # 10 segments -> 100-120 s quality steps; one row per step over 24 h
    assert 24 * 30 <= len(lines) <= 24 * 36 + 2


def test_control_runs(tmp_path, short_scenario, capsys):
    out_dir = tmp_path / "run"
    code = run(
        "control", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--scenario", short_scenario, "--out", str(out_dir),
    )
    assert code == 0
    assert (out_dir / "timeseries.csv").exists()
    assert (out_dir / "metrics.json").exists()
    assert "total =" in capsys.readouterr().out


def test_control_bad_horizon_is_solver_error(tmp_path, short_scenario, capsys):
    code = run(
        "control", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--scenario", short_scenario, "--horizon", "0",
        "--out", str(tmp_path / "x"),
    )
    assert code == 3
    assert "solver error" in capsys.readouterr().err


def test_control_malformed_sensor_is_model_error(tmp_path, capsys):
    cfg = json.loads(read_data("three_node_scenario.json"))
    cfg.update({"duration_s": 3600.0, "sensors": ["P23[x]"]})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    code = run(
        "control", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--scenario", str(path), "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert "malformed entity spec 'P23[x]'" in capsys.readouterr().err


@pytest.mark.parametrize("controller,code", [("mpc", 3), ("rbc", 0), ("none", 0)])
def test_control_without_boosters(tmp_path, short_scenario, capsys, controller, code):
    hyd = tmp_path / "hyd.csv"
    hyd.write_text("".join(
        line.replace(",booster_flow,2", ",booster_flow,0")
        for line in open(data_path("three_node_hydraulics.csv"))
    ))
    out_dir = tmp_path / "run"
    assert run(
        "control", "--controller", controller,
        "--net", data_path("three_node.inp"), "--hydraulics", str(hyd),
        "--scenario", short_scenario, "--out", str(out_dir),
    ) == code
    if code:
        assert "MPC needs at least one booster" in capsys.readouterr().err
    else:
        header = (out_dir / "timeseries.csv").read_text().splitlines()[0]
        assert header == "time_s,y_J2,injected_mg"


def test_compare_rbc(tmp_path, short_scenario, capsys):
    out_dir = tmp_path / "cmp"
    code = run(
        "compare-rbc", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--scenario", short_scenario, "--out", str(out_dir),
    )
    assert code == 0
    comparison = json.loads((out_dir / "comparison.json").read_text())
    assert comparison["total_ratio_rbc_over_mpc"] > 1.0
    assert (out_dir / "mpc" / "metrics.json").exists()
    assert (out_dir / "rbc" / "metrics.json").exists()


def test_scale_report_counts_only(capsys):
    code = run(
        "scale-report", "--net", data_path("net1.inp"),
        "--segments", "100", "--horizon", "300",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "lp_variables = 366900" in out
    assert "qp_variables = 3300" in out
    assert "solve_seconds" not in out


def test_scale_report(capsys):
    code = run(
        "scale-report", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--segments", "100", "--horizon", "300", "--sensors", "J2",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "lp_variables = 32100" in out
    assert "qp_variables = 900" in out
    assert "decision_variables = 300" in out  # horizon x one booster
    assert "solve_seconds" in out
