import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import data_path, read_data
from wqmpc.cli import main
from wqmpc.dynamics import build_schedule, initial_state, simulate
from wqmpc.hydraulics import load_hydraulics
from wqmpc.network import parse_network
from wqmpc.synth import SynthSpec, synth_case


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


def reference_csv(net_path, hyd_path, segments, period_s):
    """The per-minute CSV as written from a whole simulated trajectory."""
    net = parse_network(Path(net_path).read_text())
    profile = load_hydraulics(
        net, Path(hyd_path).read_text(), period_duration_s=period_s
    )
    schedule = build_schedule(net, profile, segments)
    im = schedule[0][0].index_map
    traj = simulate(schedule, initial_state(net, im))
    minutes = np.floor(traj.times_s / 60.0 + 1e-9)
    first = np.flatnonzero(np.diff(minutes)) + 1
    idx = np.unique(np.r_[0, first, len(traj.times_s) - 1])
    lines = ["time_s," + ",".join(im.labels()) + "\n"]
    for t, row in zip(traj.times_s[idx], traj.states[idx]):
        lines.append(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")
    return "".join(lines).encode(), len(idx), im.n_x


@pytest.mark.parametrize("case, segments", [
    ("three_node", 10),  # dt > 60 s: every step is a row
    ("three_node", 50),  # dt < 60 s: the first step of each minute
    ("synth", 10),  # ends mid-minute: the last step is kept too
])
def test_simulate_csv_matches_whole_trajectory(tmp_path, capsys, case, segments):
    if case == "synth":
        net_text, csv_text = synth_case(SynthSpec(
            n_junctions=40, n_tanks=2, n_boosters=3, n_pumps=1,
            n_extra_pipes=4, n_periods=2, period_s=610.0, seed=5,
        ))
        net, hyd, period_s = tmp_path / "net.inp", tmp_path / "hyd.csv", 610.0
        net.write_text(net_text)
        hyd.write_text(csv_text)
    else:
        net = data_path("three_node.inp")
        hyd = data_path("three_node_hydraulics.csv")
        period_s = 3600.0
    out = tmp_path / "traj.csv"
    assert run(
        "simulate", "--net", str(net), "--hydraulics", str(hyd),
        "--period-s", f"{period_s:g}", "--segments", str(segments),
        "--out", str(out),
    ) == 0
    expect, rows, n_x = reference_csv(net, hyd, segments, period_s)
    assert out.read_bytes() == expect
    assert capsys.readouterr().out == f"wrote {out} ({rows} rows, {n_x} states)\n"


def test_simulate_memory_is_bounded(tmp_path):
    net_path = data_path("three_node.inp")
    hyd_path = data_path("three_node_hydraulics.csv")
    net = parse_network(read_data("three_node.inp"))
    profile = load_hydraulics(net, read_data("three_node_hydraulics.csv"))
    schedule = build_schedule(net, profile, 100)
    trajectory_bytes = (sum(n for _, n in schedule) + 1) * schedule[0][0].n_x * 8
    assert trajectory_bytes > 5e6  # 24 h at 100 segments: ~6.8 MB
    tracemalloc.start()
    try:
        code = run(
            "simulate", "--net", net_path, "--hydraulics", hyd_path,
            "--segments", "100", "--out", str(tmp_path / "traj.csv"),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < trajectory_bytes / 4


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
    hyd.write_text(read_data("three_node_hydraulics.csv").replace(
        ",booster_flow,2", ",booster_flow,0"
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
