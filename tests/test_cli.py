import json
import logging
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import data_path, read_data
from wqmpc.cli import main
from wqmpc.dynamics import StateIndexMap, build_schedule, initial_state, simulate
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


def test_inspect_reports_an_unbalanced_schedule(tmp_path, capsys, caplog):
    """A schedule that does not balance loads with its warning, and
    ``inspect`` prints the balance of the same residuals."""
    from test_hydraulics import NET, UNBALANCED

    net, hyd = tmp_path / "net.inp", tmp_path / "hyd.csv"
    net.write_text(NET)
    hyd.write_text(UNBALANCED)
    with caplog.at_level(logging.WARNING):
        code = run("inspect", "--net", str(net), "--hydraulics", str(hyd))
    out = capsys.readouterr().out
    assert code == 0
    assert "balanced = False" in out.splitlines()
    # |100 - 58 + 2 - 60| over the demand plus the flow through J1
    residual = float(out.split("max_balance_residual = ")[1])
    assert residual == pytest.approx(16 / 218, rel=1e-3)
    assert any("flow balance" in r.message for r in caplog.records)


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


def test_simulate_refuses_a_non_finite_rate(tmp_path, capsys):
    text = read_data("three_node.inp").replace(
        "P23 J2 TK3 1000 0.3 -0.3 0 0", "P23 J2 TK3 1000 0.3 nan 0 0"
    )
    assert "nan" in text
    net = tmp_path / "nan.inp"
    net.write_text(text)
    out = tmp_path / "traj.csv"
    code = run(
        "simulate", "--net", str(net),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--out", str(out),
    )
    assert code == 1
    assert capsys.readouterr().err == "error: line 9: bad number for kb: 'nan'\n"
    assert not out.exists()


@pytest.mark.parametrize("command, period_s", [
    ("simulate", "0"), ("simulate", "nan"), ("inspect", "-5"),
    ("control", "-3600"),
])
def test_a_bad_hydraulic_period_is_refused(tmp_path, capsys, command, period_s):
    """A period duration that is not finite and positive is refused when
    the schedule loads, with exit 1 and the value, by every command."""
    extra = {
        "simulate": ["--out", str(tmp_path / "traj.csv")],
        "inspect": [],
        "control": ["--scenario", data_path("three_node_scenario.json"),
                    "--out", str(tmp_path / "run")],
    }[command]
    code = run(
        command, "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--period-s", period_s, *extra,
    )
    out, err = capsys.readouterr()
    assert code == 1
    assert err == (
        "error: hydraulic period duration must be finite and positive, "
        f"got {float(period_s)!r} s\n"
    )
    assert out == ""
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, out, failed", [
    ("simulate", "missing_dir/traj.csv", "missing_dir/traj.csv"),
    ("build-matrices", "taken", "taken"),
    ("control", "taken", "taken"),
    ("compare-rbc", "taken", "taken"),
])
def test_an_unwritable_output_is_refused(tmp_path, capsys, monkeypatch,
                                         short_scenario, command, out, failed):
    """An output path that cannot be written, in a missing directory or
    where a file stands in for a directory, exits 1 with the path and
    the reason, as an unreadable input does, before any schedule is
    built."""
    import wqmpc.cli
    import wqmpc.scenario

    built = []
    for owner in (wqmpc.cli, wqmpc.scenario):
        def counted(*args, real=owner.build_schedule, **kwargs):
            built.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, "build_schedule", counted)
    (tmp_path / "taken").write_text("")
    scenario = [] if command in ("simulate", "build-matrices") else [
        "--scenario", short_scenario]
    code = run(
        command, "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        *scenario, "--out", str(tmp_path / out),
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot write {tmp_path / failed}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert built == []


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


def _stagnant_case(tmp_path):
    """A one-pipe network and a schedule whose flows are all zero."""
    net = tmp_path / "net.inp"
    net.write_text(
        "[JUNCTIONS]\nJ1\n[RESERVOIRS]\nR1 1.0\n"
        "[PIPES]\nP1 R1 J1 100 0.3 0 0 0\n"
    )
    hyd = tmp_path / "hyd.csv"
    hyd.write_text("period,entity,kind,value\n0,P1,flow,0\n0,J1,demand,0\n")
    return ["--net", str(net), "--hydraulics", str(hyd)]


def test_stagnant_network_is_model_error(tmp_path, capsys):
    code = run("build-matrices", *_stagnant_case(tmp_path), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "stagnant" in capsys.readouterr().err


@pytest.mark.parametrize("command, code", [
    ("build-matrices", 2),  # a stagnant schedule
    ("simulate", 2),
    ("control", 3),         # MPC with no booster
    ("compare-rbc", 3),
])
def test_a_failed_command_removes_the_empty_output_it_made(
        tmp_path, short_scenario, capsys, command, code):
    """A model or solver error after ``--out`` is made leaves no empty
    directory or file behind; an empty one that was there before stays."""
    if command in ("build-matrices", "simulate"):
        inputs = _stagnant_case(tmp_path)
    else:
        hyd = tmp_path / "hyd.csv"
        hyd.write_text(read_data("three_node_hydraulics.csv").replace(
            ",booster_flow,2", ",booster_flow,0"))
        inputs = ["--net", data_path("three_node.inp"), "--hydraulics",
                  str(hyd), "--scenario", short_scenario]
    made, kept = tmp_path / "made", tmp_path / "kept"
    if command == "simulate":  # its output is a file
        kept.touch()
    else:
        kept.mkdir()
    for out in (made, kept):
        assert run(command, *inputs, "--out", str(out)) == code
    assert "error" in capsys.readouterr().err
    assert not made.exists()
    if command == "simulate":
        assert kept.is_file() and kept.stat().st_size == 0
    else:
        assert kept.is_dir() and not any(kept.iterdir())


def test_simulate_keeps_an_existing_output_on_a_model_error(tmp_path, capsys):
    """A model refused before the first row leaves ``--out`` as it was."""
    out = tmp_path / "old.csv"
    out.write_bytes(b"old\n")
    code = run("simulate", *_stagnant_case(tmp_path), "--out", str(out))
    assert code == 2
    assert "stagnant" in capsys.readouterr().err
    assert out.read_bytes() == b"old\n"


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
    schedule = build_schedule(profile, StateIndexMap(net, segments))
    im = schedule[0][0].index_map
    traj = simulate(schedule, initial_state(im))
    minutes = np.floor(traj.times_s / 60.0 + 1e-9)
    first = np.flatnonzero(np.diff(minutes)) + 1
    idx = np.unique(np.r_[0, first, len(traj.times_s) - 1])
    lines = ["time_s," + ",".join(im.labels()) + "\n"]
    for t, row in zip(traj.times_s[idx], traj.states[idx]):
        lines.append(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")
    return "".join(lines).encode(), len(idx), im.n_x


@pytest.mark.parametrize("case, segments, period_s", [
    ("three_node", 10, 3600.0),  # dt > 60 s: every step is a row
    ("three_node", 50, 3600.0),  # dt < 60 s: the first step of each minute
    ("net3", 10, 1800.0),  # real transport states, zero and 3e-66 to 1.5
    ("synth", 10, 610.0),  # ends mid-minute: the last step is kept too
])
def test_simulate_csv_matches_whole_trajectory(tmp_path, capsys, case, segments,
                                               period_s):
    """Every row against Python's own ``%.17g`` of the same states."""
    if case == "synth":
        net_text, csv_text = synth_case(SynthSpec(
            n_junctions=40, n_tanks=2, n_boosters=3, n_pumps=1,
            n_extra_pipes=4, n_periods=2, period_s=period_s, seed=5,
        ))
        net, hyd = tmp_path / "net.inp", tmp_path / "hyd.csv"
        net.write_text(net_text)
        hyd.write_text(csv_text)
    else:
        net = data_path(f"{case}.inp")
        hyd = data_path(f"{case}_hydraulics.csv")
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
    schedule = build_schedule(profile, StateIndexMap(net, 100))
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
    out = capsys.readouterr().out
    assert "total =" in out
    assert "wall_ms_per_control_step =" in out  # printed, not exported
    assert "wall_" not in (out_dir / "metrics.json").read_text()


def test_control_bad_horizon_is_solver_error(tmp_path, short_scenario, capsys):
    """A horizon below 1 is a bad scenario value: refused by its key, exit
    1, before the solver sees it."""
    code = run(
        "control", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--scenario", short_scenario, "--horizon", "0",
        "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert "horizon" in capsys.readouterr().err


@pytest.mark.parametrize("controller", ["mpc", "rbc", "none"])
def test_a_horizon_below_1_is_refused_before_any_assembly(
        tmp_path, short_scenario, capsys, monkeypatch, controller):
    import wqmpc.scenario as scenario

    calls = []
    real = scenario.build_schedule

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scenario, "build_schedule", counted)
    code = run(
        "control", "--controller", controller,
        "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--scenario", short_scenario, "--horizon", "0",
        "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert capsys.readouterr().err == "error: horizon must be at least 1, got 0\n"
    assert calls == []


def _rule_edit(index: int, key: str, value: float) -> dict:
    """The shipped three_node rule table with one field of one rule set."""
    rules = json.loads(read_data("three_node_scenario.json"))["rules"]
    rules[index][key] = value
    return {"rules": rules}


@pytest.mark.parametrize("edit, key", [
    ({"sensors": []}, "sensors"),
    ({"sensors": "J2"}, "sensors"),
    ({"events": None}, "events"),
    ({"constrained": "false"}, "constrained"),
    ({"horizon": 30.9}, "horizon"),
    ({"seed": 1.5}, "seed"),
    ({"seed": "7"}, "seed"),
    ({"seed": -1}, "seed"),
    ({"duration_s": "3600"}, "duration_s"),
    ({"duration_s": float("inf")}, "duration_s"),
    ({"control_period_s": 0}, "control_period_s"),
    ({"control_period_s": float("nan")}, "control_period_s"),
    ({"y_ref": True}, "y_ref"),
    ({"y_ref": [2.0]}, "y_ref"),
    ({"q": "1"}, "q"),
    ({"segments": True}, "segments"),
    ({"segments": 2.7}, "segments"),
    ({"u_max": None}, "u_max"),
    ({"y_min": float("nan"), "constrained": True}, "y_min"),
    ({"y_max": float("nan"), "constrained": True}, "y_max"),
    (_rule_edit(0, "low", float("nan")), "low"),
    (_rule_edit(2, "high", float("nan")), "high"),
    (_rule_edit(1, "dose_mg", float("nan")), "dose_mg"),
    (_rule_edit(1, "dose_mg", float("inf")), "dose_mg"),
])
def test_control_malformed_scenario_field_is_config_error(tmp_path, capsys,
                                                          edit, key):
    cfg = json.loads(read_data("three_node_scenario.json"))
    cfg.update(edit)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    code = run(
        "control", "--controller", "none", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--scenario", str(path), "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must ")
    assert not (tmp_path / "x").exists()


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


def test_compare_rbc_exports_are_deterministic(tmp_path, short_scenario):
    """Two equal-seed runs write byte-identical trees, comparison.json
    included: no wall-clock number is exported."""
    trees = []
    for name in ("one", "two"):
        out_dir = tmp_path / name
        assert run(
            "compare-rbc", "--net", data_path("three_node.inp"),
            "--hydraulics", data_path("three_node_hydraulics.csv"),
            "--scenario", short_scenario, "--out", str(out_dir),
        ) == 0
        trees.append({
            str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()
        })
    assert sorted(trees[0]) == [
        "comparison.json", "mpc/metrics.json", "mpc/timeseries.csv",
        "rbc/metrics.json", "rbc/timeseries.csv",
    ]
    assert trees[0] == trees[1]


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


@pytest.mark.parametrize("horizon", ["0", "-2"])
def test_scale_report_refuses_a_horizon_below_1(capsys, horizon):
    code = run(
        "scale-report", "--net", data_path("net1.inp"),
        "--segments", "100", "--horizon", horizon,
    )
    out, err = capsys.readouterr()
    assert code == 3
    assert err == "solver error: prediction horizon must be at least 1 step\n"
    assert out == ""


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


@pytest.mark.parametrize("sensors, closure", [("J2", 2), ("P23", 13)])
def test_scale_report_prints_the_sensors_closure(capsys, sensors, closure):
    """J2 is fed only through the pump from R1, so it sees two states.
    The outlet of P23 sees its 10 segments, J2 and R1, and TK3, which
    feeds back into the outlet through the stencil's downstream term."""
    code = run(
        "scale-report", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--segments", "10", "--horizon", "20", "--sensors", sensors,
    )
    assert code == 0
    out = dict(
        line.split(" = ") for line in capsys.readouterr().out.splitlines()
    )
    assert int(out["closure_states"]) == closure
    assert int(out["n_x"]) == 14


def test_scale_report_builds_no_matrix_of_the_whole_layout(monkeypatch, capsys):
    """The law is built and timed on the sensor J2's closure, as a run
    builds it: no matrix with the whole layout's 104 rows is ever
    constructed, and n_x still reports the whole layout."""
    from wqmpc.sparse import CSR

    rows = []
    real_init = CSR.__init__

    def counted(self, indptr, indices, data, shape):
        rows.append(int(shape[0]))
        real_init(self, indptr, indices, data, shape)

    monkeypatch.setattr(CSR, "__init__", counted)
    code = run(
        "scale-report", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--segments", "100", "--horizon", "20", "--sensors", "J2",
    )
    assert code == 0 and rows
    assert 104 not in rows
    out = dict(
        line.split(" = ") for line in capsys.readouterr().out.splitlines()
    )
    assert (out["n_x"], out["closure_states"]) == ("104", "2")


def test_scale_report_refuses_an_unknown_sensor_first(capsys):
    code = run(
        "scale-report", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--segments", "10", "--horizon", "20", "--sensors", "J2,J99",
    )
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "model error: unknown entity 'J99'\n"


def test_scale_report_refuses_a_law_without_boosters(tmp_path, capsys):
    rows = read_data("three_node_hydraulics.csv").splitlines(keepends=True)
    hydraulics = tmp_path / "no_boosters.csv"
    hydraulics.write_text("".join(r for r in rows if "booster_flow" not in r))
    code = run(
        "scale-report", "--net", data_path("three_node.inp"),
        "--hydraulics", str(hydraulics), "--segments", "10", "--horizon", "10",
    )
    assert code == 3  # the same refusal as a control run
    captured = capsys.readouterr()
    assert "decision_variables = 0" in captured.out
    assert "build_seconds" not in captured.out
    assert "solver error: MPC needs at least one booster" in captured.err


def test_scale_report_prints_predictor_size(capsys):
    from wqmpc.mpc import PredictionOperator, build_augmented

    code = run(
        "scale-report", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--segments", "10", "--horizon", "40", "--sensors", "J2,P23",
    )
    assert code == 0
    out = dict(
        line.split(" = ") for line in capsys.readouterr().out.splitlines()
    )
    net = parse_network(read_data("three_node.inp"))
    profile = load_hydraulics(net, read_data("three_node_hydraulics.csv"))
    sys_ = build_schedule(profile, StateIndexMap(net, 10))[0][0]
    pred = PredictionOperator(build_augmented(sys_, ["J2", "P23"]), 40)
    columns = int(out["predictor_columns"])
    assert columns == pred.support.size < sys_.n_x + 2
    assert float(out["predictor_mb"]) == round(40 * 2 * columns * 8 / 1e6, 3)


def run_python(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter with the package's ``src`` on
    its path, so nothing this test process imported is loaded there."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def every_command(tmp_path, short_scenario) -> list[list[str]]:
    """One argv per command on three_node, MPC constrained and not."""
    cfg = json.loads(Path(short_scenario).read_text())
    cfg.update({"constrained": True, "u_max": 1.0})  # the input cap binds
    constrained = tmp_path / "constrained.json"
    constrained.write_text(json.dumps(cfg))
    tn = ["--net", data_path("three_node.inp"),
          "--hydraulics", data_path("three_node_hydraulics.csv")]
    scenario = ["--scenario", short_scenario]
    return [
        ["inspect", *tn],
        ["build-matrices", *tn, "--segments", "10", "--out", str(tmp_path / "mats")],
        ["simulate", *tn, "--segments", "10", "--out", str(tmp_path / "sim.csv")],
        ["compare-rbc", *tn, *scenario, "--out", str(tmp_path / "cmp")],
        ["scale-report", *tn, "--horizon", "40", "--sensors", "J2"],
        ["control", "--controller", "mpc", *tn, *scenario,
         "--out", str(tmp_path / "mpc")],
        ["control", "--controller", "mpc", *tn, "--scenario", str(constrained),
         "--out", str(tmp_path / "constrained")],
        ["control", "--controller", "rbc", *tn, *scenario,
         "--out", str(tmp_path / "rbc")],
        ["control", "--controller", "none", *tn, *scenario,
         "--out", str(tmp_path / "none")],
    ]


def test_cli_import_leaves_scipy_linalg_unloaded(tmp_path, short_scenario):
    """The MPC law is NumPy-only, so neither loading the CLI nor a
    control run, constrained or not, nor a timed scale-report imports
    scipy.linalg."""
    commands = [argv for argv in every_command(tmp_path, short_scenario)
                if argv[:3] == ["control", "--controller", "mpc"]
                or argv[0] == "scale-report"]
    assert len(commands) == 3
    script = (
        "import sys, json, wqmpc.cli\n"
        "print('scipy.linalg' in sys.modules)\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert wqmpc.cli.main(argv) == 0\n"
        "    print('scipy.linalg' in sys.modules)\n"
    )
    proc = run_python(script, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    flags = [line for line in proc.stdout.splitlines() if line in ("True", "False")]
    assert flags == ["False"] * 4


def test_no_command_imports_scipy(tmp_path, short_scenario):
    """With SciPy made unimportable, the CLI loads and every command runs
    to exit 0 on three_node: the runtime needs NumPy alone."""
    commands = every_command(tmp_path, short_scenario)
    script = (
        "import sys, json\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises\n"
        "import wqmpc.cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    print(argv[0], wqmpc.cli.main(argv))\n"
    )
    proc = run_python(script, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    codes = [line.split()[-1] for line in proc.stdout.splitlines()
             if line.split()[:1] and line.split()[0] in {c[0] for c in commands}]
    assert codes == ["0"] * len(commands), proc.stdout


def test_no_command_imports_numpy_ma(tmp_path, short_scenario):
    """No command loads ``numpy.ma`` (9-16 ms and 0.7 MB of start-up in
    NumPy 2, where ``np.unique`` and ``np.setdiff1d`` import it on first
    use) or ``numpy.random`` (12-17 ms and ~4.6 MB of peak RSS; the
    plant is drawn by ``wqmpc.pcg64``).  NumPy 1 imports both with
    ``numpy`` itself, so only what the commands add is counted."""
    commands = every_command(tmp_path, short_scenario)
    script = (
        "import sys, json, numpy\n"
        "modules = ('numpy.ma', 'numpy.random')\n"
        "loaded = {m for m in modules if m in sys.modules}  # both under NumPy 1\n"
        "import wqmpc.cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    code = wqmpc.cli.main(argv)\n"
        "    added = [m for m in modules if m in sys.modules and m not in loaded]\n"
        "    print('RESULT', argv[0], code, *added)\n"
    )
    proc = run_python(script, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    results = [line.split()[1:] for line in proc.stdout.splitlines()
               if line.startswith("RESULT ")]
    assert results == [[argv[0], "0"] for argv in commands]


def test_cli_import_leaves_the_generator_unloaded():
    """``wqmpc.synth`` loads on first use: loading the CLI leaves it out,
    and the package's generator names still resolve."""
    script = (
        "import sys, wqmpc.cli\n"
        "print('wqmpc.synth' in sys.modules)\n"
        "import wqmpc\n"
        "from wqmpc import SynthSpec, synth_network\n"
        "import wqmpc.synth as synth\n"
        "print(SynthSpec is synth.SynthSpec, wqmpc.synth_case is synth.synth_case,\n"
        "      synth_network is synth.synth_network)\n"
        "try:\n"
        "    wqmpc.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False", "True True True",
        "module 'wqmpc' has no attribute 'no_such_name'",
    ]


@pytest.mark.parametrize("key", ["q", "r", "price_per_mg", "y_ref"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_control_refuses_non_finite_weights(tmp_path, short_scenario, capsys, key, value):
    cfg = json.loads(Path(short_scenario).read_text())
    cfg[key] = value  # written as Infinity / NaN, which json accepts
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    code = run(
        "control", "--controller", "mpc", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--scenario", str(path), "--out", str(tmp_path / "x"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{key} must be finite" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--yref", "inf", "y_ref must be finite"),
    ("--price", "inf", "price_per_mg must be finite"),
    ("--seed", "-1", "seed must be nonnegative"),
], ids=["--yref-y_ref", "--price-price_per_mg", "--seed-seed"])
def test_control_refuses_non_finite_flags(tmp_path, short_scenario, capsys, flag,
                                          value, message):
    code = run(
        "control", "--controller", "mpc", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--scenario", short_scenario, flag, value, "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_rbc_refuses_a_yref_its_table_was_not_built_for(tmp_path, short_scenario, capsys):
    code = run(
        "control", "--controller", "rbc", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--scenario", short_scenario, "--yref", "1.5", "--out", str(tmp_path / "x"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "error: rule table must start at -y_ref = -1.5, got -2.0" in err
    assert not (tmp_path / "x").exists()


def test_compare_rbc_refuses_before_the_mpc_run(tmp_path, short_scenario, capsys):
    out = tmp_path / "x"
    code = run(
        "compare-rbc", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--scenario", short_scenario, "--yref", "1.5", "--out", str(out),
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "error: rule table must start at -y_ref = -1.5, got -2.0" in captured.err
    assert "[mpc]" not in captured.out
    assert not (out / "mpc").exists()


def test_control_refuses_output_bound_without_constrained(tmp_path, short_scenario, capsys):
    cfg = json.loads(Path(short_scenario).read_text())
    cfg["y_max"] = 2.2
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    code = run(
        "control", "--controller", "mpc", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--scenario", str(path), "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert "error: y_max is set to 2.2" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("controller", ["mpc", "rbc", "none"])
def test_control_refuses_zero_segments_before_making_its_output(
        tmp_path, short_scenario, capsys, controller):
    """A zero segment count is refused by its key, exit 1, before the
    output directory is made: not as a model error once it exists."""
    cfg = json.loads(Path(short_scenario).read_text())
    cfg["segments"] = 0
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    code = run(
        "control", "--controller", controller,
        "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--scenario", str(path), "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert "error: segments must be at least 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("segments", ["0", "-3"])
@pytest.mark.parametrize("command", ["simulate", "build-matrices", "scale-report"])
def test_a_segment_flag_below_1_is_refused_by_name_before_any_output(
        tmp_path, capsys, command, segments):
    """``--segments`` below 1 is a configuration error, exit 1, named by
    its flag and refused before ``--out`` exists: not a model error once
    the output is made."""
    extra = ["--horizon", "300"] if command == "scale-report" else [
        "--out", str(tmp_path / "x")]
    code = run(
        command, "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--segments", segments, *extra,
    )
    assert code == 1
    assert capsys.readouterr() == (
        "", f"error: --segments must be at least 1, got {segments}\n")
    assert not (tmp_path / "x").exists()


def count_assemblies(monkeypatch):
    import wqmpc.dynamics as dynamics

    calls = []
    real = dynamics.assemble_system

    def counted(im, booster, profile, pid, *args):
        calls.append(pid)
        return real(im, booster, profile, pid, *args)

    monkeypatch.setattr(dynamics, "assemble_system", counted)
    return calls


@pytest.mark.parametrize("pid", [0, 5])
def test_build_matrices_assembles_only_its_period(tmp_path, capsys, monkeypatch, pid):
    """One assembly per command, and the same bytes as the period taken
    from the whole profile's schedule (B's columns from the whole profile)."""
    from wqmpc.dynamics import export_system

    net = parse_network(read_data("three_node.inp"))
    profile = load_hydraulics(net, read_data("three_node_hydraulics.csv"))
    sys_, _ = build_schedule(profile, StateIndexMap(net, 100))[pid]
    expect = export_system(sys_, str(tmp_path / "ref"), prefix=f"period{pid}")
    calls = count_assemblies(monkeypatch)
    out_dir = tmp_path / "mats"
    assert run(
        "build-matrices", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--period-index", str(pid), "--out", str(out_dir),
    ) == 0
    assert calls == [pid]
    for ref in expect:
        got = out_dir / os.path.basename(ref)
        assert got.read_bytes() == Path(ref).read_bytes()


def test_build_matrices_refuses_a_period_past_the_profile(tmp_path, capsys):
    assert run(
        "build-matrices", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--period-index", "24", "--out", str(tmp_path / "mats"),
    ) == 1
    assert "period index 24 out of range" in capsys.readouterr().err


def test_scale_report_assembles_only_the_first_period(capsys, monkeypatch):
    calls = count_assemblies(monkeypatch)
    assert run(
        "scale-report", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--segments", "10", "--horizon", "20", "--sensors", "J2",
    ) == 0
    assert calls == [0]


def test_scale_report_times_a_warm_law_build(capsys, monkeypatch):
    """``build_seconds`` is the fastest of three law builds after a
    warm-up build: neither a slow first build nor one slow build among
    the three shows in it."""
    import time

    from wqmpc import cli

    real, builds = cli.build_law, []

    def build_law(*args, **kwargs):
        if len(builds) in (0, 2):
            time.sleep(0.5)  # a cold first build, then one slowed build
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "build_law", build_law)
    assert run(
        "scale-report", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--segments", "10", "--horizon", "20", "--sensors", "J2",
    ) == 0
    out = dict(
        line.split(" = ") for line in capsys.readouterr().out.splitlines()
    )
    assert len(builds) == 4
    assert float(out["build_seconds"]) < 0.5


def test_simulate_lets_each_period_go_once_it_is_stepped(tmp_path, monkeypatch):
    """By the time period 1 is stepped, period 0's system has been
    collected."""
    from wqmpc import dynamics

    refs, seen = {}, []
    real_step = dynamics.step

    def watched(sys, x, u):
        refs.setdefault(sys.period_id, weakref.ref(sys))
        if sys.period_id == 1:
            seen.append(refs[0]() is None)
        return real_step(sys, x, u)

    monkeypatch.setattr(dynamics, "step", watched)
    code = run(
        "simulate", "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--segments", "10", "--out", str(tmp_path / "sim.csv"),
    )
    assert code == 0
    assert seen and all(seen)


@pytest.mark.parametrize("controller", ["mpc", "none", "rbc"])
def test_a_closed_loop_builds_no_matrix_of_the_whole_layout(
        tmp_path, monkeypatch, short_scenario, controller):
    """Under every controller no matrix with the whole layout's 104 rows
    is ever constructed: A and B are assembled on the sensor J2's
    closure alone."""
    from wqmpc.sparse import CSR

    rows = []
    real_init = CSR.__init__

    def counted(self, indptr, indices, data, shape):
        rows.append(int(shape[0]))
        real_init(self, indptr, indices, data, shape)

    monkeypatch.setattr(CSR, "__init__", counted)
    code = run(
        "control", "--controller", controller,
        "--net", data_path("three_node.inp"),
        "--hydraulics", data_path("three_node_hydraulics.csv"),
        "--scenario", short_scenario, "--out", str(tmp_path / "out"),
    )
    assert code == 0 and rows
    assert 104 not in rows


def test_compare_rbc_draws_and_assembles_its_plant_once(
        tmp_path, monkeypatch, caplog, short_scenario):
    """Both controllers run over one plant: one perturbation drawn, one
    state layout, and two schedules, the plant's and MPC's model; the
    closure is logged once."""
    import logging

    from wqmpc import dynamics, scenario

    calls = {"apply_uncertainty": 0, "build_schedule": 0, "layout": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("apply_uncertainty", "build_schedule"):
        monkeypatch.setattr(scenario, name, counting(name, getattr(scenario, name)))
    monkeypatch.setattr(dynamics.StateIndexMap, "__init__",
                        counting("layout", dynamics.StateIndexMap.__init__))
    with caplog.at_level(logging.INFO, logger="wqmpc.scenario"):
        code = run(
            "compare-rbc", "--net", data_path("three_node.inp"),
            "--hydraulics", data_path("three_node_hydraulics.csv"),
            "--scenario", short_scenario, "--out", str(tmp_path / "cmp"),
        )
    assert code == 0
    assert calls == {"apply_uncertainty": 1, "build_schedule": 2, "layout": 1}
    assert caplog.text.count("sensors' upstream closure:") == 1
