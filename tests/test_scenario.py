import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import read_data
from wqmpc.dynamics import ReactionModel
from wqmpc.errors import ModelError, WqmpcError
from wqmpc.scenario import (
    DisturbanceEvent,
    Rule,
    RuleTable,
    ScenarioConfig,
    UncertaintySpec,
    apply_uncertainty,
    export_report,
    load_scenario,
    run_closed_loop,
)


def short_config(**overrides):
    base = json.loads(read_data("three_node_scenario.json"))
    base.update({"duration_s": 7200.0, "horizon": 12})
    base.update(overrides)
    return load_scenario(json.dumps(base))


# ---------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------


def test_load_scenario_fields():
    cfg = load_scenario(read_data("three_node_scenario.json"))
    assert cfg.duration_s == 86400.0
    assert cfg.control_period_s == 300.0
    assert cfg.sensors == ("J2",)
    assert cfg.y_ref == 2.0
    assert cfg.events[0].targets == ("J2", "P23")
    assert cfg.rules is not None
    assert cfg.uncertainty.demand_band == 0.1


def test_load_scenario_errors():
    with pytest.raises(WqmpcError, match="bad scenario JSON"):
        load_scenario("{nope")
    with pytest.raises(WqmpcError, match="missing required field"):
        load_scenario("{}")


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"constrainted": True}, "unknown scenario keys: constrainted"),
        ({"zeta": 1, "alpha": 2}, "unknown scenario keys: alpha, zeta"),
        ({"uncertainty": {"demand_band": 0.1, "resample_period_s": 60.0}},
         "unknown uncertainty keys: resample_period_s"),
        ({"uncertainty": [0.1]}, "uncertainty must be a JSON object"),
    ],
)
def test_load_scenario_refuses_unknown_keys(edit, message):
    base = json.loads(read_data("three_node_scenario.json"))
    base.update(edit)
    with pytest.raises(WqmpcError, match=message):
        load_scenario(json.dumps(base))


def test_validate_period_nesting(three_node):
    _, profile = three_node
    cfg = short_config(control_period_s=700.0)  # does not divide 3600
    with pytest.raises(WqmpcError, match="must divide"):
        cfg.validate(profile)
    cfg = short_config(duration_s=30 * 86400.0)
    with pytest.raises(WqmpcError, match="outlasts"):
        cfg.validate(profile)


@pytest.mark.parametrize("time_s, value, message", [
    (float("nan"), 1.0, "event at nan s on J2 has time_s nan"),
    (float("inf"), 1.0, "event at inf s on J2 has time_s inf"),
    (-60.0, 1.0, "event at -60.0 s on J2 has time_s -60.0"),
    (600.0, float("nan"), "event at 600.0 s on J2 has value_mg_l nan"),
    (600.0, float("inf"), "event at 600.0 s on J2 has value_mg_l inf"),
    (600.0, -0.5, "event at 600.0 s on J2 has value_mg_l -0.5"),
])
def test_validate_refuses_bad_events(three_node, time_s, value, message):
    _, profile = three_node
    cfg = short_config(
        events=[{"time_s": time_s, "targets": ["J2"], "value_mg_l": value}]
    )
    with pytest.raises(WqmpcError, match=re.escape(message)):
        cfg.validate(profile)


def test_uncertainty_band_validation():
    with pytest.raises(WqmpcError, match="bands"):
        UncertaintySpec(demand_band=1.5).validate()


# ---------------------------------------------------------------------
# Rule table
# ---------------------------------------------------------------------


def test_rule_table_validation():
    ok = RuleTable(
        rules=(Rule(-2.0, -1.0, 5.0), Rule(-1.0, 0.0, 1.0)), y_ref=2.0
    )
    assert ok.dose(-1.5) == 5.0
    assert ok.dose(-1.0) == 1.0   # half-open intervals
    assert ok.dose(0.0) == 1.0    # upper end closed
    assert ok.dose(-9.0) == 5.0   # clamped into the domain
    with pytest.raises(WqmpcError, match="gap"):
        RuleTable(rules=(Rule(-2.0, -1.5, 5.0), Rule(-1.0, 0.0, 1.0)), y_ref=2.0)
    with pytest.raises(WqmpcError, match="overlap"):
        RuleTable(rules=(Rule(-2.0, -0.5, 5.0), Rule(-1.0, 0.0, 1.0)), y_ref=2.0)
    with pytest.raises(WqmpcError, match="must start"):
        RuleTable(rules=(Rule(-1.0, 0.0, 1.0),), y_ref=2.0)
    with pytest.raises(WqmpcError, match="must end"):
        RuleTable(rules=(Rule(-2.0, -0.5, 1.0),), y_ref=2.0)
    with pytest.raises(WqmpcError, match="nonnegative"):
        RuleTable(rules=(Rule(-2.0, 0.0, -1.0),), y_ref=2.0)
    with pytest.raises(WqmpcError, match="empty"):
        RuleTable(rules=(), y_ref=2.0)


# ---------------------------------------------------------------------
# Uncertainty injection
# ---------------------------------------------------------------------


def test_apply_uncertainty_bands(three_node):
    net, profile = three_node
    spec = UncertaintySpec(demand_band=0.1, reaction_band=0.1)
    rng = np.random.default_rng(0)
    perturbed, reaction = apply_uncertainty(net, profile, spec, rng)
    nominal = ReactionModel.from_network(net)
    for p0, p1 in zip(profile.periods, perturbed.periods):
        ratio = p1.demands / p0.demands
        assert ((ratio >= 0.9) & (ratio <= 1.1)).all()
        assert (p1.flows == p0.flows).all()          # flows stay scheduled
        assert (p1.tank_volumes == p0.tank_volumes).all()
    k_ratio = reaction.k_pipe / nominal.k_pipe
    assert ((k_ratio >= 0.9) & (k_ratio <= 1.1)).all()


def test_apply_uncertainty_deterministic(three_node):
    net, profile = three_node
    spec = UncertaintySpec()
    a, ka = apply_uncertainty(net, profile, spec, np.random.default_rng(5))
    b, kb = apply_uncertainty(net, profile, spec, np.random.default_rng(5))
    assert (a.periods[3].demands == b.periods[3].demands).all()
    assert (ka.k_pipe == kb.k_pipe).all()


def test_zero_bands_leave_inputs_nominal(three_node):
    net, profile = three_node
    spec = UncertaintySpec(demand_band=0.0, reaction_band=0.0)
    perturbed, reaction = apply_uncertainty(
        net, profile, spec, np.random.default_rng(0)
    )
    nominal = ReactionModel.from_network(net)
    for p0, p1 in zip(profile.periods, perturbed.periods):
        assert (p1.demands == p0.demands).all()
    assert (reaction.k_pipe == nominal.k_pipe).all()
    assert (reaction.k_tank == nominal.k_tank).all()


# ---------------------------------------------------------------------
# Rule-based dosing
# ---------------------------------------------------------------------


def test_rbc_deviation_averaging(three_node):
    from wqmpc.dynamics import build_schedule
    from wqmpc.scenario import rbc_control

    net, profile = three_node
    sys = build_schedule(net, profile, 10)[0][0]
    table = RuleTable(
        rules=(Rule(-2.0, -1.5, 9.0), Rule(-1.5, -0.5, 4.0),
               Rule(-0.5, 0.0, 0.0)),
        y_ref=2.0,
    )

    def dose_for(junc_val, seg_val):
        x = np.zeros(sys.n_x)
        x[: net.n_j] = junc_val
        x[net.n_n: net.n_n + sys.index_map.n_s] = seg_val
        u = rbc_control(table, x, sys, 2.0, 300.0)
        return u

    assert dose_for(2.0, 2.0).max() == 0.0          # on target: top rule, zero dose
    assert dose_for(0.0, 0.0).max() > 0.0           # fully depleted: lowest rule
    # half on target, half empty: deviation is -y_ref/2 -> middle rule
    mid = dose_for(0.0, 2.0)
    low = dose_for(0.0, 0.0)
    assert 0.0 < mid.max() < low.max()
    assert mid.max() == pytest.approx(low.max() * 4.0 / 9.0)


# ---------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------


def test_plant_equals_model_without_uncertainty(three_node):
    from wqmpc.dynamics import build_schedule, initial_state, simulate

    net, profile = three_node
    cfg = short_config(
        events=[], uncertainty={"demand_band": 0.0, "reaction_band": 0.0}
    )
    report = run_closed_loop(
        net, profile, cfg, controller="none", keep_trajectory=True
    )
    schedule = build_schedule(net, profile, cfg.seg_counts)
    x0 = initial_state(net, schedule[0][0].index_map)
    nominal = simulate(schedule[:2], x0)  # 7200 s = two hydraulic periods
    n = report.trajectory.states.shape[0]
    assert np.allclose(
        report.trajectory.states, nominal.states[:n], atol=1e-12
    )


@pytest.mark.parametrize("controller, per_step", [
    ("mpc", 2), ("rbc", 1), ("none", 1),
])
def test_model_copy_steps_only_under_mpc(three_node, monkeypatch,
                                         controller, per_step):
    from wqmpc import scenario
    from wqmpc.dynamics import build_schedule

    net, profile = three_node
    cfg = short_config()
    n_steps = sum(n for _, n in build_schedule(net, profile, cfg.seg_counts)[:2])
    steps = []
    real_advance = scenario.advance

    def counted(sys, x, u, n, rows=None):
        steps.append(n)
        return real_advance(sys, x, u, n, rows)

    monkeypatch.setattr(scenario, "advance", counted)
    run_closed_loop(net, profile, cfg, controller=controller)
    assert sum(steps) == per_step * n_steps


# J2 plus nine segments: more sensors than numpy's 8-element pairwise
# summation block, so a reordered sum over the sensors would show.
TEN_SENSORS = ["J2"] + [f"P23[{i}]" for i in range(9)]


@pytest.mark.parametrize("controller", ["mpc", "rbc", "none"])
def test_segmenting_does_not_change_a_run(three_node, controller):
    """Whole holds (kept trajectory off) and one-step segments (on) give
    the same run, and the deviation is the step-by-step sum.

    The event raises the source between the control instants at 1500 s
    and 1800 s; it overwrites no sensor, so the kept trajectory, which
    records the state after each event, still holds every sensed state.
    """
    net, profile = three_node
    cfg = short_config(
        sensors=TEN_SENSORS,
        events=[{"time_s": 1650.0, "targets": ["R1"], "value_mg_l": 1.5}],
    )
    kept = run_closed_loop(net, profile, cfg, controller, keep_trajectory=True)
    held = run_closed_loop(net, profile, cfg, controller)
    assert 1500.0 in held.times_s and 1650.0 not in held.times_s
    for name in ("times_s", "outputs", "inputs", "injected_mg"):
        assert np.array_equal(getattr(kept, name), getattr(held, name)), name

    def exported(metrics):
        return {k: v for k, v in metrics.items() if not k.startswith("wall_")}

    assert exported(kept.metrics) == exported(held.metrics)
    traj = kept.trajectory
    im = traj.index_map
    fired = np.searchsorted(traj.times_s, 1650.0)
    assert traj.states[fired - 1, im.index("R1")] == 0.8
    assert traj.states[fired, im.index("R1")] == 1.5
    idx = [im.sensor_index(s) for s in cfg.sensors]
    deviation = 0.0
    for x in traj.states[1:]:
        deviation += 0.5 * cfg.q * float(np.sum((cfg.y_ref - x[idx]) ** 2))
    assert held.metrics["reference_deviation"] == deviation


def test_rbc_replays_exactly_open_loop(three_node):
    """The recorded rbc inputs, held per control period on the rebuilt
    plant schedule, reproduce the plant run bit for bit."""
    from wqmpc.dynamics import build_schedule, initial_state, simulate

    net, profile = three_node
    cfg = short_config(events=[])
    report = run_closed_loop(
        net, profile, cfg, controller="rbc", keep_trajectory=True
    )
    plant_profile, plant_reaction = apply_uncertainty(
        net, profile, cfg.uncertainty, np.random.default_rng(cfg.seed)
    )
    booster = build_schedule(net, profile, cfg.seg_counts)[0][0].booster
    schedule = build_schedule(
        net, plant_profile, cfg.seg_counts, booster=booster,
        reaction=plant_reaction,
    )[:2]  # 7200 s = two hydraulic periods
    held, control_steps = [], []
    for sys, n in schedule:
        hold = int(round(cfg.control_period_s / sys.dt_s))
        first = len(control_steps)
        control_steps += range(len(held), len(held) + n, hold)
        held += [report.inputs[first + j // hold] for j in range(n)]
    assert len(control_steps) == len(report.inputs)

    im = schedule[0][0].index_map
    replay = simulate(schedule, initial_state(net, im), lambda k, _: held[k])
    assert np.array_equal(replay.states, report.trajectory.states)
    sensors = [im.sensor_index(s) for s in cfg.sensors]
    assert np.array_equal(
        replay.states[np.ix_(control_steps, sensors)], report.outputs
    )


def test_zero_controller_injects_nothing(three_node):
    net, profile = three_node
    cfg = short_config(events=[])
    report = run_closed_loop(net, profile, cfg, controller="none")
    assert report.metrics["injected_mass_mg"] == 0.0
    assert report.inputs.max() == 0.0
    assert report.metrics["reference_deviation"] > 0


def test_event_overwrites_plant_state(three_node):
    net, profile = three_node
    cfg = short_config(
        events=[{"time_s": 3600.0, "targets": ["J2", "P23"], "value_mg_l": 1.5}],
    )
    report = run_closed_loop(
        net, profile, cfg, controller="none", keep_trajectory=True
    )
    traj = report.trajectory
    k = int(np.searchsorted(traj.times_s, 3600.0))
    im = traj.index_map
    state = traj.states[k]
    assert state[im.index("J2")] == 1.5
    assert np.allclose(state[im.pipe_slice(0)], 1.5)


def test_event_after_the_run_is_reported(three_node, caplog):
    net, profile = three_node
    late = short_config(
        events=[{"time_s": 1e9, "targets": ["J2"], "value_mg_l": 1.5}]
    )
    with caplog.at_level(logging.WARNING, logger="wqmpc.scenario"):
        report = run_closed_loop(net, profile, late, controller="none")
    assert "1 event(s) never fired within the 7200 s run" in caplog.text
    assert "at 1000000000.0 s on J2" in caplog.text
    quiet = run_closed_loop(net, profile, short_config(events=[]), "none")
    assert (report.metrics["reference_deviation"]
            == quiet.metrics["reference_deviation"])


def test_unknown_event_target_refused_before_stepping(three_node, monkeypatch):
    from wqmpc import scenario

    net, profile = three_node
    cfg = short_config(
        events=[{"time_s": 3600.0, "targets": ["J2", "P99"], "value_mg_l": 1.0}]
    )
    steps = []
    real_advance = scenario.advance

    def counted(sys, x, u, n, rows=None):
        steps.append(n)
        return real_advance(sys, x, u, n, rows)

    monkeypatch.setattr(scenario, "advance", counted)
    with pytest.raises(ModelError, match="unknown entity 'P99'"):
        run_closed_loop(net, profile, cfg, controller="none")
    assert steps == []


def test_mpc_tracks_reference(three_node):
    net, profile = three_node
    cfg = short_config(events=[])
    report = run_closed_loop(net, profile, cfg, controller="mpc")
    y = report.outputs[:, 0]
    assert np.abs(y[6:] - 2.0).max() < 0.1
    assert report.metrics["total"] > 0
    assert report.metrics["wall_ms_per_control_step"] > 0


@pytest.mark.parametrize("controller", ["mpc", "rbc"])
def test_control_timing_splits_law_builds_from_solves(three_node, tmp_path,
                                                      controller):
    net, profile = three_node
    report = run_closed_loop(net, profile, short_config(events=[]), controller)
    m = report.metrics
    n = len(report.times_s)
    build, solve = m["wall_law_build_ms"], m["wall_solve_ms_per_control_step"]
    if controller == "mpc":
        assert build > 0  # two hydraulic periods, two law builds
    else:
        assert build == 0.0
    assert solve > 0
    total = m["wall_ms_per_control_step"] * n
    assert abs(build + solve * n - total) <= 1e-9 * total
    # wall-clock keys stay out of the export
    export_report(report, str(tmp_path))
    exported = json.loads((tmp_path / "metrics.json").read_text())
    assert not any(k.startswith("wall_") for k in exported)


def test_rbc_requires_rules(three_node):
    net, profile = three_node
    cfg = short_config(rules=None)
    assert cfg.rules is None
    with pytest.raises(WqmpcError, match="rule table"):
        run_closed_loop(net, profile, cfg, controller="rbc")


def test_unknown_controller_rejected(three_node):
    net, profile = three_node
    with pytest.raises(WqmpcError, match="unknown controller"):
        run_closed_loop(net, profile, short_config(), controller="pid")


def test_rbc_injects_when_low(three_node):
    net, profile = three_node
    cfg = short_config(events=[])
    report = run_closed_loop(net, profile, cfg, controller="rbc")
    assert report.metrics["injected_mass_mg"] > 0
    assert report.inputs.min() >= 0.0


def test_rbc_inputs_clipped_at_u_max(three_node):
    # unclipped, the shipped rule table asks for up to ~21,000 mg/L
    # against a u_max of 5,000
    net, profile = three_node
    cfg = load_scenario(read_data("three_node_scenario.json"))
    report = run_closed_loop(net, profile, cfg, controller="rbc")
    assert report.inputs.max() == cfg.u_max


# ---------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------


def test_export_report_is_deterministic(tmp_path, three_node):
    net, profile = three_node
    cfg = short_config()
    files = []
    for sub in ("one", "two"):
        report = run_closed_loop(net, profile, cfg, controller="mpc")
        files.append(export_report(report, str(tmp_path / sub)))
    for f1, f2 in zip(*files):
        assert Path(f1).read_bytes() == Path(f2).read_bytes()


def test_export_empty_report_writes_headers(tmp_path):
    from wqmpc.scenario import ScenarioReport

    report = ScenarioReport(
        controller="none",
        times_s=np.zeros(0),
        outputs=np.zeros((0, 1)),
        inputs=np.zeros((0, 2)),
        injected_mg=np.zeros(0),
        sensor_labels=("J2",),
        booster_nodes=("J2", "R1"),
        metrics={"total": 0.0},
    )
    ts, mx = export_report(report, str(tmp_path))
    lines = Path(ts).read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("time_s,")
    assert json.loads(Path(mx).read_text()) == {"total": 0.0}
