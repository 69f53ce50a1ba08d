import json
import logging
import re
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import pipe_slice, read_data
from wqmpc.hydraulics import load_hydraulics
from wqmpc.network import parse_network
from wqmpc.dynamics import nominal_pipe_rates
from wqmpc.errors import ModelError, WqmpcError
from wqmpc.scenario import (
    _SCHEMA,
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
        ({"events": [{"time_s": 1.0, "targets": ["J2"], "value_mg_l": 1.0,
                      "duration_s": 60.0}]},
         "unknown event keys: duration_s"),
        ({"events": [[1.0, ["J2"], 1.0]]}, "event must be a JSON object"),
        ({"events": [{"time_s": 1.0, "targets": "J2", "value_mg_l": 1.0}]},
         "event targets must be a list of entity specs, got 'J2'"),
        ({"events": [{"time_s": 1.0, "targets": ["J2", 3], "value_mg_l": 1.0}]},
         "event targets must be a list of entity specs"),
        ({"rules": [{"low": -2.0, "high": 0.0, "dose_mg": 1.0, "unit": "mg"}]},
         "unknown rule keys: unit"),
        ({"rules": [[-2.0, 0.0, 1.0]]}, "rule must be a JSON object"),
        ({"sensors": []}, "sensors must name at least one entity"),
        ({"sensors": "J2"}, "sensors must be a list of entity specs, got 'J2'"),
        ({"sensors": ["J2", 3]}, "sensors must be a list of entity specs"),
        ({"events": None}, "events must be a JSON list, got None"),
        ({"events": {"time_s": 1.0}}, "events must be a JSON list"),
        ({"events": [{"time_s": 1.0, "targets": [], "value_mg_l": 1.0}]},
         "event targets must name at least one entity"),
        ({"rules": {"low": -2.0}}, "rules must be a JSON list"),
        ({"constrained": "false"}, "constrained must be true or false, got 'false'"),
        ({"constrained": 1}, "constrained must be true or false, got 1"),
        ({"horizon": 30.9}, "horizon must be a whole number, got 30.9"),
        ({"seed": 1.5}, "seed must be a whole number, got 1.5"),
        ({"seed": "7"}, "seed must be a whole number, got '7'"),
        ({"seed": -1}, "seed must be nonnegative, got -1"),
        ({"segments": True}, "segments must be a whole number, got True"),
        ({"segments": 2.7}, "segments must be a whole number, got 2.7"),
        ({"duration_s": "3600"}, "duration_s must be a number, got '3600'"),
        ({"duration_s": float("inf")},
         re.escape("duration_s must be finite and positive, got inf")),
        ({"control_period_s": 0},
         re.escape("control_period_s must be finite and positive, got 0.0")),
        ({"control_period_s": float("nan")},
         re.escape("control_period_s must be finite and positive, got nan")),
        ({"y_ref": True}, "y_ref must be a number, got True"),
        ({"y_ref": [2.0]}, re.escape("y_ref must be a number, got [2.0]")),
        ({"q": "1"}, "q must be a number, got '1'"),
        ({"u_max": None}, "u_max must be a number, got None"),
    ],
)
def test_load_scenario_refuses_unknown_keys(three_node, edit, message):
    _, profile = three_node
    base = json.loads(read_data("three_node_scenario.json"))
    base.update(edit)
    with pytest.raises(WqmpcError, match=message):
        # ranges are refused by validate, the rest by load_scenario
        load_scenario(json.dumps(base)).validate(profile)


def _wrong_kinds(row):
    """JSON values of every kind but the one ``row`` reads (for entity
    specs, lists of anything but strings; null where it is no default)."""
    kinds = [st.text(max_size=5)]
    if row.kind != "bool":
        kinds.append(st.booleans())
    if row.default is not None:
        kinds.append(st.none())
    if row.kind != "object":
        kinds.append(st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
    if row.kind == "specs":
        kinds.append(st.lists(st.integers() | st.booleans(), max_size=2))
    elif row.kind != "list":
        kinds.append(st.lists(st.integers() | st.text(max_size=3), max_size=2))
    if row.kind not in ("number", "count"):
        kinds.append(st.integers() | st.floats())
    if row.kind == "count":
        kinds.append(st.floats().filter(lambda v: not v.is_integer()))
    return st.one_of(kinds)


@given(data=st.data())
def test_a_wrong_kind_is_refused_by_its_key(three_node, data):
    """Any key of any object of the shipped scenario, set to a value of a
    kind its row does not read, is refused with an error naming it."""
    _, profile = three_node
    label, row = data.draw(st.sampled_from(
        [(label, row) for label, (_, _, rows) in _SCHEMA.items() for row in rows]
    ))
    raw = json.loads(read_data("three_node_scenario.json"))
    obj = {"scenario": raw, "uncertainty": raw["uncertainty"],
           "event": raw["events"][0], "rule": raw["rules"][0]}[label]
    obj[row.key] = data.draw(_wrong_kinds(row))
    with pytest.raises(WqmpcError, match=re.escape(row.key)):
        load_scenario(json.dumps(raw)).validate(profile)


def test_readme_lists_the_accepted_scenario_keys():
    _SCENARIO_KEYS, _UNCERTAINTY_KEYS, _EVENT_KEYS, _RULE_KEYS = (
        {row.key for row in _SCHEMA[label][2]}
        for label in ("scenario", "uncertainty", "event", "rule")
    )

    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text().split())
    m = re.search(
        r"accepted top-level keys are (.*?); `uncertainty` accepts (.*?)\. "
        r"Each event accepts (.*?); each rule accepts (.*?)\. ",
        text,
    )
    assert m is not None, "README no longer lists the scenario keys"
    top, unc, event, rule = (
        set(re.findall(r"`(\w+)`", part)) for part in m.groups()
    )
    assert top == _SCENARIO_KEYS
    assert unc == _UNCERTAINTY_KEYS
    assert event == _EVENT_KEYS
    assert rule == _RULE_KEYS


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


@pytest.mark.parametrize("controller", ["mpc", "rbc", "none"])
@pytest.mark.parametrize("u_max", [-1.0, float("nan")])
def test_validate_refuses_a_negative_input_cap(three_node, controller, u_max):
    _, profile = three_node
    with pytest.raises(WqmpcError, match="u_max must be nonnegative"):
        short_config(u_max=u_max).validate(profile, controller)


def test_uncertainty_band_validation():
    with pytest.raises(WqmpcError, match="bands"):
        UncertaintySpec(demand_band=1.5).validate()


# ---------------------------------------------------------------------
# Rule table
# ---------------------------------------------------------------------


def test_rule_table_validation():
    ok = RuleTable(rules=(Rule(-2.0, -1.0, 5.0), Rule(-1.0, 0.0, 1.0)))
    assert ok.dose(-1.5) == 5.0
    assert ok.dose(-1.0) == 1.0   # half-open intervals
    assert ok.dose(0.0) == 1.0    # upper end closed
    assert ok.dose(-9.0) == 5.0   # clamped into the domain
    assert ok.dose(3.0) == 1.0
    with pytest.raises(WqmpcError, match="gap"):
        RuleTable(rules=(Rule(-2.0, -1.5, 5.0), Rule(-1.0, 0.0, 1.0)))
    with pytest.raises(WqmpcError, match="overlap"):
        RuleTable(rules=(Rule(-2.0, -0.5, 5.0), Rule(-1.0, 0.0, 1.0)))
    with pytest.raises(WqmpcError, match="must end"):
        RuleTable(rules=(Rule(-2.0, -0.5, 1.0),))
    with pytest.raises(WqmpcError, match="nonnegative"):
        RuleTable(rules=(Rule(-2.0, 0.0, -1.0),))
    with pytest.raises(WqmpcError, match="empty"):
        RuleTable(rules=())


def test_closed_loop_refuses_a_config_without_sensors(three_node):
    net, profile = three_node
    cfg = replace(short_config(), sensors=(), duration_s=3600.0)
    with pytest.raises(WqmpcError, match=re.escape(
        "sensors must name at least one entity, got ()"
    )):
        run_closed_loop(net, profile, cfg, controller="none")


@pytest.mark.parametrize("y_ref", [1.5, 2.5])
def test_rbc_refuses_a_table_for_another_setpoint(three_node, y_ref):
    net, profile = three_node
    cfg = short_config(y_ref=y_ref)  # the shipped table starts at -2.0
    with pytest.raises(
        WqmpcError, match=re.escape(f"must start at -y_ref = {-y_ref}, got -2.0")
    ):
        run_closed_loop(net, profile, cfg, controller="rbc")
    # the table is read by the rule baseline alone
    run_closed_loop(net, profile, replace(cfg, duration_s=3600.0),
                    controller="none")


@pytest.mark.parametrize("key, value", [("y_max", 2.2), ("y_min", 0.5)])
def test_validate_refuses_output_bounds_without_constrained(three_node, key,
                                                            value):
    _, profile = three_node
    cfg = short_config(**{key: value})
    with pytest.raises(WqmpcError, match=f"{key} is set to {value}"):
        cfg.validate(profile)
    short_config(**{key: value, "constrained": True}).validate(profile)


# ---------------------------------------------------------------------
# Uncertainty injection
# ---------------------------------------------------------------------


def test_apply_uncertainty_bands(three_node):
    net, profile = three_node
    spec = UncertaintySpec(demand_band=0.1, reaction_band=0.1)
    rng = np.random.default_rng(0)
    perturbed, k_pipe = apply_uncertainty(net, profile, spec, rng)
    nominal = nominal_pipe_rates(net)
    for p0, p1 in zip(profile.periods, perturbed.periods):
        ratio = p1.demands / p0.demands
        assert ((ratio >= 0.9) & (ratio <= 1.1)).all()
        assert (p1.flows == p0.flows).all()          # flows stay scheduled
        assert (p1.tank_volumes == p0.tank_volumes).all()
    k_ratio = k_pipe / nominal
    assert ((k_ratio >= 0.9) & (k_ratio <= 1.1)).all()


def test_apply_uncertainty_deterministic(three_node):
    net, profile = three_node
    spec = UncertaintySpec()
    a, ka = apply_uncertainty(net, profile, spec, np.random.default_rng(5))
    b, kb = apply_uncertainty(net, profile, spec, np.random.default_rng(5))
    assert (a.periods[3].demands == b.periods[3].demands).all()
    assert (ka == kb).all()


def test_zero_bands_leave_inputs_nominal(three_node):
    net, profile = three_node
    spec = UncertaintySpec(demand_band=0.0, reaction_band=0.0)
    perturbed, k_pipe = apply_uncertainty(
        net, profile, spec, np.random.default_rng(0)
    )
    for p0, p1 in zip(profile.periods, perturbed.periods):
        assert (p1.demands == p0.demands).all()
    assert (k_pipe == nominal_pipe_rates(net)).all()


@pytest.mark.parametrize("case", ["three_node", "net3"])
def test_uncertainty_keeps_every_flow(request, case):
    """The plant keeps every period's link and booster flows bit for bit,
    so the sensors' closure, found from the scheduled flows, is the
    plant's and the model's alike."""
    net, profile = request.getfixturevalue(case)
    for seed in range(10):
        plant, _ = apply_uncertainty(
            net, profile, UncertaintySpec(), np.random.default_rng(seed)
        )
        for p0, p1 in zip(profile.periods, plant.periods, strict=True):
            for name in ("flows", "booster_flows"):
                a, b = getattr(p0, name), getattr(p1, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


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
    )

    def dose_for(*readings):
        return rbc_control(table, np.array(readings), sys, 2.0, 300.0)

    assert dose_for(2.0, 2.0).max() == 0.0          # on target: top rule, zero dose
    assert dose_for(0.0, 0.0).max() > 0.0           # all empty: lowest rule
    # half on target, half empty: the mean error is -y_ref/2 -> middle rule
    mid = dose_for(0.0, 2.0)
    low = dose_for(0.0, 0.0)
    assert 0.0 < mid.max() < low.max()
    assert mid.max() == pytest.approx(low.max() * 4.0 / 9.0)


# ---------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------


class StepRecorder:
    """Runs every ``scenario.advance`` segment as one-step calls.

    For the plant, the call that passes sensor ``rows``, it records each
    step's start time (accumulated by ``t += dt``, as the closed loop
    does), its hydraulic period, the state it starts from and the state
    after it.  An
    event that fires between two steps shows as a start state that
    differs from the previous end state.
    """

    def __init__(self, monkeypatch):
        from wqmpc import scenario

        self.times, self.periods, self.starts, self.ends = [], [], [], []
        real_advance = scenario.advance
        t = 0.0

        def one_step_calls(sys, x, u, n, rows=None):
            nonlocal t
            block = []
            for _ in range(n):
                if rows is not None:
                    self.times.append(t)
                    self.periods.append(sys.period_id)
                    self.starts.append(x.copy())
                x, ys = real_advance(sys, x, u, 1, rows)
                if rows is not None:
                    self.ends.append(x.copy())
                    t += sys.dt_s
                block.append(ys)
            return x, np.concatenate(block)

        monkeypatch.setattr(scenario, "advance", one_step_calls)


def plant_schedule(net, profile, cfg):
    """The run's plant schedule, rebuilt from its seed outside the loop."""
    from wqmpc.dynamics import booster_layout, build_schedule

    plant_profile, plant_k_pipe = apply_uncertainty(
        net, profile, cfg.uncertainty, np.random.default_rng(cfg.seed)
    )
    n_periods = int(round(cfg.duration_s / profile.periods[0].duration_s))
    return build_schedule(
        net, plant_profile, cfg.seg_counts,
        booster=booster_layout(net, profile), k_pipe=plant_k_pipe,
    )[:n_periods]


def stepped_states(net, profile, cfg):
    """The states a run steps: ``keep``, their positions in the whole
    layout, and the layout a run resolves specs with.  That is the
    sensors' upstream closure over the run's periods, found from the
    scheduled flows, which the plant keeps."""
    from wqmpc.dynamics import StateIndexMap, sensor_closure

    im = StateIndexMap(net, cfg.seg_counts)
    n_periods = int(round(cfg.duration_s / profile.periods[0].duration_s))
    keep = sensor_closure(im, cfg.sensors, profile.periods[:n_periods])
    return keep, im.restrict(keep)


def replay(net, profile, cfg, inputs):
    """Step the rebuilt plant one step at a time, holding each of
    ``inputs`` for one control period and firing each event before the
    first step whose start time reaches it.

    Returns the start and end state of every step.
    """
    from wqmpc.dynamics import initial_state, step

    schedule = plant_schedule(net, profile, cfg)
    im = schedule[0][0].index_map
    x = initial_state(im)
    events = sorted(cfg.events, key=lambda e: e.time_s)
    starts, ends = [], []
    t, control = 0.0, -1
    for sys, n in schedule:
        hold = int(round(cfg.control_period_s / sys.dt_s))
        for j in range(n):
            while events and events[0].time_s <= t + 1e-9:
                ev = events.pop(0)
                for spec in ev.targets:
                    x[im.resolve(spec)[0]] = ev.value_mg_l
            control += j % hold == 0
            starts.append(x.copy())
            x = step(sys, x, inputs[control])
            ends.append(x.copy())
            t += sys.dt_s
    assert control == len(inputs) - 1
    return starts, ends


def test_plant_equals_model_without_uncertainty(three_node, monkeypatch):
    """The run steps the sensors' closure alone: its states are the
    nominal open-loop states on ``keep``."""
    from wqmpc.dynamics import (
        build_schedule, initial_state, iter_states, sensor_closure,
    )

    net, profile = three_node
    cfg = short_config(
        events=[], uncertainty={"demand_band": 0.0, "reaction_band": 0.0}
    )
    rec = StepRecorder(monkeypatch)
    run_closed_loop(net, profile, cfg, controller="none")
    schedule = build_schedule(net, profile, cfg.seg_counts)[:2]  # 7200 s
    im = schedule[0][0].index_map
    keep = sensor_closure(im, cfg.sensors, profile.periods[:2])
    x0 = initial_state(im)
    nominal = [x[keep] for _, x in iter_states(schedule, x0)]
    assert len(rec.ends) == len(nominal) - 1
    assert np.array_equal(rec.starts[0], x0[keep])
    assert np.allclose(rec.ends, nominal[1:], atol=1e-12)


def count_steps(monkeypatch) -> list[int]:
    """Record the step count of every ``scenario.advance`` call."""
    from wqmpc import scenario

    steps = []
    real_advance = scenario.advance

    def counted(sys, x, u, n, rows=None):
        steps.append(n)
        return real_advance(sys, x, u, n, rows)

    monkeypatch.setattr(scenario, "advance", counted)
    return steps


@pytest.mark.parametrize("controller, per_step", [
    ("mpc", 2), ("rbc", 1), ("none", 1),
])
def test_model_copy_steps_only_under_mpc(three_node, monkeypatch,
                                         controller, per_step):
    from wqmpc.dynamics import build_schedule

    net, profile = three_node
    cfg = short_config()
    n_steps = sum(n for _, n in build_schedule(net, profile, cfg.seg_counts)[:2])
    steps = count_steps(monkeypatch)
    run_closed_loop(net, profile, cfg, controller=controller)
    assert sum(steps) == per_step * n_steps


@pytest.mark.parametrize("controller, schedules", [
    ("mpc", 2), ("rbc", 1), ("none", 1),
])
def test_set_up_builds_only_what_the_run_steps(three_node, monkeypatch,
                                               controller, schedules):
    """Only MPC reads the model, so only it builds the model schedule, and
    a 2 h run assembles two of the profile's 24 periods per schedule."""
    from wqmpc import dynamics, scenario

    net, profile = three_node
    built, assembled = [], []

    def counting(calls, fn):
        def wrapper(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scenario, "build_schedule",
                        counting(built, scenario.build_schedule))
    monkeypatch.setattr(dynamics, "assemble_system",
                        counting(assembled, dynamics.assemble_system))
    run_closed_loop(net, profile, short_config(), controller)
    assert len(profile.periods) == 24
    assert len(built) == schedules
    assert len(assembled) == 2 * schedules


@pytest.mark.parametrize("controller, controllers", [
    ("mpc", 1), ("rbc", 0), ("none", 0),
])
def test_only_mpc_builds_a_controller(three_node, monkeypatch, controller,
                                      controllers):
    """The MPC controller is built for an 'mpc' run alone; the other runs
    report the same timing keys, with no law build time."""
    from wqmpc import scenario

    net, profile = three_node
    built = []
    real = scenario.RecedingHorizonController

    def counted(config):
        built.append(config)
        return real(config)

    monkeypatch.setattr(scenario, "RecedingHorizonController", counted)
    report = run_closed_loop(net, profile, short_config(), controller)
    assert len(built) == controllers
    assert sorted(report.timings) == [
        "wall_law_build_ms", "wall_ms_per_control_step",
        "wall_solve_ms_per_control_step",
    ]
    if controller == "mpc":
        assert report.timings["wall_law_build_ms"] > 0.0
    else:
        assert report.timings["wall_law_build_ms"] == 0.0


def test_mpc_run_builds_one_state_layout(three_node, monkeypatch):
    """The plant and model schedules share one layout, built once and
    seen through the sensors' closure."""
    from wqmpc import dynamics, scenario

    net, profile = three_node
    layouts, schedules = [], []
    real_init, real_build = dynamics.StateIndexMap.__init__, scenario.build_schedule

    def counted_init(self, *args, **kwargs):
        layouts.append(self)
        real_init(self, *args, **kwargs)

    def recorded_build(*args, **kwargs):
        schedule = real_build(*args, **kwargs)
        schedules.append(list(schedule))  # the run lets its entries go
        return schedule

    monkeypatch.setattr(dynamics.StateIndexMap, "__init__", counted_init)
    monkeypatch.setattr(scenario, "build_schedule", recorded_build)
    run_closed_loop(net, profile, short_config(), "mpc")
    assert len(layouts) == 1
    assert len(schedules) == 2  # plant and model
    shared = schedules[0][0][0].index_map
    assert all(
        sys.index_map is shared for schedule in schedules for sys, _ in schedule
    )
    assert shared.keep is not None and shared.offsets is layouts[0].offsets


@pytest.mark.parametrize("controller", ["mpc", "rbc", "none"])
def test_booster_layout_spans_the_whole_profile(three_node, tmp_path,
                                                controller):
    """A booster whose flow lies only in a period the run never reaches
    keeps its input column, as it would in a run that reached it."""
    net, profile = three_node
    late = profile.periods[5]
    flows = late.booster_flows.copy()
    flows[net.node_ids.index("TK3")] = 1e-4
    edited = replace(profile, periods=(
        *profile.periods[:5], replace(late, booster_flows=flows),
        *profile.periods[6:],
    ))
    report = run_closed_loop(net, edited, short_config(events=[]), controller)
    assert report.booster_nodes == ("J2", "TK3")
    assert report.inputs.shape == (24, 2)
    assert np.all(report.inputs[:, 1] == 0.0)  # no flow there in this run
    ts, _ = export_report(report, str(tmp_path))
    assert Path(ts).read_text().splitlines()[0] == (
        "time_s,y_J2,u_J2,u_TK3,injected_mg"
    )


# J2 plus nine segments: more sensors than numpy's 8-element pairwise
# summation block, so a reordered sum over the sensors would show.
TEN_SENSORS = ["J2"] + [f"P23[{i}]" for i in range(9)]

# (events, index of the first step that starts after they fire); the
# three_node quality step is 10 s and a control period 30 steps.
EVENT_TIMINGS = {
    "at t = 0": ([(0.0, "R1", 1.5)], 0),
    "at a control instant": ([(1800.0, "R1", 1.5)], 180),
    "at a step between control instants": ([(1650.0, "R1", 1.5)], 165),
    "between two steps": ([(1655.0, "R1", 1.5)], 166),
    "two at one time": ([(1650.0, "R1", 1.5), (1650.0, "TK3", 0.5)], 165),
}


@pytest.mark.parametrize("timing", list(EVENT_TIMINGS))
@pytest.mark.parametrize("controller", ["mpc", "rbc", "none"])
def test_segmenting_does_not_change_a_run(three_node, monkeypatch,
                                          controller, timing):
    """Whole holds cut at events give the run that one-step segments give,
    which equals a step-by-step replay of its inputs, and the deviation
    is the step-by-step sum."""
    net, profile = three_node
    events, fired = EVENT_TIMINGS[timing]
    cfg = short_config(sensors=TEN_SENSORS, events=[
        {"time_s": t, "targets": [target], "value_mg_l": v}
        for t, target, v in events
    ])
    held = run_closed_loop(net, profile, cfg, controller)
    rec = StepRecorder(monkeypatch)
    stepped = run_closed_loop(net, profile, cfg, controller)
    for name in ("times_s", "outputs", "inputs", "injected_mg"):
        assert np.array_equal(getattr(stepped, name), getattr(held, name)), name

    assert stepped.metrics == held.metrics

    # the run steps the states ``keep``; ``im`` resolves specs among them
    keep, im = stepped_states(net, profile, cfg)
    starts, ends = replay(net, profile, cfg, held.inputs)
    assert np.array_equal(rec.starts, np.array(starts)[:, keep])
    assert np.array_equal(rec.ends, np.array(ends)[:, keep])
    for t, target, v in events:
        [j], _ = im.resolve(target)
        assert rec.times[fired] >= t - 1e-9
        assert fired == 0 or rec.times[fired - 1] < t - 1e-9
        assert rec.starts[fired][j] == v
        assert fired == 0 or rec.ends[fired - 1][j] != v
    idx = [im.sensor_index(s) for s in cfg.sensors]
    deviation = 0.0
    for x in rec.ends:
        deviation += 0.5 * cfg.q * float(np.sum((cfg.y_ref - x[idx]) ** 2))
    assert held.metrics["reference_deviation"] == deviation


def test_rbc_replays_exactly_open_loop(three_node, monkeypatch):
    """The recorded rbc inputs, held per control period on the rebuilt
    plant schedule, reproduce the plant run on the sensors' closure bit
    for bit."""
    net, profile = three_node
    cfg = short_config(events=[])
    rec = StepRecorder(monkeypatch)
    report = run_closed_loop(net, profile, cfg, controller="rbc")
    starts, ends = replay(net, profile, cfg, report.inputs)
    keep, _ = stepped_states(net, profile, cfg)
    assert np.array_equal(np.array(ends)[:, keep], rec.ends)
    assert np.array_equal(starts[1:], ends[:-1])  # no event in between
    im = plant_schedule(net, profile, cfg)[0][0].index_map
    sensors = [im.sensor_index(s) for s in cfg.sensors]
    control_steps = [k for k, t in enumerate(rec.times) if t in report.times_s]
    assert len(control_steps) == len(report.inputs)
    assert np.array_equal(
        np.array(starts)[np.ix_(control_steps, sensors)], report.outputs
    )


def control_steps(schedule, cfg) -> list[int]:
    """The index of each step that starts at a control instant."""
    steps, first = [], 0
    for sys, n in schedule:
        steps += range(first, first + n, int(round(cfg.control_period_s / sys.dt_s)))
        first += n
    return steps


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n_junctions=st.integers(2, 25),
       controller=st.sampled_from(["none", "mpc"]), data=st.data())
def test_a_run_reads_what_a_full_replay_reads(seed, n_junctions, controller,
                                              data):
    """Random synthetic networks, junction sensors and events over two
    periods: a run that steps only its sensors' closure reads, at every
    control instant, what a full-state replay of its inputs on the
    unrestricted plant reads, bit for bit, and its deviation is the
    replay's.  Under 'mpc', its inputs are those of the same run on the
    full plant and model."""
    from unittest import mock

    from wqmpc import scenario
    from wqmpc.dynamics import build_schedule
    from wqmpc.synth import SynthSpec, synth_network

    net, profile = synth_network(SynthSpec(
        n_junctions=n_junctions, n_tanks=1, n_boosters=2, n_pumps=1,
        n_extra_pipes=2, period_s=600.0, seed=seed,
    ))
    # water stands in some pipes in the first period only, so the second
    # period's A reaches states the first one's does not; one pipe at
    # least keeps moving
    first = profile.periods[0]
    moving = np.flatnonzero(first.flows[:net.n_p]).tolist()
    flows = first.flows.copy()
    flows[data.draw(st.lists(st.sampled_from(moving), max_size=len(moving) - 1))] = 0.0
    profile = replace(profile, periods=(replace(first, flows=flows),
                                        *profile.periods[1:]))
    junctions = list(net.node_ids[:net.n_j])
    dts = [sys.dt_s for sys, _ in build_schedule(net, profile, 8)]
    hold = data.draw(st.sampled_from([
        c for c in (60.0, 120.0, 150.0, 200.0, 300.0, 600.0)
        if all(c >= dt and abs(c / dt - round(c / dt)) < 1e-9 for dt in dts)
    ]))
    events = data.draw(st.lists(st.fixed_dictionaries({
        "time_s": st.floats(0.0, 1199.0),
        "targets": st.lists(st.sampled_from(junctions + list(net.link_ids)),
                            min_size=1, max_size=3),
        "value_mg_l": st.floats(0.0, 3.0),
    }), max_size=3))
    cfg = load_scenario(json.dumps({
        "duration_s": 1200.0, "control_period_s": hold, "segments": 8,
        "sensors": data.draw(st.lists(st.sampled_from(junctions), min_size=1,
                                      max_size=3, unique=True)),
        "y_ref": 1.0, "horizon": 4, "r": 1e-3, "u_max": 4.0,
        "seed": seed, "events": events,
    }))
    report = run_closed_loop(net, profile, cfg, controller)

    schedule = plant_schedule(net, profile, cfg)
    im = schedule[0][0].index_map
    sensors = [im.sensor_index(s) for s in cfg.sensors]
    starts, ends = replay(net, profile, cfg, report.inputs)
    read = np.array(starts)[np.ix_(control_steps(schedule, cfg), sensors)]
    assert read.tobytes() == report.outputs.tobytes()
    deviation = 0.0
    for x in ends:
        deviation += 0.5 * cfg.q * float(np.sum((cfg.y_ref - x[sensors]) ** 2))
    assert report.metrics["reference_deviation"] == deviation
    if controller == "mpc":
        # a closure that keeps every state: the run on the whole layout
        with mock.patch.object(scenario, "sensor_closure",
                               lambda im, *_: np.arange(im.n_x)):
            whole = run_closed_loop(net, profile, cfg, controller)
        assert whole.inputs.tobytes() == report.inputs.tobytes()
        assert whole.metrics == report.metrics


@pytest.mark.parametrize("controller", ["mpc", "none"])
def test_an_event_outside_the_closure_is_logged_and_changes_nothing(
        three_node, tmp_path, caplog, controller):
    """J2 sees only itself and R1: an event on P23 and TK3 is dropped and
    logged, and one on J2 and P23 acts as one on J2 alone; either way the
    exports are those of the run without what was dropped."""
    net, profile = three_node
    runs = {}
    for name, targets in (("outside", ["P23", "TK3"]), ("none", None),
                          ("partly", ["J2", "P23"]), ("inside", ["J2"])):
        events = [] if targets is None else [
            {"time_s": 1800.0, "targets": targets, "value_mg_l": 3.0}
        ]
        with caplog.at_level(logging.INFO, logger="wqmpc.scenario"):
            report = run_closed_loop(net, profile, short_config(events=events),
                                     controller)
        export_report(report, str(tmp_path / name))
        runs[name] = caplog.text
        caplog.clear()
    assert runs["outside"].count("outside the sensors' upstream closure") == 2
    assert ("event at 1800.0 s on P23, TK3: 100 state(s) of target P23 lie "
            "outside the sensors' upstream closure") in runs["outside"]
    assert "1 state(s) of target TK3" in runs["outside"]
    assert "never fired" not in runs["outside"]  # it still counts as fired
    assert "100 state(s) of target P23" in runs["partly"]
    assert "target J2" not in runs["partly"]
    # without a dropped target, the closure's own line is all that is logged
    assert runs["none"] == runs["inside"]
    assert runs["none"].count("\n") == 1
    assert "sensors' upstream closure: 2, 2 states" in runs["none"]
    for a, b in (("outside", "none"), ("partly", "inside")):
        for f in ("timeseries.csv", "metrics.json"):
            assert ((tmp_path / a / f).read_bytes()
                    == (tmp_path / b / f).read_bytes()), (a, f)
    # the event on J2 does act on the run
    assert ((tmp_path / "inside" / "timeseries.csv").read_bytes()
            != (tmp_path / "none" / "timeseries.csv").read_bytes())


def test_zero_controller_injects_nothing(three_node):
    net, profile = three_node
    cfg = short_config(events=[])
    report = run_closed_loop(net, profile, cfg, controller="none")
    assert report.metrics["injected_mass_mg"] == 0.0
    assert report.inputs.max() == 0.0
    assert report.metrics["reference_deviation"] > 0


def test_event_overwrites_plant_state(three_node, monkeypatch):
    """A sensor at TK3 puts J2 and all of P23 in the states the run steps;
    they are laid back into the whole layout (NaN elsewhere)."""
    net, profile = three_node
    cfg = short_config(
        sensors=["TK3"],
        events=[{"time_s": 3600.0, "targets": ["J2", "P23"], "value_mg_l": 1.5}],
    )
    rec = StepRecorder(monkeypatch)
    run_closed_loop(net, profile, cfg, controller="none")
    k = rec.times.index(3600.0)
    im = plant_schedule(net, profile, cfg)[0][0].index_map
    keep, _ = stepped_states(net, profile, cfg)

    def whole(x):
        out = np.full(im.n_x, np.nan)
        out[keep] = x
        return out

    state = whole(rec.starts[k])
    assert state[im.index("J2")] == 1.5
    assert np.allclose(state[pipe_slice(im, 0)], 1.5)
    assert not np.allclose(whole(rec.ends[k - 1])[pipe_slice(im, 0)], 1.5)


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
    net, profile = three_node
    cfg = short_config(
        events=[{"time_s": 3600.0, "targets": ["J2", "P99"], "value_mg_l": 1.0}]
    )
    steps = count_steps(monkeypatch)
    with pytest.raises(ModelError, match="unknown entity 'P99'"):
        run_closed_loop(net, profile, cfg, controller="none")
    assert steps == []


def test_control_period_below_the_quality_step_is_refused(three_node):
    net, profile = three_node
    # within 1e-9 of a hold of 0 steps of 10 s
    cfg = short_config(control_period_s=1e-10, duration_s=3600.0)
    with pytest.raises(WqmpcError, match="not a multiple of the quality step 10"):
        run_closed_loop(net, profile, cfg, controller="none")


@pytest.mark.parametrize("controller", ["mpc", "none"])
def test_bad_control_period_refused_before_stepping(three_node, monkeypatch,
                                                    controller):
    """40 s divides the 10 s step of periods 0-14, not the 12 s step that
    period 15 takes: the run is refused before its first step."""
    net, profile = three_node
    cfg = short_config(control_period_s=40.0, duration_s=86400.0, events=[])
    steps = count_steps(monkeypatch)
    with pytest.raises(WqmpcError, match="not a multiple of the quality step 12"):
        run_closed_loop(net, profile, cfg, controller=controller)
    assert steps == []


def test_mpc_tracks_reference(three_node):
    net, profile = three_node
    cfg = short_config(events=[])
    report = run_closed_loop(net, profile, cfg, controller="mpc")
    y = report.outputs[:, 0]
    assert np.abs(y[6:] - 2.0).max() < 0.1
    assert report.metrics["total"] > 0
    assert report.timings["wall_ms_per_control_step"] > 0


def prediction_errors(monkeypatch, net, profile, cfg):
    """Relative error of each MPC forecast against the sensor output that
    ``advance`` realizes from the plant state under the applied input.

    The plant equals the model (no perturbation, no events).  A forecast
    is ``W x_a + Z Δu`` with the applied increment in the first block.  It
    is exact only while its horizon stays in one hydraulic period and
    the controller's Δx is a step of that period's system, so updates at
    a period's first step are skipped.
    """
    from wqmpc import mpc
    from wqmpc.dynamics import advance

    updates = []  # (system, law, x_a)
    real_control, real_solve = (
        mpc.RecedingHorizonController.control, mpc.AnalyticalLaw.solve
    )

    def control(ctl, sys, *args):
        updates.append([sys])
        return real_control(ctl, sys, *args)

    def solve(law, x_a):
        updates[-1] += [law, x_a]
        return real_solve(law, x_a)

    monkeypatch.setattr(mpc.RecedingHorizonController, "control", control)
    monkeypatch.setattr(mpc.AnalyticalLaw, "solve", solve)
    rec = StepRecorder(monkeypatch)
    report = run_closed_loop(net, profile, cfg, "mpc")
    n = cfg.horizon
    errors = []
    u_prev = np.zeros(report.inputs.shape[1])
    for t, u, (sys, law, x_a) in zip(report.times_s, report.inputs, updates):
        k = rec.times.index(t)
        in_period = k - rec.periods.index(sys.period_id)
        if 0 < in_period and in_period + n <= rec.periods.count(sys.period_id):
            pred = law.pred
            forecast = pred.free_response(x_a) + pred.z[:, :pred.n_u] @ (u - u_prev)
            rows = [sys.index_map.sensor_index(s) for s in cfg.sensors]
            _, realized = advance(sys, rec.starts[k], u, n, rows)
            errors.append(np.abs(forecast - realized.ravel()).max()
                          / np.abs(realized).max())
        u_prev = u
    return errors


NOMINAL = {"uncertainty": {"demand_band": 0.0, "reaction_band": 0.0},
           "events": []}


def test_forecast_equals_realized_output_three_node(three_node, monkeypatch):
    """A hold of 30 steps: the controller's Δx must be one step's change,
    or the free response extrapolates a whole hold's change per step."""
    net, profile = three_node
    cfg = short_config(sensors=["P23"], horizon=300, **NOMINAL)
    errors = prediction_errors(monkeypatch, net, profile, cfg)
    assert len(errors) == 4  # two updates per period fit a 300-step horizon
    assert max(errors) <= 1e-10


def test_forecast_equals_realized_output_net3(monkeypatch):
    net = parse_network(read_data("net3.inp"))
    profile = load_hydraulics(net, read_data("net3_hydraulics.csv"),
                              period_duration_s=600.0)
    cfg = load_scenario(json.dumps({
        "duration_s": 600.0, "control_period_s": 60.0, "segments": 100,
        "sensors": ["J15", "J40", "J86"], "y_ref": 1.0, "horizon": 30,
        "r": 1e-3, "u_max": 4.0, **NOMINAL,
    }))
    errors = prediction_errors(monkeypatch, net, profile, cfg)
    assert len(errors) == 9
    assert max(errors) <= 1e-10


def test_mpc_settles_at_a_pipe_sensor(three_node):
    """P23's outlet lies 300 steps of transport from the J2 booster; with
    the perturbed plant, its last 6 h stay within 5 % of the setpoint."""
    net, profile = three_node
    cfg = short_config(sensors=["P23"], horizon=300, duration_s=86400.0,
                       events=[])
    report = run_closed_loop(net, profile, cfg, "mpc")
    last = report.times_s >= cfg.duration_s - 6 * 3600.0
    assert np.abs(report.outputs[last, 0] - cfg.y_ref).max() <= 0.05 * cfg.y_ref


@pytest.mark.parametrize("controller", ["mpc", "rbc"])
def test_control_timing_splits_law_builds_from_solves(three_node, tmp_path,
                                                      controller):
    net, profile = three_node
    report = run_closed_loop(net, profile, short_config(events=[]), controller)
    m = report.timings
    n = len(report.times_s)
    build, solve = m["wall_law_build_ms"], m["wall_solve_ms_per_control_step"]
    if controller == "mpc":
        assert build > 0  # two hydraulic periods, two law builds
    else:
        assert build == 0.0
    assert solve > 0
    total = m["wall_ms_per_control_step"] * n
    assert abs(build + solve * n - total) <= 1e-9 * total
    # wall-clock numbers stay out of the results and the export
    assert not set(m) & set(report.metrics)
    export_report(report, str(tmp_path))
    exported = json.loads((tmp_path / "metrics.json").read_text())
    assert set(exported) == set(report.metrics)


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
        timings={},
    )
    ts, mx = export_report(report, str(tmp_path))
    lines = Path(ts).read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("time_s,")
    assert json.loads(Path(mx).read_text()) == {"total": 0.0}


@pytest.mark.parametrize("controller", ["mpc", "rbc", "none"])
def test_each_period_is_let_go_once_it_is_stepped(three_node, monkeypatch,
                                                  controller):
    """By the time period 1 is stepped, period 0's plant system (and,
    under 'mpc', its model system) has been collected."""
    from wqmpc import scenario

    refs, seen = {}, []
    real_advance = scenario.advance

    def watched(sys, x, u, n, rows=None):
        # the plant's calls pass the sensor rows, the model's none
        refs.setdefault((rows is None, sys.period_id), weakref.ref(sys))
        if sys.period_id == 1:
            seen.append([ref() is None for (_, pid), ref in refs.items() if pid == 0])
        return real_advance(sys, x, u, n, rows)

    monkeypatch.setattr(scenario, "advance", watched)
    net, profile = three_node
    run_closed_loop(net, profile, short_config(), controller)
    assert len(refs) == (4 if controller == "mpc" else 2)
    assert seen and all(all(dead) for dead in seen)


@pytest.mark.parametrize("controller", ["mpc", "rbc", "none"])
def test_a_run_logs_its_closure(three_node, caplog, controller):
    """Under every controller one INFO line gives the closure's size in
    each period and the stepped union against n_x."""
    net, profile = three_node
    with caplog.at_level(logging.INFO, logger="wqmpc.scenario"):
        run_closed_loop(net, profile, short_config(events=[]), controller)
    lines = [r.getMessage() for r in caplog.records if "closure" in r.getMessage()]
    assert lines == [
        "sensors' upstream closure: 2, 2 states in periods 0-1; "
        "2 of 104 states stepped"
    ]
