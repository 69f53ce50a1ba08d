"""Closed-loop scenarios: plant/model mismatch, disturbances, baselines.

The *plant* is the network with perturbed demands and pipe reaction
rates plus optional contamination events that overwrite state entries;
MPC also steps a *model*, the nominal system its law was built from.
Every controller reads only the plant's sensors, so a run assembles and
steps only their upstream closure (see ``run_closed_loop``), and its
loop calls one controller object at each control instant.  A
``ScenarioConfig`` is itself the controller's ``ControlConfig``,
extended by the run's own fields.  One table, ``_SCHEMA``, has a row for
each key of each scenario JSON object (the top level, the uncertainty
bands, each event and each rule): its JSON kind, its default or none,
and its range.  ``load_scenario`` reads kinds and defaults from it;
``ScenarioConfig.validate`` runs the range column on the loaded values,
so a config built in Python is refused as one read from JSON is.

The closed loop steps one hold at a time: the input is fixed from one
control instant to the next, so the plant is advanced over a whole
segment with one B u and its sensor rows come back as one block; the
model takes the segment's last step apart.  A segment ends at the next
control instant, at the end of the hydraulic period, or at the step at
which the next event fires.  The per-step sensor deviation, injected
mass and time are then folded in step order, so a run's numbers do not
depend on how it was segmented.  A report keeps its results
(``metrics``, exported) apart from its wall-clock timings (``timings``,
never exported), so equal seeds export identical bytes.

The rule-based baseline maps the sensors' mean deviation to a fixed
chlorine dose per control step through a lookup table, mimicking common
operator heuristics; its injection concentrations are clipped at
``u_max``, as the MPC inputs are.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import WqmpcError
from .dynamics import (
    StateIndexMap,
    StateSpaceSystem,
    advance,
    booster_layout,
    build_schedule,
    initial_state,
    nominal_pipe_rates,
    sensor_closure,
    step,  # unused here; the benchmark's probes still patch scenario.step
)
from .hydraulics import HydraulicProfile
from .mpc import ControlConfig, RecedingHorizonController
from .network import WaterNetwork

log = logging.getLogger(__name__)

# ---------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class UncertaintySpec:
    """Multiplicative perturbation bands (fraction of nominal)."""

    demand_band: float = 0.10
    reaction_band: float = 0.10

    def validate(self) -> None:
        _check(self, "uncertainty")


@dataclass(frozen=True)
class DisturbanceEvent:
    """At ``time_s``, force the plant concentration of every state entry
    matched by ``targets`` to ``value_mg_l``."""

    time_s: float
    targets: tuple[str, ...]
    value_mg_l: float


def _event_name(ev: DisturbanceEvent) -> str:
    return f"at {ev.time_s} s on {', '.join(ev.targets)}"


@dataclass(frozen=True)
class Rule:
    low: float   # deviation interval [low, high)
    high: float
    dose_mg: float  # chlorine mass injected per control step


@dataclass(frozen=True)
class RuleTable:
    """Piecewise-constant dose schedule over the deviation range.

    Intervals must be disjoint and cover [low, 0] exactly, with low the
    first rule's lower end.  The setpoint is stored once, as the
    scenario's ``y_ref``: the rule baseline refuses a table whose low is
    not -y_ref.
    """

    rules: tuple[Rule, ...]

    def __post_init__(self):
        for i, rule in enumerate(self.rules):
            _check(rule, "rule", name=i)
        rules = sorted(self.rules, key=lambda r: r.low)
        if not rules:
            raise WqmpcError("rule table is empty")
        for a, b in zip(rules, rules[1:]):
            if a.high > b.low + 1e-12:
                raise WqmpcError(
                    f"overlapping rules at deviation {b.low}"
                )
            if a.high < b.low - 1e-12:
                raise WqmpcError(f"rule table gap between {a.high} and {b.low}")
        if abs(rules[-1].high) > 1e-12:
            raise WqmpcError(
                f"rule table must end at 0, got {rules[-1].high}"
            )
        object.__setattr__(self, "rules", tuple(rules))

    def dose(self, deviation: float) -> float:
        d = min(max(deviation, self.rules[0].low), 0.0)
        for r in self.rules:
            if r.low <= d < r.high:
                return r.dose_mg
        return self.rules[-1].dose_mg  # d == 0 (closed upper end)


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig(ControlConfig):
    """A closed-loop run: the controller settings it inherits plus the
    run's span, discretization, plant perturbation, events and rules."""

    duration_s: float
    control_period_s: float
    seg_counts: int
    seed: int = 0
    uncertainty: UncertaintySpec = field(default_factory=UncertaintySpec)
    events: tuple[DisturbanceEvent, ...] = ()
    rules: RuleTable | None = None

    def validate(self, profile: HydraulicProfile, controller: str = "mpc") -> None:
        """Refuse a run of ``controller`` ('mpc', 'rbc' or 'none') that
        cannot go through, before anything is assembled or stepped: a
        value outside its range in ``_SCHEMA`` first, then the checks
        across fields."""
        if controller not in ("mpc", "rbc", "none"):
            raise WqmpcError(f"unknown controller {controller!r}")
        _check(self, "scenario")
        self.uncertainty.validate()
        for ev in self.events:
            _check(ev, "event", name=_event_name(ev))
        for key in ("y_min", "y_max"):
            if np.isfinite(getattr(self, key)) and not self.constrained:
                raise WqmpcError(
                    f"{key} is set to {getattr(self, key)}, but output bounds "
                    "are enforced only with constrained: true"
                )
        t_h = profile.periods[0].duration_s
        if any(p.duration_s != t_h for p in profile.periods):
            raise WqmpcError("hydraulic periods must share one duration")
        for total, part, what in (
            (self.duration_s, t_h, "hydraulic period"),
            (t_h, self.control_period_s, "control period"),
        ):
            k = total / part
            if abs(k - round(k)) > 1e-9 or k < 1:
                raise WqmpcError(
                    f"{what} ({part} s) must divide its parent span ({total} s)"
                )
        if self.duration_s > profile.total_duration_s + 1e-9:
            raise WqmpcError("scenario outlasts the hydraulic schedule")
        if controller == "rbc":
            if self.rules is None:
                raise WqmpcError("rule-based control requires a rule table")
            low = self.rules.rules[0].low
            if abs(low - (-self.y_ref)) > 1e-12:
                raise WqmpcError(
                    f"rule table must start at -y_ref = {-self.y_ref}, got {low}"
                )


_REQUIRED = object()  # the default of a key that must be given

# kind: (test of a JSON value, what a value failing it must be, how it
# is stored); JSON values have exact types, so a bool is no number
_KINDS = {
    "number": (lambda v: type(v) in (int, float), "a number", float),
    "count": (lambda v: type(v) in (int, float) and v % 1 == 0, "a whole number", int),
    "bool": (lambda v: type(v) is bool, "true or false", bool),
    "specs": (lambda v: type(v) is list and all(type(t) is str for t in v),
              "a list of entity specs", tuple),
    "list": (lambda v: type(v) is list, "a JSON list", tuple),
}

# range: the test of a loaded value, by the phrase it is refused with
_RANGES = {
    "be finite": lambda v: np.isfinite(v).all(),
    "be finite and positive": lambda v: 0 < v < np.inf,
    "be finite and nonnegative": lambda v: 0 <= v < np.inf,
    "be nonnegative": lambda v: v >= 0,
    "be at least 1": lambda v: v >= 1,
    "not be NaN": lambda v: not np.isnan(v),  # +-inf stands for no bound
    "lie in [0, 1)": lambda v: 0 <= v < 1,
    "name at least one entity": lambda v: len(v) > 0,
}


@dataclass(frozen=True)
class _Key:
    """A row of ``_SCHEMA``: one key of a scenario JSON object."""

    key: str
    kind: str  # of _KINDS, or 'object'; 'specs' must also be non-empty
    default: object = _REQUIRED  # read as a given value; null only if None
    must: str | None = None  # the range, of _RANGES, checked by validate
    item: str | None = None  # the _SCHEMA label of an 'object' or list item
    store: type | None = None  # replaces the kind's store
    attr: str | None = None  # the dataclass field, where it is not the key


_SCHEMA = {
    # label: (dataclass, message for a value out of range, rows)
    "scenario": (ScenarioConfig, "{key} must {must}, got {value}", (
        _Key("duration_s", "number", must="be finite and positive"),
        _Key("control_period_s", "number", must="be finite and positive"),
        _Key("segments", "count", 100, attr="seg_counts"),
        _Key("sensors", "specs", must="name at least one entity"),
        _Key("y_ref", "number", must="be finite"),
        _Key("horizon", "count", must="be at least 1"),
        _Key("q", "number", 1.0, "be finite"),
        _Key("r", "number", 1.0, "be finite"),
        _Key("price_per_mg", "number", 0.0, "be finite"),
        # inputs are clipped to [0, u_max] under every controller
        _Key("u_max", "number", np.inf, "be nonnegative"),
        _Key("y_min", "number", -np.inf, "not be NaN"),
        _Key("y_max", "number", np.inf, "not be NaN"),
        _Key("constrained", "bool", False),
        _Key("seed", "count", 0, "be nonnegative"),
        _Key("uncertainty", "object", {}, item="uncertainty"),
        _Key("events", "list", [], item="event"),
        _Key("rules", "list", None, item="rule", store=RuleTable),
    )),
    "uncertainty": (UncertaintySpec, "perturbation bands must {must}, got {key} {value}", (
        _Key("demand_band", "number", 0.10, "lie in [0, 1)"),
        _Key("reaction_band", "number", 0.10, "lie in [0, 1)"),
    )),
    "event": (DisturbanceEvent, "event {name} has {key} {value}; it must {must}", (
        _Key("time_s", "number", must="be finite and nonnegative"),
        _Key("targets", "specs", must="name at least one entity"),
        _Key("value_mg_l", "number", must="be finite and nonnegative"),
    )),
    # a RuleTable checks its rules' ranges, then how they tile [low, 0]
    "rule": (Rule, "{key} must {must}, got {value} in rule {name}", (
        _Key("low", "number", must="be finite"),
        _Key("high", "number", must="be finite"),
        _Key("dose_mg", "number", must="be finite and nonnegative"),
    )),
}


def _read(raw, label: str):
    """The ``label`` object of ``_SCHEMA``, read from its JSON value."""
    cls, _, rows = _SCHEMA[label]
    if not isinstance(raw, dict):
        raise WqmpcError(f"{label} must be a JSON object")
    unknown = sorted(set(raw) - {row.key for row in rows})
    if unknown:
        raise WqmpcError(f"unknown {label} keys: {', '.join(unknown)}")
    values = {}
    for row in rows:
        name = row.key if label == "scenario" else f"{label} {row.key}"
        v = raw.get(row.key, row.default)
        if v is _REQUIRED:
            raise WqmpcError(f"{label} missing required field {row.key!r}")
        if row.kind == "object":
            v = _read(v, row.item)
        elif v is not None or row.default is not None:
            test, what, store = _KINDS[row.kind]
            if not test(v):
                raise WqmpcError(f"{name} must be {what}, got {v!r}")
            if row.kind == "specs" and not v:
                raise WqmpcError(f"{name} must name at least one entity")
            if row.kind == "list":
                v = [_read(item, row.item) for item in v]
            try:
                v = (row.store or store)(v)
            except OverflowError:  # an integer beyond the float range
                raise WqmpcError(f"{name} is out of range, got {v}") from None
        values[row.attr or row.key] = v
    return cls(**values)


def _check(obj, label: str, **names) -> None:
    """Refuse a field of ``obj``, a ``label`` object of ``_SCHEMA``, that
    is outside its row's range; ``names`` fill the label's message."""
    _, message, rows = _SCHEMA[label]
    for row in rows:
        v = getattr(obj, row.attr or row.key)
        if row.must is not None and not _RANGES[row.must](v):
            raise WqmpcError(message.format(key=row.key, value=v, must=row.must, **names))


def load_scenario(text: str, **overrides) -> ScenarioConfig:
    """Read a JSON scenario by ``_SCHEMA``, refusing by its key a value of
    the wrong kind, an unknown key or a missing one (ranges are left to
    ``validate``).  ``overrides`` that are not None replace top-level
    keys of the file."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # bad JSON, or an integer too long to convert
        raise WqmpcError(f"bad scenario JSON: {exc}") from None
    if isinstance(raw, dict):
        raw.update((k, v) for k, v in overrides.items() if v is not None)
    return _read(raw, "scenario")


# ---------------------------------------------------------------------
# Plant construction
# ---------------------------------------------------------------------


def apply_uncertainty(
    net: WaterNetwork,
    profile: HydraulicProfile,
    spec: UncertaintySpec,
    rng: np.random.Generator,
) -> tuple[HydraulicProfile, np.ndarray]:
    """Perturbed plant inputs: demands scaled per period inside the band,
    and the pipe rates (1/h), re-derived from kb and kw scaled once for
    the whole run.

    Only the junction demands move (mixing denominators change); link
    flows are kept as scheduled, so the perturbation models metering
    error rather than a re-solved hydraulic state.
    """
    spec.validate()
    periods = []
    for p in profile.periods:
        factor = 1.0 + spec.demand_band * rng.uniform(-1.0, 1.0, size=p.demands.shape)
        periods.append(replace(p, demands=p.demands * factor))
    kb_f = 1.0 + spec.reaction_band * rng.uniform(-1.0, 1.0, size=net.n_p)
    kw_f = 1.0 + spec.reaction_band * rng.uniform(-1.0, 1.0, size=net.n_p)
    k_pipe = nominal_pipe_rates(net, kb_f, kw_f)
    perturbed = HydraulicProfile(
        periods=tuple(periods),
        balance_residuals=profile.balance_residuals,
        consistent=False,
    )
    return perturbed, k_pipe


# ---------------------------------------------------------------------
# Rule-based baseline
# ---------------------------------------------------------------------


def rbc_control(
    table: RuleTable,
    y_meas: np.ndarray,
    sys: StateSpaceSystem,
    y_ref: float,
    control_period_s: float,
) -> np.ndarray:
    """Dose per the rule table, spread over the control period.

    The deviation is the mean sensor reading minus the setpoint, clamped
    to the table's domain; the dose (mg per control step) is split
    evenly over the boosters with flow this period and converts to an
    injection concentration through each one's flow.
    """
    dose = table.dose(y_meas.mean() - y_ref)
    u = np.zeros(sys.n_u)
    active = sys.booster_flows > 0
    if dose > 0 and active.any():
        share = dose / active.sum()
        liters = sys.booster_flows[active] * 1000.0 * control_period_s
        u[active] = share / liters
    return u


# ---------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioReport:
    controller: str
    times_s: np.ndarray        # control instants
    outputs: np.ndarray        # (n_c, n_y) plant sensor readings at each instant
    inputs: np.ndarray         # (n_c, n_b) applied injection concentrations
    injected_mg: np.ndarray    # (n_c,) chlorine mass per control step
    sensor_labels: tuple[str, ...]
    booster_nodes: tuple[str, ...]  # the node of each input column
    metrics: dict[str, float]       # the run's results, exported
    timings: dict[str, float]       # wall-clock ms, printed, never exported


def _steps_before(time_s: float, t: float, dt: float, n: int) -> int:
    """Steps, at most ``n``, that run before an event at ``time_s`` fires.

    An event fires before the first step whose start time t satisfies
    ``time_s <= t + 1e-9``, with t accumulated by ``t += dt`` as the
    closed loop does; the event is known not to fire at ``t`` itself.
    """
    if time_s > t + n * dt:
        return n
    for j in range(1, n):
        t += dt
        if time_s <= t + 1e-9:
            return j
    return n


def _hold(control_period_s: float, dt: float) -> int:
    """Quality steps per control period; refused unless a whole number."""
    hold = control_period_s / dt
    if round(hold) < 1 or abs(hold - round(hold)) > 1e-9:
        raise WqmpcError(
            f"control period not a multiple of the quality step {dt} s"
        )
    return int(round(hold))


class _NoInjection:
    """The controller of a 'none' run, and the base of the others: the
    loop calls ``enter`` as each hydraulic period starts, ``control`` at
    each control instant and ``follow`` after each plant segment.
    """

    law_build_s = 0.0  # wall time of law builds, split out of the updates

    def enter(self, pid: int) -> None:
        pass

    def control(self, sys: StateSpaceSystem, y_meas: np.ndarray) -> np.ndarray:
        return np.zeros(sys.n_u)

    def follow(self, u: np.ndarray, n: int) -> None:
        pass


class _Rules(_NoInjection):
    """The rule baseline on the sensor readings, clipped at ``u_max``."""

    def __init__(self, config: ScenarioConfig):
        self.config = config

    def control(self, sys, y_meas):
        c = self.config
        return np.minimum(
            rbc_control(c.rules, y_meas, sys, c.y_ref, c.control_period_s),
            c.u_max,
        )


class _Mpc(_NoInjection):
    """MPC on its own nominal model: the model schedule, the model state
    and the state a step before it, whose difference is the law's Δx."""

    def __init__(self, config: ScenarioConfig, schedule: list, x0: np.ndarray):
        self.law = RecedingHorizonController(config)
        self.schedule = schedule
        self.x = self.x_back = x0.copy()  # Δx is zero at first

    @property
    def law_build_s(self) -> float:
        return self.law.law_build_s

    def enter(self, pid):
        self.sys = self.schedule[pid][0]
        self.schedule[pid] = None  # let the last period's system go

    def control(self, sys, y_meas):
        return self.law.control(self.sys, self.x - self.x_back, y_meas)

    def follow(self, u, n):
        # the last step is taken apart, so the next Δx is that step's
        # change, across a period change too
        self.x_back, _ = advance(self.sys, self.x, u, n - 1)
        self.x, _ = advance(self.sys, self.x_back, u, 1)


def run_closed_loop(
    net: WaterNetwork,
    profile: HydraulicProfile,
    config: ScenarioConfig,
    controller: str = "mpc",
) -> ScenarioReport:
    """Simulate the plant under one controller.

    ``controller`` is 'mpc', 'rbc', or 'none' (zero injection).  MPC and
    the rule baseline read the same sensors, and both clip their inputs
    at ``config.u_max``.  The plant perturbation is drawn, and the
    booster layout placed, over the whole profile, so neither depends on
    the run's length.

    The sensors' upstream closure over the reached periods is found
    first (``sensor_closure``) from the scheduled flows and logged at
    INFO, with its size in each period and against n_x.  Only its states
    are assembled and stepped, in the reached periods alone: the plant's
    always, the nominal model's (and the MPC controller) only under
    'mpc'; otherwise the law build reads 0 ms in ``timings``.  Plant and
    model share the flows, since ``apply_uncertainty`` keeps every link
    flow; were a plant's flows to differ, ``assemble_system`` would
    refuse a closure they leave open with a ``ModelError``.  A kept row
    reads only kept states, in the whole layout's order, so every export
    is bit for bit that of full stepping.  An event target's states
    outside the closure are dropped, with an INFO line naming the
    target; its event still fires.  Each period's systems are let go
    once that period is stepped.

    Event targets are resolved, and every period's hold (its control
    period in quality steps) is checked, before the first step; an event
    that never fires within the run is logged as a warning.
    """
    config.validate(profile, controller)

    rng = np.random.default_rng(config.seed)
    plant_profile, plant_k_pipe = apply_uncertainty(
        net, profile, config.uncertainty, rng
    )
    n_periods = int(round(config.duration_s / profile.periods[0].duration_s))
    booster = booster_layout(net, profile)
    # only the sensors' readings are read or exported: assemble and step
    # only the states they can see, in one layout plant and model share
    whole = StateIndexMap(net, config.seg_counts)
    periods = profile.periods[:n_periods]
    keep = sensor_closure(whole, config.sensors, periods)
    if log.isEnabledFor(logging.INFO):
        sizes = [sensor_closure(whole, config.sensors, [p]).size for p in periods]
        log.info(
            "sensors' upstream closure: %s states in periods 0-%d; %s of %s "
            "states stepped", ", ".join(f"{n:,}" for n in sizes), n_periods - 1,
            f"{keep.size:,}", f"{whole.n_x:,}",
        )
    layout = whole.restrict(keep)

    def schedule(prof: HydraulicProfile, k_pipe: np.ndarray | None = None):
        return build_schedule(
            net, prof, layout, booster=booster, k_pipe=k_pipe,
            periods=range(n_periods),
        )

    plant_schedule = schedule(plant_profile, plant_k_pipe)
    holds = [_hold(config.control_period_s, sys.dt_s) for sys, _ in plant_schedule]
    sensor_idx = np.array([layout.sensor_index(s) for s in config.sensors])
    x_plant = initial_state(layout)
    if controller == "mpc":
        ctrl = _Mpc(config, schedule(profile), x_plant)
    elif controller == "rbc":
        ctrl = _Rules(config)
    else:
        ctrl = _NoInjection()

    # Targets resolve once, so an unknown one is refused before any step.
    events = []
    for ev in sorted(config.events, key=lambda e: e.time_s):
        idx = []
        for spec in ev.targets:
            kept, dropped = layout.resolve(spec)
            if dropped:
                log.info(
                    "event %s: %d state(s) of target %s lie outside the "
                    "sensors' upstream closure, which no export reads; "
                    "they are not stepped", _event_name(ev), dropped, spec,
                )
            idx += kept
        events.append((ev, np.array(idx, dtype=np.intp)))
    next_event = 0

    times, outputs, inputs, masses = [], [], [], []
    deviation = smoothness = injected_mass = t = wall = 0.0
    u_prev_applied = np.zeros(booster.n_b)

    for pid, hold in enumerate(holds):
        plant_sys, n_steps = plant_schedule[pid]
        # let each period's systems, and the state-sized buffers their
        # plans own, go once the period is stepped
        plant_schedule[pid] = None
        ctrl.enter(pid)
        dt = plant_sys.dt_s
        k = 0
        while k < n_steps:
            while next_event < len(events) and events[next_event][0].time_s <= t + 1e-9:
                ev, idx = events[next_event]
                x_plant[idx] = ev.value_mg_l
                next_event += 1
            if k % hold == 0:
                y_meas = x_plant[sensor_idx]
                t0 = time.perf_counter()
                u = ctrl.control(plant_sys, y_meas)
                wall += time.perf_counter() - t0
                times.append(t)
                outputs.append(y_meas.copy())
                inputs.append(u.copy())
                masses.append(0.0)
                smoothness += 0.5 * config.r * float(
                    np.sum((u - u_prev_applied) ** 2)
                )
                u_prev_applied = u
                # u, dt and the booster flows are fixed for the whole hold
                step_mass = float(
                    np.sum(u * plant_sys.booster_flows * 1000.0 * dt)
                )
            # A segment runs to the next control instant, the period's end
            # or the step at which the next event fires, whichever is first.
            n = min(hold - k % hold, n_steps - k)
            if next_event < len(events):
                n = _steps_before(events[next_event][0].time_s, t, dt, n)
            x_plant, ys = advance(plant_sys, x_plant, u, n, sensor_idx)
            ctrl.follow(u, n)
            k += n
            # fold per step, in step order, as a step-at-a-time loop would
            mass = masses[-1]
            devs = 0.5 * config.q * np.sum((config.y_ref - ys) ** 2, axis=1)
            for dev in devs.tolist():
                t += dt
                deviation += dev
                mass += step_mass
                injected_mass += step_mass
            masses[-1] = mass

    if next_event < len(events):
        log.warning(
            "%d event(s) never fired within the %g s run: %s",
            len(events) - next_event, config.duration_s,
            "; ".join(_event_name(ev) for ev, _ in events[next_event:]),
        )

    metrics = {
        "reference_deviation": deviation,
        "smoothness": smoothness,
        "chlorine_cost_usd": config.price_per_mg * injected_mass,
        "total": deviation + smoothness + config.price_per_mg * injected_mass,
        "injected_mass_mg": injected_mass,
    }
    law_build_s, n_controls = ctrl.law_build_s, max(len(times), 1)
    timings = {
        "wall_ms_per_control_step": 1000.0 * wall / n_controls,
        # the per-period law builds, split out of the per-update mean
        "wall_law_build_ms": 1000.0 * law_build_s,
        "wall_solve_ms_per_control_step": 1000.0 * (wall - law_build_s) / n_controls,
    }
    return ScenarioReport(
        controller=controller,
        times_s=np.array(times),
        outputs=np.array(outputs),
        inputs=np.array(inputs),
        injected_mg=np.array(masses),
        sensor_labels=tuple(config.sensors),
        booster_nodes=booster.booster_nodes,
        metrics=metrics,
        timings=timings,
    )


# ---------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------


def export_report(report: ScenarioReport, directory: str) -> list[str]:
    """Write the control-step time series and metrics.

    Output is deterministic: fixed column order, repr-style floats, sorted
    metric keys, and no wall-clock timings (those are in ``timings``,
    which is not written).  An empty report still writes headers.
    """
    os.makedirs(directory, exist_ok=True)
    ts_path = os.path.join(directory, "timeseries.csv")
    with open(ts_path, "w") as fh:
        cols = (
            ["time_s"]
            + [f"y_{s}" for s in report.sensor_labels]
            + [f"u_{b}" for b in report.booster_nodes]
            + ["injected_mg"]
        )
        fh.write(",".join(cols) + "\n")
        for k in range(len(report.times_s)):
            vals = [f"{report.times_s[k]:.17g}"]
            vals += [f"{v:.17g}" for v in report.outputs[k]]
            vals += [f"{v:.17g}" for v in report.inputs[k]]
            vals.append(f"{report.injected_mg[k]:.17g}")
            fh.write(",".join(vals) + "\n")
    mx_path = os.path.join(directory, "metrics.json")
    with open(mx_path, "w") as fh:
        json.dump(report.metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [ts_path, mx_path]
