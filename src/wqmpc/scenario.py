"""Closed-loop scenarios: plant/model mismatch, disturbances, baselines.

The *plant* is the network with perturbed demands and pipe reaction
rates plus optional contamination events that overwrite state entries;
MPC also steps a *model*, the nominal system its law was built from.
The perturbation is drawn from the config's seed by ``PCG64``, NumPy's
``default_rng(seed)`` stream computed in-repo, so no run loads
``numpy.random``.
Every controller reads only the plant's sensors, so a run assembles and
steps only their upstream closure (see ``run_closed_loop``).  A
``ScenarioConfig`` is itself the controller's ``ControlConfig``,
extended by the run's own fields.  Each key of a scenario JSON object
(the top level, the uncertainty bands, each event and each rule) is a
config dataclass field, which holds its one default or none; ``_SCHEMA``
gives each key's JSON kind and range.  ``load_scenario`` reads kinds
from it, ``ScenarioConfig.validate`` its ranges, so a config built in
Python is defaulted and refused as one read from JSON is.

A closed loop is planned before its first step (``_plan``): it is cut
into segments under one held input, each ending at the next control
instant, at the end of its hydraulic period, or before the step at
which the next event fires.  Each controller's run (``_Run``) walks the
plan on its own copy of one plant, drawn and assembled once for all:
it advances the plant over a segment with one B u, its sensor rows
coming back as one block, and folds their deviation and injected mass
in step order, so its numbers depend on neither the segmenting nor the
runs beside it.  A report keeps its results (``metrics``, exported)
apart from its wall-clock timings (``timings``, never exported), so
equal seeds export identical bytes.

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
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .errors import WqmpcError
from .dynamics import (
    StateIndexMap,
    StateSpaceSystem,
    advance,
    build_schedule,
    initial_state,
    nominal_pipe_rates,
    sensor_closure,
    step,  # unused here; the benchmark's probes still patch scenario.step
)
from .hydraulics import HydraulicProfile
from .mpc import ControlConfig, RecedingHorizonController
from .network import WaterNetwork
from .pcg64 import PCG64

log = logging.getLogger(__name__)

# ---------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class UncertaintySpec:
    """Multiplicative perturbation bands (fraction of nominal)."""

    demand_band: float = 0.10
    reaction_band: float = 0.10


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
                raise WqmpcError(f"overlapping rules at deviation {b.low}")
            if a.high < b.low - 1e-12:
                raise WqmpcError(f"rule table gap between {a.high} and {b.low}")
        if abs(rules[-1].high) > 1e-12:
            raise WqmpcError(f"rule table must end at 0, got {rules[-1].high}")
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
    segments: int = 100  # per pipe
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
        _check(self.uncertainty, "uncertainty")
        for ev in self.events:
            _check(ev, "event", name=_event_name(ev))
        for key in ("y_min", "y_max"):
            if np.isfinite(getattr(self, key)) and not self.constrained:
                raise WqmpcError(
                    f"{key} is set to {getattr(self, key)}, but output bounds "
                    "are enforced only with constrained: true"
                )
        t_h = profile.period_s
        for total, part, what in (
            (self.duration_s, t_h, "hydraulic period"),
            (t_h, self.control_period_s, "control period"),
        ):
            k = total / part
            if abs(k - round(k)) > 1e-9 or k < 1:
                raise WqmpcError(
                    f"{what} ({part} s) must divide its parent span ({total} s)"
                )
        if self.duration_s > len(profile.flows) * t_h + 1e-9:
            raise WqmpcError("scenario outlasts the hydraulic schedule")
        if controller == "rbc":
            if self.rules is None:
                raise WqmpcError("rule-based control requires a rule table")
            low = self.rules.rules[0].low
            if abs(low - (-self.y_ref)) > 1e-12:
                raise WqmpcError(
                    f"rule table must start at -y_ref = {-self.y_ref}, got {low}"
                )


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
    """A row of ``_SCHEMA``: one key of a JSON object, named as its field."""

    key: str
    kind: str  # of _KINDS, or 'object'; 'specs' must also be non-empty
    must: str | None = None  # the range, of _RANGES, checked by validate
    item: str | None = None  # the _SCHEMA label of an 'object' or list item
    store: type | None = None  # replaces the kind's store


_SCHEMA = {
    # label: (dataclass, message for a value out of range, rows)
    "scenario": (ScenarioConfig, "{key} must {must}, got {value}", (
        _Key("duration_s", "number", "be finite and positive"),
        _Key("control_period_s", "number", "be finite and positive"),
        _Key("segments", "count", "be at least 1"),
        _Key("sensors", "specs", "name at least one entity"),
        _Key("y_ref", "number", "be finite"),
        _Key("horizon", "count", "be at least 1"),
        _Key("q", "number", "be finite and positive"),
        _Key("r", "number", "be finite and positive"),
        _Key("price_per_mg", "number", "be finite"),
        # inputs are clipped to [0, u_max] under every controller
        _Key("u_max", "number", "be nonnegative"),
        _Key("y_min", "number", "not be NaN"),
        _Key("y_max", "number", "not be NaN"),
        _Key("constrained", "bool"),
        _Key("seed", "count", "be nonnegative"),
        _Key("uncertainty", "object", item="uncertainty"),
        _Key("events", "list", item="event"),
        _Key("rules", "list", item="rule", store=RuleTable),
    )),
    "uncertainty": (UncertaintySpec, "perturbation bands must {must}, got {key} {value}", (
        _Key("demand_band", "number", "lie in [0, 1)"),
        _Key("reaction_band", "number", "lie in [0, 1)"),
    )),
    "event": (DisturbanceEvent, "event {name} has {key} {value}; it must {must}", (
        _Key("time_s", "number", "be finite and nonnegative"),
        _Key("targets", "specs", "name at least one entity"),
        _Key("value_mg_l", "number", "be finite and nonnegative"),
    )),
    # a RuleTable checks its rules' ranges, then how they tile [low, 0]
    "rule": (Rule, "{key} must {must}, got {value} in rule {name}", (
        _Key("low", "number", "be finite"),
        _Key("high", "number", "be finite"),
        _Key("dose_mg", "number", "be finite and nonnegative"),
    )),
}


def _read(raw, label: str):
    """The ``label`` object of ``_SCHEMA``, read from its JSON value; a
    key left out takes its field's default, or is refused without one."""
    cls, _, rows = _SCHEMA[label]
    if not isinstance(raw, dict):
        raise WqmpcError(f"{label} must be a JSON object")
    unknown = sorted(set(raw) - {row.key for row in rows})
    if unknown:
        raise WqmpcError(f"unknown {label} keys: {', '.join(unknown)}")
    declared = {f.name: f for f in fields(cls)}
    values = {}
    for row in rows:
        name = row.key if label == "scenario" else f"{label} {row.key}"
        f = declared[row.key]
        if row.key not in raw:
            if f.default is MISSING and f.default_factory is MISSING:
                raise WqmpcError(f"{label} missing required field {row.key!r}")
            continue
        v = raw[row.key]
        if row.kind == "object":
            v = _read(v, row.item)
        elif v is not None or f.default is not None:  # null only as the default
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
        values[row.key] = v
    return cls(**values)


def _check(obj, label: str, **names) -> None:
    """Refuse a field of ``obj``, a ``label`` object of ``_SCHEMA``, that
    is outside its row's range; ``names`` fill the label's message."""
    _, message, rows = _SCHEMA[label]
    for row in rows:
        v = getattr(obj, row.key)
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
    rng: PCG64 | np.random.Generator,
) -> tuple[HydraulicProfile, np.ndarray]:
    """Perturbed plant inputs: ``profile`` with its demands scaled inside
    the band, one factor per period and junction drawn in row order, and
    the pipe rates (1/h), re-derived from kb and kw scaled once for the
    whole run.

    ``rng`` is anything with NumPy's ``uniform(low, high, size)``; a run
    passes ``PCG64(config.seed)``, whose draws are those of
    ``np.random.default_rng(config.seed)``, bit for bit.

    Only the junction demands move (mixing denominators change); link
    flows are kept as scheduled, so the perturbation models metering
    error rather than a re-solved hydraulic state, and the plant's own
    junction balance is ``hydraulics.balance_residuals(net, plant)``.
    """
    _check(spec, "uncertainty")
    demands = profile.demands
    factor = 1.0 + spec.demand_band * rng.uniform(-1.0, 1.0, size=demands.shape)
    kb_f = 1.0 + spec.reaction_band * rng.uniform(-1.0, 1.0, size=net.n_p)
    kw_f = 1.0 + spec.reaction_band * rng.uniform(-1.0, 1.0, size=net.n_p)
    k_pipe = nominal_pipe_rates(net, kb_f, kw_f)
    return replace(profile, demands=demands * factor), k_pipe


# ---------------------------------------------------------------------
# Rule-based baseline
# ---------------------------------------------------------------------


def rbc_control(table: RuleTable, y_meas: np.ndarray, sys: StateSpaceSystem,
                y_ref: float, control_period_s: float) -> np.ndarray:
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


def _hold(control_period_s: float, dt: float) -> int:
    """Quality steps per control period; refused unless a whole number."""
    hold = control_period_s / dt
    if round(hold) < 1 or abs(hold - round(hold)) > 1e-9:
        raise WqmpcError(f"control period not a multiple of the quality step {dt} s")
    return int(round(hold))


class _Segment(NamedTuple):
    """Steps of one system under one held input, with what precedes them."""

    enters: bool    # starts a hydraulic period
    t_s: float      # start time, accumulated by t += dt over the steps before
    n: int          # steps
    control: bool   # starts at a control instant
    fire: range     # the (sorted) events that fire before its first step


def _plan(schedule, holds, event_times) -> tuple[list[_Segment], range]:
    """The run's segments in step order, and the events that never fire.

    ``schedule`` pairs each hydraulic period's system with its step
    count, ``holds`` gives its control period in steps and
    ``event_times`` the sorted event times.  An event fires before the
    first step whose start time t satisfies ``time_s <= t + 1e-9``, t
    accumulated step by step by ``t += dt`` across periods.  A segment
    ends at the next control instant, at the end of its period, or
    before the next step at which an event fires.
    """
    segments, t, e = [], 0.0, 0
    times = [*event_times, np.inf]
    for (sys, n_steps), hold in zip(schedule, holds):
        dt = sys.dt_s
        starts = []  # (step, t, events fired) at each segment's first step
        for k in range(n_steps):
            if k % hold == 0 or times[e] <= t + 1e-9:
                fired = e
                while times[e] <= t + 1e-9:
                    e += 1
                starts.append((k, t, range(fired, e)))
            t += dt
        ends = [k for k, _, _ in starts[1:]] + [n_steps]
        segments += (
            _Segment(k == 0, t0, end - k, k % hold == 0, fire)
            for (k, t0, fire), end in zip(starts, ends)
        )
    return segments, range(e, len(event_times))


class _Run:
    """One controller's run over the plan: its own plant state, what it
    has recorded, and ``control``, called at each control instant.  The
    base injects nothing: it is the 'none' run.
    """

    name = "none"
    law_build_s = 0.0  # wall time of law builds, split out of the updates

    def __init__(self, config: ScenarioConfig, x0: np.ndarray):
        self.config, self.x_plant = config, x0.copy()
        self.outputs, self.inputs, self.masses = [], [], []
        self.deviation = self.smoothness = self.injected_mass = self.wall = 0.0
        self.u = 0.0  # the input before the first control instant: none

    def control(self, sys: StateSpaceSystem, y_meas: np.ndarray) -> np.ndarray:
        return np.zeros(sys.n_u)

    def walk(self, sys: StateSpaceSystem, pid: int, seg: _Segment,
             events: list, sensor_idx: np.ndarray) -> None:
        """Fire, update at a control instant, step the plant and fold."""
        c = self.config
        for i in seg.fire:
            idx, value = events[i]
            self.x_plant[idx] = value
        if seg.control:
            y_meas = self.x_plant[sensor_idx]
            t0 = time.perf_counter()
            u = self.control(sys, y_meas)
            self.wall += time.perf_counter() - t0
            self.outputs.append(y_meas.copy())
            self.inputs.append(u.copy())
            self.masses.append(0.0)
            self.smoothness += 0.5 * c.r * float(np.sum((u - self.u) ** 2))
            self.u = u
            # u, dt and the booster flows are fixed for the whole hold
            self.step_mass = float(np.sum(u * sys.booster_flows * 1000.0 * sys.dt_s))
        self.x_plant, ys = advance(sys, self.x_plant, self.u, seg.n, sensor_idx)
        # fold per step, in step order, as a step-at-a-time loop would
        deviation, mass, injected, step_mass = (
            self.deviation, self.masses[-1], self.injected_mass, self.step_mass)
        for dev in (0.5 * c.q * np.sum((c.y_ref - ys) ** 2, axis=1)).tolist():
            deviation += dev
            mass += step_mass
            injected += step_mass
        self.deviation, self.masses[-1], self.injected_mass = deviation, mass, injected

    def report(self, times: list, booster_nodes: tuple) -> ScenarioReport:
        c, cost = self.config, self.config.price_per_mg * self.injected_mass
        n_controls = max(len(times), 1)
        return ScenarioReport(
            controller=self.name,
            times_s=np.array(times),
            outputs=np.array(self.outputs),
            inputs=np.array(self.inputs),
            injected_mg=np.array(self.masses),
            sensor_labels=tuple(c.sensors),
            booster_nodes=booster_nodes,
            metrics={
                "reference_deviation": self.deviation,
                "smoothness": self.smoothness,
                "chlorine_cost_usd": cost,
                "total": self.deviation + self.smoothness + cost,
                "injected_mass_mg": self.injected_mass,
            },
            timings={
                "wall_ms_per_control_step": 1000.0 * self.wall / n_controls,
                # the per-period law builds, split out of the per-update mean
                "wall_law_build_ms": 1000.0 * self.law_build_s,
                "wall_solve_ms_per_control_step":
                    1000.0 * (self.wall - self.law_build_s) / n_controls,
            },
        )


class _Rules(_Run):
    """The rule baseline on the sensor readings, clipped at ``u_max``."""

    name = "rbc"

    def control(self, sys, y_meas):
        c = self.config
        return np.minimum(
            rbc_control(c.rules, y_meas, sys, c.y_ref, c.control_period_s),
            c.u_max,
        )


class _Mpc(_Run):
    """MPC on its own nominal model: the model schedule and the model
    state, stepped under the applied inputs, which the law forecasts
    from."""

    name = "mpc"

    def __init__(self, config: ScenarioConfig, x0: np.ndarray, schedule: list):
        super().__init__(config, x0)
        self.law = RecedingHorizonController(config)
        self.schedule = schedule
        self.x = x0.copy()

    @property
    def law_build_s(self) -> float:
        return self.law.law_build_s

    def control(self, sys, y_meas):
        return self.law.control(self.sys, self.x, y_meas)

    def walk(self, sys, pid, seg, events, sensor_idx):
        if seg.enters:
            self.sys = self.schedule[pid][0]
            self.schedule[pid] = None  # let the last period's system go
        super().walk(sys, pid, seg, events, sensor_idx)
        self.x, _ = advance(self.sys, self.x, self.u, seg.n)


def run_closed_loop(
    net: WaterNetwork,
    profile: HydraulicProfile,
    config: ScenarioConfig,
    controllers: tuple[str, ...] = ("mpc",),
) -> list[ScenarioReport]:
    """Simulate one plant under each of ``controllers`` ('mpc', 'rbc' or
    'none', zero injection) and return their reports in that order.

    Nothing is drawn unless every one of them can make the run.  MPC and
    the rule baseline read the same sensors and clip their inputs at
    ``config.u_max``.  The plant perturbation is drawn once over the
    whole profile; ``apply_uncertainty`` keeps the booster flows, so the
    plant and model schedules place the same boosters.  The sensors'
    upstream closure over the reached periods is found from the
    scheduled flows (``sensor_closure``) and logged at INFO; only its
    states are assembled, in the reached periods alone: the plant's
    once, the nominal model's (with the MPC law) for 'mpc' alone.  Plant
    and model share the flows, as ``apply_uncertainty`` keeps them; a
    plant's flows that left the closure open would be refused by
    ``assemble_system``.  A kept row reads only kept states, so every
    export is bit for bit that of full stepping.  An event target's
    states outside the closure are dropped with an INFO line; its event
    still fires.  Targets are resolved and the holds checked before the
    first step; an event that never fires is logged as a warning.  Each
    period's systems are let go once that period is stepped.
    """
    for name in controllers:
        config.validate(profile, name)

    plant_profile, plant_k_pipe = apply_uncertainty(
        net, profile, config.uncertainty, PCG64(config.seed)
    )
    n_periods = int(round(config.duration_s / profile.period_s))
    # only the sensors' readings are read or exported: assemble and step
    # only the states they can see, in one layout plant and model share
    whole = StateIndexMap(net, config.segments)
    flows = profile.flows[:n_periods]
    keep = sensor_closure(whole, config.sensors, flows)
    if log.isEnabledFor(logging.INFO):
        sizes = [sensor_closure(whole, config.sensors, [f]).size for f in flows]
        log.info(
            "sensors' upstream closure: %s states in periods 0-%d; %s of %s "
            "states stepped", ", ".join(f"{n:,}" for n in sizes), n_periods - 1,
            f"{keep.size:,}", f"{whole.n_x:,}",
        )
    layout = whole.restrict(keep)

    def schedule(prof: HydraulicProfile, k_pipe: np.ndarray | None = None):
        return build_schedule(prof, layout, k_pipe=k_pipe, periods=range(n_periods))

    plant_schedule = schedule(plant_profile, plant_k_pipe)
    holds = [_hold(config.control_period_s, sys.dt_s) for sys, _ in plant_schedule]
    booster_nodes = plant_schedule[0][0].booster.booster_nodes
    sensor_idx = np.array([layout.sensor_index(s) for s in config.sensors])
    x0 = initial_state(layout)
    runs = [
        _Mpc(config, x0, schedule(profile)) if name == "mpc"
        else _Rules(config, x0) if name == "rbc" else _Run(config, x0)
        for name in controllers
    ]

    # Targets resolve once, so an unknown one is refused before any step.
    ordered = sorted(config.events, key=lambda e: e.time_s)
    events = []
    for ev in ordered:
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
        events.append((np.array(idx, dtype=np.intp), ev.value_mg_l))

    segments, late = _plan(plant_schedule, holds, [ev.time_s for ev in ordered])
    if late:
        log.warning(
            "%d event(s) never fired within the %g s run: %s",
            len(late), config.duration_s,
            "; ".join(_event_name(ordered[i]) for i in late),
        )

    pid = -1
    for seg in segments:
        if seg.enters:
            pid += 1
            sys, _ = plant_schedule[pid]
            # let each period's systems and their buffers go once stepped
            plant_schedule[pid] = None
        for run in runs:
            run.walk(sys, pid, seg, events, sensor_idx)

    times = [seg.t_s for seg in segments if seg.control]
    return [run.report(times, booster_nodes) for run in runs]


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
        for t, y, u, mg in zip(report.times_s, report.outputs, report.inputs,
                               report.injected_mg):
            fh.write(",".join(f"{v:.17g}" for v in (t, *y, *u, mg)) + "\n")
    mx_path = os.path.join(directory, "metrics.json")
    with open(mx_path, "w") as fh:
        json.dump(report.metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [ts_path, mx_path]
