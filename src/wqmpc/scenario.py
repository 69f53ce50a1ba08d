"""Closed-loop scenarios: plant/model mismatch, disturbances, baselines.

A scenario holds up to two copies of the network dynamics.  The *model*
is the nominal system the controller was built from; the *plant* is the
same network with perturbed demands and pipe reaction rates plus
optional contamination events that overwrite state entries.  The
controller only ever sees plant sensor readings and its own model
state, so the model copy is assembled and advanced only when the
controller reads it (MPC, which takes the model's last one-step change
as its Δx); the rule-based baseline and zero injection build and step
the plant alone.  Either copy is assembled only for the hydraulic
periods the run reaches.  Under MPC and zero injection every export
comes from the sensor rows, so both copies are assembled on the
sensors' upstream closure alone (``sensor_closure``), found from the
flows of every reached period before anything is assembled: a kept row
reads only kept states, in the same order, so each reading is bit for
bit that of full stepping.  The rule-based baseline reads the whole
plant, so it steps every state.  Each period's systems are let go once
that period is stepped.  A
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
depend on how it was segmented.  Every period's hold, its control period
in quality steps, is checked before the first step.  A report keeps its
results (``metrics``, exported) apart from its wall-clock timings
(``timings``, never exported), so equal seeds export identical bytes.

The rule-based baseline maps a scalar network-wide deviation to a fixed
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
    x_plant: np.ndarray,
    sys: StateSpaceSystem,
    y_ref: float,
    control_period_s: float,
) -> np.ndarray:
    """Dose per the rule table, spread over the control period.

    The deviation is the average of the mean pipe-segment error and the
    mean junction error (concentration minus setpoint), clamped to the
    table's domain; the dose (mg per control step) is split evenly over
    the boosters with flow this period and converts to an injection
    concentration through each one's flow.
    """
    im = sys.index_map
    net = im.net
    seg = x_plant[net.n_n:net.n_n + im.n_s]
    junc = x_plant[: net.n_j]
    dev = 0.5 * ((seg.mean() - y_ref) + (junc.mean() - y_ref))
    dose = table.dose(dev)
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


def _log_closure(
    im: StateIndexMap,
    sensors: tuple[str, ...],
    profiles: list[HydraulicProfile],
    n_periods: int,
    keep: np.ndarray,
) -> None:
    """Log the sensors' upstream closure: its size in each period alone,
    and the size of ``keep``, the union a run steps, against n_x."""
    if not log.isEnabledFor(logging.INFO):
        return
    sizes = [
        sensor_closure(im, sensors, [prof.periods[pid] for prof in profiles]).size
        for pid in range(n_periods)
    ]
    log.info(
        "sensors' upstream closure: %s states in periods 0-%d; %s of %s "
        "states stepped", ", ".join(f"{n:,}" for n in sizes), n_periods - 1,
        f"{keep.size:,}", f"{im.n_x:,}",
    )


def run_closed_loop(
    net: WaterNetwork,
    profile: HydraulicProfile,
    config: ScenarioConfig,
    controller: str = "mpc",
) -> ScenarioReport:
    """Simulate the plant under one controller.

    ``controller`` is 'mpc', 'rbc', or 'none' (zero injection).  Only the
    hydraulic periods the run reaches are assembled: the plant's always,
    the model's only under 'mpc', the one controller that reads it
    ('rbc' reads the plant state and 'none' reads nothing); both share
    one state layout, built once.  The MPC controller, too, is built
    only under 'mpc'; otherwise its law build reads 0 ms in ``timings``.
    The plant perturbation is drawn, and the booster layout placed, over
    the whole profile, so neither depends on the run's length.  Both
    controllers' inputs are clipped at ``config.u_max``.

    Under 'mpc' and 'none', the sensors' upstream closure over every
    reached period of the plant and, under 'mpc', the model is found
    first (``sensor_closure``), logged at INFO with its size in each
    period and against n_x, and both schedules are built on it alone:
    every export is read from the sensor rows, and a kept row reads only
    kept states in the same order as on the whole layout, so the run
    exports the same bytes.  The initial state, the sensor positions and
    the event targets are taken within the closure; a target's states
    outside it are dropped, with an INFO line naming the target, and its
    event still fires.  'rbc' reads the whole plant state, so its plant
    steps every state.  Each period's systems are let go once that
    period is stepped.

    Event targets are resolved, and every assembled period's hold (its
    control period in quality steps) is checked, before the first step,
    so an unknown target or a control period that is not a whole number
    of some period's steps is refused before any stepping; an event that
    never fires within the run is logged as a warning.
    """
    config.validate(profile, controller)

    rng = np.random.default_rng(config.seed)
    plant_profile, plant_k_pipe = apply_uncertainty(
        net, profile, config.uncertainty, rng
    )
    n_periods = int(round(config.duration_s / profile.periods[0].duration_s))
    booster = booster_layout(net, profile)
    layout = StateIndexMap(net, config.seg_counts)  # plant and model share it
    if controller != "rbc":
        # only the sensors' readings are exported: assemble and step only
        # the states they can see
        profiles = [plant_profile] + ([profile] if controller == "mpc" else [])
        keep = sensor_closure(layout, config.sensors, [
            prof.periods[pid] for prof in profiles for pid in range(n_periods)
        ])
        _log_closure(layout, config.sensors, profiles, n_periods, keep)
        layout = layout.restrict(keep)

    def schedule(prof: HydraulicProfile, k_pipe: np.ndarray | None = None):
        return build_schedule(
            net, prof, layout, booster=booster, k_pipe=k_pipe,
            periods=range(n_periods),
        )

    plant_schedule = schedule(plant_profile, plant_k_pipe)
    model_schedule = schedule(profile) if controller == "mpc" else []
    holds = [_hold(config.control_period_s, sys.dt_s) for sys, _ in plant_schedule]

    sensor_idx = np.array([layout.sensor_index(s) for s in config.sensors])
    x_plant = initial_state(layout)
    # the model state and the one a step before it: Δx is zero at first
    x_model = x_back = x_plant.copy()
    mpc = RecedingHorizonController(config) if controller == "mpc" else None

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
    deviation = 0.0
    smoothness = 0.0
    injected_mass = 0.0
    u = np.zeros(booster.n_b)
    u_prev_applied = u
    t = 0.0
    wall = 0.0
    n_controls = 0

    for pid, hold in enumerate(holds):
        plant_sys, n_steps = plant_schedule[pid]
        model_sys = model_schedule[pid][0] if model_schedule else None
        # let each period's systems, and the state-sized buffers their
        # plans own, go once the period is stepped
        plant_schedule[pid] = None
        if model_schedule:
            model_schedule[pid] = None
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
                if controller == "mpc":
                    u = mpc.control(model_sys, x_model - x_back, y_meas)
                elif controller == "rbc":
                    u = np.minimum(rbc_control(
                        config.rules, x_plant, plant_sys, config.y_ref,
                        config.control_period_s,
                    ), config.u_max)
                wall += time.perf_counter() - t0
                n_controls += 1
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
            if model_sys is not None:
                # the last step is taken apart, so the next Δx is that
                # step's change, across a period change too
                x_back, _ = advance(model_sys, x_model, u, n - 1)
                x_model, _ = advance(model_sys, x_back, u, 1)
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
    law_build_s = mpc.law_build_s if mpc is not None else 0.0
    timings = {
        "wall_ms_per_control_step": 1000.0 * wall / max(n_controls, 1),
        # the per-period law builds, split out of the per-update mean
        "wall_law_build_ms": 1000.0 * law_build_s,
        "wall_solve_ms_per_control_step": (
            1000.0 * (wall - law_build_s) / max(n_controls, 1)
        ),
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
