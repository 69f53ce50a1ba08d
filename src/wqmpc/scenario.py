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
periods the run reaches.  A
``ScenarioConfig`` is itself the controller's ``ControlConfig``,
extended by the run's own fields.  ``load_scenario`` refuses an unknown
key at every level: the top level, the uncertainty bands, each event
and each rule; and it refuses, by key, sensors or event targets that
are not a non-empty list of entity specs, events or rules that are not a
list, and a ``constrained`` that is not a JSON boolean.

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
    pipe_reaction_constant,
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
        if not 0 <= self.demand_band < 1 or not 0 <= self.reaction_band < 1:
            raise WqmpcError("perturbation bands must lie in [0, 1)")


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
        for r in rules:
            if r.dose_mg < 0:
                raise WqmpcError("doses must be nonnegative")
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
        cannot go through, before anything is assembled or stepped."""
        if controller not in ("mpc", "rbc", "none"):
            raise WqmpcError(f"unknown controller {controller!r}")
        # JSON and the CLI's float flags both accept Infinity and NaN
        for key in ("q", "r", "price_per_mg", "y_ref"):
            if not np.isfinite(getattr(self, key)).all():
                raise WqmpcError(f"{key} must be finite, got {getattr(self, key)}")
        for key in ("y_min", "y_max"):
            if np.isfinite(getattr(self, key)) and not self.constrained:
                raise WqmpcError(
                    f"{key} is set to {getattr(self, key)}, but output bounds "
                    "are enforced only with constrained: true"
                )
        # inputs are clipped to [0, u_max] under every controller
        if not self.u_max >= 0:
            raise WqmpcError(f"u_max must be nonnegative, got {self.u_max}")
        self.uncertainty.validate()
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
        for ev in self.events:
            if not (np.isfinite(ev.time_s) and ev.time_s >= 0):
                raise WqmpcError(
                    f"event {_event_name(ev)} has time_s {ev.time_s}; it "
                    "must be finite and nonnegative"
                )
            if not (np.isfinite(ev.value_mg_l) and ev.value_mg_l >= 0):
                raise WqmpcError(
                    f"event {_event_name(ev)} has value_mg_l {ev.value_mg_l}; "
                    "it must be finite and nonnegative"
                )
        if controller == "rbc":
            if self.rules is None:
                raise WqmpcError("rule-based control requires a rule table")
            low = self.rules.rules[0].low
            if abs(low - (-self.y_ref)) > 1e-12:
                raise WqmpcError(
                    f"rule table must start at -y_ref = {-self.y_ref}, got {low}"
                )


_SCENARIO_KEYS = frozenset({
    "duration_s", "control_period_s", "segments", "sensors", "y_ref",
    "horizon", "q", "r", "price_per_mg", "u_max", "y_min", "y_max",
    "constrained", "seed", "uncertainty", "events", "rules",
})
_UNCERTAINTY_KEYS = frozenset({"demand_band", "reaction_band"})
_EVENT_KEYS = frozenset({"time_s", "targets", "value_mg_l"})
_RULE_KEYS = frozenset({"low", "high", "dose_mg"})


def _check_keys(raw, allowed: frozenset, where: str) -> None:
    if not isinstance(raw, dict):
        raise WqmpcError(f"{where} must be a JSON object")
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise WqmpcError(f"unknown {where} keys: {', '.join(unknown)}")


def _specs(raw, where: str) -> tuple[str, ...]:
    """A non-empty JSON list of entity specs, as a tuple."""
    if not (isinstance(raw, list) and all(isinstance(t, str) for t in raw)):
        raise WqmpcError(f"{where} must be a list of entity specs, got {raw!r}")
    if not raw:
        raise WqmpcError(f"{where} must name at least one entity")
    return tuple(raw)


def _list(raw, where: str) -> list:
    if not isinstance(raw, list):
        raise WqmpcError(f"{where} must be a JSON list, got {raw!r}")
    return raw


def _event(raw) -> DisturbanceEvent:
    _check_keys(raw, _EVENT_KEYS, "event")
    return DisturbanceEvent(
        time_s=float(raw["time_s"]),
        targets=_specs(raw["targets"], "event targets"),
        value_mg_l=float(raw["value_mg_l"]),
    )


def _rule(raw) -> Rule:
    _check_keys(raw, _RULE_KEYS, "rule")
    return Rule(float(raw["low"]), float(raw["high"]), float(raw["dose_mg"]))


def load_scenario(text: str) -> ScenarioConfig:
    """Parse the JSON scenario description; unknown keys are refused, at
    the top level and in the uncertainty bands, each event and each rule."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WqmpcError(f"bad scenario JSON: {exc}") from None
    _check_keys(raw, _SCENARIO_KEYS, "scenario")
    unc = raw.get("uncertainty", {})
    _check_keys(unc, _UNCERTAINTY_KEYS, "uncertainty")
    constrained = raw.get("constrained", False)
    if not isinstance(constrained, bool):
        raise WqmpcError(f"constrained must be true or false, got {constrained!r}")
    try:
        events = tuple(_event(e) for e in _list(raw.get("events", []), "events"))
        rules = None
        if raw.get("rules") is not None:
            rules = RuleTable(rules=tuple(_rule(r) for r in _list(raw["rules"], "rules")))
        return ScenarioConfig(
            duration_s=float(raw["duration_s"]),
            control_period_s=float(raw["control_period_s"]),
            seg_counts=int(raw.get("segments", 100)),
            sensors=_specs(raw["sensors"], "sensors"),
            y_ref=float(raw["y_ref"]),
            horizon=int(raw["horizon"]),
            q=float(raw.get("q", 1.0)),
            r=float(raw.get("r", 1.0)),
            price_per_mg=float(raw.get("price_per_mg", 0.0)),
            u_max=float(raw.get("u_max", np.inf)),
            y_min=float(raw.get("y_min", -np.inf)),
            y_max=float(raw.get("y_max", np.inf)),
            constrained=constrained,
            seed=int(raw.get("seed", 0)),
            uncertainty=UncertaintySpec(
                demand_band=float(unc.get("demand_band", 0.10)),
                reaction_band=float(unc.get("reaction_band", 0.10)),
            ),
            events=events,
            rules=rules,
        )
    except KeyError as exc:
        raise WqmpcError(f"scenario missing required field {exc}") from None


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
    k_pipe = np.array([
        pipe_reaction_constant(
            pipe.kb * kb_f[i], pipe.kw * kw_f[i], pipe.kf, pipe.diameter_m
        )
        for i, pipe in enumerate(net.pipes)
    ])
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
    if abs(hold - round(hold)) > 1e-9:
        raise WqmpcError(
            f"control period not a multiple of the quality step {dt} s"
        )
    return int(round(hold))


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
    one state layout, built once.  The plant perturbation is drawn, and
    the booster layout placed, over the whole profile, so neither depends
    on the run's length.  Both controllers'
    inputs are clipped at ``config.u_max``.

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
    im = StateIndexMap(net, config.seg_counts)  # plant and model share it

    def schedule(prof: HydraulicProfile, k_pipe: np.ndarray | None = None):
        return build_schedule(
            net, prof, im, booster=booster, k_pipe=k_pipe,
            periods=range(n_periods),
        )

    plant_schedule = schedule(plant_profile, plant_k_pipe)
    model_schedule = schedule(profile) if controller == "mpc" else None
    holds = [_hold(config.control_period_s, sys.dt_s) for sys, _ in plant_schedule]

    sensor_idx = np.array([im.sensor_index(s) for s in config.sensors])
    x_plant = initial_state(im)
    # the model state and the one a step before it: Δx is zero at first
    x_model = x_back = x_plant.copy()
    mpc = RecedingHorizonController(config)

    # Targets resolve once, so an unknown one is refused before any step.
    events = [
        (ev, np.array(
            [i for spec in ev.targets for i in im.resolve(spec)], dtype=np.intp
        ))
        for ev in sorted(config.events, key=lambda e: e.time_s)
    ]
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

    for pid, (plant_sys, n_steps) in enumerate(plant_schedule):
        model_sys = model_schedule[pid][0] if model_schedule else None
        dt = plant_sys.dt_s
        hold = holds[pid]
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
    timings = {
        "wall_ms_per_control_step": 1000.0 * wall / max(n_controls, 1),
        # the per-period law builds, split out of the per-update mean
        "wall_law_build_ms": 1000.0 * mpc.law_build_s,
        "wall_solve_ms_per_control_step": (
            1000.0 * (wall - mpc.law_build_s) / max(n_controls, 1)
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
