"""The benchmark's workloads: seeded inputs, CLI arguments, output checks.

Every input file is written from the seed before any timing starts.  The
net3 workloads read the bundled ``data/net3.inp`` and
``data/net3_hydraulics.csv`` as they are; the seed sets the plant
perturbation (and, for ``net3_mpc``, the time of its contamination event).
``synth_simulate`` generates its whole network from the seed.

Sensors on net3 sit at the booster junctions J15/J40/J86: the predictor
steps at the water-quality dt, so a sensor farther downstream sees no
injection within the horizon and the controller would do nothing.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

NET3 = ("data/net3.inp", "data/net3_hydraulics.csv")
NET3_SENSORS = ["J15", "J40", "J86"]


@dataclass
class Workload:
    """One generated case: the CLI arguments and what its outputs must be."""

    argv: list[str]            # wqmpc arguments; "{out}" is the output path
    inputs: list[str]          # input files, relative to the checkout root
    kind: str                  # "control" or "simulate"
    updates: int = 0           # expected controller updates per command
    u_max: float = math.inf    # applied inputs must lie in [0, u_max]
    rows: int = 0              # simulate: expected CSV rows (per minute + ends)
    n_x: int = 0               # simulate: expected state columns
    total_s: float = 0.0       # simulate: simulated span, seconds
    mpc: bool = False          # operations are control updates, not commands


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _scenario(path: str, **fields) -> str:
    base = {
        "segments": 100,
        "sensors": NET3_SENSORS,
        "q": 1.0,
        "uncertainty": {"demand_band": 0.1, "reaction_band": 0.1},
    }
    base.update(fields)
    _write(path, json.dumps(base, indent=2, sort_keys=True) + "\n")
    return path


def _control_argv(controller: str, scenario: str, period_s: float) -> list[str]:
    return [
        "control", "--controller", controller,
        "--net", NET3[0], "--hydraulics", NET3[1],
        "--period-s", f"{period_s:g}", "--scenario", scenario, "--out", "{out}",
    ]


def net3_mpc(seed: int, work: str, smoke: bool) -> Workload:
    """Unconstrained MPC, horizon 30 (dense path, 2,910 decision variables),
    60 updates over two 30-minute periods; law builds and solves dominate."""
    period_s, duration_s, horizon = (60.0, 120.0, 5) if smoke else (1800.0, 3600.0, 30)
    rng = np.random.default_rng(seed)
    event_s = float(60 * rng.integers(1, int(duration_s // 60)) + 30)
    scen = _scenario(
        os.path.join(work, "net3_mpc.json"),
        duration_s=duration_s, control_period_s=60.0, horizon=horizon,
        y_ref=1.0, r=1e-3, price_per_mg=1e-6, u_max=4.0, seed=seed,
        events=[{"time_s": event_s, "targets": ["J40"], "value_mg_l": 0.2}],
    )
    return Workload(
        argv=_control_argv("mpc", scen, period_s),
        inputs=[*NET3, scen], kind="control",
        updates=int(duration_s // 60), u_max=4.0, mpc=True,
    )


def net3_constrained(seed: int, work: str, smoke: bool) -> Workload:
    """Bound-constrained MPC, horizon 3: the dual projected-gradient path.

    y_ref (2.0) lies above y_max (1.05), so the output bound is active at
    every update and the dual iteration runs long; the 1.0 mg/L event at
    sensor J15 stays below y_max, so every QP remains feasible.
    """
    period_s, duration_s, control_s = (60.0, 120.0, 60.0) if smoke else (300.0, 600.0, 150.0)
    scen = _scenario(
        os.path.join(work, "net3_constrained.json"),
        duration_s=duration_s, control_period_s=control_s, horizon=3,
        y_ref=2.0, r=1e-3, price_per_mg=1e-6, u_max=3.0, y_max=1.05,
        constrained=True, seed=seed,
        events=[{"time_s": control_s, "targets": ["J15"], "value_mg_l": 1.0}],
    )
    return Workload(
        argv=_control_argv("mpc", scen, period_s),
        inputs=[*NET3, scen], kind="control",
        updates=int(duration_s // control_s), u_max=3.0, mpc=True,
    )


# Doses (mg per 300 s control step, split over the three boosters of
# 0.126 L/s each) that keep applied concentrations below ~3 mg/L.
RBC_RULES = [
    {"low": -1.0, "high": -0.5, "dose_mg": 300.0},
    {"low": -0.5, "high": -0.2, "dose_mg": 200.0},
    {"low": -0.2, "high": -0.05, "dose_mg": 100.0},
    {"low": -0.05, "high": 0.0, "dose_mg": 0.0},
]


def net3_rbc(seed: int, work: str, smoke: bool) -> Workload:
    """Rule-based control over 6 h: 32,400 plant and model steps, no MPC."""
    period_s, duration_s = (300.0, 600.0) if smoke else (10800.0, 21600.0)
    scen = _scenario(
        os.path.join(work, "net3_rbc.json"),
        duration_s=duration_s, control_period_s=300.0,
        horizon=1,  # required by the scenario format, unused by the rules
        y_ref=1.0, u_max=5.0, seed=seed, rules=RBC_RULES,
        events=[{"time_s": 3000.0, "targets": ["J40"], "value_mg_l": 0.2}],
    )
    return Workload(
        argv=_control_argv("rbc", scen, period_s),
        inputs=[*NET3, scen], kind="control",
        updates=int(duration_s // 300), u_max=5.0,
    )


def synth_simulate(seed: int, work: str, smoke: bool) -> Workload:
    """Open-loop simulate of a seeded synthetic network, per-minute CSV."""
    from wqmpc.synth import SynthSpec, synth_case

    if smoke:
        spec = SynthSpec(n_junctions=50, n_tanks=2, n_boosters=2, n_pumps=1,
                         n_extra_pipes=5, n_periods=2, period_s=600.0, seed=seed)
    else:
        spec = SynthSpec(n_junctions=2000, n_tanks=20, n_boosters=20, n_pumps=1,
                         n_extra_pipes=100, n_periods=2, period_s=1800.0, seed=seed)
    segments = 10
    net_text, csv_text = synth_case(spec)
    inp = os.path.join(work, "synth.inp")
    hyd = os.path.join(work, "synth_hydraulics.csv")
    _write(inp, net_text)
    _write(hyd, csv_text)
    n_nodes = spec.n_junctions + spec.n_reservoirs + spec.n_tanks
    n_links = n_nodes - 1 + spec.n_extra_pipes  # a tree plus loop closers
    n_pipes = n_links - spec.n_pumps - spec.n_valves
    total_s = spec.n_periods * spec.period_s
    return Workload(
        argv=["simulate", "--net", inp, "--hydraulics", hyd,
              "--period-s", f"{spec.period_s:g}", "--segments", str(segments),
              "--out", "{out}"],
        inputs=[inp, hyd], kind="simulate",
        rows=int(total_s // 60) + 1,
        n_x=n_nodes + n_pipes * segments + spec.n_pumps + spec.n_valves,
        total_s=total_s,
    )


WORKLOADS = {
    "net3_mpc": net3_mpc,
    "net3_constrained": net3_constrained,
    "net3_rbc": net3_rbc,
    "synth_simulate": synth_simulate,
}


# ---------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [np.array(line.split(","), dtype=float) for line in fh]
    if any(len(r) != len(header) for r in rows):
        raise ValueError(f"{os.path.basename(path)}: ragged rows")
    return header, np.array(rows).reshape(len(rows), len(header))


def check_outputs(w: Workload, out: str) -> list[str]:
    """Problems with one command's exports; an empty list means it passed."""
    problems = []
    try:
        if w.kind == "simulate":
            header, data = _read_csv(out)
            if header[0] != "time_s" or len(header) != 1 + w.n_x:
                problems.append(f"expected time_s + {w.n_x} state columns, got {len(header)}")
            if data.shape[0] != w.rows:
                problems.append(f"expected {w.rows} rows, got {data.shape[0]}")
            elif data.size:
                minutes = np.floor(data[:, 0] / 60.0 + 1e-9)
                if (data[0, 0] != 0.0 or abs(data[-1, 0] - w.total_s) > 1e-6
                        or np.any(np.diff(minutes) != 1.0)):
                    problems.append("time column is not one row per minute")
        else:
            header, data = _read_csv(os.path.join(out, "timeseries.csv"))
            if data.shape[0] != w.updates:
                problems.append(f"expected {w.updates} control rows, got {data.shape[0]}")
            u_cols = [i for i, h in enumerate(header) if h.startswith("u_")]
            u = data[:, u_cols]
            if np.any(u < 0.0) or np.any(u > w.u_max):
                problems.append(f"applied input outside [0, {w.u_max}]")
            with open(os.path.join(out, "metrics.json")) as fh:
                metrics = json.load(fh)
            if not all(math.isfinite(v) for v in metrics.values()):
                problems.append("non-finite value in metrics.json")
        if not np.all(np.isfinite(data)):
            problems.append("non-finite value in exported CSV")
    except (OSError, ValueError, TypeError) as exc:
        problems.append(f"unreadable export: {exc}")
    return problems
