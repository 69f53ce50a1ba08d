"""Probes installed around the public functions of each wqmpc layer.

The probes replace module attributes and class methods of an imported
``wqmpc`` from the outside; nothing under ``src/`` knows about them.  They
are installed before ``wqmpc.cli.main`` runs:

- ``LightProbe``, in every process, records only when the last
  ``build_schedule`` call returned, how long each controller update took
  and the controllers' infeasible-QP fallbacks: a few hundred calls.
- ``SpanProbe`` records a span (name, start, end, parent) at every layer
  boundary, keeps them in memory and reduces them to per-layer metrics
  once the command has finished.
- ``MemoryProbe`` measures peak Python/NumPy allocation with
  ``tracemalloc`` inside the assembly, simulation and law-build calls.
  It runs in a process of its own because tracemalloc slows the code it
  watches.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter

import numpy as np

clock = time.perf_counter


def _modules():
    import wqmpc.cli as cli
    import wqmpc.dynamics as dynamics
    import wqmpc.mpc as mpc
    import wqmpc.scenario as scenario

    return cli, dynamics, mpc, scenario


def _patch(owner, attr: str, make):
    setattr(owner, attr, make(getattr(owner, attr)))


class LightProbe:
    """Set-up end time, controller update durations and controllers."""

    def __init__(self):
        self.setup_end = None
        self.control_s: list[float] = []
        self.controllers: list = []

    def install(self) -> None:
        cli, _, mpc, scenario = _modules()

        def schedule(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.setup_end = clock()
                return result
            return wrapper

        def control(fn):
            def wrapper(ctrl, *args, **kwargs):
                t0 = clock()
                result = fn(ctrl, *args, **kwargs)
                self.control_s.append(clock() - t0)
                if not any(c is ctrl for c in self.controllers):
                    self.controllers.append(ctrl)
                return result
            return wrapper

        _patch(cli, "build_schedule", schedule)
        _patch(scenario, "build_schedule", schedule)
        _patch(mpc.RecedingHorizonController, "control", control)

    def fallbacks(self) -> int:
        return sum(c.infeasible_fallbacks for c in self.controllers)


# Span names, grouped into the per-layer self-time metrics they feed.
SELF_TIME_METRICS = {
    "network.parse": "network.parse_s",
    "hydraulics.load": "hydraulics.load_s",
    "dynamics.build_schedule": "dynamics.build_schedule_s",
    "dynamics.step": "dynamics.step_s",
    "dynamics.simulate": "dynamics.simulate_s",
    "scenario.uncertainty": "scenario.uncertainty_s",
    "scenario.rbc": "scenario.rbc_s",
    "scenario.loop": "scenario.loop_self_s",
    "mpc.law_build": "mpc.law_build_s",
    "mpc.control": "mpc.control_self_s",
    "mpc.solve": "mpc.solve_s",
    "mpc.constrained": "mpc.constrained_s",
    "export": "export.s",
}


class SpanProbe:
    """In-memory span recorder plus the counts taken at the same calls."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.gauges: dict[str, float] = {}

    def _span(self, name: str, after=None):
        spans, open_ = self.spans, self._open

        def make(fn):
            def wrapper(*args, **kwargs):
                span = [name, clock(), 0.0, open_[-1] if open_ else -1]
                open_.append(len(spans))
                spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    open_.pop()
                if after is not None:
                    after(result, args)
                return result
            return wrapper
        return make

    def _gauge_max(self, key: str, value: float) -> None:
        self.gauges[key] = max(self.gauges.get(key, 0.0), float(value))

    def install(self) -> None:
        cli, dynamics, mpc, scenario = _modules()
        counts = self.counts

        def on_schedule(schedule, _args):
            self._gauge_max("dynamics.n_x", schedule[0][0].n_x)
            for sys_, _ in schedule:
                self._gauge_max("dynamics.a_nnz", sys_.a.nnz)

        def on_simulate(traj, _args):
            self._gauge_max("dynamics.trajectory_mb", traj.states.nbytes / 1e6)

        def on_law(_none, args):
            law = args[0]
            counts["mpc.law_builds"] += 1
            self._gauge_max(
                "mpc.decision_vars", law.pred.n_steps * law.pred.n_u
            )
            self.gauges["mpc.dense_path"] = float(law.dense)

        def solve_h(fn):
            def wrapper(*args, **kwargs):
                counts["mpc.h_inv_applications"] += 1
                return fn(*args, **kwargs)
            return wrapper

        def inequalities(fn):
            def wrapper(*args, **kwargs):
                g, h = fn(*args, **kwargs)
                self._gauge_max("mpc.ineq_rows", g.shape[0])
                return g, h
            return wrapper

        span = self._span
        _patch(cli, "parse_network", span("network.parse"))
        _patch(cli, "load_hydraulics", span("hydraulics.load"))
        for owner in (cli, scenario):
            _patch(owner, "build_schedule",
                   span("dynamics.build_schedule", on_schedule))
        _patch(cli, "simulate", span("dynamics.simulate", on_simulate))
        for owner in (dynamics, scenario):
            _patch(owner, "step", span("dynamics.step"))
        _patch(cli, "run_closed_loop", span("scenario.loop"))
        _patch(scenario, "apply_uncertainty", span("scenario.uncertainty"))
        _patch(scenario, "rbc_control", span("scenario.rbc"))
        _patch(cli, "export_report", span("export"))
        # the simulate command's own body is its CSV writer
        _patch(cli, "cmd_simulate", span("export"))
        _patch(mpc, "build_augmented", span("mpc.law_build"))
        _patch(mpc.PredictionOperator, "__init__", span("mpc.law_build"))
        _patch(mpc.AnalyticalLaw, "__init__", span("mpc.law_build", on_law))
        _patch(mpc.AnalyticalLaw, "solve", span("mpc.solve"))
        _patch(mpc.AnalyticalLaw, "solve_h", solve_h)
        _patch(mpc, "build_inequalities", inequalities)
        _patch(mpc, "solve_constrained", span("mpc.constrained"))
        _patch(mpc.RecedingHorizonController, "control", span("mpc.control"))

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Reduce the spans to per-layer metrics of one command.

        Self time of a span is its duration minus its children's; the
        self times of every span plus ``trace.untimed_s`` (time outside
        all spans) add up to ``trace.wall_s``.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {m: 0.0 for m in SELF_TIME_METRICS.values()}
        durations: dict[str, list[float]] = {}
        covered = 0.0
        for (name, start, end, parent), inner in zip(spans, child_s):
            out[SELF_TIME_METRICS[name]] += (end - start) - inner
            durations.setdefault(name, []).append(end - start)
            if parent < 0:
                covered += end - start
        steps = durations.get("dynamics.step", [])
        out["dynamics.step_calls"] = len(steps)
        out["dynamics.step_us_mean"] = (
            1e6 * float(np.mean(steps)) if steps else 0.0
        )
        out["dynamics.build_schedule_calls"] = len(
            durations.get("dynamics.build_schedule", [])
        )
        out["scenario.rbc_calls"] = len(durations.get("scenario.rbc", []))
        for name in ("mpc.solve", "mpc.constrained"):
            d = durations.get(name, [])
            out[f"{name}_calls"] = len(d)
            out[f"{name}_ms_p50"] = 1e3 * float(np.median(d)) if d else 0.0
        for key in ("mpc.law_builds", "mpc.h_inv_applications"):
            out[key] = self.counts[key]
        for key in ("dynamics.n_x", "dynamics.a_nnz", "dynamics.trajectory_mb",
                    "mpc.decision_vars", "mpc.dense_path", "mpc.ineq_rows"):
            out[key] = self.gauges.get(key, 0.0)
        out["trace.wall_s"] = wall_s
        out["trace.untimed_s"] = wall_s - covered
        out["trace.spans"] = len(spans)
        return out


PEAK_METRICS = (
    "dynamics.build_schedule.peak_alloc_mb",
    "dynamics.simulate.peak_alloc_mb",
    "mpc.law.peak_alloc_mb",
)


class MemoryProbe:
    """Peak traced allocation (MB) inside assembly, simulate and law build.

    A law build spans ``build_augmented`` through ``AnalyticalLaw()``, so
    the window opens at the first and closes when the second returns.
    """

    def __init__(self):
        self.peaks = dict.fromkeys(PEAK_METRICS, 0.0)

    def _close(self, key: str) -> None:
        peak = tracemalloc.get_traced_memory()[1] / 1e6
        self.peaks[key] = max(self.peaks[key], peak)
        tracemalloc.stop()

    def _window(self, key: str, opens: bool, closes: bool):
        def make(fn):
            def wrapper(*args, **kwargs):
                if opens or not tracemalloc.is_tracing():
                    tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    if closes:
                        self._close(key)
            return wrapper
        return make

    def install(self) -> None:
        cli, _, mpc, scenario = _modules()
        schedule, simulate, law = PEAK_METRICS
        for owner in (cli, scenario):
            _patch(owner, "build_schedule", self._window(schedule, True, True))
        _patch(cli, "simulate", self._window(simulate, True, True))
        _patch(mpc, "build_augmented", self._window(law, True, False))
        _patch(mpc.AnalyticalLaw, "__init__", self._window(law, False, True))
