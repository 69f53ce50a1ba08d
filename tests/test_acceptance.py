"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the suite output doubles as an
acceptance report.
"""

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import from_dense, pipe_slice, read_data
from wqmpc.dynamics import (
    StateIndexMap,
    build_schedule,
    compute_time_step,
    initial_state,
    simulate,
    step,
)
from wqmpc.hydraulics import BALANCE_RTOL, balance_residuals
from wqmpc.mpc import (
    AnalyticalLaw,
    AugmentedSystem,
    BoundRows,
    ControlConfig,
    PredictionOperator,
    build_law,
    count_variables,
    solve_constrained,
)
from wqmpc.network import parse_network
from wqmpc.scenario import export_report, load_scenario, run_closed_loop
from wqmpc.synth import SynthSpec, synth_network


@contextmanager
def verdict(number, title):
    # bypass pytest's capture so one verdict line per criterion always shows
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number:2d}] FAIL: {title}", file=sys.__stdout__)
        raise
    print(f"\n[criterion {number:2d}] PASS: {title}", file=sys.__stdout__)


# ---------------------------------------------------------------------


def test_criterion_1_problem_size_table(three_node, net1, net3):
    with verdict(1, "decision-variable counts for the three networks"):
        t0 = time.perf_counter()
        cases = [
            (three_node[0], 32_100, 900, 0.97),
            (net1, 366_900, 3_300, 0.99),
            (net3[0], 3_568_800, 29_100, 0.99),
        ]
        for net, lp, qp, red in cases:
            out = count_variables(StateIndexMap(net, 100), horizon=300)
            assert out["lp_variables"] == lp
            assert out["qp_variables"] == qp
            assert round(out["reduction"], 2) == red
        assert time.perf_counter() - t0 < 1.0


def _unit_velocity_pipe(kb=0.0, length=1000.0):
    net = parse_network(f"""\
[JUNCTIONS]
J1
[RESERVOIRS]
R1 1.0
[PIPES]
P1 R1 J1 {length} 0.3 {kb} 0 0
""")
    q = StateIndexMap(net, 1).area[0]  # exactly 1 m/s
    from test_dynamics import assemble

    return net, assemble(net, [q], demands=[q], volumes=[], seg=100)


def test_criterion_2_pure_advection_at_unit_courant():
    with verdict(2, "unit pulse traverses the pipe in exactly s_L steps"):
        net, sys = _unit_velocity_pipe()
        assert sys.dt_s == 10.0  # dx = 10 m at 1 m/s
        im = sys.index_map
        x = np.zeros(sys.n_x)
        x[im.index("R1")] = 1.0  # one-step pulse at the pipe inlet
        u = np.zeros(sys.n_u)
        x = step(sys, x, u)
        x[im.index("R1")] = 0.0  # end of pulse
        assert abs(x[im.index("P1", 0)] - 1.0) < 1e-12
        for k in range(1, 100):
            x = step(sys, x, u)
            assert abs(x[im.index("P1", k)] - 1.0) < 1e-12
        # after s_L steps the pulse sits at the outlet, undistorted
        seg = x[pipe_slice(im, 0)]
        assert abs(seg[99] - 1.0) < 1e-12
        assert np.abs(seg[:99]).max() < 1e-12
        x = step(sys, x, u)
        assert np.abs(x[pipe_slice(im, 0)]).max() < 1e-12  # fully flushed


def test_criterion_3_advection_reaction_oracle():
    with verdict(3, "steady outlet matches inlet*exp(k L/v) within 2%"):
        net, sys = _unit_velocity_pipe(kb=-1.0)
        x = initial_state(sys.index_map)
        u = np.zeros(sys.n_u)
        for _ in range(400):  # several pipe turnovers
            x = step(sys, x, u)
        outlet = x[sys.index_map.index("P1", 99)]
        travel_h = 1000.0 / 1.0 / 3600.0
        oracle = 1.0 * np.exp(-1.0 * travel_h)
        assert abs(outlet - oracle) / oracle < 0.02


def test_criterion_4_uniform_fixed_point():
    with verdict(4, "x = u = c*1 invariant on 50 random consistent networks"):
        rng = np.random.default_rng(2024)
        for case in range(50):
            spec = SynthSpec(
                n_junctions=int(rng.integers(2, 15)),
                n_reservoirs=int(rng.integers(1, 3)),
                n_tanks=int(rng.integers(0, 3)),
                n_extra_pipes=int(rng.integers(0, 4)),
                n_pumps=int(rng.integers(0, 2)),
                n_boosters=int(rng.integers(0, 3)),
                n_periods=2,
                seed=1000 + case,
                kb_range=(0.0, 0.0),
            )
            net, profile = synth_network(spec)
            assert net.n_n <= 20
            assert np.all(np.abs(balance_residuals(net, profile)) <= BALANCE_RTOL)
            c = 1.7
            for sys, _ in build_schedule(profile, StateIndexMap(net, 3)):
                out = sys.a @ np.full(sys.n_x, c) + sys.b @ np.full(sys.n_u, c)
                assert np.abs(out - c).max() / c < 1e-12, f"case {case}"


def _random_instance(rng, n_x, n_y, n_u):
    """A random stable model (A, B) whose n_y sensors read distinct states."""
    a = rng.uniform(-1.0, 1.0, (n_x, n_x))
    a *= 0.9 / max(np.abs(np.linalg.eigvals(a)).max(), 1e-6)
    b = rng.uniform(-1.0, 1.0, (n_x, n_u))
    cols = rng.choice(n_x, n_y, replace=False)
    return AugmentedSystem(a=from_dense(a), b=from_dense(b), cols=cols)


def test_criterion_5_prediction_equals_rollout():
    with verdict(5, "stacked predictor matches step-by-step rollout (100 cases)"):
        rng = np.random.default_rng(55)
        for _ in range(100):
            n_x = int(rng.integers(2, 11))
            n_y = int(rng.integers(1, min(n_x, 4) + 1))
            n_u = int(rng.integers(1, 4))
            horizon = int(rng.integers(1, 21))
            aug = _random_instance(rng, n_x, n_y, n_u)
            pred = PredictionOperator(aug, horizon)
            x0 = rng.normal(size=n_x)
            u_prev, y_meas = rng.normal(size=n_u), rng.normal(size=n_y)
            d = rng.normal(size=(horizon, n_u))
            predicted = (pred.free_response(x0, u_prev, y_meas)
                         + pred.z @ d.ravel())
            # the model stepped under the accumulated increments, each
            # output plus the disturbance the measurement shows at t = 0
            x = x0.copy()
            a, b = aug.a.toarray(), aug.b.toarray()
            dist = y_meas - x0[aug.cols]
            ys = []
            for u in u_prev + np.cumsum(d, axis=0):
                x = a @ x + b @ u
                ys.append(x[aug.cols] + dist)
            truth = np.concatenate(ys)
            scale = max(np.abs(truth).max(), 1.0)
            assert np.abs(predicted - truth).max() / scale < 1e-10


def test_criterion_6_analytical_law_optimality():
    with verdict(6, "closed form solves the normal equations; QP agrees when slack"):
        rng = np.random.default_rng(66)
        for _ in range(20):
            aug = _random_instance(rng, 6, 2, 3)
            horizon = int(rng.integers(3, 12))
            pred = PredictionOperator(aug, horizon)
            q, r = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.1, 1.0))
            y_ref = rng.uniform(0.5, 1.5, 2)
            b = 0.01 * rng.uniform(0.0, 1.0, 3)
            law = AnalyticalLaw(pred, q, r, y_ref, b)
            x = rng.normal(size=aug.n_x)
            u_prev, y_meas = rng.normal(size=3), rng.normal(size=aug.n_y)
            free = pred.free_response(x, u_prev, y_meas)
            d = law.solve(free).reshape(-1)
            # dense normal-equations oracle, on the whole of W: w holds
            # only its columns pred.support, and W is zero elsewhere
            z = pred.z
            w = np.zeros((z.shape[0], aug.n_x))
            w[:, pred.support] = pred.w
            h = q * z.T @ z + r * np.eye(z.shape[1])
            ref = np.tile(y_ref, horizon)
            f_y = w @ x + z[:, :3] @ u_prev + np.tile(y_meas - x[aug.cols], horizon)
            f = -q * z.T @ (ref - f_y) + np.tile(b, horizon)
            oracle = np.linalg.solve(h, -f)
            scale = max(np.abs(oracle).max(), 1.0)
            assert np.abs(d - oracle).max() / scale < 1e-8
            assert np.abs(h @ d + f).max() < 1e-8
            # wide-open constraints reproduce the analytical law
            rows = BoundRows(pred, -1e9, 1e9, -1e9, 1e9)
            dc, _ = solve_constrained(law, rows, free, u_prev)
            assert np.abs(dc.reshape(-1) - d).max() < 1e-6


def test_criterion_7_closed_loop_tracking(three_node):
    with verdict(7, "24 h closed loop: tracking, ceiling, disturbance recovery"):
        net, profile = three_node
        cfg = load_scenario(read_data("three_node_scenario.json"))
        t0 = time.perf_counter()
        [report] = run_closed_loop(net, profile, cfg, ("mpc",))
        elapsed = time.perf_counter() - t0
        y = report.outputs[:, 0]
        t = report.times_s
        y_ref = cfg.y_ref
        event_t = cfg.events[0].time_s
        # never above the 4 mg/L ceiling once the first horizon has passed
        first_horizon = cfg.horizon * 12.0  # widest quality step in the data
        assert y[t >= first_horizon].max() <= 4.0
        # within +-5% at steady state (settled, away from the disturbance)
        settled = (t >= 3600.0) & ((t < event_t) | (t >= event_t + 3600.0))
        assert np.abs(y[settled] - y_ref).max() <= 0.05 * y_ref
        # bounded recovery after the 1 mg/L disturbance event
        after = np.nonzero((t > event_t) & (np.abs(y - y_ref) <= 0.05 * y_ref))[0]
        assert after.size > 0
        recovery_min = (t[after[0]] - event_t) / 60.0
        assert recovery_min <= 60.0
        print(f"\n[criterion  7] recovery after disturbance: {recovery_min:.0f} min")
        assert elapsed < 60.0


def test_criterion_8_mpc_beats_rule_baseline(three_node):
    with verdict(8, "MPC total objective below the rule-based baseline"):
        net, profile = three_node
        cfg = load_scenario(read_data("three_node_scenario.json"))
        t0 = time.perf_counter()
        mpc, rbc = run_closed_loop(net, profile, cfg, ("mpc", "rbc"))
        assert mpc.metrics["total"] < rbc.metrics["total"]
        print(
            f"\n[criterion  8] totals: mpc {mpc.metrics['total']:.3g}"
            f" vs rbc {rbc.metrics['total']:.3g}"
        )
        assert time.perf_counter() - t0 < 120.0


def test_criterion_9_large_network_control_step(net3):
    with verdict(9, "one analytical control step under 1 s at 11,700 segments"):
        net, profile = net3
        schedule = build_schedule(profile, StateIndexMap(net, 100))
        sys, _ = schedule[0]
        assert sys.index_map.n_s == 11_700
        sensors = list(net.node_ids[:3])
        config = ControlConfig(sensors=tuple(sensors), horizon=300, y_ref=1.0,
                               r=1e-4)
        law, _ = build_law(sys, config)  # factorization cached here
        # W is kept on the states that reach a sensor within the horizon,
        # not on all 11,802 columns (85 MB dense)
        assert law.pred.w.nbytes < 4e6
        # one update: the free response from a model state, then the solve
        pred, y_meas = law.pred, np.full(len(sensors), 0.5)
        x, u_prev = np.zeros(sys.n_x), np.zeros(sys.n_u)
        law.solve(pred.free_response(x, u_prev, y_meas))  # warm-up
        t0 = time.perf_counter()
        law.solve(pred.free_response(x, u_prev, y_meas))
        elapsed = time.perf_counter() - t0
        print(f"\n[criterion  9] analytical step: {elapsed * 1000:.0f} ms")
        assert elapsed < 1.0


def test_criterion_10_seeded_runs_export_identically(tmp_path, three_node):
    with verdict(10, "equal seeds produce byte-identical exports"):
        net, profile = three_node
        cfg = load_scenario(read_data("three_node_scenario.json"))
        paths = []
        for sub in ("first", "second"):
            [report] = run_closed_loop(net, profile, cfg, ("mpc",))
            paths.append(export_report(report, str(tmp_path / sub)))
        for f1, f2 in zip(*paths):
            assert Path(f1).read_bytes() == Path(f2).read_bytes()
