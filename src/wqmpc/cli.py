"""Command-line interface.

Exit codes: 0 success, 1 invalid configuration or input files, 2 model
assembly/simulation failure, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .errors import (
    HydraulicsError,
    ModelError,
    NetworkError,
    SolverError,
    WqmpcError,
)
from .dynamics import (
    StateIndexMap,
    build_schedule,
    export_system,
    initial_state,
    iter_states,
    per_minute,
    sensor_closure,
    simulate,  # unused here; the benchmark's probes still patch cli.simulate
)
from .hydraulics import BALANCE_RTOL, balance_residuals, load_hydraulics
from .mpc import ControlConfig, build_law, count_variables
from .network import parse_network
from .scenario import export_report, load_scenario, run_closed_loop


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise WqmpcError(f"cannot read {path}: {exc.strerror}") from None


def _load_net_profile(args):
    net = parse_network(_read(args.net))
    if args.hydraulics is None:
        return net, None
    profile = load_hydraulics(
        net, _read(args.hydraulics), period_duration_s=args.period_s
    )
    return net, profile


def cmd_inspect(args) -> int:
    net, profile = _load_net_profile(args)
    counts = net.counts()
    for k, v in counts.items():
        print(f"{k} = {v}")
    print("nodes:", " ".join(net.node_ids))
    print("links:", " ".join(net.link_ids))
    if profile is not None:
        residuals = np.abs(balance_residuals(net, profile))
        print(f"periods = {len(profile.flows)}")
        print(f"balanced = {bool(np.all(residuals <= BALANCE_RTOL))}")
        print(f"max_balance_residual = {float(np.max(residuals)):.3e}")
    return 0


def cmd_build_matrices(args) -> int:
    net, profile = _load_net_profile(args)
    pid = args.period_index
    if not 0 <= pid < len(profile.flows):
        raise WqmpcError(f"period index {pid} out of range")
    os.makedirs(args.out, exist_ok=True)  # an unwritable path costs no assembly
    [(sys_, n_steps)] = build_schedule(
        profile, StateIndexMap(net, args.segments), periods=range(pid, pid + 1)
    )
    files = export_system(sys_, args.out, prefix=f"period{pid}")
    print(f"n_x = {sys_.n_x}")
    print(f"n_u = {sys_.n_u}")
    print(f"boosters = {' '.join(sys_.booster.booster_nodes)}")
    print(f"dt_s = {sys_.dt_s:g}")
    print(f"steps_per_period = {n_steps}")
    print(f"nnz_A = {sys_.a.nnz}")
    for f in files:
        print(f"wrote {f}")
    return 0


def cmd_simulate(args) -> int:
    """Write the per-minute states as CSV: a ``time_s`` column, then one
    column per state label, every value as ``"%.17g" % v`` writes it.

    Rows go through ``format_g17``, which writes those bytes exactly; it
    leaves non-finite values, values outside [1e-270, 1e270], values
    within 1e-6 of a rounding tie at 17 digits and fixed-notation values
    of 10 and up (most ``time_s`` entries) to Python's own ``%``.
    """
    # imported here, so the commands that write no rows do not build its
    # tables (about 0.6 MB of peak RSS, mostly NumPy code paged in)
    from .floatfmt import format_g17

    net, profile = _load_net_profile(args)
    # an unwritable path costs no assembly, and a refused model leaves an
    # existing file as it was: it is truncated once the schedule is built
    open(args.out, "ab").close()
    im = StateIndexMap(net, args.segments)
    schedule = build_schedule(profile, im)
    labels = im.labels()
    rows = 0
    with open(args.out, "wb") as fh:
        fh.write(("time_s," + ",".join(labels) + "\n").encode())
        # each kept row is written as soon as it is stepped, so only the
        # current state is held, and each period's system is let go once
        # it is stepped
        periods = (schedule.pop(0) for _ in range(len(schedule)))
        for t, x in per_minute(iter_states(periods, initial_state(im))):
            fh.write(format_g17(np.concatenate(([t], x))) + b"\n")
            rows += 1
    print(f"wrote {args.out} ({rows} rows, {len(labels)} states)")
    return 0


def _scenario_from_args(args, profile, controllers):
    """The scenario, checked for each of ``controllers``; ``--out`` is
    made next, so a path that cannot be written is refused before the run."""
    cfg = load_scenario(
        _read(args.scenario), seed=args.seed, y_ref=args.yref,
        price_per_mg=args.price, horizon=args.horizon,
    )
    for name in controllers:
        cfg.validate(profile, name)
    os.makedirs(args.out, exist_ok=True)
    return cfg


def cmd_control(args) -> int:
    net, profile = _load_net_profile(args)
    cfg = _scenario_from_args(args, profile, (args.controller,))
    [report] = run_closed_loop(net, profile, cfg, (args.controller,))
    files = export_report(report, args.out)
    for k, v in sorted({**report.metrics, **report.timings}.items()):
        print(f"{k} = {v:.6g}")
    for f in files:
        print(f"wrote {f}")
    return 0


def cmd_compare_rbc(args) -> int:
    net, profile = _load_net_profile(args)
    cfg = _scenario_from_args(args, profile, ("mpc", "rbc"))
    results = {}
    for report in run_closed_loop(net, profile, cfg, ("mpc", "rbc")):
        export_report(report, f"{args.out}/{report.controller}")
        results[report.controller] = report.metrics
        print(f"[{report.controller}] total = {report.metrics['total']:.6g}")
    comparison = {
        "mpc": results["mpc"],
        "rbc": results["rbc"],
        "total_ratio_rbc_over_mpc": (
            results["rbc"]["total"] / results["mpc"]["total"]
            if results["mpc"]["total"] > 0 else float("inf")
        ),
    }
    path = f"{args.out}/comparison.json"
    with open(path, "w") as fh:
        json.dump(comparison, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


def cmd_scale_report(args) -> int:
    net, profile = _load_net_profile(args)
    im = StateIndexMap(net, args.segments)  # the one layout of the command
    sensors = args.sensors.split(",") if args.sensors else [net.node_ids[0]]
    for spec in sensors:  # an unknown sensor is refused before any line
        im.sensor_index(spec)
    counts = count_variables(im, args.horizon)
    print(f"lp_variables = {counts['lp_variables']}")
    print(f"qp_variables = {counts['qp_variables']}")
    print(f"reduction = {counts['reduction']:.4f}")
    if profile is None:
        return 0  # no schedule: size accounting only, no timing
    # the states a closed loop under 'mpc' or 'none' steps in this period,
    # the only ones assembled, as a run assembles them
    keep = sensor_closure(im, sensors, profile.flows[:1])
    [(sys_, _)] = build_schedule(profile, im.restrict(keep), periods=range(1))
    # the solver's size: one input per installed booster
    print(f"decision_variables = {args.horizon * sys_.n_u}")
    # only sizes and timings are printed, so the setpoint is immaterial
    config = ControlConfig(sensors=tuple(sensors), horizon=args.horizon, y_ref=1.0)
    build_law(sys_, config)  # warm up: the first build pays one-time costs
    # the fastest of three warm builds: one build can be slowed by what
    # else the machine runs
    build_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        law, _ = build_law(sys_, config)
        build_times.append(time.perf_counter() - t0)
    build_s = min(build_times)
    pred = law.pred
    # one update: the free response from a model state, then the solve
    x, u, y = np.zeros(pred.aug.n_x), np.zeros(pred.n_u), np.zeros(pred.n_y)
    law.solve(pred.free_response(x, u, y))  # warm up
    t0 = time.perf_counter()
    reps = 5
    for _ in range(reps):
        law.solve(pred.free_response(x, u, y))
    solve_s = (time.perf_counter() - t0) / reps
    print(f"n_x = {im.n_x}")
    print(f"closure_states = {keep.size}")
    # W is kept only on the states that reach a sensor within the horizon
    print(f"predictor_columns = {pred.support.size}")
    print(f"predictor_mb = {pred.w.nbytes / 1e6:.3f}")
    print(f"build_seconds = {build_s:.3f}")
    print(f"solve_seconds = {solve_s:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wqmpc",
        description="Chlorine transport modeling and booster-injection control "
        "for water distribution networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, hydraulics_required=True):
        p.add_argument("--net", required=True, help="network description file")
        p.add_argument(
            "--hydraulics", required=hydraulics_required,
            help="hydraulic schedule CSV",
        )
        p.add_argument(
            "--period-s", type=float, default=3600.0, dest="period_s",
            help="hydraulic period duration in seconds (default 3600)",
        )

    p = sub.add_parser("inspect", help="summarize a network and its schedule")
    common(p, hydraulics_required=False)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("build-matrices", help="assemble and export one period's system")
    common(p)
    p.add_argument("--segments", type=int, default=100, help="segments per pipe")
    p.add_argument("--period-index", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_build_matrices)

    p = sub.add_parser("simulate", help="open-loop simulation, per-minute CSV")
    common(p)
    p.add_argument("--segments", type=int, default=100)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_simulate)

    def scenario_args(p):
        p.add_argument("--scenario", required=True, help="scenario JSON")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--yref", type=float, default=None)
        p.add_argument(
            "--price", "--lambda", dest="price", type=float, default=None,
            help="chlorine price, $/mg",
        )
        p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--out", required=True)

    p = sub.add_parser("control", help="closed-loop run with one controller")
    common(p)
    scenario_args(p)
    p.add_argument(
        "--controller", choices=("mpc", "rbc", "none"), default="mpc"
    )
    p.set_defaults(func=cmd_control)

    p = sub.add_parser(
        "compare-rbc",
        help="run MPC and the rule baseline, both on the scenario's sensors",
    )
    common(p)
    scenario_args(p)
    p.set_defaults(func=cmd_compare_rbc)

    p = sub.add_parser("scale-report", help="problem-size and timing summary")
    common(p, hydraulics_required=False)
    p.add_argument("--segments", type=int, default=100)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--sensors", default=None, help="comma-separated sensor specs")
    p.set_defaults(func=cmd_scale_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv:
        parser.print_usage(sys.stderr)
        return 1
    args = parser.parse_args(argv)
    out = getattr(args, "out", None)
    fresh = out is not None and not os.path.exists(out)
    code = _run(args)
    # a failed command takes away an output it made and left empty: a
    # directory with no entries, or a file with no bytes
    if code and fresh and os.path.exists(out):
        if os.path.isdir(out) and not os.listdir(out):
            os.rmdir(out)
        elif os.path.isfile(out) and not os.path.getsize(out):
            os.remove(out)
    return code


def _run(args) -> int:
    try:
        # by the flag's name, before any output exists; not by argparse,
        # whose refusals exit with 2
        if getattr(args, "segments", 1) < 1:
            raise WqmpcError(f"--segments must be at least 1, got {args.segments}")
        return args.func(args)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 2
    except (NetworkError, HydraulicsError, WqmpcError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        if exc.filename is None:
            raise
        # inputs are read by _read, so a file error here is an output's
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
