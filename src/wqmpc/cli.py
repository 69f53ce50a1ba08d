"""Command-line interface.

Exit codes: 0 success, 1 invalid configuration or input files, 2 model
assembly/simulation failure, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

import numpy as np

from .errors import (
    HydraulicsError,
    ModelError,
    NetworkError,
    SolverError,
    WqmpcError,
)
from .dynamics import (
    build_schedule,
    export_system,
    initial_state,
    iter_states,
    per_minute,
    simulate,  # unused here; the benchmark's probes still patch cli.simulate
)
from .hydraulics import load_hydraulics
from .mpc import PredictionOperator, AnalyticalLaw, CostWeights, build_augmented, count_variables
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
    net = parse_network(_read(args.net))
    counts = net.counts()
    for k, v in counts.items():
        print(f"{k} = {v}")
    print("nodes:", " ".join(net.node_ids))
    print("links:", " ".join(net.link_ids))
    if args.hydraulics:
        profile = load_hydraulics(
            net, _read(args.hydraulics), period_duration_s=args.period_s
        )
        print(f"periods = {len(profile.periods)}")
        print(f"balanced = {profile.consistent}")
        print(
            "max_balance_residual ="
            f" {float(np.max(np.abs(profile.balance_residuals))):.3e}"
        )
    return 0


def cmd_build_matrices(args) -> int:
    net, profile = _load_net_profile(args)
    schedule = build_schedule(
        net, profile, args.segments,
        paper_literal_reaction=args.paper_literal_reaction,
    )
    if not 0 <= args.period_index < len(schedule):
        raise WqmpcError(f"period index {args.period_index} out of range")
    sys_, n_steps = schedule[args.period_index]
    files = export_system(sys_, args.out, prefix=f"period{args.period_index}")
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
    net, profile = _load_net_profile(args)
    schedule = build_schedule(
        net, profile, args.segments,
        paper_literal_reaction=args.paper_literal_reaction,
    )
    im = schedule[0][0].index_map
    labels = im.labels()
    row = ",".join(["%.17g"] * (1 + len(labels))) + "\n"
    rows = 0
    with open(args.out, "w") as fh:
        fh.write("time_s," + ",".join(labels) + "\n")
        # each kept row is written as soon as it is stepped, so only the
        # current state is held; tolist() per row keeps the floats bounded
        for t, x in per_minute(iter_states(schedule, initial_state(net, im))):
            fh.write(row % (t, *x.tolist()))
            rows += 1
    print(f"wrote {args.out} ({rows} rows, {len(labels)} states)")
    return 0


def _scenario_from_args(args):
    cfg = load_scenario(_read(args.scenario))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.yref is not None:
        cfg = replace(cfg, y_ref=args.yref)
    if args.price is not None:
        cfg = replace(cfg, price_per_mg=args.price)
    if args.horizon is not None:
        cfg = replace(cfg, horizon=args.horizon)
    if args.paper_literal_reaction:
        cfg = replace(cfg, paper_literal_reaction=True)
    return cfg


def cmd_control(args) -> int:
    net, profile = _load_net_profile(args)
    cfg = _scenario_from_args(args)
    report = run_closed_loop(net, profile, cfg, controller=args.controller)
    files = export_report(report, args.out)
    for k in sorted(report.metrics):
        print(f"{k} = {report.metrics[k]:.6g}")
    for f in files:
        print(f"wrote {f}")
    return 0


def cmd_compare_rbc(args) -> int:
    net, profile = _load_net_profile(args)
    cfg = _scenario_from_args(args)
    results = {}
    for name in ("mpc", "rbc"):
        report = run_closed_loop(net, profile, cfg, controller=name)
        export_report(report, f"{args.out}/{name}")
        results[name] = report.metrics
        print(f"[{name}] total = {report.metrics['total']:.6g}")
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
    counts = count_variables(net, args.horizon, args.segments)
    print(f"lp_variables = {counts['lp_variables']}")
    print(f"qp_variables = {counts['qp_variables']}")
    print(f"reduction = {counts['reduction']:.4f}")
    if profile is None:
        return 0  # no schedule: size accounting only, no timing
    schedule = build_schedule(net, profile, args.segments)
    sys_, _ = schedule[0]
    # the solver's size: one input per installed booster
    print(f"decision_variables = {args.horizon * sys_.n_u}")
    sensors = args.sensors.split(",") if args.sensors else [net.node_ids[0]]
    t0 = time.perf_counter()
    aug = build_augmented(sys_, sensors)
    pred = PredictionOperator(aug, args.horizon)
    weights = CostWeights.build(aug.n_y, aug.n_u, args.yref or 1.0)
    law = AnalyticalLaw(pred, weights)
    build_s = time.perf_counter() - t0
    x_a = np.zeros(aug.n_x + aug.n_y)
    law.solve(x_a)  # warm up
    t0 = time.perf_counter()
    reps = 5
    for _ in range(reps):
        law.solve(x_a)
    solve_s = (time.perf_counter() - t0) / reps
    print(f"n_x = {sys_.n_x}")
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
    p.add_argument("--paper-literal-reaction", action="store_true")
    p.set_defaults(func=cmd_build_matrices)

    p = sub.add_parser("simulate", help="open-loop simulation, per-minute CSV")
    common(p)
    p.add_argument("--segments", type=int, default=100)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--paper-literal-reaction", action="store_true")
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
        p.add_argument("--paper-literal-reaction", action="store_true")
        p.add_argument("--out", required=True)

    p = sub.add_parser("control", help="closed-loop run with one controller")
    common(p)
    scenario_args(p)
    p.add_argument(
        "--controller", choices=("mpc", "rbc", "none"), default="mpc"
    )
    p.set_defaults(func=cmd_control)

    p = sub.add_parser("compare-rbc", help="run MPC and the rule baseline")
    common(p)
    scenario_args(p)
    p.set_defaults(func=cmd_compare_rbc)

    p = sub.add_parser("scale-report", help="problem-size and timing summary")
    common(p, hydraulics_required=False)
    p.add_argument("--segments", type=int, default=100)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--sensors", default=None, help="comma-separated sensor specs")
    p.add_argument("--yref", type=float, default=None)
    p.set_defaults(func=cmd_scale_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv:
        parser.print_usage(sys.stderr)
        return 1
    args = parser.parse_args(argv)
    try:
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


if __name__ == "__main__":
    sys.exit(main())
