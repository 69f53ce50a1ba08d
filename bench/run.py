"""wqmpc benchmark: four seeded workloads through the ``wqmpc`` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a checkout.  Each repetition runs the workload's CLI
command in a fresh process (``bench/child.py``), so set-up, BLAS warm-up
and peak memory are those a user of the command sees.  Repetitions
continue until ``--seconds`` have passed (at least two, so that equal
seeds can be checked to export identical bytes); timings are medians over
repetitions.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates a
plain, a span-traced and a tracemalloc repetition and reports the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it, prefixed ``detail``, holds input and export digests, the
environment and the per-repetition figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

from tracing import PEAK_METRICS, SELF_TIME_METRICS
from workloads import WORKLOADS, check_outputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = 1  # at most nproc; recorded in the environment block
DEADLINE_S = 170.0  # a run must end within 180 s


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    src_digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                src_digest.update(os.path.relpath(path, SRC).encode())
                src_digest.update(_sha256(path).encode())
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # else an exported tree
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
    }


class Run:
    """Repetitions of one workload and what they measured."""

    def __init__(self, name: str, seed: int, smoke: bool, work: str):
        self.work = work
        self.w = WORKLOADS[name](seed, work, smoke)
        self.input_sha256 = {
            os.path.basename(p): _sha256(os.path.join(ROOT, p)) for p in self.w.inputs
        }
        self.records: list[dict] = []
        self.export_sha256: dict | None = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.t_start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start

    def rep(self, mode: str) -> dict:
        k = len(self.records)
        out = os.path.join(self.work, f"out{k}")
        if self.w.kind == "simulate":
            out += ".csv"
        record_path = os.path.join(self.work, f"record{k}.json")
        argv = [a.replace("{out}", out) for a in self.w.argv]
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, record_path,
               SRC, "--", *argv]
        timeout = max(1.0, DEADLINE_S - self.elapsed())
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=timeout)
            with open(record_path) as fh:
                rec = json.load(fh)
            if proc.returncode != 0 and rec.get("error") is None:
                rec["error"] = proc.stderr[-2000:]
        except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
            rec = {"rc": None, "error": f"{type(exc).__name__}: {exc}"}
        rec["mode"] = mode
        problems = []
        if rec.get("error") or rec.get("rc") != 0:
            problems.append(f"command failed: rc={rec.get('rc')} {rec.get('error')}")
        else:
            problems += check_outputs(self.w, out)
            digests = self._digests(out)
            rec["export_bytes"] = self._bytes(out)
            if self.export_sha256 is None:
                self.export_sha256 = digests
            elif digests != self.export_sha256:
                problems.append("exports differ from the first repetition")
        if os.path.isdir(out):
            shutil.rmtree(out)
        elif os.path.exists(out):
            os.remove(out)
        ops = self.w.updates if self.w.mpc else 1
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems += problems
        elif self.w.mpc:
            self.failed += rec.get("infeasible_fallbacks", 0)
        rec["problems"] = problems
        self.records.append(rec)
        return rec

    @staticmethod
    def _files(out: str) -> dict[str, str]:
        if os.path.isdir(out):
            return {f: os.path.join(out, f) for f in sorted(os.listdir(out))}
        return {"simulate.csv": out}

    def _digests(self, out: str) -> dict:
        return {f: _sha256(p) for f, p in self._files(out).items()}

    def _bytes(self, out: str) -> int:
        return sum(os.path.getsize(p) for p in self._files(out).values())

    def of(self, mode: str) -> list[dict]:
        return [r for r in self.records if r["mode"] == mode and not r["problems"]]


def _median(values) -> float:
    """Median of the measured values; 0 when a failed run measured none."""
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def run_plain(run: Run, seconds: float) -> dict:
    while len(run.records) < 2 or (run.elapsed() < seconds and run.elapsed() < DEADLINE_S / 2):
        run.rep("plain")
    ok = run.of("plain")
    metrics = {
        "wall_s": _median(r["wall_s"] for r in ok),
        "setup_s": _median(r["setup_s"] for r in ok),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in ok),
    }
    return metrics


def control_summary(run: Run) -> dict:
    """Controller latency pooled over plain repetitions, with sample count."""
    samples = [1e3 * s for r in run.of("plain") for s in r.get("control_s", [])]
    return {"n": len(samples), "p50": _percentile(samples, 50),
            "p90": _percentile(samples, 90)}


def run_traced(run: Run, seconds: float) -> dict:
    while not run.records or (run.elapsed() < seconds and run.elapsed() < DEADLINE_S / 3):
        for mode in ("plain", "spans", "memory"):
            run.rep(mode)
    plain, spans, memory = run.of("plain"), run.of("spans"), run.of("memory")
    metrics: dict[str, float] = {}
    if spans:
        for key in spans[0]["layers"]:
            metrics[key] = _median(r["layers"][key] for r in spans)
        counts = [{k: v for k, v in r["layers"].items() if k in COUNT_METRICS}
                  for r in spans]
        if any(c != counts[0] for c in counts):
            run.problems.append("count metrics differ between traced repetitions")
        for r in spans:
            layers = r["layers"]
            parts = sum(layers[k] for k in SELF_TIME_METRICS.values())
            if abs(parts + layers["trace.untimed_s"] - layers["trace.wall_s"]) > 1e-6:
                run.problems.append("layer self times do not add up to the traced wall time")
    for key in PEAK_METRICS:
        metrics[key] = _median(r["layers"][key] for r in memory)
    wall_plain = _median(r["wall_s"] for r in plain)
    metrics["trace.overhead_frac"] = (
        _median(r["wall_s"] for r in spans) / wall_plain - 1.0 if wall_plain else 0.0
    )
    ctl = control_summary(run)
    metrics["control_ms_p50"] = ctl["p50"]
    metrics["control_ms_p90"] = ctl["p90"]
    metrics["failed_frac"] = run.failed / max(run.attempted, 1)
    metrics["export.bytes"] = _median(r.get("export_bytes") for r in plain + spans + memory)
    return metrics


COUNT_METRICS = (
    "dynamics.build_schedule_calls", "dynamics.n_x", "dynamics.a_nnz",
    "dynamics.step_calls", "mpc.law_builds", "mpc.decision_vars",
    "mpc.dense_path", "mpc.solve_calls", "mpc.constrained_calls",
    "mpc.h_inv_applications", "mpc.ineq_rows", "mpc.infeasible_fallbacks",
    "scenario.rbc_calls", "dynamics.trajectory_mb", "trace.spans",
)


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[dict, dict]:
    """Run one workload; return (result line, detail)."""
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=os.path.join(HERE, "_work"))
    try:
        run = Run(name, seed, smoke, work)
        metrics = run_traced(run, seconds) if trace else run_plain(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    spec = _benchmark_spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        run.problems.append(
            f"measured metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}"
        )
    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u}
                    for k, u in units.items()},
    }
    ctl = control_summary(run)
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "problems": run.problems,
        "input_sha256": run.input_sha256,
        "export_sha256": run.export_sha256,
        "control_ms": ctl,
        "environment": environment(),
        "repetitions": [{k: v for k, v in r.items() if k != "control_s"}
                        for r in run.records],
    }
    return result, detail


def summary_line(name: str, result: dict, detail: dict) -> str:
    """Human-readable metrics with units, each where it applies."""
    parts = [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    ctl = detail["control_ms"]
    if ctl["n"]:
        parts.append(f"control_ms_p50 = {ctl['p50']:.6g} ms (n={ctl['n']})")
        if ctl["n"] >= 100:  # at least ten samples beyond the 90th percentile
            parts.append(f"control_ms_p90 = {ctl['p90']:.6g} ms (n={ctl['n']})")
    frac = result["failed"] / max(result["attempted"], 1)
    parts.append(f"failed_frac = {frac:.6g} ratio ({result['failed']}/{result['attempted']})")
    return f"{name}: " + "; ".join(parts)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, detail = measure(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        print(summary_line(name, result, detail))
        print("detail " + json.dumps(detail, sort_keys=True))
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    missing = [p for p in ("src/wqmpc/cli.py", "data/net3.inp", "BENCHMARK.json")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: run from a wqmpc checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)  # the synthetic workload imports wqmpc.synth
    sys.exit(main())
