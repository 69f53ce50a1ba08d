"""Run one ``wqmpc`` CLI command in this process and record what it took.

Usage: child.py MODE RECORD_JSON SRC_DIR -- <wqmpc arguments>

MODE is ``plain`` (end-to-end timing), ``spans`` (per-layer spans) or
``memory`` (tracemalloc peaks).  Times count from this script's first
statement, so they include importing wqmpc, NumPy and SciPy, which every
CLI invocation pays.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main() -> None:
    mode, record_path, src = sys.argv[1:4]
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py MODE RECORD_JSON SRC_DIR -- ARGS")
    argv = sys.argv[5:]
    sys.path.insert(0, src)
    import tracing
    from wqmpc import cli

    light = tracing.LightProbe()
    light.install()
    probe = {"spans": tracing.SpanProbe, "memory": tracing.MemoryProbe}.get(mode)
    if probe is not None:
        probe = probe()
        probe.install()
    error = None
    try:
        rc = cli.main(argv)
    except Exception:  # reported to the parent as a failed command
        rc = None
        error = traceback.format_exc()
    end = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "rc": rc,
        "error": error,
        "wall_s": end - T0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "setup_s": None if light.setup_end is None else light.setup_end - T0,
        "control_s": light.control_s,
        "infeasible_fallbacks": light.fallbacks(),
    }
    if mode == "spans":
        record["layers"] = probe.metrics(end - T0)
        record["layers"]["mpc.infeasible_fallbacks"] = light.fallbacks()
    elif mode == "memory":
        record["layers"] = dict(probe.peaks)
    with open(record_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
