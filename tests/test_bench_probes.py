"""The benchmark's probes (``bench/tracing.py``) patch names of ``wqmpc``
from the outside.  Installing them here, and running a short constrained
MPC command under them, makes a rename that would crash the benchmark
fail the tier-1 suite.  Everything runs in a subprocess, so the patches
never reach the other tests.
"""

import json
import os
import subprocess
import sys

from conftest import data_path, read_data

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracing
from wqmpc import cli

light, spans, memory = tracing.LightProbe(), tracing.SpanProbe(), tracing.MemoryProbe()
for probe in (light, spans, memory):
    probe.install()
t0 = tracing.clock()
rc = cli.main(sys.argv[3:])
layers = spans.metrics(tracing.clock() - t0)
print(json.dumps({"rc": rc, "updates": len(light.control_s),
                  "fallbacks": light.fallbacks(), "layers": layers,
                  "peaks": memory.peaks}))
"""


def test_bench_probes_install_and_record(tmp_path):
    cfg = json.loads(read_data("three_node_scenario.json"))
    cfg.update({"duration_s": 7200.0, "horizon": 6, "u_max": 1.0,
                "constrained": True, "events": []})
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT,
         os.path.join(ROOT, "bench"), os.path.join(ROOT, "src"),
         "control", "--net", data_path("three_node.inp"),
         "--hydraulics", data_path("three_node_hydraulics.csv"),
         "--scenario", str(scenario), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["rc"] == 0
    layers = record["layers"]
    assert record["updates"] == layers["mpc.constrained_calls"] == 24
    assert layers["mpc.law_builds"] == 2  # two hydraulic periods
    assert layers["mpc.decision_vars"] == 6  # horizon x one booster
    assert layers["mpc.ineq_rows"] > 0
    assert layers["dynamics.build_schedule_calls"] == 2  # model and plant
    assert record["peaks"]["mpc.law.peak_alloc_mb"] > 0
