"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_smoke_runs_every_workload_and_names_every_metric():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("ok ") == 2 * len(workloads.WORKLOADS)


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "fit_har0_n1600", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_absent_name_is_reported_and_every_name_restored():
    mod = types.ModuleType("fake")
    mod.present = original = lambda: 1
    patches = tracing.Patches()
    assert patches.wrap(mod, "present", lambda orig: lambda: 2)
    assert not patches.wrap(mod, "deleted", lambda orig: orig)
    assert mod.present() == 2
    patches.restore()
    assert mod.present is original
    assert patches.absent == ["fake.deleted"]


def test_self_time_and_counts_come_from_child_spans():
    tracer = tracing.Tracer()
    tracer.op = 0

    def eigmin():
        time.sleep(0.02)
        return 0.0

    traced_eigmin = tracer.wrapper("solver.smallest_eigenvalue", eigmin, tracing._zero)

    def bound():
        time.sleep(0.01)
        return traced_eigmin() + traced_eigmin()

    tracer.wrapper("solver.lambda_max", bound)()
    m = tracing.op_metrics(tracer.spans, 0)
    total = sum(s.duration for s in tracer.spans if s.name == "solver.lambda_max")
    assert m["solver.smallest_eigenvalue.calls"] == 2
    assert m["solver.smallest_eigenvalue.zero_returns"] == 2
    assert 0.01 <= m["solver.lambda_max.self_s"] < total - 0.04
    assert m["kernels.gram_matrix.calls"] == 0
    json.dumps(tracer.to_json())
