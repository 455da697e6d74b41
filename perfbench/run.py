"""Benchmark of the har CLI: closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

One run builds its inputs from ``--seed`` in a set-up child process
(``prepare.py``), then calls the CLI entry point ``har.cli.main`` in this
process, one op at a time (a closed loop with one caller), for ``--seconds``
seconds with ``--threads`` equal to the usable core count and BLAS at its
default.  Every op's outputs are checked (``checks.py``).  The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``; the line before it
carries the machine, the sample counts and any failures, and the same
details (plus the spans of a traced run) go to ``.perfbench/results/``.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:

* ``setup_s``: median over the set-ups of one set-up process (interpreter
  start, ``import har``, input files, fixture models), repeated at least
  ``SETUP_REPEATS`` times and until ``SETUP_MIN_S`` seconds have passed;
* ``op_s.p50``: median wall time of the workload's op: one ``har fit`` on a
  fit workload, the pair of ``har predict`` calls on predict_m20k;
* ``peak_rss_mb``: this process's peak RSS at the end of the timed ops;
* ``heldout_rmse``: RMSE of the op's model on the fixed held-out draw
  (``workloads.HELDOUT_ROWS`` rows), predicted by one untimed ``har predict``
  after the timed ops on a fit workload.

``--trace 1`` wraps each layer boundary (``tracing.BOUNDARIES``) and reports
the per-layer metrics: span times per op (medians over ops), call counts,
and a single-threaded rebuild of the op's Grams as the baseline for
``kernels.gram_matrix.speedup``.  A layer that an op never calls reports 0,
and a boundary name that no longer exists is listed as absent.

Exit status is 0 with a result line, or non-zero without one when the
package cannot be found or set-up fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import tracing
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
SETUP_MIN_S = 4.0
MIN_OPS = 2
CHILD_TIMEOUT_S = 170


class SetupError(RuntimeError):
    pass


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def machine(threads: int, seed: int) -> dict:
    def blas(mod):
        try:
            deps = mod.show_config(mode="dicts")["Build Dependencies"]
            return {k: f"{deps[k].get('name')} {deps[k].get('version')}" for k in ("blas", "lapack")}
        except Exception as exc:  # the report is informative only
            return {"error": repr(exc)}

    import scipy

    return {
        "nproc": usable_cores(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "threads": threads,
        "seed": seed,
    }


def set_up(w: W.Workload, seed: int, work: Path, threads: int, tiny: bool) -> tuple[float, dict]:
    cmd = [sys.executable, str(HERE / "prepare.py"), "--workload", w.name, "--seed", str(seed),
           "--work", str(work), "--threads", str(threads)] + (["--tiny"] if tiny else [])
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise SetupError(f"set-up exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return elapsed, json.loads(proc.stdout.strip().splitlines()[-1])


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, har, w: W.Workload, seed: int, work: Path, threads: int):
        self.har, self.w, self.seed, self.work = har, w, seed, work
        self.threads = str(threads)
        self.failures: dict = {}  # op label -> problems
        self.attempted = 0

    def file(self, name) -> str:
        return str(self.work / name)

    def record(self, label: str, problems: list) -> None:
        """Count one checked op, failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failures[label] = problems

    def check_pick(self) -> np.ndarray:
        """Indices of the held-out rows the checks sample."""
        rows = min(W.CHECK_ROWS, self.w.heldout)
        return W.rng(self.seed, W.STREAM_CHECK).choice(self.w.heldout, rows, replace=False)

    def check_rows(self, table_name: str) -> np.ndarray:
        """The sampled held-out rows, unscaled features only."""
        return W.read_csv(self.file(table_name))[1][self.check_pick(), :-1]

    # -- fit workloads ---------------------------------------------------
    def fit_argv(self, data: str, out: str) -> list:
        return ["fit", "--data", data, *self.w.fit_args, "--threads", self.threads, "--out", out]

    def fit_op(self, main, i: int) -> dict:
        model = self.file("model.json")
        rc, stdout = tracing.run_cli(main, self.fit_argv(self.file("train.csv"), model))
        return {"rc": rc, "stdout": stdout, "sha256": checks.sha256(model) if rc == 0 else None}

    def check_fit_ops(self, ops: list, model, gram_values) -> None:
        expect = {"command": "fit", "n": self.w.n, "dropped_rows": 0}
        first, problems = checks.cli_summary(ops[0]["rc"], ops[0]["stdout"], expect)
        if not problems:
            problems = checks.fitted_model(
                self.har, first, model, gram_values, self.file("model.json"), self.file("train.csv"),
                self.check_rows("heldout.csv"), W.rng(self.seed, W.STREAM_CHECK),
            )
        self.record("fit op 0", problems)
        for i, op in enumerate(ops[1:], start=1):
            summary, problems = checks.cli_summary(op["rc"], op["stdout"], expect)
            if op["sha256"] != ops[0]["sha256"] or summary != first:
                problems.append("output differs from op 0 on the same input")
            self.record(f"fit op {i}", problems)

    def heldout_rmse(self, model) -> float:
        """``har predict`` of the fitted model on the held-out draw, checked;
        returns the RMSE of what it wrote."""
        out = self.file("heldout-pred.csv")
        argv = ["predict", "--model", self.file("model.json"), "--data", self.file("heldout.csv"),
                "--out", out, "--threads", self.threads]
        rc, stdout = tracing.run_cli(self.har.cli.main, argv)
        expect = {"command": "predict", "rows": self.w.heldout, "dropped_rows": 0}
        summary, problems = checks.cli_summary(rc, stdout, expect)
        heldout_rmse = float("nan")
        if not problems:
            header, table = W.read_csv(self.file("heldout.csv"))
            preds, problems = checks.predictions_csv(out, header, table)
            if not problems:
                heldout_rmse = checks.rmse(preds, table[:, -1])
                if not checks.close(heldout_rmse, summary.get("rmse", float("nan")), 1e-12):
                    problems.append("reported rmse differs from the written predictions")
                if model is not None:
                    pick = self.check_pick()[: W.IDENTITY_ROWS]
                    Xs = self.har.data.apply_scaling(table[pick, :-1], model.scaling)
                    problems += checks.route(self.har, model, Xs, preds[pick], "held-out predictions")
        self.record("held-out predict", problems)
        return heldout_rmse

    # -- predict workload ------------------------------------------------
    def predict_op(self, main, i: int) -> dict:
        rcs, stdouts, hashes = [], [], []
        for tag, _ in self.w.fixtures:
            out = self.file(f"pred-{tag}.csv")
            argv = ["predict", "--model", self.file(f"fixture-{tag}.json"), "--data", self.file("rows.csv"),
                    "--out", out, "--threads", self.threads]
            rc, stdout = tracing.run_cli(main, argv)
            rcs.append(rc)
            stdouts.append(stdout)
            hashes.append(checks.sha256(out) if rc == 0 else None)
        return {"rc": rcs, "stdout": stdouts, "sha256": hashes}

    def check_fixtures(self) -> None:
        X_check = self.check_rows("rows.csv")
        problems = []
        for tag, _ in self.w.fixtures:
            with open(self.file(f"fixture-{tag}.pkl"), "rb") as fh:
                fx = pickle.load(fh)
            summary, bad = checks.cli_summary(fx["rc"], fx["stdout"], {"command": "fit", "n": self.w.n})
            if not bad:
                bad = checks.fitted_model(
                    self.har, summary, fx["model"], fx["gram"], self.file(f"fixture-{tag}.json"),
                    self.file("train.csv"), X_check, W.rng(self.seed, W.STREAM_CHECK),
                )
            problems += [f"{tag}: {p}" for p in bad]
        self.record("fixture fit", problems)

    def check_predict_ops(self, ops: list, loaded: list, predictions: list) -> float:
        """Checks every op; returns the held-out RMSE of the first fixture."""
        header, table = W.read_csv(self.file("rows.csv"))
        pick = self.check_pick()
        heldout_rmse = float("nan")
        expect = {"command": "predict", "rows": self.w.rows, "dropped_rows": 0}
        for i, op in enumerate(ops):
            problems = []
            for j, (tag, _) in enumerate(self.w.fixtures):
                summary, bad = checks.cli_summary(op["rc"][j], op["stdout"][j], expect)
                if i > 0 and op["sha256"][j] != ops[0]["sha256"][j]:
                    bad.append("output differs from op 0 on the same input")
                if i == 0 and not bad and j >= len(loaded):
                    bad.append("the CLI's model and predictions were not captured")
                if i == 0 and not bad:
                    bad = self.check_first_prediction(tag, summary, table, header, loaded[j], predictions[j], pick)
                    if j == 0 and not bad:
                        heldout_rmse = checks.rmse(predictions[j][: self.w.heldout], table[: self.w.heldout, -1])
                problems += [f"{tag}: {p}" for p in bad]
            self.record(f"predict op {i}", problems)
        return heldout_rmse

    def check_first_prediction(self, tag, summary, table, header, cli_model, preds, pick) -> list:
        har = self.har
        out = self.file(f"pred-{tag}.csv")
        written, problems = checks.predictions_csv(out, header, table, preds)
        if problems:
            return problems
        if not checks.close(checks.rmse(written, table[:, -1]), summary.get("rmse", float("nan")), 1e-12):
            problems.append("reported rmse differs from the written predictions")
        model, _ = har.solver.load_model(self.file(f"fixture-{tag}.json"))
        X = table[pick, :-1]
        Xs = har.data.apply_scaling(X, model.scaling)
        ident = slice(0, W.IDENTITY_ROWS)
        a = har.solver.predict(model, har.kernels.DesignMatrix(Xs[ident]))
        b = har.solver.predict(cli_model, har.kernels.DesignMatrix(Xs[ident]))
        if not np.array_equal(a, b):
            problems.append("reloaded model predicts differently from the CLI's")
        return problems + checks.route(har, model, Xs, preds[pick], "CLI predictions")


def closed_loop(seconds: float, op) -> tuple[list, list]:
    """Run op(i) back to back, starting ops until ``seconds`` have passed,
    and at least ``MIN_OPS`` of them so that a median is never one op."""
    times, results = [], []
    start = perf_counter()
    while len(times) < MIN_OPS or perf_counter() - start < seconds:
        gc.collect()
        t0 = perf_counter()
        results.append(op(len(times)))
        times.append(perf_counter() - t0)
    return times, results


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> tuple[dict, dict]:
    """One run; returns (result line, details)."""
    w = W.get_workload(workload, tiny)
    threads = usable_cores()
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = [set_up(w, seed, work, threads, tiny)]
        while not trace and (len(setups) < SETUP_REPEATS or sum(s[0] for s in setups) < SETUP_MIN_S):
            setups.append(set_up(w, seed, work, threads, tiny))
        sys.path.insert(0, str(SRC))
        import har
        import har.cli

        bench = Bench(har, w, seed, work, threads)
        if any(s[1]["sha256"] != setups[0][1]["sha256"] for s in setups):
            bench.record("set-up", ["set-up wrote different files on the same seed"])
        details = {"workload": w.name, "seed": seed, "trace": int(trace), "machine": machine(threads, seed)}
        patches = tracing.Patches()
        capture = tracing.Capture(patches, har)
        tracer = tracing.Tracer() if trace else None
        try:
            if w.kind == "fit":
                tracing.run_cli(har.cli.main, bench.fit_argv(bench.file("warm.csv"), bench.file("warm-model.json")))
            else:
                for tag, _ in w.fixtures:
                    tracing.run_cli(har.cli.main, ["predict", "--model", bench.file(f"fixture-{tag}.json"), "--data",
                                                   bench.file("warm.csv"), "--out", bench.file("warm-pred.csv"),
                                                   "--threads", bench.threads])
            main = har.cli.main
            if tracer is not None:
                tracer.install(patches, har)
                main = tracer.wrapper("cli.main", har.cli.main)
            kept = {}

            def op(i):
                if tracer is not None:
                    tracer.op = i
                capture.armed = i == 0
                result = (bench.fit_op if w.kind == "fit" else bench.predict_op)(main, i)
                if i == 0:
                    # keep op 0's in-memory results, the Gram on disk, so later ops run as op 0 did
                    capture.armed = False
                    grams = [g for g in capture.grams if g is not None]
                    if grams:
                        np.save(bench.file("gram-0.npy"), grams[-1].values)
                    kept.update(model=capture.models[-1] if capture.models else None, has_gram=bool(grams),
                                loaded=list(capture.loaded), predictions=list(capture.predictions))
                    capture.clear()
                return result

            times, ops = closed_loop(seconds, op)
        finally:
            patches.restore()

        metrics = {"op_s.p50": statistics.median(times), "setup_s": statistics.median(s[0] for s in setups),
                   "peak_rss_mb": peak_rss_mb()}
        if w.kind == "fit":
            if not trace:
                metrics["heldout_rmse"] = bench.heldout_rmse(kept["model"])
            gram = np.load(bench.file("gram-0.npy")) if kept["has_gram"] else None
            bench.check_fit_ops(ops, kept["model"], gram)
        else:
            bench.check_fixtures()
            metrics["heldout_rmse"] = bench.check_predict_ops(ops, kept["loaded"], kept["predictions"])

        details["absent"] = patches.absent
        if trace:
            metrics = layer_metrics(har, tracer, len(times))
            details["not_called"] = sorted(k for k, v in metrics.items() if k.endswith((".s", ".calls")) and v == 0)
        details["samples"] = {"op_s.p50": len(times), "setup_s": len(setups), "peak_rss_mb": len(times)}
        details["op_seconds"] = times
        details["failures"] = bench.failures
        details["failed_ratio"] = len(bench.failures) / bench.attempted
        if trace:
            details["spans"] = tracer.to_json()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }
    return result, details


def layer_metrics(har, tracer: tracing.Tracer, ops: int) -> dict:
    per_op = [tracing.op_metrics(tracer.spans, i) for i in range(ops)]
    metrics = tracing.median_metrics(per_op)
    # single-threaded rebuild of op 0's Grams, under the same allocation probe
    one_thread = 0.0
    for op, args, kwargs in tracer.gram_calls:
        if op != 0:
            continue
        knots = args[0] if args else kwargs["knots"]
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        tracemalloc.start()
        t0 = perf_counter()
        har.kernels.gram_matrix(knots, spec, threads=1)
        one_thread += perf_counter() - t0
        tracemalloc.stop()
    gram_s = per_op[0]["kernels.gram_matrix.s"]
    metrics["kernels.gram_matrix.1t.s"] = one_thread
    metrics["kernels.gram_matrix.speedup"] = one_thread / gram_s if gram_s > 0 else 0.0
    root = sum(s.duration for s in tracer.spans if s.name == "cli.main")
    metrics["trace.overhead_ratio"] = tracer.overhead / root
    return metrics


def emit(spec: dict, result: dict, details: dict, trace: bool) -> dict:
    """Attach units from BENCHMARK.json, in its order, to the measured values."""
    names = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in result["metrics"]]
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    # a value that could not be measured (its op failed) is null, never NaN
    result["metrics"] = {
        m["name"]: {"value": v if math.isfinite(v) else None, "unit": m["unit"]}
        for m in names
        for v in [result["metrics"][m["name"]]]
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    name = f"{details['workload']}-seed{details['seed']}-trace{int(trace)}.json"
    with open(OUT / "results" / name, "w", encoding="utf-8") as fh:
        json.dump({**details, "result": result}, fh, indent=1)
    print(json.dumps({k: v for k, v in details.items() if k != "spans"}))
    return result


def smoke(spec: dict) -> int:
    """Every workload at tiny size, untraced and traced, through this script's
    own command line; checks that each run is correct and names every metric."""
    ok = True
    for name in W.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", "7",
                   "--seconds", "0.1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {}
            want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            good = (proc.returncode == 0 and result.get("correct") is True and result.get("failed") == 0
                    and list(result.get("metrics", {})) == want)
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {name} trace={trace}", flush=True)
            if not good:
                print(proc.stdout[-3000:], proc.stderr[-3000:], file=sys.stderr)
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    ap.add_argument("--smoke", action="store_true", help="run every workload at tiny size and check the metrics")
    args = ap.parse_args()
    if not (SRC / "har" / "__init__.py").is_file():
        print(f"cannot find the har package under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(emit(spec, result, details, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
