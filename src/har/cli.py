"""Command-line front end: fit, predict, and the three study runners.

Configuration merges four layers, highest priority first: command-line
flags, the optional ``--config file.json`` document, the ``HAR_THREADS``
environment variable (threads only), and built-in defaults.  Every run
prints exactly one JSON line to standard output (the machine-readable
summary, or ``{"error": ...}`` on failure); progress and warnings go to
standard error.  Exit codes: 0 success, 1 runtime failure, 2 usage error.

Output artifacts embed the fully resolved configuration: model files carry
it in their metadata, study JSON reports in their ``config`` block, and the
predictions CSV (which has no side channel) is covered by the stdout
summary plus the model file it came from.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .data import GENERATOR_NAME, apply_scaling, fit_scaling, load_csv, read_table, rmse
from .exceptions import HarError, SchemaError
from .experiments import (
    BENCH_MAX_ROWS,
    BENCH_TRAIN_FRACTION,
    DEFAULT_N_VALUES,
    DEFAULT_REPEATS,
    DEFAULT_REPLICATIONS,
    DEFAULT_TEST_SIZE,
    run_benchmark,
    run_convergence,
    run_demo,
    write_benchmark_csv,
    write_benchmark_json,
    write_convergence_csv,
    write_convergence_json,
    write_demo_csv,
    write_demo_json,
)
from .kernels import FAMILIES, DesignMatrix
from .solver import (
    DEFAULT_EPSILON,
    DEFAULT_GRID_COUNT,
    load_model,
    predict,
    save_model,
    tune,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

THREADS_ENV = "HAR_THREADS"


class UsageError(Exception):
    """Bad invocation: missing required value, malformed flag or config."""


_COMMON_DEFAULTS = {
    "kernel": "har",
    "order": 0,
    "epsilon": DEFAULT_EPSILON,
    "grid": DEFAULT_GRID_COUNT,
    "seed": 0,
    "threads": None,
    "config": None,
}

DEFAULTS = {
    "fit": {**_COMMON_DEFAULTS, "data": None, "target": None, "out": None},
    "predict": {"model": None, "data": None, "out": None, "threads": None, "config": None},
    "simulate": {**_COMMON_DEFAULTS, "out": None, "out_json": None},
    "convergence": {
        **_COMMON_DEFAULTS,
        "out": None,
        "out_json": None,
        "repeats": DEFAULT_REPLICATIONS,
        "n_values": list(DEFAULT_N_VALUES),
        "test_size": DEFAULT_TEST_SIZE,
    },
    "bench": {
        **_COMMON_DEFAULTS,
        "out": None,
        "out_json": None,
        "datasets": None,
        "repeats": DEFAULT_REPEATS,
        "train_frac": BENCH_TRAIN_FRACTION,
        "max_rows": BENCH_MAX_ROWS,
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="har",
        description="Adaptive-kernel ridge regression: fit, predict, and seeded studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, kernel=True):
        p.add_argument("--config", help="JSON file of option defaults; flags win")
        p.add_argument("--threads", type=int, help="worker cap for kernel matrices; 0 = auto")
        if kernel:
            p.add_argument("--kernel", choices=FAMILIES, help="kernel family")
            p.add_argument("--order", type=int, help="spline order t for the adaptive kernel")
            p.add_argument("--epsilon", type=float, help="prediction-suppression level for the lambda bound")
            p.add_argument("--grid", type=int, help="lambda grid size")
            p.add_argument("--seed", type=int, help="master seed")

    p_fit = sub.add_parser("fit", help="tune and fit a model on a CSV, save it as JSON")
    common(p_fit)
    p_fit.add_argument("--data", help="training CSV (header row required)")
    p_fit.add_argument("--target", help="target column name; default last column")
    p_fit.add_argument("--out", help="model output path")

    p_pred = sub.add_parser("predict", help="apply a saved model to a feature CSV")
    common(p_pred, kernel=False)
    p_pred.add_argument("--model", help="model JSON from fit")
    p_pred.add_argument("--data", help="feature CSV; model's feature columns selected by name")
    p_pred.add_argument("--out", help="predictions CSV path")

    p_sim = sub.add_parser("simulate", help="1-D fit-shape study: all families on one seeded draw")
    common(p_sim)
    p_sim.add_argument("--out", help="fit-curve CSV path")
    p_sim.add_argument("--out-json", dest="out_json", help="config/selection JSON path; default derived from --out")

    p_conv = sub.add_parser("convergence", help="10-D convergence study against the benchmark decay curve")
    common(p_conv)
    p_conv.add_argument("--repeats", "--reps", dest="repeats", type=int, help="replications per sample size")
    p_conv.add_argument("--n-values", dest="n_values", help="comma-separated ascending sample sizes")
    p_conv.add_argument("--test-size", dest="test_size", type=int, help="test rows per replication")
    p_conv.add_argument("--out", help="report CSV path")
    p_conv.add_argument("--out-json", dest="out_json", help="report JSON path; default derived from --out")

    p_bench = sub.add_parser("bench", help="multi-dataset RMSE comparison over seeded splits")
    common(p_bench)
    p_bench.add_argument("--datasets", help="comma-separated CSV paths")
    p_bench.add_argument("--repeats", type=int, help="independent split/tune/test repeats")
    p_bench.add_argument("--train-frac", dest="train_frac", type=float, help="training fraction of each split")
    p_bench.add_argument("--max-rows", dest="max_rows", type=int, help="row cap applied before splitting")
    p_bench.add_argument("--out", help="report CSV path")
    p_bench.add_argument("--out-json", dest="out_json", help="report JSON path; default derived from --out")

    return parser


def _load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return doc


def _merge_config(args: argparse.Namespace) -> dict:
    """Resolve flags > config file > environment (threads) > defaults."""
    command = args.command
    defaults = DEFAULTS[command]
    cfg = dict(defaults)
    cfg["command"] = command

    if args.config is not None:
        file_cfg = _load_config_file(args.config)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise UsageError(
                f"config file keys not recognized for {command!r}: {sorted(unknown)}"
            )
        cfg.update(file_cfg)

    for key in defaults:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            cfg[key] = flag_val

    if cfg.get("threads") is None and os.environ.get(THREADS_ENV):
        try:
            cfg["threads"] = int(os.environ[THREADS_ENV])
        except ValueError:
            raise UsageError(
                f"{THREADS_ENV} must be an integer, got {os.environ[THREADS_ENV]!r}"
            ) from None

    if isinstance(cfg.get("datasets"), str):
        cfg["datasets"] = [s for s in cfg["datasets"].split(",") if s]
    if isinstance(cfg.get("n_values"), str):
        try:
            cfg["n_values"] = [int(s) for s in cfg["n_values"].split(",") if s]
        except ValueError:
            raise UsageError(f"--n-values must be comma-separated integers, got {cfg['n_values']!r}") from None

    cfg.pop("config", None)
    return cfg


def _require(cfg: dict, *keys) -> None:
    for key in keys:
        if cfg.get(key) is None:
            flag = "--" + key.replace("_", "-")
            raise UsageError(f"{flag} is required for {cfg['command']!r}")


def _derived_json_path(out) -> str:
    p = Path(out)
    if p.suffix and p.suffix != ".json":
        return str(p.with_suffix(".json"))
    return str(p) + ".config.json" if p.suffix == ".json" else str(p) + ".json"


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _echo(cfg: dict) -> dict:
    doc = {k: v for k, v in cfg.items() if k != "command"}
    doc["command"] = cfg["command"]
    doc["generator"] = GENERATOR_NAME
    return doc


# ---------------------------------------------------------------------------
# commands

def cmd_fit(cfg: dict) -> dict:
    _require(cfg, "data", "out")
    dataset = load_csv(cfg["data"], target=cfg["target"])
    scaling = fit_scaling(dataset.features)
    knots = DesignMatrix(apply_scaling(dataset.features, scaling))
    result, model = tune(
        knots, dataset.target, cfg["kernel"],
        order=cfg["order"], epsilon=cfg["epsilon"], grid_count=cfg["grid"],
        scaling=scaling, threads=cfg["threads"],
    )
    train_rmse = rmse(predict(model, knots, threads=cfg["threads"]), dataset.target)
    metadata = {
        "feature_names": list(dataset.feature_names),
        "target_name": dataset.target_name,
        "dropped_rows": dataset.n_dropped,
        "config": _echo(cfg),
    }
    save_model(model, cfg["out"], metadata=metadata)
    return {
        "command": "fit",
        "n": dataset.n,
        "p": dataset.p,
        "dropped_rows": dataset.n_dropped,
        "kernel": model.spec.to_dict(),
        "lambda": model.lam,
        "loocv_score": float(result.scores[result.selected]),
        "train_rmse": train_rmse,
        "model": str(cfg["out"]),
    }


def _prediction_column_name(names) -> str:
    name = "prediction"
    k = 1
    while name in names:
        name = f"prediction_{k}"
        k += 1
    return name


def cmd_predict(cfg: dict) -> dict:
    _require(cfg, "model", "data", "out")
    model, metadata = load_model(cfg["model"])
    header, rows, dropped = read_table(cfg["data"])

    feature_names = metadata.get("feature_names")
    names_ok = feature_names is None or (
        isinstance(feature_names, list) and all(isinstance(name, str) for name in feature_names)
    )
    if not names_ok:
        raise SchemaError(f"{cfg['model']}: metadata feature_names is not a list of column names")
    target_name = metadata.get("target_name")
    if feature_names:
        missing = [name for name in feature_names if name not in header]
        if missing:
            raise SchemaError(
                f"{cfg['data']}: missing feature columns required by the model: {missing}"
            )
        f_idx = [header.index(name) for name in feature_names]
    else:
        # model saved without column names: positional, exact width
        if len(header) != model.knots.p:
            raise SchemaError(
                f"{cfg['data']}: model records no column names, so the file must "
                f"have exactly its {model.knots.p} feature columns, got {len(header)}"
            )
        f_idx = list(range(len(header)))

    if rows.shape[0] > 0:
        features = apply_scaling(rows[:, f_idx], model.scaling)
        preds = predict(model, DesignMatrix(features), threads=cfg["threads"])
    else:
        preds = np.empty(0)

    pred_col = _prediction_column_name(header)
    with open(cfg["out"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*header, pred_col])
        for i in range(rows.shape[0]):
            writer.writerow([*(repr(float(v)) for v in rows[i]), repr(float(preds[i]))])

    summary = {
        "command": "predict",
        "rows": int(rows.shape[0]),
        "dropped_rows": dropped,
        "model": str(cfg["model"]),
        "out": str(cfg["out"]),
    }
    if target_name and target_name in header and rows.shape[0] > 0:
        summary["rmse"] = rmse(preds, rows[:, header.index(target_name)])
    return summary


def cmd_simulate(cfg: dict) -> dict:
    _require(cfg, "out")
    out_json = cfg["out_json"] or _derived_json_path(cfg["out"])
    result = run_demo(
        cfg["seed"], grid_count=cfg["grid"], epsilon=cfg["epsilon"], threads=cfg["threads"],
    )
    write_demo_csv(result, cfg["out"])
    write_demo_json(result, out_json, config={**_echo(cfg), "protocol": result.config})
    return {
        "command": "simulate",
        "out": str(cfg["out"]),
        "out_json": str(out_json),
        "chosen": result.chosen,
    }


def cmd_convergence(cfg: dict) -> dict:
    _require(cfg, "out")
    out_json = cfg["out_json"] or _derived_json_path(cfg["out"])
    report = run_convergence(
        cfg["seed"],
        n_values=cfg["n_values"],
        replications=cfg["repeats"],
        test_size=cfg["test_size"],
        grid_count=cfg["grid"],
        epsilon=cfg["epsilon"],
        threads=cfg["threads"],
        progress=_progress,
    )
    write_convergence_csv(report, cfg["out"])
    write_convergence_json(report, out_json, config={**_echo(cfg), "protocol": report.config})
    return {
        "command": "convergence",
        "out": str(cfg["out"]),
        "out_json": str(out_json),
        "first_ratio": report.rows[0].ratio,
        "last_ratio": report.rows[-1].ratio,
        "mean_rmse": [row.mean_rmse for row in report.rows],
    }


def cmd_bench(cfg: dict) -> dict:
    _require(cfg, "datasets", "out")
    out_json = cfg["out_json"] or _derived_json_path(cfg["out"])
    report = run_benchmark(
        cfg["datasets"],
        cfg["seed"],
        repeats=cfg["repeats"],
        train_fraction=cfg["train_frac"],
        max_rows=cfg["max_rows"],
        grid_count=cfg["grid"],
        epsilon=cfg["epsilon"],
        threads=cfg["threads"],
        progress=_progress,
    )
    write_benchmark_csv(report, cfg["out"])
    write_benchmark_json(report, out_json, config={**_echo(cfg), "protocol": report.config})
    return {
        "command": "bench",
        "out": str(cfg["out"]),
        "out_json": str(out_json),
        "cells": len(report.cells),
        "failures": [{"dataset": name, "error": msg} for name, msg in report.failures],
    }


_COMMANDS = {
    "fit": cmd_fit,
    "predict": cmd_predict,
    "simulate": cmd_simulate,
    "convergence": cmd_convergence,
    "bench": cmd_bench,
}


def _emit(doc: dict) -> None:
    print(json.dumps(doc, separators=(",", ":")), flush=True)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        summary = _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        _emit({"error": {"type": "UsageError", "message": str(exc)}})
        return EXIT_USAGE
    except (HarError, OSError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return EXIT_RUNTIME
    _emit(summary)
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())
