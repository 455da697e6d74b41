"""Command-line front end: fit, predict, and the three study runners.

Each option is declared once (`Option`): its flags, value type, choices,
default and help.  A value resolves through that declaration from four
layers, highest priority first: command-line flags, the optional
``--config file.json`` document, the ``HAR_THREADS`` environment variable
(threads only), and the declared default.  Config-file and environment
values get the same type and choice checks as the flag, so a value the flag
would reject is a usage error naming the key.  Every run prints exactly one
JSON line to standard output (the machine-readable summary, or
``{"error": ...}`` on failure); progress and warnings go to standard error.
Exit codes: 0 success, 1 runtime failure, 2 usage error.  Run it as ``har``
or as ``python -m har.cli``.

Each command declares only the options its runner reads.  Model files carry
the resolved options in their metadata; a study's JSON twin carries only the
record its runner returns.  The predictions CSV (which has no side channel) is
covered by the stdout summary plus the model file it came from.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .data import apply_scaling, fit_scaling, load_csv, read_table, rmse, write_table
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


@dataclass(frozen=True)
class Option:
    """One option of a command.  ``type`` parses flag text and is the type a
    config-file value must have (an int is a valid float); with ``many`` the
    value is a list of ``type`` items, comma-separated on the command line."""

    flags: tuple
    help: str
    type: type = str
    default: object = None
    choices: tuple | None = None
    many: bool = False

    @property
    def dest(self) -> str:
        return self.flags[0][2:].replace("-", "_")


_CONFIG = Option(("--config",), "JSON file of option defaults; flags win")
_THREADS = Option(("--threads",), "worker cap for kernel matrices and prediction; 0 = auto", int)
_TUNING = (
    Option(("--epsilon",), "prediction-suppression level for the lambda bound", float, DEFAULT_EPSILON),
    Option(("--grid",), "lambda grid size", int, DEFAULT_GRID_COUNT),
    _THREADS,
)


def _study_options(csv_help: str, json_help: str) -> tuple:
    return (
        _CONFIG, *_TUNING,
        Option(("--seed",), "master seed", int, 0),
        Option(("--out",), csv_help),
        Option(("--out-json",), f"{json_help}; default derived from --out"),
    )


def _check(opt: Option, value, where: str):
    """The value of `opt` from flag or environment text or a config-file
    JSON value; anything the flag would reject is a UsageError."""

    def one(item):
        accepted = (int, float) if opt.type is float else opt.type
        if isinstance(item, bool) or not isinstance(item, (str, accepted)):
            raise TypeError(item)
        item = opt.type(item)
        if opt.choices is not None and item not in opt.choices:
            raise ValueError(item)
        return item

    try:
        if not opt.many:
            return one(value)
        items = value.split(",") if isinstance(value, str) else value
        if not isinstance(items, list):
            raise TypeError(value)
        return [one(item) for item in items if item != ""]
    except (TypeError, ValueError):
        kind = f"one of {list(opt.choices)}" if opt.choices else f"of type {opt.type.__name__}"
        if opt.many:
            kind = f"a comma-separated list, each item {kind}"
        raise UsageError(f"{where} must be {kind}, got {value!r}") from None


def _load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return doc


def _resolve(args: argparse.Namespace, options: tuple) -> dict:
    """Each option's value from the highest layer that sets it: flag, config
    file, HAR_THREADS (threads only), declared default."""
    file_cfg = {} if args.config is None else _load_config_file(args.config)
    unknown = set(file_cfg) - {opt.dest for opt in options}
    if unknown:
        raise UsageError(f"config file keys not recognized for {args.command!r}: {sorted(unknown)}")
    cfg = {}
    for opt in options:
        if getattr(args, opt.dest) is not None:
            cfg[opt.dest] = _check(opt, getattr(args, opt.dest), opt.flags[0])
        elif opt.dest in file_cfg:
            cfg[opt.dest] = _check(opt, file_cfg[opt.dest], f"config key {opt.dest!r}")
        elif opt is _THREADS and os.environ.get(THREADS_ENV):
            cfg[opt.dest] = _check(opt, os.environ[THREADS_ENV], THREADS_ENV)
        else:
            cfg[opt.dest] = opt.default
    del cfg["config"]
    cfg["command"] = args.command
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
        "config": cfg,
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

    raw = rows[:, f_idx]
    # apply_scaling moves every feature value outside the training range
    outside = (raw < model.scaling.mins) | (raw > model.scaling.maxs)
    if rows.shape[0] > 0:
        preds = predict(model, DesignMatrix(apply_scaling(raw, model.scaling)), threads=cfg["threads"])
    else:
        preds = np.empty(0)
    write_table(cfg["out"], [*header, _prediction_column_name(header)], np.column_stack([rows, preds]))

    summary = {
        "command": "predict",
        "rows": int(rows.shape[0]),
        "dropped_rows": dropped,
        "clamped_rows": int(np.count_nonzero(outside.any(axis=1))),
        "model": str(cfg["model"]),
        "out": str(cfg["out"]),
    }
    if target_name and target_name in header and rows.shape[0] > 0:
        summary["rmse"] = rmse(preds, rows[:, header.index(target_name)])
    return summary


def _run_study(cfg: dict, run, write_csv, write_json, fields) -> dict:
    """Run a study with the shared tuning options, write its CSV and its JSON
    twin (whose ``config`` block is the runner's own record), and summarize."""
    _require(cfg, "out")
    out_json = cfg["out_json"] or _derived_json_path(cfg["out"])
    report = run(seed=cfg["seed"], grid_count=cfg["grid"], epsilon=cfg["epsilon"], threads=cfg["threads"])
    write_csv(report, cfg["out"])
    write_json(report, out_json)
    return {"command": cfg["command"], "out": str(cfg["out"]), "out_json": str(out_json), **fields(report)}


def cmd_simulate(cfg: dict) -> dict:
    return _run_study(
        cfg, run_demo, write_demo_csv, write_demo_json,
        lambda result: {"chosen": result.chosen},
    )


def cmd_convergence(cfg: dict) -> dict:
    run = partial(
        run_convergence, n_values=cfg["n_values"], replications=cfg["repeats"],
        test_size=cfg["test_size"], progress=_progress,
    )
    return _run_study(
        cfg, run, write_convergence_csv, write_convergence_json,
        lambda report: {
            "first_ratio": report.rows[0].ratio,
            "last_ratio": report.rows[-1].ratio,
            "mean_rmse": [row.mean_rmse for row in report.rows],
        },
    )


def cmd_bench(cfg: dict) -> dict:
    _require(cfg, "datasets")
    run = partial(
        run_benchmark, cfg["datasets"], repeats=cfg["repeats"],
        train_fraction=cfg["train_frac"], max_rows=cfg["max_rows"], progress=_progress,
    )
    return _run_study(
        cfg, run, write_benchmark_csv, write_benchmark_json,
        lambda report: {
            "cells": len(report.cells),
            "failures": [{"dataset": name, "error": msg} for name, msg in report.failures],
        },
    )


#: command -> (runner, help, options); each runner reads every option it
#: declares, and fit's option order is the order of its model-metadata echo
_COMMANDS = {
    "fit": (cmd_fit, "tune and fit a model on a CSV, save it as JSON", (
        _CONFIG,
        Option(("--kernel",), "kernel family", str, "har", FAMILIES),
        Option(("--order",), "spline order t for the adaptive kernel", int, 0),
        *_TUNING,
        Option(("--data",), "training CSV (header row required)"),
        Option(("--target",), "target column name; default last column"),
        Option(("--out",), "model output path"),
    )),
    "predict": (cmd_predict, "apply a saved model to a feature CSV", (
        _CONFIG, _THREADS,
        Option(("--model",), "model JSON from fit"),
        Option(("--data",), "feature CSV; model's feature columns selected by name"),
        Option(("--out",), "predictions CSV path"),
    )),
    "simulate": (cmd_simulate, "1-D fit-shape study: all families on one seeded draw", (
        *_study_options("fit-curve CSV path", "config/selection JSON path"),
    )),
    "convergence": (cmd_convergence, "10-D convergence study against the benchmark decay curve", (
        *_study_options("report CSV path", "report JSON path"),
        Option(("--repeats",), "replications per sample size", int, DEFAULT_REPLICATIONS),
        Option(("--n-values",), "comma-separated ascending sample sizes", int, DEFAULT_N_VALUES, many=True),
        Option(("--test-size",), "test rows per replication", int, DEFAULT_TEST_SIZE),
    )),
    "bench": (cmd_bench, "multi-dataset RMSE comparison over seeded splits", (
        *_study_options("report CSV path", "report JSON path"),
        Option(("--datasets",), "comma-separated CSV paths", many=True),
        Option(("--repeats",), "independent split/tune/test repeats", int, DEFAULT_REPEATS),
        Option(("--train-frac",), "training fraction of each split", float, BENCH_TRAIN_FRACTION),
        Option(("--max-rows",), "row cap applied before splitting", int, BENCH_MAX_ROWS),
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="har",
        description="Adaptive-kernel ridge regression: fit, predict, and seeded studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for opt in options:
            # a list option reaches _check as text, so a bad item is a UsageError
            p.add_argument(
                *opt.flags, dest=opt.dest, help=opt.help,
                type=None if opt.many else opt.type, choices=opt.choices,
            )
    return parser


def _emit(doc: dict) -> None:
    print(json.dumps(doc, separators=(",", ":")), flush=True)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    run, _, options = _COMMANDS[args.command]
    try:
        summary = run(_resolve(args, options))
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


if __name__ == "__main__":
    entrypoint()
