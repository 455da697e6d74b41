"""Command-line front end: fit, predict, and the three study runners.

Each option is declared once (`Option`): its flag, value type, choices,
default, whether it is required, the library check that owns its range,
and help.  argparse only splits argv; `_resolve` takes each value from four
layers, highest priority first: command-line flags, the optional
``--config file.json`` document, the ``HAR_THREADS`` environment variable
(threads only), and the declared default.  It checks a value the same way
whichever layer it came from, before any command opens a file, so a bad
value, a missing required option or an unsplittable command line is a
usage error; so is an output path that names an input or another output
(`_check_outputs`).  Every run but ``--help`` prints exactly one JSON
line to standard output (the machine-readable summary, or ``{"error":
...}``); progress, warnings and usage text go to standard error.  Exit
codes: 0 success, 1 runtime failure, 2 usage error.  Run it as ``har`` or
as ``python -m har.cli``.

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
from typing import Callable

import numpy as np

from .data import (
    SplitSpec, apply_scaling, fit_scaling, load_csv, read_json, read_table, rmse, rng_from, write_json,
    write_predictions, write_table,
)
from .exceptions import HarError, InvalidParameterError, SchemaError
from .experiments import (
    BENCH_MAX_ROWS,
    BENCH_TRAIN_FRACTION,
    DEFAULT_N_VALUES,
    DEFAULT_REPEATS,
    DEFAULT_REPLICATIONS,
    DEFAULT_TEST_SIZE,
    check_datasets,
    check_study,
    run_benchmark,
    run_convergence,
    run_demo,
)
from .kernels import FAMILIES, DesignMatrix, KernelSpec, _resolve_workers
from .solver import (
    DEFAULT_EPSILON,
    DEFAULT_GRID_COUNT,
    check_tuning,
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
    """Bad invocation: unsplittable argv, missing required option, bad value."""


class _Parser(argparse.ArgumentParser):
    """Splits argv; a command line it cannot split is a UsageError."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


@dataclass(frozen=True)
class Option:
    """One option of a command.  ``type`` parses flag and environment text
    and is the type a config-file value must have (an int is a valid float);
    with ``many`` the value is a list of ``type`` items, comma-separated on
    the command line.  A ``required`` option set in no layer is an error.
    ``check`` is the library function that owns the value's range: called
    with the typed value as keyword ``dest``, it raises InvalidParameterError."""

    flag: str
    help: str
    type: type = str
    default: object = None
    choices: tuple | None = None
    many: bool = False
    required: bool = False
    check: Callable | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


_THREADS = Option(
    "--threads", "worker cap for kernel matrices and prediction; 0 = auto", int, check=_resolve_workers
)
_TUNING = (
    Option("--epsilon", "prediction-suppression level for the lambda bound", float, DEFAULT_EPSILON,
           check=check_tuning),
    Option("--grid", "lambda grid size", int, DEFAULT_GRID_COUNT,
           check=lambda grid: check_tuning(grid_count=grid)),
    _THREADS,
)


def _study_options(csv_help: str, json_help: str) -> tuple:
    return (
        *_TUNING,
        Option("--seed", "master seed", int, 0, check=rng_from),
        Option("--out", csv_help, required=True),
        Option("--out-json", f"{json_help}; default derived from --out"),
    )


def _check(opt: Option, value, where: str):
    """The value of `opt` from flag or environment text or a config-file
    JSON value; a value off its type, choices or owner's range is a UsageError."""

    def one(item):
        accepted = (int, float) if opt.type is float else opt.type
        if isinstance(item, bool) or not isinstance(item, (str, accepted)):
            raise TypeError(item)
        item = opt.type(item)
        if opt.choices is not None and item not in opt.choices:
            raise ValueError(item)
        return item

    try:
        if opt.many:
            items = value.split(",") if isinstance(value, str) else value
            if not isinstance(items, list):
                raise TypeError(value)
            typed = [one(item) for item in items if item != ""]
        else:
            typed = one(value)
    except (TypeError, ValueError):
        kind = f"one of {list(opt.choices)}" if opt.choices else f"of type {opt.type.__name__}"
        if opt.many:
            kind = f"a comma-separated list, each item {kind}"
        raise UsageError(f"{where} must be {kind}, got {value!r}") from None
    if opt.check is not None:
        try:
            opt.check(**{opt.dest: typed})
        except InvalidParameterError as exc:
            raise UsageError(f"{where}: {exc}") from None
    return typed


def _load_config_file(path) -> dict:
    try:
        return read_json(path)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except OSError as exc:
        raise UsageError(f"config file cannot be read: {path}: {exc.strerror or exc}") from None
    except SchemaError as exc:
        raise UsageError(f"config file {exc}") from None


def _resolve(args: argparse.Namespace, options: tuple) -> dict:
    """Each option's value from the highest layer that sets it: flag, config
    file, HAR_THREADS (threads only), declared default.  A required option
    set in no layer is a UsageError."""
    file_cfg = {} if args.config is None else _load_config_file(args.config)
    unknown = set(file_cfg) - {opt.dest for opt in options}
    if unknown:
        raise UsageError(f"config file keys not recognized for {args.command!r}: {sorted(unknown)}")
    cfg = {}
    for opt in options:
        if getattr(args, opt.dest) is not None:
            cfg[opt.dest] = _check(opt, getattr(args, opt.dest), opt.flag)
        elif opt.dest in file_cfg:
            cfg[opt.dest] = _check(opt, file_cfg[opt.dest], f"config key {opt.dest!r}")
        elif opt is _THREADS and os.environ.get(THREADS_ENV):
            cfg[opt.dest] = _check(opt, os.environ[THREADS_ENV], THREADS_ENV)
        elif opt.required:
            raise UsageError(f"{opt.flag} is required for {args.command!r}")
        else:
            cfg[opt.dest] = opt.default
    cfg["command"] = args.command
    return cfg


def _derived_json_path(out) -> str:
    p = Path(out)
    if p.suffix and p.suffix != ".json":
        return str(p.with_suffix(".json"))
    return str(p) + ".config.json" if p.suffix == ".json" else str(p) + ".json"


def _check_outputs(cfg: dict, config) -> None:
    """Fill in a study's derived ``--out-json``, then refuse, as a usage
    error, an output (``--out``, ``--out-json``) that resolves to an input
    (``--config``, ``--data``, ``--model``, a ``--datasets`` path) or to
    another output.  ``predict --out`` may name its own ``--data``, which
    is read again while the output is written."""
    if "out_json" in cfg:
        cfg["out_json"] = cfg["out_json"] or _derived_json_path(cfg["out"])
    named = [("--config", config), ("--data", cfg.get("data")), ("--model", cfg.get("model"))]
    named += [("--datasets", path) for path in cfg.get("datasets") or ()]
    named = [(flag, os.path.realpath(path)) for flag, path in named if path is not None]
    for flag, path in (("--out", cfg["out"]), ("--out-json", cfg.get("out_json"))):
        if path is None:
            continue
        real = os.path.realpath(path)
        for other, other_real in named:
            if other_real == real and (cfg["command"], flag, other) != ("predict", "--out", "--data"):
                raise UsageError(f"{flag} {path} names the same file as {other}")
        named.append((flag, real))


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# commands

def cmd_fit(cfg: dict) -> dict:
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
        **result.choice(),
        "train_rmse": train_rmse,
        "model": str(cfg["out"]),
        "diagnostics": result.diagnostics,
    }


def _prediction_column_name(names) -> str:
    name = "prediction"
    k = 1
    while name in names:
        name = f"prediction_{k}"
        k += 1
    return name


def cmd_predict(cfg: dict) -> dict:
    model, metadata = load_model(cfg["model"])
    table = read_table(cfg["data"])
    header, rows, dropped = table

    feature_names = metadata.get("feature_names")
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
    write_predictions(cfg["out"], table, _prediction_column_name(header), preds)

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


def _run_study(cfg: dict, run, fields) -> dict:
    """Run a study with the shared tuning options, write its CSV table and its
    JSON twin (whose ``config`` block is the runner's own record) to the
    paths `_check_outputs` settled, and summarize it with `fields` of that
    same twin."""
    report = run(seed=cfg["seed"], grid_count=cfg["grid"], epsilon=cfg["epsilon"], threads=cfg["threads"])
    document = report.document()
    write_table(cfg["out"], *report.table())
    write_json(cfg["out_json"], document)
    return {
        "command": cfg["command"], "out": str(cfg["out"]), "out_json": str(cfg["out_json"]), **fields(document),
    }


def cmd_simulate(cfg: dict) -> dict:
    return _run_study(cfg, run_demo, lambda doc: {"chosen": doc["chosen"]})


def cmd_convergence(cfg: dict) -> dict:
    run = partial(
        run_convergence, n_values=cfg["n_values"], replications=cfg["repeats"],
        test_size=cfg["test_size"], progress=_progress,
    )
    return _run_study(cfg, run, lambda doc: {
        "first_ratio": doc["rows"][0]["ratio"],
        "last_ratio": doc["rows"][-1]["ratio"],
        "mean_rmse": [row["mean_rmse"] for row in doc["rows"]],
    })


def cmd_bench(cfg: dict) -> dict:
    run = partial(
        run_benchmark, cfg["datasets"], repeats=cfg["repeats"],
        train_fraction=cfg["train_frac"], max_rows=cfg["max_rows"], progress=_progress,
    )
    return _run_study(cfg, run, lambda doc: {"cells": len(doc["cells"]), "failures": doc["failures"]})


#: command -> (runner, help, options); each runner reads every option it
#: declares, and fit's option order is the order of its model-metadata echo
_COMMANDS = {
    "fit": (cmd_fit, "tune and fit a model on a CSV, save it as JSON", (
        Option("--kernel", "kernel family", str, "har", FAMILIES),
        Option("--order", "spline order t for the adaptive kernel", int, 0, check=KernelSpec.har),
        *_TUNING,
        Option("--data", "training CSV (header row required)", required=True),
        Option("--target", "target column name; default last column"),
        Option("--out", "model output path", required=True),
    )),
    "predict": (cmd_predict, "apply a saved model to a feature CSV", (
        _THREADS,
        Option("--model", "model JSON from fit", required=True),
        Option("--data", "feature CSV; model's feature columns selected by name", required=True),
        Option("--out", "predictions CSV path", required=True),
    )),
    "simulate": (cmd_simulate, "1-D fit-shape study: all families on one seeded draw", (
        *_study_options("fit-curve CSV path", "config/selection JSON path"),
    )),
    "convergence": (cmd_convergence, "10-D convergence study against the benchmark decay curve", (
        *_study_options("report CSV path", "report JSON path"),
        Option("--repeats", "replications per sample size", int, DEFAULT_REPLICATIONS, check=check_study),
        Option("--n-values", "comma-separated ascending sample sizes", int, DEFAULT_N_VALUES, many=True,
               check=check_study),
        Option("--test-size", "test rows per replication", int, DEFAULT_TEST_SIZE, check=check_study),
    )),
    "bench": (cmd_bench, "multi-dataset RMSE comparison over seeded splits", (
        *_study_options("report CSV path", "report JSON path"),
        Option("--datasets", "comma-separated CSV paths", many=True, required=True, check=check_datasets),
        Option("--repeats", "independent split/tune/test repeats", int, DEFAULT_REPEATS, check=check_study),
        Option("--train-frac", "training fraction of each split", float, BENCH_TRAIN_FRACTION,
               check=lambda train_frac: SplitSpec(train_fraction=train_frac)),
        Option("--max-rows", "row cap applied before splitting", int, BENCH_MAX_ROWS, check=SplitSpec),
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="har",
        description="Adaptive-kernel ridge regression: fit, predict, and seeded studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file of option defaults; flags win")
        for opt in options:
            # every value reaches _check as text; the metavar shows the choices
            metavar = "{" + ",".join(opt.choices) + "}" if opt.choices else None
            p.add_argument(opt.flag, dest=opt.dest, help=opt.help, metavar=metavar)
    return parser


def _emit(doc: dict) -> None:
    print(json.dumps(doc, separators=(",", ":")), flush=True)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        run, _, options = _COMMANDS[args.command]
        cfg = _resolve(args, options)
        _check_outputs(cfg, args.config)
        summary = run(cfg)
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
