"""Seeded empirical studies: fit shapes in 1-D, convergence rate in 10-D,
and a multi-dataset RMSE comparison.

Three runners, each a pure function of (config, seed):

* `run_demo` draws a small 1-D training set from a piecewise mean (linear
  left of zero, sinusoidal right), tunes each kernel family on it, and
  tabulates predictions over a dense grid next to the true mean.

* `run_convergence` draws 10-D training sets of increasing size from a
  two-interaction mean, tunes the order-0 adaptive kernel on each, and
  reports mean test RMSE against the benchmark curve
  n^{-1/3} (log n)^{2(p-1)/3}.

* `run_benchmark` splits user-supplied CSV datasets 80/20, tunes every
  kernel family on the same split, and aggregates test RMSE over repeats.

Each runner returns a report that owns the layout of its two files:
`table()` gives the CSV header and rows for `data.write_table`, and
`document()` the JSON twin for `data.write_json`.

Every random draw flows through `rng_from(seed, *key)` with a fixed string
key per purpose, so cells are independent of execution order: the test draw
for replication r uses key ("convergence", "test", r), the training draw
for size n uses ("convergence", "train", n, r), and the split seed for a
benchmark dataset uses ("bench", name, r, "split-seed").  Any order of
the cells therefore produces the same report.  Within one generator,
features are drawn before noise.

Each report is built from what its runner measured (the demo's grid and
fits, each replication's RMSE, each repeat's RMSE) and derives its
summaries from that once, so no report can contradict itself.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .data import (
    GENERATOR_NAME,
    Dataset,
    SplitSpec,
    apply_scaling,
    fit_scaling,
    load_csv,
    rmse,
    rng_from,
    split_dataset,
)
from .exceptions import HarError, InvalidInputError, InvalidParameterError, _as_matrix, _check_int
from .kernels import FAMILIES, FAMILY_HAR, DesignMatrix, _resolve_workers
from .solver import DEFAULT_EPSILON, DEFAULT_GRID_COUNT, check_tuning, predict, tune

DEMO_N = 50
DEMO_NOISE_SD = 0.3
DEMO_GRID_SIZE = 401

INTERACTION_P = 10
INTERACTION_NOISE_SD = 0.1
INTERACTION_RAMP = 0.05
#: threshold placing the second interaction's ramp so each product has mean 1/2
INTERACTION_X0 = 1.0 - 0.5 ** 0.2 - INTERACTION_RAMP

DEFAULT_N_VALUES = (100, 200, 400, 800, 1600)
DEFAULT_REPLICATIONS = 10
DEFAULT_TEST_SIZE = 10_000

DEFAULT_REPEATS = 5
BENCH_TRAIN_FRACTION = 0.8
BENCH_MAX_ROWS = 2000

#: the sample size of a public draw
_check_draw_size = partial(_check_int, "n", low=1)


# ---------------------------------------------------------------------------
# data-generating processes

def demo_mean(x: np.ndarray) -> np.ndarray:
    """-x left of zero, sin(2 pi x) right of it; continuous at 0."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x <= 0.0, -x, np.sin(2.0 * np.pi * x))


def simulate_demo_1d(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n draws of X ~ Unif[-1, 1], Y = mean(X) + N(0, 0.3^2)."""
    n = _check_draw_size(n)
    rng = rng_from(seed, "demo")
    x = rng.uniform(-1.0, 1.0, size=n)
    y = demo_mean(x) + DEMO_NOISE_SD * rng.standard_normal(n)
    return x, y


def interaction_mean(X: np.ndarray) -> np.ndarray:
    """Product of features 1-5 minus a product of steep ramps of features
    6-10; each factor group multiplies to mean about one half."""
    X = np.asarray(X, dtype=np.float64)
    smooth = np.prod(X[:, :5], axis=1)
    ramps = np.clip((X[:, 5:10] - INTERACTION_X0) / INTERACTION_RAMP, 0.0, 1.0)
    return smooth - np.prod(ramps, axis=1)


def _draw_interaction(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n draws of X ~ Unif[0,1]^10, then Y = mean(X) + N(0, 0.1^2), from `rng`."""
    X = rng.uniform(size=(n, INTERACTION_P))
    return X, interaction_mean(X) + INTERACTION_NOISE_SD * rng.standard_normal(n)


def simulate_interaction_10d(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n draws of X ~ Unif[0,1]^10, Y = mean(X) + N(0, 0.1^2)."""
    n = _check_draw_size(n)
    return _draw_interaction(rng_from(seed, "interaction"), n)


def theoretical_rate(n: int, p: int = INTERACTION_P) -> float:
    """Benchmark decay curve n^{-1/3} (ln n)^{2(p-1)/3}."""
    return float(n) ** (-1.0 / 3.0) * math.log(n) ** (2.0 * (p - 1) / 3.0)


# ---------------------------------------------------------------------------
# 1-D demo

@dataclass(frozen=True, eq=False)
class DemoResult:
    grid: np.ndarray
    truth: np.ndarray = field(init=False)  # demo_mean(grid)
    predictions: dict
    chosen: dict
    train_x: np.ndarray
    train_y: np.ndarray
    config: dict

    def __post_init__(self):
        object.__setattr__(self, "truth", demo_mean(self.grid))

    def table(self) -> tuple:
        """CSV header and rows: the grid, the true mean, each family's fit."""
        families = list(self.predictions)
        columns = [self.grid, self.truth, *(self.predictions[f] for f in families)]
        return ["x", "truth", *families], np.column_stack(columns)

    def document(self) -> dict:
        """The JSON twin: the run's record, each family's choice, the draw."""
        return {
            "config": self.config,
            "chosen": self.chosen,
            "train": {"x": self.train_x.tolist(), "y": self.train_y.tolist()},
        }


def run_demo(
    seed: int,
    *,
    grid_count: int = DEFAULT_GRID_COUNT,
    epsilon: float = DEFAULT_EPSILON,
    threads: int | None = None,
) -> DemoResult:
    """Tune all three kernel families on one draw of DEMO_N 1-D points and
    tabulate their fits over DEMO_GRID_SIZE evenly spaced points spanning
    [-1, 1]."""
    x_train, y_train = simulate_demo_1d(DEMO_N, seed)
    scaling = fit_scaling(x_train[:, None])
    knots = DesignMatrix(apply_scaling(x_train[:, None], scaling))

    grid = np.linspace(-1.0, 1.0, DEMO_GRID_SIZE)
    grid_scaled = DesignMatrix(apply_scaling(grid[:, None], scaling))

    predictions = {}
    chosen = {}
    for family in FAMILIES:
        result, model = tune(
            knots, y_train, family, order=0, epsilon=epsilon, grid_count=grid_count, threads=threads,
        )
        predictions[family] = predict(model, grid_scaled, threads=threads)
        chosen[family] = result.choice()
    config = {
        "operation": "demo",
        "seed": int(seed),
        "n": DEMO_N,
        "grid_size": DEMO_GRID_SIZE,
        "grid_count": int(grid_count),
        "epsilon": float(epsilon),
        "generator": GENERATOR_NAME,
    }
    return DemoResult(
        grid=grid, predictions=predictions,
        chosen=chosen, train_x=x_train, train_y=y_train, config=config,
    )


# ---------------------------------------------------------------------------
# convergence study

@dataclass(frozen=True)
class ConvergenceRow:
    """One sample size's mean RMSE, with the benchmark curve at that size and
    the RMSE's ratio to it."""

    n: int
    mean_rmse: float
    theoretical_rate: float = field(init=False)
    ratio: float = field(init=False)

    def __post_init__(self):
        rate = theoretical_rate(_check_int("n", self.n, 2, why="the rate is 0 at n=1"))
        object.__setattr__(self, "theoretical_rate", rate)
        object.__setattr__(self, "ratio", self.mean_rmse / rate)
        if not all(math.isfinite(v) for v in astuple(self)):
            raise InvalidInputError(f"non-finite report value at n={self.n}")


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """A convergence study from its replication table: ``rmse_table`` maps
    each sample size, as text and increasing, to its per-replication RMSEs,
    and ``rows`` holds their means."""

    rows: tuple = field(init=False)
    config: dict
    rmse_table: dict

    def __post_init__(self):
        errors = _as_matrix(list(self.rmse_table.values()), "rmse_table")
        sizes = check_study(n_values=(int(n) if str(n).isdigit() else n for n in self.rmse_table))
        rows = tuple(ConvergenceRow(n, float(rmses.mean())) for n, rmses in zip(sizes, errors))
        object.__setattr__(self, "rows", rows)

    def table(self) -> tuple:
        """CSV header and rows: one row per sample size."""
        return [f.name for f in fields(ConvergenceRow)], [astuple(row) for row in self.rows]

    def document(self) -> dict:
        """The JSON twin: the run's record, the rows, every replication's RMSE
        and the rate they show.

        ``rate`` holds the least-squares slope of log mean RMSE on log n and
        the min, median and max of the same slope per replication, next to
        the paper's exponent -1/3.  Both need two sizes; below that they are
        None (JSON null).
        """
        log_n = np.log([row.n for row in self.rows])
        slope = replication_slopes = None
        if len(self.rows) >= 2:
            slope = float(np.polyfit(log_n, np.log([row.mean_rmse for row in self.rows]), 1)[0])
            by_replication = np.transpose(list(self.rmse_table.values()))
            slopes = [np.polyfit(log_n, np.log(rmses), 1)[0] for rmses in by_replication]
            replication_slopes = {
                "min": float(np.min(slopes)), "median": float(np.median(slopes)), "max": float(np.max(slopes)),
            }
        return {
            "config": self.config,
            "rows": [asdict(row) for row in self.rows],
            "rmse_by_replication": self.rmse_table,
            "rate": {
                "slope": slope,
                "replication_slopes": replication_slopes,
                "reference_exponent": -1 / 3,
            },
        }


def _sequence(name: str, items, what: str) -> tuple:
    """`items` taken once as a tuple (a generator works); a non-iterable is
    InvalidParameterError."""
    try:
        return tuple(items)
    except TypeError:  # not iterable
        raise InvalidParameterError(f"{name} must be a sequence of {what}, got {items!r}") from None


def check_study(*, n_values=DEFAULT_N_VALUES, repeats: int = 1, test_size: int = 1) -> tuple:
    """The one owner of the study size rules (strictly increasing sample
    sizes from 2 up, at least one repeat and one test row), for the runners,
    the sizes of a `ConvergenceReport`, and callers that check before they
    draw or read any data.  Returns n_values as a tuple of ints."""
    n_values = tuple(
        _check_int("each n_values item", n, 2, why="the rate is 0 at n=1")
        for n in _sequence("n_values", n_values, "sample sizes")
    )
    if len(n_values) == 0 or any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise InvalidParameterError("n_values must be non-empty and strictly increasing")
    _check_int("repeats", repeats, 1)
    _check_int("test_size", test_size, 1)
    return n_values


def check_datasets(datasets) -> tuple:
    """The one owner of the dataset path rules (a sequence of ``str`` or
    ``os.PathLike`` paths, taken once so a generator works, at least one,
    no two sharing a file stem, which names the dataset's cells and keys its
    split seeds), for `run_benchmark` and callers that check before any file
    is read.  Returns the paths and their stems as two tuples."""
    if isinstance(datasets, (str, os.PathLike)):
        raise InvalidParameterError(f"dataset_paths must be a list of paths, not the one path {datasets!r}")
    paths = _sequence("dataset_paths", datasets, "paths")
    if not paths:
        raise InvalidParameterError("dataset_paths must name at least one path")
    names = []
    for path in paths:
        if not isinstance(path, (str, os.PathLike)):
            raise InvalidParameterError(f"each dataset_paths item must be a path, got {path!r}")
        name = Path(path).stem
        if name in names:
            raise InvalidParameterError(f"two dataset_paths share the file stem {name!r}")
        names.append(name)
    return paths, tuple(names)


def run_convergence(
    seed: int,
    *,
    n_values=DEFAULT_N_VALUES,
    replications: int = DEFAULT_REPLICATIONS,
    test_size: int = DEFAULT_TEST_SIZE,
    grid_count: int = DEFAULT_GRID_COUNT,
    epsilon: float = DEFAULT_EPSILON,
    threads: int | None = None,
    progress=None,
) -> ConvergenceReport:
    """Tuned order-0 fits at each training size, averaged over replications.

    Each replication draws one test set, shared across all training sizes of
    that replication, so the RMSE differences across n come from training
    alone.  Training features are drawn on the unit cube and used unscaled.
    `progress`, if given, is called with a short string after each cell.
    """
    n_values = check_study(n_values=n_values, repeats=replications, test_size=test_size)

    errors = np.zeros((len(n_values), replications))
    for r in range(replications):
        X_test, y_test = _draw_interaction(rng_from(seed, "convergence", "test", r), test_size)
        test = DesignMatrix(X_test)
        for i, n in enumerate(n_values):
            X_train, y_train = _draw_interaction(rng_from(seed, "convergence", "train", n, r), n)
            _, model = tune(
                DesignMatrix(X_train), y_train, FAMILY_HAR,
                order=0, epsilon=epsilon, grid_count=grid_count, threads=threads,
            )
            errors[i, r] = rmse(predict(model, test, threads=threads), y_test)
            if progress is not None:
                progress(f"convergence n={n} replication {r + 1}/{replications} rmse={errors[i, r]:.4f}")

    config = {
        "operation": "convergence",
        "seed": int(seed),
        "n_values": list(n_values),
        "replications": int(replications),
        "test_size": int(test_size),
        "grid_count": int(grid_count),
        "epsilon": float(epsilon),
        "p": INTERACTION_P,
        "generator": GENERATOR_NAME,
    }
    rmse_table = {str(n): [float(v) for v in errors[i]] for i, n in enumerate(n_values)}
    return ConvergenceReport(config=config, rmse_table=rmse_table)


# ---------------------------------------------------------------------------
# dataset benchmark

@dataclass(frozen=True)
class BenchmarkCell:
    """One method on one dataset: each repeat's test RMSE, their mean and
    sample standard deviation (0.0 for one repeat), and the summed time."""

    dataset: str
    method: str
    n: int
    p: int
    mean_rmse: float = field(init=False)
    sd_rmse: float = field(init=False)
    wall_clock_seconds: float
    rmses: tuple  # last: the CSV table leaves it out

    def __post_init__(self):
        vals = np.array(self.rmses)
        if vals.size == 0:
            raise InvalidParameterError("rmses must hold at least one repeat's RMSE, got none")
        object.__setattr__(self, "mean_rmse", float(vals.mean()))
        object.__setattr__(self, "sd_rmse", float(vals.std(ddof=1)) if len(vals) > 1 else 0.0)


@dataclass(frozen=True, eq=False)
class BenchmarkReport:
    cells: tuple
    failures: tuple  # (dataset name, error message) pairs
    config: dict

    def table(self) -> tuple:
        """CSV header and rows: one row per cell, without its per-repeat RMSEs."""
        return [f.name for f in fields(BenchmarkCell)][:-1], [astuple(c)[:-1] for c in self.cells]

    def document(self) -> dict:
        """The JSON twin: the run's record, every cell, every failed dataset."""
        return {
            "config": self.config,
            "cells": [asdict(c) for c in self.cells],
            "failures": [{"dataset": name, "error": msg} for name, msg in self.failures],
        }


def _bench_one_dataset(
    name: str,
    dataset: Dataset,
    repeats: int,
    seed: int,
    *,
    split: SplitSpec,
    grid_count: int,
    epsilon: float,
    threads,
    progress,
) -> list:
    per_method = {m: [] for m in FAMILIES}
    walls = {m: 0.0 for m in FAMILIES}
    n_used = p_used = None
    for r in range(repeats):
        split_seed = int(rng_from(seed, "bench", name, r, "split-seed").integers(0, 2**32))
        train, test = split_dataset(dataset, replace(split, seed=split_seed))
        n_used, p_used = train.n + test.n, train.p
        scaling = fit_scaling(train.features)
        knots = DesignMatrix(apply_scaling(train.features, scaling))
        test_scaled = DesignMatrix(apply_scaling(test.features, scaling))
        for method in FAMILIES:
            t0 = time.perf_counter()
            _, model = tune(
                knots, train.target, method, order=0, epsilon=epsilon, grid_count=grid_count, threads=threads,
            )
            err = rmse(predict(model, test_scaled, threads=threads), test.target)
            walls[method] += time.perf_counter() - t0
            per_method[method].append(err)
            if progress is not None:
                progress(f"bench {name} {method} repeat {r + 1}/{repeats} rmse={err:.4f}")
    return [
        BenchmarkCell(name, method, n_used, p_used, walls[method], tuple(per_method[method]))
        for method in FAMILIES
    ]


def run_benchmark(
    dataset_paths,
    seed: int,
    *,
    repeats: int = DEFAULT_REPEATS,
    train_fraction: float = BENCH_TRAIN_FRACTION,
    max_rows=BENCH_MAX_ROWS,
    grid_count: int = DEFAULT_GRID_COUNT,
    epsilon: float = DEFAULT_EPSILON,
    threads: int | None = None,
    progress=None,
) -> BenchmarkReport:
    """Tune every kernel family in `FAMILIES` on shared splits of each
    dataset, `repeats` times; each (dataset, family) pair is one cell.

    Within a repeat all families see the same train/test rows.  The study's
    own parameters are checked before any dataset is opened, `dataset_paths`
    by `check_datasets`.  A dataset that fails to load or fit (a package
    error or an I/O error) is recorded under `failures` and the run
    continues; any other exception is a bug and propagates.  Target column
    is the last column of each file.
    """
    dataset_paths, names = check_datasets(dataset_paths)
    check_study(repeats=repeats)
    rng_from(seed)
    _resolve_workers(threads)
    check_tuning(epsilon, grid_count)
    split = SplitSpec(train_fraction=train_fraction, max_rows=max_rows)
    cells = []
    failures = []
    for name, path in zip(names, dataset_paths):
        try:
            dataset = load_csv(path)
            cells.extend(_bench_one_dataset(
                name, dataset, repeats, seed,
                split=split, grid_count=grid_count, epsilon=epsilon,
                threads=threads, progress=progress,
            ))
        except (HarError, OSError) as exc:
            failures.append((name, f"{type(exc).__name__}: {exc}"))
    config = {
        "operation": "bench",
        "seed": int(seed),
        "datasets": [str(p) for p in dataset_paths],
        "methods": list(FAMILIES),
        "repeats": int(repeats),
        "train_fraction": float(train_fraction),
        "max_rows": None if max_rows is None else int(max_rows),
        "grid_count": int(grid_count),
        "epsilon": float(epsilon),
        "generator": GENERATOR_NAME,
    }
    return BenchmarkReport(cells=tuple(cells), failures=tuple(failures), config=config)
