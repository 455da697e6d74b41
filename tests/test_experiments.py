import csv
import dataclasses
import filecmp
import json
import math

import numpy as np
import pytest

from har import experiments
from har.data import rng_from, write_json, write_table
from har.exceptions import HarError, InvalidInputError, InvalidParameterError
from har.experiments import (
    INTERACTION_X0,
    BenchmarkCell,
    ConvergenceReport,
    ConvergenceRow,
    DemoResult,
    demo_mean,
    interaction_mean,
    run_benchmark,
    run_convergence,
    run_demo,
    simulate_demo_1d,
    simulate_interaction_10d,
    theoretical_rate,
)
from har.kernels import FAMILIES


# ---------------------------------------------------------------------------
# data-generating processes

def test_demo_mean_cases():
    assert demo_mean(np.array([-0.5]))[0] == 0.5
    assert demo_mean(np.array([0.25]))[0] == pytest.approx(1.0, rel=1e-15)
    assert demo_mean(np.array([0.0]))[0] == 0.0


def test_demo_draws():
    x, y = simulate_demo_1d(80, 5)
    assert x.shape == (80,) and np.all((x >= -1.0) & (x <= 1.0))
    x2, y2 = simulate_demo_1d(80, 5)
    assert np.array_equal(x, x2) and np.array_equal(y, y2)
    x3, _ = simulate_demo_1d(80, 6)
    assert not np.array_equal(x, x3)
    with pytest.raises(InvalidParameterError):
        simulate_demo_1d(0, 1)


def test_interaction_threshold_value():
    assert INTERACTION_X0 == pytest.approx(0.0794494367038759, abs=1e-15)
    assert INTERACTION_X0 == 1.0 - 0.5 ** 0.2 - 0.05


def test_interaction_mean_corners():
    assert interaction_mean(np.ones((1, 10)))[0] == 0.0
    left = np.array([[1, 1, 1, 1, 1, 0, 0, 0, 0, 0]], dtype=float)
    assert interaction_mean(left)[0] == 1.0
    # ramps clip to [0, 1]
    assert np.all(interaction_mean(np.random.default_rng(0).uniform(size=(50, 10))) <= 1.0)


def test_interaction_draws():
    X, y = simulate_interaction_10d(40, 9)
    assert X.shape == (40, 10) and np.all((X >= 0.0) & (X <= 1.0))
    X2, y2 = simulate_interaction_10d(40, 9)
    assert np.array_equal(X, X2) and np.array_equal(y, y2)


def test_theoretical_rate():
    for n in (100, 1600):
        assert theoretical_rate(n) == pytest.approx(n ** (-1 / 3) * math.log(n) ** 6, rel=1e-12)
    assert theoretical_rate(100, p=4) == pytest.approx(100 ** (-1 / 3) * math.log(100) ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# 1-D demo

@pytest.fixture(scope="module")
def demo():
    return run_demo(11, grid_count=25)


def test_demo_grid_and_columns(demo):
    assert demo.grid.shape == (401,)
    assert demo.grid[0] == -1.0 and demo.grid[-1] == 1.0
    assert set(demo.predictions) == {"har", "sobolev", "rbf"}
    assert all(v.shape == (401,) for v in demo.predictions.values())
    assert set(demo.chosen) == {"har", "sobolev", "rbf"}
    for choice in demo.chosen.values():
        assert choice["lambda"] > 0 and np.isfinite(choice["loocv_score"])


def test_demo_piecewise_constant_between_knots(demo):
    xs = np.sort(demo.train_x)
    har = demo.predictions["har"]
    checked = 0
    for a, b in zip(xs, xs[1:]):
        inside = (demo.grid > a) & (demo.grid < b)
        if inside.sum() >= 2:
            vals = har[inside]
            assert np.all(vals == vals[0])
            checked += 1
    assert checked >= 10


def test_demo_deterministic_files(tmp_path, demo):
    again = run_demo(11, grid_count=25)
    a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    write_table(a_csv, *demo.table())
    write_table(b_csv, *again.table())
    assert filecmp.cmp(a_csv, b_csv, shallow=False)
    a_json, b_json = tmp_path / "a.json", tmp_path / "b.json"
    write_json(a_json, demo.document())
    write_json(b_json, again.document())
    assert filecmp.cmp(a_json, b_json, shallow=False)


def test_demo_csv_round_trips_values(tmp_path, demo):
    path = tmp_path / "demo.csv"
    write_table(path, *demo.table())
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "truth", "har", "sobolev", "rbf"]
    assert len(rows) == 402
    got = np.array([[float(c) for c in row] for row in rows[1:]])
    assert np.array_equal(got[:, 0], demo.grid)
    assert np.array_equal(got[:, 2], demo.predictions["har"])


# ---------------------------------------------------------------------------
# convergence study

def test_convergence_report_shape_and_writers(tmp_path):
    rep = run_convergence(4, n_values=(20, 40), replications=2, test_size=100, grid_count=5)
    assert [row.n for row in rep.rows] == [20, 40]
    for row in rep.rows:
        assert row.ratio == pytest.approx(row.mean_rmse / row.theoretical_rate, rel=1e-15)
    csv_path, json_path = tmp_path / "c.csv", tmp_path / "c.json"
    write_table(csv_path, *rep.table())
    write_json(json_path, rep.document())
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "mean_rmse", "theoretical_rate", "ratio"]
    assert float(rows[1][1]) == rep.rows[0].mean_rmse
    doc = json.loads(json_path.read_text())
    assert doc["config"]["seed"] == 4
    assert len(doc["rmse_by_replication"]["20"]) == 2


def test_convergence_rate_block_is_the_least_squares_slope():
    rep = run_convergence(4, n_values=(20, 40, 80), replications=3, test_size=100, grid_count=5)
    rate = rep.document()["rate"]
    log_n = np.log([20, 40, 80])
    mean = np.log([row.mean_rmse for row in rep.rows])
    assert rate["slope"] == float(np.polyfit(log_n, mean, 1)[0])
    slopes = [
        float(np.polyfit(log_n, np.log([rep.rmse_table[str(n)][r] for n in (20, 40, 80)]), 1)[0])
        for r in range(3)
    ]
    assert rate["replication_slopes"] == {
        "min": min(slopes), "median": sorted(slopes)[1], "max": max(slopes),
    }
    assert rate["reference_exponent"] == -1 / 3


def test_convergence_rate_block_null_at_one_size(tmp_path):
    rep = run_convergence(2, n_values=(15,), replications=2, test_size=10, grid_count=3)
    json_path = tmp_path / "c.json"
    write_json(json_path, rep.document())
    rate = json.loads(json_path.read_text())["rate"]
    assert rate == {"slope": None, "replication_slopes": None, "reference_exponent": -1 / 3}


def test_convergence_deterministic(tmp_path):
    r1 = run_convergence(4, n_values=(20, 40), replications=2, test_size=100, grid_count=5)
    r2 = run_convergence(4, n_values=(20, 40), replications=2, test_size=100, grid_count=5)
    assert [a.mean_rmse for a in r1.rows] == [b.mean_rmse for b in r2.rows]


def test_convergence_validation():
    with pytest.raises(InvalidParameterError):
        run_convergence(1, n_values=(40, 20), replications=1, test_size=10)
    with pytest.raises(InvalidParameterError):
        run_convergence(1, n_values=(), replications=1, test_size=10)
    with pytest.raises(InvalidParameterError):
        run_convergence(1, n_values=(10,), replications=0, test_size=10)
    with pytest.raises(InvalidParameterError, match="strictly increasing"):
        ConvergenceReport(config={}, rmse_table={"20": [0.1], "10": [0.1]})
    with pytest.raises(InvalidInputError, match="^rmse_table contains NaN or infinite entries$"):
        ConvergenceReport(config={}, rmse_table={"10": [math.nan]})
    with pytest.raises(InvalidInputError, match="non-finite report value at n=10"):
        ConvergenceRow(10, math.nan)


def test_study_records_derive_their_summaries():
    # every summary a record holds is computed from what it was built from,
    # so a report cannot state a mean, rate or ratio its table does not give
    with pytest.raises(TypeError):
        ConvergenceReport(rows=(ConvergenceRow(10, 0.5, 1.0, 7.0),), config={}, rmse_table={"10": [0.1]})
    table = {"10": [0.2, 0.4], "20": [0.1, 0.3], "40": [0.05, 0.15]}
    rep = ConvergenceReport(config={}, rmse_table=table)
    assert [row.n for row in rep.rows] == [10, 20, 40]
    for row, rmses in zip(rep.rows, table.values()):
        assert row.mean_rmse == np.mean(rmses)
        assert row.theoretical_rate == theoretical_rate(row.n)
        assert row.ratio == np.mean(rmses) / theoretical_rate(row.n)
    assert rep.document()["rows"] == [dataclasses.asdict(row) for row in rep.rows]
    assert ConvergenceReport(config={}, rmse_table={"10": [0.1]}).rows == (ConvergenceRow(10, 0.1),)

    cell = BenchmarkCell("d", "har", 50, 2, 1.5, (0.1, 0.3))
    assert cell.mean_rmse == np.mean([0.1, 0.3]) and cell.sd_rmse == np.std([0.1, 0.3], ddof=1)
    one = BenchmarkCell("d", "har", 50, 2, 1.5, (0.2,))
    assert one.mean_rmse == 0.2 and one.sd_rmse == 0.0

    grid = np.linspace(-1.0, 1.0, 7)
    demo = DemoResult(grid=grid, predictions={}, chosen={}, train_x=grid, train_y=grid, config={})
    assert np.array_equal(demo.truth, demo_mean(grid))

    for bad in ({"10": [0.1], "20": [0.1, 0.2]}, {}, {"10": []}, {"1": [0.1]}, {"1": [0.1], "5": [0.1]}, {"x": [0.1]}):
        with pytest.raises(HarError):
            ConvergenceReport(config={}, rmse_table=bad)
    with pytest.raises(InvalidParameterError, match="n=1"):
        ConvergenceRow(1, 0.1)


def test_benchmark_cell_rejects_no_repeats():
    # before any mean is taken: the mean of no repeats warns and records nan
    with pytest.raises(InvalidParameterError, match="rmses"):
        BenchmarkCell("d", "har", 1, 1, 0.0, ())


def test_convergence_rejects_n_below_two():
    # the benchmark curve is 0 at n=1, so its ratio would divide by zero
    with pytest.raises(InvalidParameterError, match="n=1"):
        run_convergence(1, n_values=(1, 5), replications=1, test_size=10, grid_count=3)


def test_convergence_single_cell_well_formed():
    rep = run_convergence(2, n_values=(15,), replications=1, test_size=1, grid_count=3)
    assert len(rep.rows) == 1 and np.isfinite(rep.rows[0].mean_rmse)


# ---------------------------------------------------------------------------
# dataset benchmark

@pytest.fixture
def bench_files(tmp_path):
    rng = rng_from(99, "bench-files")
    paths = []
    for name, n, p in [("one", 90, 3), ("two", 70, 2)]:
        X = rng.uniform(-2, 2, size=(n, p))
        y = X[:, 0] ** 2 + 0.1 * rng.standard_normal(n)
        path = tmp_path / f"{name}.csv"
        lines = [",".join([f"f{j}" for j in range(p)] + ["y"])]
        for i in range(n):
            lines.append(",".join(repr(float(v)) for v in X[i]) + "," + repr(float(y[i])))
        path.write_text("\n".join(lines) + "\n")
        paths.append(str(path))
    return paths


def test_benchmark_cells_and_failures(bench_files, tmp_path):
    rep = run_benchmark(
        bench_files + [str(tmp_path / "absent.csv")], 7, repeats=2, grid_count=5,
    )
    assert len(rep.cells) == 6  # 2 datasets x 3 methods
    assert {c.method for c in rep.cells} == {"har", "sobolev", "rbf"}
    assert len(rep.failures) == 1 and rep.failures[0][0] == "absent"
    for c in rep.cells:
        assert len(c.rmses) == 2 and np.isfinite(c.mean_rmse)
        assert c.sd_rmse >= 0.0 and c.wall_clock_seconds > 0.0
        assert c.mean_rmse == pytest.approx(np.mean(c.rmses), rel=1e-15)


def test_benchmark_deterministic_modulo_timing(bench_files):
    r1 = run_benchmark(bench_files, 5, repeats=2, grid_count=5)
    r2 = run_benchmark(bench_files, 5, repeats=2, grid_count=5)
    for a, b in zip(r1.cells, r2.cells):
        assert a.rmses == b.rmses and a.dataset == b.dataset and a.method == b.method


def test_benchmark_writers(bench_files, tmp_path):
    rep = run_benchmark(bench_files, 5, repeats=2, grid_count=5)
    csv_path, json_path = tmp_path / "b.csv", tmp_path / "b.json"
    write_table(csv_path, *rep.table())
    write_json(json_path, rep.document())
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["dataset", "method", "n", "p", "mean_rmse", "sd_rmse", "wall_clock_seconds"]
    assert len(rows) == 7
    doc = json.loads(json_path.read_text())
    assert len(doc["cells"]) == 6 and doc["config"]["repeats"] == 2


def test_benchmark_programming_error_propagates(bench_files, monkeypatch):
    # only package and I/O errors count as dataset failures; a bug must surface
    def broken(*args, **kwargs):
        raise TypeError("bug in the benchmark loop")

    monkeypatch.setattr(experiments, "_bench_one_dataset", broken)
    with pytest.raises(TypeError, match="bug in the benchmark loop"):
        run_benchmark(bench_files, 1, repeats=1, grid_count=5)


def test_benchmark_validation(bench_files):
    with pytest.raises(InvalidParameterError):
        run_benchmark(bench_files, 1, repeats=0)


def test_benchmark_takes_a_generator_of_paths_once(bench_files):
    rep = run_benchmark((p for p in bench_files[:1]), 2, repeats=1, grid_count=3)
    assert len(rep.cells) == len(FAMILIES) and rep.config["datasets"] == bench_files[:1]


def test_benchmark_rejects_two_paths_with_one_stem(bench_files, tmp_path, monkeypatch):
    # the stem names the cells and keys the split seeds, so two "one" datasets
    # could not be told apart; no file is opened before the rejection
    other = tmp_path / "elsewhere" / "one.csv"
    monkeypatch.setattr(experiments, "load_csv", lambda path: pytest.fail(f"opened {path}"))
    with pytest.raises(InvalidParameterError, match="stem 'one'"):
        run_benchmark([bench_files[0], bench_files[1], str(other)], 1, repeats=1)


@pytest.mark.parametrize(
    "param",
    [
        {"train_fraction": 1.5}, {"max_rows": 1}, {"grid_count": 0}, {"epsilon": 2.0},
        {"threads": -1}, {"seed": -1},
    ],
    ids=lambda param: next(iter(param)),
)
def test_benchmark_bad_study_parameter_raises_before_any_dataset(tmp_path, param):
    # a bad study parameter is no failure of a dataset: it raises even when
    # the only dataset is missing
    with pytest.raises(InvalidParameterError):
        run_benchmark([str(tmp_path / "absent.csv")], **{"seed": 1, "repeats": 1, **param})
