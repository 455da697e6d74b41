"""Every numeric parameter of a public entry point is checked by one of the
two range owners in ``har.exceptions``: a value of the wrong type (a string,
a bool, a float where a count is wanted) or outside its range raises
InvalidParameterError, never a bare TypeError, a numpy error or a silent
coercion.  Every array input goes through one of the two array owners there:
a fault in it raises InvalidInputError or DimensionMismatchError, never a
bare ValueError."""

from pathlib import Path

import numpy as np
import pytest

from har.basis import explicit_ridge_fit
from har.data import Dataset, ScalingParams, SplitSpec, apply_scaling, fit_scaling, rng_from, split_dataset
from har.exceptions import DimensionMismatchError, InvalidInputError, InvalidParameterError
from har.experiments import (
    check_datasets,
    check_study,
    run_benchmark,
    run_convergence,
    simulate_demo_1d,
    simulate_interaction_10d,
)
from har.kernels import DesignMatrix, KernelSpec, gram_matrix, mixed_sobolev_kernel, rbf_kernel
from har.solver import FittedModel, check_tuning, fit, lambda_grid, loocv_errors, tune

KNOTS = DesignMatrix(rng_from(0, "checks").uniform(size=(6, 2)))
Y = rng_from(0, "checks", "y").standard_normal(6)
HAR0 = KernelSpec.har(0)
DATASET = Dataset(features=KNOTS.values, target=Y, feature_names=("a", "b"), target_name="y")


def _model(lam):
    return FittedModel(knots=KNOTS, spec=HAR0, lam=lam, alpha=np.zeros(6), scaling=ScalingParams.identity(2))


def _convergence(**bad):
    small = dict(n_values=(20, 40), replications=1, test_size=10, grid_count=3)
    return run_convergence(0, **{**small, **bad})


#: entry point -> (call with the value under test, off-type and out-of-range values)
ENTRY_POINTS = {
    "rng_from.seed": (rng_from, ["0", True, 0.0, -1]),
    "rng_from.key": (lambda v: rng_from(0, v), [1.5, True, None]),
    "SplitSpec.train_fraction": (lambda v: SplitSpec(train_fraction=v), ["0.5", True, 0.0, 1.0, float("nan")]),
    "split_dataset.max_rows": (lambda v: split_dataset(DATASET, SplitSpec(max_rows=v)), [5.5, "5", True, 1]),
    "KernelSpec.order": (KernelSpec.har, ["1", True, 1.0, -1, 13]),
    "KernelSpec.bandwidth": (KernelSpec.rbf, [None, True, [1.0], 0.0, "-1", float("inf"), "1.5", "abc"]),
    "gram_matrix.threads": (lambda v: gram_matrix(KNOTS, HAR0, threads=v), ["2", True, 2.0, -1]),
    "FittedModel.lam": (_model, ["0.5", True, -1.0, float("nan"), float("inf")]),
    "fit.lam": (lambda v: fit(KNOTS, Y, HAR0, v), ["0.5", True, None, -1.0, float("nan")]),
    "loocv_errors.lam": (lambda v: loocv_errors(gram_matrix(KNOTS, HAR0), Y, v), ["1", True, 0.0, -1.0]),
    "check_tuning.epsilon": (check_tuning, ["0.1", True, 0.0, 1.0, float("nan")]),
    "check_tuning.grid_count": (lambda v: check_tuning(grid_count=v), ["5", True, 5.0, 0]),
    "tune.grid_count": (lambda v: tune(KNOTS, Y, "har", grid_count=v), ["5", 5.0, 0]),
    "lambda_grid.lambda0": (lambda_grid, ["1", True, 0.0, float("inf")]),
    "explicit_ridge_fit.lam": (lambda v: explicit_ridge_fit(KNOTS, Y, 0, v), [None, "1", True, 0.0]),
    "simulate_demo_1d.n": (lambda v: simulate_demo_1d(v, 0), [2.5, "5", True, 0]),
    "simulate_interaction_10d.n": (lambda v: simulate_interaction_10d(v, 0), [2.5, "5", True, 0]),
    "run_convergence.replications": (lambda v: _convergence(replications=v), [1.5, "1", True, 0]),
    "run_convergence.test_size": (lambda v: _convergence(test_size=v), [2.5, "10", True, 0]),
    "run_convergence.n_values": (lambda v: _convergence(n_values=v), [(20.5, 40), ("20", "40"), (1, 5), 5, None]),
    "check_study.repeats": (lambda v: check_study(repeats=v), [1.0, "1", True, 0]),
    "run_benchmark.repeats": (lambda v: run_benchmark(["absent.csv"], 0, repeats=v), [1.5, "1", 0]),
    "run_benchmark.dataset_paths": (
        lambda v: run_benchmark(v, 0, repeats=1), ["a.csv", Path("a.csv"), 5, None, [5], ["a.csv", None]]
    ),
    "check_datasets": (check_datasets, ["a.csv", Path("a.csv"), 5, None, [5], ["a/x.csv", Path("b/x.csv")], []]),
}


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, value, id=f"{name}={value!r}")
        for name, (call, values) in ENTRY_POINTS.items()
        for value in values
    ],
)
def test_numeric_parameter_off_type_or_range_is_invalid_parameter(call, value):
    with pytest.raises(InvalidParameterError):
        call(value)


def test_numpy_scalars_are_accepted():
    assert KernelSpec.har(np.int64(2)).order == 2
    assert SplitSpec(train_fraction=np.float32(0.5), max_rows=np.int64(10)).max_rows == 10
    check_tuning(np.float64(0.01), np.int32(4))
    assert fit(KNOTS, Y, HAR0, 1).lam == 1.0
    assert run_convergence(0, n_values=np.array([20, 40]), replications=1, test_size=5, grid_count=3).config[
        "n_values"
    ] == [20, 40]


def test_pointwise_kernel_length_message_names_x():
    for call in (lambda a, b: mixed_sobolev_kernel(a, b), lambda a, b: rbf_kernel(a, b, 1.0)):
        with pytest.raises(DimensionMismatchError, match="expected 2 to match x$"):
            call([0.1, 0.2], [0.3])
        with pytest.raises(InvalidInputError, match="^x contains"):
            call([0.1, float("nan")], [0.3, 0.4])


#: entry point -> call with the (n, 2) matrix under test
MATRIX_SITES = {
    "DesignMatrix": DesignMatrix,
    "Dataset.features": lambda v: Dataset(
        features=v, target=np.zeros(len(v)), feature_names=("a", "b"), target_name="y"
    ),
    "fit_scaling": fit_scaling,
    "apply_scaling": lambda v: apply_scaling(v, ScalingParams.identity(2)),
}
#: fault -> (matrix, class it raises)
MATRIX_FAULTS = {
    "text": ([[0.1, "a"]], InvalidInputError),
    "ragged": ([[0.1, 0.2], [0.3]], InvalidInputError),
    "1-D": ([0.1, 0.2], DimensionMismatchError),
    "no rows": (np.zeros((0, 2)), InvalidInputError),
    "no columns": (np.zeros((3, 0)), InvalidInputError),
    "NaN": ([[0.1, float("nan")]], InvalidInputError),
}
#: entry point -> call with the length-6 vector under test
VECTOR_SITES = {
    "Dataset.target": lambda v: Dataset(features=KNOTS.values, target=v, feature_names=("a", "b"), target_name="y"),
    "ScalingParams.mins": lambda v: ScalingParams(mins=v, maxs=np.ones(6)),
    "ScalingParams.maxs": lambda v: ScalingParams(mins=np.zeros(6), maxs=v),
    "FittedModel.alpha": lambda v: FittedModel(
        knots=KNOTS, spec=HAR0, lam=1.0, alpha=v, scaling=ScalingParams.identity(2)
    ),
    "tune.y": lambda v: tune(KNOTS, v, "har", grid_count=3),
    "fit.y": lambda v: fit(KNOTS, v, HAR0, 1.0),
}
#: fault -> (vector, class it raises)
VECTOR_FAULTS = {
    "text": (["a", 0, 0, 0, 0, 0], InvalidInputError),
    "ragged": ([[0.1, 0.2], [0.3]], InvalidInputError),
    "empty": ([], DimensionMismatchError),
    "NaN": ([float("nan"), 0, 0, 0, 0, 0], InvalidInputError),
    "wrong length": ([0.0] * 5, DimensionMismatchError),
}


@pytest.mark.parametrize(
    "call, value, error",
    [
        pytest.param(call, value, error, id=f"{site}:{fault}")
        for sites, faults in ((MATRIX_SITES, MATRIX_FAULTS), (VECTOR_SITES, VECTOR_FAULTS))
        for site, call in sites.items()
        for fault, (value, error) in faults.items()
    ]
    + [pytest.param(VECTOR_SITES["Dataset.target"], np.zeros((6, 1)), DimensionMismatchError, id="Dataset.target:2-D")],
)
def test_array_fault_raises_its_class(call, value, error):
    with pytest.raises(error):
        call(value)


def test_array_owners_return_read_only_copies():
    values = np.full((2, 2), 0.5)
    held = [
        DesignMatrix(values).values,
        Dataset(features=values, target=values[:, 0], feature_names=("a", "b"), target_name="y").target,
        ScalingParams(mins=values[0], maxs=values[1]).mins,
        FittedModel(
            knots=DesignMatrix(values), spec=HAR0, lam=1.0, alpha=values[0], scaling=ScalingParams.identity(2)
        ).alpha,
    ]
    values[:] = 0.0
    for arr in held:
        assert not arr.flags.writeable and np.all(arr == 0.5)
