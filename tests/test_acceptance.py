"""End-to-end acceptance gate.

Each test function is one acceptance criterion; `pytest -v` therefore
prints one pass/fail line per criterion.  Tolerances and instance counts
are part of the contract and must not be loosened.  Criterion 7 needs
user-supplied benchmark CSVs (see HAR_BENCH_DATA below) and is skipped
with a named reason when they are absent.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from har.basis import MAX_RIDGE_DIM, basis_dimension, expand, explicit_predict, explicit_ridge_fit
from har.data import Dataset, SplitSpec, apply_scaling, fit_scaling, rng_from, split_dataset
from har.kernels import (
    FAMILIES,
    DesignMatrix,
    KernelSpec,
    gram_matrix,
    har_kernel,
    har_kernel_product_form,
    kernel_value,
)
from har.solver import fit, lambda_max, loocv_errors, predict
from har.experiments import run_benchmark, run_convergence

BENCH_ENV = "HAR_BENCH_DATA"
BENCH_FILES = ("yacht.csv", "concrete.csv", "energy.csv")


def _bench_dir():
    root = os.environ.get(BENCH_ENV)
    if not root:
        return None, f"set {BENCH_ENV} to a directory holding {', '.join(BENCH_FILES)}"
    missing = [f for f in BENCH_FILES if not (Path(root) / f).is_file()]
    if missing:
        return None, f"{BENCH_ENV}={root} is missing {', '.join(missing)}"
    return Path(root), None


def test_criterion_1_kernel_basis_oracle_identity():
    started = time.perf_counter()
    rng = rng_from(2026, "accept", "oracle")
    for _ in range(500):
        n = int(rng.integers(1, 9))
        p = int(rng.integers(1, 5))
        t = int(rng.integers(0, 3))
        knots = DesignMatrix(rng.uniform(size=(n, p)))
        x = rng.uniform(size=p)
        x2 = rng.uniform(size=p)
        via_kernel = har_kernel(x, x2, knots, order=t)
        via_basis = float(np.dot(expand(x, knots, order=t).values,
                                 expand(x2, knots, order=t).values))
        assert via_kernel == pytest.approx(via_basis, rel=1e-10)
    assert time.perf_counter() - started < 10.0


def test_criterion_2_order0_product_equals_count():
    started = time.perf_counter()
    rng = rng_from(2026, "accept", "product")
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        p = int(rng.integers(1, 7))
        knots = DesignMatrix(rng.uniform(size=(n, p)))
        x = rng.uniform(size=p)
        x2 = rng.uniform(size=p)
        count = har_kernel(x, x2, knots, order=0)
        product = har_kernel_product_form(x, x2, knots, order=0)
        assert product == pytest.approx(count, rel=1e-12)
    assert time.perf_counter() - started < 1.0


def test_criterion_3_primal_dual_equivalence():
    rng = rng_from(2026, "accept", "woodbury")
    done = 0
    while done < 100:
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, 5))
        t = int(rng.integers(0, 3))
        if basis_dimension(n, p, t) > MAX_RIDGE_DIM:
            continue
        knots = DesignMatrix(rng.uniform(size=(n, p)))
        y = rng.standard_normal(n)
        test = DesignMatrix(rng.uniform(size=(5, p)))
        spec = KernelSpec(family="har", order=t)
        for lam in (1e-3, 1.0, 10.0):
            beta = explicit_ridge_fit(knots, y, t, lam)
            primal = explicit_predict(beta, test, knots, order=t)
            model = fit(knots, y, spec, lam)
            dual = predict(model, test)
            scale = max(np.max(np.abs(primal)), 1e-12)
            assert np.max(np.abs(primal - dual)) <= 1e-8 * scale
        done += 1


def test_criterion_4_loocv_matches_literal_refits():
    rng = rng_from(2026, "accept", "loo")
    for _ in range(50):
        n = int(rng.integers(5, 31))
        p = int(rng.integers(1, 4))
        family = FAMILIES[int(rng.integers(0, 3))]
        spec = (KernelSpec(family="rbf", bandwidth=0.7)
                if family == "rbf" else KernelSpec(family=family))
        knots = DesignMatrix(rng.uniform(size=(n, p)))
        y = rng.standard_normal(n)
        gram = gram_matrix(knots, spec)
        lam = float(rng.uniform(0.05, 2.0))
        closed = loocv_errors(gram, y, lam)
        K = gram.values
        for i in range(n):
            keep = np.delete(np.arange(n), i)
            sub = K[np.ix_(keep, keep)] + lam * np.eye(n - 1)
            alpha_i = np.linalg.solve(sub, y[keep])
            pred_i = float(K[i, keep] @ alpha_i)
            literal = y[i] - pred_i
            assert closed[i] == pytest.approx(literal, rel=1e-8, abs=1e-10)


def test_criterion_5_lambda0_suppresses_predictions():
    rng = rng_from(2026, "accept", "lambda0")
    for trial in range(100):
        family = FAMILIES[trial % 3]
        spec = (KernelSpec(family="rbf", bandwidth=float(rng.uniform(0.1, 2.0)))
                if family == "rbf" else KernelSpec(family=family))
        n = int(rng.integers(3, 30))
        p = int(rng.integers(1, 5))
        knots = DesignMatrix(rng.uniform(size=(n, p)))
        y = rng.standard_normal(n) * float(rng.uniform(0.5, 20.0))
        gram = gram_matrix(knots, spec)
        lam0 = lambda_max(gram, y, epsilon=1e-3)
        model = fit(knots, y, spec, lam0)
        fitted = gram.values @ model.alpha
        assert np.max(np.abs(fitted)) <= 1e-3 * np.max(np.abs(y))


def test_criterion_6_convergence_trend():
    started = time.perf_counter()
    report = run_convergence(0)
    ns = [row.n for row in report.rows]
    assert ns == [100, 200, 400, 800, 1600]
    assert report.rows[-1].ratio < report.rows[0].ratio
    means = [row.mean_rmse for row in report.rows]
    assert all(a > b for a, b in zip(means, means[1:]))
    assert time.perf_counter() - started < 1800.0


def test_criterion_7_benchmark_bands():
    root, reason = _bench_dir()
    if root is None:
        pytest.skip(f"benchmark data absent: {reason}")
    paths = [str(root / f) for f in BENCH_FILES]
    report = run_benchmark(paths, seed=0, methods=("har", "sobolev"), repeats=5)
    assert report.failures == (), f"dataset failures: {report.failures}"
    got = {(c.dataset, c.method): c.mean_rmse for c in report.cells}
    bands = {
        ("yacht", "har"): 8.74e-1,
        ("concrete", "har"): 3.65,
        ("energy", "har"): 3.65e-1,
        ("yacht", "sobolev"): 4.18e-1,
        ("energy", "sobolev"): 3.82e-1,
    }
    for key, center in bands.items():
        assert key in got, f"missing benchmark cell {key}"
        assert 0.75 * center <= got[key] <= 1.25 * center, (
            f"{key}: mean RMSE {got[key]:.4g} outside +/-25% of {center}"
        )


def test_criterion_8_piecewise_constant_1d():
    rng = rng_from(2026, "accept", "steps")
    x = np.sort(rng.uniform(size=25))
    y = np.sin(6 * x) + 0.2 * rng.standard_normal(25)
    knots = DesignMatrix(x[:, None])
    model = fit(knots, y, KernelSpec(family="har"), lam=0.3)
    grid = np.linspace(0.0, 1.0, 2001)
    preds = predict(model, DesignMatrix(grid[:, None]))
    edges = np.concatenate([[0.0], x, [1.0 + 1e-9]])
    gaps = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        inside = preds[(grid >= lo) & (grid < hi)]
        if inside.size > 1:
            assert np.all(inside == inside[0])
            gaps += 1
    assert gaps >= 20  # the grid must actually probe the gaps


def test_criterion_9_invariant_suite():
    rng = rng_from(2026, "accept", "invariants")

    # Gram symmetry, PSD, HAR bounds
    for family in FAMILIES:
        spec = (KernelSpec(family="rbf", bandwidth=0.5)
                if family == "rbf" else KernelSpec(family=family))
        n, p = 20, 3
        knots = DesignMatrix(rng.uniform(size=(n, p)))
        K = gram_matrix(knots, spec).values
        assert np.array_equal(K, K.T)
        eigvals = np.linalg.eigvalsh(K)
        assert eigvals.min() >= -1e-8 * max(eigvals.max(), 1.0)
        if family == "har":
            assert np.all(K >= n) and np.all(K <= n * 2 ** p)

    # prediction linearity in y
    knots = DesignMatrix(rng.uniform(size=(15, 2)))
    test = DesignMatrix(rng.uniform(size=(8, 2)))
    spec = KernelSpec(family="har")
    y1 = rng.standard_normal(15)
    y2 = rng.standard_normal(15)
    c = 1.75
    lam = 0.4
    combo = predict(fit(knots, y1 + c * y2, spec, lam), test)
    parts = predict(fit(knots, y1, spec, lam), test) + c * predict(fit(knots, y2, spec, lam), test)
    assert combo == pytest.approx(parts, rel=1e-9, abs=1e-12)

    # ||alpha(lambda)|| is non-increasing in lambda
    y = rng.standard_normal(15)
    norms = [float(np.linalg.norm(fit(knots, y, spec, lam).alpha))
             for lam in (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    # parallel Gram construction is bit-deterministic
    wide = DesignMatrix(rng.uniform(size=(40, 4)))
    assert np.array_equal(gram_matrix(wide, spec, threads=1).values,
                          gram_matrix(wide, spec, threads=4).values)

    # split is a partition of the rows
    ds = Dataset(features=rng.uniform(size=(37, 3)),
                 target=rng.standard_normal(37),
                 feature_names=["a", "b", "c"], target_name="y")
    train, test_ds = split_dataset(ds, SplitSpec(train_fraction=0.8, seed=9))
    joint = np.vstack([train.features, test_ds.features])
    assert joint.shape[0] == 37
    order = np.lexsort(joint.T)
    expected = np.lexsort(ds.features.T)
    assert np.allclose(joint[order], ds.features[expected])

    # min-max scaling lands in the unit interval with endpoints hit
    raw = rng.uniform(-5, 7, size=(30, 4))
    scaled = apply_scaling(raw, fit_scaling(raw))
    assert scaled.min() >= 0.0 and scaled.max() <= 1.0
    assert np.allclose(scaled.min(axis=0), 0.0) and np.allclose(scaled.max(axis=0), 1.0)
