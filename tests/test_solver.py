import json
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from har import solver
from har.data import ScalingParams, rng_from
from har.exceptions import (
    DimensionMismatchError,
    InvalidInputError,
    InvalidParameterError,
    SchemaError,
    SingularSystemError,
    UndefinedScaleError,
)
from har.kernels import (
    DesignMatrix,
    GramMatrix,
    KernelSpec,
    _order0_table,
    _predict_block_rows,
    _use_contraction,
    cross_kernel_matrix,
    gram_matrix,
    membership_masks,
)
from har.solver import (
    DEFAULT_EPSILON,
    RBF_BANDWIDTHS,
    FittedModel,
    TuningResult,
    _best,
    _bound_factor,
    _family_specs,
    _lambda0,
    _loo_grid,
    _max_row_norm,
    _model_fingerprint,
    eigensolver,
    eigh,
    fit,
    lambda_grid,
    lambda_max,
    load_model,
    loocv_errors,
    model_from_dict,
    model_to_dict,
    predict,
    save_model,
    tune,
)

T0 = KernelSpec.har(0)


# ---------------------------------------------------------------------------
# fit

def test_single_knot_hand_solve():
    knots = DesignMatrix(np.array([[0.5]]))
    model = fit(knots, [2.0], T0, 1.0)
    assert model.alpha[0] == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert predict(model, knots)[0] == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_fit_residual_invariant():
    rng = rng_from(30, "solver", "residual")
    knots = DesignMatrix(rng.uniform(size=(25, 3)))
    y = rng.standard_normal(25)
    g = gram_matrix(knots, T0)
    model = fit(knots, y, T0, 0.7)
    resid = (g.values + 0.7 * np.eye(25)) @ model.alpha - y
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(y)


@pytest.mark.parametrize("n", [1, 31, 200])
@pytest.mark.parametrize("family, order", [("har", 0), ("har", 1), ("sobolev", 0), ("rbf", 0)])
def test_fit_alpha_is_the_gram_solve_bit_for_bit(family, order, n):
    # fit's own Gram, overwritten in place by eigh, gives the bits of the
    # solve on a copy of the same Gram
    rng = rng_from(34, "solver", "own-gram", family, order, n)
    knots = DesignMatrix(rng.uniform(size=(n, 3)))
    y = rng.standard_normal(n)
    spec = _family_specs(family, order)[-1]
    ref = _loo_grid(*eigh(gram_matrix(knots, spec).values), y, np.array([0.01]))[0][:, 0]
    assert np.array_equal(fit(knots, y, spec, 0.01).alpha, ref)


def test_large_lambda_flattens_everything():
    rng = rng_from(31, "solver", "flat")
    knots = DesignMatrix(rng.uniform(size=(10, 2)))
    y = rng.standard_normal(10)
    lam = 1e12
    model = fit(knots, y, T0, lam)
    assert np.linalg.norm(model.alpha) == pytest.approx(np.linalg.norm(y) / lam, rel=1e-3)
    assert np.max(np.abs(predict(model, knots))) < 1e-9


def test_fit_linear_in_y():
    rng = rng_from(32, "solver", "linear")
    knots = DesignMatrix(rng.uniform(size=(8, 2)))
    y = rng.standard_normal(8)
    test = DesignMatrix(rng.uniform(size=(5, 2)))
    m1 = fit(knots, y, T0, 0.3)
    m2 = fit(knots, 4.0 * y, T0, 0.3)
    assert np.allclose(m2.alpha, 4.0 * m1.alpha, rtol=1e-12)
    assert np.allclose(predict(m2, test), 4.0 * predict(m1, test), rtol=1e-12)


@pytest.mark.parametrize("copies", [2, 3])
def test_duplicate_knots_at_lambda_zero_raise_naming_lambda(copies):
    # identical rows make K exactly singular, and fit solves only the lambda
    # it was given: eigh puts the smallest eigenvalue of the constant Gram
    # (every entry 4 * copies) at or just below zero, exactly 0.0 for two
    # copies and about -7e-15 for three, so w[0] + 0 <= 0 and no alpha is formed
    knots = DesignMatrix(np.tile([[0.4, 0.6]], (copies, 1)))
    with pytest.raises(SingularSystemError, match="lambda=0"):
        fit(knots, np.ones(copies), T0, 0.0)


def test_well_conditioned_fit_warns_nothing():
    rng = rng_from(33, "solver", "no-jitter")
    knots = DesignMatrix(rng.uniform(size=(10, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit(knots, rng.standard_normal(10), T0, 0.1)


def test_fit_parameter_validation():
    knots = DesignMatrix(np.array([[0.5]]))
    with pytest.raises(InvalidParameterError):
        fit(knots, [1.0], T0, -1.0)
    with pytest.raises(DimensionMismatchError):
        fit(knots, [1.0, 2.0], T0, 1.0)


# ---------------------------------------------------------------------------
# predict

def test_near_interpolation_at_tiny_lambda():
    rng = rng_from(33, "solver", "interp")
    knots = DesignMatrix(rng.uniform(size=(12, 2)))
    y = rng.standard_normal(12)
    model = fit(knots, y, T0, 1e-10)
    preds = predict(model, knots)
    assert np.max(np.abs(preds - y)) / max(1.0, np.max(np.abs(y))) < 1e-6


def test_piecewise_constant_in_one_dimension():
    rng = rng_from(34, "solver", "steps")
    knots = DesignMatrix(rng.uniform(size=(15, 1)))
    y = rng.standard_normal(15)
    model = fit(knots, y, T0, 0.1)
    xs = np.sort(knots.values[:, 0])
    for a, b in zip(xs, xs[1:]):
        if b - a < 1e-6:
            continue
        t1 = DesignMatrix(np.array([[a + (b - a) * 0.25]]))
        t2 = DesignMatrix(np.array([[a + (b - a) * 0.75]]))
        assert predict(model, t1)[0] == predict(model, t2)[0]


def test_contraction_route_matches_cross_matrix():
    rng = rng_from(35, "solver", "routes")
    for n, p in [(20, 1), (35, 4), (28, 7)]:
        knots = DesignMatrix(rng.uniform(size=(n, p)))
        y = rng.standard_normal(n)
        model = fit(knots, y, T0, 0.4)
        assert _use_contraction(model.spec, model.knots)
        test = DesignMatrix(rng.uniform(size=(40, p)))
        fast = predict(model, test)
        slow = cross_kernel_matrix(test, knots, T0) @ model.alpha
        assert np.max(np.abs(fast - slow)) <= 1e-12 * max(1.0, np.max(np.abs(slow)))


@pytest.mark.parametrize("spec", [KernelSpec.sobolev(), KernelSpec.rbf(0.7), KernelSpec.har(1)], ids=str)
def test_cross_route_matches_cross_matrix(spec):
    rng = rng_from(35, "solver", "cross-route")
    for n, p in [(20, 1), (35, 4), (28, 7)]:
        knots = DesignMatrix(rng.uniform(size=(n, p)))
        model = fit(knots, rng.standard_normal(n), spec, 0.4)
        assert not _use_contraction(model.spec, model.knots)
        test = DesignMatrix(rng.uniform(size=(70, p)))
        K = cross_kernel_matrix(test, knots, spec)
        bound = 1e-10 * (np.abs(K) @ np.abs(model.alpha))
        assert np.all(np.abs(predict(model, test) - K @ model.alpha) <= bound)


# one knot set per route: p=6 fits the order-0 table, p=25 at n=10 does not
_BATCH_SPECS = {
    "sobolev": (KernelSpec.sobolev(), 6),
    "rbf": (KernelSpec.rbf(0.5), 6),
    "har1": (KernelSpec.har(1), 6),
    "har0": (T0, 6),
    "har0-past-table-cap": (T0, 25),
}


@pytest.mark.parametrize("name", list(_BATCH_SPECS))
def test_row_prediction_independent_of_batch_and_threads(name):
    spec, p = _BATCH_SPECS[name]
    rng = rng_from(38, "solver", "batch", name)
    n = 150 if p < 25 else 10
    model = fit(DesignMatrix(rng.uniform(size=(n, p))), rng.standard_normal(n), spec, 1e-3)
    X = rng.uniform(size=(1025, p))
    alone = np.array([predict(model, DesignMatrix(X[i : i + 1]), threads=1)[0] for i in range(200)])
    for threads in (1, 2):
        for batch in (1, 3, 4, 1025):
            stop = 200 if batch < 1025 else 1025
            got = np.concatenate(
                [predict(model, DesignMatrix(X[i : i + batch]), threads=threads) for i in range(0, stop, batch)]
            )
            assert np.array_equal(got[:200], alone), (threads, batch)
    # batches one row short of, equal to and one row past the route's block
    block = _predict_block_rows(model.spec, model.knots)
    rows = X[: 3 * block]
    assert block + 1 < rows.shape[0]
    whole = predict(model, DesignMatrix(rows), threads=1)
    assert np.array_equal(whole[:200], alone[: rows.shape[0]])
    for threads in (1, 2):
        for batch in (block - 1, block, block + 1):
            starts = range(0, rows.shape[0], batch)
            got = np.concatenate([predict(model, DesignMatrix(rows[i : i + batch]), threads=threads) for i in starts])
            assert np.array_equal(got, whole), (threads, batch)


@pytest.mark.parametrize("spec", [T0, KernelSpec.sobolev()], ids=["table", "cross"])
def test_predict_holds_one_block_of_scratch_per_worker(spec):
    # 20k rows against 800 knots: 131-row table blocks and 54-row sobolev
    # blocks; a table block that held a (rows, n) int64 gather index would
    # exceed the first bound at 2 workers
    rng = rng_from(48, "solver", "block-memory")
    n, p, m = 800, 10, 20000
    model = FittedModel(
        knots=DesignMatrix(rng.uniform(size=(n, p))), spec=spec, lam=1.0,
        alpha=rng.standard_normal(n), scaling=ScalingParams.identity(p),
    )
    test = DesignMatrix(rng.uniform(size=(m, p)))
    tracemalloc.start()
    try:
        predict(model, test, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if _use_contraction(model.spec, model.knots):
        assert peak < n * (1 << p) * 8 + m * 8 + 2 * 1.5 * 2**20
    else:
        assert peak < 4 * 2**20


def test_cross_route_predict_never_holds_the_cross_matrix():
    rng = rng_from(39, "solver", "memory")
    m, n = 8192, 512
    model = fit(DesignMatrix(rng.uniform(size=(n, 4))), rng.standard_normal(n), KernelSpec.sobolev(), 0.1)
    test = DesignMatrix(rng.uniform(size=(m, 4)))
    tracemalloc.start()
    try:
        predict(model, test, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * n * 8 / 4


def test_order0_table_predict_peak_below_knot_square():
    # the table is built one anchor knot at a time, never from an n x n index
    rng = rng_from(41, "solver", "table-memory")
    n, p = 2000, 3
    model = FittedModel(
        knots=DesignMatrix(rng.uniform(size=(n, p))), spec=T0, lam=1.0,
        alpha=rng.standard_normal(n), scaling=ScalingParams.identity(p),
    )
    assert _use_contraction(model.spec, model.knots)
    test = DesignMatrix(rng.uniform(size=(64, p)))
    tracemalloc.start()
    try:
        predict(model, test, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


def _whole_table_reference(knot_vals, alpha):
    # the whole-table doubling transform the blocked build replaced
    n, p = knot_vals.shape
    size = 1 << p
    knot_masks = membership_masks(knot_vals, knot_vals)[:, :, 0]
    W = np.empty((n, size))
    for k in range(n):
        W[k] = np.bincount(knot_masks[:, k], weights=alpha, minlength=size)
    for bit in range(p):
        W = W.reshape(n, -1, 2, 1 << bit)
        v0 = W[:, :, 0, :].copy()
        v1 = W[:, :, 1, :]
        W[:, :, 0, :] = v0 + v1
        W[:, :, 1, :] = v0 + 2.0 * v1
    return W.reshape(n, size)


@pytest.mark.parametrize("p", [1, 5, 10])
@pytest.mark.parametrize("n", [1, 31, 32, 33, 100])
def test_order0_table_blocks_equal_the_whole_table_transform(n, p):
    # 31, 33 and 100 anchors end in a partial anchor block
    rng = rng_from(43, "solver", "table-blocks", n, p)
    knots = rng.uniform(size=(n, p))
    alpha = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, size=n)
    assert np.array_equal(_order0_table(knots, alpha), _whole_table_reference(knots, alpha))


def test_order0_table_build_holds_the_table_masks_and_one_block():
    rng = rng_from(44, "solver", "table-build-memory")
    n, p = 800, 10
    knots = rng.uniform(size=(n, p))
    alpha = rng.standard_normal(n)
    tracemalloc.start()
    try:
        _order0_table(knots, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = n * (1 << p) * 8
    mask_bytes = n * n * np.min_scalar_type(1 << p).itemsize
    assert peak < table_bytes + mask_bytes + 2 * 2**20


def test_order0_table_build_holds_one_anchor_block_of_masks():
    # each anchor block builds its own (n, block) masks: the build never
    # holds even half of the n x n knot-vs-knot masks
    rng = rng_from(45, "solver", "table-block-masks")
    n, p = 2000, 3
    knots = rng.uniform(size=(n, p))
    alpha = rng.standard_normal(n)
    tracemalloc.start()
    try:
        _order0_table(knots, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = n * (1 << p) * 8
    mask_bytes = n * n * np.min_scalar_type(1 << p).itemsize
    assert peak < table_bytes + mask_bytes / 2


@pytest.mark.parametrize(
    "n, p", [(n, p) for n in (1, 31, 33, 200) for p in (1, 7, 8, 9)] + [(n, 16) for n in (1, 31, 33)]
)
def test_order0_flat_gather_equals_the_anchor_gather(n, p):
    # p = 8 and 16 are where the mask word widens from 8 to 16 and from 16 to
    # 32 bits; the reference is the (anchor, mask) gather of the table rows
    rng = rng_from(46, "solver", "flat-gather", n, p)
    knots = np.round(rng.uniform(size=(n, p)), 1)
    alpha = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, size=n)
    test = np.round(rng.uniform(size=(70, p)), 1)
    test[::3] = rng.uniform(size=(24, p))
    table = _order0_table(knots, alpha)
    masks = membership_masks(test, knots)[:, :, 0]
    reference = table[np.arange(n), masks].sum(axis=1)
    model = FittedModel(
        knots=DesignMatrix(knots), spec=T0, lam=1.0, alpha=alpha, scaling=ScalingParams.identity(p),
    )
    assert _use_contraction(model.spec, model.knots)
    for threads in (1, 2):
        assert np.array_equal(predict(model, DesignMatrix(test), threads=threads), reference)


# p=3 fits the order-0 table, p=25 at n=10 does not
_CUBE_SPECS = {
    "har0": (T0, 3),
    "har0-past-table-cap": (T0, 25),
    "sobolev": (KernelSpec.sobolev(), 3),
    "har1": (KernelSpec.har(1), 3),
}


@pytest.mark.parametrize("name", list(_CUBE_SPECS))
def test_predict_rejects_out_of_cube_row(name):
    spec, p = _CUBE_SPECS[name]
    rng = rng_from(42, "solver", "cube", name)
    model = fit(DesignMatrix(rng.uniform(size=(10, p))), rng.standard_normal(10), spec, 0.5)
    row = np.full((1, p), 0.5)
    row[0, :3] = [1.5, -0.3, 2.0]
    with pytest.raises(InvalidInputError):
        predict(model, DesignMatrix(row))


def test_contraction_route_selection():
    rng = rng_from(36, "solver", "route-sel")
    small = fit(DesignMatrix(rng.uniform(size=(10, 3))), rng.standard_normal(10), T0, 0.5)
    assert _use_contraction(small.spec, small.knots)
    order1 = fit(DesignMatrix(rng.uniform(size=(10, 3))), rng.standard_normal(10), KernelSpec.har(1), 0.5)
    assert not _use_contraction(order1.spec, order1.knots)
    rbf = fit(DesignMatrix(rng.uniform(size=(10, 3))), rng.standard_normal(10), KernelSpec.rbf(1.0), 0.5)
    assert not _use_contraction(rbf.spec, rbf.knots)
    # table would need n * 2^p doubles; p=25 at n=10 blows the cap
    wide = fit(DesignMatrix(rng.uniform(size=(10, 25))), rng.standard_normal(10), T0, 0.5)
    assert not _use_contraction(wide.spec, wide.knots)


def test_predict_dimension_mismatch():
    rng = rng_from(37, "solver", "dims")
    model = fit(DesignMatrix(rng.uniform(size=(4, 2))), rng.standard_normal(4), T0, 1.0)
    with pytest.raises(DimensionMismatchError):
        predict(model, DesignMatrix(rng.uniform(size=(3, 3))))


# ---------------------------------------------------------------------------
# leave-one-out

def test_loo_single_row_residual_is_y():
    knots = DesignMatrix(np.array([[0.5]]))
    g = gram_matrix(knots, T0)
    for lam in (0.01, 1.0, 100.0):
        assert loocv_errors(g, [3.5], lam)[0] == pytest.approx(3.5, rel=1e-12)


def test_loo_limit_large_lambda():
    rng = rng_from(38, "solver", "loo-limit")
    knots = DesignMatrix(rng.uniform(size=(9, 2)))
    y = rng.standard_normal(9)
    g = gram_matrix(knots, T0)
    e = loocv_errors(g, y, 1e12)
    assert np.allclose(e, y, rtol=1e-6)


def test_loo_equals_literal_refit():
    rng = rng_from(39, "solver", "loo-refit")
    for _ in range(10):
        n = int(rng.integers(5, 31))
        p = int(rng.integers(1, 4))
        knots = DesignMatrix(rng.uniform(size=(n, p)))
        y = rng.standard_normal(n)
        lam = float(rng.uniform(0.05, 5.0))
        g = gram_matrix(knots, T0)
        e = loocv_errors(g, y, lam)
        K = g.values
        for i in range(n):
            keep = np.arange(n) != i
            sub = np.linalg.solve(K[np.ix_(keep, keep)] + lam * np.eye(n - 1), y[keep])
            lit = y[i] - K[i, keep] @ sub
            assert e[i] == pytest.approx(lit, rel=1e-8, abs=1e-10)


def test_loo_requires_positive_lambda():
    g = gram_matrix(DesignMatrix(np.array([[0.5]])), T0)
    with pytest.raises(InvalidParameterError):
        loocv_errors(g, [1.0], 0.0)


# ---------------------------------------------------------------------------
# lambda bound and grid

def _gram_of(values, fingerprint="x"):
    return GramMatrix(values=np.asarray(values, dtype=np.float64), spec=T0, knot_fingerprint=fingerprint)


def test_lambda_max_single_point():
    for k, eps in [(2.0, 1e-3), (7.5, 0.02)]:
        lam0 = lambda_max(_gram_of([[k]]), [4.0], eps)
        assert lam0 == pytest.approx(k * (1.0 / eps - 1.0), rel=1e-9)


def test_lambda_max_identity_gram():
    n = 9
    lam0 = lambda_max(_gram_of(np.eye(n)), np.ones(n), 1e-3)
    assert lam0 == pytest.approx(np.sqrt(n) / 1e-3 - 1.0, rel=1e-6)


def test_lambda_max_rejects_zero_outcome():
    with pytest.raises(UndefinedScaleError):
        lambda_max(_gram_of([[2.0]]), [0.0], 1e-3)
    with pytest.raises(InvalidParameterError):
        lambda_max(_gram_of([[2.0]]), [1.0], 1.5)


def test_suppression_at_the_bound():
    rng = rng_from(40, "solver", "suppress")
    for spec in [T0, KernelSpec.har(1), KernelSpec.sobolev(), KernelSpec.rbf(0.4)]:
        knots = DesignMatrix(rng.uniform(size=(30, 3)))
        y = rng.standard_normal(30) * 3.0
        g = gram_matrix(knots, spec)
        lam0 = lambda_max(g, y, 1e-3)
        model = fit(knots, y, spec, lam0)
        assert np.max(np.abs(predict(model, knots))) <= 1e-3 * np.max(np.abs(y))


def test_lambda_max_uses_exact_smallest_eigenvalue():
    # on this draw an inverse power iteration for eigmin failed to converge
    # and fell back to 0, inflating the bound by the true eigmin (~0.42)
    rng = rng_from(7, "solver", "eigmin-bound")
    knots = DesignMatrix(rng.uniform(size=(800, 10)))
    y = rng.standard_normal(800)
    g = gram_matrix(knots, KernelSpec.sobolev())
    K = g.values
    eps = 1e-3
    expected = (
        np.max(np.linalg.norm(K, axis=1)) * np.linalg.norm(y) / (eps * np.max(np.abs(y)))
        - np.linalg.eigvalsh(K)[0]
    )
    assert lambda_max(g, y, eps) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_max_row_norm_holds_one_row_block():
    # the whole-matrix norm squared K into a 20.5 MB temporary here
    K = rng_from(9, "solver", "row-norm-peak").uniform(size=(1600, 1600))
    expected = float(np.max(np.linalg.norm(K, axis=1)))
    tracemalloc.start()
    try:
        norm = _max_row_norm(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert norm == expected
    assert peak < 2_560_000


_ROW_NORM_SPECS = [T0, KernelSpec.sobolev(), KernelSpec.rbf(RBF_BANDWIDTHS[6]), KernelSpec.har(1)]


@pytest.mark.parametrize("spec, n, p", zip(_ROW_NORM_SPECS, [1600, 333, 257, 97], [10, 4, 4, 4]))
def test_max_row_norm_equals_the_whole_matrix_norm(spec, n, p):
    K = gram_matrix(DesignMatrix(rng_from(10, "solver", "row-norm", n).uniform(size=(n, p))), spec).values
    assert _max_row_norm(K) == float(np.max(np.linalg.norm(K, axis=1)))


@pytest.mark.parametrize("spec", _ROW_NORM_SPECS)
def test_lambda0_from_tune_and_lambda_max_uses_the_max_row_norm(spec):
    rng = rng_from(11, "solver", "lambda0", spec.family)
    knots = DesignMatrix(rng.uniform(size=(97, 4)))
    y = rng.standard_normal(97)
    K = gram_matrix(knots, spec).values
    factor = _bound_factor(y, DEFAULT_EPSILON)
    expected = float(np.max(np.linalg.norm(K, axis=1))) * factor
    eig_min = np.linalg.eigvalsh(K)[0]
    assert lambda_max(gram_matrix(knots, spec), y) == expected - float(eig_min)
    # with one grid point, each spec's only candidate is its lambda0
    result, _ = tune(knots, y, spec.family, order=spec.order, grid_count=1)
    lam0 = dict(result.candidates)[spec]
    assert lam0 == expected - float(eigh(K)[0][0])


def test_grid_shape_and_endpoints():
    g = lambda_grid(1.0, 3)
    assert g[0] == 1e-8 and g[1] == 1e-4 and g[2] == 1.0
    g = lambda_grid(3.7, 50)
    assert g.shape == (50,) and g[-1] == 3.7
    ratios = g[1:] / g[:-1]
    assert np.allclose(ratios, 10 ** (8 / 49), rtol=1e-10)
    assert lambda_grid(1.0, 1).tolist() == [1.0]
    with pytest.raises(InvalidParameterError):
        lambda_grid(1.0, 0)
    with pytest.raises(InvalidParameterError):
        lambda_grid(0.0, 10)


# ---------------------------------------------------------------------------
# tuning

def test_tune_selects_minimum_and_refits():
    rng = rng_from(42, "solver", "tune")
    knots = DesignMatrix(rng.uniform(size=(30, 2)))
    y = np.sin(4.0 * knots.values[:, 0]) + 0.05 * rng.standard_normal(30)
    result, model = tune(knots, y, "har", grid_count=20)
    assert len(result.candidates) == 20
    assert result.scores[result.selected] == result.scores.min()
    assert model.lam == result.winner[1]
    assert model.spec == result.winner[0]
    assert result.choice() == {
        "kernel": model.spec.to_dict(), "lambda": model.lam, "loocv_score": result.scores[result.selected]
    }


@pytest.mark.parametrize(
    "family, order, n",
    [("har", 0, 40), ("har", 1, 30), ("sobolev", 0, 40), ("rbf", 0, 25)],
)
def test_tune_matches_per_lambda_loo_and_fit(family, order, n):
    rng = rng_from(48, "solver", "tune-equiv", family, order)
    knots = DesignMatrix(rng.uniform(size=(n, 3)))
    y = np.sin(5.0 * knots.values[:, 0]) * knots.values[:, 1] + 0.1 * rng.standard_normal(n)
    result, model = tune(knots, y, family, order=order, grid_count=12)
    grams = {}
    for i, (spec, lam) in enumerate(result.candidates):
        g = grams.setdefault(spec, gram_matrix(knots, spec))
        score = float(np.mean(loocv_errors(g, y, lam) ** 2))
        assert result.scores[i] == pytest.approx(score, rel=1e-12, abs=0.0)
    spec, lam = result.winner
    assert model.spec == spec and model.lam == lam
    # fit and tune share one eigendecomposition, so the reference is an LU solve
    ref = np.linalg.solve(grams[spec].values + lam * np.eye(n), y)
    for alpha in (model.alpha, fit(knots, y, spec, lam).alpha):
        assert np.linalg.norm(alpha - ref) <= 1e-8 * np.linalg.norm(ref)


def _tune_on_scipy_eigh(knots, y, family, order, threads):
    """`tune`'s scores, selected index and winning alpha rebuilt on
    scipy.linalg.eigh(driver="evd"), which returns V in Fortran order."""
    from scipy.linalg import eigh as scipy_eigh

    factor = _bound_factor(y, DEFAULT_EPSILON)
    scores, lams, alphas = [], [], []
    for spec in _family_specs(family, order):
        K = gram_matrix(knots, spec, threads=threads).values
        w, V = scipy_eigh(K, driver="evd")
        grid = lambda_grid(_lambda0(_max_row_norm(K), factor, float(w[0])))
        spec_alphas, errors = _loo_grid(w, V, y, grid)
        scores.extend(float(np.mean(errors[:, j] ** 2)) for j in range(len(grid)))
        lams.extend(grid)
        alphas.extend(spec_alphas.T)
    selected = _best(scores, lams)
    return np.array(scores), selected, alphas[selected]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n", [1, 31, 200])
@pytest.mark.parametrize("family, order", [("har", 0), ("har", 1), ("sobolev", 0), ("rbf", 0)])
def test_tune_is_bit_identical_to_scipy_eigh_reference(family, order, n, threads):
    rng = rng_from(49, "solver", "tune-scipy", family, order, n)
    knots = DesignMatrix(rng.uniform(size=(n, 3)))
    y = np.sin(5.0 * knots.values[:, 0]) * knots.values[:, 1] + 0.1 * rng.standard_normal(n)
    result, model = tune(knots, y, family, order=order, threads=threads)
    scores, selected, alpha = _tune_on_scipy_eigh(knots, y, family, order, threads)
    assert np.array_equal(result.scores, scores)
    assert result.selected == selected
    assert np.array_equal(model.alpha, alpha)


in_place_only = pytest.mark.skipif(
    eigensolver() != solver.EIGENSOLVER_IN_PLACE, reason="numpy's own LAPACK routines are not found in this numpy"
)


def _on_both_routes(monkeypatch, run):
    """run() on the in-place route, then again with numpy's LAPACK routines hidden."""
    in_place = run()
    monkeypatch.setattr(solver, "_lapack", lambda: None)
    assert eigensolver() == solver.EIGENSOLVER_NUMPY
    return in_place, run()


@in_place_only
@pytest.mark.parametrize("n", [1, 31, 200])
@pytest.mark.parametrize("family, order", [("har", 0), ("har", 1), ("sobolev", 0), ("rbf", 0)])
def test_in_place_and_numpy_eigh_routes_are_bit_identical(monkeypatch, family, order, n):
    rng = rng_from(50, "solver", "eigh-routes", family, order, n)
    knots = DesignMatrix(rng.uniform(size=(n, 3)))
    y = np.sin(5.0 * knots.values[:, 0]) * knots.values[:, 1] + 0.1 * rng.standard_normal(n)
    spec = _family_specs(family, order)[-1]
    gram = gram_matrix(knots, spec)

    def run():
        result, model = tune(knots, y, family, order=order, grid_count=12)
        return (
            eigh(gram.values), result, model.alpha,
            fit(knots, y, spec, 0.01).alpha, loocv_errors(gram, y, 0.01),
        )

    in_place, numpy_route = _on_both_routes(monkeypatch, run)
    (w1, V1), result1, *arrays1 = in_place
    (w2, V2), result2, *arrays2 = numpy_route
    assert np.array_equal(w1, w2) and np.array_equal(V1, V2)
    assert np.array_equal(result1.scores, result2.scores) and result1.selected == result2.selected
    assert result1.diagnostics == {"eigensolver": "lapack-dsyevd-in-place"}
    assert result2.diagnostics == {"eigensolver": "numpy.linalg.eigh"}
    for a1, a2 in zip(arrays1, arrays2):
        assert np.array_equal(a1, a2)


@in_place_only
def test_in_place_eigh_overwrites_its_input_with_v():
    K = gram_matrix(DesignMatrix(rng_from(51, "solver", "in-place").uniform(size=(40, 3))), T0).values
    a = np.array(K, order="F")
    w, V = eigh(a)
    assert np.shares_memory(V, a) and V.flags.f_contiguous
    assert np.allclose((V * w) @ V.T, K, rtol=0.0, atol=1e-12 * np.abs(K).max())


@pytest.mark.parametrize("n", [*range(1, 141), 600])
def test_eigh_is_bit_identical_to_numpy_eigh(n):
    # n from 1 to 140 crosses dsytrd's 32-column blocking and the sizes at
    # which dsyevd's workspace shrinks or switches off dormtr's blocking
    K = gram_matrix(DesignMatrix(rng_from(58, "solver", "eigh-bits", n).uniform(size=(n, 3))), T0).values
    w, V = np.linalg.eigh(K)
    w1, V1 = eigh(np.array(K, order="F"))
    assert np.array_equal(w1, w) and np.array_equal(V1, V)


@pytest.mark.parametrize(
    "p, scale", [(500, 1.0), (3, 1e160), (3, 1e-160)], ids=["above", "above-scaled", "below-scaled"]
)
def test_eigh_is_bit_identical_to_numpy_eigh_outside_lapacks_scaling_bounds(p, scale):
    # an order-0 Gram at p = 500 has 2^500 on its diagonal, above dsyevd's
    # upper bound 2^485, so dsyevd scales it by a power of two; a Gram
    # scaled by 1e160 or 1e-160 is scaled back by a factor that rounds
    K = gram_matrix(DesignMatrix(rng_from(59, "solver", "eigh-scaled", p).uniform(size=(60, p))), T0).values * scale
    assert not 2.0**-485 <= np.abs(K).max() <= 2.0**485
    w, V = np.linalg.eigh(K)
    w1, V1 = eigh(np.array(K, order="F"))
    assert np.array_equal(w1, w) and np.array_equal(V1, V)


_SOLVES = pytest.mark.parametrize(
    "solve", [lambda knots, y: tune(knots, y, "har"), lambda knots, y: fit(knots, y, T0, 1.0)], ids=["tune", "fit"]
)


def _traced_peak_in_grams(solve, n: int = 600) -> float:
    """The traced peak of solve(knots, y) on n knots, in n x n float64 Grams."""
    rng = rng_from(54, "solver", "tune-memory")
    knots, y = DesignMatrix(rng.uniform(size=(n, 3))), rng.standard_normal(n)
    tracemalloc.start()
    try:
        solve(knots, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (n * n * 8)


@in_place_only
@_SOLVES
def test_tune_eigendecomposes_its_own_gram_in_place(solve):
    # the Gram and eigh's 1.5n^2 of reflectors and scratch; one more copy of
    # the Gram would read 3.5n^2
    assert _traced_peak_in_grams(solve) < 3.5


@in_place_only
@_SOLVES
def test_eigh_peaks_at_two_and_a_half_grams(solve):
    # V in the Gram's buffer, the n(n-1)/2 reflectors and dstedc's n^2
    # scratch; dsyevd's own 2n^2 workspace beside the Gram would read 3n^2
    assert _traced_peak_in_grams(solve) < 2.75


def test_eigh_rejects_a_non_square_matrix_before_any_lapack_call():
    with pytest.raises(np.linalg.LinAlgError, match="must be square"):
        eigh(np.ones((2, 3), order="F"))


@in_place_only
def test_in_place_eigh_raises_numpys_error_when_lapack_does_not_converge(monkeypatch):
    routines = solver._lapack()

    def unconverged(*args):
        args[10].value = 3  # dstedc's info

    monkeypatch.setattr(solver, "_lapack", lambda: {**routines, "dstedc": unconverged})
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        eigh(np.eye(2))


@in_place_only
def test_in_place_eigh_names_the_routine_and_argument_lapack_rejects(monkeypatch):
    routines = solver._lapack()

    def illegal(*args):
        args[12].value = -7  # dormtr's info

    monkeypatch.setattr(solver, "_lapack", lambda: {**routines, "dormtr": illegal})
    with pytest.raises(np.linalg.LinAlgError, match="^dormtr argument 7 is illegal$"):
        eigh(np.eye(3))


@pytest.mark.parametrize("route", [pytest.param("in-place", marks=in_place_only), "numpy"])
def test_eigh_trims_the_heap_before_lapack_runs(monkeypatch, route):
    calls = []
    monkeypatch.setattr(solver, "_malloc_trim", lambda: lambda pad: calls.append(("trim", pad)))
    if route == "in-place":
        routines = {
            name: lambda *args, routine=routine: (calls.append("lapack"), routine(*args))[1]
            for name, routine in solver._lapack().items()
        }
        monkeypatch.setattr(solver, "_lapack", lambda: routines)
    else:
        numpy_eigh = np.linalg.eigh
        monkeypatch.setattr(solver, "_lapack", lambda: None)
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (calls.append("lapack"), numpy_eigh(a))[1])
    K = gram_matrix(DesignMatrix(rng_from(57, "solver", "heap-trim").uniform(size=(40, 3))), T0).values
    for _ in range(2):
        calls.clear()
        w, V = eigh(K)
        assert calls[0] == ("trim", 0) and calls.count(("trim", 0)) == 1 and "lapack" in calls
        assert np.allclose((V * w) @ V.T, K, rtol=0.0, atol=1e-12 * np.abs(K).max())


@pytest.fixture
def fresh_lookups():
    """`_lapack` and `_malloc_trim` looked up anew inside the test, and again after it."""
    lookups = (solver._lapack, solver._malloc_trim)
    for lookup in lookups:
        lookup.cache_clear()
    yield
    for lookup in lookups:
        lookup.cache_clear()


def _unopenable(path):
    raise OSError(f"cannot open {path}")


def _without_dlansy(path):
    return SimpleNamespace(**{f"scipy_{name}_64_": None for name in solver._ROUTINES if name != "dlansy"})


@pytest.mark.parametrize("library", [_unopenable, _without_dlansy])
def test_lapack_lookup_falls_back_to_numpy_eigh(fresh_lookups, monkeypatch, library):
    # numpy's linalg module cannot be opened (OSError), or lacks one routine (AttributeError)
    monkeypatch.setattr(solver.ctypes, "CDLL", library)
    assert solver._lapack() is None
    assert eigensolver() == solver.EIGENSOLVER_NUMPY


def test_malloc_trim_lookup_is_none_without_it(fresh_lookups, monkeypatch):
    monkeypatch.setattr(solver.ctypes, "CDLL", lambda path: SimpleNamespace())
    assert solver._malloc_trim() is None


@pytest.mark.parametrize("n", [1, 31, 200])
@pytest.mark.parametrize("family, order", [("har", 0), ("har", 1), ("sobolev", 0), ("rbf", 0)])
def test_eigh_without_heap_trim_is_bit_identical(monkeypatch, family, order, n):
    rng = rng_from(56, "solver", "no-heap-trim", family, order, n)
    knots = DesignMatrix(rng.uniform(size=(n, 3)))
    y = np.sin(5.0 * knots.values[:, 0]) * knots.values[:, 1] + 0.1 * rng.standard_normal(n)
    spec = _family_specs(family, order)[-1]
    gram = gram_matrix(knots, spec)

    def run():
        result, model = tune(knots, y, family, order=order, grid_count=12)
        return result.scores, result.selected, model.alpha, fit(knots, y, spec, 0.01).alpha, loocv_errors(gram, y, 0.01)

    trim = solver._malloc_trim
    for routines in (solver._lapack(), None):  # the in-place route where numpy has it, then numpy.linalg.eigh
        monkeypatch.setattr(solver, "_lapack", lambda: routines)
        monkeypatch.setattr(solver, "_malloc_trim", trim)
        trimmed = run()
        monkeypatch.setattr(solver, "_malloc_trim", lambda: None)
        for a, b in zip(trimmed, run(), strict=True):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 40])
def test_loo_and_lambda_max_leave_the_gram_unchanged_and_read_only(n):
    rng = rng_from(52, "solver", "gram-kept", n)
    knots = DesignMatrix(rng.uniform(size=(n, 3)))
    y = rng.standard_normal(n)
    gram = gram_matrix(knots, T0)
    before = gram.values.copy()
    loocv_errors(gram, y, 0.1)
    lambda_max(gram, y)
    assert np.array_equal(gram.values, before)
    assert not gram.values.flags.writeable


@in_place_only
def test_loo_reads_the_lower_triangle_of_an_asymmetric_gram_on_both_routes(monkeypatch):
    rng = rng_from(53, "solver", "asymmetric")
    A = rng.standard_normal((6, 6))
    A = A @ A.T + 6.0 * np.eye(6)
    A[np.triu_indices(6, 1)] += 1.0  # the upper triangle no longer mirrors the lower one
    gram, y = _gram_of(A), rng.standard_normal(6)
    in_place, numpy_route = _on_both_routes(monkeypatch, lambda: loocv_errors(gram, y, 0.5))
    assert np.array_equal(in_place, numpy_route)
    assert np.array_equal(in_place, loocv_errors(_gram_of(np.tril(A) + np.tril(A, -1).T), y, 0.5))


def test_tune_rbf_scans_bandwidths():
    rng = rng_from(43, "solver", "tune-rbf")
    knots = DesignMatrix(rng.uniform(size=(20, 2)))
    y = rng.standard_normal(20)
    result, model = tune(knots, y, "rbf", grid_count=5)
    assert len(result.candidates) == len(RBF_BANDWIDTHS) * 5
    assert len(RBF_BANDWIDTHS) == 13
    assert RBF_BANDWIDTHS[0] == pytest.approx(1e-3) and RBF_BANDWIDTHS[-1] == pytest.approx(10.0)
    assert model.spec.family == "rbf" and model.spec.bandwidth in RBF_BANDWIDTHS


def test_tune_tie_across_specs_goes_to_the_largest_lambda_of_the_first_spec():
    # one knot: every bandwidth has K = [[1]], the same grid and the same score
    result, model = tune(DesignMatrix([[0.5]]), [2.0], "rbf", grid_count=3)
    assert len(set(result.scores.tolist())) == 1
    assert result.selected == 2
    assert model.spec == KernelSpec.rbf(RBF_BANDWIDTHS[0]) and model.lam == result.candidates[2][1]


def test_tune_degenerate_grid():
    rng = rng_from(44, "solver", "tune-one")
    knots = DesignMatrix(rng.uniform(size=(10, 2)))
    y = rng.standard_normal(10)
    result, model = tune(knots, y, "har", grid_count=1)
    assert len(result.candidates) == 1 and result.selected == 0
    g = gram_matrix(knots, T0)
    assert model.lam == pytest.approx(lambda_max(g, y), rel=1e-9)


def test_tune_ties_break_toward_larger_lambda():
    # n=1: every leave-one-out residual equals y regardless of lambda, so the
    # whole grid ties and the most regularized candidate must win
    knots = DesignMatrix(np.array([[0.5]]))
    result, model = tune(knots, [2.0], "har", grid_count=10)
    lams = [lam for _, lam in result.candidates]
    assert result.selected == int(np.argmax(lams))
    assert model.lam == max(lams)


def test_tuning_result_derives_its_selection_from_its_scores():
    # the lowest score wins, ties go to the larger lambda, then to the earlier candidate
    specs = (KernelSpec.rbf(0.5), KernelSpec.rbf(2.0))
    candidates = tuple((spec, lam) for spec in specs for lam in (0.1, 1.0, 10.0))
    result = TuningResult(candidates, np.array([3.0, 1.0, 1.0, 2.0, 1.0, 5.0]), {})
    assert result.selected == 2 and result.winner == (specs[0], 10.0)
    assert result.choice()["loocv_score"] == 1.0
    assert TuningResult(candidates, np.array([2.0, 1.0, 3.0, 2.0, 1.0, 5.0]), {}).selected == 1
    with pytest.raises(TypeError):
        TuningResult(candidates, np.ones(6), {}, selected=0)


def test_tune_selection_invariant_to_outcome_scale():
    rng = rng_from(45, "solver", "tune-scale")
    knots = DesignMatrix(rng.uniform(size=(25, 2)))
    y = np.sin(3.0 * knots.values[:, 1]) + 0.1 * rng.standard_normal(25)
    r1, _ = tune(knots, y, "har", grid_count=15)
    r2, _ = tune(knots, 7.0 * y, "har", grid_count=15)
    assert r1.selected == r2.selected


def test_tune_noise_prefers_heavy_regularization():
    hits = 0
    for s in range(10):
        rng = rng_from(s, "noise-calib")
        knots = DesignMatrix(rng.uniform(size=(40, 2)))
        y = rng.standard_normal(40)
        result, _ = tune(knots, y, "har", grid_count=50)
        lams = np.array([lam for _, lam in result.candidates])
        hits += result.winner[1] >= lams[len(lams) // 2]
    assert hits >= 8


def test_tune_first_order_recovers_linear_functions():
    rng = rng_from(1, "linear-calib")
    knots = DesignMatrix(rng.uniform(size=(100, 2)))
    y = 3.0 * knots.values[:, 0] - 1.0
    _, model = tune(knots, y, "har", order=1, grid_count=50)
    test = DesignMatrix(rng.uniform(size=(200, 2)))
    truth = 3.0 * test.values[:, 0] - 1.0
    err = float(np.sqrt(np.mean((predict(model, test) - truth) ** 2)))
    assert err <= 0.05 * y.std(ddof=1)


def test_monotone_shrinkage_over_grid():
    rng = rng_from(46, "solver", "shrink")
    knots = DesignMatrix(rng.uniform(size=(20, 2)))
    y = rng.standard_normal(20)
    g = gram_matrix(knots, T0)
    lam0 = lambda_max(g, y)
    norms = [
        float(np.linalg.norm(fit(knots, y, T0, float(lam)).alpha))
        for lam in lambda_grid(lam0, 12)
    ]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


def test_tune_rejects_a_gram_that_overflows():
    # 2**1100 per knot overflows float64; LAPACK must never see the infinities
    knots = DesignMatrix(np.full((3, 1100), 0.5))
    # 2**600 per knot is finite, but the squares in its row norms, and so lambda0, overflow
    finite = DesignMatrix(np.full((3, 600), 0.5))
    y = [1.0, 2.0, 3.0]
    for call in (
        lambda: gram_matrix(knots, T0),
        lambda: fit(knots, y, T0, 0.5),
        lambda: tune(knots, y, "har"),
    ):
        with pytest.raises(InvalidInputError, match="overflows"):
            with pytest.warns(RuntimeWarning, match="overflow"):
                call()
    # the row norms' overflow is reported by that error alone, with no numpy warning ahead of it
    for call in (lambda: tune(finite, y, "har"), lambda: lambda_max(gram_matrix(finite, T0), y)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidInputError, match="overflows"):
                call()


@pytest.mark.parametrize("scale", [1e200, 1e-170], ids=["overflow", "underflow"])
@pytest.mark.parametrize("call", [
    lambda knots, y: tune(knots, y, "har"), lambda knots, y: lambda_max(gram_matrix(knots, T0), y),
], ids=["tune", "lambda_max"])
def test_a_target_whose_norm_leaves_float64_is_invalid_input(call, scale):
    # every y_i is finite, but ||y|| computes as inf, or as 0 below max|y|; the error alone reports it
    rng = rng_from(55, "solver", "y-scale")
    knots, y = DesignMatrix(rng.uniform(size=(5, 2))), scale * rng.standard_normal(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidInputError, match="norm of y overflows or underflows"):
            call(knots, y)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hand_built_gram_with_a_non_finite_entry_is_rejected(bad):
    # the only way loocv_errors and lambda_max could be handed such a Gram
    with pytest.raises(InvalidInputError, match="overflows"):
        _gram_of([[1.0, bad], [bad, 1.0]])


def test_loo_reports_the_lambda_at_which_the_system_is_singular():
    with pytest.raises(SingularSystemError, match="lambda=1"):
        loocv_errors(_gram_of([[-2.0]]), [1.0], 1.0)


def test_loo_names_the_first_singular_lambda_of_a_partly_singular_grid():
    # lambda = 1 and 2 leave K + lambda I singular, lambda = 3 does not
    with pytest.raises(SingularSystemError, match="at lambda=1$"):
        _loo_grid(np.array([-2.0, 1.0]), np.eye(2), np.ones(2), np.array([1.0, 2.0, 3.0]))


def test_tune_unknown_family():
    with pytest.raises(InvalidParameterError):
        tune(DesignMatrix(np.array([[0.5]])), [1.0], "polynomial")


# ---------------------------------------------------------------------------
# persistence

def test_model_round_trip_bitwise(tmp_path):
    rng = rng_from(47, "solver", "persist")
    knots = DesignMatrix(rng.uniform(size=(14, 3)))
    y = rng.standard_normal(14)
    scaling = ScalingParams(mins=np.array([0.0, -1.0, 2.0]), maxs=np.array([1.0, 1.0, 5.0]))
    model = fit(knots, y, KernelSpec.har(1), 0.37, scaling=scaling)
    test = DesignMatrix(rng.uniform(size=(9, 3)))
    before = predict(model, test)
    path = tmp_path / "model.json"
    save_model(model, path, metadata={"note": "round trip"})
    loaded, meta = load_model(path)
    assert meta == {"note": "round trip"}
    assert np.array_equal(predict(loaded, test), before)
    assert loaded.spec == model.spec and loaded.lam == model.lam
    assert np.array_equal(loaded.scaling.mins, scaling.mins)


def test_model_file_tamper_detected(tmp_path):
    knots = DesignMatrix(np.array([[0.5], [0.7]]))
    model = fit(knots, [1.0, 2.0], T0, 0.5)
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["knots"][0][0] = 0.5000001
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_model(path)


@pytest.mark.parametrize(
    "spec, path, change",
    [
        (T0, ("alpha", 1), lambda a: float(np.nextafter(a, np.inf))),
        (T0, ("lambda",), lambda lam: 2.0 * lam),
        (T0, ("kernel", "order"), lambda order: 1),
        (T0, ("scaling", "maxs", 0), lambda hi: 2.0 * hi),
        # edits the model's own checks would also reject: the fingerprint must catch them first
        (T0, ("alpha",), lambda alpha: alpha[:-1]),
        (T0, ("scaling", "maxs"), lambda maxs: maxs[:-1]),
        (T0, ("lambda",), lambda lam: -1.0),
        (T0, ("knots", 2, 1), lambda v: 0.5 * v),
        (T0, ("kernel", "order"), lambda order: 13),
        (T0, ("kernel", "family"), lambda family: "cubic"),
        (T0, ("knots", 0, 0), lambda v: float("nan")),
        (T0, ("knots",), lambda knots: []),
        (KernelSpec.rbf(0.5), ("kernel", "bandwidth"), lambda bw: -1.0),
        # edits the parse would coerce back to a valid value: hashed as the file holds them
        (T0, ("kernel",), lambda kernel: {k: v for k, v in kernel.items() if k != "order"}),
        (KernelSpec.rbf(0.5), ("kernel", "bandwidth"), lambda bw: "0.5"),
        # the last scaling value moved to the front of alpha: the same floats in the same order
        (T0, (), lambda doc: dict(doc, alpha=[doc["scaling"]["maxs"].pop(), *doc["alpha"]])),
    ],
    ids=[
        "alpha", "lambda", "kernel", "scaling", "alpha-shortened", "scaling-shortened", "negative-lambda", "knot",
        "order-13", "unknown-family", "nan-knot", "no-knots", "negative-bandwidth", "order-deleted",
        "bandwidth-text", "value-across-a-boundary",
    ],
)
def test_model_file_edit_of_any_prediction_input_rejected(tmp_path, spec, path, change):
    rng = rng_from(49, "solver", "tamper")
    knots = DesignMatrix(rng.uniform(size=(6, 2)))
    doc = model_to_dict(fit(knots, rng.standard_normal(6), spec, 0.5))
    model_from_dict(json.loads(json.dumps(doc)))
    root = {"doc": doc}  # so that an empty path edits the whole document
    *parents, last = ("doc", *path)
    target = root
    for key in parents:
        target = target[key]
    target[last] = change(target[last])
    file = tmp_path / "m.json"
    file.write_text(json.dumps(root["doc"]))
    with pytest.raises(SchemaError, match="model fingerprint mismatch"):
        load_model(file)


@pytest.mark.parametrize(
    "names",
    [["v", "u"], ["u"], ["u", "v", "w"], None],
    ids=["reordered", "removed", "added", "deleted"],
)
def test_model_file_edit_of_feature_names_rejected(tmp_path, names):
    rng = rng_from(52, "solver", "names")
    knots = DesignMatrix(rng.uniform(size=(6, 2)))
    doc = model_to_dict(fit(knots, rng.standard_normal(6), T0, 0.5), {"feature_names": ["u", "v"]})
    assert doc["format_version"] == 4
    model_from_dict(json.loads(json.dumps(doc)))
    if names is None:
        del doc["metadata"]["feature_names"]
    else:
        doc["metadata"]["feature_names"] = names
    file = tmp_path / "m.json"
    file.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="model fingerprint.*feature_names"):
        load_model(file)


@pytest.mark.parametrize("names", [["u", "u"], ["u"], "uv", 5], ids=["duplicate", "short", "text", "number"])
def test_feature_names_that_do_not_name_each_column_once_are_rejected(names):
    rng = rng_from(54, "solver", "bad-names")
    model = fit(DesignMatrix(rng.uniform(size=(6, 2))), rng.standard_normal(6), T0, 0.5)
    message = r"'metadata\.feature_names' must be a list of 2 distinct column names"
    with pytest.raises(SchemaError, match=message):
        model_to_dict(model, {"feature_names": names})
    # a file fingerprinted with them, so only the names rule can reject it
    doc = dict(model_to_dict(model), metadata={"feature_names": names})
    with pytest.raises(SchemaError, match=message):
        model_from_dict(dict(doc, model_fingerprint=_model_fingerprint(doc)))


def test_failed_save_model_keeps_the_old_file(tmp_path):
    model = fit(DesignMatrix(np.array([[0.5], [0.7]])), [1.0, 2.0], T0, 0.5)
    path = tmp_path / "m.json"
    save_model(model, path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        save_model(model, path, metadata={"note": object()})
    assert path.read_bytes() == before and [p.name for p in tmp_path.iterdir()] == ["m.json"]


def test_model_file_without_gram_fingerprint_loads():
    # format 3 wrote a hash of the knots alone, which nothing read; model_fingerprint covers the knots
    rng = rng_from(53, "solver", "gram-fingerprint")
    model = fit(DesignMatrix(rng.uniform(size=(6, 2))), rng.standard_normal(6), T0, 0.5)
    doc = json.loads(json.dumps(model_to_dict(model)))
    assert "gram_fingerprint" not in doc
    test = DesignMatrix(rng.uniform(size=(4, 2)))
    assert np.array_equal(predict(model_from_dict(doc)[0], test), predict(model, test))


def test_model_file_with_y_stats_still_loads():
    # older builds wrote y_stats, which no prediction input depends on
    rng = rng_from(51, "solver", "y-stats")
    knots = DesignMatrix(rng.uniform(size=(8, 2)))
    doc = model_to_dict(fit(knots, rng.standard_normal(8), T0, 0.3))
    assert "y_stats" not in doc
    old = dict(doc, y_stats={"max_abs": 2.5, "norm": 4.0})
    test = DesignMatrix(rng.uniform(size=(5, 2)))
    new_model, _ = model_from_dict(json.loads(json.dumps(doc)))
    old_model, _ = model_from_dict(json.loads(json.dumps(old)))
    assert np.array_equal(predict(old_model, test), predict(new_model, test))


def test_model_file_version_and_keys(tmp_path):
    knots = DesignMatrix(np.array([[0.5]]))
    model = fit(knots, [1.0], T0, 0.5)
    doc = model_to_dict(model)
    doc["format_version"] = 99
    bad = tmp_path / "v.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_model(bad)
    # true == 1 and 1.0 == 1 in Python; only a JSON integer names a version
    for version in (1, 2, 3, 5, True, 1.0, 4.0, "4"):
        bad.write_text(json.dumps(dict(model_to_dict(model), format_version=version)))
        with pytest.raises(SchemaError, match="unsupported model format version.*re-fit the model"):
            load_model(bad)
    # older formats fingerprint less, so edits like these would load unnoticed
    named = fit(DesignMatrix(np.array([[0.25, 0.5], [0.75, 0.125]])), [1.0, -2.0], T0, 0.5)
    v1 = dict(model_to_dict(model), format_version=1, alpha=[10.0 * a for a in model.alpha.tolist()])
    del v1["model_fingerprint"]  # version 1 fingerprinted the knots only
    # version 2 fingerprinted everything but the feature names
    v2 = dict(model_to_dict(named), format_version=2)
    v2 = dict(v2, model_fingerprint=_model_fingerprint(v2), metadata={"feature_names": ["v", "u"]})
    # version 3 framed no input, so a value could move from one into the next
    v3 = dict(model_to_dict(model), format_version=3, gram_fingerprint=model.knots.fingerprint)
    for doc in (v1, v2, v3):
        bad.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="unsupported model format version.*re-fit the model"):
            load_model(bad)
    for key in ("alpha", "model_fingerprint"):
        doc = model_to_dict(model)
        del doc[key]
        bad.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load_model(bad)
    bad.write_text("not json{")
    with pytest.raises(SchemaError):
        load_model(bad)
    bad.write_text(json.dumps([doc]))
    with pytest.raises(SchemaError, match="JSON object"):
        load_model(bad)


DELETED = object()


@pytest.mark.parametrize(
    "key, value, said",
    [
        # a value the hash takes as it is: the fingerprint no longer matches
        ("kernel", {}, "model fingerprint mismatch"),
        ("kernel", "har", "model fingerprint mismatch"),
        ("kernel", {"family": "rbf", "bandwidth": "wide"}, "model fingerprint mismatch"),
        ("scaling", {"mins": ["a", "b"], "maxs": [1, 1]}, "model fingerprint mismatch"),
        ("lambda", "small", "model fingerprint mismatch"),
        ("alpha", ["x", 1.0], "model fingerprint mismatch"),
        # a key the hash needs is missing, or a value it cannot take
        ("scaling", {}, "missing a key.*'mins'"),
        ("knots", [[0.5], [0.7, 0.1]], "malformed value"),
        ("metadata", ["note"], "'metadata'"),
        ("alpha", DELETED, "missing a key.*'alpha'"),
        ("model_fingerprint", DELETED, "missing a key.*'model_fingerprint'"),
    ],
    ids=[
        "kernel-empty", "kernel-text", "bandwidth-text", "scaling-text", "lambda-text", "alpha-text",
        "scaling-empty", "knots-ragged", "metadata-list", "alpha-deleted", "fingerprint-deleted",
    ],
)
def test_malformed_model_file_is_a_fingerprint_mismatch_or_names_what_cannot_be_hashed(key, value, said):
    knots = DesignMatrix(np.array([[0.5], [0.7]]))
    doc = model_to_dict(fit(knots, [1.0, 2.0], T0, 0.5))
    if value is DELETED:
        del doc[key]
    else:
        doc[key] = value
    with pytest.raises(SchemaError, match=said):
        model_from_dict(json.loads(json.dumps(doc)))


def test_model_file_with_an_unknown_kernel_family_keeps_its_error_class():
    doc = model_to_dict(fit(DesignMatrix(np.array([[0.5], [0.7]])), [1.0, 2.0], T0, 0.5))
    doc["kernel"] = {"family": "cubic"}
    doc["model_fingerprint"] = _model_fingerprint(doc)  # so the kernel's own check is reached
    with pytest.raises(InvalidParameterError):
        model_from_dict(doc)


# a saved format-4 file (3 knots x 2 features, har order 0, with feature names)
# and the predictions made when it was saved: the hash recipe and layout stay
GOLDEN_FORMAT_4 = (
    '{"format_version": 4, "kernel": {"family": "har", "order": 0, "bandwidth": null}, "lambda": 0.25, '
    '"scaling": {"mins": [-1.0, 2.0], "maxs": [3.0, 6.5]}, '
    '"knots": [[0.125, 0.75], [0.5, 0.25], [0.875, 0.625]], '
    '"alpha": [0.11595014703822988, -0.7979274611398955, 0.6721747654390134], '
    '"model_fingerprint": "9b0383e9f1358c38ac4c68ac3d55ea6838774f958ab8d6a3ccf6b1324f5a05dd", '
    '"metadata": {"feature_names": ["u", "v"]}}'
)


def test_golden_format_4_file_loads_predicts_and_saves_the_same_text(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(GOLDEN_FORMAT_4)
    model, metadata = load_model(path)
    test = DesignMatrix(np.array([[0.0, 0.0], [0.3, 0.9], [1.0, 1.0], [0.5, 0.25]]))
    expected = [-0.029407645987956615, 0.9710124632404421, 2.0638566027167045, -0.3005181347150253]
    assert np.array_equal(predict(model, test), np.array(expected))
    assert json.dumps(model_to_dict(model, metadata)) == GOLDEN_FORMAT_4


def test_model_validation():
    knots = DesignMatrix(np.array([[0.5]]))
    with pytest.raises(DimensionMismatchError):
        FittedModel(
            knots=knots, spec=T0, lam=1.0, alpha=np.array([1.0, 2.0]),
            scaling=ScalingParams.identity(1),
        )
    with pytest.raises(DimensionMismatchError, match="scaling has p=2"):
        FittedModel(knots=knots, spec=T0, lam=1.0, alpha=np.array([1.0]), scaling=ScalingParams.identity(2))
