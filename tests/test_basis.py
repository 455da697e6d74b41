import numpy as np
import pytest

from har.basis import (
    BasisExpansion,
    basis_dimension,
    expand,
    expansion_matrix,
    explicit_predict,
    explicit_ridge_fit,
)
from har.data import rng_from
from har.exceptions import DimensionMismatchError, InvalidParameterError, UnsupportedSizeError
from har.kernels import DesignMatrix, KernelSpec, har_kernel
from har.solver import fit, predict


def test_dimension_formula():
    assert basis_dimension(1, 1, 0) == 2
    assert basis_dimension(3, 2, 0) == 12
    assert basis_dimension(1, 2, 1) == 9
    assert basis_dimension(5, 3, 2) == 5 * 4 ** 3


def test_expand_counts_match_formula():
    rng = rng_from(20, "basis", "counts")
    for n, p, t in [(1, 1, 0), (4, 2, 0), (3, 3, 1), (2, 2, 2), (16, 1, 2)]:
        knots = DesignMatrix(rng.uniform(size=(n, p)))
        e = expand(rng.uniform(size=p), knots, t)
        assert e.dimension == basis_dimension(n, p, t)
        assert len(e.index) == e.dimension


def test_order0_origin_knot_all_ones():
    for p in (1, 2, 3):
        knots = DesignMatrix(np.zeros((1, p)))
        e = expand(np.full(p, 0.4), knots, 0)
        assert np.all(e.values == 1.0)
        assert e.dimension == 2 ** p


def test_order0_entries_are_indicators():
    rng = rng_from(21, "basis", "indicator")
    knots = DesignMatrix(rng.uniform(size=(5, 3)))
    e = expand(rng.uniform(size=3), knots, 0)
    assert np.array_equal(e.values, e.values ** 2)  # idempotent under squaring


def test_order0_section_firing_example():
    # knot 1 = (0.2, 0.5): dims below x are {1} only; knot 2 = (0.7, 0.3): {2} only
    knots = DesignMatrix(np.array([[0.2, 0.5], [0.7, 0.3]]))
    e = expand(np.array([0.6, 0.4]), knots, 0)
    first, second = e.values[:4], e.values[4:]
    assert first.sum() == 2.0  # empty section and {1}
    assert second.sum() == 2.0  # empty section and {2}


def test_order1_single_knot_expansion():
    knots = DesignMatrix(np.array([[0.5]]))
    e = expand(np.array([0.75]), knots, 1)
    # counter order: state 0 -> 1, state 1 -> x, state 2 -> hinge
    assert np.allclose(e.values, [1.0, 0.75, 0.25])
    assert e.index == [(0, (0,)), (0, (1,)), (0, (2,))]


def test_order1_p2_matches_published_basis_table():
    rng = rng_from(22, "basis", "table")
    v = rng.uniform(size=2)
    x = rng.uniform(size=2)
    knots = DesignMatrix(v[None, :])
    e = expand(x, knots, 1)
    h1 = max(x[0] - v[0], 0.0)
    h2 = max(x[1] - v[1], 0.0)
    expected = sorted([
        h1 * h2, h1 * x[1], h1, x[0] * h2, h2, x[0] * x[1], x[0], x[1], 1.0,
    ])
    assert np.allclose(sorted(e.values), expected, rtol=1e-14)


def test_scale_guard():
    rng = rng_from(23, "basis", "guard")
    with pytest.raises(UnsupportedSizeError):
        expand(rng.uniform(size=2), DesignMatrix(rng.uniform(size=(17, 2))), 0)
    with pytest.raises(UnsupportedSizeError):
        expand(rng.uniform(size=7), DesignMatrix(rng.uniform(size=(2, 7))), 0)
    with pytest.raises(UnsupportedSizeError):
        expand(rng.uniform(size=2), DesignMatrix(rng.uniform(size=(2, 2))), 3)
    with pytest.raises(InvalidParameterError):
        expand(rng.uniform(size=2), DesignMatrix(rng.uniform(size=(2, 2))), -1)
    # inside the expansion's own limits, but d = 11664 is past the ridge solve's
    with pytest.raises(UnsupportedSizeError, match="d=11664"):
        explicit_ridge_fit(DesignMatrix(rng.uniform(size=(16, 6))), np.zeros(16), 1, 1.0)


def test_oracle_identity_spot():
    rng = rng_from(24, "basis", "identity")
    for _ in range(100):
        n = int(rng.integers(1, 9))
        p = int(rng.integers(1, 5))
        t = int(rng.integers(0, 3))
        knots = DesignMatrix(rng.uniform(size=(n, p)))
        x, y = rng.uniform(size=p), rng.uniform(size=p)
        via_basis = float(expand(x, knots, t).values @ expand(y, knots, t).values)
        via_kernel = har_kernel(x, y, knots, t)
        assert via_kernel == pytest.approx(via_basis, rel=1e-10)


def test_expansion_matrix_rows():
    rng = rng_from(25, "basis", "matrix")
    knots = DesignMatrix(rng.uniform(size=(3, 2)))
    points = DesignMatrix(rng.uniform(size=(4, 2)))
    H = expansion_matrix(points, knots, 1)
    assert H.shape == (4, basis_dimension(3, 2, 1))
    for i in range(4):
        assert np.array_equal(H[i], expand(points.values[i], knots, 1).values)
    with pytest.raises(DimensionMismatchError):
        expansion_matrix(DesignMatrix(rng.uniform(size=(4, 3))), knots, 1)


def test_explicit_ridge_requires_positive_lambda():
    rng = rng_from(26, "basis", "lam")
    knots = DesignMatrix(rng.uniform(size=(3, 2)))
    y = rng.standard_normal(3)
    with pytest.raises(InvalidParameterError):
        explicit_ridge_fit(knots, y, 0, 0.0)


def test_explicit_ridge_shrinks_to_zero():
    rng = rng_from(27, "basis", "shrink")
    knots = DesignMatrix(rng.uniform(size=(5, 2)))
    y = np.full(5, 3.0)
    beta = explicit_ridge_fit(knots, y, 0, 1e9)
    preds = explicit_predict(beta, knots, knots, 0)
    assert np.max(np.abs(preds)) < 1e-6


def test_primal_dual_agreement():
    rng = rng_from(28, "basis", "woodbury")
    for t in (0, 1, 2):
        for lam in (1e-3, 1.0, 10.0):
            n = int(rng.integers(2, 9))
            p = int(rng.integers(1, 4))
            knots = DesignMatrix(rng.uniform(size=(n, p)))
            y = rng.standard_normal(n)
            test = DesignMatrix(rng.uniform(size=(6, p)))
            beta = explicit_ridge_fit(knots, y, t, lam)
            primal = explicit_predict(beta, test, knots, t)
            model = fit(knots, y, KernelSpec.har(t), lam)
            dual = predict(model, test)
            scale = max(1.0, float(np.max(np.abs(dual))))
            assert np.max(np.abs(primal - dual)) / scale < 1e-8


def test_hand_solved_single_knot_prediction():
    # H = [1, 1] at the knot itself; dual K = [[2]], alpha = 2/3, prediction 4/3
    knots = DesignMatrix(np.array([[0.5]]))
    beta = explicit_ridge_fit(knots, np.array([2.0]), 0, 1.0)
    pred = explicit_predict(beta, knots, knots, 0)
    assert pred[0] == pytest.approx(4.0 / 3.0, rel=1e-12)
