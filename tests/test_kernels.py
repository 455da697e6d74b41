import math
import tracemalloc

import numpy as np
import pytest

from har import kernels
from har.data import rng_from
from har.exceptions import (
    DimensionMismatchError,
    InvalidInputError,
    InvalidParameterError,
)
from har.kernels import (
    DesignMatrix,
    KernelSpec,
    cross_kernel_matrix,
    gram_matrix,
    har_kernel,
    har_kernel_product_form,
    kernel_value,
    membership_masks,
    mixed_sobolev_kernel,
    rbf_kernel,
)


# ---------------------------------------------------------------------------
# KernelSpec

def test_spec_families_and_validation():
    assert KernelSpec.har(0).order == 0
    assert KernelSpec.har(2).family == "har"
    assert KernelSpec.sobolev().order == 0
    assert KernelSpec.rbf(0.5).bandwidth == 0.5
    with pytest.raises(InvalidParameterError):
        KernelSpec.har(-1)
    with pytest.raises(InvalidParameterError):
        KernelSpec.har(13)  # factorial table stops at 12
    with pytest.raises(InvalidParameterError):
        KernelSpec.rbf(0.0)
    with pytest.raises(InvalidParameterError):
        KernelSpec.rbf(-1.0)
    with pytest.raises(InvalidParameterError):
        KernelSpec.rbf(float("inf"))
    with pytest.raises(InvalidParameterError):
        KernelSpec(family="nope", order=0)


def test_spec_dict_round_trip():
    for spec in [KernelSpec.har(1), KernelSpec.sobolev(), KernelSpec.rbf(2.5)]:
        assert KernelSpec.from_dict(spec.to_dict()) == spec


def test_design_matrix_validation():
    m = DesignMatrix(np.array([[0.1, 0.2]]))
    assert m.n == 1 and m.p == 2
    assert not m.values.flags.writeable
    with pytest.raises(InvalidInputError):
        DesignMatrix(np.empty((0, 2)))
    with pytest.raises(InvalidInputError):
        DesignMatrix(np.array([[np.nan, 0.0]]))
    with pytest.raises(DimensionMismatchError):
        DesignMatrix(np.array([1.0, 2.0]))  # needs two dims


def test_design_matrix_fingerprint_tracks_content():
    a = DesignMatrix(np.array([[0.1, 0.2]]))
    b = DesignMatrix(np.array([[0.1, 0.2]]))
    c = DesignMatrix(np.array([[0.1, 0.3]]))
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != c.fingerprint


def test_design_matrix_fingerprint_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        DesignMatrix(np.array([[0.1, 0.2]]), "forged")


# ---------------------------------------------------------------------------
# pointwise values

KNOTS_2x2 = DesignMatrix(np.array([[0.2, 0.5], [0.7, 0.3]]))


def test_order0_worked_example():
    # knot 1 fires sections {}, {1}, {2}, {1,2}; knot 2 fires {}, {2} on the meet (0.6, 0.4)
    v = har_kernel(np.array([0.6, 0.6]), np.array([0.8, 0.4]), KNOTS_2x2, 0)
    assert v == 4.0


def test_order0_saturation_and_floor():
    rng = rng_from(1, "kernels", "saturation")
    knots = DesignMatrix(rng.uniform(size=(7, 3)))
    ones = np.ones(3)
    assert har_kernel(ones, ones, knots, 0) == 7 * 2 ** 3
    # knots strictly above both arguments leave only the empty section
    high = DesignMatrix(np.full((5, 2), 0.9))
    v = har_kernel(np.array([0.1, 0.2]), np.array([0.3, 0.1]), high, 0)
    assert v == 5.0


def test_order1_worked_example():
    knots = DesignMatrix(np.array([[0.5]]))
    v = har_kernel(np.array([0.75]), np.array([0.75]), knots, 1)
    # expansion [1, 0.75, 0.25] against itself
    assert v == pytest.approx(1.625, rel=1e-15)


def test_sobolev_values():
    one = math.cosh(1.0) / math.sinh(1.0)
    assert mixed_sobolev_kernel(np.array([0.0]), np.array([0.0])) == one
    assert mixed_sobolev_kernel(np.array([0.0]), np.array([1.0])) == 1.0 / math.sinh(1.0)
    # product over dims can differ from the literal square in the last ulp
    two = mixed_sobolev_kernel(np.array([0.0, 0.0]), np.array([0.0, 0.0]))
    assert two == pytest.approx(one ** 2, rel=1e-14)
    assert two == pytest.approx(1.7240616609663108, rel=1e-14)


def test_rbf_values():
    x = np.array([0.3, 0.4])
    assert rbf_kernel(x, x, 1.7) == 1.0
    assert rbf_kernel(np.array([0.0]), np.array([1.0]), 1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)
    v = rbf_kernel(np.array([0.0, 0.0]), np.array([3.0, 4.0]), 5.0)
    assert v == pytest.approx(math.exp(-0.5), rel=1e-15)


def test_kernel_value_dispatch():
    x = np.array([0.3, 0.4])
    y = np.array([0.6, 0.1])
    assert kernel_value(x, y, KNOTS_2x2, KernelSpec.har(0)) == har_kernel(x, y, KNOTS_2x2, 0)
    assert kernel_value(x, y, KNOTS_2x2, KernelSpec.sobolev()) == mixed_sobolev_kernel(x, y)
    assert kernel_value(x, y, KNOTS_2x2, KernelSpec.rbf(2.0)) == rbf_kernel(x, y, 2.0)


# ---------------------------------------------------------------------------
# contracts

def test_unit_cube_enforced_for_adaptive_and_sobolev():
    inside = np.array([0.5, 0.5])
    outside = np.array([1.2, 0.5])
    with pytest.raises(InvalidInputError):
        har_kernel(outside, inside, KNOTS_2x2, 0)
    with pytest.raises(InvalidInputError):
        mixed_sobolev_kernel(inside, outside)
    # rbf has no cube requirement
    assert rbf_kernel(np.array([5.0]), np.array([-3.0]), 2.0) > 0


def test_dimension_and_nan_errors():
    with pytest.raises(DimensionMismatchError):
        har_kernel(np.array([0.5]), np.array([0.5, 0.5]), KNOTS_2x2, 0)
    with pytest.raises(DimensionMismatchError):
        har_kernel(np.array([0.5, 0.5, 0.5]), np.array([0.5, 0.5, 0.5]), KNOTS_2x2, 0)
    with pytest.raises(InvalidInputError):
        har_kernel(np.array([np.nan, 0.5]), np.array([0.5, 0.5]), KNOTS_2x2, 0)


# ---------------------------------------------------------------------------
# properties

def _random_instance(rng, max_n=10, max_p=4):
    n = int(rng.integers(1, max_n + 1))
    p = int(rng.integers(1, max_p + 1))
    knots = DesignMatrix(rng.uniform(size=(n, p)))
    return knots, rng.uniform(size=p), rng.uniform(size=p)


def test_symmetry_all_families():
    rng = rng_from(2, "kernels", "symmetry")
    for _ in range(1000):
        knots, x, y = _random_instance(rng)
        t = int(rng.integers(0, 3))
        assert har_kernel(x, y, knots, t) == har_kernel(y, x, knots, t)
        assert mixed_sobolev_kernel(x, y) == mixed_sobolev_kernel(y, x)
        bw = float(rng.uniform(0.05, 5.0))
        assert rbf_kernel(x, y, bw) == rbf_kernel(y, x, bw)


def test_order0_bounds():
    rng = rng_from(3, "kernels", "bounds")
    for _ in range(300):
        knots, x, y = _random_instance(rng)
        v = har_kernel(x, y, knots, 0)
        assert knots.n <= v <= knots.n * 2 ** knots.p


def test_order0_monotone_in_the_meet():
    rng = rng_from(4, "kernels", "monotone")
    for _ in range(200):
        knots, x, y = _random_instance(rng)
        v = har_kernel(x, y, knots, 0)
        j = int(rng.integers(0, knots.p))
        x2, y2 = x.copy(), y.copy()
        # raising one coordinate of both arguments raises the elementwise min
        x2[j] = min(1.0, x2[j] + float(rng.uniform(0, 1 - x2[j] + 1e-12)))
        y2[j] = min(1.0, y2[j] + float(rng.uniform(0, 1 - y2[j] + 1e-12)))
        assert har_kernel(x2, y2, knots, 0) >= v


def test_product_form_matches_count_form_at_order0():
    rng = rng_from(5, "kernels", "t0-equiv")
    for _ in range(500):
        knots, x, y = _random_instance(rng)
        a = har_kernel(x, y, knots, 0)
        b = har_kernel_product_form(x, y, knots, 0)
        assert b == pytest.approx(a, rel=1e-12)


def test_knot_permutation_invariance():
    rng = rng_from(6, "kernels", "permute")
    knots = DesignMatrix(rng.uniform(size=(6, 3)))
    x, y = rng.uniform(size=3), rng.uniform(size=3)
    perm = rng.permutation(6)
    shuffled = DesignMatrix(knots.values[perm])
    for t in (0, 1, 2):
        assert har_kernel(x, y, knots, t) == pytest.approx(
            har_kernel(x, y, shuffled, t), rel=1e-14
        )


# ---------------------------------------------------------------------------
# membership masks

def test_membership_mask_bits():
    points = np.array([[0.6, 0.4]])
    knots = np.array([[0.2, 0.5], [0.7, 0.3]])
    masks = membership_masks(points, knots)
    assert masks.shape == (1, 2, 1)
    # bit j set iff knot coord <= point coord
    assert masks[0, 0, 0] == 0b01  # knot 1: dim 0 yes, dim 1 no
    assert masks[0, 1, 0] == 0b10  # knot 2: dim 0 no, dim 1 yes


def test_membership_masks_wide_p_span_words():
    # p = 70 needs two uint64 words; feature j is bit j % 64 of word j // 64
    p = 70
    knots = np.full((2, p), 0.5)
    knots[1, [0, 63, *range(64, 70)]] = 0.0
    masks = membership_masks(np.zeros((1, p)), knots)
    assert masks.shape == (1, 2, 2) and masks.dtype == np.uint64
    assert masks[0, 0, 0] == 0 and masks[0, 0, 1] == 0
    assert masks[0, 1, 0] == (1 << 0) | (1 << 63)
    assert masks[0, 1, 1] == 0b111111


def _per_feature_masks(points, knots):
    # the construction membership_masks replaced: one (m, n) comparison,
    # product and or per feature, reading knot columns in place
    m, p = points.shape
    n = knots.shape[0]
    dtype = np.min_scalar_type(1 << min(p, 63))
    bits = 8 * dtype.itemsize
    out = np.zeros((m, n, -(-p // bits)), dtype=dtype)
    for j in range(p):
        bit = dtype.type(1) << dtype.type(j % bits)
        out[:, :, j // bits] |= (knots[None, :, j] <= points[:, None, j]) * bit
    return out


@pytest.mark.parametrize("p", [1, 7, 8, 9, 10, 16, 17, 63, 64, 65, 70])
def test_membership_masks_equal_the_per_feature_construction(p):
    # p = 8, 16, 64 widen the word or add one; rounded coordinates tie, and
    # the last points are the knots themselves
    rng = rng_from(47, "kernels", "masks", p)
    knots = np.round(rng.uniform(size=(40, p)), 1)
    knots[::2] = rng.uniform(size=(20, p))
    points = np.vstack([np.round(rng.uniform(size=(33, p)), 1), rng.uniform(size=(5, p)), knots])
    masks = membership_masks(points, knots)
    reference = _per_feature_masks(points, knots)
    assert masks.dtype == reference.dtype and masks.shape == reference.shape
    assert np.array_equal(masks, reference)


# ---------------------------------------------------------------------------
# prediction block sizes

@pytest.mark.parametrize("n", [1, 800, 1600, 40000])
@pytest.mark.parametrize(
    "spec, entry", [(KernelSpec.har(0), 2 + 8), (KernelSpec.sobolev(), 3 * 8)], ids=["table", "cross"]
)
def test_predict_block_rows_fill_the_scratch_budget(spec, entry, n):
    # p = 8: uint16 masks, and the n * 256 table fits at every n here
    knots = DesignMatrix(np.zeros((n, 8)))
    assert kernels._use_contraction(spec, knots) == (spec.family == "har")
    rows = kernels._predict_block_rows(spec, knots)
    assert rows >= kernels._ROW_BLOCK
    assert rows == kernels._ROW_BLOCK or rows * n * entry <= kernels._BLOCK_SCRATCH_BYTES
    assert (rows + 1) * n * entry > kernels._BLOCK_SCRATCH_BYTES


def test_predict_block_rows_at_800_knots():
    knots = DesignMatrix(np.zeros((800, 10)))
    assert kernels._predict_block_rows(KernelSpec.har(0), knots) == 131
    assert kernels._predict_block_rows(KernelSpec.sobolev(), knots) == 54
    assert kernels._predict_block_rows(KernelSpec.rbf(0.5), knots) == 54
    # tiled har blocks keep the Gram's block
    assert kernels._predict_block_rows(KernelSpec.har(1), knots) == kernels._ROW_BLOCK
    assert kernels._predict_block_rows(KernelSpec.har(0), DesignMatrix(np.zeros((8, 25)))) == kernels._ROW_BLOCK


# ---------------------------------------------------------------------------
# gram / cross matrices

def test_gram_single_entry():
    knots = DesignMatrix(np.array([[0.5]]))
    g = gram_matrix(knots, KernelSpec.har(0))
    assert g.values.shape == (1, 1) and g.values[0, 0] == 2.0


def test_gram_matches_pointwise_and_is_bitwise_symmetric():
    rng = rng_from(8, "kernels", "gram")
    knots = DesignMatrix(rng.uniform(size=(9, 3)))
    for spec in [KernelSpec.har(0), KernelSpec.har(2), KernelSpec.sobolev(), KernelSpec.rbf(0.7)]:
        g = gram_matrix(knots, spec)
        assert np.array_equal(g.values, g.values.T)
        for i in range(9):
            for j in range(9):
                expected = kernel_value(knots.values[i], knots.values[j], knots, spec)
                assert g.values[i, j] == pytest.approx(expected, rel=1e-12)


def test_gram_psd():
    rng = rng_from(9, "kernels", "psd")
    for spec in [KernelSpec.har(0), KernelSpec.har(1), KernelSpec.sobolev(), KernelSpec.rbf(0.3)]:
        knots = DesignMatrix(rng.uniform(size=(20, 4)))
        w = np.linalg.eigvalsh(gram_matrix(knots, spec).values)
        assert w[0] >= -1e-8 * max(w[-1], 1.0)


def test_gram_knot_permutation_permutes_entries():
    rng = rng_from(10, "kernels", "gram-permute")
    knots = DesignMatrix(rng.uniform(size=(6, 2)))
    perm = rng.permutation(6)
    g = gram_matrix(knots, KernelSpec.har(0)).values
    g2 = gram_matrix(DesignMatrix(knots.values[perm]), KernelSpec.har(0)).values
    assert np.allclose(g2, g[np.ix_(perm, perm)], rtol=1e-14)


def test_cross_equals_gram_on_self():
    rng = rng_from(11, "kernels", "cross")
    knots = DesignMatrix(rng.uniform(size=(12, 3)))
    for spec in [KernelSpec.har(0), KernelSpec.har(1), KernelSpec.sobolev(), KernelSpec.rbf(1.1)]:
        g = gram_matrix(knots, spec)
        c = cross_kernel_matrix(knots, knots, spec)
        assert np.array_equal(c, g.values)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 63, 64, 65, 97, 150])
def test_gram_mirror_exact_across_block_columns(n, threads):
    # each _ROW_BLOCK of rows writes the columns below itself, so n on either
    # side of a block edge moves which block writes the last lower rows
    rng = rng_from(14, "kernels", "mirror", n)
    knots = DesignMatrix(rng.uniform(size=(n, 3)))
    for spec in [KernelSpec.har(0), KernelSpec.har(1), KernelSpec.sobolev(), KernelSpec.rbf(1.1)]:
        g = gram_matrix(knots, spec, threads=threads).values
        assert np.array_equal(g, g.T)
        assert np.array_equal(g, cross_kernel_matrix(knots, knots, spec))


def _sobolev_oracle(a, b):
    """The defining product, cosh of each pair's min and 1 - max, in the
    evaluator's multiply order."""
    acc = np.ones((a.shape[0], b.shape[0]))
    for j in range(a.shape[1]):
        lo = np.minimum(a[:, j, None], b[None, :, j])
        hi = np.maximum(a[:, j, None], b[None, :, j])
        acc *= np.cosh(lo) * np.cosh(1.0 - hi)
    return acc / math.sinh(1.0) ** a.shape[1]


def _sobolev_points(m, p, key):
    """m uniform points with cube corners and duplicate rows mixed in."""
    x = rng_from(15, "kernels", "sobolev", key, m, p).uniform(size=(m, p))
    x[::5, 0] = 0.0
    x[1::5, -1] = 1.0
    x[2::7] = x[0]
    return x


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 65, 97])
def test_sobolev_blocked_matrices_equal_the_pairwise_product(n, p):
    knots = DesignMatrix(_sobolev_points(n, p, "knots"))
    test = DesignMatrix(_sobolev_points(70, p, "test"))
    spec = KernelSpec.sobolev()
    for threads in (1, 2):
        assert np.array_equal(gram_matrix(knots, spec, threads=threads).values,
                              _sobolev_oracle(knots.values, knots.values))
    assert np.array_equal(cross_kernel_matrix(test, knots, spec), _sobolev_oracle(test.values, knots.values))


def test_cosh_is_nondecreasing_on_the_unit_interval():
    # the sobolev evaluator takes cosh(min(a, b)) as min(cosh a, cosh b), which
    # holds only while numpy's cosh is monotone on [0, 1]
    grid = np.concatenate([
        np.linspace(0.0, 1.0, 2**20 + 1),
        *(np.nextafter(x, 2.0) + np.arange(4096) * np.spacing(x) for x in (0.25, 0.5, 0.75)),
    ])
    grid.sort()
    assert np.all(np.diff(np.cosh(grid)) >= 0.0)
    assert np.all(np.diff(np.cosh(1.0 - grid)) <= 0.0)


def test_cross_single_row_is_pointwise():
    rng = rng_from(12, "kernels", "cross-row")
    knots = DesignMatrix(rng.uniform(size=(5, 2)))
    x = rng.uniform(size=2)
    row = cross_kernel_matrix(DesignMatrix(x[None, :]), knots, KernelSpec.har(0))
    for j in range(5):
        assert row[0, j] == har_kernel(x, knots.values[j], knots, 0)


def test_cross_dimension_mismatch():
    a = DesignMatrix(np.array([[0.1, 0.2]]))
    b = DesignMatrix(np.array([[0.1, 0.2, 0.3]]))
    with pytest.raises(DimensionMismatchError):
        cross_kernel_matrix(a, b, KernelSpec.sobolev())


def test_parallel_determinism():
    rng = rng_from(13, "kernels", "parallel")
    knots = DesignMatrix(rng.uniform(size=(70, 4)))
    for spec in [KernelSpec.har(0), KernelSpec.har(2), KernelSpec.rbf(0.9)]:
        g1 = gram_matrix(knots, spec, threads=1).values
        g4 = gram_matrix(knots, spec, threads=4).values
        assert np.array_equal(g1, g4)


def test_order1_cross_tile_bounded():
    # each row block multiplies (rows, _TILE_COLS, n) float64 tiles, never a
    # tile hundreds of knots wide
    rng = rng_from(13, "kernels", "order1-tile")
    knots = DesignMatrix(rng.uniform(size=(800, 3)))
    test = DesignMatrix(rng.uniform(size=(64, 3)))
    tracemalloc.start()
    try:
        cross_kernel_matrix(test, knots, KernelSpec.har(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_negative_workers_rejected():
    knots = DesignMatrix(np.array([[0.5]]))
    with pytest.raises(InvalidParameterError):
        gram_matrix(knots, KernelSpec.har(0), threads=-2)


def test_default_workers_follow_usable_cores(monkeypatch):
    # one worker per core the process may run on, not per core the host has
    monkeypatch.setattr(kernels.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert kernels._resolve_workers(None) == kernels._resolve_workers(0) == 1
    assert kernels._resolve_workers(3) == 3
    monkeypatch.delattr(kernels.os, "sched_getaffinity")
    assert kernels._resolve_workers(None) == 8


def test_wide_p_gram_consistent_with_pointwise():
    # beyond 64 features each order-0 mask spans two words
    rng = rng_from(14, "kernels", "wide-gram")
    knots = DesignMatrix(rng.uniform(size=(6, 70)))
    g = gram_matrix(knots, KernelSpec.har(0)).values
    for i in range(6):
        for j in range(i, 6):
            assert g[i, j] == har_kernel(knots.values[i], knots.values[j], knots, 0)


@pytest.mark.parametrize("p", [7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 48, 64, 65, 128, 129])
def test_order0_gram_exact_at_dtype_boundaries(p):
    # p straddles the 1/2/4/8-byte mask and term types and the 1/2/3-word
    # masks; 45 knots leave ragged row and column tiles; 45 * 2**p crosses
    # 2**53 between p = 47 and 48, where the integer sum gives way to float
    # terms.  A knot at the origin puts a 2**p term in every entry, and the
    # all-ones point's diagonal entry is the largest possible sum, 45 * 2**p.
    rng = rng_from(16, "kernels", "dtype-boundaries", p)
    vals = rng.uniform(size=(45, p))
    vals[0] = 0.0
    vals[1] = 1.0
    knots = DesignMatrix(vals)
    spec = KernelSpec.har(0)
    g1 = gram_matrix(knots, spec, threads=1).values
    assert np.array_equal(gram_matrix(knots, spec, threads=2).values, g1)
    assert np.array_equal(cross_kernel_matrix(knots, knots, spec), g1)
    assert g1[1, 1] == 45 * 2.0**p
    pairs = [(0, 0), (0, 1), (1, 1), (44, 44), (3, 44)] + [
        tuple(ij) for ij in rng.integers(0, 45, size=(15, 2))
    ]
    for i, j in pairs:
        assert g1[i, j] == har_kernel(vals[i], vals[j], knots, 0)


def test_gram_provenance():
    rng = rng_from(15, "kernels", "prov")
    knots = DesignMatrix(rng.uniform(size=(4, 2)))
    g = gram_matrix(knots, KernelSpec.sobolev())
    assert g.knot_fingerprint == knots.fingerprint
    assert g.spec == KernelSpec.sobolev()
