"""Kernel evaluation and Gram construction for unit-cube regression.

Three kernel families share one interface:

* ``har`` -- the data-adaptive tensor-product spline kernel of order ``t``.
  For knot rows ``X_1 .. X_n`` (the training points) it evaluates

      k_t(x, x') = sum_i prod_j [ (x_j - X_ij)_+^t (x'_j - X_ij)_+^t / (t!)^2
                                  + sum_{tau=1..t} (x_j x'_j)^tau / (tau!)^2
                                  + 1 ]

  which is the inner product of explicit spline expansions anchored at the
  knots (see :mod:`har.basis` for the expansion itself).  At ``t = 0`` the
  product per knot collapses to a power of two and the whole kernel becomes

      k_0(x, x') = sum_i 2 ** |{ j : X_ij <= min(x_j, x'_j) }|

  The order-0 path computes exactly that: integer membership counts, then
  ``2**count``.  Both forms are exposed (`har_kernel` picks the fast form,
  `har_kernel_product_form` always uses the product construction) and must
  agree to float precision; tests pin this.

  Blocked order-0 matrices pack each point's membership against every knot
  into a bitmask of one or more words (one uint64 word per 64 features past
  p = 64), so a pair-knot count is ``popcount(a & b)`` summed over the words.
  Each row block walks small (rows x columns x knots x words) tiles that stay
  in a core's L2 cache, counting bits, shifting ``1 << count`` and summing
  over the knot axis in place.  While ``n * 2**p <= 2**53`` (so p < 64 and
  one word) every term and partial sum is an integer float64 holds exactly,
  so the sum is taken in unsigned integers and equals the float sum of the
  same terms in any order: the result is bit-identical to summing
  ``2.0**count`` and to `har_kernel`.  Past that bound the word counts are
  added and the float terms ``2.0**count`` summed in float.

* ``sobolev`` -- a fixed product kernel on the unit cube,
  ``prod_j cosh(min) * cosh(1 - max) / sinh(1)`` per coordinate.

  For a, b in [0, 1] the blocked evaluator uses two identities:
  ``cosh(min(a, b)) == min(cosh a, cosh b)``, which holds because numpy's
  ``cosh`` is nondecreasing on [0, 1] (a test checks this on a dense grid),
  and ``1 - max(a, b) == min(1 - a, 1 - b)``, which holds exactly because
  rounding ``1 - x`` is monotone.  So ``cosh(x)`` and ``cosh(1 - x)`` are
  computed once per point, and each pair costs two minima and a multiply,
  in the same multiply order as the defining product: the blocks are
  bit-identical to evaluating cosh per pair.

* ``rbf`` -- the Gaussian kernel ``exp(-||x - x'||^2 / (2 * bandwidth^2))``.

Gram matrices are assembled from fixed ``_ROW_BLOCK``-row blocks: each
block writes its rows of the upper triangle and their mirror below the
diagonal, so no sequential pass follows.  Test rows against knots take one
of two row-block passes, each checked by `_check_points` (same width, and
the unit cube for har and sobolev) and each splitting the rows into fixed
blocks that set their own rows of the output.  `cross_kernel_matrix`
evaluates the (m, n) matrix in ``_ROW_BLOCK``-row blocks.
`_cross_kernel_product`, which ``solver.predict`` calls, reduces k(test,
knots) @ alpha row by row, so the m x n matrix is never held: an order-0
model whose n * 2**p table fits gathers from `_order0_table`, and every
other model scales its evaluated block by alpha.  Its blocks take as many
rows as keep one worker's scratch near ``_BLOCK_SCRATCH_BYTES``
(`_predict_block_rows`), so each block makes its numpy calls over more
rows.  Every entry is written by exactly one task and no value depends on
which worker ran its block or on how many rows the block holds, so results
are bit-identical for any worker count.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    InvalidInputError,
    InvalidParameterError,
    _as_matrix,
    _as_vector,
    _check_int,
    _check_real,
    _frozen_finite,
)

FAMILY_HAR = "har"
FAMILY_SOBOLEV = "sobolev"
FAMILY_RBF = "rbf"
FAMILIES = (FAMILY_HAR, FAMILY_SOBOLEV, FAMILY_RBF)

#: Highest supported spline order.  Factorials are precomputed up to here;
#: larger orders are rejected (the explicit basis dimension n*(2+t)^p makes
#: them useless long before the table runs out).
MAX_ORDER = 12

_FACTORIALS = tuple(float(math.factorial(k)) for k in range(MAX_ORDER + 1))

_ROW_BLOCK = 32
# order-0 tiles of (rows, columns, knots, words) masks: 8 x 32 x 1600 x 1
# uint16 is 0.8 MB, inside a typical per-core L2 cache; order >= 1 blocks
# take columns _TILE_COLS at a time too, (rows, columns, knots) float64
_TILE_ROWS = 8
_TILE_COLS = 32
# order-0 prediction gathers from a table of n * 2^p floats when it fits
_TABLE_BYTES_CAP = 200 * 2**20
# a prediction row block holds about this much (rows, n) scratch per worker,
# and gathers table entries for this many knots at a time
_BLOCK_SCRATCH_BYTES = 2**20
_GATHER_COLUMNS = 128


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to evaluate: family plus its one relevant parameter.

    ``order`` applies to the adaptive family only, ``bandwidth`` to rbf only.
    Construction validates and normalizes; instances are immutable and safe
    to share/serialize.
    """

    family: str
    order: int = 0
    bandwidth: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParameterError(
                f"unknown kernel family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.family == FAMILY_HAR:
            object.__setattr__(self, "order", _check_int("order", self.order, 0, MAX_ORDER))
            object.__setattr__(self, "bandwidth", None)
        elif self.family == FAMILY_SOBOLEV:
            object.__setattr__(self, "order", 0)
            object.__setattr__(self, "bandwidth", None)
        else:  # rbf
            object.__setattr__(self, "order", 0)
            bandwidth = _check_real("rbf bandwidth", self.bandwidth, 0.0, ends="()")
            object.__setattr__(self, "bandwidth", bandwidth)

    @classmethod
    def har(cls, order: int = 0) -> "KernelSpec":
        return cls(family=FAMILY_HAR, order=order)

    @classmethod
    def sobolev(cls) -> "KernelSpec":
        return cls(family=FAMILY_SOBOLEV)

    @classmethod
    def rbf(cls, bandwidth: float) -> "KernelSpec":
        return cls(family=FAMILY_RBF, bandwidth=bandwidth)

    def to_dict(self) -> dict:
        return {"family": self.family, "order": self.order, "bandwidth": self.bandwidth}

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSpec":
        bandwidth = d.get("bandwidth")  # text in a (hand-edited) model file is converted here
        return cls(
            family=d["family"],
            order=d.get("order", 0) or 0,
            bandwidth=float(bandwidth) if isinstance(bandwidth, str) else bandwidth,
        )


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """An (n, p) float64 matrix of points, validated and frozen.

    Entries must be finite; the unit-cube requirement of the har/sobolev
    families is checked at kernel-evaluation time, not here, because rbf
    accepts arbitrary finite values.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_matrix(self.values, "design matrix"))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    @cached_property
    def fingerprint(self) -> str:
        """Content hash (sha256 over shape and row-major float64 bytes)."""
        h = hashlib.sha256()
        h.update(f"{self.n}x{self.p}:".encode())
        h.update(np.ascontiguousarray(self.values).tobytes())
        return h.hexdigest()


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """A kernel Gram matrix together with its provenance.

    ``knot_fingerprint`` ties the matrix to the DesignMatrix it was built
    from, so downstream code can refuse mismatched (gram, knots) pairs.  A
    NaN or infinite entry (order-0 har can overflow float64 from p = 1023
    on) is an InvalidInputError here, so no solver entry point that takes
    a Gram ever hands one to LAPACK.
    """

    values: np.ndarray
    spec: KernelSpec
    knot_fingerprint: str

    def __post_init__(self):
        _frozen_finite(self.values, f"the {self.spec.family} Gram (overflows float64)")

    @property
    def n(self) -> int:
        return self.values.shape[0]


# ---------------------------------------------------------------------------
# input checks

def _require_unit_cube(vals: np.ndarray, what: str) -> None:
    if vals.size and (vals.min() < 0.0 or vals.max() > 1.0):
        raise InvalidInputError(
            f"{what} must lie in the unit cube [0, 1]^p for this kernel family; "
            f"scale inputs first (out-of-cube values are rejected, not clamped)"
        )


def _check_points(points: DesignMatrix, knots: DesignMatrix, spec: KernelSpec) -> None:
    """The one owner of the rules for points evaluated against knots: the
    same width, and for the har and sobolev families both in the unit cube
    (a Gram passes its knots as the points too)."""
    if points.p != knots.p:
        raise DimensionMismatchError(f"test has p={points.p} but knots have p={knots.p}")
    if spec.family in (FAMILY_HAR, FAMILY_SOBOLEV):
        _require_unit_cube(knots.values, "knots")
        _require_unit_cube(points.values, "test points")


# ---------------------------------------------------------------------------
# pointwise evaluation

def har_kernel(x, x_prime, knots: DesignMatrix, order: int = 0) -> float:
    """Adaptive spline kernel of the given order at a single pair of points.

    Order 0 uses the membership-count form (exact powers of two); higher
    orders use the per-knot product form.  Inputs must lie in [0, 1]^p.
    """
    spec = KernelSpec.har(order)  # validates the order
    xv = _as_vector(x, knots.p, "x")
    xq = _as_vector(x_prime, knots.p, "x_prime")
    _require_unit_cube(knots.values, "knots")
    _require_unit_cube(xv, "x")
    _require_unit_cube(xq, "x_prime")
    if spec.order == 0:
        meet = np.minimum(xv, xq)
        counts = (knots.values <= meet[None, :]).sum(axis=1)
        return float(np.ldexp(1.0, counts.astype(np.int32)).sum())
    return _product_form_value(xv, xq, knots.values, spec.order)


def har_kernel_product_form(x, x_prime, knots: DesignMatrix, order: int = 0) -> float:
    """The general product construction, valid at every order including 0.

    At order 0 this must agree with `har_kernel` (membership-count form) to
    within float rounding; the two routes are kept separate deliberately so
    they can check each other.
    """
    KernelSpec.har(order)
    xv = _as_vector(x, knots.p, "x")
    xq = _as_vector(x_prime, knots.p, "x_prime")
    _require_unit_cube(knots.values, "knots")
    _require_unit_cube(xv, "x")
    _require_unit_cube(xq, "x_prime")
    return _product_form_value(xv, xq, knots.values, order)


def _product_form_value(x: np.ndarray, xp: np.ndarray, knots: np.ndarray, t: int) -> float:
    n, p = knots.shape
    acc = np.ones(n)
    for j in range(p):
        da = x[j] - knots[:, j]
        db = xp[j] - knots[:, j]
        if t == 0:
            # (v)_+^0 is the indicator of v >= 0 here: the hinge of order 0.
            term = ((da >= 0.0) & (db >= 0.0)).astype(np.float64)
        else:
            term = (
                np.maximum(da, 0.0) ** t
                * np.maximum(db, 0.0) ** t
                / (_FACTORIALS[t] * _FACTORIALS[t])
            )
        shell = 0.0
        xx = x[j] * xp[j]
        for tau in range(1, t + 1):
            shell += xx**tau / (_FACTORIALS[tau] * _FACTORIALS[tau])
        acc *= term + shell + 1.0
    return float(acc.sum())


def mixed_sobolev_kernel(x, x_prime) -> float:
    """Product Sobolev kernel on [0,1]^p: prod_j cosh(lo) cosh(1-hi) / sinh(1)."""
    xv = _as_vector(x, None, "x")
    xq = _as_vector(x_prime, xv.size, "x_prime", "x")
    _require_unit_cube(xv, "x")
    _require_unit_cube(xq, "x_prime")
    lo = np.minimum(xv, xq)
    hi = np.maximum(xv, xq)
    acc = 1.0
    for j in range(xv.shape[0]):
        acc *= math.cosh(lo[j]) * math.cosh(1.0 - hi[j])
    return acc / math.sinh(1.0) ** xv.shape[0]


def rbf_kernel(x, x_prime, bandwidth: float) -> float:
    """Gaussian kernel exp(-||x-x'||^2 / (2 bw^2)); exactly 1 at x == x'."""
    spec = KernelSpec.rbf(bandwidth)
    xv = _as_vector(x, None, "x")
    xq = _as_vector(x_prime, xv.size, "x_prime", "x")
    d2 = 0.0
    for j in range(xv.shape[0]):
        diff = xv[j] - xq[j]
        d2 += diff * diff
    return math.exp(-d2 / (2.0 * spec.bandwidth * spec.bandwidth))


def kernel_value(x, x_prime, knots: DesignMatrix, spec: KernelSpec) -> float:
    """Family dispatch for a single pair of points."""
    if spec.family == FAMILY_HAR:
        return har_kernel(x, x_prime, knots, spec.order)
    xv = _as_vector(x, knots.p, "x")  # the pointwise kernels check x_prime against x
    if spec.family == FAMILY_SOBOLEV:
        return mixed_sobolev_kernel(xv, x_prime)
    return rbf_kernel(xv, x_prime, spec.bandwidth)


# ---------------------------------------------------------------------------
# membership masks for the order-0 fast path

def membership_masks(points: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """Pack per-knot coordinate dominance into bitmasks, ``(m, n, words)``.

    Each word is the narrowest unsigned type holding ``2**p``, or uint64
    once p >= 64, with ``b`` bits; bit ``j % b`` of ``out[a, k, j // b]`` is
    1 iff ``knots[k, j] <= points[a, j]``.  The order-0 count for a pair
    (a, b) at knot k is the popcount of ``out[a, k] & out[b, k]`` summed
    over the words.

    The knots are copied once per call into one contiguous row per feature,
    and each feature is compared, shifted to its bit and or-ed into its word
    through two reused (m, n) buffers, so a call makes three numpy calls per
    feature and allocates no array per feature.
    """
    m, p = points.shape
    n = knots.shape[0]
    dtype = np.min_scalar_type(1 << min(p, 63))
    bits = 8 * dtype.itemsize
    out = np.zeros((m, n, -(-p // bits)), dtype=dtype)
    columns = knots.T.copy()  # (p, n)
    hit = np.empty((m, n), dtype=bool)
    term = np.empty((m, n), dtype=dtype)
    for j in range(p):
        word = out[:, :, j // bits]
        np.less_equal(columns[j], points[:, j, None], out=hit)
        np.left_shift(hit, dtype.type(j % bits), out=term)
        np.bitwise_or(word, term, out=word)
    return out


def _bit_count_inplace(a: np.ndarray) -> None:
    """Replace each element of the C-contiguous unsigned array ``a`` by its
    number of set bits.

    numpy's ``bitwise_count`` is several times faster per byte on 1-byte
    elements than on wider ones, so the bits are counted per byte and the
    byte counts of a wider element are folded into its top byte by one
    multiply with 0x0101..01 (every partial sum is at most 64, so no byte
    carries into the next), then shifted down.
    """
    width = a.itemsize
    as_bytes = a.view(np.uint8)
    np.bitwise_count(as_bytes, out=as_bytes)
    if width > 1:
        np.multiply(a, int.from_bytes(b"\x01" * width, "little"), out=a)
        np.right_shift(a, 8 * (width - 1), out=a)


# ---------------------------------------------------------------------------
# blocked matrix construction

def _block_evaluator(spec: KernelSpec, knot_vals: np.ndarray, row_vals: np.ndarray):
    """Return f(row_slice, col_slice) -> dense kernel block.

    ``row_vals`` are the left-hand points (test rows, or the knots themselves
    for a Gram matrix); columns always index the knots.  The har sum over
    knots runs over all of ``knot_vals`` regardless of the column slice.
    """
    p = knot_vals.shape[1]

    if spec.family == FAMILY_HAR and spec.order == 0:
        # Terms 2**popcount(row_mask & col_mask) are built in place in one
        # cache-sized tile buffer per row block, in the masks' own word type.
        # In the exact regime (see the module docstring) the tile holds
        # 2**count and sums into the narrowest type holding n * 2**p; past it
        # the word counts are added up and the float64 terms 2.0**count are
        # summed in float.
        n = knot_vals.shape[0]
        exact = n << p <= 1 << 53
        acc_dtype = np.min_scalar_type(n << p) if exact else None
        pow2 = None if exact else np.ldexp(1.0, np.arange(p + 1, dtype=np.int32))
        col_masks = membership_masks(knot_vals, knot_vals)
        words = col_masks.shape[2]

        def evaluate(rows: slice, cols: slice) -> np.ndarray:
            # test-row masks are built per block, so they never span all rows
            rm = col_masks[rows] if row_vals is knot_vals else membership_masks(row_vals[rows], knot_vals)
            out = np.empty((rm.shape[0], cols.stop - cols.start))
            buf = np.empty(_TILE_ROWS * _TILE_COLS * n * words, dtype=col_masks.dtype)
            for r0 in range(0, rm.shape[0], _TILE_ROWS):
                r1 = min(r0 + _TILE_ROWS, rm.shape[0])
                for c0 in range(cols.start, cols.stop, _TILE_COLS):
                    c1 = min(c0 + _TILE_COLS, cols.stop)
                    shape = (r1 - r0, c1 - c0, n, words)
                    a = buf[: math.prod(shape)].reshape(shape)
                    np.bitwise_and(rm[r0:r1, None], col_masks[None, c0:c1], out=a)
                    _bit_count_inplace(a)
                    if exact:
                        np.left_shift(1, a, out=a)
                        terms = a.sum(axis=(2, 3), dtype=acc_dtype)
                    else:
                        terms = pow2[a.sum(axis=3)].sum(axis=2)
                    out[r0:r1, c0 - cols.start : c1 - cols.start] = terms
            return out

        return evaluate

    if spec.family == FAMILY_HAR:
        t = spec.order
        tfac2 = _FACTORIALS[t] * _FACTORIALS[t]

        def evaluate(rows: slice, cols: slice) -> np.ndarray:
            rv = row_vals[rows]
            out = np.empty((rv.shape[0], cols.stop - cols.start))
            for c0 in range(cols.start, cols.stop, _TILE_COLS):
                c1 = min(c0 + _TILE_COLS, cols.stop)
                cv = knot_vals[c0:c1]
                acc = np.ones((rv.shape[0], c1 - c0, knot_vals.shape[0]))
                for j in range(p):
                    da = rv[:, j][:, None] - knot_vals[None, :, j]
                    db = cv[:, j][:, None] - knot_vals[None, :, j]
                    ha = np.maximum(da, 0.0) ** t
                    hb = np.maximum(db, 0.0) ** t
                    shell = np.zeros((rv.shape[0], c1 - c0))
                    xx = rv[:, j][:, None] * cv[None, :, j]
                    for tau in range(1, t + 1):
                        shell += xx**tau / (_FACTORIALS[tau] * _FACTORIALS[tau])
                    acc *= ha[:, None, :] * hb[None, :, :] / tfac2 + (shell + 1.0)[:, :, None]
                out[:, c0 - cols.start : c1 - cols.start] = acc.sum(axis=2)
            return out

        return evaluate

    if spec.family == FAMILY_SOBOLEV:
        # cosh(min(a, b)) == min(cosh a, cosh b) and cosh(1 - max(a, b)) ==
        # min(cosh(1 - a), cosh(1 - b)) on the cube (see the module
        # docstring), so cosh runs once per point, not once per pair
        norm = math.sinh(1.0) ** p
        knot_lo = np.cosh(knot_vals).T.copy()  # (p, n): one contiguous row per feature
        knot_hi = np.cosh(1.0 - knot_vals).T.copy()

        def evaluate(rows: slice, cols: slice) -> np.ndarray:
            rv = row_vals[rows]
            row_lo = np.cosh(rv)
            row_hi = np.cosh(1.0 - rv)
            shape = (rv.shape[0], cols.stop - cols.start)
            acc = np.empty(shape)
            term = np.empty(shape)
            hi = np.empty(shape)
            # the first factor goes straight into acc: 1.0 * t0 is t0
            np.minimum(row_lo[:, 0, None], knot_lo[0, cols], out=acc)
            np.minimum(row_hi[:, 0, None], knot_hi[0, cols], out=hi)
            acc *= hi
            for j in range(1, p):
                np.minimum(row_lo[:, j, None], knot_lo[j, cols], out=term)
                np.minimum(row_hi[:, j, None], knot_hi[j, cols], out=hi)
                term *= hi
                acc *= term
            acc /= norm
            return acc

        return evaluate

    bw = spec.bandwidth

    def evaluate(rows: slice, cols: slice) -> np.ndarray:
        rv = row_vals[rows]
        cv = knot_vals[cols]
        d2 = np.zeros((rv.shape[0], cv.shape[0]))
        for j in range(p):
            diff = rv[:, j][:, None] - cv[None, :, j]
            d2 += diff * diff
        return np.exp(-d2 / (2.0 * bw * bw))

    return evaluate


def _resolve_workers(threads: int | None) -> int:
    """The worker count: `threads`, an integer >= 0, where None and 0 mean
    one per core this process may run on."""
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (0 if threads is None else _check_int("threads", threads, 0)) or usable or 1


def _row_slices(m: int, size: int = _ROW_BLOCK) -> list:
    """The fixed partition of m rows into blocks of `size` rows."""
    return [slice(r0, min(r0 + size, m)) for r0 in range(0, m, size)]


def _run_blocks(work, blocks, threads: int | None) -> None:
    workers = _resolve_workers(threads)
    if workers <= 1 or len(blocks) <= 1:
        for b in blocks:
            work(b)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # consume to re-raise worker exceptions
        for _ in pool.map(work, blocks):
            pass


def gram_matrix(knots: DesignMatrix, spec: KernelSpec, threads: int | None = None) -> GramMatrix:
    """Kernel matrix of the knots against themselves.

    Only the upper triangle is computed, in fixed row blocks, optionally in
    parallel.  Each block writes its upper rows, their transpose into the
    columns below it, and the strict upper part of its diagonal square onto
    the lower part, so no other block writes those columns, no sequential
    pass follows, and the result is exactly symmetric and bit-identical for
    any worker count.
    """
    _check_points(knots, knots, spec)
    vals = knots.values
    n = knots.n
    K = np.empty((n, n), dtype=np.float64)
    evaluate = _block_evaluator(spec, vals, vals)

    def work(rows: slice):
        K[rows, rows.start : n] = evaluate(rows, slice(rows.start, n))
        K[rows.stop :, rows] = K[rows, rows.stop :].T
        square = K[rows, rows]
        np.copyto(square, square.T, where=np.tri(square.shape[0], k=-1, dtype=bool))

    _run_blocks(work, _row_slices(n), threads)
    return GramMatrix(values=K, spec=spec, knot_fingerprint=knots.fingerprint)


def _use_contraction(spec: KernelSpec, knots: DesignMatrix) -> bool:
    """Whether k(test, knots) @ alpha gathers from `_order0_table`: order-0
    har whose n * 2^p table fits `_TABLE_BYTES_CAP`."""
    if spec.family != FAMILY_HAR or spec.order != 0:
        return False
    return knots.n * (1 << knots.p) * 8 <= _TABLE_BYTES_CAP


def _order0_table(knot_vals: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """W[k, mu] = sum_b alpha_b 2^{|mu & mask(b, k)|}, an (n, 2^p) table.

    Knots are bucketed by their membership bitmask against each anchor knot
    k, and a per-bit doubling transform turns the bucket sums into W, so
    sum_b alpha_b k0(x, X_b) = sum_k W[k, mask(x, k)]: an exact reordering
    of the defining double sum (kernel values are integer powers of two).
    W is filled and transformed one `_row_slices` block of anchors at a
    time, each block building its own masks, so the build holds the table,
    one anchor block of masks and one half-block of scratch.
    """
    n, p = knot_vals.shape
    size = 1 << p
    W = np.empty((n, size))
    scratch = np.empty(_ROW_BLOCK * size // 2)
    for rows in _row_slices(n):
        # one mask word holds all p bits: the table cap keeps p far below 64
        masks = membership_masks(knot_vals, knot_vals[rows])[:, :, 0].T  # (k, b)
        for k, row_masks in enumerate(masks, rows.start):
            W[k] = np.bincount(row_masks, weights=alpha, minlength=size)
        block = W[rows]
        for bit in range(p):
            pairs = block.reshape(block.shape[0], -1, 2, 1 << bit)
            v0 = pairs[:, :, 0, :]
            v1 = pairs[:, :, 1, :]
            low = scratch[: v0.size].reshape(v0.shape)
            np.copyto(low, v0)
            np.add(low, v1, out=v0)  # v0 + v1
            np.multiply(v1, 2.0, out=v1)
            np.add(low, v1, out=v1)  # v0 + 2.0 * v1
    return W


def _predict_block_rows(spec: KernelSpec, knots: DesignMatrix) -> int:
    """Test rows per block of k(test, knots) @ alpha: as many as keep one
    worker's block scratch within `_BLOCK_SCRATCH_BYTES`, never fewer than
    `_ROW_BLOCK`.

    The scratch is counted in bytes per (row, knot) entry of the route: the
    table gather holds a mask word and a gathered float64, sobolev and rbf
    blocks three float64 arrays.  Every other har block walks
    (rows, columns, knots) tiles whose scratch grows with the columns, so it
    keeps `_ROW_BLOCK` rows, as the Gram does.
    """
    if _use_contraction(spec, knots):
        entry = np.min_scalar_type(1 << knots.p).itemsize + 8
    elif spec.family == FAMILY_HAR:
        return _ROW_BLOCK
    else:
        entry = 3 * 8
    return max(_ROW_BLOCK, _BLOCK_SCRATCH_BYTES // (knots.n * entry))


def _cross_kernel_product(
    test: DesignMatrix,
    knots: DesignMatrix,
    spec: KernelSpec,
    alpha: np.ndarray,
    threads: int | None = None,
) -> np.ndarray:
    """k(test, knots) @ alpha, one value per test row, in blocks of
    `_predict_block_rows` rows, so one worker's scratch stays near
    `_BLOCK_SCRATCH_BYTES` whatever n is.

    The route is picked once: an order-0 model whose table fits gathers
    each row's n table entries from `_order0_table`, `_GATHER_COLUMNS` knots
    at a time, into one (rows, n) block; every other model scales its
    evaluated block by ``alpha`` in place.  Each block then sets its rows of
    the output to ``block.sum(axis=1)``: numpy's pairwise sum along one
    contiguous row of n terms, so a row's value never depends on the rows
    that share its block, on the block size or on the worker count.
    """
    _check_points(test, knots, spec)
    if _use_contraction(spec, knots):
        table = _order0_table(knots.values, alpha).reshape(-1)
        starts = np.arange(knots.n) << knots.p  # row k of the table, flat

        def block(rows: slice) -> np.ndarray:
            masks = membership_masks(test.values[rows], knots.values)[:, :, 0]
            vals = np.empty(masks.shape)
            for c0 in range(0, knots.n, _GATHER_COLUMNS):
                cols = slice(c0, c0 + _GATHER_COLUMNS)
                # in range by construction (masks < 2^p), and "clip" spares
                # numpy a bounds-checked copy of each chunk
                np.take(table, masks[:, cols] + starts[cols], out=vals[:, cols], mode="clip")
            return vals

    else:
        evaluate = _block_evaluator(spec, knots.values, test.values)
        all_knots = slice(0, knots.n)

        def block(rows: slice) -> np.ndarray:
            vals = evaluate(rows, all_knots)
            vals *= alpha
            return vals

    out = np.empty(test.n)

    def work(rows: slice):
        out[rows] = block(rows).sum(axis=1)

    _run_blocks(work, _row_slices(test.n, _predict_block_rows(spec, knots)), threads)
    return out


def cross_kernel_matrix(
    test: DesignMatrix,
    knots: DesignMatrix,
    spec: KernelSpec,
    threads: int | None = None,
) -> np.ndarray:
    """(m, n) matrix of kernel values between test rows and knot rows,
    evaluated in `_ROW_BLOCK`-row blocks straight into its rows."""
    _check_points(test, knots, spec)
    out = np.empty((test.n, knots.n))
    evaluate = _block_evaluator(spec, knots.values, test.values)
    all_knots = slice(0, knots.n)

    def work(rows: slice):
        out[rows] = evaluate(rows, all_knots)

    _run_blocks(work, _row_slices(test.n), threads)
    return out
