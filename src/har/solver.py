"""Dual ridge solving, closed-form leave-one-out tuning, and persistence.

The model is f(x) = sum_b alpha_b k(x, X_b) with alpha = (K + lambda I)^-1 y.
Everything expensive about model selection collapses into linear algebra on
one Gram matrix per kernel candidate:

* leave-one-out residuals in closed form: e_i = alpha_i / [(K+lambda I)^-1]_ii,
  equal to literally refitting on the other n-1 rows with the kernel's knot
  set held fixed (only the regression row leaves; the kernel itself still
  sums over all n knots);

* an upper regularization bound lambda0 = max_i ||K_i|| * ||y|| / (eps max|y|)
  - eigmin(K), above which every in-sample prediction is provably below
  eps * max|y| in magnitude, so the search grid [1e-8 * lambda0, lambda0]
  brackets everything from near-interpolation to near-zero;

* a geometric grid over that interval scored by mean squared leave-one-out
  residual; the lowest score wins, ties to the larger lambda, then to the
  earlier candidate, a rule `_best` alone applies.

`tune` factors each Gram once, K = V diag(w) V^T, by `eigh`: LAPACK
dsyevd, the routine numpy.linalg.eigh calls, run through ctypes on the
Gram's own buffer, which it overwrites with V, once malloc_trim(0) has
handed the heap earlier work freed back to the OS.  eigmin(K) = w[0] sets
lambda0, two matrix products give alpha and the inverse diagonal at every
grid point, and the winner's alpha is its column of that product, so no
second factorization is made.  `fit`, for an explicit lambda, and
`loocv_errors` make the same eigendecomposition and products at their one
lambda, so one rule, in `_loo_grid`, decides when K + lambda I is singular,
and a model's alpha always solves the lambda it records.  `eigh` copies
only the Gram `loocv_errors` is given.  Needs numpy alone.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
from dataclasses import dataclass
from functools import cache, partial

import numpy as np
from numpy.linalg import LinAlgError

from .data import ScalingParams, read_json, write_json
from .exceptions import (
    DimensionMismatchError,
    HarError,
    InvalidInputError,
    SchemaError,
    SingularSystemError,
    UndefinedScaleError,
    _as_vector,
    _check_int,
    _check_real,
)
from .kernels import (
    FAMILY_RBF,
    DesignMatrix,
    GramMatrix,
    KernelSpec,
    _array_fingerprint,
    _cross_kernel_product,
    _row_slices,
    gram_matrix,
)

MODEL_FORMAT_VERSION = 4

DEFAULT_EPSILON = 1e-3
DEFAULT_GRID_COUNT = 50
#: Span of the lambda grid below lambda0, and the rbf bandwidth ladder.
GRID_SPAN = 1e-8
RBF_BANDWIDTHS = tuple(float(b) for b in np.geomspace(1e-3, 10.0, 13))

#: a model's lambda rule, for `fit` before it builds a Gram and for every `FittedModel`
_check_model_lambda = partial(_check_real, "lambda", low=0.0)

#: the two routes `eigh` can take, as `eigensolver` names them
EIGENSOLVER_IN_PLACE = "lapack-dsyevd-in-place"
EIGENSOLVER_NUMPY = "numpy.linalg.eigh"


@dataclass(frozen=True, eq=False)
class FittedModel:
    """Everything needed to predict, and nothing else: knots, kernel,
    lambda, dual weights and the feature scaling that produced the knots."""

    knots: DesignMatrix
    spec: KernelSpec
    lam: float
    alpha: np.ndarray
    scaling: ScalingParams

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_vector(self.alpha, self.knots.n, "alpha"))
        if self.scaling.p != self.knots.p:
            raise DimensionMismatchError(
                f"scaling has p={self.scaling.p} but knots have p={self.knots.p}"
            )
        object.__setattr__(self, "lam", _check_model_lambda(self.lam))


def fit(
    knots: DesignMatrix,
    y,
    spec: KernelSpec,
    lam: float,
    *,
    scaling: ScalingParams | None = None,
    threads: int | None = None,
) -> FittedModel:
    """Solve (K + lambda I) alpha = y for the given kernel on the
    eigendecomposition `tune` makes, through `_loo_grid` at the one lambda;
    SingularSystemError if K + lambda I is not positive definite.  Like
    `tune`, it builds its own Gram and lets `eigh` overwrite it, so it holds
    about 3n^2 doubles: the Gram, then V in its place, and a 2n^2 workspace.

    ``scaling`` is carried on the model for the prediction pipeline; omitted
    means the knots are already native unit-cube coordinates (identity
    scaling).
    """
    yv = _as_vector(y, knots.n, "y")
    lam = _check_model_lambda(lam)
    w, V = eigh(_own_gram(knots, spec, threads).T)
    alpha = _loo_grid(w, V, yv, np.array([lam]))[0][:, 0]
    scaling = ScalingParams.identity(knots.p) if scaling is None else scaling
    return FittedModel(knots=knots, spec=spec, lam=lam, alpha=alpha, scaling=scaling)


# ---------------------------------------------------------------------------
# prediction

def predict(model: FittedModel, test: DesignMatrix, *, threads: int | None = None) -> np.ndarray:
    """Predictions k(test, knots) @ alpha, one per test row.

    Test rows must already be scaled/clamped into the unit cube for the
    har/sobolev families.  The predict pass of :mod:`har.kernels`,
    `_cross_kernel_product`, picks the model's route once (an order-0 model
    whose n * 2^p table fits gathers from it, every other model evaluates
    its block against all knots) and reduces fixed blocks of test rows, each
    row on its own, optionally on ``threads`` workers.  The m x n cross
    matrix is never held, and the values never depend on batch size or
    worker count.
    """
    return _cross_kernel_product(test, model.knots, model.spec, model.alpha, threads)


# ---------------------------------------------------------------------------
# eigendecomposition

@cache
def _dsyevd():
    """numpy's own LAPACK dsyevd with 64-bit integers, the routine
    numpy.linalg.eigh calls in numpy's OpenBLAS wheels, or None where numpy
    links some other LAPACK (conda, MKL or a source build).  Looked up once,
    on first use, among the libraries numpy.linalg's extension module loads."""
    from numpy.linalg import _umath_linalg

    try:
        routine = ctypes.CDLL(_umath_linalg.__file__).scipy_dsyevd_64_
    except (OSError, AttributeError):
        return None
    integer, pointer = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info, then the
    # hidden lengths of the two Fortran strings
    routine.argtypes = [
        ctypes.c_char_p, ctypes.c_char_p, integer, pointer, integer, pointer,
        pointer, integer, pointer, integer, integer, ctypes.c_size_t, ctypes.c_size_t,
    ]
    routine.restype = None
    return routine


@cache
def _malloc_trim():
    """The C library's malloc_trim, or None where it is missing (musl, macOS, Windows)."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def eigensolver() -> str:
    """The route `eigh` takes in this process."""
    return EIGENSOLVER_NUMPY if _dsyevd() is None else EIGENSOLVER_IN_PLACE


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues w and eigenvectors V (in Fortran order) of the
    symmetric matrix `a`, read from its lower triangle as numpy.linalg.eigh
    reads it, with the same bits.

    LAPACK dsyevd overwrites a writable Fortran-ordered float64 `a` with V
    and V is returned as that same buffer; any other `a` is copied into one
    first, so the caller's matrix is left as it was.  The call holds V and a
    2n^2 workspace.  Where numpy's dsyevd cannot be found (see `eigensolver`),
    numpy.linalg.eigh runs instead and its C-ordered V is copied to Fortran
    order, about 2n^2 more.  Both routes first call malloc_trim(0): heap that
    glibc kept resident after earlier work freed it would add to that peak.
    """
    if (trim := _malloc_trim()) is not None:
        trim(0)  # before any workspace is allocated
    routine = _dsyevd()
    if routine is None:
        w, V = np.linalg.eigh(a)
        return w, np.asfortranarray(V)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise LinAlgError("Last 2 dimensions of the array must be square")
    if not (a.dtype == np.float64 and a.flags.f_contiguous and a.flags.writeable):
        a = np.array(a, dtype=np.float64, order="F")
    n, info = ctypes.c_int64(a.shape[0]), ctypes.c_int64(0)
    w = np.empty(n.value)

    def run(lwork: int, liwork: int) -> tuple[int, int]:
        work, iwork = np.empty(max(lwork, 1)), np.empty(max(liwork, 1), dtype=np.int64)
        routine(
            b"V", b"L", n, a.ctypes.data, n, w.ctypes.data, work.ctypes.data, ctypes.c_int64(lwork),
            iwork.ctypes.data, ctypes.c_int64(liwork), info, 1, 1,
        )
        return int(work[0]), int(iwork[0])

    run(*run(-1, -1))  # a workspace query, then the call
    if info.value:
        raise LinAlgError(
            "Eigenvalues did not converge" if info.value > 0 else f"dsyevd argument {-info.value} is illegal"
        )
    return w, a


def _own_gram(knots: DesignMatrix, spec: KernelSpec, threads: int | None) -> np.ndarray:
    """The Gram's values made writable for a caller that alone holds them, so
    that `eigh(K.T)` may overwrite them with V: K.T, their Fortran-ordered
    view, equals K, which gram_matrix makes exactly symmetric."""
    K = gram_matrix(knots, spec, threads=threads).values
    K.setflags(write=True)
    return K


# ---------------------------------------------------------------------------
# closed-form leave-one-out

def _loo_grid(w: np.ndarray, V: np.ndarray, y: np.ndarray, grid: np.ndarray):
    """Dual weights and leave-one-out residuals at every lambda of `grid`
    (column j for grid[j]) from one eigendecomposition K = V diag(w) V^T.

    V is `eigh`'s, in the Fortran order LAPACK writes, on which the products
    round as they always have.  It is squared in place once alpha is formed,
    sparing another n x n temporary, so the caller must not use V afterwards.
    """
    # w and grid ascend, so if any lambda is singular, grid[0] is
    if w[0] + grid[0] <= 0.0:
        raise SingularSystemError(f"K + lambda I is not positive definite at lambda={grid[0]:g}")
    inv = 1.0 / (w[:, None] + grid)
    alpha = V @ ((V.T @ y)[:, None] * inv)
    inv_diag = np.square(V, out=V) @ inv
    return alpha, alpha / inv_diag


def loocv_errors(gram: GramMatrix, y, lam: float) -> np.ndarray:
    """Closed-form leave-one-out residuals e_i = alpha_i / [(K+lam I)^-1]_ii.

    Kernel knots stay fixed: e_i equals the residual at row i of a model
    refit on the other n-1 rows of the SAME Gram matrix.  Requires lam > 0.
    Makes the eigendecomposition `tune` makes, `eigh` of a Fortran-ordered
    copy of the Gram, and runs `_loo_grid` on it for the one lambda.
    """
    yv = _as_vector(y, gram.n, "y", "the Gram")
    lam = _check_real("lambda", lam, 0.0, ends="()")
    w, V = eigh(gram.values)
    return _loo_grid(w, V, yv, np.array([lam]))[1][:, 0]


# ---------------------------------------------------------------------------
# regularization bound and grid

def check_tuning(epsilon: float = DEFAULT_EPSILON, grid_count: int = DEFAULT_GRID_COUNT) -> None:
    """The one owner of the tuning parameter rules (epsilon in (0, 1), an
    integer grid count >= 1), for `tune`, `lambda_grid` and callers that
    check before they read any data."""
    _check_real("epsilon", epsilon, 0.0, 1.0, "()")
    _check_int("grid count", grid_count, 1)


def _bound_factor(yv: np.ndarray, epsilon: float) -> float:
    """||y|| / (epsilon max|y|), the outcome's share of lambda0."""
    y_max = float(np.max(np.abs(yv)))
    if y_max == 0.0:
        raise UndefinedScaleError("cannot scale the bound: y is identically zero")
    with np.errstate(over="ignore"):  # an overflow is reported below, as the one error
        norm = float(np.linalg.norm(yv))
    if not y_max <= norm < np.inf:  # exactly, ||y|| >= max|y|; y's squares left float64
        raise InvalidInputError("the norm of y overflows or underflows float64")
    return norm / (epsilon * y_max)


def _max_row_norm(K: np.ndarray) -> float:
    # a row block at a time: the whole-matrix norm squares K into an n x n temporary
    with np.errstate(over="ignore"):
        norm = float(max(np.linalg.norm(K[rows], axis=1).max() for rows in _row_slices(K.shape[0])))
    if not np.isfinite(norm):  # K is finite, but its squares are not (order-0 har from p = 600 on)
        raise InvalidInputError("the largest Gram row norm overflows float64")
    return norm


def _lambda0(max_row_norm: float, factor: float, eig_min: float) -> float:
    return max_row_norm * factor - eig_min


def lambda_max(gram: GramMatrix, y, epsilon: float = DEFAULT_EPSILON) -> float:
    """Upper end of the regularization search:

        lambda0 = max_i ||K_i||_2 * ||y||_2 / (epsilon * max_i |y_i|) - eigmin(K)

    At lambda >= lambda0 every in-sample prediction satisfies
    |yhat_i| <= epsilon * max|y| (Cauchy-Schwarz on K_i alpha plus the
    operator-norm bound ||alpha|| <= ||y|| / (eigmin + lambda)).  eigmin is
    the smallest of numpy.linalg.eigvalsh's eigenvalues, which skips the
    eigenvectors; `tune` takes w[0] of its own eigendecomposition instead,
    so the two can differ in the last bits.
    """
    check_tuning(epsilon)
    factor = _bound_factor(_as_vector(y, gram.n, "y", "the Gram"), epsilon)
    return _lambda0(_max_row_norm(gram.values), factor, float(np.linalg.eigvalsh(gram.values)[0]))


def lambda_grid(lambda0: float, count: int = DEFAULT_GRID_COUNT) -> np.ndarray:
    """Geometric grid of `count` values from lambda0 * 1e-8 up to lambda0,
    ascending, endpoint exact; a count of 1 is lambda0 alone."""
    lambda0 = _check_real("lambda0", lambda0, 0.0, ends="()")
    check_tuning(grid_count=count)
    spans = np.geomspace(GRID_SPAN, 1.0, int(count))
    spans[-1] = 1.0  # already so for count >= 2; at count 1 the grid is lambda0 alone
    return lambda0 * spans


# ---------------------------------------------------------------------------
# tuning

@dataclass(frozen=True, eq=False)
class TuningResult:
    """The candidate (kernel, lambda) grid, its leave-one-out scores (mean
    squared residual), the selected index, and how the numerics ran:
    ``diagnostics["eigensolver"]`` names the route `eigh` took."""

    candidates: tuple
    scores: np.ndarray
    selected: int
    diagnostics: dict

    @property
    def winner(self) -> tuple:
        return self.candidates[self.selected]

    def choice(self) -> dict:
        """The winner's record: its kernel, lambda and leave-one-out score."""
        spec, lam = self.winner
        return {"kernel": spec.to_dict(), "lambda": lam, "loocv_score": float(self.scores[self.selected])}


def _best(scores, lams) -> int:
    """The one selection rule: the lowest score, ties to the larger lambda,
    then to the earlier candidate."""
    return int(np.lexsort((np.negative(lams), scores))[0])


def _family_specs(family: str, order: int) -> list:
    if family == FAMILY_RBF:
        return [KernelSpec.rbf(bw) for bw in RBF_BANDWIDTHS]
    return [KernelSpec(family, order)]


def tune(
    knots: DesignMatrix,
    y,
    family: str,
    *,
    order: int = 0,
    epsilon: float = DEFAULT_EPSILON,
    grid_count: int = DEFAULT_GRID_COUNT,
    scaling: ScalingParams | None = None,
    threads: int | None = None,
) -> tuple[TuningResult, FittedModel]:
    """Grid-search lambda (and bandwidth, for rbf) by closed-form LOOCV.

    har/sobolev build one Gram matrix; rbf loops its fixed bandwidth ladder,
    recomputing lambda0 per bandwidth.  Scores are mean squared leave-one-out
    residuals, and `_best` picks the winner.  Returns the scored grid
    and the model at the winner, whose alpha comes from the same
    eigendecomposition that scored it.  A grid_count of 1 scores only
    lambda0 itself (see `lambda_grid`).
    """
    yv = _as_vector(y, knots.n, "y")
    check_tuning(epsilon, grid_count)
    specs = _family_specs(family, order)
    factor = _bound_factor(yv, epsilon)

    candidates = []
    scores = []
    kept = []  # each spec's winning alpha, so no (n, G) block outlives its pass
    for spec in specs:
        K = _own_gram(knots, spec, threads)
        row_norm = _max_row_norm(K)
        w, V = eigh(K.T)
        lam0 = _lambda0(row_norm, factor, float(w[0]))
        grid = lambda_grid(lam0, grid_count)
        alphas, errors = _loo_grid(w, V, yv, grid)
        spec_scores = [float(np.mean(errors[:, j] ** 2)) for j in range(grid_count)]
        kept.append(alphas[:, _best(spec_scores, grid)].copy())
        candidates.extend((spec, float(lam)) for lam in grid)
        scores.extend(spec_scores)

    # the overall winner is its own spec's winner under the same order
    selected = _best(scores, [lam for _, lam in candidates])
    result = TuningResult(
        candidates=tuple(candidates), scores=np.array(scores), selected=selected,
        diagnostics={"eigensolver": eigensolver()},
    )
    spec_sel, lam_sel = result.winner
    model = FittedModel(
        knots=knots, spec=spec_sel, lam=lam_sel, alpha=kept[selected // grid_count],
        scaling=ScalingParams.identity(knots.p) if scaling is None else scaling,
    )
    return result, model


# ---------------------------------------------------------------------------
# persistence

def _model_fingerprint(doc: dict) -> str:
    """sha256 of one JSON list of the model document's prediction inputs, as
    it holds them and one element each, so no value can move from one into
    the next and keep the hash: the kernel dict, the knots' float64 values
    hashed as `DesignMatrix.fingerprint` hashes them, lambda, scaling mins
    and maxs, alpha, and the column names ``har predict`` selects its inputs
    by (null when the file records none)."""
    scaling = doc["scaling"]
    parts = [
        doc["kernel"], _array_fingerprint(np.asarray(doc["knots"], dtype=np.float64)), doc["lambda"],
        scaling["mins"], scaling["maxs"], doc["alpha"], doc.get("metadata", {}).get("feature_names"),
    ]
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


def _check_feature_names(names, p: int) -> None:
    """The one rule for ``metadata.feature_names``, the columns ``har
    predict`` selects its inputs by: absent (None), or a list of exactly `p`
    distinct strings."""
    if names is not None and not (
        isinstance(names, list) and all(isinstance(name, str) for name in names)
        and len(names) == len(set(names)) == p
    ):
        raise SchemaError(
            f"model file key 'metadata.feature_names' must be a list of {p} "
            f"distinct column names, got {names!r}"
        )


def model_to_dict(model: FittedModel, metadata: dict | None = None) -> dict:
    """Versioned JSON-ready form, carrying its own fingerprint.  Floats
    survive exactly: json uses repr, the shortest decimal that round-trips."""
    metadata = dict(metadata) if metadata else {}
    _check_feature_names(metadata.get("feature_names"), model.knots.p)
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kernel": model.spec.to_dict(),
        "lambda": model.lam,
        "scaling": model.scaling.to_dict(),
        "knots": model.knots.values.tolist(),
        "alpha": model.alpha.tolist(),
        "model_fingerprint": None,
        "metadata": metadata,
    }
    doc["model_fingerprint"] = _model_fingerprint(doc)
    return doc


def save_model(model: FittedModel, path, metadata: dict | None = None) -> None:
    write_json(path, model_to_dict(model, metadata))


def model_from_dict(doc: dict) -> tuple[FittedModel, dict]:
    """The model a format `MODEL_FORMAT_VERSION` document holds.  Its
    prediction inputs, ``metadata.feature_names`` included, are hashed as it
    holds them and must match its fingerprint before any is parsed, so any
    edit fails as a fingerprint mismatch; the names must then pass
    `_check_feature_names`.  A missing key, or a value that cannot be hashed
    or built, is a SchemaError; the package's own errors keep their classes.
    Any other format version fails to load: a prediction input that joins
    the fingerprint bumps the version, so an older file cannot prove it is
    unedited; re-fit the model.  Keys outside the inputs are ignored."""
    version = doc.get("format_version")
    # a JSON integer only: true == 1 and 1.0 == 1 in Python
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise SchemaError(
            f"unsupported model format version {version!r}; this build reads "
            f"version {MODEL_FORMAT_VERSION} only: re-fit the model"
        )
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SchemaError(f"model file key 'metadata' is a {type(metadata).__name__}, not an object")
    try:
        if _model_fingerprint(doc) != doc["model_fingerprint"]:
            raise SchemaError(
                "model fingerprint mismatch: kernel, lambda, scaling, knots, "
                "alpha or metadata feature_names was edited"
            )
        scaling = doc["scaling"]
        model = FittedModel(
            knots=DesignMatrix(doc["knots"]), spec=KernelSpec.from_dict(doc["kernel"]), lam=doc["lambda"],
            alpha=doc["alpha"], scaling=ScalingParams(scaling["mins"], scaling["maxs"]),
        )
    except HarError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"model file is missing a key or holds a malformed value: {exc!r}") from None
    _check_feature_names(metadata.get("feature_names"), model.knots.p)
    return model, metadata


def load_model(path) -> tuple[FittedModel, dict]:
    """Read a model file back; predictions from the loaded model are
    bit-identical to the original (floats round-trip exactly)."""
    return model_from_dict(read_json(path))
