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

`tune` factors each Gram once, K = V diag(w) V^T, by numpy.linalg.eigh
(LAPACK dsyevd): eigmin(K) = w[0] sets lambda0, two matrix products give
alpha and the inverse diagonal at every grid point, and the winner's alpha
is its column of that product, so no second factorization is made.  `fit`,
for an explicit lambda, makes one Cholesky factorization of K + lambda I
and raises SingularSystemError if it fails, so a model's alpha always
solves the lambda it records.

scipy.linalg is imported by `fit` alone, on its first call, for the
Cholesky factor and triangular solve numpy lacks; `import har`, `tune`,
`predict` and the studies load numpy only.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.linalg import LinAlgError  # the class scipy.linalg raises too
from numpy.linalg import eigh  # a name of this module, where the benchmark's tracer looks it up

from .data import ScalingParams, write_json
from .exceptions import (
    DimensionMismatchError,
    HarError,
    InvalidParameterError,
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
    _cross_kernel_product,
    _row_slices,
    gram_matrix,
)

MODEL_FORMAT_VERSION = 3

DEFAULT_EPSILON = 1e-3
DEFAULT_GRID_COUNT = 50
#: Span of the lambda grid below lambda0, and the rbf bandwidth ladder.
GRID_SPAN = 1e-8
RBF_BANDWIDTHS = tuple(float(b) for b in np.geomspace(1e-3, 10.0, 13))

#: a model's lambda rule, for `fit` before it builds a Gram and for every `FittedModel`
_check_model_lambda = partial(_check_real, "lambda", low=0.0)


# scipy.linalg's Cholesky factor and solve, imported on their first call;
# they stay names of this module, where the benchmark's tracer looks them up


def cho_factor(*args, **kwargs):
    from scipy.linalg import cho_factor

    return cho_factor(*args, **kwargs)


def cho_solve(*args, **kwargs):
    from scipy.linalg import cho_solve

    return cho_solve(*args, **kwargs)


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
    gram: GramMatrix | None = None,
    threads: int | None = None,
) -> FittedModel:
    """Solve (K + lambda I) alpha = y for the given kernel by one Cholesky
    factorization; SingularSystemError if K + lambda I does not factor.

    A precomputed ``gram`` is accepted to avoid rebuilding (its provenance
    must match the knots and spec).  ``scaling`` is carried on the model for
    the prediction pipeline; omitted means the knots are already native
    unit-cube coordinates (identity scaling).
    """
    yv = _as_vector(y, knots.n, "y")
    lam = _check_model_lambda(lam)
    if gram is None:
        gram = gram_matrix(knots, spec, threads=threads)
    else:
        if gram.knot_fingerprint != knots.fingerprint:
            raise InvalidParameterError("gram was built from different knots")
        if gram.spec != spec:
            raise InvalidParameterError("gram was built for a different kernel spec")
    A = np.array(gram.values, copy=True)
    A[np.diag_indices_from(A)] += lam
    try:
        # scipy's finiteness check stays: K + lambda I can overflow where K did not
        factor = cho_factor(A, lower=True)
    except LinAlgError:
        raise SingularSystemError(f"K + lambda I is not positive definite at lambda={lam:g}") from None
    if scaling is None:
        scaling = ScalingParams.identity(knots.p)
    return FittedModel(
        knots=knots, spec=spec, lam=lam, alpha=cho_solve(factor, yv), scaling=scaling
    )


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
# closed-form leave-one-out

def _loo_grid(w: np.ndarray, V: np.ndarray, y: np.ndarray, grid: np.ndarray):
    """Dual weights and leave-one-out residuals at every lambda of `grid`
    (column j for grid[j]) from one eigendecomposition K = V diag(w) V^T.

    The products run on V in Fortran order, the layout LAPACK writes:
    numpy's `eigh` returns a C-ordered copy, on which BLAS rounds the
    products differently, so such a V is copied back once.  V is then
    squared in place once alpha is formed, sparing another n x n temporary.
    """
    # w and grid ascend, so if any lambda is singular, grid[0] is
    if w[0] + grid[0] <= 0.0:
        raise SingularSystemError(f"K + lambda I is not positive definite at lambda={grid[0]:g}")
    V = np.asfortranarray(V)
    inv = 1.0 / (w[:, None] + grid)
    alpha = V @ ((V.T @ y)[:, None] * inv)
    inv_diag = np.square(V, out=V) @ inv
    return alpha, alpha / inv_diag


def loocv_errors(gram: GramMatrix, y, lam: float) -> np.ndarray:
    """Closed-form leave-one-out residuals e_i = alpha_i / [(K+lam I)^-1]_ii.

    Kernel knots stay fixed: e_i equals the residual at row i of a model
    refit on the other n-1 rows of the SAME Gram matrix.  Requires lam > 0.
    Makes the eigendecomposition `tune` makes, numpy.linalg.eigh of the
    Gram, and runs `_loo_grid` on it for the one lambda.
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
    return float(np.linalg.norm(yv)) / (epsilon * y_max)


def _max_row_norm(K: np.ndarray) -> float:
    # a row block at a time: the whole-matrix norm squares K into an n x n temporary
    return float(max(np.linalg.norm(K[rows], axis=1).max() for rows in _row_slices(K.shape[0])))


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
    eig_min = np.linalg.eigvalsh(gram.values)[0]
    return _lambda0(_max_row_norm(gram.values), factor, float(eig_min))


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
    squared residual), and the selected index."""

    candidates: tuple
    scores: np.ndarray
    selected: int

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
        K = gram_matrix(knots, spec, threads=threads).values
        row_norm = _max_row_norm(K)
        w, V = eigh(K)
        lam0 = _lambda0(row_norm, factor, float(w[0]))
        grid = lambda_grid(lam0, grid_count)
        alphas, errors = _loo_grid(w, V, yv, grid)
        spec_scores = [float(np.mean(errors[:, j] ** 2)) for j in range(grid_count)]
        kept.append(alphas[:, _best(spec_scores, grid)].copy())
        candidates.extend((spec, float(lam)) for lam in grid)
        scores.extend(spec_scores)

    # the overall winner is its own spec's winner under the same order
    selected = _best(scores, [lam for _, lam in candidates])
    result = TuningResult(candidates=tuple(candidates), scores=np.array(scores), selected=selected)
    spec_sel, lam_sel = result.winner
    model = FittedModel(
        knots=knots, spec=spec_sel, lam=lam_sel, alpha=kept[selected // grid_count],
        scaling=ScalingParams.identity(knots.p) if scaling is None else scaling,
    )
    return result, model


# ---------------------------------------------------------------------------
# persistence

def _model_fingerprint(model: FittedModel, feature_names: list | None = None) -> str:
    """sha256 over everything that changes predictions: kernel, lambda,
    scaling, knots and alpha, and the column names ``har predict`` selects
    its inputs by, when the file records them (format 3 on)."""
    h = hashlib.sha256()
    h.update(json.dumps(model.spec.to_dict(), sort_keys=True).encode())
    h.update(model.knots.fingerprint.encode())
    for part in ([model.lam], model.scaling.mins, model.scaling.maxs, model.alpha):
        h.update(np.asarray(part, dtype=np.float64).tobytes())
    if feature_names is not None:
        h.update(json.dumps(feature_names).encode())
    return h.hexdigest()


def model_to_dict(model: FittedModel, metadata: dict | None = None) -> dict:
    """Versioned JSON-ready form.  Floats survive exactly: json uses repr,
    the shortest decimal that round-trips to the same double."""
    metadata = dict(metadata) if metadata else {}
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "kernel": model.spec.to_dict(),
        "lambda": model.lam,
        "scaling": model.scaling.to_dict(),
        "knots": model.knots.values.tolist(),
        "alpha": model.alpha.tolist(),
        "gram_fingerprint": model.knots.fingerprint,
        "model_fingerprint": _model_fingerprint(model, metadata.get("feature_names")),
        "metadata": metadata,
    }


def save_model(model: FittedModel, path, metadata: dict | None = None) -> None:
    write_json(path, model_to_dict(model, metadata))


def _read(doc: dict, key: str, convert):
    """convert(doc[key]); a value of the wrong type or shape is a SchemaError
    naming the key, while the package's own errors keep their classes."""
    try:
        return convert(doc.get(key, {}))
    except HarError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"model file key {key!r} is malformed: {exc!r}") from None


def model_from_dict(doc: dict) -> tuple[FittedModel, dict]:
    """Version 3 files must match their fingerprint of every prediction
    input, ``metadata.feature_names`` included; version 2 files fingerprint
    the same inputs without the names, and version 1 files carry only the
    knots' fingerprint.  Keys outside the prediction inputs, such as the
    ``y_stats`` older builds wrote, are ignored."""
    version = doc.get("format_version")
    if version not in (1, 2, MODEL_FORMAT_VERSION):
        raise SchemaError(
            f"unsupported model format version {version!r}; this build reads "
            f"versions 1 to {MODEL_FORMAT_VERSION}"
        )
    required = ("kernel", "lambda", "scaling", "knots", "alpha", "gram_fingerprint")
    for key in required + (("model_fingerprint",) if version > 1 else ()):
        if key not in doc:
            raise SchemaError(f"model file is missing required key {key!r}")
    knots = _read(doc, "knots", lambda v: DesignMatrix(np.asarray(v, dtype=np.float64)))
    if knots.fingerprint != doc["gram_fingerprint"]:
        raise SchemaError(
            "knot fingerprint mismatch: model file is corrupt or was edited"
        )
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SchemaError(f"model file key 'metadata' is a {type(metadata).__name__}, not an object")
    model = FittedModel(
        knots=knots,
        spec=_read(doc, "kernel", KernelSpec.from_dict),
        lam=_read(doc, "lambda", float),
        alpha=_read(doc, "alpha", lambda v: np.asarray(v, dtype=np.float64)),
        scaling=_read(doc, "scaling", ScalingParams.from_dict),
    )
    names = metadata.get("feature_names") if version == 3 else None
    if version > 1 and _model_fingerprint(model, names) != doc["model_fingerprint"]:
        raise SchemaError(
            "model fingerprint mismatch: kernel, lambda, scaling, knots, "
            "alpha or metadata feature_names was edited"
        )
    return model, metadata


def load_model(path) -> tuple[FittedModel, dict]:
    """Read a model file back; predictions from the loaded model are
    bit-identical to the original (floats round-trip exactly)."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object at top level")
    return model_from_dict(doc)
