"""Output checks run on every op.  None compares against a recorded number,
so each holds on any seed.  Every check returns a list of problems; an op
with any problem counts as failed.

Tolerances, fixed from the arithmetic rather than from observed values:

* ``ROUTE_TOL``: two prediction routes for the same model (the order-0
  contraction, or another batch of the cross matrix) may sum the same terms
  in another order, so they must agree to
  ``|a - b| <= ROUTE_TOL * (|K| @ |alpha|)``.  Reordering n terms moves a sum
  by at most about n * eps times the sum of magnitudes (~1e-12 here).
* ``GRAM_TOL``: a Gram entry against the pointwise oracle, relative.
* ``LOO_TOL``: the LOO score recomputed by ``loocv_errors``, relative.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from workloads import CHECK_ROWS, IDENTITY_ROWS, read_csv

ROUTE_TOL = 1e-10
GRAM_TOL = 1e-10
LOO_TOL = 1e-9


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def cli_summary(rc: int, stdout: str, expect: dict) -> tuple[dict, list]:
    """The exit code is 0, the last stdout line is a JSON object without
    ``error``, and it holds every ``expect`` item."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    lines = stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        summary = None
    if not isinstance(summary, dict):
        return {}, problems + ["no JSON summary line"]
    if "error" in summary:
        problems.append(f"error: {summary['error']}")
    for key, value in expect.items():
        if summary.get(key) != value:
            problems.append(f"{key}={summary.get(key)!r}, expected {value!r}")
    return summary, problems


def route(har, model, X_scaled: np.ndarray, preds: np.ndarray, what: str) -> list:
    """preds equal cross_kernel_matrix @ alpha within ROUTE_TOL."""
    K = har.kernels.cross_kernel_matrix(har.kernels.DesignMatrix(X_scaled), model.knots, model.spec)
    ref = K @ model.alpha
    bound = ROUTE_TOL * (np.abs(K) @ np.abs(model.alpha))
    bad = int(np.sum(~(np.abs(preds - ref) <= bound)))
    return [f"{what}: {bad} of {len(ref)} rows differ from cross_kernel_matrix @ alpha"] if bad else []


def fitted_model(har, summary: dict, model, gram_values, model_path, train_csv, X_check, rng) -> list:
    """Checks on one fit: the saved model reloads and predicts bit-identically
    to the in-memory one, the reported LOO score is what ``loocv_errors``
    gives, sampled Gram entries equal the pointwise oracle, and order-0
    contraction predictions equal the cross matrix route."""
    if model is None:
        return ["the CLI saved no model in memory"]
    problems = []
    DM = har.kernels.DesignMatrix
    loaded, _ = har.solver.load_model(model_path)
    if summary.get("lambda") != model.lam:
        problems.append("reported lambda differs from the model's")

    Xs = har.data.apply_scaling(X_check, model.scaling)
    ident = slice(0, IDENTITY_ROWS)
    mine = har.solver.predict(model, DM(Xs[ident]))
    theirs = har.solver.predict(loaded, DM(har.data.apply_scaling(X_check[ident], loaded.scaling)))
    if not np.array_equal(mine, theirs):
        problems.append("reloaded model predicts differently from the in-memory model")

    if gram_values is None:
        gram_values = har.kernels.gram_matrix(model.knots, model.spec).values
    gram = har.kernels.GramMatrix(values=gram_values, spec=model.spec, knot_fingerprint=model.knots.fingerprint)
    target = har.data.load_csv(train_csv).target
    score = float(np.mean(har.solver.loocv_errors(gram, target, model.lam) ** 2))
    if not close(score, summary.get("loocv_score", float("nan")), LOO_TOL):
        problems.append(f"loocv_score {summary.get('loocv_score')!r} but loocv_errors gives {score!r}")

    knots = model.knots
    pairs = rng.integers(0, knots.n, size=(CHECK_ROWS, 2))
    bad = 0
    for i, j in pairs:
        xi, xj = knots.values[i], knots.values[j]
        if model.spec.family == "har":
            oracle = har.kernels.har_kernel_product_form(xi, xj, knots, model.spec.order)
        else:
            oracle = har.kernels.kernel_value(xi, xj, knots, model.spec)
        bad += not (abs(gram_values[i, j] - oracle) <= GRAM_TOL * abs(oracle))
    if bad:
        problems.append(f"{bad} of {CHECK_ROWS} sampled Gram entries differ from the pointwise oracle")

    if model.spec.family == "har" and model.spec.order == 0:
        problems += route(har, model, Xs, har.solver.predict(model, DM(Xs)), "contraction")
    return problems


def predictions_csv(path, header: list, rows: np.ndarray, preds=None) -> tuple[np.ndarray, list]:
    """The CLI's output CSV is the input table plus a prediction column, and
    that column equals the predictions it computed (when captured)."""
    got_header, table = read_csv(path)
    if got_header != header + ["prediction"]:
        return np.empty(0), [f"{path}: header {got_header}"]
    if table.shape[0] != rows.shape[0] or not np.array_equal(table[:, :-1], rows):
        return np.empty(0), [f"{path}: input columns were not copied exactly"]
    out = table[:, -1]
    if preds is not None and not np.array_equal(out, preds):
        return out, [f"{path}: written predictions differ from the computed ones"]
    return out, []


def rmse(preds: np.ndarray, y: np.ndarray) -> float:
    return float(np.sqrt(np.mean((preds - y) ** 2)))
