"""Explicit spline basis expansion and primal ridge, the slow reference route.

The kernel in :mod:`har.kernels` is the inner product of a finite expansion
anchored at the knot rows.  This module materializes that expansion so the
kernel and the dual solver can be checked against a literal primal
computation.  Everything here is deliberately small-scale: the dimension is
d = n * (2 + t)^p, and the guard refuses instances where that explodes.

Basis enumeration.  Each basis function is identified by a knot index i and a
per-dimension state vector sigma in {0, .., t+1}^p.  The factor contributed
by dimension j is

    sigma_j = 0      ->  1                      (dimension absent)
    sigma_j = tau    ->  x_j^tau / tau!         (monomial shell, 1 <= tau <= t)
    sigma_j = t + 1  ->  (x_j - X_ij)_+^t / t!  (hinge at the knot; at t = 0
                                                 the hinge is the indicator
                                                 1{X_ij <= x_j})

States are enumerated in base-(t+2) counter order with dimension 0 as the
least significant digit; knots in row order, states within each knot.  At
t = 0 this is exactly the binary-counter enumeration of subsets, and the
basis values are products of indicators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import DimensionMismatchError, UnsupportedSizeError, _as_vector, _check_real
from .kernels import DesignMatrix, KernelSpec, _require_unit_cube

# Size guards: expansion refuses anything bigger, and the primal ridge fit
# additionally caps the dimension d of its (n, d) design.
MAX_N = 16
MAX_P = 6
MAX_T = 2
MAX_RIDGE_DIM = 4096


def basis_dimension(n: int, p: int, order: int) -> int:
    """d = n * (2 + t)^p."""
    return n * (2 + order) ** p


@dataclass(frozen=True, eq=False)
class BasisExpansion:
    """The expansion H(x): values plus the (knot, state) identity of each entry."""

    values: np.ndarray
    n: int
    p: int
    order: int

    @property
    def dimension(self) -> int:
        return self.values.shape[0]

    @cached_property
    def index(self) -> list:
        """(knot, state) of each value: knot-major, states in counter order."""
        states = [tuple(int(d) for d in row) for row in _state_digits(self.p, self.order)]
        return [(i, state) for i in range(self.n) for state in states]


def _guard(n: int, p: int, order: int) -> None:
    KernelSpec.har(order)  # the order's range; the oracle's own size cap follows
    if n > MAX_N or p > MAX_P or order > MAX_T:
        raise UnsupportedSizeError(
            f"expansion limited to n <= {MAX_N}, p <= {MAX_P}, t <= {MAX_T}; "
            f"got n={n}, p={p}, t={order}.  This is a reference oracle, use the "
            f"kernel route for real sizes."
        )


def _state_digits(p: int, order: int) -> np.ndarray:
    """All state vectors, shape ((2+t)^p, p), dimension 0 least significant."""
    base = 2 + order
    count = base**p
    idx = np.arange(count)
    digits = np.empty((count, p), dtype=np.int64)
    for j in range(p):
        digits[:, j] = (idx // base**j) % base
    return digits


def expand(x, knots: DesignMatrix, order: int = 0) -> BasisExpansion:
    """Evaluate every basis function at one point.

    Returns d = n*(2+t)^p values ordered knot-major, states in counter order
    within each knot.  Inputs live in the unit cube.
    """
    _guard(knots.n, knots.p, order)
    xv = _as_vector(x, knots.p, "x")
    _require_unit_cube(knots.values, "knots")
    _require_unit_cube(xv, "x")

    n, p, t = knots.n, knots.p, order
    digits = _state_digits(p, t)

    # factors[i, s, j]: contribution of dimension j in state s at knot i
    factors = np.empty((n, t + 2, p))
    factors[:, 0, :] = 1.0
    for tau in range(1, t + 1):
        factors[:, tau, :] = xv[None, :] ** tau / math.factorial(tau)
    if t == 0:
        factors[:, t + 1, :] = (knots.values <= xv[None, :]).astype(np.float64)
    else:
        factors[:, t + 1, :] = np.maximum(xv[None, :] - knots.values, 0.0) ** t / math.factorial(t)

    per_knot = np.ones((n, digits.shape[0]))
    for j in range(p):
        per_knot *= factors[:, :, j][:, digits[:, j]]

    values = per_knot.reshape(-1)
    return BasisExpansion(values=values, n=n, p=p, order=t)


def expansion_matrix(points: DesignMatrix, knots: DesignMatrix, order: int = 0) -> np.ndarray:
    """Rows of expansions, one per point: the (m, d) design of the primal problem."""
    if points.p != knots.p:
        raise DimensionMismatchError(
            f"points have p={points.p} but knots have p={knots.p}"
        )
    rows = [expand(points.values[i], knots, order).values for i in range(points.n)]
    return np.vstack(rows)


def explicit_ridge_fit(knots: DesignMatrix, y, order: int, lam: float) -> np.ndarray:
    """Primal ridge coefficients from the explicit expansion.

    The minimizer of ||y - H beta||^2 + lam ||beta||^2, where H stacks the
    expansions of the knot rows, from a thin SVD H = U diag(s) V^T:
    beta = V diag(s / (s^2 + lam)) U^T y.  H has n <= MAX_N rows, so no
    d x d matrix is formed.  This is the independent check of the dual
    kernel solver; it never touches the Gram matrix route.  lam must be > 0
    (at lam = 0 the problem is rank deficient since d > n always).
    """
    _guard(knots.n, knots.p, order)
    yv = _as_vector(y, knots.n, "y")
    lam = _check_real("lam", lam, 0.0, ends="()", why="rank-deficient at 0")
    d = basis_dimension(knots.n, knots.p, order)
    if d > MAX_RIDGE_DIM:
        raise UnsupportedSizeError(
            f"explicit ridge limited to d <= {MAX_RIDGE_DIM}, got d={d}"
        )
    H = expansion_matrix(knots, knots, order)
    U, s, Vt = np.linalg.svd(H, full_matrices=False)
    return Vt.T @ (s / (s * s + lam) * (U.T @ yv))


def explicit_predict(beta: np.ndarray, points: DesignMatrix, knots: DesignMatrix, order: int = 0) -> np.ndarray:
    """Predictions H(points) @ beta of a primal fit."""
    H = expansion_matrix(points, knots, order)
    return H @ _as_vector(beta, H.shape[1], "beta", "the expansion")
