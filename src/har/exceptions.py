"""Error types raised across the package, and the owners of numeric
parameter ranges and of array inputs.

Everything derives from HarError so callers can catch the whole family; the
concrete classes also subclass the builtin they most resemble (ValueError or
RuntimeError) so generic handling keeps working.  A numeric parameter off
its type or range is an InvalidParameterError from `_check_int` or
`_check_real`, never a bare TypeError; an array input with a bad entry or
shape is an InvalidInputError or DimensionMismatchError from `_as_matrix`
or `_as_vector`, never a bare ValueError.
"""

import math
import numbers

import numpy as np


class HarError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(HarError, ValueError):
    """Operands have incompatible shapes (e.g. point length vs knot width)."""


class InvalidInputError(HarError, ValueError):
    """Input data violates a contract: NaN/inf entries, values outside the
    unit cube where the kernel requires it, empty arrays."""


class InvalidParameterError(HarError, ValueError):
    """A parameter is outside its legal range (bandwidth <= 0, negative
    regularization, unknown kernel family, order too large, ...)."""


def _check_int(name: str, value, low: int, high: float = math.inf, why: str = "") -> int:
    """The one owner of integer ranges: ``int(value)`` if `value` is an
    integer (Python or numpy, not a bool) in [low, high], else an
    InvalidParameterError naming `name` and saying `why` the bound holds."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and low <= value <= high:
        return int(value)
    bound = (f">= {low}" if high == math.inf else f"in [{low}, {high}]") + (f" ({why})" if why else "")
    raise InvalidParameterError(f"{name} must be an integer {bound}, got {value!r}")


def _check_real(name: str, value, low: float, high: float = math.inf, ends: str = "[)", why: str = "") -> float:
    """The one owner of real ranges: ``float(value)`` if `value` is a finite
    real number (not a bool) between `low` and `high`, each end open ``(``
    ``)`` or closed ``[`` ``]`` as `ends` says, else an InvalidParameterError
    naming `name` and saying `why` the bound holds."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
        above = low < value if ends[0] == "(" else low <= value
        below = value < high if ends[1] == ")" else value <= high
        if above and below:
            return float(value)
    interval = f"{ends[0]}{low:g}, {high:g}{ends[1]}" + (f" ({why})" if why else "")
    raise InvalidParameterError(f"{name} must be a finite real number in {interval}, got {value!r}")


def _float64_copy(x, name: str) -> np.ndarray:
    try:
        return np.array(x, dtype=np.float64, copy=True)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} is not an array of numbers: {exc}") from None


def _frozen_finite(arr: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains NaN or infinite entries")
    arr.setflags(write=False)
    return arr


def _as_matrix(x, name: str) -> np.ndarray:
    """The one owner of matrix inputs: `x` as a read-only finite float64 copy
    of shape (n, p), n >= 1 and p >= 1.  A shape that is not 2-D is a
    DimensionMismatchError, any other fault an InvalidInputError."""
    arr = _float64_copy(x, name)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidInputError(f"{name} needs n >= 1 and p >= 1, got {arr.shape}")
    return _frozen_finite(arr, name)


def _as_vector(x, length: int | None, name: str, against: str = "the knots") -> np.ndarray:
    """The one owner of vector inputs (a point, y, alpha, scaling bounds):
    `x` flattened to a read-only finite float64 copy of `length` entries,
    the length of `against`, or of any length when `length` is None."""
    arr = _float64_copy(x, name).reshape(-1)
    if length is not None and arr.shape[0] != length:
        raise DimensionMismatchError(
            f"{name} has length {arr.shape[0]}, expected {length} to match {against}"
        )
    return _frozen_finite(arr, name)


class UnsupportedSizeError(HarError, ValueError):
    """The explicit-expansion oracle was asked for an instance above its size
    guard. The oracle refuses rather than attempting a combinatorial blowup."""


class SingularSystemError(HarError, RuntimeError):
    """K + lambda I is not positive definite at the lambda asked for: its
    smallest eigenvalue w[0] + lambda is <= 0. The message names lambda; no
    jitter is added, so a model never solves a lambda other than the one it
    records."""


class UndefinedScaleError(HarError, ValueError):
    """An operation needs a response scale but the response is identically
    zero (max |y| = 0)."""


class SchemaError(HarError, ValueError):
    """A file does not match its declared schema: unknown model format
    version, fingerprint mismatch, missing columns."""


class NonNumericColumnError(SchemaError):
    """A CSV column holds a value that is neither numeric nor blank."""
