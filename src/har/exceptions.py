"""Error types raised across the package, and the two owners of numeric
parameter ranges.

Everything derives from HarError so callers can catch the whole family; the
concrete classes also subclass the builtin they most resemble (ValueError or
RuntimeError) so generic handling keeps working.  A numeric parameter off
its type or range is an InvalidParameterError from `_check_int` or
`_check_real`, never a bare TypeError.
"""

import math
import numbers


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


class UnsupportedSizeError(HarError, ValueError):
    """The explicit-expansion oracle was asked for an instance above its size
    guard. The oracle refuses rather than attempting a combinatorial blowup."""


class SingularSystemError(HarError, RuntimeError):
    """K + lambda I is not positive definite at the lambda asked for, so it
    has no Cholesky factor. The message names lambda; no jitter is added, so
    a model never solves a lambda other than the one it records."""


class UndefinedScaleError(HarError, ValueError):
    """An operation needs a response scale but the response is identically
    zero (max |y| = 0)."""


class SchemaError(HarError, ValueError):
    """A file does not match its declared schema: unknown model format
    version, fingerprint mismatch, missing columns."""


class NonNumericColumnError(SchemaError):
    """A CSV column holds a value that is neither numeric nor blank."""
