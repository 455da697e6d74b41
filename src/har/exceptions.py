"""Error types raised across the package.

Everything derives from HarError so callers can catch the whole family; the
concrete classes also subclass the builtin they most resemble (ValueError or
RuntimeError) so generic handling keeps working.
"""


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
