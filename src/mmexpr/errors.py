"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes do not conform to an operation's shape rule."""


class DataFormatError(ValueError):
    """A file or record does not match its documented format."""


class NumericError(RuntimeError):
    """A numeric failure (NaN/Inf) was detected during computation."""


class NonFiniteError(ValueError):
    """An op input holds NaN or an infinity; raised by the tape before the op runs."""
