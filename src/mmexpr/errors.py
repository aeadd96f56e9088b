"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes do not conform to an operation's shape rule."""


class DataFormatError(ValueError):
    """A file or record does not match its documented format."""


class NumericError(RuntimeError):
    """A numeric failure (NaN/Inf) was detected during computation."""


class NonFiniteError(ValueError):
    """NaN or an infinity: in an op input not yet checked, in the output an
    op produced, or in a parameter after its Adam update or checkpoint load."""
