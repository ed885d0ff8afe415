"""Exception types shared across the package."""


class EntropropError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(EntropropError):
    """Operand shapes are incompatible with the requested operation."""


class SingularMatrixError(EntropropError):
    """An operation required an invertible matrix and got a singular one."""


class NonFiniteError(EntropropError):
    """An operation got NaN or infinite input it cannot give a meaning to."""


class FormatError(EntropropError):
    """A binary file does not conform to its declared format."""


class ConfigError(EntropropError):
    """An experiment configuration is invalid or incomplete."""


class UndefinedVarianceError(EntropropError):
    """A statistical test was given samples with no usable variance."""
