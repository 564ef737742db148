"""Exception hierarchy for the chainobs package.

Everything raised on purpose derives from :class:`ChainobsError`, so callers
can catch one type at the boundary. Subclasses distinguish bad inputs from
failed numerical certificates; the CLI maps them onto exit codes.
"""

from __future__ import annotations


class ChainobsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimensionError(ChainobsError):
    """A matrix or vector has the wrong shape for the requested operation."""


class InvalidParameterError(ChainobsError):
    """A scalar or array parameter is outside its admissible range."""


class InvalidInputError(ChainobsError):
    """An input contains non-finite entries or is otherwise unusable."""


class UnsupportedSchemeError(ChainobsError):
    """The requested coupling schedule does not exist for these arguments."""


class DegenerateOutputError(ChainobsError):
    """The plant output vector is zero, so no observer chain can see it."""


class NotPositiveDefiniteError(ChainobsError):
    """A matrix that must be positive definite is not.

    Carries the offending smallest eigenvalue in ``lambda_min``.
    """

    def __init__(self, message: str, lambda_min: float):
        super().__init__(message)
        self.lambda_min = float(lambda_min)


class ToleranceExceededError(ChainobsError):
    """A conserved quantity drifted past its tolerance during propagation."""


class NumericalFailureError(ChainobsError):
    """A numerical routine produced non-finite or meaningless output."""


class ConfigError(ChainobsError):
    """Base class for experiment-configuration problems."""


class ConfigSchemaError(ConfigError):
    """The config file cannot be parsed or is missing/mistyping a field."""


class ConfigValidationError(ConfigError):
    """The config parses but its values are semantically inconsistent."""
