"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes (config, format, dimension,
OS and memory errors -> 3, numerical -> 4), so library code should raise the
most specific class that applies.
"""


class PrvrError(Exception):
    """Base class for all package errors."""


class ConfigError(PrvrError):
    """Invalid configuration value, unknown key, or unusable path."""


class FormatError(PrvrError):
    """Malformed or truncated on-disk artifact (corpus or checkpoint)."""


class DimensionError(PrvrError):
    """Tensor shape inconsistent with the declared corpus/encoder dims."""


class NumericalError(PrvrError):
    """Non-finite value or degenerate input encountered mid-computation."""
