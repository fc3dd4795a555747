"""Exception hierarchy shared across the package.

The CLI maps these to exit codes: ConfigError -> 2, NumericError -> 3,
FormatError -> 4.
"""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration (bad mode combination, bad flag)."""


class DimensionError(ConfigError):
    """Tensor shapes incompatible with the requested operation."""


class ModeMismatchError(ConfigError):
    """Checkpoint trained in one prompt mode used with an incompatible strategy."""


class NumericError(RuntimeError):
    """Numerical failure: non-finite loss or gradient."""


class FormatError(ValueError):
    """Malformed archive or dataset file (magic, version, CRC, truncation)."""
