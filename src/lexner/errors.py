"""Exception hierarchy shared by all lexner modules.

Each class carries the exit code the CLI returns for it in `exit_code`,
and every subclass inherits its parent's: configuration problems exit 1,
data/IO problems 2, numeric faults 3.
"""


class LexnerError(Exception):
    """Base class for all lexner errors."""

    exit_code = 1


class ConfigError(LexnerError):
    """Invalid or missing configuration (unknown key, bad value, unset path)."""


class DataError(LexnerError):
    """Problem with input data or files."""

    exit_code = 2


class ParseError(DataError):
    """Malformed line in a corpus file."""


class FormatError(DataError):
    """Malformed embedding, container, or checkpoint file."""


class SchemeError(DataError):
    """Tag not in the scheme, or an illegal tag transition in gold data."""


class ShapeError(LexnerError):
    """Array shapes do not conform for an operation."""


class NumericError(LexnerError):
    """NaN/Inf encountered, or a gradient check failed to evaluate."""

    exit_code = 3
