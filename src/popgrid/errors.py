"""Exception and warning taxonomy shared by all popgrid modules.

Errors are typed so callers (and the CLI exit-code logic) can distinguish
"your file is malformed" from "your inputs do not fit together" without
string-matching messages.
"""

from __future__ import annotations


class PopgridError(Exception):
    """Base class for all errors raised by popgrid."""


class ParseError(PopgridError):
    """A file could not be parsed at all (malformed JSON, unreadable text).

    Carries the ``reason`` it was given, and ``line`` and ``column``
    (1-based) when the underlying parser provides them.
    """

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        self.reason = message
        if line is not None:
            message = f"{message} (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaError(PopgridError):
    """A parsed file is missing required structure (property, geometry type)."""


class LevelMismatchError(SchemaError):
    """An admin feature carries a level other than the expected one."""


class ValidationError(PopgridError):
    """A value is out of its legal domain (negative population, NaN coordinate)."""


class GeometryError(ValidationError):
    """A ring or polygon violates its geometric invariants."""


class FormatError(PopgridError):
    """An ASCII grid header or value block does not follow the format."""


class TruncationError(FormatError):
    """An ASCII grid carries fewer or more values than its header declares."""


class AlignmentError(PopgridError):
    """Two rasters/grids that must share geometry do not."""


class ParameterError(PopgridError):
    """A function argument is outside its documented range."""


class ConfigurationError(PopgridError):
    """Inputs that are individually valid do not fit together (disjoint
    extents, pixel size coarser than the tile size)."""


class GenerationError(PopgridError):
    """A synthetic-scenario spec cannot be realised."""


class PopgridWarning(UserWarning):
    """Base class for warnings emitted by popgrid."""


class HeaderOrderWarning(PopgridWarning):
    """ASCII grid header keys appear in an unconventional order."""


class OverlapWarning(PopgridWarning):
    """Admin polygons overlap; ties were broken by input order."""
