"""Exception hierarchy shared across the package.

Everything raised deliberately by this package derives from
:class:`SalienceError`, so callers can catch one type at the boundary.
Most subclasses also derive from the matching builtin (``ValueError``,
``RuntimeError``) so generic handling keeps working.
"""


class SalienceError(Exception):
    """Base class for all errors raised by psalience."""


class SchemaError(SalienceError, ValueError):
    """Attribute schema violates its invariants (level counts, duplicates)."""


class ArgumentError(SalienceError, ValueError):
    """An argument is outside its documented range or shape."""


class IngestionError(SalienceError, ValueError):
    """A record stream could not be turned into a table.

    Carries ``record_number`` (1-based position in the stream) and
    ``attribute`` (offending attribute name) when applicable so callers
    can rewrite the message with file-level context.
    """

    def __init__(self, message, record_number=None, attribute=None):
        super().__init__(message)
        self.record_number = record_number
        self.attribute = attribute


class EmptyInputError(IngestionError):
    """The record stream contained no records."""


class DegeneratePopulationError(SalienceError, ValueError):
    """Population total does not exceed the cell count, so the
    zero-adjustment map has no room to keep every cell at 1 or above."""


class StateError(SalienceError, RuntimeError):
    """Operation applied to a table in the wrong state (e.g. adjusting twice)."""


class DomainError(SalienceError, ValueError):
    """Values outside an operation's domain: entries below 1 or a table not
    flagged adjusted for the log transform, a total above 2**53 for an
    integral release."""


class ShapeError(SalienceError, ValueError):
    """Array dimensions do not match the schema."""
