"""Contingency tables over categorical attributes with a common level count.

Conventions used throughout the package:

* There are ``N`` attributes, numbered ``N-1`` down to ``0``.  A schema
  lists them left to right starting with attribute ``N-1``, so the last
  attribute in the schema is attribute ``0``.
* Every attribute has the same number of levels ``M`` (at least 2).
  Heterogeneous level counts are rejected at schema construction.
* A cell is identified by a digit tuple ``(i_{N-1}, ..., i_0)`` with the
  digit of the highest-numbered attribute leftmost.  Its position in the
  flat count vector is the radix-M value ``sum_j i_j * M**j``: the digit
  of attribute 0 varies fastest.  That is the C-order position in the
  ``(M,)*N`` shape, so ``np.ravel_multi_index`` and ``np.unravel_index``
  convert between the two.
* Only the natural logarithm is used.  The salience measures downstream
  are ratios of norms of one and the same log vector, so any other base
  would cancel; no base option is exposed.
* Numeric equality is judged at relative tolerance ``1e-9`` against the
  larger magnitude with an absolute floor of ``1e-12``.
* The adjusted scale (every entry at least 1) is decided here alone: a
  table flagged ``adjusted`` holds no entry below :data:`ADJUSTED_MIN`,
  ``1`` under the relative tolerance.  :func:`log_transform` refuses any
  other table and clamps counts to 1, so every log is finite and non-negative;
  :func:`psalience.depersonalize.audit` also logs counts, clamped at the
  smallest positive float, so that a release below 1 can be audited.

All types here are immutable after construction and all operations are
pure functions.  Records that validate their fields or hold arrays derive
from :class:`psalience.schema.Frozen`; plain-value records are
``typing.NamedTuple`` classes.  Neither generates code when its module is
imported, which every CLI command would pay for.  The schema, the cell
ranks, the tally and the zero-adjustment map live in :mod:`psalience.schema`,
which imports no numpy; this module builds its tables from them.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Sequence

import numpy as np

from .errors import ArgumentError, DomainError, ShapeError, StateError
from .schema import AttributeSchema, Frozen, tally_records, zero_adjustment

REL_TOL = 1e-9
ABS_TOL = 1e-12
ADJUSTED_MIN = 1.0 - REL_TOL
"""Smallest entry an adjusted table may hold: 1 under the package tolerance."""


def values_close(a, b) -> bool | np.ndarray:
    """Equality under the package-wide tolerance policy, element by element on
    arrays, without numpy warnings.  A value that is not finite is close to
    nothing: its tolerance would be infinite too."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, or a difference past the range
        tolerance = np.maximum(REL_TOL * np.maximum(np.abs(a), np.abs(b)), ABS_TOL)
        close = np.isfinite(a) & np.isfinite(b) & (np.abs(a - b) <= tolerance)
    return close if close.ndim else bool(close)


def freeze(array) -> np.ndarray:
    """Return a read-only float64 copy of ``array``."""
    out = np.array(array, dtype=float, copy=True)
    out.setflags(write=False)
    return out


class ContingencyTable(Frozen):
    """Flat count vector in lexicographic cell order plus its population total.

    ``adjusted`` records whether the zero-adjustment map has been applied;
    adjusted tables have every entry at 1 or above.
    """

    __slots__ = ("schema", "counts", "n_total", "adjusted")

    def __init__(self, schema: AttributeSchema, counts, n_total: float, adjusted: bool = False):
        # float conversion would read strings and booleans as numbers, and any string is true
        if not isinstance(adjusted, (bool, np.bool_)):
            raise ArgumentError(f"adjusted must be a boolean, got {adjusted!r}")
        counts = np.asarray(counts)
        if counts.dtype.kind not in "iuf":
            raise ArgumentError(f"counts must be integers or floats, got {counts.dtype.name} values")
        if isinstance(n_total, bool) or not isinstance(n_total, numbers.Real):
            raise ArgumentError(f"n_total must be a real number, got {n_total!r}")
        counts = freeze(counts)
        n_total = float(n_total)
        super().__init__(schema, counts, n_total, bool(adjusted))
        if counts.ndim != 1 or counts.size != schema.n_cells:
            raise ShapeError(
                f"expected {schema.n_cells} counts, got shape {counts.shape}"
            )
        if not np.all(np.isfinite(counts)) or np.any(counts < 0):
            raise ShapeError("counts must be finite and non-negative")
        if not 0 < n_total < np.inf:
            raise ShapeError(f"population total must be positive and finite, got {n_total!r}")
        with np.errstate(over="ignore"):  # a sum past the largest float is refused, not warned of
            total = float(counts.sum())
        if not values_close(total, n_total):
            raise ShapeError(f"counts sum to {total!r}, declared total is {n_total!r}")
        if adjusted and counts.min() < ADJUSTED_MIN:
            raise ShapeError("adjusted table has an entry below 1")

    def reshaped(self) -> np.ndarray:
        """Counts as an N-dimensional view; axis 0 is attribute N-1."""
        m, n = self.schema.n_levels, self.schema.n_attributes
        return self.counts.reshape((m,) * n)


class LogTable(Frozen):
    """Elementwise natural log of an adjusted table's counts."""

    __slots__ = ("schema", "values")

    def __init__(self, schema: AttributeSchema, values):
        values = freeze(values)
        super().__init__(schema, values)
        if values.ndim != 1 or values.size != schema.n_cells:
            raise ShapeError(
                f"expected {schema.n_cells} log values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ShapeError("log table entries must be finite")

    def reshaped(self) -> np.ndarray:
        m, n = self.schema.n_levels, self.schema.n_attributes
        return self.values.reshape((m,) * n)


def tabulate(records: Iterable[Sequence[str]], schema: AttributeSchema) -> ContingencyTable:
    """Count label tuples into an (unadjusted) contingency table.

    Each record lists one level label per attribute, in schema order.
    :func:`psalience.schema.tally_records` counts them, so memory is
    O(distinct records) and an :class:`IngestionError` names the first
    offending record (and the attribute of an unknown label).  Raises
    :class:`EmptyInputError` for an empty stream.  The result is
    order-independent.
    """
    counts, n_total = tally_records(records, schema)
    return ContingencyTable(schema, counts, float(n_total), adjusted=False)


def zero_adjust(table: ContingencyTable) -> ContingencyTable:
    """Map the table affinely so every cell is at least 1, keeping the total.

    Cell ``k`` becomes ``counts[k] / n_total * (n_total - n_cells) + 1``.
    Uniform tables are fixed points; the map is affine in the counts for a
    fixed total.  Requires ``n_total > n_cells`` and an unadjusted table.
    """
    if table.adjusted:
        raise StateError("table is already adjusted")
    adjusted = zero_adjustment(table.n_total, table.schema.n_cells)(table.counts)
    return ContingencyTable(table.schema, adjusted, table.n_total, adjusted=True)


def log_transform(table: ContingencyTable) -> LogTable:
    """Elementwise natural log of an adjusted table's counts, each clamped to 1.

    Construction already held every entry of an adjusted table to
    :data:`ADJUSTED_MIN`, so the clamp moves an entry by at most that
    tolerance and the logs are finite and non-negative.
    """
    if not table.adjusted:
        raise DomainError("log transform needs an adjusted table; zero-adjust the table first")
    return LogTable(table.schema, np.log(np.maximum(table.counts, 1.0)))
