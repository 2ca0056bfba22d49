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
  of attribute 0 varies fastest.
* Only the natural logarithm is used.  The salience measures downstream
  are ratios of norms of one and the same log vector, so any other base
  would cancel; no base option is exposed.
* Numeric equality is judged at relative tolerance ``1e-9`` against the
  larger magnitude with an absolute floor of ``1e-12``.
* The adjusted scale (every entry at least 1) is decided here alone: a
  table flagged ``adjusted`` holds no entry below :data:`ADJUSTED_MIN`,
  ``1`` under the relative tolerance, and :func:`log_transform`, which
  refuses any other table, is the one log of a table's counts.  It clamps
  entries to 1, so every log is finite and non-negative.

All types here are immutable after construction and all operations are
pure functions, so values can be shared freely between workers.  Records
that validate their fields derive from :class:`Frozen`; plain records are
``typing.NamedTuple`` classes.  Neither generates code when its module is
imported, which every CLI command would pay for.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegeneratePopulationError,
    DomainError,
    EmptyInputError,
    IngestionError,
    InvalidIndexError,
    InvalidRankError,
    SchemaError,
    ShapeError,
    StateError,
)

REL_TOL = 1e-9
ABS_TOL = 1e-12
ADJUSTED_MIN = 1.0 - REL_TOL
"""Smallest entry an adjusted table may hold: 1 under the package tolerance."""

CellIndex = tuple[int, ...]
"""Digit tuple ``(i_{N-1}, ..., i_0)`` identifying one cell."""


def values_close(a: float, b: float) -> bool:
    """Equality under the package-wide tolerance policy."""
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def freeze(array) -> np.ndarray:
    """Return a read-only float64 copy of ``array``."""
    out = np.array(array, dtype=float, copy=True)
    out.setflags(write=False)
    return out


class Frozen:
    """Base of the records that validate their fields.

    A subclass lists its fields in ``__slots__`` in ``__init__`` parameter
    order; its ``__init__`` converts and checks them, then hands them to
    ``Frozen.__init__``, which sets each once.  Afterwards assigning or
    deleting any attribute raises ``AttributeError``.  Equality, hash, repr
    and pickling go over these ``_fields``.  A slot whose name starts with an
    underscore caches something derived from the fields and is no field.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} has {len(self._fields)} fields, got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._values()


class AttributeSchema(Frozen):
    """Names and ordered level labels of the attributes.

    ``attributes`` is an ordered sequence of ``(name, levels)`` pairs; the
    first entry is attribute ``N-1`` and the last is attribute ``0``.
    """

    __slots__ = ("attributes", "_maps")

    def __init__(self, attributes: Iterable[tuple[str, Iterable[str]]]):
        normal = tuple(
            (str(name), tuple(str(level) for level in levels))
            for name, levels in attributes
        )
        super().__init__(normal)
        if not normal:
            raise SchemaError("schema must declare at least one attribute")
        names = [name for name, _ in normal]
        if len(set(names)) != len(names):
            raise SchemaError("attribute names must be unique")
        m = len(normal[0][1])
        for name, levels in normal:
            if len(levels) != m:
                raise SchemaError(
                    f"attribute {name!r} has {len(levels)} levels, expected {m}; "
                    "all attributes must share one level count"
                )
            if len(set(levels)) != len(levels):
                raise SchemaError(f"attribute {name!r} has duplicate level labels")
        if m < 2:
            raise SchemaError("attributes need at least 2 levels")

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    @property
    def n_levels(self) -> int:
        return len(self.attributes[0][1])

    @property
    def n_cells(self) -> int:
        return self.n_levels ** self.n_attributes

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.attributes)

    def attribute_name(self, attribute: int) -> str:
        """Name of attribute ``attribute`` (numbered N-1 .. 0)."""
        return self.attributes[self.n_attributes - 1 - attribute][0]

    @property
    def _level_maps(self) -> tuple[dict, ...]:
        """One label -> level-index map per schema position, built on first use."""
        maps = getattr(self, "_maps", None)
        if maps is None:
            maps = tuple({label: i for i, label in enumerate(levels)} for _, levels in self.attributes)
            object.__setattr__(self, "_maps", maps)
        return maps


def generic_schema(n: int, m: int) -> AttributeSchema:
    """Schema with ``n`` synthetic attributes ``a{n-1}..a0`` of ``m`` levels each."""
    if n < 1 or m < 2:
        raise SchemaError("need n >= 1 attributes and m >= 2 levels")
    return AttributeSchema(
        tuple((f"a{n - 1 - p}", tuple(str(v) for v in range(m))) for p in range(n))
    )


class ContingencyTable(Frozen):
    """Flat count vector in lexicographic cell order plus its population total.

    ``adjusted`` records whether the zero-adjustment map has been applied;
    adjusted tables have every entry at 1 or above.
    """

    __slots__ = ("schema", "counts", "n_total", "adjusted")

    def __init__(self, schema: AttributeSchema, counts, n_total: float, adjusted: bool = False):
        counts = freeze(counts)
        n_total = float(n_total)
        super().__init__(schema, counts, n_total, adjusted)
        if counts.ndim != 1 or counts.size != schema.n_cells:
            raise ShapeError(
                f"expected {schema.n_cells} counts, got shape {counts.shape}"
            )
        if not np.all(np.isfinite(counts)) or np.any(counts < 0):
            raise ShapeError("counts must be finite and non-negative")
        if n_total <= 0:
            raise ShapeError("population total must be positive")
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


def lex_rank(index: Sequence[int], schema: AttributeSchema) -> int:
    """Flat position of the cell with digits ``(i_{N-1}, ..., i_0)``.

    Digit ``j`` is weighted by ``M**j``, so the rightmost digit varies
    fastest when counting through the table.
    """
    n, m = schema.n_attributes, schema.n_levels
    digits = tuple(int(d) for d in index)
    if len(digits) != n:
        raise InvalidIndexError(f"expected {n} digits, got {len(digits)}")
    rank = 0
    for position, digit in enumerate(digits):
        if not 0 <= digit < m:
            raise InvalidIndexError(
                f"digit {digit} out of range [0, {m}) at position {position}"
            )
        rank = rank * m + digit
    return rank


def lex_unrank(rank: int, schema: AttributeSchema) -> CellIndex:
    """Digit tuple of the cell at flat position ``rank``; inverse of lex_rank."""
    n, m = schema.n_attributes, schema.n_levels
    rank = int(rank)
    if not 0 <= rank < schema.n_cells:
        raise InvalidRankError(f"rank {rank} out of range [0, {schema.n_cells})")
    digits = []
    for _ in range(n):
        digits.append(rank % m)
        rank //= m
    return tuple(reversed(digits))


def _record_rank(labels: Sequence[str], schema: AttributeSchema, where: str, number: int) -> int:
    """Flat cell position of one record's labels, given in schema order.

    A wrong field count or an unknown label raises :class:`IngestionError`
    whose message starts with ``where`` and whose record number is ``number``.
    """
    n, m = schema.n_attributes, schema.n_levels
    if len(labels) != n:
        raise IngestionError(
            f"{where} has {len(labels)} fields, expected {n}", record_number=number
        )
    rank = 0
    for position, label in enumerate(labels):
        level = schema._level_maps[position].get(str(label))
        if level is None:
            name = schema.attributes[position][0]
            raise IngestionError(
                f"{where}: unknown level {label!r} for attribute {name!r}",
                record_number=number,
                attribute=name,
            )
        rank = rank * m + level
    return rank


def tabulate(records: Iterable[Sequence[str]], schema: AttributeSchema) -> ContingencyTable:
    """Count label tuples into an (unadjusted) contingency table.

    Each record lists one level label per attribute, in schema order.  One
    dict pass tallies each distinct record and checks it the first time it
    is seen, so memory is O(distinct records) and an :class:`IngestionError`
    names the first offending record (and the attribute of an unknown
    label).  Raises :class:`EmptyInputError` for an empty stream.  The
    result is order-independent.
    """
    tally: dict[tuple, int] = {}
    ranks = []  # one per tally key, in the same (first-seen) order
    for number, record in enumerate(records, start=1):
        key = tuple(record)
        try:
            count = tally.get(key)
        except TypeError:  # an unhashable label is no level: the check below refuses it
            count = None
        if count is None:
            ranks.append(_record_rank(key, schema, f"record {number}", number))
            count = 0
        tally[key] = count + 1
    if not tally:
        raise EmptyInputError("no records to tabulate", record_number=0)
    multiplicities = list(tally.values())
    counts = np.bincount(ranks, weights=multiplicities, minlength=schema.n_cells)
    return ContingencyTable(schema, counts, float(sum(multiplicities)), adjusted=False)


def zero_adjust(table: ContingencyTable) -> ContingencyTable:
    """Map the table affinely so every cell is at least 1, keeping the total.

    Cell ``k`` becomes ``counts[k] / n_total * (n_total - n_cells) + 1``.
    Uniform tables are fixed points; the map is affine in the counts for a
    fixed total.  Requires ``n_total > n_cells`` and an unadjusted table.
    """
    if table.adjusted:
        raise StateError("table is already adjusted")
    m_t = table.schema.n_cells
    if table.n_total <= m_t:
        raise DegeneratePopulationError(
            f"population total {table.n_total} must exceed the cell count {m_t}"
        )
    adjusted = table.counts / table.n_total * (table.n_total - m_t) + 1.0
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
