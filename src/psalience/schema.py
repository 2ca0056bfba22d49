"""Attribute schemas, cell ranks and the cell tally, in plain Python.

This module holds what ``tabulate`` needs to count microdata into cells and
zero-adjust the counts, and imports no numpy, so that command never loads
it.  The conventions are those of :mod:`psalience.table`: attribute ``N-1``
is listed first, every attribute has ``M`` levels, and a cell's rank is the
radix-M value of its level digits with attribute 0's digit varying fastest.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

from .errors import ArgumentError, DegeneratePopulationError, EmptyInputError, IngestionError, SchemaError


def _read_int(value, name: str) -> int:
    """``value`` as a Python int.  Python and numpy integers pass; a bool, a float or
    anything else without ``__index__`` raises :class:`ArgumentError` naming ``name``."""
    if type(value).__name__ not in ("bool", "bool_"):  # numpy's too, without loading numpy
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ArgumentError(f"{name} must be an integer, got {value!r}")


class Frozen:
    """Base of the records that validate their fields or hold arrays.

    A subclass lists its fields in ``__slots__`` in constructor parameter
    order.  ``Frozen.__init__`` sets each once; a subclass that only stores
    its arguments defines no ``__init__``, and one that converts and checks
    them hands them on to ``Frozen.__init__``.  Afterwards assigning or
    deleting any attribute raises ``AttributeError``.  Equality, hash, repr
    and pickling go over these ``_fields``; an array field compares as a
    whole, so a record holding one is unhashable.  A slot whose name starts
    with an underscore holds state derived at construction and is no field.
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
        return all(_arrays_equal(a, b) if hasattr(a, "__array__") else a == b
                   for a, b in zip(self._values(), other._values()))

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._values()


def _arrays_equal(a, b) -> bool:
    import numpy as np  # an array field exists, so numpy is loaded already

    return np.array_equal(a, b)


class AttributeSchema(Frozen):
    """Names and ordered level labels of the attributes.

    ``attributes`` is an ordered sequence of ``(name, levels)`` pairs; the
    first entry is attribute ``N-1`` and the last is attribute ``0``.
    """

    __slots__ = ("attributes", "_level_maps")

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
        # one label -> level-index map per schema position
        object.__setattr__(self, "_level_maps",
                           tuple({label: i for i, label in enumerate(levels)} for _, levels in normal))

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


def generic_schema(n: int, m: int) -> AttributeSchema:
    """Schema with ``n`` synthetic attributes ``a{n-1}..a0`` of ``m`` levels each."""
    n, m = _read_int(n, "n"), _read_int(m, "m")
    if n < 1 or m < 2:
        raise SchemaError("need n >= 1 attributes and m >= 2 levels")
    return AttributeSchema(
        tuple((f"a{n - 1 - p}", tuple(str(v) for v in range(m))) for p in range(n))
    )


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


def tally(ranked: Iterable[tuple[int, int]], n_cells: int) -> list[int]:
    """Dense per-cell counts from ``(rank, multiplicity)`` pairs: a list of
    ``n_cells`` integers, each rank's entry the sum of its multiplicities."""
    counts = [0] * n_cells
    for rank, multiplicity in ranked:
        counts[rank] += multiplicity
    return counts


def tally_records(records: Iterable[Sequence[str]], schema: AttributeSchema) -> tuple[list[int], int]:
    """Per-cell counts (as :func:`tally` gives them) and the number of records.

    Each record lists one level label per attribute, in schema order.  One
    dict pass counts each distinct record and checks it the first time it is
    seen, so memory is O(distinct records) and an :class:`IngestionError`
    names the first offending record (and the attribute of an unknown
    label).  Raises :class:`EmptyInputError` for an empty stream.  The
    result is order-independent.
    """
    multiplicities: dict[tuple, int] = {}
    ranks = []  # one per distinct record, in the same (first-seen) order
    for number, record in enumerate(records, start=1):
        key = tuple(record)
        try:
            count = multiplicities.get(key)
        except TypeError:  # an unhashable label is no level: the check below refuses it
            count = None
        if count is None:
            ranks.append(_record_rank(key, schema, f"record {number}", number))
            count = 0
        multiplicities[key] = count + 1
    if not multiplicities:
        raise EmptyInputError("no records to tabulate", record_number=0)
    return tally(zip(ranks, multiplicities.values()), schema.n_cells), sum(multiplicities.values())


def zero_adjustment(n_total: float, n_cells: int):
    """The zero-adjustment map of a table with ``n_cells`` cells and population
    ``n_total``: a function taking a count, or a numpy array of counts, to
    ``count / n_total * (n_total - n_cells) + 1``, so every cell is at least 1
    and the total is kept.  Requires ``n_total > n_cells``; otherwise raises
    :class:`DegeneratePopulationError`."""
    if n_total <= n_cells:
        raise DegeneratePopulationError(
            f"population total {n_total} must exceed the cell count {n_cells}"
        )
    room = n_total - n_cells

    def adjust(count):
        return count / n_total * room + 1.0

    return adjust
