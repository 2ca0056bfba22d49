"""Conditional subtables and geometric-mean marginalisation.

Fixing the levels of all attributes outside a subset carves the table
into conditional subtables of ``M**k`` cells each; ranging over every
combination of conditioning levels tiles the full table exactly once.
Reducing over the conditioning attributes with a geometric mean (an
arithmetic mean in log space) produces a small table that keeps the
interaction structure of the original: for any subset of the retained
attributes, the projection magnitude of the full log table equals
``M**((N - k0)/2)`` times the projection magnitude of the log
geometric-mean table in its own reduced basis.  Both sides of that
relation are computed literally in :mod:`psalience.reference`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .basis import SubsetKey, check_subset
from .errors import ArgumentError
from .table import ContingencyTable, Frozen, LogTable, _read_int, freeze, log_transform


class ConditionalSubtable(Frozen):
    """Counts of the cells whose conditioning digits are fixed.

    Entries are ordered lexicographically by the subset digits with the
    leftmost (largest-numbered) subset attribute most significant;
    ``cell_ranks`` records where each entry sits in the full table.
    """

    __slots__ = ("subset", "conditioning_values", "counts", "cell_ranks")

    def __init__(self, subset: SubsetKey, conditioning_values: tuple[int, ...], counts, cell_ranks):
        ranks = np.array(cell_ranks, dtype=int, copy=True)
        ranks.setflags(write=False)
        super().__init__(subset, conditioning_values, freeze(counts), ranks)


class GeoMeanTable(Frozen):
    """Entrywise geometric mean over all conditioning combinations."""

    __slots__ = ("subset", "counts", "log_values")

    def __init__(self, subset: SubsetKey, counts, log_values):
        super().__init__(subset, freeze(counts), freeze(log_values))


def complement_attributes(subset: SubsetKey, n_attributes: int) -> SubsetKey:
    """Attributes outside ``subset``, largest first."""
    return tuple(i for i in range(n_attributes - 1, -1, -1) if i not in subset)


def conditional_subtable(
    table: ContingencyTable, subset: Sequence[int], conditioning: Sequence[int]
) -> ConditionalSubtable:
    """Slice out the subtable with the complementary attributes fixed.

    ``conditioning`` lists one level per complementary attribute, largest
    attribute first.  The slice itself is defined for any table; entries
    are at least 1 whenever the source is adjusted.
    """
    n, m = table.schema.n_attributes, table.schema.n_levels
    members = check_subset(subset, n)
    others = complement_attributes(members, n)
    fixed = tuple(_read_int(v, "conditioning level") for v in conditioning)
    if len(fixed) != len(others):
        raise ArgumentError(
            f"expected {len(others)} conditioning values, got {len(fixed)}"
        )
    for value in fixed:
        if not 0 <= value < m:
            raise ArgumentError(f"conditioning level {value} out of range [0, {m})")

    by_attribute = dict(zip(others, fixed))
    # the subtable's own digit grid, so no rank tensor of the whole table is built
    digits = np.ix_(*(range(m) if a in members else [by_attribute[a]] for a in range(n - 1, -1, -1)))
    ranks = np.ravel_multi_index(digits, (m,) * n).ravel()
    return ConditionalSubtable(members, fixed, table.counts[ranks], ranks)


def geometric_mean_subtable(table: ContingencyTable | LogTable, subset: Sequence[int]) -> GeoMeanTable:
    """Geometric mean of the conditional subtables over all conditioning values.

    Computed as ``exp(mean(log counts))`` to stay stable for large
    populations; the logs come from :func:`log_transform`, so the table
    must be adjusted.  A :class:`LogTable` passed as ``table`` is used as
    those logs, so a caller that already has them does not log twice.
    """
    n = table.schema.n_attributes
    members = check_subset(subset, n)
    axes = tuple(n - 1 - a for a in complement_attributes(members, n))
    logs = table if isinstance(table, LogTable) else log_transform(table)
    values = logs.reshaped().mean(axis=axes).ravel()
    return GeoMeanTable(members, np.exp(values), values)
