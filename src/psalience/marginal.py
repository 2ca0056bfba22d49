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

Both functions return plain read-only arrays: a subtable's counts and
cell ranks, and the geometric-mean table's logs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .basis import SubsetKey, check_subset
from .errors import ArgumentError
from .table import ContingencyTable, LogTable, _read_int, freeze, log_transform


def complement_attributes(subset: SubsetKey, n_attributes: int) -> SubsetKey:
    """Attributes outside ``subset``, largest first."""
    return tuple(i for i in range(n_attributes - 1, -1, -1) if i not in subset)


def conditional_subtable(
    table: ContingencyTable, subset: Sequence[int], conditioning: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Slice out the subtable with the complementary attributes fixed.

    ``conditioning`` lists one level per complementary attribute, largest
    attribute first.  Returns read-only ``(counts, cell_ranks)``: the
    ``M**k`` counts in lexicographic order of the subset digits, leftmost
    (largest-numbered) subset attribute most significant, and the rank of
    each in the full table, so ``counts == table.counts[cell_ranks]``.  The
    slice itself is defined for any table; entries are at least 1 whenever
    the source is adjusted.
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
    ranks.setflags(write=False)
    return freeze(table.counts[ranks]), ranks


def geometric_mean_subtable(table: ContingencyTable | LogTable, subset: Sequence[int]) -> np.ndarray:
    """Logs of the geometric mean of the conditional subtables over all
    conditioning values.

    Returns the read-only ``M**k`` vector ``mean(log counts)`` over the
    conditioning attributes, in the order of :func:`conditional_subtable`;
    ``np.exp`` of it is the geometric-mean table, and staying in log space
    keeps it stable for large populations.  The logs come from
    :func:`log_transform`, so the table must be adjusted.  A
    :class:`LogTable` passed as ``table`` is used as those logs, so a caller
    that already has them does not log twice.
    """
    n = table.schema.n_attributes
    members = check_subset(subset, n)
    axes = tuple(n - 1 - a for a in complement_attributes(members, n))
    logs = table if isinstance(table, LogTable) else log_transform(table)
    return freeze(logs.reshaped().mean(axis=axes).ravel())
