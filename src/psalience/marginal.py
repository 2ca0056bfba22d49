"""Conditional subtables and geometric-mean marginalisation.

Fixing the levels of all attributes outside a subset carves the table
into conditional subtables of ``M**k`` cells each; ranging over every
combination of conditioning levels tiles the full table exactly once.
Reducing over the conditioning attributes with a geometric mean (an
arithmetic mean in log space) produces a small table that keeps the
interaction structure of the original: for any subset of the retained
attributes, the projection magnitude of the full log table equals
``M**((N - k0)/2)`` times the projection magnitude of the log
geometric-mean table in its own reduced basis.  The two identity checks
at the bottom of this module compute both sides of that relation through
independent code paths.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .basis import SubsetKey, check_subset
from .errors import ArgumentError
from .fitting import orthogonal_complement_magnitude, project_subset
from .table import ContingencyTable, Frozen, LogTable, freeze, generic_schema, log_transform


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
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "conditioning_values", conditioning_values)
        object.__setattr__(self, "counts", freeze(counts))
        object.__setattr__(self, "cell_ranks", ranks)


class GeoMeanTable(Frozen):
    """Entrywise geometric mean over all conditioning combinations."""

    __slots__ = ("subset", "counts", "log_values")

    def __init__(self, subset: SubsetKey, counts, log_values):
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "counts", freeze(counts))
        object.__setattr__(self, "log_values", freeze(log_values))


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
    schema = table.schema
    n, m = schema.n_attributes, schema.n_levels
    members = check_subset(subset, n)
    others = complement_attributes(members, n)
    fixed = tuple(int(v) for v in conditioning)
    if len(fixed) != len(others):
        raise ArgumentError(
            f"expected {len(others)} conditioning values, got {len(fixed)}"
        )
    for value in fixed:
        if not 0 <= value < m:
            raise ArgumentError(f"conditioning level {value} out of range [0, {m})")

    by_attribute = dict(zip(others, fixed))
    indexer = tuple(
        slice(None) if attribute in members else by_attribute[attribute]
        for attribute in range(n - 1, -1, -1)
    )
    counts = table.reshaped()[indexer].ravel()
    ranks = np.arange(schema.n_cells).reshape((m,) * n)[indexer].ravel()
    return ConditionalSubtable(members, fixed, counts, ranks)


def geometric_mean_subtable(table: ContingencyTable, subset: Sequence[int]) -> GeoMeanTable:
    """Geometric mean of the conditional subtables over all conditioning values.

    Computed as ``exp(mean(log counts))`` to stay stable for large
    populations; the logs come from :func:`log_transform`, so the table
    must be adjusted.
    """
    n = table.schema.n_attributes
    members = check_subset(subset, n)
    axes = tuple(n - 1 - a for a in complement_attributes(members, n))
    logs = log_transform(table).reshaped().mean(axis=axes).ravel()
    return GeoMeanTable(members, np.exp(logs), logs)


def reduced_subset_key(outer: SubsetKey, inner: SubsetKey) -> SubsetKey:
    """Re-index ``inner`` by its positions inside ``outer``.

    The geometric-mean table of ``outer`` (size ``k0``) is a table in its
    own right whose attribute ``k0-1`` corresponds to the largest member
    of ``outer`` and attribute ``0`` to the smallest.  Descending order is
    preserved.
    """
    k0 = len(outer)
    positions = []
    for member in inner:
        try:
            positions.append(outer.index(member))
        except ValueError:
            raise ArgumentError(f"attribute {member} of inner subset not in outer {outer}")
    return tuple(k0 - 1 - p for p in positions)


def gm_projection_identity(
    table: ContingencyTable, outer: Sequence[int], inner: Sequence[int]
) -> tuple[float, float]:
    """Both sides of the projection-transfer identity for one subset pair.

    Left: projection magnitude of the full log table onto the ``inner``
    subspace.  Right: ``M**((N-k0)/2)`` times the projection magnitude of
    the log geometric-mean table of ``outer`` onto the re-indexed inner
    subspace of the reduced ``k0``-attribute basis.  The two sides agree
    whenever ``inner`` is contained in ``outer``.
    """
    schema = table.schema
    n, m = schema.n_attributes, schema.n_levels
    outer_key = check_subset(outer, n)
    inner_key = check_subset(inner, n)
    if not outer_key or not inner_key:
        raise ArgumentError("outer and inner subsets must be non-empty")
    if not set(inner_key) <= set(outer_key):
        raise ArgumentError(f"inner subset {inner_key} must be contained in outer {outer_key}")

    lhs = project_subset(log_transform(table), inner_key).magnitude

    k0 = len(outer_key)
    gamma = LogTable(generic_schema(k0, m), geometric_mean_subtable(table, outer_key).log_values)
    reduced = project_subset(gamma, reduced_subset_key(outer_key, inner_key)).magnitude
    rhs = m ** ((n - k0) / 2.0) * reduced
    return lhs, rhs


def gm_projection_total_identity(
    table: ContingencyTable, outer: Sequence[int]
) -> tuple[float, float]:
    """Both sides of the aggregate projection-transfer identity.

    Left: root sum of squared full-table projection magnitudes over every
    non-empty subset of ``outer``.  Right: ``M**((N-k0)/2)`` times the
    norm of the log geometric-mean table's component orthogonal to the
    uniform vector in the reduced space.
    """
    schema = table.schema
    n, m = schema.n_attributes, schema.n_levels
    outer_key = check_subset(outer, n)
    if not outer_key:
        raise ArgumentError("outer subset must be non-empty")

    log_table = log_transform(table)
    total = 0.0
    for size in range(1, len(outer_key) + 1):
        for inner in itertools.combinations(outer_key, size):
            total += project_subset(log_table, inner).magnitude ** 2
    lhs = float(np.sqrt(total))

    k0 = len(outer_key)
    gamma = LogTable(generic_schema(k0, m), geometric_mean_subtable(table, outer_key).log_values)
    rhs = m ** ((n - k0) / 2.0) * orthogonal_complement_magnitude(gamma)
    return lhs, rhs
