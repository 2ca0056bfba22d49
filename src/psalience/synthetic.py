"""Seeded synthetic tables for demos, verification runs and tests."""

from __future__ import annotations

import numpy as np

from .basis import _subset_kron, check_subset, level_contrasts
from .errors import ArgumentError
from .schema import AttributeSchema, _read_int
from .table import ContingencyTable, zero_adjust


def random_adjusted_table(
    schema: AttributeSchema, rng: np.random.Generator, n_total: int | None = None
) -> ContingencyTable:
    """Multinomial draw over Dirichlet cell probabilities, zero-adjusted."""
    m_t = schema.n_cells
    n_total = 50 * m_t if n_total is None else _read_int(n_total, "n_total")
    if n_total <= m_t:
        raise ArgumentError("n_total must exceed the cell count")
    probabilities = rng.dirichlet(np.ones(m_t))
    counts = rng.multinomial(n_total, probabilities).astype(float)
    raw = ContingencyTable(schema, counts, float(n_total), adjusted=False)
    return zero_adjust(raw)


def planted_interaction_table(
    schema: AttributeSchema, subset, strength: float = 3.0
) -> ContingencyTable:
    """Adjusted table whose log is a constant plus one scaled interaction column.

    The column is the subset's first basis column (all contrast codes zero):
    :func:`psalience.basis._subset_kron` of the first level contrast on the
    subset's attributes and ones elsewhere.  It is scaled to unit norm times
    ``strength``, then shifted so the smallest count is exactly 1.  Every other subset's projection is
    exactly zero, so a scan must rank ``subset`` first.
    """
    members = check_subset(subset, schema.n_attributes)
    if not members:
        raise ArgumentError("plant a non-empty subset")
    if strength <= 0:
        raise ArgumentError("strength must be positive")
    n, m = schema.n_attributes, schema.n_levels
    column = _subset_kron(n, m, members, [level_contrasts(m)[:, [0]]] * len(members)).ravel()
    column = column / np.sqrt(column @ column)
    logs = strength * column
    logs = logs - logs.min()
    counts = np.exp(logs)
    return ContingencyTable(schema, counts, float(counts.sum()), adjusted=True)


def correlated_pair_table(
    schema: AttributeSchema, pair, weight: float = 50.0
) -> ContingencyTable:
    """Adjusted table where two attributes always agree.

    Cells whose two digits match hold ``weight``, the rest hold 1.  The
    log table is a constant plus a pure pairwise-interaction vector, and
    the pair's geometric-mean salience is ``sqrt(1 - 1/M)``, the sharpest
    value a diagonal association can produce.
    """
    members = check_subset(pair, schema.n_attributes)
    if len(members) != 2:
        raise ArgumentError("need exactly two attributes")
    if weight <= 1:
        raise ArgumentError("weight must exceed 1")
    n, m = schema.n_attributes, schema.n_levels
    counts = np.ones((m,) * n)
    hi, lo = (n - 1 - members[0], n - 1 - members[1])  # attribute -> axis
    indexer = [slice(None)] * n
    for level in range(m):
        indexer[hi] = level
        indexer[lo] = level
        counts[tuple(indexer)] = weight
    flat = counts.ravel()
    return ContingencyTable(schema, flat, float(flat.sum()), adjusted=True)
