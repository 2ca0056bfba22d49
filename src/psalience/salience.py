"""Probabilistic salience of subtables and attribute subsets.

A table concentrated on a few cells supports confident guessing of the
attribute values; a uniform table supports none.  Salience quantifies the
distance from uniformity of a positive table as

    psi = |log table minus its mean| / |log table|,

a number in [0, 1] that is 0 exactly for constant tables and grows as the
mass piles onto fewer cells.  Applied to the geometric-mean table of an
attribute subset this becomes the subset-level score Psi used to rank
subsets by how inferable their values are from the rest.

Entries are expected on the adjusted scale (everything at least 1) so all
logs are non-negative; ratios are invariant to raising the entries to a
common positive power.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import SubsetKey, check_subset, enumerate_subsets
from .errors import ArgumentError, DomainError
from .fitting import centred_norm
from .marginal import complement_attributes, geometric_mean_subtable
from .table import ContingencyTable


@dataclass(frozen=True)
class SalienceValue:
    """A salience ratio with its numerator and denominator."""

    psi: float
    chi_magnitude: float
    log_norm: float


def _salience_from_logs(logs: np.ndarray) -> SalienceValue:
    chi = centred_norm(logs)
    norm = float(np.linalg.norm(logs))
    if norm == 0.0:
        return SalienceValue(0.0, 0.0, 0.0)
    return SalienceValue(min(chi / norm, 1.0), chi, norm)


def psi(values) -> SalienceValue:
    """Salience of a positive vector with every entry at least 1.

    The all-ones vector has zero log norm and is defined to have salience
    0 (a minimal uniform table is maximally uninformative).
    """
    array = np.asarray(values, dtype=float).ravel()
    if array.size == 0:
        raise ArgumentError("salience of an empty vector is undefined")
    if not np.all(np.isfinite(array)) or array.min() < 1.0 - 1e-12:
        raise DomainError("salience needs finite entries >= 1 (adjusted scale)")
    return _salience_from_logs(np.log(np.maximum(array, 1.0)))


def Psi(table: ContingencyTable, subset: Sequence[int]) -> SalienceValue:
    """Subset-level salience: ``psi`` of the subset's geometric-mean table."""
    members = check_subset(subset, table.schema.n_attributes)
    if not 1 <= len(members) <= table.schema.n_attributes:
        raise ArgumentError("subset must be non-empty")
    return psi(geometric_mean_subtable(table, members).counts)


@dataclass(frozen=True)
class ScanEntry:
    subset: SubsetKey
    salience: SalienceValue
    rank: int


@dataclass(frozen=True)
class SalienceReport:
    """Per-subset scores of one scan, in enumeration order, with ranks.

    Ranks are 1-based, descending in Psi; ties keep enumeration order.
    ``histograms`` optionally maps subsets to their per-conditioning psi
    lists.
    """

    k: int
    entries: tuple[ScanEntry, ...]
    histograms: dict | None = None


def scan(table: ContingencyTable, k: int, workers: int | None = None) -> SalienceReport:
    """Score every size-k subset of an adjusted table.

    Subsets are evaluated independently (optionally across ``workers``
    threads) and reported in enumeration order, so the output does not
    depend on the worker count.
    """
    n = table.schema.n_attributes
    if not 1 <= k < n:
        raise ArgumentError(f"subset size {k} out of range [1, {n - 1}]")
    subsets = enumerate_subsets(n, k)
    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(lambda s: Psi(table, s), subsets))
    else:
        values = [Psi(table, s) for s in subsets]
    order = sorted(range(len(subsets)), key=lambda i: (-values[i].psi, i))
    ranks = [0] * len(subsets)
    for position, i in enumerate(order, start=1):
        ranks[i] = position
    entries = tuple(
        ScanEntry(subset, value, rank)
        for subset, value, rank in zip(subsets, values, ranks)
    )
    return SalienceReport(k=k, entries=entries)


def psi_histogram(table: ContingencyTable, subset: Sequence[int]) -> list[tuple[tuple[int, ...], float]]:
    """Salience of every individual conditional subtable of ``subset``.

    One entry per conditioning combination (``M**(N-k)`` of them) in
    lexicographic conditioning order, largest conditioning attribute most
    significant.
    """
    if not table.adjusted:
        raise DomainError("per-subtable salience needs an adjusted table")
    schema = table.schema
    members = check_subset(subset, schema.n_attributes)
    if not members:
        raise ArgumentError("subset must be non-empty")
    n, m = schema.n_attributes, schema.n_levels
    others = complement_attributes(members, n)
    # conditioning axes first, so each row is one conditional subtable
    rows = table.reshaped().transpose([n - 1 - a for a in others + members])
    rows = rows.reshape(m ** len(others), m ** len(members))
    combos = itertools.product(range(m), repeat=len(others))
    return [(combo, psi(row).psi) for combo, row in zip(combos, rows)]


def hypercube_psi(r: int, m_t: int) -> float:
    """Salience of a log vector with ``r`` equal positive entries, rest zero.

    Closed form ``sqrt(1 - r/m_t)`` for a table of ``m_t`` cells; smaller
    ``r`` (sharper concentration) gives strictly larger salience.
    """
    r = int(r)
    m_t = int(m_t)
    if m_t < 1 or not 1 <= r <= m_t:
        raise ArgumentError(f"need 1 <= r <= m_t, got r={r}, m_t={m_t}")
    return math.sqrt(1.0 - r / m_t)
