"""Probabilistic salience of subtables and attribute subsets.

A table concentrated on a few cells supports confident guessing of the
attribute values; a uniform table supports none.  Salience quantifies the
distance from uniformity of a positive table as

    psi = |log table minus its mean| / |log table|,

a number in [0, 1] that is 0 exactly for constant tables and grows as the
mass piles onto fewer cells.  Applied to the geometric-mean table of an
attribute subset (literally, in :mod:`psalience.reference`) this becomes the
subset-level score Psi that ranks subsets by how inferable their values are.

Entries are expected on the adjusted scale (everything at least 1) so all
logs are non-negative; ratios are invariant to raising the entries to a
common positive power.

By the projection-transfer identity ``Psi(S)**2`` is the block energy of the
non-empty subsets of ``S`` over that of all its subsets, so :func:`scan` costs
one transform plus ``O(N * 2**N)``; its ``workers`` is accepted but changes nothing.
:func:`psi` and :func:`psi_histogram` score rows of logs in one vectorised
pass, so analysing one subset costs one log of the table, one geometric-mean
reduction, one pass over the logs and the spectrum its Psi is read from, as
:func:`scan` reads it.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

import numpy as np

from .basis import SubsetKey, check_subset, enumerate_subsets, subset_sizes, subset_sums
from .errors import ArgumentError, DomainError
from .fitting import centred_norm, row_norms, subset_energies
from .marginal import complement_attributes
from .table import ADJUSTED_MIN, ContingencyTable, Frozen, LogTable, _read_int, log_transform


class SalienceValue(NamedTuple):
    """A salience ratio with its numerator and denominator."""

    psi: float
    chi_magnitude: float
    log_norm: float


def psi(values) -> SalienceValue:
    """Salience of a positive vector with every entry at least 1.

    The all-ones vector has zero log norm and is defined to have salience
    0 (a minimal uniform table is maximally uninformative).
    """
    array = np.asarray(values, dtype=float).ravel()
    if array.size == 0:
        raise ArgumentError("salience of an empty vector is undefined")
    if not np.all(np.isfinite(array)) or array.min() < ADJUSTED_MIN:
        raise DomainError("salience needs finite entries >= 1 (adjusted scale)")
    scores = _row_salience(np.log(np.maximum(array, 1.0))[np.newaxis])
    return SalienceValue(*(float(a[0]) for a in scores))


def _row_salience(logs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(psi, chi_magnitude, log_norm)`` of each row of a 2-D array of non-negative
    logs; a row of zero log norm (every entry 1) scores 0."""
    chi = centred_norm(logs)
    norm = row_norms(logs)
    ratio = np.divide(chi, norm, out=np.zeros_like(norm), where=norm > 0.0)
    return np.minimum(ratio, 1.0, out=ratio), chi, norm


def subset_salience(log_table: LogTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(psi, chi_magnitude, log_norm)`` of every subset's geometric-mean table as lattice
    vectors, scored from :func:`subset_energies`."""
    return _spectrum_salience(subset_energies(log_table), log_table.schema.n_levels)


def _spectrum_salience(energies: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`subset_salience` of an energy spectrum, left unchanged; the constant energy joins only
    the denominator, so near-uniform scores survive.  At most three ``2**N`` vectors beyond it."""
    n = energies.size.bit_length() - 1
    constant, energies[0] = energies[0], 0.0
    chi = subset_sums(energies)
    energies[0] = constant
    # a size-k table's energy is the blocks' over M**(N-k)
    per_cell = (float(m) ** (np.arange(n + 1) - n))[subset_sizes(n)]
    chi *= per_cell
    np.sqrt(chi, out=chi)
    ratio = np.multiply(chi, chi)
    norm = np.multiply(per_cell, constant, out=per_cell)
    norm += ratio
    np.sqrt(norm, out=norm)
    # where norm is 0 so is chi * chi, so those entries already read 0
    np.divide(chi, norm, out=ratio, where=norm > 0.0)
    return np.minimum(ratio, 1.0, out=ratio), chi, norm


class ScanEntry(NamedTuple):
    subset: SubsetKey
    salience: SalienceValue
    rank: int


class SalienceReport(Frozen):
    """Scores of one scan: read-only arrays over the size-k subsets' lattice indices
    ``index``, in enumeration order.  Ranks are 1-based, descending in Psi; ties keep
    enumeration order.  ``entries`` builds one :class:`ScanEntry` per subset on each read."""

    __slots__ = ("k", "index", "psi", "chi_magnitude", "log_norm", "rank")

    @property
    def entries(self) -> tuple[ScanEntry, ...]:
        # the first subset holds attribute N-1, so its lattice index has N bits
        subsets = enumerate_subsets(int(self.index[0]).bit_length(), self.k)
        values = map(SalienceValue, self.psi.tolist(), self.chi_magnitude.tolist(), self.log_norm.tolist())
        return tuple(map(ScanEntry, subsets, values, self.rank.tolist()))


def scan(table: ContingencyTable, k: int, workers: int | None = None) -> SalienceReport:
    """Score every size-k subset of an adjusted table, in enumeration order.

    All scores come from one energy spectrum (see the module docstring);
    ``workers`` is kept for compatibility and changes nothing.
    """
    n = table.schema.n_attributes
    k = _read_int(k, "subset size k")
    if not 1 <= k < n:
        raise ArgumentError(f"subset size {k} out of range [1, {n - 1}]")
    # descending lattice indices of size k are in enumerate_subsets(n, k) order
    index = np.flatnonzero(subset_sizes(n) == k)[::-1]
    psi_k, chi, norm = (a[index] for a in subset_salience(log_transform(table)))
    ranks = np.empty(index.size, dtype=int)
    ranks[np.argsort(-psi_k, kind="stable")] = np.arange(1, index.size + 1)
    for array in (index, psi_k, chi, norm, ranks):
        array.setflags(write=False)
    return SalienceReport(k, index, psi_k, chi, norm, ranks)


def psi_histogram(
    table: ContingencyTable | LogTable, subset: Sequence[int]
) -> list[tuple[tuple[int, ...], float]]:
    """Salience of every individual conditional subtable of ``subset``.

    One entry per conditioning combination (``M**(N-k)`` of them) in
    lexicographic conditioning order, largest conditioning attribute most
    significant.  Each value equals ``psi`` of that conditional subtable.
    A :class:`LogTable` passed as ``table`` is used as the adjusted table's
    logs instead of taking them again.
    """
    schema = table.schema
    members = check_subset(subset, schema.n_attributes)
    if not members:
        raise ArgumentError("subset must be non-empty")
    n, m = schema.n_attributes, schema.n_levels
    others = complement_attributes(members, n)
    # conditioning axes first, so each row is one conditional subtable; contiguous
    # rows are summed in the order psi sums a lone subtable
    logs = table if isinstance(table, LogTable) else log_transform(table)
    logs = logs.reshaped().transpose([n - 1 - a for a in others + members])
    rows = np.ascontiguousarray(logs.reshape(m ** len(others), m ** len(members)))
    values = _row_salience(rows)[0]
    return list(zip(itertools.product(range(m), repeat=len(others)), values.tolist()))
