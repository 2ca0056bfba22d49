"""Interaction limiting: reducing salience before a table is released.

Zeroing expansion blocks above a cutoff order (or an explicit upward-closed
set of subsets) and reconstructing yields a release whose high-order
probabilistic structure is gone: refitting the released table gives zero
for every removed block, subset-level salience never increases for any
subset that contained a removed block, and is untouched for the rest.

The release is exponentiated back to count space.  Optionally the counts
are rescaled to the original population total (a uniform rescaling, i.e. a
constant shift of the log table that only moves the constant coefficient)
and rounded to integers with a largest-remainder correction so the total
is preserved exactly.  Audits always compare salience on the
un-rescaled, un-rounded reconstruction, isolating the effect of the
zeroing itself; rounding necessarily perturbs the refitted
coefficients a little, which is the price of an integer release.

A zero set is a boolean lattice vector over all ``2**N`` subsets.  A release
and its audit cost four transforms plus ``O(N * 2**N)`` lattice operations;
Python objects are built only for the returned subset keys and audit entries.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

import numpy as np

from .basis import SubsetKey, check_subset, marked_subsets, subset_index, subset_sizes, subset_sums
from .errors import ArgumentError, ShapeError, StateError
from .fitting import _zero_blocks
from .salience import subset_salience
from .table import ADJUSTED_MIN, ContingencyTable, Frozen, LogTable, log_transform

PSI_DRIFT_TOL = 1e-9
ROUND_TIE_TOL = 1e-9


class LimitSpec(Frozen):
    """What to zero and how to post-process the released counts.

    ``order_limit`` zeroes every block of size above ``k_dagger``;
    ``selective`` zeroes the upward closure of ``zero_subsets``.
    """

    __slots__ = ("mode", "k_dagger", "zero_subsets", "renormalize", "round_counts")

    def __init__(
        self,
        mode: str,
        k_dagger: int | None = None,
        zero_subsets: Sequence[Sequence[int]] | None = None,
        renormalize: bool = True,
        round_counts: bool = False,
    ):
        if mode == "order_limit":
            if k_dagger is None:
                raise ArgumentError("order_limit needs k_dagger")
            if zero_subsets is not None:
                raise ArgumentError("order_limit zeroes by order and takes no zero_subsets")
        elif mode == "selective":
            if k_dagger is not None:
                raise ArgumentError("selective mode zeroes listed subsets and takes no k_dagger")
            if not zero_subsets:
                raise ArgumentError("selective mode needs at least one subset to zero")
            zero_subsets = tuple(tuple(int(i) for i in s) for s in zero_subsets)
            if any(len(s) == 0 for s in zero_subsets):
                raise ArgumentError("cannot zero the constant term")
        else:
            raise ArgumentError(f"unknown mode {mode!r}")
        super().__init__(mode, k_dagger, zero_subsets, renormalize, round_counts)


class AuditEntry(NamedTuple):
    subset: SubsetKey
    psi_before: float
    psi_after: float
    contains_zeroed: bool

    @property
    def delta(self) -> float:
        return self.psi_after - self.psi_before


class ReleaseAudit(Frozen):
    """Per-subset salience before and after a release.

    ``zeroed_blocks`` lists the audited subsets whose block is zeroed, in
    enumeration order; ``violations`` those whose salience grew despite a
    zeroed block, or moved at all without one.  Not a tuple, so a release's
    ``(table, audit)`` pair is never mistaken for an audit.
    """

    __slots__ = ("entries", "zeroed_blocks", "total_drift", "violations")

    def __init__(
        self,
        entries: tuple[AuditEntry, ...],
        zeroed_blocks: tuple[SubsetKey, ...],
        total_drift: float,
        violations: tuple[SubsetKey, ...] = (),
    ):
        super().__init__(entries, zeroed_blocks, total_drift, violations)


def upward_closure(seeds: Sequence[Sequence[int]], n_attributes: int) -> tuple[SubsetKey, ...]:
    """All subsets containing at least one seed, in enumeration order.

    Removing a block while keeping a superset block would leave structure
    that implies the removed one, so the zero set is always closed upward.
    """
    return marked_subsets(_zero_set(seeds, n_attributes))[1]


def _zero_set(seeds: Sequence[Sequence[int]], n_attributes: int) -> np.ndarray:
    """Lattice mask of the upward closure of checked seeds, never the constant term."""
    keys = [check_subset(s, n_attributes) for s in seeds]
    if any(len(s) == 0 for s in keys):
        raise ArgumentError("cannot zero the constant term")
    marks = np.zeros(2 ** n_attributes)
    marks[[subset_index(s) for s in keys]] = 1.0
    return subset_sums(marks) > 0.0


def _round_preserving_total(values: np.ndarray, target: int) -> np.ndarray:
    """Round half to even, then nudge the entries nearest their rounding
    boundary until the sum hits ``target`` exactly.  Fractions are compared on
    a grid of ``ROUND_TIE_TOL`` times the largest entry, and entries tied on it
    are nudged in cell order, so last-ulp noise cannot pick which ones move."""
    base = np.rint(values)
    deficit = int(round(target - base.sum()))
    if deficit:
        step = ROUND_TIE_TOL * max(1.0, float(np.abs(values).max()))
        # +1 goes to the largest fractions, -1 to the smallest
        keys = np.round((values - base) / step) * -np.sign(deficit)
        base[np.argsort(keys, kind="stable")[:abs(deficit)]] += np.sign(deficit)
    return base


def _apply_zeroing(table: ContingencyTable, zero_mask: np.ndarray, spec: LimitSpec):
    """``zero_mask`` is closed upward, so it also marks the subsets containing a zeroed block."""
    if not table.adjusted:
        raise StateError("de-personalisation needs an adjusted table")
    logs = log_transform(table)
    limited = _zero_blocks(logs, zero_mask)
    counts = np.exp(limited.values)
    if spec.renormalize:
        counts = counts * (table.n_total / counts.sum())
        n_total = table.n_total
    else:
        n_total = float(counts.sum())
    if spec.round_counts:
        counts = _round_preserving_total(counts, int(round(n_total)))
        n_total = float(counts.sum())
    released = ContingencyTable(
        table.schema,
        counts,
        n_total,
        adjusted=bool(counts.min() >= ADJUSTED_MIN),
    )
    audit_result = _audit_log_values(
        logs,
        limited,
        zero_mask,
        total_drift=float(counts.sum() - table.n_total),
    )
    return released, audit_result


def _audit_log_values(logs_before: LogTable, logs_after: LogTable, above, total_drift, k=None):
    """``above`` marks subsets containing a zeroed block; ``None`` (zero set unknown) flags only increases."""
    psi_before = subset_salience(logs_before)[0]
    psi_after = subset_salience(logs_after)[0]
    broken = psi_after > psi_before + PSI_DRIFT_TOL
    if above is None:
        above = np.zeros(psi_before.size, dtype=bool)
    else:
        broken = np.where(above, broken, np.abs(psi_after - psi_before) > PSI_DRIFT_TOL)
    sizes = subset_sizes(logs_before.schema.n_attributes)
    index, subsets = marked_subsets(sizes > 0 if k is None else sizes == k)
    before, after, contains = (a[index].tolist() for a in (psi_before, psi_after, above))
    entries = tuple(map(AuditEntry, subsets, before, after, contains))
    zeroed_blocks = tuple(itertools.compress(subsets, contains))
    violations = tuple(itertools.compress(subsets, broken[index].tolist()))
    return ReleaseAudit(entries, zeroed_blocks, total_drift, violations)


def interaction_limit(table: ContingencyTable, spec: LimitSpec) -> tuple[ContingencyTable, ReleaseAudit]:
    """Zero every expansion block of size above ``spec.k_dagger`` and rebuild.

    With ``k_dagger = N`` nothing is zeroed and the table passes through
    unchanged.  The audit covers every non-empty subset.
    """
    if spec.mode != "order_limit":
        raise ArgumentError("interaction_limit needs an order_limit spec")
    n = table.schema.n_attributes
    k_dagger = spec.k_dagger
    if isinstance(k_dagger, bool) or not isinstance(k_dagger, (int, np.integer)):
        raise ArgumentError(f"maximum interaction order k_dagger must be an integer, got {k_dagger!r}")
    if not 1 <= k_dagger <= n:
        raise ArgumentError(f"maximum interaction order k_dagger {k_dagger} out of range [1, {n}]")
    return _apply_zeroing(table, subset_sizes(n) > k_dagger, spec)


def selective_zero(table: ContingencyTable, spec: LimitSpec) -> tuple[ContingencyTable, ReleaseAudit]:
    """Zero the upward closure of the requested subsets and rebuild."""
    if spec.mode != "selective":
        raise ArgumentError("selective_zero needs a selective spec")
    return _apply_zeroing(table, _zero_set(spec.zero_subsets, table.schema.n_attributes), spec)


def audit(
    original: ContingencyTable,
    released: ContingencyTable,
    k: int | None = None,
    zeroed_blocks: Sequence[SubsetKey] | None = None,
) -> ReleaseAudit:
    """Compare per-subset salience of two tables sharing a schema.

    Restricts to subsets of size ``k`` when given, otherwise covers every
    non-empty subset.  Salience is evaluated on the log counts directly,
    so releases whose entries dipped below 1 can still be audited.  When
    the zeroed blocks are known, unchanged-versus-decreased contracts are
    classified per subset; otherwise only salience increases are flagged.
    The report's ``zeroed_blocks`` lists the audited subsets in the upward
    closure of ``zeroed_blocks``.  A zero set holding ``()`` is refused.
    """
    if original.schema != released.schema:
        raise ShapeError("audit needs two tables over the same schema")
    n = original.schema.n_attributes
    if k is not None and not 1 <= k <= n:
        raise ArgumentError(f"subset size {k} out of range [1, {n}]")
    above = _zero_set(zeroed_blocks, n) if zeroed_blocks else None
    return _audit_log_values(
        LogTable(original.schema, np.log(np.maximum(original.counts, np.finfo(float).tiny))),
        LogTable(original.schema, np.log(np.maximum(released.counts, np.finfo(float).tiny))),
        above,
        total_drift=float(released.counts.sum() - original.n_total),
        k=k,
    )
