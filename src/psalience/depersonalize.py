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
is preserved exactly; totals above 2**53, which float64 cannot sum
exactly, are refused.  Audits always compare salience on the
un-rescaled, un-rounded reconstruction, isolating the effect of the
zeroing itself, and report its refit residual, which only the command
line bounds by :data:`REFIT_TOL`: rounding necessarily perturbs the refitted
coefficients a little, which is the price of an integer release.

A zero set is a boolean lattice vector over all ``2**N`` subsets.  A release
fits once, for its zeroing and its before-spectrum, and transforms the released
logs once more: five mode-wise passes plus ``O(N * 2**N)`` lattice operations.
The audit keeps its lattice vectors; Python objects are built only when its
``entries``, ``zeroed_blocks`` or ``violations`` are read.  The audit file is
written from the vectors in one lattice walk and reads none of the three.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .basis import SubsetKey, check_subset, marked_subsets, subset_index, subset_sizes, subset_sums
from .errors import ArgumentError, DomainError, ShapeError
from .fitting import _coefficients, _energies, _zero_blocks, subset_energies
from .salience import _spectrum_salience
from .table import ADJUSTED_MIN, ContingencyTable, Frozen, LogTable, _read_int, log_transform

PSI_DRIFT_TOL = 1e-9
REFIT_TOL = 1e-9
ROUND_TIE_TOL = 1e-9
MAX_ROUNDED_TOTAL = 2 ** 53
"""Largest total ``round_counts`` keeps exactly: float64 holds every integer up to it."""


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
            k_dagger = _read_int(k_dagger, "maximum interaction order k_dagger")
        elif mode == "selective":
            if k_dagger is not None:
                raise ArgumentError("selective mode zeroes listed subsets and takes no k_dagger")
            try:
                subsets = () if zero_subsets is None else zero_subsets
                zero_subsets = tuple(tuple(_read_int(i, "attribute index") for i in s) for s in subsets)
            except TypeError:  # _read_int raises ArgumentError, so only a non-iterable lands here
                raise ArgumentError(
                    f"zero_subsets must be a sequence of attribute-index sequences, got {zero_subsets!r}"
                ) from None
            if not zero_subsets:
                raise ArgumentError("selective mode needs at least one subset to zero")
            if any(len(s) == 0 for s in zero_subsets):
                raise ArgumentError("cannot zero the constant term")
        else:
            raise ArgumentError(f"unknown mode {mode!r}")
        for name, flag in (("renormalize", renormalize), ("round_counts", round_counts)):
            if not isinstance(flag, (bool, np.bool_)):
                raise ArgumentError(f"{name} must be a boolean, got {flag!r}")
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
    """Salience of every subset before and after a release, as lattice vectors.

    ``psi_before`` and ``psi_after`` are read-only float64 salience spectra over
    all ``2**N`` subsets (see :func:`psalience.basis.subset_index`); ``zeroed``
    marks the subsets containing a zeroed block and ``violated`` those whose
    salience grew despite one, or moved at all without one, both read-only
    boolean masks.  ``refit_residual`` is the norm of the released logs'
    zero-set blocks over their whole norm, ``None`` if the zero set is unknown.
    ``entries`` holds one :class:`AuditEntry` per non-empty subset, and
    ``zeroed_blocks`` and ``violations`` the keys the two masks mark, each in
    enumeration order and built afresh on every read.  Not a tuple, so a
    release's ``(table, audit)`` pair is never mistaken for an audit.
    """

    __slots__ = ("psi_before", "psi_after", "zeroed", "violated", "total_drift", "refit_residual")

    @property
    def entries(self) -> tuple[AuditEntry, ...]:
        index, subsets = marked_subsets(np.arange(self.zeroed.size) > 0)
        before, after, contains = (a[index].tolist() for a in (self.psi_before, self.psi_after, self.zeroed))
        return tuple(map(AuditEntry, subsets, before, after, contains))

    @property
    def zeroed_blocks(self) -> tuple[SubsetKey, ...]:
        return marked_subsets(self.zeroed)[1]

    @property
    def violations(self) -> tuple[SubsetKey, ...]:
        return marked_subsets(self.violated)[1]


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


def _rounded_total(total: float) -> int:
    """``total`` rounded to the integer an integral release must sum to, refused above
    :data:`MAX_ROUNDED_TOTAL`, where float64 sums of integers stop being exact."""
    target = int(round(total))
    if target > MAX_ROUNDED_TOTAL:
        raise DomainError(
            f"cannot round counts preserving a total of {target}: totals above 2**53 "
            "have no exact float64 sum"
        )
    return target


def _apply_zeroing(table: ContingencyTable, zero_mask: np.ndarray, spec: LimitSpec):
    """``zero_mask`` is closed upward, so it also marks the subsets containing a zeroed block."""
    if spec.round_counts and spec.renormalize:
        _rounded_total(table.n_total)  # the release keeps this total: refuse it before any transform
    coef, mean = _coefficients(log_transform(table))
    energies_before = _energies(np.square(coef), mean)  # read before the zeroing overwrites coef
    limited = LogTable(table.schema, _zero_blocks(coef, mean, zero_mask))
    counts = np.exp(limited.values)
    if spec.renormalize:
        counts = counts * (table.n_total / counts.sum())
        n_total = table.n_total
    else:
        n_total = float(counts.sum())
    if spec.round_counts:
        counts = _round_preserving_total(counts, _rounded_total(n_total))
        n_total = float(counts.sum())
    released = ContingencyTable(
        table.schema,
        counts,
        n_total,
        adjusted=bool(counts.min() >= ADJUSTED_MIN),
    )
    audit_result = _audit_log_values(
        energies_before,
        limited,
        zero_mask,
        total_drift=float(counts.sum() - table.n_total),
    )
    return released, audit_result


def _audit_log_values(energies_before: np.ndarray, logs_after: LogTable, above, total_drift):
    """``energies_before`` is the original's :func:`subset_energies`.  ``above`` marks subsets holding a
    zeroed block (a release's zero set); ``None`` (unknown) flags only increases, with no refit residual."""
    m = logs_after.schema.n_levels
    psi_before = _spectrum_salience(energies_before, m)[0]
    energies = subset_energies(logs_after)
    psi_after = _spectrum_salience(energies, m)[0]
    broken = psi_after > psi_before + PSI_DRIFT_TOL
    if above is None:
        above, refit_residual = np.zeros(psi_before.size, dtype=bool), None
    else:
        broken = np.where(above, broken, np.abs(psi_after - psi_before) > PSI_DRIFT_TOL)
        total = float(energies.sum())
        refit_residual = float(np.sqrt(energies.sum(where=above) / total)) if total > 0.0 else 0.0
    for vector in (psi_before, psi_after, above, broken):
        vector.setflags(write=False)
    return ReleaseAudit(psi_before, psi_after, above, broken, total_drift, refit_residual)


def interaction_limit(table: ContingencyTable, spec: LimitSpec) -> tuple[ContingencyTable, ReleaseAudit]:
    """Zero every expansion block of size above ``spec.k_dagger`` and rebuild.

    With ``k_dagger = N`` nothing is zeroed and the table passes through
    unchanged.  The audit covers every non-empty subset.
    """
    if spec.mode != "order_limit":
        raise ArgumentError("interaction_limit needs an order_limit spec")
    n = table.schema.n_attributes
    k_dagger = spec.k_dagger
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
    zeroed_blocks: Sequence[SubsetKey] | None = None,
) -> ReleaseAudit:
    """Compare per-subset salience of two tables sharing a schema.

    Covers every non-empty subset.  Salience is evaluated on the log counts
    directly, so releases whose entries dipped below 1 can still be audited.
    When the zeroed blocks are known, an empty set included, unchanged-versus-
    decreased contracts are classified per subset; with ``zeroed_blocks=None``
    (unknown) only salience increases are flagged and ``refit_residual`` is
    ``None``.  The report's ``zeroed`` mask is the upward closure of
    ``zeroed_blocks``.  A zero set holding ``()`` is refused.
    """
    if original.schema != released.schema:
        raise ShapeError("audit needs two tables over the same schema")
    above = None if zeroed_blocks is None else _zero_set(zeroed_blocks, original.schema.n_attributes)
    before, after = (LogTable(original.schema, np.log(np.maximum(t.counts, np.finfo(float).tiny)))
                     for t in (original, released))
    return _audit_log_values(subset_energies(before), after, above,
                             total_drift=float(released.counts.sum() - original.n_total))
