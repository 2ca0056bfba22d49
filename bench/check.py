"""Output checks against references computed without psalience.

Every reference here is built from the generator's level codes and the
documented file formats only: counts by ``np.bincount``, salience as the
centred-log norm ratio of a geometric-mean table, and releases through
the benchmark's own mode-wise orthonormal transform.  A check that
examined no items is a failure, never a pass.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-12


def close(a, b) -> np.ndarray:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) <= np.maximum(REL_TOL * np.maximum(np.abs(a), np.abs(b)), ABS_TOL)


# --- references -----------------------------------------------------------

def reference_counts(codes: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw and zero-adjusted counts in lexicographic cell order."""
    n = codes.shape[1]
    flat = np.ravel_multi_index(tuple(codes.T), (m,) * n)
    raw = np.bincount(flat, minlength=m ** n).astype(float)
    total = raw.sum()
    return raw, raw / total * (total - m ** n) + 1.0


def _axis(attribute: int, n: int) -> int:
    return n - 1 - attribute


def _centred_ratio(logs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise (psi, |l - mean l|, |l|); a constant row has psi exactly 0."""
    chi = np.linalg.norm(logs - logs.mean(axis=-1, keepdims=True), axis=-1)
    norm = np.linalg.norm(logs, axis=-1)
    constant = np.ptp(logs, axis=-1) == 0.0
    chi = np.where(constant, 0.0, chi)
    with np.errstate(invalid="ignore", divide="ignore"):
        psi = np.where(norm > 0, np.minimum(chi / np.where(norm > 0, norm, 1.0), 1.0), 0.0)
    return psi, chi, norm


def reference_psi(logs: np.ndarray, subset, n: int, m: int) -> tuple[float, float, float]:
    """Salience of the subset's geometric-mean table (mean of logs)."""
    arr = logs.reshape((m,) * n)
    axes = tuple(_axis(a, n) for a in range(n) if a not in subset)
    g = arr.mean(axis=axes).ravel() if axes else arr.ravel()
    psi, chi, norm = _centred_ratio(g)
    return float(psi), float(chi), float(norm)


def reference_histogram(logs: np.ndarray, subset, n: int, m: int) -> np.ndarray:
    """psi of every conditional subtable, conditioning largest attribute first."""
    kept = [_axis(a, n) for a in subset]
    rest = [ax for ax in range(n) if ax not in kept]
    rows = np.transpose(logs.reshape((m,) * n), rest + kept).reshape(m ** len(rest), -1)
    return _centred_ratio(rows)[0]


def orthonormal_modes(m: int) -> np.ndarray:
    """Orthonormal M x M matrix whose first column is the constant direction."""
    a = np.eye(m)
    a[:, 0] = 1.0
    q, _ = np.linalg.qr(a)
    return q * np.sign(q[0, 0])


def mode_transform(logs: np.ndarray, n: int, m: int, inverse: bool = False) -> np.ndarray:
    """Apply Q^T (or Q) along every axis of the log tensor."""
    q = orthonormal_modes(m)
    op = q if inverse else q.T
    tensor = logs.reshape((m,) * n)
    for axis in range(n):
        tensor = np.moveaxis(np.tensordot(op, tensor, axes=(1, axis)), 0, axis)
    return tensor.ravel()


def zeroed_mask(n: int, m: int, max_order: int | None = None, seeds=()) -> np.ndarray:
    """Coefficient positions of the zeroed blocks.

    A coefficient belongs to the block of the attributes whose mode index
    is non-zero; order limits zero blocks above ``max_order``, seeds zero
    every block containing one of them.
    """
    digits = np.indices((m,) * n).reshape(n, -1) > 0  # row = axis
    if max_order is not None:
        return digits.sum(axis=0) > max_order
    mask = np.zeros(m ** n, dtype=bool)
    for seed in seeds:
        mask |= np.all(digits[[_axis(a, n) for a in seed]], axis=0)
    return mask


def reference_release(adjusted: np.ndarray, n: int, m: int, mask: np.ndarray) -> np.ndarray:
    """Zero the masked coefficients, invert, exponentiate, keep the total."""
    coef = mode_transform(np.log(adjusted), n, m)
    coef[mask] = 0.0
    counts = np.exp(mode_transform(coef, n, m, inverse=True))
    return counts * (adjusted.sum() / counts.sum())


def zeroed_energy_ratio(counts: np.ndarray, n: int, m: int, mask: np.ndarray) -> float:
    """Norm of the masked coefficients over the norm of the log table."""
    logs = np.log(counts)
    coef = mode_transform(logs, n, m)
    return float(np.linalg.norm(coef[mask]) / np.linalg.norm(logs))


# --- checker --------------------------------------------------------------

class Checker:
    """Counts attempted operations and those whose output failed a check."""

    def __init__(self, n: int, m: int, codes: np.ndarray, pair):
        self.n, self.m = n, m
        self.pair = tuple(pair)
        self.raw, self.adjusted = reference_counts(codes, m)
        self.logs = np.log(self.adjusted)
        self._psi_cache: dict = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.reset_health()

    def reset_health(self) -> None:
        """Start the numerical-health counts of a new pipeline."""
        self.health = {"cells_below_1": 0, "audit_violations": 0, "refit_zeroed_norm": 0.0}

    def record(self, op: str, ok: bool, problems: list[str]) -> bool:
        """Count one operation; it fails if it errored or any check failed."""
        self.attempted += 1
        good = ok and not problems
        if not good:
            self.failed += 1
            self.messages.append(f"{op}: " + ("; ".join(problems) or "exited with an error"))
        return good

    @staticmethod
    def _items(name: str, count: int, bad: int, problems: list[str]) -> None:
        if count == 0:
            problems.append(f"{name}: examined no items")
        elif bad:
            problems.append(f"{name}: {bad} of {count} items wrong")

    def table_problems(self, counts, n_total, adjusted) -> list[str]:
        problems: list[str] = []
        counts = np.asarray(counts, dtype=float)
        if counts.shape != self.adjusted.shape:
            return [f"table: {counts.size} counts, expected {self.adjusted.size}"]
        self._items("table counts", counts.size, int(np.count_nonzero(~close(counts, self.adjusted))), problems)
        if not close(n_total, self.raw.sum()) or adjusted is not True:
            problems.append("table: wrong total or adjusted flag")
        return problems

    def _reference_psi(self, subset):
        if subset not in self._psi_cache:
            self._psi_cache[subset] = reference_psi(self.logs, subset, self.n, self.m)
        return self._psi_cache[subset]

    def scan_problems(self, k: int, entries) -> list[str]:
        """entries: (subset, Psi, chi_magnitude, log_norm, rank) per subset."""
        problems: list[str] = []
        bad = 0
        for subset, psi, chi, norm, _ in entries:
            ref = self._reference_psi(tuple(subset))
            bad += not bool(np.all(close((psi, chi, norm), ref)))
        self._items(f"scan k={k} Psi", len(entries), bad, problems)
        subsets = {tuple(e[0]) for e in entries}
        expected = math.comb(self.n, k)
        if len(subsets) != len(entries) or len(entries) != expected:
            problems.append(f"scan k={k}: {len(entries)} entries, expected {expected} distinct")
        ranks = sorted(e[4] for e in entries)
        if ranks != list(range(1, len(entries) + 1)):
            problems.append(f"scan k={k}: ranks are not 1..{len(entries)}")
        by_rank = sorted(entries, key=lambda e: e[4])
        if any(a[1] < b[1] for a, b in zip(by_rank, by_rank[1:])):
            problems.append(f"scan k={k}: ranks not in descending Psi order")
        if k == 2 and by_rank and tuple(by_rank[0][0]) != self.pair:
            problems.append(f"scan k=2: planted pair {self.pair} not ranked first")
        return problems

    def analyze_problems(self, subset, psi_value, histogram) -> list[str]:
        problems: list[str] = []
        subset = tuple(subset)
        expected = self.m ** (self.n - len(subset))
        if len(histogram) != expected:
            problems.append(f"analyze: histogram has {len(histogram)} entries, expected M**(N-k) = {expected}")
        else:
            ref = reference_histogram(self.logs, subset, self.n, self.m)
            self._items("analyze histogram", len(histogram),
                        int(np.count_nonzero(~close(histogram, ref))), problems)
        if psi_value is not None and not close(psi_value, self._reference_psi(subset)[0]):
            problems.append("analyze: Psi differs from the reference")
        return problems

    def release_problems(self, counts, n_total, rounded: bool, mask: np.ndarray,
                         violations, audited: int, zeroed: int) -> list[str]:
        """One release: total, zeroed-block energy, audit and reference release."""
        problems: list[str] = []
        counts = np.asarray(counts, dtype=float)
        if counts.shape != self.adjusted.shape:
            return [f"release: {counts.size} counts, expected {self.adjusted.size}"]
        total = self.raw.sum()
        reference = reference_release(self.adjusted, self.n, self.m, mask)
        self.health["cells_below_1"] += int(np.count_nonzero(counts < 1.0))
        self.health["audit_violations"] += len(violations)
        if rounded:
            # rounding perturbs every block a little, so the zeroed-block
            # energy is checked on the reference the release must round from
            if not np.all(counts == np.rint(counts)) or counts.sum() != round(total):
                problems.append("release: rounded counts not integral or total not exact")
            far = int(np.count_nonzero(np.abs(counts - reference) >= 1.0))
            self._items("release within 1 of reference", counts.size, far, problems)
            energy = zeroed_energy_ratio(reference, self.n, self.m, mask)
        else:
            if not close(counts.sum(), total) or not close(n_total, total):
                problems.append("release: total not preserved")
            self._items("release vs reference", counts.size,
                        int(np.count_nonzero(~close(counts, reference))), problems)
            energy = zeroed_energy_ratio(counts, self.n, self.m, mask)
            self.health["refit_zeroed_norm"] = max(self.health["refit_zeroed_norm"], energy)
        if int(mask.sum()) == 0:
            problems.append("release: no zeroed coefficients to examine")
        elif energy > 1e-9:
            problems.append(f"release: zeroed-block energy ratio {energy:.3e} above 1e-9")
        if violations:
            problems.append(f"release: {len(violations)} audit violations")
        if audited != 2 ** self.n - 1:
            problems.append(f"release: audit covered {audited} subsets, expected {2 ** self.n - 1}")
        if zeroed != self.expected_zeroed(mask):
            problems.append(f"release: {zeroed} blocks zeroed, expected {self.expected_zeroed(mask)}")
        return problems

    def expected_zeroed(self, mask: np.ndarray) -> int:
        """Number of subsets whose block the mask covers."""
        digits = np.indices((self.m,) * self.n).reshape(self.n, -1) > 0
        blocks = {tuple(col) for col in digits[:, mask].T}
        return len(blocks)


# --- self-test ------------------------------------------------------------

def self_test() -> list[str]:
    """Corrupt reference outputs and require the checker to notice each time.

    Returns a list of failures of the checker itself (empty when sound).
    """
    n, m = 4, 3
    rng = np.random.default_rng(7)
    codes = rng.integers(0, m, size=(4000, n))
    codes[:, 1] = np.where(rng.random(4000) < 0.8, codes[:, 0], codes[:, 1])
    pair = (n - 1, n - 2)
    checker = Checker(n, m, codes, pair)
    logs = checker.logs

    entries = []
    for subset in itertools.combinations(range(n - 1, -1, -1), 2):
        entries.append([subset, *reference_psi(logs, subset, n, m)])
    order = sorted(range(len(entries)), key=lambda i: -entries[i][1])
    for rank, i in enumerate(order, start=1):
        entries[i].append(rank)
    mask = zeroed_mask(n, m, max_order=1)
    release = reference_release(checker.adjusted, n, m, mask)
    zeroed = checker.expected_zeroed(mask)
    histogram = reference_histogram(logs, pair, n, m)

    def flags(problems) -> bool:
        return bool(problems)

    failures = []
    clean = [
        checker.table_problems(checker.adjusted, checker.raw.sum(), True),
        checker.scan_problems(2, entries),
        checker.analyze_problems(pair, None, histogram),
        checker.release_problems(release, checker.raw.sum(), False, mask, [], 2 ** n - 1, zeroed),
    ]
    if any(clean):
        failures.append(f"clean reference outputs rejected: {clean}")

    corrupted = checker.adjusted.copy()
    corrupted[5] += 1.0
    if not flags(checker.table_problems(corrupted, checker.raw.sum(), True)):
        failures.append("corrupted count not reported")

    swapped = [list(e) for e in entries]
    swapped[0][1], swapped[-1][1] = swapped[-1][1], swapped[0][1]
    if not flags(checker.scan_problems(2, swapped)):
        failures.append("swapped Psi not reported")

    coef = mode_transform(np.log(release), n, m)
    coef[np.flatnonzero(mask)[0]] = 0.05
    reinstated = np.exp(mode_transform(coef, n, m, inverse=True))
    reinstated *= release.sum() / reinstated.sum()
    if not flags(checker.release_problems(reinstated, checker.raw.sum(), False, mask, [], 2 ** n - 1, zeroed)):
        failures.append("reinstated zeroed block not reported")

    if not flags(checker.scan_problems(2, [])) or not flags(checker.analyze_problems(pair, None, [])):
        failures.append("a check over zero items passed")
    return failures
