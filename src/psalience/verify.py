"""Self-contained verification suites behind the ``verify`` CLI command.

Each suite checks one structural guarantee, exhaustively: orthogonality of
every basis column pair, subspace dimension counts and each column's subset
label, expansion round-trip and energy conservation on seeded random tables,
the salience spectrum that ``scan`` and every release audit read against the
literal geometric-mean Psi of every non-empty subset, the closed-form salience
of a spike of every radius, and agreement with the sequential Gram-Schmidt
reference construction, which is skipped above the oracle's own limit,
:data:`psalience.reference.GRAM_SCHMIDT_CELL_LIMIT` (256 cells).  The salience
spectrum is also checked on three near-uniform tables, where rounding matters
most.  The basis is built once, as the single Kronecker-product matrix of
:func:`psalience.reference.full_basis`, and normalised in place; the
orthogonality, dimension and Gram-Schmidt suites read that matrix and the
lattice index of each of its columns; the dimension suite pools the random
tables' squared coordinates by label, so a mislabelled column moves energy to
the wrong subset.  The seeded generator draws only the random tables and the
near-uniform tables' two scaled cells.  A deliberate-perturbation mode
corrupts one basis column after the dimension and Gram-Schmidt suites read it,
to prove the orthogonality checker reports failures rather than
rubber-stamping.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .basis import all_subsets, marked_subsets, subset_index, subset_sizes
from .errors import ArgumentError
from .fitting import fit_beta, reconstruct, subset_energies
from .reference import GRAM_SCHMIDT_CELL_LIMIT, Psi, full_basis, gram_schmidt_oracle, hypercube_psi
from .salience import psi, subset_salience
from .schema import _read_int, generic_schema
from .synthetic import random_adjusted_table
from .table import ContingencyTable, log_transform

CELL_LIMIT = 4096
_GRAM_BAND = 256           # columns per Gram product: 8 MiB of products at the cell limit

ORTHO_TOL = 1e-9
IDENTITY_TOL = 1e-9
SPIKE_TOL = 1e-12


class SuiteResult(NamedTuple):
    """One suite's verdict; ``checked`` counts the items it compared, and a
    suite that compared none reports SKIP rather than PASS."""

    name: str
    passed: bool
    checked: int
    detail: str
    data: dict


class VerificationReport(NamedTuple):
    n: int
    m: int
    seed: int
    trials: int
    suites: tuple[SuiteResult, ...]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def lines(self) -> list[str]:
        out = [f"verification: n={self.n} m={self.m} seed={self.seed} trials={self.trials}"]
        for suite in self.suites:
            status = "SKIP" if not suite.checked else "PASS" if suite.passed else "FAIL"
            out.append(f"  {suite.name:<22} {status}  {suite.detail}")
        skipped = sum(not s.checked for s in self.suites)
        note = f" ({skipped} skipped)" if skipped else ""
        out.append("overall: " + ("PASS" if self.passed else "FAIL") + note)
        return out


def _suite_orthogonality(schema, matrix, perturb):
    # each band of normalised columns meets the columns from its own start
    # onward, which compares every column pair once
    if perturb:
        matrix[:, 1] += 1e-6
    worst = 0.0
    for band in range(0, schema.n_cells, _GRAM_BAND):
        columns = matrix[:, band:band + _GRAM_BAND]
        gram = columns.T @ matrix[:, band:]
        gram[:, :columns.shape[1]] -= np.eye(columns.shape[1])
        worst = max(worst, float(np.abs(gram).max()))
    passed = worst < ORTHO_TOL
    blocks = 2 ** schema.n_attributes
    return SuiteResult(
        "orthogonality", passed, blocks * (blocks + 1) // 2,
        f"max normalised off-diagonal dot {worst:.3e}",
        {"max_offdiagonal": worst},
    )


def _suite_dimensions(schema, matrix, lattice, log_tables, spectra):
    # the column counts hold whatever the labels are; a column labelled with the
    # wrong subset moves its energy to that subset's pool
    n, m = schema.n_attributes, schema.n_levels
    dimensions = np.bincount(lattice, minlength=2 ** n)
    total = int(dimensions.sum())
    squares = np.square(matrix.T @ np.column_stack([t.values for t in log_tables]))
    pooled = np.stack([np.bincount(lattice, weights=w, minlength=2 ** n) for w in squares.T])
    energies = np.stack(spectra)
    worst = float((np.abs(pooled - energies).max(axis=1) / np.maximum(energies.sum(axis=1), 1e-12)).max())
    counted = np.array_equal(dimensions, (m - 1) ** subset_sizes(n).astype(int)) and total == m ** n
    passed = counted and worst < IDENTITY_TOL
    return SuiteResult(
        "dimensions", passed, 2 ** n,
        f"total columns {total} (expected {m ** n}), worst energy gap {worst:.3e}",
        {"total_columns": total, "worst_gap": worst},
    )


def _suite_expansion(log_tables, spectra):
    worst_rt = 0.0
    worst_parseval = 0.0
    for log_table, energies in zip(log_tables, spectra):
        rebuilt = reconstruct(fit_beta(log_table), log_table.schema)
        worst_rt = max(worst_rt, float(np.abs(rebuilt.values - log_table.values).max()))
        total = float(energies.sum())
        norm_sq = float(log_table.values @ log_table.values)
        worst_parseval = max(worst_parseval, abs(total - norm_sq) / max(norm_sq, 1e-12))
    passed = worst_rt < IDENTITY_TOL and worst_parseval < IDENTITY_TOL
    return SuiteResult(
        "expansion", passed, len(log_tables),
        f"worst round-trip {worst_rt:.3e}, worst energy mismatch {worst_parseval:.3e}",
        {"round_trip": worst_rt, "parseval": worst_parseval},
    )


def _suite_gm_identity(schema, rng, trials):
    # the spectrum scan and every release audit read, against Psi of the
    # literal geometric-mean table, for every non-empty subset: on random
    # tables, and on all-5 tables with two drawn cells scaled by 1+eps and
    # 1+3eps, whose scores a transform of the uncentred logs loses to rounding
    index, subsets = marked_subsets(subset_sizes(schema.n_attributes) > 0)
    tables = [random_adjusted_table(schema, rng) for _ in range(trials)]
    for eps in (1e-6, 1e-9, 1e-12):
        counts = np.full(schema.n_cells, 5.0)
        counts[rng.choice(schema.n_cells, size=2, replace=False)] *= (1 + eps, 1 + 3 * eps)
        tables.append(ContingencyTable(schema, counts, float(counts.sum()), adjusted=True))
    worst = 0.0
    worst_subset = None
    for table in tables:
        log_table = log_transform(table)
        spectrum = np.column_stack([a[index] for a in subset_salience(log_table)])
        literal = np.array([Psi(log_table, subset) for subset in subsets])
        # relative throughout: near-uniform scores lie far below any absolute floor
        scale = np.maximum(spectrum, literal)
        gaps = np.divide(np.abs(spectrum - literal), scale, out=np.zeros_like(scale), where=scale > 0.0)
        gaps = gaps.max(axis=1)
        if gaps.max() > worst:
            worst, worst_subset = float(gaps.max()), subsets[int(gaps.argmax())]
    passed = worst < IDENTITY_TOL
    where = "" if passed else f" at {worst_subset}"
    return SuiteResult(
        "gm-projection", passed, len(tables) * len(subsets), f"worst relative gap {worst:.3e}{where}",
        {"worst_gap": worst},
    )


def _suite_spikes(schema):
    m_t = schema.n_cells
    worst = 0.0
    for r in range(1, m_t + 1):
        values = np.ones(m_t)
        values[:r] = np.e ** 1.5
        worst = max(worst, abs(psi(values).psi - hypercube_psi(r, m_t)))
    passed = worst < SPIKE_TOL
    return SuiteResult(
        "spike-salience", passed, m_t, f"worst closed-form gap {worst:.3e}",
        {"worst_gap": worst, "radii_checked": m_t},
    )


def _suite_gram_schmidt(schema, matrix, lattice):
    m_t = schema.n_cells
    if m_t > GRAM_SCHMIDT_CELL_LIMIT:
        return SuiteResult(
            "gram-schmidt", True, 0, f"skipped ({m_t} cells > {GRAM_SCHMIDT_CELL_LIMIT})",
            {"skipped": True},
        )
    reference, reference_lattice = gram_schmidt_oracle(schema)
    # equal dimensions plus containment of the reference columns in the
    # generated span is subspace equality, without dense projectors
    subsets = all_subsets(schema.n_attributes)
    worst = 0.0
    for subset in subsets:
        i = subset_index(subset)
        mine, ref_matrix = matrix[:, lattice == i], reference[:, reference_lattice == i]
        if ref_matrix.shape[1] != mine.shape[1]:
            return SuiteResult(
                "gram-schmidt", False, len(subsets),
                f"dimension mismatch at {subset}: {ref_matrix.shape[1]} vs {mine.shape[1]}",
                {"subset": subset},
            )
        residual = ref_matrix - mine @ (mine.T @ ref_matrix)
        ratios = np.linalg.norm(residual, axis=0) / np.linalg.norm(ref_matrix, axis=0)
        worst = max(worst, float(ratios.max()))
    passed = worst < ORTHO_TOL
    return SuiteResult(
        "gram-schmidt", passed, len(subsets), f"worst span residual {worst:.3e}",
        {"worst_gap": worst},
    )


def run_verification(
    n: int, m: int, seed: int = 0, trials: int = 20, perturb: bool = False
) -> VerificationReport:
    """Run every suite for an ``n``-attribute, ``m``-level configuration.

    Refuses, with :class:`ArgumentError`, an argument that is not an integer,
    fewer than one attribute, fewer than two levels, more than ``CELL_LIMIT``
    cells, a negative seed, and fewer than one trial, which would check
    nothing.  ``perturb=True`` injects a deliberate basis corruption so the
    orthogonality suite must fail; use it to prove the checker is alive.
    """
    n, m, seed, trials = map(_read_int, (n, m, seed, trials), ("n", "m", "seed", "trials"))
    # with m >= 2, n >= CELL_LIMIT.bit_length() already exceeds the limit, so
    # m ** n is formed only for small n
    if n < 1 or m < 2 or n >= CELL_LIMIT.bit_length() or m ** n > CELL_LIMIT:
        raise ArgumentError(
            f"n={n}, m={m} out of range: verification needs n >= 1, m >= 2 "
            f"and m**n <= {CELL_LIMIT} cells"
        )
    if seed < 0:
        raise ArgumentError(f"seed must be at least 0, got {seed}")
    if trials < 1:
        raise ArgumentError(f"trials must be at least 1, got {trials}")
    schema = generic_schema(n, m)
    matrix, lattice = full_basis(schema)
    matrix /= np.sqrt(np.einsum("ij,ij->j", matrix, matrix))
    rng = np.random.default_rng(seed)
    # each random table is logged and transformed once, for the dimension and expansion suites
    log_tables = [log_transform(random_adjusted_table(schema, rng)) for _ in range(trials)]
    spectra = [subset_energies(t) for t in log_tables]
    # the dimension and Gram-Schmidt suites read the basis before the self-test corrupts it
    dimensions = _suite_dimensions(schema, matrix, lattice, log_tables, spectra)
    gram_schmidt = _suite_gram_schmidt(schema, matrix, lattice)
    suites = (
        _suite_orthogonality(schema, matrix, perturb),
        dimensions,
        _suite_expansion(log_tables, spectra),
        _suite_gm_identity(schema, rng, max(1, trials // 4)),
        _suite_spikes(schema),
        gram_schmidt,
    )
    return VerificationReport(n, m, seed, trials, suites)
