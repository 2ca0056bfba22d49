"""Self-contained verification suites behind the ``verify`` CLI command.

Each suite checks one structural guarantee on seeded random tables:
basis orthogonality, subspace dimension counts, expansion round-trip and
energy conservation, the geometric-mean projection-transfer identities,
the closed-form salience of spiked tables, and agreement with the
sequential Gram-Schmidt reference construction.  A deliberate-perturbation
mode corrupts one basis column first, to prove the checker reports
failures rather than rubber-stamping.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .basis import all_subsets, full_basis, gram_schmidt_oracle
from .errors import ArgumentError, SizeGuardError
from .fitting import fit_beta, project_subset, reconstruct
from .marginal import gm_projection_identity, gm_projection_total_identity
from .salience import hypercube_psi, psi
from .synthetic import random_adjusted_table
from .table import generic_schema, log_transform

CELL_LIMIT = 4096
_FULL_GRAM_LIMIT = 1024    # dense all-columns gram matrix above this streams blocks
_GS_SUITE_LIMIT = 256      # the literal Gram-Schmidt reference is cubic; cap it
_EXHAUSTIVE_PAIR_LIMIT = 5  # above this many attributes, sample subset pairs

ORTHO_TOL = 1e-9
IDENTITY_TOL = 1e-9
SPIKE_TOL = 1e-12


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str
    data: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VerificationReport:
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
            status = "PASS" if suite.passed else "FAIL"
            out.append(f"  {suite.name:<22} {status}  {suite.detail}")
        out.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return out


def _suite_orthogonality(schema, bases, rng, perturb):
    blocks = []
    for basis in bases:
        blocks.append(basis.matrix / np.sqrt(basis.norms_sq))
    if perturb:
        first = blocks[1].copy()
        first[:, 0] = first[:, 0] + 1e-6
        blocks[1] = first
    m_t = schema.n_cells
    worst = 0.0
    if m_t <= _FULL_GRAM_LIMIT:
        stacked = np.hstack(blocks)
        gram = stacked.T @ stacked
        worst = float(np.abs(gram - np.eye(gram.shape[0])).max())
    else:
        # stream block pairs to avoid a cells-squared allocation
        pairs = list(itertools.combinations_with_replacement(range(len(blocks)), 2))
        if len(pairs) > 400:
            chosen = rng.choice(len(pairs), size=400, replace=False)
            pairs = [pairs[i] for i in chosen]
        for i, j in pairs:
            gram = blocks[i].T @ blocks[j]
            if i == j:
                gram = gram - np.eye(gram.shape[0])
            worst = max(worst, float(np.abs(gram).max()))
    passed = worst < ORTHO_TOL
    return SuiteResult(
        "orthogonality", passed, f"max normalised off-diagonal dot {worst:.3e}",
        {"max_offdiagonal": worst},
    )


def _suite_dimensions(schema, bases):
    n, m = schema.n_attributes, schema.n_levels
    per_subset_ok = True
    total = 0
    for basis in bases:
        total += basis.dimension
        if basis.dimension != (m - 1) ** len(basis.subset):
            per_subset_ok = False
    passed = per_subset_ok and total == m ** n
    return SuiteResult(
        "dimensions", passed,
        f"total columns {total} (expected {m ** n})",
        {"total_columns": total},
    )


def _suite_expansion(schema, rng, trials):
    worst_rt = 0.0
    worst_parseval = 0.0
    for _ in range(trials):
        table = random_adjusted_table(schema, rng)
        log_table = log_transform(table)
        rebuilt = reconstruct(fit_beta(log_table), schema)
        worst_rt = max(worst_rt, float(np.abs(rebuilt.values - log_table.values).max()))
        total = sum(
            project_subset(log_table, s).magnitude ** 2 for s in all_subsets(schema.n_attributes)
        )
        norm_sq = float(log_table.values @ log_table.values)
        worst_parseval = max(worst_parseval, abs(total - norm_sq) / max(norm_sq, 1e-12))
    passed = worst_rt < IDENTITY_TOL and worst_parseval < IDENTITY_TOL
    return SuiteResult(
        "expansion", passed,
        f"worst round-trip {worst_rt:.3e}, worst energy mismatch {worst_parseval:.3e}",
        {"round_trip": worst_rt, "parseval": worst_parseval},
    )


def _identity_pairs(n, rng):
    pairs = []
    for k0 in range(1, n):
        for outer in itertools.combinations(range(n - 1, -1, -1), k0):
            for size in range(1, k0 + 1):
                for inner in itertools.combinations(outer, size):
                    pairs.append((outer, inner))
    if n > _EXHAUSTIVE_PAIR_LIMIT and len(pairs) > 200:
        chosen = rng.choice(len(pairs), size=200, replace=False)
        pairs = [pairs[i] for i in chosen]
    return pairs


def _suite_gm_identity(schema, rng, trials):
    n = schema.n_attributes
    outers = [
        outer
        for k0 in range(1, n)
        for outer in itertools.combinations(range(n - 1, -1, -1), k0)
    ]
    if n > _EXHAUSTIVE_PAIR_LIMIT and len(outers) > 40:
        chosen = rng.choice(len(outers), size=40, replace=False)
        outers = [outers[i] for i in chosen]
    worst = 0.0
    worst_pair = None
    for _ in range(trials):
        table = random_adjusted_table(schema, rng)
        for outer, inner in _identity_pairs(n, rng):
            lhs, rhs = gm_projection_identity(table, outer, inner)
            gap = abs(lhs - rhs) / max(lhs, rhs, 1e-12)
            if gap > worst:
                worst, worst_pair = gap, (outer, inner)
        for outer in outers:
            lhs, rhs = gm_projection_total_identity(table, outer)
            gap = abs(lhs - rhs) / max(lhs, rhs, 1e-12)
            if gap > worst:
                worst, worst_pair = gap, (outer, "total")
    passed = worst < IDENTITY_TOL
    where = f" at {worst_pair}" if (not passed and worst_pair) else ""
    return SuiteResult(
        "gm-projection", passed, f"worst relative gap {worst:.3e}{where}",
        {"worst_gap": worst},
    )


def _suite_spikes(schema, rng):
    m_t = schema.n_cells
    if m_t <= 64:
        radii = list(range(1, m_t + 1))
    else:
        radii = sorted({1, 2, m_t // 2, m_t - 1, m_t} | set(rng.integers(1, m_t + 1, size=32).tolist()))
    worst = 0.0
    for r in radii:
        values = np.ones(m_t)
        values[:r] = np.e ** 1.5
        worst = max(worst, abs(psi(values).psi - hypercube_psi(r, m_t)))
    passed = worst < SPIKE_TOL
    return SuiteResult(
        "spike-salience", passed, f"worst closed-form gap {worst:.3e}",
        {"worst_gap": worst, "radii_checked": len(radii)},
    )


def _suite_gram_schmidt(schema, bases):
    m_t = schema.n_cells
    if m_t > _GS_SUITE_LIMIT:
        return SuiteResult(
            "gram-schmidt", True, f"skipped ({m_t} cells > {_GS_SUITE_LIMIT})",
            {"skipped": True},
        )
    reference: dict = {}
    for column in gram_schmidt_oracle(schema):
        reference.setdefault(column.subset, []).append(column.entries)
    # equal dimensions plus containment of the reference columns in the
    # generated span is subspace equality, without dense projectors
    worst = 0.0
    for basis in bases:
        subset = basis.subset
        ref_matrix = np.column_stack(reference[subset])
        if ref_matrix.shape[1] != basis.dimension:
            return SuiteResult(
                "gram-schmidt", False,
                f"dimension mismatch at {subset}: {ref_matrix.shape[1]} vs {basis.dimension}",
                {"subset": subset},
            )
        coef = (basis.matrix.T @ ref_matrix) / basis.norms_sq[:, None]
        residual = ref_matrix - basis.matrix @ coef
        ratios = np.linalg.norm(residual, axis=0) / np.linalg.norm(ref_matrix, axis=0)
        worst = max(worst, float(ratios.max()))
    passed = worst < ORTHO_TOL
    return SuiteResult(
        "gram-schmidt", passed, f"worst span residual {worst:.3e}",
        {"worst_gap": worst},
    )


def run_verification(
    n: int, m: int, seed: int = 0, trials: int = 20, perturb: bool = False
) -> VerificationReport:
    """Run every suite for an ``n``-attribute, ``m``-level configuration.

    Refuses configurations above ``CELL_LIMIT`` cells, and fewer than one
    trial, which would check nothing.  ``perturb=True`` injects a
    deliberate basis corruption so the orthogonality suite must fail; use
    it to prove the checker is alive.
    """
    if m ** n > CELL_LIMIT:
        raise SizeGuardError(f"{m ** n} cells exceeds the verification limit of {CELL_LIMIT}")
    if trials < 1:
        raise ArgumentError(f"need at least one trial, got {trials}")
    schema = generic_schema(n, m)
    bases = full_basis(schema)
    rng = np.random.default_rng(seed)
    suites = (
        _suite_orthogonality(schema, bases, rng, perturb),
        _suite_dimensions(schema, bases),
        _suite_expansion(schema, rng, trials),
        _suite_gm_identity(schema, rng, max(1, trials // 4)),
        _suite_spikes(schema, rng),
        _suite_gram_schmidt(schema, bases),
    )
    return VerificationReport(n, m, seed, trials, suites)
