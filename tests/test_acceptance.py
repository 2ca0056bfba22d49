"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single ``ACCEPTANCE n: PASS`` line after its
assertions, so a verbose run shows one pass/fail line per criterion.
"""

import itertools
import json
import math
import time

import numpy as np

import psalience as ps
from psalience.basis import subset_index
from psalience.cli import main
from psalience.fileio import save_table
from psalience.synthetic import planted_interaction_table, random_adjusted_table

from oracles import closed_form_all_zero, closed_form_zero_one, literal_pair_column


def test_criterion_1_basis_orthogonality_and_dimensions():
    started = time.perf_counter()
    for n, m in itertools.product((2, 3, 4), (2, 3)):
        schema = ps.generic_schema(n, m)
        matrix, lattice = ps.full_basis(schema)
        total = 0
        for subset in ps.all_subsets(n):
            dimension = int(np.count_nonzero(lattice == subset_index(subset)))
            assert dimension == (m - 1) ** len(subset)
            total += dimension
        assert total == m ** n
        stacked = matrix / np.linalg.norm(matrix, axis=0)
        gram = stacked.T @ stacked
        worst = np.abs(gram - np.eye(total)).max()
        assert worst < 1e-9, (n, m, worst)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"basis checks took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1: PASS (orthogonality and dimensions, {elapsed:.2f}s)")


def test_criterion_2_closed_form_columns_lie_in_their_subspaces():
    # the printed pair pattern at M=2 equals 0.25 * [1, -1, -1, 1]
    assert np.allclose(literal_pair_column(2, 2, 1, 0), 0.25 * np.array([1, -1, -1, 1]))
    worst = 0.0
    for n, m in itertools.product((2, 3, 4), (2, 3)):
        schema = ps.generic_schema(n, m)
        for k in range(1, n + 1):
            for subset in ps.enumerate_subsets(n, k):
                basis = ps.subspace_basis(subset, schema)
                vectors = [closed_form_all_zero(subset, n, m)]
                if k == 2:
                    vectors.append(literal_pair_column(n, m, subset[0], subset[1]))
                if m >= 3:
                    vectors.append(closed_form_zero_one(subset, n, m))
                for vector in vectors:
                    coef = (basis.T @ vector) / np.einsum("ij,ij->j", basis, basis)
                    residual = vector - basis @ coef
                    ratio = np.linalg.norm(residual) / np.linalg.norm(vector)
                    worst = max(worst, ratio)
                    assert ratio < 1e-9, (n, m, subset)
    print(f"\nACCEPTANCE 2: PASS (closed forms in generated subspaces, worst residual {worst:.2e})")


def test_criterion_3_expansion_identity_on_100_tables():
    rng = np.random.default_rng(20260810)
    grid = [(n, m) for m in (2, 3) for n in (2, 3, 4, 5)]
    worst_round_trip = 0.0
    worst_parseval = 0.0
    for i in range(100):
        n, m = grid[i % len(grid)]
        schema = ps.generic_schema(n, m)
        table = random_adjusted_table(schema, rng)
        log_table = ps.log_transform(table)
        rebuilt = ps.reconstruct(ps.fit_beta(log_table), schema)
        worst_round_trip = max(
            worst_round_trip, float(np.abs(rebuilt.values - log_table.values).max())
        )
        total = sum(
            np.linalg.norm(ps.project_subset(log_table, s)) ** 2 for s in ps.all_subsets(n)
        )
        norm_sq = float(log_table.values @ log_table.values)
        worst_parseval = max(worst_parseval, abs(total - norm_sq) / norm_sq)
    assert worst_round_trip < 1e-9
    assert worst_parseval < 1e-9
    print(
        f"\nACCEPTANCE 3: PASS (100 tables, round-trip {worst_round_trip:.2e}, "
        f"energy mismatch {worst_parseval:.2e})"
    )


def test_criterion_4_projection_transfer_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for n, m in itertools.product((3, 4, 5), (2, 3)):
        schema = ps.generic_schema(n, m)
        for _ in range(100):
            table = random_adjusted_table(schema, rng)
            for k0 in range(1, n):
                for outer in ps.enumerate_subsets(n, k0):
                    for size in range(1, k0 + 1):
                        for inner in itertools.combinations(outer, size):
                            lhs, rhs = ps.gm_projection_identity(table, outer, inner)
                            gap = abs(lhs - rhs) / max(lhs, rhs, 1e-12)
                            worst = max(worst, gap)
                            assert gap < 1e-9, (n, m, outer, inner)
                    lhs, rhs = ps.gm_projection_total_identity(table, outer)
                    gap = abs(lhs - rhs) / max(lhs, rhs, 1e-12)
                    worst = max(worst, gap)
                    assert gap < 1e-9, (n, m, outer, "total")
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"projection-transfer sweep took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 4: PASS (600 tables, all subset pairs, worst gap {worst:.2e}, "
        f"{elapsed:.1f}s)"
    )


def test_criterion_5_salience_analytics():
    for size in (4, 9, 12, 27):
        assert ps.psi(np.full(size, 2.5)).psi == 0.0

    worst_spike = 0.0
    for m_t in (4, 12, 27):
        for r in range(1, m_t + 1):
            values = np.ones(m_t)
            values[:r] = math.e ** 1.25
            gap = abs(ps.psi(values).psi - math.sqrt(1.0 - r / m_t))
            worst_spike = max(worst_spike, gap)
            assert gap < 1e-12, (m_t, r)

    rng = np.random.default_rng(5)
    worst_power = 0.0
    for _ in range(25):
        values = rng.uniform(1.0, 40.0, size=18)
        base = ps.psi(values).psi
        for power in (0.5, 2.0, 3.0, 7.3):
            gap = abs(ps.psi(values ** power).psi - base)
            worst_power = max(worst_power, gap)
            assert gap < 1e-12
    print(
        f"\nACCEPTANCE 5: PASS (uniform exact zero, spikes {worst_spike:.2e}, "
        f"power invariance {worst_power:.2e})"
    )


def test_criterion_6_depersonalisation_contract():
    rng = np.random.default_rng(99)
    for n, m in [(4, 2), (3, 3)]:
        schema = ps.generic_schema(n, m)
        _, lattice = ps.full_basis(schema)
        for _ in range(10):
            table = random_adjusted_table(schema, rng)
            for k_dagger in range(1, n):
                spec = ps.LimitSpec("order_limit", k_dagger=k_dagger, renormalize=False)
                released, audit = ps.interaction_limit(table, spec)

                refit = ps.fit_beta(ps.LogTable(schema, np.log(released.counts))).ravel()
                for subset in ps.all_subsets(n):
                    if len(subset) > k_dagger:
                        block = refit[lattice == subset_index(subset)]
                        assert np.linalg.norm(block) <= 1e-9, (subset, k_dagger)

                assert audit.violations == ()
                for entry in audit.entries:
                    if len(entry.subset) <= k_dagger:
                        assert abs(entry.psi_after - entry.psi_before) <= 1e-9, (entry, k_dagger)
                    else:
                        assert entry.psi_after <= entry.psi_before + 1e-9, (entry, k_dagger)
    print("\nACCEPTANCE 6: PASS (refit-zero blocks, salience non-increase/invariance)")


def test_criterion_7_desk_scale_scan_performance():
    schema = ps.generic_schema(7, 3)
    table = random_adjusted_table(schema, np.random.default_rng(7), n_total=60_000)

    started = time.perf_counter()
    serial = ps.scan(table, 2)
    serial_s = time.perf_counter() - started
    assert len(serial.entries) == 21
    assert serial_s < 10.0, f"single-threaded scan took {serial_s:.2f}s"

    started = time.perf_counter()
    threaded = ps.scan(table, 2, workers=4)
    threaded_s = time.perf_counter() - started
    assert threaded_s < 3.0, f"4-worker scan took {threaded_s:.2f}s"

    assert [e.subset for e in serial.entries] == [e.subset for e in threaded.entries]
    assert [e.rank for e in serial.entries] == [e.rank for e in threaded.entries]
    assert [e.salience.psi for e in serial.entries] == [e.salience.psi for e in threaded.entries]
    print(
        f"\nACCEPTANCE 7: PASS (N=7 M=3 pairwise scan: {serial_s * 1000:.0f}ms serial, "
        f"{threaded_s * 1000:.0f}ms with 4 workers, identical output)"
    )


def test_criterion_8_planted_structure_detection(tmp_path):
    schema = ps.generic_schema(5, 3)
    planted = (3, 1)
    table = planted_interaction_table(schema, planted, strength=4.0)
    table_path = tmp_path / "planted.json"
    save_table(table_path, table)
    out = tmp_path / "report.json"
    assert main(["scan", "--table", str(table_path), "--k", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())

    ranked = sorted(report["entries"], key=lambda e: e["rank"])
    assert tuple(ranked[0]["subset"]) == planted
    top, runner_up = ranked[0]["Psi"], ranked[1]["Psi"]
    assert top >= 2.0 * runner_up
    assert top > 0.5

    # the report must agree with direct subset scoring
    for entry in report["entries"]:
        oracle = ps.Psi(table, tuple(entry["subset"])).psi
        assert abs(entry["Psi"] - oracle) <= 1e-9 * max(oracle, 1.0)
    oracle_top = ps.Psi(table, planted).psi
    oracle_runner_up = max(
        ps.Psi(table, tuple(e["subset"])).psi for e in report["entries"] if tuple(e["subset"]) != planted
    )
    assert oracle_top >= 2.0 * oracle_runner_up
    print(
        f"\nACCEPTANCE 8: PASS (planted pair ranked first, Psi {top:.3f} vs "
        f"runner-up {runner_up:.2e})"
    )
