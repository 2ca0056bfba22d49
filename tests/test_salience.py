import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import psalience as ps
from psalience.errors import ArgumentError, DomainError
from psalience.salience import subset_salience
from psalience.synthetic import (
    correlated_pair_table,
    planted_interaction_table,
    random_adjusted_table,
)


def adjusted(schema, counts):
    counts = np.asarray(counts, dtype=float)
    return ps.ContingencyTable(schema, counts, float(counts.sum()), adjusted=True)


# ------------------------------------------------------------------ psi

def test_psi_uniform_is_exactly_zero():
    for size in (4, 9, 12, 27):
        assert ps.psi(np.full(size, 3.7)).psi == 0.0


def test_psi_adjusted_spike():
    # spike after zero-adjusting [N_T, 0, 0, 0]: one cell at N_T - M_T + 1
    value = ps.psi([8 - 4 + 1, 1, 1, 1])
    assert math.isclose(value.psi, math.sqrt(3) / 2, rel_tol=1e-12)


def test_psi_small_spike_example():
    value = ps.psi([2, 1, 1, 1])
    assert math.isclose(value.psi, math.sqrt(0.75), rel_tol=1e-12)
    assert math.isclose(value.chi_magnitude, math.log(2) * math.sqrt(3) / 2, rel_tol=1e-12)
    assert math.isclose(value.log_norm, math.log(2), rel_tol=1e-12)


def test_psi_domain_errors():
    with pytest.raises(DomainError):
        ps.psi([2, 0.5, 1, 1])
    with pytest.raises(DomainError):
        ps.psi([2, 0, 1, 1])
    with pytest.raises(ArgumentError):
        ps.psi([])


def test_psi_stays_in_unit_interval(rng):
    for _ in range(50):
        values = rng.uniform(1.0, 50.0, size=16)
        assert 0.0 <= ps.psi(values).psi <= 1.0


@pytest.mark.parametrize("m_t", [4, 8, 27])
def test_psi_matches_hypercube_closed_form(m_t):
    for r in range(1, m_t + 1):
        values = np.ones(m_t)
        values[:r] = math.e ** 2
        assert abs(ps.psi(values).psi - ps.hypercube_psi(r, m_t)) < 1e-12


@given(
    entries=st.lists(st.floats(min_value=1.0, max_value=1e3), min_size=2, max_size=20),
    power=st.floats(min_value=0.3, max_value=4.0),
)
@settings(deadline=None)
def test_psi_invariant_under_common_powers(entries, power):
    # keep the log norm bounded away from zero: for all-near-1 vectors the
    # ratio itself is ill-conditioned and the comparison means nothing
    assume(max(entries) >= 2.0)
    base = ps.psi(entries).psi
    raised = ps.psi(np.asarray(entries) ** power).psi
    assert abs(base - raised) < 1e-12


# ------------------------------------------------------------ hypercube

def test_hypercube_examples():
    assert math.isclose(ps.hypercube_psi(1, 4), math.sqrt(3) / 2, rel_tol=1e-15)
    assert ps.hypercube_psi(4, 4) == 0.0
    assert math.isclose(ps.hypercube_psi(2, 8), math.sqrt(0.75), rel_tol=1e-15)


def test_hypercube_monotone_in_r():
    values = [ps.hypercube_psi(r, 16) for r in range(1, 17)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_hypercube_range_errors():
    with pytest.raises(ArgumentError):
        ps.hypercube_psi(0, 4)
    with pytest.raises(ArgumentError):
        ps.hypercube_psi(5, 4)


# ------------------------------------------------------------------ Psi

def test_Psi_uniform_table(schema33):
    table = adjusted(schema33, np.full(27, 2.0))
    for subset in [(2,), (1, 0), (2, 1, 0)]:
        assert ps.Psi(table, subset).psi == 0.0


def test_Psi_equals_psi_of_geometric_mean(rng):
    schema = ps.generic_schema(4, 2)
    table = random_adjusted_table(schema, rng)
    for subset in [(3,), (2, 0), (3, 2, 1)]:
        direct = ps.psi(np.exp(ps.geometric_mean_subtable(table, subset))).psi
        assert math.isclose(ps.Psi(table, subset).psi, direct, rel_tol=1e-12)


def test_Psi_of_pattern_constant_along_conditioning(schema32):
    pattern = np.array([9.0, 1.0, 1.0, 1.0])
    table = adjusted(schema32, np.concatenate([pattern, pattern]))
    assert math.isclose(ps.Psi(table, (1, 0)).psi, ps.psi(pattern).psi, rel_tol=1e-12)


def test_Psi_invariant_under_conditioning_value_permutation(rng):
    schema = ps.generic_schema(3, 3)
    table = random_adjusted_table(schema, rng)
    # permute the levels of conditioning attribute 2 (axis 0)
    permuted_counts = table.reshaped()[[2, 0, 1], :, :].ravel()
    permuted = adjusted(schema, permuted_counts)
    assert math.isclose(ps.Psi(table, (1, 0)).psi, ps.Psi(permuted, (1, 0)).psi, rel_tol=1e-12)


def test_Psi_argument_checks(schema32, rng):
    table = random_adjusted_table(schema32, rng)
    with pytest.raises(ArgumentError):
        ps.Psi(table, ())
    with pytest.raises(ArgumentError, match="subset must be non-empty"):
        ps.psi_histogram(table, ())


# ----------------------------------------------------------------- scan

def test_scan_uniform_ranks_by_enumeration_order(schema33):
    table = adjusted(schema33, np.full(27, 2.0))
    report = ps.scan(table, 2)
    assert [e.subset for e in report.entries] == ps.enumerate_subsets(3, 2)
    assert [e.rank for e in report.entries] == [1, 2, 3]
    assert all(e.salience.psi == 0.0 for e in report.entries)


def test_scan_planted_pair_ranks_first():
    schema = ps.generic_schema(5, 3)
    table = planted_interaction_table(schema, (3, 1), strength=4.0)
    report = ps.scan(table, 2)
    top = min(report.entries, key=lambda e: e.rank)
    assert top.subset == (3, 1)
    others = [e.salience.psi for e in report.entries if e.subset != (3, 1)]
    assert top.salience.psi > 0.5
    assert max(others) < 1e-9


def test_scan_subset_count_n7_k2(rng):
    schema = ps.generic_schema(7, 3)
    table = random_adjusted_table(schema, rng, n_total=50_000)
    report = ps.scan(table, 2)
    assert len(report.entries) == 21


def test_scan_workers_produce_identical_output(rng):
    schema = ps.generic_schema(5, 2)
    table = random_adjusted_table(schema, rng)
    serial = ps.scan(table, 2)
    threaded = ps.scan(table, 2, workers=4)
    assert [e.subset for e in serial.entries] == [e.subset for e in threaded.entries]
    assert [e.rank for e in serial.entries] == [e.rank for e in threaded.entries]
    assert [e.salience.psi for e in serial.entries] == [e.salience.psi for e in threaded.entries]


def test_scan_k_out_of_range(schema32, rng):
    table = random_adjusted_table(schema32, rng)
    for k in (0, 3, 4):
        with pytest.raises(ArgumentError):
            ps.scan(table, k)


@pytest.mark.parametrize("bad", [1.5, 1.0, True, "1"])
def test_scan_size_must_be_an_integer(schema32, rng, bad):
    table = random_adjusted_table(schema32, rng)
    with pytest.raises(ArgumentError, match="subset size k must be an integer"):
        ps.scan(table, bad)
    assert ps.scan(table, np.int64(1)) == ps.scan(table, 1)


def test_scan_tie_break_is_deterministic(schema33):
    table = adjusted(schema33, np.full(27, 5.0))
    first = ps.scan(table, 1)
    second = ps.scan(table, 1)
    assert [e.rank for e in first.entries] == [e.rank for e in second.entries] == [1, 2, 3]


def test_scan_builds_subset_keys_only_for_its_size(rng, monkeypatch):
    table = random_adjusted_table(ps.generic_schema(6, 2), rng)
    expected = ps.scan(table, 2)

    def refuse(n):
        raise AssertionError("scan must not build every subset key")

    monkeypatch.setattr(ps.basis, "all_subsets", refuse)
    report = ps.scan(table, 2)
    assert report == expected
    assert [e.subset for e in report.entries] == ps.enumerate_subsets(6, 2)


def _entries_from_the_spectrum(table, k):
    """Scan entries built one record per subset, as scan built them before it
    returned arrays: keys from marked_subsets, values from the salience
    spectrum, ranks by a stable sort on descending Psi."""
    n = table.schema.n_attributes
    index, subsets = ps.basis.marked_subsets(ps.basis.subset_sizes(n) == k)
    psi_k, chi, norm = (a[index].tolist() for a in subset_salience(ps.log_transform(table)))
    ranks = [0] * len(subsets)
    for rank, i in enumerate(sorted(range(len(subsets)), key=lambda i: -psi_k[i]), start=1):
        ranks[i] = rank
    return tuple(ps.ScanEntry(s, ps.SalienceValue(p, c, v), r)
                 for s, p, c, v, r in zip(subsets, psi_k, chi, norm, ranks))


@pytest.mark.parametrize("n, m", [(3, 2), (6, 3), (12, 2)])
def test_scan_entries_view_equals_per_subset_records(n, m):
    table = random_adjusted_table(ps.generic_schema(n, m), np.random.default_rng(n * m))
    for k in range(1, n):
        entries = ps.scan(table, k).entries
        expected = _entries_from_the_spectrum(table, k)
        assert entries == expected, k
        for entry in entries:
            assert type(entry) is ps.ScanEntry and type(entry.salience) is ps.SalienceValue
            assert type(entry.subset) is tuple and type(entry.rank) is int
            assert all(type(a) is int for a in entry.subset)
            assert all(type(v) is float for v in entry.salience)


@pytest.mark.parametrize("n, m, k", [(3, 2, 1), (6, 3, 2), (12, 2, 6)])
def test_scan_report_holds_read_only_arrays(n, m, k):
    table = random_adjusted_table(ps.generic_schema(n, m), np.random.default_rng(5))
    report = ps.scan(table, k)
    assert not isinstance(report, tuple) and report.k == k
    size = math.comb(n, k)
    assert np.array_equal(report.index, [ps.basis.subset_index(s) for s in ps.enumerate_subsets(n, k)])
    assert sorted(report.rank.tolist()) == list(range(1, size + 1))
    for name, kind in (("index", "i"), ("psi", "f"), ("chi_magnitude", "f"),
                       ("log_norm", "f"), ("rank", "i")):
        array = getattr(report, name)
        assert type(array) is np.ndarray and array.shape == (size,), name
        assert array.dtype.kind == kind and array.dtype.itemsize == 8, name
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[0] = 0
    assert report.entries is not report.entries  # built afresh on each read
    with pytest.raises(TypeError):
        hash(report)


# ------------------------------------------------------------ histograms

def test_histogram_uniform_all_zero(schema33):
    table = adjusted(schema33, np.full(27, 2.0))
    histogram = ps.psi_histogram(table, (2, 0))
    assert len(histogram) == 3
    assert all(value == 0.0 for _, value in histogram)
    assert [combo for combo, _ in histogram] == [(0,), (1,), (2,)]


def test_histogram_entry_count(rng):
    schema = ps.generic_schema(4, 3)
    table = random_adjusted_table(schema, rng)
    assert len(ps.psi_histogram(table, (3, 1))) == 9


def test_histogram_spiked_slice():
    schema = ps.generic_schema(3, 3)
    counts = np.ones(27)
    # spike one cell of the conditional subtable at conditioning a1 = 2
    counts[np.ravel_multi_index((0, 2, 0), (3,) * 3)] = 40.0
    table = adjusted(schema, counts)
    histogram = ps.psi_histogram(table, (2, 0))
    expected = math.sqrt(1 - 1 / 9)
    values = dict(histogram)
    assert math.isclose(values[(2,)], expected, rel_tol=1e-12)
    assert all(v == 0.0 for combo, v in histogram if combo != (2,))


def test_histogram_conditioning_order_is_lexicographic(rng):
    schema = ps.generic_schema(4, 2)
    table = random_adjusted_table(schema, rng)
    combos = [combo for combo, _ in ps.psi_histogram(table, (2,))]
    assert combos == list(itertools.product(range(2), repeat=3))


@pytest.mark.parametrize("subset", [(3,), (2, 0), (3, 1), (3, 2, 0)])
def test_histogram_rows_are_conditional_subtables(rng, subset):
    table = random_adjusted_table(ps.generic_schema(4, 3), rng)
    for combo, value in ps.psi_histogram(table, subset):
        assert value == ps.psi(ps.conditional_subtable(table, subset, combo)[0]).psi


@pytest.mark.parametrize("subset", [(3,), (2, 0), (3, 2, 0)])
def test_analyses_of_a_log_table_equal_those_of_its_table(rng, subset):
    table = random_adjusted_table(ps.generic_schema(4, 3), rng)
    logs = ps.log_transform(table)
    assert ps.psi_histogram(logs, subset) == ps.psi_histogram(table, subset)
    assert np.array_equal(ps.geometric_mean_subtable(logs, subset), ps.geometric_mean_subtable(table, subset))


def test_histogram_scores_every_row_without_calling_psi(rng, monkeypatch):
    table = random_adjusted_table(ps.generic_schema(5, 3), rng)
    expected = ps.psi_histogram(table, (3, 1))

    def refuse(values):
        raise AssertionError("psi_histogram scored a row through psi")

    monkeypatch.setattr(ps.salience, "psi", refuse)
    assert ps.psi_histogram(table, (3, 1)) == expected


@pytest.mark.parametrize("subset", [(3, 1), (7,), (7, 6), (5, 2, 0)])
def test_histogram_of_constant_and_near_uniform_rows(rng, subset):
    schema = ps.generic_schema(8, 3)
    counts = rng.uniform(1.0, 30.0, schema.n_cells)
    combos = list(itertools.product(range(3), repeat=8 - len(subset)))
    layout = adjusted(schema, counts)  # a copy, read only for its cell ranks
    for i, combo in enumerate(combos):
        _, cells = ps.conditional_subtable(layout, subset, combo)
        if i % 3 == 0:
            counts[cells] = 4.2
        elif i % 3 == 1:
            counts[cells] = 5.0
            counts[cells[i % cells.size]] *= 1 + 1e-6
    table = adjusted(schema, counts)
    histogram = ps.psi_histogram(table, subset)
    assert [combo for combo, _ in histogram] == combos
    for i, (combo, value) in enumerate(histogram):
        assert value == ps.psi(ps.conditional_subtable(table, subset, combo)[0]).psi
        if i % 3 == 0:
            assert value == 0.0
        else:
            assert value > 0.0


# -------------------------------------------------- diagonal association

def test_correlated_pair_reaches_its_closed_form():
    schema = ps.generic_schema(4, 3)
    table = correlated_pair_table(schema, (2, 0), weight=60.0)
    value = ps.Psi(table, (2, 0)).psi
    assert math.isclose(value, math.sqrt(1 - 1 / 3), rel_tol=1e-12)
    assert ps.Psi(table, (3, 1)).psi < 1e-12


@pytest.mark.parametrize("make, message", [
    (lambda schema: random_adjusted_table(schema, np.random.default_rng(0), n_total=8),
     "n_total must exceed the cell count"),
    (lambda schema: planted_interaction_table(schema, ()), "plant a non-empty subset"),
    (lambda schema: planted_interaction_table(schema, (1,), strength=0.0), "strength must be positive"),
    (lambda schema: correlated_pair_table(schema, (2, 1, 0)), "need exactly two attributes"),
    (lambda schema: correlated_pair_table(schema, (1, 0), weight=1.0), "weight must exceed 1"),
], ids=["n_total", "plant-empty", "strength", "pair-size", "weight"])
def test_synthetic_tables_refuse_arguments_outside_their_range(schema32, make, message):
    with pytest.raises(ArgumentError, match=message):
        make(schema32)


# ------------------------------------------------- spectrum against Psi

def assert_matches_Psi(entry, table, rel_tol):
    reference = ps.Psi(table, entry.subset)
    for got, want in zip(
        (entry.salience.psi, entry.salience.chi_magnitude, entry.salience.log_norm),
        (reference.psi, reference.chi_magnitude, reference.log_norm),
    ):
        assert math.isclose(got, want, rel_tol=rel_tol, abs_tol=rel_tol), (entry, reference)


@pytest.mark.parametrize("n, m", [(2, 2), (3, 3), (4, 4), (5, 2), (3, 5), (6, 3), (12, 2), (10, 3)])
def test_scan_matches_geometric_mean_Psi_at_every_k(rng, n, m):
    table = random_adjusted_table(ps.generic_schema(n, m), rng)
    for k in range(1, n):
        for entry in ps.scan(table, k).entries:
            assert_matches_Psi(entry, table, 1e-12)


@pytest.mark.parametrize("n, m", [(6, 3), (8, 3), (12, 2)])
def test_scan_keeps_the_score_of_a_near_uniform_table(n, m):
    # every score here is about 1e-7; a form that subtracts the constant
    # energy from a total over all subsets cancels it away to 0.0
    counts = np.full(m ** n, 5.0)
    counts[7] *= 1 + 1e-6
    table = adjusted(ps.generic_schema(n, m), counts)
    for k in range(1, n):
        for entry in ps.scan(table, k).entries:
            reference = ps.Psi(table, entry.subset).psi
            assert reference > 0.0
            assert math.isclose(entry.salience.psi, reference, rel_tol=1e-5), entry


@pytest.mark.parametrize("n, m", [(6, 3), (8, 3), (5, 5), (12, 2)])
def test_spectrum_is_as_accurate_as_the_literal_Psi_near_uniformity(n, m):
    """Two cells of an all-5 table scaled by 1+eps and 1+3eps.  Transformed
    uncentred, the spectrum's coefficients differenced logs near log 5, and its
    worst relative gap to the literal Psi reached 7.9e-3 at (6,3), eps = 1e-12."""
    index, subsets = ps.basis.marked_subsets(ps.basis.subset_sizes(n) > 0)
    for eps in (1e-6, 1e-9, 1e-12):
        counts = np.full(m ** n, 5.0)
        counts[3] *= 1 + eps
        counts[m ** n - 2] *= 1 + 3 * eps
        logs = ps.log_transform(adjusted(ps.generic_schema(n, m), counts))
        spectrum = subset_salience(logs)[0][index]
        literal = np.array([ps.Psi(logs, subset).psi for subset in subsets])
        assert literal.min() > 0.0
        gap = np.abs(spectrum - literal) / literal
        assert gap.max() <= 1e-12, (eps, subsets[int(gap.argmax())], gap.max())


@pytest.mark.parametrize("n, m", [(2, 2), (4, 3), (8, 3), (12, 2)])
def test_scan_of_a_constant_table_is_exactly_zero_at_every_k(n, m):
    table = adjusted(ps.generic_schema(n, m), np.full(m ** n, 3.7))
    for k in range(1, n):
        assert all(e.salience.psi == 0.0 for e in ps.scan(table, k).entries), k


def test_scan_rejects_an_unadjusted_table(schema32):
    raw = ps.ContingencyTable(schema32, np.full(8, 2.0), 16.0)
    with pytest.raises(DomainError):
        ps.scan(raw, 1)


def test_subset_salience_peak_memory_is_a_few_tables(rng):
    # at M=2 every 2**N lattice vector is as large as the table itself
    log_table = ps.log_transform(random_adjusted_table(ps.generic_schema(18, 2), rng))
    tracemalloc.start()
    try:
        psi, chi, norm = subset_salience(log_table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * log_table.values.nbytes, f"peak {peak / log_table.values.nbytes:.2f} tables"
    assert psi.shape == chi.shape == norm.shape == (2**18,)
