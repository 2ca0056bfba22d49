import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import axis_mean_psi

import psalience as ps
from psalience.basis import marked_subsets, subset_index
from psalience.depersonalize import _round_preserving_total, _zero_set
from psalience.errors import ArgumentError, DomainError
from psalience.salience import subset_salience
from psalience.synthetic import correlated_pair_table, random_adjusted_table


def order_spec(k, **kw):
    return ps.LimitSpec("order_limit", k_dagger=k, **kw)


# ------------------------------------------------------------ order limit

def test_full_order_limit_is_identity(rng):
    # nothing is zeroed, so the release is the transform's round trip, renormalised or not:
    # each count moves by rounding alone (at most 4.0e-15 relative over sizes up to N=16)
    for n, m in [(1, 3), (2, 2), (3, 3), (5, 2), (4, 3), (7, 5), (12, 2)]:
        table = random_adjusted_table(ps.generic_schema(n, m), rng)
        for renormalize in (True, False):
            released, audit = ps.interaction_limit(table, order_spec(n, renormalize=renormalize))
            assert np.all(np.abs(released.counts - table.counts) <= 1e-12 * table.counts), (n, m)
            assert audit.zeroed_blocks == ()
            assert all(abs(entry.psi_after - entry.psi_before) < 1e-9 for entry in audit.entries)
            assert audit.violations == ()


@pytest.mark.parametrize("n, m", [(4, 7), (5, 5), (6, 3), (12, 2)])
def test_release_of_a_constant_table_is_exactly_constant(n, m):
    schema = ps.generic_schema(n, m)
    table = ps.ContingencyTable(schema, np.full(schema.n_cells, 1234.5), 1234.5 * schema.n_cells, adjusted=True)
    released, audit = ps.interaction_limit(table, order_spec(1))
    assert np.ptp(released.counts) == 0.0
    assert audit.refit_residual == 0.0 and not audit.psi_after.any()
    assert not ps.fit_beta(ps.LogTable(schema, np.log(released.counts))).ravel()[1:].any()


def test_a_release_makes_five_full_size_modewise_passes_and_a_scan_two(monkeypatch, rng):
    # a release fits once for its zeroing and its before-spectrum, inverts, and the
    # after-spectrum transforms the released logs afresh; each spectrum pools once
    from psalience import fitting

    sizes = []
    modewise = fitting._modewise

    def counted(values, factors):
        sizes.append(values.size)
        return modewise(values, factors)

    monkeypatch.setattr(fitting, "_modewise", counted)
    table = random_adjusted_table(ps.generic_schema(6, 3), rng)
    ps.interaction_limit(table, order_spec(2))
    assert sizes == [table.counts.size] * 5
    sizes.clear()
    ps.scan(table, 2)
    assert sizes == [table.counts.size] * 2


def test_uniform_table_unchanged(schema33):
    table = ps.ContingencyTable(schema33, np.full(27, 3.0), 81.0, adjusted=True)
    for k in (1, 2):
        released, audit = ps.interaction_limit(table, order_spec(k))
        assert np.abs(released.counts - 3.0).max() < 1e-9
        assert audit.violations == ()


def test_refit_blocks_are_zero_after_limiting(rng):
    schema = ps.generic_schema(4, 2)
    table = random_adjusted_table(schema, rng)
    _, lattice = ps.full_basis(schema)
    for renormalize in (False, True):
        released, _ = ps.interaction_limit(table, order_spec(1, renormalize=renormalize))
        refit = ps.fit_beta(ps.LogTable(schema, np.log(released.counts))).ravel()
        for subset in ps.all_subsets(4):
            if len(subset) > 1:
                assert np.linalg.norm(refit[lattice == subset_index(subset)]) <= 1e-9, subset


@pytest.mark.parametrize("n, m", [(4, 2), (3, 3), (6, 3)])
def test_clean_releases_report_a_refit_residual_within_the_bound(n, m):
    for seed in range(3):
        table = random_adjusted_table(ps.generic_schema(n, m), np.random.default_rng(seed))
        for k in range(1, n):
            for round_counts in (False, True):  # the audit reads the un-rounded reconstruction
                audit = ps.interaction_limit(table, order_spec(k, round_counts=round_counts))[1]
                assert 0.0 <= audit.refit_residual <= ps.depersonalize.REFIT_TOL, (seed, k)
        # nothing zeroed: the residual sums no energy at all
        assert ps.interaction_limit(table, order_spec(n))[1].refit_residual == 0.0
        selective = ps.LimitSpec("selective", zero_subsets=[(1, 0)])
        assert ps.selective_zero(table, selective)[1].refit_residual <= ps.depersonalize.REFIT_TOL


def test_an_audit_without_its_zero_set_reports_no_refit_residual(rng):
    table = random_adjusted_table(ps.generic_schema(3, 3), rng)
    released, _ = ps.interaction_limit(table, order_spec(1))
    assert ps.audit(table, released).refit_residual is None
    assert ps.audit(table, released, zeroed_blocks=[(1, 0), (2, 0), (2, 1)]).refit_residual <= 1e-9


def test_limit_is_idempotent_without_renormalisation(rng):
    schema = ps.generic_schema(3, 3)
    table = random_adjusted_table(schema, rng)
    once, _ = ps.interaction_limit(table, order_spec(1, renormalize=False))
    if once.counts.min() < 1.0:
        pytest.skip("reconstruction dipped below 1; cannot re-limit through the public API")
    twice, _ = ps.interaction_limit(once, order_spec(1, renormalize=False))
    assert np.abs(once.counts - twice.counts).max() < 1e-9


def test_salience_contract_by_size(rng):
    schema = ps.generic_schema(4, 2)
    for _ in range(5):
        table = random_adjusted_table(schema, rng)
        for k_dagger in (1, 2, 3):
            _, audit = ps.interaction_limit(table, order_spec(k_dagger, renormalize=False))
            assert audit.violations == ()
            for entry in audit.entries:
                if len(entry.subset) <= k_dagger:
                    assert abs(entry.psi_after - entry.psi_before) <= 1e-9, entry
                else:
                    assert entry.psi_after <= entry.psi_before + 1e-9, entry


def test_audit_psi_before_matches_public_Psi(rng):
    schema = ps.generic_schema(3, 3)
    table = random_adjusted_table(schema, rng)
    _, audit = ps.interaction_limit(table, order_spec(2))
    for entry in audit.entries:
        assert math.isclose(
            entry.psi_before, ps.Psi(table, entry.subset).psi, rel_tol=1e-12, abs_tol=1e-12
        )


def test_renormalised_release_sums_to_original_total(rng):
    schema = ps.generic_schema(4, 2)
    table = random_adjusted_table(schema, rng)
    released, _ = ps.interaction_limit(table, order_spec(1, renormalize=True))
    assert math.isclose(released.counts.sum(), table.n_total, rel_tol=1e-9)
    assert released.n_total == table.n_total


def test_rounded_release_has_integer_counts_and_exact_total(rng):
    schema = ps.generic_schema(3, 2)
    table = random_adjusted_table(schema, rng, n_total=971)
    released, _ = ps.interaction_limit(
        table, order_spec(1, renormalize=True, round_counts=True)
    )
    assert np.array_equal(released.counts, np.rint(released.counts))
    assert released.counts.sum() == 971


def test_rounding_refuses_totals_float64_cannot_sum_exactly(monkeypatch, rng):
    schema = ps.generic_schema(3, 3)
    at_limit = random_adjusted_table(schema, rng, n_total=2 ** 53)
    released, _ = ps.interaction_limit(at_limit, order_spec(1, round_counts=True))
    assert released.counts.sum() == 2 ** 53 and np.array_equal(released.counts, np.rint(released.counts))
    above = random_adjusted_table(schema, rng, n_total=6 * 10 ** 17)
    with monkeypatch.context() as patch:
        patch.setattr(ps.depersonalize, "_coefficients", None)  # refused before any transform
        with pytest.raises(DomainError, match=r"total of 600000000000000000: totals above 2\*\*53"):
            ps.interaction_limit(above, order_spec(1, round_counts=True))
    with pytest.raises(DomainError, match=r"above 2\*\*53"):
        ps.interaction_limit(above, order_spec(1, renormalize=False, round_counts=True))
    assert ps.interaction_limit(above, order_spec(1))[0].n_total == above.n_total


def test_k_dagger_out_of_range(rng, schema32):
    table = random_adjusted_table(schema32, rng)
    for bad in (0, 4):
        with pytest.raises(ArgumentError):
            ps.interaction_limit(table, order_spec(bad))


@pytest.mark.parametrize("bad", [2.7, True, "2"])
def test_k_dagger_must_be_an_integer(rng, schema32, bad):
    table = random_adjusted_table(schema32, rng)
    with pytest.raises(ArgumentError, match="must be an integer"):
        ps.interaction_limit(table, order_spec(bad))
    numpy_k, int_k = (ps.interaction_limit(table, order_spec(k))[1] for k in (np.int64(2), 2))
    assert numpy_k == int_k


def test_requires_adjusted_table(schema22):
    raw = ps.ContingencyTable(schema22, [5, 1, 1, 1], 8)
    with pytest.raises(DomainError):
        ps.interaction_limit(raw, order_spec(1))


def test_wrong_spec_mode(rng, schema32):
    table = random_adjusted_table(schema32, rng)
    spec = ps.LimitSpec("selective", zero_subsets=((1, 0),))
    with pytest.raises(ArgumentError):
        ps.interaction_limit(table, spec)
    with pytest.raises(ArgumentError):
        ps.selective_zero(table, order_spec(1))


# -------------------------------------------------------- selective zero

def upward_closure(seeds, n):
    """The zero set of ``seeds`` as subset keys, in enumeration order."""
    return marked_subsets(_zero_set(seeds, n))[1]


def test_upward_closure_example():
    assert upward_closure([(1, 0)], 3) == ((1, 0), (2, 1, 0))


def test_upward_closure_is_closed():
    closed = upward_closure([(2,), (1, 0)], 4)
    closed_sets = [set(s) for s in closed]
    for subset in closed:
        for other in ps.all_subsets(4):
            if set(subset) <= set(other) and other != ():
                assert set(other) in closed_sets


def brute_force_closure(seeds, n):
    return tuple(
        s for s in ps.all_subsets(n)[1:] if any(set(seed) <= set(s) for seed in seeds)
    )


def test_upward_closure_matches_brute_force(rng):
    for n in range(1, 7):
        candidates = ps.all_subsets(n)[1:]
        for _ in range(20):
            picks = rng.choice(len(candidates), size=rng.integers(1, 4), replace=True)
            seeds = [candidates[i] for i in picks]
            assert upward_closure(seeds, n) == brute_force_closure(seeds, n), seeds


def test_selective_zero_applies_closure(rng, schema32):
    table = random_adjusted_table(schema32, rng)
    spec = ps.LimitSpec("selective", zero_subsets=((1, 0),), renormalize=False)
    released, audit = ps.selective_zero(table, spec)
    assert audit.zeroed_blocks == ((1, 0), (2, 1, 0))
    refit = ps.fit_beta(ps.LogTable(schema32, np.log(released.counts))).ravel()
    _, lattice = ps.full_basis(schema32)
    assert np.linalg.norm(refit[lattice == subset_index((1, 0))]) <= 1e-9
    assert np.linalg.norm(refit[lattice == subset_index((2, 1, 0))]) <= 1e-9
    assert np.linalg.norm(refit[lattice == subset_index((2, 0))]) > 1e-6  # untouched on a random table


def test_zeroing_all_pairs_equals_order_limit(rng):
    schema = ps.generic_schema(3, 3)
    table = random_adjusted_table(schema, rng)
    pairs = tuple(ps.enumerate_subsets(3, 2))
    selective, _ = ps.selective_zero(
        table, ps.LimitSpec("selective", zero_subsets=pairs, renormalize=False)
    )
    limited, _ = ps.interaction_limit(table, order_spec(1, renormalize=False))
    assert np.abs(selective.counts - limited.counts).max() < 1e-9


def test_selective_contract_on_affected_subsets(rng):
    schema = ps.generic_schema(4, 2)
    table = random_adjusted_table(schema, rng)
    spec = ps.LimitSpec("selective", zero_subsets=((2, 1),), renormalize=False)
    _, audit = ps.selective_zero(table, spec)
    assert audit.violations == ()
    for entry in audit.entries:
        if {2, 1} <= set(entry.subset):
            assert entry.psi_after <= entry.psi_before + 1e-9
        else:
            assert abs(entry.psi_after - entry.psi_before) <= 1e-9


def test_spec_validation():
    with pytest.raises(ArgumentError):
        ps.LimitSpec("order_limit")
    with pytest.raises(ArgumentError):
        ps.LimitSpec("selective", zero_subsets=())
    with pytest.raises(ArgumentError):
        ps.LimitSpec("selective", zero_subsets=((),))
    with pytest.raises(ArgumentError):
        ps.LimitSpec("unknown", k_dagger=1)
    for zero_subsets in ([(1, 0)], ()):  # a mode refuses the other mode's field
        with pytest.raises(ArgumentError, match="takes no zero_subsets"):
            ps.LimitSpec("order_limit", k_dagger=2, zero_subsets=zero_subsets)
    for k_dagger in (1, 0):
        with pytest.raises(ArgumentError, match="takes no k_dagger"):
            ps.LimitSpec("selective", k_dagger=k_dagger, zero_subsets=[(1, 0)])


@pytest.mark.parametrize("zero_subsets, message", [
    ([1, 0], "zero_subsets must be a sequence of attribute-index sequences"),
    (5, "zero_subsets must be a sequence of attribute-index sequences"),
    ([(1.7, 0)], "attribute index must be an integer, got 1.7"),
    ([(True, 0)], "attribute index must be an integer, got True"),
])
def test_spec_reads_zero_subsets_strictly(zero_subsets, message):
    with pytest.raises(ArgumentError, match=message):
        ps.LimitSpec("selective", zero_subsets=zero_subsets)


def test_spec_reads_integers_once():
    spec = ps.LimitSpec("selective", zero_subsets=[np.array([2, 1])])
    assert spec.zero_subsets == ((2, 1),) and type(spec.zero_subsets[0][0]) is int
    assert type(order_spec(np.int64(2)).k_dagger) is int


def test_spec_reads_an_integer_array_of_subsets():
    spec = ps.LimitSpec("selective", zero_subsets=np.array([[1, 0]]))
    assert spec == ps.LimitSpec("selective", zero_subsets=[(1, 0)])
    with pytest.raises(ArgumentError, match="selective mode needs at least one subset to zero"):
        ps.LimitSpec("selective", zero_subsets=np.zeros((0, 2), int))


@pytest.mark.parametrize("flag", ["renormalize", "round_counts"])
@pytest.mark.parametrize("bad", ["false", 0, 1, None])
def test_spec_flags_must_be_booleans(flag, bad):
    with pytest.raises(ArgumentError, match=f"{flag} must be a boolean, got {bad!r}"):
        order_spec(2, **{flag: bad})
    assert order_spec(2, **{flag: np.True_}) == order_spec(2, **{flag: True})


# ----------------------------------------------------------------- audit

def test_audit_of_identical_tables(rng, schema33):
    table = random_adjusted_table(schema33, rng)
    report = ps.audit(table, table)
    assert all(entry.psi_after == entry.psi_before for entry in report.entries)
    assert report.total_drift == 0.0
    assert report.violations == ()


def test_audit_flags_salience_increase(schema33):
    flat = ps.ContingencyTable(schema33, np.full(27, 3.0), 81.0, adjusted=True)
    sharp = correlated_pair_table(schema33, (1, 0), weight=20.0)
    report = ps.audit(flat, sharp)
    assert (1, 0) in report.violations


def test_audit_classifies_with_known_zero_set(rng):
    schema = ps.generic_schema(3, 3)
    table = random_adjusted_table(schema, rng)
    released, _ = ps.interaction_limit(table, order_spec(1, renormalize=False))
    report = ps.audit(table, released, zeroed_blocks=[s for s in ps.all_subsets(3) if len(s) > 1])
    assert report.violations == ()


def test_audit_contains_zeroed_matches_brute_force(rng):
    # zero sets that are not upward closed; one holding the constant term is refused
    n = 5
    schema = ps.generic_schema(n, 2)
    table = random_adjusted_table(schema, rng)
    released, _ = ps.interaction_limit(table, order_spec(2))
    candidates = ps.all_subsets(n)
    zero_sets = [
        [candidates[i] for i in rng.choice(len(candidates) - 1, size=size, replace=False) + 1]
        for size in (1, 2, 3, 5, 8)
    ]
    with pytest.raises(ArgumentError):
        ps.audit(table, released, zeroed_blocks=[(), (3, 1)])
    for zeroed in zero_sets:
        report = ps.audit(table, released, zeroed_blocks=zeroed)
        assert [e.subset for e in report.entries] == candidates[1:]
        for entry in report.entries:
            expected = any(set(z) <= set(entry.subset) for z in zeroed)
            assert report.zeroed[subset_index(entry.subset)] == expected, (zeroed, entry)


def test_audit_reports_the_closure_of_its_zero_set(rng):
    table = random_adjusted_table(ps.generic_schema(5, 2), rng)
    released, _ = ps.interaction_limit(table, order_spec(2))
    report = ps.audit(table, released, zeroed_blocks=[(3, 1), (3, 1)])
    assert report.zeroed_blocks == upward_closure([(3, 1)], 5)
    keys = [e.subset for e in report.entries]
    assert report.zeroed_blocks == tuple(s for s in keys if report.zeroed[subset_index(s)])
    assert ps.audit(table, released).zeroed_blocks == ()


def test_audit_reads_an_integer_array_zero_set(rng):
    table = random_adjusted_table(ps.generic_schema(3, 2), rng)
    released, _ = ps.interaction_limit(table, order_spec(1))
    assert ps.audit(table, released, zeroed_blocks=np.array([[1, 0]])) == ps.audit(
        table, released, zeroed_blocks=[(1, 0)])
    assert ps.audit(table, released, zeroed_blocks=np.zeros((0, 2), int)) == ps.audit(
        table, released, zeroed_blocks=())


def test_an_empty_zero_set_is_known():
    # None leaves the zero set unknown; an empty one says nothing was zeroed, so any move is a violation
    table = random_adjusted_table(ps.generic_schema(4, 3), np.random.default_rng(1))
    released, _ = ps.interaction_limit(table, order_spec(2))
    for empty in ((), []):
        known = ps.audit(table, released, zeroed_blocks=empty)
        assert known.violations and known.refit_residual == 0.0 and known.zeroed_blocks == ()
        moved = tuple(e.subset for e in known.entries
                      if abs(e.psi_after - e.psi_before) > ps.depersonalize.PSI_DRIFT_TOL)
        assert known.violations == moved
    unknown = ps.audit(table, released)
    assert unknown.violations == () and unknown.refit_residual is None
    assert len(ps.audit(table, released, zeroed_blocks=[(3, 2, 1)]).violations) == 13


def test_a_release_walks_the_subset_lattice_once(monkeypatch, rng):
    # only when a view of its audit is read: once per read, never for the release itself
    walk = ps.depersonalize.marked_subsets
    calls = []

    def counted(mask):
        calls.append(mask.size)
        return walk(mask)

    monkeypatch.setattr(ps.depersonalize, "marked_subsets", counted)
    table = random_adjusted_table(ps.generic_schema(4, 3), rng)
    _, audit = ps.interaction_limit(table, order_spec(2))
    ps.selective_zero(table, ps.LimitSpec("selective", zero_subsets=((2, 1),)))
    assert calls == []
    for view in ("entries", "zeroed_blocks", "violations"):
        getattr(audit, view)
        assert calls == [16], view
        calls.clear()


def test_an_audit_holds_read_only_lattice_vectors(rng):
    table = random_adjusted_table(ps.generic_schema(4, 3), rng)
    _, audit = ps.interaction_limit(table, order_spec(2))
    for field, dtype in (("psi_before", float), ("psi_after", float), ("zeroed", bool), ("violated", bool)):
        vector = getattr(audit, field)
        assert vector.dtype == dtype and vector.shape == (16,) and not vector.flags.writeable, field
    assert np.array_equal(audit.zeroed, ps.basis.subset_sizes(4) > 2)
    assert [e.psi_before for e in audit.entries] == audit.psi_before[[ps.basis.subset_index(s)
                                                                      for s in ps.all_subsets(4)[1:]]].tolist()
    with pytest.raises(TypeError):
        ps.audit(table, table, k=2)  # every audit covers every non-empty subset


def test_a_release_peaks_at_a_few_table_sizes():
    # the audit stays four lattice vectors; per-subset records would cost about 40 table sizes
    table = random_adjusted_table(ps.generic_schema(16, 2), np.random.default_rng(7))
    tracemalloc.start()
    try:
        _, audit = ps.interaction_limit(table, order_spec(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * table.counts.nbytes, f"release peak {peak / table.counts.nbytes:.1f} table sizes"
    assert int(audit.zeroed.sum()) == 2 ** 16 - 1 - 16 - math.comb(16, 2)


def test_audit_of_a_release_below_1_matches_axis_means():
    schema = ps.generic_schema(3, 3)
    table = random_adjusted_table(schema, np.random.default_rng(27))
    released, _ = ps.interaction_limit(table, order_spec(2))
    assert released.counts.min() < 1.0  # a renormalised release with a negative log
    shrunk = ps.ContingencyTable(schema, table.counts * 0.05, table.n_total * 0.05)
    for after in (released, shrunk):
        for entry in ps.audit(table, after).entries:
            for got, counts in ((entry.psi_before, table.counts), (entry.psi_after, after.counts)):
                want = axis_mean_psi(np.log(counts), 3, 3, entry.subset)
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), entry


def test_scan_and_releases_never_build_a_geometric_mean_table(monkeypatch, rng):
    def refuse(*args, **kwargs):
        raise AssertionError("per-subset geometric-mean path used")

    monkeypatch.setattr(ps.reference, "Psi", refuse)
    monkeypatch.setattr(ps.marginal, "geometric_mean_subtable", refuse)
    table = random_adjusted_table(ps.generic_schema(4, 3), rng)
    for k in (1, 2, 3):
        assert len(ps.scan(table, k).entries) == math.comb(4, k)
    released, _ = ps.interaction_limit(table, order_spec(2))
    ps.selective_zero(table, ps.LimitSpec("selective", zero_subsets=((2, 1),)))
    assert ps.audit(table, released).violations == ()


def test_releases_never_fit_or_reconstruct(monkeypatch, rng):
    def refuse(*args, **kwargs):
        raise AssertionError("per-subset coefficient path used")

    for module in (ps, ps.fitting, ps.depersonalize):
        for name in ("fit_beta", "reconstruct"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    table = random_adjusted_table(ps.generic_schema(4, 3), rng)
    released, _ = ps.interaction_limit(table, order_spec(2))
    ps.selective_zero(table, ps.LimitSpec("selective", zero_subsets=((2, 1),), round_counts=True))
    ps.audit(table, released, zeroed_blocks=[(3, 2, 1)])


def oracle_release(table, zeroed):
    """Unrenormalised release through the public coefficient tensor, zeroing
    each subset's block by its own slice."""
    coef = np.array(ps.fit_beta(ps.log_transform(table)))
    n = coef.ndim
    for subset in zeroed:
        coef[tuple(slice(1, None) if n - 1 - axis in subset else 0 for axis in range(n))] = 0.0
    return np.exp(ps.reconstruct(coef, table.schema).values)


@pytest.mark.parametrize("n, m", [(2, 2), (3, 3), (4, 3), (5, 2), (6, 3), (8, 3), (7, 4), (10, 2), (12, 2)])
def test_releases_match_the_coefficient_dict_oracle(n, m):
    schema = ps.generic_schema(n, m)
    table = random_adjusted_table(schema, np.random.default_rng(100 * n + m))
    releases = [
        (ps.interaction_limit(table, order_spec(k, renormalize=False)),
         tuple(s for s in ps.all_subsets(n) if len(s) > k))
        for k in range(1, n + 1)
    ]
    seeds = ((n - 1,), (1, 0)) if n > 2 else ((1, 0),)
    spec = ps.LimitSpec("selective", zero_subsets=seeds, renormalize=False)
    releases.append((ps.selective_zero(table, spec), brute_force_closure(seeds, n)))
    for (released, audit), zeroed in releases:
        assert audit.zeroed_blocks == zeroed
        np.testing.assert_allclose(released.counts, oracle_release(table, zeroed), rtol=1e-14, atol=0)


def test_audit_reads_the_original_through_log_transform(floor_table):
    # one cell at 1 - 1e-10: log_transform clamps it to 1, as the release and scan do
    released, own = ps.interaction_limit(floor_table, order_spec(1))
    psi_before = ps.audit(floor_table, released, zeroed_blocks=own.zeroed_blocks).psi_before
    assert psi_before.tobytes() == own.psi_before.tobytes()
    for k in (1, 2):
        report = ps.scan(floor_table, k)
        assert psi_before[report.index].tobytes() == report.psi.tobytes()


@pytest.mark.parametrize("n, m", [(4, 3), (8, 3), (16, 2)])
def test_audit_of_an_unrenormalised_release_scores_the_released_counts(n, m):
    # renormalising adds log c to every log, which moves Psi, so only this case is the artefact's
    table = random_adjusted_table(ps.generic_schema(n, m), np.random.default_rng(7))
    released, audit = ps.interaction_limit(table, order_spec(2, renormalize=False))
    own = subset_salience(ps.log_transform(released))[0]
    np.testing.assert_allclose(audit.psi_after[1:], own[1:], rtol=0, atol=1e-12)


def test_audit_requires_matching_schema(rng, schema32, schema33):
    with pytest.raises(ps.ShapeError):
        ps.audit(random_adjusted_table(schema32, rng), random_adjusted_table(schema33, rng))


def test_audit_refuses_an_unadjusted_original():
    # as every analysis does: its zero cells would otherwise be read as log(tiny), about -708
    raw = ps.ContingencyTable(ps.generic_schema(3, 2), [0, 5, 3, 0, 9, 1, 0, 2], 20.0)
    for zeroed_blocks in (None, (), [(2, 1)]):
        with pytest.raises(DomainError, match="log transform needs an adjusted table"):
            ps.audit(raw, raw, zeroed_blocks=zeroed_blocks)
    # the released side may be unadjusted, as a release below 1 is
    adjusted = ps.zero_adjust(raw)
    assert ps.audit(adjusted, raw).psi_after.size == 8


# -------------------------------------------------------------- rounding

def test_round_preserving_total_half_to_even():
    values = np.array([0.5, 1.5, 2.5, 3.5])  # banker's rounding: 0, 2, 2, 4
    rounded = _round_preserving_total(values, 8)
    assert rounded.sum() == 8
    assert np.array_equal(rounded, [0, 2, 2, 4])


def test_round_preserving_total_corrects_deficit():
    values = np.array([1.4, 1.4, 1.4, 1.4, 1.4])  # rint gives 5, target 7
    rounded = _round_preserving_total(values, 7)
    assert rounded.sum() == 7
    assert sorted(rounded.tolist()) == [1, 1, 1, 2, 2]


def test_round_preserving_total_corrects_excess():
    values = np.array([1.6, 1.6, 1.6, 1.6, 1.6])  # rint gives 10, target 8
    rounded = _round_preserving_total(values, 8)
    assert rounded.sum() == 8
    assert sorted(rounded.tolist()) == [1, 1, 2, 2, 2]


@pytest.mark.parametrize("fraction, nudges", [(0.46, 3), (0.54, -3)])
def test_round_preserving_total_ignores_last_ulp_noise(fraction, nudges):
    values = np.concatenate([np.full(8, 2.0 + fraction), [7.25, 1.0], np.full(5, 3.0 + fraction)])
    target = int(np.rint(values).sum()) + nudges
    rounded = _round_preserving_total(values, target)
    # tied cells are nudged lowest index first
    expected = np.rint(values)
    expected[:abs(nudges)] += np.sign(nudges)
    assert np.array_equal(rounded, expected)
    noisy = values.copy()
    for i, toward in ((1, np.inf), (4, -np.inf), (6, np.inf), (11, np.inf), (14, -np.inf)):
        noisy[i] = np.nextafter(values[i], toward)
    assert np.array_equal(_round_preserving_total(noisy, target), rounded)


@given(values=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=40).map(np.array))
def test_round_preserving_total_never_negative_and_exact(values):
    target = int(round(values.sum()))  # how releases call it: the rounded total
    rounded = _round_preserving_total(values, target)
    assert rounded.min() >= 0
    assert rounded.sum() == target
    assert np.array_equal(rounded, np.round(rounded))
    assert np.abs(rounded - values).max() <= 1.0
