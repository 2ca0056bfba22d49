import itertools
import math
import tracemalloc

import numpy as np
import pytest

import psalience as ps
from psalience.errors import ArgumentError, DomainError
from psalience.synthetic import random_adjusted_table


def adjusted(schema, counts):
    counts = np.asarray(counts, dtype=float)
    return ps.ContingencyTable(schema, counts, float(counts.sum()), adjusted=True)


# ---------------------------------------------------- conditional slices

def test_conditional_subtable_rows_2_3(schema22):
    table = adjusted(schema22, [1, 2, 3, 4])
    counts, cell_ranks = ps.conditional_subtable(table, (0,), (1,))
    assert np.array_equal(cell_ranks, [2, 3])
    assert np.array_equal(counts, [3, 4])


def test_conditional_subtable_cells_0145(schema32):
    table = adjusted(schema32, np.arange(1.0, 9.0))
    counts, cell_ranks = ps.conditional_subtable(table, (2, 0), (0,))
    assert np.array_equal(cell_ranks, [0, 1, 4, 5])
    assert np.array_equal(counts, [1, 2, 5, 6])
    # leftmost subset member is most significant in the subtable order
    assert counts[0b10] == table.counts[np.ravel_multi_index((1, 0, 0), (2,) * 3)]


@pytest.mark.parametrize("n,m,subset", [(3, 2, (2, 0)), (4, 3, (2, 1)), (3, 3, (1,))])
def test_conditional_subtables_partition_the_table(n, m, subset):
    schema = ps.generic_schema(n, m)
    table = adjusted(schema, np.arange(1.0, schema.n_cells + 1.0))
    seen = []
    for combo in itertools.product(range(m), repeat=n - len(subset)):
        seen.extend(ps.conditional_subtable(table, subset, combo)[1].tolist())
    assert sorted(seen) == list(range(schema.n_cells))


@pytest.mark.parametrize("n, m", [(3, 2), (3, 3), (4, 2), (4, 3), (6, 2)])
def test_conditional_subtable_equals_the_slice_of_a_full_rank_tensor(n, m, rng):
    schema = ps.generic_schema(n, m)
    table = random_adjusted_table(schema, rng)
    every_rank = np.arange(schema.n_cells).reshape((m,) * n)
    for subset in ps.all_subsets(n):
        slices = []
        for combo in itertools.product(range(m), repeat=n - len(subset)):
            fixed = dict(zip((a for a in range(n - 1, -1, -1) if a not in subset), combo))
            indexer = tuple(slice(None) if a in subset else fixed[a] for a in range(n - 1, -1, -1))
            counts, cell_ranks = ps.conditional_subtable(table, subset, combo)
            assert np.array_equal(cell_ranks, every_rank[indexer].ravel())
            assert np.array_equal(counts, table.reshaped()[indexer].ravel())
            slices.append(counts)
        # the geometric-mean logs share the subtables' cell order
        expected = np.log(slices).mean(axis=0)
        assert np.allclose(ps.geometric_mean_subtable(table, subset), expected, rtol=1e-12, atol=0)


def test_conditional_subtable_allocates_only_its_own_cells():
    schema = ps.generic_schema(20, 2)
    table = ps.ContingencyTable(schema, np.ones(schema.n_cells), schema.n_cells, adjusted=True)
    ps.conditional_subtable(table, (5, 3), (0,) * 18)  # warm up imports and caches
    tracemalloc.start()
    try:
        counts, _ = ps.conditional_subtable(table, (5, 3), (1,) * 18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.size == 4
    assert peak < 0.01 * table.counts.nbytes


def test_conditional_subtable_argument_errors(schema32):
    table = adjusted(schema32, np.ones(8))
    with pytest.raises(ArgumentError):
        ps.conditional_subtable(table, (2, 0), (0, 0))  # wrong conditioning length
    with pytest.raises(ArgumentError):
        ps.conditional_subtable(table, (2, 0), (2,))  # level out of range


# ---------------------------------------------------- geometric means

def test_geometric_mean_pairs_product_form(schema32, rng):
    table = random_adjusted_table(schema32, rng)
    gm = np.exp(ps.geometric_mean_subtable(table, (1, 0)))
    arr = table.reshaped()
    for a1, a0 in itertools.product(range(2), repeat=2):
        expected = math.sqrt(arr[0, a1, a0] * arr[1, a1, a0])
        assert math.isclose(gm[2 * a1 + a0], expected, rel_tol=1e-9)


def test_geometric_mean_uniform(schema33):
    table = adjusted(schema33, np.full(27, 4.0))
    gm_logs = ps.geometric_mean_subtable(table, (2, 1))
    assert np.allclose(np.exp(gm_logs), 4.0)
    assert np.allclose(gm_logs, math.log(4.0))


def test_geometric_mean_of_identical_slices(schema32):
    pattern = np.array([5.0, 1.0, 2.0, 3.0])
    counts = np.concatenate([pattern, pattern])  # constant along attribute 2
    table = adjusted(schema32, counts)
    gm = np.exp(ps.geometric_mean_subtable(table, (1, 0)))
    assert np.allclose(gm, pattern)


@pytest.mark.parametrize("n, m, subset", [
    (n, m, subset) for n, m in ((4, 2), (3, 3)) for subset in ps.all_subsets(n)[1:]
], ids=lambda value: ",".join(map(str, value)) if isinstance(value, tuple) else str(value))
def test_geometric_mean_log_space_matches_products(rng, n, m, subset):
    schema = ps.generic_schema(n, m)
    table = random_adjusted_table(schema, rng)
    gm = np.exp(ps.geometric_mean_subtable(table, subset))
    for position in range(m ** len(subset)):
        product = 1.0
        factors = 0
        for combo in itertools.product(range(m), repeat=n - len(subset)):
            counts, _ = ps.conditional_subtable(table, subset, combo)
            product *= counts[position]
            factors += 1
        assert math.isclose(gm[position], product ** (1.0 / factors), rel_tol=1e-9)


def test_geometric_mean_below_arithmetic_mean(rng):
    schema = ps.generic_schema(3, 3)
    table = random_adjusted_table(schema, rng)
    gm = np.exp(ps.geometric_mean_subtable(table, (2, 0)))
    arithmetic = table.reshaped().mean(axis=1).ravel()
    assert np.all(gm <= arithmetic + 1e-12)


def test_geometric_mean_requires_adjusted(schema22):
    raw = ps.ContingencyTable(schema22, [8, 0, 0, 0], 8)
    with pytest.raises(DomainError):
        ps.geometric_mean_subtable(raw, (0,))


# ------------------------------------------------ projection transfer

def test_identity_on_uniform_table(schema33):
    table = adjusted(schema33, np.full(27, 2.0))
    for inner in [(2,), (1, 0)]:
        lhs, rhs = ps.gm_projection_identity(table, (2, 1, 0), inner)
        assert lhs < 1e-12 and rhs < 1e-12


def test_identity_inner_equals_outer(rng):
    schema = ps.generic_schema(4, 2)
    table = random_adjusted_table(schema, rng)
    lhs, rhs = ps.gm_projection_identity(table, (3, 1), (3, 1))
    assert abs(lhs - rhs) < 1e-9 * max(lhs, rhs)


def test_identity_strict_subset(rng):
    schema = ps.generic_schema(4, 2)
    table = random_adjusted_table(schema, rng)
    lhs, rhs = ps.gm_projection_identity(table, (3, 2, 0), (2,))
    assert abs(lhs - rhs) < 1e-9 * max(lhs, rhs)


@pytest.mark.parametrize("n,m", [(4, 3), (5, 2)])
def test_identity_every_pair_on_random_tables(n, m, rng):
    schema = ps.generic_schema(n, m)
    for _ in range(3):
        table = random_adjusted_table(schema, rng)
        for k0 in range(1, n):
            for outer in ps.enumerate_subsets(n, k0):
                for size in range(1, k0 + 1):
                    for inner in itertools.combinations(outer, size):
                        lhs, rhs = ps.gm_projection_identity(table, outer, inner)
                        assert abs(lhs - rhs) <= 1e-9 * max(lhs, rhs, 1e-3)


def test_total_identity_random_and_spike(rng):
    schema = ps.generic_schema(5, 2)
    table = random_adjusted_table(schema, rng)
    lhs, rhs = ps.gm_projection_total_identity(table, (4, 2))
    assert abs(lhs - rhs) < 1e-9 * max(lhs, rhs)

    counts = np.ones(32)
    counts[5] = 33.0
    spike = adjusted(schema, counts)
    lhs, rhs = ps.gm_projection_total_identity(spike, (3, 1, 0))
    assert abs(lhs - rhs) < 1e-9 * max(lhs, rhs)


def test_total_identity_uniform(schema33):
    table = adjusted(schema33, np.full(27, 2.0))
    lhs, rhs = ps.gm_projection_total_identity(table, (2, 0))
    assert lhs < 1e-12 and rhs < 1e-12


def test_identity_requires_containment(rng):
    schema = ps.generic_schema(4, 2)
    table = random_adjusted_table(schema, rng)
    with pytest.raises(ArgumentError):
        ps.gm_projection_identity(table, (3, 1), (2,))


@pytest.mark.parametrize("identity, subsets", [
    ("gm_projection_identity", ((), (1,))),
    ("gm_projection_identity", ((3, 1), ())),
    ("gm_projection_total_identity", ((),)),
])
def test_identities_refuse_an_empty_subset(rng, identity, subsets):
    table = random_adjusted_table(ps.generic_schema(4, 2), rng)
    with pytest.raises(ArgumentError, match="must be non-empty"):
        getattr(ps, identity)(table, *subsets)
