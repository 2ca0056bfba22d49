import functools
import itertools

import numpy as np
import pytest

import psalience as ps
from psalience.basis import (
    _subset_kron,
    check_subset,
    complement_axes,
    level_factor,
    marked_subsets,
    subset_index,
    subset_sizes,
)
from psalience.errors import ArgumentError

from oracles import (
    closed_form_all_zero,
    closed_form_zero_one,
    literal_pair_column,
    projector,
    residual_outside_span,
)

SMALL_GRID = [(n, m) for n in (1, 2, 3, 4) for m in (2, 3)]


# ----------------------------------------------------------- enumeration

def test_enumerate_pairs_n3():
    assert ps.enumerate_subsets(3, 2) == [(2, 1), (2, 0), (1, 0)]


def test_enumerate_pairs_n4_order():
    assert ps.enumerate_subsets(4, 2) == [(3, 2), (3, 1), (3, 0), (2, 1), (2, 0), (1, 0)]


def test_enumerate_edge_cases():
    assert ps.enumerate_subsets(4, 0) == [()]
    assert ps.enumerate_subsets(4, 4) == [(3, 2, 1, 0)]
    with pytest.raises(ArgumentError):
        ps.enumerate_subsets(4, 5)
    with pytest.raises(ArgumentError):
        ps.enumerate_subsets(4, -1)


def test_all_subsets_counts_and_order():
    subsets = ps.all_subsets(3)
    assert subsets[0] == ()
    assert len(subsets) == 8
    sizes = [len(s) for s in subsets]
    assert sizes == sorted(sizes)


def test_complement_axes_hold_the_attributes_outside_a_subset_largest_first():
    assert complement_axes((2, 0), 3) == (1,)
    assert complement_axes((), 2) == (0, 1)
    assert complement_axes((1, 0), 2) == ()
    for n in range(1, 7):
        for subset in ps.all_subsets(n):
            outside = [a for a in range(n - 1, -1, -1) if a not in subset]
            assert complement_axes(subset, n) == tuple(n - 1 - a for a in outside)


@pytest.mark.parametrize("n", range(11))
def test_marked_subsets_matches_a_brute_force_filter(n):
    rng = np.random.default_rng(n)
    sizes = subset_sizes(n)
    masks = [np.zeros(2 ** n, dtype=bool), np.ones(2 ** n, dtype=bool)]
    masks += [sizes == k for k in range(n + 1)]
    masks += [rng.random(2 ** n) < p for p in (0.1, 0.5, 0.9)]
    for mask in masks:
        want = [s for s in ps.all_subsets(n) if mask[subset_index(s)]]
        index, keys = marked_subsets(mask)
        assert keys == tuple(want)
        assert index.tolist() == [subset_index(s) for s in want]


def test_subset_validation(schema32):
    with pytest.raises(ArgumentError):
        ps.subspace_basis((0, 1), schema32)  # not descending
    with pytest.raises(ArgumentError):
        ps.subspace_basis((3,), schema32)  # out of range
    with pytest.raises(ArgumentError):
        ps.subspace_basis((1, 1), schema32)  # duplicate


@pytest.mark.parametrize("subset", [(1.7, 0.2), (1, 0.0), (True, 0), ("1", 0)])
def test_check_subset_refuses_members_that_are_not_integers(subset):
    with pytest.raises(ArgumentError, match="attribute index must be an integer"):
        check_subset(subset, 3)
    members = check_subset((np.int64(2), np.uint8(0)), 3)
    assert members == (2, 0) and all(type(i) is int for i in members)


# ------------------------------------------------------------ raw columns

def test_raw_column_examples(schema22):
    assert np.array_equal(ps.raw_column((0,), (0,), schema22), [1, 0, 1, 0])
    assert np.array_equal(ps.raw_column((1, 0), (0, 0), schema22), [1, 0, 0, 0])
    assert np.array_equal(ps.raw_column((), (), schema22), [1, 1, 1, 1])


@pytest.mark.parametrize("n,m", SMALL_GRID)
def test_raw_column_ones_count(n, m):
    schema = ps.generic_schema(n, m)
    for k in range(n + 1):
        subset = ps.enumerate_subsets(n, k)[0]
        column = ps.raw_column(subset, (0,) * k, schema)
        assert column.sum() == m ** (n - k)
        assert set(np.unique(column)) <= {0.0, 1.0}


def test_raw_column_bad_level(schema22):
    with pytest.raises(ArgumentError):
        ps.raw_column((0,), (2,), schema22)
    with pytest.raises(ArgumentError):
        ps.raw_column((0,), (0, 0), schema22)


# ---------------------------------------------------------- ortho columns

def test_ortho_column_examples(schema22):
    main = ps.ortho_column((0,), (0,), schema22)
    assert np.allclose(main, [0.5, -0.5, 0.5, -0.5])
    pair = ps.ortho_column((1, 0), (0, 0), schema22)
    assert np.allclose(pair, 0.25 * np.array([1, -1, -1, 1]))


@pytest.mark.parametrize("n,m", [(3, 2), (3, 3), (4, 3)])
def test_ortho_columns_sum_to_zero(n, m):
    schema = ps.generic_schema(n, m)
    for k in range(1, n + 1):
        for subset in ps.enumerate_subsets(n, k):
            for levels in itertools.product(range(m), repeat=k):
                column = ps.ortho_column(subset, levels, schema)
                assert abs(column.sum()) < 1e-12
                assert column @ column > 0


def test_ortho_column_block_structure(schema33):
    # entry value depends only on the cell's subset digits
    subset = (2, 0)
    column = ps.ortho_column(subset, (1, 2), schema33)
    groups = {}
    for rank in range(schema33.n_cells):
        digits = np.unravel_index(rank, (3,) * 3)
        key = tuple(digits[schema33.n_attributes - 1 - a] for a in subset)
        groups.setdefault(key, set()).add(float(column[rank]))
    assert all(len(values) == 1 for values in groups.values())
    assert len(groups) == 9


def test_ortho_column_rejects_empty_subset(schema22):
    with pytest.raises(ArgumentError):
        ps.ortho_column((), (), schema22)


# ------------------------------------------------------- subspace bases

@pytest.mark.parametrize("n,m", SMALL_GRID)
def test_subspace_dimensions(n, m):
    schema = ps.generic_schema(n, m)
    total = 0
    for subset in ps.all_subsets(n):
        dimension = ps.subspace_basis(subset, schema).shape[1]
        assert dimension == (m - 1) ** len(subset)
        total += dimension
    assert total == m ** n


def test_subspace_dimension_examples():
    assert ps.subspace_basis((1, 0), ps.generic_schema(2, 2)).shape[1] == 1
    assert ps.subspace_basis((2, 1), ps.generic_schema(3, 3)).shape[1] == 4


@pytest.mark.parametrize("n,m", SMALL_GRID)
def test_basis_orthogonality_within_and_across(n, m):
    schema = ps.generic_schema(n, m)
    matrix, _ = ps.full_basis(schema)
    stacked = matrix / np.linalg.norm(matrix, axis=0)
    gram = stacked.T @ stacked
    assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-9


def test_basis_columns_expose_metadata(schema33):
    # columns in radix order of their contrast codes, read-only
    basis = ps.subspace_basis((2, 0), schema33)
    contrasts, ones = ps.level_contrasts(3), np.ones(3)
    codes = list(itertools.product(range(2), repeat=2))
    assert codes == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for j, (c2, c0) in enumerate(codes):
        assert np.array_equal(basis[:, j], np.kron(np.kron(contrasts[:, c2], ones), contrasts[:, c0]))
    assert basis.shape == (27, 4)
    assert not basis.flags.writeable


def test_constant_subspace_is_the_ones_column(schema22):
    basis = ps.subspace_basis((), schema22)
    assert basis.shape == (4, 1)
    assert np.array_equal(basis[:, 0], np.ones(4))


@pytest.mark.parametrize("n,m", [(1, 3), (3, 2), (4, 3), (12, 2)])
def test_full_basis_columns_of_each_subset_are_its_subspace_basis(n, m):
    schema = ps.generic_schema(n, m)
    matrix, lattice = ps.full_basis(schema)
    assert matrix.shape == (m ** n, m ** n) and lattice.shape == (m ** n,)
    contrasts, ones = ps.level_contrasts(m), np.ones((m, 1))
    for subset in ps.all_subsets(n)[1:]:
        columns = matrix[:, lattice == subset_index(subset)]
        literal = functools.reduce(np.kron, [contrasts if a in subset else ones for a in range(n - 1, -1, -1)])
        assert np.array_equal(columns, ps.subspace_basis(subset, schema)), subset
        assert np.array_equal(columns, literal), subset


@pytest.mark.parametrize("m", [2, 3, 7])
def test_a_one_attribute_product_is_a_fresh_writable_copy_of_the_cached_factor(m):
    factor = level_factor(m)[0]
    contrasts = ps.level_contrasts(m)
    assert np.array_equal(factor[:, 0], np.ones(m)) and np.array_equal(factor[:, 1:], contrasts)
    assert np.shares_memory(contrasts, factor) and not contrasts.flags.writeable
    product = _subset_kron(1, m, (0,), [factor])
    assert np.array_equal(product, factor) and product.flags.writeable
    assert not np.shares_memory(product, factor)


# --------------------------------------------------- gram-schmidt oracle

def test_gram_schmidt_first_column_is_all_ones(schema22):
    columns, lattice = ps.gram_schmidt_oracle(schema22)
    assert lattice[0] == subset_index(())
    ratio = columns[:, 0] / columns[0, 0]
    assert np.allclose(ratio, 1.0)


def test_gram_schmidt_spans_whole_space(schema22):
    columns, lattice = ps.gram_schmidt_oracle(schema22)
    assert columns.shape == (4, 4) and lattice.shape == (4,)
    assert np.linalg.matrix_rank(columns) == 4


@pytest.mark.parametrize("n,m", SMALL_GRID)
def test_gram_schmidt_projector_equality(n, m):
    schema = ps.generic_schema(n, m)
    reference, lattice = ps.gram_schmidt_oracle(schema)
    for subset in ps.all_subsets(n):
        basis = ps.subspace_basis(subset, schema)
        mine = projector(basis)
        ref_matrix = reference[:, lattice == subset_index(subset)]
        assert ref_matrix.shape[1] == basis.shape[1]
        assert np.abs(mine - projector(ref_matrix)).max() < 1e-9


def test_gram_schmidt_size_guard():
    big = ps.generic_schema(13, 2)  # 8192 cells
    with pytest.raises(ArgumentError, match="8192 cells"):
        ps.gram_schmidt_oracle(big)


# ------------------------------------------------------- closed forms

def test_pair_closed_form_matches_m2_value():
    vector = literal_pair_column(2, 2, 1, 0)
    assert np.allclose(vector, 0.25 * np.array([1, -1, -1, 1]))


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (3, 3), (4, 3)])
def test_pair_literal_pattern_equals_tensor_form(n, m):
    for i2, i1 in ps.enumerate_subsets(n, 2):
        literal = literal_pair_column(n, m, i2, i1)
        tensor = closed_form_all_zero((i2, i1), n, m)
        assert np.allclose(literal, tensor, atol=1e-12)


@pytest.mark.parametrize("n,m", SMALL_GRID)
def test_closed_forms_lie_in_generated_subspace(n, m):
    schema = ps.generic_schema(n, m)
    for k in range(1, n + 1):
        for subset in ps.enumerate_subsets(n, k):
            basis = ps.subspace_basis(subset, schema)
            vector = closed_form_all_zero(subset, n, m)
            assert np.linalg.norm(residual_outside_span(vector, basis)) < 1e-9 * np.linalg.norm(vector)
            if m >= 3:
                other = closed_form_zero_one(subset, n, m)
                assert np.linalg.norm(residual_outside_span(other, basis)) < 1e-9 * np.linalg.norm(other)


def test_zero_one_closed_form_degenerates_for_m2():
    assert np.allclose(closed_form_zero_one((1, 0), 2, 2), 0.0)


# -------------------------------------------------------- reduced basis

def test_reduced_basis_examples():
    _, lattice = ps.full_basis(ps.generic_schema(2, 2))
    assert np.bincount(lattice).sum() == 4
    _, one_attr = ps.full_basis(ps.generic_schema(1, 3))
    assert np.bincount(one_attr).tolist() == [1, 2]


def test_reduced_basis_matches_sampled_full_columns(schema33):
    # a full column restricted to the cells with all conditioning digits
    # fixed reproduces the reduced column of the re-indexed subset
    table = ps.ContingencyTable(schema33, np.ones(27), 27, adjusted=True)
    subset = (2, 0)
    full = ps.subspace_basis(subset, schema33)
    reduced_schema = ps.generic_schema(2, 3)
    reduced = ps.subspace_basis((1, 0), reduced_schema)
    _, sampled_ranks = ps.conditional_subtable(table, subset, (0,))
    assert np.allclose(full[sampled_ranks, :], reduced)
