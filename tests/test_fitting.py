import math
import tracemalloc

import numpy as np
import pytest

import psalience as ps
from psalience.basis import subset_index
from psalience.errors import ShapeError
from psalience.fitting import centred_norm
from psalience.synthetic import random_adjusted_table

GRID = [(n, m) for n in (2, 3, 4, 5) for m in (2, 3)]


def test_fit_uniform_table(schema22):
    log_table = ps.LogTable(schema22, np.full(4, 1.7))
    coef = ps.fit_beta(log_table)
    assert coef.shape == (2, 2)
    # the constant column's coefficient is c; on the unit-norm direction it is sqrt(M_T) * c
    assert math.isclose(coef[0, 0] * np.sqrt(coef.size), 1.7 * 2.0, rel_tol=1e-12)
    assert np.abs(coef.flat[1:]).max() < 1e-12


@pytest.mark.parametrize("n, m", [(4, 7), (5, 5), (6, 3), (12, 2)])
def test_fit_of_a_constant_table_is_exactly_zero_off_the_constant_entry(n, m):
    # the fit transforms the centred logs, which are exactly 0, so no rounding is left behind
    schema = ps.generic_schema(n, m)
    table = ps.ContingencyTable(schema, np.full(schema.n_cells, 1234.5), 1234.5 * schema.n_cells, adjusted=True)
    coef = ps.fit_beta(ps.log_transform(table))
    assert not coef.ravel()[1:].any()
    assert math.isclose(coef[(0,) * n], math.log(1234.5), rel_tol=1e-15)


def test_fit_single_basis_column(schema22):
    values = 0.25 * np.array([1.0, -1.0, -1.0, 1.0])
    coef = ps.fit_beta(ps.LogTable(schema22, values)).ravel()
    _, lattice = ps.full_basis(schema22)
    assert np.abs(coef[lattice == subset_index(())]).max() < 1e-12
    assert np.abs(coef[lattice == subset_index((1,))]).max() < 1e-12
    assert np.abs(coef[lattice == subset_index((0,))]).max() < 1e-12
    assert np.abs(coef[lattice == subset_index((1, 0))]).max() > 0.1


@pytest.mark.parametrize("n,m", GRID)
def test_round_trip_identity(n, m, rng):
    schema = ps.generic_schema(n, m)
    table = random_adjusted_table(schema, rng)
    log_table = ps.log_transform(table)
    rebuilt = ps.reconstruct(ps.fit_beta(log_table), schema)
    assert np.abs(rebuilt.values - log_table.values).max() < 1e-9


def test_reconstruct_zero_coefficients(schema22):
    assert np.array_equal(ps.reconstruct(np.zeros((2, 2)), schema22).values, np.zeros(4))


def test_reconstruct_single_unit_coefficient(schema33):
    coef = np.zeros((3, 3, 3))
    coef[1, 0, 1] = 1.0  # first entry of the (2, 0) block
    _, lattice = ps.full_basis(schema33)
    assert np.array_equal(coef.ravel()[lattice == subset_index((2, 0))], [1.0, 0.0, 0.0, 0.0])
    rebuilt = ps.reconstruct(coef, schema33)
    expected = ps.subspace_basis((2, 0), schema33)[:, 0]
    assert np.allclose(rebuilt.values, expected)


def test_reconstruct_shape_errors(schema22, schema33):
    coef = ps.fit_beta(ps.LogTable(schema22, np.ones(4)))
    with pytest.raises(ShapeError):
        ps.reconstruct(coef, schema33)
    with pytest.raises(ShapeError):
        ps.reconstruct(np.zeros((2, 3)), schema22)


def test_projection_of_uniform_is_zero(schema33):
    log_table = ps.LogTable(schema33, np.full(27, 2.2))
    for k in (1, 2, 3):
        for subset in ps.enumerate_subsets(3, k):
            assert np.linalg.norm(ps.project_subset(log_table, subset)) < 1e-12


def test_projection_recovers_basis_column(schema22):
    column = ps.subspace_basis((1, 0), schema22)[:, 0]
    log_table = ps.LogTable(schema22, column)
    chi = ps.project_subset(log_table, (1, 0))
    assert np.allclose(chi, column)
    assert math.isclose(np.linalg.norm(chi), np.linalg.norm(column), rel_tol=1e-12)


def test_projection_is_idempotent(rng):
    schema = ps.generic_schema(3, 3)
    table = random_adjusted_table(schema, rng)
    log_table = ps.log_transform(table)
    once = ps.project_subset(log_table, (2, 0))
    twice = ps.project_subset(ps.LogTable(schema, once), (2, 0))
    assert np.abs(twice - once).max() < 1e-12
    assert math.isclose(np.linalg.norm(twice), np.linalg.norm(once), rel_tol=1e-12)


def test_projection_chi_sums_to_zero(rng):
    schema = ps.generic_schema(3, 2)
    log_table = ps.log_transform(random_adjusted_table(schema, rng))
    assert abs(ps.project_subset(log_table, (2, 1)).sum()) < 1e-10


@pytest.mark.parametrize("n,m", GRID)
def test_parseval_over_all_subsets(n, m, rng):
    schema = ps.generic_schema(n, m)
    log_table = ps.log_transform(random_adjusted_table(schema, rng))
    total = sum(np.linalg.norm(ps.project_subset(log_table, s)) ** 2 for s in ps.all_subsets(n))
    norm_sq = float(log_table.values @ log_table.values)
    assert abs(total - norm_sq) <= 1e-9 * norm_sq


def test_orthogonal_complement_examples(schema22):
    assert centred_norm(ps.LogTable(schema22, np.full(4, 3.3)).values) == 0.0
    spike = ps.LogTable(schema22, [math.log(2), 0, 0, 0])
    expected = math.log(2) * math.sqrt(3) / 2
    assert math.isclose(centred_norm(spike.values), expected, rel_tol=1e-12)


def test_orthogonal_complement_equals_nonconstant_energy(rng):
    schema = ps.generic_schema(4, 2)
    log_table = ps.log_transform(random_adjusted_table(schema, rng))
    total = sum(
        np.linalg.norm(ps.project_subset(log_table, s)) ** 2
        for s in ps.all_subsets(4)
        if s
    )
    assert math.isclose(centred_norm(log_table.values), math.sqrt(total), rel_tol=1e-9)


def test_scaling_moves_only_the_constant_component(rng):
    schema = ps.generic_schema(3, 2)
    table = random_adjusted_table(schema, rng)
    scaled = ps.ContingencyTable(schema, table.counts * 3.0, table.n_total * 3.0, adjusted=True)
    before = ps.log_transform(table)
    after = ps.log_transform(scaled)
    for k in (1, 2, 3):
        for subset in ps.enumerate_subsets(3, k):
            assert math.isclose(
                np.linalg.norm(ps.project_subset(before, subset)),
                np.linalg.norm(ps.project_subset(after, subset)),
                rel_tol=1e-9,
                abs_tol=1e-12,
            )


@pytest.mark.parametrize("n,m", GRID)
def test_blocks_match_generated_columns(n, m, rng):
    schema = ps.generic_schema(n, m)
    values = ps.log_transform(random_adjusted_table(schema, rng)).values
    coef = ps.fit_beta(ps.LogTable(schema, values))
    assert coef.shape == (m,) * n
    # full_basis's columns run in the tensor's C order
    matrix, _ = ps.full_basis(schema)
    norms_sq = np.einsum("ij,ij->j", matrix, matrix)
    expected = (matrix.T @ values) / norms_sq
    # relative to the largest coefficient a table of this norm can give
    gap = np.abs(coef.ravel() - expected)
    assert np.all(gap <= 1e-12 * np.linalg.norm(values) / np.sqrt(norms_sq)), gap.max()


def test_expansion_never_builds_basis_columns(monkeypatch, rng):
    def refuse(*args):
        raise AssertionError("dense basis columns were built")

    monkeypatch.setattr(ps.reference, "_subset_kron", refuse)
    schema = ps.generic_schema(4, 3)
    table = random_adjusted_table(schema, rng)
    log_table = ps.log_transform(table)
    ps.reconstruct(ps.fit_beta(log_table), schema)
    ps.project_subset(log_table, (3, 1))
    ps.interaction_limit(table, ps.LimitSpec("order_limit", k_dagger=2))
    ps.selective_zero(table, ps.LimitSpec("selective", zero_subsets=((2, 0),)))


def test_expansion_identities_at_ten_attributes(rng):
    schema = ps.generic_schema(10, 3)
    log_table = ps.log_transform(random_adjusted_table(schema, rng))
    rebuilt = ps.reconstruct(ps.fit_beta(log_table), schema)
    assert np.abs(rebuilt.values - log_table.values).max() < 1e-9
    total = sum(np.linalg.norm(ps.project_subset(log_table, s)) ** 2 for s in ps.all_subsets(10))
    norm_sq = float(log_table.values @ log_table.values)
    assert abs(total - norm_sq) <= 1e-9 * norm_sq


def test_expansion_memory_stays_near_table_size(rng):
    schema = ps.generic_schema(8, 3)
    log_table = ps.log_transform(random_adjusted_table(schema, rng))
    tracemalloc.start()
    try:
        ps.reconstruct(ps.fit_beta(log_table), schema)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * log_table.values.nbytes, peak / log_table.values.nbytes


def test_zero_blocks_peak_memory_stays_near_four_tables(rng):
    # the mask is expanded along each axis as booleans, never as a support tensor of integers
    from psalience.basis import subset_sizes
    from psalience.fitting import _coefficients, _zero_blocks

    log_table = ps.log_transform(random_adjusted_table(ps.generic_schema(16, 2), rng))
    mask = subset_sizes(16) > 2
    coef, mean = _coefficients(log_table)
    tracemalloc.start()
    try:
        values = _zero_blocks(coef, mean, mask)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.3 * log_table.values.nbytes, peak / log_table.values.nbytes
    # at M=2 each axis's level-factor column is its lattice bit, so the mask indexes coef directly
    limited = ps.LogTable(log_table.schema, values)
    assert np.abs(ps.fit_beta(limited)[mask.reshape((2,) * 16)]).max() <= 1e-9


def test_expansion_holds_one_coefficient_tensor_at_sixteen_attributes(rng):
    schema = ps.generic_schema(16, 2)
    log_table = ps.log_transform(random_adjusted_table(schema, rng))
    tracemalloc.start()
    try:
        rebuilt = ps.reconstruct(ps.fit_beta(log_table), schema)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * log_table.values.nbytes, peak / log_table.values.nbytes
    assert np.abs(rebuilt.values - log_table.values).max() < 1e-9
