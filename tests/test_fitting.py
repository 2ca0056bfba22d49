import math
import tracemalloc

import numpy as np
import pytest

import psalience as ps
from psalience.errors import ShapeError
from psalience.synthetic import random_adjusted_table

GRID = [(n, m) for n in (2, 3, 4, 5) for m in (2, 3)]


def test_fit_uniform_table(schema22):
    log_table = ps.LogTable(schema22, np.full(4, 1.7))
    beta = ps.fit_beta(log_table)
    # constant direction is unit-norm, so beta0 carries sqrt(M_T) * c
    assert math.isclose(beta.beta0, 1.7 * 2.0, rel_tol=1e-12)
    for subset, block in beta.blocks.items():
        assert np.abs(block).max() < 1e-12, subset
    assert beta.total_coefficients == 4


def test_fit_single_basis_column(schema22):
    values = 0.25 * np.array([1.0, -1.0, -1.0, 1.0])
    beta = ps.fit_beta(ps.LogTable(schema22, values))
    assert abs(beta.beta0) < 1e-12
    assert np.abs(beta.blocks[(1,)]).max() < 1e-12
    assert np.abs(beta.blocks[(0,)]).max() < 1e-12
    assert np.abs(beta.blocks[(1, 0)]).max() > 0.1


@pytest.mark.parametrize("n,m", GRID)
def test_round_trip_identity(n, m, rng):
    schema = ps.generic_schema(n, m)
    table = random_adjusted_table(schema, rng)
    log_table = ps.log_transform(table)
    rebuilt = ps.reconstruct(ps.fit_beta(log_table), schema)
    assert np.abs(rebuilt.values - log_table.values).max() < 1e-9


def test_reconstruct_zero_coefficients(schema22):
    beta = ps.BetaVector(0.0, {s: np.zeros((1,)) for s in ps.all_subsets(2) if s}, 2, 2)
    assert np.array_equal(ps.reconstruct(beta, schema22).values, np.zeros(4))


def test_reconstruct_single_unit_coefficient(schema33):
    blocks = {}
    for subset in ps.all_subsets(3):
        if subset:
            blocks[subset] = np.zeros((2 ** len(subset),))
    blocks[(2, 0)] = np.array([1.0, 0.0, 0.0, 0.0])
    beta = ps.BetaVector(0.0, blocks, 3, 3)
    rebuilt = ps.reconstruct(beta, schema33)
    expected = ps.subspace_basis((2, 0), schema33).matrix[:, 0]
    assert np.allclose(rebuilt.values, expected)


def test_reconstruct_shape_errors(schema22, schema33):
    beta = ps.fit_beta(ps.LogTable(schema22, np.ones(4)))
    with pytest.raises(ShapeError):
        ps.reconstruct(beta, schema33)
    bad = ps.BetaVector(0.0, {(1,): np.zeros(5), (0,): np.zeros(1), (1, 0): np.zeros(1)}, 2, 2)
    with pytest.raises(ShapeError):
        ps.reconstruct(bad, schema22)


def test_projection_of_uniform_is_zero(schema33):
    log_table = ps.LogTable(schema33, np.full(27, 2.2))
    for k in (1, 2, 3):
        for subset in ps.enumerate_subsets(3, k):
            assert ps.project_subset(log_table, subset).magnitude < 1e-12


def test_projection_recovers_basis_column(schema22):
    column = ps.subspace_basis((1, 0), schema22).matrix[:, 0]
    log_table = ps.LogTable(schema22, column)
    result = ps.project_subset(log_table, (1, 0))
    assert np.allclose(result.chi, column)
    assert math.isclose(result.magnitude, np.linalg.norm(column), rel_tol=1e-12)


def test_projection_is_idempotent(rng):
    schema = ps.generic_schema(3, 3)
    table = random_adjusted_table(schema, rng)
    log_table = ps.log_transform(table)
    once = ps.project_subset(log_table, (2, 0))
    twice = ps.project_subset(ps.LogTable(schema, once.chi), (2, 0))
    assert np.abs(twice.chi - once.chi).max() < 1e-12
    assert math.isclose(twice.magnitude, once.magnitude, rel_tol=1e-12)


def test_projection_chi_sums_to_zero(rng):
    schema = ps.generic_schema(3, 2)
    log_table = ps.log_transform(random_adjusted_table(schema, rng))
    assert abs(ps.project_subset(log_table, (2, 1)).chi.sum()) < 1e-10


@pytest.mark.parametrize("n,m", GRID)
def test_parseval_over_all_subsets(n, m, rng):
    schema = ps.generic_schema(n, m)
    log_table = ps.log_transform(random_adjusted_table(schema, rng))
    total = sum(ps.project_subset(log_table, s).magnitude ** 2 for s in ps.all_subsets(n))
    norm_sq = float(log_table.values @ log_table.values)
    assert abs(total - norm_sq) <= 1e-9 * norm_sq


def test_orthogonal_complement_examples(schema22):
    assert ps.orthogonal_complement_magnitude(ps.LogTable(schema22, np.full(4, 3.3))) == 0.0
    spike = ps.LogTable(schema22, [math.log(2), 0, 0, 0])
    expected = math.log(2) * math.sqrt(3) / 2
    assert math.isclose(ps.orthogonal_complement_magnitude(spike), expected, rel_tol=1e-12)


def test_orthogonal_complement_equals_nonconstant_energy(rng):
    schema = ps.generic_schema(4, 2)
    log_table = ps.log_transform(random_adjusted_table(schema, rng))
    total = sum(
        ps.project_subset(log_table, s).magnitude ** 2
        for s in ps.all_subsets(4)
        if s
    )
    assert math.isclose(
        ps.orthogonal_complement_magnitude(log_table), math.sqrt(total), rel_tol=1e-9
    )


def test_scaling_moves_only_the_constant_component(rng):
    schema = ps.generic_schema(3, 2)
    table = random_adjusted_table(schema, rng)
    scaled = ps.ContingencyTable(schema, table.counts * 3.0, table.n_total * 3.0, adjusted=True)
    before = ps.log_transform(table)
    after = ps.log_transform(scaled)
    for k in (1, 2, 3):
        for subset in ps.enumerate_subsets(3, k):
            assert math.isclose(
                ps.project_subset(before, subset).magnitude,
                ps.project_subset(after, subset).magnitude,
                rel_tol=1e-9,
                abs_tol=1e-12,
            )


@pytest.mark.parametrize("n,m", GRID)
def test_blocks_match_generated_columns(n, m, rng):
    schema = ps.generic_schema(n, m)
    values = ps.log_transform(random_adjusted_table(schema, rng)).values
    beta = ps.fit_beta(ps.LogTable(schema, values))
    scale = np.linalg.norm(values)
    constant = ps.subspace_basis((), schema).matrix[:, 0]
    assert math.isclose(beta.beta0, constant @ values, rel_tol=1e-12)
    for subset, block in beta.blocks.items():
        basis = ps.subspace_basis(subset, schema)
        expected = (basis.matrix.T @ values) / basis.norms_sq
        # relative to the largest coefficient a table of this norm can give
        assert np.all(np.abs(block - expected) <= 1e-12 * scale / np.sqrt(basis.norms_sq)), subset


def test_expansion_never_builds_basis_columns(monkeypatch, rng):
    def refuse(*args):
        raise AssertionError("dense basis columns were built")

    monkeypatch.setattr(ps.basis, "_subspace_arrays", refuse)
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
    total = sum(ps.project_subset(log_table, s).magnitude ** 2 for s in ps.all_subsets(10))
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
