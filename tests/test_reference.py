"""The literal constructions in ``psalience.reference``: they run none of the
pipeline's transforms, and the literal Psi is accurate where its geometric
mean of many logs used to cancel."""

import functools
import math
import sys

import numpy as np
import pytest

import psalience as ps
from psalience.synthetic import planted_interaction_table, random_adjusted_table

PIPELINE = ("_modewise", "_coefficients", "_cells", "_energies", "subset_energies", "subset_salience",
            "_spectrum_salience", "_zero_blocks", "geometric_mean_subtable", "conditional_subtable")


def reference_calls(table):
    """One call of every public function of ``psalience.reference`` on ``table``."""
    schema, log_table = table.schema, ps.log_transform(table)
    return {
        "raw_column": lambda: ps.raw_column((2, 0), (1, 0), schema),
        "ortho_column": lambda: ps.ortho_column((2, 0), (1, 0), schema),
        "subspace_basis": lambda: ps.subspace_basis((2, 1), schema),
        "full_basis": lambda: ps.full_basis(schema),
        "gram_schmidt_oracle": lambda: ps.gram_schmidt_oracle(schema),
        "project_subset": lambda: ps.project_subset(log_table, (2, 0)),
        "gm_projection_identity": lambda: ps.gm_projection_identity(table, (2, 0), (0,)),
        "gm_projection_total_identity": lambda: ps.gm_projection_total_identity(table, (2, 1)),
        "Psi": lambda: ps.Psi(table, (2, 0)),
        "hypercube_psi": lambda: ps.hypercube_psi(3, schema.n_cells),
    }


def same(got, expected):
    """Equal values, arrays compared whole and tuples entry by entry."""
    if isinstance(got, tuple):
        return len(got) == len(expected) and all(map(same, got, expected))
    return np.array_equal(got, expected) if isinstance(got, np.ndarray) else got == expected


def test_reference_runs_none_of_the_pipeline_transforms(monkeypatch, rng):
    table = random_adjusted_table(ps.generic_schema(3, 3), rng)
    calls = reference_calls(table)
    assert set(calls) == set(ps._PUBLIC["reference"])
    expected = {name: call() for name, call in calls.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("a pipeline transform ran")

    ps.depersonalize, ps.verify  # load every module that binds a pipeline name
    for module in [m for name, m in sys.modules.items() if name.startswith("psalience.")]:
        for name in PIPELINE:
            if name in vars(module):
                monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError, match="pipeline transform"):
        ps.scan(table, 1)
    for name, call in calls.items():
        assert same(call(), expected[name]), name


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_Psi_chi_of_each_attribute_matches_an_exact_sum(seed):
    # a size-1 geometric-mean table at M=2 is (g0, g1), each the mean of 2**15
    # logs, and its chi is |g0 - g1| / sqrt(2); fsum gives that difference exactly
    n = 16
    table = random_adjusted_table(ps.generic_schema(n, 2), np.random.default_rng(seed))
    logs = ps.log_transform(table).reshaped()
    for attribute in range(n):
        level0, level1 = np.moveaxis(logs, n - 1 - attribute, 0)
        exact = abs(math.fsum([*level0.ravel().tolist(), *(-level1).ravel().tolist()])) / 2 ** 15 / math.sqrt(2)
        chi = ps.Psi(table, (attribute,)).chi_magnitude
        assert abs(chi - exact) <= 2e-12 * exact, (attribute, chi, exact)


def test_Psi_of_a_log_table_equals_Psi_of_its_table(rng):
    table = random_adjusted_table(ps.generic_schema(4, 3), rng)
    logs = ps.log_transform(table)
    for subset in ps.all_subsets(4)[1:]:
        assert ps.Psi(logs, subset) == ps.Psi(table, subset), subset


def test_gm_projection_logs_each_table_once(monkeypatch):
    from psalience import verify

    real = ps.table.log_transform
    calls = []

    def counted(t):
        calls.append(t)
        return real(t)

    for module in [m for name, m in sys.modules.items()
                   if name.startswith("psalience.") and getattr(m, "log_transform", None) is real]:
        monkeypatch.setattr(module, "log_transform", counted)
    suite = verify._suite_gm_identity(ps.generic_schema(4, 2), np.random.default_rng(0), 3)
    # 3 random tables and 3 near-uniform ones
    assert suite.passed and suite.checked == 6 * 15
    assert len(calls) == 6  # where logging per Psi call makes 6 * 16


@pytest.mark.parametrize("identity, args", [
    ("gm_projection_identity", ((3, 1, 0), (1, 0))),
    ("gm_projection_total_identity", ((3, 1, 0),)),
])
def test_projection_identities_log_each_table_once(monkeypatch, identity, args):
    """Both sides of an identity read one log of the table."""
    table = random_adjusted_table(ps.generic_schema(4, 3), np.random.default_rng(2))
    expected = getattr(ps, identity)(table, *args)
    real = ps.table.log_transform
    calls = []

    def counted(t):
        calls.append(t)
        return real(t)

    for module in [m for name, m in sys.modules.items()
                   if name.startswith("psalience.") and getattr(m, "log_transform", None) is real]:
        monkeypatch.setattr(module, "log_transform", counted)
    assert getattr(ps, identity)(table, *args) == expected
    assert len(calls) == 1


@pytest.mark.parametrize("n, m", [(3, 2), (3, 3), (5, 3)])
def test_planted_column_is_the_first_basis_column_bit_for_bit(n, m):
    schema = ps.generic_schema(n, m)
    for subset in ps.all_subsets(n)[1:]:
        column = ps.subspace_basis(subset, schema)[:, 0]
        logs = 3.0 * (column / np.sqrt(column @ column))
        counts = np.exp(logs - logs.min())
        assert np.array_equal(planted_interaction_table(schema, subset).counts, counts), subset


@pytest.mark.parametrize("n, m", [(3, 2), (4, 3), (6, 2)])
@pytest.mark.parametrize("strength", [1.0, 3.0])
def test_planted_column_equals_the_literal_kronecker_chain(n, m, strength):
    schema = ps.generic_schema(n, m)
    contrast, ones = ps.level_contrasts(m)[:, 0], np.ones(m)
    for subset in ps.all_subsets(n)[1:]:
        column = functools.reduce(np.kron, [contrast if a in subset else ones for a in range(n - 1, -1, -1)])
        logs = strength * (column / np.sqrt(column @ column))
        counts = np.exp(logs - logs.min())
        got = planted_interaction_table(schema, subset, strength=strength)
        assert np.array_equal(got.counts, counts), subset
        assert got.n_total == float(counts.sum()), subset
