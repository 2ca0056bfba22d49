import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import psalience as ps
from psalience.errors import (
    DegeneratePopulationError,
    DomainError,
    EmptyInputError,
    IngestionError,
    InvalidIndexError,
    InvalidRankError,
    SchemaError,
    ShapeError,
    StateError,
)


# ---------------------------------------------------------------- schema

def test_schema_counts():
    schema = ps.AttributeSchema((("colour", ("red", "green", "blue")), ("size", ("s", "m", "l"))))
    assert schema.n_attributes == 2
    assert schema.n_levels == 3
    assert schema.n_cells == 9
    assert schema.names == ("colour", "size")
    # first-listed attribute is the highest-numbered one
    assert schema.attribute_name(1) == "colour"
    assert schema.attribute_name(0) == "size"


@pytest.mark.parametrize(
    "attributes",
    [
        (("a", ("x", "y")), ("a", ("x", "y"))),            # duplicate names
        (("a", ("x", "x")),),                              # duplicate levels
        (("a", ("x", "y")), ("b", ("x", "y", "z"))),       # heterogeneous counts
        (("a", ("x",)),),                                  # fewer than 2 levels
        (),                                                # no attributes
    ],
)
def test_schema_rejects_invalid(attributes):
    with pytest.raises(SchemaError):
        ps.AttributeSchema(tuple(attributes))


# ------------------------------------------------------------- indexing

def test_lex_rank_examples(schema32):
    assert ps.lex_rank((1, 0, 1), schema32) == 5
    schema23 = ps.generic_schema(2, 3)
    assert ps.lex_rank((0, 0), schema23) == 0
    assert ps.lex_rank((2, 2), schema23) == 8  # == M**N - 1


def test_lex_rank_rejects_bad_digits(schema32):
    with pytest.raises(InvalidIndexError):
        ps.lex_rank((1, 0, 2), schema32)
    with pytest.raises(InvalidIndexError):
        ps.lex_rank((1, 0), schema32)
    with pytest.raises(InvalidIndexError):
        ps.lex_rank((1, 0, -1), schema32)


def test_lex_unrank_examples(schema32):
    assert ps.lex_unrank(5, schema32) == (1, 0, 1)
    assert ps.lex_unrank(0, schema32) == (0, 0, 0)


def test_lex_unrank_out_of_range(schema32):
    with pytest.raises(InvalidRankError):
        ps.lex_unrank(8, schema32)
    with pytest.raises(InvalidRankError):
        ps.lex_unrank(-1, schema32)


def test_lex_round_trip_exhaustive_n4_m3():
    schema = ps.generic_schema(4, 3)
    for rank in range(schema.n_cells):
        assert ps.lex_rank(ps.lex_unrank(rank, schema), schema) == rank


@given(
    n=st.integers(min_value=1, max_value=5),
    m=st.integers(min_value=2, max_value=4),
    data=st.data(),
)
def test_lex_round_trip_property(n, m, data):
    schema = ps.generic_schema(n, m)
    rank = data.draw(st.integers(min_value=0, max_value=schema.n_cells - 1))
    digits = ps.lex_unrank(rank, schema)
    assert len(digits) == n
    assert all(0 <= d < m for d in digits)
    assert ps.lex_rank(digits, schema) == rank


# ------------------------------------------------------------- tabulate

def test_tabulate_identical_records(schema22):
    records = [("1", "0")] * 4
    table = ps.tabulate(records, schema22)
    expected = np.zeros(4)
    expected[ps.lex_rank((1, 0), schema22)] = 4
    assert np.array_equal(table.counts, expected)
    assert table.n_total == 4
    assert not table.adjusted


def test_tabulate_each_cell_once(schema22):
    records = [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
    table = ps.tabulate(records, schema22)
    assert np.array_equal(table.counts, np.ones(4))


@given(permutation=st.permutations(list(range(12))))
def test_tabulate_order_independent(permutation):
    schema = ps.generic_schema(2, 2)
    base = [("0", "0")] * 5 + [("0", "1")] * 3 + [("1", "0")] * 2 + [("1", "1")] * 2
    shuffled = [base[i] for i in permutation]
    assert np.array_equal(ps.tabulate(base, schema).counts, ps.tabulate(shuffled, schema).counts)


def test_tabulate_unknown_label_names_record_and_attribute():
    schema = ps.AttributeSchema((("region", ("north", "south")), ("band", ("lo", "hi"))))
    records = [("north", "lo")] * 5 + [("north", "mid")]
    with pytest.raises(IngestionError) as info:
        ps.tabulate(records, schema)
    assert info.value.record_number == 6
    assert info.value.attribute == "band"
    assert "band" in str(info.value) and "'mid'" in str(info.value)


def test_tabulate_one_shot_stream_reports_first_bad_record():
    schema = ps.AttributeSchema((("region", ("north", "south")), ("band", ("lo", "hi"))))
    records = iter([("north", "lo"), ("south", "hi"), ("north", "mid"), ("north", "lo"),
                    ("east", "lo")])
    with pytest.raises(IngestionError) as info:
        ps.tabulate(records, schema)
    assert info.value.record_number == 3
    assert info.value.attribute == "band"


def test_tabulate_counts_repeated_records_of_any_sequence_type(schema22):
    records = (r for r in [["1", "0"], ("1", "0"), (1, 0), ["0", "1"]])
    table = ps.tabulate(records, schema22)
    assert table.counts[ps.lex_rank((1, 0), schema22)] == 3
    assert table.counts[ps.lex_rank((0, 1), schema22)] == 1
    assert table.n_total == 4


def test_tabulate_unhashable_label_is_an_unknown_level(schema22):
    with pytest.raises(IngestionError) as info:
        ps.tabulate([("0", "1"), (["0"], "1")], schema22)
    assert info.value.record_number == 2
    assert info.value.attribute == "a1"


def test_tabulate_empty_stream(schema22):
    with pytest.raises(EmptyInputError):
        ps.tabulate([], schema22)


def test_tabulate_wrong_arity(schema22):
    with pytest.raises(IngestionError):
        ps.tabulate([("0",)], schema22)


# ----------------------------------------------------------- zero adjust

def test_zero_adjust_examples(schema22):
    table = ps.ContingencyTable(schema22, [5, 1, 1, 1], 8)
    assert np.allclose(ps.zero_adjust(table).counts, [3.5, 1.5, 1.5, 1.5])

    spike = ps.ContingencyTable(schema22, [8, 0, 0, 0], 8)
    assert np.allclose(ps.zero_adjust(spike).counts, [5, 1, 1, 1])

    uniform = ps.ContingencyTable(schema22, [3, 3, 3, 3], 12)
    assert np.allclose(ps.zero_adjust(uniform).counts, [3, 3, 3, 3])


def test_zero_adjust_preserves_total_and_floor(rng):
    schema = ps.generic_schema(3, 3)
    counts = rng.multinomial(900, rng.dirichlet(np.ones(27))).astype(float)
    adjusted = ps.zero_adjust(ps.ContingencyTable(schema, counts, 900))
    assert math.isclose(adjusted.counts.sum(), 900, rel_tol=1e-9)
    assert adjusted.counts.min() >= 1
    assert adjusted.adjusted


@given(
    theta=st.floats(min_value=0, max_value=1, allow_nan=False),
    a=st.lists(st.integers(min_value=0, max_value=50), min_size=4, max_size=4),
    b=st.lists(st.integers(min_value=0, max_value=50), min_size=4, max_size=4),
)
def test_zero_adjust_is_affine(theta, a, b):
    schema = ps.generic_schema(2, 2)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    total = 200.0
    # rescale so both tables share one population total above the cell count
    a = a + (total - a.sum()) / 4.0
    b = b + (total - b.sum()) / 4.0

    def adjust(counts):
        return ps.zero_adjust(ps.ContingencyTable(schema, counts, total)).counts

    mixed = adjust(theta * a + (1 - theta) * b)
    assert np.allclose(mixed, theta * adjust(a) + (1 - theta) * adjust(b), atol=1e-9)


def test_zero_adjust_degenerate_population(schema22):
    table = ps.ContingencyTable(schema22, [1, 1, 1, 1], 4)
    with pytest.raises(DegeneratePopulationError):
        ps.zero_adjust(table)


def test_zero_adjust_twice_is_an_error(schema22):
    adjusted = ps.zero_adjust(ps.ContingencyTable(schema22, [5, 1, 1, 1], 8))
    with pytest.raises(StateError):
        ps.zero_adjust(adjusted)


# --------------------------------------------------------- log transform

def test_log_transform_examples(schema22):
    ones = ps.ContingencyTable(schema22, [1, 1, 1, 1], 4, adjusted=True)
    assert np.array_equal(ps.log_transform(ones).values, np.zeros(4))

    e_spike = ps.ContingencyTable(schema22, [math.e, 1, 1, 1], math.e + 3, adjusted=True)
    assert np.allclose(ps.log_transform(e_spike).values, [1, 0, 0, 0])

    adjusted = ps.ContingencyTable(schema22, [3.5, 1.5, 1.5, 1.5], 8, adjusted=True)
    assert np.allclose(ps.log_transform(adjusted).values, np.log([3.5, 1.5, 1.5, 1.5]))


def test_log_transform_rejects_zero_entries(schema22):
    table = ps.ContingencyTable(schema22, [4, 0, 0, 0], 4)
    with pytest.raises(DomainError):
        ps.log_transform(table)


def test_log_transform_needs_the_adjusted_flag(schema22):
    table = ps.ContingencyTable(schema22, [2, 1, 1, 1], 5)
    with pytest.raises(DomainError):
        ps.log_transform(table)


def test_a_table_inside_the_adjusted_tolerance_reaches_every_consumer(floor_table):
    clamped = ps.ContingencyTable(
        floor_table.schema, np.maximum(floor_table.counts, 1.0), floor_table.n_total, adjusted=True
    )
    assert np.array_equal(ps.log_transform(floor_table).values, ps.log_transform(clamped).values)
    assert ps.scan(floor_table, 2) == ps.scan(clamped, 2)
    assert ps.psi_histogram(floor_table, (2, 0)) == ps.psi_histogram(clamped, (2, 0))
    assert ps.Psi(floor_table, (2, 0)) == ps.Psi(clamped, (2, 0))
    released, audit = ps.interaction_limit(floor_table, ps.LimitSpec("order_limit", k_dagger=1))
    assert released.adjusted
    assert audit.violations == ()


# ------------------------------------------------------ table invariants

def test_table_shape_validation(schema22):
    with pytest.raises(ShapeError):
        ps.ContingencyTable(schema22, [1, 2, 3], 6)
    with pytest.raises(ShapeError):
        ps.ContingencyTable(schema22, [1, 2, 3, 4], 11)
    with pytest.raises(ShapeError):
        ps.ContingencyTable(schema22, [0.5, 1, 1, 1.5], 4, adjusted=True)
    with pytest.raises(ShapeError):
        ps.ContingencyTable(schema22, [-1, 2, 2, 1], 4)


def test_counts_are_read_only(schema22):
    table = ps.ContingencyTable(schema22, [1, 1, 1, 1], 4, adjusted=True)
    with pytest.raises(ValueError):
        table.counts[0] = 9.0


# ---------------------------------------------------------- record types

def _records():
    """One instance of every record type the package returns or accepts."""
    schema = ps.generic_schema(3, 2)
    table = ps.ContingencyTable(schema, [2, 3, 4, 5, 6, 7, 8, 9], 44, adjusted=True)
    report = ps.scan(table, 1)
    audit = ps.interaction_limit(table, ps.LimitSpec("order_limit", k_dagger=1))[1]
    verification = ps.run_verification(2, 2, trials=1)
    return {
        "AttributeSchema": schema,
        "ContingencyTable": table,
        "LogTable": ps.log_transform(table),
        "BasisColumn": ps.ortho_column((1,), (0,), schema),
        "SubspaceBasis": ps.subspace_basis((1,), schema),
        "BetaVector": ps.fit_beta(ps.log_transform(table)),
        "ProjectionResult": ps.project_subset(ps.log_transform(table), (1,)),
        "ConditionalSubtable": ps.conditional_subtable(table, (1,), (0, 1)),
        "GeoMeanTable": ps.geometric_mean_subtable(table, (1,)),
        "SalienceValue": ps.psi([1.0, 2.0]),
        "ScanEntry": report.entries[0],
        "SalienceReport": report,
        "LimitSpec": ps.LimitSpec("selective", zero_subsets=[(1, 0)]),
        "AuditEntry": audit.entries[0],
        "ReleaseAudit": audit,
        "SuiteResult": verification.suites[0],
        "VerificationReport": verification,
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_record_fields_cannot_be_assigned_or_deleted(name):
    record = _records()[name]
    assert type(record).__name__ == name
    field = next(iter(type(record).__slots__ or record._fields))
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown_field = None


def test_schema_equality_and_hash_survive_json(schema33):
    from psalience import fileio

    loaded = fileio.schema_from_dict(json.loads(json.dumps(fileio.schema_to_dict(schema33))))
    assert loaded == schema33 and hash(loaded) == hash(schema33)
    assert loaded._level_maps  # a filled cache is no field
    assert loaded == schema33 and hash(loaded) == hash(schema33)
    assert loaded != ps.generic_schema(3, 2)
    assert repr(loaded) == f"AttributeSchema(attributes={schema33.attributes!r})"


def test_frozen_sets_its_fields_in_slot_order_and_counts_them():
    from psalience.table import Frozen

    class Pair(Frozen):
        __slots__ = ("left", "right", "_cache")

    pair = Pair(1, "b")
    assert Pair._fields == ("left", "right")
    assert (pair.left, pair.right) == (1, "b")
    assert repr(pair) == "Pair(left=1, right='b')" and pair == Pair(1, "b") != Pair(1, "c")
    for values in ((1,), (1, "b", None)):
        with pytest.raises(TypeError, match="Pair has 2 fields"):
            Pair(*values)


def test_records_survive_pickling(schema22):
    table = ps.ContingencyTable(schema22, [1, 2, 3, 4], 10, adjusted=True)
    copy = pickle.loads(pickle.dumps(table))
    assert copy.schema == schema22 and copy.adjusted and copy.n_total == 10.0
    assert np.array_equal(copy.counts, table.counts) and not copy.counts.flags.writeable
    spec = ps.LimitSpec("order_limit", k_dagger=2, round_counts=True)
    assert pickle.loads(pickle.dumps(spec)) == spec


# ---------------------------------------------------------- schema files

def _schema_file(*attributes):
    return {"attributes": [{"name": name, "levels": levels} for name, levels in attributes]}


@pytest.mark.parametrize("attributes, message", [
    ((("a", [" x", "y"]), ("b", ["u", "v"])), "level of attribute 'a' ' x' has leading or trailing"),
    ((("a", ["x", "y "]), ("b", ["u", "v"])), "level of attribute 'a' 'y ' has leading or trailing"),
    ((("a", ["x", "y"]), (" b", ["u", "v"])), "attribute name ' b' has leading or trailing"),
    ((("a", "xy"), ("b", ["u", "v"])), "levels of attribute 'a' must be a JSON array, got 'xy'"),
    ((("a", {"x": 1, "y": 2}), ("b", ["u", "v"])), "levels of attribute 'a' must be a JSON array"),
    ((("a", ["x", "y"]), (None, ["u", "v"])), "attribute name must be a JSON string or integer, got None"),
    ((("a", ["x", "y"]), (True, ["u", "v"])), "attribute name must be a JSON string or integer, got True"),
    ((("a", [True, False]), ("b", ["u", "v"])), "level of attribute 'a' must be a JSON string or integer"),
    ((("a", ["x", None]), ("b", ["u", "v"])), "level of attribute 'a' must be a JSON string or integer"),
    ((("a", ["x", 1.5]), ("b", ["u", "v"])), "level of attribute 'a' must be a JSON string or integer"),
])
def test_schema_file_refuses_misread_names_and_labels(attributes, message):
    from psalience import fileio

    payload = json.loads(json.dumps(_schema_file(*attributes)))
    with pytest.raises(SchemaError, match=re.escape(message)):
        fileio.schema_from_dict(payload)
    table = {"schema": payload, "counts": [1, 1, 1, 1], "n_total": 4, "adjusted": True}
    with pytest.raises(SchemaError, match=re.escape(message)):
        fileio.table_from_dict(table)

