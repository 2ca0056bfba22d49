import itertools
import json
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import psalience as ps
from psalience.errors import (
    ArgumentError,
    DegeneratePopulationError,
    DomainError,
    EmptyInputError,
    IngestionError,
    SchemaError,
    ShapeError,
    StateError,
)
from psalience.table import ABS_TOL, REL_TOL, Frozen, _record_rank, values_close


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

# A cell's lexicographic rank is its digits' C-order position in the (M,)*N
# shape: a record lands there, and a log table's reshaped() view holds it there.

def _rank(digits, schema):
    return _record_rank(tuple(map(str, digits)), schema, "record 1", 1)


def test_lex_rank_examples(schema32):
    assert _rank((1, 0, 1), schema32) == 5
    schema23 = ps.generic_schema(2, 3)
    assert _rank((0, 0), schema23) == 0
    assert _rank((2, 2), schema23) == 8  # == M**N - 1


def test_lex_unrank_examples(schema32):
    shaped = ps.LogTable(schema32, np.arange(8.0)).reshaped()
    assert shaped.shape == (2, 2, 2)
    assert shaped[1, 0, 1] == 5.0
    assert shaped[0, 0, 0] == 0.0


def test_lex_round_trip_exhaustive_n4_m3():
    schema = ps.generic_schema(4, 3)
    for rank in range(schema.n_cells):
        assert _rank(np.unravel_index(rank, (3,) * 4), schema) == rank


@given(
    n=st.integers(min_value=1, max_value=5),
    m=st.integers(min_value=2, max_value=4),
    data=st.data(),
)
def test_lex_round_trip_property(n, m, data):
    schema = ps.generic_schema(n, m)
    rank = data.draw(st.integers(min_value=0, max_value=schema.n_cells - 1))
    digits = np.unravel_index(rank, (m,) * n)
    assert ps.LogTable(schema, np.arange(float(schema.n_cells))).reshaped()[digits] == rank
    assert _rank(digits, schema) == rank


# ------------------------------------------------------------- tabulate

def test_tabulate_identical_records(schema22):
    records = [("1", "0")] * 4
    table = ps.tabulate(records, schema22)
    expected = np.zeros(4)
    expected[np.ravel_multi_index((1, 0), (2, 2))] = 4
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
    assert table.counts[np.ravel_multi_index((1, 0), (2, 2))] == 3
    assert table.counts[np.ravel_multi_index((0, 1), (2, 2))] == 1
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
    with pytest.raises(ShapeError, match="expected 4 log values"):
        ps.LogTable(schema22, [0.0, 1.0, 2.0])
    with pytest.raises(ShapeError, match="must be finite"):
        ps.LogTable(schema22, [0.0, 1.0, math.inf, 2.0])


@pytest.mark.parametrize("n, m", [(0, 2), (2, 1)])
def test_generic_schema_needs_an_attribute_and_two_levels(n, m):
    with pytest.raises(SchemaError, match="need n >= 1 attributes and m >= 2 levels"):
        ps.generic_schema(n, m)


@pytest.mark.parametrize("n_total", [math.inf, -math.inf, math.nan])
def test_table_refuses_a_total_that_is_not_finite(n_total):
    with pytest.raises(ShapeError, match="positive and finite"):
        ps.ContingencyTable(ps.generic_schema(1, 2), [3, 5], n_total)


def test_values_close_is_false_for_a_value_that_is_not_finite():
    assert values_close(1e308, 1e308) and values_close(8.0, 8.0 + 1e-12)
    for a, b in [(math.inf, 8.0), (8.0, math.inf), (math.inf, math.inf), (-math.inf, 1e308), (math.nan, math.nan)]:
        assert not values_close(a, b), (a, b)


def _scalar_rule(a: float, b: float) -> bool:
    tolerance = max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tolerance


def test_values_close_on_arrays_is_the_scalar_rule_element_by_element():
    edge = [0.0, ABS_TOL, -ABS_TOL, np.nextafter(ABS_TOL, 1.0), 2 * ABS_TOL, 1.0, 1.0 + REL_TOL,
            1.0 + 2 * REL_TOL, 1e308, -1e308, np.finfo(float).max, 5e-324, math.inf, -math.inf, math.nan]
    a, b = (np.array(v) for v in zip(*itertools.product(edge, repeat=2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow and invalid-value warnings included
        close = values_close(a, b)
        scalars = [values_close(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert close.dtype == bool and close.shape == a.shape
    assert close.tolist() == scalars == [_scalar_rule(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert all(type(c) is bool for c in scalars)
    assert close.any() and not close.all()
    assert values_close(a.reshape(15, 15), 1.0).tolist() == [[_scalar_rule(x, 1.0) for x in row]
                                                             for row in a.reshape(15, 15).tolist()]


def test_table_refuses_counts_that_sum_past_the_largest_float():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning included
        with pytest.raises(ShapeError, match="counts sum to inf, declared total is 1e"):
            ps.ContingencyTable(ps.generic_schema(2, 2), [1e308] * 4, 1e308)


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


@pytest.mark.parametrize("name", ["conditional_subtable", "fit_beta", "geometric_mean_subtable"])
def test_marginal_results_are_read_only_arrays(name):
    table = ps.ContingencyTable(ps.generic_schema(3, 2), [2, 3, 4, 5, 6, 7, 8, 9], 44, adjusted=True)
    calls = {
        "conditional_subtable": lambda: ps.conditional_subtable(table, (1,), (0, 1)),
        "fit_beta": lambda: (ps.fit_beta(ps.log_transform(table)),),
        "geometric_mean_subtable": lambda: (ps.geometric_mean_subtable(table, (1,)),),
    }
    for array in calls[name]():
        assert type(array) is np.ndarray and array.shape == {"fit_beta": (2, 2, 2)}.get(name, (2,))
        with pytest.raises(ValueError):
            array[0] = 0


def _array_field(record) -> int | None:
    return next((i for i, v in enumerate(record._values()) if isinstance(v, np.ndarray)), None)


def test_records_holding_arrays_are_frozen():
    def fields(record):
        return record._values() if isinstance(record, Frozen) else record

    holding = {name: record for name, record in _records().items()
               if any(isinstance(v, np.ndarray) for v in fields(record))}
    assert {"ContingencyTable", "LogTable"} <= set(holding)
    for name, record in holding.items():
        assert isinstance(record, Frozen) and not isinstance(record, tuple), name


@pytest.mark.parametrize("name", sorted(
    name for name, record in _records().items()
    if isinstance(record, Frozen) and _array_field(record) is not None
))
def test_frozen_records_compare_array_fields_whole(name):
    record = _records()[name]
    assert pickle.loads(pickle.dumps(record)) == record
    values = list(record._values())
    values[_array_field(record)] = values[_array_field(record)] + 1.0
    other = object.__new__(type(record))
    Frozen.__init__(other, *values)
    assert other != record
    with pytest.raises(TypeError):
        hash(record)


def test_schema_equality_and_hash_survive_json(schema33):
    from psalience import fileio

    loaded = fileio.schema_from_dict(json.loads(json.dumps(fileio.schema_to_dict(schema33))))
    assert loaded == schema33 and hash(loaded) == hash(schema33)
    assert loaded._level_maps  # state derived at construction is no field
    assert loaded == schema33 and hash(loaded) == hash(schema33)
    assert loaded != ps.generic_schema(3, 2)
    assert (loaded == "x") is False and loaded != "x"  # Frozen.__eq__ returns NotImplemented
    assert repr(loaded) == f"AttributeSchema(attributes={schema33.attributes!r})"


def test_frozen_sets_its_fields_in_slot_order_and_counts_them():
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
    assert copy == table
    spec = ps.LimitSpec("order_limit", k_dagger=2, round_counts=True)
    assert pickle.loads(pickle.dumps(spec)) == spec


def test_schema_pickle_rebuilds_its_level_maps():
    schema = ps.AttributeSchema((("region", ("north", "south", "east")), ("band", ("lo", "mid", "hi"))))
    copy = pickle.loads(pickle.dumps(schema))
    assert copy == schema and copy._level_maps == schema._level_maps
    assert _record_rank(("south", "mid"), copy, "record 1", 1) == 4


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


@pytest.mark.parametrize("counts, n_total, message", [
    (["10", "20", "30", "40"], "100", "counts must be numbers, got str values"),
    ([True, True, True, True], 4, "counts must be numbers, got bool values"),
    ([10, None, 30, 40], 80, "counts must be numbers, got NoneType values"),
    ([10, 20, 30, 40], "100", "n_total must be a number, got '100'"),
    ([10, 20, 30, 40], True, "n_total must be a number, got True"),
    ([True, 20, 30, 49], 100, "counts must be numbers, got bool values"),
    ({"a": 1}, 1, "counts must be an array, got dict"),
    ([10 ** 400, 20, 30, 40], 100, "counts and n_total must fit a float64"),
    pytest.param([10, 20, 30, 40], 10 ** 400, "counts and n_total must fit a float64", id="n_total-1e400"),
])
def test_table_file_refuses_counts_and_totals_that_are_not_numbers(counts, n_total, message):
    from psalience import fileio

    table = {"schema": _schema_file(("a", ["x", "y"]), ("b", ["u", "v"])),
             "counts": counts, "n_total": n_total, "adjusted": True}
    with pytest.raises(ShapeError, match=re.escape(message)):
        fileio.table_from_dict(table)
    table.update(counts=[10, 20.0, 30, 40], n_total=100)
    loaded = fileio.table_from_dict(table)
    assert loaded.counts.tolist() == [10.0, 20.0, 30.0, 40.0] and loaded.n_total == 100.0


@pytest.mark.parametrize("value", [1.9, True, "1"])
def test_integer_arguments_refuse_floats_booleans_and_strings(schema32, value):
    table = ps.ContingencyTable(schema32, np.arange(1.0, 9.0), 36.0, adjusted=True)
    calls = [
        (ArgumentError, lambda: ps.conditional_subtable(table, (1, 0), (value,))),
        (ArgumentError, lambda: ps.raw_column((1,), (value,), schema32)),
        (ArgumentError, lambda: ps.ortho_column((1,), (value,), schema32)),
        (ArgumentError, lambda: ps.random_adjusted_table(schema32, np.random.default_rng(0), n_total=value)),
        (ArgumentError, lambda: ps.hypercube_psi(value, 4)),
        (ArgumentError, lambda: ps.hypercube_psi(1, value)),
        (ArgumentError, lambda: ps.run_verification(2, 2, trials=value)),
        (ArgumentError, lambda: ps.run_verification(2, 2, seed=value)),
    ]
    for error, call in calls:
        with pytest.raises(error, match=f"must be an integer, got {re.escape(repr(value))}"):
            call()

