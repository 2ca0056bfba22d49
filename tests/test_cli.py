import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import psalience as ps
from psalience import cli, fileio, verify
from psalience.basis import subset_index
from psalience.cli import main
from psalience.schema import tally_records
from psalience.synthetic import correlated_pair_table, planted_interaction_table, random_adjusted_table


SCHEMA = {
    "attributes": [
        {"name": "region", "levels": ["north", "south"]},
        {"name": "band", "levels": ["lo", "hi"]},
    ]
}


def write_schema(path):
    fileio.atomic_write_json(path, SCHEMA)
    return str(path)


def write_csv(path, rows):
    path.write_text("\n".join(["region,band"] + rows) + "\n", encoding="utf-8")
    return str(path)


# -------------------------------------------------------------- tabulate

def test_tabulate_writes_adjusted_table(tmp_path):
    schema_path = write_schema(tmp_path / "schema.json")
    csv_path = write_csv(
        tmp_path / "micro.csv",
        ["north,lo"] * 3 + ["south,hi"] * 4 + ["north,hi"],
    )
    out = tmp_path / "table.json"
    assert main(["tabulate", "--schema", schema_path, "--input", csv_path, "--out", str(out)]) == 0
    table = fileio.load_table(out)
    assert table.adjusted
    assert math.isclose(table.counts.sum(), 8.0, rel_tol=1e-12)
    assert table.n_total == 8.0


def test_tabulate_unknown_label_names_row_and_attribute(tmp_path, capsys):
    schema_path = write_schema(tmp_path / "schema.json")
    rows = ["north,lo"] * 5 + ["north,mid"] + ["south,hi"]  # bad value on file row 7
    csv_path = write_csv(tmp_path / "micro.csv", rows)
    code = main(["tabulate", "--schema", schema_path, "--input", csv_path,
                 "--out", str(tmp_path / "t.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert "row 7" in err
    assert "band" in err


def test_tabulate_empty_csv_body(tmp_path, capsys):
    schema_path = write_schema(tmp_path / "schema.json")
    for body in ([], ["", ""]):  # header only; blank lines only
        csv_path = write_csv(tmp_path / "micro.csv", body)
        code = main(["tabulate", "--schema", schema_path, "--input", csv_path,
                     "--out", str(tmp_path / "t.json")])
        assert code == 3
        assert f"{csv_path}: no records after the header row" in capsys.readouterr().err


def test_tabulate_empty_csv_file(tmp_path, capsys):
    csv_path = tmp_path / "micro.csv"
    csv_path.write_bytes(b"")
    assert main(["tabulate", "--schema", write_schema(tmp_path / "schema.json"), "--input", str(csv_path),
                 "--out", str(tmp_path / "t.json")]) == 3
    assert capsys.readouterr().err == f"error: {csv_path}: file is empty, expected a header row\n"
    assert not (tmp_path / "t.json").exists()


def test_tabulate_missing_file(tmp_path):
    schema_path = write_schema(tmp_path / "schema.json")
    code = main(["tabulate", "--schema", schema_path, "--input", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "t.json")])
    assert code == 3


def test_tabulate_accepts_a_utf8_byte_order_mark(tmp_path):
    schema_path = write_schema(tmp_path / "schema.json")
    text = "band,region\nlo,north\nhi,south\nlo,south\nhi,north\nlo,north\n"
    outputs = []
    for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
        csv_path = tmp_path / f"{name}.csv"
        csv_path.write_text(text, encoding=encoding)
        outputs.append(tmp_path / f"{name}.json")
        assert main(["tabulate", "--schema", schema_path, "--input", str(csv_path),
                     "--out", str(outputs[-1])]) == 0
    assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


def test_tabulate_header_reordering(tmp_path):
    schema_path = write_schema(tmp_path / "schema.json")
    csv_path = tmp_path / "micro.csv"
    csv_path.write_text("band,region\nlo,north\nhi,south\nlo,north\nhi,north\nlo,south\n",
                        encoding="utf-8")
    out = tmp_path / "table.json"
    assert main(["tabulate", "--schema", schema_path, "--input", str(csv_path),
                 "--out", str(out)]) == 0
    table = fileio.load_table(out)
    assert table.n_total == 5.0


def test_tabulate_reports_first_offending_row(tmp_path, capsys):
    schema_path = write_schema(tmp_path / "schema.json")
    # unknown label on file row 3, wrong field count on file row 5
    csv_path = write_csv(tmp_path / "micro.csv", ["north,lo", "north,mid", "south,hi", "north"])
    code = main(["tabulate", "--schema", schema_path, "--input", csv_path,
                 "--out", str(tmp_path / "t.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert "row 3" in err and "band" in err
    assert "row 5" not in err


def test_tabulate_blank_lines_skipped_but_counted(tmp_path, capsys):
    schema_path = write_schema(tmp_path / "schema.json")
    out = tmp_path / "t.json"
    good = write_csv(tmp_path / "good.csv",
                     ["north,lo", "", "south,hi", "", "", "north,lo", "south,lo", "north,hi"])
    assert main(["tabulate", "--schema", schema_path, "--input", good, "--out", str(out)]) == 0
    assert fileio.load_table(out).n_total == 5.0
    # header, north,lo, blank, south,hi, blank, then the bad row is file row 6
    bad = write_csv(tmp_path / "bad.csv", ["north,lo", "", "south,hi", "", "north,mid"])
    assert main(["tabulate", "--schema", schema_path, "--input", bad, "--out", str(out)]) == 3
    assert "row 6" in capsys.readouterr().err


def test_tabulate_refuses_oversized_schema_before_reading(tmp_path, capsys):
    names = [f"f{i}" for i in range(48)]
    schema = {"attributes": [{"name": name, "levels": ["0", "1"]} for name in names]}
    schema_path = tmp_path / "schema.json"
    fileio.atomic_write_json(schema_path, schema)
    csv_path = tmp_path / "micro.csv"
    csv_path.write_text(",".join(names) + "\n" + ",".join(["0"] * 48) + "\n", encoding="utf-8")
    out = tmp_path / "t.json"
    code = main(["tabulate", "--schema", str(schema_path), "--input", str(csv_path),
                 "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "M**N = 2**48" in err and "2**24" in err
    assert not out.exists()


def test_tabulate_refuses_a_padded_schema_label(tmp_path, capsys):
    """The CSV readers strip labels, so a padded schema label could never match;
    integer labels still read as their decimal strings."""
    def tabulate(levels, row):
        fileio.atomic_write_json(tmp_path / "schema.json", {"attributes": [
            {"name": "a", "levels": levels}, {"name": "b", "levels": ["u", "v"]}]})
        (tmp_path / "micro.csv").write_text("a,b\n" + f"{row}\n" * 5, encoding="utf-8")
        return main(["tabulate", "--schema", str(tmp_path / "schema.json"),
                     "--input", str(tmp_path / "micro.csv"), "--out", str(tmp_path / "t.json")])

    assert tabulate([" x", "y"], " x,u") == 3
    assert "level of attribute 'a' ' x' has leading or trailing whitespace" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()
    assert tabulate([0, 1], "0,u") == 0
    assert fileio.load_table(tmp_path / "t.json").schema.attributes == (("a", ("0", "1")), ("b", ("u", "v")))


def test_schema_cell_limit_is_inclusive():
    def schema(n):
        return {"attributes": [{"name": f"f{i}", "levels": ["a", "b"]} for i in range(n)]}

    assert fileio.schema_from_dict(schema(24)).n_cells == fileio.MAX_CELLS == 2**24
    with pytest.raises(ps.SchemaError):
        fileio.schema_from_dict(schema(25))


def test_tabulate_memory_is_bounded_by_distinct_rows(tmp_path):
    """50 000 rows over 729 cells: ingestion must not hold the rows."""
    names = [f"f{i}" for i in range(6)]
    schema = {"attributes": [{"name": name, "levels": ["x", "y", "z"]} for name in names]}
    schema_path = tmp_path / "schema.json"
    fileio.atomic_write_json(schema_path, schema)
    codes = np.random.default_rng(7).integers(0, 3, size=(50_000, 6))
    letters = np.array(["x", "y", "z"])
    lines = [",".join(row) for row in letters[codes].tolist()]
    csv_path = tmp_path / "micro.csv"
    csv_path.write_text(",".join(names) + "\n" + "\n".join(lines) + "\n", encoding="utf-8")
    del codes, lines
    out = tmp_path / "t.json"
    tracemalloc.start()
    try:
        code = main(["tabulate", "--schema", str(schema_path), "--input", str(csv_path),
                     "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert fileio.load_table(out).n_total == 50_000.0
    assert peak < 2 * 2**20, f"tabulate peak {peak / 2**20:.2f} MiB"


# Labels with commas, quotes and inner spaces; CSV whitespace is stripped,
# so a label never starts or ends with a space.
LABELS = st.text(alphabet='ab," ', min_size=1, max_size=4).filter(lambda s: s == s.strip())


@st.composite
def microdata(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, 3))
    levels = [draw(st.lists(LABELS, min_size=m, max_size=m, unique=True)) for _ in range(n)]
    schema = ps.AttributeSchema(tuple((f"attr{p}", tuple(levels[p])) for p in range(n)))
    records = draw(st.lists(st.tuples(*[st.sampled_from(levels[p]) for p in range(n)]),
                            min_size=1, max_size=30))
    order = draw(st.permutations(range(n)))
    return schema, records, order


def csv_field(draw, text):
    pad = " " * draw(st.integers(0, 2)), " " * draw(st.integers(0, 2))
    if ("," in text or '"' in text) or draw(st.booleans()):
        return '"' + pad[0] + text.replace('"', '""') + pad[1] + '"'
    return pad[0] + text + pad[1]


@given(data=st.data(), case=microdata())
def test_csv_ingestion_equals_tabulate(tmp_path_factory, data, case):
    schema, records, order = case
    lines = [",".join(csv_field(data.draw, schema.names[p]) for p in order)]
    rows = []
    for record in records:
        while data.draw(st.booleans()):
            lines.append("")  # blank line: skipped, but it takes a row number
        lines.append(",".join(csv_field(data.draw, record[p]) for p in order))
        rows.append(len(lines))
    path = tmp_path_factory.mktemp("csv") / "micro.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    read = list(fileio.read_microdata(path, schema))
    assert [row for row, _ in read] == rows
    assert [labels for _, labels in read] == records
    from_csv = ps.tabulate((labels for _, labels in read), schema)
    direct = ps.tabulate(records, schema)
    assert np.array_equal(from_csv.counts, direct.counts)
    assert from_csv.n_total == direct.n_total == len(records)


# Labels as above plus inner newlines, which make a record span lines.
MULTILINE_LABELS = st.text(alphabet='ab,"\n ', min_size=1, max_size=4).filter(lambda s: s == s.strip())


def quoted_field(draw, text):
    if "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return csv_field(draw, text)


@st.composite
def messy_microdata(draw):
    """A CSV and its schema; at most one flawed line, so both outcomes are common."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, 3))
    levels = [draw(st.lists(MULTILINE_LABELS, min_size=m, max_size=m, unique=True))
              for _ in range(n)]
    schema = ps.AttributeSchema(tuple((f"attr{p}", tuple(levels[p])) for p in range(n)))
    order = draw(st.permutations(range(n)))
    record = st.tuples(*[st.sampled_from(levels[p]) for p in order])  # labels in file order
    lines = [",".join(csv_field(draw, schema.names[p]) for p in order)]
    for fields in draw(st.lists(record, max_size=20)):
        lines.extend([""] * draw(st.integers(0, 2)))  # blank lines: skipped, but numbered
        lines.append(",".join(quoted_field(draw, f) for f in fields))
    if draw(st.booleans()):
        flaw = draw(st.sampled_from(["unknown label", "extra field", "missing field",
                                     "whitespace"]))
        fields = list(draw(record))
        if flaw == "unknown label":
            fields[draw(st.integers(0, n - 1))] = "zz"
        elif flaw == "extra field":
            fields.append(fields[0])
        elif flaw == "missing field":
            fields.pop()
        line = " " * draw(st.integers(1, 2)) if flaw == "whitespace" else ",".join(
            quoted_field(draw, f) for f in fields)
        lines.insert(draw(st.integers(1, len(lines))), line)
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # no final newline
    return schema, "".join(line + end for line, end in zip(lines, ends))


def ingestion_outcome(count_file):
    try:
        return count_file()
    except ps.IngestionError as exc:
        return "error", str(exc)


def record_counts(path, schema):
    """What :func:`fileio.count_microdata` must return: the record path's tally."""
    return tally_records((labels for _, labels in fileio.read_microdata(path, schema)), schema)


@given(case=messy_microdata())
def test_tabulate_microdata_agrees_with_record_path(tmp_path_factory, case):
    schema, text = case
    path = tmp_path_factory.mktemp("csv") / "micro.csv"
    path.write_bytes(text.encode("utf-8"))
    fast = ingestion_outcome(lambda: fileio.count_microdata(path, schema))
    assert fast == ingestion_outcome(lambda: record_counts(path, schema))


@given(case=messy_microdata())
def test_cli_tabulate_writes_what_the_library_saves(tmp_path_factory, case):
    """The CLI writes its table from the plain-Python tally, the library from a
    ``ContingencyTable``: the same bytes, or the same error line."""
    schema, text = case
    root = tmp_path_factory.mktemp("csv")
    path = root / "micro.csv"
    path.write_bytes(text.encode("utf-8"))
    fileio.atomic_write_json(root / "schema.json", fileio.schema_to_dict(schema))
    try:
        table = ps.ContingencyTable(schema, *fileio.count_microdata(path, schema))
        fileio.save_table(root / "library.json", ps.zero_adjust(table))
        expected = (0, (root / "library.json").read_bytes(), "")
    except ps.SalienceError as exc:
        expected = (3, None, f"error: {exc}\n")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["tabulate", "--schema", str(root / "schema.json"), "--input", str(path),
                     "--out", str(root / "cli.json")])
    written = (root / "cli.json").read_bytes() if (root / "cli.json").exists() else None
    assert (code, written, err.getvalue()) == expected


def test_tabulate_clean_csv_never_walks_records(tmp_path, monkeypatch):
    schema = fileio.schema_from_dict(SCHEMA)
    schema_path = write_schema(tmp_path / "schema.json")
    csv_path = tmp_path / "micro.csv"
    csv_path.write_bytes(b'band,region\r\n lo ,"north"\r\n\r\nhi,south\nlo,north\n'
                         b'hi,north\n"lo",south\n"hi", north')
    records = ps.tabulate((labels for _, labels in fileio.read_microdata(csv_path, schema)), schema)
    fileio.save_table(tmp_path / "records.json", ps.zero_adjust(records))

    def refuse(*_args, **_kwargs):
        raise AssertionError("a clean CSV went through the record path")

    monkeypatch.setattr(fileio, "read_microdata", refuse)
    monkeypatch.setattr(cli, "read_microdata", refuse, raising=False)  # no CLI-side binding either
    assert main(["tabulate", "--schema", schema_path, "--input", str(csv_path),
                 "--out", str(tmp_path / "fast.json")]) == 0
    assert (tmp_path / "fast.json").read_bytes() == (tmp_path / "records.json").read_bytes()
    assert fileio.load_table(tmp_path / "fast.json").n_total == 6.0


def test_bom_and_crlf_are_counted_by_the_batched_path(tmp_path, monkeypatch):
    schema = fileio.schema_from_dict(SCHEMA)
    csv_path = tmp_path / "micro.csv"
    csv_path.write_bytes(b"\xef\xbb\xbfband,region\r\nlo,north\r\nhi,south\r\n\r\nlo,north\r\n")
    monkeypatch.setattr(fileio, "read_microdata", None)  # the batches alone must count it
    expected = tally_records([("north", "lo"), ("south", "hi"), ("north", "lo")], schema)
    assert fileio.count_microdata(csv_path, schema) == expected
    assert expected[1] == 3


def test_header_name_quoted_across_lines_is_refused_as_the_record_path_refuses_it(tmp_path):
    # read alone, the first line's unterminated quote would give the name "a",
    # and the header's second line would then count as a record
    schema = ps.AttributeSchema((("a", ('x"', "y")),))
    csv_path = tmp_path / "micro.csv"
    csv_path.write_text('"a\nx"\ny\n', encoding="utf-8")
    with pytest.raises(ps.IngestionError, match="does not match schema attributes"):
        fileio.count_microdata(csv_path, schema)


@pytest.mark.parametrize("text, row", [
    (b"region,band\nnorth,lo\nsouth,hi\nnorth,lo\nsouth,h\xffi\nnorth,lo\n", 5),
    (b"region,b\xe9nd\nnorth,lo\n", 1),  # Latin-1, not UTF-8
    (b'region,band\r\nnorth,lo\r\n"south\r\n\xed\xa0\x80",hi\r\n', 3),  # an encoded surrogate
])
def test_invalid_utf8_names_its_row(tmp_path, text, row):
    schema = fileio.schema_from_dict(SCHEMA)
    csv_path = tmp_path / "micro.csv"
    csv_path.write_bytes(text)
    with pytest.raises(ps.IngestionError, match=f"row {row} is not valid UTF-8") as info:
        fileio.count_microdata(csv_path, schema)
    assert info.value.record_number == row


@pytest.mark.parametrize("levels, records, text", [
    ((("north\nside", "south"), ("lo", 'h"i')),
     [("north\nside", "lo"), ("south", 'h"i'), ("north\nside", "lo"), ("south", "lo")],
     'place,band\n"north\nside",lo\nsouth,"h""i"\n"north\nside",lo\nsouth,lo\n'),
    # each line of the record "a\nb" also reads as a valid record on its own
    ((("a", 'b"', "a\nb"),), [("a\nb",), ("a",)], 'place\n"a\nb"\na\n'),
])
def test_tabulate_microdata_reads_multiline_quoted_labels(tmp_path, levels, records, text):
    schema = ps.AttributeSchema(tuple(zip(("place", "band"), levels)))
    csv_path = tmp_path / "micro.csv"
    csv_path.write_text(text, encoding="utf-8")
    counts, n_total = fileio.count_microdata(csv_path, schema)
    assert (counts, n_total) == tally_records(records, schema)
    assert n_total == len(records)


@pytest.mark.parametrize("text, clean", [
    # four batches of at most two distinct lines, two of them with a blank line
    ('place,band\na,x\nb,x\n\na,y\nb,y\na,x\n\r\nb,z\n', True),
    # every blank form CSV reads as no record, a final lone carriage return included
    ('place,band\na,x\n\r\r\nb,x\n\na,y\n\r\nb,y\na,x\n\r', True),
    # the record "a\nb" opens on the last line of the first batch
    ('place,band\na,x\n"a\nb",y\nb,y\n"a\nb",y\n', False),
])
def test_batches_equal_the_record_path(tmp_path, monkeypatch, text, clean):
    schema = ps.AttributeSchema((("place", ("a", "b", "a\nb")), ("band", ("x", "y", "z"))))
    csv_path = tmp_path / "micro.csv"
    csv_path.write_text(text, encoding="utf-8")
    records = record_counts(csv_path, schema)
    monkeypatch.setattr(fileio, "BATCH_LINES", 2)
    if clean:
        monkeypatch.setattr(fileio, "read_microdata", None)  # the batches alone must count it
    assert fileio.count_microdata(csv_path, schema) == records


def test_tabulate_peak_memory_with_many_distinct_lines(tmp_path):
    """60 000 rows, 37 606 of them distinct, over 3**10 cells: batching keeps
    one batch of parsed rows beside the distinct lines, never all of them."""
    names = [f"f{i}" for i in range(10)]
    schema = fileio.schema_from_dict(
        {"attributes": [{"name": name, "levels": ["x", "y", "z"]} for name in names]})
    codes = np.random.default_rng(11).integers(0, 3, size=(60_000, 10))
    lines = [",".join(row) for row in np.array(["x", "y", "z"])[codes].tolist()]
    assert len(set(lines)) == 37_606
    csv_path = tmp_path / "micro.csv"
    csv_path.write_text(",".join(names) + "\n" + "\n".join(lines) + "\n", encoding="utf-8")
    del codes, lines
    tracemalloc.start()
    try:
        table = ps.ContingencyTable(schema, *fileio.count_microdata(csv_path, schema))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.n_total == 60_000.0
    assert peak <= 6.2 * 2**20, f"tabulate peak {peak / 2**20:.2f} MiB"


def test_tabulate_overlong_field_is_data_error(tmp_path, capsys):
    schema_path = write_schema(tmp_path / "schema.json")
    csv_path = tmp_path / "micro.csv"
    # a quoted field above csv.field_size_limit() (131072 characters) on file row 3
    csv_path.write_text('region,band\nnorth,lo\nnorth,"' + "x" * 200_000 + '"\n', encoding="utf-8")
    code = main(["tabulate", "--schema", schema_path, "--input", str(csv_path),
                 "--out", str(tmp_path / "t.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert "row 3" in err and "field limit" in err


# ------------------------------------------------------------------ scan

def save_table(tmp_path, table, name="table.json"):
    path = tmp_path / name
    fileio.save_table(path, table)
    return str(path)


def test_scan_uniform_all_green(tmp_path):
    schema = ps.generic_schema(3, 3)
    table = ps.ContingencyTable(schema, np.full(27, 2.0), 54.0, adjusted=True)
    table_path = save_table(tmp_path, table)
    out = tmp_path / "report.json"
    assert main(["scan", "--table", table_path, "--k", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    bands = report["warning_bands"]
    classes = {fileio.classify_warning(e["Psi"], bands["amber"], bands["red"]) for e in report["entries"]}
    assert classes == {"green"}
    assert all(e["Psi"] == 0.0 for e in report["entries"])
    assert bands["note"] == "configuration, not derived from any reference"


def test_scan_file_holds_each_score_once(tmp_path, rng):
    """Names are written once, attribute N-1 first; a row holds only its own numbers."""
    schema = ps.AttributeSchema([("age", ("y", "o")), ("sex", ("f", "m")),
                                 ("zip", ("1", "2")), ("job", ("a", "b"))])
    table = random_adjusted_table(schema, rng)
    out = tmp_path / "report.json"
    assert main(["scan", "--table", save_table(tmp_path, table), "--k", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert list(report) == ["kind", "k", "attribute_names", "warning_bands", "entries"]
    assert report["attribute_names"] == ["age", "sex", "zip", "job"]
    assert len(report["entries"]) == 6
    for row, entry in zip(report["entries"], ps.scan(table, 2).entries):
        assert list(row) == ["subset", "Psi", "chi_magnitude", "log_norm", "rank"]
        assert [report["attribute_names"][3 - a] for a in row["subset"]] == list(
            map(schema.attribute_name, entry.subset))


def test_scan_writes_and_prints_without_a_record_per_subset(tmp_path, capsys, monkeypatch):
    """The file's rows and the top-ten printout come from the report's arrays."""
    table = random_adjusted_table(ps.generic_schema(6, 2), np.random.default_rng(7))
    argv = ["scan", "--table", save_table(tmp_path, table), "--k", "2", "--out", str(tmp_path / "scan.json")]
    runs = []
    for patched in (False, True):
        if patched:
            def refuse(*args):
                raise AssertionError("scan built a per-subset record")

            monkeypatch.setattr(ps.salience, "ScanEntry", refuse)
            monkeypatch.setattr(ps.salience, "SalienceValue", refuse)
        assert main(argv) == 0
        runs.append(((tmp_path / "scan.json").read_bytes(), capsys.readouterr()))
    assert runs[0] == runs[1]
    lines = runs[1][1].out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == [f"#{r}" for r in range(1, 11)]
    assert lines[-1] == f"scan k=2: 15 subsets -> {tmp_path / 'scan.json'}"


def test_scan_and_its_file_rows_peak_memory():
    """Seed-7 (16,2), k=8: 12 870 rows, read from the report's arrays.  Building a
    record per subset first peaked at 6.77 MiB; the arrays peak at 5.90 MiB."""
    table = random_adjusted_table(ps.generic_schema(16, 2), np.random.default_rng(7))
    ps.scan(table, 1)  # first-call costs stay out of the measurement
    tracemalloc.start()
    try:
        payload = fileio.report_to_dict(ps.scan(table, 8), table.schema, 0.5, 0.8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(payload["entries"]) == 12_870
    assert peak <= 6.3 * 2**20, f"scan and rows peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("argv, message", [
    (["scan", "--k", "1", "--workers", "0"], "argument --workers: '0' is not at least 1"),
    (["scan", "--k", "1", "--threshold", "1.5"], "argument --threshold: '1.5' is not a decimal number in [0, 1]"),
    (["depersonalize"], "one of the arguments --max-order --zero is required"),
    (["analyze", "--subset", "a,b"], "argument --subset: 'a' is not an integer"),
    (["depersonalize", "--zero", "1,x"], "argument --zero: 'x' is not an integer"),
    (["depersonalize", "--max-order", "1", "--zero", "1"], "argument --zero: not allowed with argument --max-order"),
    (["scan", "--k", "1", "--out", "{dir}"], "argument --out: '{dir}' is a directory"),
    (["analyze", "--subset", "1", "--out", "{dir}"], "argument --out: '{dir}' is a directory"),
    (["depersonalize", "--max-order", "1", "--out", "{dir}"], "argument --out: '{dir}' is a directory"),
    (["depersonalize", "--max-order", "1", "--out", "{release}"],
     "argument --out: '{release}' writes its audit to '{dir}', a directory"),
], ids=[  # each names the rule its case breaks
    "argv0-workers must be at least 1", "argv1-threshold must lie in [0, 1]",
    "argv2-choose exactly one of --max-order or --zero",
    "argv3-subset 'a,b' is not a comma-separated list of integers",
    "argv4-subset '1,x' is not a comma-separated list of integers", "argv5-not both --max-order and --zero",
    "argv6-scan --out must not be a directory", "argv7-analyze --out must not be a directory",
    "argv8-depersonalize --out must not be a directory",
    "argv9-depersonalize --out must not put its audit on a directory",
])
def test_cli_usage_errors_are_refused_before_the_table_is_read(tmp_path, monkeypatch, capsys, argv, message):
    """Each rule the command line owns is argparse's: its usage, then one error line.
    An existing directory as ``--out`` was written to only after the command ran
    (exit 3), and ``depersonalize`` had already written ``<dir>.audit.json``; one
    as the release's audit path failed the same way after the whole release ran."""
    def refuse(path):
        raise AssertionError("the table was read")

    monkeypatch.setattr(fileio, "load_table", refuse)
    out, directory = tmp_path / "out.json", tmp_path / "r.audit.json"
    directory.mkdir()
    paths = {"dir": directory, "release": tmp_path / "r.json"}
    argv, message = [arg.format(**paths) for arg in argv], message.format(**paths)
    missing = str(tmp_path / "missing.json")
    outputs = [] if "--out" in argv else ["--out", str(out)]
    assert main([argv[0], "--table", missing, *argv[1:], *outputs]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: psalience {argv[0]} ") and err.count("error:") == 1, err
    assert err.endswith(f"\npsalience {argv[0]}: error: {message}\n"), err
    assert sorted(tmp_path.iterdir()) == [directory] and not any(directory.iterdir())


@pytest.mark.parametrize("parent", ["nodir", "table.json"], ids=["missing", "file"])
@pytest.mark.parametrize("argv", [
    ["tabulate", "--schema", "{schema}", "--input", "{micro}"],
    ["scan", "--table", "{table}", "--k", "1"],
    ["analyze", "--table", "{table}", "--subset", "1"],
    ["depersonalize", "--table", "{table}", "--max-order", "1"],
], ids=["tabulate", "scan", "analyze", "depersonalize"])
def test_out_whose_directory_is_not_one_is_refused_before_any_input_is_read(
        tmp_path, monkeypatch, capsys, argv, parent):
    """An ``--out`` in a missing directory, or under a file, was refused only by the
    write after the command ran (exit 3); a release's audit file sits beside it."""
    paths = {
        "schema": write_schema(tmp_path / "schema.json"),
        "micro": write_csv(tmp_path / "micro.csv", ["north,lo", "south,hi"]),
        "table": save_table(tmp_path, random_adjusted_table(ps.generic_schema(2, 2), np.random.default_rng(3))),
    }
    before = {name: (tmp_path / name).read_bytes() for name in sorted(os.listdir(tmp_path))}

    def refuse(*args):
        raise AssertionError("an input was read")

    monkeypatch.setattr(fileio, "_load_json", refuse)
    monkeypatch.setattr(fileio, "count_microdata", refuse)
    directory = str(tmp_path / parent)
    out = os.path.join(directory, "r.json")
    assert main([*(arg.format(**paths) for arg in argv), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: psalience {argv[0]} ") and err.count("error:") == 1, err
    assert err.endswith(f"\npsalience {argv[0]}: error: argument --out: "
                        f"{out!r} is in {directory!r}, which is not a directory\n"), err
    assert {name: (tmp_path / name).read_bytes() for name in sorted(os.listdir(tmp_path))} == before


@pytest.mark.parametrize("threshold", ["0.0_5", "\u0660.\u0665", " 0.5", "-0", "-0.0"],
                         ids=["underscore", "arabic-indic", "space", "minus-zero", "minus-zero-point-zero"])
def test_threshold_is_ascii_decimal_text_before_any_input_is_read(tmp_path, monkeypatch, capsys, threshold):
    """``float`` read ``--threshold 0.0_5`` as 0.05 and ran the scan with that amber band, and
    ``-0`` passed the range check and was written as an amber boundary of ``-0.0``."""
    monkeypatch.setattr(fileio, "load_table", lambda path: pytest.fail("the table was read"))
    out = tmp_path / "out.json"
    assert main(["scan", "--table", str(tmp_path / "missing.json"), "--k", "1",
                 "--threshold", threshold, "--out", str(out)]) == 2
    assert "is not a decimal number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["depersonalize", "--table", "{missing}", "--max-order", "1", "--out", ""],
    ["depersonalize", "--table", "{missing}", "--max-order", "1", "--out", "."],
    ["depersonalize", "--table", "{missing}", "--zero", "1", "--out", "{tmp}/"],
    ["scan", "--table", "{missing}", "--k", "1", "--out", ""],
    ["analyze", "--table", "{missing}", "--subset", "1", "--out", "{tmp}/.."],
    ["tabulate", "--schema", "{missing}", "--input", "{missing}", "--out", "/"],
])
def test_an_out_that_names_no_file_is_refused_before_any_input_is_read(tmp_path, monkeypatch, capsys, argv):
    """``Path.with_suffix`` raised a ``ValueError`` traceback (exit 1) for an empty or
    ``.`` release path, and ``scan --out ""`` ran the scan, then failed to write ``.``."""
    monkeypatch.setattr(fileio, "load_table", lambda path: pytest.fail("the table was read"))
    argv = [arg.format(missing=tmp_path / "missing.json", tmp=tmp_path) for arg in argv]
    assert main(argv) == 2
    assert "names no file" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["analyze", "--table", "{missing}", "--subset", "1_0", "--out", "{out}"],
    ["analyze", "--table", "{missing}", "--subset", "\u0661,\u0660", "--out", "{out}"],
    ["scan", "--table", "{missing}", "--k", "\u0661", "--out", "{out}"],
    ["scan", "--table", "{missing}", "--k", "+1", "--out", "{out}"],
    ["scan", "--table", "{missing}", "--k", " 1", "--out", "{out}"],
    ["scan", "--table", "{missing}", "--k", "1", "--workers", "1_0", "--out", "{out}"],
    ["depersonalize", "--table", "{missing}", "--max-order", "\uff11", "--out", "{out}"],
    ["depersonalize", "--table", "{missing}", "--zero", "1,\u0660", "--out", "{out}"],
    # verify reads no file, so only the refusal stops it from running
    ["verify", "--n", "\u0663", "--m", "2", "--trials", "1"],
], ids=["subset-underscore", "subset-arabic-indic", "k-arabic-indic", "k-plus", "k-space", "workers-underscore",
        "max-order-fullwidth", "zero-arabic-indic", "verify-n-arabic-indic"])
def test_integer_arguments_are_ascii_digits_before_any_input_is_read(tmp_path, monkeypatch, capsys, argv):
    """``int`` read ``--subset 1_0`` as attribute 10 and ``--k \u0661`` as 1."""
    monkeypatch.setattr(fileio, "load_table", lambda path: pytest.fail("the table was read"))
    out = tmp_path / "out.json"
    assert main([arg.format(missing=tmp_path / "missing.json", out=out) for arg in argv]) == 2
    assert "is not" in capsys.readouterr().err
    assert not out.exists()


def test_scan_planted_pair_red_and_first(tmp_path, capsys):
    schema = ps.generic_schema(4, 3)
    table = correlated_pair_table(schema, (2, 0), weight=60.0)
    out = tmp_path / "report.json"
    assert main(["scan", "--table", save_table(tmp_path, table), "--k", "2",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    top = min(report["entries"], key=lambda e: e["rank"])
    assert top["subset"] == [2, 0]
    assert math.isclose(top["Psi"], math.sqrt(2 / 3), rel_tol=1e-9)
    # the printed rows name and classify each subset; the file leaves both to its readers
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 7 and printed[0].split()[:2] == ["#1", "a2:a0"] and printed[0].endswith("[red]")
    assert all(line.endswith("[green]") for line in printed[1:6])


def test_scan_threshold_moves_amber_band(tmp_path, capsys):
    schema = ps.generic_schema(5, 3)
    table = planted_interaction_table(schema, (3, 1), strength=4.0)
    out = tmp_path / "report.json"
    assert main(["scan", "--table", save_table(tmp_path, table), "--k", "2",
                 "--threshold", "0.2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    top = min(report["entries"], key=lambda e: e["rank"])
    assert top["subset"] == [3, 1]
    assert report["warning_bands"]["amber"] == 0.2 and report["warning_bands"]["red"] == 0.8
    # 0.707 is above 0.2 but below red 0.8
    assert fileio.classify_warning(top["Psi"], 0.2, 0.8) == "amber"
    assert capsys.readouterr().out.splitlines()[0].endswith("[amber]")


def test_scan_k_out_of_range_is_usage_error(tmp_path, rng):
    table = random_adjusted_table(ps.generic_schema(3, 2), rng)
    code = main(["scan", "--table", save_table(tmp_path, table), "--k", "3",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2


@pytest.mark.parametrize("k", ["1", "0"])
def test_scan_of_a_one_attribute_table_says_why_it_is_refused(tmp_path, rng, capsys, k):
    """The refusal read ``subset size 1 out of range [1, 0]``, an empty range without its cause."""
    table = random_adjusted_table(ps.generic_schema(1, 3), rng)
    out = tmp_path / "r.json"
    assert main(["scan", "--table", save_table(tmp_path, table), "--k", k, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: a table with one attribute has no subset size from 1 to N-1 to scan\n"
    assert not out.exists()


def test_scan_rejects_unadjusted_table(tmp_path):
    schema = ps.generic_schema(2, 2)
    raw = ps.ContingencyTable(schema, [5, 1, 1, 1], 8.0)
    code = main(["scan", "--table", save_table(tmp_path, raw), "--k", "1",
                 "--out", str(tmp_path / "r.json")])
    assert code == 3


# --------------------------------------------------------------- analyze

def test_analyze_uniform_tie_breaks_to_first_combo(tmp_path):
    schema = ps.generic_schema(3, 2)
    table = ps.ContingencyTable(schema, np.full(8, 3.0), 24.0, adjusted=True)
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--table", save_table(tmp_path, table), "--subset", "1,0",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["Psi"] == 0.0
    assert len(payload["histogram"]) == 2
    assert payload["closest_to_gm"] == 0
    assert payload["histogram"][0]["conditioning"] == [0]


def test_analyze_identifies_spiked_slice(tmp_path):
    schema = ps.generic_schema(3, 3)
    counts = np.ones(27)
    counts[np.ravel_multi_index((0, 2, 0), (3,) * 3)] = 40.0
    table = ps.ContingencyTable(schema, counts, float(counts.sum()), adjusted=True)
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--table", save_table(tmp_path, table), "--subset", "2,0",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["histogram"]) == 3
    top = payload["histogram"][payload["max_psi"]]
    assert top["conditioning"] == [2]
    assert math.isclose(top["psi"], math.sqrt(1 - 1 / 9), rel_tol=1e-12)


def test_analysis_file_states_each_fact_once(tmp_path):
    schema = ps.AttributeSchema([(name, ["x", "y", "z"]) for name in ("age", "sex", "job", "town")])
    table = random_adjusted_table(schema, np.random.default_rng(3))
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--table", save_table(tmp_path, table), "--subset", "2,0",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert list(payload) == ["kind", "subset", "attribute_names", "Psi", "geo_mean_logs",
                             "histogram", "closest_to_gm", "max_psi"]
    # attribute a is attribute_names[N-1-a]; the conditioning attributes are the rest, largest first
    assert payload["attribute_names"] == ["age", "sex", "job", "town"]
    assert payload["geo_mean_logs"] == ps.geometric_mean_subtable(table, (2, 0)).tolist()
    for i, row in enumerate(payload["histogram"]):
        age, job = row["conditioning"]  # attributes 3 and 1
        assert (age, job) == np.unravel_index(i, (3, 3))
        assert math.isclose(row["psi"], ps.psi(table.reshaped()[age, :, job, :]).psi, rel_tol=1e-12)
    for key in ("closest_to_gm", "max_psi"):
        assert type(payload[key]) is int and 0 <= payload[key] < 9


def twice_spiked_table():
    # two conditional subtables of (2, 0) carry the same spike, so their psi tie exactly
    schema = ps.generic_schema(3, 3)
    counts = np.ones(27)
    for middle in (0, 2):
        counts[np.ravel_multi_index((1, middle, 1), (3,) * 3)] = 40.0
    return ps.ContingencyTable(schema, counts, float(counts.sum()), adjusted=True)


@pytest.mark.parametrize("table, subset", [
    (ps.ContingencyTable(ps.generic_schema(4, 3), np.full(81, 2.0), 162.0, adjusted=True), "3,1"),
    (twice_spiked_table(), "2,0"),
    (random_adjusted_table(ps.generic_schema(4, 3), np.random.default_rng(4)), "3,1"),
    (random_adjusted_table(ps.generic_schema(5, 2), np.random.default_rng(5)), "4"),
])
def test_analyze_picks_match_a_first_index_loop(tmp_path, table, subset):
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--table", save_table(tmp_path, table), "--subset", subset,
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    values = [entry["psi"] for entry in payload["histogram"]]
    closest_i, max_i = 0, 0
    for i, value in enumerate(values):
        if abs(value - payload["Psi"]) < abs(values[closest_i] - payload["Psi"]):
            closest_i = i
        if value > values[max_i]:
            max_i = i
    assert (payload["closest_to_gm"], payload["max_psi"]) == (closest_i, max_i)


def test_analyze_ties_within_tolerance_keep_the_first_index(tmp_path, monkeypatch):
    table = twice_spiked_table()
    centre = ps.Psi(table, (2,)).psi
    low, high = 0.5 * centre, centre + 0.5
    # each later value sits one ulp above the earlier one, as an equivalent rewrite might leave it
    values = [0.0, low, np.nextafter(low, 2.0), 0.0, high, 0.0, np.nextafter(high, 2.0), 0.0, 0.0]
    real = ps.psi_histogram(table, (2,))
    monkeypatch.setattr(ps.salience, "psi_histogram",
                        lambda t, s: [(c, v) for (c, _), v in zip(real, values)])
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--table", save_table(tmp_path, table), "--subset", "2",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["closest_to_gm"] == 1
    assert payload["max_psi"] == 4


def test_commands_accept_a_table_inside_the_adjusted_tolerance(tmp_path, floor_table):
    path = save_table(tmp_path, floor_table)
    for command, option in (("scan", ["--k", "2"]), ("analyze", ["--subset", "2,0"]),
                            ("depersonalize", ["--max-order", "1"])):
        assert main([command, "--table", path, *option,
                     "--out", str(tmp_path / f"{command}.json")]) == 0, command


def test_analyze_reports_the_psi_scan_reports_for_every_pair(tmp_path):
    table = random_adjusted_table(ps.generic_schema(8, 3), np.random.default_rng(1))
    path = save_table(tmp_path, table)
    assert main(["scan", "--table", path, "--k", "2", "--out", str(tmp_path / "scan.json")]) == 0
    entries = json.loads((tmp_path / "scan.json").read_text())["entries"]
    assert len(entries) == 28
    out = tmp_path / "analysis.json"
    for entry in entries:
        subset = ",".join(map(str, entry["subset"]))
        assert main(["analyze", "--table", path, "--subset", subset, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["Psi"] == entry["Psi"], subset


def test_analyze_logs_the_table_once(tmp_path, monkeypatch):
    table = random_adjusted_table(ps.generic_schema(4, 3), np.random.default_rng(4))
    argv = ["analyze", "--table", save_table(tmp_path, table), "--subset", "3,1",
            "--out", str(tmp_path / "analysis.json")]
    assert main(argv) == 0  # loads every module analyze runs
    real = ps.table.log_transform
    calls = []

    def counted(t):
        calls.append(t)
        return real(t)

    # patched wherever a module holds it, as a tracer wrapping the function would be
    holders = [m for name, m in sys.modules.items()
               if name.startswith("psalience.") and getattr(m, "log_transform", None) is real]
    assert {ps.table, ps.marginal, ps.salience} <= set(holders)
    for module in holders:
        monkeypatch.setattr(module, "log_transform", counted)
    assert main(argv) == 0
    assert len(calls) == 1


def test_written_rows_leave_the_garbage_collector(tmp_path, monkeypatch):
    """Per-subset rows hold only atoms and tuples, so a collection untracks
    them and later collections stop walking them."""
    table = random_adjusted_table(ps.generic_schema(6, 2), np.random.default_rng(7))
    _, audit = ps.interaction_limit(table, ps.LimitSpec("order_limit", k_dagger=2))
    rows = fileio.audit_to_dict(audit, table.schema, "order_limit(k=2)")["entries"]
    argv = ["analyze", "--table", save_table(tmp_path, table), "--subset", "1,0",
            "--out", str(tmp_path / "analysis.json")]
    payloads = []
    monkeypatch.setattr(fileio, "atomic_write_json", lambda path, payload: payloads.append(payload))
    assert main(argv) == 0
    histogram = payloads[0]["histogram"]
    gc.collect()
    assert len(rows) == 63 and not any(map(gc.is_tracked, rows))
    assert len(histogram) == 16 and not any(map(gc.is_tracked, histogram))


def test_analyze_bad_subset_is_usage_error(tmp_path, rng):
    table = random_adjusted_table(ps.generic_schema(3, 2), rng)
    path = save_table(tmp_path, table)
    for bad in ("0,1", "5", "a,b"):
        assert main(["analyze", "--table", path, "--subset", bad,
                     "--out", str(tmp_path / "a.json")]) == 2


# --------------------------------------------------------- depersonalize

def test_depersonalize_identity_at_full_order(tmp_path, rng):
    schema = ps.generic_schema(3, 2)
    table = random_adjusted_table(schema, rng)
    out = tmp_path / "released.json"
    assert main(["depersonalize", "--table", save_table(tmp_path, table),
                 "--max-order", "3", "--out", str(out)]) == 0
    released = fileio.load_table(out)
    assert np.abs(released.counts - table.counts).max() < 1e-9
    audit = json.loads((tmp_path / "released.audit.json").read_text())
    assert audit["zeroed_blocks"] == []
    assert all(abs(e["psi_after"] - e["psi_before"]) < 1e-9 for e in audit["entries"])


def test_depersonalize_order_limit_writes_audit(tmp_path, rng):
    schema = ps.generic_schema(4, 2)
    table = random_adjusted_table(schema, rng)
    out = tmp_path / "released.json"
    assert main(["depersonalize", "--table", save_table(tmp_path, table),
                 "--max-order", "1", "--out", str(out)]) == 0
    audit = json.loads((tmp_path / "released.audit.json").read_text())
    assert audit["mode"].startswith("order_limit")
    assert len(audit["zeroed_blocks"]) == 11  # all subsets of size >= 2 in N=4
    assert audit["violations"] == []
    released = fileio.load_table(out)
    refit = ps.fit_beta(ps.LogTable(schema, np.log(released.counts))).ravel()
    _, lattice = ps.full_basis(schema)
    for subset in ps.all_subsets(4):
        if len(subset) > 1:
            assert np.linalg.norm(refit[lattice == subset_index(subset)]) <= 1e-9


@pytest.mark.parametrize("n, m, k_dagger", [(4, 3, 1), (4, 3, 2), (6, 2, 2), (6, 2, 4)])
def test_audit_file_states_each_fact_once(tmp_path, n, m, k_dagger):
    """Rows hold no names, size, delta or contains_zeroed: the file's other fields
    give them, and its rows hold the library's audit entries bit for bit."""
    path = save_table(tmp_path, random_adjusted_table(ps.generic_schema(n, m), np.random.default_rng(n)))
    out = tmp_path / "released.json"
    assert main(["depersonalize", "--table", path, "--max-order", str(k_dagger), "--out", str(out)]) == 0
    written = json.loads(out.with_suffix(".audit.json").read_text(encoding="utf-8"))
    assert list(written) == ["kind", "mode", "attribute_names", "zeroed_blocks", "total_drift",
                             "refit_residual", "entries", "violations"]
    assert written["attribute_names"] == [f"a{a}" for a in range(n - 1, -1, -1)]
    _, audit = ps.interaction_limit(fileio.load_table(path), ps.LimitSpec("order_limit", k_dagger=k_dagger))
    assert len(written["entries"]) == len(audit.entries) == 2 ** n - 1
    zeroed = set(map(tuple, written["zeroed_blocks"]))
    for row, entry in zip(written["entries"], audit.entries):
        assert list(row) == ["subset", "psi_before", "psi_after"]
        assert (tuple(row["subset"]), row["psi_before"], row["psi_after"]) == entry  # bit for bit
        assert (entry.subset in zeroed) == audit.zeroed[subset_index(entry.subset)]


def test_audit_file_is_written_from_one_lattice_walk(monkeypatch, rng):
    from psalience import basis
    from psalience.depersonalize import ReleaseAudit

    table = random_adjusted_table(ps.generic_schema(4, 3), rng)
    released, _ = ps.interaction_limit(table, ps.LimitSpec("order_limit", k_dagger=1))
    audit = ps.audit(table, released, zeroed_blocks=[(3, 1)])  # the other pairs' moves are violations
    expected = fileio.audit_to_dict(audit, table.schema, "selective(1 seeds)")
    walk, calls = basis.marked_subsets, []

    def counted(mask):
        calls.append(mask.size)
        return walk(mask)

    def refuse(self):
        raise AssertionError("an audit view was read")

    monkeypatch.setattr(basis, "marked_subsets", counted)
    for view in ("entries", "zeroed_blocks", "violations"):
        monkeypatch.setattr(ReleaseAudit, view, property(refuse))
    payload = fileio.audit_to_dict(audit, table.schema, "selective(1 seeds)")
    assert calls == [16] and payload == expected
    assert payload["zeroed_blocks"] and payload["violations"]  # both masks are read


def test_depersonalize_selective_reports_closure(tmp_path, rng):
    schema = ps.generic_schema(3, 2)
    table = random_adjusted_table(schema, rng)
    out = tmp_path / "released.json"
    assert main(["depersonalize", "--table", save_table(tmp_path, table),
                 "--zero", "1,0", "--out", str(out)]) == 0
    audit = json.loads((tmp_path / "released.audit.json").read_text())
    assert audit["zeroed_blocks"] == [[1, 0], [2, 1, 0]]


def test_depersonalize_needs_exactly_one_mode(tmp_path, rng):
    table = random_adjusted_table(ps.generic_schema(3, 2), rng)
    path = save_table(tmp_path, table)
    assert main(["depersonalize", "--table", path, "--out", str(tmp_path / "r.json")]) == 2
    assert main(["depersonalize", "--table", path, "--max-order", "1", "--zero", "1,0",
                 "--out", str(tmp_path / "r.json")]) == 2


@pytest.mark.parametrize("command, option, message", [
    ("depersonalize", ["--max-order", "0"], "k_dagger 0 out of range [1, 3]"),
    ("depersonalize", ["--max-order", "4"], "k_dagger 4 out of range [1, 3]"),
    ("depersonalize", ["--zero", "0,1"], "subset (0, 1) must be strictly decreasing"),
    ("depersonalize", ["--zero", "5"], "attribute index 5 out of range [0, 3)"),
    ("analyze", ["--subset", "1,1"], "subset (1, 1) must be strictly decreasing"),
])
def test_library_argument_errors_exit_as_usage_errors(tmp_path, rng, capsys, command, option, message):
    path = save_table(tmp_path, random_adjusted_table(ps.generic_schema(3, 2), rng))
    out = tmp_path / "out.json"
    assert main([command, "--table", path, *option, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_max_order_errors_name_the_maximum_interaction_order(tmp_path, rng, capsys):
    path = save_table(tmp_path, random_adjusted_table(ps.generic_schema(3, 2), rng))
    assert main(["depersonalize", "--table", path, "--max-order", "0",
                 "--out", str(tmp_path / "out.json")]) == 2
    assert "maximum interaction order" in capsys.readouterr().err


def test_depersonalize_round_counts(tmp_path, rng):
    schema = ps.generic_schema(3, 2)
    table = random_adjusted_table(schema, rng, n_total=463)
    out = tmp_path / "released.json"
    assert main(["depersonalize", "--table", save_table(tmp_path, table),
                 "--max-order", "1", "--round-counts", "--out", str(out)]) == 0
    released = fileio.load_table(out)
    assert np.array_equal(released.counts, np.rint(released.counts))
    assert released.counts.sum() == 463


def test_depersonalize_that_breaks_its_contract_exits_1(tmp_path, rng, monkeypatch, capsys):
    from psalience import depersonalize

    def leaky(coef, mean, mask):  # moves one cell, so subsets outside the zero set move too
        values = zero_blocks(coef, mean, mask)
        values[0] += 0.1
        return values

    zero_blocks = depersonalize._zero_blocks
    monkeypatch.setattr(depersonalize, "_zero_blocks", leaky)
    out = tmp_path / "released.json"
    table_path = save_table(tmp_path, random_adjusted_table(ps.generic_schema(3, 2), rng))
    assert main(["depersonalize", "--table", table_path, "--max-order", "2", "--out", str(out)]) == 1
    assert "subsets broke the salience contract; release not written" in capsys.readouterr().err
    assert not out.exists()
    audit = json.loads(out.with_suffix(".audit.json").read_text(encoding="utf-8"))
    assert [2, 1] not in audit["zeroed_blocks"] and [2] in audit["violations"]


@pytest.mark.parametrize("seed", range(5))
def test_depersonalize_whose_zeroed_blocks_survive_exits_1(tmp_path, monkeypatch, capsys, seed):
    from psalience import depersonalize
    from psalience.basis import subset_index

    def leaky(coef, mean, mask):  # keeps the top block, which moves no salience the audit flags
        mask = mask.copy()
        mask[subset_index((2, 1, 0))] = False
        return zero_blocks(coef, mean, mask)

    zero_blocks = depersonalize._zero_blocks
    monkeypatch.setattr(depersonalize, "_zero_blocks", leaky)
    out = tmp_path / "released.json"
    table = random_adjusted_table(ps.generic_schema(3, 2), np.random.default_rng(seed))
    table_path = save_table(tmp_path, table)
    assert main(["depersonalize", "--table", table_path, "--max-order", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "zeroed blocks refit to a residual of" in err and "release not written" in err
    assert not out.exists()
    audit = json.loads(out.with_suffix(".audit.json").read_text(encoding="utf-8"))
    assert audit["violations"] == [] and audit["refit_residual"] > depersonalize.REFIT_TOL


def test_audit_of_a_rounded_release_reports_a_residual_and_no_new_violation(tmp_path, rng):
    from psalience.depersonalize import PSI_DRIFT_TOL, REFIT_TOL

    table = random_adjusted_table(ps.generic_schema(4, 3), rng, n_total=2000)
    out = tmp_path / "released.json"
    assert main(["depersonalize", "--table", save_table(tmp_path, table), "--max-order", "1",
                 "--round-counts", "--out", str(out)]) == 0
    written = json.loads(out.with_suffix(".audit.json").read_text(encoding="utf-8"))
    assert 0.0 <= written["refit_residual"] <= REFIT_TOL  # read before rounding
    zeroed = [s for s in ps.all_subsets(4) if len(s) > 1]
    audit = ps.audit(table, fileio.load_table(out), zeroed_blocks=zeroed)
    assert audit.refit_residual > REFIT_TOL  # rounding moved the refitted blocks
    # the violations are exactly the salience rule's: the residual adds none
    delta = audit.psi_after - audit.psi_before
    moved = np.where(audit.zeroed, delta, np.abs(delta)) > PSI_DRIFT_TOL
    assert audit.violations == tuple(e.subset for e in audit.entries if moved[subset_index(e.subset)])


@pytest.mark.parametrize("total", [math.inf, math.nan])
@pytest.mark.parametrize("rounding", [[], ["--round-counts"]])
def test_depersonalize_refuses_a_table_whose_total_is_not_finite(tmp_path, rng, capsys, total, rounding):
    payload = fileio.table_to_dict(random_adjusted_table(ps.generic_schema(3, 2), rng))
    payload["n_total"] = total
    path = tmp_path / "table.json"
    path.write_text(json.dumps(payload), encoding="utf-8")  # Infinity and NaN, as json writes them
    assert main(["depersonalize", "--table", str(path), "--max-order", "1", *rounding,
                 "--out", str(tmp_path / "released.json")]) == 3
    assert capsys.readouterr().err.startswith("error: population total must be positive and finite")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.json"]


def test_depersonalize_refuses_rounding_a_total_above_2_53(tmp_path, rng, capsys):
    table = random_adjusted_table(ps.generic_schema(3, 3), rng, n_total=6 * 10 ** 17)
    out = tmp_path / "released.json"
    assert main(["depersonalize", "--table", save_table(tmp_path, table),
                 "--max-order", "1", "--round-counts", "--out", str(out)]) == 3
    assert "above 2**53" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.json"]


# ----------------------------------------------------------------- verify

def test_verify_passes(capsys):
    assert main(["verify", "--n", "4", "--m", "2", "--seed", "1", "--trials", "20"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 6
    assert "FAIL" not in out


def test_verify_reports_basis_column_count():
    report = ps.run_verification(3, 3, seed=0, trials=5)
    dimensions = next(s for s in report.suites if s.name == "dimensions")
    assert dimensions.data["total_columns"] == 27


@pytest.mark.parametrize("n, m", [(6, 3), (9, 2)])
def test_verify_fails_a_basis_whose_columns_name_the_wrong_subsets(monkeypatch, n, m):
    """Bit-reversed labels attribute every column to its mirror subset and keep each
    size's column count, so counting labels passed them; Gram-Schmidt is skipped here."""
    def mirrored(schema):
        matrix, lattice = ps.full_basis(schema)
        return matrix, np.array([int(format(i, f"0{n}b")[::-1], 2) for i in lattice])

    assert ps.run_verification(n, m, trials=1).passed
    monkeypatch.setattr(verify, "full_basis", mirrored)
    report = ps.run_verification(n, m, trials=1)
    dimensions = next(s for s in report.suites if s.name == "dimensions")
    assert not report.passed and not dimensions.passed
    assert dimensions.data["total_columns"] == m ** n and dimensions.data["worst_gap"] > 1e-3
    assert [s.name for s in report.suites if not s.passed] == ["dimensions"]


def test_verify_perturbation_self_test(capsys):
    assert main(["verify", "--n", "3", "--m", "2", "--self-test-perturb"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_perturbation_fails_across_gram_bands():
    # 2187 cells: the Gram products run over several column bands
    perturbed = ps.run_verification(7, 3, trials=1, perturb=True)
    orthogonality = next(s for s in perturbed.suites if s.name == "orthogonality")
    assert not perturbed.passed
    assert orthogonality.data["max_offdiagonal"] > 1e-6
    assert ps.run_verification(7, 3, trials=1).passed


@pytest.mark.parametrize("n, m", [(6, 4), (11, 2)])
def test_verify_fails_one_corrupted_pair_of_non_constant_blocks(monkeypatch, n, m):
    def corrupted(schema):
        matrix, lattice = ps.full_basis(schema)
        # tilt one column of the last block (every attribute) towards the block
        # before it (every attribute but n-1): only that pair stops being orthogonal
        last = np.flatnonzero(lattice == 2 ** n - 1)[0]
        before = np.flatnonzero(lattice == 2 ** (n - 1) - 1)[0]
        matrix[:, last] += 1e-6 * matrix[:, before]
        return matrix, lattice

    monkeypatch.setattr(ps.verify, "full_basis", corrupted)
    report = ps.run_verification(n, m, trials=1)
    orthogonality = next(s for s in report.suites if s.name == "orthogonality")
    assert not report.passed and not orthogonality.passed
    assert orthogonality.data["max_offdiagonal"] > 1e-7
    blocks = 2 ** n
    assert orthogonality.checked == blocks * (blocks + 1) // 2


def test_verify_expansion_checks_the_energy_spectrum(monkeypatch):
    def skewed(log_table):
        energies = ps.fitting.subset_energies(log_table)
        energies[-1] *= 1.001
        return energies

    monkeypatch.setattr(ps.verify, "subset_energies", skewed)
    report = ps.run_verification(3, 2, trials=2)
    expansion = next(s for s in report.suites if s.name == "expansion")
    assert not report.passed and not expansion.passed
    assert expansion.data["parseval"] > 1e-6 and expansion.data["round_trip"] < 1e-9


@pytest.mark.parametrize("n, m", [(4, 2), (6, 3)])
def test_verify_checks_the_salience_spectrum_of_every_subset(monkeypatch, n, m):
    def skewed(log_table):
        psi, chi, norm = ps.salience.subset_salience(log_table)
        chi[-1] *= 1.001  # the last lattice entry: the subset of every attribute
        return psi, chi, norm

    monkeypatch.setattr(ps.verify, "subset_salience", skewed)
    report = ps.run_verification(n, m, trials=4)
    gm = next(s for s in report.suites if s.name == "gm-projection")
    assert not report.passed and not gm.passed
    # trials // 4 = 1 random table and 3 near-uniform ones, every non-empty subset
    assert gm.checked == 4 * (2 ** n - 1)
    assert gm.data["worst_gap"] > 1e-4 and f"at {tuple(range(n - 1, -1, -1))}" in gm.detail


def test_verify_checks_every_spike_radius():
    report = ps.run_verification(6, 4, trials=1)
    spikes = next(s for s in report.suites if s.name == "spike-salience")
    assert spikes.passed and spikes.checked == 4 ** 6


def test_verify_size_guard():
    code = main(["verify", "--n", "13", "--m", "2"])
    assert code == 2


def test_verify_needs_at_least_one_trial(capsys):
    assert main(["verify", "--n", "2", "--m", "2", "--trials", "0"]) == 2
    assert "trials" in capsys.readouterr().err
    with pytest.raises(ps.ArgumentError):
        ps.run_verification(2, 2, trials=0)


@pytest.mark.parametrize("option, message", [
    (["--n", "0", "--m", "2"], "n=0, m=2 out of range"),
    (["--n", "2", "--m", "1"], "n=2, m=1 out of range"),
    (["--n", "2", "--m", "2", "--seed", "-1"], "seed must be at least 0, got -1"),
])
def test_verify_argument_errors_are_usage_errors(capsys, option, message):
    assert main(["verify", *option]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("n, m", [(0, 2), (2, 1), (13, 2)])
def test_run_verification_range_errors_are_argument_errors(n, m):
    with pytest.raises(ps.ArgumentError, match=f"n={n}, m={m}"):
        ps.run_verification(n, m, trials=1)


def test_verify_refuses_a_huge_n_without_forming_the_cell_count():
    tracemalloc.start()
    try:
        with pytest.raises(ps.ArgumentError):
            ps.run_verification(10**8, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def suite_status(out, name):
    line = next(line for line in out.splitlines() if line.split()[:1] == [name])
    return line.split()[1]


def test_verify_checks_the_single_attribute_at_n_1(capsys):
    # one attribute is the one non-empty subset, so gm-projection checks it
    assert main(["verify", "--n", "1", "--m", "2", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert suite_status(out, "gm-projection") == "PASS"
    assert suite_status(out, "expansion") == "PASS"
    report = ps.run_verification(1, 2, trials=4)
    # one random table and three near-uniform ones
    assert next(s for s in report.suites if s.name == "gm-projection").checked == 4


def test_verify_marks_gram_schmidt_above_its_limit_as_skip(capsys):
    # 7**3 = 343 cells exceeds the 256-cell Gram-Schmidt suite limit
    assert main(["verify", "--n", "3", "--m", "7", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert suite_status(out, "gram-schmidt") == "SKIP"
    assert suite_status(out, "gm-projection") == "PASS"


def test_verify_builds_each_subspace_once(monkeypatch):
    # every subspace comes out of one Kronecker product of the full factors
    shapes = []
    original = ps.reference._subset_kron

    def counting(*args):
        out = original(*args)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(ps.reference, "_subset_kron", counting)
    assert ps.run_verification(3, 2, trials=1).passed
    assert shapes.count((8, 8)) == 1
    assert set(shapes) == {(8, 8), (8, 1)}  # the rest are Gram-Schmidt's raw indicator columns


# ------------------------------------------------------------- round trip

def test_table_json_round_trip_is_exact(tmp_path, rng):
    schema = ps.generic_schema(3, 3)
    table = random_adjusted_table(schema, rng)
    # stress with values that do not have short decimal forms
    counts = table.counts * (1 + 1e-13)
    stressed = ps.ContingencyTable(schema, counts, float(counts.sum()), adjusted=True)
    path = tmp_path / "table.json"
    fileio.save_table(path, stressed)
    loaded = fileio.load_table(path)
    assert np.array_equal(loaded.counts, stressed.counts)
    assert loaded.n_total == stressed.n_total
    assert loaded.schema == stressed.schema
    assert loaded.adjusted == stressed.adjusted


def test_table_json_round_trip_is_bit_exact_at_4096_cells(tmp_path):
    schema = ps.generic_schema(12, 2)
    counts = np.exp(np.random.default_rng(12).uniform(0.0, 12.0, schema.n_cells))
    table = ps.ContingencyTable(schema, counts, float(counts.sum()), adjusted=True)
    path = tmp_path / "table.json"
    fileio.save_table(path, table)
    loaded = fileio.load_table(path)
    assert loaded.counts.tobytes() == table.counts.tobytes()
    assert loaded.n_total == table.n_total
    assert path.read_text().count("\n") == 1  # compact: one line
    assert [p.name for p in tmp_path.iterdir()] == ["table.json"]


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.json"
    fileio.atomic_write_json(target, {"x": 1})
    assert json.loads(target.read_text()) == {"x": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


@pytest.mark.parametrize("target", ["missing/out.json", "taken/out.json"], ids=["missing/out.json", "taken"])
def test_write_errors_name_the_requested_path(tmp_path, target):
    # a file where the output's directory should be; the parser refuses both targets
    # as --out before a command runs, so the writer is called on them directly
    (tmp_path / "taken").write_text("")
    out = tmp_path / target
    with pytest.raises(OSError) as info:
        fileio.atomic_write_json(out, {"x": 1})
    err = str(info.value)
    assert err.endswith(repr(str(out))) and err.count(str(tmp_path)) == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_total_mismatch_prints_plain_floats(tmp_path, rng, capsys):
    payload = fileio.table_to_dict(random_adjusted_table(ps.generic_schema(2, 2), rng))
    payload["counts"][0], payload["n_total"] = 1e308, 400000.0
    path = tmp_path / "table.json"
    fileio.atomic_write_json(path, payload)
    assert main(["scan", "--table", str(path), "--k", "1", "--out", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    assert "counts sum to 1e+308, declared total is 400000.0" in err and "np.float64" not in err, err


def test_malformed_json_is_data_error(tmp_path):
    bad = tmp_path / "table.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["scan", "--table", str(bad), "--k", "1", "--out", str(tmp_path / "r.json")]) == 3


@pytest.mark.parametrize("command", ["scan", "analyze", "depersonalize", "tabulate"])
def test_deeply_nested_json_is_data_error(tmp_path, capsys, command):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    argv = {
        "scan": ["--table", str(nested), "--k", "1"],
        "analyze": ["--table", str(nested), "--subset", "1,0"],
        "depersonalize": ["--table", str(nested), "--max-order", "1"],
        "tabulate": ["--schema", str(nested), "--input", write_csv(tmp_path / "micro.csv", ["north,lo"])],
    }[command]
    assert main([command, *argv, "--out", str(tmp_path / "out.json")]) == 3
    assert capsys.readouterr().err == f"error: {nested}: JSON nested too deeply to read\n"


TABLE_TEXT = ('{"schema": {"attributes": [{"name": "region", "levels": ["north", "south"]}, '
              '{"name": "band", "levels": ["lo", "hi"]}]}, "counts": [1, 2, 3, 4], "n_total": 10, '
              '"adjusted": true}')


# each repeat comes first, so a reader keeping the last value would read a valid table
@pytest.mark.parametrize("text, key", [
    (TABLE_TEXT.replace('"counts"', '"counts": [9, 9, 9, 9], "counts"'), "counts"),
    (TABLE_TEXT.replace('{"attributes": [', '{"attributes": [], "attributes": ['), "attributes"),
    (TABLE_TEXT.replace('"name": "band"', '"name": "size", "name": "band"'), "name"),
], ids=["top-level", "schema", "attribute"])
def test_repeated_json_key_is_data_error(tmp_path, capsys, text, key):
    path = tmp_path / "table.json"
    path.write_text(text, encoding="utf-8")
    assert main(["scan", "--table", str(path), "--k", "1", "--out", str(tmp_path / "r.json")]) == 3
    assert capsys.readouterr().err == f"error: {path}: JSON object repeats the key {key!r}\n"
    assert not (tmp_path / "r.json").exists()


def run_on_hostile_text(tmp_path, command, text, encoding="utf-8"):
    """Run ``command`` on ``text`` as its JSON input: the table, or for tabulate the
    schema (the text's schema object), with a CSV that matches the valid schema."""
    path = tmp_path / "input.json"
    if command == "tabulate":
        text = text[len('{"schema": '):text.index(', "counts"')]
        argv = ["--schema", str(path), "--input", write_csv(tmp_path / "micro.csv", ["south,lo", "north,lo"] * 3)]
    else:
        argv = {"scan": ["--k", "1"], "analyze": ["--subset", "1"], "depersonalize": ["--max-order", "1"]}[command]
        argv = ["--table", str(path), *argv]
    path.write_text(text, encoding=encoding)
    code = main([command, *argv, "--out", str(tmp_path / "out.json")])
    return code, path


COMMANDS = ["scan", "analyze", "depersonalize", "tabulate"]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="before 3.10.7 Python reads integers of any length")
@pytest.mark.parametrize("command, old, new", [
    *((command, '"n_total": 10', '"n_total": ' + "1" * 5000) for command in COMMANDS[:3]),
    *((command, '"band"', "1" * 5001) for command in COMMANDS),  # an attribute name
], ids=[f"n_total-{command}" for command in COMMANDS[:3]] + [f"name-{command}" for command in COMMANDS])
def test_json_integer_past_the_digit_limit_is_data_error(tmp_path, capsys, command, old, new):
    """json.load raises a plain ValueError for an integer above Python's
    integer-string limit (4300 digits); it exits 3 naming the file."""
    code, path = run_on_hostile_text(tmp_path, command, TABLE_TEXT.replace(old, new))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: JSON number too long to read (") and err.count("\n") == 1, err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("old, new, what", [
    ('"region"', '"re\\ud800gion"', "attribute name 're\\ud800gion'"),
    ('"hi"', '"\\udfff"', "level of attribute 'band' '\\udfff'"),
], ids=["name", "label"])
def test_name_or_label_that_is_not_utf8_is_data_error(tmp_path, capsys, command, old, new, what):
    """A lone surrogate escape decodes to text no UTF-8 stream holds, so the
    schema refuses it, as the CSV readers refuse such a row."""
    code, _ = run_on_hostile_text(tmp_path, command, TABLE_TEXT.replace(old, new))
    assert code == 3
    assert capsys.readouterr().err == f"error: {what} is not valid UTF-8\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_json_input_with_a_byte_order_mark_reads_as_without(tmp_path, capsys, command):
    """A leading UTF-8 byte-order mark is dropped, as the CSV readers drop it
    (RFC 8259 section 8.1), so the command writes and prints what it would
    without one."""
    results = []
    for encoding in ("utf-8", "utf-8-sig"):
        code, path = run_on_hostile_text(tmp_path, command, TABLE_TEXT, encoding)
        assert code == 0, capsys.readouterr().err
        results.append(((tmp_path / "out.json").read_bytes(), capsys.readouterr()))
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert results[0] == results[1]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("old, new, encoding", [
    ('{"name": "band"', '\ufeff{"name": "band"', "utf-8"),
    ('{"name": "band"', '\ufeff{"name": "band"', "utf-8-sig"),
    ('"north"', '"n\u00f6rth"', "latin-1"),
    ('"north"', '"north"', "utf-16"),
], ids=["inner-mark", "second-mark", "latin-1", "utf-16"])
def test_json_byte_order_mark_elsewhere_or_bytes_not_utf8_are_data_errors(
        tmp_path, capsys, command, old, new, encoding):
    code, path = run_on_hostile_text(tmp_path, command, TABLE_TEXT.replace(old, new), encoding)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not valid JSON (") and err.count("\n") == 1, err
    assert not (tmp_path / "out.json").exists()


def test_output_files_take_the_umask(tmp_path):
    schema_path = write_schema(tmp_path / "schema.json")
    csv_path = write_csv(tmp_path / "micro.csv", ["north,lo"] * 3 + ["south,hi", "north,hi"])
    table = str(tmp_path / "table.json")
    runs = [
        ["tabulate", "--schema", schema_path, "--input", csv_path, "--out", table],
        ["scan", "--table", table, "--k", "1", "--out", str(tmp_path / "scan.json")],
        ["analyze", "--table", table, "--subset", "1", "--out", str(tmp_path / "analysis.json")],
        ["depersonalize", "--table", table, "--max-order", "1", "--out", str(tmp_path / "release.json")],
    ]
    # the umask is process-wide, so each setting runs in its own interpreter
    code = ("import json, os, sys; from psalience.cli import main; os.umask(int(sys.argv[1], 8)); "
            "sys.exit(max(main(argv) for argv in json.loads(sys.argv[2])))")
    src = os.path.dirname(os.path.dirname(ps.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    written = ["table.json", "scan.json", "analysis.json", "release.json", "release.audit.json"]
    for umask, mode in [("022", 0o644), ("077", 0o600)]:
        for name in written:
            (tmp_path / name).unlink(missing_ok=True)
        proc = subprocess.run([sys.executable, "-c", code, umask, json.dumps(runs)],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        assert {name: oct((tmp_path / name).stat().st_mode & 0o777) for name in written} == {
            name: oct(mode) for name in written}, umask


@pytest.mark.parametrize("argv", [
    ["tabulate", "--schema", "{schema}", "--input", "{micro}", "--out", "{schema}"],
    ["tabulate", "--schema", "{schema}", "--input", "{micro}", "--out", "{micro}"],
    ["scan", "--table", "{table}", "--k", "1", "--out", "{table}"],
    ["scan", "--table", "{table}", "--k", "1", "--out", "{link}"],
    ["analyze", "--table", "{table}", "--subset", "1", "--out", "{table}"],
    ["depersonalize", "--table", "{table}", "--max-order", "1", "--out", "{table}"],
    ["depersonalize", "--table", "{audit}", "--max-order", "1", "--out", "{release}"],
], ids=["tabulate-schema", "tabulate-input", "scan", "scan-symlink", "analyze", "depersonalize",
        "depersonalize-audit"])
def test_output_that_is_an_input_is_refused_before_it_is_read(tmp_path, monkeypatch, capsys, argv):
    paths = {
        "schema": write_schema(tmp_path / "schema.json"),
        "micro": write_csv(tmp_path / "micro.csv", ["north,lo", "south,hi"]),
        "table": save_table(tmp_path, random_adjusted_table(ps.generic_schema(2, 2), np.random.default_rng(3))),
        "audit": save_table(tmp_path, random_adjusted_table(ps.generic_schema(2, 2), np.random.default_rng(4)),
                            "release.audit.json"),
        "release": str(tmp_path / "release.json"),
        "link": str(tmp_path / "link.json"),
    }
    os.symlink(paths["table"], paths["link"])
    before = {name: (tmp_path / name).read_bytes() for name in sorted(os.listdir(tmp_path))}

    def refuse(*args):
        raise AssertionError("an input was read")

    monkeypatch.setattr(fileio, "_load_json", refuse)
    monkeypatch.setattr(fileio, "count_microdata", refuse)
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output ") and "input" in err and err.count("\n") == 1, err
    assert {name: (tmp_path / name).read_bytes() for name in sorted(os.listdir(tmp_path))} == before


@pytest.mark.parametrize("command, option", [
    ("scan", ["--k", "1"]), ("analyze", ["--subset", "1,0"]), ("depersonalize", ["--max-order", "1"]),
], ids=["scan", "analyze", "depersonalize"])
def test_table_whose_counts_sum_past_the_largest_float_is_data_error(tmp_path, capsys, command, option):
    path = tmp_path / "table.json"
    fileio.atomic_write_json(path, {"schema": SCHEMA, "counts": [1e308] * 4, "n_total": 1e308, "adjusted": True})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning included
        assert main([command, "--table", str(path), *option, "--out", str(tmp_path / "out.json")]) == 3
    assert capsys.readouterr().err == "error: counts sum to inf, declared total is 1e+308\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.json"]


def test_tabulate_invalid_utf8_is_data_error(tmp_path, capsys):
    schema_path = write_schema(tmp_path / "schema.json")
    csv_path = tmp_path / "micro.csv"
    csv_path.write_bytes(b"region,band\nnorth,lo\n\xff\xfe,hi\n")
    code = main(["tabulate", "--schema", schema_path, "--input", str(csv_path),
                 "--out", str(tmp_path / "t.json")])
    assert code == 3
    assert "UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("counts", ["many", 2.0, 3.0, 4.0]),
    ("counts", ["10", "20", "30", "40"]),
    ("counts", [True, True, True, True]),
    ("n_total", "lots"),
    ("n_total", "100"),
    ("n_total", True),
    ("adjusted", "false"),
    ("adjusted", 1),
    ("counts", [True, 20, 30, 49]),
    ("counts", [10 ** 400, 20, 30, 40]),
])
def test_malformed_table_field_is_data_error(tmp_path, rng, capsys, field, value):
    payload = fileio.table_to_dict(random_adjusted_table(ps.generic_schema(2, 2), rng))
    payload[field] = value
    path = tmp_path / "table.json"
    fileio.atomic_write_json(path, payload)
    assert main(["scan", "--table", str(path), "--k", "1", "--out", str(tmp_path / "r.json")]) == 3
    assert field in capsys.readouterr().err


def test_usage_error_exit_code():
    assert main(["scan"]) == 2
    assert main([]) == 2
