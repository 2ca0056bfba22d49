"""File formats: JSON schemas/tables/reports and CSV microdata.

Schema file:    {"attributes": [{"name": ..., "levels": [...]}, ...]}
                with at most MAX_CELLS = 2**24 cells (M**N), checked on load.
                Names and labels are JSON strings or integers (read as
                decimal strings) without surrounding whitespace.
Table file:     {"schema": ..., "counts": [...], "n_total": ..., "adjusted": bool}
                with counts in lexicographic cell order.
Microdata CSV:  UTF-8 (a leading byte-order mark is dropped), header row
                with the attribute names, one level label per cell.
                tabulate_microdata tallies the raw lines after the header
                as bytes in one C-level pass, then decodes and parses
                only the distinct lines, in batches of BATCH_LINES, and
                ranks each batch column by column: O(distinct lines)
                memory.  A file it cannot read line by line goes through
                the per-record read_microdata instead: bytes that are not
                UTF-8, a lone carriage return as a line end, a record
                that spans lines, and every error.  read_microdata's
                errors name the first offending file row.

Written JSON is compact (no indentation, no spaces) and round-trips
exactly: floats are serialised with enough digits to reproduce the
double-precision value bit for bit.  All writes go through a temporary
file in the target directory followed by a rename.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import tempfile
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import EmptyInputError, IngestionError, SchemaError, ShapeError
from .table import AttributeSchema, ContingencyTable, _record_rank, tabulate

if TYPE_CHECKING:  # annotations only: tabulate and load_table need neither module
    from .depersonalize import ReleaseAudit
    from .salience import SalienceReport

# Largest M**N accepted, refused before any CSV is read or vector allocated
# (128 MiB per float64 vector).
MAX_CELLS = 2**24
# Distinct CSV lines parsed and ranked together: large enough that the per-batch
# calls vanish, small enough that a batch's parsed rows stay a few MiB.
BATCH_LINES = 4096


def schema_to_dict(schema: AttributeSchema) -> dict:
    return {
        "attributes": [
            {"name": name, "levels": list(levels)} for name, levels in schema.attributes
        ]
    }


def _schema_text(value, what: str) -> str:
    """A schema name or label as text: a JSON string, or an integer as its
    decimal string.  Surrounding whitespace is refused, because the CSV
    readers strip it from every header name and label before the lookup."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise SchemaError(f"{what} must be a JSON string or integer, got {value!r}")
    text = str(value)
    if text != text.strip():
        raise SchemaError(f"{what} {text!r} has leading or trailing whitespace")
    return text


def schema_from_dict(payload: dict) -> AttributeSchema:
    attributes = []
    try:
        for entry in payload["attributes"]:
            name = _schema_text(entry["name"], "attribute name")
            levels = entry["levels"]
            if not isinstance(levels, list):
                raise SchemaError(f"levels of attribute {name!r} must be a JSON array, got {levels!r}")
            attributes.append((name, [_schema_text(v, f"level of attribute {name!r}") for v in levels]))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed schema object: {exc}") from exc
    schema = AttributeSchema(attributes)
    if schema.n_cells > MAX_CELLS:
        raise SchemaError(
            f"schema has M**N = {schema.n_levels}**{schema.n_attributes} = {schema.n_cells} "
            f"cells, above the limit of 2**24 = {MAX_CELLS}"
        )
    return schema


def load_schema(path) -> AttributeSchema:
    return schema_from_dict(_load_json(path))


def table_to_dict(table: ContingencyTable) -> dict:
    return {
        "schema": schema_to_dict(table.schema),
        "counts": table.counts.tolist(),
        "n_total": float(table.n_total),
        "adjusted": bool(table.adjusted),
    }


def table_from_dict(payload: dict) -> ContingencyTable:
    try:
        schema = schema_from_dict(payload["schema"])
        counts = payload["counts"]
        n_total = payload["n_total"]
        adjusted = payload["adjusted"]
    except (KeyError, TypeError) as exc:
        raise ShapeError(f"malformed table object: {exc}") from exc
    if not isinstance(adjusted, bool):
        raise ShapeError(f"malformed table object: adjusted must be true or false, got {adjusted!r}")
    if not isinstance(counts, list):
        raise ShapeError(f"malformed table object: counts must be an array, got {type(counts).__name__}")
    # JSON strings and booleans would convert to floats, so numbers are told apart by type
    others = set(map(type, counts)) - {int, float}
    if others:
        names = ", ".join(sorted(t.__name__ for t in others))
        raise ShapeError(f"malformed table object: counts must be numbers, got {names} values")
    if isinstance(n_total, bool) or not isinstance(n_total, (int, float)):
        raise ShapeError(f"malformed table object: n_total must be a number, got {n_total!r}")
    try:
        counts, n_total = np.array(counts, dtype=float), float(n_total)
    except OverflowError as exc:  # a JSON integer beyond the float64 range
        raise ShapeError(f"malformed table object: counts and n_total must fit a float64 ({exc})") from exc
    return ContingencyTable(schema, counts, n_total, adjusted=adjusted)


def load_table(path) -> ContingencyTable:
    return table_from_dict(_load_json(path))


def save_table(path, table: ContingencyTable) -> None:
    atomic_write_json(path, table_to_dict(table))


def _load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise IngestionError(f"{path}: not valid JSON ({exc})") from exc


def atomic_write_json(path, payload) -> None:
    """Serialise to a sibling temp file, then rename over the target.

    An ``OSError`` names ``path``, never the temporary file the caller did not ask for.
    """
    path = Path(path)
    directory = path.parent if str(path.parent) else Path(".")
    try:
        fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                # one dumps call runs the C encoder; json.dump with indent runs the Python one
                fh.write(json.dumps(payload, separators=(",", ":")) + "\n")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def _header_positions(reader, path, schema: AttributeSchema) -> list[int]:
    """Read the header row from ``reader``; return the column of each schema attribute."""
    try:
        header = next(reader)
    except StopIteration:
        raise IngestionError(f"{path}: file is empty, expected a header row")
    _require_utf8(header, path, 1)
    header = [h.strip() for h in header]
    names = list(schema.names)
    if sorted(header) != sorted(names):
        raise IngestionError(f"{path}: header {header} does not match schema attributes {names}")
    return [header.index(name) for name in names]


def _require_utf8(row: list[str], path, row_number: int) -> None:
    """Refuse a row read with ``surrogateescape`` that held bytes outside UTF-8:
    they decoded to lone surrogates, which no strict encoder accepts."""
    try:
        "".join(row).encode("utf-8")
    except UnicodeEncodeError:
        raise IngestionError(f"{path}: row {row_number} is not valid UTF-8",
                             record_number=row_number) from None


def _row_labels(row: list[str], positions: list[int]) -> tuple:
    """Stripped labels in schema order; a row of the wrong length goes in as is,
    so the record check reports its field count."""
    if len(row) != len(positions):
        return tuple(row)
    return tuple(row[p].strip() for p in positions)


def read_microdata(path, schema: AttributeSchema):
    """Yield ``(row_number, labels)`` per CSV record, labels in schema order.

    The header must contain exactly the schema's attribute names (any
    order).  Blank rows are skipped but counted; the header is row 1.  A
    distinct raw row is checked, stripped and reordered the first time it
    is seen, and its later copies yield that same tuple, so streaming this
    into :func:`tabulate` takes O(distinct rows) memory.  Errors, malformed
    CSV and bytes that are not UTF-8 included, name the first offending file
    row; a file without records raises :class:`EmptyInputError` naming the
    file.  This is the reference and error path of :func:`tabulate_microdata`.
    """
    row_number = 0  # the last row read in full; the header is row 1
    try:
        # undecodable bytes become lone surrogates, so the row holding them is known
        with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
            reader = csv.reader(fh)
            positions = _header_positions(reader, path, schema)
            row_number = 1
            seen: dict[tuple, tuple] = {}
            for row_number, row in enumerate(reader, start=2):
                if not row:
                    continue
                key = tuple(row)
                labels = seen.get(key)
                if labels is None:
                    _require_utf8(row, path, row_number)
                    labels = _row_labels(row, positions)
                    _record_rank(labels, schema, f"{path}: row {row_number}", row_number)
                    seen[key] = labels
                yield row_number, labels
        if not seen:
            raise EmptyInputError(f"{path}: no records after the header row", record_number=0)
    except csv.Error as exc:
        raise IngestionError(
            f"{path}: row {row_number + 1} is not valid CSV ({exc})", record_number=row_number + 1
        ) from exc


def tabulate_microdata(path, schema: AttributeSchema) -> ContingencyTable:
    """Unadjusted table of a microdata CSV, equal to :func:`tabulate` over
    :func:`read_microdata`.

    One C-level ``Counter`` pass tallies the physical lines after the header
    as bytes, so memory is O(distinct lines) and only distinct lines are ever
    decoded.  They are decoded as UTF-8 and parsed as strict CSV in batches of
    :data:`BATCH_LINES`; each batch's cell ranks come from one label -> level
    lookup per attribute column, and one ``np.bincount`` sums the tallies per
    cell.  If any line is not one complete valid record (the first line of a
    multi-line quoted record never is, nor a line in which a lone carriage
    return ends a record), or is not UTF-8, or the file has no records, the
    file goes through the record path instead, which reads such records or
    raises its error.
    """
    try:
        table = _tabulate_lines(path, schema)
    except (csv.Error, UnicodeDecodeError, IngestionError):
        table = None
    if table is None:
        table = tabulate((labels for _, labels in read_microdata(path, schema)), schema)
    return table


def _tabulate_lines(path, schema: AttributeSchema) -> ContingencyTable | None:
    """The batched path of :func:`tabulate_microdata`: ``None`` when a record
    spans lines, has the wrong field count or an unknown label, or when the
    file has no records; the record path then decides."""
    with open(path, "rb") as fh:
        # strict, so a quoted header name that runs past its line is an error
        header = csv.reader([fh.readline().decode("utf-8-sig")], strict=True)
        positions = _header_positions(header, path, schema)
        lines = Counter(fh)
    ranks, tallies = [], []
    distinct = iter(lines.items())
    while batch := list(itertools.islice(distinct, BATCH_LINES)):
        ranked = _rank_batch(batch, positions, schema)
        if ranked is None:
            return None
        ranks.append(ranked[0])
        tallies.append(ranked[1])
    del lines, distinct  # drop the distinct lines first, so the arrays below do not add to their peak
    if not ranks:
        return None
    weights = np.concatenate(tallies)
    counts = np.bincount(np.concatenate(ranks), weights=weights, minlength=schema.n_cells)
    return ContingencyTable(schema, counts, float(weights.sum()), adjusted=False)


def _rank_batch(batch, positions: list[int], schema: AttributeSchema):
    """Cell ranks and tallies of a batch of ``(raw line, tally)`` pairs, blank
    lines dropped; ``None`` when some line is not one complete record in the
    schema, or every line is blank (at most three distinct lines are, so only a
    file without records has such a batch).  Raises ``UnicodeDecodeError`` for
    a line that is not UTF-8."""
    raw, tallies = zip(*batch)
    text = [line.decode("utf-8") for line in raw]
    rows = list(csv.reader(text, strict=True))
    if len(rows) != len(text):
        return None  # a quoted record spanned lines
    if not all(rows):  # drop blank lines
        kept = [(row, tally) for row, tally in zip(rows, tallies) if row]
        if not kept:
            return None
        rows, tallies = zip(*kept)
    if set(map(len, rows)) - {schema.n_attributes}:
        return None
    columns = tuple(zip(*rows))
    rank = np.zeros(len(rows), dtype=np.int64)
    for position, levels in zip(positions, schema._level_maps):
        column = columns[position]
        # a column holds few distinct raw labels: strip and look each up once
        lookup = {label: levels.get(label.strip()) for label in set(column)}
        if None in lookup.values():
            return None
        rank *= schema.n_levels
        rank += np.fromiter(map(lookup.__getitem__, column), dtype=np.int64, count=len(column))
    return rank, np.array(tallies, dtype=float)


def report_to_dict(
    report: SalienceReport,
    schema: AttributeSchema,
    amber: float,
    red: float,
) -> dict:
    """Scan report with warning bands and bar-plot series.

    Bands are configuration, not derived from any reference: green below
    ``amber``, amber from there to ``red``, red above.
    """
    entries = []
    for entry in report.entries:
        value = entry.salience
        entries.append(
            {
                "subset": list(entry.subset),
                "attributes": [schema.attribute_name(i) for i in entry.subset],
                "Psi": float(value.psi),
                "chi_magnitude": float(value.chi_magnitude),
                "log_norm": float(value.log_norm),
                "rank": entry.rank,
                "warning": classify_warning(value.psi, amber, red),
            }
        )
    return {
        "kind": "salience_scan",
        "k": report.k,
        "n_attributes": schema.n_attributes,
        "warning_bands": {
            "amber": amber,
            "red": red,
            "note": "configuration, not derived from any reference",
        },
        "entries": entries,
        "bar_data": {
            "labels": [":".join(e["attributes"]) for e in entries],
            "values": [e["Psi"] for e in entries],
        },
    }


def classify_warning(value: float, amber: float, red: float) -> str:
    if value >= red:
        return "red"
    if value >= amber:
        return "amber"
    return "green"


def audit_to_dict(audit: ReleaseAudit, schema: AttributeSchema, mode: str) -> dict:
    return {
        "kind": "release_audit",
        "mode": mode,
        "zeroed_blocks": [list(s) for s in audit.zeroed_blocks],
        "total_drift": float(audit.total_drift),
        "refit_residual": audit.refit_residual,
        "entries": [
            {
                "subset": list(e.subset),
                "attributes": [schema.attribute_name(i) for i in e.subset],
                "size": len(e.subset),
                "psi_before": float(e.psi_before),
                "psi_after": float(e.psi_after),
                "delta": float(e.delta),
                "contains_zeroed": e.contains_zeroed,
            }
            for e in audit.entries
        ],
        "violations": [list(s) for s in audit.violations],
    }
