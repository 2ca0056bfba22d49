"""File formats: JSON schemas/tables/reports and CSV microdata.

Schema file:    {"attributes": [{"name": ..., "levels": [...]}, ...]}
                with at most MAX_CELLS = 2**24 cells (M**N), checked on load.
                Names and labels are JSON strings or integers (read as
                decimal strings) without surrounding whitespace, and
                encode as UTF-8.
Table file:     {"schema": ..., "counts": [...], "n_total": ..., "adjusted": bool}
                with counts in lexicographic cell order.
Microdata CSV:  UTF-8 (a leading byte-order mark is dropped), header row
                with the attribute names, one level label per cell.
                count_microdata tallies the raw lines after the header
                as bytes in one C-level pass and drops the blank ones
                (only carriage returns and line feeds) from the tally.
                One function then decodes, parses and ranks the other
                distinct lines, in batches of BATCH_LINES, column by
                column, and adds each line's count to its cell in one
                list: O(distinct lines) memory and no numpy.  A file it
                cannot read line by line goes through the per-record
                read_microdata instead: bytes that are not UTF-8, a lone
                carriage return as a line end, a record that spans
                lines, and every error.  read_microdata's errors name
                the first offending file row.

Written JSON is compact (no indentation, no spaces) and round-trips
exactly: floats are serialised with enough digits to reproduce the
double-precision value bit for bit.  All writes go through a temporary
file in the target directory followed by a rename, and the file takes
the process umask as a newly opened one would.  JSON files are read as
UTF-8, and a leading byte-order mark is dropped, as from a CSV.  A JSON file
with a key repeated in any object is refused, as is one holding an integer
longer than Python's integer-string limit (4300 digits by default).
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

from .errors import EmptyInputError, IngestionError, SchemaError, ShapeError
from .schema import AttributeSchema, _record_rank, tally, tally_records

if TYPE_CHECKING:  # annotations only: each function imports what it runs, so tabulate loads no numpy
    import numpy as np

    from .depersonalize import ReleaseAudit
    from .salience import SalienceReport
    from .table import ContingencyTable

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
    readers strip it from every header name and label before the lookup, and
    so is text that is not UTF-8 (a lone surrogate escape such as ``\\ud800``),
    which no UTF-8 CSV row can hold and no UTF-8 console can print."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise SchemaError(f"{what} must be a JSON string or integer, got {value!r}")
    text = str(value)
    if text != text.strip():
        raise SchemaError(f"{what} {text!r} has leading or trailing whitespace")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise SchemaError(f"{what} {text!r} is not valid UTF-8") from None
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
    return counts_to_dict(table.schema, table.counts.tolist(), table.n_total, table.adjusted)


def counts_to_dict(schema: AttributeSchema, counts: list, n_total: float, adjusted: bool) -> dict:
    """A table file's object from its fields, ``counts`` a list of Python numbers
    in cell order: what :func:`table_to_dict` writes, without a table."""
    return {
        "schema": schema_to_dict(schema),
        "counts": counts,
        "n_total": float(n_total),
        "adjusted": bool(adjusted),
    }


def table_from_dict(payload: dict) -> ContingencyTable:
    import numpy as np

    from .table import ContingencyTable

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
    def unique_keys(pairs: list) -> dict:
        # json keeps a repeated key's last value silently; a disclosure tool refuses the file
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
            raise IngestionError(f"{path}: JSON object repeats the key {key!r}")
        return obj

    try:
        with open(path, encoding="utf-8-sig") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise IngestionError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise IngestionError(f"{path}: JSON nested too deeply to read") from exc
    except IngestionError:
        raise  # a repeated key, named by unique_keys
    except ValueError as exc:  # an integer longer than sys.get_int_max_str_digits() allows
        raise IngestionError(f"{path}: JSON number too long to read ({exc})") from exc


def atomic_write_json(path, payload) -> None:
    """Serialise to a sibling temp file, then rename over the target.

    The file gets the mode ``open(path, "w")`` gives a new file, ``0o666`` less
    the umask; ``mkstemp`` alone would leave it ``0o600``.  An ``OSError``
    names ``path``, never the temporary file the caller did not ask for.
    """
    path = Path(path)
    directory = path.parent if str(path.parent) else Path(".")
    umask = os.umask(0)  # the only way to read it; set back at once
    os.umask(umask)
    try:
        fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                # one dumps call runs the C encoder; json.dump with indent runs the Python one
                fh.write(json.dumps(payload, separators=(",", ":")))
                fh.write("\n")  # a second write, so the whole text is not copied to append it
            os.chmod(tmp_name, 0o666 & ~umask)
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
    file.  This is the reference and error path of :func:`count_microdata`.
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


def count_microdata(path, schema: AttributeSchema) -> tuple[list[int], int]:
    """Per-cell counts of a microdata CSV and its number of records: what
    :func:`psalience.schema.tally_records` gives over :func:`read_microdata`.

    One C-level ``Counter`` pass tallies the physical lines after the header
    as bytes, so memory is O(distinct lines) and only distinct lines are ever
    decoded.  Lines made only of carriage returns and line feeds, which CSV
    reads as no record, leave the tally before anything is decoded.  The other
    distinct lines are decoded as UTF-8 and parsed as strict CSV in batches of
    :data:`BATCH_LINES`.  A line's cell rank is the sum over its columns of one
    label lookup each, pre-scaled by the attribute's place value, and
    :func:`psalience.schema.tally` adds the line's count to that cell.  If any
    line is not one complete valid record (the first line of a multi-line
    quoted record never is, nor a line in which a lone carriage return ends a
    record), or is not UTF-8, or the file has no records, the file goes
    through the record path instead, which reads such records or raises its
    error.  Nothing here imports numpy.
    """
    try:
        return _tally_lines(path, schema)
    except (csv.Error, UnicodeDecodeError, IngestionError):
        pass
    # outside the handler, so the record path's errors chain to nothing
    return tally_records((labels for _, labels in read_microdata(path, schema)), schema)


def _tally_lines(path, schema: AttributeSchema) -> tuple[list[int], int]:
    """The batched path of :func:`count_microdata`.  Raises ``csv.Error``,
    ``UnicodeDecodeError`` or :class:`IngestionError` (a record spanning
    lines, a wrong field count, an unknown label, no records) for a file the
    record path must decide."""
    with open(path, "rb") as fh:
        # strict, so a quoted header name that runs past its line is an error
        header = csv.reader([fh.readline().decode("utf-8-sig")], strict=True)
        positions = _header_positions(header, path, schema)
        lines = Counter(fh)
    for blank in [line for line in lines if not line.strip(b"\r\n")]:
        del lines[blank]
    if not lines:
        raise EmptyInputError(f"{path}: no records after the header row", record_number=0)
    ranked = itertools.chain.from_iterable(_ranked_batches(lines, positions, schema, path))
    return tally(ranked, schema.n_cells), sum(lines.values())


def _ranked_batches(lines: Counter, positions: list[int], schema: AttributeSchema, path):
    """Yield, per batch of distinct lines of ``lines``, an iterator of their
    ``(rank, count)`` pairs, each consumed before the next batch is read; see
    :func:`_tally_lines` for what it raises."""
    n, m = schema.n_attributes, schema.n_levels
    # schema position p holds attribute N-1-p, whose level is worth M**(N-1-p) in a rank
    place_levels = [{label: level * m ** (n - 1 - p) for label, level in levels.items()}
                    for p, levels in enumerate(schema._level_maps)]
    distinct, counts = iter(lines), iter(lines.values())
    while batch := list(itertools.islice(distinct, BATCH_LINES)):
        rows = list(csv.reader(map(bytes.decode, batch), strict=True))
        if len(rows) != len(batch) or set(map(len, rows)) - {n}:
            raise IngestionError(f"{path}: a record spans lines or has the wrong field count")
        columns = tuple(zip(*rows))
        terms = []
        for position, levels in zip(positions, place_levels):
            column = columns[position]
            # a column holds few distinct raw labels: strip and look each up once
            lookup = {label: levels.get(label.strip()) for label in set(column)}
            if None in lookup.values():
                raise IngestionError(f"{path}: a label is not in the schema")
            terms.append(map(lookup.__getitem__, column))
        yield zip(map(sum, zip(*terms)), itertools.islice(counts, len(batch)))


def report_to_dict(
    report: SalienceReport,
    schema: AttributeSchema,
    amber: float,
    red: float,
) -> dict:
    """Scan report with warning bands.

    Bands are configuration, not derived from any reference: green below
    ``amber``, amber from there to ``red``, red above (:func:`classify_warning`
    of an entry's ``Psi``).  The schema's names are written once, attribute
    ``N-1`` first, so attribute ``a`` of a ``subset`` is named
    ``attribute_names[N-1-a]``; rows repeat neither names nor bands.  Each
    row, read from the report's arrays, holds only atoms and tuples (``json``
    writes tuples as arrays), so the garbage collector stops tracking it.
    """
    from .basis import enumerate_subsets  # here, so tabulate does not load the lattice module
    columns = zip(enumerate_subsets(schema.n_attributes, report.k), report.psi.tolist(),
                  report.chi_magnitude.tolist(), report.log_norm.tolist(), report.rank.tolist())
    return {
        "kind": "salience_scan",
        "k": report.k,
        "attribute_names": schema.names,
        "warning_bands": {
            "amber": amber,
            "red": red,
            "note": "configuration, not derived from any reference",
        },
        "entries": [
            {"subset": subset, "Psi": psi, "chi_magnitude": chi, "log_norm": norm, "rank": rank}
            for subset, psi, chi, norm, rank in columns
        ],
    }


def analysis_to_dict(subset, schema: AttributeSchema, psi: float, gm_logs: np.ndarray,
                     histogram: list) -> dict:
    """One subset's analysis: its ``Psi``, the logs of its geometric-mean table
    (``np.exp`` of them is the table) and one row per conditional subtable, in
    :func:`psalience.salience.psi_histogram` order.  ``attribute_names`` is
    written as in :func:`report_to_dict`; the conditioning attributes are those
    outside ``subset``, largest first, the order of each row's ``conditioning``.
    ``closest_to_gm`` and ``max_psi`` are the indices of the rows whose ``psi``
    is closest to ``Psi`` and largest: the first of any rows that tie under
    :func:`psalience.table.values_close`, so last-ulp noise cannot choose among
    subtables that tie in exact arithmetic.  Rows hold only atoms and tuples.
    """
    import numpy as np

    from .table import values_close

    values = np.array([value for _, value in histogram])
    distances = np.abs(values - psi)
    return {
        "kind": "salience_analysis",
        "subset": list(subset),
        "attribute_names": schema.names,
        "Psi": psi,
        "geo_mean_logs": gm_logs.tolist(),
        "histogram": [{"conditioning": conditioning, "psi": value} for conditioning, value in histogram],
        "closest_to_gm": int(np.flatnonzero(values_close(distances, distances.min()))[0]),
        "max_psi": int(np.flatnonzero(values_close(values, values.max()))[0]),
    }


def classify_warning(value: float, amber: float, red: float) -> str:
    if value >= red:
        return "red"
    if value >= amber:
        return "amber"
    return "green"


def audit_to_dict(audit: ReleaseAudit, schema: AttributeSchema, mode: str) -> dict:
    # One lattice walk gives the rows' keys and indices; the masks pick zeroed_blocks and
    # violations from those keys.  Rows hold only atoms and tuples, as in report_to_dict, and
    # no names, size, delta or contains_zeroed: attribute_names, their other fields and
    # zeroed_blocks give those.
    import numpy as np

    from .basis import marked_subsets  # here, so tabulate does not load the lattice module
    index, subsets = marked_subsets(np.arange(audit.zeroed.size) > 0)
    before, after = audit.psi_before[index].tolist(), audit.psi_after[index].tolist()
    return {
        "kind": "release_audit",
        "mode": mode,
        "attribute_names": schema.names,
        "zeroed_blocks": tuple(itertools.compress(subsets, audit.zeroed[index].tolist())),
        "total_drift": audit.total_drift,
        "refit_residual": audit.refit_residual,
        "entries": [
            {"subset": subset, "psi_before": psi_before, "psi_after": psi_after}
            for subset, psi_before, psi_after in zip(subsets, before, after)
        ],
        "violations": tuple(itertools.compress(subsets, audit.violated[index].tolist())),
    }
