"""File formats: JSON schemas/tables/reports and CSV microdata.

Schema file:    {"attributes": [{"name": ..., "levels": [...]}, ...]}
Table file:     {"schema": ..., "counts": [...], "n_total": ..., "adjusted": bool}
                with counts in lexicographic cell order.
Microdata CSV:  UTF-8, header row with the attribute names, one level
                label per cell.

Written JSON round-trips exactly: floats are serialised with enough
digits to reproduce the double-precision value bit for bit.  All writes
go through a temporary file in the target directory followed by a rename.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .depersonalize import ReleaseAudit
from .errors import IngestionError, SchemaError, ShapeError
from .salience import SalienceReport
from .table import AttributeSchema, ContingencyTable


def schema_to_dict(schema: AttributeSchema) -> dict:
    return {
        "attributes": [
            {"name": name, "levels": list(levels)} for name, levels in schema.attributes
        ]
    }


def schema_from_dict(payload: dict) -> AttributeSchema:
    try:
        attributes = tuple(
            (entry["name"], tuple(entry["levels"])) for entry in payload["attributes"]
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed schema object: {exc}") from exc
    return AttributeSchema(attributes)


def load_schema(path) -> AttributeSchema:
    return schema_from_dict(_load_json(path))


def table_to_dict(table: ContingencyTable) -> dict:
    return {
        "schema": schema_to_dict(table.schema),
        "counts": [float(c) for c in table.counts],
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
    try:
        counts = np.asarray(counts, dtype=float)
        n_total = float(n_total)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"malformed table object: counts and n_total must be numbers ({exc})") from exc
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
    """Serialise to a sibling temp file, then rename over the target."""
    path = Path(path)
    directory = path.parent if str(path.parent) else Path(".")
    fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def read_microdata(path, schema: AttributeSchema):
    """Yield level-label tuples from a CSV file, reordered to schema order.

    The header must contain exactly the schema's attribute names (any
    order).  Errors name the file row; the header is row 1.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise IngestionError(f"{path}: file is empty, expected a header row")
            header = [h.strip() for h in header]
            names = list(schema.names)
            if sorted(header) != sorted(names):
                raise IngestionError(
                    f"{path}: header {header} does not match schema attributes {names}"
                )
            positions = [header.index(name) for name in names]
            for row_number, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise IngestionError(
                        f"{path}: row {row_number} has {len(row)} fields, expected {len(header)}",
                        record_number=row_number,
                    )
                yield row_number, tuple(row[p].strip() for p in positions)
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not valid UTF-8 ({exc.reason})") from exc


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
