"""Command-line surface tying the pipeline together.

Subcommands: ``tabulate`` (CSV microdata to adjusted table), ``scan``
(rank attribute subsets by salience), ``analyze`` (drill into one
subset), ``depersonalize`` (interaction-limited release plus audit) and
``verify`` (structural self-checks).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 data
error.  Given the same inputs, seed and worker count every command is
deterministic.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .depersonalize import LimitSpec, interaction_limit, selective_zero
from .errors import IngestionError, SalienceError
from .fileio import (
    atomic_write_json,
    audit_to_dict,
    load_schema,
    load_table,
    read_microdata,
    report_to_dict,
    save_table,
)
from .marginal import complement_attributes, geometric_mean_subtable
from .salience import Psi, psi_histogram, scan
from .table import tabulate, zero_adjust
from .verify import CELL_LIMIT as VERIFY_CELL_LIMIT
from .verify import run_verification

DEFAULT_AMBER = 0.5
DEFAULT_RED = 0.8


class UsageError(Exception):
    """Bad parameter values discovered after argument parsing."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psalience",
        description="Salience analysis and interaction-limited release of contingency tables.",
    )
    parser.add_argument("--version", action="version", version=f"psalience {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tabulate", help="cross-tabulate CSV microdata into an adjusted table")
    p.add_argument("--schema", required=True, help="schema JSON file")
    p.add_argument("--input", required=True, help="microdata CSV file")
    p.add_argument("--out", required=True, help="output table JSON file")
    p.set_defaults(func=cmd_tabulate)

    p = sub.add_parser("scan", help="rank all size-k attribute subsets by salience")
    p.add_argument("--table", required=True, help="adjusted table JSON file")
    p.add_argument("--k", type=int, required=True, help="subset size, 1 <= k <= N-1")
    p.add_argument("--threshold", type=float, default=DEFAULT_AMBER,
                   help=f"amber warning boundary (default {DEFAULT_AMBER})")
    p.add_argument("--workers", type=int, default=1, help="worker threads (default 1)")
    p.add_argument("--out", required=True, help="output report JSON file")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("analyze", help="per-conditioning salience of one subset")
    p.add_argument("--table", required=True, help="adjusted table JSON file")
    p.add_argument("--subset", required=True,
                   help="comma-separated attribute indices, descending (e.g. 4,2,0)")
    p.add_argument("--out", required=True, help="output analysis JSON file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("depersonalize", help="interaction-limited release of a table")
    p.add_argument("--table", required=True, help="adjusted table JSON file")
    p.add_argument("--max-order", type=int, default=None,
                   help="zero every block of size above this order")
    p.add_argument("--zero", action="append", default=None, metavar="SUBSET",
                   help="subset to zero (repeatable); closed upward automatically")
    p.add_argument("--no-renormalize", action="store_true",
                   help="keep the raw reconstruction instead of rescaling to the original total")
    p.add_argument("--round-counts", action="store_true",
                   help="round released counts to integers, preserving the total exactly")
    p.add_argument("--out", required=True, help="released table JSON file; the audit "
                   "is written alongside with an .audit.json suffix")
    p.set_defaults(func=cmd_depersonalize)

    p = sub.add_parser("verify", help="run the structural verification suites")
    p.add_argument("--n", type=int, required=True, help="number of attributes")
    p.add_argument("--m", type=int, required=True, help="levels per attribute")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--trials", type=int, default=20, help="random tables per suite (default 20)")
    p.add_argument("--self-test-perturb", action="store_true",
                   help="corrupt one basis column first; the run must then fail")
    p.set_defaults(func=cmd_verify)

    return parser


def _parse_subset(text: str, n: int):
    try:
        members = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"subset {text!r} is not a comma-separated list of integers")
    if not members:
        raise UsageError("subset must not be empty")
    if any(a <= b for a, b in zip(members, members[1:])):
        raise UsageError(f"subset {text!r} must list attribute indices in descending order")
    for i in members:
        if not 0 <= i < n:
            raise UsageError(f"attribute index {i} out of range [0, {n})")
    return members


def _load_adjusted_table(path):
    table = load_table(path)
    if not table.adjusted:
        raise SalienceError(f"{path}: table is not adjusted; run tabulate (or zero-adjust) first")
    return table


def cmd_tabulate(args) -> int:
    schema = load_schema(args.schema)
    rows = list(read_microdata(args.input, schema))
    try:
        raw = tabulate((labels for _, labels in rows), schema)
    except IngestionError as exc:
        if exc.record_number:
            # report the CSV row (header is row 1), not the record position
            file_row = rows[exc.record_number - 1][0]
            raise IngestionError(
                f"{args.input}: row {file_row}: {exc}",
                record_number=file_row,
                attribute=exc.attribute,
            ) from exc
        raise
    save_table(args.out, zero_adjust(raw))
    print(f"tabulated {int(raw.n_total)} records into {raw.schema.n_cells} cells -> {args.out}")
    return 0


def cmd_scan(args) -> int:
    table = _load_adjusted_table(args.table)
    n = table.schema.n_attributes
    if not 1 <= args.k <= n - 1:
        raise UsageError(f"k must be in [1, {n - 1}] for this table, got {args.k}")
    if args.workers < 1:
        raise UsageError("workers must be at least 1")
    if not 0.0 <= args.threshold <= 1.0:
        raise UsageError("threshold must lie in [0, 1]")
    amber = args.threshold
    red = max(DEFAULT_RED, amber)
    report = scan(table, args.k, workers=args.workers)
    payload = report_to_dict(report, table.schema, amber, red)
    atomic_write_json(args.out, payload)
    ranked = sorted(payload["entries"], key=lambda e: e["rank"])
    for entry in ranked[:10]:
        print(f"  #{entry['rank']:<3} {':'.join(entry['attributes']):<24} "
              f"Psi={entry['Psi']:.4f} [{entry['warning']}]")
    print(f"scan k={args.k}: {len(ranked)} subsets -> {args.out}")
    return 0


def cmd_analyze(args) -> int:
    table = _load_adjusted_table(args.table)
    schema = table.schema
    subset = _parse_subset(args.subset, schema.n_attributes)
    overall = Psi(table, subset)
    gm = geometric_mean_subtable(table, subset)
    histogram = psi_histogram(table, subset)

    closest_i, max_i = 0, 0
    for i, (_, value) in enumerate(histogram):
        if abs(value - overall.psi) < abs(histogram[closest_i][1] - overall.psi):
            closest_i = i
        if value > histogram[max_i][1]:
            max_i = i

    def _entry(i):
        conditioning, value = histogram[i]
        return {"index": i, "conditioning": list(conditioning), "psi": float(value)}

    others = complement_attributes(subset, schema.n_attributes)
    payload = {
        "kind": "salience_analysis",
        "subset": list(subset),
        "attributes": [schema.attribute_name(i) for i in subset],
        "conditioning_attributes": [schema.attribute_name(i) for i in others],
        "Psi": float(overall.psi),
        "geo_mean": {
            "counts": [float(c) for c in gm.counts],
            "log_values": [float(v) for v in gm.log_values],
        },
        "histogram": [
            {"conditioning": list(conditioning), "psi": float(value)}
            for conditioning, value in histogram
        ],
        "closest_to_gm": _entry(closest_i),
        "max_psi": _entry(max_i),
    }
    atomic_write_json(args.out, payload)
    print(f"analyze subset {list(subset)}: Psi={overall.psi:.4f}, "
          f"{len(histogram)} conditional subtables -> {args.out}")
    return 0


def cmd_depersonalize(args) -> int:
    table = _load_adjusted_table(args.table)
    n = table.schema.n_attributes
    if (args.max_order is None) == (args.zero is None):
        raise UsageError("choose exactly one of --max-order or --zero")
    renormalize = not args.no_renormalize
    if args.max_order is not None:
        if not 1 <= args.max_order <= n:
            raise UsageError(f"--max-order must be in [1, {n}], got {args.max_order}")
        spec = LimitSpec("order_limit", k_dagger=args.max_order,
                         renormalize=renormalize, round_counts=args.round_counts)
        released, audit = interaction_limit(table, spec)
        mode = f"order_limit(k={args.max_order})"
    else:
        seeds = tuple(_parse_subset(text, n) for text in args.zero)
        spec = LimitSpec("selective", zero_subsets=seeds,
                         renormalize=renormalize, round_counts=args.round_counts)
        released, audit = selective_zero(table, spec)
        mode = f"selective({len(seeds)} seeds)"
    save_table(args.out, released)
    audit_path = Path(args.out).with_suffix(".audit.json")
    atomic_write_json(audit_path, audit_to_dict(audit, table.schema, mode))
    print(f"depersonalize {mode}: zeroed {len(audit.zeroed_blocks)} blocks, "
          f"total drift {audit.total_drift:+.3e} -> {args.out}, {audit_path}")
    if audit.violations:
        print(f"  warning: {len(audit.violations)} subsets broke the salience contract")
    return 0


def cmd_verify(args) -> int:
    if args.n < 1 or args.m < 2 or args.m ** args.n > VERIFY_CELL_LIMIT:
        raise UsageError(
            f"verification supports n >= 1, m >= 2 with m**n <= {VERIFY_CELL_LIMIT}"
        )
    if args.trials < 1:
        raise UsageError("trials must be at least 1")
    report = run_verification(
        args.n, args.m, seed=args.seed, trials=args.trials, perturb=args.self_test_perturb
    )
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SalienceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
