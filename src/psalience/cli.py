"""Command-line surface tying the pipeline together.

Subcommands: ``tabulate`` (CSV microdata to adjusted table), ``scan``
(rank attribute subsets by salience), ``analyze`` (drill into one
subset), ``depersonalize`` (interaction-limited release plus audit) and
``verify`` (structural self-checks).

Exit codes: 0 success, 1 verification failure (a ``verify`` suite failed,
or a release's audit found contract violations or zeroed blocks that do
not refit to zero; the release is then not written), 2 usage error (an
``ArgumentError``, whether this module or the library raises it), 3 data
error.  Given the same inputs and seed every command is deterministic.

``run`` is the process entry point (``python -m psalience.cli`` and the
``psalience`` script); in-process callers use ``main``.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ArgumentError, SalienceError

# Each command imports the modules it runs inside its own body, so a process
# loads only those: --version and tabulate never import the analysis modules,
# and only verify imports verify, synthetic and reference.

DEFAULT_AMBER = 0.5
DEFAULT_RED = 0.8


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
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility (>= 1) but changes nothing: every "
                   "subset's score comes from one transform plus O(N*2**N) sums")
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
                   help="round released counts to integers, preserving the total exactly; "
                   "totals above 2**53 are refused (exit 3)")
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


def _parse_subset(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ArgumentError(f"subset {text!r} is not a comma-separated list of integers")


def _load_adjusted_table(path):
    from .fileio import load_table

    table = load_table(path)
    if not table.adjusted:
        raise SalienceError(f"{path}: table is not adjusted; run tabulate (or zero-adjust) first")
    return table


def cmd_tabulate(args) -> int:
    from .fileio import load_schema, save_table, tabulate_microdata
    from .table import zero_adjust

    schema = load_schema(args.schema)
    raw = tabulate_microdata(args.input, schema)
    save_table(args.out, zero_adjust(raw))
    print(f"tabulated {int(raw.n_total)} records into {raw.schema.n_cells} cells -> {args.out}")
    return 0


def cmd_scan(args) -> int:
    from .fileio import atomic_write_json, report_to_dict
    from .salience import scan

    table = _load_adjusted_table(args.table)
    if args.workers < 1:
        raise ArgumentError("workers must be at least 1")
    if not 0.0 <= args.threshold <= 1.0:
        raise ArgumentError("threshold must lie in [0, 1]")
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


def _first_close(values: np.ndarray, extreme: float) -> int:
    """First index whose value equals ``extreme`` under the package tolerance, so
    last-ulp noise cannot choose among subtables that tie in exact arithmetic."""
    from .table import values_close

    return next(i for i, value in enumerate(values.tolist()) if values_close(value, extreme))


def cmd_analyze(args) -> int:
    from .basis import subset_index
    from .fileio import atomic_write_json
    from .marginal import complement_attributes, geometric_mean_subtable
    from .salience import psi_histogram, subset_salience
    from .table import log_transform

    table = _load_adjusted_table(args.table)
    schema = table.schema
    subset = _parse_subset(args.subset)
    logs = log_transform(table)  # taken once, for all three analyses
    gm = geometric_mean_subtable(logs, subset)
    # the spectrum scan reads, so both commands report the same Psi
    overall = float(subset_salience(logs)[0][subset_index(gm.subset)])
    histogram = psi_histogram(logs, subset)
    values = np.array([value for _, value in histogram])
    distances = np.abs(values - overall)

    def _entry(i):
        conditioning, value = histogram[i]
        return {"index": i, "conditioning": list(conditioning), "psi": value}

    others = complement_attributes(subset, schema.n_attributes)
    payload = {
        "kind": "salience_analysis",
        "subset": list(subset),
        "attributes": [schema.attribute_name(i) for i in subset],
        "conditioning_attributes": [schema.attribute_name(i) for i in others],
        "Psi": overall,
        "geo_mean": {"counts": gm.counts.tolist(), "log_values": gm.log_values.tolist()},
        "histogram": [
            {"conditioning": list(conditioning), "psi": value} for conditioning, value in histogram
        ],
        "closest_to_gm": _entry(_first_close(distances, distances.min())),
        "max_psi": _entry(_first_close(values, values.max())),
    }
    atomic_write_json(args.out, payload)
    print(f"analyze subset {list(subset)}: Psi={overall:.4f}, "
          f"{len(histogram)} conditional subtables -> {args.out}")
    return 0


def cmd_depersonalize(args) -> int:
    from .depersonalize import REFIT_TOL, LimitSpec, interaction_limit, selective_zero
    from .fileio import atomic_write_json, audit_to_dict, save_table

    table = _load_adjusted_table(args.table)
    if (args.max_order is None) == (args.zero is None):
        raise ArgumentError("choose exactly one of --max-order or --zero")
    renormalize = not args.no_renormalize
    if args.max_order is not None:
        spec = LimitSpec("order_limit", k_dagger=args.max_order,
                         renormalize=renormalize, round_counts=args.round_counts)
        released, audit = interaction_limit(table, spec)
        mode = f"order_limit(k={args.max_order})"
    else:
        seeds = tuple(_parse_subset(text) for text in args.zero)
        spec = LimitSpec("selective", zero_subsets=seeds,
                         renormalize=renormalize, round_counts=args.round_counts)
        released, audit = selective_zero(table, spec)
        mode = f"selective({len(seeds)} seeds)"
    audit_path = Path(args.out).with_suffix(".audit.json")
    atomic_write_json(audit_path, audit_to_dict(audit, table.schema, mode))
    problems = []
    if audit.refit_residual > REFIT_TOL:
        problems.append(f"zeroed blocks refit to a residual of {audit.refit_residual:.3e} "
                        f"(bound {REFIT_TOL:g})")
    if audit.violations:
        problems.append(f"{len(audit.violations)} subsets broke the salience contract")
    if problems:
        print(f"error: {' and '.join(problems)}; release not written, audit -> {audit_path}",
              file=sys.stderr)
        return 1
    save_table(args.out, released)
    print(f"depersonalize {mode}: zeroed {len(audit.zeroed_blocks)} blocks, "
          f"total drift {audit.total_drift:+.3e} -> {args.out}, {audit_path}")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_verification

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
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SalienceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    """Run :func:`main` on ``sys.argv`` and exit the process with its code.

    Before exiting, ``gc.freeze()`` moves every object the process still
    tracks into the collector's permanent generation, so the collections at
    interpreter shutdown no longer walk numpy's import-time objects.  Shutdown
    is otherwise unchanged: atexit handlers run, the standard streams are
    flushed, and every output file was closed and renamed before ``main``
    returned.  ``main`` itself leaves the collector alone.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
