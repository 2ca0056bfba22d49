"""Command-line surface tying the pipeline together.

Subcommands: ``tabulate`` (CSV microdata to adjusted table), ``scan``
(rank attribute subsets by salience), ``analyze`` (drill into one
subset), ``depersonalize`` (interaction-limited release plus audit) and
``verify`` (structural self-checks).

Exit codes: 0 success, 1 verification failure (a ``verify`` suite failed,
or a release's audit found contract violations or zeroed blocks that do
not refit to zero; the release is then not written), 2 usage error, 3 data
error; a failure prints one ``error:`` line on stderr.  Each argument rule
this module owns is an argparse type (``_integer``, ``_workers``,
``_fraction``, ``_subset``, ``_output``, ``_release``) or ``depersonalize``'s required
group of one mode, so argparse refuses it while it parses the command line,
before any input is read, with its usage and one ``psalience <command>:
error:`` line.  A command body refuses only an output that is one of its
inputs, also before reading.  The library's rules raise ``ArgumentError``
(exit 2) after the table is loaded, so with a missing table ``scan --k 0``
exits 3.  Given the same inputs and seed every command is deterministic.

``run`` is the process entry point (``python -m psalience.cli`` and the
``psalience`` script); in-process callers use ``main``.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from operator import itemgetter
from pathlib import Path

from . import __version__
from .errors import ArgumentError, SalienceError

# Each command imports the modules it runs inside its own body, so a process
# loads only those: --version and tabulate never import numpy or the analysis
# modules, and only verify imports verify, synthetic and reference.

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
    p.add_argument("--out", required=True, type=_output, help="output table JSON file")
    p.set_defaults(func=cmd_tabulate)

    p = sub.add_parser("scan", help="rank all size-k attribute subsets by salience")
    p.add_argument("--table", required=True, help="adjusted table JSON file")
    p.add_argument("--k", type=_integer, required=True, help="subset size, 1 <= k <= N-1")
    p.add_argument("--threshold", type=_fraction, default=DEFAULT_AMBER,
                   help=f"amber warning boundary in [0, 1] (default {DEFAULT_AMBER})")
    p.add_argument("--workers", type=_workers, default=1,
                   help="accepted for compatibility (>= 1) but changes nothing: every "
                   "subset's score comes from one transform plus O(N*2**N) sums")
    p.add_argument("--out", required=True, type=_output, help="output report JSON file")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("analyze", help="per-conditioning salience of one subset")
    p.add_argument("--table", required=True, help="adjusted table JSON file")
    p.add_argument("--subset", required=True, type=_subset,
                   help="comma-separated attribute indices, descending (e.g. 4,2,0)")
    p.add_argument("--out", required=True, type=_output, help="output analysis JSON file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("depersonalize", help="interaction-limited release of a table")
    p.add_argument("--table", required=True, help="adjusted table JSON file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--max-order", type=_integer, help="zero every block of size above this order")
    mode.add_argument("--zero", action="append", type=_subset, metavar="SUBSET",
                      help="subset to zero (repeatable); closed upward automatically")
    p.add_argument("--no-renormalize", action="store_true",
                   help="keep the raw reconstruction instead of rescaling to the original total")
    p.add_argument("--round-counts", action="store_true",
                   help="round released counts to integers, preserving the total exactly; "
                   "totals above 2**53 are refused (exit 3)")
    p.add_argument("--out", required=True, type=_release, help="released table JSON file; the audit "
                   "is written alongside with an .audit.json suffix")
    p.set_defaults(func=cmd_depersonalize)

    p = sub.add_parser("verify", help="run the structural verification suites")
    p.add_argument("--n", type=_integer, required=True, help="number of attributes")
    p.add_argument("--m", type=_integer, required=True, help="levels per attribute")
    p.add_argument("--seed", type=_integer, default=0, help="random seed (default 0)")
    p.add_argument("--trials", type=_integer, default=20, help="random tables per suite (default 20)")
    p.add_argument("--self-test-perturb", action="store_true",
                   help="corrupt one basis column before the orthogonality suite; the run must then fail")
    p.set_defaults(func=cmd_verify)

    return parser


def _integer(text: str) -> int:
    """An integer argument: ASCII digits after an optional ``-``, which the library's range
    checks then refuse by name.  ``int`` alone also reads ``1_0``, ``+1``, padding and
    other scripts' digits (``\u0661`` is 1)."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return int(text)


def _workers(text: str) -> int:
    workers = _integer(text)
    if workers < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not at least 1")
    return workers


def _fraction(text: str) -> float:
    """A decimal in ``[0, 1]``: ASCII digits with at most one ``.`` and no sign.  ``float``
    alone also reads ``-0``, ``0.0_5``, padding, exponents, ``nan`` and other scripts' digits."""
    digits = text.replace(".", "", 1)
    if not (digits.isascii() and digits.isdigit() and float(text) <= 1.0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a decimal number in [0, 1]")
    return float(text)


def _subset(text: str) -> tuple[int, ...]:
    """Comma-separated integers; the library checks their range and order against the table."""
    return tuple(_integer(part) for part in text.split(","))


def _output(text: str) -> str:
    """An ``--out`` that names a file: its last path component is not empty, ``.`` or ``..``,
    it is not an existing directory, and its directory is one, all of which the write
    would fail on after the command ran."""
    if os.path.basename(text) in ("", ".", ".."):
        raise argparse.ArgumentTypeError(f"{text!r} names no file")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    directory = os.path.dirname(text) or "."
    if not os.path.isdir(directory):  # missing, or a file
        raise argparse.ArgumentTypeError(f"{text!r} is in {directory!r}, which is not a directory")
    return text


def _audit_path(release: str) -> Path:
    """Where ``depersonalize`` writes the audit of a release written to ``release``."""
    return Path(release).with_suffix(".audit.json")


def _release(text: str) -> str:
    """``depersonalize``'s ``--out``: an :func:`_output` whose audit path is not an
    existing directory either, which the audit's write would fail on after the release ran."""
    audit = _audit_path(_output(text))
    if audit.is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} writes its audit to {str(audit)!r}, a directory")
    return text


def _refuse_input_as_output(args, *outputs) -> None:
    """Refuse, as a usage error, an output that is the same file as an input,
    which the write would replace.  Runs before any file is read."""
    inputs = [(flag, getattr(args, flag)) for flag in ("table", "schema", "input") if hasattr(args, flag)]
    for output in outputs:
        for flag, path in inputs:
            try:
                same = os.path.samefile(output, path)
            except OSError:  # either does not exist yet, so no write can replace the input
                continue
            if same:
                raise ArgumentError(f"output {output} is the --{flag} input {path}; "
                                    "choose another --out")


def _load_adjusted_table(path):
    from .fileio import load_table

    table = load_table(path)
    if not table.adjusted:
        raise SalienceError(f"{path}: table is not adjusted; run tabulate (or zero-adjust) first")
    return table


def cmd_tabulate(args) -> int:
    # the adjusted table goes from the plain-Python tally to its file, so no numpy is loaded
    from .fileio import atomic_write_json, count_microdata, counts_to_dict, load_schema
    from .schema import zero_adjustment

    _refuse_input_as_output(args, args.out)
    schema = load_schema(args.schema)
    counts, n_total = count_microdata(args.input, schema)
    adjust = zero_adjustment(float(n_total), schema.n_cells)
    # a table holds few distinct counts: adjust each once
    adjusted = list(map({count: adjust(count) for count in set(counts)}.__getitem__, counts))
    atomic_write_json(args.out, counts_to_dict(schema, adjusted, n_total, adjusted=True))
    print(f"tabulated {n_total} records into {schema.n_cells} cells -> {args.out}")
    return 0


def cmd_scan(args) -> int:
    from .fileio import atomic_write_json, classify_warning, report_to_dict
    from .salience import scan

    _refuse_input_as_output(args, args.out)
    table = _load_adjusted_table(args.table)
    amber = args.threshold
    red = max(DEFAULT_RED, amber)
    report = scan(table, args.k)
    payload = report_to_dict(report, table.schema, amber, red)
    atomic_write_json(args.out, payload)
    rows = payload["entries"]
    top = (report.rank <= 10).nonzero()[0].tolist()  # ranks are 1..len: one pass, and only ten are sorted
    for rank, psi, subset in sorted(itemgetter("rank", "Psi", "subset")(rows[i]) for i in top):
        names = ":".join(map(table.schema.attribute_name, subset))
        print(f"  #{rank:<3} {names:<24} Psi={psi:.4f} [{classify_warning(psi, amber, red)}]")
    print(f"scan k={args.k}: {len(rows)} subsets -> {args.out}")
    return 0


def cmd_analyze(args) -> int:
    from .basis import subset_index
    from .fileio import analysis_to_dict, atomic_write_json
    from .marginal import geometric_mean_subtable
    from .salience import psi_histogram, subset_salience
    from .table import log_transform

    _refuse_input_as_output(args, args.out)
    table = _load_adjusted_table(args.table)
    logs = log_transform(table)  # taken once, for all three analyses
    gm_logs = geometric_mean_subtable(logs, args.subset)
    # the spectrum scan reads, so both commands report the same Psi
    overall = float(subset_salience(logs)[0][subset_index(args.subset)])
    histogram = psi_histogram(logs, args.subset)
    atomic_write_json(args.out, analysis_to_dict(args.subset, table.schema, overall, gm_logs, histogram))
    print(f"analyze subset {list(args.subset)}: Psi={overall:.4f}, "
          f"{len(histogram)} conditional subtables -> {args.out}")
    return 0


def cmd_depersonalize(args) -> int:
    from .depersonalize import REFIT_TOL, LimitSpec, interaction_limit, selective_zero
    from .fileio import atomic_write_json, audit_to_dict, save_table

    audit_path = _audit_path(args.out)
    _refuse_input_as_output(args, args.out, audit_path)
    table = _load_adjusted_table(args.table)
    renormalize = not args.no_renormalize
    if args.max_order is not None:
        spec = LimitSpec("order_limit", k_dagger=args.max_order,
                         renormalize=renormalize, round_counts=args.round_counts)
        released, audit = interaction_limit(table, spec)
        mode = f"order_limit(k={args.max_order})"
    else:
        spec = LimitSpec("selective", zero_subsets=args.zero,
                         renormalize=renormalize, round_counts=args.round_counts)
        released, audit = selective_zero(table, spec)
        mode = f"selective({len(args.zero)} seeds)"
    atomic_write_json(audit_path, audit_to_dict(audit, table.schema, mode))
    problems = []
    if audit.refit_residual > REFIT_TOL:
        problems.append(f"zeroed blocks refit to a residual of {audit.refit_residual:.3e} "
                        f"(bound {REFIT_TOL:g})")
    if audit.violated.any():
        problems.append(f"{int(audit.violated.sum())} subsets broke the salience contract")
    if problems:
        print(f"error: {' and '.join(problems)}; release not written, audit -> {audit_path}",
              file=sys.stderr)
        return 1
    save_table(args.out, released)
    print(f"depersonalize {mode}: zeroed {int(audit.zeroed.sum())} blocks, "
          f"total drift {audit.total_drift:+.3e} -> {args.out}, {audit_path}")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_verification

    report = run_verification(
        args.n, args.m, seed=args.seed, trials=args.trials, perturb=args.self_test_perturb
    )
    for line in report.lines():
        print(line)
    if not report.passed:
        print("error: verification failed; the FAIL lines above name the suites", file=sys.stderr)
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
    except (SalienceError, OSError) as exc:
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
