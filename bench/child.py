"""Code that runs in the benchmark's fresh child processes.

Subcommands:

* ``session SPEC OUT`` runs the library session of a workload (ingest,
  scans, histogram, releases) and writes stage times and outputs to OUT.
* ``trace-session SPEC OUT SPANS`` does the same with spans recorded.
* ``trace-cli SPANS -- ARGV...`` runs one CLI command with spans recorded.
* ``probe SPEC OUT`` times cold and warm ``fit_beta``, ``reconstruct``,
  one full ``audit`` and the scans at the workload's worker count and
  serially, in a process whose basis cache starts empty.

Spans are kept in memory and written when the traced work ends.  They
wrap the public functions of psalience (plus the audit loop) from here,
so nothing under ``src/`` is instrumented.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import threading
import time

now = time.perf_counter
ANALYZE_CALLS = 5


class Tracer:
    """Spans of (name, start, end, parent) plus per-layer counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # worker-pool threads belong to the span open on the main thread
        return self._main_stack[-1] if self._main_stack else None

    def current_name(self) -> str | None:
        parent = self._parent(self._stack())
        return None if parent is None else self.spans[parent][0]

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        with self._lock:
            span_id = len(self.spans)
            self.spans.append([name, now(), None, self._parent(stack)])
        stack.append(span_id)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            self.spans[span_id][2] = now()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def install(tracer: Tracer) -> None:
    """Replace traced psalience functions in every module that holds them."""
    import psalience
    from psalience import depersonalize, fileio, fitting, marginal, salience, table

    def spanned(name, fn, after=None, materialise=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            def run():
                result = fn(*args, **kwargs)
                # read_microdata is a generator: its work happens when consumed
                return list(result) if materialise else result
            result = tracer.call(name, run, (), {})
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def write_json(fn):
        @functools.wraps(fn)
        def wrapper(path, payload):
            if tracer.current_name() == "fileio.save_table":
                fn(path, payload)  # part of save_table's span
            else:
                tracer.call("fileio.write_report", fn, (path, payload), {})
            tracer.count("fileio.bytes_written", os.path.getsize(path))
        return wrapper

    def audited(result, _args):
        release_audit = result[1] if isinstance(result, tuple) else result
        tracer.count("depersonalize.subsets_audited", len(release_audit.entries))
        tracer.count("depersonalize.blocks_zeroed", len(release_audit.zeroed_blocks))

    replacements = {
        fileio.read_microdata: spanned("fileio.read_microdata", fileio.read_microdata, materialise=True),
        fileio.load_table: spanned("fileio.load_table", fileio.load_table),
        fileio.save_table: spanned("fileio.save_table", fileio.save_table),
        fileio.atomic_write_json: write_json(fileio.atomic_write_json),
        table.tabulate: spanned("table.tabulate", table.tabulate),
        table.zero_adjust: spanned("table.zero_adjust", table.zero_adjust),
        table.log_transform: spanned("table.log_transform", table.log_transform),
        fitting.fit_beta: spanned("fitting.fit_beta", fitting.fit_beta),
        fitting.reconstruct: spanned("fitting.reconstruct", fitting.reconstruct),
        marginal.geometric_mean_subtable: spanned(
            "marginal.geometric_mean_subtable", marginal.geometric_mean_subtable),
        marginal.conditional_subtable: spanned(
            "marginal.conditional_subtable", marginal.conditional_subtable,
            after=lambda r, a: tracer.count("marginal.conditional_subtables", 1)),
        salience.scan: spanned(
            "salience.scan", salience.scan,
            after=lambda r, a: tracer.count("salience.subsets_scored", len(r.entries))),
        salience.psi_histogram: spanned("salience.psi_histogram", salience.psi_histogram),
        depersonalize.interaction_limit: spanned(
            "depersonalize.release", depersonalize.interaction_limit, after=audited),
        depersonalize.selective_zero: spanned(
            "depersonalize.release", depersonalize.selective_zero, after=audited),
        # the audit loop is private but is where releases spend their time
        depersonalize._audit_log_values: spanned(
            "depersonalize.audit", depersonalize._audit_log_values),
    }
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "psalience" or name.startswith("psalience."))]
    for module in modules + [psalience]:
        for attr, value in list(vars(module).items()):
            if callable(value) and value in replacements:
                setattr(module, attr, replacements[value])


def _rss_bytes() -> int:
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def session(spec: dict, save_table_to: str | None) -> dict:
    """A data custodian's session in one process; returns stage times and outputs."""
    from psalience.depersonalize import LimitSpec, interaction_limit, selective_zero
    from psalience.fileio import load_schema, read_microdata, save_table
    from psalience.salience import psi_histogram, scan
    from psalience.table import tabulate, zero_adjust

    pair = tuple(spec["pair"])
    stages: dict[str, float] = {}
    out: dict = {"stages": stages}

    start = now()
    schema = load_schema(spec["schema"])
    rows = list(read_microdata(spec["csv"], schema))
    table = zero_adjust(tabulate((labels for _, labels in rows), schema))
    del rows
    stages["tabulate"] = now() - start

    def attempt(fn, *args):
        try:
            return fn(*args), None
        except Exception as exc:  # recorded and counted as a failed operation
            return None, repr(exc)

    mark = now()
    scans = []
    for k in spec["scan_ks"]:
        report, error = attempt(scan, table, k, spec["workers"])
        scans.append((k, report, error))
    stages["scan"] = now() - mark

    # one call takes ~50 ms, too short to time steadily on a noisy host
    mark = now()
    for _ in range(ANALYZE_CALLS):
        histogram, histogram_error = attempt(psi_histogram, table, pair)
    stages["analyze"] = now() - mark

    mark = now()
    releases = []
    for k in spec["max_orders"]:
        result, error = attempt(interaction_limit, table, LimitSpec("order_limit", k_dagger=k))
        releases.append(({"max_order": k, "rounded": False}, result, error))
    result, error = attempt(
        selective_zero, table, LimitSpec("selective", zero_subsets=(pair,), round_counts=True))
    releases.append(({"seeds": [list(pair)], "rounded": True}, result, error))
    end = now()
    stages["release"] = end - mark
    out["pipeline_s"] = end - start

    out["table"] = {"counts": table.counts.tolist(), "n_total": table.n_total,
                    "adjusted": table.adjusted}
    out["scans"] = [
        {"k": k, "error": error, "entries": None if report is None else [
            [list(e.subset), e.salience.psi, e.salience.chi_magnitude, e.salience.log_norm, e.rank]
            for e in report.entries]}
        for k, report, error in scans
    ]
    out["analyze"] = {"subset": list(pair), "error": histogram_error,
                      "histogram": None if histogram is None else [v for _, v in histogram]}
    out["releases"] = []
    for info, result, error in releases:
        entry = dict(info, error=error)
        if result is not None:
            released, audit = result
            entry.update(counts=released.counts.tolist(), n_total=released.n_total,
                         violations=[list(s) for s in audit.violations],
                         audited=len(audit.entries), zeroed=len(audit.zeroed_blocks))
        out["releases"].append(entry)
    if save_table_to:
        save_table(save_table_to, table)
    return out


def probe(spec: dict) -> dict:
    """Layer costs that a replay hides once the basis cache is warm."""
    from psalience.basis import all_subsets
    from psalience.depersonalize import audit
    from psalience.fileio import load_table
    from psalience.fitting import fit_beta, reconstruct
    from psalience.salience import scan
    from psalience.table import log_transform

    table = load_table(spec["table"])
    logs = log_transform(table)
    n = table.schema.n_attributes
    out = {}
    rss_before = _rss_bytes()
    mark = now()
    beta = fit_beta(logs)
    out["fitting.fit_beta_cold_s"] = now() - mark
    out["basis.cache_rss_mib"] = (_rss_bytes() - rss_before) / 2 ** 20
    mark = now()
    fit_beta(logs)
    out["fitting.fit_beta_warm_s"] = now() - mark
    mark = now()
    reconstruct(beta, table.schema)
    out["fitting.reconstruct_s"] = now() - mark
    zeroed = [s for s in all_subsets(n) if len(s) > spec["max_orders"][0]]
    mark = now()
    audit(table, table, zeroed_blocks=zeroed)
    out["depersonalize.audit_probe_s"] = now() - mark
    scan(table, 1)  # first-call costs stay out of both scan timings
    for key, workers in (("salience.scan_s", spec["workers"]), ("salience.scan_serial_s", 1)):
        mark = now()
        for k in spec["scan_ks"]:
            scan(table, k, workers)
        out[key] = now() - mark
    return out


def _write(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def main(argv: list[str]) -> int:
    command = argv[0]
    if command == "trace-cli":
        spans_path, cli_argv = argv[1], argv[3:]
        tracer = Tracer()
        import psalience.cli as cli
        install(tracer)
        try:
            return cli.main(cli_argv)
        finally:
            tracer.dump(spans_path)
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    if command == "session":
        _write(argv[2], session(spec, spec.get("save_table")))
    elif command == "trace-session":
        tracer = Tracer()
        install(tracer)
        try:
            _write(argv[2], session(spec, None))
        finally:
            tracer.dump(argv[3])
    elif command == "probe":
        _write(argv[2], probe(spec))
    else:
        print(f"unknown subcommand {command!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
