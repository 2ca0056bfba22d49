"""Seeded end-to-end benchmark of the psalience pipeline.

Usage (from the repository root):

    python3 bench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

The benchmark generates seeded microdata, then drives the program one
command at a time (a closed loop with a single client): the CLI
``tabulate -> scan -> analyze -> depersonalize`` for the ``cli``
workloads, one library process for ``subset-sweep``.  It repeats the
pipeline for ``--seconds`` of measured time, checks every output against
references computed without psalience (outside the timed region) and
prints one JSON object as its last line.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` replays each command with spans around
the library's public functions and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from check import Checker, self_test, zeroed_mask
from gen import WORKLOADS, generate, write_inputs

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
CALIBRATE = HERE / "calibrate.py"
# Median wall time of calibrate.py on the machine the bounds were set on
# (2-core shared Xeon VM, Python 3.11, numpy 2.4).  That host drifts in
# speed by 15-20% over minutes.  Times of fresh-interpreter commands are
# scaled by this over the run's own calibration median, which cancels
# most of the drift for them; for the in-process stages of the library
# workload the calibration does not track the drift, so they stay raw.
REFERENCE_CALIBRATION_S = 0.33
# --version runs at the start and before each pipeline, spread over the run
SETUP_RUNS_FIRST = 3
SETUP_RUNS_PER_REP = 2
# end-to-end medians need a few pipelines even when one outlasts --seconds
MIN_REPS = 3
DEADLINE_S = 170.0
STAGES = ("tabulate", "scan", "analyze", "release")

END_TO_END_UNITS = {
    "pipeline_s": "s", "tabulate_s": "s", "scan_s": "s", "analyze_s": "s",
    "release_s": "s", "peak_rss_mib": "MiB", "setup_s": "s", "passed_ops_pct": "%",
}
PER_LAYER_UNITS = {
    "fileio.read_microdata_s": "s", "table.tabulate_s": "s", "table.zero_adjust_s": "s",
    "table.log_transform_s": "s", "fileio.load_table_s": "s", "fileio.save_table_s": "s",
    "fileio.write_report_s": "s", "fileio.bytes_written": "count",
    "fitting.fit_beta_cold_s": "s", "fitting.fit_beta_warm_s": "s",
    "fitting.reconstruct_s": "s", "fitting.replay_s": "s", "basis.cache_rss_mib": "MiB",
    "marginal.geometric_mean_subtable_s": "s", "salience.scan_s": "s",
    "salience.scan_serial_s": "s", "salience.subsets_scored": "count",
    "salience.psi_histogram_s": "s", "marginal.conditional_subtable_s": "s",
    "marginal.conditional_subtables": "count", "depersonalize.release_s": "s",
    "depersonalize.audit_s": "s", "depersonalize.audit_probe_s": "s",
    "depersonalize.subsets_audited": "count", "depersonalize.blocks_zeroed": "count",
    "depersonalize.cells_below_1": "count", "depersonalize.audit_violations": "count",
    "depersonalize.refit_zeroed_norm": "ratio", "cli.glue_s": "s", "trace.overhead_s": "s",
    "share.ingestion_pct": "%", "share.fit_beta_in_release_pct": "%",
    "share.gm_audit_pct": "%",
}
# per-layer times that are the self time of one span name
SELF_TIMES = {
    "fileio.read_microdata_s": "fileio.read_microdata", "table.tabulate_s": "table.tabulate",
    "table.zero_adjust_s": "table.zero_adjust", "table.log_transform_s": "table.log_transform",
    "fileio.load_table_s": "fileio.load_table", "fileio.save_table_s": "fileio.save_table",
    "fileio.write_report_s": "fileio.write_report",
    "marginal.geometric_mean_subtable_s": "marginal.geometric_mean_subtable",
    "salience.psi_histogram_s": "salience.psi_histogram",
    "marginal.conditional_subtable_s": "marginal.conditional_subtable",
    "depersonalize.release_s": "depersonalize.release", "depersonalize.audit_s": "depersonalize.audit",
}
SPAN_COUNTS = ("fileio.bytes_written", "salience.subsets_scored", "marginal.conditional_subtables",
               "depersonalize.subsets_audited", "depersonalize.blocks_zeroed")


class BenchError(Exception):
    """The benchmark cannot run here (no program, deadline exceeded)."""


class Bench:
    def __init__(self, root: Path, workload, seed: int, seconds: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + DEADLINE_S
        self.work = root / ".bench_work" / f"{workload.name}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.calibrations: list[float] = []
        self.notes: dict = {}

    # --- processes ---------------------------------------------------------

    def spawn(self, argv: list[str], env: dict | None = None) -> tuple[float, subprocess.CompletedProcess]:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("deadline exceeded")
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *argv], cwd=self.root, env=env or self.env,
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[:3]} did not finish before the deadline") from exc
        return time.perf_counter() - start, proc

    def cli(self, argv: list[str], spans: Path | None = None):
        if spans is None:
            return self.spawn(["-m", "psalience.cli", *argv])
        return self.spawn([str(CHILD), "trace-cli", str(spans), "--", *argv])

    def calibrate(self) -> None:
        """Time the fixed reference work, with psalience off the path."""
        env = {k: v for k, v in self.env.items() if k != "PYTHONPATH"}
        elapsed, proc = self.spawn([str(CALIBRATE)], env)
        if proc.returncode != 0:
            raise BenchError(f"calibration failed: {proc.stderr[-500:]}")
        self.calibrations.append(elapsed)

    # --- set-up ------------------------------------------------------------

    def prepare(self) -> None:
        self.work.mkdir(parents=True)
        w = self.workload
        self.data = generate(w, self.seed)
        self.schema_path, self.csv_path = write_inputs(self.data, self.work)
        self.checker = Checker(w.n, w.m, self.data.codes, self.data.pair)
        self.checker.record("checker self-test", True, self_test())
        self.spec_path = self.work / "spec.json"
        self.table_path = self.work / "out_table.json"
        self.spec_path.write_text(json.dumps({
            "schema": str(self.schema_path), "csv": str(self.csv_path),
            "pair": list(self.data.pair), "scan_ks": list(w.scan_ks), "workers": w.workers,
            "max_orders": list(w.max_orders), "table": str(self.table_path),
            "save_table": str(self.table_path),
        }))

    def setup_times(self, runs: int) -> list[float]:
        """Fresh interpreter importing psalience and printing its version."""
        times = []
        for _ in range(runs):
            elapsed, proc = self.cli(["--version"])
            ok = proc.returncode == 0 and proc.stdout.startswith("psalience ")
            self.checker.record("--version", ok, [])
            times.append(elapsed)
        return times

    # --- one pipeline ------------------------------------------------------

    def pipeline(self, traced: bool) -> dict:
        """Run every stage once and check the outputs; returns timings and spans."""
        for stale in self.work.glob("out_*"):
            stale.unlink()
        self.checker.reset_health()
        if self.workload.mode == "cli":
            return self._cli_pipeline(traced)
        return self._library_pipeline(traced)

    def _cli_pipeline(self, traced: bool) -> dict:
        w, work = self.workload, self.work
        pair = ",".join(str(a) for a in self.data.pair)
        table = str(self.table_path)
        commands = {
            "tabulate": ["tabulate", "--schema", str(self.schema_path), "--input",
                         str(self.csv_path), "--out", table],
            "scan": ["scan", "--table", table, "--k", str(w.scan_ks[0]), "--workers",
                     str(w.workers), "--out", str(work / "out_scan.json")],
            "analyze": ["analyze", "--table", table, "--subset", pair, "--out",
                        str(work / "out_analysis.json")],
            "release": ["depersonalize", "--table", table, "--max-order", str(w.max_orders[0]),
                        "--out", str(work / "out_release.json")],
        }
        result = {"stages": {}, "walls": [], "spans": []}
        ok = {}
        start = time.perf_counter()
        for stage, argv in commands.items():
            spans = work / f"spans_{stage}.json" if traced else None
            elapsed, proc = self.cli(argv, spans)
            result["stages"][stage] = elapsed
            result["walls"].append(elapsed)
            ok[stage] = proc.returncode == 0
            if traced:
                result["spans"].append(_load_spans(spans))
        result["pipeline"] = time.perf_counter() - start
        self._check_cli_outputs(ok)
        return result

    def _check_cli_outputs(self, ok: dict) -> None:
        c, w, work = self.checker, self.workload, self.work

        def table():
            t = _load_json(self.table_path)
            return c.table_problems(t["counts"], t["n_total"], t["adjusted"])

        def scan():
            entries = _load_json(work / "out_scan.json")["entries"]
            return c.scan_problems(w.scan_ks[0], [
                (e["subset"], e["Psi"], e["chi_magnitude"], e["log_norm"], e["rank"]) for e in entries])

        def analyze():
            a = _load_json(work / "out_analysis.json")
            return c.analyze_problems(a["subset"], a["Psi"], [h["psi"] for h in a["histogram"]])

        def release():
            r = _load_json(work / "out_release.json")
            audit = _load_json(work / "out_release.audit.json")
            mask = zeroed_mask(w.n, w.m, max_order=w.max_orders[0])
            return c.release_problems(r["counts"], r["n_total"], False, mask, audit["violations"],
                                      len(audit["entries"]), len(audit["zeroed_blocks"]))

        for stage, problems in (("tabulate", table), ("scan", scan), ("analyze", analyze),
                                ("release", release)):
            c.record(stage, ok[stage], _problems(problems))

    def _library_pipeline(self, traced: bool) -> dict:
        out_path = self.work / "out_session.json"
        if traced:
            spans = self.work / "spans_session.json"
            elapsed, proc = self.spawn([str(CHILD), "trace-session", str(self.spec_path),
                                        str(out_path), str(spans)])
        else:
            elapsed, proc = self.spawn([str(CHILD), "session", str(self.spec_path), str(out_path)])
        out = _load_json(out_path) if proc.returncode == 0 else None
        self._check_library_outputs(out)
        if out is None:
            return {"stages": {}, "walls": [elapsed], "spans": [], "pipeline": elapsed}
        return {"stages": out["stages"], "walls": [elapsed], "pipeline": out["pipeline_s"],
                "spans": [_load_spans(spans)] if traced else []}

    def _check_library_outputs(self, out: dict | None) -> None:
        c, w = self.checker, self.workload
        if out is None:
            for _ in range(1 + len(w.scan_ks) + 1 + len(w.max_orders) + 1):
                c.record("library session", False, [])
            return
        c.record("tabulate", True, _problems(lambda: c.table_problems(
            out["table"]["counts"], out["table"]["n_total"], out["table"]["adjusted"])))
        for entry in out["scans"]:
            c.record(f"scan k={entry['k']}", entry["error"] is None, [] if entry["error"] else
                     _problems(lambda: c.scan_problems(entry["k"], entry["entries"])))
        analyze = out["analyze"]
        c.record("psi_histogram", analyze["error"] is None, [] if analyze["error"] else
                 _problems(lambda: c.analyze_problems(analyze["subset"], None, analyze["histogram"])))
        for rel in out["releases"]:
            label = f"release {rel.get('max_order', rel.get('seeds'))}"
            if rel["error"] is not None:
                c.record(label, False, [rel["error"]])
                continue
            if "max_order" in rel:
                mask = zeroed_mask(w.n, w.m, max_order=rel["max_order"])
            else:
                mask = zeroed_mask(w.n, w.m, seeds=[tuple(s) for s in rel["seeds"]])
            c.record(label, True, _problems(lambda: c.release_problems(
                rel["counts"], rel["n_total"], rel["rounded"], mask, rel["violations"],
                rel["audited"], rel["zeroed"])))

    # --- runs --------------------------------------------------------------

    def repeat(self, once, min_reps: int) -> list:
        """Call ``once`` until ``seconds`` of pipeline time, at least ``min_reps`` times."""
        results, measured = [], 0.0
        while measured < self.seconds or len(results) < min_reps:
            result = once()
            results.append(result)
            measured += result["measured"]
        return results

    def end_to_end(self) -> dict:
        self.calibrate()
        setup = self.setup_times(SETUP_RUNS_FIRST)

        def once():
            self.calibrate()
            setup.extend(self.setup_times(SETUP_RUNS_PER_REP))
            result = self.pipeline(traced=False)
            result["measured"] = result["pipeline"]
            return result

        reps = self.repeat(once, MIN_REPS)
        times = {f"{stage}_s": statistics.median(r["stages"].get(stage, 0.0) for r in reps)
                 for stage in STAGES}
        times["pipeline_s"] = statistics.median(r["pipeline"] for r in reps)
        times["setup_s"] = statistics.median(setup)
        speed = REFERENCE_CALIBRATION_S / statistics.median(self.calibrations)
        fresh = set(times) if self.workload.mode == "cli" else {"setup_s"}
        self.notes = {"measured_s": times, "calibration_s": self.calibrations,
                      "speed_factor": speed, "speed_corrected": sorted(fresh),
                      "repetitions": len(reps)}
        values = {name: value * speed if name in fresh else value for name, value in times.items()}
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        values["peak_rss_mib"] = usage.ru_maxrss / 1024.0  # KiB on Linux
        return values

    def per_layer(self) -> dict:
        probe = None

        def once():
            nonlocal probe
            plain = self.pipeline(traced=False)
            if probe is None:  # needs the table the untraced pipeline wrote
                probe = self.run_probe()
            traced = self.pipeline(traced=True)
            layers = layer_metrics(traced)
            layers["trace.overhead_s"] = traced["pipeline"] - plain["pipeline"]
            for name, value in self.checker.health.items():
                layers[f"depersonalize.{name}"] = value
            layers["measured"] = plain["pipeline"] + traced["pipeline"]
            return layers

        reps = self.repeat(once, 1)
        values = {name: statistics.median(r[name] for r in reps) for name in reps[0]
                  if name != "measured"}
        values.update(probe)
        return values

    def run_probe(self) -> dict:
        out_path = self.work / "out_probe.json"
        _, proc = self.spawn([str(CHILD), "probe", str(self.spec_path), str(out_path)])
        probe = _load_json(out_path) if proc.returncode == 0 else None
        self.checker.record("probe", probe is not None, [])
        return probe or {}


def _load_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _load_spans(path: Path) -> dict:
    return _load_json(path) or {"spans": [], "counts": {}}


def _problems(compute) -> list[str]:
    """Run one output check; output that cannot be read fails it."""
    try:
        return compute()
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"missing or malformed output ({exc!r})"]


def self_times(spans: list) -> dict[str, float]:
    """Summed self time per span name: duration minus the union of children."""
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - _union(children.get(i, []))
    return totals


def inclusive_times(spans: list) -> dict[str, float]:
    totals: dict[str, float] = {}
    for name, start, end, _ in spans:
        totals[name] = totals.get(name, 0.0) + end - start
    return totals


def _union(intervals: list) -> float:
    covered, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def layer_metrics(traced: dict) -> dict:
    """Per-layer numbers from one traced pipeline (one span file per process)."""
    selfs: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    counts: dict[str, float] = {}
    glue = 0.0
    for wall, record in zip(traced["walls"], traced["spans"]):
        spans = record["spans"]
        for totals, part in ((selfs, self_times(spans)), (inclusive, inclusive_times(spans))):
            for name, value in part.items():
                totals[name] = totals.get(name, 0.0) + value
        for name, value in record["counts"].items():
            counts[name] = counts.get(name, 0) + value
        glue += wall - _union([(s, e) for _, s, e, parent in spans if parent is None])
    out = {metric: selfs.get(name, 0.0) for metric, name in SELF_TIMES.items()}
    out.update({name: counts.get(name, 0) for name in SPAN_COUNTS})
    out["fitting.replay_s"] = selfs.get("fitting.fit_beta", 0.0) + selfs.get("fitting.reconstruct", 0.0)
    out["cli.glue_s"] = glue
    pipeline = traced["pipeline"]
    release = traced["stages"].get("release", 0.0)
    out["share.ingestion_pct"] = 100.0 * (
        selfs.get("fileio.read_microdata", 0.0) + selfs.get("table.tabulate", 0.0)) / pipeline
    out["share.fit_beta_in_release_pct"] = (
        100.0 * selfs.get("fitting.fit_beta", 0.0) / release if release else 0.0)
    out["share.gm_audit_pct"] = 100.0 * (
        inclusive.get("salience.scan", 0.0) + inclusive.get("depersonalize.audit", 0.0)) / pipeline
    return out


def stamp(root: Path, seed: int, workload: str, trace: int) -> dict:
    """Where and on what a result was measured."""
    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction" and level in ("2", "3"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "caches": caches, "git_sha": git_sha(root),
        "memory": "peak_rss_mib is ru_maxrss of RUSAGE_CHILDREN: only the benchmark's "
                  "own child processes, never the benchmark process itself",
    }


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git; checkouts may have none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "psalience" / "__init__.py").is_file():
        print(f"error: no psalience sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    bench = Bench(root, WORKLOADS[args.workload], args.seed, args.seconds)
    try:
        bench.prepare()
        if args.trace:
            values, units = bench.per_layer(), PER_LAYER_UNITS
        else:
            values, units = bench.end_to_end(), END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass
    c = bench.checker
    if not args.trace:
        values["passed_ops_pct"] = 100.0 * (c.attempted - c.failed) / c.attempted
    missing = sorted(set(units) - set(values))
    for message in c.messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"stamp": stamp(root, args.seed, args.workload, args.trace), **bench.notes}))
    print(json.dumps({
        "correct": c.failed == 0,
        "attempted": c.attempted,
        "failed": c.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
