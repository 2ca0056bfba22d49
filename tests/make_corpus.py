"""Regenerate the committed output corpus in ``tests/corpus``.

Run from the repository root after a change that alters an output:

    PYTHONPATH=src python tests/make_corpus.py

It writes the seeded inputs (three tables, a schema and a 30-row microdata
CSV), then runs every case in :data:`CASES` through ``cli.main`` inside the
corpus directory, keeping each case's output files and its stdout
(``<case>.stdout``).  ``tests/test_corpus.py`` reruns the same cases on the
committed inputs and compares the results with these files.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

import psalience as ps
from psalience.cli import main as cli_main
from psalience.fileio import save_table
from psalience.synthetic import random_adjusted_table

CORPUS = Path(__file__).parent / "corpus"

# name: (N, M, seed) of a random_adjusted_table
TABLES = {"t3x2": (3, 2, 1), "t4x3": (4, 3, 2), "t6x2": (6, 2, 3)}
SUBSETS = {"t3x2": "1,0", "t4x3": "3,1", "t6x2": "4,2,0"}
ZERO = {"t3x2": ["1,0"], "t4x3": ["2,1", "3,0"], "t6x2": ["5,4", "1,0"]}
SCHEMA = {"attributes": [{"name": "region", "levels": ["north", "south"]},
                         {"name": "age", "levels": ["young", "old"]},
                         {"name": "tenure", "levels": ["own", "rent"]}]}


def _cases():
    yield "tabulate", ["tabulate", "--schema", "schema.json", "--input", "micro.csv",
                       "--out", "tabulate.json"]
    for t in TABLES:
        table = ["--table", f"{t}.json"]
        for k in (1, 2):
            yield f"{t}-scan-k{k}", ["scan", *table, "--k", str(k), "--out", f"{t}-scan-k{k}.json"]
        yield f"{t}-analyze", ["analyze", *table, "--subset", SUBSETS[t], "--out", f"{t}-analyze.json"]
        yield f"{t}-order", ["depersonalize", *table, "--max-order", "1", "--out", f"{t}-order.json"]
        zero = [arg for subset in ZERO[t] for arg in ("--zero", subset)]
        yield f"{t}-zero", ["depersonalize", *table, *zero, "--out", f"{t}-zero.json"]
        yield f"{t}-rounded", ["depersonalize", *table, "--max-order", "2", "--round-counts",
                               "--out", f"{t}-rounded.json"]
    yield "verify", ["verify", "--n", "3", "--m", "2", "--trials", "1"]


# (case name, argv); each case writes <name>.json (and <name>.audit.json) in the working directory
CASES = dict(_cases())


def run_case(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` in the working directory: its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def write_inputs(directory: Path) -> None:
    for name, (n, m, seed) in TABLES.items():
        save_table(directory / f"{name}.json",
                   random_adjusted_table(ps.generic_schema(n, m), np.random.default_rng(seed)))
    (directory / "schema.json").write_text(json.dumps(SCHEMA, indent=1) + "\n", encoding="utf-8")
    rng = np.random.default_rng(4)
    attributes = SCHEMA["attributes"]
    with open(directory / "micro.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([a["name"] for a in attributes])
        for _ in range(30):
            writer.writerow([a["levels"][int(rng.integers(2))] for a in attributes])


def main() -> int:
    CORPUS.mkdir(exist_ok=True)
    for stale in CORPUS.iterdir():
        stale.unlink()
    write_inputs(CORPUS)
    os.chdir(CORPUS)
    for name, argv in CASES.items():
        code, stdout = run_case(argv)
        if code != 0:
            print(f"case {name} exited {code}", file=sys.stderr)
            return 1
        Path(f"{name}.stdout").write_text(stdout, encoding="utf-8")
    size = sum(p.stat().st_size for p in CORPUS.iterdir())
    print(f"{len(CASES)} cases, {len(list(CORPUS.iterdir()))} files, {size} bytes -> {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
