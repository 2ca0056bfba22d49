"""Workload definitions and the seeded microdata generator.

The program under test only ever sees the schema JSON and the CSV this
module writes.  The integer level codes behind the CSV are kept in memory
so the checker can tabulate them independently of psalience.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Probability that the second attribute of the planted pair copies the first.
PLANT_RHO = 0.8
# Dirichlet concentration of every attribute's marginal: near-uniform, so
# main effects stay small next to the planted pairwise interaction.
MARGINAL_CONCENTRATION = 200.0


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    rows: int
    mode: str  # "cli": one CLI command per stage; "library": one library process
    scan_ks: tuple[int, ...]
    workers: int
    max_orders: tuple[int, ...]


WORKLOADS = {
    w.name: w
    for w in (
        # Cost grows along three separate axes (records, M**N cells, 2**N
        # subsets); each workload makes one of them dominate.
        # per-record ingestion dominates; the basis is tiny
        Workload("ingest", 6, 3, 400_000, "cli", (2,), 1, (2,)),
        # the cold M**N x M**N basis build dominates release_s and peak RSS
        Workload("wide-cells", 8, 3, 20_000, "cli", (2,), 1, (2,)),
        # a custodian picking a cutoff: per-subset geometric-mean loops in
        # scan and audit dominate, and fitting runs warm after the first call
        Workload("subset-sweep", 12, 2, 20_000, "library", tuple(range(1, 12)), 2, (1, 2, 3)),
    )
}


@dataclass(frozen=True)
class Microdata:
    workload: Workload
    seed: int
    levels: tuple[tuple[str, ...], ...]  # per schema position, in level order
    codes: np.ndarray  # (rows, n) level indices in schema order
    pair: tuple[int, int]  # planted attributes, psalience numbering, descending

    @property
    def names(self) -> list[str]:
        return [f"f{p}" for p in range(self.workload.n)]

    def schema_dict(self) -> dict:
        return {
            "attributes": [
                {"name": name, "levels": list(levels)}
                for name, levels in zip(self.names, self.levels)
            ]
        }


def generate(workload: Workload, seed: int) -> Microdata:
    """Draw seeded records with one strongly correlated attribute pair."""
    n, m = workload.n, workload.m
    rng = np.random.default_rng([seed, n, m, workload.rows])
    codes = np.empty((workload.rows, n), dtype=np.int64)
    for p in range(n):
        probs = rng.dirichlet(np.full(m, MARGINAL_CONCENTRATION))
        codes[:, p] = rng.choice(m, size=workload.rows, p=probs)
    first, second = sorted(rng.choice(n, size=2, replace=False).tolist())
    copy = rng.random(workload.rows) < PLANT_RHO
    codes[copy, second] = codes[copy, first]
    # level labels are shuffled so label order carries no information
    levels = tuple(
        tuple(f"v{int(x)}" for x in rng.permutation(m)) for _ in range(n)
    )
    # schema position p is attribute n-1-p
    pair = (n - 1 - first, n - 1 - second)
    return Microdata(workload, seed, levels, codes, pair)


def write_inputs(data: Microdata, workdir: Path) -> tuple[Path, Path]:
    """Write the schema JSON and the CSV (columns in a seeded order)."""
    n = data.workload.n
    schema_path = workdir / "schema.json"
    schema_path.write_text(json.dumps(data.schema_dict(), indent=2) + "\n", encoding="utf-8")
    order = np.random.default_rng(data.seed).permutation(n)
    labels = [np.array(data.levels[p], dtype=object) for p in range(n)]
    columns = [labels[p][data.codes[:, p]] for p in order]
    lines = [",".join(data.names[p] for p in order)]
    lines.extend(",".join(row) for row in zip(*columns))
    csv_path = workdir / "microdata.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return schema_path, csv_path
