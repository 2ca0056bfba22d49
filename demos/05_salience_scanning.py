"""Scoring attribute subsets by probabilistic salience.

A conditional table concentrated on a few cells lets an observer guess
the remaining attribute values with confidence; a uniform one tells them
nothing.  Salience measures that concentration as the fraction of the log
table's norm lying orthogonal to the uniform direction, and the
subset-level score applies it to the geometric-mean table, which the
projection-transfer identity ties back to the full table's interaction
blocks.
"""

import numpy as np

import psalience as ps

# Spiked tables have a closed-form score: sqrt(1 - r/M_T) when r cells
# share one raised value.  One spike in 27 cells is nearly maximal.
for r in (1, 3, 9, 27):
    values = np.ones(27)
    values[:r] = 12.0
    print(f"r={r:>2}: psi={ps.psi(values).psi:.4f}  "
          f"closed form {ps.hypercube_psi(r, 27):.4f}")

# Common powers of the entries cancel in the ratio.
values = np.linspace(1.0, 9.0, 27)
print("power invariance:", ps.psi(values).psi, ps.psi(values ** 3.7).psi)

# Plant one pairwise interaction in an otherwise flat 5-attribute table
# and scan every pair.  Only the planted pair scores.
schema = ps.generic_schema(5, 3)
table = ps.planted_interaction_table(schema, (3, 1), strength=4.0)
report = ps.scan(table, 2, workers=4)
pairs = ps.enumerate_subsets(5, 2)  # the report's arrays are in this order
print("\nrank  subset   Psi")
for i in np.argsort(report.rank)[:5]:
    print(f"  {report.rank[i]:>2}   {str(pairs[i]):>7}  {report.psi[i]:.4f}")

# Per-conditioning detail for the winning pair: one salience value per
# combination of the remaining attributes' levels.
histogram = ps.psi_histogram(table, (3, 1))
values = [value for _, value in histogram]
print(f"\n{len(histogram)} conditional subtables of the planted pair: "
      f"min {min(values):.4f}, max {max(values):.4f}")

# A perfect attribute-attribute correlation scores sqrt(1 - 1/M).
diagonal = ps.correlated_pair_table(ps.generic_schema(4, 3), (2, 0), weight=60.0)
print("\ndiagonal association Psi:", ps.Psi(diagonal, (2, 0)).psi,
      "= sqrt(1 - 1/3):", np.sqrt(1 - 1 / 3))
