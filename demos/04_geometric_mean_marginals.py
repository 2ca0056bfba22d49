"""Conditional subtables and geometric-mean marginalisation.

Fixing the levels of the attributes outside a subset slices the table
into conditional subtables; the geometric mean over all those slices
reduces the table to the subset's attributes alone.  Unlike ordinary
(arithmetic) marginalisation, this reduction preserves the interaction
structure: projection magnitudes transfer between the full table and the
reduced one up to an exact power-of-M scale factor.
"""

import itertools

import numpy as np

import psalience as ps

rng = np.random.default_rng(1)
schema = ps.generic_schema(4, 2)
table = ps.random_adjusted_table(schema, rng)
n, m = schema.n_attributes, schema.n_levels

# Slices over one conditioning combination at a time tile the table.
subset = (3, 1)
covered = []
for combo in itertools.product(range(m), repeat=n - len(subset)):
    _, cell_ranks = ps.conditional_subtable(table, subset, combo)
    covered.extend(cell_ranks.tolist())
print("partition covers every cell exactly once:",
      sorted(covered) == list(range(schema.n_cells)))

# The geometric mean is computed in log space (mean of logs), which stays
# stable however large the population is; its exponential is the table.
gm = np.exp(ps.geometric_mean_subtable(table, subset))
print("geometric-mean table:", np.round(gm, 3))
arithmetic = table.reshaped().mean(axis=(1, 3)).ravel()
print("arithmetic marginal :", np.round(arithmetic, 3), "(never below the GM)")

# Projection transfer: the full table's projection onto any subset of the
# retained attributes equals M**((N-k0)/2) times the reduced projection.
for inner in [(3, 1), (3,), (1,)]:
    lhs, rhs = ps.gm_projection_identity(table, subset, inner)
    print(f"inner {str(inner):>6}: full {lhs:.6f}  scaled reduced {rhs:.6f}  "
          f"gap {abs(lhs - rhs):.2e}")

# And in aggregate over every non-empty subset of the retained attributes.
lhs, rhs = ps.gm_projection_total_identity(table, subset)
print(f"aggregate: {lhs:.6f} vs {rhs:.6f}")
