"""Building contingency tables: schemas, indexing, zero adjustment, logs.

A table over N categorical attributes (all with the same number of levels
M) is stored as a flat vector of M**N counts.  Cells are identified by a
digit tuple, one digit per attribute with the highest-numbered attribute
leftmost, and flattened so the digit of attribute 0 varies fastest.
"""

import numpy as np

import psalience as ps

# A tiny survey: two attributes, two levels each.  The first-listed
# attribute is the highest-numbered one (attribute 1 here).
schema = ps.AttributeSchema((
    ("region", ("north", "south")),
    ("band", ("lo", "hi")),
))
print(f"{schema.n_attributes} attributes x {schema.n_levels} levels "
      f"= {schema.n_cells} cells")

# Cell bookkeeping: a cell is a position in the (M,)*N shape, so digits and
# flat rank convert both ways as C-order multi-indices.
shape = (schema.n_levels,) * schema.n_attributes
for digits in [(0, 0), (0, 1), (1, 0), (1, 1)]:
    rank = int(np.ravel_multi_index(digits, shape))
    print(f"  digits {digits} -> rank {rank} -> {tuple(map(int, np.unravel_index(rank, shape)))}")

# Cross-tabulate raw records (order never matters).
records = [("north", "lo")] * 5 + [("south", "hi")] * 2 + [("north", "hi")]
table = ps.tabulate(records, schema)
print("raw counts:       ", table.counts, " total:", table.n_total)

# Zero cells break the log transform, so the table is mapped affinely to
# keep every count at 1 or above while preserving the population total.
# Uniform tables are fixed points of this map.
adjusted = ps.zero_adjust(table)
print("adjusted counts:  ", adjusted.counts, " total:", adjusted.counts.sum())

log_table = ps.log_transform(adjusted)
print("log values:       ", np.round(log_table.values, 4))

# The adjustment is affine in the counts: mixing two tables with the same
# total and adjusting commutes with mixing.
other = ps.ContingencyTable(schema, [2.0, 2.0, 2.0, 2.0], 8.0)
mixed = ps.ContingencyTable(schema, 0.25 * table.counts + 0.75 * other.counts, 8.0)
direct = ps.zero_adjust(mixed).counts
combined = 0.25 * ps.zero_adjust(table).counts + 0.75 * ps.zero_adjust(other).counts
print("affine mixing gap:", np.abs(direct - combined).max())
