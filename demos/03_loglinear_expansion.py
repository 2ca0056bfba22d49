"""Fitting the expansion: coefficients, reconstruction, projections.

Because the basis is orthogonal, fitting is a set of independent scaled
inner products, reconstruction is exact, and the squared norm of the log
table splits additively over the subspaces (an energy identity that makes
"how much of this table is pairwise structure?" a well-posed question).
The coefficients are one (M,)*N tensor; each subset's block is a slice of it.
"""

import numpy as np

import psalience as ps

rng = np.random.default_rng(0)
schema = ps.generic_schema(4, 2)
table = ps.random_adjusted_table(schema, rng)
log_table = ps.log_transform(table)

# Fit and reconstruct: an identity.
coef = ps.fit_beta(log_table)
rebuilt = ps.reconstruct(coef, schema)
print("coefficient tensor:", coef.shape, "=", coef.size, "coefficients")
print("round-trip error:", np.abs(rebuilt.values - log_table.values).max())

# A subset's block is the entries with the contrast column on its own axes
# (index 1 here, since M = 2) and the constant column elsewhere; full_basis
# names each entry's subset by its lattice index.  Axis 0 is attribute N-1,
# so the block of (3, 1), lattice index 0b1010, is coef[1, 0, 1, 0].
_, lattice = ps.full_basis(schema)
print("block (3, 1):", coef.ravel()[lattice == 0b1010], "=", coef[1, 0, 1, 0])
print("beta0:", coef.flat[0] * np.sqrt(coef.size), "blocks:", len(np.unique(lattice)) - 1)

# Energy split: |T|^2 equals the sum of squared projection magnitudes.
norm_sq = float(log_table.values @ log_table.values)
print(f"\n{'subset':>12} {'magnitude^2':>12}  share")
running = 0.0
for subset in ps.all_subsets(schema.n_attributes):
    magnitude = np.linalg.norm(ps.project_subset(log_table, subset))
    running += magnitude ** 2
    if len(subset) <= 2:
        print(f"{str(subset):>12} {magnitude ** 2:12.4f}  {magnitude ** 2 / norm_sq:6.1%}")
print("sum of all blocks vs |T|^2:", running, "vs", norm_sq)

# The component orthogonal to the uniform vector collects every
# non-constant block.
non_constant = sum(
    np.linalg.norm(ps.project_subset(log_table, s)) ** 2
    for s in ps.all_subsets(schema.n_attributes) if s
)
print("orthogonal-complement magnitude:",
      np.linalg.norm(log_table.values - log_table.values.mean()),
      "= sqrt(non-constant energy):", np.sqrt(non_constant))

# Rescaling all counts moves only the constant block: interaction
# structure is scale-free.
scaled = ps.ContingencyTable(schema, table.counts * 10, table.n_total * 10, adjusted=True)
before = np.linalg.norm(ps.project_subset(log_table, (3, 1)))
after = np.linalg.norm(ps.project_subset(ps.log_transform(scaled), (3, 1)))
print("pair magnitude before/after x10 rescale:", before, after)
