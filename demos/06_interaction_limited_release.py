"""De-personalising a table before release by interaction limiting.

Zeroing every expansion block above a cutoff order (or an explicit
upward-closed set of blocks) and reconstructing produces a release whose
high-order structure is provably gone: refitting finds nothing there,
and no affected subset's salience can have increased.  Subsets that only
involve surviving blocks are untouched.
"""

import numpy as np

import psalience as ps

rng = np.random.default_rng(3)
schema = ps.generic_schema(4, 2)
table = ps.random_adjusted_table(schema, rng)

# Keep main effects only (order 1); rescale the release to the original
# population total.
spec = ps.LimitSpec("order_limit", k_dagger=1)
released, audit = ps.interaction_limit(table, spec)
print("released total:", released.counts.sum(), " original:", table.n_total)
print("zeroed blocks:", len(audit.zeroed_blocks), " contract violations:", len(audit.violations))

# Refitting the released table finds nothing above order 1.
# full_basis names each coefficient's subset by its lattice index.
refit = ps.fit_beta(ps.LogTable(schema, np.log(released.counts))).ravel()
_, lattice = ps.full_basis(schema)
worst = max(np.linalg.norm(refit[lattice == ps.basis.subset_index(s)])
            for s in ps.all_subsets(schema.n_attributes) if len(s) > 1)
print("largest refitted block above the cutoff:", worst)

# Salience before/after: pairs (and everything larger) can only drop.
print("\nsubset        before   after")
for entry in audit.entries:
    if len(entry.subset) == 2:
        print(f"{str(entry.subset):>10}  {entry.psi_before:7.4f}  {entry.psi_after:7.4f}")

# Selective zeroing keeps the hierarchy: removing a pair removes every
# superset of it too.
spec = ps.LimitSpec("selective", zero_subsets=((2, 1),))
_, audit = ps.selective_zero(table, spec)
print("\nselective zero of (2, 1) actually removes:", audit.zeroed_blocks)

# An integer release: rescale, then round while preserving the total.
spec = ps.LimitSpec("order_limit", k_dagger=2, round_counts=True)
released, _ = ps.interaction_limit(table, spec)
print("\ninteger release:", released.counts[:8], "... sum:", released.counts.sum())
