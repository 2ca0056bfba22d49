"""The orthogonal interaction basis, subset by subset.

The space of log tables splits into one subspace per attribute subset:
the constant direction, main effects (one subspace per attribute), and
interaction subspaces for pairs, triples and so on.  A subset of size k
always contributes exactly (M-1)**k dimensions, and everything sums to
M**N, so the decomposition is complete.
"""

import numpy as np

import psalience as ps

schema = ps.generic_schema(3, 3)  # attributes a2, a1, a0 with 3 levels each
n, m = schema.n_attributes, schema.n_levels

# Subsets are enumerated largest-index first.
print("pairs in order:", ps.enumerate_subsets(n, 2))

# Dimensions per subset and their total.
total = 0
for subset in ps.all_subsets(n):
    dimension = ps.subspace_basis(subset, schema).shape[1]
    total += dimension
    print(f"  subset {str(subset):>10}  dimension {dimension}")
print(f"total {total} = {m}**{n} = {m ** n}")

# Raw columns are 0/1 indicators of the subset's digit values ...
raw = ps.raw_column((1, 0), (2, 1), schema)
print("\nraw column ones:", int(raw.sum()), "of", raw.size)

# ... and their component inside the subset's own subspace sums to zero
# and is constant on every block of cells sharing the subset digits.
column = ps.ortho_column((1, 0), (2, 1), schema)
print("ortho column sum:", column.sum(), " norm^2:", round(column @ column, 4))

# The whole basis is one Kronecker product of [1 | contrasts] per attribute;
# a column belongs to the subset of attributes that carry a contrast, and all
# columns are mutually orthogonal, across subsets too.
matrix, lattice = ps.full_basis(schema)
stacked = matrix / np.linalg.norm(matrix, axis=0)
gram = stacked.T @ stacked
print("worst off-diagonal dot:", np.abs(gram - np.eye(gram.shape[0])).max())

# The literal one-column-at-a-time orthogonalisation of the raw columns
# spans the same subspaces (here checked for one pair via projectors).
reference, reference_lattice = ps.gram_schmidt_oracle(schema)
pair = ps.basis.subset_index((2, 1))
mine = stacked[:, lattice == pair] @ stacked[:, lattice == pair].T
ref = reference[:, reference_lattice == pair]  # orthonormal columns
theirs = ref @ ref.T
print("projector mismatch vs sequential orthogonalisation:",
      np.abs(mine - theirs).max())
