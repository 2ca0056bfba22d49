"""Orthogonal interaction subspaces of the log-linear design.

The space of log tables, R^(M**N), splits into one subspace per subset of
attributes: the subset's raw indicator columns span everything that
depends only on its digits, and removing what lower-order subsets already
span leaves an orthogonal complement of dimension ``(M-1)**k`` for a
subset of size ``k``.  Summed over all ``2**N`` subsets (constant term
included) the dimensions add up to ``M**N`` exactly.

Columns for a subset are tensor products of per-attribute factors,
generated on demand and never cached; only :func:`full_basis`, which
serves tests and verification, holds the whole ``M**N x M**N`` basis:

* for each attribute in the subset, one column of ``level_contrasts(M)``
  (a fixed orthogonal complement of the all-ones vector in R^M);
* the all-ones vector of length M for every other attribute.

Tensor products of orthogonal factors are orthogonal, which makes
orthogonality within and across subsets exact by construction.  A literal
sequential Gram-Schmidt pass over the raw indicator columns
(:func:`gram_schmidt_oracle`) is provided for tests as an independent
reference; it must agree with the generated columns subspace by subspace.

Columns are kept unnormalised; squared norms travel alongside them so
projections divide by the right diagonal.  Expansion coefficients are
therefore specific to this contrast choice, while every projection-based
quantity downstream depends only on the subspaces.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ArgumentError, SizeGuardError
from .table import AttributeSchema, Frozen, freeze, generic_schema

SubsetKey = tuple[int, ...]
"""Attribute indices in strictly decreasing order; ``()`` is the constant term."""

GRAM_SCHMIDT_CELL_LIMIT = 4096


def check_subset(subset: Sequence[int], n_attributes: int) -> SubsetKey:
    """Validate and normalise a subset key (strictly decreasing, in range)."""
    members = tuple(int(i) for i in subset)
    for i in members:
        if not 0 <= i < n_attributes:
            raise ArgumentError(f"attribute index {i} out of range [0, {n_attributes})")
    if any(a <= b for a, b in zip(members, members[1:])):
        raise ArgumentError(f"subset {members} must be strictly decreasing")
    return members


def enumerate_subsets(n: int, k: int) -> list[SubsetKey]:
    """All size-k subsets of attributes ``{n-1, ..., 0}``.

    Subsets are written with the largest index leftmost and listed in
    lexicographic order of those descending index tuples, e.g. for pairs
    ``(n-1, n-2), (n-1, n-3), ..., (1, 0)``.
    """
    if not 0 <= k <= n:
        raise ArgumentError(f"subset size {k} out of range [0, {n}]")
    return list(itertools.combinations(range(n - 1, -1, -1), k))


def all_subsets(n: int) -> list[SubsetKey]:
    """Every subset, constant term first, then by size, then enumeration order."""
    out: list[SubsetKey] = []
    for k in range(n + 1):
        out.extend(enumerate_subsets(n, k))
    return out


def subset_index(subset: Sequence[int]) -> int:
    """Position of a subset in a lattice vector over all ``2**N`` subsets."""
    return sum(1 << a for a in subset)


def subset_sizes(n: int) -> np.ndarray:
    """``out[S]`` = number of attributes in ``S``, as a ``uint8`` lattice vector."""
    sizes = np.zeros(2 ** n, dtype=np.uint8)
    for a in range(n):
        sizes.reshape(-1, 2, 1 << a)[:, 1] += 1
    return sizes


def marked_subsets(mask: np.ndarray) -> tuple[np.ndarray, tuple[SubsetKey, ...]]:
    """Lattice indices and keys of the subsets a boolean lattice vector marks,
    in :func:`all_subsets` order: by size, then by descending lattice index."""
    n = mask.size.bit_length() - 1
    sizes = subset_sizes(n)
    index: list[np.ndarray] = []
    keys: list[SubsetKey] = []
    for k in range(n + 1):
        # descending lattice indices of size k are in enumerate_subsets(n, k) order
        ranked = np.flatnonzero(sizes == k)[::-1]
        marks = mask[ranked]
        index.append(ranked[marks])
        if marks.any():
            keys.extend(itertools.compress(enumerate_subsets(n, k), marks.tolist()))
    return np.concatenate(index), tuple(keys)


def subset_sums(values: np.ndarray) -> np.ndarray:
    """``out[S]`` = sum of ``values[T]`` over ``T`` within ``S`` (Yates' zeta transform)."""
    out = np.array(values, dtype=float)
    for a in range(out.size.bit_length() - 1):
        pairs = out.reshape(-1, 2, 1 << a)
        pairs[:, 1] += pairs[:, 0]
    return out


@lru_cache(maxsize=None)
def level_contrasts(m: int) -> np.ndarray:
    """An ``m x (m-1)`` matrix of mutually orthogonal zero-sum contrast columns.

    Column ``c`` compares level ``c`` against the levels above it:
    ``m-c-1`` at position ``c``, ``-1`` below, zero above.  Together with
    the all-ones vector the columns form an orthogonal basis of R^m.
    """
    out = np.zeros((m, m - 1))
    for c in range(m - 1):
        out[c, c] = m - c - 1
        out[c + 1:, c] = -1.0
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def level_factor(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``F = [1 | level_contrasts(m)]`` and its inverse ``diag(1/|col|^2) F^T``."""
    factor = np.hstack([np.ones((m, 1)), level_contrasts(m)])
    return freeze(factor), freeze(factor.T / np.einsum("ij,ij->j", factor, factor)[:, None])


def _subset_kron(n: int, m: int, subset: SubsetKey, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product over attributes ``n-1`` down to ``0`` of ``factors[j]``
    (``m`` rows) on the subset's ``j``-th attribute and a column of ones
    elsewhere: ``m**n`` rows, one column per combination of factor columns."""
    ones = np.ones((m, 1))
    return reduce(np.kron, [
        factors[subset.index(attribute)] if attribute in subset else ones
        for attribute in range(n - 1, -1, -1)
    ])


def raw_column(subset: Sequence[int], levels: Sequence[int], schema: AttributeSchema) -> np.ndarray:
    """0/1 indicator of the cells whose subset digits equal ``levels``.

    Exactly ``M**(N-k)`` entries are 1; the empty subset gives all ones.
    """
    n, m = schema.n_attributes, schema.n_levels
    members = check_subset(subset, n)
    codes = _check_levels(levels, len(members), m)
    return _subset_kron(n, m, members, [np.eye(m)[:, [c]] for c in codes]).ravel()


def _check_levels(levels: Sequence[int], k: int, m: int) -> tuple[int, ...]:
    codes = tuple(int(v) for v in levels)
    if len(codes) != k:
        raise ArgumentError(f"expected {k} levels, got {len(codes)}")
    for v in codes:
        if not 0 <= v < m:
            raise ArgumentError(f"level {v} out of range [0, {m})")
    return codes


class BasisColumn(Frozen):
    """One generated column: its subset, the code it was generated from,
    and the full-length entry vector.

    For columns of a :class:`SubspaceBasis` the code indexes contrasts
    (each in ``[0, M-1)``); for :func:`ortho_column` it echoes the
    requested level vector.
    """

    __slots__ = ("subset", "level_code", "entries")

    def __init__(self, subset: SubsetKey, level_code: tuple[int, ...], entries):
        super().__init__(subset, level_code, freeze(entries))

    @property
    def norm_sq(self) -> float:
        return float(self.entries @ self.entries)


def ortho_column(subset: Sequence[int], levels: Sequence[int], schema: AttributeSchema) -> BasisColumn:
    """Component of ``raw_column`` lying in the subset's own subspace.

    Tensor product of ``(e_level - 1/M)`` over the subset's attributes and
    ones elsewhere.  The ``M**k`` columns of one subset span its
    ``(M-1)**k``-dimensional subspace (they are not independent).  Entries
    sum to zero for non-empty subsets, and the value at a cell depends
    only on the cell's subset digits.
    """
    n, m = schema.n_attributes, schema.n_levels
    members = check_subset(subset, n)
    if not members:
        raise ArgumentError("ortho_column needs a non-empty subset")
    codes = _check_levels(levels, len(members), m)
    entries = _subset_kron(n, m, members, [np.eye(m)[:, [c]] - 1.0 / m for c in codes])
    return BasisColumn(members, codes, entries.ravel())


class SubspaceBasis(NamedTuple):
    """Orthogonal, unnormalised columns spanning one subset's subspace.

    ``matrix`` is ``M**N x (M-1)**k`` with squared column norms in
    ``norms_sq``; ``codes`` lists the contrast code of each column.  The
    empty subset gets the single unit-norm constant direction.
    """

    subset: SubsetKey
    codes: tuple[tuple[int, ...], ...]
    matrix: np.ndarray
    norms_sq: np.ndarray

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    @property
    def columns(self) -> tuple[BasisColumn, ...]:
        return tuple(
            BasisColumn(self.subset, code, self.matrix[:, i])
            for i, code in enumerate(self.codes)
        )


def _subspace_arrays(n: int, m: int, subset: SubsetKey):
    if not subset:
        m_t = m ** n
        return ((),), freeze(np.full((m_t, 1), 1.0 / np.sqrt(m_t))), freeze(np.ones(1))
    codes = tuple(itertools.product(range(m - 1), repeat=len(subset)))
    # column order of a Kronecker product of matrices is radix order of the codes
    matrix = _subset_kron(n, m, subset, [level_contrasts(m)] * len(subset))
    matrix.setflags(write=False)
    return codes, matrix, freeze(np.einsum("ij,ij->j", matrix, matrix))


def subspace_basis(subset: Sequence[int], schema: AttributeSchema) -> SubspaceBasis:
    """The ``(M-1)**k`` mutually orthogonal columns of one subset's subspace."""
    members = check_subset(subset, schema.n_attributes)
    codes, matrix, norms = _subspace_arrays(schema.n_attributes, schema.n_levels, members)
    return SubspaceBasis(members, codes, matrix, norms)


def full_basis(schema: AttributeSchema) -> list[SubspaceBasis]:
    """Subspace bases for every subset in enumeration order (constant first)."""
    return [subspace_basis(s, schema) for s in all_subsets(schema.n_attributes)]


def reduced_basis(k: int, m: int) -> list[SubspaceBasis]:
    """Complete basis of a k-attribute, m-level table (dimension ``m**k``).

    Same construction as :func:`full_basis` with N replaced by k; used to
    analyse geometric-mean marginal tables in their own smaller space.
    """
    if k < 1:
        raise ArgumentError(f"need at least one attribute, got {k}")
    return full_basis(generic_schema(k, m))


def gram_schmidt_oracle(schema: AttributeSchema) -> list[BasisColumn]:
    """Sequential Gram-Schmidt over the raw indicator columns.

    Processes the constant column and then every subset's raw columns in
    enumeration order (level codes counted in radix M), projecting each
    candidate against everything accepted so far and dropping dependent
    candidates.  This is the reference construction the tensor-product
    generator is tested against; it materialises the full basis, so it is
    refused beyond ``GRAM_SCHMIDT_CELL_LIMIT`` cells.
    """
    m_t = schema.n_cells
    if m_t > GRAM_SCHMIDT_CELL_LIMIT:
        raise SizeGuardError(
            f"{m_t} cells exceeds the Gram-Schmidt oracle limit of {GRAM_SCHMIDT_CELL_LIMIT}"
        )
    n, m = schema.n_attributes, schema.n_levels
    accepted = np.empty((m_t, m_t))
    count = 0
    out: list[BasisColumn] = []
    for subset in all_subsets(n):
        for code in itertools.product(range(m), repeat=len(subset)):
            candidate = raw_column(subset, code, schema)
            residual = candidate.astype(float)
            for _ in range(2):  # second pass keeps tiny components from re-entering
                if count:
                    q = accepted[:, :count]
                    residual = residual - q @ (q.T @ residual)
            norm_sq = float(residual @ residual)
            if norm_sq > 1e-20 * float(candidate @ candidate):
                accepted[:, count] = residual / np.sqrt(norm_sq)
                count += 1
                out.append(BasisColumn(subset, code, residual))
    if count != m_t:
        raise AssertionError(f"orthogonalisation produced {count} columns, expected {m_t}")
    return out
