"""The subset lattice and the per-attribute factors of the log-linear design.

The space of log tables, R^(M**N), splits into one subspace per subset of
attributes: the subset's raw indicator columns span everything that
depends only on its digits, and removing what lower-order subsets already
span leaves an orthogonal complement of dimension ``(M-1)**k`` for a
subset of size ``k``.  Summed over all ``2**N`` subsets (constant term
included) the dimensions add up to ``M**N`` exactly.

This module keeps subset keys, the cell-tensor axes outside a subset, ``2**N``
lattice vectors over subsets, the per-attribute factors every subspace is a
tensor product of, and the one Kronecker product that builds a column from
them.  The columns themselves, and a Gram-Schmidt pass to check them, are in
:mod:`psalience.reference`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .errors import ArgumentError
from .schema import _read_int
from .table import freeze

SubsetKey = tuple[int, ...]
"""Attribute indices in strictly decreasing order; ``()`` is the constant term."""


def check_subset(subset: Sequence[int], n_attributes: int) -> SubsetKey:
    """Validate and normalise a subset key (strictly decreasing, in range)."""
    members = tuple(_read_int(i, "attribute index") for i in subset)
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


def complement_axes(subset: SubsetKey, n: int) -> tuple[int, ...]:
    """Axes of the ``(M,)*N`` cell tensor that hold the attributes outside ``subset``,
    ascending, so largest attribute first: axis ``n-1-a`` holds attribute ``a``."""
    return tuple(axis for axis in range(n) if n - 1 - axis not in subset)


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


def level_contrasts(m: int) -> np.ndarray:
    """An ``m x (m-1)`` matrix of mutually orthogonal zero-sum contrast columns.

    Column ``c`` compares level ``c`` against the levels above it:
    ``m-c-1`` at position ``c``, ``-1`` below, zero above.  Together with
    the all-ones vector the columns form an orthogonal basis of R^m.
    """
    return level_factor(m)[0][:, 1:]


@lru_cache(maxsize=None)
def level_factor(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``F = [1 | level_contrasts(m)]`` and its inverse ``diag(1/|col|^2) F^T``."""
    factor = np.zeros((m, m))
    factor[:, 0] = 1.0
    for c in range(1, m):
        factor[c - 1, c] = m - c
        factor[c:, c] = -1.0
    return freeze(factor), freeze(factor.T / np.einsum("ij,ij->j", factor, factor)[:, None])


def _subset_kron(n: int, m: int, subset: SubsetKey, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product over attributes ``n-1`` down to ``0`` of ``factors[j]``
    (``m`` rows) on the subset's ``j``-th attribute and a column of ones
    elsewhere: ``m**n`` rows, one column per combination of factor columns,
    always a fresh array."""
    ones = np.ones((m, 1))
    return reduce(np.kron, [
        factors[subset.index(attribute)] if attribute in subset else ones
        for attribute in range(n - 1, -1, -1)
    ], np.ones((1, 1)))
