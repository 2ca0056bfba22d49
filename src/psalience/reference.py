"""Literal constructions of the paper's objects, the oracles that tests and the
``verify`` command check the pipeline against; no other command imports them.

They are built only from 0/1 indicator columns, Kronecker products of
per-attribute factors (:func:`psalience.basis._subset_kron`) and means along
axes of the cell tensor, and run none of the coefficient transform of
:mod:`psalience.fitting` or the subset spectrum of :mod:`psalience.salience`.
They import nothing from :mod:`psalience.marginal`: a geometric-mean table is
the log tensor's mean over the axes outside its subset
(:func:`psalience.basis.complement_axes`), taken here.
They hold no records: the whole basis is one array, the Kronecker product of
the factors ``[1 | level_contrasts(M)]``, with the lattice index of the subset
each column belongs to; then come one subset's unnormalised columns; a
Gram-Schmidt pass over the raw indicators to check them; the projection ``chi``
onto one subset's subspace by a sweep over the axes (its magnitude is
``np.linalg.norm(chi)``); both sides of the ``M**((N-k0)/2)``
projection-transfer identity; and Psi as the salience of a subset's
geometric-mean table.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .basis import (_subset_kron, all_subsets, check_levels, check_nonempty_subset, check_subset, complement_axes,
                    level_contrasts, level_factor, subset_index)
from .errors import ArgumentError
from .fitting import centred_norm, row_norms
from .salience import SalienceValue
from .schema import AttributeSchema, _read_int
from .table import ContingencyTable, LogTable, log_transform

GRAM_SCHMIDT_CELL_LIMIT = 256


def raw_column(subset: Sequence[int], levels: Sequence[int], schema: AttributeSchema) -> np.ndarray:
    """0/1 indicator of the cells whose subset digits equal ``levels``.

    Exactly ``M**(N-k)`` entries are 1; the empty subset gives all ones.
    """
    n, m = schema.n_attributes, schema.n_levels
    members = check_subset(subset, n)
    codes = check_levels(levels, len(members), m, "level")
    return _subset_kron(n, m, members, [np.eye(m)[:, [c]] for c in codes]).ravel()


def ortho_column(subset: Sequence[int], levels: Sequence[int], schema: AttributeSchema) -> np.ndarray:
    """Component of ``raw_column`` lying in the subset's own subspace.

    Tensor product of ``(e_level - 1/M)`` over the subset's attributes and
    ones elsewhere.  The ``M**k`` columns of one subset span its
    ``(M-1)**k``-dimensional subspace (they are not independent).  Entries
    sum to zero for non-empty subsets, and the value at a cell depends
    only on the cell's subset digits.
    """
    n, m = schema.n_attributes, schema.n_levels
    members = check_nonempty_subset(subset, n)
    codes = check_levels(levels, len(members), m, "level")
    return _subset_kron(n, m, members, [np.eye(m)[:, [c]] - 1.0 / m for c in codes]).ravel()


def subspace_basis(subset: Sequence[int], schema: AttributeSchema) -> np.ndarray:
    """The ``(M-1)**k`` mutually orthogonal, unnormalised columns of one subset's
    subspace, read-only, in radix order of their contrast codes; the empty
    subset gives the all-ones column."""
    n, m = schema.n_attributes, schema.n_levels
    members = check_subset(subset, n)
    matrix = _subset_kron(n, m, members, [level_contrasts(m)] * len(members))
    matrix.setflags(write=False)
    return matrix


def full_basis(schema: AttributeSchema) -> tuple[np.ndarray, np.ndarray]:
    """Every subspace's columns as one ``M**N x M**N`` Kronecker product of
    ``[1 | level_contrasts(M)]`` over the attributes, and the lattice index
    (:func:`psalience.basis.subset_index`) of the subset each column belongs
    to: the attributes whose factor column is a contrast.

    A subset's columns, taken in order, are :func:`subspace_basis` bit for bit.
    The matrix is the caller's to normalise in place.
    """
    n, m = schema.n_attributes, schema.n_levels
    matrix = _subset_kron(n, m, tuple(range(n - 1, -1, -1)), [level_factor(m)[0]] * n)
    lattice = np.zeros(1, dtype=np.intp)
    for _ in range(n):  # attribute n-1 first: its bit ends up most significant
        lattice = (2 * lattice[:, None] + (np.arange(m) > 0)).ravel()
    return matrix, lattice


def gram_schmidt_oracle(schema: AttributeSchema) -> tuple[np.ndarray, np.ndarray]:
    """Sequential Gram-Schmidt over the raw indicator columns.

    Processes the constant column and then every subset's raw columns in
    enumeration order (level codes counted in radix M), projecting each
    candidate against everything accepted so far and dropping dependent
    candidates.  Returns the ``M**N`` orthonormal columns in the order they
    were accepted and the lattice index of the subset each came from.  This
    is the reference construction the tensor-product generator is tested
    against; it materialises the full basis and its cost is cubic in the
    cells, so it refuses, with :class:`ArgumentError`, more than
    ``GRAM_SCHMIDT_CELL_LIMIT`` cells, the most ``verify`` runs it at.
    """
    m_t = schema.n_cells
    if m_t > GRAM_SCHMIDT_CELL_LIMIT:
        raise ArgumentError(
            f"{m_t} cells exceeds the Gram-Schmidt oracle limit of {GRAM_SCHMIDT_CELL_LIMIT}"
        )
    n, m = schema.n_attributes, schema.n_levels
    accepted = np.empty((m_t, m_t))
    lattice = np.empty(m_t, dtype=np.intp)
    count = 0
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
                lattice[count] = subset_index(subset)
                count += 1
    if count != m_t:
        raise AssertionError(f"orthogonalisation produced {count} columns, expected {m_t}")
    return accepted, lattice


def project_subset(log_table: LogTable, subset: Sequence[int]) -> np.ndarray:
    """Orthogonal projection ``chi`` of the log table onto one subset's subspace,
    by one sweep over the axes: a member's axis loses its mean, and every other
    axis is averaged away and broadcast back at the end."""
    n = log_table.schema.n_attributes
    members = check_subset(subset, n)
    return _project(log_table.reshaped(), {n - 1 - a for a in members})


def _project(x: np.ndarray, axes: set[int]) -> np.ndarray:
    """The sweep of :func:`project_subset` over a tensor: the ``axes`` lose their
    mean, the rest are averaged away; returned ravelled at ``x``'s full size."""
    shape = x.shape
    for axis in range(x.ndim):
        mean = x.sum(axis=axis, keepdims=True) / shape[axis]
        x = x - mean if axis in axes else mean
    chi = np.zeros(shape)
    chi += x
    return chi.ravel()


def _transfer_terms(table: ContingencyTable, outer: Sequence[int]):
    """The checked non-empty ``outer`` key, the log tensor, its geometric-mean tensor
    over ``outer`` and the ``M**((N-k0)/2)`` scale of a projection-transfer identity."""
    n, m = table.schema.n_attributes, table.schema.n_levels
    outer_key = check_nonempty_subset(outer, n)
    logs = log_transform(table).reshaped()
    gamma = logs.mean(axis=complement_axes(outer_key, n))
    return outer_key, logs, gamma, m ** ((n - len(outer_key)) / 2.0)


def gm_projection_identity(
    table: ContingencyTable, outer: Sequence[int], inner: Sequence[int]
) -> tuple[float, float]:
    """Both sides of the projection-transfer identity for one subset pair.

    Left: projection magnitude of the full log table onto the ``inner``
    subspace.  Right: ``M**((N-k0)/2)`` times the projection magnitude of
    the log geometric-mean table of ``outer`` onto the subspace of
    ``inner``'s attributes in that ``k0``-attribute table, whose axes are
    ``outer``'s members in order.  The two sides agree whenever ``inner`` is
    contained in ``outer``.
    """
    n = table.schema.n_attributes
    inner_key = check_nonempty_subset(inner, n)
    outer_key, logs, gamma, scale = _transfer_terms(table, outer)
    if not set(inner_key) <= set(outer_key):
        raise ArgumentError(f"inner subset {inner_key} must be contained in outer {outer_key}")
    lhs = float(np.linalg.norm(_project(logs, {n - 1 - a for a in inner_key})))
    rhs = scale * float(np.linalg.norm(_project(gamma, {outer_key.index(a) for a in inner_key})))
    return lhs, rhs


def gm_projection_total_identity(
    table: ContingencyTable, outer: Sequence[int]
) -> tuple[float, float]:
    """Both sides of the aggregate projection-transfer identity.

    Left: root sum of squared full-table projection magnitudes over every
    non-empty subset of ``outer``.  Right: ``M**((N-k0)/2)`` times the
    norm of the log geometric-mean table's component orthogonal to the
    uniform vector in the reduced space.
    """
    n = table.schema.n_attributes
    outer_key, logs, gamma, scale = _transfer_terms(table, outer)
    total = 0.0
    for size in range(1, len(outer_key) + 1):
        for inner in itertools.combinations(outer_key, size):
            total += float(np.linalg.norm(_project(logs, {n - 1 - a for a in inner}))) ** 2
    return float(np.sqrt(total)), scale * float(centred_norm(gamma.ravel()))


def Psi(table: ContingencyTable | LogTable, subset: Sequence[int]) -> SalienceValue:
    """Subset-level salience: ``psi`` of the subset's geometric-mean table.

    The logs are centred on their mean before the reduction, so chi does not
    come from a difference of large sums, and the log norm adds the mean back.
    A :class:`LogTable` passed as ``table`` is used as the adjusted table's
    logs, so a caller scoring many subsets logs the table once.
    """
    n = table.schema.n_attributes
    members = check_nonempty_subset(subset, n)
    logs = (table if isinstance(table, LogTable) else log_transform(table)).reshaped()
    mean = logs.mean()
    centred = (logs - mean).mean(axis=complement_axes(members, n)).ravel()
    chi, norm = float(centred_norm(centred)), float(row_norms(centred + mean))
    return SalienceValue(min(chi / norm, 1.0) if norm > 0.0 else 0.0, chi, norm)


def hypercube_psi(r: int, m_t: int) -> float:
    """Salience of a log vector with ``r`` equal positive entries, rest zero.

    Closed form ``sqrt(1 - r/m_t)`` for a table of ``m_t`` cells; smaller
    ``r`` (sharper concentration) gives strictly larger salience.
    """
    r, m_t = _read_int(r, "r"), _read_int(m_t, "m_t")
    if m_t < 1 or not 1 <= r <= m_t:
        raise ArgumentError(f"need 1 <= r <= m_t, got r={r}, m_t={m_t}")
    return float(np.sqrt(1.0 - r / m_t))
