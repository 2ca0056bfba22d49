"""Literal constructions of the paper's objects, the oracles that tests and the
``verify`` command check the pipeline against; no other command imports them.

They are built only from 0/1 indicator columns, Kronecker products of
per-attribute factors (:func:`psalience.basis._subset_kron`) and means along
axes of the cell tensor, and run none of the coefficient transform of
:mod:`psalience.fitting` or the subset spectrum of :mod:`psalience.salience`:
each subset's basis columns (unnormalised, squared norms alongside) and a
Gram-Schmidt pass over the raw indicators to check them, the projection onto
one subset's subspace by a sweep over the axes, both sides of the
``M**((N-k0)/2)`` projection-transfer identity, and Psi as the salience of a
subset's geometric-mean table.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .basis import SubsetKey, _subset_kron, all_subsets, check_subset, level_contrasts
from .errors import ArgumentError, SizeGuardError
from .fitting import centred_norm, row_norms
from .marginal import complement_attributes, geometric_mean_subtable
from .salience import SalienceValue
from .table import (AttributeSchema, ContingencyTable, Frozen, LogTable, _read_int, freeze, generic_schema,
                    log_transform)

GRAM_SCHMIDT_CELL_LIMIT = 4096


def raw_column(subset: Sequence[int], levels: Sequence[int], schema: AttributeSchema) -> np.ndarray:
    """0/1 indicator of the cells whose subset digits equal ``levels``.

    Exactly ``M**(N-k)`` entries are 1; the empty subset gives all ones.
    """
    n, m = schema.n_attributes, schema.n_levels
    members = check_subset(subset, n)
    codes = _check_levels(levels, len(members), m)
    return _subset_kron(n, m, members, [np.eye(m)[:, [c]] for c in codes]).ravel()


def _check_levels(levels: Sequence[int], k: int, m: int) -> tuple[int, ...]:
    codes = tuple(_read_int(v, "level") for v in levels)
    if len(codes) != k:
        raise ArgumentError(f"expected {k} levels, got {len(codes)}")
    for v in codes:
        if not 0 <= v < m:
            raise ArgumentError(f"level {v} out of range [0, {m})")
    return codes


class BasisColumn(Frozen):
    """One generated column: its subset, the level vector it was generated
    from, and the full-length entry vector."""

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


class SubspaceBasis(Frozen):
    """Orthogonal, unnormalised columns spanning one subset's subspace.

    ``matrix`` is ``M**N x (M-1)**k`` with squared column norms in
    ``norms_sq``; ``codes`` lists the contrast code of each column.  The
    empty subset gets the single unit-norm constant direction.
    """

    __slots__ = ("subset", "codes", "matrix", "norms_sq")

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]


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


class ProjectionResult(Frozen):
    """Projection of a log table onto one subset's subspace."""

    __slots__ = ("subset", "chi", "magnitude")

    def __init__(self, subset: SubsetKey, chi, magnitude: float):
        super().__init__(subset, freeze(chi), magnitude)


def project_subset(log_table: LogTable, subset: Sequence[int]) -> ProjectionResult:
    """Orthogonal projection of the log table onto one subset's subspace, by one
    sweep over the axes: a member's axis loses its mean, and every other axis is
    averaged away and broadcast back at the end."""
    n, m = log_table.schema.n_attributes, log_table.schema.n_levels
    members = check_subset(subset, n)
    x = log_table.reshaped()
    for axis in range(n):
        mean = x.sum(axis=axis, keepdims=True) / m
        x = x - mean if n - 1 - axis in members else mean
    chi = np.zeros((m,) * n)
    chi += x
    return ProjectionResult(members, chi.ravel(), float(np.linalg.norm(chi)))


def orthogonal_complement_magnitude(log_table: LogTable) -> float:
    """Norm of the log table's component orthogonal to the uniform vector,
    the combined magnitude of every non-constant block."""
    return float(centred_norm(log_table.values))


def reduced_subset_key(outer: SubsetKey, inner: SubsetKey) -> SubsetKey:
    """Re-index ``inner`` by its positions inside ``outer``.

    The geometric-mean table of ``outer`` (size ``k0``) is a table in its
    own right whose attribute ``k0-1`` corresponds to the largest member
    of ``outer`` and attribute ``0`` to the smallest.  Descending order is
    preserved.
    """
    k0 = len(outer)
    positions = []
    for member in inner:
        try:
            positions.append(outer.index(member))
        except ValueError:
            raise ArgumentError(f"attribute {member} of inner subset not in outer {outer}")
    return tuple(k0 - 1 - p for p in positions)


def gm_projection_identity(
    table: ContingencyTable, outer: Sequence[int], inner: Sequence[int]
) -> tuple[float, float]:
    """Both sides of the projection-transfer identity for one subset pair.

    Left: projection magnitude of the full log table onto the ``inner``
    subspace.  Right: ``M**((N-k0)/2)`` times the projection magnitude of
    the log geometric-mean table of ``outer`` onto the re-indexed inner
    subspace of the reduced ``k0``-attribute basis.  The two sides agree
    whenever ``inner`` is contained in ``outer``.
    """
    schema = table.schema
    n, m = schema.n_attributes, schema.n_levels
    outer_key = check_subset(outer, n)
    inner_key = check_subset(inner, n)
    if not outer_key or not inner_key:
        raise ArgumentError("outer and inner subsets must be non-empty")
    if not set(inner_key) <= set(outer_key):
        raise ArgumentError(f"inner subset {inner_key} must be contained in outer {outer_key}")

    lhs = project_subset(log_transform(table), inner_key).magnitude

    k0 = len(outer_key)
    gamma = LogTable(generic_schema(k0, m), geometric_mean_subtable(table, outer_key).log_values)
    reduced = project_subset(gamma, reduced_subset_key(outer_key, inner_key)).magnitude
    rhs = m ** ((n - k0) / 2.0) * reduced
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
    schema = table.schema
    n, m = schema.n_attributes, schema.n_levels
    outer_key = check_subset(outer, n)
    if not outer_key:
        raise ArgumentError("outer subset must be non-empty")

    log_table = log_transform(table)
    total = 0.0
    for size in range(1, len(outer_key) + 1):
        for inner in itertools.combinations(outer_key, size):
            total += project_subset(log_table, inner).magnitude ** 2
    lhs = float(np.sqrt(total))

    k0 = len(outer_key)
    gamma = LogTable(generic_schema(k0, m), geometric_mean_subtable(table, outer_key).log_values)
    rhs = m ** ((n - k0) / 2.0) * orthogonal_complement_magnitude(gamma)
    return lhs, rhs


def Psi(table: ContingencyTable | LogTable, subset: Sequence[int]) -> SalienceValue:
    """Subset-level salience: ``psi`` of the subset's geometric-mean table.

    The logs are centred on their mean before the reduction, so chi does not
    come from a difference of large sums, and the log norm adds the mean back.
    A :class:`LogTable` passed as ``table`` is used as the adjusted table's
    logs, so a caller scoring many subsets logs the table once.
    """
    n = table.schema.n_attributes
    members = check_subset(subset, n)
    if not members:
        raise ArgumentError("subset must be non-empty")
    logs = (table if isinstance(table, LogTable) else log_transform(table)).reshaped()
    mean = logs.mean()
    axes = tuple(n - 1 - a for a in complement_attributes(members, n))
    centred = (logs - mean).mean(axis=axes).ravel()
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
