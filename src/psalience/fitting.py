"""Fitting and evaluating the orthogonal log-linear expansion.

A log table ``T`` decomposes exactly as the constant direction plus one
block of coefficients per non-empty attribute subset.  Because the basis
columns are orthogonal, each block is obtained independently by scaled
inner products and the expansion is an identity: reconstructing from a
fitted coefficient vector returns the original table.

Projection magnitudes onto the subset subspaces are the quantities the
salience measures are built from; coefficients themselves depend on the
contrast choice in :mod:`psalience.basis` and are exposed for inspection only.

Basis columns are tensor products, so the expansion is one mode-wise
transform (Yates' algorithm): ``O(N * M**(N+1))`` time, ``O(M**N)`` floats.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .basis import SubsetKey, all_subsets, check_subset, level_factor
from .errors import ShapeError
from .table import AttributeSchema, Frozen, LogTable, freeze, record_eq, record_ne


class BetaVector(NamedTuple):
    """Expansion coefficients: scalar ``beta0`` for the constant direction
    plus one length-``(M-1)**k`` block per non-empty subset, for inspection."""

    beta0: float
    blocks: Mapping[SubsetKey, np.ndarray]
    n_attributes: int
    n_levels: int

    __eq__ = record_eq
    __ne__ = record_ne

    @property
    def total_coefficients(self) -> int:
        return 1 + sum(block.size for block in self.blocks.values())


class ProjectionResult(Frozen):
    """Projection of a log table onto one subset's subspace."""

    __slots__ = ("subset", "chi", "magnitude")

    def __init__(self, subset: SubsetKey, chi, magnitude: float):
        super().__init__(subset, freeze(chi), magnitude)


def _axis_picks(subset: SubsetKey, n: int) -> tuple[slice, ...]:
    """Level-factor indices of a subset's block: contrasts on its axes, else the constant."""
    return tuple(slice(1, None) if n - 1 - axis in subset else slice(0, 1) for axis in range(n))


def _modewise(values: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Apply ``factors[i]`` along axis ``i`` of the flat cell tensor ``values``;
    each pass multiplies the leading axis and moves it to the back."""
    x = values
    for factor in factors:
        x = np.dot(factor, x.reshape(factor.shape[1], -1)).T
    return x.ravel()


def fit_beta(log_table: LogTable) -> BetaVector:
    """Coefficients of the orthogonal expansion of ``log_table``.

    Blockwise ``(column . T) / |column|^2``, all blocks from one transform
    by the inverse level factor; ``beta0`` scales the unit constant direction.
    """
    schema = log_table.schema
    n, m = schema.n_attributes, schema.n_levels
    coef = _modewise(log_table.values, [level_factor(m)[1]] * n).reshape((m,) * n)
    blocks = {s: freeze(coef[_axis_picks(s, n)].ravel()) for s in all_subsets(n)[1:]}
    return BetaVector(float(coef[(0,) * n]) * np.sqrt(schema.n_cells), blocks, n, m)


def reconstruct(beta: BetaVector, schema: AttributeSchema) -> LogTable:
    """Assemble the log table encoded by ``beta`` in one transform."""
    if (beta.n_attributes, beta.n_levels) != (schema.n_attributes, schema.n_levels):
        raise ShapeError(
            f"coefficients were fitted for a {beta.n_attributes}-attribute, "
            f"{beta.n_levels}-level table"
        )
    n, m = schema.n_attributes, schema.n_levels
    coef = np.zeros((m,) * n)
    coef[(0,) * n] = beta.beta0 / np.sqrt(schema.n_cells)
    for subset in all_subsets(n)[1:]:
        block = np.asarray(beta.blocks[subset], dtype=float)
        target = coef[_axis_picks(subset, n)]
        if block.shape != (target.size,):
            raise ShapeError(
                f"block for subset {subset} has shape {block.shape}, "
                f"expected ({target.size},)"
            )
        target[...] = block.reshape(target.shape)
    return LogTable(schema, _modewise(coef.ravel(), [level_factor(m)[0]] * n))


def _zero_blocks(log_table: LogTable, mask: np.ndarray) -> LogTable:
    """``log_table`` without the blocks of the subsets ``mask`` marks on the subset lattice."""
    n, m = log_table.schema.n_attributes, log_table.schema.n_levels
    coef = _modewise(log_table.values, [level_factor(m)[1]] * n)
    # a coefficient belongs to the subset of the axes where it takes a contrast
    support = np.zeros(coef.size, dtype=np.uint32)
    for a in range(n):
        support.reshape(-1, m, m ** a)[:, 1:] += 1 << a
    coef[mask[support]] = 0.0
    return LogTable(log_table.schema, _modewise(coef, [level_factor(m)[0]] * n))


def project_subset(log_table: LogTable, subset: Sequence[int]) -> ProjectionResult:
    """Orthogonal projection of the log table onto one subset's subspace: only
    its block, by contrast rows on its axes and mean rows elsewhere, mapped back."""
    schema = log_table.schema
    members = check_subset(subset, schema.n_attributes)
    factor, solve = level_factor(schema.n_levels)
    picks = _axis_picks(members, schema.n_attributes)
    coef = _modewise(log_table.values, [solve[pick] for pick in picks])
    chi = _modewise(coef, [factor[:, pick] for pick in picks])
    return ProjectionResult(members, chi, float(np.linalg.norm(chi)))


def subset_energies(log_table: LogTable) -> np.ndarray:
    """Squared projection magnitude of every subset's block as a lattice vector
    (see :func:`psalience.basis.subset_index`); exactly 0 off the constant for a constant table."""
    n, m = log_table.schema.n_attributes, log_table.schema.n_levels
    factor, solve = level_factor(m)
    coef = _modewise(log_table.values, [solve] * n)
    if np.ptp(log_table.values) == 0.0:
        coef[1:] = 0.0
    pool = np.zeros((2, m))  # per axis: the constant column's |col|^2, then the contrasts'
    pool[0, 0], pool[1, 1:] = m, np.einsum("ij,ij->j", factor, factor)[1:]
    return _modewise(np.square(coef, out=coef), [pool] * n)


def row_norms(values: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis by one BLAS dot per row, so a row's
    norm has the bits ``np.linalg.norm`` gives that row alone."""
    return np.sqrt(np.matmul(values[..., np.newaxis, :], values[..., np.newaxis])[..., 0, 0])


def centred_norm(values: np.ndarray) -> np.ndarray:
    """``|v - mean(v)|`` along the last axis, exactly 0.0 for a constant row.  The
    equal ``sqrt(|v|^2 - (sum v)^2 / len(v))`` cancels badly near uniformity."""
    norm = row_norms(values - values.mean(axis=-1, keepdims=True))
    return np.where(np.ptp(values, axis=-1) == 0.0, 0.0, norm)


def orthogonal_complement_magnitude(log_table: LogTable) -> float:
    """Norm of the log table's component orthogonal to the uniform vector,
    the combined magnitude of every non-constant block."""
    return float(centred_norm(log_table.values))
