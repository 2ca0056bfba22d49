"""Fitting and evaluating the orthogonal log-linear expansion.

A log table ``T`` decomposes exactly as the constant direction plus one
block of coefficients per non-empty attribute subset.  Basis columns are
orthogonal tensor products, so every block comes from one mode-wise
transform (Yates' algorithm, ``O(N * M**(N+1))`` time, ``O(M**N)`` floats)
and the expansion is an identity: reconstructing returns the original table.
The coefficients form one ``(M,)*N`` tensor.  Axis ``i`` belongs to
attribute ``N-1-i``; along it, index 0 is the constant column of
:func:`psalience.basis.level_factor` and index ``c >= 1`` its contrast column
``c``.  Entry ``(0,)*N`` scales the constant direction, and the entries with
a contrast on exactly a subset's axes, in C order, form that subset's
length-``(M-1)**k`` block.  :func:`psalience.reference.full_basis` gives each
entry's subset as a lattice index, so a block is
``coef.ravel()[lattice == subset_index(subset)]``.  The fit, the spectrum and
a release read one forward transform of the centred logs and share one inverse.

Coefficients depend on the contrast choice in :mod:`psalience.basis` and are
exposed for inspection only; the literal projection onto one subset's
subspace, which shares none of this transform, is in :mod:`psalience.reference`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .basis import level_factor
from .errors import ShapeError
from .table import AttributeSchema, LogTable


def _modewise(values: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Apply ``factors[i]`` along axis ``i`` of the cell tensor ``values`` (flat or
    shaped); each pass multiplies the leading axis and moves it to the back."""
    x = values
    for factor in factors:
        x = np.dot(factor, x.reshape(factor.shape[1], -1)).T
    return x.ravel()


def _coefficients(log_table: LogTable) -> tuple[np.ndarray, np.float64]:
    """A fresh ``(M,)*N`` coefficient tensor of the logs centred on their mean (exactly 0 for a
    constant table), and that mean.  Centred, a contrast does not difference values near the mean,
    so its rounding scales with the centred part, not with ``|T|`` (Chan, Golub & LeVeque 1983)."""
    n, m = log_table.schema.n_attributes, log_table.schema.n_levels
    mean = log_table.values.mean()
    coef = _modewise(log_table.values - mean, [level_factor(m)[1]] * n).reshape((m,) * n)
    if np.ptp(log_table.values) == 0.0:
        coef.fill(0.0)
    return coef, mean


def _cells(coef: np.ndarray) -> np.ndarray:
    """Flat cell values of a coefficient tensor: the level factor along every axis."""
    return _modewise(coef, [level_factor(coef.shape[0])[0]] * coef.ndim)


def fit_beta(log_table: LogTable) -> np.ndarray:
    """The read-only ``(M,)*N`` coefficient tensor of the orthogonal expansion of ``log_table``:
    entry by entry ``(column . T) / |column|^2``, the :func:`_coefficients` with the mean added back."""
    coef, mean = _coefficients(log_table)
    coef[(0,) * coef.ndim] += mean
    coef.setflags(write=False)
    return coef


def reconstruct(coef: np.ndarray, schema: AttributeSchema) -> LogTable:
    """Assemble the log table encoded by the coefficient tensor ``coef`` in one transform."""
    n, m = schema.n_attributes, schema.n_levels
    coef = np.asarray(coef, dtype=float)
    if coef.shape != (m,) * n:
        raise ShapeError(f"coefficient shape {coef.shape} does not fit a {n}-attribute, {m}-level table")
    return LogTable(schema, _cells(coef))


def _slots(m: int) -> np.ndarray:
    """Per axis, the lattice bit each level-factor column sets: 0 for the constant, 1 for a contrast."""
    return np.minimum(np.arange(m), 1)


def _zero_blocks(coef: np.ndarray, mean: np.float64, mask: np.ndarray) -> np.ndarray:
    """Flat cells of a :func:`_coefficients` pair less the blocks ``mask`` marks; overwrites ``coef``."""
    # lattice bit N-1-a is axis a of the (2,)*N view, as attribute N-1-a is axis a of coef
    zeroed = mask.reshape((2,) * coef.ndim)
    for a in range(coef.ndim):
        zeroed = zeroed.take(_slots(coef.shape[0]), axis=a)
    coef[zeroed] = 0.0
    coef[(0,) * coef.ndim] += mean
    return _cells(coef)


def _energies(squares: np.ndarray, mean: np.float64) -> np.ndarray:
    """:func:`subset_energies` from the squares of a :func:`_coefficients` tensor and its mean:
    each square times its column's ``|col|^2``, pooled by subset; the constant's is ``mean**2 * M**N``."""
    n, m = squares.ndim, squares.shape[0]
    pool = np.zeros((2, m))  # per axis: each column's |col|^2, pooled into its lattice bit
    pool[_slots(m), np.arange(m)] = np.square(level_factor(m)[0]).sum(axis=0)
    energies = _modewise(squares, [pool] * n)
    energies[0] = mean * mean * float(m) ** n
    return energies


def subset_energies(log_table: LogTable) -> np.ndarray:
    """Squared projection magnitude of every subset's block as a lattice vector
    (see :func:`psalience.basis.subset_index`); exactly 0 off the constant for a constant table."""
    coef, mean = _coefficients(log_table)
    return _energies(np.square(coef, out=coef), mean)


def row_norms(values: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis by one BLAS dot per row, so a row's
    norm has the bits ``np.linalg.norm`` gives that row alone."""
    return np.sqrt(np.matmul(values[..., np.newaxis, :], values[..., np.newaxis])[..., 0, 0])


def centred_norm(values: np.ndarray) -> np.ndarray:
    """``|v - mean(v)|`` along the last axis, exactly 0.0 for a constant row.  The
    equal ``sqrt(|v|^2 - (sum v)^2 / len(v))`` cancels badly near uniformity."""
    norm = row_norms(values - values.mean(axis=-1, keepdims=True))
    return np.where(np.ptp(values, axis=-1) == 0.0, 0.0, norm)
