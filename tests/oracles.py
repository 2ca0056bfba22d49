"""Independent reference constructions used by the tests.

These deliberately avoid the production generators: closed-form columns
are assembled from their printed repetition patterns or from explicit
per-attribute vectors, and projectors are built densely, so agreement
with the package is evidence rather than tautology.
"""

import functools

import numpy as np


def kron_chain(factors):
    return functools.reduce(np.kron, factors)


def literal_pair_column(n, m, i2, i1):
    """Closed-form orthogonalised pair column (levels (0,0)) built from its
    explicit run-length pattern, for attributes i2 > i1 of an n-attribute,
    m-level table."""
    assert i2 > i1
    first = np.concatenate(
        [np.full(m ** i1, float((m - 1) ** 2)), np.full((m - 1) * m ** i1, float(-(m - 1)))]
    )
    second = np.concatenate(
        [np.full(m ** i1, float(-(m - 1))), np.full((m - 1) * m ** i1, 1.0)]
    )
    block = np.concatenate(
        [np.tile(first, m ** (i2 - i1 - 1)), np.tile(second, (m - 1) * m ** (i2 - i1 - 1))]
    )
    return np.tile(block, m ** (n - i2 - 1)) / m ** 2


def _head_contrast(m):
    """Level-0-against-the-rest vector (m-1, -1, ..., -1)."""
    v = np.full(m, -1.0)
    v[0] = m - 1.0
    return v


def _second_contrast(m):
    """Level-1-against-the-higher-levels vector (0, m-2, -1, ..., -1)."""
    u = np.full(m, -1.0)
    u[0] = 0.0
    u[1] = m - 2.0
    return u


def closed_form_all_zero(subset, n, m):
    """General closed-form column for the all-zero level code: tensor of
    head contrasts over the subset, ones elsewhere, scaled by 1/m**k."""
    factors = []
    for attribute in range(n - 1, -1, -1):
        factors.append(_head_contrast(m) if attribute in subset else np.ones(m))
    return kron_chain(factors) / m ** len(subset)


def closed_form_zero_one(subset, n, m):
    """Closed-form column for the (0, ..., 0, 1) level code: the smallest
    subset attribute carries the second contrast.  Degenerates to zero for
    m = 2, where each subset has a single independent direction."""
    smallest = subset[-1]
    factors = []
    for attribute in range(n - 1, -1, -1):
        if attribute == smallest:
            factors.append(_second_contrast(m))
        elif attribute in subset:
            factors.append(_head_contrast(m))
        else:
            factors.append(np.ones(m))
    return kron_chain(factors) / m ** len(subset)


def norms_sq(matrix):
    """Squared norm of each column of ``matrix``."""
    return np.einsum("ij,ij->j", matrix, matrix)


def projector(matrix):
    """Dense projector sum(c c^T / |c|^2) over the columns of ``matrix``."""
    return (matrix / norms_sq(matrix)) @ matrix.T


def residual_outside_span(vector, matrix):
    """Component of ``vector`` left after projecting onto the span of the
    mutually orthogonal columns of ``matrix``."""
    coef = (matrix.T @ vector) / norms_sq(matrix)
    return vector - matrix @ coef


def axis_mean_psi(log_values, n, m, subset):
    """psi of a subset's log geometric-mean table, built by averaging the
    log tensor over every other attribute's axis (attribute ``a`` is axis
    ``n - 1 - a``).  Logs may be negative, as for releases below 1."""
    tensor = np.asarray(log_values, dtype=float).reshape((m,) * n)
    others = tuple(n - 1 - a for a in range(n) if a not in subset)
    reduced = tensor.mean(axis=others) if others else tensor
    norm = np.linalg.norm(reduced)
    return 0.0 if norm == 0.0 else float(np.linalg.norm(reduced - reduced.mean()) / norm)
