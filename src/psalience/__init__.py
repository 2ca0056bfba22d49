"""Orthogonal log-linear decomposition and probabilistic salience of
contingency tables, with interaction-limited release.

The pipeline: build a table over equal-level categorical attributes
(:mod:`psalience.schema`, :mod:`psalience.table`), decompose its log into
orthogonal per-subset interaction subspaces (:mod:`psalience.basis`,
:mod:`psalience.fitting`), reduce to attribute subsets by geometric-mean
marginalisation without losing interaction structure
(:mod:`psalience.marginal`), score how sharply each subset's values stand
out (:mod:`psalience.salience`), and blunt the sharpest structure before
releasing the data (:mod:`psalience.depersonalize`).  The literal
constructions the pipeline is checked against are in
:mod:`psalience.reference`.

``import psalience`` loads no submodule.  Each name in ``__all__``, the
submodules among them, is imported on first use (PEP 562) and then
cached in the package namespace, so a command pays only for the modules
it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Submodule -> the public names the package re-exports from it.
_PUBLIC = {
    "basis": ("SubsetKey", "all_subsets", "enumerate_subsets", "level_contrasts"),
    "depersonalize": (
        "AuditEntry", "LimitSpec", "ReleaseAudit", "audit", "interaction_limit", "selective_zero",
    ),
    "errors": (
        "ArgumentError", "DegeneratePopulationError", "DomainError", "EmptyInputError",
        "IngestionError", "SalienceError", "SchemaError", "ShapeError", "StateError",
    ),
    "fitting": ("fit_beta", "reconstruct"),
    "marginal": ("conditional_subtable", "geometric_mean_subtable"),
    "reference": (
        "Psi", "full_basis", "gm_projection_identity", "gm_projection_total_identity",
        "gram_schmidt_oracle", "hypercube_psi", "ortho_column", "project_subset", "raw_column",
        "subspace_basis",
    ),
    "salience": ("SalienceReport", "SalienceValue", "ScanEntry", "psi", "psi_histogram", "scan"),
    "schema": ("AttributeSchema", "generic_schema"),
    "synthetic": ("correlated_pair_table", "planted_interaction_table", "random_adjusted_table"),
    "table": ("ContingencyTable", "LogTable", "log_transform", "tabulate", "zero_adjust"),
    "verify": ("VerificationReport", "run_verification"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted([*_HOME, *_PUBLIC])


def __getattr__(name):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _PUBLIC:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
