"""Orthogonal log-linear decomposition and probabilistic salience of
contingency tables, with interaction-limited release.

The pipeline: build a table over equal-level categorical attributes
(:mod:`psalience.table`), decompose its log into orthogonal per-subset
interaction subspaces (:mod:`psalience.basis`, :mod:`psalience.fitting`),
reduce to attribute subsets by geometric-mean marginalisation without
losing interaction structure (:mod:`psalience.marginal`), score how
sharply each subset's values stand out (:mod:`psalience.salience`), and
blunt the sharpest structure before releasing the data
(:mod:`psalience.depersonalize`).

``import psalience`` loads no submodule.  Each name in ``__all__``, the
submodules among them, is imported on first use (PEP 562) and then
cached in the package namespace, so a command pays only for the modules
it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Submodule -> the public names the package re-exports from it.
_PUBLIC = {
    "basis": (
        "BasisColumn", "SubsetKey", "SubspaceBasis", "all_subsets", "enumerate_subsets",
        "full_basis", "gram_schmidt_oracle", "level_contrasts", "ortho_column", "raw_column",
        "reduced_basis", "subspace_basis",
    ),
    "depersonalize": (
        "AuditEntry", "LimitSpec", "ReleaseAudit", "audit", "interaction_limit",
        "selective_zero", "upward_closure",
    ),
    "errors": (
        "ArgumentError", "DegeneratePopulationError", "DomainError", "EmptyInputError",
        "IngestionError", "InvalidIndexError", "InvalidRankError", "SalienceError",
        "SchemaError", "ShapeError", "SizeGuardError", "StateError",
    ),
    "fitting": (
        "BetaVector", "ProjectionResult", "fit_beta", "orthogonal_complement_magnitude",
        "project_subset", "reconstruct",
    ),
    "marginal": (
        "ConditionalSubtable", "GeoMeanTable", "complement_attributes", "conditional_subtable",
        "geometric_mean_subtable", "gm_projection_identity", "gm_projection_total_identity",
        "reduced_subset_key",
    ),
    "salience": (
        "Psi", "SalienceReport", "SalienceValue", "ScanEntry", "hypercube_psi", "psi",
        "psi_histogram", "scan",
    ),
    "synthetic": ("correlated_pair_table", "planted_interaction_table", "random_adjusted_table"),
    "table": (
        "AttributeSchema", "CellIndex", "ContingencyTable", "LogTable", "generic_schema",
        "lex_rank", "lex_unrank", "log_transform", "tabulate", "zero_adjust",
    ),
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
