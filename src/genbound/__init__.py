"""Certified generalization-error bounds over finite alphabets.

Everything here works with permutation-invariant learning algorithms,
so datasets are reduced to their count vectors (empirical types). The
package computes closed-form mutual-information and generalization
bounds for eps-DP and mu-GDP mechanisms, builds the covering
constructions those bounds rest on, and verifies both the covers and
the bounds exhaustively or by Monte Carlo on small instances.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Public name -> defining module, resolved on first access (PEP 562) so
# `import genbound` loads no layer, and numpy only once a name needs it.
_EXPORTS = {
    "types_core": (
        "SourceDistribution", "num_types", "sigma_sub_gaussian",
    ),
    "covering": (
        "CoverKind", "CoverSpec", "build_full_grid_cover",
        "build_simplex_grid_cover", "build_typical_cover",
        "simplex_hypercube_count",
        "typical_epsilon", "verify_cover",
    ),
    "privacy_mechanisms": (
        "Mechanism", "exponential_mechanism_over_types", "gdp_param_noisy_sgd",
        "identity_mechanism", "kl_stability_bound", "verify_kl_stability",
    ),
    "privacy": (
        "PrivacyKind", "PrivacyParams",
    ),
    "bounds_catalog": (
        "BoundId", "BoundReport",
        "asymptotic_report", "catalog_entries",
        "gen_error_from_mi", "kl_bound_cover_dp", "kl_bound_cover_gdp",
        "kl_bound_refined", "kl_bound_simple", "mi_bound_typical",
        "pac_bayes_gen_bound",
    ),
    "oracle_harness": (
        "ExperimentConfig", "exact_expected_gen_error",
        "load_experiment_config", "mc_expected_gen_error", "run_verification",
    ),
    "errors": (
        "GenboundError", "InputError", "ResourceLimitError",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
