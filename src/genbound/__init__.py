"""Certified generalization-error bounds over finite alphabets.

Everything here works with permutation-invariant learning algorithms,
so datasets are reduced to their count vectors (empirical types). The
package computes closed-form mutual-information and generalization
bounds for eps-DP and mu-GDP mechanisms, builds the covering
constructions those bounds rest on, and verifies both the covers and
the bounds exhaustively or by Monte Carlo on small instances.
"""

from __future__ import annotations

from .bounds_catalog import (
    BoundId,
    BoundReport,
    asymptotic_report,
    best_bound,
    catalog_entries,
    gen_error_from_mi,
    kl_bound_cover_dp,
    kl_bound_cover_gdp,
    kl_bound_refined,
    kl_bound_simple,
    mi_bound_typical,
    pac_bayes_gen_bound,
)
from .covering import (
    CoverKind,
    CoverSpec,
    build_full_grid_cover,
    build_simplex_grid_cover,
    build_typical_cover,
    is_typical,
    optimal_grid_parameter,
    simplex_hypercube_count,
    typical_epsilon,
    typical_mass,
    verify_cover,
)
from .divergence_core import (
    DiscreteDistribution,
    MixtureSpec,
    kl_divergence,
    kl_matrix,
    mixture_distribution,
    mixture_kl_bound_logsumexp,
    mixture_kl_bound_min,
    mixture_variational_objective,
    optimal_responsibilities,
)
from .errors import GenboundError, InputError, ResourceLimitError
from .oracle_harness import (
    ExperimentConfig,
    exact_expected_gen_error,
    exact_mutual_information,
    load_experiment_config,
    mc_expected_gen_error,
    per_dataset_kl_to_cover_mixture,
    run_verification,
)
from .privacy_mechanisms import (
    Mechanism,
    PrivacyKind,
    PrivacyParams,
    exponential_mechanism_over_types,
    gaussian_mechanism_neighbor_kl,
    gdp_param_noisy_sgd,
    identity_mechanism,
    kl_stability_bound,
    verify_kl_stability,
)
from .types_core import (
    Alphabet,
    CountVector,
    SourceDistribution,
    dataset_distance,
    enumerate_types,
    num_types,
    num_types_upper_bound,
    sigma_sub_gaussian,
    type_of,
    type_probability,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BoundId",
    "BoundReport",
    "CountVector",
    "CoverKind",
    "CoverSpec",
    "DiscreteDistribution",
    "ExperimentConfig",
    "GenboundError",
    "InputError",
    "Mechanism",
    "MixtureSpec",
    "PrivacyKind",
    "PrivacyParams",
    "ResourceLimitError",
    "SourceDistribution",
    "asymptotic_report",
    "best_bound",
    "build_full_grid_cover",
    "build_simplex_grid_cover",
    "build_typical_cover",
    "catalog_entries",
    "dataset_distance",
    "enumerate_types",
    "exact_expected_gen_error",
    "exact_mutual_information",
    "exponential_mechanism_over_types",
    "gaussian_mechanism_neighbor_kl",
    "gdp_param_noisy_sgd",
    "gen_error_from_mi",
    "identity_mechanism",
    "is_typical",
    "kl_bound_cover_dp",
    "kl_bound_cover_gdp",
    "kl_bound_refined",
    "kl_bound_simple",
    "kl_divergence",
    "kl_matrix",
    "kl_stability_bound",
    "load_experiment_config",
    "mc_expected_gen_error",
    "mi_bound_typical",
    "mixture_distribution",
    "mixture_kl_bound_logsumexp",
    "mixture_kl_bound_min",
    "mixture_variational_objective",
    "num_types",
    "num_types_upper_bound",
    "optimal_grid_parameter",
    "optimal_responsibilities",
    "pac_bayes_gen_bound",
    "per_dataset_kl_to_cover_mixture",
    "run_verification",
    "sigma_sub_gaussian",
    "simplex_hypercube_count",
    "type_of",
    "type_probability",
    "typical_epsilon",
    "typical_mass",
    "verify_cover",
    "verify_kl_stability",
]
