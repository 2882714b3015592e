"""The standing test bed of experiment configs, kept in the tests.

Three small fully exact experiments that the oracle and acceptance
tests run end to end.
"""

from __future__ import annotations

from genbound.oracle_harness import ExperimentConfig, default_loss_table
from genbound.privacy_mechanisms import (
    exponential_mechanism_over_types,
    identity_mechanism,
)
from genbound.types_core import SourceDistribution


def reference_configs() -> dict[str, ExperimentConfig]:
    """A private mechanism on a uniform source, a stronger-eps private
    mechanism on a skewed source, and a non-private identity mechanism.
    """
    configs: dict[str, ExperimentConfig] = {}
    configs["exp-eps0.5-uniform"] = ExperimentConfig(
        source=SourceDistribution.uniform(2),
        mechanism=exponential_mechanism_over_types(2, 8, 0.5),
        loss_table=default_loss_table(2, 8),
        seed=20260817,
        mc_samples=100_000,
    )
    configs["exp-eps1-skewed"] = ExperimentConfig(
        source=SourceDistribution([0.3, 0.7]),
        mechanism=exponential_mechanism_over_types(2, 12, 1.0),
        loss_table=default_loss_table(2, 12),
        seed=31337,
        mc_samples=100_000,
    )
    configs["identity-3symbols"] = ExperimentConfig(
        source=SourceDistribution([0.2, 0.3, 0.5]),
        mechanism=identity_mechanism(3, 6),
        loss_table=default_loss_table(3, 6),
        seed=424242,
        mc_samples=100_000,
    )
    return configs
