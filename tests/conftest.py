from __future__ import annotations

import pytest

import genbound.types_core
from genbound.oracle_harness import ExperimentConfig, default_loss_table
from genbound.privacy_mechanisms import exponential_mechanism_over_types
from genbound.types_core import SourceDistribution


@pytest.fixture
def make_config():
    """Factory for small exponential-mechanism experiment configs."""

    def build(alphabet_size=2, n=8, epsilon=0.5, source=None, seed=7,
              mc_samples=1000):
        src = source or SourceDistribution.uniform(alphabet_size)
        mech = exponential_mechanism_over_types(alphabet_size, n, epsilon)
        return ExperimentConfig(
            source=src, mechanism=mech,
            loss_table=default_loss_table(alphabet_size, n),
            seed=seed, mc_samples=mc_samples,
        )

    return build


@pytest.fixture
def block_rows(monkeypatch):
    """Set the row-block size, types_core.BLOCK_ROWS, which every blocked
    pass reads through types_core.row_blocks, for this test only."""

    def shrink(rows):
        monkeypatch.setattr(genbound.types_core, "BLOCK_ROWS", rows)

    return shrink
