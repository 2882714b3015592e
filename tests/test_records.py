"""The frozen value records: construction, defaults, immutability,
equality, hash, order and repr."""

from __future__ import annotations

import copy
import pickle

import pytest

from genbound.bounds_catalog import BoundId, BoundReport, CatalogEntry
from genbound.covering import CoverKind, CoverSpec, CoverVerification, GridParameter
from genbound.oracle_harness import McResult, PerDatasetKl, VerificationReport
from genbound.privacy import PrivacyKind, PrivacyParams
from genbound.privacy_mechanisms import StabilityReport, StabilityRow
from genbound.types_core import CountVector

CV = CountVector((1, 2))
ROW = StabilityRow(1, 0.1, 0.2, True, (0, 1))

# class, its fields in positional order with a value for each, and the
# fields that may be left out with their defaults
RECORDS = [
    (CountVector, {"counts": (1, 2)}, {}),
    (PrivacyParams, {"kind": PrivacyKind.EPS_DP, "value": 0.5}, {}),
    (BoundReport, {"bound_id": BoundId.TYPE_COUNT, "value": 1.5,
                   "applicable": True, "regime_note": "note",
                   "asymptotic_only": True}, {"asymptotic_only": False}),
    (CatalogEntry, {"bound_id": BoundId.DP_GRID, "formula": "f", "regime": "r",
                    "unit": "nats", "asymptotic": False}, {}),
    (CoverSpec, {"centers": (CV, CountVector((3, 0))), "t": 2,
                 "certified_radius": 1.25, "kind": CoverKind.SIMPLEX_GRID,
                 "typical_epsilon": 0.1}, {"typical_epsilon": 0.0}),
    (CoverVerification, {"achieved_radius": 1, "certified_radius": 1.25,
                         "verified": True, "checked_vectors": 4, "worst": CV}, {}),
    (GridParameter, {"t": 3, "clamped": False, "raw_value": 2.8}, {}),
    (PerDatasetKl, {"count_vector": CV, "exact_kl": 0.1,
                    "bound_logsumexp": 0.2, "bound_min": 0.3}, {}),
    (McResult, {"estimate": 0.01, "standard_error": 0.001, "samples": 100}, {}),
    (VerificationReport, {"exact_mi": 0.1, "exact_gen_error": 0.01,
                          "sigma": 0.5, "gen_bound": 0.2,
                          "bound_values": {BoundId.TYPE_COUNT: 1.0},
                          "per_bound_slack": {BoundId.TYPE_COUNT: 0.9},
                          "violations": (), "all_pass": True}, {}),
    (StabilityRow, {"k": 1, "max_kl": 0.1, "bound": 0.2, "passed": True,
                    "worst_pair": (0, 1)}, {}),
    (StabilityReport, {"rows": (ROW,), "passed": True}, {}),
]


@pytest.mark.parametrize("cls, fields, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, defaults):
    positional = cls(*fields.values())
    keyword = cls(**fields)
    for name, value in fields.items():
        assert getattr(positional, name) == value
        assert getattr(keyword, name) == value
    assert positional == keyword
    assert positional != object()

    required = {k: v for k, v in fields.items() if k not in defaults}
    defaulted = cls(**required)
    for name, value in defaults.items():
        assert getattr(defaulted, name) == value

    for name in fields:
        with pytest.raises(AttributeError):
            setattr(positional, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(positional, name)
    with pytest.raises(AttributeError):
        positional.not_a_field = 1

    assert repr(positional).startswith(f"{cls.__name__}(")
    assert all(f"{name}=" in repr(positional) for name in fields)
    assert copy.copy(positional) == positional
    assert pickle.loads(pickle.dumps(positional)) == positional


def test_records_of_different_classes_never_compare_equal():
    # same field values, different record class
    assert GridParameter(1, False, 1.0) != McResult(1, False, 1.0)


def test_count_vector_equality_and_hash():
    a, b = CountVector((2, 1)), CountVector([2, 1])
    assert a == b and hash(a) == hash(b)
    assert a != CountVector((1, 2))
    assert len({a, b, CountVector((1, 2))}) == 2
    assert CountVector((2.0, 1)).counts == (2, 1)


def test_count_vector_order_is_lexicographic():
    vectors = [CountVector(c) for c in [(1, 2, 0), (0, 3, 0), (1, 0, 2), (0, 0, 3)]]
    assert sorted(vectors) == [CountVector(c) for c in
                               [(0, 0, 3), (0, 3, 0), (1, 0, 2), (1, 2, 0)]]
    a, b = CountVector((0, 3)), CountVector((1, 2))
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    assert not (b < a or a > b)
    with pytest.raises(TypeError):
        a < (0, 3)  # noqa: B015


def test_privacy_params_equality_hash_and_validation():
    a = PrivacyParams.eps_dp(0.5)
    assert a == PrivacyParams(PrivacyKind.EPS_DP, 0.5)
    assert hash(a) == hash(PrivacyParams(PrivacyKind.EPS_DP, 0.5))
    assert a != PrivacyParams.mu_gdp(0.5)
    assert PrivacyParams.none() == PrivacyParams(PrivacyKind.NONE)
    assert len({a, PrivacyParams.eps_dp(0.5), PrivacyParams.none()}) == 2
    for kind, value in [(PrivacyKind.NONE, 1.0), (PrivacyKind.EPS_DP, None),
                        (PrivacyKind.MU_GDP, float("inf"))]:
        with pytest.raises(ValueError):
            PrivacyParams(kind, value)
