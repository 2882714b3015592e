"""The frozen value records: construction, defaults, immutability,
equality, hash and repr, for plain and array fields; and the order of
count vectors."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from genbound.bounds_catalog import BoundId, BoundReport, CatalogEntry
from genbound.covering import CoverKind, CoverSpec, CoverVerification
from genbound.oracle_harness import McResult, VerificationReport
from genbound.privacy import PrivacyKind, PrivacyParams
from genbound.privacy_mechanisms import StabilityReport, StabilityRow
from genbound.types_core import type_rank

ROW = StabilityRow(1, 0.1, 0.2, (0, 1))

# class, its fields in positional order with a value for each, and the
# fields that may be left out with their defaults
RECORDS = [
    (PrivacyParams, {"kind": PrivacyKind.EPS_DP, "value": 0.5}, {}),
    (BoundReport, {"bound_id": BoundId.TYPE_COUNT, "value": 1.5,
                   "applicable": True, "regime_note": "note",
                   "asymptotic_only": True, "cover": ("simplex_grid", 4)},
     {"asymptotic_only": False, "cover": None}),
    (CatalogEntry, {"bound_id": BoundId.DP_GRID, "formula": "f", "regime": "r",
                    "unit": "nats", "asymptotic": False}, {}),
    (CoverSpec, {"centers": np.array([[1, 2], [3, 0]]), "t": 2,
                 "certified_radius": 1.25, "kind": CoverKind.SIMPLEX_GRID,
                 "source_probs": None}, {"source_probs": None}),
    (CoverVerification, {"achieved_radius": 1, "verified": True,
                         "checked_vectors": 4, "worst": (1, 2)}, {}),
    (McResult, {"estimate": 0.01, "standard_error": 0.001, "samples": 100}, {}),
    (VerificationReport, {"exact_mi": 0.1, "exact_gen_error": 0.01,
                          "sigma": 0.5,
                          "bound_values": {BoundId.TYPE_COUNT: 1.0},
                          "comparison_values": {BoundId.TYPE_COUNT: 0.1}}, {}),
    (StabilityRow, {"k": 1, "max_kl": 0.1, "bound": 0.2,
                    "worst_pair": (0, 1)}, {}),
    (StabilityReport, {"rows": (ROW,)}, {}),
]


@pytest.mark.parametrize("cls, fields, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, defaults):
    positional = cls(*fields.values())
    keyword = cls(**fields)
    for name, value in fields.items():
        assert same(getattr(positional, name), value)
        assert same(getattr(keyword, name), value)
    assert positional == keyword
    assert positional != object()
    if not any(isinstance(v, dict) for v in fields.values()):
        assert hash(positional) == hash(keyword)

    required = {k: v for k, v in fields.items() if k not in defaults}
    defaulted = cls(**required)
    for name, value in defaults.items():
        assert same(getattr(defaulted, name), value)

    # a value a record derives from its fields is as read-only as they are
    derived = [name for name in dir(cls) if isinstance(getattr(cls, name), property)]
    for name in [*fields, *derived]:
        with pytest.raises(AttributeError):
            setattr(positional, name, getattr(positional, name))
        with pytest.raises(AttributeError):
            delattr(positional, name)
    with pytest.raises(AttributeError):
        positional.not_a_field = 1

    assert repr(positional).startswith(f"{cls.__name__}(")
    assert all(f"{name}=" in repr(positional) for name in fields)
    assert copy.copy(positional) == positional
    assert pickle.loads(pickle.dumps(positional)) == positional

    # a record holding arrays: a changed entry or shape is unequal, and so
    # is a changed dtype unless the constructor converts it back
    arrays = [k for k, v in fields.items() if isinstance(v, np.ndarray)]
    for name in arrays:
        value = fields[name]
        for other in (value[::-1], value[:1]):
            changed = cls(**dict(fields, **{name: other}))
            assert changed != positional
            assert hash(changed) != hash(positional)
        changed = cls(**dict(fields, **{name: value.astype(np.float32)}))
        kept = getattr(changed, name).dtype == value.dtype
        assert (changed == positional) == kept
        assert (hash(changed) == hash(positional)) == kept


def same(a, b) -> bool:
    if isinstance(b, np.ndarray):
        return a.shape == b.shape and bool((a == b).all())
    return a == b


def test_cover_spec_centers_are_read_only():
    cover = CoverSpec(np.array([[1, 2], [3, 0]]), 2, 1.25, CoverKind.FULL_GRID)
    assert cover.centers.dtype == np.int64
    with pytest.raises(ValueError):
        cover.centers[0, 0] = 0
    for clone in (copy.copy(cover), copy.deepcopy(cover),
                  pickle.loads(pickle.dumps(cover))):
        assert clone == cover and not clone.centers.flags.writeable


def test_records_of_different_classes_never_compare_equal():
    # same field values, different record class
    assert (CoverVerification(1, False, 1, (0, 1))
            != StabilityRow(1, False, 1, (0, 1)))


def test_count_vector_equality_and_hash():
    # count vectors held in a record compare and hash by value, whatever
    # sequence or integer type they were given as
    def cover(centers):
        return CoverSpec(centers, 1, 1.0, CoverKind.FULL_GRID)

    a, b = cover(((2, 1),)), cover([[2, 1]])
    assert a == b and hash(a) == hash(b)
    assert a == cover(np.array([[2, 1]], dtype=np.int32))
    assert a != cover(((1, 2),))
    assert len({a, b, cover(((1, 2),))}) == 2
    assert cover([[2.0, 1]]).centers.tolist() == [[2, 1]]


def test_count_vector_order_is_lexicographic():
    # the order of every count array: type_rank sorts count vectors of one
    # length lexicographically
    vectors = [(1, 2, 0), (0, 3, 0), (1, 0, 2), (0, 0, 3)]
    ranks = type_rank(vectors).tolist()
    assert [v for _, v in sorted(zip(ranks, vectors))] == [
        (0, 0, 3), (0, 3, 0), (1, 0, 2), (1, 2, 0)]
    assert type_rank([(0, 3), (1, 2)]).tolist() == [0, 1]


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


def test_verification_report_derives_its_verdicts():
    # slack is bound minus comparison in bound order, and a violation is a
    # slack below -SLACK_TOL, so no report lists one while all_pass holds
    report = VerificationReport(0.1, 0.01, 0.5,
                                {BoundId.TYPE_COUNT: 1.0, BoundId.DP_GRID: 0.2},
                                {BoundId.TYPE_COUNT: 0.1, BoundId.DP_GRID: 0.3})
    assert report.per_bound_slack == {BoundId.TYPE_COUNT: 1.0 - 0.1,
                                      BoundId.DP_GRID: 0.2 - 0.3}
    assert list(report.per_bound_slack) == [BoundId.TYPE_COUNT, BoundId.DP_GRID]
    assert report.violations == ("dp_grid",) and not report.all_pass
    assert VerificationReport(0.1, 0.01, 0.5, {BoundId.DP_GRID: 0.3},
                              {BoundId.DP_GRID: 0.3 + 1e-10}).all_pass


@pytest.mark.parametrize("max_kl, bound, passed", [
    (0.2, 0.2, True), (0.2 + 1e-10, 0.2, True), (0.2 + 1e-8, 0.2, False),
    (0.0, 0.0, True), (float("inf"), float("inf"), False),
    (float("nan"), 1.0, False), (1e300, float("inf"), True),
])
def test_stability_report_derives_its_verdicts(max_kl, bound, passed):
    # a row passes when its worst KL is finite and within bound + SLACK_TOL,
    # and a report when every row does, so no report contradicts its rows
    row = StabilityRow(2, max_kl, bound, (0, 1))
    assert row.passed is passed
    assert StabilityReport((ROW, row)).passed is passed
    assert StabilityReport((ROW,)).passed and StabilityReport(()).passed
