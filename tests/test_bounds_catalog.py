"""Closed-form bound branches, regime selection, and conversions."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genbound.bounds_catalog import (
    BoundId,
    asymptotic_report,
    catalog_entries,
    gen_error_from_mi,
    kl_bound_cover_dp,
    kl_bound_cover_gdp,
    kl_bound_refined,
    kl_bound_simple,
    mi_bound_typical,
    pac_bayes_gen_bound,
)
from genbound.errors import InputError
from genbound.privacy_mechanisms import PrivacyParams


def test_simple_bound_formula():
    report = kl_bound_simple(2, 99)
    assert math.isclose(report.value, math.log(100), rel_tol=1e-15)
    assert report.bound_id is BoundId.TYPE_COUNT
    assert report.applicable
    assert kl_bound_simple(4, 10).value == pytest.approx(3 * math.log(11))


def test_cover_dp_value_and_regime():
    report = kl_bound_cover_dp(1.0, 2, 10)
    assert math.isclose(report.value, math.log(1 + 10 * math.e), rel_tol=1e-15)
    assert report.applicable
    beyond = kl_bound_cover_dp(1.5, 2, 10)
    assert not beyond.applicable
    assert "eps" in beyond.regime_note


def test_cover_gdp_value_and_regime():
    report = kl_bound_cover_gdp(1.0, 2, 3)
    assert math.isclose(report.value, 0.5 * math.log(1 + 9 * math.e), rel_tol=1e-15)
    assert report.applicable
    # mu threshold is 1/sqrt(m-1)
    assert kl_bound_cover_gdp(0.7, 3, 5).applicable
    assert not kl_bound_cover_gdp(0.8, 3, 5).applicable


@given(st.floats(0.01, 0.35), st.integers(2, 5), st.integers(2, 60))
def test_cover_dp_dominates_simple_below_crossover(eps, m, n):
    # 1 + e*eps*n < n + 1 exactly when eps < 1/e, independent of n
    assert kl_bound_cover_dp(eps, m, n).value < kl_bound_simple(m, n).value


def test_cover_dp_crossover_is_exactly_inverse_e():
    simple = kl_bound_simple(3, 40).value
    at_boundary = kl_bound_cover_dp(1 / math.e, 3, 40).value
    assert math.isclose(at_boundary, simple, rel_tol=1e-12)
    assert kl_bound_cover_dp(1 / math.e + 1e-9, 3, 40).value > simple


def test_refined_branch_selection_dp():
    low = kl_bound_refined(PrivacyParams.eps_dp(0.1), 2, 10)
    assert low.bound_id is BoundId.DP_SIMPLEX_LOW  # 0.1 == 1/n boundary
    assert math.isclose(low.value, (1 + 1.0) - 0.5 * math.log(2 * math.pi),
                        rel_tol=1e-14)
    mid = kl_bound_refined(PrivacyParams.eps_dp(0.11), 2, 10)
    assert mid.bound_id is BoundId.DP_SIMPLEX_MID
    loose = kl_bound_refined(PrivacyParams.eps_dp(1.01), 2, 10)
    assert loose.bound_id is BoundId.SIMPLEX_ANY


def test_refined_dp_low_known_value():
    report = kl_bound_refined(PrivacyParams.eps_dp(0.05), 2, 10)
    assert report.bound_id is BoundId.DP_SIMPLEX_LOW
    assert math.isclose(report.value, 0.5810614667953273, rel_tol=1e-15)


def test_refined_branch_selection_gdp():
    k = 2  # alphabet size 3
    low_mu = 1.0 / (10 * math.sqrt(k))
    assert kl_bound_refined(PrivacyParams.mu_gdp(low_mu), 3, 10).bound_id \
        is BoundId.GDP_SIMPLEX_LOW
    assert kl_bound_refined(PrivacyParams.mu_gdp(low_mu * 1.01), 3, 10).bound_id \
        is BoundId.GDP_SIMPLEX_MID
    assert kl_bound_refined(PrivacyParams.mu_gdp(1.0 / math.sqrt(k)), 3, 10).bound_id \
        is BoundId.GDP_SIMPLEX_MID
    assert kl_bound_refined(PrivacyParams.mu_gdp(0.8), 3, 10).bound_id \
        is BoundId.SIMPLEX_ANY


def test_refined_fallback_known_value():
    report = kl_bound_refined(PrivacyParams.none(), 3, 10)
    assert report.bound_id is BoundId.SIMPLEX_ANY
    assert math.isclose(report.value, 4.318006814971465, rel_tol=1e-15)
    assert report.applicable


def test_typical_branch_selection_and_value():
    report = mi_bound_typical(PrivacyParams.eps_dp(0.5), 2, 16)
    assert report.bound_id is BoundId.DP_TYPICAL_LOW
    assert math.isclose(report.value, 4.740637205089812, rel_tol=1e-15)
    assert "first-moment" in report.regime_note

    high = mi_bound_typical(PrivacyParams.eps_dp(3.0), 2, 16)
    assert high.bound_id is BoundId.DP_TYPICAL_HIGH
    expected = 2 * math.log1p(2 * math.sqrt(16 * math.log(16))) + 2 * 2 * 3 / 16
    assert math.isclose(high.value, expected, rel_tol=1e-15)

    gdp = mi_bound_typical(PrivacyParams.mu_gdp(0.5), 4, 16)
    assert gdp.bound_id is BoundId.GDP_TYPICAL_LOW
    gdp_high = mi_bound_typical(PrivacyParams.mu_gdp(1.01), 4, 16)
    assert gdp_high.bound_id is BoundId.GDP_TYPICAL_HIGH


def test_typical_requires_privacy_and_enough_samples():
    with pytest.raises(InputError):
        mi_bound_typical(PrivacyParams.none(), 2, 16)
    with pytest.raises(InputError):
        mi_bound_typical(PrivacyParams.eps_dp(0.5), 2, 1)


def test_gen_error_from_mi_values():
    assert gen_error_from_mi(1.0, 2, 0.0) == 0.0
    assert gen_error_from_mi(1.0, 2, 1.0) == 1.0
    composed = gen_error_from_mi(0.5, 100, kl_bound_simple(2, 100).value)
    assert math.isclose(composed, 0.15190655872675907, rel_tol=1e-15)


def test_gen_error_from_mi_rejects_negatives():
    with pytest.raises(InputError):
        gen_error_from_mi(-0.1, 2, 1.0)
    with pytest.raises(InputError):
        gen_error_from_mi(1.0, 2, -1e-9)


def test_pac_bayes_value_and_domain():
    value = pac_bayes_gen_bound(1.0, 8, 1.0, math.exp(-1.0))
    assert math.isclose(value, math.sqrt(0.5), rel_tol=1e-15)
    for beta in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(InputError):
            pac_bayes_gen_bound(1.0, 8, 1.0, beta)


@given(st.floats(0.01, 0.5), st.floats(0.51, 0.99))
def test_pac_bayes_monotone_decreasing_in_beta(lo, hi):
    assert pac_bayes_gen_bound(1.0, 10, 2.0, lo) \
        >= pac_bayes_gen_bound(1.0, 10, 2.0, hi)


def test_asymptotic_report_shape():
    reports = asymptotic_report(1.0, 0.5, 2, 100)
    ids = [r.bound_id for r in reports]
    assert ids == [
        BoundId.GEN_TYPE_COUNT,
        BoundId.GEN_PRIVATE_ASYMPTOTIC,
        BoundId.GEN_GRID_ASYMPTOTIC,
        BoundId.MULTINOMIAL_ENTROPY,
    ]
    assert all(r.asymptotic_only for r in reports)
    by_id = {r.bound_id: r for r in reports}
    assert by_id[BoundId.GEN_TYPE_COUNT].applicable
    assert not by_id[BoundId.GEN_PRIVATE_ASYMPTOTIC].applicable


def test_asymptotic_report_frozen_values():
    by_id = {r.bound_id: r for r in asymptotic_report(1.0, 0.5, 2, 100)}
    assert math.isclose(by_id[BoundId.GEN_PRIVATE_ASYMPTOTIC].value,
                        0.3080926954887474, rel_tol=1e-15)
    assert math.isclose(by_id[BoundId.GEN_GRID_ASYMPTOTIC].value,
                        math.sqrt(2 * math.log(50) / 100), rel_tol=1e-15)
    assert math.isclose(by_id[BoundId.GEN_TYPE_COUNT].value,
                        math.sqrt(2 * math.log(101) / 100), rel_tol=1e-15)
    assert math.isclose(by_id[BoundId.MULTINOMIAL_ENTROPY].value,
                        0.5 * math.log(50) + 4, rel_tol=1e-15)


def test_asymptotic_report_without_privacy_builds_no_private_rows():
    private = asymptotic_report(1.0, 0.5, 2, 100)
    plain = asymptotic_report(1.0, None, 2, 100)
    assert [r.bound_id for r in plain] == [BoundId.GEN_TYPE_COUNT,
                                           BoundId.MULTINOMIAL_ENTROPY]
    assert plain == [private[0], private[-1]]


def test_asymptotic_report_flags_vacuous_log():
    by_id = {r.bound_id: r for r in asymptotic_report(1.0, 0.01, 2, 4)}
    assert math.isnan(by_id[BoundId.GEN_PRIVATE_ASYMPTOTIC].value)


def test_gap_approaches_stirling_constant():
    eps, n, m = 1.0, 10**4, 2
    gap = kl_bound_cover_dp(eps, m, n).value \
        - kl_bound_refined(PrivacyParams.eps_dp(eps), m, n).value
    k = m - 1
    constant = k * math.log(k / math.e) + 0.5 * math.log(2 * math.pi * k)
    assert abs(gap - constant) <= 0.01 * abs(constant)


def test_catalog_has_fourteen_entries():
    entries = catalog_entries()
    assert len(entries) == 14
    ids = [e.bound_id for e in entries]
    assert len(set(ids)) == 14
    flagged = [e.bound_id for e in entries if e.asymptotic]
    assert flagged == [BoundId.GEN_PRIVATE_ASYMPTOTIC, BoundId.MULTINOMIAL_ENTROPY]
    assert all(e.formula and e.regime and e.unit for e in entries)
