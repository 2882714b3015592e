"""Acceptance suite: one test per primary criterion.

Every check here is oracle- or property-based against exact quantities
computed by independent means (combinatorial identities, exhaustive
enumeration, exact rational arithmetic, or closed forms evaluated
inline). Tolerances are stated per check; none of the asserted values
come from table lookups.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from genbound.bounds_catalog import (
    BoundId,
    kl_bound_cover_dp,
    kl_bound_refined,
    kl_bound_simple,
    mi_bound_typical,
)
from genbound.covering import (
    build_full_grid_cover,
    build_simplex_grid_cover,
    build_typical_cover,
    simplex_hypercube_count,
    typical_epsilon,
    verify_cover,
)
from genbound.oracle_harness import (
    ExperimentConfig,
    default_loss_table,
    exact_expected_gen_error,
    mc_expected_gen_error,
    random_mechanism,
    run_verification,
)
from genbound.privacy_mechanisms import (
    PrivacyParams,
    exponential_mechanism_over_types,
    kl_stability_bound,
    verify_kl_stability,
)
from genbound.types_core import (
    SourceDistribution,
    num_types,
    sigma_sub_gaussian,
    type_counts,
    type_probabilities,
)
from config_reference import reference_configs
from divergence_reference import (
    MixtureSpec,
    gaussian_mechanism_neighbor_kl,
    kl_divergence,
    mixture_distribution,
    mixture_kl_bound_logsumexp,
    mixture_kl_bound_min,
)
from lattice_reference import (
    enumerate_types,
    is_typical,
    num_types_upper_bound,
    type_index,
)


def test_criterion_01_simplex_cell_counting_exact():
    assert simplex_hypercube_count(2, 4) == 10
    for t in range(1, 21):
        assert simplex_hypercube_count(1, t) == t
    for k in range(1, 11):
        assert simplex_hypercube_count(k, 1) == 1
    for k in range(2, 7):
        for t in range(1, 21):
            assert simplex_hypercube_count(k, t) == sum(
                simplex_hypercube_count(k - 1, j) for j in range(1, t + 1)
            )


def test_criterion_02_type_count_envelope():
    for m in range(2, 9):
        for n in range(1, 51):
            exact = num_types(m, n)
            envelope = num_types_upper_bound(m, n)
            assert exact <= envelope
            assert (exact == envelope) == (m == 2)


def test_criterion_03_factorial_ratio_envelope_rational():
    for t in range(1, 31):
        for m in range(1, 31):
            ratio = Fraction(math.factorial(t + m), math.factorial(t - 1))
            assert ratio <= Fraction(2 * t + m, 2) ** (m + 1)


def test_criterion_04_mixture_kl_sandwich():
    rng = np.random.default_rng(20260817)
    degenerate_checked = 0
    for _ in range(1100):
        m = int(rng.integers(2, 11))
        b = int(rng.integers(1, 9))
        components = rng.dirichlet(np.ones(m), size=b)
        weights = rng.dirichlet(np.ones(b))
        weights = weights / math.fsum(weights.tolist())
        p = rng.dirichlet(np.ones(m))
        p = p / math.fsum(p.tolist())
        mix = MixtureSpec(list(components), weights)
        exact = kl_divergence(p, mixture_distribution(mix))
        lse = mixture_kl_bound_logsumexp(p, mix)
        single = mixture_kl_bound_min(p, mix)
        assert lse - exact >= -1e-10
        assert single - lse >= -1e-10
        if b == 1:
            degenerate_checked += 1
            assert abs(exact - lse) <= 1e-12
            assert abs(exact - single) <= 1e-12
    assert degenerate_checked >= 50


def test_criterion_05_expected_kl_to_marginal_equals_information():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(2, 11))
        hypotheses = int(rng.integers(2, 12))
        seed = int(rng.integers(0, 2**31))
        mech = random_mechanism(2, n, hypothesis_count=hypotheses, seed=seed)
        probs = rng.dirichlet((2.0, 2.0))
        source = SourceDistribution(probs / math.fsum(probs.tolist()))
        config = ExperimentConfig(
            source=source, mechanism=mech,
            loss_table=np.zeros((hypotheses, 2)), seed=0, mc_samples=100,
        )
        p_types = type_probabilities(type_counts(2, n), source)
        mix = MixtureSpec(list(mech.kernel), p_types)
        marginal = mixture_distribution(mix)
        expected_kl = math.fsum(
            float(p) * kl_divergence(row, marginal)
            for p, row in zip(p_types, mech.kernel) if p > 0
        )
        mi = run_verification(config).exact_mi
        assert abs(expected_kl - mi) <= 1e-10, trial


def test_criterion_06_stability_envelope_and_gaussian_route():
    for eps in (0.1, 0.5, 1.0, 2.0):
        for m in (2, 3):
            for n in (5, 8):
                mech = exponential_mechanism_over_types(m, n, eps)
                report = verify_kl_stability(mech)
                assert report.passed, (eps, m, n)
                for row in report.rows:
                    x = row.k * eps
                    assert row.max_kl <= x * math.tanh(x / 2.0) + 1e-9
    for mu in (0.25, 0.5, 1.0, 2.0):
        for k in range(0, 11):
            direct = gaussian_mechanism_neighbor_kl(mu, k)
            target = (k * mu) ** 2 / 2.0
            assert math.isclose(direct, target, rel_tol=1e-15, abs_tol=1e-15)
            if k > 0:
                envelope = kl_stability_bound(PrivacyParams.mu_gdp(mu), k)
                assert math.isclose(direct, envelope, rel_tol=1e-15,
                                    abs_tol=1e-15)


def test_criterion_07_universal_information_cap():
    rng = np.random.default_rng(123)
    for trial in range(50):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(2, 13))
        hypotheses = int(rng.integers(2, 15))
        seed = int(rng.integers(0, 2**31))
        mech = random_mechanism(m, n, hypothesis_count=hypotheses, seed=seed)
        probs = rng.dirichlet(np.ones(m))
        source = SourceDistribution(probs / math.fsum(probs.tolist()))
        config = ExperimentConfig(
            source=source, mechanism=mech,
            loss_table=np.zeros((hypotheses, m)), seed=0, mc_samples=100,
        )
        mi = run_verification(config).exact_mi
        assert mi <= kl_bound_simple(m, n).value + 1e-9, trial


def test_criterion_08_cover_bounds_hold_per_dataset():
    for eps in (0.1, 0.25, 0.5, 1.0):
        privacy = PrivacyParams.eps_dp(eps)
        for m in (2, 3):
            for n in (8, 12):
                mech = exponential_mechanism_over_types(m, n, eps)
                config = ExperimentConfig(
                    source=SourceDistribution.uniform(m), mechanism=mech,
                    loss_table=default_loss_table(m, n), seed=0, mc_samples=100,
                )
                mi = run_verification(config).exact_mi
                for report in (
                    kl_bound_cover_dp(eps, m, n),
                    kl_bound_refined(privacy, m, n),
                ):
                    if not report.applicable:
                        continue
                    kind, t = report.cover
                    cover = (build_full_grid_cover if kind == "full_grid"
                             else build_simplex_grid_cover)(m, n, t)
                    centers = [mech.kernel[type_index(c)]
                               for c in cover.centers.tolist()]
                    mixture = mixture_distribution(MixtureSpec(
                        centers, [1.0 / len(centers)] * len(centers)))
                    worst = max(kl_divergence(row, mixture) for row in mech.kernel)
                    assert report.value - worst >= -1e-9, (eps, m, n, report)
                    assert report.value - mi >= -1e-9, (eps, m, n, report)


def test_criterion_09_typical_bound_and_mass_floor():
    for eps in (0.1, 0.25, 0.5, 1.0):
        for m in (2, 3):
            for n in (8, 12):
                mech = exponential_mechanism_over_types(m, n, eps)
                config = ExperimentConfig(
                    source=SourceDistribution.uniform(m), mechanism=mech,
                    loss_table=default_loss_table(m, n), seed=0, mc_samples=100,
                )
                mi = run_verification(config).exact_mi
                bound = mi_bound_typical(PrivacyParams.eps_dp(eps), m, n)
                assert bound.bound_id is BoundId.DP_TYPICAL_LOW
                assert mi <= bound.value + 1e-9, (eps, m, n)
    for n in (8, 16, 32):
        for source in (
            SourceDistribution.uniform(2),
            SourceDistribution([0.3, 0.7]),
            SourceDistribution.uniform(3),
            SourceDistribution([0.2, 0.3, 0.5]),
        ):
            probs = type_probabilities(type_counts(source.alphabet_size, n), source)
            mass = math.fsum(
                p for p, s in zip(probs.tolist(),
                                  enumerate_types(source.alphabet_size, n))
                if is_typical(s, source.probs.tolist(), typical_epsilon(n)))
            floor = 1.0 - 2.0 * source.alphabet_size / n**2
            assert mass >= floor, (n, source)


def test_criterion_10_generalization_within_information_budget():
    for name, config in reference_configs().items():
        mi = run_verification(config).exact_mi
        gen = exact_expected_gen_error(config)
        sigma = sigma_sub_gaussian(config.loss_table)
        budget = math.sqrt(2.0 * sigma * sigma * mi / config.n)
        assert abs(gen) <= budget + 1e-9, name


def test_criterion_11_every_cover_verifies_exhaustively():
    for m in (2, 3):
        for n in (6, 10, 14):
            for t in range(1, n + 2):
                full = build_full_grid_cover(m, n, t)
                assert verify_cover(full).verified, ("full", m, n, t)
                simplex = build_simplex_grid_cover(m, n, t)
                assert verify_cover(simplex).verified, ("simplex", m, n, t)
                assert len(simplex.centers) <= simplex_hypercube_count(m - 1, t)
    for n in (16, 25, 36):
        t_max = math.floor(2 * math.sqrt(n * math.log(n)))
        for source in (SourceDistribution.uniform(2),
                       SourceDistribution([0.3, 0.7]),
                       SourceDistribution([0.2, 0.3, 0.5])):
            for t in (1, 2, 4, min(8, t_max)):
                cover = build_typical_cover(source, n, t)
                assert verify_cover(cover).verified, \
                    ("typical", n, t, source)


def test_criterion_12_grid_vs_simplex_gap_constant():
    eps = 1.0
    n = 10**4
    for m in (3, 5, 8):
        grid = kl_bound_cover_dp(eps, m, n).value
        refined = kl_bound_refined(PrivacyParams.eps_dp(eps), m, n).value
        k = m - 1
        constant = k * math.log(k / math.e) + 0.5 * math.log(2 * math.pi * k)
        assert abs((grid - refined) - constant) <= 0.01 * abs(constant), m


def test_criterion_13_monte_carlo_consistency():
    for name, config in reference_configs().items():
        serial = mc_expected_gen_error(config, workers=1)
        parallel = mc_expected_gen_error(config, workers=4)
        assert serial.estimate == parallel.estimate, name
        assert serial.standard_error == parallel.standard_error, name
        assert serial.samples == 100_000
        exact = exact_expected_gen_error(config)
        assert abs(serial.estimate - exact) <= 4.0 * serial.standard_error, name
