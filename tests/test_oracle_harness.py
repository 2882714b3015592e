"""Exact oracles, Monte-Carlo estimation, and end-to-end verification."""

from __future__ import annotations

import functools
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

import genbound.covering
import genbound.oracle_harness
import genbound.privacy_mechanisms
import genbound.types_core
from genbound.bounds_catalog import (
    BoundId,
    asymptotic_report,
    kl_bound_refined,
    kl_bound_simple,
    kl_candidates,
)
from genbound.covering import (
    CoverKind,
    build_full_grid_cover,
    build_simplex_grid_cover,
    verify_cover,
)
from genbound.errors import InputError, ResourceLimitError
from genbound.oracle_harness import (
    ExperimentConfig,
    default_loss_table,
    exact_expected_gen_error,
    load_experiment_config,
    mc_expected_gen_error,
    random_mechanism,
    run_verification,
)
from genbound.oracle_harness import _build_cover, _cover_mixture, _KernelSums
from genbound.privacy_mechanisms import (
    Mechanism,
    PrivacyKind,
    PrivacyParams,
    exponential_mechanism_over_types,
    identity_mechanism,
    save_mechanism_csv,
    uniform_mechanism,
    verify_kl_stability,
)
from genbound.types_core import (
    SourceDistribution,
    num_types,
    sigma_sub_gaussian,
    type_counts,
    type_log_probabilities,
    type_probabilities,
)
from divergence_reference import (
    MixtureSpec,
    kl_divergence,
    mixture_distribution,
)
from config_reference import reference_configs
from lattice_reference import enumerate_types, type_index, type_probability


def small_identity_config(alphabet_size=2, n=4, source=None, seed=5,
                          mc_samples=500):
    src = source or SourceDistribution.uniform(alphabet_size)
    return ExperimentConfig(
        source=src,
        mechanism=identity_mechanism(alphabet_size, n),
        loss_table=default_loss_table(alphabet_size, n),
        seed=seed, mc_samples=mc_samples,
    )


def test_experiment_config_reads_alphabet_and_length_from_the_mechanism():
    mech = exponential_mechanism_over_types(3, 5, 0.5)
    config = ExperimentConfig(
        SourceDistribution.uniform(3), mech, default_loss_table(3, 5),
        seed=1, mc_samples=100,
    )
    assert (config.alphabet_size, config.n) == (3, 5)
    with pytest.raises(AttributeError):
        config.n = 6


def test_experiment_config_rejects_other_alphabets_and_table_shapes():
    mech = exponential_mechanism_over_types(3, 5, 0.5)
    with pytest.raises(InputError, match="source over 2 symbols"):
        ExperimentConfig(SourceDistribution.uniform(2), mech,
                         default_loss_table(3, 5), seed=0, mc_samples=100)
    for table in (default_loss_table(3, 4), np.zeros((num_types(3, 5), 2))):
        with pytest.raises(InputError, match="loss table shape"):
            ExperimentConfig(SourceDistribution.uniform(3), mech, table,
                             seed=0, mc_samples=100)


def test_type_distribution_sums_to_one():
    probs = type_probabilities(type_counts(3, 5), SourceDistribution([0.2, 0.3, 0.5]))
    assert math.isclose(math.fsum(probs.tolist()), 1.0, abs_tol=1e-12)
    types = enumerate_types(3, 5)
    src = SourceDistribution([0.2, 0.3, 0.5])
    for i in (0, 7, len(types) - 1):
        assert math.isclose(probs[i], type_probability(types[i], src),
                            rel_tol=1e-12)


def test_identity_mechanism_mi_is_type_entropy():
    config = small_identity_config()
    mi = run_verification(config).exact_mi
    entropy = -math.fsum(
        math.comb(4, c) / 16 * math.log(math.comb(4, c) / 16) for c in range(5)
    )
    assert math.isclose(mi, entropy, rel_tol=1e-12)
    assert math.isclose(mi, 1.4075317407193153, rel_tol=1e-12)


def test_input_independent_mechanism_has_zero_mi():
    config = ExperimentConfig(
        source=SourceDistribution.uniform(2),
        mechanism=uniform_mechanism(2, 6),
        loss_table=default_loss_table(2, 6), seed=0, mc_samples=100,
    )
    assert run_verification(config).exact_mi == 0.0


def test_input_independent_kernel_reads_exactly_zero():
    # p_types @ kernel misses the constant row by ~1e-18 here, which the
    # KL sum turns into a spurious 8.9e-16 nats and the bound into 1.7e-9
    config = ExperimentConfig(
        source=SourceDistribution([0.37, 0.63]),
        mechanism=Mechanism(uniform_mechanism(2, 150).kernel, 2, 150,
                            PrivacyParams.mu_gdp(0.2)),
        loss_table=default_loss_table(2, 150), seed=0, mc_samples=100,
    )
    assert exact_expected_gen_error(config) == 0.0
    report = run_verification(config)
    assert report.exact_mi == 0.0 and report.exact_gen_error == 0.0
    assert report.bound_values[BoundId.GEN_SUB_GAUSSIAN] == 0.0
    assert report.all_pass


@functools.lru_cache(maxsize=None)
def decimal_exponential_kl_m2(n, probs, epsilon):
    """The expected KL of the two-symbol exponential mechanism's rows to
    the output marginal, I(S; W), and to the uniform mixture of every row
    (the t = n + 1 simplex cover's, which type_count is compared with),
    in 40-digit decimal arithmetic: P(s), the kernel and the mixtures
    never underflow, and log K_sw = -eps d(s, w) / 2 - log Z_s is exact in
    the kernel's form. Each is a direct sum over (s, w) cells."""
    with localcontext() as ctx:
        ctx.prec = 40
        p0, p1 = (Decimal(float(p)) for p in probs)
        half = Decimal(epsilon) / 2
        weights = [(-half * d).exp() for d in range(n + 1)]
        # count vector i is (i, n - i): lexicographic order
        types = [math.comb(n, i) * p0**i * p1**(n - i) for i in range(n + 1)]
        norms = [sum(weights[abs(i - j)] for j in range(n + 1)) for i in range(n + 1)]
        marginal = [sum(types[i] * weights[abs(i - j)] / norms[i]
                        for i in range(n + 1)) for j in range(n + 1)]
        mixture = [sum(weights[abs(i - j)] / norms[i] for i in range(n + 1)) / (n + 1)
                   for j in range(n + 1)]
        log_norms = [z.ln() for z in norms]

        def expected_kl(target):
            log_target = [q.ln() for q in target]
            return float(sum(
                types[i] * weights[abs(i - j)] / norms[i]
                * (-half * abs(i - j) - log_norms[i] - log_target[j])
                for i in range(n + 1) for j in range(n + 1)))

        return expected_kl(marginal), expected_kl(mixture)


def expected_kl_by_rows(kernel, p_types, target):
    """sum_s P(s) KL(K_s || target), one-row reference by row: the
    per-row route the chain rule's two sums are checked against."""
    return math.fsum(float(p) * kl_divergence(row, target)
                     for p, row in zip(p_types, kernel) if p > 0)


def underflow_config(n, source, epsilon):
    return ExperimentConfig(
        source=SourceDistribution(source),
        mechanism=exponential_mechanism_over_types(2, n, epsilon),
        loss_table=default_loss_table(2, n), seed=0, mc_samples=100,
    )


def test_mi_survives_an_underflowed_marginal():
    # at eps 30 on a skewed source the float marginal p_types @ kernel
    # reads 0.0 at one hypothesis and is subnormal at five more, while
    # rows of positive probability put mass there
    config = underflow_config(250, [0.05, 0.95], 30.0)
    p_types = type_probabilities(type_counts(2, 250), config.source)
    assert (p_types @ config.mechanism.kernel == 0.0).any()
    report = run_verification(config)
    reference = decimal_exponential_kl_m2(250, (0.05, 0.95), 30.0)[0]
    assert abs(report.exact_mi - reference) <= 1e-12 * reference
    assert report.all_pass, report.violations


def test_mi_of_an_underflowed_marginal_stays_within_its_cap():
    report = run_verification(underflow_config(800, [0.1, 0.9], 4.0))
    assert 0.0 < report.exact_mi <= math.log(801)
    assert report.all_pass


@pytest.mark.parametrize("n, probs, epsilon", [
    (40, (0.5, 0.5), 0.05), (300, (0.3, 0.7), 0.01),
    (250, (0.05, 0.95), 30.0), (800, (0.1, 0.9), 4.0),
], ids=["n40-eps0.05", "n300-eps0.01", "underflow-n250-eps30",
        "underflow-n800-eps4"])
def test_chain_rule_matches_the_decimal_reference(n, probs, epsilon):
    # low MI (the chain rule's two sums nearly cancel) and an underflowed
    # marginal (the reached hypotheses where it reads 0 weigh nothing). The
    # float kernel alone puts the cover's value up to 1.3e-13 off at n800,
    # so that is held to the per-row route's error, not to a fixed bar
    config = underflow_config(n, list(probs), epsilon)
    mi, type_count = decimal_exponential_kl_m2(n, probs, epsilon)
    report = run_verification(config)
    assert abs(report.exact_mi - mi) <= 5e-14
    cover = _build_cover(*kl_bound_simple(2, n).cover, 2, n)
    p_types = type_probabilities(type_counts(2, n), config.source)
    per_row = expected_kl_by_rows(config.mechanism.kernel, p_types,
                                  _cover_mixture(config, cover))
    assert (abs(report.comparison_values[BoundId.TYPE_COUNT] - type_count)
            <= abs(per_row - type_count) + 1e-15)


def test_mi_keeps_the_plain_marginal_where_nothing_underflows(make_config):
    # the chain rule reads the float marginal p_types @ kernel as it is;
    # it agrees with the per-row route, the P-weighted KL of each row to
    # that marginal, to rounding
    for m, n, epsilon, probs in ((3, 10, 0.8, [0.2, 0.3, 0.5]),
                                 (2, 60, 0.05, [0.5, 0.5]),
                                 (2, 40, 2.0, [0.1, 0.9]),
                                 (4, 8, 0.35, [0.05, 0.1, 0.1, 0.75])):
        config = make_config(alphabet_size=m, n=n, epsilon=epsilon,
                             source=SourceDistribution(probs))
        p_types = type_probabilities(type_counts(m, n), config.source)
        kernel = config.mechanism.kernel
        per_row = expected_kl_by_rows(kernel, p_types, p_types @ kernel)
        assert abs(run_verification(config).exact_mi - per_row) <= 1e-14, (m, n)


def test_only_rows_of_positive_probability_reach_a_target_zero():
    # row 2 puts mass on hypothesis 2, where the target is 0: its KL is
    # +inf, which counts only if the row has positive probability
    kernel = np.array([[0.5, 0.5, 0.0], [0.25, 0.75, 0.0], [0.0, 0.5, 0.5]])
    target = np.array([0.375, 0.625, 0.0])
    per_row = [kl_divergence(row, target) for row in kernel]
    assert per_row[2] == math.inf
    sums = _KernelSums(kernel, np.array([0.5, 0.5, 0.0]))
    assert math.isclose(sums.expected_kl(target),
                        0.5 * per_row[0] + 0.5 * per_row[1], rel_tol=1e-14)
    sums = _KernelSums(kernel, np.array([0.5, 0.25, 0.25]))
    assert sums.expected_kl(target) == math.inf
    assert math.isfinite(sums.mi)


def test_one_entropy_pass_and_one_identical_rows_scan_per_run(make_config,
                                                              monkeypatch):
    # every cover's comparison and the MI read the same reductions
    config = make_config(alphabet_size=3, n=10, epsilon=0.8)
    calls, builds = [], []
    for name in ("_neg_conditional_entropy", "_rows_identical"):
        def counting(*args, _name=name, _real=getattr(genbound.oracle_harness, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(genbound.oracle_harness, name, counting)
    for name in ("build_full_grid_cover", "build_simplex_grid_cover"):
        def counting(*args, _real=getattr(genbound.covering, name)):
            builds.append(args)
            return _real(*args)
        monkeypatch.setattr(genbound.covering, name, counting)
    run_verification(config)
    assert len(builds) >= 3
    assert sorted(calls) == ["_neg_conditional_entropy", "_rows_identical"]


def test_identical_rows_rule_reads_every_block(block_rows):
    # rows identical but for the last: the rule must not stop at block 0
    total = num_types(2, 9)
    kernel = np.full((total, total), 1.0 / total)
    kernel[-1] = np.eye(total)[0]
    config = ExperimentConfig(
        source=SourceDistribution.uniform(2),
        mechanism=Mechanism(kernel, 2, 9, PrivacyParams.none()),
        loss_table=default_loss_table(2, 9), seed=0, mc_samples=100,
    )
    block_rows(3)
    assert run_verification(config).exact_mi > 0.0
    assert exact_expected_gen_error(config) != 0.0


def test_run_verification_holds_no_lattice_sized_array(block_rows, make_config):
    # T = 861: 16-row blocks are 2% of the kernel. Neither the per-type
    # KL, the gen-error tables nor a t = n + 1 cover's mixture (every
    # count vector a center) may copy the kernel
    config = make_config(alphabet_size=3, n=40, epsilon=0.5)
    block_rows(16)
    tracemalloc.start()
    try:
        report = run_verification(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert BoundId.TYPE_COUNT in report.bound_values
    assert peak < 0.1 * config.mechanism.kernel.nbytes


def emp_table(config):
    """The hypotheses x T empirical-risk table: loss row dotted with each
    count vector's frequencies, all at once."""
    freqs = type_counts(config.alphabet_size, config.n) / config.n
    return config.loss_table @ freqs.T


def emp_gen_error(config):
    """Exact expected generalization error through the emp table."""
    kernel = config.mechanism.kernel
    p_types = type_probabilities(type_counts(config.alphabet_size, config.n),
                                 config.source)
    pop = config.loss_table @ config.source.probs
    return float(p_types @ (kernel @ pop - np.einsum("tw,wt->t", kernel,
                                                      emp_table(config))))


def emp_mc(config):
    """Monte Carlo through the emp table, drawing what mc_expected_gen_error
    documents: chunk j's count vectors, then its uniforms, from Philox
    keyed (seed, j), and each hypothesis by a per-type CDF search."""
    from genbound.types_core import type_rank

    pop = config.loss_table @ config.source.probs
    emp = emp_table(config)
    kernel_cdf = np.cumsum(config.mechanism.kernel, axis=1)
    chunk, vals = 4096, []
    for j, lo in enumerate(range(0, config.mc_samples, chunk)):
        size = min(chunk, config.mc_samples - lo)
        gen = np.random.Generator(np.random.Philox(key=[config.seed, j]))
        t_idx = type_rank(gen.multinomial(config.n, config.source.probs, size=size))
        u = gen.random(size)
        w = np.minimum(searchsorted_per_type(kernel_cdf, t_idx, u),
                       kernel_cdf.shape[1] - 1)
        vals.append(pop[w] - emp[w, t_idx])
    vals = np.concatenate(vals)
    return vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)


def random_loss_configs():
    rng = np.random.default_rng(23)
    configs = []
    for m, n, width in ((2, 9, 4), (3, 6, 11), (4, 5, 7)):
        table = rng.uniform(-1.0, 2.0, size=(width, m))
        configs.append(ExperimentConfig(
            source=SourceDistribution(rng.dirichlet(np.ones(m))),
            mechanism=random_mechanism(m, n, width, seed=int(rng.integers(99))),
            loss_table=table, seed=int(rng.integers(2**32)), mc_samples=9000,
        ))
    return configs


@pytest.mark.parametrize("config", [
    *reference_configs().values(), *random_loss_configs(),
], ids=[*reference_configs(), "random-m2", "random-m3", "random-m4"])
def test_risk_without_the_emp_table_matches_it(config):
    exact = exact_expected_gen_error(config)
    assert math.isclose(exact, emp_gen_error(config), rel_tol=1e-12, abs_tol=1e-15)
    result = mc_expected_gen_error(config)
    estimate, standard_error = emp_mc(config)
    assert math.isclose(result.estimate, estimate, rel_tol=1e-12, abs_tol=1e-15)
    assert math.isclose(result.standard_error, standard_error,
                        rel_tol=1e-9, abs_tol=1e-15)


def test_experiment_config_adopts_its_loss_table():
    table = default_loss_table(2, 4)
    config = ExperimentConfig(SourceDistribution.uniform(2),
                              exponential_mechanism_over_types(2, 4, 0.5),
                              table, seed=0, mc_samples=100)
    assert config.loss_table is table and not table.flags.writeable


def test_run_verification_builds_one_type_distribution(make_config, monkeypatch):
    # one type distribution per run, also where the marginal underflows
    # (m2 n250 eps 30): one call of the one log-probability routine, which
    # only types_core binds
    calls = []

    def counting(counts, source):
        calls.append(len(counts))
        return type_log_probabilities(counts, source)

    assert not hasattr(genbound.oracle_harness, "type_log_probabilities")
    monkeypatch.setattr(genbound.types_core, "type_log_probabilities", counting)
    for config in (make_config(alphabet_size=3, n=6, epsilon=0.5),
                   underflow_config(250, [0.05, 0.95], 30.0)):
        calls.clear()
        run_verification(config)
        assert calls == [num_types(config.alphabet_size, config.n)]


def test_run_verification_builds_each_cover_once(monkeypatch):
    # with no privacy declared, type_count and simplex_any both apply and
    # both take the t = n + 1 simplex grid: one build serves the two
    config = small_identity_config(alphabet_size=3, n=4)
    builds = []
    build = genbound.covering.build_simplex_grid_cover

    def counting(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(genbound.covering, "build_simplex_grid_cover", counting)
    report = run_verification(config)
    assert {BoundId.TYPE_COUNT, BoundId.SIMPLEX_ANY} <= set(report.per_bound_slack)
    assert builds == [(3, 4, 5)]
    assert (report.bound_values[BoundId.TYPE_COUNT]
            - report.per_bound_slack[BoundId.TYPE_COUNT]
            == report.bound_values[BoundId.SIMPLEX_ANY]
            - report.per_bound_slack[BoundId.SIMPLEX_ANY])


def test_mi_never_exceeds_output_entropy_cap(make_config):
    config = make_config(alphabet_size=2, n=10, epsilon=0.8)
    mi = run_verification(config).exact_mi
    assert 0.0 <= mi <= math.log(config.mechanism.hypothesis_count)


def test_mi_equals_expected_kl_to_exact_marginal(make_config):
    # the mixture of kernel rows weighted by type probabilities is the
    # output marginal; expected KL to it must equal the information
    config = make_config(alphabet_size=2, n=7, epsilon=0.6)
    p_types = type_probabilities(type_counts(2, 7), config.source)
    mix = MixtureSpec(list(config.mechanism.kernel), p_types)
    marginal = mixture_distribution(mix)
    expected_kl = math.fsum(
        float(p) * kl_divergence(row, marginal)
        for p, row in zip(p_types, config.mechanism.kernel) if p > 0
    )
    mi = run_verification(config).exact_mi
    assert math.isclose(expected_kl, mi, abs_tol=1e-10)


def test_exactly_the_count_based_bounds_have_a_cover():
    expected = {
        BoundId.TYPE_COUNT: CoverKind.SIMPLEX_GRID,
        BoundId.DP_GRID: CoverKind.FULL_GRID,
        BoundId.GDP_GRID: CoverKind.FULL_GRID,
        BoundId.DP_SIMPLEX_LOW: CoverKind.SIMPLEX_GRID,
        BoundId.DP_SIMPLEX_MID: CoverKind.SIMPLEX_GRID,
        BoundId.GDP_SIMPLEX_LOW: CoverKind.SIMPLEX_GRID,
        BoundId.GDP_SIMPLEX_MID: CoverKind.SIMPLEX_GRID,
        BoundId.SIMPLEX_ANY: CoverKind.SIMPLEX_GRID,
    }
    seen = set()
    # at m = 3, n = 6 these reach every branch: eps and mu below and
    # above 1/n (1/(n sqrt 2) for mu), and no privacy
    for privacy in (PrivacyParams.eps_dp(0.1), PrivacyParams.eps_dp(0.5),
                    PrivacyParams.mu_gdp(0.1), PrivacyParams.mu_gdp(0.3),
                    PrivacyParams.none()):
        gamma = None if privacy.kind is PrivacyKind.NONE else privacy.value
        for report in (*kl_candidates(privacy, 3, 6),
                       *asymptotic_report(0.5, gamma, 3, 6)):
            seen.add(report.bound_id)
            if report.bound_id in expected:
                cover = _build_cover(*report.cover, 3, 6)
                assert cover.kind is expected[report.bound_id]
                assert report.cover == (cover.kind.value, cover.t)
            else:
                assert report.cover is None, report.bound_id
    assert set(expected) < seen


@pytest.mark.parametrize("name", sorted(reference_configs()))
def test_verification_comparisons_match_scalar_expectation(name):
    # count-based slack = bound - E_S[KL(kernel row || cover mixture)],
    # here recomputed one kl_divergence call per count vector
    config = reference_configs()[name]
    report = run_verification(config)
    m, n = config.alphabet_size, config.n
    p_types = type_probabilities(type_counts(m, n), config.source)
    kernel = config.mechanism.kernel
    for bid, cover in report_covers(config):
        centers = [kernel[type_index(c)] for c in cover.centers.tolist()]
        mixture = np.full(len(centers), 1.0 / len(centers)) @ np.array(centers)
        expected = math.fsum(
            float(p) * kl_divergence(kernel[i], mixture)
            for i, p in enumerate(p_types) if p > 0
        )
        comparison = report.bound_values[bid] - report.per_bound_slack[bid]
        assert comparison == expected or abs(comparison - expected) <= 1e-12


def report_covers(config):
    """Each applicable count-based bound for the config's privacy, with
    the cover its report names, built as run_verification builds it."""
    m, n = config.alphabet_size, config.n
    return [(r.bound_id, _build_cover(*r.cover, m, n))
            for r in kl_candidates(config.mechanism.privacy, m, n)
            if r.applicable and r.cover is not None]


def certify_seed1_configs():
    """The six verify-mi configs the benchmark's certify workload writes at
    seed 1 (perfbench/workloads.py), built here from their values."""
    configs = {}
    for m, n, source, key, values in (
        (3, 16, [0.208257, 0.236001, 0.555742], "epsilon", (0.414689, 0.684121)),
        (4, 8, [0.055419, 0.092407, 0.084073, 0.768101], "epsilon",
         (0.351649, 0.702822)),
        (2, 150, [0.891447, 0.10855300000000001], "mu", (0.195052, 0.388691)),
    ):
        for value in values:
            mech = (exponential_mechanism_over_types(m, n, value) if key == "epsilon"
                    else Mechanism(uniform_mechanism(m, n).kernel, m, n,
                                   PrivacyParams.mu_gdp(value)))
            configs[f"certify-m{m}-n{n}-{key}{value}"] = ExperimentConfig(
                SourceDistribution(source), mech, default_loss_table(m, n),
                seed=1, mc_samples=10000)
    return configs


@pytest.mark.parametrize("config", [
    *certify_seed1_configs().values(), *reference_configs().values(),
], ids=[*certify_seed1_configs(), *reference_configs()])
def test_per_dataset_exact_column_sums_to_the_comparison(config):
    # the per-dataset KL of each row to the one cover mixture, one-row
    # reference by row, P-weighted, is to rounding the chain-rule value
    # run_verification compares each count-based bound against, which
    # reads exactly 0.0 for a kernel whose rows are all the same
    report = run_verification(config)
    m, n = config.alphabet_size, config.n
    p_types = type_probabilities(type_counts(m, n), config.source)
    kernel = config.mechanism.kernel
    identical = (kernel == kernel[0]).all()
    checked = 0
    for bid, cover in report_covers(config):
        total = expected_kl_by_rows(kernel, p_types, _cover_mixture(config, cover))
        if identical:
            assert report.comparison_values[bid] == 0.0
        assert abs(total - report.comparison_values[bid]) <= 1e-14, bid
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("call", [
    lambda config, cover: exact_expected_gen_error(config),
    lambda config, cover: mc_expected_gen_error(config),
    lambda config, cover: run_verification(config),
    lambda config, cover: verify_cover(cover),
    lambda config, cover: verify_kl_stability(config.mechanism),
    lambda config, cover: exponential_mechanism_over_types(2, 4, 0.5),
    lambda config, cover: identity_mechanism(2, 4),
    lambda config, cover: uniform_mechanism(2, 4),
    lambda config, cover: random_mechanism(2, 4, 3, seed=1),
    lambda config, cover: default_loss_table(2, 4),
], ids=[
    "exact_expected_gen_error", "mc_expected_gen_error", "run_verification",
    "verify_cover", "verify_kl_stability", "exponential_mechanism",
    "identity_mechanism", "uniform_mechanism", "random_mechanism",
    "default_loss_table",
])
def test_type_cap_reaches_every_enumerating_entry_point(
    make_config, monkeypatch, call
):
    # T = 5 count vectors: the cap admits the lattice at 5, refuses it at 4
    config = make_config(alphabet_size=2, n=4)
    cover = build_full_grid_cover(2, 4, 2)
    monkeypatch.setenv("GENBOUND_TYPE_CAP", "5")
    call(config, cover)
    monkeypatch.setenv("GENBOUND_TYPE_CAP", "4")
    with pytest.raises(ResourceLimitError, match="raise GENBOUND_TYPE_CAP to override"):
        call(config, cover)


def test_exact_gen_error_identity_hand_case():
    # identity mechanism, frequency loss 1 - freq_w[z]: the exact
    # expected generalization error is E||freq||^2 - ||p||^2
    config = small_identity_config(alphabet_size=2, n=1)
    assert math.isclose(exact_expected_gen_error(config), 0.5, rel_tol=1e-14)

    config4 = small_identity_config(alphabet_size=2, n=4)
    freqs = np.array([[c / 4, 1 - c / 4] for c in range(5)])
    weights = np.array([math.comb(4, c) / 16 for c in range(5)])
    expected = float(weights @ (freqs**2).sum(axis=1)) - 0.5
    assert math.isclose(exact_expected_gen_error(config4), expected, rel_tol=1e-12)


def test_mc_matches_exact_for_deterministic_case():
    config = small_identity_config(alphabet_size=2, n=1, mc_samples=500)
    result = mc_expected_gen_error(config)
    assert result.estimate == 0.5
    assert result.standard_error == 0.0
    assert result.samples == 500


def test_mc_deterministic_across_worker_counts(make_config):
    config = make_config(alphabet_size=2, n=8, epsilon=0.5, mc_samples=4000)
    one = mc_expected_gen_error(config, workers=1)
    three = mc_expected_gen_error(config, workers=3)
    assert one.estimate == three.estimate
    assert one.standard_error == three.standard_error


@pytest.mark.parametrize("samples", [100, 4097, 32769, 65536])
def test_mc_partial_chunks(make_config, samples):
    # 100 is less than one chunk; 4097 is one full chunk plus one sample;
    # 32769 is one round of _MC_ROUND chunks plus one sample; 65536 is two
    # full rounds
    config = make_config(alphabet_size=3, n=6, epsilon=0.5, mc_samples=samples)
    one = mc_expected_gen_error(config, workers=1)
    assert mc_expected_gen_error(config, workers=1) == one
    assert mc_expected_gen_error(config, workers=4) == one
    assert one.samples == samples
    exact = exact_expected_gen_error(config)
    assert abs(one.estimate - exact) <= 4 * one.standard_error


def searchsorted_per_type(kernel_cdf, t_idx, u):
    """Reference inverse-CDF lookup: sort the samples by drawn type and
    search each type's CDF row once."""
    w = np.empty(len(u), dtype=np.int64)
    order = np.argsort(t_idx, kind="stable")
    types, starts = np.unique(t_idx[order], return_index=True)
    for t, drawn in zip(types.tolist(), np.split(order, starts[1:])):
        w[drawn] = np.searchsorted(kernel_cdf[t], u[drawn], side="right")
    return w


def zero_entry_config():
    """A random 28 x 9 kernel at m3 n6 whose rows have leading, trailing
    and alternating zeros (flat CDF steps), with 40,000 samples: more than
    one round of chunks."""
    rng = np.random.default_rng(29)
    width = 9
    kernel = rng.dirichlet(np.ones(width), size=28)
    kernel[0::3, :width // 2] = 0.0
    kernel[1::3, width // 2:] = 0.0
    kernel[2::3, ::2] = 0.0
    kernel /= kernel.sum(axis=1, keepdims=True)
    return ExperimentConfig(
        source=SourceDistribution([0.2, 0.3, 0.5]),
        mechanism=Mechanism(kernel, 3, 6, PrivacyParams.none()),
        loss_table=rng.uniform(-1.0, 2.0, size=(width, 3)),
        seed=11, mc_samples=40_000)


def narrow_kernel_config():
    """random_mechanism(5, 30, 20): 46,376 count vectors and 20
    hypotheses, so a round draws thousands of distinct rows."""
    rng = np.random.default_rng(31)
    return ExperimentConfig(
        SourceDistribution([0.1, 0.15, 0.2, 0.25, 0.3]),
        random_mechanism(5, 30, 20, seed=5),
        rng.uniform(-1.0, 2.0, size=(20, 5)), seed=13, mc_samples=200_000)


@pytest.mark.parametrize("build, estimate, standard_error", [
    (zero_entry_config, "-0x1.fa318c99870bcp-6", "0x1.b80dbf4bcfd98p-10"),
    (lambda: ExperimentConfig(
        SourceDistribution.uniform(3), exponential_mechanism_over_types(3, 6, 0.5),
        default_loss_table(3, 6), seed=7, mc_samples=100_001),
     "0x1.a9a817e40cb42p-6", "0x1.7d2fecc13bdecp-12"),
    (narrow_kernel_config, "-0x1.27947639c407dp-11", "0x1.4943ddeca21eap-12"),
], ids=["zero-entries", "m3-n6-100001", "narrow-kernel"])
def test_mc_estimates_are_pinned(build, estimate, standard_error):
    # the Philox streams and the chunk order fix every bit of both, so a
    # change to how hypotheses are searched must leave these values
    result = mc_expected_gen_error(build())
    assert (result.estimate.hex(), result.standard_error.hex()) == (
        estimate, standard_error)


def test_mc_search_at_the_ends_of_each_cdf(monkeypatch):
    # rows that sum to 1 - 1e-11, within the kernel tolerance, so a uniform
    # just below 1 lies past every row's last CDF entry and takes the last
    # hypothesis, even where that hypothesis has probability 0
    base = zero_entry_config()
    config = ExperimentConfig(
        base.source,
        Mechanism(base.mechanism.kernel * (1 - 1e-11), 3, 6, PrivacyParams.none()),
        base.loss_table, seed=base.seed, mc_samples=base.mc_samples)

    class EdgeGenerator(np.random.Generator):
        def random(self, size=None):
            u = super().random(size)
            u[0::5] = 0.0
            u[1::5] = np.nextafter(1.0, 0.0)
            return u

    monkeypatch.setattr(np.random, "Generator", EdgeGenerator)
    result = mc_expected_gen_error(config)
    estimate, standard_error = emp_mc(config)
    assert math.isclose(result.estimate, estimate, rel_tol=1e-12)
    assert math.isclose(result.standard_error, standard_error, rel_tol=1e-9)


@pytest.mark.parametrize("kernel", [
    zero_entry_config().mechanism.kernel,
    exponential_mechanism_over_types(3, 6, 0.5).kernel,
    np.ones((28, 1)),
    np.tile([0.0, 1.0], (28, 1)),
], ids=["zero-entries", "exponential", "one-hypothesis", "two-hypotheses"])
def test_mc_search_over_row_blocks_matches_searchsorted(block_rows, kernel):
    # 5-row blocks: the 28 rows drawn span six blocks, and each sample
    # still takes np.searchsorted's index on its own row's CDF
    rng = np.random.default_rng(37)
    ranks = rng.integers(0, 28, size=3000).astype(np.uint8)
    u = rng.random(3000)
    u[:40] = 0.0
    u[40:80] = np.nextafter(1.0, 0.0)
    expected = np.minimum(searchsorted_per_type(
        np.cumsum(kernel, axis=1), ranks, u), kernel.shape[1] - 1)
    spans = []
    real_row_blocks = genbound.oracle_harness.row_blocks

    def recording(total, width):
        blocks = list(real_row_blocks(total, width))
        spans.append(len(blocks))
        return iter(blocks)

    block_rows(5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(genbound.oracle_harness, "row_blocks", recording)
        drawn = genbound.oracle_harness._draw_hypotheses(kernel, ranks, u)
    assert spans == [6]
    assert drawn.tolist() == expected.tolist()


def test_mc_holds_no_kernel_sized_array():
    # the kernel is 30.5 MiB; a T x hypotheses CDF would be as much again
    config = ExperimentConfig(
        SourceDistribution([0.3, 0.7]), exponential_mechanism_over_types(2, 1999, 1.0),
        default_loss_table(2, 1999), seed=3, mc_samples=100_000)
    tracemalloc.start()
    try:
        mc_expected_gen_error(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_mc_samples_are_held_to_the_cap(make_config, monkeypatch):
    monkeypatch.setenv("GENBOUND_TYPE_CAP", "1000")
    assert make_config(mc_samples=1000).mc_samples == 1000
    with pytest.raises(ResourceLimitError, match=(
            r"^mc_samples=1001 exceeds the enumeration cap of 1000; "
            "raise GENBOUND_TYPE_CAP to override$")):
        make_config(mc_samples=1001)
    monkeypatch.delenv("GENBOUND_TYPE_CAP")
    with pytest.raises(ResourceLimitError, match="cap of 10000000;"):
        make_config(mc_samples=10**20)


def test_mc_sample_floor(make_config):
    config = make_config(mc_samples=99)
    with pytest.raises(InputError):
        mc_expected_gen_error(config)
    with pytest.raises(InputError):
        mc_expected_gen_error(make_config(mc_samples=1000), workers=0)


def test_mc_within_four_standard_errors(make_config):
    config = make_config(alphabet_size=2, n=8, epsilon=0.5, mc_samples=20000)
    result = mc_expected_gen_error(config)
    exact = exact_expected_gen_error(config)
    assert abs(result.estimate - exact) <= 4 * result.standard_error


def test_default_loss_table_is_one_minus_frequency():
    table = default_loss_table(2, 4)
    assert table.shape == (num_types(2, 4), 2)
    for i, s in enumerate(enumerate_types(2, 4)):
        np.testing.assert_allclose(table[i], 1.0 - np.array(s) / 4)
    assert sigma_sub_gaussian(table) == 0.5


def test_random_mechanism_rows_and_determinism():
    a = random_mechanism(2, 5, hypothesis_count=4, seed=11)
    b = random_mechanism(2, 5, hypothesis_count=4, seed=11)
    c = random_mechanism(2, 5, hypothesis_count=4, seed=12)
    np.testing.assert_array_equal(a.kernel, b.kernel)
    assert not np.array_equal(a.kernel, c.kernel)
    np.testing.assert_allclose(a.kernel.sum(axis=1), 1.0, atol=1e-12)
    # one Dirichlet draw per count vector from the seed, nothing else
    expected = np.random.default_rng(11).dirichlet(np.ones(4), size=num_types(2, 5))
    np.testing.assert_array_equal(a.kernel, expected)


def test_cover_for_bound_routes():
    # the covers the catalog's reports name at m = 2, n = 6
    none = {r.bound_id: r.cover for r in kl_candidates(PrivacyParams.none(), 2, 6)}
    assert none == {BoundId.TYPE_COUNT: ("simplex_grid", 7),
                    BoundId.SIMPLEX_ANY: ("simplex_grid", 7)}
    all_types = _build_cover(*none[BoundId.TYPE_COUNT], 2, 6)
    assert len(all_types.centers) == num_types(2, 6)

    dp = {r.bound_id: r.cover for r in kl_candidates(PrivacyParams.eps_dp(0.5), 2, 6)}
    assert dp[BoundId.DP_GRID] == ("full_grid", 3)  # round(eps * n)
    assert dp[BoundId.DP_TYPICAL_LOW] is None

    low = kl_bound_refined(PrivacyParams.eps_dp(0.1), 2, 6)  # eps <= 1/n
    assert low.bound_id is BoundId.DP_SIMPLEX_LOW
    assert low.cover == ("simplex_grid", 1)
    assert len(_build_cover(*low.cover, 2, 6).centers) == 1


def reference_cover_for_bound(bound_id, privacy, alphabet_size, n):
    """Reference routing: one branch per count-based bound. A grid rule
    reads its parameter from a declaration of its own kind only."""

    def rule_t(regime, kind):
        if privacy.kind is not kind:
            raise InputError(f"{regime} needs a {kind.value} declaration")
        if regime == "dp_full":
            raw = privacy.value * n
        else:
            raw = math.sqrt(alphabet_size - 1) * privacy.value * n
        # clamped to [1, n] before rounding, so raw = inf needs no int
        rounded = n + 1 if raw >= n + 1 else int(round(raw))
        return min(max(rounded, 1), n)

    if bound_id in (BoundId.TYPE_COUNT, BoundId.SIMPLEX_ANY):
        return build_simplex_grid_cover(alphabet_size, n, n + 1)
    if bound_id is BoundId.DP_GRID:
        t = rule_t("dp_full", PrivacyKind.EPS_DP)
        return build_full_grid_cover(alphabet_size, n, t)
    if bound_id is BoundId.GDP_GRID:
        t = rule_t("gdp_full", PrivacyKind.MU_GDP)
        return build_full_grid_cover(alphabet_size, n, t)
    if bound_id in (BoundId.DP_SIMPLEX_LOW, BoundId.GDP_SIMPLEX_LOW):
        return build_simplex_grid_cover(alphabet_size, n, 1)
    if bound_id is BoundId.DP_SIMPLEX_MID:
        t = rule_t("dp_full", PrivacyKind.EPS_DP)
        return build_simplex_grid_cover(alphabet_size, n, t)
    if bound_id is BoundId.GDP_SIMPLEX_MID:
        t = rule_t("gdp_full", PrivacyKind.MU_GDP)
        return build_simplex_grid_cover(alphabet_size, n, t)
    raise InputError(f"no cover construction for bound {bound_id.value!r}")


def cover_outcome(route, *args):
    """The cover a routing returns, or the type of what it raises."""
    try:
        return route(*args)
    except InputError as exc:
        return type(exc)


@pytest.mark.parametrize("privacy", [
    PrivacyParams.eps_dp(0.5), PrivacyParams.eps_dp(0.001),
    PrivacyParams.eps_dp(1e308), PrivacyParams.mu_gdp(0.7),
    PrivacyParams.mu_gdp(1e300), PrivacyParams.none(),
], ids=["eps", "eps-0.001", "eps-1e308", "mu", "mu-1e300", "none"])
@pytest.mark.parametrize("m, n", [(2, 6), (3, 5), (4, 3)])
def test_cover_for_bound_matches_reference_routing(privacy, m, n):
    # every report names the cover the reference routes its bound to, and
    # the typical and asymptotic reports, which it routes nowhere, none;
    # an eps * n that overflows to inf takes the largest grid, t = n
    gamma = None if privacy.kind is PrivacyKind.NONE else privacy.value
    for report in (*kl_candidates(privacy, m, n),
                   *asymptotic_report(0.5, gamma, m, n)):
        expected = cover_outcome(reference_cover_for_bound, report.bound_id,
                                 privacy, m, n)
        if report.cover is None:
            assert expected is InputError, report.bound_id
        else:
            assert _build_cover(*report.cover, m, n) == expected, report.bound_id


def test_run_verification_passes_reference_suite():
    for name, config in reference_configs().items():
        report = run_verification(config)
        assert report.all_pass, (name, report.violations)
        assert BoundId.GEN_SUB_GAUSSIAN in report.bound_values
        assert report.sigma == sigma_sub_gaussian(config.loss_table)
        assert abs(report.exact_gen_error) <= \
            report.bound_values[BoundId.GEN_SUB_GAUSSIAN] + 1e-9


def test_run_verification_sigma_override(make_config):
    config = make_config(alphabet_size=2, n=6, epsilon=0.5)
    report = run_verification(config, sigma=2.0)
    assert report.sigma == 2.0
    baseline = run_verification(config)
    assert report.bound_values[BoundId.GEN_SUB_GAUSSIAN] == \
        4.0 * baseline.bound_values[BoundId.GEN_SUB_GAUSSIAN]


def test_report_carries_the_comparisons_it_judged():
    # slack is bound minus comparison, and the verdicts read the audit's
    # tolerance: one SLACK_TOL for verify-mi and stability
    assert (genbound.oracle_harness.SLACK_TOL
            is genbound.privacy_mechanisms.SLACK_TOL == 1e-9)
    mech = identity_mechanism(2, 5)
    liar = Mechanism(mech.kernel, 2, 5, PrivacyParams.eps_dp(0.5))
    configs = [*reference_configs().values(), ExperimentConfig(
        source=SourceDistribution.uniform(2), mechanism=liar,
        loss_table=default_loss_table(2, 5), seed=0, mc_samples=100,
    )]
    for config in configs:
        report = run_verification(config)
        assert list(report.comparison_values) == list(report.bound_values)
        for bid, value in report.bound_values.items():
            comparison = report.comparison_values[bid]
            assert report.per_bound_slack[bid] == value - comparison
            failed = not value - comparison >= -genbound.privacy_mechanisms.SLACK_TOL
            assert (bid.value in report.violations) == failed
        assert report.comparison_values[BoundId.GEN_SUB_GAUSSIAN] == abs(
            report.exact_gen_error)


def test_run_verification_catches_false_declaration():
    # an identity kernel declared as 0.5-DP cannot satisfy the certified
    # bounds: its per-dataset divergences are infinite
    mech = identity_mechanism(2, 5)
    liar = Mechanism(mech.kernel, 2, 5, PrivacyParams.eps_dp(0.5))
    config = ExperimentConfig(
        source=SourceDistribution.uniform(2),
        mechanism=liar, loss_table=default_loss_table(2, 5),
        seed=0, mc_samples=100,
    )
    report = run_verification(config)
    assert not report.all_pass
    assert "dp_grid" in report.violations


def test_reference_configs_are_stable():
    names = list(reference_configs())
    assert names == ["exp-eps0.5-uniform", "exp-eps1-skewed", "identity-3symbols"]


class TestConfigLoader:
    def good_text(self):
        return (
            "# demo experiment\n"
            "alphabet_size = 2\n"
            "n = 8\n"
            "source = 0.4, 0.6\n"
            "mechanism = exponential\n"
            "epsilon = 0.5\n"
            "seed = 99\n"
            "mc_samples = 5000\n"
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(self.good_text())
        config, sigma = load_experiment_config(str(path))
        assert sigma is None
        assert config.alphabet_size == 2 and config.n == 8
        assert config.seed == 99 and config.mc_samples == 5000
        assert config.mechanism.privacy == PrivacyParams.eps_dp(0.5)
        np.testing.assert_allclose(config.source.probs, [0.4, 0.6])

    @pytest.mark.parametrize("plain, annotated", [
        ("alphabet_size = 2\nn = 8\nsource = 0.4, 0.6\nmechanism = exponential\n"
         "epsilon = 0.5\nseed = 99\nmc_samples = 5000\nsigma = 0.25\n",
         "# demo experiment\n\n  alphabet_size=2   # two symbols\n"
         "n = 8#length\n   \nsource = 0.4, 0.6 # p = (0.4, 0.6)\n"
         "# mechanism = identity\nmechanism = exponential # x = y\n\n"
         "\tepsilon =  0.5\nseed = 99\n#\nmc_samples = 5000\nsigma = 0.25 #\n"),
        ("alphabet_size = 3\nn = 4\nsource = 0.2, 0.3, 0.5\n"
         "mechanism = identity\nmu = 1.5\n",
         "\n\nalphabet_size = 3 # = 3\n# n = 5\nn = 4\n"
         "source = 0.2,0.3,0.5\n\nmechanism = identity # mu = 9\nmu = 1.5\n\n"),
    ], ids=["exponential", "identity"])
    def test_comments_and_blank_lines_change_nothing(self, tmp_path, plain,
                                                      annotated):
        def load(text):
            path = tmp_path / "exp.cfg"
            path.write_text(text)
            config, sigma = load_experiment_config(str(path))
            mech = config.mechanism
            return (config.source.probs.tolist(), mech.kernel.tobytes(),
                    mech.kernel.shape, mech.alphabet_size, mech.n, mech.privacy,
                    mech.description, config.loss_table.tobytes(), config.seed,
                    config.mc_samples, sigma)

        assert load(annotated) == load(plain)

    def test_sigma_override_returned(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(self.good_text() + "sigma = 0.25\n")
        _, sigma = load_experiment_config(str(path))
        assert sigma == 0.25

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(self.good_text() + "wokers = 2\n")
        with pytest.raises(InputError) as err:
            load_experiment_config(str(path))
        assert "wokers" in str(err.value)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(self.good_text() + "n = 9\n")
        with pytest.raises(InputError):
            load_experiment_config(str(path))

    def test_epsilon_mu_exclusive(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(self.good_text() + "mu = 0.5\n")
        with pytest.raises(InputError):
            load_experiment_config(str(path))

    def test_exponential_needs_epsilon(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "alphabet_size = 2\nn = 4\nsource = 0.5,0.5\nmechanism = exponential\n"
        )
        with pytest.raises(InputError):
            load_experiment_config(str(path))

    def test_privacy_declaration_for_builtin(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "alphabet_size = 2\nn = 4\nsource = 0.5,0.5\n"
            "mechanism = identity\nepsilon = 1.0\n"
        )
        config, _ = load_experiment_config(str(path))
        assert config.mechanism.privacy == PrivacyParams.eps_dp(1.0)

    def test_mechanism_from_saved_kernel(self, tmp_path):
        mech = exponential_mechanism_over_types(2, 4, 0.7)
        kernel_path = str(tmp_path / "kernel.csv")
        save_mechanism_csv(mech, kernel_path)
        path = tmp_path / "exp.cfg"
        path.write_text(
            f"alphabet_size = 2\nn = 4\nsource = 0.5,0.5\nmechanism = {kernel_path}\n"
        )
        config, _ = load_experiment_config(str(path))
        np.testing.assert_array_equal(config.mechanism.kernel, mech.kernel)
        assert config.mechanism.privacy == PrivacyParams.eps_dp(0.7)

    def test_saved_kernel_needs_one_hypothesis_per_count_vector(self, tmp_path):
        # the default loss has one row per count vector, so a kernel over
        # other hypotheses is refused when the config names it
        kernel_path = str(tmp_path / "narrow.csv")
        save_mechanism_csv(random_mechanism(2, 4, 3, seed=1), kernel_path)
        path = tmp_path / "exp.cfg"
        path.write_text(
            f"alphabet_size = 2\nn = 4\nsource = 0.5,0.5\nmechanism = {kernel_path}\n"
        )
        with pytest.raises(InputError) as err:
            load_experiment_config(str(path))
        assert str(err.value) == (
            f"{path}: mechanism file {kernel_path} has 3 hypotheses, but a "
            "config's default loss needs one per count vector (T=5)")

    @pytest.mark.parametrize("mechanism, declaration", [
        ("identity", "epsilon = 1.0"), ("uniform", "mu = 0.5"),
        ("exponential", "epsilon = 0.5"), ("saved", "mu = 2.0"),
    ])
    def test_one_mechanism_per_config(self, tmp_path, monkeypatch, mechanism,
                                      declaration):
        # the declared privacy goes on the mechanism the loader built, and
        # no second Mechanism re-validates its kernel
        if mechanism == "saved":
            mechanism = str(tmp_path / "kernel.csv")
            save_mechanism_csv(exponential_mechanism_over_types(2, 4, 0.7),
                               mechanism)
        path = tmp_path / "exp.cfg"
        path.write_text(f"alphabet_size = 2\nn = 4\nsource = 0.5,0.5\n"
                        f"mechanism = {mechanism}\n{declaration}\n")
        built = []
        real_init = Mechanism.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Mechanism, "__init__", counting)
        config, _ = load_experiment_config(str(path))
        assert built == [config.mechanism]
        key, _, value = declaration.partition(" = ")
        assert config.mechanism.privacy == (
            PrivacyParams.mu_gdp(float(value)) if key == "mu"
            else PrivacyParams.eps_dp(float(value)))

    def test_source_length_mismatch(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "alphabet_size = 3\nn = 4\nsource = 0.5,0.5\nmechanism = identity\n"
        )
        with pytest.raises(InputError):
            load_experiment_config(str(path))
