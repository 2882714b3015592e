"""Privacy declarations, stability envelopes, and mechanism audits."""

from __future__ import annotations

import math
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import genbound.privacy_mechanisms
from genbound.divergence_core import kl_row_blocks
from genbound.errors import InputError, ResourceLimitError
from genbound.oracle_harness import random_mechanism
from genbound.privacy_mechanisms import (
    Mechanism,
    PrivacyKind,
    PrivacyParams,
    exponential_mechanism_over_types,
    gdp_param_noisy_sgd,
    identity_mechanism,
    kl_stability_bound,
    load_mechanism_csv,
    save_mechanism_csv,
    uniform_mechanism,
    verify_kl_stability,
)
from genbound.types_core import (
    distance_matrix,
    num_types,
    type_counts,
)
from divergence_reference import gaussian_mechanism_neighbor_kl, kl_divergence
from lattice_reference import dataset_distance, enumerate_types


class TestPrivacyParams:
    def test_kinds(self):
        assert PrivacyParams.eps_dp(0.5).kind is PrivacyKind.EPS_DP
        assert PrivacyParams.mu_gdp(1.0).kind is PrivacyKind.MU_GDP
        assert PrivacyParams.none().kind is PrivacyKind.NONE
        assert PrivacyParams.none().value is None

    def test_rejects_non_positive(self):
        with pytest.raises(InputError):
            PrivacyParams.eps_dp(0.0)
        with pytest.raises(InputError):
            PrivacyParams.mu_gdp(-1.0)


def test_stability_bound_at_zero_distance():
    assert kl_stability_bound(PrivacyParams.eps_dp(3.0), 0) == 0.0


def test_stability_bound_requires_guarantee():
    with pytest.raises(InputError):
        kl_stability_bound(PrivacyParams.none(), 1)


def test_stability_bound_dp_known_value():
    # at k*eps = 1 the tanh branch is active
    value = kl_stability_bound(PrivacyParams.eps_dp(0.5), 2)
    assert math.isclose(value, math.tanh(0.5), rel_tol=1e-15)
    assert math.isclose(value, 0.46211715726000974, rel_tol=1e-15)


def test_stability_bound_gdp_is_quadratic():
    assert kl_stability_bound(PrivacyParams.mu_gdp(0.5), 3) == 0.5 * 1.5**2


def test_stability_bound_overflows_to_inf_not_an_error():
    # (k mu) ** 2 raised OverflowError past k mu ~ 1.3e154
    assert kl_stability_bound(PrivacyParams.mu_gdp(1e200), 1) == math.inf
    assert kl_stability_bound(PrivacyParams.eps_dp(1e308), 2) == math.inf
    assert kl_stability_bound(PrivacyParams.mu_gdp(1e150), 1) == 0.5 * (1e150 * 1e150)


@given(st.floats(0.01, 2.0), st.integers(1, 20))
def test_stability_bound_dp_tanh_term_wins_below_two(eps, k):
    x = k * eps
    value = kl_stability_bound(PrivacyParams.eps_dp(eps), k)
    assert value <= x * x / 2.0 + 1e-15
    assert value <= x + 1e-15
    if x <= 2.0:
        assert math.isclose(value, x * math.tanh(x / 2.0), rel_tol=1e-12)


# the linear cap overshoots x*tanh(x/2) by under 10% exactly from
# x = 2*atanh(1/1.1) ~ 3.0445 onward
_TEN_PERCENT_CROSSOVER = 2.0 * math.atanh(1.0 / 1.1)


@given(st.floats(_TEN_PERCENT_CROSSOVER, 50.0))
def test_linear_envelope_near_tanh_product_for_large_arguments(x):
    assert x <= 1.1 * (x * math.tanh(x / 2.0))


def test_linear_envelope_gap_above_ten_percent_below_crossover():
    x = _TEN_PERCENT_CROSSOVER - 1e-6
    assert x > 1.1 * (x * math.tanh(x / 2.0))


@given(st.floats(2.0, 50.0))
def test_linear_below_quadratic_from_two(x):
    assert x <= x * x / 2.0


def test_exponential_mechanism_rows_are_distributions():
    mech = exponential_mechanism_over_types(3, 5, 0.7)
    assert mech.kernel.shape == (num_types(3, 5), num_types(3, 5))
    np.testing.assert_allclose(mech.kernel.sum(axis=1), 1.0, atol=1e-12)
    assert mech.privacy.kind is PrivacyKind.EPS_DP


@pytest.mark.parametrize("m, n, eps", [
    (3, 20, 0.5), (4, 8, 0.7), (2, 150, 0.3), (5, 6, 40.0), (3, 6, 1e308),
    (2, 299, 0.4),  # T = 300: more than one block of rows
])
def test_exponential_kernel_matches_tensor_formula(m, n, eps):
    # reference: exp over the T x T x m float distance tensor, bit for bit.
    # At eps = 1e308, -eps * k overflows to -inf (weight 0) for k >= 2,
    # which the kernel must take without a RuntimeWarning.
    counts = np.array(enumerate_types(m, n), dtype=float)
    dist = np.abs(counts[:, None, :] - counts[None, :, :]).sum(axis=2) / 2.0
    with np.errstate(over="ignore"):
        raw = np.exp(-eps * dist / 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = exponential_mechanism_over_types(m, n, eps).kernel
    np.testing.assert_array_equal(kernel, raw / raw.sum(axis=1, keepdims=True))


def traced_peak(fn):
    """fn's result and the tracemalloc peak, in bytes, while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rows", [1, 7, 64])
def test_exponential_kernel_is_the_same_in_any_block_size(block_rows, rows):
    whole = exponential_mechanism_over_types(3, 12, 0.6).kernel
    block_rows(rows)
    assert exponential_mechanism_over_types(3, 12, 0.6).kernel.tobytes() == (
        whole.tobytes())


def test_exponential_build_holds_one_kernel_and_one_block(block_rows):
    # T = 861; 32-row blocks of int64 distances are 4% of the kernel each
    block_rows(32)
    mech, peak = traced_peak(lambda: exponential_mechanism_over_types(3, 40, 0.5))
    assert mech.kernel.shape == (861, 861)
    assert peak < 1.25 * mech.kernel.nbytes


def test_mechanism_adopts_a_float_kernel_and_freezes_it():
    kernel = np.eye(num_types(2, 3))
    mech = Mechanism(kernel, 2, 3, PrivacyParams.none())
    assert mech.kernel is kernel and not kernel.flags.writeable
    # anything else becomes a new float64 array first
    ints = np.eye(4, dtype=np.int64)
    mech = Mechanism(ints, 2, 3, PrivacyParams.none())
    assert mech.kernel.dtype == np.float64 and ints.flags.writeable
    # a second declaration over the same kernel shares it
    relabeled = Mechanism(mech.kernel, 2, 3, PrivacyParams.eps_dp(1.0))
    assert relabeled.kernel is mech.kernel


@pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf, -math.inf])
def test_mechanism_rejects_entries_that_are_not_finite_and_non_negative(bad):
    kernel = np.eye(num_types(2, 3))
    kernel[2, 1] = bad
    with pytest.raises(InputError, match="finite and non-negative"):
        Mechanism(kernel, 2, 3, PrivacyParams.none())


@pytest.mark.parametrize("build", [
    lambda: exponential_mechanism_over_types(2, 4, 0.5),
    lambda: identity_mechanism(2, 4),
    lambda: uniform_mechanism(2, 4),
], ids=["exponential", "identity", "uniform"])
def test_square_kernels_respect_the_cell_budget(monkeypatch, build):
    # T = 5 count vectors: a 25-cell kernel
    monkeypatch.setattr(genbound.privacy_mechanisms, "KERNEL_CELL_BUDGET", 25)
    assert build().kernel.shape == (5, 5)
    monkeypatch.setattr(genbound.privacy_mechanisms, "KERNEL_CELL_BUDGET", 24)
    with pytest.raises(ResourceLimitError, match="T=5 .* budget of 24 cells"):
        build()


def test_loaded_kernel_is_checked_against_the_budget_before_any_row(
    monkeypatch, tmp_path
):
    path = tmp_path / "mech.csv"
    save_mechanism_csv(exponential_mechanism_over_types(2, 4, 0.5), str(path))
    monkeypatch.setattr(genbound.privacy_mechanisms, "KERNEL_CELL_BUDGET", 25)
    assert load_mechanism_csv(str(path)).kernel.shape == (5, 5)
    # unparseable rows: only a check made before reading them can pass
    path.write_text("x\n" * 5)
    monkeypatch.setattr(genbound.privacy_mechanisms, "KERNEL_CELL_BUDGET", 24)
    with pytest.raises(ResourceLimitError,
                       match="T=5 .* 5 hypotheses .* budget of 24 cells"):
        load_mechanism_csv(str(path))


def test_random_mechanism_respects_the_cell_budget(monkeypatch):
    # T = 5 count vectors by 4 hypotheses: a 20-cell kernel
    monkeypatch.setattr(genbound.privacy_mechanisms, "KERNEL_CELL_BUDGET", 20)
    assert random_mechanism(2, 4, 4, seed=1).kernel.shape == (5, 4)
    monkeypatch.setattr(genbound.privacy_mechanisms, "KERNEL_CELL_BUDGET", 19)
    with pytest.raises(ResourceLimitError,
                       match="T=5 .* 4 hypotheses .* budget of 19 cells"):
        random_mechanism(2, 4, 4, seed=1)


def test_exponential_mechanism_is_eps_dp_pointwise():
    eps = 0.9
    mech = exponential_mechanism_over_types(2, 8, eps)
    types = enumerate_types(2, 8)
    for i in range(len(types) - 1):
        # consecutive count vectors are neighbors (distance 1)
        ratios = np.log(mech.kernel[i]) - np.log(mech.kernel[i + 1])
        assert np.max(np.abs(ratios)) <= eps + 1e-12


def test_exponential_mechanism_passes_its_audit():
    report = verify_kl_stability(exponential_mechanism_over_types(2, 7, 1.3))
    assert report.passed
    assert [row.k for row in report.rows] == list(range(1, 8))
    for row in report.rows:
        assert row.max_kl <= row.bound + 1e-9
        assert row.worst_pair[0] != row.worst_pair[1]


def scalar_stability_worst(mech):
    """Reference audit: worst KL per distance over all ordered pairs, one
    kl_divergence call per pair, first pair kept on ties."""
    types = enumerate_types(mech.alphabet_size, mech.n)
    worst = {}
    for i, si in enumerate(types):
        for j, sj in enumerate(types):
            if i == j:
                continue
            k = dataset_distance(si, sj)
            val = kl_divergence(mech.kernel[i], mech.kernel[j])
            if k not in worst or val > worst[k][0]:
                worst[k] = (val, (i, j))
    return worst


@pytest.mark.parametrize("mech", [
    exponential_mechanism_over_types(3, 12, 0.5),
    exponential_mechanism_over_types(2, 30, 0.9),
    random_mechanism(3, 6, 5, seed=4, privacy=PrivacyParams.eps_dp(0.3)),
    Mechanism(identity_mechanism(2, 5).kernel, 2, 5, PrivacyParams.mu_gdp(1.0)),
], ids=["exp-m3n12", "exp-m2n30", "random-m3n6", "identity-m2n5"])
def test_audit_matches_scalar_reference(mech):
    types = enumerate_types(mech.alphabet_size, mech.n)
    reference = scalar_stability_worst(mech)
    report = verify_kl_stability(mech)
    assert [row.k for row in report.rows] == sorted(reference)
    for row in report.rows:
        expected, _ = reference[row.k]
        i, j = row.worst_pair
        assert i != j and dataset_distance(types[i], types[j]) == row.k
        witness = kl_divergence(mech.kernel[i], mech.kernel[j])
        if math.isinf(expected):
            assert row.max_kl == math.inf and witness == math.inf
        else:
            assert abs(row.max_kl - expected) <= 1e-12
            assert abs(witness - expected) <= 1e-12


def test_audit_spans_several_row_blocks():
    # 300 count vectors: the audit works through two blocks of rows
    mech = random_mechanism(2, 299, 3, seed=8, privacy=PrivacyParams.eps_dp(2.0))
    reference = scalar_stability_worst(mech)
    report = verify_kl_stability(mech)
    for row in report.rows:
        i, j = row.worst_pair
        assert abs(row.max_kl - reference[row.k][0]) <= 1e-12
        assert abs(kl_divergence(mech.kernel[i], mech.kernel[j])
                   - reference[row.k][0]) <= 1e-12


def per_distance_stability_worst(mech):
    """Reference blocked audit: one masked argmax per distance per block
    over the same kl_row_blocks and distance_matrix values, merged with a
    strict > so an earlier block keeps a tie."""
    counts = type_counts(mech.alphabet_size, mech.n)
    total = counts.shape[0]
    worst = {}
    for lo, kl in kl_row_blocks(mech.kernel):
        hi = lo + len(kl)
        dist = distance_matrix(counts[lo:hi], counts)
        dist[np.arange(hi - lo), np.arange(lo, hi)] = -1  # skip i == j
        for k in np.flatnonzero(np.bincount(dist[dist > 0])).tolist():
            masked = np.where(dist == k, kl, -math.inf)
            flat = int(np.argmax(masked))
            val = float(masked.flat[flat])
            if k not in worst or val > worst[k][0]:
                worst[k] = (val, (lo + flat // total, flat % total))
    return worst


@pytest.mark.parametrize("mech", [
    exponential_mechanism_over_types(2, 299, 0.5),
    exponential_mechanism_over_types(3, 22, 0.9),
    random_mechanism(2, 299, 3, seed=8, privacy=PrivacyParams.eps_dp(2.0)),
    Mechanism(uniform_mechanism(2, 299).kernel, 2, 299, PrivacyParams.eps_dp(0.1)),
    Mechanism(identity_mechanism(2, 299).kernel, 2, 299, PrivacyParams.mu_gdp(1.0)),
    Mechanism(identity_mechanism(3, 6).kernel, 3, 6, PrivacyParams.mu_gdp(1.0)),
], ids=["exp-m2n299", "exp-m3n22", "random-m2n299", "uniform-ties",
        "identity-inf-m2n299", "identity-inf-m3n6"])
def test_audit_matches_per_distance_reference_bitwise(mech):
    # T > BLOCK_ROWS except for the last case; the uniform kernel ties
    # every pair at 0.0 and the identity kernel every pair at +inf
    reference = per_distance_stability_worst(mech)
    report = verify_kl_stability(mech)
    assert [row.k for row in report.rows] == sorted(reference)
    for row in report.rows:
        assert row.max_kl == reference[row.k][0]
        assert row.worst_pair == reference[row.k][1]
        assert row.passed == (row.max_kl <= row.bound + 1e-9)


def test_audit_holds_one_log_of_the_kernel_and_a_few_blocks():
    # T = 2000 at m2 n1999, so a 256-row block is an eighth of the kernel;
    # the kernel is built before tracing starts. Row ids that kept each
    # row's bytes held a second copy of the kernel, 2.53x in all; keeping
    # the last block's KL values and distances while the next block was
    # computed held two blocks, 1.55x
    mech = exponential_mechanism_over_types(2, 1999, 0.5)
    report, peak = traced_peak(lambda: verify_kl_stability(mech))
    assert report.passed
    assert peak < 1.5 * mech.kernel.nbytes


def test_audit_of_a_kernel_with_zeros_in_every_column_stays_small():
    # the identity kernel's support mask is T x T: float32, filled a block
    # at a time, it is half a kernel; float64 through a gathered copy,
    # 2.53x the kernel in all
    identity = identity_mechanism(2, 1999)
    liar = Mechanism(identity.kernel, 2, 1999, PrivacyParams.eps_dp(0.5))
    report, peak = traced_peak(lambda: verify_kl_stability(liar))
    assert not report.passed
    assert peak < 2.25 * liar.kernel.nbytes


def test_audit_catches_a_false_claim():
    # a deterministic kernel cannot be 1.0-DP
    honest = identity_mechanism(2, 3)
    liar = Mechanism(honest.kernel, 2, 3, PrivacyParams.eps_dp(1.0))
    report = verify_kl_stability(liar)
    assert not report.passed
    assert report.rows[0].max_kl == math.inf


def test_audit_requires_a_declared_guarantee():
    with pytest.raises(InputError):
        verify_kl_stability(identity_mechanism(2, 3))


def test_uniform_mechanism_has_zero_divergence_rows():
    mech = uniform_mechanism(2, 4)
    audited = Mechanism(mech.kernel, 2, 4, PrivacyParams.eps_dp(0.01))
    report = verify_kl_stability(audited)
    assert report.passed
    assert all(row.max_kl == 0.0 for row in report.rows)


def test_mechanism_row_count_must_match():
    with pytest.raises(InputError):
        Mechanism(np.eye(4), 2, 4, PrivacyParams.none())


def test_mechanism_rejects_unnormalized_rows():
    kernel = np.eye(num_types(2, 3))
    kernel[1, 0] = 0.5
    with pytest.raises(InputError) as err:
        Mechanism(kernel, 2, 3, PrivacyParams.none())
    assert "row 1" in str(err.value)


@given(st.sampled_from([0.25, 0.5, 1.0, 2.0]), st.integers(0, 10))
def test_gaussian_route_matches_gdp_envelope(mu, k):
    direct = gaussian_mechanism_neighbor_kl(mu, k)
    if k == 0:
        assert direct == 0.0
        return
    envelope = kl_stability_bound(PrivacyParams.mu_gdp(mu), k)
    assert math.isclose(direct, envelope, rel_tol=1e-15, abs_tol=1e-15)


def test_noisy_sgd_gdp_parameter_value():
    value = gdp_param_noisy_sgd(32, 1024, 100, 1.0)
    assert math.isclose(value, 0.4096351545100269, rel_tol=1e-15)


def test_noisy_sgd_monotone_in_iterations():
    low = gdp_param_noisy_sgd(32, 1024, 50, 1.0)
    high = gdp_param_noisy_sgd(32, 1024, 200, 1.0)
    assert low < high


def test_noisy_sgd_rejects_bad_inputs():
    with pytest.raises(InputError):
        gdp_param_noisy_sgd(0, 1024, 100, 1.0)
    with pytest.raises(InputError):
        gdp_param_noisy_sgd(32, 1024, 100, 0.0)


def test_mechanism_csv_round_trip(tmp_path):
    mech = exponential_mechanism_over_types(2, 5, 0.8)
    path = str(tmp_path / "mech.csv")
    meta = save_mechanism_csv(mech, path)
    assert meta.endswith(".meta")
    loaded = load_mechanism_csv(path)
    np.testing.assert_array_equal(loaded.kernel, mech.kernel)
    assert loaded.privacy == mech.privacy
    assert loaded.alphabet_size == 2 and loaded.n == 5
    assert loaded.description == mech.description
    # the sidecar keeps a description whole, '=' and '#' included
    marked = Mechanism(mech.kernel, 2, 5, mech.privacy, "eps=0.8 # note")
    save_mechanism_csv(marked, path)
    assert load_mechanism_csv(path).description == "eps=0.8 # note"


ONE_LINE = st.text(st.characters(codec="utf-8", exclude_characters="\n\r"))


@settings(max_examples=60, deadline=None)
@given(ONE_LINE)
@example("  eps=0.8 # note = x  ")
@example("\t\u00e9t\u00e9 \u2603 \U0001d518\u2028\x85\x00")
def test_every_one_line_description_round_trips(description):
    # '#', '=', surrounding spaces and non-ASCII text all come back as saved
    mech = Mechanism(np.eye(2), 2, 1, PrivacyParams.eps_dp(0.5), description)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "mech.csv")
        save_mechanism_csv(mech, path)
        assert load_mechanism_csv(path).description == description


@settings(max_examples=60, deadline=None)
@given(ONE_LINE, st.sampled_from(["\n", "\r", "\r\n", "\ud800", "\udfff"]),
       ONE_LINE)
def test_a_description_that_would_not_load_back_is_refused(before, bad, after):
    # a line break, or a lone surrogate UTF-8 cannot encode: refused before
    # either file is opened, so neither is left behind
    mech = Mechanism(np.eye(2), 2, 1, PrivacyParams.none(), before + bad + after)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "mech.csv")
        with pytest.raises(InputError) as err:
            save_mechanism_csv(mech, path)
        assert str(err.value).startswith(f"{path}.meta: a description must be "
                                         "one line of UTF-8 text, got ")
        assert os.listdir(work) == []


def test_mechanism_csv_requires_sidecar(tmp_path):
    path = tmp_path / "orphan.csv"
    path.write_text("1.0,0.0\n0.0,1.0\n")
    with pytest.raises(InputError):
        load_mechanism_csv(str(path))


@pytest.mark.parametrize("rows, kept", [(6, 5), (4, 4), (0, 0)],
                         ids=["too-many", "too-few", "none"])
def test_loaded_kernel_must_have_one_row_per_count_vector(tmp_path, rows, kept):
    # n = 4 over 2 symbols has 5 count vectors; blank lines are no rows
    path = tmp_path / "mech.csv"
    save_mechanism_csv(exponential_mechanism_over_types(2, 4, 0.5), str(path))
    lines = path.read_text().splitlines()[:kept]
    lines += lines[:rows - kept] + [""]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError) as err:
        load_mechanism_csv(str(path))
    assert str(err.value) == (
        f"kernel has {rows} rows; alphabet size 2 with n=4 has 5 count vectors")


def test_loaded_kernel_with_a_negative_width_is_bad_input(tmp_path):
    path = tmp_path / "mech.csv"
    save_mechanism_csv(exponential_mechanism_over_types(2, 4, 0.5), str(path))
    meta = tmp_path / "mech.csv.meta"
    meta.write_text(meta.read_text().replace("hypothesis_count=5",
                                             "hypothesis_count=-5"))
    with pytest.raises(InputError, match="line 1 has 5 entries"):
        load_mechanism_csv(str(path))


def test_loaded_kernel_rows_past_the_lattice_are_still_checked(tmp_path):
    path = tmp_path / "mech.csv"
    save_mechanism_csv(exponential_mechanism_over_types(2, 4, 0.5), str(path))
    path.write_text(path.read_text() + "0.2,0.2,x,0.2,0.2\n")
    with pytest.raises(InputError, match="non-numeric entry on line 6"):
        load_mechanism_csv(str(path))


def test_loading_a_kernel_holds_one_kernel(tmp_path):
    # 861 count vectors by 200 hypotheses: each line becomes its row
    path = str(tmp_path / "mech.csv")
    saved = random_mechanism(3, 40, 200, seed=4)
    save_mechanism_csv(saved, path)
    loaded, peak = traced_peak(lambda: load_mechanism_csv(path))
    assert loaded.kernel.tobytes() == saved.kernel.tobytes()
    assert peak < 1.5 * loaded.kernel.nbytes
