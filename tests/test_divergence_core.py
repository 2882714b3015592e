"""KL divergence and the variational mixture sandwich."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbound.divergence_core import kl_matrix, kl_row_blocks, logsumexp
from genbound.errors import InputError
from genbound.types_core import BLOCK_ROWS
from divergence_reference import (
    DiscreteDistribution,
    MixtureSpec,
    kl_divergence,
    mixture_distribution,
    mixture_kl_bound_logsumexp,
    mixture_kl_bound_min,
    mixture_variational_objective,
    optimal_responsibilities,
    weighted_logsumexp,
)


def normalized(raw):
    total = math.fsum(raw)
    return [x / total for x in raw]


prob_vectors = st.integers(2, 10).flatmap(
    lambda m: st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m)
).map(normalized)


@st.composite
def mixtures(draw, max_components=8):
    m = draw(st.integers(2, 10))
    b = draw(st.integers(1, max_components))
    rows = [
        normalized(draw(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m)))
        for _ in range(b)
    ]
    weights = normalized(draw(st.lists(st.floats(1e-2, 1.0), min_size=b, max_size=b)))
    p = normalized(draw(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m)))
    return p, MixtureSpec(rows, weights)


def test_kl_of_identical_is_zero():
    p = [0.2, 0.3, 0.5]
    assert kl_divergence(p, p) == 0.0


def test_kl_known_bernoulli_value():
    value = kl_divergence([0.25, 0.75], [0.5, 0.5])
    expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
    assert math.isclose(value, expected, rel_tol=1e-14)


def test_kl_infinite_off_support():
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf


def test_kl_zero_numerator_is_ignored():
    assert kl_divergence([1.0, 0.0], [1.0, 0.0]) == 0.0


def test_kl_shape_mismatch():
    with pytest.raises(InputError):
        kl_divergence([0.5, 0.5], [0.2, 0.3, 0.5])


@given(prob_vectors, prob_vectors)
def test_kl_non_negative(p, q):
    if len(p) != len(q):
        return
    assert kl_divergence(p, q) >= -1e-12


def test_distribution_rejects_unnormalized():
    with pytest.raises(InputError):
        DiscreteDistribution([0.5, 0.6])


def test_mixture_rejects_zero_weight():
    with pytest.raises(InputError):
        MixtureSpec([[0.5, 0.5], [0.2, 0.8]], [1.0, 0.0])


def test_mixture_rejects_ragged_components():
    with pytest.raises(InputError):
        MixtureSpec([[0.5, 0.5], [0.2, 0.3, 0.5]], [0.5, 0.5])


def test_mixture_distribution_is_weighted_average():
    mix = MixtureSpec([[1.0, 0.0], [0.0, 1.0]], [0.25, 0.75])
    np.testing.assert_allclose(mixture_distribution(mix).probs, [0.25, 0.75])


@given(mixtures())
@settings(max_examples=300)
def test_variational_sandwich(case):
    p, mix = case
    exact = kl_divergence(p, mixture_distribution(mix))
    lse = mixture_kl_bound_logsumexp(p, mix)
    single = mixture_kl_bound_min(p, mix)
    assert exact <= lse + 1e-10
    assert lse <= single + 1e-10


def test_single_component_collapses_to_equality():
    p = [0.3, 0.7]
    mix = MixtureSpec([[0.6, 0.4]], [1.0])
    exact = kl_divergence(p, mixture_distribution(mix))
    assert math.isclose(mixture_kl_bound_logsumexp(p, mix), exact, abs_tol=1e-12)
    assert math.isclose(mixture_kl_bound_min(p, mix), exact, abs_tol=1e-12)


@given(mixtures())
@settings(max_examples=200)
def test_optimal_responsibilities_attain_logsumexp(case):
    p, mix = case
    phi = optimal_responsibilities(p, mix)
    assert math.isclose(math.fsum(phi.tolist()), 1.0, abs_tol=1e-9)
    attained = mixture_variational_objective(p, mix, phi)
    assert math.isclose(attained, mixture_kl_bound_logsumexp(p, mix), abs_tol=1e-10)


@given(mixtures(), prob_vectors)
@settings(max_examples=200)
def test_objective_dominates_optimum(case, raw_phi):
    p, mix = case
    if len(raw_phi) != mix.component_count:
        return
    best = mixture_variational_objective(p, mix, optimal_responsibilities(p, mix))
    other = mixture_variational_objective(p, mix, raw_phi)
    assert other >= best - 1e-10


def test_responsibilities_need_a_continuous_component():
    mix = MixtureSpec([[1.0, 0.0]], [1.0])
    with pytest.raises(InputError):
        optimal_responsibilities([0.5, 0.5], mix)
    assert mixture_kl_bound_logsumexp([0.5, 0.5], mix) == math.inf


def test_objective_rejects_off_simplex_phi():
    mix = MixtureSpec([[0.5, 0.5], [0.2, 0.8]], [0.5, 0.5])
    with pytest.raises(InputError):
        mixture_variational_objective([0.5, 0.5], mix, [0.9, 0.9])


def test_objective_skips_zero_responsibility_components():
    # an infinite-KL component costs nothing when its phi entry is 0
    mix = MixtureSpec([[1.0, 0.0], [0.5, 0.5]], [0.5, 0.5])
    value = mixture_variational_objective([0.5, 0.5], mix, [0.0, 1.0])
    expected = kl_divergence([0.5, 0.5], [0.5, 0.5]) + math.log(1.0 / 0.5)
    assert math.isclose(value, expected, abs_tol=1e-12)


# rows with zero entries, so supports differ and some pairs are +inf
sparse_rows = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=4, max_size=4
).filter(lambda raw: sum(raw) > 0).map(normalized)


@given(st.lists(sparse_rows, min_size=1, max_size=6),
       st.lists(sparse_rows, min_size=1, max_size=6))
@settings(max_examples=200)
def test_kl_matrix_matches_scalar(P, Q):
    matrix = kl_matrix(P, Q)
    assert matrix.shape == (len(P), len(Q))
    for i, p in enumerate(P):
        for j, q in enumerate(Q):
            expected = kl_divergence(p, q)
            if math.isinf(expected):
                assert matrix[i, j] == math.inf
            else:
                assert abs(matrix[i, j] - expected) <= 1e-12


def test_kl_matrix_conventions():
    P = [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.2, 0.3, 0.5]]
    matrix = kl_matrix(P, [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    assert matrix[0, 0] == math.inf  # mass where q has none
    assert matrix[1, 0] == 0.0  # 0 * log 0 = 0
    assert matrix[2, 1] == math.inf
    assert not np.isnan(matrix).any()


def test_kl_matrix_identical_rows_are_exactly_zero():
    # H_i - P_i @ log Q_j does not cancel exactly on its own
    rows = np.full((231, 231), 1.0 / 231)
    assert np.all(kl_matrix(rows, rows) == 0.0)


def test_kl_matrix_spans_several_row_blocks():
    rng = np.random.default_rng(3)
    P = rng.dirichlet(np.ones(5), size=600)
    Q = rng.dirichlet(np.ones(5), size=3)
    matrix = kl_matrix(P, Q)
    for i in (0, 255, 256, 599):
        for j in range(3):
            assert abs(matrix[i, j] - kl_divergence(P[i], Q[j])) <= 1e-12


def test_kl_matrix_shape_mismatch():
    with pytest.raises(InputError):
        kl_matrix([[0.5, 0.5]], [[0.2, 0.3, 0.5]])
    with pytest.raises(InputError):
        kl_matrix([0.5, 0.5], [0.5, 0.5])


def sparse_rows(rng, rows, width):
    """Random distributions with about a third of their entries zero."""
    raw = rng.dirichlet(np.ones(width), size=rows) * (rng.random((rows, width)) > 0.3)
    raw[raw.sum(axis=1) == 0, 0] = 1.0
    return raw / raw.sum(axis=1, keepdims=True)


def block_cases():
    rng = np.random.default_rng(8)
    dense = rng.dirichlet(np.ones(5), size=600)
    sparse = sparse_rows(rng, 700, 6)
    repeated = np.repeat(rng.dirichlet(np.ones(4), size=3), 200, axis=0)
    return {
        "dense": (dense, rng.dirichlet(np.ones(5), size=40)),
        "zeros": (sparse, sparse_rows(rng, 90, 6)),
        "identical": (repeated, repeated[::7]),
        "uniform": (np.full((300, 300), 1.0 / 300),) * 2,
    }


@pytest.mark.parametrize("case", list(block_cases()))
def test_kl_row_blocks_concatenate_to_kl_matrix(case):
    P, Q = block_cases()[case]
    blocks = list(kl_row_blocks(P, Q))
    assert [lo for lo, _ in blocks] == list(range(0, len(P), BLOCK_ROWS))
    stacked = np.concatenate([block for _, block in blocks])
    matrix = kl_matrix(P, Q)
    assert stacked.shape == matrix.shape == (len(P), len(Q))
    assert stacked.tobytes() == matrix.tobytes()
    if case == "zeros":
        assert np.isinf(matrix).any()
    if case in ("identical", "uniform"):
        assert (matrix == 0.0).sum() >= len(P)


def test_kl_matrix_of_no_rows():
    Q = np.full((4, 3), 1.0 / 3)
    assert list(kl_row_blocks(np.empty((0, 3)), Q)) == []
    assert kl_matrix(np.empty((0, 3)), Q).shape == (0, 4)


def test_kl_matrix_peak_memory_is_the_result_plus_one_block():
    # P spans eight row blocks, so one block is an eighth of the result
    rng = np.random.default_rng(9)
    P = sparse_rows(rng, 8 * BLOCK_ROWS, 4)
    Q = sparse_rows(rng, 2048, 4)
    tracemalloc.start()
    try:
        result = kl_matrix(P, Q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isinf(result).any()  # the support-mask path ran
    assert peak < 1.5 * result.nbytes


def test_logsumexp_values():
    # row-wise, the one form per_dataset_kl_to_cover_mixture takes
    a = np.log([[0.1, 0.2, 0.7], [0.5, 0.5, 1e-300]])
    np.testing.assert_allclose(logsumexp(a), [0.0, 0.0], atol=1e-15)
    assert logsumexp([[-math.inf, -math.inf]])[0] == -math.inf
    assert math.isclose(logsumexp([[1000.0, 1000.0]])[0], 1000.0 + math.log(2.0),
                        rel_tol=1e-15)


def test_reference_weighted_logsumexp_values():
    weighted = weighted_logsumexp([0.0, 1.0], [0.25, 0.75])
    assert math.isclose(weighted, math.log(0.25 + 0.75 * math.e), rel_tol=1e-15)
    assert weighted_logsumexp([-math.inf, -math.inf], [0.5, 0.5]) == -math.inf
    assert math.isclose(weighted_logsumexp([1000.0, 1000.0], [1.0, 1.0]),
                        1000.0 + math.log(2.0), rel_tol=1e-15)
