"""KL divergence, the variational mixture sandwich, and the KL matrix of
a kernel's rows that kl_row_blocks yields block by block."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genbound.divergence_core
import genbound.types_core
from genbound.divergence_core import kl_row_blocks
from genbound.errors import InputError
from genbound.privacy_mechanisms import (
    Mechanism,
    PrivacyParams,
    load_mechanism_csv,
    save_mechanism_csv,
)
from genbound.types_core import BLOCK_ROWS, num_types, row_blocks
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


def kl_matrix(kernel):
    """The KL matrix of a kernel's rows, stacked from kl_row_blocks, after
    checking that the blocks are the row blocks of the T x T pass."""
    kernel = np.asarray(kernel, dtype=float)
    blocks = list(kl_row_blocks(kernel))
    assert [(lo, lo + len(block)) for lo, block in blocks] == [
        (rows.start, rows.stop) for rows in row_blocks(len(kernel), len(kernel))]
    if not blocks:
        return np.empty((0, len(kernel)))
    return np.concatenate([block for _, block in blocks])


@given(st.lists(sparse_rows, min_size=1, max_size=12))
@settings(max_examples=200)
def test_kl_matrix_matches_scalar(rows):
    matrix = kl_matrix(rows)
    assert matrix.shape == (len(rows), len(rows))
    for i, p in enumerate(rows):
        for j, q in enumerate(rows):
            expected = kl_divergence(p, q)
            if math.isinf(expected):
                assert matrix[i, j] == math.inf
            else:
                assert abs(matrix[i, j] - expected) <= 1e-12


def test_kl_matrix_conventions():
    matrix = kl_matrix([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.2, 0.3, 0.5]])
    assert matrix[0, 1] == math.inf  # mass where q has none
    assert matrix[1, 0] == math.log(2.0)  # 0 * log 0 = 0
    assert matrix[2, 0] == math.inf
    assert (np.diag(matrix) == 0.0).all()
    assert not np.isnan(matrix).any()


def test_kl_matrix_identical_rows_are_exactly_zero():
    # H_i - K_i @ log K_j does not cancel exactly on its own; 300 rows
    # span two blocks
    rows = np.full((300, 300), 1.0 / 300)
    assert np.all(kl_matrix(rows) == 0.0)


def test_kl_matrix_spans_several_row_blocks():
    rng = np.random.default_rng(3)
    rows = rng.dirichlet(np.ones(5), size=600)
    matrix = kl_matrix(rows)
    for i in (0, 255, 256, 599):
        for j in (0, 1, 300, 599):
            assert abs(matrix[i, j] - kl_divergence(rows[i], rows[j])) <= 1e-12


def sparse_kernel(rng, rows, width):
    """Random distributions with about a third of their entries zero."""
    raw = rng.dirichlet(np.ones(width), size=rows) * (rng.random((rows, width)) > 0.3)
    raw[raw.sum(axis=1) == 0, 0] = 1.0
    return raw / raw.sum(axis=1, keepdims=True)


def block_cases():
    rng = np.random.default_rng(8)
    return {
        "dense": rng.dirichlet(np.ones(5), size=600),
        "zeros": sparse_kernel(rng, 700, 6),
        "identical": np.repeat(rng.dirichlet(np.ones(4), size=3), 200, axis=0),
        "uniform": np.full((300, 300), 1.0 / 300),
    }


def definition_kl_matrix(kernel):
    """sum_w p_w log(p_w / q_w) over p_w > 0 for every row pair at once,
    +inf where such a q_w is 0: rows x rows x width cells, so small
    kernels only."""
    p, q = kernel[:, None, :], kernel[None, :, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0, p * np.log(p / q), 0.0).sum(axis=2)


@pytest.mark.parametrize("case", list(block_cases()))
def test_kl_row_blocks_concatenate_to_kl_matrix(case):
    kernel = block_cases()[case]
    matrix = kl_matrix(kernel)
    assert matrix.shape == (len(kernel), len(kernel))
    equal = (kernel[:, None, :] == kernel[None, :, :]).all(axis=2)
    assert (matrix[equal] == 0.0).all()
    if case == "uniform":
        assert equal.all()
        return
    reference = definition_kl_matrix(kernel)
    assert (np.isinf(matrix) == np.isinf(reference)).all()
    finite = np.isfinite(reference)
    assert np.abs(matrix[finite] - reference[finite]).max() <= 1e-12
    if case == "zeros":
        assert np.isinf(matrix).any()


def test_kl_matrix_of_no_rows():
    assert list(kl_row_blocks(np.empty((0, 3)))) == []


def test_equal_rows_on_either_side_of_a_block_boundary(tmp_path):
    # a saved and reloaded kernel whose rows 255 and 256, the last of the
    # first block and the first of the second, are equal
    rng = np.random.default_rng(11)
    kernel = rng.dirichlet(np.ones(5), size=num_types(2, 299))
    kernel[256] = kernel[255]
    path = str(tmp_path / "kernel.csv")
    save_mechanism_csv(Mechanism(kernel, 2, 299, PrivacyParams.eps_dp(1.0)), path)
    matrix = kl_matrix(load_mechanism_csv(path).kernel)
    assert matrix[255, 256] == matrix[256, 255] == 0.0
    assert (matrix == 0.0).sum() == len(kernel) + 2


def test_kl_row_blocks_shrink_to_the_cell_bound(monkeypatch):
    # 300 rows over 2 ** 12 cells: 13-row blocks, far fewer than
    # BLOCK_ROWS, with equal rows 12 and 13 on either side of the first
    # boundary and 25 and 26 on either side of the second
    rng = np.random.default_rng(15)
    kernel = sparse_kernel(rng, 300, 6)
    kernel[13], kernel[26] = kernel[12], kernel[25]
    monkeypatch.setattr(genbound.types_core, "BLOCK_CELLS", 2 ** 12)
    assert [lo for lo, _ in kl_row_blocks(kernel)] == list(range(0, 300, 13))
    matrix = kl_matrix(kernel)
    assert matrix[12, 13] == matrix[13, 12] == matrix[25, 26] == matrix[26, 25] == 0.0
    reference = definition_kl_matrix(kernel)
    assert (np.isinf(matrix) == np.isinf(reference)).all() and np.isinf(matrix).any()
    finite = np.isfinite(reference)
    assert np.abs(matrix[finite] - reference[finite]).max() <= 1e-12


def test_rows_equal_by_value_are_equal_across_signed_zeros():
    # -0.0 == 0.0: the one row pair the raw row bytes tell apart. Here
    # H - cross alone leaves a residue of about -9e-16 (OpenBLAS, x86-64)
    rng = np.random.default_rng(12)
    row = np.append(rng.dirichlet(np.ones(99)), 0.0)
    kernel = np.vstack([row, row, rng.dirichlet(np.ones(100))])
    kernel[1, -1] = -0.0
    assert kernel[0].tobytes() != kernel[1].tobytes()
    matrix = kl_matrix(kernel)
    assert matrix[0, 1] == matrix[1, 0] == 0.0


def test_distinct_rows_with_equal_sums_are_not_forced_to_zero():
    kernel = np.array([[0.2, 0.8], [0.8, 0.2], [0.2, 0.8]])
    matrix = kl_matrix(kernel)
    expected = kl_divergence([0.2, 0.8], [0.8, 0.2])
    assert expected > 0.0
    assert abs(matrix[0, 1] - expected) <= 1e-15
    assert abs(matrix[1, 2] - expected) <= 1e-15
    assert matrix[0, 2] == matrix[2, 0] == 0.0


def test_a_key_tie_between_distinct_rows_is_confirmed_row_by_row(monkeypatch):
    # every row hashed alike, so all share one group: the ids must still
    # come from the values
    rng = np.random.default_rng(13)
    kernel = np.repeat(rng.dirichlet(np.ones(6), size=5), 70, axis=0)
    rng.shuffle(kernel)
    honest = kl_matrix(kernel)
    monkeypatch.setattr(genbound.divergence_core, "hash", lambda _: 0,
                        raising=False)
    assert kl_matrix(kernel).tobytes() == honest.tobytes()


def first_equal_rows(kernel):
    """Each row's first equal row by value, pair by pair."""
    return [next(j for j in range(i + 1) if (kernel[j] == kernel[i]).all())
            for i in range(len(kernel))]


def row_id_cases():
    rng = np.random.default_rng(14)
    spread = rng.dirichlet(np.ones(4), size=2 * BLOCK_ROWS + 10)
    # repeats within a block and across both block boundaries
    for i, j in [(3, 200), (BLOCK_ROWS - 1, BLOCK_ROWS), (5, BLOCK_ROWS + 7),
                 (BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 2), (3, 2 * BLOCK_ROWS + 9)]:
        spread[j] = spread[i]
    signed = np.vstack([[0.5, 0.0, 0.5], [0.5, -0.0, 0.5], [0.0, 0.5, 0.5],
                        [-0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    return {
        "spread": spread,
        "signed_zeros": signed,
        "all_equal": np.full((BLOCK_ROWS + 3, 5), 0.2),
        "identity": np.eye(7),
    }


@pytest.mark.parametrize("case", list(row_id_cases()))
def test_row_ids_are_the_first_equal_row(case):
    kernel = row_id_cases()[case]
    ids = genbound.divergence_core._row_ids(kernel)
    assert ids.tolist() == first_equal_rows(kernel)


def test_reference_weighted_logsumexp_values():
    weighted = weighted_logsumexp([0.0, 1.0], [0.25, 0.75])
    assert math.isclose(weighted, math.log(0.25 + 0.75 * math.e), rel_tol=1e-15)
    assert weighted_logsumexp([-math.inf, -math.inf], [0.5, 0.5]) == -math.inf
    assert math.isclose(weighted_logsumexp([1000.0, 1000.0], [1.0, 1.0]),
                        1000.0 + math.log(2.0), rel_tol=1e-15)
