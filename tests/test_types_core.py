"""Count vectors, type enumeration, and the replacement metric."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbound.errors import InputError, ResourceLimitError
from genbound.types_core import (
    SourceDistribution,
    check_cap,
    distance_matrix,
    enforce_cap,
    num_types,
    sigma_sub_gaussian,
    type_enumeration_cap,
    type_counts,
    type_log_probabilities,
    type_probabilities,
    type_probability,
    type_rank,
)
from lattice_reference import (
    dataset_distance,
    enumerate_types,
    num_types_upper_bound,
    type_index,
)

count_vectors = st.integers(2, 4).flatmap(
    lambda m: st.lists(st.integers(0, 12), min_size=m, max_size=m)
).filter(lambda c: sum(c) >= 1).map(tuple)


def distance(a, b):
    """Replacement distance of one pair, through the array path."""
    return int(distance_matrix([a], [b])[0, 0])


def paired_counts(max_symbols=4, max_count=12):
    """Two count vectors over the same alphabet with equal totals."""

    def fix_total(pair):
        a, b = pair
        total = max(sum(a), sum(b), 1)
        a = list(a)
        b = list(b)
        for vec in (a, b):
            i = 0
            while sum(vec) < total:
                vec[i % len(vec)] += 1
                i += 1
            while sum(vec) > total:
                j = max(range(len(vec)), key=vec.__getitem__)
                vec[j] -= 1
        return tuple(a), tuple(b)

    return st.integers(2, max_symbols).flatmap(
        lambda m: st.tuples(
            st.lists(st.integers(0, max_count), min_size=m, max_size=m),
            st.lists(st.integers(0, max_count), min_size=m, max_size=m),
        )
    ).map(fix_total).filter(lambda p: sum(p[0]) >= 1)


class TestCountVector:
    """The checks on one count vector, made where it enters
    type_probability."""

    SOURCE = SourceDistribution.uniform(2)

    def test_rejects_negative(self):
        with pytest.raises(InputError, match="non-negative"):
            type_probability((3, -1), self.SOURCE)

    def test_rejects_empty_dataset(self):
        with pytest.raises(InputError, match="non-empty"):
            type_probability((0, 0), self.SOURCE)

    def test_rejects_single_symbol(self):
        with pytest.raises(InputError, match="two symbols"):
            type_probability((4,), self.SOURCE)

    def test_rejects_alphabet_mismatch(self):
        with pytest.raises(InputError, match="does not match"):
            type_probability((1, 2, 3), self.SOURCE)


class TestSourceDistribution:
    def test_rejects_unnormalized(self):
        with pytest.raises(InputError):
            SourceDistribution([0.5, 0.6])

    def test_rejects_negative_mass(self):
        with pytest.raises(InputError):
            SourceDistribution([1.2, -0.2])

    def test_uniform(self):
        src = SourceDistribution.uniform(4)
        np.testing.assert_allclose(src.probs, 0.25)

    def test_probs_read_only(self):
        src = SourceDistribution.uniform(2)
        with pytest.raises(ValueError):
            src.probs[0] = 0.9


def test_distance_counts_replacements():
    # one replacement: swap a z0 for a z1
    assert distance((3, 1), (2, 2)) == 1
    assert distance((4, 0, 0), (0, 2, 2)) == 4


def test_distance_rejects_mismatched_totals():
    # every row of both arrays must describe one dataset length
    for a, b in [([[2, 1], [3, 0]], [[2, 2]]), ([[2, 1]], [[3, 0], [2, 2]])]:
        with pytest.raises(InputError):
            distance_matrix(a, b)


@given(paired_counts())
def test_distance_symmetry_and_identity(pair):
    a, b = pair
    d = distance(a, b)
    assert d == distance(b, a) == dataset_distance(a, b)
    assert (d == 0) == (a == b)


@given(st.tuples(paired_counts(), st.randoms(use_true_random=False)))
def test_distance_triangle(args):
    (a, b), rng = args
    # build c by shuffling a's mass around, keeping the total
    counts = list(a)
    for _ in range(rng.randrange(4)):
        i = rng.randrange(len(counts))
        j = rng.randrange(len(counts))
        if counts[i] > 0:
            counts[i] -= 1
            counts[j] += 1
    c = tuple(counts)
    assert distance(a, b) <= distance(a, c) + distance(c, b)


def test_num_types_small_values():
    assert num_types(2, 4) == 5
    assert num_types(3, 4) == 15
    assert num_types(2, 1) == 2


@given(st.integers(2, 8), st.integers(1, 50))
def test_num_types_upper_bound_claim(m, n):
    exact = num_types(m, n)
    cap = num_types_upper_bound(m, n)
    assert exact <= cap
    assert (exact == cap) == (m == 2)


def test_enumerate_types_matches_count_and_order():
    types = [tuple(row) for row in type_counts(3, 4).tolist()]
    assert len(types) == num_types(3, 4)
    assert types == sorted(types)
    assert all(sum(s) == 4 for s in types)
    for i, s in enumerate(types):
        assert type_index(s) == i


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_type_counts_match_recursive_enumerator(m):
    for n in range(1, 9):
        counts = type_counts(m, n)
        total = num_types(m, n)
        assert counts.dtype == np.int64 and counts.shape == (total, m)
        assert [tuple(row) for row in counts.tolist()] == enumerate_types(m, n)
        np.testing.assert_array_equal(type_rank(counts), np.arange(total))


@given(st.integers(2, 6), st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_type_counts_property(m, n):
    counts = type_counts(m, n)
    assert [tuple(row) for row in counts.tolist()] == enumerate_types(m, n)
    np.testing.assert_array_equal(type_rank(counts), np.arange(num_types(m, n)))


def test_type_counts_read_only_and_capped(monkeypatch):
    counts = type_counts(3, 4)
    with pytest.raises(ValueError):
        counts[0, 0] = 1
    monkeypatch.setenv("GENBOUND_TYPE_CAP", "10")
    with pytest.raises(ResourceLimitError):
        type_counts(4, 100)


@given(st.lists(count_vectors.filter(lambda s: len(s) == 3),
                min_size=1, max_size=6))
def test_type_rank_matches_scalar_loop(vectors):
    # one call ranks vectors of different lengths, row by row
    ranks = type_rank(vectors)
    assert ranks.tolist() == [type_index(s) for s in vectors]


def test_type_rank_rejects_bad_counts():
    with pytest.raises(InputError):
        type_rank([[2, -1]])
    with pytest.raises(InputError):
        type_rank([[4]])


@given(st.integers(2, 4), st.integers(1, 7))
@settings(max_examples=30, deadline=None)
def test_distance_matrix_matches_dataset_distance(m, n):
    types = enumerate_types(m, n)
    dist = distance_matrix(type_counts(m, n), type_counts(m, n)[::-1])
    assert dist.dtype == np.int64
    expected = [[dataset_distance(a, b) for b in types[::-1]] for a in types]
    assert dist.tolist() == expected


def test_distance_matrix_rejects_mismatched_lattices():
    with pytest.raises(InputError):
        distance_matrix([[2, 1]], [[2, 2]])
    with pytest.raises(InputError):
        distance_matrix([[2, 1]], [[1, 1, 1]])


def test_enumeration_cap_enforced(monkeypatch):
    monkeypatch.setenv("GENBOUND_TYPE_CAP", "10")
    with pytest.raises(ResourceLimitError) as err:
        type_counts(4, 100)
    assert "GENBOUND_TYPE_CAP" in str(err.value)
    assert enforce_cap(10, "building 10 cells") == 10
    with pytest.raises(ResourceLimitError, match=(
            "^building 11 cells exceeds the enumeration cap of 10; "
            "raise GENBOUND_TYPE_CAP to override$")):
        enforce_cap(11, "building 11 cells")


def test_cap_env_var(monkeypatch):
    monkeypatch.setenv("GENBOUND_TYPE_CAP", "123")
    assert type_enumeration_cap() == 123
    monkeypatch.setenv("GENBOUND_TYPE_CAP", "not-a-number")
    with pytest.raises(InputError):
        type_enumeration_cap()


def test_type_probability_binomial_case():
    src = SourceDistribution([0.3, 0.7])
    expected = math.comb(5, 2) * 0.3**2 * 0.7**3
    # any sequence of counts: a tuple, a list, an int64 array row
    for s in ((2, 3), [2, 3], np.array([2, 3])):
        assert math.isclose(type_probability(s, src), expected, rel_tol=1e-12)


def test_type_probability_zero_outside_support():
    src = SourceDistribution([1.0, 0.0])
    assert type_probability((1, 1), src) == 0.0
    assert type_probability((2, 0), src) == 1.0


@given(
    st.integers(2, 3),
    st.integers(1, 9),
    st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
)
@settings(max_examples=50)
def test_type_probabilities_sum_to_one(m, n, raw):
    total = math.fsum(raw[:m])
    src = SourceDistribution([x / total for x in raw[:m]])
    mass = math.fsum(type_probability(s, src) for s in enumerate_types(m, n))
    assert math.isclose(mass, 1.0, abs_tol=1e-12)


def test_type_probabilities_are_the_scalar_values_in_row_order():
    src = SourceDistribution([0.2, 0.5, 0.3])
    counts = type_counts(3, 7)
    probs = type_probabilities(counts, src)
    assert probs.dtype == np.float64 and probs.shape == (len(counts),)
    expected = [type_probability(s, src) for s in enumerate_types(3, 7)]
    assert probs.tolist() == expected  # bit for bit
    empty = type_probabilities(counts[:0], src)
    assert empty.dtype == np.float64 and empty.shape == (0,)


def test_type_probability_large_n_stays_finite():
    # big multinomial coefficients must not overflow to inf
    src = SourceDistribution.uniform(2)
    p = type_probability((600, 600), src)
    assert 0.0 < p < 1.0


def exact_type_probability(counts, probs):
    """n! / prod(c!) * prod(p ** c) in rational arithmetic, with each
    probability taken as the exact value of its float."""
    value = Fraction(1)
    partial = 0
    for c, p in zip(counts, probs):
        partial += c
        value *= math.comb(partial, c) * Fraction(p) ** c
    return value


@pytest.mark.parametrize("counts, probs", [
    # the float mass 0.001**110 * 0.999**890 underflows to 0.0
    ((110, 890), (0.001, 0.999)),
    # the float mass is subnormal, about 1e-317, and keeps ~6 digits
    ((360, 778), (0.41, 0.59)),
    # normal-range mass, for contrast
    ((30, 50), (0.41, 0.59)),
])
def test_type_probability_keeps_relative_accuracy(counts, probs):
    exact = exact_type_probability(counts, probs)
    got = type_probability(counts, SourceDistribution(probs))
    assert got > 0.0
    assert abs(Fraction(got) - exact) <= Fraction(1, 10**12) * exact


@pytest.mark.parametrize("counts, probs", [
    ((110, 890), (0.001, 0.999)),
    ((360, 778), (0.41, 0.59)),
    ((30, 50), (0.41, 0.59)),
    ((0, 2000), (0.5, 0.5)),  # 2**-2000: no float probability holds it
    ((3, 1, 4), (0.2, 0.3, 0.5)),
])
def test_type_log_probability_follows_the_exact_value(counts, probs):
    exact = exact_type_probability(counts, probs)
    exact_log = math.log(exact.numerator) - math.log(exact.denominator)
    got = type_log_probabilities(np.array([counts]), SourceDistribution(probs))
    assert got.shape == (1,) and abs(got[0] - exact_log) <= 1e-10


def test_type_log_probabilities_row_order_and_zero_symbols():
    src = SourceDistribution([0.5, 0.5, 0.0])
    counts = type_counts(3, 6)
    logs = type_log_probabilities(counts, src)
    probs = type_probabilities(counts, src)
    assert (np.isneginf(logs) == (probs == 0.0)).all()
    finite = probs > 0
    np.testing.assert_allclose(np.exp(logs[finite]), probs[finite], rtol=1e-13)


def test_check_cap_counts_and_guards(monkeypatch):
    assert check_cap(3, 4) == num_types(3, 4)
    monkeypatch.setenv("GENBOUND_TYPE_CAP", "10")
    with pytest.raises(ResourceLimitError):
        check_cap(4, 100)
    with pytest.raises(InputError):
        check_cap(1, 5)


def test_source_parse():
    assert SourceDistribution.parse("0.25, 0.75") == SourceDistribution([0.25, 0.75])
    with pytest.raises(InputError):
        SourceDistribution.parse("0.5,x")


def test_sigma_from_loss_range():
    table = np.array([[0.0, 1.0], [0.25, 0.75]])
    assert sigma_sub_gaussian(table) == 0.5
    assert sigma_sub_gaussian(np.array([[0.4, 0.4]])) == 0.0


def test_sigma_rejects_bad_tables():
    with pytest.raises(InputError):
        sigma_sub_gaussian(np.array([1.0, 2.0]))
    with pytest.raises(InputError):
        sigma_sub_gaussian(np.array([[np.inf, 0.0]]))
