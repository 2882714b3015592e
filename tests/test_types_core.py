"""Count vectors, type enumeration, and the replacement metric."""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genbound.types_core
from genbound.errors import InputError, ResourceLimitError
from genbound.types_core import (
    BLOCK_CELLS,
    BLOCK_ROWS,
    SourceDistribution,
    check_cap,
    distance_matrix,
    enforce_cap,
    num_types,
    row_blocks,
    sigma_sub_gaussian,
    type_enumeration_cap,
    type_counts,
    type_log_probabilities,
    type_probabilities,
    type_rank,
)
from lattice_reference import (
    dataset_distance,
    enumerate_types,
    num_types_upper_bound,
    type_index,
    type_probability,
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
    """The checks on count vectors, made once per array where they enter
    type_log_probabilities (and so type_probabilities): one bad row
    refuses the array."""

    SOURCE = SourceDistribution.uniform(2)

    def test_rejects_negative(self):
        with pytest.raises(InputError, match="non-negative"):
            type_log_probabilities([(2, 2), (3, -1)], self.SOURCE)

    def test_rejects_empty_dataset(self):
        with pytest.raises(InputError, match="non-empty"):
            type_log_probabilities([(1, 0), (0, 0)], self.SOURCE)

    def test_rejects_single_symbol(self):
        with pytest.raises(InputError, match="two symbols"):
            type_log_probabilities([(4,)], self.SOURCE)
        with pytest.raises(InputError, match="two symbols"):
            type_log_probabilities((1, 3), self.SOURCE)  # one vector, not rows

    def test_rejects_alphabet_mismatch(self):
        with pytest.raises(InputError, match="does not match"):
            type_probabilities([(1, 2, 3)], self.SOURCE)


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
    assert dist.dtype == np.int8  # holds 2n <= 14
    expected = [[dataset_distance(a, b) for b in types[::-1]] for a in types]
    assert dist.tolist() == expected


def test_distance_matrix_rejects_mismatched_lattices():
    with pytest.raises(InputError):
        distance_matrix([[2, 1]], [[2, 2]])
    with pytest.raises(InputError):
        distance_matrix([[2, 1]], [[1, 1, 1]])
    # equal totals, but a negative count could take an L1 sum past 2n
    with pytest.raises(InputError, match="non-negative"):
        distance_matrix([[3, -1]], [[1, 1]])


@pytest.mark.parametrize("n, dtype", [
    (63, np.int8), (64, np.int16), (16383, np.int16), (16384, np.int32),
])
def test_distance_matrix_narrows_to_the_type_that_holds_2n(n, dtype):
    # (n, 0, 0) against (0, n, 0) sums 2n before halving, the most any
    # pair can: every distance equals the int64 reference at each edge
    counts = np.array([[n, 0, 0], [0, n, 0], [0, 0, n], [1, n - 1, 0],
                       [n // 2, 0, n - n // 2], [0, 1, n - 1]], dtype=np.int64)
    dist = distance_matrix(counts, counts[::-1])
    reference = np.abs(counts[:, None, :] - counts[None, ::-1, :]).sum(axis=2) // 2
    assert dist.dtype == dtype
    assert np.array_equal(dist, reference) and dist.max() == n


@given(st.integers(0, 3000), st.one_of(st.integers(0, 3 * BLOCK_CELLS),
                                       st.sampled_from([8192, 8193, BLOCK_CELLS])))
def test_row_blocks_tile_the_rows_within_the_bounds(total, width):
    blocks = list(row_blocks(total, width))
    # every row once, in order, by contiguous slices
    assert [i for rows in blocks for i in range(total)[rows]] == list(range(total))
    assert all(rows.step is None for rows in blocks)
    sizes = [rows.stop - rows.start for rows in blocks]
    assert all(1 <= size <= BLOCK_ROWS for size in sizes)
    # the cell bound holds unless one row alone is wider
    assert all(size * width <= BLOCK_CELLS or size == 1 for size in sizes)
    if width <= 8192:  # every kernel and benchmark op keeps 256-row blocks
        assert sizes[:-1] == [BLOCK_ROWS] * (len(sizes) - 1)


def test_row_blocks_sizes():
    assert [(r.start, r.stop) for r in row_blocks(600, 0)] == [
        (0, 256), (256, 512), (512, 600)]  # no zero column: full blocks
    assert [r.stop - r.start for r in row_blocks(5, 10_000)] == [5]
    assert [r.stop - r.start for r in row_blocks(1000, 10_000)] == [209] * 4 + [164]
    assert [r.stop - r.start for r in row_blocks(3, BLOCK_CELLS + 1)] == [1] * 3
    assert list(row_blocks(0, 7)) == []


def test_row_blocks_read_the_bounds_when_called(monkeypatch):
    monkeypatch.setattr(genbound.types_core, "BLOCK_CELLS", 100)
    assert [r.stop - r.start for r in row_blocks(25, 10)] == [10, 10, 5]
    monkeypatch.setattr(genbound.types_core, "BLOCK_ROWS", 4)
    assert [r.stop - r.start for r in row_blocks(10, 10)] == [4, 4, 2]


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
    # any array-like of count vectors: tuples, lists, an int64 array
    for rows in (((2, 3),), [[2, 3]], np.array([[2, 3]])):
        (got,) = type_probabilities(rows, src)
        assert math.isclose(got, expected, rel_tol=1e-12)


def test_type_probability_zero_outside_support():
    src = SourceDistribution([1.0, 0.0])
    assert type_probabilities([(1, 1), (2, 0)], src).tolist() == [0.0, 1.0]


@given(
    st.integers(2, 3),
    st.integers(1, 9),
    st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
)
@settings(max_examples=50)
def test_type_probabilities_sum_to_one(m, n, raw):
    total = math.fsum(raw[:m])
    src = SourceDistribution([x / total for x in raw[:m]])
    mass = math.fsum(type_probabilities(type_counts(m, n), src).tolist())
    assert math.isclose(mass, 1.0, abs_tol=1e-12)


def exact_type_probability(counts, probs):
    """n! / prod(c!) * prod(p ** c) in rational arithmetic, with each
    probability taken as the exact value of its float."""
    value = Fraction(1)
    partial = 0
    for c, p in zip(counts, probs):
        partial += c
        value *= math.comb(partial, c) * Fraction(p) ** c
    return value


def test_type_probabilities_are_the_scalar_values_in_row_order():
    # row i is the i-th count vector of the recursive enumeration, within
    # the n < 300 bar of the exact value (the scalar path's big-integer
    # rounding is not the log-domain one, so no bit-equality)
    src = SourceDistribution([0.2, 0.5, 0.3])
    counts = type_counts(3, 7)
    probs = type_probabilities(counts, src)
    assert probs.dtype == np.float64 and probs.shape == (len(counts),)
    for got, s in zip(probs.tolist(), enumerate_types(3, 7)):
        exact = exact_type_probability(s, src.probs)
        assert abs(Fraction(got) - exact) <= Fraction(5, 10**14) * exact, s
        assert math.isclose(got, type_probability(s, src), rel_tol=5e-14)
    empty = type_probabilities(counts[:0], src)
    assert empty.dtype == np.float64 and empty.shape == (0,)


def test_type_probability_large_n_stays_finite():
    # big multinomial coefficients must not overflow to inf
    src = SourceDistribution.uniform(2)
    (p,) = type_probabilities([(600, 600)], src)
    assert 0.0 < p < 1.0


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
    (got,) = type_probabilities([counts], SourceDistribution(probs))
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
    # a symbol of probability 0 that occurs gives -inf, and one that does
    # not leaves the row its binomial value
    src = SourceDistribution([0.5, 0.5, 0.0])
    logs = type_log_probabilities(type_counts(3, 6), src)
    reference = [type_probability(s, src) for s in enumerate_types(3, 6)]
    assert np.isneginf(logs).tolist() == [p == 0.0 for p in reference]
    finite = np.isfinite(logs)
    np.testing.assert_allclose(np.exp(logs[finite]),
                               np.array(reference)[finite], rtol=1e-13)
    assert np.exp(logs).tolist()[0] == 0.0  # (0, 0, 6)


def dec_pi():
    """pi to the context's precision: the series of the decimal module's
    documentation."""
    with localcontext() as ctx:
        ctx.prec += 2
        lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def decimal_stirlerr(k):
    """log k! - log(sqrt(2 pi k) (k/e)**k) in 60-digit decimal."""
    with localcontext() as ctx:
        ctx.prec = 60
        dk = Decimal(k)
        return (Decimal(math.factorial(k)).ln() - (dk + Decimal("0.5")) * dk.ln()
                + dk - (2 * dec_pi()).ln() / 2)


def test_stirlerr_literals_are_the_nearest_doubles():
    table = genbound.types_core._STIRLERR
    assert table.shape == (16,)
    for k in range(1, 16):
        assert table[k] == float(decimal_stirlerr(k)), k


def test_stirlerr_series_above_the_table():
    ks = [16, 17, 20, 35, 36, 80, 81, 500, 501, 4999]
    got = genbound.types_core._stirlerr(np.array(ks))
    for k, value in zip(ks, got.tolist()):
        assert abs(Decimal(value) - decimal_stirlerr(k)) <= Decimal("2e-16"), k


def decimal_type_probabilities(counts, probs):
    """n! / prod(c!) * prod(p ** c) of each row in 60-digit decimal, with
    each probability the exact value of its float."""
    with localcontext() as ctx:
        ctx.prec = 60
        n = int(counts[0].sum())
        fact = [Decimal(1)]
        for k in range(1, n + 1):
            fact.append(fact[-1] * k)
        powers = []
        for p in probs:
            column = [Decimal(1)]
            for _ in range(n):
                column.append(column[-1] * Decimal(float(p)))
            powers.append(column)
        values = []
        for row in counts.tolist():
            value = fact[n]
            for a, c in enumerate(row):
                value = value / fact[c] * powers[a][c]
            values.append(value)
    return values


@pytest.mark.parametrize("m, n, probs, bar", [
    # below n = 300: 5e-14
    (3, 16, (1 / 3,) * 3, 5e-14),
    (3, 40, (1 / 3,) * 3, 5e-14),
    (4, 29, (0.25,) * 4, 5e-14),
    (4, 60, (0.25,) * 4, 5e-14),
    (4, 60, (0.05, 0.05, 0.05, 0.85), 5e-14),
    (3, 98, (1 / 3,) * 3, 5e-14),
    # at n = 300 and n = 4999: 1e-12
    (2, 300, (0.3, 0.7), 1e-12),
    (2, 4999, (0.3, 0.7), 1e-12),
])
def test_type_probability_accuracy_ladder(m, n, probs, bar):
    # relative error of P against 60-digit decimal wherever P is a normal
    # float; where it underflows, log P within 1e-10. exp(log P) loses
    # about |log P| * 1.1e-16 in far tails, which sets the bars
    src = SourceDistribution(probs)
    counts = type_counts(m, n)
    logs = type_log_probabilities(counts, src)
    probs_out = type_probabilities(counts, src)
    assert probs_out.tolist() == np.exp(logs).tolist()
    tiny = Decimal(np.finfo(float).tiny)
    underflowed = 0
    with localcontext() as ctx:
        ctx.prec = 60
        for got, log_got, exact in zip(probs_out.tolist(), logs.tolist(),
                                       decimal_type_probabilities(counts, src.probs)):
            if exact >= tiny:
                assert abs(Decimal(got) - exact) <= Decimal(bar) * exact, exact
            else:
                underflowed += 1
                assert abs(log_got - float(exact.ln())) <= 1e-10, exact
    assert (underflowed > 0) == (n == 4999)  # 2637 of its 5000 rows


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
