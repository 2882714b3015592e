"""Scalar references for the count lattice, kept in the tests.

The package holds count vectors only as rows of int64 arrays. These
loops take one count vector at a time, as a tuple of ints, and are what
the vectorised paths are checked against: type_probability, from an
exact big-integer coefficient, is the reference for the package's
log-domain type probabilities. The two envelopes at the end bound exact
counts the package computes; only the tests read them.
"""

from __future__ import annotations

import math
import sys

from genbound.errors import InputError


def enumerate_types(alphabet_size, n):
    """Every count vector of n over alphabet_size symbols, as tuples, in
    lexicographic order: the recursive generator."""

    def rec(prefix, remaining, dims):
        if dims == 1:
            yield prefix + (remaining,)
            return
        for head in range(remaining + 1):
            yield from rec(prefix + (head,), remaining - head, dims - 1)

    return list(rec((), n, alphabet_size))


def type_index(counts):
    """Lexicographic rank of one count vector: count the vectors with a
    smaller head, position by position."""
    rank, remaining, dims = 0, sum(counts), len(counts)
    for c in counts[:-1]:
        for v in range(c):
            rank += math.comb(remaining - v + dims - 2, dims - 2)
        remaining -= c
        dims -= 1
    return rank


def dataset_distance(a, b):
    """Replacement distance of two count vectors of one alphabet and one
    length: half their L1 gap."""
    assert len(a) == len(b) and sum(a) == sum(b), (a, b)
    return sum(abs(x - y) for x, y in zip(a, b)) // 2


def is_typical(counts, probs, epsilon):
    """Typicality, one symbol at a time: every frequency within epsilon
    of its probability, and zero-probability symbols unseen."""
    n = sum(counts)
    for c, p in zip(counts, probs):
        if p == 0.0:
            if c != 0:
                return False
        elif abs(c / n - p) > epsilon:
            return False
    return True


def type_probability(counts, source):
    """Multinomial probability of observing this count vector (a sequence
    of ints) under a SourceDistribution.

    n! / prod(counts!) * prod(p_a ** counts_a), with the coefficient in
    exact big-integer arithmetic. When prod(p_a ** counts_a) falls below
    the normal float range the product is taken in log space, so tiny
    probabilities keep their relative accuracy instead of flushing to 0.
    Sums to 1 over all count vectors. The counts must be non-negative,
    describe a non-empty dataset, and have one entry per source symbol.
    """
    counts = tuple(int(c) for c in counts)
    if len(counts) < 2:
        raise InputError("count vector needs at least two symbols")
    if any(c < 0 for c in counts):
        raise InputError(f"counts must be non-negative, got {counts}")
    if sum(counts) < 1:
        raise InputError("count vector must describe a non-empty dataset")
    if len(counts) != source.alphabet_size:
        raise InputError(
            f"count vector over {len(counts)} symbols does not match "
            f"source over {source.alphabet_size}"
        )
    coef = 1
    partial = 0
    for c in counts:
        partial += c
        coef *= math.comb(partial, c)
    mass = 1.0
    for c, p in zip(counts, source.probs):
        if c == 0:
            continue
        if p == 0.0:
            return 0.0
        mass *= float(p) ** c
    if mass >= sys.float_info.min:
        # coef * mass <= 1, so here the coefficient fits in a float too
        return float(coef) * mass
    # a subnormal mass has lost digits (or underflowed to 0): evaluate in
    # log space, from the exact coefficient
    return math.exp(math.log(coef) + math.fsum(
        c * math.log(p) for c, p in zip(counts, source.probs) if c > 0
    ))


def patch_sum(coords, n):
    """Grid-center sum patch, one center at a time: while the free
    coordinates overshoot n, decrement the largest (the first on ties);
    then append the pinned last coordinate."""
    overshoot = sum(coords) - n
    patched = list(coords)
    while overshoot > 0:
        i = max(range(len(patched)), key=lambda a: patched[a])
        patched[i] -= 1
        overshoot -= 1
    return tuple(patched) + (n - sum(patched),)


def num_types_upper_bound(alphabet_size, n):
    """Polynomial envelope (n + 1)**(m - 1) on the number of count
    vectors, for m >= 2 and n >= 1; tight exactly when m = 2."""
    return (n + 1) ** (alphabet_size - 1)


def simplex_hypercube_count_upper(k, t):
    """Smooth envelope (t + (k-1)/2)**k / k! on the simplex cell count
    S_k(t), for k, t >= 1."""
    return (t + (k - 1) / 2.0) ** k / math.factorial(k)
