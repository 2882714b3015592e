"""Count-vector primitives on finite alphabets.

A dataset of n symbols drawn from a finite alphabet is summarized by its
count vector (the empirical histogram). Every permutation-invariant
algorithm sees only that summary, so the combinatorics of count vectors
carry the whole analysis. A count vector is a row of int64 counts; a
set of them is one array with a row each, and there is no count-vector
class. This module provides:

- exact counting of the count vectors, and all T of them as one
  T x m array in lexicographic order, with its vectorised rank,
- the replacement distance between same-length datasets (half the L1
  gap between their counts) between every row of two arrays,
- multinomial probabilities of count vectors under an i.i.d. source,
  and their logarithms where a probability underflows,
- the sub-Gaussian scale of a bounded loss table.

Counting is big-integer exact, and the int64 arrays hold no value above
T; floats appear only at the probability and loss boundaries.
Enumeration, and any other work that grows like it (a grid cover's
cells, say), is guarded by one cap (default 10**7 items), set by the
GENBOUND_TYPE_CAP environment variable. Work over a T x width array takes
BLOCK_ROWS rows at a time, so its temporaries stay one block.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, ResourceLimitError

__all__ = [
    "BLOCK_ROWS",
    "DEFAULT_TYPE_CAP",
    "TYPE_CAP_ENV_VAR",
    "SourceDistribution",
    "type_enumeration_cap",
    "num_types",
    "enforce_cap",
    "check_cap",
    "type_counts",
    "type_rank",
    "distance_matrix",
    "type_probability",
    "type_probabilities",
    "type_log_probabilities",
    "sigma_sub_gaussian",
]

DEFAULT_TYPE_CAP = 10_000_000
TYPE_CAP_ENV_VAR = "GENBOUND_TYPE_CAP"

# Rows per block wherever a T x width array is built, reduced or compared
# a block of rows at a time (the exponential kernel, KL blocks, cover
# checks): the temporaries are BLOCK_ROWS x width arrays, whatever T is.
BLOCK_ROWS = 256


def type_enumeration_cap() -> int:
    """Current enumeration cap: GENBOUND_TYPE_CAP if set, else 10**7."""
    raw = os.environ.get(TYPE_CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_TYPE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InputError(
            f"{TYPE_CAP_ENV_VAR} must be a positive integer, got {raw!r}"
        ) from exc
    if cap < 1:
        raise InputError(f"{TYPE_CAP_ENV_VAR} must be a positive integer, got {cap}")
    return cap


class SourceDistribution:
    """An i.i.d. source over the alphabet: one probability per symbol.

    Entries must be non-negative and sum to 1 within 1e-12. Inputs are
    rejected, never renormalized.
    """

    __slots__ = ("probs",)

    def __init__(self, probs: Iterable[float]) -> None:
        arr = np.asarray(list(probs), dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise InputError("source distribution needs at least two probabilities")
        if not np.all(np.isfinite(arr)):
            raise InputError("source probabilities must be finite")
        if np.any(arr < 0):
            raise InputError(f"source probabilities must be non-negative, got {arr.tolist()}")
        total = float(math.fsum(arr.tolist()))
        if abs(total - 1.0) > 1e-12:
            raise InputError(
                f"source probabilities must sum to 1 within 1e-12, got sum {total!r}"
            )
        arr.flags.writeable = False
        self.probs = arr

    @classmethod
    def parse(cls, text: str) -> "SourceDistribution":
        """A source from comma-separated probabilities, e.g. '0.2,0.8'."""
        try:
            probs = [float(x) for x in text.split(",")]
        except ValueError:
            raise InputError(
                f"source must be comma-separated numbers, got {text!r}"
            ) from None
        return cls(probs)

    @classmethod
    def uniform(cls, size: int) -> "SourceDistribution":
        if size < 2:
            raise InputError(f"alphabet size must be at least 2, got {size}")
        return cls([1.0 / size] * size)

    @property
    def alphabet_size(self) -> int:
        return int(self.probs.size)

    def __repr__(self) -> str:
        return f"SourceDistribution({self.probs.tolist()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceDistribution):
            return NotImplemented
        return self.probs.shape == other.probs.shape and bool(
            np.all(self.probs == other.probs)
        )


def num_types(alphabet_size: int, n: int) -> int:
    """Exact number of count vectors: C(n + m - 1, m - 1) for m symbols."""
    if alphabet_size < 1:
        raise InputError(f"alphabet size must be positive, got {alphabet_size}")
    if n < 1:
        raise InputError(f"dataset length must be positive, got {n}")
    return math.comb(n + alphabet_size - 1, alphabet_size - 1)


def enforce_cap(total: int, what: str) -> int:
    """total, after checking that it stays within type_enumeration_cap();
    `what` describes the work in the error, e.g. "enumerating 12 count
    vectors"."""
    limit = type_enumeration_cap()
    if total > limit:
        raise ResourceLimitError(
            f"{what} exceeds the enumeration cap of {limit}; raise "
            f"{TYPE_CAP_ENV_VAR} to override"
        )
    return total


def check_cap(alphabet_size: int, n: int) -> int:
    """Number of count vectors, after checking that the lattice is valid
    (alphabet size >= 2, n >= 1) and that enumerating it stays within
    type_enumeration_cap()."""
    if alphabet_size < 2:
        raise InputError(f"alphabet size must be at least 2, got {alphabet_size}")
    total = num_types(alphabet_size, n)
    return enforce_cap(total, f"enumerating {total} count vectors "
                              f"(alphabet size {alphabet_size}, n={n})")


def type_counts(alphabet_size: int, n: int) -> np.ndarray:
    """Every count vector as a row of a read-only T x m int64 array, in
    lexicographic order: the order kernel rows and serialized mechanism
    files rely on. Stars and bars: bar positions taken in lexicographic
    order give the counts in lexicographic order. The cap applies."""
    total = check_cap(alphabet_size, n)
    k = alphabet_size - 1
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n + k), k)),
        dtype=np.int64, count=total * k,
    ).reshape(total, k)
    counts = np.diff(bars, axis=1, prepend=-1, append=n + k) - 1
    counts.flags.writeable = False
    return counts


def type_rank(counts) -> np.ndarray:
    """Lexicographic rank of each count vector (the last axis): the sum
    over leading positions i of C(r_i + d_i - 1, d_i - 1) -
    C(r_i - c_i + d_i - 1, d_i - 1), the vectors with a smaller count
    there, for r_i counts left over d_i positions (hockey stick). No
    binomial read exceeds the number of count vectors: int64 is exact."""
    c = np.asarray(counts, dtype=np.int64)
    if c.ndim < 1 or c.shape[-1] < 2 or np.any(c < 0):
        raise InputError("count vectors need two or more non-negative counts")
    m = c.shape[-1]
    remaining = c.sum(axis=-1)
    table = np.zeros((int(remaining.max(initial=0)) + m, m), dtype=np.int64)
    table[:, 0] = 1
    for y in range(1, m):
        table[1:, y] = np.cumsum(table[:-1, y - 1])
    rank = np.zeros(c.shape[:-1], dtype=np.int64)
    for i in range(m - 1):
        d = m - i
        rank += table[remaining + d - 1, d - 1]
        remaining = remaining - c[..., i]
        rank -= table[remaining + d - 1, d - 1]
    return rank


def distance_matrix(a, b) -> np.ndarray:
    """Replacement distance (half the L1 gap) between every row of a and
    every row of b as an int64 array, accumulated one symbol at a time in
    one scratch array of the result's size."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1] or (
        (totals := np.concatenate([a.sum(axis=1), b.sum(axis=1)])) != totals[:1]
    ).any():
        raise InputError("count arrays must share one alphabet and dataset length")
    dist = np.zeros((a.shape[0], b.shape[0]), dtype=np.int64)
    gap = np.empty_like(dist)  # one buffer for every symbol's gaps
    for j in range(a.shape[1]):
        np.subtract(a[:, j, None], b[None, :, j], out=gap)
        dist += np.abs(gap, out=gap)
    dist //= 2
    return dist


def type_probability(counts: Sequence[int], source: SourceDistribution) -> float:
    """Multinomial probability of observing this count vector.

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


def type_probabilities(counts, source: SourceDistribution) -> np.ndarray:
    """type_probability of each row of counts, as a float64 array in row
    order."""
    return np.array([type_probability(row, source)
                     for row in np.asarray(counts).tolist()], dtype=np.float64)


def type_log_probabilities(counts, source: SourceDistribution) -> np.ndarray:
    """Natural log of type_probability for each row of counts, from lgamma:
    log n! - sum_a log c_a! + sum_a c_a log p_a, and -inf where a symbol
    of probability 0 occurs. Finite where the probability underflows, but
    lgamma costs about 1e-11 relative in P at n in the thousands: this is
    the path for the tails a float probability cannot hold, not a
    replacement for type_probabilities."""
    c = np.asarray(counts, dtype=np.int64)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(int(c.max()) + 1)])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = c * np.log(source.probs)
    terms[c == 0] = 0.0  # 0 * log 0 is 0, not nan
    n = int(c[0].sum())
    return math.lgamma(n + 1.0) - log_fact[c].sum(axis=1) + terms.sum(axis=1)


def sigma_sub_gaussian(loss_table: np.ndarray) -> float:
    """Sub-Gaussian scale of a bounded loss table via the bounded-range rule.

    For each hypothesis row the loss of a random symbol lies in
    [row.min(), row.max()], so it is (range / 2)-sub-Gaussian; the table's
    scale is the worst row's. Rows index hypotheses, columns symbols.
    """
    table = np.asarray(loss_table, dtype=float)
    if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 2:
        raise InputError(
            "loss table must be a 2-D array with at least one hypothesis row "
            "and two symbol columns"
        )
    if not np.all(np.isfinite(table)):
        raise InputError("loss table entries must be finite")
    ranges = table.max(axis=1) - table.min(axis=1)
    return float(ranges.max() / 2.0)
