"""Count-vector primitives on finite alphabets.

A dataset of n symbols drawn from a finite alphabet is summarized by its
count vector (the empirical histogram). Every permutation-invariant
algorithm sees only that summary, so the combinatorics of count vectors
carry the whole analysis. This module provides:

- exact counting of the count vectors, and all T of them as one
  T x m array in lexicographic order, with its vectorised rank,
- the replacement distance between same-length datasets (half the L1
  gap between their counts), for one pair or between two arrays,
- multinomial probabilities of count vectors under an i.i.d. source,
- the sub-Gaussian scale of a bounded loss table.

Counting is big-integer exact, and the int64 arrays hold no value above
T; floats appear only at the probability and loss boundaries.
Enumeration is guarded by one cap (default 10**7 vectors), set by the
GENBOUND_TYPE_CAP environment variable.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError, ResourceLimitError
from .records import Record

__all__ = [
    "DEFAULT_TYPE_CAP",
    "TYPE_CAP_ENV_VAR",
    "CountVector",
    "SourceDistribution",
    "type_enumeration_cap",
    "type_of",
    "dataset_distance",
    "num_types",
    "num_types_upper_bound",
    "check_cap",
    "type_counts",
    "type_rank",
    "distance_matrix",
    "enumerate_types",
    "type_index",
    "type_probability",
    "sigma_sub_gaussian",
]

DEFAULT_TYPE_CAP = 10_000_000
TYPE_CAP_ENV_VAR = "GENBOUND_TYPE_CAP"


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


@functools.total_ordering
class CountVector(Record):
    """Histogram of a dataset: one non-negative count per symbol.

    Ordering is lexicographic on the counts, matching the public
    enumeration order.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: Iterable[int]) -> None:
        counts = tuple(int(c) for c in counts)
        if len(counts) < 2:
            raise InputError("count vector needs at least two symbols")
        if any(c < 0 for c in counts):
            raise InputError(f"counts must be non-negative, got {counts}")
        if sum(counts) < 1:
            raise InputError("count vector must describe a non-empty dataset")
        object.__setattr__(self, "counts", counts)

    # one field: compare and hash it directly, as covers hash every center
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.counts == other.counts

    def __hash__(self) -> int:
        return hash(self.counts)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.counts < other.counts

    @property
    def n(self) -> int:
        """Dataset length this histogram describes."""
        return sum(self.counts)

    @property
    def alphabet_size(self) -> int:
        return len(self.counts)

    def frequencies(self) -> np.ndarray:
        """Empirical distribution counts / n as a float array."""
        return np.asarray(self.counts, dtype=float) / self.n


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


def type_of(sequence: Sequence[int], alphabet_size: int) -> CountVector:
    """Count vector of a symbol-index sequence.

    Permutation-invariant by construction. An alphabet size below 2 and
    indices outside [0, alphabet_size) are rejected.
    """
    if alphabet_size < 2:
        raise InputError(f"alphabet size must be at least 2, got {alphabet_size}")
    if len(sequence) == 0:
        raise InputError("cannot take the type of an empty sequence")
    counts = [0] * alphabet_size
    for idx in sequence:
        i = int(idx)
        if i != idx or not 0 <= i < alphabet_size:
            raise InputError(
                f"symbol index {idx!r} outside alphabet of size {alphabet_size}"
            )
        counts[i] += 1
    return CountVector(tuple(counts))


def dataset_distance(s: CountVector, s2: CountVector) -> int:
    """Minimum number of single-element replacements between two datasets.

    Equals half the L1 distance between the count vectors. Defined only
    for equal alphabet sizes and equal dataset lengths.
    """
    if s.alphabet_size != s2.alphabet_size:
        raise InputError(
            f"alphabet sizes differ: {s.alphabet_size} vs {s2.alphabet_size}"
        )
    if s.n != s2.n:
        raise InputError(f"dataset lengths differ: {s.n} vs {s2.n}")
    gap = sum(abs(a - b) for a, b in zip(s.counts, s2.counts))
    return gap // 2


def num_types(alphabet_size: int, n: int) -> int:
    """Exact number of count vectors: C(n + m - 1, m - 1) for m symbols."""
    if alphabet_size < 1:
        raise InputError(f"alphabet size must be positive, got {alphabet_size}")
    if n < 1:
        raise InputError(f"dataset length must be positive, got {n}")
    return math.comb(n + alphabet_size - 1, alphabet_size - 1)


def num_types_upper_bound(alphabet_size: int, n: int) -> int:
    """Polynomial envelope (n + 1)**(m - 1); tight exactly when m = 2."""
    if alphabet_size < 2:
        raise InputError(f"alphabet size must be at least 2, got {alphabet_size}")
    if n < 1:
        raise InputError(f"dataset length must be positive, got {n}")
    return (n + 1) ** (alphabet_size - 1)


def check_cap(alphabet_size: int, n: int) -> int:
    """Number of count vectors, after checking that the lattice is valid
    (alphabet size >= 2, n >= 1) and that enumerating it stays within
    type_enumeration_cap()."""
    if alphabet_size < 2:
        raise InputError(f"alphabet size must be at least 2, got {alphabet_size}")
    total = num_types(alphabet_size, n)
    limit = type_enumeration_cap()
    if total > limit:
        raise ResourceLimitError(
            f"enumerating {total} count vectors (alphabet size {alphabet_size}, "
            f"n={n}) exceeds the enumeration cap of {limit}; raise "
            f"{TYPE_CAP_ENV_VAR} to override"
        )
    return total


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
    every row of b as an int64 array, accumulated one symbol at a time."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1] or (
        (totals := np.concatenate([a.sum(axis=1), b.sum(axis=1)])) != totals[:1]
    ).any():
        raise InputError("count arrays must share one alphabet and dataset length")
    dist = np.zeros((a.shape[0], b.shape[0]), dtype=np.int64)
    for j in range(a.shape[1]):
        gap = a[:, j, None] - b[None, :, j]
        dist += np.abs(gap, out=gap)
    dist //= 2
    return dist


def enumerate_types(alphabet_size: int, n: int) -> Iterator[CountVector]:
    """Yield every count vector in lexicographic order (the rows of
    type_counts as CountVector objects)."""
    for row in type_counts(alphabet_size, n).tolist():
        yield CountVector(tuple(row))


def type_index(s: CountVector) -> int:
    """Rank of a count vector in the lexicographic enumeration order."""
    return int(type_rank(s.counts))


def type_probability(s: CountVector, source: SourceDistribution) -> float:
    """Multinomial probability of observing this count vector.

    n! / prod(counts!) * prod(p_a ** counts_a), with the coefficient in
    exact big-integer arithmetic. When prod(p_a ** counts_a) falls below
    the normal float range the product is taken in log space, so tiny
    probabilities keep their relative accuracy instead of flushing to 0.
    Sums to 1 over all count vectors.
    """
    if s.alphabet_size != source.alphabet_size:
        raise InputError(
            f"count vector over {s.alphabet_size} symbols does not match "
            f"source over {source.alphabet_size}"
        )
    coef = 1
    partial = 0
    for c in s.counts:
        partial += c
        coef *= math.comb(partial, c)
    mass = 1.0
    for c, p in zip(s.counts, source.probs):
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
        c * math.log(p) for c, p in zip(s.counts, source.probs) if c > 0
    ))


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
