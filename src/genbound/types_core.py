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
- the log multinomial probability of every count vector under an
  i.i.d. source, in one numpy pass of Loader's form, finite where the
  probability underflows, and the probabilities as its exp,
- the sub-Gaussian scale of a bounded loss table.

Counting is big-integer exact, and the int64 arrays hold no value above
T (distances take the narrowest type that holds 2n); floats appear only
at the probability and loss boundaries.
Enumeration, and any other work that grows like it (a grid cover's
cells, say), is guarded by one cap (default 10**7 items), set by the
GENBOUND_TYPE_CAP environment variable. A pass over a T x width array
takes its rows from row_blocks, so its temporaries stay one block.
"""

from __future__ import annotations

import itertools
import math
import os
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError, ResourceLimitError

__all__ = [
    "BLOCK_ROWS", "BLOCK_CELLS", "row_blocks",
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
    "type_probabilities",
    "type_log_probabilities",
    "sigma_sub_gaussian",
]

DEFAULT_TYPE_CAP = 10_000_000
TYPE_CAP_ENV_VAR = "GENBOUND_TYPE_CAP"

# The most rows and cells of one row block (16 MiB as float64): every
# pass up to 8192 wide takes BLOCK_ROWS rows.
BLOCK_ROWS = 256
BLOCK_CELLS = BLOCK_ROWS * 8192


def row_blocks(total: int, width: int) -> Iterator[slice]:
    """The row slices, in order, of a pass over a total x width array:
    BLOCK_ROWS rows each, or fewer so that a block holds at most
    BLOCK_CELLS cells, and never fewer than one row."""
    step = max(1, min(BLOCK_ROWS, BLOCK_CELLS // max(width, 1)))
    return (slice(lo, min(lo + step, total)) for lo in range(0, total, step))


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
    every row of b, accumulated one symbol at a time in one scratch array
    of the result's size. Counts are non-negative and every row sums to
    one n, so no L1 sum passes 2n: the result and its scratch are in the
    narrowest signed integer type that holds 2n."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1] or (
        (totals := np.concatenate([a.sum(axis=1), b.sum(axis=1)])) != totals[:1]
    ).any():
        raise InputError("count arrays must share one alphabet and dataset length")
    if a.shape[1] < 2 or (a < 0).any() or (b < 0).any():
        raise InputError("count vectors need two or more non-negative counts")
    dtype = np.min_scalar_type(-(2 * int(totals.max(initial=0)) + 1))
    # one contiguous row of b's counts per symbol
    a, b = a.astype(dtype), np.ascontiguousarray(b.T, dtype=dtype)
    dist = np.subtract(a[:, 0, None], b[0])
    np.abs(dist, out=dist)
    gap = np.empty_like(dist)  # one buffer for every later symbol's gaps
    for j in range(1, a.shape[1]):
        np.subtract(a[:, j, None], b[j], out=gap)
        dist += np.abs(gap, out=gap)
    dist >>= 1  # every L1 sum is even and non-negative
    return dist


# stirlerr(0..15), the doubles nearest their 60-digit values; 0 is a placeholder
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


def _stirlerr(k: np.ndarray) -> np.ndarray:
    """stirlerr(k) = log k! - log(sqrt(2 pi k) (k/e)**k) for integer k: the
    table up to 15, above it the series 1/(12k) - 1/(360k^3) + 1/(1260k^5)
    - 1/(1680k^7) + 1/(1188k^9), whose next term is below 2e-16 there."""
    kf = np.maximum(k, 16).astype(float)
    kk = kf * kf
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk) / kk)
                        / kk) / kk) / kf
    return np.where(k <= 15, _STIRLERR[np.minimum(k, 15)], series)


def _bd0(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """The deviance x log(x / mean) + mean - x, for x >= 0 (mean at x = 0).
    Where |x - mean| < 0.1 (x + mean), the series 2x sum_j v^(2j+1)/(2j+1)
    - (x - mean) v in v = (x - mean)/(x + mean) keeps the digits that
    difference cancels; as v^2 < 0.01, nine terms leave the next below 1e-16."""
    with np.errstate(divide="ignore", invalid="ignore"):
        plain = np.where(x > 0, x * np.log(x / mean) - (x - mean), mean)
        v = (x - mean) / (x + mean)
        series, term = (x - mean) * v, 2 * x * v
        for odd in range(3, 21, 2):
            term *= v * v
            series += term / odd
    return np.where(np.abs(x - mean) < 0.1 * (x + mean), series, plain)


def type_log_probabilities(counts, source: SourceDistribution) -> np.ndarray:
    """Natural log of the multinomial probability n! / prod(c_a!) *
    prod(p_a ** c_a) of each row of counts, as a float64 array in row
    order: finite where the probability underflows, -inf where a symbol of
    probability 0 occurs. Each row needs one non-negative count per source
    symbol and a positive total.

    Loader's form (C. Loader, "Fast and Accurate Computation of Binomial
    Probabilities", 2000) has none of the large terms of log n! that
    cancel: stirlerr(n) + log(2 pi n)/2 - sum_{c_a > 0} [stirlerr(c_a) +
    log(2 pi c_a)/2] - sum_a bd0(c_a, n p_a).
    """
    c = np.asarray(counts, dtype=np.int64)
    if c.ndim != 2 or c.shape[1] < 2:
        raise InputError("count vectors need rows of at least two symbols")
    if (c < 0).any():
        raise InputError(f"counts must be non-negative, got {c.min()}")
    n = c.sum(axis=1)
    if (n < 1).any():
        raise InputError("count vector must describe a non-empty dataset")
    if c.shape[1] != source.alphabet_size:
        raise InputError(f"count vector over {c.shape[1]} symbols does not match "
                         f"source over {source.alphabet_size}")
    with np.errstate(divide="ignore"):
        terms = np.where(c > 0, _stirlerr(c) + 0.5 * np.log(2 * math.pi * c), 0.0)
    terms += _bd0(c.astype(float), n[:, None] * source.probs)
    return _stirlerr(n) + 0.5 * np.log(2 * math.pi * n) - terms.sum(axis=1)


def type_probabilities(counts, source: SourceDistribution) -> np.ndarray:
    """The exp of type_log_probabilities: P of each row, 0.0 off the support."""
    return np.exp(type_log_probabilities(counts, source))


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
