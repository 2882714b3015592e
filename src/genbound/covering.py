"""Deterministic covering constructions for count vectors.

Three cover families, all with analytically certified radii in the
replacement distance:

- full grid: split [0, n] into t cells per free coordinate (all but the
  last, which is pinned by the sum), pick one integer atom per cell, and
  patch the sum constraint afterwards; at most t**(m-1) centers with
  radius (n/(2t) + 1/2)(m - 1);
- simplex grid: same cells, but only index tuples whose cell indices sum
  to at most t - 1 (the cells actually meeting the feasible region);
  exactly S_{m-1}(t) = C(t + m - 2, m - 1) cells before deduplication;
- typical grid: covers only the typical count vectors of a source,
  splitting each symbol's typical range into t cells (a range holding
  fewer than t atoms puts every atom on its axis); radius
  sqrt(n log n) * m / t. The cover keeps the source's probabilities, so
  verify_cover checks it against the typical set it was built for.

The certified radius stored on a cover is always the analytic bound.
The achieved radius is a measured quantity reported by verify_cover and
never substituted into any formula. Atom selection inside a cell with m
atoms: odd m takes the central atom, even m behaves as if the cell were
one unit wider and takes that center (the upper-middle atom), so the
per-coordinate error never exceeds (floor(cell length) + 1) / 2.

A cover's centers are one read-only C x m int64 array, a count vector
per row. Everything here is deterministic: same inputs, same centers,
same order. All three builders work on all rows at once in numpy, with
two shared pieces: one table of per-axis cell centers, and one leveling step
that takes a set number of units off each row's largest entries, the
first on ties. The grids patch their sums with it; the typical grid uses
it in both directions, to grow a row short of n and to shrink a row over
it. Cell bounds are exact integer arithmetic, so neither `cover` nor
`verify-mi` loads the fractions or decimal modules. Every builder checks
its cell count (t**(m-1) full, C(t + m - 2, m - 1) simplex, t**m
typical) against the enumeration cap before it builds anything.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import InputError
from .records import Record
from .types_core import (
    SourceDistribution,
    distance_matrix,
    enforce_cap,
    row_blocks,
    type_counts,
)

__all__ = [
    "CoverKind",
    "CoverSpec",
    "CoverVerification",
    "simplex_hypercube_count",
    "build_full_grid_cover",
    "build_simplex_grid_cover",
    "typical_epsilon",
    "build_typical_cover",
    "verify_cover",
]


class CoverKind(enum.Enum):
    FULL_GRID = "full_grid"
    SIMPLEX_GRID = "simplex_grid"
    TYPICAL_GRID = "typical_grid"


class CoverSpec(Record):
    """A finished cover: centers, grid parameter, and its analytic radius.

    centers is a read-only C x m int64 array, one count vector per row:
    at least one row and two columns, non-negative, no row twice, and one
    row sum (the dataset length n >= 1). A typical-grid cover covers the
    typical set of one source, so it keeps that source's m probabilities
    as source_probs, a read-only float64 array; a grid cover keeps none.
    """

    __slots__ = ("centers", "t", "certified_radius", "kind", "source_probs")

    def __init__(self, centers, t: int, certified_radius: float, kind: CoverKind,
                 source_probs=None) -> None:
        try:
            centers = np.array(centers, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            raise InputError("cover centers must be equal-length rows of int64 "
                             "counts") from None
        if centers.ndim != 2 or centers.shape[0] < 1:
            raise InputError("cover must have at least one center")
        if centers.shape[1] < 2:
            raise InputError("count vectors need at least two symbols")
        if (centers < 0).any():
            raise InputError("cover centers must have non-negative counts")
        sums = centers.sum(axis=1)
        if (sums != sums[0]).any() or sums[0] < 1:
            raise InputError("cover centers must share one alphabet and length")
        if _first_distinct_rows(centers).size != centers.shape[0]:
            raise InputError("cover centers must be duplicate-free")
        if t < 1:
            raise InputError(f"grid parameter must be positive, got {t}")
        if (kind is CoverKind.TYPICAL_GRID) != (source_probs is not None):
            raise InputError("a typical cover, and only a typical cover, keeps "
                             "the probabilities of its source")
        if source_probs is not None:
            source_probs = SourceDistribution(source_probs).probs
            if source_probs.size != centers.shape[1]:
                raise InputError(f"source over {source_probs.size} symbols does "
                                 f"not match cover over {centers.shape[1]}")
        centers.flags.writeable = False
        self._assign(centers, t, certified_radius, kind, source_probs)

    @property
    def n(self) -> int:
        return int(self.centers[0].sum())

    @property
    def alphabet_size(self) -> int:
        return self.centers.shape[1]


def _first_distinct_rows(rows: np.ndarray) -> np.ndarray:
    """Index of the first occurrence of each distinct row, in row order.
    Sorts rows directly, so no count is ranked and any n works."""
    order = np.lexsort(rows.T[::-1])  # stable: equal rows keep their order
    ranked = rows[order]
    first = np.ones(rows.shape[0], dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return np.sort(order[first])


class CoverVerification(Record):
    """Outcome of an exhaustive radius check; worst is the witness count
    vector as a tuple, or None."""

    __slots__ = ("achieved_radius", "verified", "checked_vectors", "worst")

    def __init__(self, achieved_radius: int, verified: bool,
                 checked_vectors: int, worst: tuple[int, ...] | None) -> None:
        self._assign(achieved_radius, verified, checked_vectors, worst)


def simplex_hypercube_count(k: int, t: int) -> int:
    """Number of k-dimensional grid cells meeting the region under the
    simplex: S_k(t) = C(t + k - 1, k), exact.

    Satisfies S_1(t) = t, S_k(1) = 1, and the recursion
    S_k(t) = sum_{j=1..t} S_{k-1}(j).
    """
    if k < 1:
        raise InputError(f"dimension must be positive, got {k}")
    if t < 1:
        raise InputError(f"grid parameter must be positive, got {t}")
    return math.comb(t + k - 1, k)


def _cell_atom_range(length: int, t: int, j):
    """Integer atoms inside cell j of [0, length] split into t equal cells:
    ceil(j*length/t) to floor((j+1)*length/t), in exact integer arithmetic.
    j is one index or an object array of them."""
    return -(-j * length // t), (j + 1) * length // t


def _axis_centers(length: int, t: int) -> np.ndarray:
    """Representative atom of each cell of [0, length] split into t equal
    cells, in cell order, skipping cells that hold no integer atom.

    The central atom for an odd atom count, the center of the
    one-unit-enlarged cell otherwise. Cell bounds are Python ints, since
    j * length may pass int64.
    """
    lo, hi = _cell_atom_range(length, t, np.arange(t, dtype=object))
    return (lo + (hi - lo + 1) // 2)[hi >= lo].astype(np.int64)


def _cut_largest(x: np.ndarray, over: np.ndarray) -> np.ndarray:
    """Each row of x after over[row] steps of "decrement the largest
    entry, the first on ties".

    Done for all rows at once: the largest entries are cut to the least
    level L with sum(max(x - L, 0)) <= over, which is
    max_j ceil((top-j sum - over) / j), and the decrements still owed come
    one each off the entries at L, first index first.
    """
    k = x.shape[1]
    over = over[:, None]
    top = np.cumsum(-np.sort(-x, axis=1), axis=1)
    level = (-((over - top) // np.arange(1, k + 1))).max(axis=1, keepdims=True)
    cut = np.minimum(x, level)
    owed = over - (x - cut).sum(axis=1, keepdims=True)
    at_level = x >= level
    return cut - (at_level & (np.cumsum(at_level, axis=1) <= owed))


def _patch_sums(coords: np.ndarray, n: int) -> np.ndarray:
    """Make each row of free coordinates feasible and append the pinned one:
    while the free coordinates overshoot n, decrement the largest one, the
    first on ties; the pinned last coordinate absorbs whatever remains."""
    patched = _cut_largest(coords, np.maximum(coords.sum(axis=1) - n, 0))
    return np.column_stack([patched, n - patched.sum(axis=1)])


def _check_grid_args(alphabet_size: int, n: int, t: int) -> None:
    if alphabet_size < 2:
        raise InputError(f"alphabet size must be at least 2, got {alphabet_size}")
    if n < 1:
        raise InputError(f"dataset length must be positive, got {n}")
    if (alphabet_size - 1) * n >= 2**63:
        # the sum of the free coordinates must fit an int64
        raise InputError(f"dataset length {n} is too large for int64 counts")
    if not 1 <= t <= n + 1:
        raise InputError(
            f"grid parameter must satisfy 1 <= t <= n + 1, got t={t} for n={n}"
        )


def _grid_cover(alphabet_size: int, n: int, t: int, kind: CoverKind) -> CoverSpec:
    """One center per grid cell, in cell-index order: every cell for the
    full grid, only cells whose indices sum to at most t - 1 for the
    simplex grid. Centers are patched to valid count vectors and
    deduplicated, first occurrence kept. The cell count is checked
    against the enumeration cap before anything is built."""
    _check_grid_args(alphabet_size, n, t)
    k = alphabet_size - 1
    # at t = 1 both grids are the one cell at the origin
    simplex = kind is CoverKind.SIMPLEX_GRID and t > 1
    cells = simplex_hypercube_count(k, t) if simplex else t**k
    enforce_cap(cells, f"building {cells} grid cells ({kind.value}, alphabet "
                       f"size {alphabet_size}, t={t})")
    if simplex:
        # index tuples summing to at most t - 1, in product order: the
        # count vectors of t - 1 over k + 1 parts, the last part dropped
        idx = type_counts(k + 1, t - 1)[:, :k]
    else:
        idx = np.indices((t,) * k).reshape(k, -1).T
    centers = _patch_sums(_axis_centers(n, t)[idx], n)
    return CoverSpec(centers[_first_distinct_rows(centers)], t,
                     (n / (2.0 * t) + 0.5) * (alphabet_size - 1), kind)


def build_full_grid_cover(alphabet_size: int, n: int, t: int) -> CoverSpec:
    """Cover all count vectors with one center per grid cell.

    Cells are the t**(m-1) products of per-coordinate intervals over the
    free coordinates. Certified radius: (n/(2t) + 1/2)(m - 1), which also
    stays below (n/t)(m - 1).
    """
    return _grid_cover(alphabet_size, n, t, CoverKind.FULL_GRID)


def build_simplex_grid_cover(alphabet_size: int, n: int, t: int) -> CoverSpec:
    """Full-grid construction restricted to cells meeting the feasible region.

    Keeps exactly the cells whose index tuples sum to at most t - 1, i.e.
    S_{m-1}(t) cells. Same certified radius as the full grid at the same t.
    """
    return _grid_cover(alphabet_size, n, t, CoverKind.SIMPLEX_GRID)


def typical_epsilon(n: int) -> float:
    """Default typicality threshold sqrt(log(n) / n)."""
    if n < 2:
        raise InputError(f"typicality needs n >= 2, got {n}")
    return math.sqrt(math.log(n) / n)


def _typical_mask(counts: np.ndarray, probs: np.ndarray, epsilon: float) -> np.ndarray:
    """Typicality of each count vector (the last axis of counts)."""
    freqs = counts / counts.sum(axis=-1, keepdims=True)
    return np.where(
        probs == 0.0, counts == 0, np.abs(freqs - probs) <= epsilon
    ).all(axis=-1)


def _typical_range(n: int, p: float, epsilon: float) -> tuple[int, int]:
    """Smallest and largest count a symbol may take in a typical vector.

    Tests every count with the float arithmetic _typical_mask uses, so
    the cover and the membership test can never disagree on borderline
    counts.
    """
    if p == 0.0:
        return 0, 0
    ok = np.flatnonzero(np.abs(np.arange(n + 1) / n - p) <= epsilon)
    return int(ok[0]), int(ok[-1])


def build_typical_cover(source: SourceDistribution, n: int, t: int) -> CoverSpec:
    """Cover the typical set, gridding every symbol's typical count range.

    Works in the full m-dimensional box (one axis per symbol, not m - 1),
    splitting each symbol's typical range [lo, hi] into t cells and taking
    one atom per cell as the grids do. Cells without an atom are skipped,
    so a range holding fewer than t atoms contributes each of its atoms.
    Every combination of per-symbol atoms is patched to sum to n one unit
    at a time: a row short of n grows the symbol with the most room left
    below its hi, a row over n shrinks the symbol furthest above its lo,
    the first symbol on ties either way. Rows are deduplicated, first
    occurrence kept, in product order. Certified radius:
    sqrt(n log n) * m / t.
    """
    if n < 2:
        raise InputError(f"typical covers need n >= 2, got {n}")
    eps = typical_epsilon(n)
    t_max = 2.0 * math.sqrt(n * math.log(n))
    if not 1 <= t <= t_max:
        raise InputError(
            f"grid parameter must satisfy 1 <= t <= 2*sqrt(n log n) = {t_max:.3f}, "
            f"got t={t} for n={n}"
        )
    m = source.alphabet_size
    enforce_cap(t**m, f"building {t**m} grid cells (typical_grid, alphabet "
                      f"size {m}, t={t})")
    # _typical_range tests every count from 0 to n, one array of n + 1
    enforce_cap(n + 1, f"scanning {n + 1} counts for each symbol's typical range")
    ranges = [_typical_range(n, float(p), eps) for p in source.probs]
    axes = [lo + _axis_centers(hi - lo, t) for lo, hi in ranges]
    idx = np.indices([axis.size for axis in axes]).reshape(m, -1)
    coords = np.column_stack([axis[i] for axis, i in zip(axes, idx)])
    lo, hi = np.array(ranges).T
    deficit = n - coords.sum(axis=1)
    grown = hi - _cut_largest(hi - coords, np.maximum(deficit, 0))
    centers = lo + _cut_largest(grown - lo, np.maximum(-deficit, 0))
    radius = math.sqrt(n * math.log(n)) * m / t
    return CoverSpec(centers[_first_distinct_rows(centers)], t, radius,
                     CoverKind.TYPICAL_GRID, source_probs=source.probs)


def verify_cover(cover: CoverSpec) -> CoverVerification:
    """Exhaustively check that every relevant count vector lies within the
    certified radius of some center.

    Full and simplex covers are checked against every count vector;
    typical covers against the typical set of the source they keep, at
    the threshold typical_epsilon(n) they were built with. The witness is
    the first count vector, in lexicographic order, at the achieved
    radius (None when every vector is a center). Count vectors are
    checked a row block at a time against every center, so beyond the
    lattice and the centers the check holds one block.
    """
    counts = type_counts(cover.alphabet_size, cover.n)
    if cover.kind is CoverKind.TYPICAL_GRID:
        counts = counts[_typical_mask(counts, cover.source_probs,
                                      typical_epsilon(cover.n))]
    worst: tuple[int, ...] | None = None
    achieved = 0
    for rows in row_blocks(counts.shape[0], len(cover.centers)):
        block = counts[rows]
        best = distance_matrix(block, cover.centers).min(axis=1)
        i = int(np.argmax(best))
        if best[i] > achieved:
            achieved = int(best[i])
            worst = tuple(block[i].tolist())
    return CoverVerification(
        achieved_radius=achieved,
        verified=achieved <= cover.certified_radius + 1e-12,
        checked_vectors=int(counts.shape[0]),
        worst=worst,
    )
