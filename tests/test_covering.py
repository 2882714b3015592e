"""Grid and typical-set covers of the count lattice."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genbound.covering
import genbound.types_core
from genbound.covering import (
    CoverKind,
    CoverSpec,
    build_full_grid_cover,
    build_simplex_grid_cover,
    build_typical_cover,
    simplex_hypercube_count,
    typical_epsilon,
    verify_cover,
)
from genbound.errors import InputError, ResourceLimitError
from genbound.types_core import (
    SourceDistribution,
    distance_matrix,
    num_types,
    type_counts,
    type_probabilities,
)
from lattice_reference import (
    dataset_distance,
    enumerate_types,
    is_typical,
    patch_sum,
    simplex_hypercube_count_upper,
)


def typical(counts, source, epsilon):
    """The package's typicality test on one count vector."""
    return bool(genbound.covering._typical_mask(np.array(counts), source.probs, epsilon))


def rows(cover):
    """A cover's centers as a tuple of count tuples."""
    return tuple(map(tuple, cover.centers.tolist()))


def scalar_verify_cover(cover):
    """Reference cover check: every count vector against every center,
    the first vector at a new worst distance kept as the witness; a
    typical cover's vectors are those typical for its own source."""
    worst, achieved, checked = None, 0, 0
    for s in enumerate_types(cover.alphabet_size, cover.n):
        if cover.kind is CoverKind.TYPICAL_GRID and not is_typical(
            s, cover.source_probs, typical_epsilon(cover.n)
        ):
            continue
        checked += 1
        best = min(dataset_distance(s, c) for c in rows(cover))
        if best > achieved:
            achieved, worst = best, s
    return achieved, checked, worst


def test_simplex_count_known_values():
    assert simplex_hypercube_count(2, 4) == 10
    assert simplex_hypercube_count(3, 2) == 4


@given(st.integers(1, 20))
def test_simplex_count_one_dimension(t):
    assert simplex_hypercube_count(1, t) == t


@given(st.integers(1, 10))
def test_simplex_count_single_cell(k):
    assert simplex_hypercube_count(k, 1) == 1


@given(st.integers(2, 6), st.integers(1, 20))
def test_simplex_count_recursion(k, t):
    assert simplex_hypercube_count(k, t) == sum(
        simplex_hypercube_count(k - 1, j) for j in range(1, t + 1)
    )


@given(st.integers(1, 30), st.integers(1, 30))
def test_simplex_count_envelope_rational(t, m):
    # product of m+1 integers centered at t + m/2, against AM-GM in
    # exact rational arithmetic
    product = Fraction(math.factorial(t + m), math.factorial(t - 1))
    assert product <= Fraction(2 * t + m, 2) ** (m + 1)


def test_simplex_count_upper_is_float_envelope():
    assert simplex_hypercube_count(2, 4) <= simplex_hypercube_count_upper(2, 4)


def test_full_grid_single_cell():
    cover = build_full_grid_cover(2, 10, 1)
    assert len(cover.centers) == 1
    assert cover.kind is CoverKind.FULL_GRID
    assert cover.certified_radius == (10 / 2 + 0.5) * 1


def test_full_grid_finest_cell_covers_exactly():
    cover = build_full_grid_cover(2, 6, 7)
    assert verify_cover(cover).verified
    assert len(cover.centers) == len(set(rows(cover)))


def test_simplex_grid_count_bound():
    for t in (1, 2, 3, 5, 8):
        cover = build_simplex_grid_cover(3, 12, t)
        assert len(cover.centers) <= simplex_hypercube_count(2, t)
        assert cover.kind is CoverKind.SIMPLEX_GRID


def test_simplex_grid_at_t_n_plus_one_hits_every_type():
    n = 7
    cover = build_simplex_grid_cover(3, n, n + 1)
    assert len(cover.centers) == num_types(3, n)
    check = verify_cover(cover)
    assert check.verified
    assert check.achieved_radius == 0


def test_grid_parameter_domain():
    with pytest.raises(InputError):
        build_full_grid_cover(2, 8, 0)
    with pytest.raises(InputError):
        build_full_grid_cover(2, 8, 10)
    with pytest.raises(InputError):
        build_simplex_grid_cover(2, 8, 10)


@given(st.integers(2, 3), st.integers(2, 14), st.data())
@settings(max_examples=60, deadline=None)
def test_grid_covers_verify_exhaustively(m, n, data):
    t = data.draw(st.integers(1, n + 1))
    for build in (build_full_grid_cover, build_simplex_grid_cover):
        cover = build(m, n, t)
        check = verify_cover(cover)
        assert check.verified, (m, n, t, build.__name__, check.worst)
        assert check.checked_vectors == num_types(m, n)


def fraction_cell_atom_range(length, t, j):
    """Reference cell rule in exact rational arithmetic."""
    return (math.ceil(Fraction(j * length, t)),
            math.floor(Fraction((j + 1) * length, t)))


def reference_cell_center(length, t, j):
    """Reference representative atom of cell j: central for an odd atom
    count, center of the one-unit-enlarged cell otherwise."""
    lo, hi = fraction_cell_atom_range(length, t, j)
    m = hi - lo + 1
    if m < 1:
        raise InputError(
            f"cell {j} of [0, {length}] split {t} ways contains no integer atom"
        )
    return lo + m // 2 if m % 2 == 0 else lo + (m - 1) // 2


def reference_grid_centers(alphabet_size, n, t, simplex):
    """Reference grid builders, one loop each: the full grid walks the
    product of per-cell centers, the simplex grid the product of cell
    indices whose sum is at most t - 1. Each center's sum is patched by
    the scalar loop."""
    per_dim = [reference_cell_center(n, t, j) for j in range(t)]
    seen = {}
    if simplex:
        for idx in itertools.product(range(t), repeat=alphabet_size - 1):
            if sum(idx) > t - 1:
                continue
            combo = [per_dim[j] for j in idx]
            seen.setdefault(patch_sum(combo, n), None)
    else:
        for combo in itertools.product(per_dim, repeat=alphabet_size - 1):
            seen.setdefault(patch_sum(combo, n), None)
    return tuple(seen)


def reference_typical_range(n, p, epsilon):
    """Reference typical count range: each count tested on its own."""
    if p == 0.0:
        return 0, 0
    ok = [c for c in range(n + 1) if abs(c / n - p) <= epsilon]
    return ok[0], ok[-1]


def reference_typical_centers(probs, n, t):
    """Reference typical builder, one combination at a time: the product
    of per-symbol cell centers, each patched to sum n by growing the
    symbol with the most room left in its range or shrinking the one
    furthest above its range floor, kept in first-seen order. Raises
    InputError where a cell of a typical range holds no atom."""
    m = len(probs)
    ranges = [reference_typical_range(n, float(p), typical_epsilon(n)) for p in probs]
    per_dim = []
    for lo, hi in ranges:
        if hi == lo:
            per_dim.append([lo] * t)
            continue
        span = hi - lo
        per_dim.append([lo + reference_cell_center(span, t, j) for j in range(t)])

    seen = {}
    for combo in itertools.product(*per_dim):
        coords = list(combo)
        deficit = n - sum(coords)
        while deficit > 0:
            # grow the coordinate with the most room left in its range
            i = max(range(m), key=lambda a: ranges[a][1] - coords[a])
            if coords[i] >= n:
                i = min(range(m), key=lambda a: coords[a])
            coords[i] += 1
            deficit -= 1
        while deficit < 0:
            # shrink the coordinate sticking furthest above its range floor
            i = max(range(m), key=lambda a: coords[a] - ranges[a][0])
            if coords[i] <= 0:
                i = max(range(m), key=lambda a: coords[a])
            coords[i] -= 1
            deficit += 1
        seen.setdefault(tuple(coords), None)
    return tuple(seen)


def test_cell_atom_range_matches_fraction_rule():
    # t past length + 1 leaves empty cells (hi < lo), which the rule
    # must report the same way
    for length in range(61):
        for t in range(1, 2 * length + 3):
            for j in range(t):
                assert (genbound.covering._cell_atom_range(length, t, j)
                        == fraction_cell_atom_range(length, t, j)), (length, t, j)


@pytest.mark.parametrize("m, n_max", [(2, 12), (3, 9), (4, 6)])
def test_grid_builders_match_reference_loops(m, n_max):
    for n in range(1, n_max + 1):
        for t in range(1, n + 2):
            radius = (n / (2.0 * t) + 0.5) * (m - 1)
            for build, simplex in ((build_full_grid_cover, False),
                                   (build_simplex_grid_cover, True)):
                cover = build(m, n, t)
                assert rows(cover) == reference_grid_centers(m, n, t, simplex), (
                    m, n, t, build.__name__)
                assert cover.t == t
                assert cover.certified_radius == radius


@pytest.mark.parametrize("m, n, t", [(3, 98, 99), (4, 29, 30), (4, 60, 30)])
def test_grid_builders_match_reference_loops_at_ladder_sizes(m, n, t):
    for build, simplex in ((build_full_grid_cover, False),
                           (build_simplex_grid_cover, True)):
        assert rows(build(m, n, t)) == reference_grid_centers(m, n, t, simplex)


def test_axis_centers_skip_cells_without_an_atom():
    for length in range(31):
        for t in range(1, 2 * length + 4):
            kept = []
            for j in range(t):
                try:
                    kept.append(reference_cell_center(length, t, j))
                except InputError:
                    pass
            centers = genbound.covering._axis_centers(length, t).tolist()
            assert centers == kept, (length, t)
            if t >= length + 1:
                # a range of at most t atoms puts every atom on the axis
                assert sorted(set(centers)) == list(range(length + 1)), (length, t)


def typical_t_max(n):
    """Largest grid parameter a typical cover of length n accepts."""
    return math.floor(2 * math.sqrt(n * math.log(n)))


def typical_matches_reference(probs, n, t):
    """Whether the reference loop builds the typical cover of (probs, n, t).
    Where it does, the centers must be its centers; where it finds a cell
    without an atom, the cover must still pass the exhaustive check."""
    src = SourceDistribution(list(probs))
    cover = build_typical_cover(src, n, t)
    assert cover.certified_radius == math.sqrt(n * math.log(n)) * len(probs) / t
    try:
        expected = reference_typical_centers(probs, n, t)
    except InputError:
        assert verify_cover(cover).verified, (probs, n, t)
        return False
    assert rows(cover) == expected, (probs, n, t)
    return True


@pytest.mark.parametrize("probs, ns", [
    ((0.5, 0.5), (2, 3, 5, 8, 13, 20, 30)),
    ((0.3, 0.7), (2, 3, 5, 8, 13, 20, 30)),
    ((0.05, 0.95), (2, 3, 5, 8, 13, 20, 30)),
    ((0.0, 1.0), (2, 3, 5, 8, 13, 20, 30)),
    ((1 / 3, 1 / 3, 1 / 3), (2, 4, 6, 9, 12)),
    ((0.1, 0.3, 0.6), (2, 4, 6, 9, 12)),
    ((0.6, 0.4, 0.0), (2, 4, 6, 9, 12)),
], ids=str)
def test_typical_cover_matches_reference_loop_at_every_t(probs, ns):
    built = [typical_matches_reference(probs, n, t)
             for n in ns for t in range(1, typical_t_max(n) + 1)]
    assert any(built)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_typical_cover_matches_reference_loop_on_random_sources(m):
    # at most about 1,000 combinations per cover
    t_cap = {2: 31, 3: 10, 4: 5, 5: 4}[m]
    rng = np.random.default_rng(m)
    for _ in range(15):
        probs = rng.dirichlet(np.full(m, rng.choice([0.3, 1.0, 5.0])))
        if rng.random() < 0.25:
            probs[rng.integers(m)] = 0.0
        probs = tuple((probs / probs.sum()).tolist())
        n = int(rng.integers(2, {2: 300, 3: 120, 4: 60, 5: 30}[m]))
        t_max = min(typical_t_max(n), t_cap)
        typical_matches_reference(probs, n, int(rng.integers(1, t_max + 1)))


def test_typical_cover_matches_reference_loop_at_the_audit_shape():
    assert typical_matches_reference((0.1, 0.25, 0.65), 150, 10)


@pytest.mark.parametrize("probs", [
    (0.05, 0.95), (0.02, 0.98), (0.0, 1.0),
    (0.1, 0.2, 0.7), (0.0, 0.04, 0.96), (0.03, 0.03, 0.94),
], ids=str)
def test_typical_cover_of_a_short_range_verifies(probs):
    # a typical range clipped at 0 or n can hold fewer atoms than t cells
    src = SourceDistribution(list(probs))
    short = 0
    for n in range(2, 40 if len(probs) == 2 else 25):
        ranges = [reference_typical_range(n, p, typical_epsilon(n)) for p in probs]
        for t in range(1, typical_t_max(n) + 1):
            if any(0 < hi - lo < t - 1 for lo, hi in ranges):
                short += 1
                check = verify_cover(build_typical_cover(src, n, t))
                assert check.verified, (n, t, check.worst)
    assert short > 0


def test_large_full_grid_center_count():
    # 216,000 cells patched to 37,821 distinct centers, one per row
    cover = build_full_grid_cover(4, 120, 60)
    assert cover.centers.shape == (37821, 4)
    assert (cover.centers.sum(axis=1) == 120).all()


def test_grid_cover_of_a_huge_length_builds_without_enumerating():
    # the lattice is far past the cap, the 27 cells are not: the cover
    # builds, and only its exhaustive check is refused
    n = 10**12
    cover = build_full_grid_cover(4, n, 3)
    assert 1 <= len(cover.centers) <= 27 and (cover.centers.sum(axis=1) == n).all()
    with pytest.raises(ResourceLimitError):
        verify_cover(cover)


def test_grid_for_counts_past_int64_is_input_error():
    # the free coordinates of m = 3 sum to at most 2n, which must fit
    build_full_grid_cover(3, 2**62 - 1, 2)
    with pytest.raises(InputError, match="too large for int64"):
        build_full_grid_cover(3, 2**62, 2)
    with pytest.raises(InputError, match="too large for int64"):
        build_simplex_grid_cover(2, 2**63, 2)


def test_centers_are_valid_types():
    cover = build_full_grid_cover(3, 9, 4)
    assert cover.centers.dtype == np.int64 and cover.centers.shape[1] == 3
    assert (cover.centers.sum(axis=1) == 9).all() and (cover.centers >= 0).all()
    assert (cover.n, cover.alphabet_size) == (9, 3)
    with pytest.raises(ValueError):
        cover.centers[0, 0] = 1


@pytest.mark.parametrize("centers, match", [
    ([], "at least one center"),
    (np.zeros((0, 3), dtype=np.int64), "at least one center"),
    ([(4,), (3,)], "two symbols"),
    ([(2, -1, 3), (1, 1, 2)], "non-negative"),
    ([(2, 2), (3, 2)], "one alphabet and length"),
    ([(2, 2), (1, 1, 2)], "equal-length rows of int64 counts"),
    ([(2**63, 0), (0, 2**63)], "equal-length rows of int64 counts"),
    ([(0, 0), (0, 0)], "one alphabet and length"),
    ([(1, 3), (2, 2), (1, 3)], "duplicate-free"),
], ids=["empty", "no-rows", "one-column", "negative", "unequal-sums", "ragged",
        "int64-overflow", "empty-dataset", "duplicate"])
def test_cover_spec_rejects_malformed_centers(centers, match):
    with pytest.raises(InputError, match=match):
        CoverSpec(centers, 1, 1.0, CoverKind.FULL_GRID)


def test_cover_spec_owns_a_copy_of_its_centers():
    source = np.array([[1, 3], [2, 2]])
    cover = CoverSpec(source, 1, 1.0, CoverKind.FULL_GRID)
    source[0, 0] = 0
    assert rows(cover) == ((1, 3), (2, 2))


@pytest.mark.parametrize("build", [
    lambda: build_full_grid_cover(6, 2000, 2000),
    lambda: build_simplex_grid_cover(6, 2000, 2000),
    # T = 8.0 M count vectors is within the cap, but 16 M cells are not
    lambda: build_full_grid_cover(3, 4000, 4001),
    lambda: build_typical_cover(SourceDistribution.uniform(6), 2000, 20),
    # 8 cells, but each symbol's range is found among 10**12 + 1 counts
    lambda: build_typical_cover(SourceDistribution.uniform(3), 10**12, 2),
], ids=["full", "simplex", "full-cells-over-types", "typical", "typical-long"])
def test_oversized_grids_are_refused_before_building(build):
    with pytest.raises(ResourceLimitError, match="raise GENBOUND_TYPE_CAP to override"):
        build()


def test_grid_cell_counts_meet_the_cap_exactly(monkeypatch):
    # m = 3, t = 4: 16 full cells, C(5, 2) = 10 simplex cells; m = 2 typical:
    # 16 cells, and 13 counts scanned per symbol
    monkeypatch.setenv("GENBOUND_TYPE_CAP", "16")
    build_full_grid_cover(3, 8, 4)
    build_typical_cover(SourceDistribution.uniform(2), 12, 4)
    monkeypatch.setenv("GENBOUND_TYPE_CAP", "15")
    for build in (lambda: build_full_grid_cover(3, 8, 4),
                  lambda: build_typical_cover(SourceDistribution.uniform(2), 12, 4)):
        with pytest.raises(ResourceLimitError, match="16 grid cells"):
            build()
    monkeypatch.setenv("GENBOUND_TYPE_CAP", "10")
    build_simplex_grid_cover(3, 8, 4)
    monkeypatch.setenv("GENBOUND_TYPE_CAP", "9")
    with pytest.raises(ResourceLimitError, match="10 grid cells"):
        build_simplex_grid_cover(3, 8, 4)


def test_typical_epsilon_values():
    assert math.isclose(typical_epsilon(7), math.sqrt(math.log(7) / 7), rel_tol=1e-15)
    assert math.isclose(typical_epsilon(2), math.sqrt(math.log(2) / 2), rel_tol=1e-15)
    with pytest.raises(InputError):
        typical_epsilon(1)


def test_is_typical_inclusive_boundary():
    src = SourceDistribution([0.5, 0.5])
    # counts (6, 10): |6/16 - 0.5| = 0.125 exactly
    assert typical((6, 10), src, 0.125)
    assert not typical((5, 11), src, 0.125)


def test_is_typical_zero_probability_symbol():
    src = SourceDistribution([1.0, 0.0])
    assert typical((8, 0), src, 0.1)
    assert not typical((7, 1), src, 0.9)


@pytest.mark.parametrize("probs", [
    (0.5, 0.5, 0.0), (0.2, 0.3, 0.5), (1.0, 0.0, 0.0), (0.37, 0.13, 0.5),
])
def test_typicality_mask_matches_scalar_loop(probs):
    src = SourceDistribution(probs)
    for eps in (0.05, typical_epsilon(12), 0.25, 1.0):
        flags = genbound.covering._typical_mask(type_counts(3, 12), src.probs, eps)
        assert flags.tolist() == [is_typical(s, probs, eps)
                                  for s in enumerate_types(3, 12)]


@pytest.mark.parametrize("build", [
    lambda: build_full_grid_cover(3, 20, 4),
    lambda: build_full_grid_cover(2, 30, 7),
    lambda: build_simplex_grid_cover(4, 10, 3),
    lambda: build_simplex_grid_cover(3, 8, 9),  # every vector a center
    # corner centers: the witness, (4, 4, 4), is the 51st count vector
    lambda: CoverSpec(((0, 0, 12), (12, 0, 0), (0, 12, 0)), 1, 12.0,
                      CoverKind.FULL_GRID),
    lambda: build_typical_cover(SourceDistribution([0.2, 0.3, 0.5]), 40, 5),
    lambda: build_typical_cover(SourceDistribution([0.6, 0.4, 0.0]), 30, 3),
], ids=["full-m3", "full-m2", "simplex-m4", "simplex-all", "corners", "typical",
        "typical-zero"])
def test_verify_cover_matches_scalar_loop(block_rows, build):
    cover = build()
    achieved, checked, worst = scalar_verify_cover(cover)
    # small blocks: the worst vector and its ties fall in different blocks
    for size in (7, 256):
        block_rows(size)
        check = verify_cover(cover)
        assert check.achieved_radius == achieved
        assert check.checked_vectors == checked
        assert check.worst == worst


def test_verify_cover_holds_one_block_of_cells(monkeypatch):
    # 2,000 centers, so 2 ** 14 cells are 8-row blocks: one block's int64
    # distances and gaps are 256 KiB, where 256 rows would be 8 MiB
    cover = build_full_grid_cover(2, 1999, 2000)
    assert len(cover.centers) == 2000
    monkeypatch.setattr(genbound.types_core, "BLOCK_CELLS", 2 ** 14)
    tracemalloc.start()
    try:
        check = verify_cover(cover)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.checked_vectors == 2000 and check.verified
    assert peak < 2 ** 20


def typical_mass(source, n, epsilon):
    """P(A) for the typical set A: the package's type distribution summed
    over the count vectors the scalar reference calls typical."""
    probs = type_probabilities(type_counts(source.alphabet_size, n), source)
    return math.fsum(p for p, s in zip(probs.tolist(),
                                       enumerate_types(source.alphabet_size, n))
                     if is_typical(s, source.probs.tolist(), epsilon))


def test_typical_mass_whole_simplex():
    # at epsilon 1 every count vector is typical: the mass is the whole
    # lattice's, bit for bit, which is 1 within the n < 300 bar on each
    # log-domain probability (no float form of P sums to 1 exactly)
    src = SourceDistribution([0.4, 0.6])
    mass = typical_mass(src, 6, 1.0)
    assert mass == math.fsum(type_probabilities(type_counts(2, 6), src).tolist())
    assert abs(mass - 1.0) <= 5e-14


def test_typical_mass_known_binomial_sum():
    src = SourceDistribution([0.5, 0.5])
    eps = typical_epsilon(16)
    lo = math.ceil(16 * (0.5 - eps))
    hi = math.floor(16 * (0.5 + eps))
    expected = math.fsum(
        math.comb(16, c) / 2**16 for c in range(lo, hi + 1)
    )
    mass = typical_mass(src, 16, eps)
    assert math.isclose(mass, expected, rel_tol=1e-12)
    assert mass >= 1 - 4 / 256


@given(st.integers(4, 40), st.sampled_from([2, 3]))
@settings(max_examples=40, deadline=None)
def test_typical_mass_floor(n, m):
    src = SourceDistribution.uniform(m)
    assert typical_mass(src, n, typical_epsilon(n)) >= 1 - 2 * m / n**2


def test_typical_cover_small_instance():
    src = SourceDistribution.uniform(2)
    cover = build_typical_cover(src, 16, 2)
    assert cover.kind is CoverKind.TYPICAL_GRID
    assert cover.source_probs.tolist() == src.probs.tolist()
    check = verify_cover(cover)
    assert check.verified


def test_typical_cover_ignores_non_typical_extremes():
    src = SourceDistribution.uniform(2)
    cover = build_typical_cover(src, 64, 8)
    extreme = (64, 0)
    assert not typical(extreme, src, typical_epsilon(64))
    nearest = distance_matrix([extreme], cover.centers).min()
    assert nearest > cover.certified_radius
    assert verify_cover(cover).verified


def test_typical_cover_center_budget():
    src = SourceDistribution([0.2, 0.3, 0.5])
    for t in (1, 2, 3):
        cover = build_typical_cover(src, 20, t)
        assert len(cover.centers) <= t**3
        assert verify_cover(cover).verified


def test_typical_cover_rejects_out_of_range_t():
    src = SourceDistribution.uniform(2)
    limit = math.floor(2 * math.sqrt(16 * math.log(16)))
    build_typical_cover(src, 16, limit)
    with pytest.raises(InputError):
        build_typical_cover(src, 16, limit + 1)


def test_typical_cover_verifies_without_a_source():
    # the cover keeps its source: the check reads the typical set of that
    # source, whatever other source is at hand
    skewed = SourceDistribution([0.2, 0.3, 0.5])
    cover = build_typical_cover(skewed, 24, 3)
    assert cover.source_probs.tolist() == [0.2, 0.3, 0.5]
    assert not cover.source_probs.flags.writeable
    typical_set = [s for s in enumerate_types(3, 24)
                   if is_typical(s, skewed.probs, typical_epsilon(24))]
    check = verify_cover(cover)
    assert check.verified
    assert check.checked_vectors == len(typical_set)
    assert (check.achieved_radius, check.checked_vectors, check.worst) == \
        scalar_verify_cover(cover)


def test_cover_spec_keeps_a_source_only_for_a_typical_cover():
    centers = build_typical_cover(SourceDistribution.uniform(2), 16, 2).centers
    radius = math.sqrt(16 * math.log(16)) * 2 / 2
    only = "^a typical cover, and only a typical cover, keeps the probabilities"
    with pytest.raises(InputError, match=only):
        CoverSpec(centers, 2, radius, CoverKind.TYPICAL_GRID)
    with pytest.raises(InputError, match="^source over 3 symbols does not "
                                         "match cover over 2$"):
        CoverSpec(centers, 2, radius, CoverKind.TYPICAL_GRID, (0.2, 0.3, 0.5))
    with pytest.raises(InputError, match="must sum to 1"):
        CoverSpec(centers, 2, radius, CoverKind.TYPICAL_GRID, (0.5, 0.6))
    with pytest.raises(InputError, match=only):
        CoverSpec(centers, 2, radius, CoverKind.FULL_GRID, (0.5, 0.5))
    hand_built = CoverSpec(centers, 2, radius, CoverKind.TYPICAL_GRID, [0.5, 0.5])
    assert hand_built == build_typical_cover(SourceDistribution.uniform(2), 16, 2)
    assert verify_cover(hand_built).verified
