"""Closed-form generalization-bound formulas and their regime logic.

Every bound is reported in nats unless noted; m is the alphabet size,
n the dataset length, eps/mu the privacy parameters, sigma the
sub-Gaussian scale of the loss. Twelve closed-form KL/MI branches are
implemented, plus two asymptotic shape-only expressions that never
enter numeric certification, plus two conversions (sub-Gaussian
MI-to-generalization and a PAC-Bayes high-probability variant).

A BoundReport is self-describing: value, applicability, the regime that
produced it, whether it is asymptotic-only, and, for a count-based
branch, the cover whose mixture it dominates. Asymptotic-only reports
are never used in certification. The grid parameter t of that cover is
optimal_grid_parameter's, the trade-off rule of the bound's own regime.

The module needs nothing beyond the standard library. It re-exports
PrivacyKind and PrivacyParams from genbound.privacy.
"""

from __future__ import annotations

import enum
import math

from .errors import InputError
from .privacy import PrivacyKind, PrivacyParams
from .records import Record

__all__ = [
    "PrivacyKind",
    "PrivacyParams",
    "BoundId",
    "BoundReport",
    "CatalogEntry",
    "GridParameter",
    "optimal_grid_parameter",
    "kl_bound_simple",
    "kl_bound_cover_dp",
    "kl_bound_cover_gdp",
    "kl_bound_refined",
    "mi_bound_typical",
    "gen_error_from_mi",
    "pac_bayes_gen_bound",
    "asymptotic_report",
    "kl_candidates",
    "catalog_entries",
]


class BoundId(enum.Enum):
    """Stable identifiers for every reported bound."""

    TYPE_COUNT = "type_count"
    DP_GRID = "dp_grid"
    GDP_GRID = "gdp_grid"
    DP_SIMPLEX_LOW = "dp_simplex_low"
    DP_SIMPLEX_MID = "dp_simplex_mid"
    GDP_SIMPLEX_LOW = "gdp_simplex_low"
    GDP_SIMPLEX_MID = "gdp_simplex_mid"
    SIMPLEX_ANY = "simplex_any"
    DP_TYPICAL_LOW = "dp_typical_low"
    DP_TYPICAL_HIGH = "dp_typical_high"
    GDP_TYPICAL_LOW = "gdp_typical_low"
    GDP_TYPICAL_HIGH = "gdp_typical_high"
    GEN_PRIVATE_ASYMPTOTIC = "gen_private_asymptotic"
    MULTINOMIAL_ENTROPY = "multinomial_entropy"
    GEN_TYPE_COUNT = "gen_type_count"
    GEN_GRID_ASYMPTOTIC = "gen_grid_asymptotic"
    GEN_SUB_GAUSSIAN = "gen_sub_gaussian"
    PAC_BAYES_GEN = "pac_bayes_gen"


class BoundReport(Record):
    """One evaluated bound: value, applicability, and provenance of regime.

    cover is the cover a count-based bound dominates the mixture KL of,
    as (CoverKind value, grid parameter t); None for the typical-set and
    asymptotic reports, which no cover certifies.
    """

    __slots__ = ("bound_id", "value", "applicable", "regime_note",
                 "asymptotic_only", "cover")

    def __init__(self, bound_id: BoundId, value: float, applicable: bool,
                 regime_note: str, asymptotic_only: bool = False,
                 cover: tuple[str, int] | None = None) -> None:
        self._assign(bound_id, value, applicable, regime_note, asymptotic_only,
                     cover)


class GridParameter(Record):
    """Chosen grid parameter plus how it was obtained."""

    __slots__ = ("t", "clamped", "raw_value")

    def __init__(self, t: int, clamped: bool, raw_value: float) -> None:
        self._assign(t, clamped, raw_value)


def _check_mn(alphabet_size: int, n: int) -> int:
    if alphabet_size < 2:
        raise InputError(f"alphabet size must be at least 2, got {alphabet_size}")
    if n < 1:
        raise InputError(f"dataset length must be positive, got {n}")
    return alphabet_size - 1


_FULL_REGIMES = {"dp_full", "gdp_full"}
_TYPICAL_REGIMES = {"dp_typical", "gdp_typical"}


def optimal_grid_parameter(
    regime: str, privacy_parameter: float, alphabet_size: int, n: int
) -> GridParameter:
    """Grid parameter minimizing the cover bound's stability + log-count
    trade-off, clamped to the valid interval and rounded to an integer.

    Optimizers: dp_full -> eps*n; gdp_full -> sqrt(m-1)*mu*n;
    dp_typical -> sqrt(n log n)*eps; gdp_typical -> sqrt(m n log n)*mu.
    A raw value past the interval, inf included, gives its upper end.
    """
    if regime not in _FULL_REGIMES | _TYPICAL_REGIMES:
        raise InputError(
            f"unknown regime {regime!r}; expected one of dp_full, gdp_full, "
            f"dp_typical, gdp_typical"
        )
    if not (privacy_parameter > 0):
        raise InputError(f"privacy parameter must be positive, got {privacy_parameter}")
    _check_mn(alphabet_size, n)

    if regime == "dp_full":
        raw = privacy_parameter * n
    elif regime == "gdp_full":
        raw = math.sqrt(alphabet_size - 1) * privacy_parameter * n
    elif regime == "dp_typical":
        raw = math.sqrt(n * math.log(n)) * privacy_parameter
    else:
        raw = math.sqrt(alphabet_size * n * math.log(n)) * privacy_parameter

    if regime in _FULL_REGIMES:
        lo, hi = 1, n
    else:
        lo, hi = 1, max(1, math.floor(2.0 * math.sqrt(n * math.log(max(n, 2)))))
    # clamped before rounding, so an overflowed raw value (eps * n = inf)
    # needs no int
    rounded = hi + 1 if raw >= hi + 1 else int(round(raw))
    t = min(max(rounded, lo), hi)
    return GridParameter(t=t, clamped=(t != rounded), raw_value=float(raw))


def kl_bound_simple(alphabet_size: int, n: int) -> BoundReport:
    """Universal type-count bound (m - 1) * log(n + 1), valid for every
    permutation-invariant algorithm."""
    k = _check_mn(alphabet_size, n)
    return BoundReport(
        BoundId.TYPE_COUNT,
        k * math.log(n + 1.0),
        applicable=True,
        regime_note="universal; no conditions",
        cover=("simplex_grid", n + 1),
    )


def kl_bound_cover_dp(epsilon: float, alphabet_size: int, n: int) -> BoundReport:
    """Full-grid cover bound (m - 1) * log(1 + e*eps*n) for eps-DP
    mechanisms; only worth using at eps <= 1."""
    k = _check_mn(alphabet_size, n)
    if not (epsilon > 0):
        raise InputError(f"epsilon must be positive, got {epsilon}")
    applicable = epsilon <= 1.0
    note = (
        "requires eps <= 1"
        if applicable
        else "eps > 1: not tighter than the type_count bound, use that instead"
    )
    return BoundReport(
        BoundId.DP_GRID,
        k * math.log1p(math.e * epsilon * n),
        applicable=applicable,
        regime_note=note,
        cover=("full_grid", optimal_grid_parameter("dp_full", epsilon,
                                                   alphabet_size, n).t),
    )


def kl_bound_cover_gdp(mu: float, alphabet_size: int, n: int) -> BoundReport:
    """Full-grid cover bound (m-1)/2 * log(1 + e*(m-1)*mu^2*n^2) for
    mu-GDP mechanisms; only worth using at mu <= 1/sqrt(m - 1)."""
    k = _check_mn(alphabet_size, n)
    if not (mu > 0):
        raise InputError(f"mu must be positive, got {mu}")
    threshold = 1.0 / math.sqrt(k)
    applicable = mu <= threshold
    note = (
        f"requires mu <= 1/sqrt(m-1) = {threshold:.6g}"
        if applicable
        else "mu > 1/sqrt(m-1): not tighter than the type_count bound, use that instead"
    )
    return BoundReport(
        BoundId.GDP_GRID,
        0.5 * k * math.log1p(math.e * k * mu * mu * n * n),
        applicable=applicable,
        regime_note=note,
        cover=("full_grid", optimal_grid_parameter("gdp_full", mu,
                                                   alphabet_size, n).t),
    )


def _half_log_2pik(k: int) -> float:
    return 0.5 * math.log(2.0 * math.pi * k)


def kl_bound_refined(
    privacy: PrivacyParams, alphabet_size: int, n: int
) -> BoundReport:
    """Simplex-cover bound with Stirling-sharpened constants.

    Selects one of five branches by privacy kind and strength; the
    algorithm-free branch is the fallback, so the selected branch is
    always valid. Boundary values belong to the lower branch.
    """
    k = _check_mn(alphabet_size, n)
    correction = _half_log_2pik(k)

    if privacy.kind is PrivacyKind.EPS_DP:
        eps = privacy.value
        if eps <= 1.0 / n:
            value = k * (1.0 + eps * n) - correction
            return BoundReport(
                BoundId.DP_SIMPLEX_LOW, value, True, "single-cell cover; eps <= 1/n",
                cover=("simplex_grid", 1),
            )
        if eps <= 1.0:
            value = (
                k * math.log1p(2.0 * eps * n / k)
                + k * (2.0 - math.log(2.0))
                - correction
            )
            return BoundReport(
                BoundId.DP_SIMPLEX_MID, value, True,
                "simplex grid at t ~ eps*n; 1/n < eps <= 1",
                cover=("simplex_grid", optimal_grid_parameter(
                    "dp_full", eps, alphabet_size, n).t),
            )
    elif privacy.kind is PrivacyKind.MU_GDP:
        mu = privacy.value
        root_k = math.sqrt(k)
        if mu <= 1.0 / (n * root_k):
            value = k * (1.0 + k * mu * mu * n * n / 2.0) - correction
            return BoundReport(
                BoundId.GDP_SIMPLEX_LOW, value, True,
                "single-cell cover; mu <= 1/(n*sqrt(m-1))",
                cover=("simplex_grid", 1),
            )
        if mu <= 1.0 / root_k:
            value = (
                k * math.log1p(2.0 * mu * n / root_k)
                + k * (1.5 - math.log(2.0))
                - correction
            )
            return BoundReport(
                BoundId.GDP_SIMPLEX_MID, value, True,
                "simplex grid at t ~ sqrt(m-1)*mu*n; "
                "1/(n*sqrt(m-1)) < mu <= 1/sqrt(m-1)",
                cover=("simplex_grid", optimal_grid_parameter(
                    "gdp_full", mu, alphabet_size, n).t),
            )

    value = k * math.log1p(n / k) + k - correction
    return BoundReport(
        BoundId.SIMPLEX_ANY, value, True,
        "one cell per count vector; valid for any algorithm",
        cover=("simplex_grid", n + 1),
    )


def mi_bound_typical(
    privacy: PrivacyParams, alphabet_size: int, n: int
) -> BoundReport:
    """Typical-set cover bound on the mutual information.

    First-moment bound only: it controls the expected information, not
    per-dataset divergences. Needs a privacy guarantee and n >= 2.
    """
    m = alphabet_size
    _check_mn(alphabet_size, n)
    if n < 2:
        raise InputError(f"typical-set bounds need n >= 2, got {n}")
    if privacy.kind is PrivacyKind.NONE:
        raise InputError("typical-set bound requires a privacy guarantee")
    root = math.sqrt(n * math.log(n))
    note_suffix = "; first-moment (mutual-information) bound only"

    if privacy.kind is PrivacyKind.EPS_DP:
        eps = privacy.value
        tail = 2.0 * m * eps / n
        if eps <= 2.0:
            value = m * math.log1p(math.e * eps * root) + tail
            return BoundReport(
                BoundId.DP_TYPICAL_LOW, value, True, "eps <= 2" + note_suffix
            )
        value = m * math.log1p(2.0 * root) + tail
        return BoundReport(
            BoundId.DP_TYPICAL_HIGH, value, True, "eps > 2" + note_suffix
        )

    mu = privacy.value
    tail = m * mu * mu
    if mu <= 2.0 / math.sqrt(m):
        value = 0.5 * m * math.log1p(math.e * m * mu * mu * n * math.log(n)) + tail
        return BoundReport(
            BoundId.GDP_TYPICAL_LOW, value, True, "mu <= 2/sqrt(m)" + note_suffix
        )
    value = m * math.log1p(2.0 * root) + tail
    return BoundReport(
        BoundId.GDP_TYPICAL_HIGH, value, True, "mu > 2/sqrt(m)" + note_suffix
    )


def _check_sigma(sigma: float) -> None:
    if not (0 <= sigma < math.inf):
        raise InputError(f"sigma must be non-negative and finite, got {sigma}")


def gen_error_from_mi(sigma: float, n: int, mi_bound: float) -> float:
    """Expected-generalization-error bound sqrt(2 sigma^2 * MI / n) for a
    sigma-sub-Gaussian loss."""
    _check_sigma(sigma)
    if n < 1:
        raise InputError(f"dataset length must be positive, got {n}")
    if mi_bound < 0:
        raise InputError(f"information bound must be non-negative, got {mi_bound}")
    return math.sqrt(2.0 * sigma * sigma * mi_bound / n)


def pac_bayes_gen_bound(sigma: float, n: int, kl_value: float, beta: float) -> float:
    """High-probability variant sqrt((2 sigma^2 / n)(KL + log(1/beta))),
    holding with probability at least 1 - beta."""
    _check_sigma(sigma)
    if n < 1:
        raise InputError(f"dataset length must be positive, got {n}")
    if kl_value < 0:
        raise InputError(f"divergence must be non-negative, got {kl_value}")
    if not 0.0 < beta < 1.0:
        raise InputError(f"beta must lie strictly between 0 and 1, got {beta}")
    return math.sqrt((2.0 * sigma * sigma / n) * (kl_value + math.log(1.0 / beta)))


def asymptotic_report(
    sigma: float, gamma: float | None, alphabet_size: int, n: int
) -> list[BoundReport]:
    """Large-n reference expressions, reported but never certified.

    The first entry is the exact conversion of the type-count bound (it
    is additionally marked applicable); the private expressions, which
    only a privacy parameter gamma gives (none when gamma is None), carry
    unspecified constants and are shape-only; the last is the
    multinomial-entropy approximation, in nats.
    """
    k = _check_mn(alphabet_size, n)
    _check_sigma(sigma)
    if gamma is not None and not (gamma > 0):
        raise InputError(f"gamma must be positive, got {gamma}")
    m = alphabet_size
    reports = []

    exact = gen_error_from_mi(sigma, n, kl_bound_simple(m, n).value)
    reports.append(
        BoundReport(
            BoundId.GEN_TYPE_COUNT, exact, applicable=True,
            regime_note="exact at finite n (conversion of type_count); loss units",
            asymptotic_only=True,
        )
    )

    # sqrt(2 sigma^2 dim log(gamma scale) / n): the private expression
    # over m dimensions, the grid-composed one over k = m - 1
    shapes = [] if gamma is None else [
        (BoundId.GEN_PRIVATE_ASYMPTOTIC, m, math.sqrt(n * math.log(max(n, 2)))),
        (BoundId.GEN_GRID_ASYMPTOTIC, k, n),
    ]
    for bid, dim, scale in shapes:
        inner = math.log(gamma * scale)
        if inner >= 0:
            value = math.sqrt(2.0 * sigma * sigma * dim * inner / n)
            note = "shape only, constants unspecified; loss units"
        else:
            value = math.nan
            note = "undefined here: log argument below 1; shape only"
        reports.append(
            BoundReport(bid, value, applicable=False, regime_note=note,
                        asymptotic_only=True)
        )

    entropy = 0.5 * k * math.log(n / m) + 2.0 * m
    reports.append(
        BoundReport(
            BoundId.MULTINOMIAL_ENTROPY, entropy, applicable=False,
            regime_note="large-n entropy approximation; nats, report only",
            asymptotic_only=True,
        )
    )
    return reports


def kl_candidates(
    privacy: PrivacyParams, alphabet_size: int, n: int
) -> list[BoundReport]:
    """All certified KL/MI branches available for this privacy setting."""
    candidates = [kl_bound_simple(alphabet_size, n)]
    if privacy.kind is PrivacyKind.EPS_DP:
        candidates.append(kl_bound_cover_dp(privacy.value, alphabet_size, n))
    elif privacy.kind is PrivacyKind.MU_GDP:
        candidates.append(kl_bound_cover_gdp(privacy.value, alphabet_size, n))
    candidates.append(kl_bound_refined(privacy, alphabet_size, n))
    if privacy.kind is not PrivacyKind.NONE and n >= 2:
        candidates.append(mi_bound_typical(privacy, alphabet_size, n))
    return candidates


class CatalogEntry(Record):
    """One formula branch as the catalog lists it."""

    __slots__ = ("bound_id", "formula", "regime", "unit", "asymptotic")

    def __init__(self, bound_id: BoundId, formula: str, regime: str, unit: str,
                 asymptotic: bool) -> None:
        self._assign(bound_id, formula, regime, unit, asymptotic)


def catalog_entries() -> list[CatalogEntry]:
    """The fourteen formula branches this package evaluates.

    Twelve certified KL/MI branches plus the two asymptotic shape-only
    expressions. The two conversions (sub-Gaussian MI-to-generalization,
    PAC-Bayes) apply on top of any nats-valued entry and are documented
    by the CLI catalog epilogue rather than counted here.
    """
    e = [
        CatalogEntry(
            BoundId.TYPE_COUNT,
            "(m-1) * log(n+1)",
            "any permutation-invariant algorithm", "nats", False,
        ),
        CatalogEntry(
            BoundId.DP_GRID,
            "(m-1) * log(1 + e*eps*n)",
            "eps-DP, eps <= 1", "nats", False,
        ),
        CatalogEntry(
            BoundId.GDP_GRID,
            "(m-1)/2 * log(1 + e*(m-1)*mu^2*n^2)",
            "mu-GDP, mu <= 1/sqrt(m-1)", "nats", False,
        ),
        CatalogEntry(
            BoundId.DP_SIMPLEX_LOW,
            "(m-1)*(1 + eps*n) - log(2*pi*(m-1))/2",
            "eps-DP, eps <= 1/n", "nats", False,
        ),
        CatalogEntry(
            BoundId.DP_SIMPLEX_MID,
            "(m-1)*log(1 + 2*eps*n/(m-1)) + (m-1)*log(e^2/2) - log(2*pi*(m-1))/2",
            "eps-DP, 1/n < eps <= 1", "nats", False,
        ),
        CatalogEntry(
            BoundId.GDP_SIMPLEX_LOW,
            "(m-1)*(1 + (m-1)*mu^2*n^2/2) - log(2*pi*(m-1))/2",
            "mu-GDP, mu <= 1/(n*sqrt(m-1))", "nats", False,
        ),
        CatalogEntry(
            BoundId.GDP_SIMPLEX_MID,
            "(m-1)*log(1 + 2*mu*n/sqrt(m-1)) + (m-1)*log(e^1.5/2) "
            "- log(2*pi*(m-1))/2",
            "mu-GDP, 1/(n*sqrt(m-1)) < mu <= 1/sqrt(m-1)", "nats", False,
        ),
        CatalogEntry(
            BoundId.SIMPLEX_ANY,
            "(m-1)*log(1 + n/(m-1)) + (m-1) - log(2*pi*(m-1))/2",
            "any algorithm (one cell per count vector)", "nats", False,
        ),
        CatalogEntry(
            BoundId.DP_TYPICAL_LOW,
            "m*log(1 + e*eps*sqrt(n*log n)) + 2*m*eps/n",
            "eps-DP, eps <= 2; first moment only", "nats", False,
        ),
        CatalogEntry(
            BoundId.DP_TYPICAL_HIGH,
            "m*log(1 + 2*sqrt(n*log n)) + 2*m*eps/n",
            "eps-DP, eps > 2; first moment only", "nats", False,
        ),
        CatalogEntry(
            BoundId.GDP_TYPICAL_LOW,
            "m/2*log(1 + e*m*mu^2*n*log n) + m*mu^2",
            "mu-GDP, mu <= 2/sqrt(m); first moment only", "nats", False,
        ),
        CatalogEntry(
            BoundId.GDP_TYPICAL_HIGH,
            "m*log(1 + 2*sqrt(n*log n)) + m*mu^2",
            "mu-GDP, mu > 2/sqrt(m); first moment only", "nats", False,
        ),
        CatalogEntry(
            BoundId.GEN_PRIVATE_ASYMPTOTIC,
            "sqrt(2*sigma^2*m*log(gamma*sqrt(n*log n))/n)",
            "large n; privacy parameter gamma; shape only", "loss units", True,
        ),
        CatalogEntry(
            BoundId.MULTINOMIAL_ENTROPY,
            "(m-1)/2 * log(n/m) + 2*m",
            "large n entropy approximation; report only", "nats", True,
        ),
    ]
    return e
