"""The privacy declaration every bound and mechanism reads.

PrivacyKind and PrivacyParams need nothing beyond the standard library,
so the closed-form catalog and the array layers share them without one
loading the other; bounds_catalog and privacy_mechanisms re-export both.
"""

from __future__ import annotations

import enum
import math

from .errors import InputError
from .records import Record

__all__ = ["PrivacyKind", "PrivacyParams"]


class PrivacyKind(enum.Enum):
    EPS_DP = "eps_dp"
    MU_GDP = "mu_gdp"
    NONE = "none"


class PrivacyParams(Record):
    """A privacy guarantee: kind plus its positive parameter (or none)."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: PrivacyKind, value: float | None = None) -> None:
        if kind is PrivacyKind.NONE:
            if value is not None:
                raise InputError("privacy kind 'none' takes no parameter")
        elif value is None or not (0 < value < math.inf):
            raise InputError(
                f"privacy parameter must be positive and finite, got {value!r}"
            )
        self._assign(kind, value)

    @classmethod
    def eps_dp(cls, epsilon: float) -> "PrivacyParams":
        return cls(PrivacyKind.EPS_DP, float(epsilon))

    @classmethod
    def mu_gdp(cls, mu: float) -> "PrivacyParams":
        return cls(PrivacyKind.MU_GDP, float(mu))

    @classmethod
    def none(cls) -> "PrivacyParams":
        return cls(PrivacyKind.NONE, None)
