"""One-row KL divergence and variational mixture bounds, kept in the tests.

The package computes KL divergences only as blocks of the KL matrix
between a kernel's rows (genbound.divergence_core.kl_row_blocks, the
stability audit's), and expected KLs to a mixture only by the chain
rule (genbound.oracle_harness); it does not compute the mixture bounds.
These functions take one probability row at a time and are what the
package's values are checked against, and the variational sandwich is
tested on them alone. They import nothing from the package but its
error class, so no check here runs the code it checks:
weighted_logsumexp is this module's own.

The KL conventions are the package's: 0 * log(0 / q) = 0, and p[i] > 0
with q[i] = 0 makes the divergence +infinity (a value, not an error).
Natural logarithms throughout. The mixture bounds implement the
variational sandwich

    KL(p || mixture) <= -log sum_b w_b exp(-KL(p || Q_b))
                     <= min_b [ KL(p || Q_b) - log w_b ],

with the log-sum-exp evaluated in max-shifted log space. The softmax
responsibilities over -KL scores attain the middle expression, which is
what optimal_responsibilities returns.

gaussian_mechanism_neighbor_kl is the Gaussian route to the mu-GDP
stability envelope, the reference for that branch of
genbound.privacy_mechanisms.kl_stability_bound.

Inputs are validated, never clipped or smoothed.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from genbound.errors import InputError


class DiscreteDistribution:
    """A probability vector: non-negative entries summing to 1 within 1e-12."""

    __slots__ = ("probs",)

    def __init__(self, probs: Iterable[float]) -> None:
        arr = np.array(list(probs) if not isinstance(probs, np.ndarray) else probs,
                       dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise InputError("distribution must be a non-empty 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise InputError("distribution entries must be finite")
        if np.any(arr < 0):
            raise InputError("distribution entries must be non-negative")
        total = float(math.fsum(arr.tolist()))
        if abs(total - 1.0) > 1e-12:
            raise InputError(
                f"distribution entries must sum to 1 within 1e-12, got sum {total!r}"
            )
        arr.flags.writeable = False
        self.probs = arr

    @property
    def size(self) -> int:
        return int(self.probs.size)

    def __repr__(self) -> str:
        return f"DiscreteDistribution({self.probs.tolist()})"


def _as_probs(p: "DiscreteDistribution | Sequence[float] | np.ndarray") -> np.ndarray:
    if isinstance(p, DiscreteDistribution):
        return p.probs
    return np.asarray(p, dtype=float)


class MixtureSpec:
    """A finite mixture: components on a common support plus positive weights.

    Weights must sum to 1 within 1e-12. Components may be
    DiscreteDistribution objects or raw probability rows of equal length.
    """

    __slots__ = ("components", "weights")

    def __init__(
        self,
        components: Sequence["DiscreteDistribution | Sequence[float] | np.ndarray"],
        weights: Iterable[float],
    ) -> None:
        if len(components) < 1:
            raise InputError("mixture needs at least one component")
        rows = [_as_probs(c) for c in components]
        m = rows[0].size
        for i, row in enumerate(rows):
            if row.ndim != 1 or row.size != m:
                raise InputError(
                    f"mixture component {i} has length {row.size}, expected {m}"
                )
        w = np.asarray(list(weights), dtype=float)
        if w.size != len(rows):
            raise InputError(
                f"{w.size} weights for {len(rows)} components"
            )
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise InputError("mixture weights must be positive and finite")
        total = float(math.fsum(w.tolist()))
        if abs(total - 1.0) > 1e-12:
            raise InputError(
                f"mixture weights must sum to 1 within 1e-12, got sum {total!r}"
            )
        matrix = np.vstack(rows)
        matrix.flags.writeable = False
        w.flags.writeable = False
        self.components = matrix
        self.weights = w

    @property
    def component_count(self) -> int:
        return int(self.weights.size)

    @property
    def support_size(self) -> int:
        return int(self.components.shape[1])


def kl_divergence(
    p: "DiscreteDistribution | Sequence[float] | np.ndarray",
    q: "DiscreteDistribution | Sequence[float] | np.ndarray",
) -> float:
    """KL(p || q) in nats; +inf when p puts mass where q has none."""
    pa = _as_probs(p)
    qa = _as_probs(q)
    if pa.shape != qa.shape:
        raise InputError(f"dimension mismatch: {pa.shape} vs {qa.shape}")
    mask = pa > 0
    if np.any(qa[mask] <= 0):
        return math.inf
    ps = pa[mask]
    return float(np.sum(ps * np.log(ps / qa[mask])))


def weighted_logsumexp(a: "Sequence[float] | np.ndarray",
                       b: "Sequence[float] | np.ndarray") -> float:
    """log(sum(b * exp(a))) over all entries, evaluated shifted by the
    maximum; -inf where every term is zero."""
    a = np.asarray(a, dtype=float)
    shift = np.max(a)
    if not np.isfinite(shift):
        shift = 0.0
    with np.errstate(divide="ignore"):
        return float(np.log(np.sum(np.exp(a - shift) * b)) + shift)


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.max(x))
    return e / np.sum(e)


def mixture_distribution(mix: MixtureSpec) -> DiscreteDistribution:
    """The mixture's marginal: weights @ components."""
    return DiscreteDistribution(mix.weights @ mix.components)


def _component_kls(p: np.ndarray, mix: MixtureSpec) -> np.ndarray:
    return np.array([kl_divergence(p, mix.components[b])
                     for b in range(mix.component_count)])


def mixture_kl_bound_logsumexp(
    p: "DiscreteDistribution | Sequence[float] | np.ndarray", mix: MixtureSpec
) -> float:
    """Log-sum-exp upper bound on KL(p || mixture):
    -log sum_b w_b exp(-KL(p || Q_b)).
    """
    pa = _as_probs(p)
    if pa.size != mix.support_size:
        raise InputError(
            f"dimension mismatch: p has {pa.size}, mixture support is {mix.support_size}"
        )
    kls = _component_kls(pa, mix)
    finite = np.isfinite(kls)
    if not finite.any():
        return math.inf
    return float(-weighted_logsumexp(-kls[finite], mix.weights[finite]))


def mixture_kl_bound_min(
    p: "DiscreteDistribution | Sequence[float] | np.ndarray", mix: MixtureSpec
) -> float:
    """Single-component upper bound: min_b [ KL(p || Q_b) - log w_b ]."""
    pa = _as_probs(p)
    if pa.size != mix.support_size:
        raise InputError(
            f"dimension mismatch: p has {pa.size}, mixture support is {mix.support_size}"
        )
    kls = _component_kls(pa, mix)
    return float(np.min(kls - np.log(mix.weights)))


def optimal_responsibilities(
    p: "DiscreteDistribution | Sequence[float] | np.ndarray", mix: MixtureSpec
) -> np.ndarray:
    """Responsibilities attaining the log-sum-exp bound:
    softmax over b of (log w_b - KL(p || Q_b)).
    """
    pa = _as_probs(p)
    if pa.size != mix.support_size:
        raise InputError(
            f"dimension mismatch: p has {pa.size}, mixture support is {mix.support_size}"
        )
    kls = _component_kls(pa, mix)
    if not np.isfinite(kls).any():
        raise InputError("no absolutely continuous component")
    scores = np.log(mix.weights) - kls
    return _softmax(scores)


def mixture_variational_objective(
    p: "DiscreteDistribution | Sequence[float] | np.ndarray",
    mix: MixtureSpec,
    responsibilities: "Sequence[float] | np.ndarray",
) -> float:
    """Jensen objective sum_b phi_b [ KL(p || Q_b) + log(phi_b / w_b) ].

    Upper-bounds KL(p || mixture) for any responsibility vector phi on the
    simplex; minimized exactly by optimal_responsibilities, where it equals
    mixture_kl_bound_logsumexp.
    """
    pa = _as_probs(p)
    phi = np.asarray(responsibilities, dtype=float)
    if phi.size != mix.component_count:
        raise InputError(
            f"{phi.size} responsibilities for {mix.component_count} components"
        )
    if np.any(phi < 0) or abs(float(math.fsum(phi.tolist())) - 1.0) > 1e-9:
        raise InputError("responsibilities must be a point on the simplex")
    kls = _component_kls(pa, mix)
    total = 0.0
    for b in range(phi.size):
        if phi[b] == 0.0:
            continue
        if not math.isfinite(kls[b]):
            return math.inf
        total += phi[b] * (kls[b] + math.log(phi[b] / mix.weights[b]))
    return float(total)


def gaussian_mechanism_neighbor_kl(mu: float, k: int) -> float:
    """Worst-case KL between Gaussian-mechanism outputs at distance k.

    Replacing k elements moves the count vector by +-k in two
    coordinates, so the means differ by ||delta||^2 = 2 k^2; with
    per-coordinate noise variance sigma^2 = 2 / mu^2 the Gaussian KL is
    ||delta||^2 / (2 sigma^2) = (k mu)^2 / 2, the mu-GDP envelope.
    """
    if not (mu > 0):
        raise InputError(f"mu must be positive, got {mu}")
    if k < 0:
        raise InputError(f"distance must be non-negative, got {k}")
    delta_sq = 2.0 * k * k
    sigma_sq = 2.0 / (mu * mu)
    return delta_sq / (2.0 * sigma_sq)
