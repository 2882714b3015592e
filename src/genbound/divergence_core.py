"""KL divergence and variational mixture bounds for finite distributions.

The KL divergence here follows the usual conventions exactly:
0 * log(0 / q) = 0, and p[i] > 0 with q[i] = 0 makes the divergence
+infinity (a value, not an error). Natural logarithms throughout.

The mixture bounds implement the variational sandwich

    KL(p || mixture) <= -log sum_b w_b exp(-KL(p || Q_b))
                     <= min_b [ KL(p || Q_b) - log w_b ],

with the log-sum-exp evaluated in max-shifted log space. The softmax
responsibilities over -KL scores attain the middle expression, which is
what optimal_responsibilities returns.

kl_matrix evaluates KL(P_i || Q_j) for every row pair at once as
H_i - P_i @ log(Q_j), with the same conventions as kl_divergence;
kl_row_blocks yields the same values a block of rows of P at a time.
The scalar kl_divergence and the mixture_kl_bound_* functions stay the
pair-at-a-time reference the matrix form is tested against.

Inputs are validated, never clipped or smoothed.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError

__all__ = [
    "KL_BLOCK_ROWS",
    "DiscreteDistribution",
    "MixtureSpec",
    "kl_divergence",
    "kl_matrix",
    "kl_row_blocks",
    "logsumexp",
    "mixture_distribution",
    "mixture_kl_bound_logsumexp",
    "mixture_kl_bound_min",
    "optimal_responsibilities",
    "mixture_variational_objective",
]


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


# Rows of P per block in kl_row_blocks: its temporaries are KL_BLOCK_ROWS
# x len(Q) arrays, whatever the number of rows.
KL_BLOCK_ROWS = 256


def _kl_operands(P, Q) -> tuple[np.ndarray, np.ndarray]:
    pa = np.asarray(P, dtype=float)
    qa = np.asarray(Q, dtype=float)
    if pa.ndim != 2 or qa.ndim != 2 or pa.shape[1] != qa.shape[1]:
        raise InputError(
            f"a KL matrix needs two 2-D arrays with equal row length, "
            f"got {pa.shape} and {qa.shape}"
        )
    return pa, qa


def kl_row_blocks(
    P: "Sequence[Sequence[float]] | np.ndarray",
    Q: "Sequence[Sequence[float]] | np.ndarray",
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first_row, block) for each KL_BLOCK_ROWS rows of P, where
    block[i, j] = KL(P[first_row + i] || Q_j) as in kl_matrix. log(Q), Q's
    support mask and its row ids are computed once, not once per block."""
    pa, qa = _kl_operands(P, Q)
    # masked logs: zeros contribute 0 to the products and never make nan
    log_q = np.log(qa, where=qa > 0, out=np.zeros_like(qa))
    # support mask: only columns where some row of Q is zero can give +inf
    zero_cols = np.flatnonzero((qa <= 0).any(axis=0))
    q_zero = (qa[:, zero_cols] <= 0).astype(float)
    # identical rows cancel exactly in the scalar sum, not in H - cross
    row_ids: dict[bytes, int] = {}
    q_ids = np.array([row_ids.setdefault(r.tobytes(), len(row_ids)) for r in qa])
    for lo in range(0, pa.shape[0], KL_BLOCK_ROWS):
        p = pa[lo:lo + KL_BLOCK_ROWS]
        log_p = np.log(p, where=p > 0, out=np.zeros_like(p))
        block = p @ log_q.T
        np.subtract(np.einsum("ij,ij->i", p, log_p)[:, None], block, out=block)
        if zero_cols.size:
            off_support = (p[:, zero_cols] > 0).astype(float) @ q_zero.T > 0
            block[off_support] = math.inf
        p_ids = np.array([row_ids.get(r.tobytes(), -1) for r in p])
        block[p_ids[:, None] == q_ids[None, :]] = 0.0
        yield lo, block
        del block  # freed before the next block if the caller let it go


def kl_matrix(
    P: "Sequence[Sequence[float]] | np.ndarray",
    Q: "Sequence[Sequence[float]] | np.ndarray",
) -> np.ndarray:
    """KL(P_i || Q_j) in nats for every row pair, shape (len(P), len(Q)).

    Follows kl_divergence exactly: 0 * log 0 = 0, +inf where P_i puts
    mass on a zero of Q_j, and 0.0 for identical rows. Other entries
    agree with kl_divergence to rounding (the two differ in summation
    order). The result is filled from kl_row_blocks, so memory beyond
    it is one block, O(KL_BLOCK_ROWS * len(Q)).
    """
    pa, qa = _kl_operands(P, Q)
    out = np.empty((pa.shape[0], qa.shape[0]))
    for lo, block in kl_row_blocks(pa, qa):
        out[lo:lo + block.shape[0]] = block
        del block  # so kl_row_blocks can free it before the next block
    return out


def logsumexp(
    a: "Sequence[float] | np.ndarray",
    b: "Sequence[float] | np.ndarray | None" = None,
    axis: int | None = None,
) -> "float | np.ndarray":
    """log(sum(b * exp(a))) along axis (all entries when None), evaluated
    shifted by the maximum; -inf where every term is zero."""
    a = np.asarray(a, dtype=float)
    shift = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    terms = np.exp(a - shift)
    if b is not None:
        terms = terms * b
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(terms, axis=axis, keepdims=True)) + shift
    return out.item() if axis is None else np.squeeze(out, axis=axis)


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
    return float(-logsumexp(-kls[finite], b=mix.weights[finite]))


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
