"""KL divergences between the rows of two finite distribution arrays.

KL(P_i || Q_j) is computed for every row pair at once as
H_i - P_i @ log(Q_j), in nats, with the usual conventions exactly:
0 * log(0 / q) = 0; +infinity (a value, not an error) where P_i puts
mass on a zero of Q_j; and exactly 0.0 for identical rows.
kl_matrix returns the whole matrix; kl_row_blocks yields the same
values types_core.BLOCK_ROWS rows of P at a time. logsumexp is the
max-shifted log-sum-exp that per_dataset_kl_to_cover_mixture takes
across each row of its KL matrix, unweighted, since every cover center
weighs the same. This layer serves that and the stability audit:
verify-mi's expected KLs take the chain rule (oracle_harness).
The one-row KL, the mixture bounds and a weighted log-sum-exp these are
tested against live in tests/divergence_reference.py, which imports
nothing from this module.

Inputs are validated, never clipped or smoothed.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .errors import InputError
from .types_core import BLOCK_ROWS

__all__ = [
    "kl_matrix",
    "kl_row_blocks",
    "logsumexp",
]


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
    """Yield (first_row, block) for each BLOCK_ROWS rows of P, where
    block[i, j] = KL(P[first_row + i] || Q_j) as in kl_matrix. log(Q), Q's
    support mask and its row ids are computed once, not once per block."""
    pa, qa = _kl_operands(P, Q)
    # masked logs: zeros contribute 0 to the products and never make nan
    log_q = np.log(qa, where=qa > 0, out=np.zeros_like(qa))
    q_zero = qa <= 0
    # support mask: only columns where some row of Q is zero can give +inf
    zero_cols = np.flatnonzero(q_zero.any(axis=0))
    q_zero = q_zero[:, zero_cols].astype(float)
    # identical rows cancel exactly in the scalar sum, not in H - cross
    row_ids: dict[bytes, int] = {}
    q_ids = np.array([row_ids.setdefault(r.tobytes(), len(row_ids)) for r in qa])
    for lo in range(0, pa.shape[0], BLOCK_ROWS):
        p = pa[lo:lo + BLOCK_ROWS]
        log_p = np.log(p, where=p > 0, out=np.zeros_like(p))
        p_log_p = np.einsum("ij,ij->i", p, log_p)
        del log_p  # so the next block's is never allocated beside it
        block = p @ log_q.T
        np.subtract(p_log_p[:, None], block, out=block)
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

    0 * log 0 = 0, +inf where P_i puts mass on a zero of Q_j, and 0.0
    for identical rows. Other entries agree with the one-row reference
    in tests/divergence_reference.py to rounding (the two differ in
    summation order). The result is filled from kl_row_blocks, so
    memory beyond it is one block, O(BLOCK_ROWS * len(Q)).
    """
    pa, qa = _kl_operands(P, Q)
    out = np.empty((pa.shape[0], qa.shape[0]))
    for lo, block in kl_row_blocks(pa, qa):
        out[lo:lo + block.shape[0]] = block
        del block  # so kl_row_blocks can free it before the next block
    return out


def logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(row))) for each row of a 2-D array, evaluated shifted
    by the row's maximum; -inf where every term is zero."""
    a = np.asarray(a, dtype=float)
    shift = np.max(a, axis=1, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - shift), axis=1, keepdims=True)) + shift
    return out[:, 0]
