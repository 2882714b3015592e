"""KL divergences between the rows of one kernel: the stability audit's.

KL(K_i || K_j) is computed for every row pair, types_core.BLOCK_ROWS
rows of i at a time, as H_i - K_i @ log(K_j), in nats, with the usual
conventions exactly: 0 * log(0 / q) = 0; +infinity (a value, not an
error) where K_i puts mass on a zero of K_j; and exactly 0.0 for rows
equal by value. verify-mi's expected KLs take the chain rule
(oracle_harness) and do not load this layer. The one-row KL and the
variational mixture bounds live in tests/divergence_reference.py, which
imports nothing from this module.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .types_core import BLOCK_ROWS

__all__ = ["kl_row_blocks"]


def _row_keys(kernel: np.ndarray) -> np.ndarray:
    """A uint64 key per row, equal for rows equal by value: each entry's
    bits (-0.0 read as 0.0) times a fixed odd multiplier per column,
    summed mod 2**64, which no summation order can change. Taken one
    BLOCK_ROWS block at a time. The multipliers are splitmix64's output
    for the column index, so no random generator is loaded."""
    z = np.arange(1, kernel.shape[1] + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    multipliers = (z ^ (z >> np.uint64(31))) | np.uint64(1)
    keys = np.empty(kernel.shape[0], dtype=np.uint64)
    for lo in range(0, kernel.shape[0], BLOCK_ROWS):
        bits = (kernel[lo:lo + BLOCK_ROWS] + 0.0).view(np.uint64)
        keys[lo:lo + bits.shape[0]] = (bits * multipliers).sum(axis=1)
    return keys


def _row_ids(kernel: np.ndarray) -> np.ndarray:
    """Each row's id, the first row equal to it by value. A row whose key
    ties an earlier row's is compared with that row entry by entry; one
    that differs tries again among the rows left unresolved."""
    keys = _row_keys(kernel)
    ids = np.arange(kernel.shape[0])
    pending = ids.copy()
    while pending.size:
        _, first, inverse = np.unique(keys[pending], return_index=True,
                                      return_inverse=True)
        lead = pending[first[inverse]]
        same = lead == pending
        tied = np.flatnonzero(~same)
        for lo in range(0, tied.size, BLOCK_ROWS):
            rows = tied[lo:lo + BLOCK_ROWS]
            same[rows] = np.all(kernel[pending[rows]] == kernel[lead[rows]], axis=1)
        ids[pending[same]] = lead[same]
        pending = pending[~same]
    return ids


def kl_row_blocks(kernel: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first_row, block) for each BLOCK_ROWS rows of a 2-D kernel,
    where block[i, j] = KL(kernel[first_row + i] || kernel[j]). The
    kernel's log, its zero columns and its row ids are computed once, not
    once per block, so beyond the kernel the pass holds one log of it and
    one block."""
    ids = _row_ids(kernel)
    # masked logs: zeros contribute 0 to the products and never make nan
    log_k = np.log(kernel, where=kernel > 0, out=np.zeros_like(kernel))
    # only columns where some row is zero can give +inf
    zero_cols = np.flatnonzero(~kernel.all(axis=0))
    k_zero = (kernel[:, zero_cols] == 0).astype(float)
    for lo in range(0, kernel.shape[0], BLOCK_ROWS):
        p = kernel[lo:lo + BLOCK_ROWS]
        p_log_p = np.einsum("ij,ij->i", p, log_k[lo:lo + BLOCK_ROWS])
        block = p @ log_k.T
        np.subtract(p_log_p[:, None], block, out=block)
        if zero_cols.size:
            off_support = (p[:, zero_cols] > 0).astype(float) @ k_zero.T > 0
            block[off_support] = math.inf
        # equal rows cancel exactly in the scalar sum, not in H - cross
        block[ids[lo:lo + BLOCK_ROWS, None] == ids[None, :]] = 0.0
        yield lo, block
        del block  # freed before the next block if the caller let it go
