"""KL divergences between the rows of one kernel: the stability audit's.

KL(K_i || K_j) is computed for every row pair, a types_core.row_blocks
block of i at a time, as H_i - K_i @ log(K_j), in nats, with the usual
conventions exactly: 0 * log(0 / q) = 0; +infinity (a value, not an
error) where K_i puts mass on a zero of K_j; and exactly 0.0 for rows
equal by value, which a dict of hashed row bytes finds. verify-mi's
expected KLs take the chain rule (oracle_harness) and do not load this
layer. The one-row KL and the variational mixture bounds live in
tests/divergence_reference.py, which imports nothing from this module.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .types_core import row_blocks

__all__ = ["kl_row_blocks"]


def _row_ids(kernel: np.ndarray) -> np.ndarray:
    """Each row's id, the first row equal to it by value (-0.0 equal to
    0.0). Rows are grouped by a hash of their bytes with -0.0 read as 0.0,
    and a row takes the id of an earlier member of its group only if it
    equals it entry by entry, so a hash tie never merges distinct rows."""
    ids = np.arange(kernel.shape[0])
    groups: dict[int, list[int]] = {}
    for i, row in enumerate(kernel):
        members = groups.setdefault(hash((row + 0.0).tobytes()), [])
        for j in members:
            if np.array_equal(row, kernel[j]):
                ids[i] = j
                break
        else:
            members.append(i)
    return ids


def kl_row_blocks(kernel: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first_row, block) for each row block of a 2-D kernel, where
    block[i, j] = KL(kernel[first_row + i] || kernel[j]). The
    kernel's log, its zero-column mask and its row ids are computed once,
    not once per block, so beyond the kernel the pass holds one log of
    it, a float32 mask and one block."""
    ids = _row_ids(kernel)
    # masked logs: zeros contribute 0 to the products and never make nan
    log_k = np.log(kernel, where=kernel > 0, out=np.zeros_like(kernel))
    # only columns where some row is zero can give +inf; sums of 0/1
    # products are exact in float32 below 2**24 terms
    zero_cols = np.flatnonzero(~kernel.all(axis=0))
    total = kernel.shape[0]
    k_zero = np.empty((total, zero_cols.size), dtype=np.float32)
    for rows in row_blocks(total, zero_cols.size):
        k_zero[rows] = kernel[rows, zero_cols] == 0
    # a block's temporaries are its rows times T pairs or the zero columns
    for rows in row_blocks(total, max(total, zero_cols.size)):
        p = kernel[rows]
        p_log_p = np.einsum("ij,ij->i", p, log_k[rows])
        block = p @ log_k.T
        np.subtract(p_log_p[:, None], block, out=block)
        if zero_cols.size:
            off_support = (p[:, zero_cols] > 0).astype(np.float32) @ k_zero.T > 0
            block[off_support] = math.inf
        # equal rows cancel exactly in the scalar sum, not in H - cross
        block[ids[rows, None] == ids[None, :]] = 0.0
        yield rows.start, block
        del block  # freed before the next block if the caller let it go
