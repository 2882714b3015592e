"""Independent exact oracle for verify-mi and simulate outputs.

Recomputes the exact mutual information I(S; W) and the exact expected
generalization error from the kernel with plain numpy and log-space
multinomials (math.lgamma). It shares no code with the package, so a
bug in the package's oracle cannot hide from it.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np


class Exact(NamedTuple):
    mi: float
    gen_error: float


def count_vectors(m: int, n: int) -> np.ndarray:
    """Every count vector of length m summing to n, lexicographic order."""
    rows = [
        c + (n - sum(c),)
        for c in itertools.product(range(n + 1), repeat=m - 1)
        if sum(c) <= n
    ]
    return np.array(rows, dtype=np.int64)


def log_multinomial(counts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    n = int(counts[0].sum())
    coef = math.lgamma(n + 1) - np.vectorize(math.lgamma)(counts + 1.0).sum(axis=1)
    return coef + (counts * np.log(probs)).sum(axis=1)


def kernel(mechanism: str, counts: np.ndarray, epsilon: float | None) -> np.ndarray:
    t = counts.shape[0]
    if mechanism == "uniform":
        return np.full((t, t), 1.0 / t)
    if mechanism == "exponential":
        dist = np.abs(counts[:, None, :] - counts[None, :, :]).sum(axis=2) / 2.0
        raw = np.exp(-epsilon * dist / 2.0)
        return raw / raw.sum(axis=1, keepdims=True)
    raise ValueError(f"no reference kernel for mechanism {mechanism!r}")


def exact_quantities(
    m: int, n: int, source: list[float], mechanism: str, privacy_value: float
) -> Exact:
    """Exact MI and expected generalization error of a config whose
    hypotheses are the count vectors and whose loss is 1 - frequency."""
    counts = count_vectors(m, n)
    probs = np.asarray(source, dtype=float)
    p_types = np.exp(log_multinomial(counts, probs))
    k = kernel(mechanism, counts, privacy_value if mechanism == "exponential" else None)
    marginal = p_types @ k
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(k > 0, k * np.log(k / marginal), 0.0)
    mi = math.fsum((p_types * terms.sum(axis=1)).tolist())
    freqs = counts / n
    loss = 1.0 - freqs  # one row per hypothesis
    population = loss @ probs
    empirical = freqs @ loss.T  # [type, hypothesis]
    per_type = (k * (population[None, :] - empirical)).sum(axis=1)
    return Exact(mi=max(mi, 0.0), gen_error=float(p_types @ per_type))
