"""Concrete private kernels and KL stability audits.

A mechanism here is a row-stochastic kernel from count vectors to a
finite hypothesis set; row order is the lexicographic count-vector
order, which is a public contract shared with the serialization format.
PrivacyKind and PrivacyParams are defined in genbound.privacy and
re-exported here.

A Mechanism adopts the float64 array it is given: it validates it, makes
it read-only and keeps it, with no copy. The builders and the CSV loader
each fill one T x hypotheses array in place and hand it over, so a
kernel exists once per run; the exponential builder fills it a
types_core.row_blocks block at a time, so its distances never exist for
the whole lattice at once.

Privacy translates into KL stability between neighboring inputs:

- eps-DP at replacement distance k: KL <= min(k*eps*tanh(k*eps/2),
  (k*eps)**2/2, k*eps); the tanh expression is never the loser and the
  quadratic/linear envelopes cross at k*eps = 2;
- mu-GDP at distance k: KL <= (k*mu)**2 / 2.

verify_kl_stability measures the worst observed KL at every distance
and compares it against these envelopes, which is the audit the CLI
exposes. A measured quantity passes when it stays within its bound plus
SLACK_TOL; the verification harness judges every certified bound by the
same tolerance.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import InputError, ResourceLimitError, input_lines
from .privacy import PrivacyKind, PrivacyParams
from .records import Record
from .types_core import (
    check_cap,
    distance_matrix,
    num_types,
    row_blocks,
    type_counts,
)

__all__ = [
    "SLACK_TOL",
    "KERNEL_CELL_BUDGET",
    "check_kernel_cells",
    "PrivacyKind",
    "PrivacyParams",
    "Mechanism",
    "StabilityRow",
    "StabilityReport",
    "kl_stability_bound",
    "exponential_mechanism_over_types",
    "identity_mechanism",
    "uniform_mechanism",
    "verify_kl_stability",
    "gdp_param_noisy_sgd",
    "save_mechanism_csv",
    "load_mechanism_csv",
]


class Mechanism:
    """Row-stochastic kernel from count vectors to hypothesis indices.

    kernel[i] is the output distribution for the i-th count vector in
    lexicographic order; rows must sum to 1 within 1e-10. The declared
    privacy is an assertion about the kernel, not a derived fact; use
    verify_kl_stability to audit it.

    The mechanism adopts a float64 kernel rather than copying it: the
    array is made read-only and kept, so the caller must not write to it
    (or to an array it views) afterwards. Any other input is converted
    to a new float64 array first.
    """

    __slots__ = ("kernel", "alphabet_size", "n", "privacy", "description")

    def __init__(
        self,
        kernel: np.ndarray,
        alphabet_size: int,
        n: int,
        privacy: PrivacyParams,
        description: str = "",
    ) -> None:
        mat = np.asarray(kernel, dtype=float)
        if mat.ndim != 2:
            raise InputError("kernel must be a 2-D array")
        _check_rows(mat.shape[0], alphabet_size, n)
        if mat.shape[1] < 1:
            raise InputError("kernel needs at least one hypothesis column")
        # reductions, not a T x hypotheses mask: a nan fails both tests
        if not (mat.min() >= 0 and mat.max() < math.inf):
            raise InputError("kernel entries must be finite and non-negative")
        sums = mat.sum(axis=1)
        bad = np.where(np.abs(sums - 1.0) > 1e-10)[0]
        if bad.size:
            raise InputError(
                f"kernel row {int(bad[0])} sums to {sums[bad[0]]!r}, "
                "expected 1 within 1e-10"
            )
        mat.flags.writeable = False
        self.kernel = mat
        self.alphabet_size = int(alphabet_size)
        self.n = int(n)
        self.privacy = privacy
        self.description = description

    @property
    def hypothesis_count(self) -> int:
        return int(self.kernel.shape[1])


def _check_rows(rows: int, alphabet_size: int, n: int) -> None:
    """Refuse a kernel whose row count is not the lattice's."""
    expected = num_types(alphabet_size, n)
    if rows != expected:
        raise InputError(
            f"kernel has {rows} rows; alphabet size {alphabet_size} "
            f"with n={n} has {expected} count vectors"
        )


def kl_stability_bound(privacy: PrivacyParams, k: int) -> float:
    """KL stability envelope at replacement distance k for a declared
    privacy guarantee. Zero distance is zero divergence."""
    if k < 0:
        raise InputError(f"distance must be non-negative, got {k}")
    if privacy.kind is PrivacyKind.NONE:
        raise InputError("no privacy guarantee: stability bound undefined")
    if k == 0:
        return 0.0
    x = k * privacy.value
    if privacy.kind is PrivacyKind.EPS_DP:
        return min(x * math.tanh(x / 2.0), x * x / 2.0, x)
    # a product, not ** 2, so a huge mu overflows to inf, not to an error
    return 0.5 * (x * x)


# How far a measured quantity may exceed its certified bound and still
# pass: room for rounding in the exact sums, never a relaxation of a bound.
SLACK_TOL = 1e-9


# Largest kernel the package allocates: 25 million cells, 200 MB per
# float64 array (a T x T kernel with T <= 5000), well inside a desk machine.
KERNEL_CELL_BUDGET = 25_000_000


def check_kernel_cells(total: int, width: int) -> None:
    """Refuse a T x width kernel over KERNEL_CELL_BUDGET cells with
    ResourceLimitError; called before allocating or reading one."""
    cells = total * width
    if cells > KERNEL_CELL_BUDGET:
        raise ResourceLimitError(
            f"a kernel over T={total} count vectors and {width} "
            f"hypotheses has {cells} cells, over the budget of "
            f"{KERNEL_CELL_BUDGET} cells"
        )


def _square_kernel_size(alphabet_size: int, n: int) -> int:
    """T, after checking the type cap and that a T x T kernel stays
    within KERNEL_CELL_BUDGET cells; called before allocating one."""
    total = check_cap(alphabet_size, n)
    check_kernel_cells(total, total)
    return total


def exponential_mechanism_over_types(
    alphabet_size: int, n: int, epsilon: float
) -> Mechanism:
    """Exponential mechanism selecting a count vector near the input's.

    Hypothesis set = the count vectors themselves; the row for input s
    weights candidate w proportionally to exp(-eps * d(s, w) / 2). The
    replacement distance has sensitivity 1, so this is eps-DP. The T x T
    kernel is the only array of its size: it is filled a row block at a
    time and normalised in place.
    """
    if not (0 < epsilon < math.inf):
        raise InputError(f"epsilon must be positive and finite, got {epsilon}")
    total = _square_kernel_size(alphabet_size, n)
    counts = type_counts(alphabet_size, n)
    # one weight per distance 0..n, read through the distance matrix: bit
    # for bit exp over the whole T x T matrix, with n + 1 exps instead of
    # T^2. At a huge eps, -eps * k overflows to -inf: the weight is 0.
    with np.errstate(over="ignore"):
        weights = np.exp(-epsilon * np.arange(n + 1) / 2.0)
    kernel = np.empty((total, total))
    for rows in row_blocks(total, total):
        np.take(weights, distance_matrix(counts[rows], counts), out=kernel[rows])
    kernel /= kernel.sum(axis=1, keepdims=True)
    return Mechanism(
        kernel,
        alphabet_size,
        n,
        PrivacyParams.eps_dp(epsilon),
        description=f"exponential mechanism over count vectors, eps={epsilon}",
    )


def identity_mechanism(alphabet_size: int, n: int) -> Mechanism:
    """Deterministic kernel mapping each count vector to its own index."""
    total = _square_kernel_size(alphabet_size, n)
    kernel = np.eye(total)
    return Mechanism(
        kernel,
        alphabet_size,
        n,
        PrivacyParams.none(),
        description="identity mechanism (reports the input count vector)",
    )


def uniform_mechanism(alphabet_size: int, n: int) -> Mechanism:
    """Input-independent kernel: uniform over the count-vector indices."""
    total = _square_kernel_size(alphabet_size, n)
    kernel = np.full((total, total), 1.0 / total)
    return Mechanism(
        kernel,
        alphabet_size,
        n,
        PrivacyParams.none(),
        description="uniform mechanism (ignores its input)",
    )


class StabilityRow(Record):
    """Audit result at one replacement distance."""

    __slots__ = ("k", "max_kl", "bound", "passed", "worst_pair")

    def __init__(self, k: int, max_kl: float, bound: float, passed: bool,
                 worst_pair: tuple[int, int]) -> None:
        self._assign(k, max_kl, bound, passed, worst_pair)


class StabilityReport(Record):
    """Audit results at every distance 1..n, and whether all passed."""

    __slots__ = ("rows", "passed")

    def __init__(self, rows: tuple[StabilityRow, ...], passed: bool) -> None:
        self._assign(rows, passed)


def verify_kl_stability(mech: Mechanism) -> StabilityReport:
    """Measure the worst KL between kernel rows at every distance and
    compare against the declared privacy's stability envelope.

    Covers all ordered row pairs (KL is asymmetric), one kl_row_blocks
    block at a time with one scatter-max by distance per block, so beyond
    the kernel and its log it holds one block of KL values and
    distances.
    A distance passes when its worst observed KL is finite and stays
    within bound + SLACK_TOL: a finite declared parameter has a finite
    true envelope, even where the float envelope overflows to inf. Its
    witness is the first pair in row-major order that attains the worst
    value; on exactly tied pairs that is judged on kl_row_blocks values,
    which can break a tie that the one-row reference
    (tests/divergence_reference.py) would round differently (symmetric
    rows are the usual case).
    """
    from .divergence_core import kl_row_blocks

    if mech.privacy.kind is PrivacyKind.NONE:
        raise InputError("mechanism declares no privacy guarantee to audit")
    counts = type_counts(mech.alphabet_size, mech.n)
    total = counts.shape[0]
    # worst KL so far at each distance 0..n, and its pair's flat T x T index
    max_kl = np.full(mech.n + 1, -math.inf)
    witness = np.zeros(mech.n + 1, dtype=np.int64)
    for lo, block in kl_row_blocks(mech.kernel):
        kl = block.ravel()
        dist = distance_matrix(counts[lo:lo + len(block)], counts).ravel()
        block_max = np.full(mech.n + 1, -math.inf)
        np.maximum.at(block_max, dist, kl)
        hits = np.flatnonzero(kl == block_max[dist])
        first = np.full(mech.n + 1, kl.size)
        np.minimum.at(first, dist[hits], hits)
        better = block_max > max_kl  # strict: an earlier block keeps a tie
        max_kl[better] = block_max[better]
        witness[better] = lo * total + first[better]
        # freed before kl_row_blocks computes the next block
        del block, kl, dist, hits
    rows = []
    # with m >= 2 symbols every distance 1..n occurs; 0 is only i == j
    for k in range(1, mech.n + 1):
        worst, bound = float(max_kl[k]), kl_stability_bound(mech.privacy, k)
        rows.append(
            StabilityRow(
                k=k, max_kl=worst, bound=bound,
                passed=worst < math.inf and worst <= bound + SLACK_TOL,
                worst_pair=divmod(int(witness[k]), total),
            )
        )
    return StabilityReport(rows=tuple(rows), passed=all(r.passed for r in rows))


def gdp_param_noisy_sgd(
    batch_size: float, n: int, iterations: int, noise_scale: float
) -> float:
    """GDP parameter of noisy SGD: (B/n) * sqrt(T * (exp(1/nu^2) - 1))."""
    if not (batch_size > 0):
        raise InputError(f"batch size must be positive, got {batch_size}")
    if n < 1:
        raise InputError(f"dataset length must be positive, got {n}")
    if iterations < 1:
        raise InputError(f"iteration count must be positive, got {iterations}")
    if not (noise_scale > 0):
        raise InputError(f"noise scale must be positive, got {noise_scale}")
    return (batch_size / n) * math.sqrt(
        iterations * math.expm1(1.0 / (noise_scale * noise_scale))
    )


def save_mechanism_csv(mech: Mechanism, path: str) -> str:
    """Write the kernel (one row per line, lexicographic row order) to
    `path` and a key=value sidecar to `path + '.meta'`. Returns the
    sidecar path. Entries use repr precision so loading round-trips; both
    files are UTF-8, the encoding load_mechanism_csv reads."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in mech.kernel:
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")
    meta_path = path + ".meta"
    value = "" if mech.privacy.value is None else repr(mech.privacy.value)
    with open(meta_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"alphabet_size={mech.alphabet_size}\n")
        fh.write(f"n={mech.n}\n")
        fh.write(f"hypothesis_count={mech.hypothesis_count}\n")
        fh.write(f"privacy_kind={mech.privacy.kind.value}\n")
        fh.write(f"privacy_value={value}\n")
        fh.write(f"description={mech.description}\n")
    return meta_path


_SIDECAR_KEYS = {"alphabet_size", "n", "hypothesis_count", "privacy_kind",
                 "privacy_value", "description"}


def load_mechanism_csv(path: str) -> Mechanism:
    """Load a kernel written by save_mechanism_csv (sidecar required).
    Either file missing, a directory or not UTF-8 raises InputError, as
    does a sidecar key that save_mechanism_csv does not write or one
    written twice. A description keeps everything after its '=', '#'
    included.

    Each line is parsed into its row of one T x hypothesis_count array,
    allocated once the sidecar's size passes KERNEL_CELL_BUDGET, which
    the Mechanism then adopts. Every line is checked; a file with more
    or fewer rows than the lattice's T count vectors is refused after
    the last line.
    """
    meta_path = path + ".meta"
    if not os.path.exists(meta_path):
        raise InputError(f"mechanism sidecar not found: {meta_path}")
    meta: dict[str, str] = {}
    for lineno, line in enumerate(input_lines(meta_path), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{meta_path}: malformed line {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _SIDECAR_KEYS:
            raise InputError(f"{meta_path}: unknown key {key!r} on line {lineno}")
        if key in meta:
            raise InputError(f"{meta_path}: duplicate key {key!r} on line {lineno}")
        meta[key] = val
    for key in ("alphabet_size", "n", "hypothesis_count", "privacy_kind"):
        if key not in meta:
            raise InputError(f"{meta_path}: missing key {key!r}")
    try:
        alphabet_size, n, width = (
            int(meta[key]) for key in ("alphabet_size", "n", "hypothesis_count")
        )
    except ValueError:
        raise InputError(
            f"{meta_path}: alphabet_size, n and hypothesis_count must be integers"
        ) from None
    total = num_types(alphabet_size, n)
    check_kernel_cells(total, width)
    kind = meta["privacy_kind"]
    if kind == PrivacyKind.NONE.value:
        privacy = PrivacyParams.none()
    elif kind in (PrivacyKind.EPS_DP.value, PrivacyKind.MU_GDP.value):
        try:
            value = float(meta.get("privacy_value", ""))
        except ValueError:
            raise InputError(
                f"{meta_path}: privacy_value must be a number, "
                f"got {meta.get('privacy_value')!r}"
            ) from None
        privacy = PrivacyParams(PrivacyKind(kind), value)
    else:
        raise InputError(f"{meta_path}: unknown privacy kind {kind!r}")
    # a negative width allocates no column; its lines fail the width check
    kernel = np.empty((total, max(width, 0)))
    rows = 0
    for lineno, line in enumerate(input_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise InputError(
                f"{path}: line {lineno} has {len(fields)} entries, "
                f"hypothesis_count is {width}"
            )
        try:
            row = [float(x) for x in fields]
        except ValueError:
            raise InputError(f"{path}: non-numeric entry on line {lineno}") from None
        if rows < total:
            kernel[rows] = row
        rows += 1
    _check_rows(rows, alphabet_size, n)
    return Mechanism(
        kernel,
        alphabet_size,
        n,
        privacy,
        description=meta.get("description", ""),
    )
