"""Exact and Monte-Carlo verification of the bound catalog.

At desk scale everything is computable exactly: the type distribution is
a finite vector, the mechanism a finite kernel, so mutual information
and expected generalization error are finite sums. That turns every
bound into a checkable inequality with a measured slack.

Certification routes, each naming the comparison value a bound is
checked against:

- count-based bounds (type_count, grid, simplex branches): the
  expectation of the per-dataset KL to the bound's own cover mixture,
  the exact quantity the bound dominates;
- typical-set branches bound only the mutual information, so theirs is
  the exact MI;
- the sub-Gaussian conversion: the absolute exact expected
  generalization error.

The report carries each bound and its comparison value, and reads from
them each slack (bound minus comparison) and the violations, the bounds
whose slack falls below -SLACK_TOL, the audit's tolerance in
privacy_mechanisms. A kernel whose rows are all the same ignores its
input: every expected KL to a mixture of its rows, exact MI included, is
then exactly 0.0.

The kernel is the one T x hypotheses array a run holds; everything else
is reduced from it in place or one block of rows at a time. Every
comparison but the gen error has the form sum_s P(s) KL(K_s || q), with
q the output marginal (exact MI) or a cover's mixture. By the chain rule
that is -H(W | S) - sum_w qbar_w log q_w for the marginal qbar = P @ K,
so a run takes the kernel's logs once, and each target costs one sum
over hypotheses. A marginal entry that underflows weighs ~0 in that sum,
so it needs no log domain. run_verification is the one entry point for
exact MI (VerificationReport.exact_mi). A cover's mixture is a 0/1
weight vector times the kernel, not a gathered copy of the center rows,
and a hypothesis's empirical risk on a count vector is its loss row
dotted with the vector's frequencies, so no hypotheses x T risk table
exists.

Monte Carlo draws each chunk of _MC_CHUNK samples from its own Philox
counter-based stream keyed (seed, chunk index) and reduces the chunks in
order, so estimates depend on (seed, mc_samples) alone. A round of
_MC_ROUND chunks takes the CDF of each kernel row it drew, once.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import InputError, input_lines
from .privacy import PrivacyParams
from .privacy_mechanisms import (
    SLACK_TOL,
    Mechanism,
    check_kernel_cells,
    exponential_mechanism_over_types,
    identity_mechanism,
    load_mechanism_csv,
    uniform_mechanism,
)
from .records import Record
from .types_core import (
    SourceDistribution,
    check_cap,
    enforce_cap,
    row_blocks,
    sigma_sub_gaussian,
    type_counts,
    type_probabilities,
    type_rank,
)

# The closed-form catalog and the covers are imported by the functions
# that use them, so Monte Carlo (simulate) loads neither. Nothing here
# reads the KL layer (divergence_core), which only the audit runs.
if TYPE_CHECKING:
    from .bounds_catalog import BoundId
    from .covering import CoverSpec

__all__ = [
    "ExperimentConfig",
    "McResult",
    "VerificationReport",
    "default_loss_table",
    "random_mechanism",
    "exact_expected_gen_error",
    "mc_expected_gen_error",
    "run_verification",
    "load_experiment_config",
]

_MC_CHUNK = 4096
_MC_ROUND = 8  # chunks drawn, then searched together


class ExperimentConfig:
    """A complete, checkable experiment: source, mechanism, loss, seed.

    The alphabet size and dataset length are the mechanism's. The source
    must be over that alphabet and the loss table have one row per
    hypothesis and one column per symbol; both are validated here so
    downstream code can assume shapes line up, as is mc_samples against
    the enumeration cap. Like Mechanism's kernel, a float64 loss table
    is adopted: made read-only and kept, not copied.
    """

    __slots__ = ("source", "mechanism", "loss_table", "seed", "mc_samples")

    def __init__(
        self,
        source: SourceDistribution,
        mechanism: Mechanism,
        loss_table: np.ndarray,
        seed: int,
        mc_samples: int,
    ) -> None:
        m = mechanism.alphabet_size
        if source.alphabet_size != m:
            raise InputError(
                f"source over {source.alphabet_size} symbols does not match "
                f"the mechanism's alphabet of size {m}"
            )
        table = np.asarray(loss_table, dtype=float)
        if table.shape != (mechanism.hypothesis_count, m):
            raise InputError(
                f"loss table shape {table.shape} does not match "
                f"({mechanism.hypothesis_count}, {m})"
            )
        if not np.all(np.isfinite(table)):
            raise InputError("loss table entries must be finite")
        if not 0 <= int(seed) < 2**64:
            raise InputError(f"seed must fit in 64 bits, got {seed}")
        if mc_samples < 1:
            raise InputError(f"mc_samples must be positive, got {mc_samples}")
        enforce_cap(mc_samples, f"mc_samples={mc_samples}")
        table.flags.writeable = False
        self.source = source
        self.mechanism = mechanism
        self.loss_table = table
        self.seed = int(seed)
        self.mc_samples = int(mc_samples)

    @property
    def alphabet_size(self) -> int:
        return self.mechanism.alphabet_size

    @property
    def n(self) -> int:
        return self.mechanism.n


def default_loss_table(alphabet_size: int, n: int) -> np.ndarray:
    """Loss 1 - (frequency of symbol a under hypothesis w), where the
    hypothesis set is the count-vector set itself. Values lie in [0, 1],
    so the table is at most 1/2-sub-Gaussian."""
    return 1.0 - type_counts(alphabet_size, n) / n


def random_mechanism(
    alphabet_size: int,
    n: int,
    hypothesis_count: int,
    seed: int,
    privacy: PrivacyParams | None = None,
) -> Mechanism:
    """Arbitrary mechanism fixture: rows drawn i.i.d. symmetric
    Dirichlet(1), seeded. Declares no privacy unless told otherwise."""
    if hypothesis_count < 1:
        raise InputError(f"hypothesis count must be positive, got {hypothesis_count}")
    total = check_cap(alphabet_size, n)
    check_kernel_cells(total, hypothesis_count)
    rng = np.random.default_rng(seed)
    return Mechanism(rng.dirichlet(np.ones(hypothesis_count), size=total),
                     alphabet_size, n,
                     privacy if privacy is not None else PrivacyParams.none(),
                     description=f"random Dirichlet(1) mechanism, seed={seed}")


def _rows_identical(kernel: np.ndarray) -> bool:
    """Whether every kernel row equals the first, compared a row block at
    a time and stopping at the first block that differs."""
    return all(np.all(kernel[rows] == kernel[0])
               for rows in row_blocks(*kernel.shape))


def _neg_conditional_entropy(kernel: np.ndarray, p_types: np.ndarray) -> float:
    """-H(W | S) = sum_s P(s) sum_w K_sw log K_sw, with 0 log 0 = 0: the
    one pass over the kernel that takes logs, a row block at a time."""
    row_sums = np.empty(kernel.shape[0])
    for rows in row_blocks(*kernel.shape):
        block = kernel[rows]
        # one expression, so a block's logs are freed before the next's
        row_sums[rows] = np.einsum("ij,ij->i", block, np.log(
            block, where=block > 0, out=np.zeros_like(block)))
    return math.fsum((p_types * row_sums).tolist())


class _KernelSums:
    """The reductions of (kernel, P) that every sum_s P(s) KL(K_s || q)
    reads, computed once per run: by the chain rule that sum is
    neg_entropy - sum_w marginal_w log q_w (module docstring). It is +inf
    where a row of positive probability reaches a zero of q, and exactly
    0.0 when every kernel row is the same: q is then that row in exact
    arithmetic, but a float mean or marginal can miss it by rounding and
    leave a ~1e-15 residue of either sign. mi is the sum at q = marginal,
    where a reached zero is an underflow, so it has no inf rule; a
    rounding residue in (-1e-12, 0) reads 0.0.
    """

    __slots__ = ("identical", "marginal", "reached", "neg_entropy", "mi")

    def __init__(self, kernel: np.ndarray, p_types: np.ndarray) -> None:
        self.identical = _rows_identical(kernel)
        self.mi = 0.0
        if self.identical:
            return
        self.marginal = p_types @ kernel
        self.reached = (p_types > 0).astype(float) @ kernel > 0
        self.neg_entropy = _neg_conditional_entropy(kernel, p_types)
        mi = self.neg_entropy - self._cross_entropy(self.marginal)
        self.mi = 0.0 if -1e-12 < mi < 0 else mi

    def _cross_entropy(self, target: np.ndarray) -> float:
        weighted = self.marginal > 0
        return math.fsum(
            (self.marginal[weighted] * np.log(target[weighted])).tolist())

    def expected_kl(self, target: np.ndarray) -> float:
        """sum_s P(s) KL(K_s || target) for a target that mixes kernel rows."""
        if self.identical:
            return 0.0
        if np.any(self.reached & (target == 0)):
            return math.inf
        return self.neg_entropy - self._cross_entropy(target)


def _cover_mixture(config: ExperimentConfig, cover: CoverSpec) -> np.ndarray:
    """The uniform mixture of the cover centers' kernel rows: one 0/1
    weight vector times the kernel, not a gathered copy of the center rows
    (a t = n + 1 simplex cover has every count vector as a center). The
    cover is one run_verification built for the config's lattice."""
    kernel = config.mechanism.kernel
    weights = np.zeros(kernel.shape[0])
    weights[type_rank(cover.centers)] = 1.0
    return weights @ kernel / weights.sum()


def _risk_tables(config: ExperimentConfig):
    """Population risk per hypothesis, and each count vector's symbol
    frequencies: a hypothesis's empirical risk on a count vector is its
    loss row dotted with them, so no hypotheses x T table is built."""
    freqs = type_counts(config.alphabet_size, config.n) / config.n
    pop = config.loss_table @ config.source.probs
    return pop, freqs


def exact_expected_gen_error(config: ExperimentConfig) -> float:
    """E[population risk - empirical risk] as an exact double sum over
    count vectors and hypotheses; exactly 0.0 when every kernel row is
    the same."""
    p_types = type_probabilities(type_counts(config.alphabet_size, config.n),
                                 config.source)
    return _gen_error(config, p_types, _rows_identical(config.mechanism.kernel))


def _gen_error(config: ExperimentConfig, p_types: np.ndarray,
               identical: bool) -> float:
    if identical:
        # E[empirical frequency] = source: the sum cancels, up to rounding
        return 0.0
    kernel = config.mechanism.kernel
    pop, freqs = _risk_tables(config)
    emp = np.einsum("ta,ta->t", kernel @ config.loss_table, freqs)
    return float(p_types @ (kernel @ pop - emp))


class McResult(Record):
    """A Monte-Carlo estimate, its standard error and its sample count."""

    __slots__ = ("estimate", "standard_error", "samples")

    def __init__(self, estimate: float, standard_error: float,
                 samples: int) -> None:
        self._assign(estimate, standard_error, samples)


def _draw_hypotheses(kernel: np.ndarray, ranks: np.ndarray,
                     u: np.ndarray) -> np.ndarray:
    """Each sample's hypothesis, np.searchsorted(cdf[:-1], u, side="right")
    on its kernel row's CDF, so a uniform past every entry takes the last:
    the samples grouped by row with one radix sort, and a row_blocks block
    of the distinct rows' CDFs searched at once by a branchless bisection,
    exact on non-decreasing rows."""
    width = kernel.shape[1]
    order = np.argsort(ranks, kind="stable")
    sorted_ranks, u = ranks[order], u[order]
    # the samples of drawn[i] are order[ends[i]:ends[i + 1]]
    ends = np.flatnonzero(np.concatenate(
        ([True], sorted_ranks[1:] != sorted_ranks[:-1], [True])))
    drawn, counts = sorted_ranks[ends[:-1]], np.diff(ends)
    w = np.empty(u.size, dtype=np.min_scalar_type(width - 1))
    for rows in row_blocks(drawn.size, width):
        cdf = kernel[drawn[rows]]
        flat = np.cumsum(cdf, axis=1, out=cdf).ravel()
        lo, hi = ends[rows.start], ends[rows.stop]
        # pos is a row's first index in flat plus a base b: the count of
        # the row's entries <= u lies in [b, b + n]
        pos = np.repeat(np.arange(0, cdf.size, width), counts[rows])
        n = width
        while n > 1:
            half = n // 2
            pos += half * (flat[pos + half] <= u[lo:hi])
            n -= half
        # the count over the row, capped at width - 1, is the count over
        # all entries but the last
        w[order[lo:hi]] = np.minimum(pos % width + (flat[pos] <= u[lo:hi]),
                                     width - 1)
    return w


def mc_expected_gen_error(config: ExperimentConfig, workers: int = 1) -> McResult:
    """Monte-Carlo estimate of the expected generalization error.

    Chunk j of _MC_CHUNK samples draws its count vectors (one multinomial
    call), then its inverse-CDF uniforms, from one Philox stream keyed
    (seed, j), and partial sums are reduced in chunk order: the result is
    a pure function of (seed, mc_samples). A round of _MC_ROUND chunks
    takes the CDF of each distinct kernel row it drew once, a row block
    at a time, and searches all of a block's samples together
    (_draw_hypotheses). workers must be >= 1 and has no effect.
    """
    m = config.mc_samples
    if m < 100:
        raise InputError(f"mc_samples must be at least 100, got {m}")
    if workers < 1:
        raise InputError(f"worker count must be positive, got {workers}")
    pop, freqs = _risk_tables(config)
    # the smallest unsigned type that holds a rank: numpy radix-sorts it
    rank_type = np.min_scalar_type(len(freqs) - 1)
    sizes = [min(_MC_CHUNK, m - lo) for lo in range(0, m, _MC_CHUNK)]
    partials = []
    for first in range(0, len(sizes), _MC_ROUND):
        chunks = [(np.random.Generator(np.random.Philox(key=[config.seed, j])), size)
                  for j, size in enumerate(sizes[first:first + _MC_ROUND], start=first)]
        ranks = type_rank(np.concatenate([
            gen.multinomial(config.n, config.source.probs, size=size)
            for gen, size in chunks])).astype(rank_type)
        w = _draw_hypotheses(config.mechanism.kernel, ranks, np.concatenate(
            [gen.random(size) for gen, size in chunks]))
        for lo in range(0, w.size, _MC_CHUNK):
            t, h = ranks[lo:lo + _MC_CHUNK], w[lo:lo + _MC_CHUNK]
            vals = pop[h] - np.einsum("sa,sa->s", config.loss_table[h], freqs[t])
            partials.append((float(np.sum(vals)), float(np.sum(vals * vals))))

    total = math.fsum(p[0] for p in partials)
    total_sq = math.fsum(p[1] for p in partials)
    estimate = total / m
    variance = max(0.0, (total_sq - m * estimate * estimate) / (m - 1))
    return McResult(
        estimate=estimate,
        standard_error=math.sqrt(variance / m),
        samples=m,
    )


def _build_cover(kind: str, t: int, alphabet_size: int, n: int) -> CoverSpec:
    """The cover a BoundReport names as (CoverKind value, t)."""
    # the builder is imported at call time, so a wrapper bound over the
    # covering module's name (a tracing span, say) sees every call
    from .covering import build_full_grid_cover, build_simplex_grid_cover

    if kind == "full_grid":
        return build_full_grid_cover(alphabet_size, n, t)
    return build_simplex_grid_cover(alphabet_size, n, t)


class VerificationReport(Record):
    """Everything a certification run measured, bound by bound: each
    bound's value and the exact quantity it is compared against. The
    slack between the two and the verdicts are read from those values.
    The generalization bound from the exact MI is
    bound_values[BoundId.GEN_SUB_GAUSSIAN]."""

    __slots__ = ("exact_mi", "exact_gen_error", "sigma", "bound_values",
                 "comparison_values")

    def __init__(self, exact_mi: float, exact_gen_error: float, sigma: float,
                 bound_values: Mapping[BoundId, float],
                 comparison_values: Mapping[BoundId, float]) -> None:
        self._assign(exact_mi, exact_gen_error, sigma, bound_values,
                     comparison_values)

    @property
    def per_bound_slack(self) -> dict[BoundId, float]:
        """Bound minus comparison, in bound_values order."""
        return {bid: value - self.comparison_values[bid]
                for bid, value in self.bound_values.items()}

    @property
    def violations(self) -> tuple[str, ...]:
        """The bounds whose slack falls below -SLACK_TOL, by value."""
        return tuple(bid.value for bid, s in self.per_bound_slack.items()
                     if not (s >= -SLACK_TOL))

    @property
    def all_pass(self) -> bool:
        return not self.violations


def run_verification(
    config: ExperimentConfig, sigma: float | None = None
) -> VerificationReport:
    """Evaluate every applicable bound and measure its slack.

    A branch whose report names a cover is compared against the
    expectation of the per-dataset KL to that cover's mixture; the others
    (the typical branches) against the exact mutual information; the
    sub-Gaussian conversion against the absolute exact expected
    generalization error. A bound whose slack falls below -SLACK_TOL is a
    violation, and all_pass means there is none.
    """
    from .bounds_catalog import BoundId, gen_error_from_mi, kl_candidates

    m, n = config.alphabet_size, config.n
    p_types = type_probabilities(type_counts(m, n), config.source)
    sums = _KernelSums(config.mechanism.kernel, p_types)
    gen = _gen_error(config, p_types, sums.identical)
    scale = sigma_sub_gaussian(config.loss_table) if sigma is None else float(sigma)

    values: dict[BoundId, float] = {}
    comparisons: dict[BoundId, float] = {}
    # bounds that share a cover (type_count and simplex_any both take the
    # t = n + 1 simplex grid) share one build and one expectation
    expectations: dict[tuple[str, int], float] = {}

    for report in kl_candidates(config.mechanism.privacy, m, n):
        if not report.applicable:
            continue
        values[report.bound_id] = report.value
        if report.cover is None:
            comparisons[report.bound_id] = sums.mi
            continue
        if report.cover not in expectations:
            expectations[report.cover] = sums.expected_kl(
                _cover_mixture(config, _build_cover(*report.cover, m, n)))
        comparisons[report.bound_id] = expectations[report.cover]

    values[BoundId.GEN_SUB_GAUSSIAN] = gen_error_from_mi(scale, n, sums.mi)
    comparisons[BoundId.GEN_SUB_GAUSSIAN] = abs(gen)

    return VerificationReport(
        exact_mi=sums.mi,
        exact_gen_error=gen,
        sigma=scale,
        bound_values=values,
        comparison_values=comparisons,
    )


_CONFIG_KEYS = {
    "alphabet_size", "n", "source", "mechanism", "epsilon", "mu",
    "sigma", "seed", "mc_samples",
}


def _finite_value(path: str, raw: Mapping[str, str], key: str) -> float:
    try:
        value = float(raw[key])
    except ValueError:
        raise InputError(f"{path}: {key} must be a number, got {raw[key]!r}") from None
    if not math.isfinite(value):
        raise InputError(f"{path}: {key} must be finite, got {raw[key]!r}")
    return value


def load_experiment_config(path: str) -> tuple[ExperimentConfig, float | None]:
    """Parse a key=value experiment file.

    Recognized keys: alphabet_size, n, source (comma-separated
    probabilities), mechanism (builtin name: exponential, identity,
    uniform; or a path to a saved kernel, which needs one hypothesis per
    count vector for the default loss), epsilon or mu, sigma (optional
    non-negative override returned separately), seed, mc_samples. '#'
    starts a comment. mechanism=exponential consumes epsilon as its
    construction parameter; for any other mechanism an epsilon or mu key
    declares that privacy level for the kernel, trusted here and auditable
    with verify_kl_stability. Returns (config, sigma_override). A file, or
    a saved kernel it names, that cannot be read as UTF-8 text raises
    InputError naming it.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(input_lines(path), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InputError(f"{path}: line {lineno} is not key=value: {line!r}")
        key, _, val = stripped.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise InputError(f"{path}: unknown key {key!r} on line {lineno}")
        if key in raw:
            raise InputError(f"{path}: duplicate key {key!r} on line {lineno}")
        raw[key] = val

    for required in ("alphabet_size", "n", "source", "mechanism"):
        if required not in raw:
            raise InputError(f"{path}: missing required key {required!r}")
    if "epsilon" in raw and "mu" in raw:
        raise InputError(f"{path}: epsilon and mu are mutually exclusive")

    try:
        size = int(raw["alphabet_size"])
        n = int(raw["n"])
        seed = int(raw.get("seed", "0"))
        mc_samples = int(raw.get("mc_samples", "10000"))
    except ValueError as exc:
        raise InputError(f"{path}: non-integer value where an integer is required") from exc

    try:
        source = SourceDistribution.parse(raw["source"])
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    if source.alphabet_size != size:
        raise InputError(
            f"{path}: source lists {source.alphabet_size} probabilities "
            f"for alphabet_size={size}"
        )

    mech_name = raw["mechanism"]
    if mech_name == "exponential":
        if "epsilon" not in raw:
            raise InputError(f"{path}: mechanism=exponential requires epsilon")
        mechanism = exponential_mechanism_over_types(
            size, n, _finite_value(path, raw, "epsilon")
        )
    elif mech_name == "identity":
        mechanism = identity_mechanism(size, n)
    elif mech_name == "uniform":
        mechanism = uniform_mechanism(size, n)
    else:
        mechanism = load_mechanism_csv(mech_name)
        if mechanism.alphabet_size != size or mechanism.n != n:
            raise InputError(
                f"{path}: mechanism file is for alphabet size "
                f"{mechanism.alphabet_size}, n={mechanism.n}"
            )
        total, width = mechanism.kernel.shape
        if width != total:
            raise InputError(f"{path}: mechanism file {mech_name} has {width} "
                             "hypotheses, but a config's default loss needs "
                             f"one per count vector (T={total})")

    # an explicit epsilon/mu is the experimenter's privacy declaration, set
    # on the mechanism built above for this config alone and auditable via
    # verify_kl_stability (an exponential mechanism's epsilon excludes mu)
    if "epsilon" in raw and mech_name != "exponential":
        mechanism.privacy = PrivacyParams.eps_dp(
            _finite_value(path, raw, "epsilon"))
    elif "mu" in raw:
        mechanism.privacy = PrivacyParams.mu_gdp(_finite_value(path, raw, "mu"))

    sigma_override = _finite_value(path, raw, "sigma") if "sigma" in raw else None
    if sigma_override is not None and sigma_override < 0:
        raise InputError(f"{path}: sigma must be non-negative, got {raw['sigma']!r}")
    config = ExperimentConfig(
        source=source,
        mechanism=mechanism,
        loss_table=default_loss_table(size, n),
        seed=seed,
        mc_samples=mc_samples,
    )
    return config, sigma_override
