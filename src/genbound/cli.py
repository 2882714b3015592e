"""Command-line interface.

Six subcommands: bounds, cover, stability, verify-mi, simulate, catalog.
Reports go to stdout (or --output) as CSV by default; verify-mi and
simulate also speak line-delimited JSON via --format jsonl. Output is
byte-deterministic for identical inputs: fixed column order, 12
significant digits in scientific notation, lowercase booleans, a header
row always, and LF line endings.

Exit codes: 0 success, 1 a certified bound or audit failed, 2 bad input
(including an exceeded enumeration cap, which the message names).

Only the closed-form layer is imported here; each subcommand that needs
numpy imports its layers in its own body, so bounds and catalog start
without loading numpy.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import sys

import click

from .bounds_catalog import (
    BoundId,
    PrivacyKind,
    PrivacyParams,
    kl_candidates,
    asymptotic_report,
    catalog_entries,
    gen_error_from_mi,
    pac_bayes_gen_bound,
)
from .errors import InputError, ResourceLimitError

__all__ = ["main"]


def _fmt(value) -> str:
    """Deterministic cell rendering: 12 significant digits for floats."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.11e}"
    return str(value)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    return buf.getvalue()


def _jsonl_text(records: list[dict]) -> str:
    lines = []
    for record in records:
        clean = {}
        for key, val in record.items():
            if isinstance(val, float) and not math.isfinite(val):
                clean[key] = "inf" if val == math.inf else (
                    "-inf" if val == -math.inf else "nan"
                )
            else:
                clean[key] = val
        lines.append(json.dumps(clean, sort_keys=True))
    return "\n".join(lines) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        fh = open(output, "w", newline="")
    except OSError as exc:
        raise InputError(f"cannot write --output {output}: {exc.strerror}") from None
    with fh:
        fh.write(text)


def _translate_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (InputError, ResourceLimitError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _privacy_from_flags(epsilon: float | None, mu: float | None) -> PrivacyParams:
    if epsilon is not None and mu is not None:
        raise click.UsageError("--epsilon and --mu are mutually exclusive")
    if epsilon is not None:
        return PrivacyParams.eps_dp(epsilon)
    if mu is not None:
        return PrivacyParams.mu_gdp(mu)
    return PrivacyParams.none()


@click.group()
def main() -> None:
    """Certified generalization bounds for finite-alphabet mechanisms."""


@main.command("bounds")
@click.option("--alphabet-size", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--epsilon", type=float, default=None, help="eps-DP parameter.")
@click.option("--mu", type=float, default=None, help="mu-GDP parameter.")
@click.option("--sigma", type=float, required=True,
              help="Sub-Gaussian scale of the loss.")
@click.option("--beta", type=float, default=None,
              help="Failure probability for an extra PAC-Bayes row.")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@_translate_errors
def bounds_cmd(alphabet_size, n, epsilon, mu, sigma, beta, output) -> None:
    """Evaluate every bound branch for one parameter point."""
    privacy = _privacy_from_flags(epsilon, mu)
    rows = []

    def add(report, nats: bool) -> None:
        if nats:
            gen = gen_error_from_mi(sigma, n, report.value) if report.value >= 0 else ""
            rows.append([
                report.bound_id.value, report.value, gen,
                report.applicable, report.asymptotic_only, report.regime_note,
            ])
        else:
            rows.append([
                report.bound_id.value, "", report.value,
                report.applicable, report.asymptotic_only, report.regime_note,
            ])

    candidates = kl_candidates(privacy, alphabet_size, n)
    for report in candidates:
        add(report, nats=True)
    gamma = privacy.value if privacy.kind is not PrivacyKind.NONE else None
    for report in asymptotic_report(sigma, 1.0 if gamma is None else gamma,
                                    alphabet_size, n):
        if gamma is None and report.bound_id in (
            BoundId.GEN_PRIVATE_ASYMPTOTIC, BoundId.GEN_GRID_ASYMPTOTIC,
        ):
            continue
        add(report, nats=report.bound_id is BoundId.MULTINOMIAL_ENTROPY)
    if beta is not None:
        applicable = [c for c in candidates if c.applicable]
        source = min(applicable, key=lambda c: c.value)
        value = pac_bayes_gen_bound(sigma, n, source.value, beta)
        rows.append([
            BoundId.PAC_BAYES_GEN.value, source.value, value, True, False,
            f"holds with probability >= 1 - {beta:g}; "
            f"divergence from {source.bound_id.value}",
        ])

    _emit(_csv_text(
        ["bound_id", "value_nats", "gen_error_value", "applicable",
         "asymptotic_only", "regime_note"],
        rows,
    ), output)


@main.command("cover")
@click.option("--alphabet-size", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--t", type=int, required=True, help="Grid parameter.")
@click.option("--kind", required=True,
              type=click.Choice(["full_grid", "simplex_grid", "typical_grid"]))
@click.option("--source", "source_text", type=str, default=None,
              help="Comma-separated probabilities (typical covers; "
                   "default uniform).")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@_translate_errors
def cover_cmd(alphabet_size, n, t, kind, source_text, output) -> None:
    """Build one cover and verify its certified radius exhaustively."""
    from .covering import (
        CoverKind,
        build_full_grid_cover,
        build_simplex_grid_cover,
        build_typical_cover,
        verify_cover,
    )
    from .types_core import SourceDistribution

    kind_enum = CoverKind(kind)
    source = None
    if kind_enum is CoverKind.TYPICAL_GRID:
        if source_text is not None:
            source = SourceDistribution.parse(source_text)
            if source.alphabet_size != alphabet_size:
                raise InputError(
                    f"source lists {source.alphabet_size} probabilities for "
                    f"--alphabet-size {alphabet_size}"
                )
        else:
            source = SourceDistribution.uniform(alphabet_size)
        cover = build_typical_cover(source, n, t)
    elif kind_enum is CoverKind.FULL_GRID:
        cover = build_full_grid_cover(alphabet_size, n, t)
    else:
        cover = build_simplex_grid_cover(alphabet_size, n, t)

    check = verify_cover(cover, source=source)
    _emit(_csv_text(
        ["kind", "alphabet_size", "n", "t", "center_count",
         "analytic_radius", "achieved_radius", "verified"],
        [[kind_enum.value, alphabet_size, n, cover.t, len(cover.centers),
          cover.certified_radius, check.achieved_radius, check.verified]],
    ), output)
    if not check.verified:
        click.echo(
            f"cover verification failed: achieved radius {check.achieved_radius} "
            f"exceeds certified {cover.certified_radius!r}", err=True,
        )
        sys.exit(1)


@main.command("stability")
@click.option("--alphabet-size", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--epsilon", type=float, default=None,
              help="Audit the exponential mechanism at this eps.")
@click.option("--mechanism", "mechanism_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="Audit a saved kernel instead.")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@_translate_errors
def stability_cmd(alphabet_size, n, epsilon, mechanism_path, output) -> None:
    """Audit a mechanism's KL stability at every replacement distance."""
    from .privacy_mechanisms import (
        exponential_mechanism_over_types,
        load_mechanism_csv,
        verify_kl_stability,
    )

    if (epsilon is None) == (mechanism_path is None):
        raise click.UsageError("pass exactly one of --epsilon or --mechanism")
    if epsilon is not None:
        if alphabet_size is None or n is None:
            raise click.UsageError("--epsilon requires --alphabet-size and --n")
        mech = exponential_mechanism_over_types(alphabet_size, n, epsilon)
    else:
        mech = load_mechanism_csv(mechanism_path)

    report = verify_kl_stability(mech)
    _emit(_csv_text(
        ["k", "max_kl", "bound", "pass"],
        [[r.k, r.max_kl, r.bound, r.passed] for r in report.rows],
    ), output)
    if not report.passed:
        worst = next(r for r in report.rows if not r.passed)
        click.echo(
            f"stability audit failed at distance {worst.k}: observed KL "
            f"{worst.max_kl!r} exceeds bound {worst.bound!r}", err=True,
        )
        sys.exit(1)


def _verification_records(report, slack_tol: float) -> list[dict]:
    records = []
    for bid, value in report.bound_values.items():
        slack = report.per_bound_slack[bid]
        records.append({
            "bound_id": bid.value,
            "bound_value": value,
            "comparison_value": value - slack,
            "slack": slack,
            "pass": bool(slack >= -slack_tol),
            "exact_mi": report.exact_mi,
            "exact_gen_error": report.exact_gen_error,
            "sigma": report.sigma,
            "all_pass": report.all_pass,
        })
    return records


@main.command("verify-mi")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]),
              default="csv")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@_translate_errors
def verify_mi_cmd(config_path, fmt, output) -> None:
    """Certify every applicable bound against exact quantities."""
    from .oracle_harness import SLACK_TOL, load_experiment_config, run_verification

    config, sigma_override = load_experiment_config(config_path)
    report = run_verification(config, sigma=sigma_override)
    records = _verification_records(report, SLACK_TOL)
    if fmt == "csv":
        header = ["bound_id", "bound_value", "comparison_value", "slack",
                  "pass", "exact_mi", "exact_gen_error", "sigma", "all_pass"]
        text = _csv_text(header, [[r[h] for h in header] for r in records])
    else:
        text = _jsonl_text(records)
    _emit(text, output)
    if not report.all_pass:
        click.echo(
            "verification failed: " + ", ".join(report.violations), err=True,
        )
        sys.exit(1)


@main.command("simulate")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--workers", type=int, default=1, show_default=True,
              help="Accepted (must be >= 1) and has no effect.")
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]),
              default="csv")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@_translate_errors
def simulate_cmd(config_path, workers, fmt, output) -> None:
    """Monte-Carlo estimate of the generalization error vs. the exact value."""
    from .oracle_harness import (
        exact_expected_gen_error,
        load_experiment_config,
        mc_expected_gen_error,
    )

    config, _ = load_experiment_config(config_path)
    result = mc_expected_gen_error(config, workers=workers)
    exact = exact_expected_gen_error(config)
    abs_error = abs(result.estimate - exact)
    if result.standard_error > 0:
        within = abs_error <= 4.0 * result.standard_error
    else:
        within = abs_error <= 1e-12
    record = {
        "samples": result.samples,
        "estimate": result.estimate,
        "standard_error": result.standard_error,
        "exact_value": exact,
        "abs_error": abs_error,
        "within_4se": within,
    }
    if fmt == "csv":
        header = ["samples", "estimate", "standard_error", "exact_value",
                  "abs_error", "within_4se"]
        text = _csv_text(header, [[record[h] for h in header]])
    else:
        text = _jsonl_text([record])
    _emit(text, output)
    if not within:
        click.echo(
            f"simulation inconsistent with exact value: |{result.estimate!r} - "
            f"{exact!r}| > 4 * {result.standard_error!r}", err=True,
        )
        sys.exit(1)


@main.command("catalog")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@_translate_errors
def catalog_cmd(output) -> None:
    """List every implemented bound branch with formula and regime."""
    lines = [
        "Bound catalog: m = alphabet size, n = dataset length, eps/mu = privacy",
        "parameters, sigma = sub-Gaussian loss scale, gamma = unified privacy",
        "parameter in asymptotic expressions. Natural logarithms; values in nats",
        "unless marked otherwise.",
        "",
    ]
    for i, entry in enumerate(catalog_entries(), start=1):
        flag = " [asymptotic]" if entry.asymptotic else ""
        lines.append(f"{i:2d}. {entry.bound_id.value}{flag} ({entry.unit})")
        lines.append(f"      formula: {entry.formula}")
        lines.append(f"      regime:  {entry.regime}")
    lines += [
        "",
        "Conversions applying to any nats entry:",
        "  gen_sub_gaussian: sqrt(2*sigma^2*value/n), expected generalization",
        "  error of a sigma-sub-Gaussian loss.",
        "  pac_bayes_gen: sqrt((2*sigma^2/n)*(value + log(1/beta))), holds with",
        "  probability >= 1 - beta.",
        "Derived compositions reported elsewhere: gen_type_count is the",
        "gen_sub_gaussian conversion of entry 1 (exact at finite n);",
        "gen_grid_asymptotic composes the conversion with a grid-cover shape",
        "(shape only).",
    ]
    _emit("\n".join(lines) + "\n", output)


if __name__ == "__main__":
    main()
