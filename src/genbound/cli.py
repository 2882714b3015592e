"""Command-line interface.

Six subcommands: bounds, cover, stability, verify-mi, simulate, catalog.
Reports go to stdout (or --output) as CSV by default; verify-mi and
simulate also speak line-delimited JSON via --format jsonl. Output is
byte-deterministic for identical inputs: fixed column order, 12
significant digits in scientific notation, lowercase booleans, a header
row always, and LF line endings.

Exit codes: 0 success, 1 a certified bound or audit failed, 2 bad input
(including an exceeded enumeration cap, which the message names, a
refused allocation, an input file that cannot be read as UTF-8 text, an
--output file that cannot be opened or written, and every usage error
the option parser reports), 120 a stdout that refused the report or the
--help text. A command returns its status, 1 after printing why its
check failed; main maps InputError, ResourceLimitError and MemoryError
("error: out of memory...") to one "error: ..." line and 2, and raises
SystemExit for a nonzero status, in process too. The program is run():
main(), a flush of both streams and os._exit, which skips the
interpreter's teardown and its final garbage collection over every
object numpy and the layers made at import. run() maps a stdout write
that fails, in the command, its --help or the flush, to the one line
"error: cannot write stdout: ..." and 120, the interpreter's own status.

Options are parsed with the standard library's argparse. Each subcommand
imports the layers it needs in its own body, and the layers import the
ones they run, so a command loads (besides errors and records):

- bounds, catalog: privacy and bounds_catalog, and no numpy;
- cover: types_core and covering;
- stability: privacy, types_core, privacy_mechanisms and
  divergence_core, whose kl_row_blocks is the audit's KL between rows;
- simulate: privacy, types_core, privacy_mechanisms, oracle_harness;
- verify-mi: simulate's layers, bounds_catalog and covering. Its
  expected KLs come from one entropy pass over the kernel by the chain
  rule (oracle_harness), so it does not load divergence_core.

A failed stability audit prints one stderr line that starts "stability
audit failed at distance K: " and names the worst pair there. Where the
declared envelope overflows to inf in floating point, the line says so:
the envelope of a finite declared parameter is finite, so an infinite
observed KL still exceeds it.

json is imported only to write --format jsonl.

Run as a program, the CLI sets OPENBLAS_THREAD_TIMEOUT to 4 unless the
environment already sets it, before any command imports numpy: OpenBLAS
reads it when it loads, and its idle pool threads then spin 2**4 cycles
after each BLAS call before they sleep, not the default 2**28. A command
makes a few short BLAS calls, so that spin was CPU taken from the thread
doing the work.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys

from .errors import InputError, ResourceLimitError

__all__ = ["main", "run"]


class UsageError(Exception):
    """A combination of options the parser cannot check; reported like a
    parse error (usage line, exit 2)."""


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but --help writes to stdout through _emit, so a
    refused write exits 120 where argparse would drop it and exit 0."""

    def print_help(self, file=None) -> None:  # argparse passes no file
        _emit(self.format_help(), None)


class Command:
    """One subcommand: its options and the function that runs it.

    Dispatch reads `callback` when the command runs, so a function bound
    to it later (a tracing wrapper, say) is the one called.
    """

    def __init__(self, name: str, callback, options: tuple) -> None:
        self.name = name
        self.callback = callback
        self.options = options  # (flags, add_argument keywords) pairs
        self.help = (callback.__doc__ or "").strip()


class Group:
    """The `genbound` program: a table of subcommands and their parser."""

    def __init__(self, help: str) -> None:
        self.help = help
        self.commands: dict[str, Command] = {}

    def command(self, name: str, *options: tuple):
        def register(fn):
            self.commands[name] = Command(name, fn, options)
            return fn

        return register

    def parsers(self, prog: str) -> tuple[argparse.ArgumentParser, dict]:
        """The program's parser and each subcommand's, by name."""
        # --help only, no -h, and no abbreviated options: the flags are
        # exactly the ones listed
        common = {"add_help": False, "allow_abbrev": False}
        parser = _Parser(prog=prog, description=self.help, **common)
        parser.add_argument("--help", action="help",
                            help="Show this message and exit.")
        sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                    required=True)
        by_name = {}
        for command in self.commands.values():
            cmd_parser = by_name[command.name] = sub.add_parser(
                command.name, help=command.help.splitlines()[0],
                description=command.help, **common,
            )
            for flags, kwargs in command.options:
                cmd_parser.add_argument(*flags, **kwargs)
            cmd_parser.add_argument("--help", action="help",
                                    help="Show this message and exit.")
        return parser, by_name

    def __call__(self, args: list[str] | None = None,
                 prog_name: str | None = None,
                 standalone_mode: bool = True) -> None:
        """Parse `args` (default: the command line), run the command and
        raise SystemExit with its status unless that is 0. Standalone mode
        raises SystemExit(0) too, and sets the OpenBLAS thread timeout
        default.
        """
        if standalone_mode:
            os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
        parser, by_name = self.parsers(prog_name or "genbound")
        namespace, extra = parser.parse_known_args(
            sys.argv[1:] if args is None else args)
        namespace = vars(namespace)
        name = namespace.pop("command")
        if extra:  # reported with the subcommand's usage, not the program's
            by_name[name].error(f"unrecognized arguments: {' '.join(extra)}")
        try:
            status = self.commands[name].callback(**namespace) or 0
        except UsageError as exc:
            by_name[name].error(str(exc))
        except (InputError, ResourceLimitError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 2
        except MemoryError as exc:  # numpy's names the refused array
            print(f"error: out of memory{': ' if str(exc) else ''}{exc}",
                  file=sys.stderr)
            status = 2
        if status or standalone_mode:
            raise SystemExit(status)


def option(*flags: str, **kwargs) -> tuple:
    """One argparse option: flags plus `add_argument` keywords."""
    return flags, kwargs


def _input_file(path: str) -> str:
    """An existing file, not a directory; checked before the command runs."""
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"file {path!r} does not exist")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
    return path


def _output_file(path: str) -> str:
    """A path to write to that is not a directory."""
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
    return path


OUTPUT = option("--output", type=_output_file, default=None, metavar="FILE")


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


def _records_text(records: list[dict], fmt: str) -> str:
    """verify-mi's and simulate's records: CSV headed by the first
    record's keys, or JSONL, one object per line."""
    if fmt == "csv":
        return _csv_text(list(records[0]), [list(r.values()) for r in records])
    import json

    lines = []
    for record in records:
        # a non-finite float is written as the string "inf", "-inf" or "nan"
        clean = {key: str(val) if isinstance(val, float) and not math.isfinite(val)
                 else val for key, val in record.items()}
        lines.append(json.dumps(clean, sort_keys=True))
    return "\n".join(lines) + "\n"


class StdoutError(Exception):
    """stdout refused a report; run() prints why and exits 120."""


def _emit(text: str, output: str | None) -> None:
    if output is None:
        try:
            sys.stdout.write(text)
        except OSError as exc:
            raise StdoutError(exc.strerror) from None
        return
    try:
        with open(output, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write --output {output}: {exc.strerror}") from None


def _privacy_from_flags(epsilon: float | None, mu: float | None):
    from .privacy import PrivacyParams

    if epsilon is not None and mu is not None:
        raise UsageError("--epsilon and --mu are mutually exclusive")
    if epsilon is not None:
        return PrivacyParams.eps_dp(epsilon)
    if mu is not None:
        return PrivacyParams.mu_gdp(mu)
    return PrivacyParams.none()


main = Group("Certified generalization bounds for finite-alphabet mechanisms.")


@main.command(
    "bounds",
    option("--alphabet-size", type=int, required=True),
    option("--n", type=int, required=True),
    option("--epsilon", type=float, default=None, help="eps-DP parameter."),
    option("--mu", type=float, default=None, help="mu-GDP parameter."),
    option("--sigma", type=float, required=True,
           help="Sub-Gaussian scale of the loss."),
    option("--beta", type=float, default=None,
           help="Failure probability for an extra PAC-Bayes row."),
    OUTPUT,
)
def bounds_cmd(alphabet_size, n, epsilon, mu, sigma, beta, output) -> None:
    """Evaluate every bound branch for one parameter point."""
    from .bounds_catalog import (
        BoundId,
        asymptotic_report,
        gen_error_from_mi,
        kl_candidates,
        pac_bayes_gen_bound,
    )
    from .privacy import PrivacyKind

    privacy = _privacy_from_flags(epsilon, mu)
    rows = []

    def add(report, nats: bool) -> None:
        if nats:
            gen = gen_error_from_mi(sigma, n, report.value) if report.value >= 0 else ""
            value_nats, gen_value = report.value, gen
        else:  # a row in loss units
            value_nats, gen_value = "", report.value
        rows.append([report.bound_id.value, value_nats, gen_value,
                     report.applicable, report.asymptotic_only, report.regime_note])

    candidates = kl_candidates(privacy, alphabet_size, n)
    for report in candidates:
        add(report, nats=True)
    gamma = privacy.value if privacy.kind is not PrivacyKind.NONE else None
    for report in asymptotic_report(sigma, gamma, alphabet_size, n):
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


@main.command(
    "cover",
    option("--alphabet-size", type=int, required=True),
    option("--n", type=int, required=True),
    option("--t", type=int, required=True, help="Grid parameter."),
    option("--kind", required=True,
           choices=["full_grid", "simplex_grid", "typical_grid"]),
    option("--source", dest="source_text", default=None, metavar="SOURCE",
           help="Comma-separated probabilities (typical covers; default uniform)."),
    OUTPUT,
)
def cover_cmd(alphabet_size, n, t, kind, source_text, output) -> int | None:
    """Build one cover and verify its certified radius exhaustively."""
    if source_text is not None and kind != "typical_grid":
        raise UsageError(f"--source applies only to --kind typical_grid, not {kind}")
    from .covering import (
        build_full_grid_cover,
        build_simplex_grid_cover,
        build_typical_cover,
        verify_cover,
    )
    from .types_core import SourceDistribution

    if kind == "typical_grid":
        source = (SourceDistribution.uniform(alphabet_size) if source_text is None
                  else SourceDistribution.parse(source_text))
        if source.alphabet_size != alphabet_size:
            raise InputError(f"source lists {source.alphabet_size} probabilities "
                             f"for --alphabet-size {alphabet_size}")
        cover = build_typical_cover(source, n, t)
    elif kind == "full_grid":
        cover = build_full_grid_cover(alphabet_size, n, t)
    else:
        cover = build_simplex_grid_cover(alphabet_size, n, t)

    check = verify_cover(cover)
    _emit(_csv_text(
        ["kind", "alphabet_size", "n", "t", "center_count",
         "analytic_radius", "achieved_radius", "verified"],
        [[kind, alphabet_size, n, cover.t, len(cover.centers),
          cover.certified_radius, check.achieved_radius, check.verified]],
    ), output)
    if not check.verified:
        print(f"cover verification failed: achieved radius {check.achieved_radius} "
              f"exceeds certified {cover.certified_radius!r} at count vector "
              f"{check.worst}", file=sys.stderr)
        return 1


@main.command(
    "stability",
    option("--alphabet-size", type=int, default=None),
    option("--n", type=int, default=None),
    option("--epsilon", type=float, default=None,
           help="Audit the exponential mechanism at this eps."),
    option("--mechanism", dest="mechanism_path", type=_input_file, default=None,
           metavar="FILE", help="Audit a saved kernel instead."),
    OUTPUT,
)
def stability_cmd(alphabet_size, n, epsilon, mechanism_path, output) -> int | None:
    """Audit a mechanism's KL stability at every replacement distance."""
    if (epsilon is None) == (mechanism_path is None):
        raise UsageError("pass exactly one of --epsilon or --mechanism")
    if epsilon is not None and (alphabet_size is None or n is None):
        raise UsageError("--epsilon requires --alphabet-size and --n")
    if mechanism_path is not None and (alphabet_size is not None or n is not None):
        raise UsageError(
            "--mechanism takes its alphabet size and n from the saved kernel; "
            "drop --alphabet-size and --n"
        )
    from .privacy_mechanisms import (
        exponential_mechanism_over_types,
        load_mechanism_csv,
        verify_kl_stability,
    )
    from .types_core import type_counts

    if epsilon is not None:
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
        counts = type_counts(mech.alphabet_size, mech.n)
        first, second = (tuple(counts[i].tolist()) for i in worst.worst_pair)
        if worst.bound == math.inf:
            privacy = mech.privacy
            exceeds = (f"exceeds the envelope of {privacy.kind.value} "
                       f"{privacy.value!r}, finite but overflowing to inf in "
                       f"floating point,")
        else:
            exceeds = f"exceeds bound {worst.bound!r}"
        print(f"stability audit failed at distance {worst.k}: observed KL "
              f"{worst.max_kl!r} {exceeds} for count vectors {first} -> {second}",
              file=sys.stderr)
        return 1


def _verification_records(report) -> list[dict]:
    """One record per bound, as the report judged it."""
    slack, violations = report.per_bound_slack, report.violations
    return [{
        "bound_id": bid.value,
        "bound_value": value,
        "comparison_value": report.comparison_values[bid],
        "slack": slack[bid],
        "pass": bid.value not in violations,
        "exact_mi": report.exact_mi,
        "exact_gen_error": report.exact_gen_error,
        "sigma": report.sigma,
        "all_pass": not violations,
    } for bid, value in report.bound_values.items()]


CONFIG = option("--config", dest="config_path", type=_input_file, required=True,
                metavar="FILE")
FORMAT = option("--format", dest="fmt", choices=["csv", "jsonl"], default="csv")


@main.command("verify-mi", CONFIG, FORMAT, OUTPUT)
def verify_mi_cmd(config_path, fmt, output) -> int | None:
    """Certify every applicable bound against exact quantities."""
    from .oracle_harness import load_experiment_config, run_verification

    config, sigma_override = load_experiment_config(config_path)
    report = run_verification(config, sigma=sigma_override)
    # the gen-bound record is always there to name the CSV columns
    _emit(_records_text(_verification_records(report), fmt), output)
    if not report.all_pass:
        print("verification failed: " + ", ".join(report.violations), file=sys.stderr)
        return 1


@main.command(
    "simulate",
    CONFIG,
    option("--workers", type=int, default=1,
           help="Accepted (must be >= 1) and has no effect. [default: 1]"),
    FORMAT,
    OUTPUT,
)
def simulate_cmd(config_path, workers, fmt, output) -> int | None:
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
    within = abs_error <= (4.0 * result.standard_error
                           if result.standard_error > 0 else 1e-12)
    record = {
        "samples": result.samples,
        "estimate": result.estimate,
        "standard_error": result.standard_error,
        "exact_value": exact,
        "abs_error": abs_error,
        "within_4se": within,
    }
    _emit(_records_text([record], fmt), output)
    if not within:
        print(f"simulation inconsistent with exact value: |{result.estimate!r} - "
              f"{exact!r}| > 4 * {result.standard_error!r}", file=sys.stderr)
        return 1


@main.command("catalog", OUTPUT)
def catalog_cmd(output) -> None:
    """List every implemented bound branch with formula and regime."""
    from .bounds_catalog import catalog_entries

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


def run() -> None:
    """The program: main() on the command line, then flush stdout and
    stderr and os._exit with the status. A stdout that refuses the
    command's report or the flush gives one stderr line and status 120,
    as the interpreter's own exit does; an unflushable stderr gives 120
    too."""
    try:
        try:
            main()
        except SystemExit as exc:
            status = exc.code or 0
        try:
            sys.stdout.flush()
        except OSError as exc:
            raise StdoutError(exc.strerror) from None
    except StdoutError as exc:  # the flush is not retried: one line only
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        status = 120
    try:
        sys.stderr.flush()
    except OSError:
        status = 120
    os._exit(status)


if __name__ == "__main__":
    run()
