"""Command-line interface: formats, exit codes, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import pytest

import genbound
import genbound.covering
import genbound.privacy_mechanisms
from genbound.cli import main
from genbound.covering import CoverKind, CoverSpec
from genbound.oracle_harness import random_mechanism
from genbound.privacy_mechanisms import (
    Mechanism,
    PrivacyParams,
    exponential_mechanism_over_types,
    identity_mechanism,
    kl_stability_bound,
    save_mechanism_csv,
)
from divergence_reference import kl_divergence
from lattice_reference import enumerate_types


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


class Runner:
    """Runs the CLI in this process with both streams captured."""

    def invoke(self, cli, args) -> Result:
        out, err = io.StringIO(), io.StringIO()
        exit_code, exception = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli(args, prog_name="genbound")
            except SystemExit as exc:
                exit_code = exc.code if isinstance(exc.code, int) else int(
                    exc.code is not None)
                exception = exc if exit_code else None
            except Exception as exc:
                exit_code, exception = 1, exc
        return Result(exit_code, out.getvalue(), err.getvalue(), exception)


@pytest.fixture
def runner():
    return Runner()


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


GOOD_CONFIG = (
    "alphabet_size = 2\n"
    "n = 8\n"
    "source = 0.5, 0.5\n"
    "mechanism = exponential\n"
    "epsilon = 0.5\n"
    "seed = 21\n"
    "mc_samples = 2000\n"
)


class TestBounds:
    ARGS = ["bounds", "--alphabet-size", "2", "--n", "10",
            "--epsilon", "0.5", "--sigma", "1"]

    def test_header_and_rows(self, runner):
        result = runner.invoke(main, self.ARGS)
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == ("bound_id,value_nats,gen_error_value,applicable,"
                            "asymptotic_only,regime_note")
        ids = [line.split(",")[0] for line in lines[1:]]
        assert ids[:4] == ["type_count", "dp_grid", "dp_simplex_mid",
                           "dp_typical_low"]
        assert "gen_type_count" in ids and "multinomial_entropy" in ids

    def test_values_use_scientific_notation(self, runner):
        result = runner.invoke(main, self.ARGS)
        first = result.output.splitlines()[1].split(",")
        assert first[1] == f"{math.log(11):.11e}"
        assert first[3] == "true" and first[4] == "false"

    def test_inapplicable_branch_is_flagged(self, runner):
        result = runner.invoke(main, ["bounds", "--alphabet-size", "2",
                                      "--n", "10", "--epsilon", "1.5",
                                      "--sigma", "1"])
        assert result.exit_code == 0
        row = next(line for line in result.output.splitlines()
                   if line.startswith("dp_grid,"))
        assert ",false," in row

    def test_pac_bayes_row_on_request(self, runner):
        result = runner.invoke(main, self.ARGS + ["--beta", "0.05"])
        assert result.output.splitlines()[-1].startswith("pac_bayes_gen,")

    # the branches that bound every dataset's KL to one cover mixture
    COUNT_BASED = {"type_count", "dp_grid", "gdp_grid", "dp_simplex_low",
                   "dp_simplex_mid", "gdp_simplex_low", "gdp_simplex_mid",
                   "simplex_any"}

    @pytest.mark.parametrize("m, n, flag, value", [
        # a typical-set (first-moment) bound is the smallest row here
        (3, 20, "--epsilon", "0.01"), (3, 100000, "--epsilon", "0.5"),
        (2, 10**6, "--mu", "0.01"),
        *[(m, n, flag, value) for m in (2, 4) for n in (2, 50, 10**4)
          for flag in ("--epsilon", "--mu") for value in ("0.001", "0.1", "2")],
    ])
    def test_pac_bayes_divergence_is_the_smallest_count_based_bound(
            self, runner, m, n, flag, value):
        result = runner.invoke(main, ["bounds", "--alphabet-size", str(m),
                                      "--n", str(n), flag, value,
                                      "--sigma", "0.5", "--beta", "0.05"])
        assert (result.exit_code, result.stderr) == (0, "")
        *rows, pac = [line.split(",") for line in result.stdout.splitlines()[1:]]
        assert pac[0] == "pac_bayes_gen"
        source = pac[5].rsplit("divergence from ", 1)[1]
        count_based = {row[0]: float(row[1]) for row in rows
                       if row[0] in self.COUNT_BASED and row[3] == "true"}
        assert source in count_based
        assert float(pac[1]) == count_based[source] == min(count_based.values())

    def test_epsilon_mu_exclusive(self, runner):
        result = runner.invoke(main, self.ARGS + ["--mu", "0.5"])
        assert result.exit_code == 2

    def test_bad_alphabet_is_input_error(self, runner):
        result = runner.invoke(main, ["bounds", "--alphabet-size", "1",
                                      "--n", "10", "--sigma", "1"])
        assert result.exit_code == 2

    def test_byte_determinism(self, runner):
        a = runner.invoke(main, self.ARGS).output
        b = runner.invoke(main, self.ARGS).output
        assert a == b

    def test_no_privacy_run_skips_gamma_rows(self, runner):
        result = runner.invoke(main, ["bounds", "--alphabet-size", "2",
                                      "--n", "10", "--sigma", "1"])
        assert result.exit_code == 0
        assert "gen_private_asymptotic" not in result.output
        assert "gen_grid_asymptotic" not in result.output
        assert "gen_type_count" in result.output

    def test_no_privacy_report_is_pinned(self, runner):
        result = runner.invoke(main, ["bounds", "--alphabet-size", "3",
                                      "--n", "20", "--sigma", "0.5"])
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout == (
            "bound_id,value_nats,gen_error_value,applicable,asymptotic_only,"
            "regime_note\n"
            "type_count,6.08904487545e+00,3.90161661220e-01,true,false,"
            "universal; no conditions\n"
            "simplex_any,5.53027842211e+00,3.71829208848e-01,true,false,"
            "one cell per count vector; valid for any algorithm\n"
            "gen_type_count,,3.90161661220e-01,true,true,"
            "exact at finite n (conversion of type_count); loss units\n"
            "multinomial_entropy,7.89711998489e+00,4.44328706728e-01,false,true,"
            '"large-n entropy approximation; nats, report only"\n')


class TestCover:
    def test_verified_cover_exits_zero(self, runner):
        result = runner.invoke(main, ["cover", "--alphabet-size", "2",
                                      "--n", "12", "--t", "4",
                                      "--kind", "simplex_grid"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == ("kind,alphabet_size,n,t,center_count,"
                            "analytic_radius,achieved_radius,verified")
        assert lines[1].startswith("simplex_grid,2,12,4,")
        assert lines[1].endswith(",true")

    def test_typical_cover_with_source(self, runner):
        result = runner.invoke(main, ["cover", "--alphabet-size", "2",
                                      "--n", "16", "--t", "2",
                                      "--kind", "typical_grid",
                                      "--source", "0.5,0.5"])
        assert result.exit_code == 0
        assert result.output.splitlines()[1].endswith(",true")

    def test_typical_cover_of_a_clipped_range(self, runner):
        # the first symbol's typical counts are 0..8, nine atoms for t = 15
        # cells; t = round(eps * sqrt(n log n)) at eps 2
        result = runner.invoke(main, ["cover", "--alphabet-size", "2",
                                      "--n", "20", "--t", "15",
                                      "--kind", "typical_grid",
                                      "--source", "0.05,0.95"])
        assert result.exit_code == 0, result.stderr
        assert result.stdout.splitlines()[1].startswith("typical_grid,2,20,15,")
        assert result.stdout.splitlines()[1].endswith(",true")

    @pytest.mark.parametrize("kind", ["full_grid", "simplex_grid"])
    def test_source_with_a_grid_kind_is_a_usage_error(self, runner, kind):
        result = runner.invoke(main, ["cover", "--alphabet-size", "3",
                                      "--n", "30", "--t", "4", "--kind", kind,
                                      "--source", "0.2,0.3,0.5"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert ("--source applies only to --kind typical_grid, not "
                f"{kind}") in result.stderr

    def test_out_of_range_t_is_input_error(self, runner):
        result = runner.invoke(main, ["cover", "--alphabet-size", "2",
                                      "--n", "8", "--t", "12",
                                      "--kind", "full_grid"])
        assert result.exit_code == 2
        assert "error:" in result.output

    def test_source_length_checked(self, runner):
        result = runner.invoke(main, ["cover", "--alphabet-size", "3",
                                      "--n", "16", "--t", "2",
                                      "--kind", "typical_grid",
                                      "--source", "0.5,0.5"])
        assert result.exit_code == 2

    def test_failure_line_names_the_witness(self, runner, monkeypatch):
        # corner centers certified at radius 7: the first count vector,
        # lexicographically, at the achieved radius 8 is (4, 4, 4)
        corners = CoverSpec(((0, 0, 12), (12, 0, 0), (0, 12, 0)), 1, 7.0,
                            CoverKind.FULL_GRID)
        monkeypatch.setattr(genbound.covering, "build_full_grid_cover",
                            lambda alphabet_size, n, t: corners)
        result = runner.invoke(main, ["cover", "--alphabet-size", "3",
                                      "--n", "12", "--t", "1",
                                      "--kind", "full_grid"])
        assert result.exit_code == 1
        assert result.stdout.splitlines()[1] == (
            "full_grid,3,12,1,3,7.00000000000e+00,8,false")
        assert result.stderr == (
            "cover verification failed: achieved radius 8 exceeds certified "
            "7.0 at count vector (4, 4, 4)\n")

    @pytest.mark.parametrize("args", [
        ["--alphabet-size", "6", "--n", "2000", "--t", "2000", "--kind", "full_grid"],
        ["--alphabet-size", "6", "--n", "2000", "--t", "2000", "--kind", "simplex_grid"],
        # T = 8.0 M count vectors is within the cap, 16 M cells are not
        ["--alphabet-size", "3", "--n", "4000", "--t", "4001", "--kind", "full_grid"],
    ], ids=["full", "simplex", "full-cells-over-types"])
    def test_oversized_grid_is_refused_at_once(self, runner, args):
        result = runner.invoke(main, ["cover", *args])
        assert_input_error(result)
        assert "grid cells" in result.stderr
        assert "raise GENBOUND_TYPE_CAP to override" in result.stderr


class TestStability:
    def test_exponential_audit_passes(self, runner):
        result = runner.invoke(main, ["stability", "--alphabet-size", "2",
                                      "--n", "6", "--epsilon", "0.8"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "k,max_kl,bound,pass"
        assert len(lines) == 7  # distances 1..6
        assert all(line.endswith(",true") for line in lines[1:])

    def test_false_declaration_fails_audit(self, runner, tmp_path):
        honest = identity_mechanism(2, 4)
        liar = Mechanism(honest.kernel, 2, 4, PrivacyParams.eps_dp(1.0))
        path = str(tmp_path / "liar.csv")
        save_mechanism_csv(liar, path)
        result = runner.invoke(main, ["stability", "--mechanism", path])
        assert result.exit_code == 1
        assert ",false" in result.output
        assert "inf" in result.output

    @pytest.mark.parametrize("privacy", [
        PrivacyParams.mu_gdp(1e200), PrivacyParams.eps_dp(1e308),
    ], ids=["mu1e200", "eps1e308"])
    def test_an_overflowed_envelope_never_passes_inf(self, runner, tmp_path,
                                                      privacy):
        # the float envelope overflows to inf, but a finite declared
        # parameter has a finite true envelope: the identity kernel's inf
        # fails at every distance, and the failure is a one-line verdict
        path = str(tmp_path / "liar.csv")
        save_mechanism_csv(
            Mechanism(identity_mechanism(2, 6).kernel, 2, 6, privacy), path)
        result = runner.invoke(main, ["stability", "--mechanism", path])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
        assert [row[0] for row in rows] == [str(k) for k in range(1, 7)]
        assert all(row[1] == "inf" and row[3] == "false" for row in rows)
        assert result.stderr.startswith("stability audit failed at distance 1: ")
        assert result.stderr.count("\n") == 1

    def test_failure_line_names_an_overflowed_envelope(self, runner, tmp_path):
        # mu = 1e200: the envelope overflows to inf at every distance, and
        # the line names the declaration instead of a bound of inf; at
        # eps = 1e308 the envelope at distance 1 is 1e308, a finite bound
        path = str(tmp_path / "huge.csv")
        identity = identity_mechanism(2, 6).kernel
        save_mechanism_csv(
            Mechanism(identity, 2, 6, PrivacyParams.mu_gdp(1e200)), path)
        result = runner.invoke(main, ["stability", "--mechanism", path])
        assert result.exit_code == 1
        assert result.stderr == (
            "stability audit failed at distance 1: observed KL inf exceeds the "
            "envelope of mu_gdp 1e+200, finite but overflowing to inf in "
            "floating point, for count vectors (0, 6) -> (1, 5)\n")
        save_mechanism_csv(
            Mechanism(identity, 2, 6, PrivacyParams.eps_dp(1e308)), path)
        result = runner.invoke(main, ["stability", "--mechanism", path])
        assert result.exit_code == 1
        assert result.stderr == (
            "stability audit failed at distance 1: observed KL inf exceeds "
            "bound 1e+308 for count vectors (0, 6) -> (1, 5)\n")

    def test_requires_exactly_one_mode(self, runner):
        result = runner.invoke(main, ["stability", "--alphabet-size", "2",
                                      "--n", "6"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("flags", [
        ["--alphabet-size", "5", "--n", "99"],
        ["--alphabet-size", "2"],
        ["--n", "6"],
    ], ids=lambda flags: " ".join(flags))
    def test_saved_kernel_rejects_lattice_flags(self, runner, tmp_path, flags):
        # the kernel's sidecar fixes the lattice; these flags were ignored
        path = str(tmp_path / "honest.csv")
        save_mechanism_csv(exponential_mechanism_over_types(2, 6, 0.5), path)
        result = runner.invoke(main, ["stability", "--mechanism", path, *flags])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "--alphabet-size and --n" in result.stderr

    def test_failure_line_names_the_worst_pair(self, runner, tmp_path):
        honest = identity_mechanism(2, 4)
        liar = Mechanism(honest.kernel, 2, 4, PrivacyParams.eps_dp(1.0))
        path = str(tmp_path / "liar.csv")
        save_mechanism_csv(liar, path)
        result = runner.invoke(main, ["stability", "--mechanism", path])
        # brute force: the first ordered pair, row-major, with the largest
        # KL at the first failing distance
        k = next(int(line.split(",")[0]) for line in result.stdout.splitlines()
                 if line.endswith(",false"))
        types = enumerate_types(2, 4)
        pairs = [(kl_divergence(honest.kernel[i], honest.kernel[j]), a, b)
                 for i, a in enumerate(types) for j, b in enumerate(types)
                 if sum(abs(x - y) for x, y in zip(a, b)) == 2 * k]
        worst = max(kl for kl, _, _ in pairs)
        _, a, b = next(p for p in pairs if p[0] == worst)
        assert result.stderr == (
            f"stability audit failed at distance {k}: observed KL {worst!r} "
            f"exceeds bound {kl_stability_bound(liar.privacy, k)!r} "
            f"for count vectors {a} -> {b}\n"
        )


class TestVerifyMi:
    def test_all_bounds_certified(self, runner, tmp_path):
        config = write_config(tmp_path, GOOD_CONFIG)
        result = runner.invoke(main, ["verify-mi", "--config", config])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == ("bound_id,bound_value,comparison_value,slack,pass,"
                            "exact_mi,exact_gen_error,sigma,all_pass")
        assert len(lines) == 6  # type_count, dp_grid, refined, typical, gen
        assert all(line.split(",")[4] == "true" for line in lines[1:])

    def test_jsonl_records_parse(self, runner, tmp_path):
        config = write_config(tmp_path, GOOD_CONFIG)
        result = runner.invoke(main, ["verify-mi", "--config", config,
                                      "--format", "jsonl"])
        assert result.exit_code == 0
        records = [json.loads(line) for line in result.output.splitlines()]
        assert len(records) == 5
        assert {r["bound_id"] for r in records} == {
            "type_count", "dp_grid", "dp_simplex_mid", "dp_typical_low",
            "gen_sub_gaussian",
        }
        for r in records:
            assert r["pass"] is True and r["all_pass"] is True
            assert r["slack"] >= -1e-9

    def test_false_declaration_exits_one(self, runner, tmp_path):
        config = write_config(
            tmp_path,
            "alphabet_size = 2\nn = 5\nsource = 0.5,0.5\n"
            "mechanism = identity\nepsilon = 0.5\n",
        )
        result = runner.invoke(main, ["verify-mi", "--config", config])
        assert result.exit_code == 1
        assert "verification failed" in result.output
        assert any(line.split(",")[4] == "false"
                   for line in result.output.splitlines()[1:]
                   if "," in line)

    def test_missing_config_file(self, runner):
        result = runner.invoke(main, ["verify-mi", "--config", "no-such.cfg"])
        assert result.exit_code == 2

    def test_input_independent_kernel_compares_against_exact_zero(
        self, runner, tmp_path
    ):
        # the mean of identical kernel rows can miss the row by rounding;
        # every expected KL to a mixture of them is still exactly 0
        config = write_config(
            tmp_path,
            "alphabet_size = 2\nn = 150\nsource = 0.3, 0.7\n"
            "mechanism = uniform\nmu = 0.3\n",
        )
        result = runner.invoke(main, ["verify-mi", "--config", config,
                                      "--format", "jsonl"])
        assert result.exit_code == 0
        records = [json.loads(line) for line in result.stdout.splitlines()]
        assert len(records) > 1
        for r in records:
            assert r["comparison_value"] == 0.0, r["bound_id"]
            assert r["slack"] == r["bound_value"], r["bound_id"]

    def test_gen_row_prints_the_exact_gen_error_it_compares(self, runner, tmp_path):
        # the sub-Gaussian row is compared against the absolute exact gen
        # error, not the MI its bound converts
        config = write_config(
            tmp_path,
            "alphabet_size = 2\nn = 250\nsource = 0.05, 0.95\n"
            "mechanism = exponential\nepsilon = 30\n",
        )
        result = runner.invoke(main, ["verify-mi", "--config", config])
        rows = {row[0]: row for row in
                (line.split(",") for line in result.stdout.splitlines()[1:])}
        assert rows["gen_sub_gaussian"][2] == "3.80000000000e-04"

    def test_underflowed_marginal_certifies(self, runner, tmp_path):
        # the float output marginal underflows at one hypothesis here; exact
        # MI stays finite, within log 251, and every bound holds
        config = write_config(
            tmp_path,
            "alphabet_size = 2\nn = 250\nsource = 0.05, 0.95\n"
            "mechanism = exponential\nepsilon = 30\n",
        )
        result = runner.invoke(main, ["verify-mi", "--config", config,
                                      "--format", "jsonl"])
        assert (result.exit_code, result.stderr) == (0, "")
        records = [json.loads(line) for line in result.stdout.splitlines()]
        assert {r["bound_id"] for r in records} >= {"dp_typical_high",
                                                    "gen_sub_gaussian"}
        for r in records:
            assert math.isclose(r["exact_mi"], 2.6501921326830384, rel_tol=1e-12)
            assert r["pass"] and r["all_pass"]

    def test_huge_epsilon_certifies_without_warnings(self, tmp_path):
        # -eps * k overflows to -inf: the kernel is the identity, and no
        # RuntimeWarning reaches stderr
        config = write_config(tmp_path, GOOD_CONFIG.replace(
            "epsilon = 0.5", "epsilon = 1e308"))
        src = os.path.dirname(os.path.dirname(genbound.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "genbound.cli", "verify-mi", "--config", config],
            capture_output=True, env=dict(os.environ, PYTHONPATH=src))
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.startswith(b"bound_id,")


class TestSimulate:
    def test_estimate_within_tolerance(self, runner, tmp_path):
        config = write_config(tmp_path, GOOD_CONFIG)
        result = runner.invoke(main, ["simulate", "--config", config])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == ("samples,estimate,standard_error,exact_value,"
                            "abs_error,within_4se")
        assert lines[1].startswith("2000,")
        assert lines[1].endswith(",true")

    def test_worker_count_does_not_change_output(self, runner, tmp_path):
        config = write_config(tmp_path, GOOD_CONFIG)
        one = runner.invoke(main, ["simulate", "--config", config,
                                   "--workers", "1"]).output
        four = runner.invoke(main, ["simulate", "--config", config,
                                    "--workers", "4"]).output
        assert one == four

    def test_jsonl_format(self, runner, tmp_path):
        config = write_config(tmp_path, GOOD_CONFIG)
        result = runner.invoke(main, ["simulate", "--config", config,
                                      "--format", "jsonl"])
        record = json.loads(result.output)
        assert record["samples"] == 2000
        assert record["within_4se"] is True


@pytest.mark.parametrize("command", ["verify-mi", "simulate"])
def test_config_naming_a_narrow_kernel_exits_2_with_one_line(runner, tmp_path,
                                                            command):
    # 3 hypotheses over 5 count vectors: the default loss cannot apply, and
    # the one line names the kernel file, not a loss table the user never gave
    kernel = str(tmp_path / "narrow.csv")
    save_mechanism_csv(random_mechanism(2, 4, 3, seed=1), kernel)
    config = write_config(tmp_path, "alphabet_size = 2\nn = 4\n"
                          f"source = 0.5,0.5\nmechanism = {kernel}\n")
    result = runner.invoke(main, [command, "--config", config])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == (
        f"error: {config}: mechanism file {kernel} has 3 hypotheses, but a "
        "config's default loss needs one per count vector (T=5)\n")


class TestCatalog:
    def test_fourteen_numbered_entries(self, runner):
        result = runner.invoke(main, ["catalog"])
        assert result.exit_code == 0
        numbered = [line for line in result.output.splitlines()
                    if re.match(r"\s*\d+\. ", line)]
        assert len(numbered) == 14
        assert result.output.count("[asymptotic]") == 2

    def test_conversions_in_epilogue(self, runner):
        output = runner.invoke(main, ["catalog"]).output
        assert "gen_sub_gaussian" in output
        assert "pac_bayes_gen" in output
        assert "gen_type_count" in output


def test_output_flag_writes_file(runner, tmp_path):
    out = tmp_path / "report.csv"
    result = runner.invoke(main, ["bounds", "--alphabet-size", "2", "--n", "10",
                                  "--epsilon", "0.5", "--sigma", "1",
                                  "--output", str(out)])
    assert result.exit_code == 0
    assert result.output == ""
    data = out.read_bytes()
    assert data.startswith(b"bound_id,")
    assert b"\r" not in data


def assert_input_error(result):
    """Exit code 2 with one 'error:' line on stderr and no traceback."""
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr


# One refusal table for both key=value formats: the format, a case name,
# an edit that breaks a valid file and the refusal after "error: <file>: ".
# The config is GOOD_CONFIG; the sidecar is that of the exponential kernel
# at m = 2, n = 3, eps 0.5, whose '#' is no comment.
FORMAT_REFUSALS = [
    ("config", "malformed-line", lambda t: t + "plain # note\n",
     "line 8 is not key=value: 'plain'"),
    ("config", "unknown-key", lambda t: t + "wokers = 2\n",
     "unknown key 'wokers' on line 8"),
    ("config", "duplicate-key", lambda t: t + "n = 9\n",
     "duplicate key 'n' on line 8"),
    ("config", "missing-key", lambda t: t.replace("source = 0.5, 0.5\n", ""),
     "missing required key 'source'"),
    ("config", "non-integer-n", lambda t: t.replace("n = 8", "n = 2.5"),
     "n on line 2 must be an integer, got '2.5'"),
    ("config", "non-finite-epsilon",
     lambda t: t.replace("epsilon = 0.5", "epsilon = inf"),
     "epsilon on line 5 must be finite, got 'inf'"),
    ("config", "non-finite-sigma", lambda t: t + "sigma = nan # scale\n",
     "sigma on line 8 must be finite, got 'nan'"),
    ("sidecar", "malformed-line", lambda t: t + "plain # note\n",
     "line 7 is not key=value: 'plain # note'"),
    ("sidecar", "unknown-key", lambda t: t + "bogus_key=1\n",
     "unknown key 'bogus_key' on line 7"),
    ("sidecar", "duplicate-key", lambda t: t + "n=3\n",
     "duplicate key 'n' on line 7"),
    ("sidecar", "missing-key", lambda t: t.replace("hypothesis_count=4\n", ""),
     "missing required key 'hypothesis_count'"),
    ("sidecar", "non-integer-n", lambda t: t.replace("n=3", "n=2.5"),
     "n on line 2 must be an integer, got '2.5'"),
    ("sidecar", "non-finite-privacy-value",
     lambda t: t.replace("privacy_value=0.5", "privacy_value=nan"),
     "privacy_value on line 5 must be finite, got 'nan'"),
    ("sidecar", "unknown-privacy-kind",
     lambda t: t.replace("privacy_kind=eps_dp", "privacy_kind=eps"),
     "unknown privacy_kind 'eps' on line 4"),
]
# the commands that read each format: a sidecar also through a config
# that names its kernel
READERS = {"config": ["verify-mi", "simulate"],
           "sidecar": ["stability", "verify-mi"]}


class TestInputContract:
    def test_non_numeric_epsilon_in_config(self, runner, tmp_path):
        config = write_config(tmp_path, GOOD_CONFIG.replace(
            "epsilon = 0.5", "epsilon = abc"))
        result = runner.invoke(main, ["verify-mi", "--config", config])
        assert_input_error(result)
        assert "epsilon" in result.stderr

    @pytest.mark.parametrize("old, new", [
        ("epsilon = 0.5", "epsilon = inf"),
        ("epsilon = 0.5", "epsilon = 0.5\nsigma = nan"),
        ("mechanism = exponential\nepsilon = 0.5", "mechanism = uniform\nmu = nan"),
    ])
    def test_non_finite_config_values(self, runner, tmp_path, old, new):
        config = write_config(tmp_path, GOOD_CONFIG.replace(old, new))
        result = runner.invoke(main, ["verify-mi", "--config", config])
        assert_input_error(result)

    @pytest.mark.parametrize("command", ["verify-mi", "simulate"])
    def test_negative_sigma_in_config(self, runner, tmp_path, command):
        # simulate never reads sigma, yet the file is bad input for both
        config = write_config(tmp_path, GOOD_CONFIG.replace(
            "epsilon = 0.5", "epsilon = 0.5\nsigma = -1"))
        result = runner.invoke(main, [command, "--config", config])
        assert_input_error(result)
        assert f"{config}: sigma must be non-negative" in result.stderr

    def test_kernel_over_cell_budget(self, runner, monkeypatch):
        monkeypatch.setattr(genbound.privacy_mechanisms, "KERNEL_CELL_BUDGET", 24)
        result = runner.invoke(main, ["stability", "--alphabet-size", "2",
                                      "--n", "4", "--epsilon", "0.5"])
        assert_input_error(result)
        assert "T=5" in result.stderr and "24" in result.stderr

    def test_non_numeric_cover_source(self, runner):
        result = runner.invoke(main, ["cover", "--alphabet-size", "2",
                                      "--n", "8", "--t", "2",
                                      "--kind", "typical_grid",
                                      "--source", "0.5,x"])
        assert_input_error(result)

    def test_ragged_kernel_csv(self, runner, tmp_path):
        path = tmp_path / "ragged.csv"
        save_mechanism_csv(exponential_mechanism_over_types(2, 3, 0.5), str(path))
        lines = path.read_text().splitlines()
        lines[1] += ",0.0"
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["stability", "--mechanism", str(path)])
        assert_input_error(result)
        assert "line 2" in result.stderr

    def test_kernel_width_checked_against_sidecar(self, runner, tmp_path):
        path = tmp_path / "mech.csv"
        save_mechanism_csv(exponential_mechanism_over_types(2, 3, 0.5), str(path))
        meta = tmp_path / "mech.csv.meta"
        meta.write_text(meta.read_text().replace("hypothesis_count=4",
                                                 "hypothesis_count=5"))
        result = runner.invoke(main, ["stability", "--mechanism", str(path)])
        assert_input_error(result)
        assert "hypothesis_count is 5" in result.stderr

    @pytest.mark.parametrize("extra, line", [
        ("privacy_kind=eps_dp\nprivacy_value=0.01\n",
         "duplicate key 'privacy_kind' on line 7"),
        ("bogus_key=1\n", "unknown key 'bogus_key' on line 7"),
    ], ids=["duplicate", "unknown"])
    def test_sidecar_refuses_duplicate_and_unknown_keys(self, runner, tmp_path,
                                                        extra, line):
        # an appended declaration used to replace the honest one silently
        path = tmp_path / "mech.csv"
        meta = save_mechanism_csv(exponential_mechanism_over_types(2, 3, 0.5),
                                  str(path))
        with open(meta, "a", encoding="utf-8") as fh:
            fh.write(extra)
        result = runner.invoke(main, ["stability", "--mechanism", str(path)])
        assert_input_error(result)
        assert result.stdout == ""
        assert result.stderr == f"error: {meta}: {line}\n"

    @pytest.mark.parametrize("fmt, edit, refusal, command", [
        pytest.param(fmt, edit, refusal, command, id=f"{fmt}-{case}-{command}")
        for fmt, case, edit, refusal in FORMAT_REFUSALS
        for command in READERS[fmt]])
    def test_one_refusal_table_for_configs_and_sidecars(self, runner, tmp_path,
                                                        fmt, edit, refusal,
                                                        command):
        kernel = tmp_path / "mech.csv"
        save_mechanism_csv(exponential_mechanism_over_types(2, 3, 0.5), str(kernel))
        config = tmp_path / "exp.cfg"
        config.write_text(GOOD_CONFIG if fmt == "config" else GOOD_CONFIG.replace(
            "n = 8", "n = 3").replace("mechanism = exponential\nepsilon = 0.5",
                                      f"mechanism = {kernel}"))
        broken = config if fmt == "config" else tmp_path / "mech.csv.meta"
        broken.write_text(edit(broken.read_text()))
        flags = (["--mechanism", str(kernel)] if command == "stability"
                 else ["--config", str(config)])
        result = runner.invoke(main, [command, *flags])
        assert_input_error(result)
        assert result.stdout == ""
        assert result.stderr == f"error: {broken}: {refusal}\n"

    def test_non_numeric_kernel_entry(self, runner, tmp_path):
        path = tmp_path / "mech.csv"
        save_mechanism_csv(exponential_mechanism_over_types(2, 3, 0.5), str(path))
        lines = path.read_text().splitlines()
        lines[2] = "x," + lines[2].split(",", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["stability", "--mechanism", str(path)])
        assert_input_error(result)
        assert "line 3" in result.stderr

    @pytest.mark.parametrize("flags", [
        ["--epsilon", "0.5", "--sigma", "nan"],
        ["--epsilon", "0.5", "--sigma", "inf"],
        ["--epsilon", "inf", "--sigma", "1"],
        ["--epsilon", "nan", "--sigma", "1"],
        ["--mu", "inf", "--sigma", "1"],
        ["--mu", "nan", "--sigma", "1"],
    ])
    def test_non_finite_bounds_flags(self, runner, flags):
        result = runner.invoke(main, ["bounds", "--alphabet-size", "3",
                                      "--n", "10", *flags])
        assert_input_error(result)
        assert "nan" not in result.stdout

    def test_non_finite_stability_epsilon(self, runner):
        result = runner.invoke(main, ["stability", "--alphabet-size", "2",
                                      "--n", "4", "--epsilon", "inf"])
        assert_input_error(result)

    @pytest.mark.parametrize("args", [
        ["cover", "--alphabet-size", "2", "--n", "8", "--t", "3",
         "--kind", "full_grid"],
        ["stability", "--alphabet-size", "2", "--n", "8", "--epsilon", "0.5"],
        ["verify-mi", "--config"],
        ["simulate", "--config"],
    ], ids=lambda args: args[0])
    def test_type_cap_reaches_every_enumerating_command(
        self, runner, tmp_path, monkeypatch, args
    ):
        if args[-1] == "--config":
            args = [*args, write_config(tmp_path, GOOD_CONFIG)]
        monkeypatch.setenv("GENBOUND_TYPE_CAP", "8")  # n = 8: T = 9
        result = runner.invoke(main, args)
        assert_input_error(result)
        assert "GENBOUND_TYPE_CAP" in result.stderr

    @pytest.mark.parametrize("broken", ["missing", "directory"])
    def test_config_names_a_kernel_that_is_no_file(self, runner, tmp_path, broken):
        # the sidecar is there, the kernel CSV is not a readable file
        path = tmp_path / "mech.csv"
        save_mechanism_csv(exponential_mechanism_over_types(2, 8, 0.5), str(path))
        path.unlink()
        if broken == "directory":
            path.mkdir()
        config = write_config(tmp_path, GOOD_CONFIG.replace(
            "mechanism = exponential\nepsilon = 0.5", f"mechanism = {path}"))
        result = runner.invoke(main, ["verify-mi", "--config", config])
        assert_input_error(result)
        assert str(path) in result.stderr

    @pytest.mark.parametrize("command, broken", [
        ("verify-mi", "config"),
        ("verify-mi", "sidecar"),
        ("verify-mi", "kernel"),
        ("stability", "sidecar"),
        ("stability", "kernel"),
    ])
    def test_input_file_that_is_not_utf8(self, runner, tmp_path, command, broken):
        kernel = tmp_path / "mech.csv"
        save_mechanism_csv(exponential_mechanism_over_types(2, 8, 0.5), str(kernel))
        config = tmp_path / "exp.cfg"
        config.write_text(GOOD_CONFIG.replace(
            "mechanism = exponential\nepsilon = 0.5", f"mechanism = {kernel}"))
        target = {"config": config, "sidecar": tmp_path / "mech.csv.meta",
                  "kernel": kernel}[broken]
        target.write_bytes(target.read_bytes() + b"\xff\n")
        flags = (["--config", str(config)] if command == "verify-mi"
                 else ["--mechanism", str(kernel)])
        result = runner.invoke(main, [command, *flags])
        assert_input_error(result)
        assert f"{target}: not UTF-8 text" in result.stderr

    def test_unwritable_output_path(self, runner, tmp_path):
        target = tmp_path / "missing" / "report.txt"
        result = runner.invoke(main, ["catalog", "--output", str(target)])
        assert_input_error(result)
        assert str(target) in result.stderr


# Malformed command lines, one list per subcommand. CFG is a valid config
# file, DIR a directory and MISSING a path that does not exist.
USAGE_ERRORS = {
    "bounds": [
        ["--alphabet-size", "2", "--n", "10"],
        ["--alphabet-size", "2", "--n", "10", "--sigma", "1", "--bogus", "1"],
        ["--alpha", "3", "--n", "10", "--sigma", "1"],
        ["--alphabet-size", "2", "--n", "2.5", "--sigma", "1"],
        ["--alphabet-size", "2", "--n", "10", "--sigma", "1",
         "--epsilon", "0.5", "--mu", "0.5"],
        ["--alphabet-size", "2", "--n", "10", "--sigma", "1", "--output", "DIR"],
    ],
    "cover": [
        ["--alphabet-size", "2", "--n", "8", "--t", "2"],
        ["--alphabet-size", "2", "--n", "8", "--t", "2", "--kind", "full_grid",
         "--bogus", "1"],
        ["--alpha", "2", "--n", "8", "--t", "2", "--kind", "full_grid"],
        ["--alphabet-size", "2", "--n", "8", "--t", "2", "--kind", "hex_grid"],
        ["--alphabet-size", "2", "--n", "x", "--t", "2", "--kind", "full_grid"],
        ["--alphabet-size", "2", "--n", "8", "--t", "2", "--kind", "full_grid",
         "--epsilon", "0.5", "--mu", "0.5"],
        ["--alphabet-size", "2", "--n", "8", "--t", "2", "--kind", "simplex_grid",
         "--source", "0.5,0.5"],
    ],
    "stability": [
        [],
        ["--epsilon", "0.5"],
        ["--alphabet-size", "2", "--n", "4", "--epsilon", "0.5", "--bogus", "1"],
        ["--alpha", "2", "--n", "4", "--epsilon", "0.5"],
        ["--alphabet-size", "2", "--n", "4.0", "--epsilon", "0.5"],
        ["--mechanism", "MISSING"],
        ["--mechanism", "DIR"],
        ["--alphabet-size", "2", "--n", "4", "--epsilon", "0.5", "--mu", "0.5"],
    ],
    "verify-mi": [
        [],
        ["--config", "CFG", "--bogus", "1"],
        ["--conf", "CFG"],
        ["--config", "CFG", "--format", "xml"],
        ["--config", "MISSING"],
        ["--config", "DIR"],
        ["--config", "CFG", "--epsilon", "0.5", "--mu", "0.5"],
    ],
    "simulate": [
        [],
        ["--config", "CFG", "--bogus", "1"],
        ["--config", "CFG", "--work", "2"],
        ["--config", "CFG", "--format", "xml"],
        ["--config", "CFG", "--workers", "two"],
        ["--config", "MISSING"],
        ["--config", "DIR"],
        ["--config", "CFG", "--epsilon", "0.5", "--mu", "0.5"],
    ],
    "catalog": [
        ["--bogus", "1"],
        ["--out", "catalog.txt"],
        ["--output", "DIR"],
        ["--epsilon", "0.5", "--mu", "0.5"],
    ],
}


@pytest.mark.parametrize("args", [
    [command, *flags] for command, cases in USAGE_ERRORS.items() for flags in cases
], ids=lambda args: " ".join(args))
def test_usage_error_exits_two_without_output(runner, tmp_path, args):
    paths = {"CFG": write_config(tmp_path, GOOD_CONFIG), "DIR": str(tmp_path),
             "MISSING": str(tmp_path / "no-such-file")}
    result = runner.invoke(main, [paths.get(a, a) for a in args])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert "error:" in result.stderr and "Traceback" not in result.stderr


def test_usage_errors_cover_every_command():
    assert list(USAGE_ERRORS) == list(main.commands)


HELP_NAMES = {
    None: ["bounds", "cover", "stability", "verify-mi", "simulate", "catalog",
           "--help"],
    "bounds": ["--alphabet-size", "--n", "--epsilon", "--mu", "--sigma", "--beta",
               "--output", "--help"],
    "cover": ["--alphabet-size", "--n", "--t", "--kind", "--source", "--output",
              "--help"],
    "stability": ["--alphabet-size", "--n", "--epsilon", "--mechanism", "--output",
                  "--help"],
    "verify-mi": ["--config", "--format", "--output", "--help"],
    "simulate": ["--config", "--workers", "--format", "--output", "--help"],
    "catalog": ["--output", "--help"],
}


@pytest.mark.parametrize("command", list(HELP_NAMES), ids=str)
def test_help_names_every_option(runner, command):
    result = runner.invoke(main, [command, "--help"] if command else ["--help"])
    assert result.exit_code == 0
    assert result.stderr == ""
    for name in HELP_NAMES[command]:
        assert re.search(rf"(^|\s){re.escape(name)}(\s|$)", result.stdout), name
    if command:
        flags = [f for fs, _ in main.commands[command].options for f in fs]
        assert flags + ["--help"] == HELP_NAMES[command]


def run_cli(*args, cwd=None, stdout=subprocess.PIPE, unbuffered=False):
    """A fresh `python -m genbound.cli` process with stdout block-buffered,
    as by default, or unbuffered: exit code, stdout bytes and stderr
    text."""
    src = os.path.dirname(os.path.dirname(genbound.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run([sys.executable, "-m", "genbound.cli", *args],
                          stdout=stdout, stderr=subprocess.PIPE, cwd=cwd, env=env)
    return proc.returncode, proc.stdout, proc.stderr.decode()


def failing_inputs(tmp_path):
    """A saved identity kernel that falsely declares 1.0-DP (its audit
    exits 1) and a config that is not UTF-8 (exit 2)."""
    liar = str(tmp_path / "liar.csv")
    save_mechanism_csv(Mechanism(identity_mechanism(2, 4).kernel, 2, 4,
                                 PrivacyParams.eps_dp(1.0)), liar)
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\n")
    return liar, str(binary)


def test_process_output_is_complete(runner, tmp_path):
    """A process's exit code, stdout bytes and stderr equal an in-process
    run of the same command at statuses 0, 1 and 2, through a pipe and
    with --output: run() flushes both streams before the process ends."""
    liar, binary = failing_inputs(tmp_path)
    piped = [
        (["verify-mi", "--config", write_config(tmp_path, GOOD_CONFIG)], 0),
        (["stability", "--mechanism", liar], 1),
        (["verify-mi", "--config", binary], 2),
    ]
    for args, status in piped:
        in_process = runner.invoke(main, args)
        assert in_process.exit_code == status
        assert run_cli(*args) == (status, in_process.stdout.encode(),
                                  in_process.stderr)

    bounds = ["bounds", "--alphabet-size", "3", "--n", "50", "--epsilon", "0.4",
              "--sigma", "0.5", "--beta", "0.05"]
    for args, status in [(bounds, 0), (["stability", "--mechanism", liar], 1)]:
        in_process = runner.invoke(main, args + ["--output", str(tmp_path / "a")])
        assert in_process.exit_code == status and in_process.stdout == ""
        assert run_cli(*args, "--output", str(tmp_path / "b")) == (
            status, b"", in_process.stderr)
        expected = (tmp_path / "a").read_bytes()
        assert expected.endswith(b"\n")
        assert (tmp_path / "b").read_bytes() == expected
    assert expected.count(b"\n") == 5  # the header and distances 1..4


NO_SPACE = "No space left on device"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unflushable_stdout_exits_120():
    # the catalog fits stdout's buffer, so the write fails at the flush
    with open("/dev/full", "wb") as full:
        assert run_cli("catalog", stdout=full) == (
            120, None, f"error: cannot write stdout: {NO_SPACE}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args, unbuffered", [
    (["bounds", "--alphabet-size", "2", "--n", "10", "--sigma", "1"], True),
    (["stability", "--alphabet-size", "3", "--n", "60", "--epsilon", "0.5"], True),
    # 400 rows overflow stdout's buffer, so the report's write fails
    (["stability", "--alphabet-size", "2", "--n", "400", "--epsilon", "0.5"], False),
], ids=["bounds-unbuffered", "stability-unbuffered", "stability-large"])
def test_stdout_refused_while_the_command_runs_exits_120(args, unbuffered):
    # one line: the flush in run() does not report the refused write again
    with open("/dev/full", "wb") as full:
        assert run_cli(*args, stdout=full, unbuffered=unbuffered) == (
            120, None, f"error: cannot write stdout: {NO_SPACE}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", [["--help"], ["stability", "--help"]],
                         ids=["program", "stability"])
@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
def test_help_refused_by_stdout_exits_120(args, unbuffered):
    # argparse drops a failed write of its help text; the CLI reports it
    with open("/dev/full", "wb") as full:
        assert run_cli(*args, stdout=full, unbuffered=unbuffered) == (
            120, None, f"error: cannot write stdout: {NO_SPACE}\n")


def test_mc_samples_over_the_cap_exit_2_at_once(tmp_path):
    config = write_config(tmp_path, GOOD_CONFIG.replace(
        "mc_samples = 2000", "mc_samples = 100000000000000000000"))
    assert run_cli("simulate", "--config", config) == (
        2, b"", "error: mc_samples=100000000000000000000 exceeds the "
        "enumeration cap of 10000000; raise GENBOUND_TYPE_CAP to override\n")


@pytest.mark.parametrize("exc, line", [
    (MemoryError(), "error: out of memory\n"),
    (MemoryError("Unable to allocate 76.3 MiB"),
     "error: out of memory: Unable to allocate 76.3 MiB\n"),
], ids=["bare", "numpy"])
def test_out_of_memory_exits_2_with_one_line(runner, monkeypatch, exc, line):
    def refuse(*args, **kwargs):
        raise exc

    monkeypatch.setattr(genbound.covering, "verify_cover", refuse)
    result = runner.invoke(main, ["cover", "--alphabet-size", "2", "--n", "9",
                                  "--t", "3", "--kind", "full_grid"])
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", line)


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_refused_allocation_exits_2_in_a_process():
    # 10**7 grid cells pass the cap, but their axis table does not fit
    # under a 400 MiB address space
    limit = 400 << 20
    src = os.path.dirname(os.path.dirname(genbound.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "genbound.cli", "cover", "--alphabet-size", "2",
         "--n", "9999999", "--t", "10000000", "--kind", "full_grid"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory")
    assert proc.stderr.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_output_file_refused_mid_write_exits_2():
    assert run_cli("bounds", "--alphabet-size", "2", "--n", "10", "--sigma", "1",
                   "--output", "/dev/full") == (
        2, b"", f"error: cannot write --output /dev/full: {NO_SPACE}\n")


def test_in_process_runs_return_or_raise_their_status(tmp_path):
    liar, binary = failing_inputs(tmp_path)
    assert main(["catalog", "--output", os.devnull],
                standalone_mode=False) is None
    for args, status in [(["stability", "--mechanism", liar], 1),
                         (["verify-mi", "--config", binary], 2),
                         (["stability"], 2)]:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), \
                pytest.raises(SystemExit) as exc:
            main(args, standalone_mode=False)
        assert exc.value.code == status


def test_cli_import_registers_no_exit_handler():
    # the program ends through run(); a program that imports the CLI
    # exits as it would without it
    src = os.path.dirname(os.path.dirname(genbound.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import atexit; before = atexit._ncallbacks(); "
         "import genbound.cli; print(atexit._ncallbacks() - before)"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out == "0\n"


RUN_AND_LIST_MODULES = """
import contextlib, io, sys
from genbound.cli import main
rc = None
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main(sys.argv[1:], prog_name="genbound")
        except SystemExit as exc:
            rc = exc.code
modules = sorted(sys.modules)
import json
print(json.dumps({"rc": rc, "modules": modules}))
"""


def modules_after(*args, cwd=None):
    """Exit code and sys.modules of a fresh interpreter that imports
    genbound.cli and, given arguments, runs that subcommand."""
    src = os.path.dirname(os.path.dirname(genbound.__file__))
    out = subprocess.run([sys.executable, "-c", RUN_AND_LIST_MODULES, *args],
                         capture_output=True, text=True, check=True, cwd=cwd,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    record = json.loads(out)
    return record["rc"], set(record["modules"])


@pytest.mark.parametrize("preset", [None, "30"], ids=["absent", "preset"])
def test_openblas_thread_timeout_default(runner, monkeypatch, preset):
    # set, then cleared: monkeypatch restores the variable's absence too
    monkeypatch.setenv("OPENBLAS_THREAD_TIMEOUT", "unset")
    if preset is None:
        monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT")
    else:
        monkeypatch.setenv("OPENBLAS_THREAD_TIMEOUT", preset)
    main(["catalog", "--output", os.devnull], standalone_mode=False)
    assert os.environ.get("OPENBLAS_THREAD_TIMEOUT") == preset
    assert runner.invoke(main, ["catalog"]).exit_code == 0
    assert os.environ["OPENBLAS_THREAD_TIMEOUT"] == (preset or "4")


def test_cli_import_leaves_scipy_out():
    _, modules = modules_after()
    assert not {m for m in modules if m.split(".")[0] == "scipy"}


@pytest.mark.parametrize("args", [
    [],
    ["catalog"],
    ["bounds", "--alphabet-size", "3", "--n", "20", "--epsilon", "0.5",
     "--sigma", "0.5"],
], ids=["import", "catalog", "bounds"])
def test_closed_form_commands_leave_numpy_out(args):
    rc, modules = modules_after(*args)
    assert rc in (None, 0)
    assert "numpy" not in modules
    assert "click" not in modules


_BASE = {"genbound", "genbound.cli", "genbound.errors", "genbound.records"}
_CLOSED_FORM = _BASE | {"genbound.privacy", "genbound.bounds_catalog"}
_SAMPLING = _BASE | {"genbound.privacy", "genbound.types_core",
                     "genbound.privacy_mechanisms", "genbound.oracle_harness"}


@pytest.mark.parametrize("args, layers", [
    (["catalog"], _CLOSED_FORM),
    (["bounds", "--alphabet-size", "3", "--n", "20", "--epsilon", "0.5",
      "--sigma", "0.5"], _CLOSED_FORM),
    (["cover", "--alphabet-size", "3", "--n", "10", "--t", "3",
      "--kind", "simplex_grid"],
     _BASE | {"genbound.covering", "genbound.types_core"}),
    (["stability", "--alphabet-size", "3", "--n", "8", "--epsilon", "0.5"],
     _BASE | {"genbound.privacy", "genbound.types_core",
              "genbound.privacy_mechanisms", "genbound.divergence_core"}),
    (["simulate", "--config", "exp.cfg"], _SAMPLING),
    (["simulate", "--config", "exp.cfg", "--format", "jsonl"], _SAMPLING),
    (["verify-mi", "--config", "exp.cfg"],
     _SAMPLING | {"genbound.bounds_catalog", "genbound.covering"}),
], ids=["catalog", "bounds", "cover", "stability", "simulate", "simulate-jsonl",
        "verify-mi"])
def test_each_command_loads_exactly_its_layers(tmp_path, args, layers):
    """The genbound modules a fresh process loads to run one command;
    the record classes generate no code, so dataclasses stays out, and
    json is loaded only to write jsonl."""
    write_config(tmp_path, GOOD_CONFIG)
    rc, modules = modules_after(*args, cwd=tmp_path)
    assert rc == 0
    assert {m for m in modules if m.split(".")[0] == "genbound"} == layers
    assert "dataclasses" not in modules
    assert ("json" in modules) == ("jsonl" in args)
    assert ("numpy" in modules) == ("genbound.types_core" in layers)


@pytest.mark.parametrize("args, absent", [
    (["cover", "--alphabet-size", "3", "--n", "10", "--t", "3",
      "--kind", "typical_grid"],
     {"genbound.oracle_harness", "genbound.privacy_mechanisms", "numpy.ma",
      "numpy.random", "fractions", "decimal", "genbound.bounds_catalog"}),
    (["cover", "--alphabet-size", "3", "--n", "10", "--t", "3",
      "--kind", "full_grid"],
     {"genbound.oracle_harness", "genbound.privacy_mechanisms", "numpy.ma",
      "numpy.random", "fractions", "decimal", "genbound.bounds_catalog"}),
    (["stability", "--alphabet-size", "3", "--n", "8", "--epsilon", "0.5"],
     {"genbound.covering", "genbound.oracle_harness", "numpy.ma", "numpy.random"}),
    (["verify-mi", "--config", "exp.cfg"],
     {"numpy.ma", "numpy.random", "fractions", "decimal"}),
], ids=["cover-typical", "cover-full", "stability", "verify-mi"])
def test_array_commands_load_only_their_layers(tmp_path, args, absent):
    write_config(tmp_path, GOOD_CONFIG)
    rc, modules = modules_after(*args, cwd=tmp_path)
    assert rc == 0
    assert "numpy" in modules
    assert not modules & (absent | {"click"})
