"""Seeded inputs and op plans for the three benchmark workloads.

An op is one CLI invocation plus the exit code and output checks it must
pass. A workload is a round of ops that the closed loop repeats; the
inputs are files written from the workload seed, and the package sees
only those files and the command-line flags.

certify  verify-mi over three lattice shapes: the exact-oracle path.
audit    stability and cover audits: O(T^2) pair scans and O(T x centers)
         cover checks, pass and fail exit codes, the CSV kernel loader.
simulate Monte-Carlo simulate with --workers 2: the only sampling path.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference

# Lattice shapes and the privacy bands their parameters are drawn from.
# T is 153, 165 and 151 count vectors: a verify-mi op takes about 2 s, so
# a 30-s run holds two rounds of all six certify configs.
CERTIFY_SHAPES = (
    # (m, n, mechanism, privacy key, band)
    (3, 16, "exponential", "epsilon", (0.3, 0.8)),
    (4, 8, "exponential", "epsilon", (0.15, 0.9)),
    (2, 150, "uniform", "mu", (0.1, 0.5)),
)
STABILITY_BAND = (0.2, 1.0)
FALSE_DECLARATION_BAND = (0.1, 0.5)
SIMULATE_BAND = (0.3, 0.8)
SIMULATE_SAMPLES = 100_000
MIN_SYMBOL_PROB = 0.05
ORACLE_TOL = 1e-9


@dataclass
class Op:
    """One CLI invocation and what its result must look like."""

    kind: str
    args: list[str]
    expect_rc: int
    check: Callable[[str, str], list[str]]
    shape: dict
    memory_pass: bool = True


@dataclass
class Plan:
    """The generated inputs of one workload run."""

    round: list[Op]
    extra_trace_ops: list[Op] = field(default_factory=list)
    reference_op: Op | None = None

    def kinds(self) -> list[Op]:
        """One op of each kind, in first-seen order."""
        seen: dict[str, Op] = {}
        for op in self.round:
            seen.setdefault(op.kind, op)
        return list(seen.values())


def num_types(m: int, n: int) -> int:
    return math.comb(n + m - 1, m - 1)


def _source(rng: np.random.Generator, m: int) -> list[float]:
    """A source with every probability >= MIN_SYMBOL_PROB, summing to 1
    within the package's 1e-12 tolerance."""
    raw = MIN_SYMBOL_PROB + (1.0 - MIN_SYMBOL_PROB * m) * rng.dirichlet(np.ones(m))
    head = [round(float(p), 6) for p in raw[:-1]]
    return head + [1.0 - math.fsum(head)]


def _in_band(band: tuple[float, float], u: float) -> float:
    lo, hi = band
    return round(lo + (hi - lo) * u, 6)


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _write_config(path: str, entries: dict) -> str:
    with open(path, "w") as fh:
        for key, val in entries.items():
            if isinstance(val, list):
                val = ",".join(repr(v) for v in val)
            fh.write(f"{key}={val}\n")
    return path


# ---------------------------------------------------------------- checks


def _check_certify(m, n, source, mechanism, privacy_value):
    expected = reference.exact_quantities(m, n, source, mechanism, privacy_value)

    def check(stdout: str, stderr: str) -> list[str]:
        rows = _csv_rows(stdout)
        if not rows:
            return ["verify-mi printed no rows"]
        errors = []
        for row in rows:
            if row["pass"] != "true" or row["all_pass"] != "true":
                errors.append(f"bound {row['bound_id']} reports pass={row['pass']}")
            for key, want in (("exact_mi", expected.mi),
                              ("exact_gen_error", expected.gen_error)):
                got = float(row[key])
                if not abs(got - want) <= ORACLE_TOL:
                    errors.append(
                        f"{row['bound_id']}: {key}={got!r}, independent value {want!r}"
                    )
        return errors

    return check


def _check_stability_pass(stdout: str, stderr: str) -> list[str]:
    rows = _csv_rows(stdout)
    errors = [] if rows else ["stability printed no rows"]
    for row in rows:
        if row["pass"] != "true":
            errors.append(f"distance {row['k']} reports pass={row['pass']}")
        if not float(row["max_kl"]) <= float(row["bound"]) + 1e-9:
            errors.append(f"distance {row['k']}: max_kl exceeds bound")
    if stderr:
        errors.append(f"unexpected stderr: {stderr!r}")
    return errors


_AUDIT_FAILURE = re.compile(r"^stability audit failed at distance (\d+): ")


def _check_stability_fail(stdout: str, stderr: str) -> list[str]:
    rows = _csv_rows(stdout)
    failing = [row["k"] for row in rows if row["pass"] == "false"]
    if not failing:
        return ["false declaration audit reported no failing distance"]
    lines = stderr.splitlines()
    if len(lines) != 1:
        return [f"expected one stderr line, got {len(lines)}: {stderr!r}"]
    match = _AUDIT_FAILURE.match(lines[0])
    if match is None or match.group(1) != failing[0]:
        return [f"stderr does not name distance {failing[0]}: {lines[0]!r}"]
    return []


def _check_cover(stdout: str, stderr: str) -> list[str]:
    rows = _csv_rows(stdout)
    if len(rows) != 1:
        return [f"cover printed {len(rows)} rows"]
    row = rows[0]
    errors = []
    if row["verified"] != "true":
        errors.append("cover reports verified=false")
    if not float(row["achieved_radius"]) <= float(row["analytic_radius"]):
        errors.append(
            f"achieved radius {row['achieved_radius']} exceeds analytic "
            f"{row['analytic_radius']}"
        )
    return errors


def _check_simulate(m, n, source, epsilon):
    expected = reference.exact_quantities(m, n, source, "exponential", epsilon)

    def check(stdout: str, stderr: str) -> list[str]:
        rows = _csv_rows(stdout)
        if len(rows) != 1:
            return [f"simulate printed {len(rows)} rows"]
        row = rows[0]
        errors = []
        if row["within_4se"] != "true":
            errors.append("simulate reports within_4se=false")
        if int(row["samples"]) != SIMULATE_SAMPLES:
            errors.append(f"simulate drew {row['samples']} samples")
        got = float(row["exact_value"])
        if not abs(got - expected.gen_error) <= ORACLE_TOL:
            errors.append(
                f"exact_value={got!r}, independent value {expected.gen_error!r}"
            )
        return errors

    return check


# ---------------------------------------------------------------- plans


def _certify(seed: int, work: str) -> Plan:
    """Each shape gets two configs, with privacy parameters drawn near the
    first and third quartiles of the band (jitter +-3% of its width), so
    every run spans the band. Cover sizes, and so op time, grow with the
    parameter, so drawing near fixed quartiles keeps the work per run
    nearly the same whatever the seed."""
    rng = np.random.default_rng([seed, 1])
    variants: list[list[Op]] = [[], []]
    for m, n, mech, key, band in CERTIFY_SHAPES:
        source = _source(rng, m)
        for v, quartile in enumerate((0.25, 0.75)):
            value = _in_band(band, quartile + float(rng.uniform(-0.03, 0.03)))
            path = _write_config(
                os.path.join(work, f"certify-m{m}-n{n}-v{v}.cfg"),
                {"alphabet_size": m, "n": n, "source": source,
                 "mechanism": mech, key: value, "seed": seed},
            )
            variants[v].append(Op(
                kind=f"verify-mi m{m} n{n}",
                args=["verify-mi", "--config", path],
                expect_rc=0,
                check=_check_certify(m, n, source, mech, value),
                shape={"m": m, "n": n, "T": num_types(m, n),
                       "hypotheses": num_types(m, n), "centers": None, key: value},
                # the largest lattice reaches every top-level span the
                # others do, so only it pays for the tracemalloc pass
                memory_pass=(m, n) == (4, 8),
            ))
    return Plan(round=variants[0] + variants[1])


def _audit(seed: int, work: str) -> Plan:
    from genbound.oracle_harness import random_mechanism
    from genbound.privacy_mechanisms import PrivacyParams, save_mechanism_csv

    rng = np.random.default_rng([seed, 2])
    eps = _in_band(STABILITY_BAND, float(rng.random()))
    declared = _in_band(FALSE_DECLARATION_BAND, float(rng.random()))
    kernel_seed = int(rng.integers(2**32))
    kernel_path = os.path.join(work, "audit-kernel.csv")
    save_mechanism_csv(
        random_mechanism(4, 8, 12, kernel_seed, privacy=PrivacyParams.eps_dp(declared)),
        kernel_path,
    )
    source = _source(rng, 3)

    def cover(m: int, n: int, t: int, kind: str) -> dict:
        return {"m": m, "n": n, "T": num_types(m, n), "hypotheses": None,
                "t": t, "cover_kind": kind}

    ops = [
        Op("stability epsilon m3 n20",
           ["stability", "--alphabet-size", "3", "--n", "20", "--epsilon", repr(eps)],
           0, _check_stability_pass,
           {"m": 3, "n": 20, "T": num_types(3, 20), "hypotheses": num_types(3, 20),
            "centers": 0, "epsilon": eps}),
        Op("stability mechanism m4 n8",
           ["stability", "--mechanism", kernel_path],
           1, _check_stability_fail,
           {"m": 4, "n": 8, "T": num_types(4, 8), "hypotheses": 12, "centers": 0,
            "declared_epsilon": declared, "kernel_seed": kernel_seed}),
        Op("cover full_grid m3 n150",
           ["cover", "--alphabet-size", "3", "--n", "150", "--t", "12",
            "--kind", "full_grid"],
           0, _check_cover, cover(3, 150, 12, "full_grid")),
        Op("cover simplex_grid m4 n30",
           ["cover", "--alphabet-size", "4", "--n", "30", "--t", "8",
            "--kind", "simplex_grid"],
           0, _check_cover, cover(4, 30, 8, "simplex_grid")),
        Op("cover typical_grid m3 n150",
           ["cover", "--alphabet-size", "3", "--n", "150", "--t", "10",
            "--kind", "typical_grid", "--source", ",".join(repr(p) for p in source)],
           0, _check_cover, dict(cover(3, 150, 10, "typical_grid"), source=source)),
    ]
    return Plan(round=ops)


def _simulate(seed: int, work: str) -> Plan:
    rng = np.random.default_rng([seed, 3])
    m, n = 3, 20
    eps = _in_band(SIMULATE_BAND, float(rng.random()))
    source = _source(rng, m)
    path = _write_config(
        os.path.join(work, "simulate.cfg"),
        {"alphabet_size": m, "n": n, "source": source, "mechanism": "exponential",
         "epsilon": eps, "seed": int(rng.integers(2**63)),
         "mc_samples": SIMULATE_SAMPLES},
    )
    check = _check_simulate(m, n, source, eps)
    shape = {"m": m, "n": n, "T": num_types(m, n), "hypotheses": num_types(m, n),
             "centers": 0, "epsilon": eps, "samples": SIMULATE_SAMPLES}

    def op(workers: int) -> Op:
        return Op(f"simulate w{workers}",
                  ["simulate", "--config", path, "--workers", str(workers)],
                  0, check, dict(shape, workers=workers), memory_pass=workers == 2)

    # --workers 2 matches the two cores the benchmark was sized on; the
    # single-worker run is the set-up reference and the traced baseline
    return Plan(round=[op(2)], extra_trace_ops=[op(1)], reference_op=op(1))


WORKLOADS = {"certify": _certify, "audit": _audit, "simulate": _simulate}


def make_plan(workload: str, seed: int, work: str) -> Plan:
    return WORKLOADS[workload](seed, work)
