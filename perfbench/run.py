"""genbound benchmark: times the real CLI end to end, or traces it per layer.

    python3 perfbench/run.py --workload certify|audit|simulate \
        --seed N --seconds S --trace 0|1

--trace 0  Closed loop, one client: each op is a fresh
           `python -m genbound.cli ...` with PYTHONPATH=src, timed from
           spawn to exit, so interpreter start-up and imports count. The
           workload's round of ops repeats until the round count whose end
           lies closest to --seconds. Prints the end-to-end metrics.
--trace 1  One op of each kind, run four times: as subprocesses (child
           CPU), then in-process untraced, traced with spans around every
           public function, and under tracemalloc. Prints the per-layer
           metrics. --seconds does not apply.

Every op's exit code and output are checked; see workloads.py. A result
file with provenance goes to perfbench/out/. The last stdout line is the
JSON result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=SRC + (os.pathsep + os.environ["PYTHONPATH"]
                      if os.environ.get("PYTHONPATH") else ""),
)

SETUP_REPS = 3
PROBE_REPS = 5

# Top-level spans: the CLI commands and the package functions they call.
TOP_SPANS = (
    "cli.verify_mi",
    "cli.stability",
    "cli.cover",
    "cli.simulate",
    "oracle_harness.load_experiment_config",
    "oracle_harness.run_verification",
    "oracle_harness.exact_expected_gen_error",
    "oracle_harness.mc_expected_gen_error",
    "privacy_mechanisms.exponential_mechanism_over_types",
    "privacy_mechanisms.load_mechanism_csv",
    "privacy_mechanisms.verify_kl_stability",
    "covering.build_full_grid_cover",
    "covering.build_simplex_grid_cover",
    "covering.build_typical_cover",
    "covering.verify_cover",
)
# metric names are at most 64 characters
PEAK_METRIC_PREFIX = {
    "privacy_mechanisms.exponential_mechanism_over_types":
        "privacy_mechanisms.exponential_mechanism",
}


@dataclass
class Run:
    wall_s: float
    rc: int
    stdout: str
    stderr: str
    maxrss_mb: float = 0.0
    cpu_s: float = 0.0


def spawn(argv: list[str], work: str) -> Run:
    """Run `python <argv>` to completion; wall time spans spawn to exit."""
    out_path = os.path.join(work, "child.out")
    err_path = os.path.join(work, "child.err")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                env=CHILD_ENV, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Run(wall, proc.returncode, out.read().decode(), err.read().decode(),
                   usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime)


def spawn_cli(op, work: str) -> Run:
    return spawn(["-m", "genbound.cli", *op.args], work)


def run_in_process(op) -> Run:
    import click
    import genbound.cli

    out, err = io.StringIO(), io.StringIO()
    rc = 0
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            genbound.cli.main(op.args, prog_name="genbound", standalone_mode=False)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            exc.show()
            rc = exc.exit_code
    return Run(time.perf_counter() - start, rc, out.getvalue(), err.getvalue())


class Checker:
    """Exit code, output and determinism checks over every op run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_stdout: dict[tuple, str] = {}

    @staticmethod
    def _key(op) -> tuple:
        # --workers must not change the result
        args = list(op.args)
        if "--workers" in args:
            i = args.index("--workers")
            del args[i:i + 2]
        return tuple(args)

    def record(self, op, run: Run, label: str, counted: bool = True) -> bool:
        errors = []
        if run.rc != op.expect_rc:
            errors.append(f"exit code {run.rc}, expected {op.expect_rc}: "
                          f"{run.stderr.strip()[:300]!r}")
        else:
            try:
                errors += op.check(run.stdout, run.stderr)
            except (KeyError, ValueError) as exc:
                errors.append(f"unparseable output ({exc!r}): {run.stdout[:300]!r}")
            if op.expect_rc == 0 and run.stderr:
                errors.append(f"unexpected stderr: {run.stderr.strip()[:300]!r}")
        first = self.first_stdout.setdefault(self._key(op), run.stdout)
        if run.stdout != first:
            errors.append("stdout differs from an earlier run of the same input")
        for err in errors:
            self.failures.append(f"{label} [{op.kind}]: {err}")
        if counted:
            self.attempted += 1
            self.failed += bool(errors)
        return not errors


# ------------------------------------------------------------ provenance


def _git(*args: str) -> str | None:
    try:
        res = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload: str, seed: int, trace: int, ops) -> dict:
    in_repo = (os.path.exists(os.path.join(ROOT, ".git"))
               and _git("rev-parse", "--show-toplevel") == ROOT)
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "genbound", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "commit": _git("rev-parse", "HEAD") if in_repo else None,
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no"))
        if in_repo else None,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "click": _version("click"),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "ops": [
            {"kind": op.kind, "expect_rc": op.expect_rc,
             "args": [os.path.relpath(a, ROOT) if os.path.isabs(a) else a
                      for a in op.args],
             **op.shape}
            for op in ops
        ],
    }


def _centers_from_output(op, run: Run) -> None:
    if run.stdout.startswith("kind,") and run.rc == op.expect_rc:
        rows = run.stdout.splitlines()
        header, values = rows[0].split(","), rows[1].split(",")
        op.shape["centers"] = int(values[header.index("center_count")])


# ------------------------------------------------------------- trace 0


def measure_end_to_end(workload: str, seed: int, seconds: float, work: str):
    from workloads import make_plan

    setup_times = []
    setup_failures = []
    for rep in range(SETUP_REPS):
        rep_dir = os.path.join(work, f"setup{rep}")
        os.makedirs(rep_dir)
        start = time.perf_counter()
        plan = make_plan(workload, seed, rep_dir)
        warm = spawn(["-m", "genbound.cli", "catalog"], rep_dir)
        setup_times.append(time.perf_counter() - start)
        if warm.rc != 0:
            setup_failures.append(f"warm-up catalog exited {warm.rc}: {warm.stderr!r}")

    checker = Checker()
    if plan.reference_op is not None:
        # set-up check: the single-worker result every timed op must equal
        ref = spawn_cli(plan.reference_op, work)
        if not checker.record(plan.reference_op, ref, "setup reference",
                              counted=False):
            setup_failures.append("reference op failed")

    # Whole rounds keep the mix of ops the same in every run.
    runs = []
    rounds = 0
    start = time.perf_counter()
    while True:
        for op in plan.round:
            run = spawn_cli(op, work)
            _centers_from_output(op, run)
            runs.append((op, run, checker.record(op, run, f"op {len(runs)}")))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds / 2 >= seconds:
            break

    walls = [r.wall_s for _, r, _ in runs]
    n_ops = len(runs)
    failed = sum(1 for _, _, ok in runs if not ok)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", SETUP_REPS, "measured"),
        "ops_per_s": (n_ops / elapsed, "1/s", n_ops, "measured"),
        "op_s_p50": (statistics.median(walls), "s", n_ops, "measured"),
        # a run holds too few ops for any percentile above the median to
        # have ten ops beyond it, so the tail is the slowest op (p100)
        "op_s_tail": (max(walls), "s", n_ops, "measured"),
        "peak_rss_mb": (max(r.maxrss_mb for _, r, _ in runs), "MB", n_ops,
                        "measured"),
        "ok_ratio": ((n_ops - failed) / n_ops, "ratio", n_ops, "measured"),
    }
    details = {
        "failed_ratio": failed / n_ops,
        "rounds": rounds,
        "elapsed_s": elapsed,
        "setup_times_s": setup_times,
        "ops": [{"kind": op.kind, "wall_s": r.wall_s, "rc": r.rc,
                 "maxrss_mb": r.maxrss_mb, "cpu_s": r.cpu_s, "ok": ok}
                for op, r, ok in runs],
    }
    correct = not checker.failures and not setup_failures
    return (plan.kinds(), metrics, n_ops, failed, correct,
            checker.failures + setup_failures, details)


# ------------------------------------------------------------- trace 1


def _probe(code: str, work: str, checker: Checker) -> float:
    """Median wall time of a fresh `python -c code`."""
    walls = []
    for _ in range(PROBE_REPS):
        run = spawn(["-c", code], work)
        if run.rc != 0:
            checker.failures.append(f"probe {code!r} exited {run.rc}: {run.stderr!r}")
        walls.append(run.wall_s)
    return statistics.median(walls)


def measure_layers(workload: str, seed: int, work: str):
    from spans import Tracer
    from workloads import make_plan

    plan = make_plan(workload, seed, work)
    ops = plan.kinds() + plan.extra_trace_ops
    checker = Checker()

    interpreter_s = _probe("pass", work, checker)
    import_s = _probe("import genbound.cli", work, checker)
    cpu = []
    for op in ops:
        run = spawn_cli(op, work)
        checker.record(op, run, "subprocess")
        cpu.append(run.cpu_s)

    import genbound.cli  # noqa: F401  (import time is cli.import_s)

    def timed_pass(label, selected, tracer=None):
        start = time.perf_counter()
        for op in selected:
            before = tracer.counts["covering.centers"] if tracer else 0
            run = run_in_process(op)
            if tracer is not None and not tracer.memory:
                op.shape["centers"] = tracer.counts["covering.centers"] - before
            checker.record(op, run, label)
        return time.perf_counter() - start

    untraced_s = timed_pass("untraced", ops)
    traced = Tracer()
    traced.install()
    try:
        traced_s = timed_pass("traced", ops, traced)
    finally:
        traced.uninstall()

    mem = Tracer(memory=True)
    tracemalloc.start()
    mem.install()
    try:
        timed_pass("memory", [op for op in ops if op.memory_pass], mem)
    finally:
        mem.uninstall()
        tracemalloc.stop()

    t = traced
    c = t.counts
    n = len(ops)
    m = {
        "cli.interpreter_s": (interpreter_s, "s", PROBE_REPS, "measured"),
        "cli.import_s": (import_s, "s", PROBE_REPS, "measured"),
        "cli.cpu_s_per_op": (statistics.fmean(cpu), "s", n, "measured"),
    }

    def add(name, value, unit, label="measured"):
        m[name] = (value, unit, n, label)

    add("types_core.enumerate_types.calls", t.calls("types_core.enumerate_types"), "count")
    add("types_core.enumerate_types_s", t.inclusive_s("types_core.enumerate_types"), "s")
    add("types_core.type_probability.calls", t.calls("types_core.type_probability"), "count")
    add("types_core.type_probability_s", t.inclusive_s("types_core.type_probability"), "s")
    add("types_core.type_index.calls", t.calls("types_core.type_index"), "count")
    add("types_core.n_types", c["types_core.enumerate_types.yielded"], "count")
    add("divergence_core.kl_divergence.calls", t.calls("divergence_core.kl_divergence"),
        "count")
    add("divergence_core.kl_divergence_s", t.inclusive_s("divergence_core.kl_divergence"),
        "s")
    mixture = ("divergence_core.mixture_kl_bound_logsumexp",
               "divergence_core.mixture_kl_bound_min")
    add("divergence_core.mixture_bound_calls", sum(t.calls(x) for x in mixture), "count")
    add("divergence_core.mixture_bounds_s", t.inclusive_s(*mixture), "s")
    add("covering.build_s", t.inclusive_s("covering.build_full_grid_cover",
                                          "covering.build_simplex_grid_cover",
                                          "covering.build_typical_cover"), "s")
    add("covering.centers", c["covering.centers"], "count")
    add("covering.verify_cover_s", t.inclusive_s("covering.verify_cover"), "s")
    add("covering.distance_evals", c["covering.distance_evals"], "count", "computed")
    add("privacy_mechanisms.exponential_mechanism_s",
        t.inclusive_s("privacy_mechanisms.exponential_mechanism_over_types"), "s")
    add("privacy_mechanisms.distance_tensor_bytes",
        c["privacy_mechanisms.distance_tensor_bytes"], "bytes", "computed")
    add("privacy_mechanisms.verify_kl_stability_s",
        t.inclusive_s("privacy_mechanisms.verify_kl_stability"), "s")
    add("privacy_mechanisms.pair_evals", c["privacy_mechanisms.pair_evals"], "count",
        "computed")
    add("privacy_mechanisms.load_mechanism_csv_s",
        t.inclusive_s("privacy_mechanisms.load_mechanism_csv"), "s")
    for fn in ("load_experiment_config", "exact_mutual_information",
               "exact_expected_gen_error", "mc_expected_gen_error"):
        add(f"oracle_harness.{fn}_s", t.inclusive_s(f"oracle_harness.{fn}"), "s")
    add("oracle_harness.run_verification_s", t.self_s("oracle_harness.run_verification"),
        "s")
    add("oracle_harness.per_dataset_kl_s",
        t.inclusive_s("oracle_harness.per_dataset_kl_to_cover_mixture"), "s")
    for w in (1, 2):
        add(f"oracle_harness.mc_samples_per_s.w{w}",
            c[f"oracle_harness.mc_samples_per_s.w{w}"], "1/s")
    add("trace.untraced_s", untraced_s, "s")
    add("trace.traced_s", traced_s, "s")
    add("trace.overhead_ratio", traced_s / untraced_s, "ratio")
    for span in TOP_SPANS:
        add(f"{PEAK_METRIC_PREFIX.get(span, span)}.peak_alloc_mb",
            mem.peaks.get(span, 0) / 2**20, "MB")

    spans_table = [
        {"span": name, "calls": calls, "inclusive_s": inc, "self_s": own}
        for name, calls, inc, own in t.by_self_time()
    ]
    details = {
        "dominant_self_span": spans_table[0]["span"] if spans_table else None,
        "spans": spans_table,
        "memory_pass_ops": [op.kind for op in ops if op.memory_pass],
        "peak_alloc_bytes": mem.peaks,
    }
    correct = not checker.failures
    return (ops, m, checker.attempted, checker.failed, correct, checker.failures,
            details)


# ---------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=["certify", "audit", "simulate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "genbound", "cli.py")):
        print(f"error: no genbound package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.trace:
            result = measure_layers(args.workload, args.seed, work)
        else:
            result = measure_end_to_end(args.workload, args.seed, args.seconds, work)
        ops, metrics, attempted, failed, correct, failures, details = result
        prov = provenance(args.workload, args.seed, args.trace, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "provenance": prov,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {name: {"value": v, "unit": u, "samples": k, "source": src}
                    for name, (v, u, k, src) in metrics.items()},
        "details": details,
    }
    path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for failure in failures:
        print(f"FAILED {failure}")
    if args.trace:
        print(f"dominant self-time spans ({args.workload}):")
        for row in details["spans"][:5]:
            print(f"  {row['span']:<52} self {row['self_s']:9.4f} s  "
                  f"calls {row['calls']}")
    for name, (value, unit, samples, src) in metrics.items():
        print(f"{name:<58} {value:>16.6g} {unit:<6} n={samples} {src}")
    if not args.trace:
        # failed_ratio reads 0 when all is well, so the result line
        # carries its complement ok_ratio instead
        print(f"{'failed_ratio':<58} {details['failed_ratio']:>16.6g} ratio  "
              f"n={attempted} measured")
    print(f"result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u, _, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
