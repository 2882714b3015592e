"""Spans around the package's public functions, recorded from outside.

Tracer.install wraps every function in each layer module's __all__ and
rebinds the wrapper at every genbound.* import site, so calls through
`from .x import f` and calls inside the defining module are both seen.
It also wraps each CLI subcommand's callback as a `cli.<command>` span.
Spans nest along the real call stack, which gives each span name its
calls, inclusive time and self time (inclusive minus child spans).

Spans are aggregated per name in memory; with memory=True the tracer
instead records a tracemalloc peak for each top-level span (the CLI
command and the functions it calls directly).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
import tracemalloc
from collections import Counter

LAYERS = (
    "types_core",
    "divergence_core",
    "covering",
    "privacy_mechanisms",
    "bounds_catalog",
    "oracle_harness",
    "cli",
)


def _centers(counts, dur, args, kwargs, result):
    counts["covering.centers"] += len(result.centers)


def _distance_evals(counts, dur, args, kwargs, result):
    cover = args[0] if args else kwargs["cover"]
    counts["covering.distance_evals"] += result.checked_vectors * len(cover.centers)


def _distance_tensor(counts, dur, args, kwargs, result):
    t, m = result.kernel.shape[0], result.alphabet_size
    key = "privacy_mechanisms.distance_tensor_bytes"
    counts[key] = max(counts.get(key, 0), t * t * m * 8)


def _pair_evals(counts, dur, args, kwargs, result):
    mech = args[0] if args else kwargs["mech"]
    t = mech.kernel.shape[0]
    counts["privacy_mechanisms.pair_evals"] += t * (t - 1)


def _mc_rate(counts, dur, args, kwargs, result):
    workers = kwargs.get("workers", args[1] if len(args) > 1 else 1)
    counts[f"oracle_harness.mc_samples_per_s.w{workers}"] = result.samples / dur


# Work counts read from a span's arguments and return value.
COUNT_HOOKS = {
    "covering.build_full_grid_cover": _centers,
    "covering.build_simplex_grid_cover": _centers,
    "covering.build_typical_cover": _centers,
    "covering.verify_cover": _distance_evals,
    "privacy_mechanisms.exponential_mechanism_over_types": _distance_tensor,
    "privacy_mechanisms.verify_kl_stability": _pair_evals,
    "oracle_harness.mc_expected_gen_error": _mc_rate,
}


class Tracer:
    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counts = Counter()
        self.peaks: dict[str, int] = {}  # top-level span -> peak bytes
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> list:
        stack = self._stack()
        # frame: name, start, child seconds, depth, traced bytes at start, peak
        frame = [name, 0.0, 0.0, len(stack), 0, 0]
        if self.memory and frame[3] <= 1:
            current, peak = tracemalloc.get_traced_memory()
            if frame[3] == 1:
                stack[0][5] = max(stack[0][5], peak)
            tracemalloc.reset_peak()
            frame[4] = current
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> float:
        dur = time.perf_counter() - frame[1]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][2] += dur
        if self.memory and frame[3] <= 1:
            peak = max(frame[5], tracemalloc.get_traced_memory()[1])
            if frame[3] == 1:
                stack[0][5] = max(stack[0][5], peak)
            name = frame[0]
            self.peaks[name] = max(self.peaks.get(name, 0), peak - frame[4])
        with self._lock:
            rec = self.stats.setdefault(frame[0], [0, 0.0, 0.0])
            rec[1] += dur
            rec[2] += dur - frame[2]
        return dur

    def _count_call(self, name: str) -> None:
        with self._lock:
            self.stats.setdefault(name, [0, 0.0, 0.0])[0] += 1

    def _wrap(self, name: str, fn):
        tracer = self
        hook = COUNT_HOOKS.get(name)

        if inspect.isgeneratorfunction(fn):
            # time spent inside the generator, resumption by resumption
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                tracer._count_call(name)
                it = fn(*args, **kwargs)
                key = f"{name}.yielded"
                while True:
                    frame = tracer._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame)
                    tracer.counts[key] += 1
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._count_call(name)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._exit(frame)
            if hook is not None:
                hook(tracer.counts, dur, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------ patching

    def _rebind(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "genbound" and not mod_name.startswith("genbound."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"genbound.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn):
                    self._rebind(fn, self._wrap(f"{layer}.{attr}", fn))
        cli = importlib.import_module("genbound.cli")
        for cmd_name, command in cli.main.commands.items():
            name = "cli." + cmd_name.replace("-", "_")
            self._patched.append((command, "callback", command.callback))
            command.callback = self._wrap(name, command.callback)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    # ------------------------------------------------------- results

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def inclusive_s(self, *names: str) -> float:
        return sum(self.stats.get(n, [0, 0.0, 0.0])[1] for n in names)

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def by_self_time(self) -> list[tuple[str, int, float, float]]:
        rows = [(name, c, inc, own) for name, (c, inc, own) in self.stats.items()]
        return sorted(rows, key=lambda r: r[3], reverse=True)
