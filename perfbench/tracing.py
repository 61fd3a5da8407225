"""Spans around calls into remag's public functions, recorded from outside.

`install` wraps every public function of the traced layers and rebinds it
at every lookup site in the loaded `remag` modules, because `cli` and
`noise` bind names with `from ... import`.  Spans are kept in memory and
written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import statistics
import sys
import time

LAYERS = ("config", "cli", "dynamics", "models", "noise", "spectral",
          "sensing")
# su2_step is the per-step kernel primitive: a span per grid step would
# add its own cost to the kernel being measured, so it stays inside its
# caller's self time.  The cli layer is traced at its entry point only.
SKIP = {"dynamics.su2_step"}
CLI_ENTRY = "main"


class Tracer:
    """In-memory span recorder: (name, start, end, parent index, op id)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = -1
        self.mc_calls: list = []      # (trials, n_steps, chunk, dt, spec)
        self.samples = 0              # noiseless + noisy propagate samples

    def wrap(self, name: str, fn):
        observe = {"noise.monte_carlo": self._observe_mc,
                   "dynamics.propagate": self._observe_propagate}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(fn, args, kwargs, result)
            return result
        return traced

    def _observe_mc(self, fn, args, kwargs, result):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        seq = bound.arguments["seq"]
        dt = result.meta["dt"]
        n_steps = int(round(seq.total_duration / dt))
        self.mc_calls.append((result.trials, n_steps,
                              bound.arguments["chunk"], dt,
                              bound.arguments["spec"]))

    def _observe_propagate(self, fn, args, kwargs, result):
        self.samples += result.values.size

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")


def install(tracer: Tracer) -> list:
    """Wrap the traced layers' public functions; returns what to restore."""
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"remag.{layer}"]
        for name, fn in vars(mod).items():
            full = f"{layer}.{name}"
            if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                    or name.startswith("_") or full in SKIP
                    or (layer == "cli" and name != CLI_ENTRY)):
                continue
            wrapped[id(fn)] = (fn, tracer.wrap(full, fn))
    restore = []
    for modname, mod in list(sys.modules.items()):
        if modname != "remag" and not modname.startswith("remag."):
            continue
        for name, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                restore.append((mod, name, value))
                setattr(mod, name, hit[1])
    return restore


def uninstall(restore: list) -> None:
    for mod, name, value in restore:
        setattr(mod, name, value)


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function.

    The median over `repeats` of the traced minus the plain time of
    `calls` calls, per call.  Times the span count, it estimates what the
    tracer adds to a traced run.
    """
    def noop():
        return None

    gaps = []
    for _ in range(repeats):
        traced = Tracer().wrap("noop", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        mid = time.perf_counter()
        for _ in range(calls):
            traced()
        end = time.perf_counter()
        gaps.append((end - mid - (mid - start)) / calls)
    return statistics.median(gaps)


def self_times(spans: list) -> list:
    """Each span's duration minus the part its direct children cover."""
    children: dict = {}
    for idx, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo = max(c_start, reach)
            if c_end > lo:
                covered += c_end - lo
                reach = c_end
        out.append(end - start - covered)
    return out
