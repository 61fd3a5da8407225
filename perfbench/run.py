"""Benchmark for remag: one seeded workload per run, measured end to end.

Run from the root of a remag checkout:

    python3 perfbench/run.py --workload analysis-cli --seed 1 --seconds 15 --trace 0

The process is the load generator: a closed loop with one client that calls
`remag.cli.main([...])` in-process, one invocation at a time, with program
defaults (one thread, no pool).  It runs whole passes over the workload's
ops until --seconds have elapsed (at least two passes, so every op is rerun
and its artifacts compared).  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it repeats the same passes with spans around the
public functions of each layer and reports the per-layer metrics.

The second-to-last stdout line is a JSON report (environment, the metrics
under the names the ROADMAP uses, failures); the last line is the result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# One client on a 2-CPU machine: the BLAS pool gives the refit no
# wall-clock gain at these matrix sizes, doubles its CPU time and widens
# the run-to-run spread, so it is pinned to one thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
SETUP_PROBES = 2          # fresh processes timed besides this one
MIN_PASSES = 2
SLICE_EVERY_S = 0.25      # busy seconds between two host-speed readings
SLICES_PER_S = 0.5        # slices per busy second since the last reading
MAX_SLICES = 9            # slices in one reading
try:
    # a CLI invocation normally starts with a fresh heap; trimming between
    # ops gives each in-process op the same, so that peak RSS does not
    # depend on where earlier ops left their freed chunks
    malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
except (OSError, AttributeError):
    def malloc_trim(pad: int) -> int:
        return 0
WARMUP_MC = """[sequence]
theta_pi = 1.0
omega_mhz = 20.0
n_cycles = 2
[noise]
enabled = true
axis = z
kind = ou
sigma_mhz = 1.0
tau_c_us = 0.2
"""


def import_remag() -> float:
    """Import `remag.cli` from the checkout's src/; returns seconds taken."""
    if not (SRC / "remag" / "__init__.py").is_file():
        sys.exit(f"perfbench: no remag package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import remag.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    import remag
    if Path(remag.__file__).resolve().parent != SRC / "remag":
        sys.exit(f"perfbench: imported remag from {remag.__file__}, "
                 f"not from {SRC}")
    return elapsed


def warm_up(work: Path) -> float:
    """One refit op and one tiny Monte Carlo ensemble; returns seconds."""
    from remag import cli
    cfg = work / "warmup.ini"
    cfg.write_text(WARMUP_MC, encoding="utf-8")
    start = time.perf_counter()
    rc = (cli.main(["figure", "2b", "--seed", "1",
                    "--out", str(work / "warmup-2b")])
          or cli.main(["noise", "--config", str(cfg), "--trials", "8",
                       "--out", str(work / "warmup-mc")]))
    elapsed = time.perf_counter() - start
    if rc:
        sys.exit(f"perfbench: warm-up failed with exit code {rc}")
    return elapsed


def setup_probe(work: Path) -> tuple[float, float, float]:
    """Time import, warm-up and the host-speed slice in a fresh interpreter."""
    work.mkdir(parents=True)
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--setup-probe", str(work)],
                          capture_output=True, text=True, timeout=120,
                          check=False)
    if proc.returncode != 0:
        sys.exit(f"perfbench: setup probe failed: {proc.stderr.strip()}")
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    return got["import_s"], got["warmup_s"], got["slice_s"]


class Runner:
    """Executes ops in whole passes and keeps each execution's record."""

    def __init__(self, ops: list, work: Path, wl):
        self.ops = ops
        self.wl = wl
        self.records: list = []       # (op index, seconds, Outcome)
        self.slices: list = []        # (len(records) when taken, seconds)
        self.digests: dict = {}
        self.tracer = None
        self.argv = []
        for i, op in enumerate(ops):
            argv = list(op.argv)
            if op.config is not None:
                path = work / f"op{i}.ini"
                path.write_text(op.config, encoding="utf-8")
                argv += ["--config", str(path)]
            self.argv.append(argv + ["--out", str(work / f"op{i}")])

    def execute(self, i: int) -> None:
        from remag import cli
        out = self.argv[i][-1]
        shutil.rmtree(out, ignore_errors=True)   # so a missing artifact shows
        malloc_trim(0)
        if self.tracer is not None:
            self.tracer.op = len(self.records)
        start = time.perf_counter()
        rc = cli.main(list(self.argv[i]))
        elapsed = time.perf_counter() - start
        op = self.ops[i]
        outcome = self.wl.check_outputs(op, out, rc)
        if outcome.ok and self.digests.setdefault(op.key, outcome.digest) \
                != outcome.digest:
            outcome = self.wl.Outcome(False, "artifacts differ from an "
                                      "earlier run of the same op")
        self.records.append((i, elapsed, outcome))

    def take_slice(self, busy: float | None) -> None:
        """Record one host-speed reading: the median of 1 to MAX_SLICES slices.

        A long stretch of ops gets more slices, so that one slice caught in
        a transient cannot scale a long op on its own; `busy=None` takes
        the most.
        """
        import hostspeed
        n = MAX_SLICES if busy is None else min(MAX_SLICES,
                                                1 + int(busy * SLICES_PER_S))
        self.slices.append((len(self.records), hostspeed.median_slice_s(n)))

    def run(self, seconds: float | None = None, passes: int | None = None,
            between=None) -> int:
        """Whole passes until `passes` or `seconds` (at least MIN_PASSES).

        A host-speed reading is taken before the first op, after every op
        that ends SLICE_EVERY_S of busy time after the last reading, and
        after the last op.  `between(elapsed)` is called after every op.
        Neither counts towards `seconds`.
        """
        self.take_slice(None)
        start = time.perf_counter()
        paused = 0.0
        busy_at_slice = 0.0
        done = 0
        while True:
            for i in range(len(self.ops)):
                self.execute(i)
                now = time.perf_counter()
                busy = now - start - paused - busy_at_slice
                if busy >= SLICE_EVERY_S:
                    self.take_slice(busy)
                    busy_at_slice = now - start - paused
                if between is not None:
                    between(now - start - paused)
                paused += time.perf_counter() - now
            done += 1
            if passes is not None:
                if done >= passes:
                    break
            elif (done >= MIN_PASSES
                  and time.perf_counter() - start - paused >= seconds):
                break
        if self.slices[-1][0] != len(self.records):
            self.take_slice(time.perf_counter() - start - paused
                            - busy_at_slice)
        return done

    def scaled_times(self, end: int) -> list:
        """Op times of records[:end] at the reference host speed.

        Each op is scaled by the mean of the two readings around it.
        """
        import hostspeed
        out = []
        k = 0
        for j in range(end):
            while self.slices[k + 1][0] <= j:
                k += 1
            slice_s = (self.slices[k][1] + self.slices[k + 1][1]) / 2
            out.append(hostspeed.scale(self.records[j][1], slice_s))
        return out


def environment(ops: list) -> dict:
    """Versions, processor and caches, and the computed path working sets."""
    import inspect
    import numpy
    import scipy
    import workloads
    from remag.noise import monte_carlo

    def read(path):
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        except OSError:
            return ""

    model = next((ln.split(":", 1)[1].strip()
                  for ln in read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), "unknown")
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        level, size = read(base + "level").strip(), read(base + "size").strip()
        if level in ("2", "3") and size.endswith("K"):
            caches[f"l{level}_bytes"] = int(size[:-1]) * 1024
    chunk = inspect.signature(monte_carlo).parameters["chunk"].default
    working = {}
    for op in ops:
        if op.trials:
            bytes_ = workloads.path_bytes(op.trials, op.n_steps, chunk)
            working[op.key] = {
                "path_bytes_computed": bytes_,
                "share_of_l3": bytes_ / caches["l3_bytes"]
                if "l3_bytes" in caches else None}
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": model,
            **caches, "monte_carlo_default_chunk": chunk,
            "path_working_set_computed": working}


def end_to_end(runner: Runner, end: int, setup: list) -> tuple[dict, dict]:
    """Gated metrics and the report-only figures of records[:end].

    Times are scaled to the reference host speed (hostspeed.py); the
    report keeps the raw figures beside them.
    """
    import hostspeed
    ops = runner.ops
    records = runner.records[:end]
    raw = [t for _, t, _ in records]
    times = runner.scaled_times(end)
    busy = sum(times)
    noise = any(op.trial_steps for op in ops)
    work = (sum(ops[i].trial_steps for i, _, _ in records) if noise
            else len(times))
    matched = sum(o.lines[0] for _, _, o in records)
    planted = sum(o.lines[1] for _, _, o in records)
    spurious = sum(o.lines[2] for _, _, o in records)
    failed = sum(not o.ok for _, _, o in records)
    metrics = {
        "setup_s": (statistics.median(hostspeed.scale(i + w, s)
                                      for i, w, s in setup), "s"),
        "work_per_s": (work / busy, "1/s"),
        "op_p95_s": (statistics.quantiles(times, n=20,
                                          method="inclusive")[18], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    # op_p50_s is reported but not gated: on this host its spread between
    # runs reached 31% of its median, above the largest bound allowed
    report = {
        "op_p50_s": statistics.median(times),
        "raw": {"setup_s": statistics.median(i + w for i, w, _ in setup),
                "work_per_s": work / sum(raw),
                "op_p50_s": statistics.median(raw),
                "op_p95_s": statistics.quantiles(raw, n=20,
                                                 method="inclusive")[18]},
        "host_slice_s": {"median": statistics.median(
                             t for n, t in runner.slices if n <= end),
                         "count": sum(n <= end for n, _ in runner.slices),
                         "reference_s": hostspeed.REFERENCE_S},
        "ops_per_s": len(times) / busy,
        "trial_steps_per_s": work / busy if noise else None,
        "ops_failed_ratio": failed / len(times),
        "lines_recovered_ratio": (matched / (planted + spurious)
                                  if planted else None),
        "lines": {"matched": matched, "planted": planted,
                  "spurious": spurious},
        "op_samples": len(times),
    }
    return metrics, report


def per_layer(runner: Runner, tracer, first: int, setup: list) -> dict:
    """Per-layer metrics from the traced passes (records[first:])."""
    import tracing
    import workloads
    from remag.noise import sample_path

    selfs = tracing.self_times(tracer.spans)
    calls: dict = {}
    self_s: dict = {}
    for (name, *_), s in zip(tracer.spans, selfs):
        for key in (name, name.split(".")[0]):
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + s

    # side-time sample_path on each ensemble's own spec and grid
    trial_steps = sum(t * n for t, n, *_ in tracer.mc_calls)
    path_s = 0.0
    seen = {}
    for trials, n_steps, _, dt, spec in tracer.mc_calls:
        key = (spec, n_steps, dt)
        if key not in seen:
            reps = max(1, 2_000_000 // n_steps)
            start = time.perf_counter()
            for i in range(reps):
                sample_path(spec, n_steps * dt, dt, trial_index=i)
            seen[key] = (time.perf_counter() - start) / (reps * n_steps)
        path_s += seen[key] * trials * n_steps

    def per(total, count):
        return total / count * 1e9 if count else 0.0

    mc_self = self_s.get("noise.monte_carlo", 0.0)
    m = {
        "noise.monte_carlo.calls": (calls.get("noise.monte_carlo", 0), "count"),
        "noise.monte_carlo.self_s": (mc_self, "s"),
        "noise.monte_carlo.ns_per_trial_step": (per(mc_self, trial_steps),
                                                "ns"),
        "noise.trial_steps": (trial_steps, "count"),
        "noise.sample_path.ns_per_sample": (per(path_s, trial_steps), "ns"),
        "noise.kernel.ns_per_trial_step_derived": (
            per(mc_self - path_s, trial_steps), "ns"),
        "noise.path_bytes_computed": (max(
            (workloads.path_bytes(t, n, c)
             for t, n, c, *_ in tracer.mc_calls), default=0), "B"),
        "dynamics.propagate.calls": (calls.get("dynamics.propagate", 0),
                                     "count"),
        "dynamics.propagate.self_s": (self_s.get("dynamics.propagate", 0.0),
                                      "s"),
        "dynamics.propagate.ns_per_sample": (
            per(self_s.get("dynamics.propagate", 0.0), tracer.samples), "ns"),
        "spectral.calls": (calls.get("spectral", 0), "count"),
    }
    for fn in ("periodogram", "peak_significance", "harmonic_filter",
               "extract_detunings"):
        m[f"spectral.{fn}.self_s"] = (self_s.get(f"spectral.{fn}", 0.0), "s")
    for key in ("sensing", "models", "config.parse_config", "cli.main"):
        m[f"{key}.calls"] = (calls.get(key, 0), "count")
        m[f"{key}.self_s"] = (self_s.get(key, 0.0), "s")
    m["cli.bytes_written"] = (sum(o.bytes_written
                                  for _, _, o in runner.records[first:]),
                              "B")
    m["setup.import_s"] = (statistics.median(i for i, _, _ in setup), "s")
    m["setup.warmup_s"] = (statistics.median(w for _, w, _ in setup), "s")
    m["trace.overhead_s"] = (len(tracer.spans) * tracing.span_cost(), "s")
    return m


def verify_ou(runner: Runner, wl) -> None:
    """Recompute two trials of each OU case outside the timed region."""
    for i, op in enumerate(runner.ops):
        if not op.ou_case:
            continue
        gap = wl.recompute_ou_trials(op.ou_case)
        if not gap <= 1e-9:
            bad = wl.Outcome(False, f"independent recompute off by {gap:.3g}")
            runner.records = [(j, t, bad if j == i else o)
                              for j, t, o in runner.records]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help="noise-ou-large, noise-static-small or "
                             "analysis-cli")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        import_s = import_remag()
        warmup_s = warm_up(Path(args.setup_probe))
        import hostspeed
        print(json.dumps({"import_s": import_s, "warmup_s": warmup_s,
                          "slice_s": hostspeed.median_slice_s()}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    work = OUT / f"run-{os.getpid()}"
    try:
        import_s = import_remag()
        import workloads as wl     # after the timed import: it loads numpy
        if args.workload not in wl.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}")
        import hostspeed
        work.mkdir(parents=True)
        setup = [(import_s, warm_up(work), hostspeed.median_slice_s())]
        # the probes are spread over the timed passes, so that set-up is
        # sampled across the run and not only in its first seconds
        due = [args.seconds * (k + 0.5) / SETUP_PROBES
               for k in range(SETUP_PROBES)]

        def probe(elapsed: float) -> None:
            if due and elapsed >= due[0]:
                due.pop(0)
                setup.append(setup_probe(work / f"probe{len(setup)}"))

        ops = wl.WORKLOADS[args.workload](random.Random(args.seed))
        runner = Runner(ops, work, wl)
        passes = runner.run(seconds=args.seconds, between=probe)
        while due:
            probe(math.inf)
        untraced = len(runner.records)
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
            runner.tracer = tracer
            try:
                runner.run(passes=passes)
            finally:
                tracing.uninstall(restore)
                runner.tracer = None
        verify_ou(runner, wl)

        e2e, report = end_to_end(runner, untraced, setup)
        failed = sum(not o.ok for _, _, o in runner.records)
        reasons = sorted({f"{ops[i].key}: {o.reason}"
                          for i, _, o in runner.records if not o.ok})
        if args.trace:
            metrics = per_layer(runner, tracer, untraced, setup)
            spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            tracer.write(str(spans_file))
            report["spans_file"] = str(spans_file.relative_to(ROOT))
        else:
            metrics = e2e
        report.update(workload=args.workload, seed=args.seed,
                      passes=passes, failures=reasons[:20],
                      environment=environment(ops),
                      end_to_end={k: v for k, (v, _) in e2e.items()})
        print(json.dumps({"report": report}))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(runner.records),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
