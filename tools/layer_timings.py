"""Per-layer timings of the Monte Carlo engine and the analysis chain.

Times the layers of `remag.noise.monte_carlo` apart, on one trial chunk
of each `noise-ou-large` case (OU dephasing, rotary echoes, on the grid
`monte_carlo` picks) and on three `noise-static-small`-style cases
(static drive noise at 19 MHz, 64 trials): a pi rotary echo of 130 half
echoes, 130 steps, one per half echo, or 13,000 on a checkout that keeps
static noise on the drive grid of T_Rabi/200; the benchmark's longest op
at seed 1, a 0.507 pi echo of 189 cycles, 378 steps; and that pi echo
read at 64 record times drawn at seed 1 from its drive grid (`random`),
whose intervals between records all differ, so that no interval reuses
another's product and the kernel steps all 13,000 steps:

- `setup_us_per_trial`: starting the chunk's per-trial streams, timed as
  a whole one-step static draw of the chunk (one word per trial included);
  `warm` in a thread that has drawn before, `cold` in a new thread;
- `noise_ns_per_value`: a whole `_noise_blocks` draw of the case with a
  warm thread, set-up included, per value drawn (one per trial-step for
  OU noise, one per trial for static noise);
- `kernel_ns_per_trial_step`: `_propagate_batch` on blocks drawn
  beforehand, and on the static cases the same time per record
  (`kernel_us_per_record`);
- `grid_step_us`: one `_noise_grid_step` call on the case's record
  times (by default every full echo), timed over batches of 20 calls.

`parse_config_us`: one `config.parse_config` call, the median over
`--repeats` passes through the configs of `noise-static-small` and
`analysis-cli` at seed 1 (206 configs).

Two more figures rest the size threshold of `monte_carlo`'s worker
processes (`noise._FORK_MIN_TRIAL_STEPS`) on a measurement:

- `fork_reap_ms`: forking this process, once the cases are timed, and
  reaping the child, which leaves at once;
- `monte_carlo_s` of each case: the whole `monte_carlo` call at the
  case's trial count, `in_process` and `forked` (the threshold set to
  keep every chunk in the calling process, then to fork for any), beside
  `n_steps`, the step count `monte_carlo` picks, and `chunk_trial_steps`,
  the figure the threshold is compared with.  A run of one chunk, as the
  static case is, never forks, so its `forked` is null.

Two more figures on each `noise-ou-large` case only:

- `model_ms`: the model call that `noise.mc_vs_model` makes beside the
  ensemble, `noise.exact_mean`, on the ensemble's record times;
- `mc_vs_model_s`: the whole `noise.mc_vs_model` call, `in_process` and
  `forked` as for `monte_carlo_s`; forked, its model runs while the
  worker exits.

The crossover the threshold rests on (`crossover`): the whole
`monte_carlo` call on the 0.75 pi OU-z echo of `noise-ou-large` at 3, 6,
12 and 24 cycles (4 grid steps each), 4,096 trials in 2 chunks of 2,048,
so about 25k, 50k, 100k and 200k trial-steps per chunk, `in_process` and
`forked`, the two timed in turn; `crossover_trial_steps` is the least of
those sizes from which on the forked median is the lower at every size,
and null if it is not at the largest.  `worker_peak_rss_mb`: the peak RSS of the largest worker
forked while the cases and the crossover were timed (`RUSAGE_CHILDREN`;
perfbench's `peak_rss_mb` is the calling process's alone), beside this
process's own (`self_peak_rss_mb`) at that point.

Two layers of the analysis chain, on the pi echoes at 17 MHz of
`remag spectrum` and figures 1c, 2a and 2b (`analysis`):

- `propagate_ms`: one noiseless `dynamics.propagate` call, at the sizes
  of the spectrum ops (100 and 510 segments on the 10 ns grid) and of
  figure 1c (102 segments on its 2 ns grid);
- `refit`: one `spectral._refine_pairs` call, the median
  (`ms_per_refit`) and the least (`best_ms_per_refit`) of `--repeats`,
  the cases timed in turn, and the residual and Jacobian evaluations its
  `_levenberg_marquardt` call makes (`evaluations_per_refit`,
  `jacobians_per_refit`), on the figure 2a and 2b triplet traces with
  shot noise at seed 3 (511 and 1,531 samples, 3 pairs each);
  `point_us` splits one refit point, its residual and then its
  Jacobian, into the `np.cos` and `np.sin` calls that fill the basis
  (`trig`), the `np.linalg.svd` call (`svd`) and the rest;
- `analysis_cli_refits`: the 56 refits of an `analysis-cli` pass at seed
  1, those of its 48 `remag spectrum` ops (a fixed design over trace
  length and line splitting) and of its 8 figure 2a and 2b ops, each op
  run once through `remag.cli.main`: `total_ms`, all 56 refits in turn
  from the start points the ops handed `_refine_pairs`; their residual
  evaluations in all, per refit, median and max, over the spectrum ops
  alone (`spectrum_evaluations`: 305, as when the refit called scipy's
  MINPACK `least_squares`; 307 while the solver evaluated a rejected
  point again, and 1,070 before `extract_detunings` dropped
  window-leakage pairs) and `by_op` for `spectrum-15` and `spectrum-10`,
  the two refits that take the most.

Start-up, in fresh interpreters (`cold_start`):

- `wall_s`: the median wall time of `--repeats` new processes that import
  `remag.cli` and, but for the bare import, run one command through
  `remag.cli.main` (`calcium`, `figure 1b`, `figure 2b`, `spectrum`,
  `figure 4a`, and `noise` on the OU-z pi echo of 8 trials that
  perfbench's warm-up runs, `WARMUP_MC`), interpreter start and artifact
  writes included; `scipy`: the public scipy submodules such a process
  had loaded when it finished;
- `sample_path_ns_per_sample`: one `noise.sample_path` call in this
  process, one OU trial of 100,000 steps.

    python tools/layer_timings.py                    # this checkout
    python tools/layer_timings.py --src OTHER/src    # another checkout

It calls private API (`_noise_blocks`, `_default_record_times`,
`_drive_grid`, `_noise_grid_step`, `_propagate_batch`, `_refine_pairs`,
`_levenberg_marquardt`), so `--src` takes only checkouts whose
signatures match this one's: `_noise_blocks(spec, dt, ...)` reading
`spec.sigma`, `_default_record_times(seq, wave, spec)`,
`_drive_grid(wave, spec)`,
`DriveWaveform.segment`, and `_refine_pairs(trace, f_c, splittings)`.
The evaluation counts and `point_us` are read by wrapping
`spectral._levenberg_marquardt(residual, jac, x0)`, which the refit
calls by its module name; a checkout whose refit calls scipy's
`least_squares` instead reports them as null, and its times only.  A
checkout without worker processes reports `forked` as null.

Prints one JSON object; each figure is the median of `--repeats` runs
(BLAS pinned to one thread).  A run takes about twenty-five seconds on
two cores at the default `--repeats`, and about 45 s on a checkout whose
import loads every scipy submodule; a forked figure depends on whether
the host leaves the second core free.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))
from run import WARMUP_MC, malloc_trim  # noqa: E402

# theta/pi, omega (MHz), cycles, trials, record times drawn at random
STATIC_CASES = ((1.0, 19.0, 65, 64, False), (0.507, 19.0, 189, 64, False),
                (1.0, 19.0, 65, 64, True))
RANDOM_RECORDS = 64     # record times of a `random` case, 0 among them


def _random_records(noise, dynamics, seq, spec) -> np.ndarray:
    """0 and 63 distinct times drawn at seed 1 from the drive grid of
    ``seq``."""
    wave = dynamics.build_waveform(seq, 0.0)
    n_drive = int(round(wave.total_duration / noise._drive_grid(wave, spec)))
    picks = np.random.default_rng(1).choice(
        np.arange(1, n_drive + 1), RANDOM_RECORDS - 1, replace=False)
    return wave.total_duration / n_drive * np.concatenate(([0],
                                                           np.sort(picks)))


def _cases(noise, dynamics):
    """(label, sequence, detuning, spec, trials, record times or None for
    the default) of each timed case."""
    import workloads as w

    mhz = 2e6 * math.pi
    out = []
    for theta_pi, n_cycles in w.OU_CASES:
        seq = dynamics.PulseSequence.rotary_echo(
            theta_pi * math.pi, w.OU_OMEGA_MHZ * mhz, n_cycles)
        spec = noise.NoiseSpec(axis="z", kind="ou", sigma=w.OU_SIGMA_MHZ * mhz,
                               tau_c=w.OU_TAU_C_US * 1e-6, seed=1)
        out.append((f"ou-{theta_pi}pi-x{n_cycles}", seq,
                    w.OU_DETUNING_MHZ * mhz, spec, w.OU_TRIALS, None))
    for theta_pi, omega_mhz, n_cycles, trials, drawn in STATIC_CASES:
        seq = dynamics.PulseSequence.rotary_echo(theta_pi * math.pi,
                                                 omega_mhz * mhz, n_cycles)
        spec = noise.NoiseSpec(axis="x", kind="static",
                               sigma=0.05 * seq.omega, seed=1)
        record = _random_records(noise, dynamics, seq, spec) if drawn else None
        out.append((f"static-{theta_pi}pi-x{n_cycles}"
                    + ("-random" if drawn else ""), seq, 0.0, spec, trials,
                    record))
    return out


def _median_s(run, repeats: int) -> float:
    """Median wall time of ``run()``, which returns its own timing."""
    return statistics.median(run() for _ in range(repeats))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _in_new_thread(fn) -> float:
    box = []
    worker = threading.Thread(target=lambda: box.append(_timed(fn)))
    worker.start()
    worker.join(timeout=60.0)
    if worker.is_alive() or not box:
        raise RuntimeError("timed draw did not finish in a new thread")
    return box[0]


GRID_CALLS = 20         # _noise_grid_step calls per timed batch


def time_case(noise, dynamics, seq, delta, spec, trials, record_times,
              repeats) -> dict:
    """The layer figures of one case, on its first trial chunk."""
    chunk = inspect.signature(noise.monte_carlo).parameters["chunk"].default
    count = min(trials, chunk)
    wave = dynamics.build_waveform(seq, delta)
    if record_times is None:
        record_times = noise._default_record_times(seq, wave, spec)
    dt = noise._noise_grid_step(wave, spec, record_times)
    grid_s = _median_s(lambda: _timed(lambda: [
        noise._noise_grid_step(wave, spec, record_times)
        for _ in range(GRID_CALLS)]), repeats) / GRID_CALLS
    n_steps = int(round(wave.total_duration / dt))
    record_idx = np.unique(np.rint(record_times / dt).astype(int))
    n_sub = int(round(wave.segment / dt))
    amp_steps = np.repeat(wave.amplitudes, n_sub)

    def draw(n, block):
        return noise._noise_blocks(spec, dt, 0, count, n, block)

    one_word = noise.NoiseSpec(axis="x", kind="static", sigma=1.0, seed=1)

    def setup():
        for _ in noise._noise_blocks(one_word, dt, 0, count, 1, 1):
            pass

    def whole_draw():
        for _ in draw(n_steps, noise._BLOCK_STEPS):
            pass

    setup()
    warm = _median_s(lambda: _timed(setup), repeats)
    cold = _median_s(lambda: _in_new_thread(setup), repeats)
    values = count * (n_steps if spec.kind == "ou" else 1)
    noise_s = _median_s(lambda: _timed(whole_draw), repeats)
    blocks = list(draw(n_steps, noise._BLOCK_STEPS))
    kernel_s = _median_s(lambda: _timed(lambda: noise._propagate_batch(
        amp_steps, delta, spec.axis, iter(blocks), count, dt, record_idx)),
        repeats)
    report = {"trials": count, "n_steps": n_steps,
              "records": record_idx.size,
              "setup_us_per_trial": {"warm": warm / count * 1e6,
                                     "cold": cold / count * 1e6},
              "noise_ns_per_value": noise_s / values * 1e9,
              "kernel_ns_per_trial_step": kernel_s / (count * n_steps) * 1e9,
              "grid_step_us": grid_s * 1e6}
    if spec.kind == "static":
        report["kernel_us_per_record"] = kernel_s / record_idx.size * 1e6
    return report


def time_forked(noise, call, n_chunks, repeats) -> dict:
    """Median s of ``call()``, in turn with every chunk in this process and
    with chunks forked whatever their size (`forked` null for one chunk,
    or on a checkout without workers); each call starts with the freed
    heap handed back, as perfbench's ops do."""
    times = {"in_process": [], "forked": []}
    sides = (("in_process", math.inf), ("forked", 0))
    default = getattr(noise, "_FORK_MIN_TRIAL_STEPS", None)
    if default is None or n_chunks < 2:
        sides = sides[:1]
    try:
        for _ in range(repeats):
            for label, threshold in sides:
                noise._FORK_MIN_TRIAL_STEPS = threshold
                malloc_trim(0)
                times[label].append(_timed(call))
    finally:
        noise._FORK_MIN_TRIAL_STEPS = default
    return {label: statistics.median(ts) if ts else None
            for label, ts in times.items()}


def time_monte_carlo(noise, seq, delta, spec, trials, record_times,
                     repeats) -> dict:
    """Whole `monte_carlo` calls, in process and forked (`time_forked`),
    beside the step count and the trial-steps per chunk."""
    chunk = inspect.signature(noise.monte_carlo).parameters["chunk"].default
    n_steps = noise.monte_carlo(seq, delta, spec, 1,
                                record_times=record_times).meta["n_steps"]
    return {"n_steps": n_steps,
            "chunk_trial_steps": min(trials, chunk) * n_steps,
            **time_forked(noise, lambda: noise.monte_carlo(
                seq, delta, spec, trials, record_times=record_times),
                math.ceil(trials / chunk), repeats)}


def time_mc_vs_model(noise, seq, delta, spec, trials, repeats) -> dict:
    """Whole `mc_vs_model` calls, in process and forked."""
    chunk = inspect.signature(noise.monte_carlo).parameters["chunk"].default
    return time_forked(noise, lambda: noise.mc_vs_model(seq, delta, spec,
                                                        trials),
                       math.ceil(trials / chunk), repeats)


CROSSOVER_CYCLES = (3, 6, 12, 24)   # of the 0.75 pi echo, 4 steps each


def time_crossover(noise, dynamics, repeats) -> dict:
    """`monte_carlo` on the 0.75 pi OU-z echo of `noise-ou-large` at each
    of `CROSSOVER_CYCLES`, in process and forked, and the least chunk size
    from which on the forked median is the lower at every size."""
    import workloads as w

    mhz = 2e6 * math.pi
    spec = noise.NoiseSpec(axis="z", kind="ou", sigma=w.OU_SIGMA_MHZ * mhz,
                           tau_c=w.OU_TAU_C_US * 1e-6, seed=1)
    sizes = {}
    for n_cycles in CROSSOVER_CYCLES:
        seq = dynamics.PulseSequence.rotary_echo(
            0.75 * math.pi, w.OU_OMEGA_MHZ * mhz, n_cycles)
        sizes[f"x{n_cycles}"] = time_monte_carlo(
            noise, seq, w.OU_DETUNING_MHZ * mhz, spec, w.OU_TRIALS, None,
            repeats)
    crossover = None
    if all(r["forked"] is not None for r in sizes.values()):
        for r in reversed(sizes.values()):
            if r["forked"] >= r["in_process"]:
                break
            crossover = r["chunk_trial_steps"]
    return {"sizes": sizes, "crossover_trial_steps": crossover}


ANALYSIS_OMEGA_MHZ = 17.0
ANALYSIS_LINE_MHZ = 0.17
PROPAGATE_CASES = (("spectrum-100seg-10ns", 50, 10e-9),
                   ("spectrum-510seg-10ns", 255, 10e-9),
                   ("fig1c-102seg-2ns", 51, 2e-9))  # (label, cycles, dt_max)
REFIT_CASES = (("fig2a", 0.17, 5e-6), ("fig2b", 0.064, 15e-6))  # b, t_total
REFIT_SEED = 3


def time_propagate(dynamics, n_cycles, dt_max, repeats) -> float:
    """Median ms of one noiseless `propagate` call on a pi echo."""
    mhz = 2e6 * math.pi
    seq = dynamics.PulseSequence.rotary_echo(
        math.pi, ANALYSIS_OMEGA_MHZ * mhz, n_cycles)
    wave = dynamics.build_waveform(seq, ANALYSIS_LINE_MHZ * mhz)
    return _median_s(lambda: _timed(
        lambda: dynamics.propagate(wave, dt_max=dt_max)), repeats) * 1e3


@contextlib.contextmanager
def _patched(owner, name, replacement):
    """``owner.name`` set to ``replacement`` for the block."""
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextlib.contextmanager
def _recorded_fits(spectral):
    """Appends to the yielded list one dict per `_levenberg_marquardt`
    call in the block: the residual, Jacobian and start point it was
    handed (`fun`, `jac`, `x0`), its result (`x`) and the residual and
    Jacobian evaluations it made.  Records nothing on a checkout whose
    refit has no such solver."""
    fits = []
    solve = getattr(spectral, "_levenberg_marquardt", None)
    if solve is None:
        yield fits
        return

    def recording(fun, jac, x0):
        fit = {"fun": fun, "jac": jac, "x0": np.array(x0, dtype=float),
               "evaluations": 0, "jacobians": 0}
        fits.append(fit)

        def fun_counted(x):
            fit["evaluations"] += 1
            return fun(x)

        def jac_counted(x):
            fit["jacobians"] += 1
            return jac(x)

        fit["x"] = solve(fun_counted, jac_counted, x0)
        return fit["x"]

    with _patched(spectral, "_levenberg_marquardt", recording):
        yield fits


def refit_start(cli, spectral, b_mhz, t_total) -> tuple:
    """The arguments `extract_detunings` hands `_refine_pairs` on a figure
    2 trace."""
    mhz = 2e6 * math.pi
    omega = ANALYSIS_OMEGA_MHZ * mhz
    trace = cli.triplet_trace(math.pi, omega, b_mhz * mhz, 2.14 * mhz,
                              t_total, dt_max=10e-9, shot_sigma=0.035,
                              seed=REFIT_SEED)
    pgram = spectral.periodogram(trace)
    peaks = spectral.peak_significance(pgram, max_peaks=6)
    refine, calls = spectral._refine_pairs, []
    with _patched(spectral, "_refine_pairs",
                  lambda *a: calls.append(a) or refine(*a)):
        spectral.extract_detunings(peaks, math.pi, omega,
                                   pair_tolerance_hz=2 * pgram.grid_spacing,
                                   trace=trace)
    [args] = calls
    return args


def time_refits(cli, spectral, repeats) -> dict:
    """`_refine_pairs` on each figure 2 trace, from the start point
    `extract_detunings` hands it: the median and the least ms of its
    `repeats` refits, the cases timed in turn so that a drift of the host
    falls on all alike; the residual and Jacobian evaluations of the
    refit; and one refit point split into its parts (`point_us`)."""
    starts = {label: refit_start(cli, spectral, b, t_total)
              for label, b, t_total in REFIT_CASES}
    times = {label: [] for label in starts}
    for _ in range(repeats):
        for label, args in starts.items():
            times[label].append(_timed(
                lambda: spectral._refine_pairs(*args)))
    report = {}
    for label, args in starts.items():
        with _recorded_fits(spectral) as fits:
            spectral._refine_pairs(*args)
        fit = fits[0] if fits else None
        report[label] = {
            "samples": args[0].values.size, "pairs": args[2].size,
            "ms_per_refit": statistics.median(times[label]) * 1e3,
            "best_ms_per_refit": min(times[label]) * 1e3,
            "evaluations_per_refit": fit and fit["evaluations"],
            "jacobians_per_refit": fit and fit["jacobians"],
            "point_us": fit and time_refit_point(fit, repeats)}
    return report


REFIT_POINTS = 20       # refit points per timed batch


def time_refit_point(fit: dict, repeats) -> dict:
    """Microseconds of one refit point, its residual and then its Jacobian
    (those that `fit` recorded, from its start point), split into the
    `np.cos`/`np.sin` calls that fill the basis (`trig`), the
    `np.linalg.svd` call (`svd`) and the rest; the median of `repeats`
    batches of `REFIT_POINTS` points."""
    fun, jac, x0 = fit["fun"], fit["jac"], fit["x0"]
    # two points in turn, so that no point finds its factors memoized
    points = (x0, x0 * (1.0 + 1e-9))
    spent = {"trig": 0.0, "svd": 0.0}

    def timer(part, fn):
        def timed(*a, **k):
            start = time.perf_counter()
            try:
                return fn(*a, **k)
            finally:
                spent[part] += time.perf_counter() - start
        return timed

    def batch():
        spent.update(trig=0.0, svd=0.0)
        with _patched(np, "cos", timer("trig", np.cos)), \
                _patched(np, "sin", timer("trig", np.sin)), \
                _patched(np.linalg, "svd", timer("svd", np.linalg.svd)):
            start = time.perf_counter()
            for i in range(REFIT_POINTS):
                x = points[i % 2]
                fun(x)
                jac(x)
            total = time.perf_counter() - start
        return {"trig": spent["trig"], "svd": spent["svd"],
                "rest": total - spent["trig"] - spent["svd"], "total": total}

    batch()
    runs = [batch() for _ in range(repeats)]
    return {part: statistics.median(r[part] for r in runs)
            / REFIT_POINTS * 1e6 for part in runs[0]}


REPORTED_OPS = ("spectrum-15", "spectrum-10")


def analysis_cli_refits(cli, spectral, repeats) -> dict:
    """The refits of the 48 `remag spectrum` ops and the 8 figure 2a and
    2b ops of an `analysis-cli` pass at seed 1, each op run once through
    `remag.cli.main`: the median ms of all of them in turn, from the
    start points the ops handed `_refine_pairs`, and their residual
    evaluations (null on a checkout without `_levenberg_marquardt`)."""
    import workloads as w

    ops = [op for op in w.analysis_cli(random.Random(1))
           if op.argv[0] == "spectrum" or op.argv[:2] in (("figure", "2a"),
                                                          ("figure", "2b"))]
    refine, calls = spectral._refine_pairs, []    # (op key, args)
    key = None
    with tempfile.TemporaryDirectory() as work, \
            _patched(spectral, "_refine_pairs",
                     lambda *a: calls.append((key, a)) or refine(*a)), \
            _recorded_fits(spectral) as fits, \
            contextlib.redirect_stderr(io.StringIO()):
        for i, op in enumerate(ops):
            key, argv = op.key, list(op.argv)
            if op.config:
                cfg = Path(work) / f"op{i}.ini"
                cfg.write_text(op.config, encoding="utf-8")
                argv += ["--config", str(cfg)]
            rc = cli.main(argv + ["--out", str(Path(work) / f"op{i}")])
            if rc:
                raise RuntimeError(f"op {op.key} exited {rc}")
    report = {"ops": len(ops), "refits": len(calls),
              "total_ms": _median_s(lambda: _timed(
                  lambda: [refine(*a) for _, a in calls]), repeats) * 1e3}
    if not fits:
        return {**report, "evaluations": None}
    counts = [fit["evaluations"] for fit in fits]
    by_op = {}
    for (op_key, _), n in zip(calls, counts):
        by_op[op_key] = by_op.get(op_key, 0) + n
    return {**report, "evaluations": sum(counts),
            "evaluations_per_refit": sum(counts) / len(counts),
            "median": statistics.median(counts), "max": max(counts),
            "spectrum_evaluations": sum(
                n for k, n in by_op.items() if k.startswith("spectrum-")),
            "by_op": {k: by_op[k] for k in REPORTED_OPS}}


def time_parse_config(config, repeats) -> float:
    """Median us of one `parse_config` call over the configs of
    `noise-static-small` and `analysis-cli` at seed 1."""
    import workloads as w

    texts = [op.config for name in ("noise-static-small", "analysis-cli")
             for op in w.WORKLOADS[name](random.Random(1)) if op.config]
    return _median_s(lambda: _timed(
        lambda: [config.parse_config(t) for t in texts]),
        repeats) / len(texts) * 1e6


def time_model(noise, seq, delta, spec, repeats) -> float:
    """Median ms of the model call `mc_vs_model` makes on an OU-z echo."""
    times = noise.monte_carlo(seq, delta, spec, 1).times
    return _median_s(lambda: _timed(
        lambda: noise.exact_mean(seq, delta, spec, times)), repeats) * 1e3


def _fork_and_reap() -> None:
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)


#: (label, argv, text of the --config file or None) of each fresh process
COLD_START_RUNS = (("import remag.cli", [], None),
                   ("calcium", ["calcium"], None),
                   ("figure 1b", ["figure", "1b"], None),
                   ("figure 2b", ["figure", "2b"], None),
                   ("spectrum", ["spectrum"], None),
                   ("figure 4a", ["figure", "4a"], None),
                   ("noise", ["noise", "--trials", "8"], WARMUP_MC))
COLD_START_CHILD = """\
import json, sys
import remag, remag.cli
argv = sys.argv[1:]
rc = remag.cli.main(argv) if argv else 0
print(json.dumps({"remag": remag.__file__, "rc": rc, "scipy": sorted(
    m for m in sys.modules
    if m.startswith("scipy.") and not m.startswith("scipy._")
    and m.count(".") == 1)}))
"""
SAMPLE_PATH_STEPS = 100_000


def time_cold_start(src: Path, argv: list, config: str | None,
                    repeats: int) -> dict:
    """Median wall time of fresh processes that run ``argv`` through
    `remag.cli.main` (import only for an empty ``argv``), on a config file
    holding ``config`` if that is not None, and the scipy submodules they
    loaded."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    with tempfile.TemporaryDirectory() as out:
        extra = ["--out", out] if argv else []
        if config is not None:
            path = Path(out) / "run.ini"
            path.write_text(config, encoding="utf-8")
            extra += ["--config", str(path)]
        for _ in range(repeats):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", COLD_START_CHILD, *argv, *extra],
                env=env, capture_output=True, text=True, check=True)
            times.append(time.perf_counter() - start)
    got = json.loads(proc.stdout.splitlines()[-1])
    if Path(got["remag"]).resolve().parent != src / "remag" or got["rc"]:
        raise RuntimeError(f"cold start of {argv}: {got}")
    return {"wall_s": statistics.median(times), "scipy": got["scipy"]}


def time_sample_path(noise, repeats) -> float:
    """Median ns per value of one OU `sample_path` trial."""
    tau_c = 0.2e-6
    spec = noise.NoiseSpec(axis="z", kind="ou", sigma=2e6 * math.pi,
                           tau_c=tau_c, seed=1)
    dt = tau_c / 20
    return _median_s(lambda: _timed(lambda: noise.sample_path(
        spec, SAMPLE_PATH_STEPS * dt, dt)), repeats) / SAMPLE_PATH_STEPS * 1e9


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src/ directory of the checkout to time")
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs per figure (median reported)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    sys.path.insert(0, str(args.src.resolve()))
    from remag import cli, config, dynamics, noise, spectral

    report = {"numpy": np.__version__,
              "python": sys.version.split()[0], "repeats": args.repeats,
              "fork_min_trial_steps": getattr(noise, "_FORK_MIN_TRIAL_STEPS",
                                              None),
              "cases": {}}
    for label, seq, delta, spec, trials, record in _cases(noise, dynamics):
        report["cases"][label] = time_case(noise, dynamics, seq, delta, spec,
                                           trials, record, args.repeats)
        report["cases"][label]["monte_carlo_s"] = time_monte_carlo(
            noise, seq, delta, spec, trials, record, args.repeats)
        if spec.kind == "ou":
            report["cases"][label]["model_ms"] = time_model(
                noise, seq, delta, spec, args.repeats)
            report["cases"][label]["mc_vs_model_s"] = time_mc_vs_model(
                noise, seq, delta, spec, trials, args.repeats)
    report["crossover"] = time_crossover(noise, dynamics, args.repeats)
    # ru_maxrss is in KiB on Linux; the children so far are the workers
    report["worker_peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    report["self_peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["parse_config_us"] = time_parse_config(config, args.repeats)
    report["fork_reap_ms"] = _median_s(lambda: _timed(_fork_and_reap),
                                       max(args.repeats, 20)) * 1e3
    report["analysis"] = {
        "propagate_ms": {label: time_propagate(dynamics, n_cycles, dt_max,
                                               args.repeats)
                         for label, n_cycles, dt_max in PROPAGATE_CASES},
        "refit": time_refits(cli, spectral, args.repeats),
        "analysis_cli_refits": analysis_cli_refits(cli, spectral,
                                                   args.repeats)}
    src = args.src.resolve()
    report["cold_start"] = {
        "runs": {label: time_cold_start(src, argv, config, args.repeats)
                 for label, argv, config in COLD_START_RUNS},
        "sample_path_ns_per_sample": time_sample_path(noise, args.repeats)}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
