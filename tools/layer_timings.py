"""Layer timings of remag: this checkout against another, in one process.

`--src OTHER/src` loads OTHER's `remag` and this checkout's into one
process as two packages, builds each layer's inputs once from a third
load of this checkout (so that neither timed side has drawn or built
more than the other), and calls the two sides alternately: one warm-up
pair, whose times are dropped and whose outputs are compared, then
`--repeats` timed pairs, the order flipped each pair.  Without `--src` the other side is a
second load of this checkout, so the default run is an A/A: its ratios
show what the host can resolve.  Separate processes, one per checkout,
swung up to 2x between runs of one checkout on a busy 2-vCPU host; two
packages alternated in one process resolve about 2-3%.

Each layer reports, in its own unit, both medians (`this`, `other`), the
median per-pair ratio of other's time to this side's (`ratio`: above 1
where this checkout is faster) and its quartiles (`ratio_iqr`), each
side's wins (`wins`), this side's quartiles (`this_iqr`), and whether
the two sides' warm-up outputs were bit-identical (`identical`).  Where
OTHER's private signature does not take the inputs, the layer reports
this side alone, with `other`, `ratio`, `wins` and `identical` null and
the error under `skipped`.  A timed sample is the least time of as many
calls as fill `SAMPLE_S`, judged by this side's warm-up call, each call
after `malloc_trim(0)`; the least filters out the host's bursts, which
on a shared 2-vCPU host otherwise decide a pair.

The layers (ROADMAP aim 1, and what perfbench's workloads run):

- `ou_draw`: the whole `noise._noise_blocks` draw of the first 2,048-trial
  chunk of `noise-ou-large`'s 5 pi echo, 624 steps in five blocks, each
  block copied out as it arrives (ns per value);
- `kernel <case>`: `noise._propagate_batch` on blocks drawn beforehand
  (ns per trial-step).  The cases are the first chunk of each
  `noise-ou-large` case (OU dephasing, rotary echoes on the grid
  `monte_carlo` picks), and static drive noise at 19 MHz on 64 trials: a
  pi echo of 65 cycles (one step per half echo), `noise-static-small`'s
  longest op at seed 1, a 0.507 pi echo of 189 cycles, and the pi echo
  read at 64 record times drawn at seed 1 from its drive grid (`random`),
  whose intervals all differ, so that each interval's update is built
  once, from one exact step per run of equal amplitude in it;
- `mc_vs_model`: `noise.mc_vs_model` on the three `noise-ou-large`
  echoes at 4,096 trials, in one call, as perfbench runs them: each
  ensemble forked (on two or more CPUs), its workers reaped, then its
  model (ms); `identical` compares the times, means, standard errors and
  models;
- `exact_mean`: the model `noise.mc_vs_model` computes after each
  `noise-ou-large` ensemble, the three in one call (ms);
- `propagate <size>`: one noiseless `dynamics.propagate` call on a pi
  echo at 17 MHz, at the sizes of the spectrum ops (100 and 510 segments
  on the 10 ns grid) and of figure 1c (102 segments on its 2 ns grid)
  (ms);
- `periodogram`, `peak_significance` and `extract_detunings`, each on the
  figure 2a and 2b triplet traces with shot noise at seed 3 (511 and
  1,531 samples) (ms); the refit's residual and Jacobian evaluations on
  each side (`evaluations`), read by wrapping
  `spectral._levenberg_marquardt` (null on a side without it);
- `sensitivity_sweep`: the 64 sweeps of an `analysis-cli` pass at seed 1,
  in one call (ms);
- `parse_config`: the 206 configs of `noise-static-small` and
  `analysis-cli` at seed 1, in one call (us per config);
- `cli <workload>`: one seed-1 pass of the workload through
  `remag.cli.main`, each op after `malloc_trim(0)` as perfbench's are (ms
  per pass), and the first op of each side's first pass apart
  (`first_op_ms`); `identical` compares every artifact's bytes,
  manifests without their timestamps;
- `cold_start <run>`: a fresh interpreter that imports `remag.cli` and,
  but for the bare import, runs one command through `remag.cli.main`
  (`calcium`, `figure 1b`, `figure 2b`, `spectrum`, `figure 4a`, and
  `noise` on the 8-trial OU-z pi echo of perfbench's warm-up), each side's
  `src/` on its `PYTHONPATH` (s); `identical` compares the exit code and
  the public scipy submodules the process loaded.

The `cli` passes and the `cold_start` processes take a quarter of
`--repeats` pairs, and at least 3.  Three figures are this checkout's
alone, because `noise._FORK_MIN_TRIAL_STEPS` rests on them:

- `crossover`: `monte_carlo` on the 0.75 pi OU-z echo of `noise-ou-large`
  at 3, 6, 12 and 24 cycles (4 grid steps each), 4,096 trials in 2
  chunks, about 25k, 50k, 100k and 200k trial-steps per chunk, through
  the same loop with the chunks forked as `this` and kept in process as
  `other` (`ratio` above 1 where forking pays);
  `crossover_trial_steps` is the least of those sizes from which on the
  forked side is faster at every size, null if it is not at the largest;
- `fork_reap_ms`: forking this process and reaping the child, which
  leaves at once;
- `worker_peak_rss_mb`: the peak RSS of the largest worker forked while
  the layers ran (`RUSAGE_CHILDREN`; perfbench's `peak_rss_mb` is the
  calling process's alone), beside this process's (`self_peak_rss_mb`).

    python tools/layer_timings.py                    # A/A on this checkout
    python tools/layer_timings.py --src OTHER/src    # this against OTHER

Prints one JSON object (BLAS pinned to one thread).  A run takes about
three minutes on two cores at the default `--repeats`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads as w  # noqa: E402
from run import WARMUP_MC, malloc_trim  # noqa: E402

SAMPLE_S = 0.1          # least time of one timed sample
MHZ = 2e6 * math.pi


def load(src: Path, name: str):
    """The `remag` package under ``src`` loaded as ``name``, `cli` too."""
    init = src.resolve() / "remag" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def _bits(x):
    """``x`` reduced to bytes, tuples and plain values, so that two
    outputs compare equal only if every number's bits agree."""
    if isinstance(x, (np.ndarray, np.generic)):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (list, tuple)):
        return tuple(map(_bits, x))
    if isinstance(x, dict):
        return tuple((k, _bits(v)) for k, v in sorted(x.items()))
    if hasattr(x, "__dict__"):
        return type(x).__name__, _bits(vars(x))
    return x


class Layer(NamedTuple):
    """One timed layer: ``call(package)`` runs it on one side, and a
    sample's seconds per call times ``per`` is its figure in ``unit``;
    ``read`` turns a warm-up output into what the sides must agree on."""

    call: Callable
    unit: str
    per: float
    read: Callable = _bits


def ab(this: Callable, other: Callable | None, pairs: int, unit: str,
       per: float, read: Callable = _bits) -> dict:
    """Times ``this()`` and ``other()`` alternately: a warm-up pair, then
    ``pairs`` timed pairs, the first call of each pair flipped each pair."""
    start = time.perf_counter()
    first = this()
    loops = max(1, round(SAMPLE_S / (time.perf_counter() - start)))
    first = read(first)
    report = {"unit": unit}
    sides = [this]
    if other is not None:
        try:
            report["identical"] = read(other()) == first
            sides.append(other)
        except (TypeError, AttributeError) as exc:
            report["skipped"] = f"{type(exc).__name__}: {exc}"
    times = [[] for _ in sides]
    for k in range(pairs):
        for s in (range(len(sides)) if k % 2 == 0
                  else reversed(range(len(sides)))):
            best = math.inf
            for _ in range(loops):
                malloc_trim(0)
                start = time.perf_counter()
                sides[s]()
                best = min(best, time.perf_counter() - start)
            times[s].append(best * per)

    def quartiles(a):
        return [float(q) for q in np.percentile(a, [25, 75])]

    mine = np.array(times[0])
    report.update(this=float(np.median(mine)), this_iqr=quartiles(mine),
                  other=None, ratio=None, ratio_iqr=None, wins=None)
    if len(sides) == 2:
        theirs = np.array(times[1])
        ratios = theirs / mine
        report.update(other=float(np.median(theirs)),
                      ratio=float(np.median(ratios)),
                      ratio_iqr=quartiles(ratios),
                      wins={"this": int(np.sum(mine < theirs)),
                            "other": int(np.sum(theirs < mine))})
    else:
        report.setdefault("identical", None)
    return report


def time_layer(layer: Layer, this, other, pairs: int) -> dict:
    return ab(lambda: layer.call(this), lambda: layer.call(other), pairs,
              layer.unit, layer.per, layer.read)


# ---------------------------------------------------------------------------
# the Monte Carlo engine

CHUNK = 2048            # monte_carlo's default trial chunk
# theta/pi, cycles, record times drawn at random
STATIC_CASES = ((1.0, 65, False), (0.507, 189, False), (1.0, 65, True))
RANDOM_RECORDS = 64     # record times of a `random` case, 0 among them


def _ou_spec(noise):
    return noise.NoiseSpec(axis="z", kind="ou", sigma=w.OU_SIGMA_MHZ * MHZ,
                           tau_c=w.OU_TAU_C_US * 1e-6, seed=1)


def _cases(pkg):
    """(label, sequence, detuning, spec, trials, record times or None for
    the default) of each Monte Carlo case."""
    noise, dynamics = pkg.noise, pkg.dynamics
    out = []
    for theta_pi, n_cycles in w.OU_CASES:
        seq = dynamics.PulseSequence.rotary_echo(
            theta_pi * math.pi, w.OU_OMEGA_MHZ * MHZ, n_cycles)
        out.append((f"ou-{theta_pi}pi-x{n_cycles}", seq,
                    w.OU_DETUNING_MHZ * MHZ, _ou_spec(noise), w.OU_TRIALS,
                    None))
    for theta_pi, n_cycles, drawn in STATIC_CASES:
        seq = dynamics.PulseSequence.rotary_echo(
            theta_pi * math.pi, w.STATIC_OMEGA_MHZ * MHZ, n_cycles)
        spec = noise.NoiseSpec(axis="x", kind="static",
                               sigma=0.05 * seq.omega, seed=1)
        records = None
        if drawn:   # 0 and 63 distinct times of the drive grid, at seed 1
            wave = dynamics.build_waveform(seq, 0.0)
            n_sub, _ = noise._grid(seq, wave, spec, None,
                                   dynamics.default_dt_max(wave))
            picks = np.random.default_rng(1).choice(
                np.arange(1, n_sub * wave.amplitudes.size + 1),
                RANDOM_RECORDS - 1, replace=False)
            records = wave.segment / n_sub * np.concatenate(
                ([0], np.sort(picks)))
        out.append((f"static-{theta_pi}pi-x{n_cycles}"
                    + ("-random" if drawn else ""), seq, 0.0, spec,
                    w.STATIC_TRIALS, records))
    return out


def kernel_inputs(pkg) -> dict:
    """The `_noise_blocks` and `_propagate_batch` arguments of each case's
    first chunk, by label, on the grid and records of `noise._grid`."""
    noise, inputs = pkg.noise, {}
    for label, seq, delta, spec, trials, records in _cases(pkg):
        wave = pkg.dynamics.build_waveform(seq, delta)
        n_sub, record_idx = noise._grid(seq, wave, spec, records, None)
        dt, count = wave.segment / n_sub, min(trials, CHUNK)
        draw = (spec, dt, 0, count, n_sub * wave.amplitudes.size,
                noise._BLOCK_STEPS)
        inputs[label] = draw, (np.repeat(wave.amplitudes, n_sub), delta,
                               spec.axis, list(noise._noise_blocks(*draw)),
                               count, dt, record_idx)
    return inputs


def _drain(blocks, out: np.ndarray) -> np.ndarray:
    """``out`` with each of an OU draw's ``blocks`` copied into its next
    rows as the block arrives, before the next one is drawn (as the kernel
    steps through them), so a draw may reuse one buffer for its blocks."""
    k = 0
    for block in blocks:
        out[k:k + len(block)] = block
        k += len(block)
    return out


def _ensembles(outputs) -> tuple:
    """What two sides' `mc_vs_model` calls must agree on."""
    return _bits([(res.times, res.mean, res.stderr, model)
                  for res, model in outputs])


def engine_layers(pkg) -> dict:
    """`ou_draw`, `kernel` on each case's first chunk and `mc_vs_model`,
    their inputs built by ``pkg``."""
    layers = {}
    for label, (draw, kernel) in kernel_inputs(pkg).items():
        per = 1e9 / (draw[3] * draw[4])     # per trial-step
        if label == "ou-5.0pi-x24":
            # one buffer for both sides: `ab` reads a side's warm-up
            # output before the other side draws into it
            out = np.empty((draw[4], draw[3]))
            layers["ou_draw"] = Layer(
                lambda p, a=draw, o=out: _drain(p.noise._noise_blocks(*a), o),
                "ns per value", per)
        layers[f"kernel {label}"] = Layer(
            lambda p, a=kernel: p.noise._propagate_batch(
                *a[:3], iter(a[3]), *a[4:]),
            "ns per trial-step", per)
    echoes = [(seq, delta, spec, trials)
              for _, seq, delta, spec, trials, _ in _cases(pkg)[:3]]
    layers["mc_vs_model"] = Layer(
        lambda p: [p.noise.mc_vs_model(*a) for a in echoes], "ms", 1e3,
        _ensembles)
    return layers


CROSSOVER_CYCLES = (3, 6, 12, 24)   # of the 0.75 pi echo, 4 steps each


def crossover(this, pairs: int) -> dict:
    """`monte_carlo` on the 0.75 pi OU-z echo at each of
    `CROSSOVER_CYCLES`, forked (`this`) against in process (`other`), and
    the least chunk size from which on forking is faster at every size."""
    noise = this.noise
    spec = _ou_spec(noise)
    default = noise._FORK_MIN_TRIAL_STEPS

    def run(seq, threshold):
        noise._FORK_MIN_TRIAL_STEPS = threshold
        try:
            return noise.monte_carlo(seq, w.OU_DETUNING_MHZ * MHZ, spec,
                                     w.OU_TRIALS)
        finally:
            noise._FORK_MIN_TRIAL_STEPS = default

    sizes, least = {}, None
    for n_cycles in CROSSOVER_CYCLES:
        seq = this.dynamics.PulseSequence.rotary_echo(
            0.75 * math.pi, w.OU_OMEGA_MHZ * MHZ, n_cycles)
        n_steps = noise.monte_carlo(seq, w.OU_DETUNING_MHZ * MHZ, spec,
                                    1).meta["n_steps"]
        sizes[f"x{n_cycles}"] = {
            "chunk_trial_steps": CHUNK * n_steps,
            **ab(lambda s=seq: run(s, 0), lambda s=seq: run(s, math.inf),
                 pairs, "s", 1.0)}
    for size in reversed(sizes.values()):
        if size["ratio"] <= 1.0:
            break
        least = size["chunk_trial_steps"]
    return {"sizes": sizes, "crossover_trial_steps": least}


def _fork_and_reap() -> None:
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# the analysis chain

ANALYSIS_OMEGA_MHZ = 17.0
ANALYSIS_LINE_MHZ = 0.17
PROPAGATE_CASES = (("spectrum-100seg-10ns", 50, 10e-9),
                   ("spectrum-510seg-10ns", 255, 10e-9),
                   ("fig1c-102seg-2ns", 51, 2e-9))  # (label, cycles, dt_max)
REFIT_CASES = (("fig2a", 0.17, 5e-6), ("fig2b", 0.064, 15e-6))  # b, t_total
REFIT_SEED = 3


def _seed_1_ops(name: str) -> list:
    return w.WORKLOADS[name](random.Random(1))


def analysis_layers(pkg) -> dict:
    """`exact_mean`, `propagate`, the spectral chain, `sensitivity_sweep`
    and `parse_config`, their inputs built by ``pkg``."""
    layers = {}
    models = [(seq, delta, spec, pkg.noise.monte_carlo(seq, delta, spec,
                                                        1).times)
              for _, seq, delta, spec, _, _ in _cases(pkg)[:3]]
    layers["exact_mean"] = Layer(
        lambda p: [p.noise.exact_mean(*a) for a in models], "ms", 1e3)
    for label, n_cycles, dt_max in PROPAGATE_CASES:
        seq = pkg.dynamics.PulseSequence.rotary_echo(
            math.pi, ANALYSIS_OMEGA_MHZ * MHZ, n_cycles)
        wave = pkg.dynamics.build_waveform(seq, ANALYSIS_LINE_MHZ * MHZ)
        layers[f"propagate {label}"] = Layer(
            lambda p, a=wave, d=dt_max: p.dynamics.propagate(a, dt_max=d),
            "ms", 1e3)
    spectral, omega = pkg.spectral, ANALYSIS_OMEGA_MHZ * MHZ
    for label, b_mhz, t_total in REFIT_CASES:
        trace = pkg.cli.triplet_trace(
            math.pi, omega, b_mhz * MHZ, w.A_HYPERFINE_MHZ * MHZ, t_total,
            dt_max=10e-9, shot_sigma=0.035, seed=REFIT_SEED)
        pgram = spectral.periodogram(trace)
        peaks = spectral.peak_significance(pgram, max_peaks=6)
        layers[f"periodogram {label}"] = Layer(
            lambda p, a=trace: p.spectral.periodogram(a), "ms", 1e3)
        layers[f"peak_significance {label}"] = Layer(
            lambda p, a=pgram: p.spectral.peak_significance(a, max_peaks=6),
            "ms", 1e3)
        layers[f"extract_detunings {label}"] = Layer(
            lambda p, a=peaks, t=trace, f=2 * pgram.grid_spacing:
            p.spectral.extract_detunings(a, math.pi, omega,
                                         pair_tolerance_hz=f, trace=t),
            "ms", 1e3)
    sweeps = []
    with warnings.catch_warnings():     # the envelope's ValidityWarning
        warnings.simplefilter("ignore")
        for op in _seed_1_ops("analysis-cli"):
            if op.argv[0] != "sensitivity":
                continue
            cfg = pkg.config.parse_config(op.config)
            seq = cfg.sequence
            times = pkg.sensing.optimal_interrogation_times(
                seq.theta, seq.omega, 0.0, cfg["grid"]["t_max_us"] * 1e-6)
            envelope = 1.0 / pkg.models.decay_envelope(seq, cfg.noise,
                                                       times)
            sweeps.append(((seq.kind, times, cfg.readout, envelope),
                           {"theta": seq.theta, "omega": seq.omega,
                            "hyperfine": cfg.hyperfine}))
    layers["sensitivity_sweep"] = Layer(
        lambda p: [p.sensing.sensitivity_sweep(*a, **k) for a, k in sweeps],
        "ms", 1e3)
    texts = [op.config for name in ("noise-static-small", "analysis-cli")
             for op in _seed_1_ops(name) if op.config]
    layers["parse_config"] = Layer(
        lambda p: [p.config.parse_config(t) for t in texts],
        "us per config", 1e6 / len(texts))
    return layers


def evaluations(pkg, layer: Layer) -> dict | None:
    """The residual and Jacobian evaluations of ``pkg``'s
    `_levenberg_marquardt` calls in one run of ``layer``."""
    spectral = pkg.spectral
    solve = getattr(spectral, "_levenberg_marquardt", None)
    if solve is None:
        return None
    counts = {"residual": 0, "jacobian": 0}

    def counted(name, fn):
        def call(x):
            counts[name] += 1
            return fn(x)
        return call

    spectral._levenberg_marquardt = lambda fun, jac, x0: solve(
        counted("residual", fun), counted("jacobian", jac), x0)
    try:
        layer.call(pkg)
    finally:
        spectral._levenberg_marquardt = solve
    return counts


# ---------------------------------------------------------------------------
# whole runs

def _artifacts(out: Path) -> dict:
    """Every file under ``out``: its bytes, a manifest's without its
    timestamps."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "manifest.json":
                payload = json.loads(data)
                payload.pop("started", None)
                payload.pop("finished", None)
                data = json.dumps(payload, sort_keys=True).encode()
            files[str(path.relative_to(out))] = data
    return files


def cli_layer(name: str, work: Path) -> tuple[Layer, dict]:
    """A seed-1 pass of workload ``name`` through `cli.main`, and the first
    op times (ms) of each side's first pass, filled as the layer runs."""
    ops = _seed_1_ops(name)
    argvs = []
    for i, op in enumerate(ops):
        argv = list(op.argv)
        if op.config is not None:
            cfg = work / f"{name}-op{i}.ini"
            cfg.write_text(op.config, encoding="utf-8")
            argv += ["--config", str(cfg)]
        argvs.append(argv)
    first = {}

    def run_pass(p):
        out = work / p.__name__ / name
        for i, argv in enumerate(argvs):
            malloc_trim(0)
            start = time.perf_counter()
            with contextlib.redirect_stderr(io.StringIO()):
                rc = p.cli.main(argv + ["--out", str(out / f"op{i}")])
            if rc:
                raise RuntimeError(f"{name} op {ops[i].key} exited {rc}")
            first.setdefault(p.__name__, (time.perf_counter() - start) * 1e3)
        return out

    return Layer(run_pass, "ms per pass", 1e3, _artifacts), first


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


def cold_start(src: Path, argv: list, out: Path) -> Callable:
    """A call that runs ``argv`` in a fresh interpreter on the checkout at
    ``src``, writing to ``out``, and returns its exit code and the scipy
    submodules it loaded."""
    env = dict(os.environ, PYTHONPATH=str(src))
    extra = ["--out", str(out)] if argv else []

    def run():
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START_CHILD, *argv, *extra],
            env=env, capture_output=True, text=True, check=True)
        got = json.loads(proc.stdout.splitlines()[-1])
        if Path(got.pop("remag")).resolve().parent != src / "remag":
            raise RuntimeError(f"cold start of {argv} loaded another remag")
        return got

    return run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src/ directory of the other checkout "
                             "(default: this one again, an A/A run)")
    parser.add_argument("--repeats", type=int, default=20,
                        help="timed pairs per layer")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    pairs, few = args.repeats, max(3, args.repeats // 4)
    this_src, other_src = (ROOT / "src").resolve(), args.src.resolve()
    this, other = load(this_src, "remag_this"), load(other_src, "remag_other")
    inputs = load(this_src, "remag_inputs")

    report = {"numpy": np.__version__, "python": sys.version.split()[0],
              "this": str(this_src), "other": str(other_src),
              "repeats": pairs, "layers": {}}
    layers = report["layers"]
    for label, layer in {**engine_layers(inputs),
                         **analysis_layers(inputs)}.items():
        layers[label] = time_layer(layer, this, other, pairs)
        if label.startswith("extract_detunings"):
            layers[label]["evaluations"] = {
                "this": evaluations(this, layer),
                "other": None if "skipped" in layers[label]
                else evaluations(other, layer)}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in w.WORKLOADS:
            layer, first = cli_layer(name, work)
            layers[f"cli {name}"] = time_layer(layer, this, other, few)
            layers[f"cli {name}"]["first_op_ms"] = {
                "this": first.get(this.__name__),
                "other": first.get(other.__name__)}
        report["crossover"] = crossover(this, pairs)
        report["fork_reap_ms"] = ab(_fork_and_reap, None, pairs, "ms",
                                    1e3)["this"]
        # ru_maxrss is in KiB on Linux; the children so far are the
        # workers (and the reaped no-op children)
        report["worker_peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        report["self_peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for label, argv, config in COLD_START_RUNS:
            if config is not None:
                path = work / "cold.ini"
                path.write_text(config, encoding="utf-8")
                argv = argv + ["--config", str(path)]
            layers[f"cold_start {label}"] = ab(
                cold_start(this_src, argv, work / "cold-this"),
                cold_start(other_src, argv, work / "cold-other"), few, "s",
                1.0)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
