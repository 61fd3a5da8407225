"""Reproducible noise processes, Monte Carlo ensembles and exact OU means.

Streams are counter-based (Philox) and keyed by (seed, trial_index), so
every trial's path is deterministic and independent of evaluation order;
Gaussian variates use the inverse-CDF transform so a reimplementation
can match the distributions statistically, and an OU path takes one
exact update per time step, applied to all of a chunk's trials at once.
:func:`monte_carlo` draws a chunk of trials at a time, in blocks of
``_BLOCK_STEPS`` time steps that the SU(2) kernel (:func:`_propagate_batch`)
steps through as they are drawn, so its memory is O(chunk x block) however
long the run; a trial's values are the same whichever chunk or block they
are drawn in, and :func:`sample_path` returns them for one trial.

The grid is sized to the noise (:func:`_noise_grid_step`): one exact step
per constant run between record times under static noise, tau_c/20 or
finer under OU noise.  Static noise is one row held for the whole run, so
the kernel computes each drive amplitude's step once, and one 2x2 product
per pattern of steps between records that recurs (every full echo of a
rotary echo), which each later such interval applies in one update; OU
noise computes every step anew.  A
run of several large chunks spreads them over forked worker processes
(:func:`_workers`), and :func:`mc_vs_model` computes its model while they
exit; chunks are merged in chunk order, so results do not depend on the
CPU count or on whether a run forked.  :func:`exact_mean`
is the mean an OU ensemble estimates, solved with no sampling and no
grid.

Noise strengths are in rad/s on both axes; a drive-noise strength stated
as a fraction of the Rabi frequency is converted where it arrives
(:mod:`remag.config`, the figure presets), so every consumer here reads
``NoiseSpec.sigma`` as it is.
"""

from __future__ import annotations

import bisect
import contextvars
import math
import os
import signal
import threading
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .dynamics import (OU_MIN_SAMPLES_PER_TAU, DriveWaveform, PulseSequence,
                       build_waveform, default_dt_max, full_echo_times,
                       uniform_grid_step)
from .models import DecayScenario, mean_signal

#: largest seed: streams are keyed by 64-bit words, so a larger seed
#: would silently alias a smaller one
MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class NoiseSpec:
    """Axis, statistics, strength and stream seed of a noise source.

    axis "z" is dephasing (adds to the detuning); axis "x" perturbs the
    drive amplitude.  sigma is in rad/s on both axes; a strength given as
    a fraction of the Rabi frequency ("0.05 Omega") is that fraction
    times the drive's omega.
    """

    axis: str
    kind: str
    sigma: float
    tau_c: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.axis not in ("z", "x"):
            raise ValueError("axis must be 'z' or 'x'")
        if self.kind not in ("static", "ou"):
            raise ValueError("kind must be 'static' or 'ou'")
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        if self.kind == "ou" and self.tau_c <= 0.0:
            raise ValueError("OU noise requires tau_c > 0")
        if not 0 <= self.seed <= MAX_SEED:
            raise ValueError("seed must lie in [0, 2**64)")


@dataclass(frozen=True)
class NoisePath:
    """One realization sampled on a uniform grid, one value per step."""

    values: np.ndarray


@dataclass(frozen=True)
class EnsembleResult:
    """Monte Carlo mean trace with per-time standard errors."""

    times: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    trials: int
    meta: dict = field(default_factory=dict)


def _trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """A generator on the Philox stream keyed by (seed, trial_index)."""
    # an explicit uint64 key: numpy turns a list holding an int of 2**63 or
    # more into float64, which rounds such seeds onto each other
    key = np.array([seed, trial_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


#: time steps per block of a chunk's noise
_BLOCK_STEPS = 128


class _BitgenPool(threading.local):
    """Each thread's idle generators, each on its own Philox bit generator.

    Re-keying one for a trial costs under 1 us; building one with
    ``Philox(key=...)`` costs about 6.5 us, most of it the SeedSequence
    entropy that a keyed stream never uses.  A generator is checked out
    for the life of the draw that uses it, so two live draws never share
    one.  The pool's bit generators share one seed sequence, which spares
    each its own (about 300 bytes); their first key is never drawn from.
    """

    seed = np.random.SeedSequence(0)

    def __init__(self):
        self.free = []


_BITGENS = _BitgenPool()


def _keyed_state(seed: int, trial_index: int) -> dict:
    """State of the Philox stream that ``_trial_rng(seed, trial_index)``
    draws from, before its first draw."""
    return {"bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [seed, trial_index]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}


def _noise_blocks(spec: NoiseSpec, dt: float, first: int, count: int,
                  n_steps: int, block: int):
    """Noise of trials ``first .. first+count-1``, in time blocks.

    Yields ``(m, count)`` arrays, one row of values (rad/s) per step, over
    successive runs of at most ``block`` steps; static noise yields one
    read-only ``(n_steps, count)`` view of a single value per trial.
    Trial i draws from its own Philox stream keyed by (spec.seed, i),
    which each block advances; ``Generator.random`` turns its words into
    uniforms, so a trial's values do not depend on the chunk or the block
    it is drawn in.  The generators come from the calling thread's pool,
    re-keyed for each trial, and go back to it when the draw finishes or
    is closed.  OU noise uses the exact stationary update
    x_{k+1} = alpha x_k + beta xi_k (Gillespie, Phys. Rev. E 54, 2084
    (1996)), applied one step at a time to a row of all ``count`` trials,
    with each trial's state carried from block to block.
    """
    from scipy.special import ndtri

    free = _BITGENS.free
    streams = [free.pop() if free
               else np.random.Generator(np.random.Philox(_BITGENS.seed))
               for _ in range(count)]

    def normals(m):
        # the next m standard normals of each stream, one row per step,
        # via the inverse CDF of uniforms
        u = np.empty((count, m))
        for i, gen in enumerate(streams):
            gen.random(out=u[i])
        return ndtri(u.T, out=np.empty((m, count)))

    try:
        # one state, re-keyed for each stream: setting it copies it
        state = _keyed_state(spec.seed, first)
        key = state["state"]["key"]
        for i, gen in enumerate(streams):
            key[1] = first + i
            gen.bit_generator.state = state
        if spec.kind == "static":
            # one uniform per trial, read as a Python float
            u = np.array([gen.random() for gen in streams])
            yield np.broadcast_to(spec.sigma * ndtri(u), (n_steps, count))
            return
        if dt > spec.tau_c / OU_MIN_SAMPLES_PER_TAU * (1.0 + 1e-9):
            raise ValueError(
                f"OU noise requires dt <= tau_c/{OU_MIN_SAMPLES_PER_TAU}")
        alpha = math.exp(-dt / spec.tau_c)
        beta = spec.sigma * math.sqrt(1.0 - alpha * alpha)
        x = None
        for offset in range(0, n_steps, block):
            values = normals(min(block, n_steps - offset))
            rows = values
            if x is None:                   # stationary start
                values[0] *= spec.sigma
                x, rows = values[0], values[1:]
            for row in rows:
                row *= beta
                row += alpha * x
                x = row
            yield values
    finally:
        free.extend(streams)


def sample_path(spec: NoiseSpec, t_end: float, dt: float,
                trial_index: int = 0) -> NoisePath:
    """Sample one noise realization on a uniform grid of step dt.

    Static noise is a single Normal(0, sigma^2) value held for the whole
    grid; OU noise uses the exact stationary one-step update.  The values
    are offsets in rad/s, the values that :func:`monte_carlo` draws for
    trial ``trial_index`` on the same grid.
    """
    if t_end <= 0.0 or dt <= 0.0:
        raise ValueError("t_end and dt must be positive")
    n_steps = max(1, int(round(t_end / dt)))
    values, = _noise_blocks(spec, dt, trial_index, 1, n_steps, block=n_steps)
    values = np.array(values[:, 0])
    if not np.all(np.isfinite(values)):
        raise ValueError("noise path contains non-finite samples")
    return NoisePath(values=values)


def _merge_welford(count, mean, m2, batch):
    """Chan parallel combine of running (count, mean, M2) with a batch."""
    b_count = batch.shape[0]
    b_mean = batch.mean(axis=0)
    b_m2 = ((batch - b_mean) ** 2).sum(axis=0)
    if count == 0:
        return b_count, b_mean, b_m2
    delta = b_mean - mean
    total = count + b_count
    new_mean = mean + delta * (b_count / total)
    new_m2 = m2 + b_m2 + delta ** 2 * (count * b_count / total)
    return total, new_mean, new_m2


def _drive_grid(wave: DriveWaveform, spec: NoiseSpec) -> float:
    """The largest step of at most min(T_Rabi/200, tau_c/20 under OU
    noise) that lands on every segment boundary."""
    tau_c = spec.tau_c if spec.kind == "ou" else None
    return uniform_grid_step(wave, default_dt_max(wave, tau_c))


def _default_record_times(seq: PulseSequence, wave: DriveWaveform,
                          spec: NoiseSpec) -> np.ndarray:
    """Every full echo of a rotary echo; otherwise up to 512 records about
    1 ns apart, and no more than :func:`_noise_grid_step` can land on:
    twice the drive grid's step count over the run's one segment."""
    if seq.kind == "rotary_echo":
        return full_echo_times(seq)
    n_max = 2 * int(round(wave.segment / _drive_grid(wave, spec)))
    n = min(512, n_max, max(2, int(round(seq.total_duration / 1e-9))))
    return np.linspace(0.0, seq.total_duration, n + 1)


def _noise_grid_step(wave: DriveWaveform, spec: NoiseSpec,
                     record_times: np.ndarray) -> float:
    """Grid step of a Monte Carlo run, sized to the noise.

    Each step is an exact SU(2) exponential with the noise held constant,
    so the grid only has to sample the noise.  One rule covers every case:
    the step is base/n for the segment length base and the least n >= n_min
    that lands on every breakpoint and every record time
    (|t/dt - round(t/dt)| < 1e-6), with n_min

    - 1 for static noise, on any sequence and either axis: the
      Hamiltonian is constant between breakpoints, so one step per
      constant run between records is exact;
    - tau_c/20 steps for OU dephasing during a rotary echo;
    - the drive grid min(T_Rabi/200, tau_c/20) for every other case: held
      over tau_c/20, OU drive noise biases a rotary echo by several
      standard errors at 10^4 trials (the echo refocuses it to second
      order, so the standard error is tiny), and OU dephasing biases
      Ramsey by 0.3 of one.

    n is at most twice the drive grid's step count; when no such n lands
    on the record times, the drive grid is the fallback, and records off
    it are taken at their nearest grid step.
    """
    drive_grid = _drive_grid(wave, spec)
    base = wave.segment
    n_drive = int(round(base / drive_grid))
    if spec.kind == "static":
        n_min = 1
    elif spec.axis == "z" and np.any(wave.amplitudes < 0.0):  # OU-z echo
        n_min = math.ceil(base / (spec.tau_c / OU_MIN_SAMPLES_PER_TAU) - 1e-9)
    else:
        n_min = n_drive
    # segment boundaries lie at multiples of base, so steps of base/n land
    # on them; a record time at t = (p/q) base lands when q divides n
    n_max = 2 * n_drive
    fracs = np.unique(np.asarray(record_times, dtype=float)) / base
    # any p/q != m with q <= n_max lies 1/n_max or more from the integer m,
    # so m is the nearest such fraction to a record within 0.5/n_max of it
    # (q = 1); only the other records need the search
    near = np.abs(fracs - np.rint(fracs)) < 0.5 / n_max
    n = 1
    for f in fracs[~near].tolist():
        n = math.lcm(n, Fraction(f).limit_denominator(n_max).denominator)
        if n > n_max:
            return drive_grid
    n *= math.ceil(n_min / n)
    x = fracs * n
    if n > n_max or np.any(np.abs(x - np.rint(x)) >= 1e-6):
        return drive_grid
    return base / n


def monte_carlo(seq: PulseSequence, delta_omega: float, spec: NoiseSpec,
                trials: int, dt_max: float | None = None,
                record_times: np.ndarray | None = None,
                chunk: int = 2048) -> EnsembleResult:
    """Ensemble average of the exactly propagated signal over noise paths.

    Trials are independent, keyed by (spec.seed, trial_index), and
    reduced in a fixed chunked order (Welford merging), so results are
    bit-reproducible for a given trial count and chunk size.  Defaults:
    record at full-echo times for rotary echo, a uniform grid otherwise.

    The noise is held constant over each grid step.  ``dt_max`` forces a
    grid no coarser than it; by default the grid is sized to the noise
    (see :func:`_noise_grid_step`): one step per constant run between
    records under static noise, tau_c/20 under OU dephasing during a
    rotary echo, and min(T_Rabi/200, tau_c/20) otherwise, each refined
    until the steps land on the record times.  Records are then taken
    exactly where requested; records that no step of at most twice the
    drive grid's count lands on (an irrational fraction of a segment) are
    taken at their nearest step of the drive grid, and ``times`` holds
    those snapped times.  No record times, a record time off the run
    (nearest grid index outside [0, n_steps]) and two record times with
    the same nearest grid index are errors.
    ``meta`` records the step ``dt``, the step count ``n_steps`` and the
    number of trial ``chunks``.  Large chunks may run in forked worker
    processes (see :func:`_workers`); the result is the same either way.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    wave = build_waveform(seq, delta_omega)
    if record_times is None:
        record_times = _default_record_times(seq, wave, spec)
    if dt_max is None:
        dt = _noise_grid_step(wave, spec, record_times)
    else:
        dt = uniform_grid_step(wave, dt_max)
    n_steps = int(round(wave.total_duration / dt))

    requested = np.rint(np.asarray(record_times, dtype=float) / dt)
    if requested.size == 0:
        raise ValueError("record times must not be empty")
    if not np.all((requested >= 0) & (requested <= n_steps)):
        raise ValueError(
            f"record times must lie in [0, {wave.total_duration:.6g}] s")
    record_idx = np.unique(requested.astype(int))
    if record_idx.size < requested.size:
        raise ValueError(f"record times must be at least one grid step "
                         f"(dt = {dt:.6g} s) apart")
    times = dt * record_idx

    n_sub = int(round(wave.segment / dt))
    amp_steps = np.repeat(wave.amplitudes, n_sub)

    def run_chunk(start, stop):
        blocks = _noise_blocks(spec, dt, start, stop - start, n_steps,
                               _BLOCK_STEPS)
        return _propagate_batch(amp_steps, delta_omega, spec.axis, blocks,
                                stop - start, dt, record_idx,
                                ramsey=seq.kind == "ramsey")

    chunks = [(start, min(start + chunk, trials))
              for start in range(0, trials, chunk)]
    # _noise_blocks' scipy.special, loaded here rather than in each worker
    import scipy.special  # noqa: F401
    count, mean, m2 = _run_chunks(
        run_chunk, chunks, record_idx.size,
        _workers(len(chunks), min(chunk, trials) * n_steps))

    if count > 1:
        stderr = np.sqrt(m2 / (count - 1)) / math.sqrt(count)
    else:
        stderr = np.zeros_like(mean)
    return EnsembleResult(times=times, mean=mean, stderr=stderr,
                          trials=trials,
                          meta={"dt": dt, "n_steps": n_steps,
                                "chunks": len(chunks)})


#: a run whose chunks hold fewer trial-steps than this stays in the calling
#: process.  Forking and reaping a worker costs about 4 ms, and a forked
#: chunk faults in its own pages.  On 2 vCPUs ``tools/layer_timings.py``
#: (``crossover``) read a 2-chunk OU-z echo slower forked at 2.5 x 10^4
#: trial-steps per chunk in each of 4 runs, and faster from 10^5 up in
#: each (from 5 x 10^4 up in 3 of them).  So the
#: benchmark's 0.75 pi, pi and 5 pi echoes (2,048 x 64, 108 and 624
#: trial-steps per chunk) fork; small test runs, a 3-trial recompute in
#: chunks of 2 and 64-trial static runs do not
_FORK_MIN_TRIAL_STEPS = 100_000


def _usable_cpus() -> int:
    """CPUs that :func:`monte_carlo` may spread trial chunks over."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _workers(n_chunks: int, chunk_trial_steps: int) -> int:
    """Processes that share a run's chunks, the calling one included.

    One unless the run has several chunks large enough to pay for a fork,
    and no other thread is live: a forked child holds only the forking
    thread, so a lock that another one held would stay held in it.
    """
    if (n_chunks < 2 or chunk_trial_steps < _FORK_MIN_TRIAL_STEPS
            or threading.active_count() > 1):
        return 1
    return min(_usable_cpus(), n_chunks)


#: the list :func:`mc_vs_model` sets to take the workers of its ensemble
#: unreaped, so that they exit while it computes its model; None, the
#: default, has :func:`_run_chunks` reap them itself
_unreaped = contextvars.ContextVar("_unreaped", default=None)


def _run_chunks(run_chunk, chunks, n_record: int, workers: int):
    """Welford totals (count, mean, M2) of the chunks' batches.

    ``run_chunk(start, stop)`` returns the ``(stop - start, n_record)``
    populations of one chunk.  Chunk c runs in worker c % workers: worker
    0 is the calling process, each other one a forked child that sends its
    batches back over a pipe.  Batches are merged in chunk order whichever
    process ran them, so the totals are bit-identical for any worker
    count.  A child's failure is raised here as a RuntimeError naming the
    chunk.  Once every batch is in, the children are reaped here, or
    handed to the list in ``_unreaped`` if one is set; a child whose
    batches are not all in is killed and reaped here.  No child outlives
    the call, or the owner of that list, whether it returns or raises.
    """
    children = []                   # (pid, read end) of workers 1, 2, ...
    done = False
    try:
        for w in range(1, workers):
            children.append(_fork_worker(run_chunk, chunks, w, workers,
                                         n_record))
        count, mean, m2 = 0, None, None
        for c, (start, stop) in enumerate(chunks):
            w = c % workers
            if w == 0:
                batch = run_chunk(start, stop)
            else:
                batch = _receive(children[w - 1][1], c, start, stop,
                                 n_record)
            count, mean, m2 = _merge_welford(count, mean, m2, batch)
        done = True
        return count, mean, m2
    finally:
        later = _unreaped.get()
        if done and later is not None:
            later.extend(children)
        else:
            _reap(children, kill=not done)


def _reap(children, kill: bool) -> None:
    """Close each ``(pid, read end)``'s pipe and wait for the pid to exit,
    killing it first if ``kill``."""
    for pid, reader in children:
        reader.close()
        if kill:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _fork_worker(run_chunk, chunks, w: int, workers: int, n_record: int):
    """Fork worker ``w`` to run chunks w, w + workers, ...; returns
    ``(pid, read end of its pipe)`` in the parent.

    The child writes b"D" and the batch's bytes for each chunk, or b"E"
    and the error's text for the first one that fails, and leaves through
    ``os._exit``, so it never flushes the parent's stdio buffers or runs
    its exit handlers.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    status = 1
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as pipe:
            for start, stop in chunks[w::workers]:
                try:
                    batch = run_chunk(start, stop)
                except BaseException as exc:
                    text = "".join(traceback.format_exception_only(exc))
                    pipe.write(b"E" + text.strip().encode())
                    break
                pipe.write(b"D")
                pipe.write(memoryview(batch))
                pipe.flush()
            else:
                status = 0
    finally:
        os._exit(status)


def _receive(reader, c: int, start: int, stop: int, n_record: int):
    """Chunk c's batch, read from the worker that ran it."""
    tag = reader.read(1)
    if tag == b"D":
        batch = np.empty((stop - start, n_record))
        if reader.readinto(memoryview(batch).cast("B")) == batch.nbytes:
            return batch
    cause = (reader.read().decode(errors="replace") if tag == b"E"
             else "the worker ended without sending it")
    raise RuntimeError(f"trial chunk {c} (trials {start}..{stop - 1}) "
                       f"failed in a worker process: {cause}")


def decay_scenario(seq: PulseSequence, spec: NoiseSpec) -> DecayScenario:
    """The closed-form models' view of ``seq`` run under ``spec``."""
    return DecayScenario(sequence=seq.kind, axis=spec.axis, kind=spec.kind,
                         sigma=spec.sigma,
                         tau_c=spec.tau_c if spec.kind == "ou" else 0.0,
                         theta=seq.theta, omega=seq.omega)


def mc_vs_model(seq: PulseSequence, delta_omega: float, spec: NoiseSpec,
                trials: int, record_times: np.ndarray | None = None):
    """``(EnsembleResult, model)``, the model on the ensemble's times.

    The model is :func:`exact_mean` under OU noise and
    :func:`remag.models.mean_signal` under static noise, and None where
    that model raises ValueError.  exact_mean raises for a bath past its
    hierarchy's level cap; mean_signal for static drive noise on Ramsey,
    for static drive noise or a static-z Rabi off resonance, and for a
    rotary echo read off its full echoes (see its docstring).

    The model is computed once the ensemble's last batch is read, while
    its worker processes (if it forked any) exit; they are reaped before
    the call returns or raises.
    """
    unreaped = []
    token = _unreaped.set(unreaped)
    try:
        res = monte_carlo(seq, delta_omega, spec, trials=trials,
                          record_times=record_times)
        try:
            if spec.kind == "ou":
                return res, exact_mean(seq, delta_omega, spec, res.times)
            return res, np.atleast_1d(mean_signal(decay_scenario(seq, spec),
                                                  res.times, delta_omega))
        except ValueError:
            return res, None
    finally:
        _unreaped.reset(token)
        _reap(unreaped, kill=False)


#: :func:`exact_mean`'s first and largest hierarchy depth, and the gap
#: between the means at K and 2K levels below which it stops
_HIERARCHY_LEVELS = 12
_HIERARCHY_MAX_LEVELS = 96
_HIERARCHY_TOL = 1e-9


def exact_mean(seq: PulseSequence, delta_omega: float, spec: NoiseSpec,
               times) -> np.ndarray:
    """Exact noise-averaged signal under OU noise at ``times`` (s).

    The readout is :func:`monte_carlo`'s; the mean Bloch vector is R_0 of
    the Hermite hierarchy of Kubo's stochastic Liouville equation (Kubo,
    J. Math. Phys. 4, 174 (1963); Tanimura & Kubo, J. Phys. Soc. Jpn. 58,
    101 (1989)).  R_k = E[r He_k(x/sigma)/sqrt(k!)], x the noise value,
    obeys dR/dt = (1 (x) A0 + X (x) B - D (x) 1) R: A0 the noiseless
    generator, B its derivative in x, X = sigma tridiag(sqrt k) and
    D = diag(k/tau_c).  It is stepped from record to record by one matrix
    exponential per distinct (amplitude, length) of piece.  K = 12 levels
    double while the means at K and 2K differ by more than 1e-9; static
    noise, and a bath that needs more than 96 levels, are a ValueError.
    The exponentials are :func:`_expm`'s scaling and squaring (Higham,
    SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).
    """
    if spec.kind != "ou":
        raise ValueError("the exact mean covers OU noise only")
    wave = build_waveform(seq, delta_omega)
    # record times in segments, snapped onto nearby segment boundaries
    pos = np.atleast_1d(times) / wave.segment
    pos = np.where(np.abs(pos - np.rint(pos)) < 1e-9, np.rint(pos), pos)
    if np.any(pos < 0.0) or np.any(pos > wave.amplitudes.size):
        raise ValueError("times must lie within the sequence")
    grid = np.union1d(np.arange(math.ceil(pos.max())), pos)
    pieces = list(zip(wave.amplitudes[grid[:-1].astype(int)].tolist(),
                      np.round(np.diff(grid), 12).tolist()))
    # Ramsey starts after the opening pi/2 pulse about x and reads out
    # (1 - r_y)/2 through the closing one
    read = np.array([0.0, -1.0, 0.0] if seq.kind == "ramsey"
                    else [0.0, 0.0, 1.0])
    # rotation generators: lx r = x cross r, lz r = z cross r
    lx = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    lz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def solve(levels):
        root = np.sqrt(np.arange(1, levels + 1))
        x_op = spec.sigma * (np.diag(root, 1) + np.diag(root, -1))
        decay = np.diag(np.repeat(np.arange(levels + 1) / spec.tau_c, 3))
        state = np.concatenate([read, np.zeros(3 * levels)])
        bloch, steps = [read], {}
        for amp, length in pieces:
            if (amp, length) not in steps:
                a0 = amp * lx - delta_omega * lz
                b = math.copysign(1.0, amp) * lx if spec.axis == "x" else -lz
                # 1 (x) A0 + X (x) B - D, with [k, i, l, j] blocks
                gen = (np.eye(levels + 1)[:, None, :, None] * a0[:, None]
                       + x_op[:, None, :, None] * b[:, None])
                gen = gen.reshape(decay.shape) - decay
                steps[amp, length] = _expm(length * wave.segment * gen)
            state = steps[amp, length] @ state
            bloch.append(state[:3])
        return 0.5 * (1.0 + np.array(bloch)[np.searchsorted(grid, pos)] @ read)

    levels, mean = _HIERARCHY_LEVELS, solve(_HIERARCHY_LEVELS)
    while levels < _HIERARCHY_MAX_LEVELS:
        levels, coarse, mean = 2 * levels, mean, solve(2 * levels)
        if np.max(np.abs(mean - coarse)) <= _HIERARCHY_TOL:
            return mean
    raise ValueError(f"the exact mean needs more than "
                     f"{_HIERARCHY_MAX_LEVELS} hierarchy levels")


#: Higham's (2005) Pade degrees m, with theta_m, the largest |a|_1 at which
#: the [m/m] approximant to exp(a) is accurate to double precision, and the
#: approximant's coefficients b_0 .. b_m
_PADE = (
    (3, 1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (5, 2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (7, 9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0,
                               25200.0, 1512.0, 56.0, 1.0)),
    (9, 2.097847961257068, (17643225600.0, 8821612800.0, 2075673600.0,
                            302702400.0, 30270240.0, 2162160.0, 110880.0,
                            3960.0, 90.0, 1.0)),
    (13, 5.371920351148152, (64764752532480000.0, 32382376266240000.0,
                             7771770303897600.0, 1187353796428800.0,
                             129060195264000.0, 10559470521600.0,
                             670442572800.0, 33522128640.0, 1323241920.0,
                             40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a real square matrix, by scaling and squaring.

    Higham's Algorithm 2.3 (SIAM J. Matrix Anal. Appl. 26, 1179 (2005)):
    the [m/m] Pade approximant r_m = (V - U)^-1 (V + U), U odd and V even
    in a, of the least degree m in 3, 5, 7, 9 with |a|_1 <= theta_m; past
    theta_9, r_13 of a / 2^s, s the least with |a|_1 / 2^s <= theta_13,
    squared s times.  The zero matrix gives the identity exactly.
    """
    norm = float(np.abs(a).sum(axis=0).max())
    eye = np.eye(a.shape[0])
    a2 = a @ a
    for m, theta, b in _PADE[:-1]:
        if norm <= theta:
            powers = [eye, a2]
            for _ in range(2, m // 2 + 1):
                powers.append(powers[-1] @ a2)
            u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
            v = sum(b[2 * k] * p for k, p in enumerate(powers))
            return np.linalg.solve(v - u, v + u)
    _, theta, b = _PADE[-1]
    s = max(0, math.ceil(math.log2(norm / theta)))
    scale = 0.5 ** s
    a, a2 = a * scale, a2 * (scale * scale)
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


#: records the kernel copies out before it turns them into populations,
#: all at once
_RECORD_ROWS = 32


def _population(psi0, psi1, ramsey):
    if ramsey:
        # ideal instantaneous closing pi/2 pulse (inverse of the opener,
        # so the signal starts at 1 like the driven sequences)
        return np.abs((psi0 + 1j * psi1) / math.sqrt(2.0)) ** 2
    return np.abs(psi0) ** 2


def _propagate_batch(amp_steps, delta_omega, axis, blocks, count, dt,
                     record_idx, ramsey=False):
    """Propagate a batch of ``count`` trials through their noise blocks.

    Each ``(m, count)`` block of ``blocks``, one row per step, is stepped
    through as soon as it is drawn; returns populations (count, n_record).
    A step applies exp(-i (hx sx + hz sz) dt), with hx = amp/2 and
    hz = -w/2 for drive amplitude amp and total detuning w, in place:
    a = cos(phi) - i hz dt sinc, b = -i hx dt sinc, with phi = |h| dt and
    sinc = sin(phi)/phi, then psi0' = a psi0 + b psi1 and
    psi1' = b psi0 + conj(a) psi1.  It drops the global phase
    exp(-i w dt/2) that :func:`remag.dynamics.su2_step` keeps: both
    readouts are invariant under a phase shared by a trial's amplitudes.

    A block whose rows are all one row (row stride 0, the read-only view
    :func:`_noise_blocks` yields for static noise) has one step per drive
    amplitude, as the grid step is uniform: its (a, conj(a), b) are
    computed once.  The block is cut at the records into intervals, and
    an interval's product depends only on its pattern of amplitudes.  The
    first interval of a pattern that recurs and spans several steps is
    stepped on stacks that carry the two basis vectors beside the state,
    which gives its 2x2 product in the same ufunc calls; every later
    interval of that pattern applies the product, one 2x2 update.  Records
    up to the first reuse have the bits of stepping; a reused product
    rounds apart from the steps by a few ulps.  Every other block computes
    its step anew at each row.  Nothing is stepped past the last record.

    Each record's state is copied into a buffer of ``_RECORD_ROWS`` rows,
    which is turned into populations when it fills and at the end.
    """
    n_record = len(record_idx)
    out = np.empty((count, n_record))
    # psi0 and psi1 are row 0 of two stacks, whose rows 1 and 2 carry the
    # basis vectors through an interval whose product is kept; an update
    # writes psi0' into a third stack, which then swaps with the first
    stack = [np.empty((3, count), dtype=complex) for _ in range(4)]
    state = [rows[0] for rows in stack]     # psi0, psi0', psi1, scratch
    if ramsey:
        # state right after the ideal opening pi/2 pulse about x
        state[0][...] = 1.0 / math.sqrt(2.0)
        state[2][...] = -1j / math.sqrt(2.0)
    else:
        state[0][...] = 1.0
        state[2][...] = 0.0

    def apply(updates, s):
        # psi0' = m00 psi0 + m01 psi1 and psi1' = m11 psi1 + m10 psi0 for
        # each (m00, m01, m10, m11) in turn, on s: state, or all of stack
        psi0, new0, psi1, tmp = s
        for m00, m01, m10, m11 in updates:
            np.multiply(m00, psi0, out=new0)
            np.multiply(m01, psi1, out=tmp)
            new0 += tmp
            np.multiply(m10, psi0, out=tmp)
            psi1 *= m11
            psi1 += tmp
            psi0, new0 = new0, psi0
        if psi0 is not s[0]:
            stack[0], stack[1] = stack[1], stack[0]
            state[0], state[1] = state[1], state[0]

    amps, records = amp_steps.tolist(), record_idx.tolist()
    rows0 = np.empty((min(n_record, _RECORD_ROWS), count), dtype=complex)
    rows1 = np.empty_like(rows0) if ramsey else None
    pos = filled = 0                    # records taken, of them unflushed

    def record():
        nonlocal pos, filled
        rows0[filled] = state[0]
        if ramsey:
            rows1[filled] = state[2]
        pos += 1
        filled += 1
        if filled == len(rows0) or pos == n_record:
            out[:, pos - filled:pos] = _population(
                rows0[:filled], rows1[:filled] if ramsey else None,
                ramsey).T
            filled = 0

    if records[0] == 0:
        record()

    # per step, -h dt = (-hx dt, -hz dt) is one component that the noise
    # moves, gain * noise + offset, and one that it does not, fixed; all
    # three follow from the step's drive amplitude
    half = 0.5 * dt

    def coeffs(amp):
        if axis == "x":
            # the noise adds to the drive's magnitude (to the drive
            # itself where there is none)
            gain = -math.copysign(half, amp) if amp != 0.0 else -half
            return gain, -half * amp, half * delta_omega
        return half, half * delta_omega, -half * amp

    step_coeffs = {amp: coeffs(amp) for amp in np.unique(amp_steps).tolist()}

    moved, phi, sinc = np.empty(count), np.empty(count), np.empty(count)
    a, b = np.empty(count, dtype=complex), np.zeros(count, dtype=complex)
    a_conj = np.empty(count, dtype=complex)
    # a.imag = -hz dt sinc and b.imag = -hx dt sinc
    moved_imag, fixed_imag = ((b.imag, a.imag) if axis == "x"
                              else (a.imag, b.imag))
    a_real = a.real
    # sin(phi)/phi is exactly 1 at the smallest normal float, so h = 0
    # gives the identity
    tiny = np.finfo(float).tiny
    update = (a, b, b, a_conj)

    def step(noise, amp):
        # the step's update (a, b, b, conj(a)), in the shared buffers
        g, o, f = step_coeffs[amp]
        np.multiply(noise, g, out=moved)
        np.add(moved, o, out=moved)
        np.multiply(moved, moved, out=phi)
        np.add(phi, f * f, out=phi)
        np.sqrt(phi, out=phi)
        np.maximum(phi, tiny, out=phi)
        np.cos(phi, out=a_real)
        np.sin(phi, out=sinc)
        np.divide(sinc, phi, out=sinc)
        np.multiply(sinc, moved, out=moved_imag)
        np.multiply(sinc, f, out=fixed_imag)
        np.conjugate(a, out=a_conj)
        return update

    basis = np.eye(2, dtype=complex)[:, :, None]    # psi0 rows, psi1 rows

    def static_block(noise, start, stop):
        # steps start .. stop - 1 under one noise row: up to the last
        # record among them, or to stop if a later block holds records
        last = bisect.bisect_right(records, stop, pos)
        bounds = [start, *records[pos:last]]
        if last < n_record:
            bounds.append(stop)
        held = {}
        for amp in set(amps[start:bounds[-1]]):
            sa, sb, _, sa_conj = step(noise, amp)
            sb = sb.copy()
            held[amp] = (sa.copy(), sb, sb, sa_conj.copy())
        patterns = [tuple(amps[s:e]) for s, e in zip(bounds, bounds[1:])]
        recurs = Counter(p for p in patterns if len(p) > 1)
        products, n_cuts = {}, last - pos
        for i, pattern in enumerate(patterns):
            product = products.get(pattern)
            if product is not None:
                apply(product, state)
            elif recurs[pattern] > 1:
                stack[0][1:], stack[2][1:] = basis
                apply([held[amp] for amp in pattern], stack)
                # the images of the basis vectors: the product's columns
                products[pattern] = (tuple(np.concatenate(
                    (stack[0][1:], stack[2][1:]))),)
            else:
                apply([held[amp] for amp in pattern], state)
            if i < n_cuts:
                record()

    k = 0
    for block in blocks:
        if pos == n_record:
            break
        if block.strides[0] == 0 and len(block):
            static_block(block[0], k, k + len(block))
            k += len(block)
            continue
        for noise in block:
            apply((step(noise, amps[k]),), state)
            k += 1
            if pos < n_record and records[pos] == k:
                record()
    np.clip(out, 0.0, 1.0, out=out)
    return out
