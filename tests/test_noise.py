import math
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.signal import lfilter
from scipy.special import ndtri

from remag.dynamics import (PulseSequence, build_waveform, full_echo_times,
                            propagate, segment_unitary, su2_step,
                            _hamiltonian_coeffs)
from remag import noise as noise_module
from remag.models import (mean_signal, ou_zeta_prime, ou_zeta_re_x,
                          ramsey_signal, t_prime_ramsey)
from remag.noise import (_BLOCK_STEPS, NoiseSpec, _noise_blocks,
                         _propagate_batch, exact_mean, mc_vs_model,
                         monte_carlo, sample_path)
from remag.units import mhz_to_rad
from test_grid import PRESET_OU_CASES

SIGMA = mhz_to_rad(1.0)
TAU_C = 2e-7
BIG_SEED = 2**63 + 12345


def reference_path(spec, n_steps, dt, trial_index, sigma):
    """One trial drawn on its own: Generator(Philox(key)) -> ndtri -> lfilter."""
    key = np.array([spec.seed, trial_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    if spec.kind == "static":
        return np.full(n_steps, sigma * float(ndtri(rng.random(()))))
    xi = ndtri(rng.random(n_steps))
    alpha = math.exp(-dt / spec.tau_c)
    beta = sigma * math.sqrt(1.0 - alpha * alpha)
    x0 = sigma * xi[0]
    rest, _ = lfilter([beta], [1.0, -alpha], xi[1:], zi=np.array([alpha * x0]))
    return np.concatenate(([x0], rest))


def recompute(seq, delta_omega, spec, res):
    """Mean over trials of sample_path stepped through exact SU(2) steps."""
    dt, n_steps = res.meta["dt"], res.meta["n_steps"]
    wave = build_waveform(seq, delta_omega)
    amp_steps = np.repeat(wave.amplitudes, n_steps // wave.amplitudes.size)
    idx = np.rint(res.times / dt).astype(int)
    pops = []
    for i in range(res.trials):
        x = sample_path(spec, n_steps * dt, dt, trial_index=i).values
        psi = np.array([1.0 + 0j, 0j])
        pop = [1.0]
        for amp, xk in zip(amp_steps, x):
            if spec.axis == "x":
                psi = segment_unitary(amp + math.copysign(1.0, amp) * xk,
                                      delta_omega, dt) @ psi
            else:
                psi = segment_unitary(amp, delta_omega + xk, dt) @ psi
            pop.append(abs(psi[0]) ** 2)
        pops.append(np.asarray(pop)[idx])
    return np.mean(pops, axis=0)


def reference_populations(amp_steps, delta_omega, axis, noise, dt, ramsey):
    """Populations after every step of su2_step, exact phase included."""
    count = noise.shape[1]
    if ramsey:
        psi0 = np.full(count, 1 / math.sqrt(2), dtype=complex)
        psi1 = np.full(count, -1j / math.sqrt(2), dtype=complex)
    else:
        psi0, psi1 = np.ones(count, complex), np.zeros(count, complex)

    def readout():
        if ramsey:
            return np.abs((psi0 + 1j * psi1) / math.sqrt(2)) ** 2
        return np.abs(psi0) ** 2

    pops = [readout()]
    for amp, x in zip(amp_steps, noise):
        if axis == "x":
            amp_k = amp + math.copysign(1.0, amp) * x if amp != 0.0 else x
            w = delta_omega
        else:
            amp_k, w = amp, delta_omega + x
        psi0, psi1 = su2_step(psi0, psi1, *_hamiltonian_coeffs(amp_k, w), dt)
        pops.append(readout())
    return np.array(pops).T


class TestGenerator:
    def test_static_is_constant(self):
        spec = NoiseSpec(axis="z", kind="static", sigma=SIGMA, seed=4)
        path = sample_path(spec, 1e-6, 1e-9)
        assert np.all(path.values == path.values[0])

    def test_ou_stationary_moments(self):
        spec = NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C, seed=10)
        dt = TAU_C / 20
        path = sample_path(spec, 1e5 * dt, dt)
        x = path.values
        var = x.var()
        assert abs(var / SIGMA ** 2 - 1.0) < 0.03
        lag = 20  # one correlation time
        acov = np.mean(x[:-lag] * x[lag:])
        assert abs(acov / (SIGMA ** 2 * math.exp(-1.0)) - 1.0) < 0.05

    def test_trials_are_independent_and_reproducible(self):
        spec = NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C, seed=2)
        a = sample_path(spec, 1e-6, 1e-8, trial_index=0)
        b = sample_path(spec, 1e-6, 1e-8, trial_index=1)
        a2 = sample_path(spec, 1e-6, 1e-8, trial_index=0)
        assert np.array_equal(a.values, a2.values)
        assert not np.array_equal(a.values, b.values)

    def test_dt_guard(self):
        spec = NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C, seed=0)
        with pytest.raises(ValueError):
            sample_path(spec, 1e-6, TAU_C)  # far coarser than tau_c/20

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(axis="y", kind="ou", sigma=SIGMA, tau_c=TAU_C)
        with pytest.raises(ValueError):
            NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=0.0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_64_bits_rejected(self, seed):
        # masked to 64 bits, -1 would alias 2**64 - 1 and 2**64 + 5 seed 5
        with pytest.raises(ValueError, match="seed"):
            NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C, seed=seed)

    @pytest.mark.parametrize("a, b", [(2**64 - 1, 0), (2**64 - 1, 2**64 - 2),
                                      (2**63 + 1, 2**63)])
    def test_seeds_above_2_63_keep_their_own_stream(self, a, b):
        def path(seed):
            spec = NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C,
                             seed=seed)
            return sample_path(spec, 1e-7, 1e-9).values
        assert not np.array_equal(path(a), path(b))


# (spec, n_steps, dt): n_steps spans four blocks and is no multiple of 4
BLOCK_CASES = [
    (NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C, seed=BIG_SEED),
     3 * _BLOCK_STEPS + 7, TAU_C / 20),
    (NoiseSpec(axis="x", kind="ou", sigma=SIGMA, tau_c=TAU_C, seed=5),
     3 * _BLOCK_STEPS + 5, TAU_C / 23),
    (NoiseSpec(axis="x", kind="static", sigma=SIGMA, seed=BIG_SEED),
     3 * _BLOCK_STEPS + 3, 1e-9),
]
BLOCK_IDS = ["ou-z", "ou-x", "static-x"]


class TestBlockedStreams:
    @pytest.mark.parametrize("spec, n_steps, dt", BLOCK_CASES, ids=BLOCK_IDS)
    def test_sample_path_is_the_per_trial_formula(self, spec, n_steps, dt):
        for i in (0, 3):
            path = sample_path(spec, n_steps * dt, dt, trial_index=i)
            assert np.array_equal(path.values,
                                  reference_path(spec, n_steps, dt, i,
                                                 spec.sigma))

    def test_one_step_ou_path_is_its_first_value(self):
        spec = BLOCK_CASES[0][0]
        dt = TAU_C / 20
        path = sample_path(spec, dt, dt, trial_index=3)
        assert np.array_equal(path.values,
                              reference_path(spec, 1, dt, 3, spec.sigma))

    # a block of 127 steps ends inside a Philox counter's four words; the
    # row-by-row OU update matches the reference's lfilter bit for bit at
    # any chunk width
    @pytest.mark.parametrize("count", [1, 3, 128])
    @pytest.mark.parametrize("block", [_BLOCK_STEPS, 127])
    @pytest.mark.parametrize("spec, n_steps, dt", BLOCK_CASES, ids=BLOCK_IDS)
    def test_time_blocks_are_the_per_trial_formula(self, spec, n_steps, dt,
                                                   block, count):
        sigma = 2.5 * SIGMA
        blocks = list(_noise_blocks(replace(spec, sigma=sigma), dt, 2, count,
                                    n_steps, block))
        if spec.kind == "ou":
            assert [b.shape[0] for b in blocks] == [block] * 3 + [
                n_steps - 3 * block]
        got = np.concatenate(blocks).T
        want = np.stack([reference_path(spec, n_steps, dt, i, sigma)
                         for i in range(2, 2 + count)])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seq, dt_max, spec", [
        # tau_c/20 grid: 13 steps per half echo, 390 steps
        (PulseSequence.rotary_echo(5 * math.pi, mhz_to_rad(20.0), 15), None,
         NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C,
                   seed=BIG_SEED)),
        # 201 steps per half echo, 402 steps
        (PulseSequence.rotary_echo(math.pi, mhz_to_rad(20.0), 1), 25e-9 / 200.5,
         NoiseSpec(axis="x", kind="ou", sigma=SIGMA, tau_c=TAU_C, seed=17)),
        (PulseSequence.rotary_echo(math.pi, mhz_to_rad(20.0), 1), 25e-9 / 200.5,
         NoiseSpec(axis="x", kind="static", sigma=SIGMA, seed=BIG_SEED)),
    ], ids=BLOCK_IDS)
    def test_monte_carlo_matches_per_trial_recompute(self, seq, dt_max, spec):
        # five trials in unequal chunks of 3 and 2
        delta = mhz_to_rad(2.0)
        res = monte_carlo(seq, delta, spec, trials=5, dt_max=dt_max, chunk=3)
        assert res.meta["n_steps"] % 4 != 0
        assert res.meta["n_steps"] > 3 * _BLOCK_STEPS
        assert res.meta["chunks"] == 2
        assert np.max(np.abs(res.mean - recompute(seq, delta, spec, res))) < 1e-12

    def test_memory_stays_bounded_on_long_runs(self):
        # 256 trials x 10,000 steps: the whole path array would be 20 MB
        seq = PulseSequence.ramsey(10e-6)
        spec = NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C, seed=8)
        tracemalloc.start()
        try:
            res = monte_carlo(seq, mhz_to_rad(1.0), spec, trials=256,
                              dt_max=1e-9,
                              record_times=np.linspace(0.0, 10e-6, 11))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.meta["n_steps"] == 10_000
        assert peak < 4e6


class TestKernel:
    # a 260-step rotary echo at 20 MHz and a Ramsey free evolution (amp
    # 0), each under dephasing (z) and under drive (x) noise
    @pytest.mark.parametrize("axis, amp_steps, ramsey", [
        ("z", np.repeat([1.0, -1.0] * 10, 13) * mhz_to_rad(20.0), False),
        ("x", np.repeat([1.0, -1.0] * 10, 13) * mhz_to_rad(20.0), False),
        ("z", np.zeros(260), True),
        ("x", np.zeros(260), True),
    ], ids=["ou-z-echo", "ou-x-echo", "ou-z-ramsey", "ou-x-ramsey"])
    def test_step_matches_su2_step(self, axis, amp_steps, ramsey):
        spec = NoiseSpec(axis=axis, kind="ou", sigma=SIGMA, tau_c=TAU_C,
                         seed=3)
        dt, delta = TAU_C / 20, mhz_to_rad(2.0)
        blocks = list(_noise_blocks(replace(spec, sigma=3 * SIGMA), dt, 0, 16,
                                    amp_steps.size, _BLOCK_STEPS))
        got = _propagate_batch(amp_steps, delta, axis, iter(blocks), 16, dt,
                               np.arange(amp_steps.size + 1), ramsey)
        want = reference_populations(amp_steps, delta, axis,
                                     np.concatenate(blocks), dt, ramsey)
        assert np.max(np.abs(got - want)) < 1e-13

    # a 20-cycle rotary echo, Rabi and a Ramsey free evolution (amp 0),
    # 13 steps per segment
    @pytest.mark.parametrize("axis", ["z", "x"])
    @pytest.mark.parametrize("amp_steps, ramsey", [
        (np.repeat([1.0, -1.0] * 10, 13) * mhz_to_rad(20.0), False),
        (np.full(260, mhz_to_rad(20.0)), False),
        (np.zeros(260), True),
    ], ids=["echo", "rabi", "ramsey"])
    def test_static_block_reuses_steps_bit_for_bit(self, axis, amp_steps,
                                                   ramsey):
        # the static block's rows share one row (stride 0), so the kernel
        # builds each distinct interval's update once, here one step of
        # one amplitude; its copy is stepped row by row as OU noise is
        spec = NoiseSpec(axis=axis, kind="static", sigma=3 * SIGMA, seed=3)
        dt, delta = TAU_C / 20, mhz_to_rad(2.0)
        block, = _noise_blocks(spec, dt, 0, 16, amp_steps.size, _BLOCK_STEPS)
        copy = np.ascontiguousarray(block)
        assert block.strides[0] == 0 and copy.strides[0] != 0
        record_idx = np.arange(amp_steps.size + 1)
        got, want = (_propagate_batch(amp_steps, delta, axis, iter([b]), 16,
                                      dt, record_idx, ramsey)
                     for b in (block, copy))
        assert np.array_equal(got, want)

    # record sets over the 260 steps of the sequences below: every
    # full echo of 26 steps and every 13 steps (repeating intervals), every
    # 13 steps from step 52 on (a first interval of 52 steps from step 0),
    # every 13 steps up to step 195 only (nothing stepped past it), gaps
    # of 1, 2, .. 22 steps, shuffled (no interval repeats), and 40 steps
    # drawn at random
    RECORD_SETS = {
        "every-26": np.arange(0, 261, 26),
        "every-13": np.arange(0, 261, 13),
        "late-start": np.arange(52, 261, 13),
        "early-stop": np.arange(0, 196, 13),
        "distinct": np.concatenate(([0], np.cumsum(
            np.random.default_rng(7).permutation(np.arange(1, 23))))),
        "random": np.unique(np.concatenate(([0], np.random.default_rng(
            11).choice(np.arange(1, 261), 40, replace=False)))),
    }

    @pytest.mark.parametrize("axis", ["z", "x"])
    @pytest.mark.parametrize("amp_steps, ramsey", [
        (np.repeat([1.0, -1.0] * 10, 13) * mhz_to_rad(20.0), False),
        (np.repeat([1.0, -1.0] * 130, 1) * mhz_to_rad(20.0), False),
        (np.full(260, mhz_to_rad(20.0)), False),
        (np.zeros(260), True),
    ], ids=["echo", "echo-1step", "rabi", "ramsey"])
    @pytest.mark.parametrize("records", RECORD_SETS)
    def test_interval_products_match_stepping(self, axis, amp_steps, ramsey,
                                              records):
        # the static block applies one 2x2 product per distinct interval
        # between records, one exact step per run of equal amplitude; its
        # copy is stepped row by row
        spec = NoiseSpec(axis=axis, kind="static", sigma=3 * SIGMA, seed=3)
        dt, delta = TAU_C / 20, mhz_to_rad(2.0)
        block, = _noise_blocks(spec, dt, 0, 16, amp_steps.size, _BLOCK_STEPS)
        record_idx = self.RECORD_SETS[records]
        got, want = (_propagate_batch(amp_steps, delta, axis, iter([b]), 16,
                                      dt, record_idx, ramsey)
                     for b in (block, np.ascontiguousarray(block)))
        assert np.max(np.abs(got - want)) <= 1e-13
        # bit for bit up to the first interval from step 0 that holds a
        # run of several grid steps (one exact step in place of several)
        # or that holds several runs and starts after step 0 (a product
        # applied to a state that is not a basis vector): the records up
        # to that interval's start
        bounds = np.union1d([0], record_idx)
        first_inexact = len(bounds) - 1
        for j, (s, e) in enumerate(zip(bounds, bounds[1:])):
            runs = [len(list(run)) for _, run in groupby(amp_steps[s:e])]
            if max(runs) > 1 or (len(runs) > 1 and s > 0):
                first_inexact = j
                break
        exact = np.searchsorted(record_idx, bounds[first_inexact], "right")
        assert np.array_equal(got[:, :exact], want[:, :exact])
        # so the first interval is exact only on the one-step echo, whose
        # runs are single steps: the grid the CLI's echoes run on
        one_step = np.all(amp_steps[1:] != amp_steps[:-1])
        assert first_inexact == (1 if one_step else 0)

    def test_static_record_buffer_is_bounded(self):
        # 5,000 full echoes of one step per half echo at 256 trials: the
        # (256, 5,001) populations take 10 MB, a complex copy of every
        # record would take twice that
        amp_steps = np.tile([1.0, -1.0], 5000) * mhz_to_rad(20.0)
        spec = NoiseSpec(axis="x", kind="static", sigma=SIGMA, seed=4)
        dt = math.pi / mhz_to_rad(20.0)
        record_idx = np.arange(0, amp_steps.size + 1, 2)
        tracemalloc.start()
        try:
            out = _propagate_batch(
                amp_steps, 0.0, "x",
                _noise_blocks(spec, dt, 0, 256, amp_steps.size, _BLOCK_STEPS),
                256, dt, record_idx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (256, 5001)
        assert peak < 1.25 * out.nbytes

    def test_zero_field_step_is_the_identity(self):
        # noise of exactly -delta cancels the only field of a Ramsey run
        delta, n_steps = mhz_to_rad(2.0), 50
        blocks = [np.full((n_steps, 4), -delta)]
        got = _propagate_batch(np.zeros(n_steps), delta, "z", iter(blocks), 4,
                               1e-8, np.arange(n_steps + 1), ramsey=True)
        assert np.all(got == got[:, :1])
        assert np.allclose(got, 1.0, rtol=0.0, atol=1e-15)


class TestBitgenPool:
    SPEC = BLOCK_CASES[0][0]
    N_STEPS, DT = BLOCK_CASES[0][1], BLOCK_CASES[0][2]

    def blocks(self, seed, first, count):
        spec = NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C,
                         seed=seed)
        return _noise_blocks(spec, self.DT, first, count, self.N_STEPS, 127)

    def reference(self, seed, first, count):
        spec = NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C,
                         seed=seed)
        return np.stack([reference_path(spec, self.N_STEPS, self.DT, i, SIGMA)
                         for i in range(first, first + count)])

    def test_reuse_after_a_wider_chunk_is_a_fresh_stream(self):
        # the wider chunk leaves its generators mid-counter and mid-buffer
        list(self.blocks(5, 0, 40))
        got = np.concatenate(list(self.blocks(BIG_SEED, 7, 3))).T
        assert np.array_equal(got, self.reference(BIG_SEED, 7, 3))

    def test_closed_and_live_draws_do_not_shift_each_other(self):
        closed = self.blocks(5, 0, 6)
        next(closed)
        closed.close()
        a, b = self.blocks(1, 0, 4), self.blocks(2, 10, 4)
        got_a, got_b = [], []
        for block_a, block_b in zip(a, b):      # two live draws interleaved
            got_a.append(block_a)
            got_b.append(block_b)
        assert np.array_equal(np.concatenate(got_a).T, self.reference(1, 0, 4))
        assert np.array_equal(np.concatenate(got_b).T,
                              self.reference(2, 10, 4))

    def test_threaded_runs_equal_the_serial_run(self):
        # more worker threads than cores, switching as often as possible
        seq = PulseSequence.rotary_echo(math.pi, mhz_to_rad(20.0), 4)
        jobs = [lambda seed=seed: monte_carlo(
                    seq, mhz_to_rad(2.0),
                    NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C,
                              seed=seed),
                    trials=30, chunk=7)
                for seed in range(8)]
        serial = [job() for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(lambda job: job(), jobs))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.stderr, b.stderr)


class TestWorkers:
    """Trial chunks in forked workers, forced by a size threshold of 0."""

    SEQ = PulseSequence.rotary_echo(math.pi, mhz_to_rad(20.0), 4)
    SPECS = [
        NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C, seed=7),
        NoiseSpec(axis="x", kind="ou", sigma=0.05 * mhz_to_rad(20.0),
                  tau_c=TAU_C, seed=BIG_SEED),
        NoiseSpec(axis="x", kind="static", sigma=0.05 * mhz_to_rad(20.0),
                  seed=9),
    ]

    @pytest.fixture
    def forks(self, monkeypatch):
        """The os.fork calls made by this process."""
        calls, real, parent = [], os.fork, os.getpid()

        def counted():
            if os.getpid() == parent:
                calls.append(1)
            return real()

        monkeypatch.setattr(os, "fork", counted)
        return calls

    @staticmethod
    def force(monkeypatch, cpus):
        monkeypatch.setattr(noise_module, "_FORK_MIN_TRIAL_STEPS", 0)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)

    def run(self, spec, trials=40, chunk=20):
        return monte_carlo(self.SEQ, mhz_to_rad(2.0), spec, trials=trials,
                           chunk=chunk)

    @staticmethod
    def assert_no_children():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("spec", SPECS, ids=["ou-z", "ou-x", "static-x"])
    @pytest.mark.parametrize("trials, cpus, n_forks", [
        (40, 2, 1),         # two equal chunks
        (50, 2, 1),         # three uneven chunks: 0 and 2 in the caller
        (50, 3, 2),         # three uneven chunks, one per process
        (50, 8, 2),         # no more workers than chunks
    ])
    def test_forked_run_is_bit_identical(self, monkeypatch, forks, spec,
                                         trials, cpus, n_forks):
        in_process = self.run(spec, trials)
        assert not forks                    # below the size threshold
        self.force(monkeypatch, cpus)
        forked = self.run(spec, trials)
        assert len(forks) == n_forks
        self.assert_no_children()
        assert np.array_equal(forked.times, in_process.times)
        assert np.array_equal(forked.mean, in_process.mean)
        assert np.array_equal(forked.stderr, in_process.stderr)
        assert forked.meta == in_process.meta

    def test_child_error_names_its_chunk(self, monkeypatch, forks):
        real = noise_module._noise_blocks

        def failing(spec, dt, first, *rest):
            if first > 0:
                raise ValueError("injected")
            return real(spec, dt, first, *rest)

        monkeypatch.setattr(noise_module, "_noise_blocks", failing)
        self.force(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"trial chunk 1 \(trials "
                           r"20\.\.39\) .*ValueError: injected"):
            self.run(self.SPECS[0])
        assert len(forks) == 1
        self.assert_no_children()

    @pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
    def test_caller_error_reaps_the_children(self, monkeypatch, forks, exc):
        real = noise_module._noise_blocks

        def failing(spec, dt, first, *rest):
            if first == 0:
                raise exc("injected")
            return real(spec, dt, first, *rest)

        monkeypatch.setattr(noise_module, "_noise_blocks", failing)
        self.force(monkeypatch, 3)
        with pytest.raises(exc, match="injected"):
            self.run(self.SPECS[0], trials=60)
        assert len(forks) == 2
        self.assert_no_children()

    def test_no_fork_with_one_cpu_or_a_second_thread(self, monkeypatch):
        spec = self.SPECS[0]
        in_process = self.run(spec)

        def no_fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", no_fork)
        self.force(monkeypatch, 1)
        assert np.array_equal(self.run(spec).mean, in_process.mean)
        self.force(monkeypatch, 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            got = self.run(spec)
        finally:
            release.set()
            other.join()
        assert np.array_equal(got.mean, in_process.mean)

    def test_threshold_forks_the_benchmark_echoes_only(self, monkeypatch,
                                                       forks):
        monkeypatch.setattr(noise_module, "_usable_cpus", lambda: 2)
        w20, dw = mhz_to_rad(20.0), mhz_to_rad(2.0)
        spec = NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C,
                         seed=1)
        # noise-ou-large's 0.75 pi echo: 2 chunks of 2,048 x 64 trial-steps
        seq = PulseSequence.rotary_echo(0.75 * math.pi, w20, 16)
        assert monte_carlo(seq, dw, spec, 1).meta["n_steps"] == 64
        assert noise_module._workers(2, 2048 * 64) == 2
        # perfbench's recompute of its 5 pi echo (3 trials in chunks of 2)
        # and static runs of 64 trials stay in the calling process
        five_pi = PulseSequence.rotary_echo(5.0 * math.pi, w20, 24)
        assert monte_carlo(five_pi, dw, spec, 3, chunk=2).meta["chunks"] == 2
        echo = PulseSequence.rotary_echo(0.507 * math.pi, mhz_to_rad(19.0),
                                         189)
        static = NoiseSpec(axis="x", kind="static",
                           sigma=0.05 * mhz_to_rad(19.0), seed=1)
        n_steps = monte_carlo(echo, 0.0, static, 64).meta["n_steps"]
        assert noise_module._workers(2, 64 * n_steps) == 1
        assert not forks

    # two chunks of mc_vs_model's 2,048 trials: forked, the caller runs
    # the first and a worker the second
    MODEL_TRIALS = 2048 + 40

    @pytest.mark.parametrize("spec", SPECS, ids=["ou-z", "ou-x", "static-x"])
    def test_model_beside_a_forked_run_is_bit_identical(self, monkeypatch,
                                                        forks, spec):
        monkeypatch.setattr(noise_module, "_FORK_MIN_TRIAL_STEPS", math.inf)
        args = (self.SEQ, 0.0, spec, self.MODEL_TRIALS)
        in_process, model = mc_vs_model(*args)
        assert not forks and model is not None
        self.force(monkeypatch, 2)
        forked, forked_model = mc_vs_model(*args)
        assert len(forks) == 1
        self.assert_no_children()
        assert np.array_equal(forked.times, in_process.times)
        assert np.array_equal(forked.mean, in_process.mean)
        assert np.array_equal(forked.stderr, in_process.stderr)
        assert np.array_equal(forked_model, model)

    @pytest.mark.parametrize("spec", SPECS, ids=["ou-z", "ou-x", "static-x"])
    def test_model_run_holds_the_monte_carlo_ensemble(self, monkeypatch,
                                                      forks, spec):
        # mc_vs_model's ensemble is monte_carlo's on the same arguments,
        # in process and forked
        monkeypatch.setattr(noise_module, "_FORK_MIN_TRIAL_STEPS", math.inf)
        args = (self.SEQ, 0.0, spec, self.MODEL_TRIALS)
        for n_workers in (1, 2):
            self.force(monkeypatch, n_workers)
            alone = monte_carlo(*args)
            res = mc_vs_model(*args)[0]
            assert np.array_equal(res.times, alone.times)
            assert np.array_equal(res.mean, alone.mean)
            assert np.array_equal(res.stderr, alone.stderr)
            assert res.meta == alone.meta
        assert len(forks) == 2
        self.assert_no_children()

    @pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
    def test_model_error_reaps_the_worker(self, monkeypatch, forks, exc):
        def failing(*args):
            raise exc("injected")

        monkeypatch.setattr(noise_module, "exact_mean", failing)
        self.force(monkeypatch, 2)
        args = (self.SEQ, 0.0, self.SPECS[0], self.MODEL_TRIALS)
        if exc is ValueError:
            res, model = mc_vs_model(*args)
            assert model is None and res.trials == self.MODEL_TRIALS
        else:
            with pytest.raises(exc, match="injected"):
                mc_vs_model(*args)
        assert len(forks) == 1
        self.assert_no_children()


class TestMonteCarlo:
    def test_bit_reproducible(self):
        seq = PulseSequence.rotary_echo(math.pi, mhz_to_rad(20.0), 6)
        spec = NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C, seed=9)
        a = monte_carlo(seq, mhz_to_rad(2.0), spec, trials=64)
        b = monte_carlo(seq, mhz_to_rad(2.0), spec, trials=64)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.stderr, b.stderr)

    def test_records_full_echo_times(self):
        seq = PulseSequence.rotary_echo(math.pi, mhz_to_rad(20.0), 5)
        spec = NoiseSpec(axis="z", kind="static", sigma=SIGMA, seed=1)
        res = monte_carlo(seq, 0.0, spec, trials=8)
        assert res.times.size == 6
        assert res.times[-1] == pytest.approx(seq.total_duration)

    def test_noiseless_limit(self):
        # sigma = 0 reproduces the deterministic signal with zero stderr
        seq = PulseSequence.rotary_echo(math.pi, mhz_to_rad(20.0), 10)
        spec = NoiseSpec(axis="z", kind="static", sigma=0.0, seed=0)
        dw = mhz_to_rad(0.5)
        res = monte_carlo(seq, dw, spec, trials=4)
        from remag.models import re_signal_full_echo
        model = re_signal_full_echo(math.pi, mhz_to_rad(20.0), dw,
                                    np.arange(11))
        assert np.max(np.abs(res.mean - model)) < 2e-3
        assert np.max(res.stderr) < 1e-12

    def test_ramsey_against_static_envelope(self):
        # MC mean under static dephasing vs (1 + cos e^{-(t/T')^2})/2
        seq = PulseSequence.ramsey(1.2e-6)
        spec = NoiseSpec(axis="z", kind="static", sigma=SIGMA, seed=21)
        dw = mhz_to_rad(1.5)
        res = monte_carlo(seq, dw, spec, trials=800,
                          record_times=np.linspace(0, 1.2e-6, 25))
        model = ramsey_signal(dw, res.times, t2_star=t_prime_ramsey(SIGMA))
        se = np.maximum(res.stderr, 1e-9)  # t=0 has only rounding scatter
        assert np.max(np.abs(res.mean - model) / se) < 4.0

    def test_rabi_drive_noise_against_envelope(self):
        omega = mhz_to_rad(20.0)
        period = 2 * math.pi / omega
        seq = PulseSequence.rabi(omega, 10 * period)
        spec = NoiseSpec(axis="x", kind="ou", sigma=0.05 * omega, tau_c=TAU_C,
                         seed=33)
        res = monte_carlo(seq, 0.0, spec, trials=600,
                          record_times=period * np.arange(11))
        model = mean_signal(seq, 0.0, spec, res.times)
        se = np.where(res.stderr > 0, res.stderr, 1.0)
        assert np.max(np.abs(res.mean - model) / se) < 4.0

    @pytest.mark.parametrize("kind", ["static", "ou"])
    def test_rabi_drive_noise_between_periods(self, kind):
        # the default 1 ns records: the drive turns the Bloch vector by
        # Omega t plus the noise's angle, so the mean oscillates at Omega
        seq = PulseSequence.rabi(mhz_to_rad(19.0), 0.5e-6)
        spec = NoiseSpec(axis="x", kind=kind, sigma=mhz_to_rad(1.0),
                         tau_c=TAU_C, seed=11)
        res = monte_carlo(seq, 0.0, spec, trials=2000)
        model = mean_signal(seq, 0.0, spec, res.times)
        se = np.where(res.stderr > 0, res.stderr, np.inf)
        assert np.max(np.abs(res.mean - model) / se) < 4.0

    def test_record_times_outside_the_run_rejected(self):
        seq = PulseSequence.ramsey(0.5e-6)
        spec = NoiseSpec(axis="z", kind="static", sigma=SIGMA, seed=1)
        with pytest.raises(ValueError, match="record times"):
            monte_carlo(seq, 0.0, spec, trials=4, record_times=1e-6 * np.array(
                [0.0, 0.25, 0.5, 0.75, 1.0, -0.1]))

    def test_empty_record_times_rejected(self):
        seq = PulseSequence.ramsey(0.5e-6)
        spec = NoiseSpec(axis="z", kind="static", sigma=SIGMA, seed=1)
        with pytest.raises(ValueError, match="record times"):
            monte_carlo(seq, 0.0, spec, trials=4, record_times=[])

    def test_record_times_on_one_grid_step_rejected(self):
        # 0.25 and 0.2501 us round to one step of the 0.98 ns grid
        seq = PulseSequence.ramsey(0.5e-6)
        spec = NoiseSpec(axis="z", kind="static", sigma=SIGMA, seed=1)
        with pytest.raises(ValueError, match="one grid step"):
            monte_carlo(seq, 0.0, spec, trials=4, record_times=1e-6 * np.array(
                [0.0, 0.25, 0.2501, 0.5]))

    @pytest.mark.parametrize("seq, axis, n_steps, n_records", [
        (PulseSequence.ramsey(0.5e-6), "z", 1000, 501),
        (PulseSequence.rabi(mhz_to_rad(19.0), 0.5e-6), "x", 2000, 501),
        (PulseSequence.rabi(mhz_to_rad(19.0), 0.5e-6), "z", 2000, 501),
        (PulseSequence.rabi(mhz_to_rad(1.0), 0.3e-6), "z", 120, 121)],
        ids=["ou-z ramsey", "ou-x rabi", "ou-z rabi", "slow ou-z rabi"])
    def test_default_records_are_taken_where_requested(self, seq, axis,
                                                       n_steps, n_records):
        # 500 records of 1 ns: the drive grid (512 steps for Ramsey, 1,900
        # for Rabi at 19 MHz) lands on none but a few of them.  A 1 MHz
        # drive's grid has 60 steps of 5 ns over 0.3 us, and the noise grid
        # at most twice that, so its default records are 121, not 301
        spec = NoiseSpec(axis=axis, kind="ou", sigma=SIGMA, tau_c=TAU_C,
                         seed=3)
        res = monte_carlo(seq, mhz_to_rad(2.0), spec, trials=2)
        assert res.meta["n_steps"] == n_steps
        np.testing.assert_allclose(
            res.times, np.linspace(0.0, seq.total_duration, n_records),
            rtol=0.0, atol=1e-15)

    def test_echo_off_its_full_echoes_has_no_model(self):
        # mean_signal's echo form holds at full echoes only; read between
        # them a static-z pi echo moves far from it
        seq = PulseSequence.rotary_echo(math.pi, mhz_to_rad(2.0), 6)
        spec = NoiseSpec(axis="z", kind="static", sigma=SIGMA, seed=5)
        off = np.linspace(0.0, seq.total_duration, 49)
        assert mc_vs_model(seq, mhz_to_rad(0.17), spec, 4, off)[1] is None
        res, model = mc_vs_model(seq, mhz_to_rad(0.17), spec, 4)
        assert model.shape == res.times.shape == (7,)

    def test_chunking_does_not_change_result(self):
        seq = PulseSequence.rotary_echo(math.pi, mhz_to_rad(20.0), 4)
        spec = NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C, seed=7)
        a = monte_carlo(seq, 0.0, spec, trials=50, chunk=7)
        b = monte_carlo(seq, 0.0, spec, trials=50, chunk=50)
        assert np.allclose(a.mean, b.mean, atol=1e-12)


class TestExactMean:
    @pytest.mark.parametrize("theta", [0.75 * math.pi, math.pi, 5 * math.pi])
    def test_noiseless_limit_is_propagate(self, theta):
        omega, dw = mhz_to_rad(20.0), mhz_to_rad(2.0)
        seq = PulseSequence.rotary_echo(theta, omega, 12)
        trace = propagate(build_waveform(seq, dw), dt_max=theta / omega)
        spec = NoiseSpec(axis="z", kind="ou", sigma=0.0, tau_c=TAU_C)
        got = exact_mean(seq, dw, spec, trace.times[::2])
        assert np.max(np.abs(got - trace.values[::2])) <= 1e-12

    @pytest.mark.parametrize("theta,n_cycles,eps", [
        (math.pi, 2, 0.2), (5 * math.pi, 1, 0.1)])
    def test_quasi_static_limit(self, theta, n_cycles, eps):
        # for tau_c >> T the OU bath is a static Gaussian detuning, so the
        # noise's effect on <S> is the Gauss-Hermite average of the exact
        # signal's
        omega = mhz_to_rad(20.0)
        dw = eps * omega
        seq = PulseSequence.rotary_echo(theta, omega, n_cycles)
        t_end = n_cycles * 2 * theta / omega
        sigma = 0.02 / t_end

        def exact(d):
            wave = build_waveform(seq, d)
            return propagate(wave, dt_max=theta / omega).values[-1]
        x, weights = np.polynomial.hermite.hermgauss(30)
        static = sum(wk * exact(dw + math.sqrt(2) * sigma * xk)
                     for xk, wk in zip(x, weights)) / math.sqrt(math.pi)
        spec = NoiseSpec(axis="z", kind="ou", sigma=sigma, tau_c=1e4 * t_end)
        got = float(exact_mean(seq, dw, spec, t_end)[0])
        assert (got - exact(dw)) / (static - exact(dw)) == \
            pytest.approx(1.0, abs=1e-3)

    def test_static_noise_rejected(self):
        seq = PulseSequence.rotary_echo(math.pi, mhz_to_rad(20.0), 4)
        spec = NoiseSpec(axis="z", kind="static", sigma=SIGMA)
        with pytest.raises(ValueError, match="OU noise only"):
            exact_mean(seq, 0.0, spec, full_echo_times(seq))

    def test_bath_past_the_level_cap_rejected(self):
        # sigma tau_c = 38: 96 Hermite levels do not settle the mean
        seq = PulseSequence.rotary_echo(math.pi, mhz_to_rad(20.0), 18)
        spec = NoiseSpec(axis="z", kind="ou", sigma=mhz_to_rad(30.0),
                         tau_c=TAU_C)
        with pytest.raises(ValueError, match="96 hierarchy levels"):
            exact_mean(seq, mhz_to_rad(2.0), spec, full_echo_times(seq))

    def test_times_off_the_sequence_rejected(self):
        seq = PulseSequence.ramsey(0.5e-6)
        spec = NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C)
        with pytest.raises(ValueError, match="within the sequence"):
            exact_mean(seq, 0.0, spec, [0.0, 0.6e-6])

    @pytest.mark.parametrize("label", [
        label for label in PRESET_OU_CASES
        if label.startswith("ou-x") or "ramsey" in label])
    def test_closed_forms_are_the_exact_mean(self, label):
        # resonant drive noise on an echo or Rabi, and dephasing on Ramsey,
        # turn the Bloch vector about one axis by a Gaussian angle, so
        # their closed forms are exact
        seq, dw, spec, record = PRESET_OU_CASES[label]
        times = full_echo_times(seq) if record is None else record
        model = mean_signal(seq, dw, spec, times)
        assert np.max(np.abs(model - exact_mean(seq, dw, spec, times))) \
            <= 1e-10

    # resonant drive noise turns the Bloch vector about x by a Gaussian
    # angle, so <S> = (1 + <cos Phi>)/2 = (1 + cos(mu) exp(-Var Phi/2))/2
    # exactly: the paper's exponents are Var Phi/2.  Bounds are 10x the
    # largest gap seen on each case
    @pytest.mark.parametrize("label, bound", [
        ("ou-x 5pi (4b)", 3.1e-14), ("ou-x pi (4c)", 1.8e-13),
        ("ou-x 3pi4 (s4b)", 4.3e-14), ("ou-x pi (s4b)", 4.3e-14),
        ("ou-x 5pi (s4b)", 4.3e-14)])
    def test_echo_gaussian_phase_is_the_exact_mean(self, label, bound):
        seq, dw, spec, _ = PRESET_OU_CASES[label]
        n = np.arange(seq.n_cycles + 1)
        zeta = ou_zeta_re_x(seq.theta, seq.omega, spec.sigma, spec.tau_c, n)
        exact = exact_mean(seq, dw, spec, full_echo_times(seq))
        assert np.max(np.abs(0.5 * (1.0 + np.exp(-zeta)) - exact)) <= bound

    @pytest.mark.parametrize("label", ["ou-x rabi 19 MHz (4a)",
                                       "ou-x rabi 20 MHz (criterion 5, s4b)"])
    def test_rabi_gaussian_phase_is_the_exact_mean(self, label):
        # at whole Rabi periods
        seq, dw, spec, record = PRESET_OU_CASES[label]
        zeta = ou_zeta_prime(spec.sigma, spec.tau_c, record)
        form = 0.5 * (1.0 + np.cos(seq.omega * record) * np.exp(-zeta))
        exact = exact_mean(seq, dw, spec, record)
        assert np.max(np.abs(form - exact)) <= 1.2e-11


def _relative_error(got, ref):
    return np.abs(got - ref).sum(axis=0).max() / np.abs(ref).sum(axis=0).max()


def _norm_1(a):
    return np.abs(a).sum(axis=0).max()


class TestExpm:
    """`_expm` against scipy's, which stays the tests' reference."""

    @pytest.mark.parametrize("label", [
        label for label in PRESET_OU_CASES
        if label.startswith("ou-z") and "ramsey" not in label
        or label.endswith(("(4a)", "(4b)", "(4c)"))])
    def test_hierarchy_generators(self, monkeypatch, label):
        # the OU-z echoes of the benchmark's noise-ou-large and the
        # figure 4 drive-noise cases, at every depth exact_mean can reach:
        # with a negative tolerance the levels never settle, so each
        # solve from 12 to 96 levels runs before the ValueError
        seq, dw, spec, record = PRESET_OU_CASES[label]
        times = full_echo_times(seq) if record is None else record
        generators = []
        real = noise_module._expm

        def recording(a):
            generators.append(a)
            return real(a)

        monkeypatch.setattr(noise_module, "_expm", recording)
        monkeypatch.setattr(noise_module, "_HIERARCHY_TOL", -1.0)
        with pytest.raises(ValueError, match="96 hierarchy levels"):
            exact_mean(seq, dw, spec, times)
        assert {a.shape[0] for a in generators} == {3 * (k + 1) for k in
                                                    (12, 24, 48, 96)}
        for a in generators:
            assert _relative_error(real(a), expm(a)) <= 1e-13

    @pytest.mark.parametrize("norm", [
        0.9 * noise_module._PADE[0][1],
        *(0.5 * (lo[1] + hi[1]) for lo, hi in zip(noise_module._PADE,
                                                  noise_module._PADE[1:])),
        40.0 * noise_module._PADE[-1][1]],
        ids=["pade-3", "pade-5", "pade-7", "pade-9", "pade-13",
             "squaring"])
    def test_random_matrix_in_each_branch(self, norm):
        a = np.random.default_rng(7).standard_normal((30, 30))
        a *= norm / _norm_1(a)
        assert _relative_error(noise_module._expm(a), expm(a)) <= 1e-13

    def test_zero_matrix_is_the_identity(self):
        np.testing.assert_array_equal(noise_module._expm(np.zeros((6, 6))),
                                      np.eye(6))
