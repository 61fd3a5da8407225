"""The Monte Carlo grid: sized to the noise, and what that costs in bias.

Monte Carlo holds the noise constant over each grid step.  Under OU noise
the expected estimator on a grid of step dt follows the Hermite hierarchy
of Kubo's stochastic Liouville equation (Tanimura & Kubo 1989) with the
noise frozen over each step, and the ensemble it estimates follows the
continuous hierarchy (:func:`remag.noise.exact_mean`); their difference
is the grid's bias, computed here without sampling.  Static noise is
constant over a whole run, so one step per constant run between records
is exact; that is checked against independent per-trial noiseless
propagation and against the drive grid.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from remag import noise
from remag.dynamics import (PulseSequence, build_waveform, default_dt_max,
                            full_echo_times, propagate, steps_per_segment,
                            total_propagator)
from remag.noise import (OU_MIN_SAMPLES_PER_TAU, NoiseSpec, monte_carlo,
                         sample_path)
from remag.units import mhz_to_rad

W19 = mhz_to_rad(19.0)
W20 = mhz_to_rad(20.0)
DW = mhz_to_rad(2.0)
TAU_C = 200e-9
TRIALS = 10_000                 # the standard error is quoted at this count
K_HIERARCHY = 12                # checked against 2K


def _cross(v):
    """Matrix of r -> v x r."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _hierarchy_moment(seq, delta_omega, spec, dt, record_idx, order, k_max):
    """E[(s.r)^order] on the grid of step dt at the record steps, with the
    noise frozen over each step, hierarchy truncated at k_max.

    r is the Bloch vector and s.r the read-out component (S = (1 + s.r)/2).
    R_k = E[m h_k(x)], with m = r (order 1) or r (x) r (order 2) and
    h_k = He_k(x/sigma)/sqrt(k!), is stepped by
    R <- (M (x) 1) exp(dt (1 (x) A0 + X (x) B)) R: A0 the noiseless
    generator, B its derivative in the noise value x, X = sigma
    tridiag(sqrt k) the product with x and M = diag(exp(-k dt/tau_c)) the
    AR(1) update (Mehler's formula).
    """
    wave = build_waveform(seq, delta_omega)
    n_sub = int(round(wave.segment / dt))
    sigma = spec.sigma
    k = np.arange(k_max + 1)
    x_op = sigma * (np.diag(np.sqrt(k[1:]), 1) + np.diag(np.sqrt(k[1:]), -1))
    ramsey = seq.kind == "ramsey"
    # Ramsey starts after the opening pi/2 pulse about x and reads out
    # (1 - r_y)/2 through the closing one
    r0 = np.array([0.0, -1.0, 0.0]) if ramsey else np.array([0.0, 0.0, 1.0])
    s = np.array([0.0, -1.0, 0.0]) if ramsey else np.array([0.0, 0.0, 1.0])
    eye3 = np.eye(3)
    if order == 2:
        r0, s = np.kron(r0, r0), np.kron(s, s)
    dim = r0.size

    def lift(a):
        return a if order == 1 else np.kron(a, eye3) + np.kron(eye3, a)

    cache = {}

    def block(amp, n):
        if (amp, n) not in cache:
            a0 = lift(_cross((amp, 0.0, -delta_omega)))
            b = lift(_cross((0.0, 0.0, -1.0)) if spec.axis == "z" else
                     _cross((math.copysign(1.0, amp), 0.0, 0.0)))
            gen = np.kron(np.eye(k_max + 1), a0) + np.kron(x_op, b)
            decay = np.kron(np.diag(np.exp(-k * dt / spec.tau_c)), np.eye(dim))
            cache[amp, n] = np.linalg.matrix_power(decay @ expm(dt * gen), n)
        return cache[amp, n]

    state = np.zeros((k_max + 1) * dim)
    state[:dim] = r0
    out, pos = [], 0
    for target in record_idx:
        while pos < target:
            seg = pos // n_sub
            end = min(target, (seg + 1) * n_sub)
            state = block(float(wave.amplitudes[seg]), end - pos) @ state
            pos = end
        out.append(s @ state[:dim])
    return np.array(out)


def _bias_se(seq, delta_omega, spec, dt, record_idx, exact, k_max):
    """|grid bias| / SE at 10^4 trials per record (nan where SE < 1e-9),
    the continuous mean signal being ``exact``."""
    args = (seq, delta_omega, spec, dt, record_idx)
    m1 = _hierarchy_moment(*args, 1, k_max)
    m2 = _hierarchy_moment(*args, 2, k_max)
    bias = np.abs((1.0 + m1) / 2 - exact)
    se = np.sqrt(np.maximum(m2 - m1 ** 2, 0.0) / 4 / TRIALS)
    return np.where(se >= 1e-9, bias / np.maximum(se, 1e-9), np.nan)


def grid_bias_se(seq, delta_omega, spec, dt, times):
    """Largest |grid bias| / SE at 10^4 trials over records with SE >= 1e-9.

    The frozen-step moments are computed at K = K_HIERARCHY and refused
    unless 2K agrees to 1e-3 SE.
    """
    idx = np.rint(np.asarray(times) / dt).astype(int)
    exact = noise.exact_mean(seq, delta_omega, spec, dt * idx)
    low, high = (_bias_se(seq, delta_omega, spec, dt, idx, exact, k)
                 for k in (K_HIERARCHY, 2 * K_HIERARCHY))
    gap = float(np.nanmax(np.abs(low - high)))
    if not gap <= 1e-3:
        raise AssertionError(f"hierarchy not converged at K = {K_HIERARCHY}: "
                             f"{gap:.1e} SE from 2K")
    return float(np.nanmax(high))


def _z(i):
    return NoiseSpec("z", "ou", 0.05 * W20, TAU_C, seed=i)


def _x(i, omega):
    return NoiseSpec("x", "ou", 0.05 * omega, TAU_C, seed=i)


def _rabi(omega, periods):
    period = 2.0 * math.pi / omega
    return (PulseSequence.rabi(omega, periods * period),
            period * np.arange(periods + 1))


RABI_20 = _rabi(W20, 12)
RABI_19 = _rabi(W19, 20)
ECHOES_20 = {"3pi4": (0.75 * math.pi, 16), "pi": (math.pi, 18),
             "5pi": (5.0 * math.pi, 24)}

# every OU case of criterion 5 and of figures 4a, 4b, 4c and s4:
# (sequence, detuning, noise, record times or None for full echoes)
PRESET_OU_CASES = {
    **{f"ou-z {name} (criterion 5, s4a)":
       (PulseSequence.rotary_echo(theta, W20, n), DW, _z(1), None)
       for name, (theta, n) in ECHOES_20.items()},
    "ou-z ramsey (s4a)": (PulseSequence.ramsey(0.5e-6), DW, _z(2),
                          np.linspace(0.0, 0.5e-6, 65)),
    "ou-x rabi 20 MHz (criterion 5, s4b)": (RABI_20[0], 0.0, _x(3, W20),
                                            RABI_20[1]),
    **{f"ou-x {name} (s4b)":
       (PulseSequence.rotary_echo(theta, W20, n), 0.0, _x(4, W20), None)
       for name, (theta, n) in ECHOES_20.items()},
    "ou-x rabi 19 MHz (4a)": (RABI_19[0], 0.0, _x(5, W19), RABI_19[1]),
    "ou-x 5pi (4b)": (PulseSequence.rotary_echo(5.0 * math.pi, W19, 20), 0.0,
                      _x(6, W19), None),
    "ou-x pi (4c)": (PulseSequence.rotary_echo(math.pi, W19, 95), 0.0,
                     _x(7, W19), None),
}


@pytest.mark.parametrize("label", PRESET_OU_CASES)
def test_preset_grid_bias_below_two_hundredths_se(label):
    seq, dw, spec, record = PRESET_OU_CASES[label]
    res = monte_carlo(seq, dw, spec, trials=1, record_times=record)
    assert grid_bias_se(seq, dw, spec, res.meta["dt"], res.times) <= 0.02


def test_ou_drive_noise_echo_is_biased_at_tau_c_over_20():
    # why the rule keeps OU drive noise on the drive grid: the echo
    # refocuses it to second order, so one SE is only ~1.5e-5 here
    seq, dw, spec, _ = PRESET_OU_CASES["ou-x pi (4c)"]
    half = seq.theta / seq.omega
    dt = half / math.ceil(half / (TAU_C / 20.0) - 1e-9)
    assert grid_bias_se(seq, dw, spec, dt, seq.cycle_period
                        * np.arange(seq.n_cycles + 1)) > 1.0


def test_ou_dephasing_echo_uses_tau_c_over_20():
    seq = PulseSequence.rotary_echo(5.0 * math.pi, W20, 24)
    res = monte_carlo(seq, DW, _z(1), trials=1)
    half = seq.theta / seq.omega
    assert res.meta["dt"] == half / math.ceil(half / (TAU_C / 20.0) - 1e-9)
    assert res.meta["n_steps"] == 2 * 24 * 13


def test_ou_dephasing_echo_step_lands_on_record_times():
    # records every half echo / 25 need steps of that size, finer than
    # the tau_c/20 step of half echo / 13; a record that no coarser step
    # lands on keeps the drive grid of T_Rabi/200
    seq = PulseSequence.rotary_echo(5.0 * math.pi, W20, 24)
    half = seq.theta / seq.omega
    record = half / 25 * np.arange(2 * 25 * 3 + 1)
    res = monte_carlo(seq, DW, _z(1), trials=1, record_times=record)
    assert res.meta["dt"] == pytest.approx(half / 25, rel=1e-12)
    np.testing.assert_allclose(res.times, record, rtol=1e-12, atol=0.0)
    res = monte_carlo(seq, DW, _z(1), trials=1,
                      record_times=[0.0, half / math.sqrt(2.0), 2 * half])
    assert res.meta["n_steps"] == 2 * 24 * 500


def test_static_z_ramsey_matches_per_trial_propagation():
    seq = PulseSequence.ramsey(0.5e-6)
    spec = NoiseSpec("z", "static", 0.05 * W20, seed=17)
    record = np.linspace(0.0, 0.5e-6, 65)
    res = monte_carlo(seq, DW, spec, trials=16, record_times=record)
    assert res.meta["n_steps"] == 64          # one step per record interval
    np.testing.assert_allclose(res.times, record, rtol=1e-12, atol=0.0)
    opened = np.array([1.0, -1.0j]) / math.sqrt(2.0)
    ref = []
    for i in range(16):
        x = sample_path(spec, seq.duration, seq.duration, trial_index=i).values
        wave = build_waveform(seq, DW + x[0])
        psi = [total_propagator(wave, t) @ opened for t in record]
        ref.append([abs(p[0] + 1j * p[1]) ** 2 / 2.0 for p in psi])
    assert np.max(np.abs(np.mean(ref, axis=0) - res.mean)) < 1e-12


def test_static_x_echo_matches_per_trial_propagation():
    # drive noise of value eps_i Omega scales the drive, so trial i is the
    # echo of angle theta (1 + eps_i) at Rabi frequency Omega (1 + eps_i)
    theta, n = 5.0 * math.pi, 20
    seq = PulseSequence.rotary_echo(theta, W19, n)
    spec = NoiseSpec("x", "static", 0.05 * W19, seed=19)
    res = monte_carlo(seq, DW, spec, trials=16)
    assert res.meta["n_steps"] == 2 * n       # one step per half echo
    ref = []
    for i in range(16):
        eps = sample_path(spec, seq.total_duration, seq.total_duration,
                          trial_index=i).values[0] / W19
        noisy = PulseSequence.rotary_echo(theta * (1 + eps), W19 * (1 + eps), n)
        trace = propagate(build_waveform(noisy, DW))
        per_cycle = int(round(noisy.cycle_period / trace.dt))
        ref.append(trace.values[::per_cycle])
    assert np.max(np.abs(np.mean(ref, axis=0) - res.mean)) < 1e-12


def test_static_rabi_records_whole_periods_exactly():
    seq, record = RABI_19
    spec = NoiseSpec("x", "static", 0.05 * W19, seed=23)
    res = monte_carlo(seq, 0.0, spec, trials=4, record_times=record)
    assert res.meta["n_steps"] == 20          # one step per Rabi period
    np.testing.assert_allclose(res.times, record, rtol=1e-12, atol=0.0)


# static cases, each on the collapsed grid and on the drive grid of
# T_Rabi/200: (sequence, detuning, noise, record times or None)
STATIC_CASES = {
    "static-x 5pi echo": (PulseSequence.rotary_echo(5.0 * math.pi, W19, 20),
                          0.0, NoiseSpec("x", "static", 0.05 * W19, seed=29),
                          None),
    "static-x rabi": (RABI_19[0], 0.0,
                      NoiseSpec("x", "static", 0.05 * W19, seed=31),
                      RABI_19[1]),
    "static-z ramsey": (PulseSequence.ramsey(0.5e-6), DW,
                        NoiseSpec("z", "static", 0.05 * W20, seed=37),
                        np.linspace(0.0, 0.5e-6, 65)),
    "static-z detuned 3pi4 echo": (
        PulseSequence.rotary_echo(0.75 * math.pi, W20, 16), DW,
        NoiseSpec("z", "static", 0.05 * W20, seed=41), None),
}


class _CountingNumpy:
    """``numpy``, counting calls of ``multiply``: the kernel's 2x2 updates
    and step coefficients each make a fixed number of them."""

    def __init__(self):
        self.multiply_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def multiply(self, *args, **kwargs):
        self.multiply_calls += 1
        return np.multiply(*args, **kwargs)


@pytest.mark.parametrize("label", STATIC_CASES)
def test_static_collapsed_grid_matches_drive_grid(label, monkeypatch):
    seq, dw, spec, record = STATIC_CASES[label]
    wave = build_waveform(seq, dw)

    def counted(**grid):
        counting = _CountingNumpy()
        monkeypatch.setattr(noise, "np", counting)
        res = monte_carlo(seq, dw, spec, trials=64, record_times=record,
                          **grid)
        monkeypatch.setattr(noise, "np", np)
        return res, counting.multiply_calls

    collapsed, collapsed_work = counted()
    drive, drive_work = counted(dt_max=default_dt_max(wave))
    # one exact step per run of equal amplitude: the drive grid's longer
    # runs cost the kernel no more updates
    assert drive_work == collapsed_work > 0
    assert collapsed.meta["n_steps"] < drive.meta["n_steps"]
    np.testing.assert_allclose(collapsed.times, drive.times, rtol=1e-12,
                               atol=0.0)
    assert np.max(np.abs(collapsed.mean - drive.mean)) <= 1e-11
    assert np.max(np.abs(collapsed.stderr - drive.stderr)) <= 1e-11


def test_static_record_off_every_coarser_step_keeps_drive_grid():
    seq, dw, spec, _ = STATIC_CASES["static-x 5pi echo"]
    half = seq.theta / seq.omega
    res = monte_carlo(seq, dw, spec, trials=1,
                      record_times=[0.0, half / math.sqrt(2.0), 2 * half])
    assert res.meta["n_steps"] == 2 * 20 * 500


def test_static_run_never_forks(monkeypatch):
    # 4 chunks of 64 trials: 64 x 20,000 drive-grid steps would fork,
    # 64 x 40 collapsed ones stay in the calling process
    seq, dw, spec, _ = STATIC_CASES["static-x 5pi echo"]
    monkeypatch.setattr(noise, "_usable_cpus", lambda: 4)
    assert noise._workers(4, 64 * 2 * 20 * 500) > 1
    picked, workers = [], noise._workers
    monkeypatch.setattr(noise, "_workers",
                        lambda *a: picked.append(workers(*a)) or picked[-1])
    res = monte_carlo(seq, dw, spec, trials=256, chunk=64)
    assert (res.meta["n_steps"], res.meta["chunks"], picked) == (40, 4, [1])


# steps per segment that the OU rule picks: OU dephasing echoes at
# tau_c/20 or finer, every other OU case on the drive grid
OU_STEPS_PER_SEGMENT = {
    "ou-z 3pi4 (criterion 5, s4a)": 2,
    "ou-z pi (criterion 5, s4a)": 3,
    "ou-z 5pi (criterion 5, s4a)": 13,
    "ou-z ramsey (s4a)": 512,
    "ou-x rabi 20 MHz (criterion 5, s4b)": 2400,
    "ou-x 3pi4 (s4b)": 75,
    "ou-x pi (s4b)": 100,
    "ou-x 5pi (s4b)": 500,
    "ou-x rabi 19 MHz (4a)": 4000,
    "ou-x 5pi (4b)": 500,
    "ou-x pi (4c)": 100,
}


@pytest.mark.parametrize("label", PRESET_OU_CASES)
def test_ou_grid_step_unchanged(label):
    seq, dw, spec, record = PRESET_OU_CASES[label]
    wave = build_waveform(seq, dw)
    if record is None:
        record = full_echo_times(seq)
    assert noise._grid(seq, wave, spec, record, None)[0] == \
        OU_STEPS_PER_SEGMENT[label]


def _drive_steps(wave, spec):
    """Steps per segment of the drive grid, min(T_Rabi/200, tau_c/20 under
    OU noise)."""
    dt_max = default_dt_max(wave)
    if spec.kind == "ou":
        dt_max = min(dt_max, spec.tau_c / OU_MIN_SAMPLES_PER_TAU)
    return steps_per_segment(wave, dt_max)


def _grid_steps_by_search(wave, spec, record_times):
    """Steps per segment by the grid rule with every record through the
    exact fraction search, as :func:`remag.noise._grid` ran before it
    skipped records near a whole number of segments."""
    base = wave.segment
    n_drive = _drive_steps(wave, spec)
    if spec.kind == "static":
        n_min = 1
    elif spec.axis == "z" and np.any(wave.amplitudes < 0.0):
        n_min = math.ceil(base / (spec.tau_c / OU_MIN_SAMPLES_PER_TAU) - 1e-9)
    else:
        n_min = n_drive
    n_max = 2 * n_drive
    fracs = np.unique(np.asarray(record_times, dtype=float)) / base
    n = 1
    for f in fracs:
        n = math.lcm(n, Fraction(float(f)).limit_denominator(n_max).denominator)
        if n > n_max:
            return n_drive
    n *= math.ceil(n_min / n)
    x = fracs * n
    if n > n_max or np.any(np.abs(x - np.rint(x)) >= 1e-6):
        return n_drive
    return n


# (sequence, detuning, spec) of a static echo (n_max 200), an OU-z echo
# (tau_c/20 floor) and OU-x Rabi (drive-grid floor, one segment)
GRID_RULE_CASES = [
    (PulseSequence.rotary_echo(math.pi, W19, 8), 0.0,
     NoiseSpec("x", "static", 0.05 * W19)),
    (PulseSequence.rotary_echo(0.75 * math.pi, W20, 8), DW, _z(1)),
    (RABI_19[0], 0.0, _x(5, W19)),
]


@st.composite
def _record_fractions(draw, n_segments, n_max):
    """A record time in segments: an integer perturbed by at most 1e-12
    relative, a fraction p/q with q <= n_max (often q = n_max and within
    a few 1/q of an integer: the nearest such fractions to one, which the
    search must see), or any float."""
    m = draw(st.integers(0, n_segments))
    family = draw(st.sampled_from(["integer", "fraction", "float"]))
    if family == "integer":
        return m * (1.0 + draw(st.floats(-1e-12, 1e-12)))
    if family == "fraction":
        q = draw(st.one_of(st.integers(1, n_max), st.just(n_max)))
        j = draw(st.one_of(st.integers(-2, 2), st.integers(-q, q)))
        return abs(m * q + j) / q
    return draw(st.floats(0.0, n_segments))


# about half the drawn record sets are refused (off the run, or two on one
# step), so 600 examples check the steps per segment on about 300
@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_grid_rule_skip_matches_the_full_search(data):
    seq, dw, spec = data.draw(st.sampled_from(GRID_RULE_CASES))
    wave = build_waveform(seq, dw)
    n_max = 2 * _drive_steps(wave, spec)
    fracs = data.draw(st.lists(
        _record_fractions(wave.amplitudes.size, n_max), min_size=1,
        max_size=4))
    record = np.array(fracs) * wave.segment
    n = _grid_steps_by_search(wave, spec, record)
    # records off the run, or two on one step, are refused on that grid
    requested = np.rint(record / (wave.segment / n))
    if (np.unique(requested).size < requested.size
            or requested.max() > n * wave.amplitudes.size):
        with pytest.raises(ValueError, match="record times must"):
            noise._grid(seq, wave, spec, record, None)
    else:
        n_sub, record_idx = noise._grid(seq, wave, spec, record, None)
        assert n_sub == n
        assert np.array_equal(record_idx, np.unique(requested))
