import math

import numpy as np
import pytest
from scipy.linalg import expm

from remag.dynamics import (
    PulseSequence,
    avg_hamiltonian_first_order,
    build_waveform,
    cycle_period,
    default_dt_max,
    full_echo_times,
    propagate,
    refocuses,
    segment_unitary,
    steps_per_segment,
    su2_step,
    total_propagator,
    triangular_wave,
    u0_on_resonance,
)
from remag.models import re_signal, t_prime_re
from remag.sensing import ReadoutModel, re_coefficient, readout_factors
from remag.spectral import carrier_frequency
from remag.units import mhz_to_rad

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
W17 = mhz_to_rad(17.0)


def test_su2_step_matches_expm():
    rng = np.random.default_rng(5)
    for _ in range(50):
        hx, hz, ident, dt = rng.normal(size=4) * [1e7, 1e7, 1e7, 1e-8]
        dt = abs(dt)
        h = ident * np.eye(2) + hx * SX + hz * SZ
        u = expm(-1j * h * dt)
        psi0, psi1 = su2_step(1.0 + 0.0j, 0.0j, hx, hz, ident, dt)
        ref = u @ np.array([1.0, 0.0])
        assert abs(psi0 - ref[0]) < 1e-13
        assert abs(psi1 - ref[1]) < 1e-13


def test_su2_step_unitary_broadcast():
    rng = np.random.default_rng(6)
    hx = rng.normal(size=100) * 1e7
    psi0, psi1 = su2_step(np.ones(100, complex), np.zeros(100, complex),
                          hx, 2e6, 1e6, 3e-9)
    norm = np.abs(psi0) ** 2 + np.abs(psi1) ** 2
    assert np.max(np.abs(norm - 1.0)) < 1e-14


def test_segment_unitary_matches_expm():
    amp, w, dt = 2e7, 3e6, 12e-9
    h = 0.5 * amp * SX + 0.5 * w * (np.eye(2) - SZ)
    assert np.max(np.abs(segment_unitary(amp, w, dt) - expm(-1j * h * dt))) < 1e-13


def test_rotary_echo_waveform_layout():
    seq = PulseSequence.rotary_echo(math.pi, W17, 3)
    wave = build_waveform(seq, 1e5)
    assert wave.amplitudes.size == 6
    assert np.all(wave.amplitudes[::2] == W17)
    assert np.all(wave.amplitudes[1::2] == -W17)
    half = math.pi / W17
    assert wave.segment == pytest.approx(half)
    assert wave.total_duration == pytest.approx(6 * half)
    assert seq.cycle_period == pytest.approx(2 * half)


@pytest.mark.parametrize("make, field", [
    (lambda x: PulseSequence.rotary_echo(x, W17, 3), "theta"),
    (lambda x: PulseSequence.rotary_echo(math.pi, x, 3), "omega"),
    (lambda x: PulseSequence.rotary_echo(math.pi, W17, x), "n_cycles"),
    (lambda x: PulseSequence.rabi(W17, x), "duration"),
    (lambda x: PulseSequence.rabi(x, 1e-6), "omega"),
    (lambda x: PulseSequence.ramsey(x), "duration"),
], ids=["echo-theta", "echo-omega", "echo-cycles", "rabi-duration",
        "rabi-omega", "ramsey-duration"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_sequence_rejected(make, field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make(value)


def test_full_echo_times():
    seq = PulseSequence.rotary_echo(5 * math.pi, W17, 4)
    t = full_echo_times(seq)
    assert t.size == 5
    assert t[1] == pytest.approx(10 * math.pi / W17)


class TestRefocusing:

    def test_every_multiple_of_2pi_up_to_10_4_refocuses(self):
        # 2 pi k as library callers and configs (theta_pi * pi) spell it
        ks = range(1, 10_001)
        assert all(refocuses(k * 2 * math.pi) for k in ks)
        assert all(refocuses(2 * k * math.pi) for k in ks)
        assert all(refocuses(theta_pi * math.pi)
                   for theta_pi in np.arange(2.0, 401.0, 2.0))

    @pytest.mark.parametrize("theta_pi", [2.001, 1.999, 1.0, 5.0, 21.0,
                                          22.001])
    def test_angles_off_2pi_k_do_not_refocus(self, theta_pi):
        assert not refocuses(theta_pi * math.pi)

    def test_tolerance_scales_with_theta(self):
        theta = 2e4 * math.pi
        assert refocuses(theta + 0.5e-12 * theta)
        assert refocuses(theta - 0.5e-12 * theta)
        assert not refocuses(theta + 2e-12 * theta)
        assert not refocuses(theta - 2e-12 * theta)
        assert refocuses(0.5e-12) and not refocuses(2e-12)

    @pytest.mark.parametrize("theta_pi", [2.0, 22.0, 26.0, 2e4])
    def test_every_model_takes_the_one_rule(self, theta_pi):
        theta = theta_pi * math.pi
        with pytest.raises(ValueError, match="2 pi k"):
            re_coefficient(theta)
        with pytest.raises(ValueError, match="2 pi k"):
            readout_factors(ReadoutModel(n0=0.0022, n1=0.0015), theta,
                            0.0, 1e-6)
        with pytest.raises(ValueError, match="2 pi k"):
            carrier_frequency(theta, W17)
        assert t_prime_re(theta, 1e6) == math.inf
        # no fast factor: the echo holds the slow beat only
        t = np.linspace(0.0, 1e-6, 7)
        slow = np.cos(2.0 * 1e6 * t * math.sin(theta / 2.0) / theta)
        c2, s2 = math.cos(theta / 2.0) ** 2, math.sin(theta / 2.0) ** 2
        assert np.array_equal(re_signal(theta, W17, 1e6, t),
                              0.5 + 0.5 * c2 + 0.5 * s2 * slow)

    def test_cycle_period_is_the_sequence_clock(self):
        seq = PulseSequence.rotary_echo(0.75 * math.pi, W17, 3)
        assert seq.cycle_period == cycle_period(0.75 * math.pi, W17) \
            == 2.0 * 0.75 * math.pi / W17
        assert full_echo_times(seq)[1] == seq.cycle_period


def test_steps_per_segment_lands_on_breakpoints():
    seq = PulseSequence.rotary_echo(0.75 * math.pi, W17, 2)
    wave = build_waveform(seq, 0.0)
    dt = wave.segment / steps_per_segment(wave, default_dt_max(wave))
    seg = wave.segment
    assert abs(seg / dt - round(seg / dt)) < 1e-9


def test_triangular_wave_and_u0():
    theta, omega = math.pi, W17
    period = 2 * theta / omega
    assert triangular_wave(theta, omega, 0.0) == 0.0
    assert triangular_wave(theta, omega, period / 2) == pytest.approx(theta / omega)
    # at full echo times the on-resonance propagator is the identity
    u = u0_on_resonance(theta, omega, 3 * period)
    assert np.max(np.abs(u - np.eye(2))) < 1e-9


def test_total_propagator_full_echo_resonant():
    seq = PulseSequence.rotary_echo(math.pi, W17, 5)
    u = total_propagator(build_waveform(seq, 0.0))
    phase = u[0, 0] / abs(u[0, 0])
    assert np.max(np.abs(u / phase - np.eye(2))) < 1e-10


def test_propagate_matches_first_order_small_detuning():
    # Eq.-of-motion propagation vs the first-order signal at full echoes
    seq = PulseSequence.rotary_echo(math.pi, W17, 20)
    dw = mhz_to_rad(0.17)
    trace = propagate(build_waveform(seq, dw))
    t_echo = full_echo_times(seq)
    idx = np.rint(t_echo / trace.dt).astype(int)
    model = re_signal(math.pi, W17, dw, t_echo)
    assert np.max(np.abs(trace.values[idx] - model)) < 2e-3


def test_avg_hamiltonian_first_order():
    theta, dw = 0.75 * math.pi, mhz_to_rad(0.4)
    h = avg_hamiltonian_first_order(theta, dw)
    pref = dw / theta * math.sin(theta / 2)
    assert h.h_x == 0.0
    assert h.h_y == pytest.approx(pref * math.sin(theta / 2))
    assert h.h_z == pytest.approx(-pref * math.cos(theta / 2))
    # effective precession rate 2|h| = 2 dw sin(theta/2)/theta
    rate = 2 * math.hypot(h.h_y, h.h_z)
    assert rate == pytest.approx(2 * dw * math.sin(theta / 2) / theta)


def test_propagate_with_zero_noise_matches_noiseless():
    seq = PulseSequence.rotary_echo(math.pi, W17, 4)
    wave = build_waveform(seq, mhz_to_rad(1.0))
    clean = propagate(wave, dt_max=1e-9)
    n_steps = clean.times.size - 1
    noisy = propagate(wave, noise_values=np.zeros(n_steps), dt_max=1e-9)
    assert np.max(np.abs(clean.values - noisy.values)) < 1e-12


def _per_segment_reference(wave, dt_max):
    """Noiseless populations from two su2_step calls per segment: one over
    the in-segment offsets, one to the next segment's start state.  This
    is the segment loop that `propagate` ran before it filled all segments
    of one amplitude in one broadcast."""
    n_sub = steps_per_segment(wave, dt_max)
    dt = wave.segment / n_sub
    values = np.empty(n_sub * wave.amplitudes.size + 1)
    values[0] = 1.0
    psi0, psi1 = 1.0 + 0.0j, 0.0j
    tau = dt * np.arange(1, n_sub + 1)
    for i, amp in enumerate(wave.amplitudes):
        hx, hz, ident = amp / 2.0, -wave.detuning / 2.0, wave.detuning / 2.0
        new0, _ = su2_step(psi0, psi1, hx, hz, ident, tau)
        values[i * n_sub + 1:(i + 1) * n_sub + 1] = np.abs(new0) ** 2
        psi0, psi1 = su2_step(psi0, psi1, hx, hz, ident, float(tau[-1]))
    return np.clip(values, 0.0, 1.0)


ECHOES = [(0.75 * math.pi, 10.0, 14), (math.pi, 17.0, 25),
          (2.7, 21.3, 9), (5.0 * math.pi, 25.0, 4)]


@pytest.mark.parametrize("dt_max", [1e-9, 2e-9, 10e-9, "segment"])
@pytest.mark.parametrize("delta_mhz", [0.0, 0.37])
@pytest.mark.parametrize("theta, omega_mhz, n_cycles", ECHOES)
def test_noiseless_propagate_bit_identical_to_per_segment_steps(
        theta, omega_mhz, n_cycles, delta_mhz, dt_max):
    seq = PulseSequence.rotary_echo(theta, mhz_to_rad(omega_mhz), n_cycles)
    wave = build_waveform(seq, mhz_to_rad(delta_mhz))
    if dt_max == "segment":             # one grid step per segment
        dt_max = wave.segment
    trace = propagate(wave, dt_max=dt_max)
    assert np.array_equal(trace.values, _per_segment_reference(wave, dt_max))


@pytest.mark.parametrize("seq", [PulseSequence.rabi(mhz_to_rad(13.0), 0.7e-6),
                                 PulseSequence.ramsey(0.9e-6)],
                         ids=["rabi", "ramsey"])
@pytest.mark.parametrize("delta_mhz", [0.0, 1.3])
def test_noiseless_rabi_ramsey_bit_identical_to_per_segment_steps(
        seq, delta_mhz):
    wave = build_waveform(seq, mhz_to_rad(delta_mhz))
    for dt_max in (2e-9, default_dt_max(wave)):
        trace = propagate(wave, dt_max=dt_max)
        assert np.array_equal(trace.values,
                              _per_segment_reference(wave, dt_max))


# the analysis chain's noiseless traces: (sequence, detuning, dt_max)
ANALYSIS_TRACES = {
    "pi echo, 17 MHz, 10 ns grid (3 steps per segment)": (
        PulseSequence.rotary_echo(math.pi, W17, 255), mhz_to_rad(0.17),
        10e-9),
    "figure 1c, 2 ns grid": (PulseSequence.rotary_echo(math.pi, W17, 51),
                             mhz_to_rad(0.17), 2e-9),
    "one cycle": (PulseSequence.rotary_echo(math.pi, W17, 1),
                  mhz_to_rad(2.31), 10e-9),
    "zero detuning": (PulseSequence.rotary_echo(math.pi, W17, 50), 0.0,
                      10e-9),
    "rabi, one segment": (PulseSequence.rabi(mhz_to_rad(19.0), 0.5e-6),
                          mhz_to_rad(0.5), 1e-9),
    "ramsey, amplitude 0": (PulseSequence.ramsey(0.5e-6), mhz_to_rad(2.0),
                            1e-9),
}


@pytest.mark.parametrize("label", ANALYSIS_TRACES)
def test_analysis_traces_bit_identical_to_segment_loop(label):
    seq, dw, dt_max = ANALYSIS_TRACES[label]
    wave = build_waveform(seq, dw)
    trace = propagate(wave, dt_max=dt_max)
    assert np.array_equal(trace.values, _per_segment_reference(wave, dt_max))


def test_ramsey_and_rabi_waveforms():
    ram = build_waveform(PulseSequence.ramsey(1e-6), mhz_to_rad(2.0))
    assert ram.amplitudes.tolist() == [0.0]
    rab = build_waveform(PulseSequence.rabi(W17, 1e-6), 0.0)
    assert rab.amplitudes.tolist() == [W17]
