import math

import numpy as np
import pytest

from remag.dynamics import PulseSequence, build_waveform, propagate
from remag.models import (
    ValidityWarning,
    decay_envelope,
    in_validity_window,
    infidelity,
    mean_signal,
    ou_zeta_prime,
    ou_zeta_re_x,
    ou_zeta_re_z,
    rabi_signal,
    rabi_static_z_mean,
    ramsey_signal,
    re_signal,
    re_signal_full_echo,
    re_signal_full_echo_eps4,
    t_prime_ramsey,
    t_prime_re,
)
from remag.noise import NoiseSpec
from remag.units import mhz_to_rad

W17 = mhz_to_rad(17.0)


class TestSignals:
    def test_re_signal_full_echo_identity_resonant(self):
        t = 6 * 2 * math.pi / W17  # n = 6 full echoes for theta = pi
        assert re_signal(math.pi, W17, 0.0, t) == pytest.approx(1.0)

    def test_re_signal_detuned_value(self):
        # n = 85 full pi-echoes over 5 us at a 0.17 MHz detuning
        # S = (1 + cos(4 dw n / Omega))/2 = (1 + cos(3.4 rad))/2
        s = re_signal(math.pi, W17, mhz_to_rad(0.17), 5e-6)
        assert s == pytest.approx(0.5 * (1 + math.cos(3.4)), abs=1e-9)
        assert s == pytest.approx(0.017, abs=1e-3)

    def test_re_signal_refocusing_angle(self):
        # theta = 2 pi k never refocuses the field in first order: S = 1
        for t in (0.0, 1e-7, 3e-6):
            assert re_signal(2 * math.pi, W17, mhz_to_rad(1.3), t) == pytest.approx(1.0)

    def test_full_echo_consistency(self):
        theta, dw = math.pi, mhz_to_rad(0.17)
        assert re_signal_full_echo(theta, W17, dw, 0) == 1.0
        s85 = re_signal_full_echo(theta, W17, dw, 85)
        assert s85 == pytest.approx(0.5 * (1 + math.cos(4 * dw * 85 / W17)))
        t85 = 85 * 2 * theta / W17
        assert s85 == pytest.approx(float(re_signal(theta, W17, dw, t85)), abs=1e-12)

    def test_ramsey_signal(self):
        assert ramsey_signal(mhz_to_rad(0.3), 0.0) == 1.0
        assert ramsey_signal(0.0, 4e-6, t2_star=math.inf) == 1.0
        # envelope value at t = T2*
        t2 = 2.19e-6
        s = ramsey_signal(0.0, t2, t2_star=t2)
        assert (2 * s - 1) == pytest.approx(math.exp(-1), rel=1e-9)
        with pytest.raises(ValueError):
            ramsey_signal(0.0, 1e-6, weights=(0.5, 0.2, 0.2))

    def test_rabi_signal_flops(self):
        assert rabi_signal(W17, 0.0, math.pi / W17) == pytest.approx(0.0, abs=1e-12)
        assert rabi_signal(W17, 0.0, 2 * math.pi / W17) == pytest.approx(1.0)

    def test_rabi_signal_is_exact(self):
        # the detuned Rabi formula is exact for a constant Hamiltonian
        omega, dw, t = mhz_to_rad(20.0), mhz_to_rad(2.0), 25e-9
        seq = PulseSequence.rabi(omega, t)
        trace = propagate(build_waveform(seq, dw))
        assert abs(trace.values[-1] - rabi_signal(omega, dw, t)) < 1e-6


class TestHigherOrder:
    @pytest.mark.parametrize("theta", [0.75 * math.pi, math.pi, 5 * math.pi])
    def test_eps4_beat_reduces_to_first_order(self, theta):
        # at a fixed beat phase 4 eps n sin(theta/2) = 2 rad the two models
        # differ by the eps^2 contrast and relative-phase corrections
        diffs = []
        for n in (50, 100, 200):
            dw = 0.5 * W17 / (n * math.sin(theta / 2))
            diffs.append(abs(float(re_signal_full_echo_eps4(theta, W17, dw, n)
                                   - re_signal_full_echo(theta, W17, dw, n))))
        assert diffs[-1] < 1e-5
        for big, small in zip(diffs, diffs[1:]):
            assert big / small == pytest.approx(4.0, rel=0.02)


class TestEnvelopes:
    def test_t_primes(self):
        sigma = mhz_to_rad(1.0)
        assert t_prime_ramsey(sigma) == pytest.approx(math.sqrt(2) / sigma)
        assert t_prime_re(math.pi, sigma) == pytest.approx(
            math.pi / (sigma * math.sqrt(2)))
        # the 2 pi angle refocuses: infinite static dephasing time
        assert t_prime_re(2 * math.pi, sigma) == math.inf

    def test_ou_zeta_prime_limits(self):
        sigma, tau_c = mhz_to_rad(1.0), 2e-7
        # short times: static-like sigma^2 t^2 / 2
        t = 1e-9
        assert ou_zeta_prime(sigma, tau_c, t) == pytest.approx(
            0.5 * sigma ** 2 * t ** 2, rel=1e-2)
        # long times: white-noise-like sigma^2 tau_c t
        t = 1e-4
        assert ou_zeta_prime(sigma, tau_c, t) == pytest.approx(
            sigma ** 2 * tau_c * t, rel=1e-2)

    def test_ou_zeta_re_z_scaling(self):
        sigma, tau_c, t = mhz_to_rad(1.0), 2e-7, 2e-6
        base = ou_zeta_prime(sigma, tau_c, t)
        for theta in (0.75 * math.pi, math.pi, 5 * math.pi):
            factor = 4 * math.sin(theta / 2) ** 2 / theta ** 2
            assert ou_zeta_re_z(theta, sigma, tau_c, t) == pytest.approx(
                base * factor)

    def test_ou_zeta_re_x_static_limit(self):
        # tau_c -> inf (frozen drive error) must refocus: zeta -> 0
        theta, omega, sigma = 5 * math.pi, mhz_to_rad(19.0), 1e6
        slow = float(ou_zeta_re_x(theta, omega, sigma, 1e-3, 10))
        fast = float(ou_zeta_re_x(theta, omega, sigma, 2e-7, 10))
        assert 0.0 <= slow < 1e-4
        assert fast > 100 * slow

    def test_decay_envelope_dispatch(self):
        sigma, tau_c = mhz_to_rad(1.0), 2e-7
        t = np.array([0.0, 0.5e-6, 1e-6])
        # the static-z echo envelope reads neither omega nor the cycle count
        re_static = PulseSequence.rotary_echo(math.pi, W17, 1)
        assert np.allclose(decay_envelope(re_static,
                                          NoiseSpec("z", "static", sigma), t),
                           np.exp(-(t / t_prime_re(math.pi, sigma)) ** 2))
        ram_ou = PulseSequence.ramsey(1e-6)
        assert np.allclose(decay_envelope(ram_ou,
                                          NoiseSpec("z", "ou", sigma, tau_c),
                                          t),
                           np.exp(-ou_zeta_prime(sigma, tau_c, t)))
        # static drive noise does not decay full-echo rotary echo
        re_x = PulseSequence.rotary_echo(5 * math.pi, mhz_to_rad(19.0), 1)
        assert np.all(decay_envelope(re_x, NoiseSpec("x", "static", sigma),
                                     t) == 1.0)

    def test_validity_window_warning(self):
        # tau_c sigma > theta/2 for theta = 3pi/4 at these parameters
        seq = PulseSequence.rotary_echo(0.75 * math.pi, mhz_to_rad(20.0), 1)
        spec = NoiseSpec("z", "ou", sigma=mhz_to_rad(2.0), tau_c=2e-7)
        assert not in_validity_window(seq, spec)
        with pytest.warns(ValidityWarning):
            decay_envelope(seq, spec, 1e-6)

    def test_mean_signal_re(self):
        sigma, tau_c, dw = mhz_to_rad(1.0), 2e-7, mhz_to_rad(2.0)
        seq = PulseSequence.rotary_echo(math.pi, mhz_to_rad(20.0), 10)
        spec = NoiseSpec("z", "ou", sigma, tau_c)
        t = 10 * 2 * math.pi / mhz_to_rad(20.0)
        env = float(decay_envelope(seq, spec, t))
        expect = 0.5 * (1 + math.cos(2 * dw * t * math.sin(math.pi / 2) / math.pi) * env)
        assert float(mean_signal(seq, dw, spec, t)) == pytest.approx(expect)

    def test_mean_signal_re_off_full_echoes_raises(self):
        omega = mhz_to_rad(2.0)
        seq = PulseSequence.rotary_echo(math.pi, omega, 6)
        spec = NoiseSpec("z", "static", mhz_to_rad(1.0))
        cycle = 2 * math.pi / omega
        dw = mhz_to_rad(0.17)
        assert mean_signal(seq, dw, spec, cycle * np.arange(7)).shape == (7,)
        with pytest.raises(ValueError, match="full echoes"):
            mean_signal(seq, dw, spec, np.linspace(0.0, 6 * cycle, 49))

    @pytest.mark.parametrize("seq, spec", [
        (PulseSequence.rotary_echo(math.pi, W17, 4),
         NoiseSpec("x", "static", mhz_to_rad(1.0))),
        (PulseSequence.rabi(W17, 1e-6),
         NoiseSpec("x", "static", mhz_to_rad(1.0))),
        (PulseSequence.rabi(W17, 1e-6),
         NoiseSpec("z", "static", mhz_to_rad(1.0)))],
        ids=["static-x-echo", "static-x-rabi", "static-z-rabi"])
    def test_resonant_forms_raise_off_resonance(self, seq, spec):
        t = 2 * math.pi / W17 * np.arange(5)
        assert mean_signal(seq, 0.0, spec, t).shape == (5,)
        with pytest.raises(ValueError, match="resonant"):
            mean_signal(seq, mhz_to_rad(0.5), spec, t)

    def test_rabi_static_z_mean_t0(self):
        assert float(rabi_static_z_mean(W17, mhz_to_rad(1.0), 0.0)) == pytest.approx(1.0)


class TestInfidelity:
    def test_quadratic_in_eps(self):
        args = dict(delta_omega=mhz_to_rad(0.5), omega=W17,
                    theta=math.pi, t=1e-6)
        a = infidelity("rotary_echo", 0.01, **args)
        b = infidelity("rotary_echo", 0.02, **args)
        assert b == pytest.approx(4 * a, rel=1e-9)

    def test_ramsey_leading_term(self):
        # on resonance only the pi/2 flip-angle error survives
        val = infidelity("ramsey", 0.05, 0.0, W17, t=1e-6)
        assert val == pytest.approx(0.05 ** 2 * math.pi ** 2 / 8.0)

    def test_large_eps_warns(self):
        with pytest.warns(UserWarning):
            infidelity("rabi", 0.5, 0.0, W17, t=1e-7)
