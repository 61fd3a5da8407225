import json
import math

import numpy as np
import pytest

from remag.dynamics import SignalTrace
from remag.spectral import (
    carrier_frequency,
    extract_detunings,
    frequency_uncertainty,
    harmonic_filter,
    peak_significance,
    periodogram,
)
from remag.units import mhz_to_rad


def make_trace(values, dt):
    values = np.asarray(values, dtype=float)
    return SignalTrace(times=dt * np.arange(values.size), values=values, dt=dt)


class TestPeriodogram:
    def test_pure_tone_peak(self):
        m, dt, a = 512, 1e-8, 0.3
        f0 = 25.0 / (m * dt)  # exactly on the Fourier grid
        t = dt * np.arange(m)
        pgram = periodogram(make_trace(a * np.cos(2 * np.pi * f0 * t), dt))
        i = np.argmax(pgram.power)
        assert pgram.frequencies[i] == pytest.approx(f0, abs=pgram.grid_spacing)
        # on-grid tone: P_max = M a^2 / 4
        assert pgram.power[i] == pytest.approx(m * a ** 2 / 4, rel=1e-6)

    def test_mean_removed(self):
        pgram = periodogram(make_trace(np.full(64, 0.7), 1e-8))
        assert np.max(pgram.power) < 1e-20

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            periodogram(make_trace(np.ones(4), 1e-8))


class TestSignificance:
    def test_injected_tone_found(self):
        rng = np.random.default_rng(8)
        m, dt, f0 = 1024, 1e-8, 7.3e6
        t = dt * np.arange(m)
        d = 0.2 * np.cos(2 * np.pi * f0 * t) + 0.05 * rng.standard_normal(m)
        peaks = peak_significance(periodogram(make_trace(d, dt)))
        assert peaks
        assert peaks[0].frequency == pytest.approx(f0, abs=2e4)
        assert peaks[0].p_value < 1e-10
        assert peaks[0].snr > 1.0

    def test_pure_noise_rarely_significant(self):
        hits = 0
        for seed in range(60):
            rng = np.random.default_rng(1000 + seed)
            trace = make_trace(rng.standard_normal(256), 1e-8)
            hits += bool(peak_significance(periodogram(trace), max_peaks=1))
        assert hits <= 5  # ~1% nominal rate; generous bound for 60 runs

    def test_crlb_formula(self):
        # delta f = (2 sqrt3 / pi) sigma / (K t sqrt M)
        val = frequency_uncertainty(0.05, 0.4, 5e-6, 500)
        assert val == pytest.approx(
            (2 * math.sqrt(3) / math.pi) * 0.05 / (0.4 * 5e-6 * math.sqrt(500)))


class TestCarrierAndFilter:
    def test_carrier_frequency(self):
        omega = mhz_to_rad(17.0)
        # theta = pi: cos(pi Omega t / pi) oscillates at Omega
        assert carrier_frequency(math.pi, omega) == pytest.approx(17e6)
        # theta = 5 pi reduces mod 2pi to pi: same carrier
        assert carrier_frequency(5 * math.pi, omega) == pytest.approx(17e6)
        with pytest.raises(ValueError):
            carrier_frequency(2 * math.pi, omega)

    def test_filter_attenuates_even_harmonic(self):
        omega = mhz_to_rad(17.0)
        f_c = 17e6
        m, dt = 2048, 1 / (8 * f_c)
        t = dt * np.arange(m)
        d = 0.5 + 0.2 * np.cos(2 * np.pi * 2 * f_c * t)
        out = harmonic_filter(make_trace(d, dt), omega, math.pi)
        assert np.sqrt(np.mean((out.values - 0.5) ** 2)) < 1e-3

    def test_filter_passes_clean_trace(self):
        # a trace with no even-harmonic content is returned unchanged
        omega = mhz_to_rad(17.0)
        f_c = 17e6
        m, dt = 2048, 1 / (8 * f_c)
        t = dt * np.arange(m)
        d = 0.5 + 0.3 * np.cos(2 * np.pi * f_c * t)  # on-grid odd harmonic
        out = harmonic_filter(make_trace(d, dt), omega, math.pi)
        assert np.sqrt(np.mean((out.values - d) ** 2)) < 1e-6


class TestDetunings:
    def test_noiseless_triplet_recovery(self):
        from remag.cli import triplet_trace
        b, a = mhz_to_rad(0.17), mhz_to_rad(2.14)
        omega = mhz_to_rad(17.0)
        trace = triplet_trace(math.pi, omega, b, a, 5e-6, dt_max=10e-9)
        pgram = periodogram(trace)
        peaks = peak_significance(pgram, max_peaks=6)
        assert len(peaks) == 6
        est = extract_detunings(peaks, math.pi, omega,
                                pair_tolerance_hz=2 * pgram.grid_spacing,
                                trace=trace)
        got = sorted(d / 1e6 for d, _ in est.detunings)
        # inner line is essentially exact; the outer pair carries a small
        # model-mismatch bias from the finite 5 us record
        assert got[0] == pytest.approx(0.17, abs=2e-3)
        assert got[1] == pytest.approx(2.14 - 0.17, abs=0.02)
        assert got[2] == pytest.approx(2.14 + 0.17, abs=0.02)
        assert 0.5 * (got[1] + got[2]) == pytest.approx(2.14, abs=0.02)
        assert est.theta_actual == pytest.approx(math.pi, rel=1e-3)

    def test_no_pair_raises(self):
        from remag.spectral import PeakReport
        peaks = [PeakReport(frequency=1e6, power=1.0, rank=1,
                            p_value=1e-5, snr=3.0, delta_f=1e3)]
        with pytest.raises(ValueError):
            extract_detunings(peaks, math.pi, mhz_to_rad(17.0), 1e4)
