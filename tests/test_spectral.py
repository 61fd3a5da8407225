import json
import math

import numpy as np
import pytest
from scipy.optimize import least_squares

from remag import spectral
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


def _uncached_refit(trace, f_c, splittings):
    """The refit with every basis column recomputed and stacked anew."""
    t = np.asarray(trace.times, dtype=float)
    d = np.asarray(trace.values, dtype=float)

    def residual(params):
        fc = params[0]
        cols = [np.ones_like(t)]
        for sp in params[1:]:
            for f in (fc - sp, fc + sp):
                w = 2.0 * math.pi * f * t
                cols.append(np.cos(w))
                cols.append(np.sin(w))
        basis = np.column_stack(cols)
        coef, *_ = np.linalg.lstsq(basis, d, rcond=None)
        return d - basis @ coef

    x0 = np.concatenate(([f_c], splittings))
    fit = least_squares(residual, x0, method="lm", xtol=1e-14)
    return float(fit.x[0]), np.abs(fit.x[1:])


class TestRefit:
    @pytest.mark.parametrize("b_mhz, t_total, seed",
                             [(0.17, 5e-6, 3), (0.17, 5e-6, 8),
                              (0.064, 15e-6, 3), (0.064, 15e-6, 8)],
                             ids=["2a-3", "2a-8", "2b-3", "2b-8"])
    def test_cached_columns_bit_identical(self, monkeypatch, b_mhz,
                                          t_total, seed):
        # the figure 2a / 2b traces: pi echo at 17 MHz over the hyperfine
        # triplet, 10 ns grid, shot noise
        from remag.cli import triplet_trace
        omega = mhz_to_rad(17.0)
        trace = triplet_trace(math.pi, omega, mhz_to_rad(b_mhz),
                              mhz_to_rad(2.14), t_total, dt_max=10e-9,
                              shot_sigma=0.035, seed=seed)
        pgram = periodogram(trace)
        peaks = peak_significance(pgram, max_peaks=6)

        caches = []

        class Recording(spectral._ColumnCache):
            def __init__(self, *args):
                super().__init__(*args)
                self.calls = self.misses = self.largest = 0
                caches.append(self)

            def columns(self, f):
                self.misses += float(f).hex() not in self.entries
                cols = super().columns(f)
                self.calls += 1
                self.largest = max(self.largest, len(self.entries))
                return cols

        refits = []
        refine = spectral._refine_pairs

        def both(trace, f_c, splittings):
            got = refine(trace, f_c, splittings)
            refits.append((got, _uncached_refit(trace, f_c, splittings),
                           splittings.size))
            return got

        monkeypatch.setattr(spectral, "_ColumnCache", Recording)
        monkeypatch.setattr(spectral, "_refine_pairs", both)
        extract_detunings(peaks, math.pi, omega,
                          pair_tolerance_hz=2 * pgram.grid_spacing,
                          trace=trace)
        [((fc, splits), (ref_fc, ref_splits), n_pairs)] = refits
        assert fc == ref_fc
        assert np.array_equal(splits, ref_splits)
        [cache] = caches
        assert cache.limit == 1 + 4 * n_pairs   # the basis's column count
        assert cache.largest <= cache.limit
        # a Jacobian column that moves one splitting reuses the other
        # pairs' columns
        assert cache.misses < 0.7 * cache.calls

    def test_column_cache_evicts_least_recently_used(self):
        t = 1e-8 * np.arange(50)
        cache = spectral._ColumnCache(t, 3)
        for f in (1e6, 2e6, 3e6, 1e6, 4e6):
            cos, sin = cache.columns(np.float64(f))
            assert np.array_equal(cos, np.cos(2.0 * math.pi * f * t))
            assert np.array_equal(sin, np.sin(2.0 * math.pi * f * t))
        assert list(cache.entries) == [float(f).hex()
                                       for f in (3e6, 1e6, 4e6)]
