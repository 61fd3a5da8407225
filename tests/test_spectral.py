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
            extract_detunings(peaks, math.pi, mhz_to_rad(17.0), 1e4,
                              trace=make_trace(np.zeros(16), 10e-9))


class TestLeakageScreen:
    @pytest.mark.parametrize("b_mhz, n_cycles, filtered", [
        (0.1625, 69, False), (0.1675, 90, True), (0.1575, 252, True)],
        ids=["69-cycles", "90-cycles-filtered", "252-cycles-filtered"])
    def test_triplet_lines_without_leakage_pairs(self, b_mhz, n_cycles,
                                                 filtered):
        # `remag spectrum`'s chain at its default settings on a noiseless
        # pi echo at 17 MHz over the hyperfine triplet: the mirror
        # sidelobes of the strong pairs, paired and refit, used to add a
        # fourth detuning on a real line or on the carrier
        from remag.cli import _mean_trace
        from remag.dynamics import PulseSequence
        omega = mhz_to_rad(17.0)
        trace = _mean_trace(PulseSequence.rotary_echo(math.pi, omega,
                                                      n_cycles),
                            mhz_to_rad(b_mhz), mhz_to_rad(2.14), 10e-9)
        if filtered:
            trace = harmonic_filter(trace, omega, math.pi)
        pgram = periodogram(trace)
        est = extract_detunings(peak_significance(pgram), math.pi, omega,
                                pair_tolerance_hz=2 * pgram.grid_spacing,
                                trace=trace)
        got = [d / 1e6 for d, _ in est.detunings]
        assert len(got) == 3
        planted = (b_mhz, 2.14 - b_mhz, 2.14 + b_mhz)
        for line, want, tol in zip(got, planted, (0.02, 0.03, 0.03)):
            assert line == pytest.approx(want, abs=tol)
        assert np.all(np.diff(got) > 1e-3)
        assert min(got) > 0.01

    @pytest.mark.parametrize("ratio, offset, kept", [
        (1.0, 1.3, 2), (0.3, 1.5, 2), (0.05, 2.5, 2), (0.05, 1.5, 1)],
        ids=["equal-power-1.3/T", "0.3-power-1.5/T", "weak-2.5/T",
             "weak-1.5/T"])
    def test_screen_drops_only_weak_pairs_within_reach(self, ratio, offset,
                                                       kept):
        # a pair of lines at 17 MHz +- 2 MHz and, `offset`/T further out,
        # a second pair of `ratio` times its power, given as peaks; the
        # trace holds the second pair only where it must be kept
        from remag.spectral import PeakReport
        m, dt, f_c, split = 500, 10e-9, 17e6, 2e6
        t_total = m * dt
        outer = split + offset / t_total
        t = dt * np.arange(m)
        d = 0.5 + 0.1 * (np.cos(2 * np.pi * (f_c - split) * t)
                         + np.cos(2 * np.pi * (f_c + split) * t))
        if kept == 2:
            d += 0.1 * math.sqrt(ratio) * (
                np.cos(2 * np.pi * (f_c - outer) * t + 1.0)
                + np.cos(2 * np.pi * (f_c + outer) * t + 2.0))
        peaks = [PeakReport(frequency=f, power=p, rank=1, p_value=1e-9,
                            snr=10.0, delta_f=1e3)
                 for f, p in ((f_c - split, 1.0), (f_c + split, 1.0),
                              (f_c - outer, ratio), (f_c + outer, ratio))]
        omega = mhz_to_rad(17.0)
        est = extract_detunings(peaks, math.pi, omega, 2e4,
                                trace=make_trace(d, dt))
        assert len(est.detunings) == kept
        scale = math.pi / 2    # theta / (2 sin(theta / 2)) at theta = pi
        got = sorted(nu / scale for nu, _ in est.detunings)
        assert got[0] == pytest.approx(split, abs=2e4)
        if kept == 2:
            assert got[1] == pytest.approx(outer, abs=2e4)


def _uncached_refit(trace, f_c, splittings):
    """The refit with every basis column recomputed and stacked anew, and
    a finite-difference Jacobian: its fit and its residual evaluations."""
    t = np.asarray(trace.times, dtype=float)
    d = np.asarray(trace.values, dtype=float)
    evaluations = []

    def residual(params):
        evaluations.append(1)
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
    return fit, len(evaluations)


def _recorded_refit(monkeypatch, trace, f_c, splittings):
    """Run `_refine_pairs`, recording the residual, Jacobian and start
    point it hands `_levenberg_marquardt`, the solver's result and its
    residual evaluation count."""
    rec = {"evaluations": 0}
    real = spectral._levenberg_marquardt

    def recording(fun, jac, x0):
        def counted(x):
            rec["evaluations"] += 1
            return fun(x)
        rec.update(fun=fun, jac=jac, x0=x0.copy())
        rec["x"] = real(counted, jac, x0)
        return rec["x"]

    monkeypatch.setattr(spectral, "_levenberg_marquardt", recording)
    rec["result"] = spectral._refine_pairs(trace, f_c, splittings)
    monkeypatch.undo()
    return rec


def _cost(fun, x):
    r = fun(x)
    return 0.5 * float(r @ r)


def _central_difference(fun, x, step):
    cols = []
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up[i] += step
        down[i] -= step
        cols.append((fun(up) - fun(down)) / (up[i] - down[i]))
    return np.column_stack(cols)


class TestRefit:
    @pytest.fixture(params=[(0.17, 5e-6, 3), (0.17, 5e-6, 8),
                            (0.064, 15e-6, 3), (0.064, 15e-6, 8)],
                    ids=["2a-3", "2a-8", "2b-3", "2b-8"])
    def figure2(self, request, monkeypatch):
        """The figure 2a / 2b traces (pi echo at 17 MHz over the hyperfine
        triplet, 10 ns grid, shot noise), the start point that
        `extract_detunings` hands the refit, and the refit and its
        finite-difference reference from there."""
        from remag.cli import triplet_trace
        b_mhz, t_total, seed = request.param
        omega = mhz_to_rad(17.0)
        trace = triplet_trace(math.pi, omega, mhz_to_rad(b_mhz),
                              mhz_to_rad(2.14), t_total, dt_max=10e-9,
                              shot_sigma=0.035, seed=seed)
        pgram = periodogram(trace)
        peaks = peak_significance(pgram, max_peaks=6)
        starts = []
        refine = spectral._refine_pairs
        monkeypatch.setattr(spectral, "_refine_pairs",
                            lambda *a: starts.append(a) or refine(*a))
        extract_detunings(peaks, math.pi, omega,
                          pair_tolerance_hz=2 * pgram.grid_spacing,
                          trace=trace)
        monkeypatch.undo()
        [(_, f_c, splittings)] = starts
        rec = _recorded_refit(monkeypatch, trace, f_c, splittings)
        return trace, rec, _uncached_refit(trace, f_c, splittings)

    def test_jacobian_matches_central_difference(self, figure2):
        trace, rec, _ = figure2
        # a phase step of 1e-4 rad at the last sample: the difference's
        # truncation and rounding errors both stay below 1e-8 of a column
        step = 1e-4 / (2 * math.pi * trace.times[-1])
        for x in (rec["x0"], rec["x"]):
            jac = rec["jac"](x)
            ref = _central_difference(rec["fun"], x, step)
            assert np.all(np.max(np.abs(jac - ref), axis=0)
                          <= 1e-6 * np.max(np.abs(ref), axis=0))

    def test_cost_no_worse_than_finite_differences(self, figure2):
        _, rec, (ref, _) = figure2
        assert _cost(rec["fun"], rec["x"]) <= ref.cost * (1 + 1e-8)

    def test_agrees_with_finite_differences(self, figure2):
        _, rec, (ref, _) = figure2
        fc, splits = rec["result"]
        # both stop on the floor of the cost valley, where their costs
        # differ by under 1e-8 relative: 0.1 Hz (1e-7 MHz) is four orders
        # below the lines' Cramer-Rao bounds
        assert fc == pytest.approx(ref.x[0], rel=0, abs=0.1)
        np.testing.assert_allclose(splits, np.abs(ref.x[1:]), rtol=0,
                                   atol=0.1)

    def test_fewer_than_half_the_evaluations(self, figure2):
        _, rec, (_, ref_evaluations) = figure2
        assert rec["evaluations"] < 0.5 * ref_evaluations

    def test_rank_deficient_basis(self, monkeypatch):
        # two pairs on one splitting: their four columns repeat, so the
        # basis has rank 5 of 9 and only the SVD cutoff keeps it solvable
        t = 1e-8 * np.arange(400)
        d = (0.5 + 0.2 * np.cos(2 * np.pi * 16e6 * t)
             + 0.1 * np.sin(2 * np.pi * 18.3e6 * t))
        trace = make_trace(d, 1e-8)
        rec = _recorded_refit(monkeypatch, trace, 17e6,
                              np.array([1e6, 1e6]))
        fc, splits = rec["result"]
        assert np.isfinite(fc) and np.all(np.isfinite(splits))
        x0 = rec["x0"]
        cols = [np.ones_like(t)]
        for f in (x0[0] - x0[1], x0[0] + x0[1]) * 2:
            cols += [np.cos(2.0 * math.pi * f * t),
                     np.sin(2.0 * math.pi * f * t)]
        basis = np.column_stack(cols)
        assert np.linalg.matrix_rank(basis) == 5
        coef, *_ = np.linalg.lstsq(basis, d, rcond=None)
        np.testing.assert_allclose(rec["fun"](x0), d - basis @ coef,
                                   rtol=0, atol=1e-12)
        assert np.all(np.isfinite(rec["jac"](x0)))


class TestLevenbergMarquardt:
    """The refit's solver on its own, against MINPACK's lmder."""

    @staticmethod
    def two_exponentials():
        # y = a1 exp(-k1 t) + a2 exp(-k2 t) plus noise, fit for
        # (a1, k1, a2, k2) from a start well off both rates
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 4.0, 60)
        y = (2.0 * np.exp(-1.3 * t) + 0.7 * np.exp(-0.25 * t)
             + 0.01 * rng.standard_normal(t.size))

        def residual(p):
            return (p[0] * np.exp(-p[1] * t) + p[2] * np.exp(-p[3] * t)
                    - y)

        def jac(p):
            e1, e2 = np.exp(-p[1] * t), np.exp(-p[3] * t)
            return np.column_stack((e1, -p[0] * t * e1, e2, -p[2] * t * e2))

        return residual, jac

    @pytest.mark.parametrize("x0", [(1.0, 1.0, 1.0, 0.1),
                                    (3.0, 2.0, 0.1, 0.05),
                                    (0.5, 5.0, 0.5, 0.5)])
    def test_cost_matches_minpack(self, x0):
        residual, jac = self.two_exponentials()
        x0 = np.array(x0)
        x = spectral._levenberg_marquardt(residual, jac, x0)
        ref = least_squares(residual, x0, jac=jac, method="lm", xtol=1e-14)
        assert _cost(residual, x) == pytest.approx(ref.cost, rel=1e-8)

    def test_zero_residual_start_returns_x0(self):
        calls = []

        def residual(x):
            calls.append(x.copy())
            return np.zeros(3)

        def jac(x):
            raise AssertionError("no Jacobian needed at a zero residual")

        x0 = np.array([1.5, -2.0])
        x = spectral._levenberg_marquardt(residual, jac, x0)
        assert len(calls) == 1
        np.testing.assert_array_equal(x, x0)

    def test_rejected_point_is_not_evaluated_again(self, monkeypatch,
                                                    tmp_path):
        # `remag spectrum` on a pi echo of 94 cycles at 17 MHz over the
        # triplet at b = 72.5 kHz: twice in its refit a rejection shrinks
        # the trust radius to one that still holds the Gauss-Newton step,
        # and lmder would evaluate the rejected point again
        from remag.cli import main
        cfg = tmp_path / "triplet.ini"
        cfg.write_text("[sequence]\nkind = rotary_echo\ntheta_pi = 1.0\n"
                       "omega_mhz = 17.0\nn_cycles = 94\n"
                       "[field]\ndetuning_mhz = 0.0725\n"
                       "hyperfine_mhz = 2.14\n"
                       "[spectrum]\nfilter_harmonics = false\n")
        points = []
        real = spectral._levenberg_marquardt

        def recording(fun, jac, x0):
            def recorded(x):
                points.append(x.tobytes())
                return fun(x)
            return real(recorded, jac, x0)

        monkeypatch.setattr(spectral, "_levenberg_marquardt", recording)
        assert main(["spectrum", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        assert len(points) > 2
        assert all(a != b for a, b in zip(points, points[1:]))

    def test_stops_at_max_nfev(self):
        # |exp(x)|^2 has no minimum: every Gauss-Newton step is accepted
        # and cuts the cost by the same factor, so no convergence test
        # fires before the evaluation budget runs out
        calls = []

        def residual(x):
            calls.append(1)
            return np.exp(x)

        def jac(x):
            return np.exp(x)[:, None]

        x = spectral._levenberg_marquardt(residual, jac, np.array([0.0]))
        assert len(calls) == spectral._LM_NFEV_PER_PARAM * (1 + 1)
        assert x[0] < -100.0
