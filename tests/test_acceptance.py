"""Acceptance suite: one pass/fail line per criterion.

Each test prints "criterion NN: PASS|FAIL - detail" before asserting, so
a plain ``pytest -s tests/test_acceptance.py`` reads as a checklist.
Tolerances are stated inline; Monte Carlo checks use fixed seeds.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from remag import models
from remag.calcium import CaDomainSpec, ca_field, ca_required_sensitivity
from remag.cli import FIGURES, main, triplet_trace
from remag.dynamics import PulseSequence, SignalTrace, build_waveform, propagate
from remag.noise import NoiseSpec, exact_mean, monte_carlo, sample_path
from remag.sensing import (ReadoutModel, corrected_sensitivity,
                           optimal_interrogation_times, re_coefficient,
                           readout_factors, repeated_readout_gain,
                           sensitivity_ideal, sensitivity_ratio_re_ramsey)
from remag.spectral import extract_detunings, peak_significance, periodogram
from remag.units import mhz_to_rad

W17 = mhz_to_rad(17.0)
W20 = mhz_to_rad(20.0)
B_LINE = mhz_to_rad(0.17)
A_HYP = mhz_to_rad(2.14)
TAU_C = 200e-9


def report(n, ok, detail):
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_sensitivity_coefficient():
    res = minimize_scalar(re_coefficient, bounds=(0.1, 2.0 * math.pi - 0.1),
                          method="bounded")
    ok = abs(res.fun - 1.380) <= 1e-3 and abs(res.x - 2.331) <= 0.02
    report(1, ok, f"min {res.fun:.4f} at theta = {res.x:.4f} rad "
                  "(want 1.380 +/- 0.001 at 2.331 +/- 0.02)")


def test_criterion_02_ratio_minimum():
    res = minimize_scalar(sensitivity_ratio_re_ramsey,
                          bounds=(0.1, 2.0 * math.pi - 0.1), method="bounded")
    ok = 1.19 <= res.fun <= 1.22 and 0.7 * math.pi <= res.x <= 0.9 * math.pi
    report(2, ok, f"min ratio {res.fun:.4f} at theta = {res.x / math.pi:.3f} pi "
                  "(want [1.19, 1.22] at [0.7, 0.9] pi)")


ECHO_MODELS = {"eps4": models.re_signal_full_echo_eps4,
               "first-order": models.re_signal_full_echo}


def _echo_deviations(theta, dw, n_max=50):
    """Max |model signal - exact propagation| over full echoes, per model."""
    seq = PulseSequence.rotary_echo(theta, W17, n_max)
    # exact segmentwise evolution; grid points land on every half echo
    trace = propagate(build_waveform(seq, dw), dt_max=theta / W17)
    exact = trace.values[2::2][:n_max]
    n = np.arange(1, n_max + 1)
    return {name: float(np.max(np.abs(exact - model(theta, W17, dw, n))))
            for name, model in ECHO_MODELS.items()}


def test_criterion_03_oracle_equivalence():
    # the eps^4 beat is checked on every row; the paper's first-order beat
    # only at 0.17 MHz, where its eps^2 phase error stays inside the bound
    failures, details = [], []
    for theta in (0.75 * math.pi, math.pi, 5.0 * math.pi):
        for b_mhz in (0.17, 2.17):
            devs = _echo_deviations(theta, mhz_to_rad(b_mhz))
            devs_half = _echo_deviations(theta, mhz_to_rad(b_mhz / 2.0))
            names = ECHO_MODELS if b_mhz < 1.0 else ("eps4",)
            for name in names:
                dev, dev_half = devs[name], devs_half[name]
                shrink = dev / dev_half if dev_half > 0 else math.inf
                tag = f"{name} theta={theta / math.pi:.2f}pi b={b_mhz}MHz"
                details.append(f"{tag}: dev {dev:.2e} shrink {shrink:.1f}x")
                if dev > 1e-2 or shrink < 3.5:
                    failures.append(tag)
    report(3, not failures,
           "; ".join(details) + " (want dev <= 1e-2, shrink >= 3.5x)")


def _recover_triplet(base, seed, shot_sigma=0.035):
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    values = base.values + shot_sigma * rng.standard_normal(base.values.size)
    trace = SignalTrace(times=base.times, values=values, dt=base.dt)
    pgram = periodogram(trace)
    peaks = peak_significance(pgram, max_peaks=6)
    if len(peaks) != 6 or any(p.p_value >= 0.01 for p in peaks):
        return None
    est = extract_detunings(peaks, math.pi, W17,
                            pair_tolerance_hz=2.0 * pgram.grid_spacing,
                            trace=trace)
    d = sorted(x for x, _ in est.detunings)
    if len(d) != 3:
        return None
    return d[0] / 1e6, (d[1] + d[2]) / 2e6  # b, A in MHz


def test_criterion_04_spectral_recovery():
    base = triplet_trace(math.pi, W17, B_LINE, A_HYP, 5e-6, dt_max=10e-9)
    hits = 0
    for seed in range(100):
        try:
            got = _recover_triplet(base, seed)
        except ValueError:
            got = None
        if got is not None and abs(got[0] - 0.17) <= 0.02 \
                and abs(got[1] - 2.14) <= 0.03:
            hits += 1

    trace_15 = triplet_trace(math.pi, W17, mhz_to_rad(0.064), A_HYP, 15e-6,
                             dt_max=10e-9, shot_sigma=0.035, seed=0)
    pgram = periodogram(trace_15)
    peaks = peak_significance(pgram, max_peaks=6)
    est = extract_detunings(peaks, math.pi, W17,
                            pair_tolerance_hz=2.0 * pgram.grid_spacing,
                            trace=trace_15)
    b_khz = min(x for x, _ in est.detunings) / 1e3
    ok = hits >= 90 and abs(b_khz - 64.0) <= 12.0
    report(4, ok, f"{hits}/100 runs within +/-0.02/0.03 MHz (want >= 90); "
                  f"15 us line at {b_khz:.1f} kHz (want 64 +/- 12)")


def _mc_z_case(theta, cycles, trials):
    seq = PulseSequence.rotary_echo(theta, W20, cycles)
    spec = NoiseSpec(axis="z", kind="ou", sigma=0.05 * W20, tau_c=TAU_C,
                     seed=202)
    res = monte_carlo(seq, mhz_to_rad(2.0), spec, trials=trials)
    # the model column `remag noise` and figure s4 print for these cases
    return res, exact_mean(seq, mhz_to_rad(2.0), spec, res.times)


def _mc_rabi_x(trials):
    period = 2.0 * math.pi / W20
    seq = PulseSequence.rabi(W20, 12 * period)
    spec = NoiseSpec(axis="x", kind="ou", sigma=0.05 * W20, tau_c=TAU_C,
                     seed=303)
    res = monte_carlo(seq, 0.0, spec, trials=trials,
                      record_times=period * np.arange(13))
    # an independent reference: the closed form on hand-built objects of
    # its own, not on the ensemble's
    ref_seq = PulseSequence.rabi(W20, 12 * period)
    ref_spec = NoiseSpec(axis="x", kind="ou", sigma=0.05 * W20, tau_c=TAU_C)
    return res, np.atleast_1d(models.mean_signal(ref_seq, 0.0, ref_spec,
                                                 res.times))


def test_criterion_05_mc_vs_closed_form():
    trials = 10_000
    cycles = {0.75 * math.pi: 16, math.pi: 18, 5.0 * math.pi: 24}
    jobs = [lambda th=th, n=n: _mc_z_case(th, n, trials)
            for th, n in cycles.items()]
    jobs.append(lambda: _mc_rabi_x(trials))
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda j: j(), jobs))

    failures, details = [], []
    labels = [f"OU-z {th / math.pi:.2f}pi" for th in cycles] + ["OU-x rabi"]
    for label, (res, model) in zip(labels, results):
        z = np.max(np.abs(res.mean - model) / np.maximum(res.stderr, 1e-12))
        details.append(f"{label} max {z:.1f} SE")
        if z > 3.0:
            failures.append(label)

    # static drive noise refocuses exactly at every full echo
    seq = PulseSequence.rotary_echo(5.0 * math.pi, W20, 20)
    spec = NoiseSpec(axis="x", kind="static", sigma=0.05 * W20, seed=404)
    res = monte_carlo(seq, 0.0, spec, trials=2000)
    dev = np.max(np.abs(res.mean - 1.0) - np.maximum(res.stderr, 1e-12))
    details.append(f"static-x 5pi echo dev {dev:.1e}")
    if dev > 0.0:
        failures.append("static-x")

    report(5, not failures, "; ".join(details) + " (want <= 3 SE)")


def test_criterion_06_ou_calibration():
    sigma = mhz_to_rad(1.0)
    spec = NoiseSpec(axis="z", kind="ou", sigma=sigma, tau_c=TAU_C, seed=10)
    dt = TAU_C / 20
    x = sample_path(spec, 1e5 * dt, dt).values
    var_err = abs(x.var() / sigma ** 2 - 1.0)
    acov = np.mean(x[:-20] * x[20:])
    acov_err = abs(acov / (sigma ** 2 * math.exp(-1.0)) - 1.0)
    ok = var_err < 0.03 and acov_err < 0.05
    report(6, ok, f"variance off by {var_err:.1%} (want < 3%), "
                  f"autocov(tau_c) off by {acov_err:.1%} (want < 5%)")


def test_criterion_07_readout_factors():
    r = ReadoutModel(n0=0.0022, n1=0.0015)
    c, _, _ = readout_factors(r, math.pi, 0.0, 1e-6)
    gain = repeated_readout_gain(ReadoutModel(0.0022, 0.0015, n_r=100))
    ok = abs(c - 6.6e-3) / 6.6e-3 <= 0.02 and 9.5 <= gain <= 10.5
    report(7, ok, f"C(pi) = {c:.4e} (want 6.6e-3 +/- 2%), "
                  f"C_100/C = {gain:.2f} (want [9.5, 10.5])")


def _best_corrected_re(theta, horizon, sigma, readout, n_r, t_r):
    t_p = models.t_prime_re(theta, sigma)
    best = math.inf
    for t in optimal_interrogation_times(theta, W17, 0.0, horizon):
        c, c_a, _ = readout_factors(readout, theta, 0.0, t)
        eta = corrected_sensitivity(
            sensitivity_ideal("rotary_echo", t, theta=theta), c, c_a,
            math.exp((t / t_p) ** 2), t,
            readout=ReadoutModel(readout.n0, readout.n1, n_r=n_r, t_r=t_r))
        best = min(best, eta)
    return best


def test_criterion_08_repeated_readout_crossover():
    t2_star = 3e-6
    sigma = math.sqrt(2.0) / t2_star
    readout = ReadoutModel(n0=0.0022, n1=0.0015)
    t_r = 1.5e-6
    best_re = _best_corrected_re(11.0 * math.pi, 60e-6, sigma, readout,
                                 n_r=100, t_r=t_r)
    best_ram = math.inf
    for t in np.linspace(0.2e-6, 6e-6, 240):
        c, c_a, _ = readout_factors(readout, math.pi, 0.0, t)
        eta = corrected_sensitivity(
            sensitivity_ideal("ramsey", t), c, c_a,
            math.exp((t / t2_star) ** 2), t,
            readout=ReadoutModel(readout.n0, readout.n1, n_r=1, t_r=t_r))
        best_ram = min(best_ram, eta)
    ok = best_re < best_ram
    report(8, ok, f"11pi-RE optimum {best_re * 1e6:.3f} uT/rtHz vs Ramsey "
                  f"{best_ram * 1e6:.3f} (want RE strictly lower)")


def test_criterion_09_false_alarm_rate():
    runs, m = 10_000, 4096
    dt = 1e-9
    times = dt * np.arange(m)
    hits = 0
    for run in range(runs):
        rng = np.random.Generator(np.random.Philox(key=[run, 1]))
        trace = SignalTrace(times=times, values=rng.standard_normal(m),
                            dt=dt)
        pgram = periodogram(trace, oversample=1)
        if peak_significance(pgram, max_peaks=1, level=0.01):
            hits += 1
    rate = hits / runs
    band = 3.0 * math.sqrt(0.01 * 0.99 / runs)
    ok = abs(rate - 0.01) <= band
    report(9, ok, f"top-peak p < 0.01 rate {rate:.2%} over {runs} runs "
                  f"(want 1% +/- {band:.2%})")


def test_criterion_10_calcium_scenario():
    spec = CaDomainSpec(ion_count=1e5, travel_distance=200e-9,
                        flux_duration=10e-6, standoff=10e-9)
    field = ca_field(spec)
    eta = ca_required_sensitivity(spec)
    ident = abs(eta - field * math.sqrt(
        2.0 * math.pi * spec.repetitions * spec.flux_duration))
    ok = abs(field - 0.64e-6) / 0.64e-6 <= 0.01 and ident <= 1e-12
    report(10, ok, f"field {field * 1e6:.4f} uT (want 0.64 +/- 1%), "
                   f"identity residual {ident:.1e} (want <= 1e-12)")


def test_criterion_11_figure_determinism(tmp_path):
    heavy = {"4a", "4b", "4c", "s4"}  # Monte Carlo panels, trimmed trials
    bad = []
    for panel in FIGURES:
        bodies = []
        for tag in ("a", "b"):
            out = tmp_path / f"{panel}_{tag}"
            argv = ["figure", panel, "--out", str(out), "--seed", "11"]
            if panel in heavy:
                argv += ["--trials", "60"]
            assert main(argv) == 0
            bodies.append(sorted((p.name, p.read_bytes())
                                 for p in out.glob("*.csv")))
        if bodies[0] != bodies[1]:
            bad.append(panel)
    report(11, not bad,
           f"{len(FIGURES)} presets rerun byte-identical"
           + (f"; mismatches: {bad}" if bad else ""))
