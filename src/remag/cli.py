"""Batch front-end: scenario configs in, CSV/JSON artifacts out.

Subcommands: simulate, spectrum, sensitivity, noise, calcium, and
figure presets that regenerate the data behind each plot at desk scale.
Every run writes a manifest; CSV bodies are deterministic for a given
config and seed (timestamps live only in the manifest).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import platform
import sys
import warnings
from dataclasses import replace
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__, models
from .calcium import ca_field, ca_required_sensitivity, implied_repetitions
from .config import ConfigError, ScenarioConfig, config_hash, parse_config
from .dynamics import GridTooLargeError, PulseSequence, SignalTrace, \
    build_waveform, cycle_period, propagate, refocuses, steps_per_segment
from .noise import MAX_SEED, EnsembleResult, NoiseSpec, mc_vs_model, \
    _trial_rng, _usable_cpus
from .sensing import ReadoutModel, optimal_interrogation_times, \
    rabi_asymptote, sensitivity_ideal, sensitivity_sweep
from .spectral import extract_detunings, harmonic_filter, peak_significance, \
    periodogram
from .units import mhz_to_rad, us_to_s


# ---------------------------------------------------------------------------
# output plumbing

#: rows of a CSV body formatted per write
_CSV_BATCH_ROWS = 256


class RunWriter:
    """Collects output files for one run and writes the manifest.

    CSV bodies carry a #-metadata block (tool version, config hash, seed,
    units) but never timestamps, so reruns with the same config and seed
    are byte-identical; timestamps and the environment (Python, numpy and
    scipy versions, and the CPUs ``monte_carlo`` may spread trial chunks
    over) go to the manifest only, as do the run's distinct warnings.  A
    run without a config (``cfg`` None: no figure preset reads one) writes
    no config hash in either and no config in its manifest.
    Each file is written under a temporary name in ``out_dir`` and renamed
    onto its own once whole, so a run killed mid-write never leaves a
    truncated file under a real name; :meth:`cleanup` removes every file
    the run wrote, and the temporary one of a write that failed.  Before
    its first write a run removes the last run's ``manifest.json``, then
    each plain name (no separator or leading dot) it lists, and nothing
    else: a reused ``out_dir`` never mixes two runs under one manifest.
    ``monte_carlo`` maps each Monte Carlo CSV to the trials and grid facts
    in its metadata block; the manifest repeats them.
    """

    def __init__(self, out_dir: str, subcommand: str,
                 cfg: ScenarioConfig | None, seed: int):
        self.out_dir = out_dir
        self.subcommand = subcommand
        self.cfg = cfg
        self.seed = seed
        self.hash = None if cfg is None else config_hash(cfg)
        self.created: list[str] = []
        self.pending: str | None = None     # temporary name being written
        self.monte_carlo: dict = {}
        self.started = datetime.now(timezone.utc).isoformat()

    def _meta_lines(self, extra: dict | None) -> list[str]:
        lines = [f"# remag {__version__}", f"# subcommand: {self.subcommand}"]
        if self.hash is not None:
            lines.append(f"# config_hash: {self.hash}")
        lines += [f"# seed: {self.seed}", "# units: frequencies MHz, times us"]
        for key in sorted(extra or {}):
            lines.append(f"# {key}: {extra[key]}")
        return lines

    def csv(self, name: str, columns: dict, extra_meta: dict | None = None) -> str:
        path = os.path.join(self.out_dir, name)
        cols = list(columns)
        data = np.column_stack([np.asarray(columns[c], dtype=float)
                                for c in cols])
        row = ",".join(["%.12g"] * len(cols)) + "\n"
        with self._open(name) as fh:
            fh.write("\n".join(self._meta_lines(extra_meta)) + "\n")
            fh.write(",".join(cols) + "\n")
            # np.savetxt(fmt="%.12g")'s text, formatted in bounded batches,
            # each by one % on the row template repeated once per row
            for start in range(0, len(data), _CSV_BATCH_ROWS):
                batch = data[start:start + _CSV_BATCH_ROWS]
                fh.write(row * len(batch) % tuple(batch.ravel().tolist()))
        return path

    def json(self, name: str, payload) -> str:
        with self._open(name) as fh:
            # one write: json.dump writes each token apart
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return os.path.join(self.out_dir, name)

    @contextlib.contextmanager
    def _open(self, name: str):
        """A text file written as ``.NAME.tmp`` in out_dir and renamed to
        NAME once the block leaves without raising."""
        path = os.path.join(self.out_dir, name)
        if not self.created:
            self._remove_previous_run()
        self.created.append(path)
        self.pending = os.path.join(self.out_dir, f".{name}.tmp")
        with open(self.pending, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(self.pending, path)
        self.pending = None

    def _remove_previous_run(self) -> None:
        try:
            with open(os.path.join(self.out_dir, "manifest.json"),
                      encoding="utf-8") as fh:
                old = json.load(fh)["outputs"]
        except (OSError, ValueError, TypeError, KeyError):
            old = []
        # the manifest first: a run killed in between leaves no manifest
        for name in ["manifest.json"] + (old if isinstance(old, list) else []):
            if (isinstance(name, str) and name[:1] not in ("", ".")
                    and not any(c in name for c in "/\\\0")):
                with contextlib.suppress(OSError):
                    os.unlink(os.path.join(self.out_dir, name))

    def manifest(self, caught: list) -> str:
        distinct = dict.fromkeys((w.category.__name__, str(w.message))
                                 for w in caught)
        payload = {
            "tool": "remag",
            "version": __version__,
            "subcommand": self.subcommand,
            "seed": self.seed,
            "warnings": [{"category": category, "message": message}
                         for category, message in distinct],
            "started": self.started,
            "finished": datetime.now(timezone.utc).isoformat(),
            "outputs": [os.path.basename(p) for p in self.created],
            "environment": {"python": platform.python_version(),
                            "numpy": np.__version__,
                            "scipy": scipy.__version__,
                            "cpus": _usable_cpus()},
        }
        if self.cfg is not None:
            payload.update(config_hash=self.hash, config=self.cfg.values)
        if self.monte_carlo:
            payload["monte_carlo"] = self.monte_carlo
        return self.json("manifest.json", payload)

    def cleanup(self) -> None:
        for path in filter(None, [*self.created, self.pending]):
            with contextlib.suppress(OSError):
                os.unlink(path)


# ---------------------------------------------------------------------------
# noiseless traces

def _mean_trace(seq: PulseSequence, b: float, hyperfine: float,
                dt_max: float) -> SignalTrace:
    """Noiseless trace averaged over the single line b or, for a nonzero
    hyperfine splitting A, the equal-weight triplet b, A-b, A+b.

    Ramsey's free evolution is read between the ideal pi/2 pulses that
    :func:`build_waveform` leaves to the analysis, as ``monte_carlo``
    reads it, which makes each line the fringe (1 + cos(dw t))/2.
    """
    detunings = [b] if hyperfine == 0.0 else [b, hyperfine - b, hyperfine + b]
    if seq.kind == "ramsey":
        # propagate's grid over the one segment
        wave = build_waveform(seq, b)
        n_steps = steps_per_segment(wave, dt_max)
        dt = wave.segment / n_steps
        times = dt * np.arange(n_steps + 1)
        values = np.mean([models.ramsey_signal(dw, times)
                          for dw in detunings], axis=0)
        return SignalTrace(times=times, values=values, dt=dt)
    traces = [propagate(build_waveform(seq, dw), dt_max=dt_max)
              for dw in detunings]
    values = np.mean([t.values for t in traces], axis=0)
    return SignalTrace(times=traces[0].times, values=values, dt=traces[0].dt)


def _noiseless_trace(cfg: ScenarioConfig) -> SignalTrace:
    return _mean_trace(cfg.sequence, cfg.detuning, cfg.hyperfine,
                       cfg["grid"]["dt_ns"] * 1e-9)


def triplet_trace(theta: float, omega: float, b: float, hyperfine: float,
                  t_total: float, dt_max: float, shot_sigma: float = 0.0,
                  seed: int = 0) -> SignalTrace:
    """Rotary-echo trace over an equal-weight detuning triplet.

    Optional additive Gaussian shot noise of standard deviation
    shot_sigma per sample, seeded for reproducibility.
    """
    seq = PulseSequence.rotary_echo(
        theta, omega, max(1, int(t_total / cycle_period(theta, omega))))
    trace = _mean_trace(seq, b, hyperfine, dt_max)
    if shot_sigma > 0.0:
        noise = shot_sigma * _trial_rng(seed, 0).standard_normal(
            trace.values.size)
        trace = replace(trace, values=trace.values + noise)
    return trace


# ---------------------------------------------------------------------------
# subcommands

def _grid_facts(res: EnsembleResult, label: str) -> dict:
    """Grid step (ns), step count and trial chunks of a Monte Carlo run,
    keyed like its CSV columns: ``dt_ns`` or, for label l, ``dt_ns_l``."""
    suffix = f"_{label}" if label else ""
    return {f"dt_ns{suffix}": res.meta["dt"] * 1e9,
            f"n_steps{suffix}": res.meta["n_steps"],
            f"chunks{suffix}": res.meta["chunks"]}


def cmd_simulate(cfg: ScenarioConfig, w: RunWriter, args) -> None:
    if cfg.noise is not None:
        raise cfg.error("noise", "simulate writes the noiseless trace; run "
                        "`remag noise` for a noise ensemble")
    trace = _noiseless_trace(cfg)
    w.csv("trace.csv", {"t_us": trace.times * 1e6, "signal": trace.values})


def cmd_spectrum(cfg: ScenarioConfig, w: RunWriter, args) -> None:
    if cfg.noise is not None:
        raise cfg.error("noise", "spectrum analyses the noiseless trace; run "
                        "`remag noise` for a noise ensemble")
    seq = cfg.sequence
    rotary = seq.kind == "rotary_echo"
    if rotary and refocuses(seq.theta):
        raise cfg.error("sequence", "theta = 2 pi k has no carrier")
    trace = _noiseless_trace(cfg)
    sp = cfg["spectrum"]
    filtered = sp["filter_harmonics"] and rotary
    if filtered:
        trace = harmonic_filter(trace, seq.omega, seq.theta)
    try:    # too few samples, or a flat trace
        pgram = periodogram(trace, oversample=sp["oversample"])
        peaks = peak_significance(pgram, max_peaks=sp["max_peaks"],
                                  level=sp["level"])
    except ValueError as exc:
        raise cfg.error("sequence", exc) from None
    w.csv("spectrum.csv", {"freq_mhz": pgram.frequencies / 1e6,
                           "power": pgram.power},
          extra_meta={"filtered": filtered})
    # no symmetric line pair to invert: peaks.json stands alone
    with contextlib.suppress(ValueError):
        _write_lines(w, "", pgram, peaks, trace,
                     seq.theta if rotary else None, seq.omega)


def _write_lines(w: RunWriter, prefix: str, pgram, peaks, trace,
                 theta: float | None, omega: float) -> None:
    """Write ``peaks.json`` and, for a rotary echo of half-echo angle
    ``theta``, the ``detunings.json`` its line pairs invert to."""
    w.json(f"{prefix}peaks.json",
           [{"frequency_mhz": p.frequency / 1e6, "power": p.power,
             "rank": p.rank, "p_value": p.p_value, "snr": p.snr,
             "delta_f_mhz": p.delta_f / 1e6} for p in peaks])
    if theta is None:
        return
    est = extract_detunings(peaks, theta, omega,
                            pair_tolerance_hz=2.0 * pgram.grid_spacing,
                            trace=trace)
    w.json(f"{prefix}detunings.json", {
        "carrier_mhz": est.carrier_hz / 1e6,
        "omega_measured_mhz": est.omega_measured / (2e6 * math.pi),
        "theta_actual_rad": est.theta_actual,
        "detunings_mhz": [[d / 1e6, u / 1e6] for d, u in est.detunings],
    })


def cmd_sensitivity(cfg: ScenarioConfig, w: RunWriter, args) -> None:
    seq = cfg.sequence
    t_max = us_to_s(cfg["grid"]["t_max_us"])
    if seq.kind == "rotary_echo":
        if refocuses(seq.theta):
            raise cfg.error("sequence", "theta = 2 pi k refocuses the field")
        try:    # every full echo up to the horizon
            times = optimal_interrogation_times(seq.theta, seq.omega, 0.0,
                                                t_max)
        except ValueError as exc:
            raise cfg.error("grid", f"{exc} ({seq.cycle_period * 1e6:.6g} "
                            f"us): t_max_us = {cfg['grid']['t_max_us']:g}"
                            ) from None
    else:
        times = np.linspace(t_max / cfg["grid"]["points"], t_max,
                            cfg["grid"]["points"])
    envelope = np.ones_like(times)
    if cfg.noise is not None:
        try:
            envelope = 1.0 / models.decay_envelope(seq, cfg.noise, times)
        except ValueError as exc:  # no closed-form envelope for this pair
            raise cfg.error("noise", exc) from None
    ideal, corrected = sensitivity_sweep(
        seq.kind, times, cfg.readout, envelope, theta=seq.theta,
        omega=seq.omega, hyperfine=cfg.hyperfine)
    w.csv("sensitivity.csv", {"t_us": times * 1e6,
                              "eta_ideal_ut": ideal * 1e6,
                              "eta_corrected_ut": corrected * 1e6})


class Case(NamedTuple):
    """One Monte Carlo ensemble to set beside its closed-form model."""

    seq: PulseSequence
    spec: NoiseSpec
    delta_omega: float = 0.0
    record_times: np.ndarray | None = None


def _write_cases(w: RunWriter, tables: dict, trials: int) -> None:
    """Run every case of ``{csv name: {label: Case}}``, one CSV per name.

    Label "" writes the columns mc_mean, mc_stderr and model; any other
    label l writes mc_l, se_l and model_l.  The model column is left out
    where the scenario has no closed form (see :func:`mc_vs_model`), and
    the standard-error column for one trial, which has no spread to
    estimate it from (the metadata's ``trials: 1`` says so).  The
    metadata block and the manifest get each case's grid facts.
    """
    for name, row in tables.items():
        cols, meta = {}, {"trials": trials}
        for label, case in row.items():
            res, model = mc_vs_model(case.seq, case.delta_omega, case.spec,
                                     trials, case.record_times)
            cols.setdefault("t_us", res.times * 1e6)
            keys = (("mc_mean", "mc_stderr", "model") if label == "" else
                    (f"mc_{label}", f"se_{label}", f"model_{label}"))
            cols[keys[0]] = res.mean
            if trials > 1:
                cols[keys[1]] = res.stderr
            if model is not None:
                cols[keys[2]] = model
            meta.update(_grid_facts(res, label))
        w.monte_carlo[name] = meta
        w.csv(name, cols, extra_meta=meta)


def cmd_noise(cfg: ScenarioConfig, w: RunWriter, args) -> None:
    if cfg.noise is None:
        raise cfg.error("noise", "enabled must be true for `remag noise`")
    if cfg.hyperfine != 0.0:
        raise cfg.error("field", "noise runs the single line detuning_mhz; "
                        "set hyperfine_mhz = 0 (simulate, spectrum and "
                        "sensitivity average the hyperfine triplet)")
    case = Case(cfg.sequence, cfg.noise, cfg.detuning)
    _write_cases(w, {"decay.csv": {"": case}},
                 args.trials or cfg["run"]["trials"])


def cmd_calcium(cfg: ScenarioConfig, w: RunWriter, args) -> None:
    c = cfg["calcium"]
    spec = cfg.calcium
    field = ca_field(spec)
    eta = ca_required_sensitivity(spec)
    target = c["eta_target_ut"] * 1e-6
    w.csv("calcium.csv", {
        "ions": [c["ions"]], "distance_nm": [c["distance_nm"]],
        "duration_us": [c["duration_us"]], "standoff_nm": [c["standoff_nm"]],
        "repetitions": [c["repetitions"]],
        "field_ut": [field * 1e6],
        "eta_required_ut_rthz": [eta * 1e6],
        "implied_reps_for_target": [implied_repetitions(spec, target)],
    }, extra_meta={"eta_target_ut_rthz": c["eta_target_ut"]})


# ---------------------------------------------------------------------------
# figure presets

T2_STAR_FIT = 2.19e-6      # static-bath dephasing time from the echo fit
OMEGA_17 = mhz_to_rad(17.0)
B_LINE = mhz_to_rad(0.17)
A_HYPERFINE = mhz_to_rad(2.14)


def fig_1b(w: RunWriter, trials: int) -> None:
    """Ideal sensitivity vs interrogation time under a static bath."""
    sigma = math.sqrt(2.0) / T2_STAR_FIT
    times = np.linspace(0.05e-6, 6.0e-6, 240)
    cols = {"t_us": times * 1e6}
    for theta, label in ((0.75 * math.pi, "eta_re_3pi4_ut"),
                         (math.pi, "eta_re_pi_ut"),
                         (5.0 * math.pi, "eta_re_5pi_ut")):
        t_p = models.t_prime_re(theta, sigma)
        eta = sensitivity_ideal("rotary_echo", times, theta=theta)
        cols[label] = eta * np.exp((times / t_p) ** 2) * 1e6
    t_ram = models.t_prime_ramsey(sigma)
    eta_ram = sensitivity_ideal("ramsey", times)
    cols["eta_ramsey_ut"] = eta_ram * np.exp((times / t_ram) ** 2) * 1e6
    # lower envelope of the Rabi-beat minima; its decay is drive-limited,
    # far slower than the bath, so no envelope is applied here
    x = times * OMEGA_17
    cols["eta_rabi_ut"] = rabi_asymptote(OMEGA_17) * np.sqrt(x / (x + 2.0)) * 1e6
    w.csv("fig1b_sensitivity.csv", cols,
          extra_meta={"sigma_mhz": sigma / (2e6 * math.pi)})


def fig_1c(w: RunWriter, trials: int) -> None:
    """A pi rotary-echo trace with its first-order model and the
    even-harmonic-filtered version used for spectral analysis."""
    theta = math.pi
    n_cycles = 51
    seq = PulseSequence.rotary_echo(theta, OMEGA_17, n_cycles)
    trace = propagate(build_waveform(seq, B_LINE), dt_max=2e-9)
    filtered = harmonic_filter(trace, OMEGA_17, theta)
    model = models.re_signal(theta, OMEGA_17, B_LINE, trace.times)
    w.csv("fig1c_trace.csv", {"t_us": trace.times * 1e6,
                              "signal": trace.values,
                              "filtered": filtered.values,
                              "model": model})


def _spectrum_preset(w: RunWriter, tag: str, b: float, t_total: float,
                     seed: int) -> None:
    trace = triplet_trace(math.pi, OMEGA_17, b, A_HYPERFINE, t_total,
                          dt_max=10e-9, shot_sigma=0.035, seed=seed)
    pgram = periodogram(trace)
    # the three hyperfine lines split into six; window leakage from such
    # strong lines can clear the significance level too, so keep the six
    # dominant peaks for the pair inversion
    peaks = peak_significance(pgram, max_peaks=6)
    w.csv(f"{tag}_spectrum.csv", {"freq_mhz": pgram.frequencies / 1e6,
                                  "power": pgram.power})
    _write_lines(w, f"{tag}_", pgram, peaks, trace, math.pi, OMEGA_17)


def fig_2a(w: RunWriter, trials: int) -> None:
    """Six-line spectrum of a 5 us pi-RE trace over the hyperfine triplet."""
    _spectrum_preset(w, "fig2a", B_LINE, 5e-6, w.seed)


def fig_2b(w: RunWriter, trials: int) -> None:
    """15 us trace resolving a 64 kHz line pair."""
    _spectrum_preset(w, "fig2b", mhz_to_rad(0.064), 15e-6, w.seed)


def fig_3a(w: RunWriter, trials: int) -> None:
    """Full-echo signal vs detuning after n = 4 pi-RE cycles."""
    dw = mhz_to_rad(np.linspace(-10.0, 10.0, 401))
    sbar = models.re_signal_full_echo(math.pi, OMEGA_17, dw, 4)
    w.csv("fig3a_signal.csv", {"dw_mhz": dw / (2e6 * math.pi),
                               "sbar": sbar})


def fig_3b(w: RunWriter, trials: int) -> None:
    """Corrected pi-RE sensitivity at the usable interrogation times."""
    theta = math.pi
    t_p = models.t_prime_re(theta, math.sqrt(2.0) / T2_STAR_FIT)
    times = optimal_interrogation_times(theta, OMEGA_17, A_HYPERFINE, 10e-6)
    # math.exp: np.exp differs by 1 ulp on ~4% of inputs, moving the bytes
    ideal, corrected = sensitivity_sweep(
        "rotary_echo", times, ReadoutModel(n0=0.0022, n1=0.0015),
        [math.exp((t / t_p) ** 2) for t in times], theta=theta,
        hyperfine=A_HYPERFINE)
    w.csv("fig3b_sensitivity.csv", {"t_us": times * 1e6,
                                    "eta_ideal_ut": ideal * 1e6,
                                    "eta_corrected_ut": corrected * 1e6})


OMEGA_19 = mhz_to_rad(19.0)
OMEGA_20 = mhz_to_rad(20.0)
TAU_C = 200e-9


def fig_4a(w: RunWriter, trials: int) -> None:
    """Rabi peak decay under static and OU drive noise."""
    period = 2.0 * math.pi / OMEGA_19
    seq = PulseSequence.rabi(OMEGA_19, 20 * period)
    record = period * np.arange(21)
    _write_cases(w, {"fig4a_rabi_peaks.csv": {
        kind: Case(seq, NoiseSpec("x", kind, 0.05 * OMEGA_19, TAU_C,
                                  w.seed + i), record_times=record)
        for i, kind in enumerate(("static", "ou"))}}, trials)


def fig_4b(w: RunWriter, trials: int) -> None:
    """5pi rotary-echo full-echo peaks under static and OU drive noise."""
    seq = PulseSequence.rotary_echo(5.0 * math.pi, OMEGA_19, 20)
    _write_cases(w, {"fig4b_re5pi_peaks.csv": {
        kind: Case(seq, NoiseSpec("x", kind, 0.05 * OMEGA_19, TAU_C,
                                  w.seed + i))
        for i, kind in enumerate(("static", "ou"))}}, trials)


def fig_4c(w: RunWriter, trials: int) -> None:
    """pi rotary-echo full-echo peaks under OU drive noise."""
    seq = PulseSequence.rotary_echo(math.pi, OMEGA_19, 95)
    spec = NoiseSpec("x", "ou", 0.05 * OMEGA_19, TAU_C, w.seed)
    _write_cases(w, {"fig4c_repi_peaks.csv": {"ou": Case(seq, spec)}}, trials)


def fig_s4(w: RunWriter, trials: int) -> None:
    """Monte Carlo decay vs closed forms: OU dephasing (panel a, detuned)
    and drive noise (panel b, resonant), one CSV per curve."""
    dw = mhz_to_rad(2.0)
    period = 2.0 * math.pi / OMEGA_20
    echoes = {"re_3pi4": PulseSequence.rotary_echo(0.75 * math.pi, OMEGA_20, 16),
              "re_pi": PulseSequence.rotary_echo(math.pi, OMEGA_20, 18),
              "re_5pi": PulseSequence.rotary_echo(5.0 * math.pi, OMEGA_20, 24)}

    def bath(i):
        return NoiseSpec("z", "ou", 0.05 * OMEGA_20, TAU_C, w.seed + i)

    def drive(i):
        return NoiseSpec("x", "ou", 0.05 * OMEGA_20, TAU_C, w.seed + i)

    cases = {f"figs4a_{label}.csv": Case(seq, bath(i), dw)
             for i, (label, seq) in enumerate(echoes.items())}
    cases["figs4a_ramsey.csv"] = Case(PulseSequence.ramsey(0.5e-6), bath(3),
                                      dw, np.linspace(0.0, 0.5e-6, 65))
    cases.update({f"figs4b_{label}.csv": Case(seq, drive(4 + i))
                  for i, (label, seq) in enumerate(echoes.items())})
    cases["figs4b_rabi.csv"] = Case(PulseSequence.rabi(OMEGA_20, 12 * period),
                                    drive(7), record_times=period * np.arange(13))
    _write_cases(w, {name: {"": case} for name, case in cases.items()}, trials)


def fig_s5(w: RunWriter, trials: int) -> None:
    """Sensitivity with repeated readout: Ramsey vs pi-RE vs 11pi-RE."""
    t2_star = 3e-6
    sigma = math.sqrt(2.0) / t2_star
    base = ReadoutModel(n0=0.0022, n1=0.0015)

    def curve(label, kind, times, t_p, readout, theta=None):
        # math.exp, as in fig_3b, keeps the figure's bytes
        _, eta = sensitivity_sweep(kind, times, readout,
                                   [math.exp((t / t_p) ** 2) for t in times],
                                   theta=theta)
        w.csv(f"figs5_{label}.csv", {"t_us": times * 1e6, "eta_ut": eta * 1e6})

    curve("ramsey", "ramsey", np.linspace(0.2e-6, 6e-6, 120), t2_star,
          replace(base, t_r=1.5e-6))
    for label, theta, horizon in (("re_pi", math.pi, 12e-6),
                                  ("re_11pi", 11.0 * math.pi, 60e-6)):
        curve(label, "rotary_echo",
              optimal_interrogation_times(theta, OMEGA_17, 0.0, horizon),
              models.t_prime_re(theta, sigma),
              replace(base, n_r=100, t_r=1.5e-6), theta)


FIGURES = {"1b": fig_1b, "1c": fig_1c, "2a": fig_2a, "2b": fig_2b,
           "3a": fig_3a, "3b": fig_3b, "4a": fig_4a, "4b": fig_4b,
           "4c": fig_4c, "s4": fig_s4, "s5": fig_s5}


def cmd_figure(cfg: ScenarioConfig, w: RunWriter, args) -> None:
    trials = args.trials or 1000
    FIGURES[args.panel](w, trials)


# ---------------------------------------------------------------------------
# entry point

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="remag",
        description="Rotary-echo magnetometry simulations and analysis")
    parser.add_argument("--version", action="version",
                        version=f"remag {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in [
            ("simulate", "noiseless time-domain signal trace"),
            ("spectrum", "periodogram with significant peaks"),
            ("sensitivity", "sensitivity sweep over interrogation time"),
            ("noise", "Monte Carlo decay vs its model mean signal"),
            ("calcium", "calcium-flux detection scenario table"),
            ("figure", "regenerate the data behind a figure panel")]:
        # only the flags the subcommand reads: the figure presets read no
        # config, and only the Monte Carlo subcommands a trial count
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(config=None, trials=None)
        if name == "figure":
            p.add_argument("panel", choices=FIGURES)
        else:
            p.add_argument("--config", metavar="PATH")
        p.add_argument("--out", metavar="DIR", default="out")
        p.add_argument("--seed", type=int, metavar="U64")
        if name in ("noise", "figure"):
            p.add_argument("--trials", type=int, metavar="N")
    return parser


COMMANDS = {"simulate": cmd_simulate, "spectrum": cmd_spectrum,
            "sensitivity": cmd_sensitivity, "noise": cmd_noise,
            "calcium": cmd_calcium, "figure": cmd_figure}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
            cfg = parse_config(text, source=args.config)
        else:
            cfg = parse_config("")
        if args.seed is not None and not 0 <= args.seed <= MAX_SEED:
            raise ConfigError("--seed must lie in [0, 2**64)")
        if args.trials is not None and args.trials < 1:
            raise ConfigError("--trials must be >= 1")
        if args.trials is not None and args.subcommand == "figure" \
                and args.panel not in ("4a", "4b", "4c", "s4"):
            raise ConfigError(f"figure {args.panel} runs no Monte Carlo; "
                              "--trials is for 4a, 4b, 4c and s4")
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    seed = args.seed if args.seed is not None else cfg["run"]["seed"]
    if cfg.noise is not None:
        cfg.noise = replace(cfg.noise, seed=seed)
    # a preset reads no config, only its seed's default
    writer = RunWriter(args.out, args.subcommand,
                       None if args.subcommand == "figure" else cfg, seed)
    error = None
    # warnings the filters pass are listed in the manifest, then shown
    with warnings.catch_warnings(record=True) as caught:
        try:
            os.makedirs(args.out, exist_ok=True)
            try:
                COMMANDS[args.subcommand](cfg, writer, args)
            except GridTooLargeError as exc:  # too many cycles or steps
                raise cfg.error("sequence", exc) from None
            writer.manifest(caught)
        except Exception as exc:  # noqa: BLE001 - partial outputs must not survive
            writer.cleanup()
            error = exc
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    if error is None:
        return 0
    print(f"error: {error}", file=sys.stderr)
    return 1 if isinstance(error, ConfigError) else 2


if __name__ == "__main__":
    sys.exit(main())
