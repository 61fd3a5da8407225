"""Seeded workloads for the remag benchmark and the checks on their outputs.

A workload is a list of CLI invocations (ops) that the load generator runs
in whole passes.  The seed picks the parameters (all but the fixed spectrum
design of analysis-cli); the program sees only the generated INI configs
and command lines.  Each op carries what its outputs
must satisfy, so a check never depends on knowing which seed produced it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

A_HYPERFINE_MHZ = 2.14


@dataclass(frozen=True)
class Op:
    """One `remag` invocation and the facts its outputs are checked against."""

    key: str                       # unique in the workload; reruns share it
    argv: tuple                    # CLI arguments without --config/--out
    config: str | None = None      # INI text passed with --config
    expects: tuple = ()            # artifacts that must exist besides the manifest
    trials: int = 0                # Monte Carlo trials (noise ops)
    n_steps: int = 0               # nominal grid steps (noise ops)
    planted: tuple = ()            # (detuning_mhz, tolerance_mhz) lines to recover
    lines_file: str = ""           # JSON artifact with "detunings_mhz"
    exact_echo: bool = False       # every full-echo mean must be 1
    ou_case: tuple = ()            # (theta_pi, n_cycles, noise seed) to recompute

    @property
    def trial_steps(self) -> int:
        return self.trials * self.n_steps


def path_bytes(trials: int, n_steps: int, chunk: int) -> int:
    """Computed bytes of one `(min(trials, chunk), n_steps)` float64 array."""
    return min(trials, chunk) * n_steps * 8


def _ini(**sections) -> str:
    out = []
    for name, keys in sections.items():
        out.append(f"[{name}]")
        out += [f"{k} = {v}" for k, v in keys.items()]
    return "\n".join(out) + "\n"


def nominal_steps(theta_pi: float, omega_mhz: float, n_cycles: int,
                  tau_c_us: float | None = None) -> int:
    """Grid steps of a rotary echo on the reference grid.

    The reference step is min(T_Rabi/200, tau_c/20), shortened so that every
    half-echo holds a whole number of steps.  The benchmark fixes this count
    itself, so a program that reaches the same ensemble on a coarser grid
    reads as faster, not as doing less work.
    """
    half_echo = theta_pi / (2.0 * omega_mhz * 1e6)
    dt_max = 1.0 / (omega_mhz * 1e6) / 200.0
    if tau_c_us is not None:
        dt_max = min(dt_max, tau_c_us * 1e-6 / 20.0)
    return 2 * n_cycles * math.ceil(half_echo / dt_max - 1e-9)


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list:
    """n values, one drawn from each of n equal slices of [lo, hi], shuffled.

    Stratifying keeps the spread of op sizes the same for every seed, so the
    op-time quantiles do not move with the seed.
    """
    vals = [lo + (k + rng.random()) * (hi - lo) / n for k in range(n)]
    rng.shuffle(vals)
    return vals


# ---------------------------------------------------------------------------
# noise-ou-large: the s4 / criterion-5 OU-z rotary echoes at 4096 trials

OU_CASES = ((0.75, 16), (1.0, 18), (5.0, 24))
OU_OMEGA_MHZ = 20.0
OU_DETUNING_MHZ = 2.0
OU_SIGMA_MHZ = 1.0
OU_TAU_C_US = 0.2
OU_TRIALS = 4096


def noise_ou_large(rng: random.Random) -> list[Op]:
    ops = []
    for theta_pi, n_cycles in OU_CASES:
        seed = rng.randrange(2**32)
        cfg = _ini(sequence={"kind": "rotary_echo", "theta_pi": theta_pi,
                             "omega_mhz": OU_OMEGA_MHZ, "n_cycles": n_cycles},
                   field={"detuning_mhz": OU_DETUNING_MHZ},
                   noise={"enabled": "true", "axis": "z", "kind": "ou",
                          "sigma_mhz": OU_SIGMA_MHZ, "tau_c_us": OU_TAU_C_US})
        steps = nominal_steps(theta_pi, OU_OMEGA_MHZ, n_cycles, OU_TAU_C_US)
        ops.append(Op(key=f"ou-{theta_pi}pi-x{n_cycles}",
                      argv=("noise", "--seed", str(seed),
                            "--trials", str(OU_TRIALS)),
                      config=cfg, expects=("decay.csv",),
                      trials=OU_TRIALS, n_steps=steps,
                      ou_case=(theta_pi, n_cycles, seed)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# noise-static-small: resonant static drive noise, 64 trials (one chunk)

STATIC_OMEGA_MHZ = 19.0
STATIC_TRIALS = 64
STATIC_CASES = 20


def noise_static_small(rng: random.Random) -> list[Op]:
    ops = []
    targets = _stratified(rng, 6000.0, 20000.0, STATIC_CASES)
    for k, target in enumerate(targets):
        theta_pi = round(rng.uniform(0.5, 5.0), 3)
        per_cycle = nominal_steps(theta_pi, STATIC_OMEGA_MHZ, 1)
        n_cycles = max(1, round(target / per_cycle))
        cfg = _ini(sequence={"kind": "rotary_echo", "theta_pi": theta_pi,
                             "omega_mhz": STATIC_OMEGA_MHZ,
                             "n_cycles": n_cycles},
                   field={"detuning_mhz": 0.0},
                   noise={"enabled": "true", "axis": "x", "kind": "static",
                          "sigma_rel": 0.05})
        ops.append(Op(key=f"static-{k}",
                      argv=("noise", "--seed", str(rng.randrange(2**32)),
                            "--trials", str(STATIC_TRIALS)),
                      config=cfg, expects=("decay.csv",),
                      trials=STATIC_TRIALS, n_steps=per_cycle * n_cycles,
                      exact_echo=True))
    return ops


# ---------------------------------------------------------------------------
# analysis-cli: config parsing, noiseless dynamics, spectral chain, sensing

def _triplet(b_mhz: float, tol_b: float) -> tuple:
    return ((b_mhz, tol_b), (A_HYPERFINE_MHZ - b_mhz, 0.03),
            (A_HYPERFINE_MHZ + b_mhz, 0.03))


def _figure(panel: str, seed: int, expects: tuple, **kw) -> Op:
    return Op(key=f"figure-{panel}-{seed}",
              argv=("figure", panel, "--seed", str(seed)),
              expects=expects, **kw)


# Per pass: 158 small ops of 2-6 ms (calcium, sensitivity with an OU
# envelope, figures 1b/3a/3b/s5), 30 noiseless traces of 10-40 ms
# (simulate, figure 1c) and 56 refits of 0.03-0.5 s (spectrum, figures
# 2a/2b).  The median op falls well inside the dense small-op band and
# the 95th percentile among the refits; a median near the edge of a band
# jumps between bands from run to run.
SPECTRUM_OPS = 48
FIGURE_2_OPS = 4        # each of 2a and 2b
SIMULATE_OPS = 24
SENSITIVITY_OPS = 64
CALCIUM_OPS = 50
FIGURE_OPS = {"1b": 12, "1c": 6, "3a": 12, "3b": 12, "s5": 8}


def analysis_cli(rng: random.Random) -> list[Op]:
    ops = []
    # spectrum on hyperfine triplets: a fixed Latin-hypercube design over
    # trace length (3 to 15 us) and line splitting (0.06 to 0.30 MHz).  The
    # refit's cost varies erratically with these inputs (0.03 to 1.4 s per
    # op), so drawing them from the seed moved a pass's total by about 10%
    # between seeds; the seed orders these ops and draws every other input.
    for k in range(SPECTRUM_OPS):
        b = round(0.06 + ((29 * k) % SPECTRUM_OPS + 0.5) * 0.24
                  / SPECTRUM_OPS, 4)
        cfg = _ini(sequence={"kind": "rotary_echo", "theta_pi": 1.0,
                             "omega_mhz": 17.0,
                             "n_cycles": 50 + int((k + 0.5) * 205
                                                  / SPECTRUM_OPS)},
                   field={"detuning_mhz": b,
                          "hyperfine_mhz": A_HYPERFINE_MHZ},
                   spectrum={"filter_harmonics": str(k % 2 == 1).lower()})
        ops.append(Op(key=f"spectrum-{k}", argv=("spectrum",), config=cfg,
                      expects=("spectrum.csv", "peaks.json"),
                      planted=_triplet(b, 0.02), lines_file="detunings.json"))
    # the figure 2 presets: 2b's 64 kHz line uses criterion 4's 12 kHz
    for panel, b, tol in (("2a", 0.17, 0.02), ("2b", 0.064, 0.012)):
        for _ in range(FIGURE_2_OPS):
            tag = f"fig{panel}"
            ops.append(_figure(panel, rng.randrange(2**32),
                               (f"{tag}_spectrum.csv", f"{tag}_peaks.json",
                                f"{tag}_detunings.json"),
                               planted=_triplet(b, tol),
                               lines_file=f"{tag}_detunings.json"))
    for k in range(SIMULATE_OPS):
        cfg = _ini(sequence={"kind": "rotary_echo",
                             "theta_pi": round(rng.uniform(0.5, 3.0), 3),
                             "omega_mhz": round(rng.uniform(10.0, 25.0), 3),
                             "n_cycles": rng.randint(20, 120)},
                   field={"detuning_mhz": round(rng.uniform(0.05, 1.0), 4),
                          "hyperfine_mhz": A_HYPERFINE_MHZ if k % 2 else 0.0})
        ops.append(Op(key=f"simulate-{k}", argv=("simulate",), config=cfg,
                      expects=("trace.csv",)))
    # stratified drive and horizon, so the number of sweep points (the
    # cost of the scalar loops) has the same spread for every seed
    thetas = _stratified(rng, 0.5, 5.0, SENSITIVITY_OPS)
    omegas = _stratified(rng, 10.0, 25.0, SENSITIVITY_OPS)
    horizons = _stratified(rng, 2.0, 6.0, SENSITIVITY_OPS)
    for k in range(SENSITIVITY_OPS):
        theta_pi = round(thetas[k], 3)
        if theta_pi % 2 == 0:
            # theta = 2 pi k refocuses a static field, so `sensitivity`
            # rejects it as input; step off it
            theta_pi += 0.001
        cfg = _ini(sequence={"kind": "rotary_echo",
                             "theta_pi": theta_pi,
                             "omega_mhz": round(omegas[k], 3)},
                   field={"hyperfine_mhz": A_HYPERFINE_MHZ if k % 2 else 0.0},
                   noise={"enabled": "true", "axis": "z", "kind": "ou",
                          "sigma_mhz": round(rng.uniform(0.1, 0.5), 4),
                          "tau_c_us": round(rng.uniform(0.2, 1.0), 4)},
                   grid={"t_max_us": round(horizons[k], 3)})
        ops.append(Op(key=f"sensitivity-{k}", argv=("sensitivity",),
                      config=cfg, expects=("sensitivity.csv",)))
    for k in range(CALCIUM_OPS):
        cfg = _ini(calcium={"ions": f"{10 ** rng.uniform(4, 6):.6g}",
                            "distance_nm": round(rng.uniform(50, 500), 2),
                            "duration_us": round(rng.uniform(1, 50), 3),
                            "standoff_nm": round(rng.uniform(5, 50), 2),
                            "repetitions": rng.randint(1, 100)})
        ops.append(Op(key=f"calcium-{k}", argv=("calcium",), config=cfg,
                      expects=("calcium.csv",)))
    for panel, expects in (("1b", ("fig1b_sensitivity.csv",)),
                           ("1c", ("fig1c_trace.csv",)),
                           ("3a", ("fig3a_signal.csv",)),
                           ("3b", ("fig3b_sensitivity.csv",)),
                           ("s5", ("figs5_ramsey.csv", "figs5_re_pi.csv",
                                   "figs5_re_11pi.csv"))):
        for _ in range(FIGURE_OPS[panel]):
            ops.append(_figure(panel, rng.randrange(2**32), expects))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"noise-ou-large": noise_ou_large,
             "noise-static-small": noise_static_small,
             "analysis-cli": analysis_cli}


# ---------------------------------------------------------------------------
# output checks

def read_csv(path: str) -> tuple[list, np.ndarray]:
    """Column names and rows of a remag CSV (the # metadata block skipped)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return (lines[0].strip().split(","),
            np.loadtxt(lines[1:], delimiter=",", ndmin=2))


def _numbers(node):
    if isinstance(node, dict):
        for v in node.values():
            yield from _numbers(v)
    elif isinstance(node, list):
        for v in node:
            yield from _numbers(v)
    elif isinstance(node, float):
        yield node


def match_lines(planted: tuple, reported: list) -> tuple[int, int, int]:
    """(matched, planted, spurious) for one recovered line set.

    A planted line counts as matched when exactly one reported line lies
    within its tolerance; a reported line within no tolerance is spurious.
    """
    matched = sum(1 for p, tol in planted
                  if sum(abs(r - p) <= tol for r in reported) == 1)
    spurious = sum(1 for r in reported
                   if not any(abs(r - p) <= tol for p, tol in planted))
    return matched, len(planted), spurious


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    digest: str = ""
    lines: tuple = (0, 0, 0)
    bytes_written: int = 0


def check_outputs(op: Op, out_dir: str, rc: int) -> Outcome:
    """Exit code, artifacts, finiteness and op-specific facts of one run."""
    if rc != 0:
        return Outcome(False, f"exit code {rc}")
    names = sorted(os.listdir(out_dir))
    missing = [n for n in op.expects + ("manifest.json",) if n not in names]
    if missing:
        return Outcome(False, f"missing {missing}")
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["outputs"]
    if sorted(listed) != [n for n in names if n != "manifest.json"]:
        return Outcome(False, f"manifest lists {listed}, found {names}")
    digest = hashlib.sha256()
    size = 0
    parsed = {}
    for name in names:
        path = os.path.join(out_dir, name)
        with open(path, "rb") as fh:
            body = fh.read()
        size += len(body)
        if name == "manifest.json":       # holds timestamps by design
            continue
        digest.update(name.encode() + b"\0" + body)
        if name.endswith(".csv"):
            parsed[name] = read_csv(path)
            values = parsed[name][1]
        else:
            parsed[name] = json.loads(body)
            values = np.array(list(_numbers(parsed[name])))
        if not np.all(np.isfinite(values)):
            return Outcome(False, f"non-finite value in {name}")
    if op.exact_echo:
        cols, data = parsed["decay.csv"]
        dev = float(np.max(np.abs(data[:, cols.index("mc_mean")] - 1.0)))
        if dev > 1e-9:
            return Outcome(False, f"full-echo mean off 1 by {dev:.3g}")
    lines = (0, 0, 0)
    if op.planted:
        found = parsed.get(op.lines_file, {}).get("detunings_mhz", [])
        lines = match_lines(op.planted, [d for d, _ in found])
    return Outcome(True, digest=digest.hexdigest(), lines=lines,
                   bytes_written=size)


def recompute_ou_trials(case: tuple, trials: int = 3,
                        chunk: int = 2) -> float:
    """Largest gap between `monte_carlo` and an independent recomputation.

    Runs the engine on the first `trials` trials of an OU-z case in chunks
    of `chunk` (by default two chunks of unequal size, so the chunk loop,
    the trial indexing across chunks and the weighted merge of chunk means
    are all on the path), then rebuilds each trial from the public
    `sample_path` and the noisy branch of `dynamics.propagate` on the
    result's grid step.
    """
    from remag.dynamics import PulseSequence, build_waveform, propagate
    from remag.noise import NoiseSpec, monte_carlo, sample_path
    from remag.units import mhz_to_rad, us_to_s

    theta_pi, n_cycles, seed = case
    seq = PulseSequence.rotary_echo(theta_pi * math.pi,
                                    mhz_to_rad(OU_OMEGA_MHZ), n_cycles)
    delta = mhz_to_rad(OU_DETUNING_MHZ)
    spec = NoiseSpec(axis="z", kind="ou", sigma=mhz_to_rad(OU_SIGMA_MHZ),
                     tau_c=us_to_s(OU_TAU_C_US), seed=seed)
    res = monte_carlo(seq, delta, spec, trials=trials, chunk=chunk)
    dt = res.meta["dt"]
    wave = build_waveform(seq, delta)
    idx = np.rint(res.times / dt).astype(int)
    pops = []
    for i in range(trials):
        path = sample_path(spec, wave.total_duration, dt, trial_index=i)
        trace = propagate(wave, noise_values=path.values, dt_max=dt)
        pops.append(trace.values[idx])
    return float(np.max(np.abs(np.mean(pops, axis=0) - res.mean)))
