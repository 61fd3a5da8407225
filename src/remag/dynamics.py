"""Two-level spin dynamics under piecewise-constant rotating-frame drives.

The propagators here are exact SU(2) exponentials of piecewise-constant
Hamiltonians

    H = 1/2 * [ Omega_eff(t) * sigma_x + (dw + dz(t)) * (1 - sigma_z) ]

(all angular units, rad/s), so the only approximation anywhere is the
piecewise-constant sampling of a noise path.  This makes the integrator a
trustworthy oracle for the closed-form signal models in
:mod:`remag.models`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import TWO_PI, require_finite

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

#: hard ceiling on grid size; propagation refuses to build larger grids
MAX_GRID_STEPS = 50_000_000


class GridTooLargeError(ValueError):
    """A uniform grid would take more than :data:`MAX_GRID_STEPS` steps."""


def refocuses(theta: float) -> bool:
    """Whether theta = 2 pi k (no field response, no intra-cycle carrier):
    the nearest multiple of 2 pi lies within 1e-12 max(theta, 1) of it."""
    return (abs(theta - TWO_PI * round(theta / TWO_PI))
            <= 1e-12 * max(theta, 1.0))


def theta_mod(theta: float) -> float:
    """theta mod 2 pi, of the carrier pi Omega/(theta mod 2 pi)."""
    return math.fmod(theta, TWO_PI)


def cycle_period(theta: float, omega: float) -> float:
    """Rotary-echo cycle time T = 2 theta / Omega."""
    return 2.0 * theta / omega


def on_full_echoes(t, theta: float, omega: float) -> bool:
    """Whether every time in t (a number or an array) is a full echo
    n 2 theta/Omega, to within 1e-6 of a cycle."""
    n = np.asarray(t, dtype=float) / cycle_period(theta, omega)
    return bool(np.all(np.abs(n - np.round(n)) <= 1e-6))


@dataclass(frozen=True)
class PulseSequence:
    """Which experiment is run, with its drive parameters.

    kind is one of ``"rotary_echo"``, ``"rabi"``, ``"ramsey"``.  Rotary
    echo streams are parameterized by the half-echo angle theta and a
    cycle count; Rabi/Ramsey by a total duration.  Ramsey's pi/2 pulses
    are treated as ideal and instantaneous.
    """

    kind: str
    omega: float
    theta: float = 0.0
    n_cycles: int = 0
    duration: float = 0.0

    def __post_init__(self):
        require_finite(self)
        if self.kind not in ("rotary_echo", "rabi", "ramsey"):
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if self.kind == "rotary_echo":
            if self.theta <= 0.0:
                raise ValueError("rotary echo requires theta > 0")
            if self.omega <= 0.0:
                raise ValueError("rotary echo requires omega > 0")
            if self.n_cycles < 1:
                raise ValueError("rotary echo requires n_cycles >= 1")
        else:
            if self.duration <= 0.0:
                raise ValueError(f"{self.kind} requires duration > 0")
            if self.kind == "rabi" and self.omega <= 0.0:
                raise ValueError("rabi requires omega > 0")

    @classmethod
    def rotary_echo(cls, theta: float, omega: float, n_cycles: int) -> "PulseSequence":
        return cls(kind="rotary_echo", omega=omega, theta=theta, n_cycles=n_cycles)

    @classmethod
    def rabi(cls, omega: float, duration: float) -> "PulseSequence":
        return cls(kind="rabi", omega=omega, duration=duration)

    @classmethod
    def ramsey(cls, duration: float) -> "PulseSequence":
        return cls(kind="ramsey", omega=0.0, duration=duration)

    @property
    def cycle_period(self) -> float:
        """Rotary-echo cycle time, :func:`cycle_period` of theta, Omega."""
        if self.kind != "rotary_echo":
            raise ValueError("cycle_period is defined for rotary echo only")
        return cycle_period(self.theta, self.omega)

    @property
    def total_duration(self) -> float:
        if self.kind == "rotary_echo":
            return self.n_cycles * self.cycle_period
        return self.duration


@dataclass(frozen=True)
class DriveWaveform:
    """Piecewise-constant drive: equal contiguous segments from t = 0,
    each with a signed amplitude.

    The sign of the amplitude encodes the pi phase flips of the square
    wave; for a rotary-echo waveform the amplitude integral over each
    full cycle is exactly zero.  Segment i spans
    [segment * i, segment * (i + 1)].  :func:`build_waveform` never makes
    two equal neighbouring segments.  The Monte Carlo kernel takes one
    exact step per segment piece, so a hand-built wave that has them
    rounds a few ulps apart from the same drive with them merged.
    """

    segment: float           # seconds, the length of every segment
    amplitudes: np.ndarray   # shape (n_segments,), rad/s, signed
    detuning: float          # rad/s

    @property
    def total_duration(self) -> float:
        return self.segment * self.amplitudes.size


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Pauli-basis coefficients (rad/s) of a time-independent 2x2 Hamiltonian."""

    h_x: float
    h_y: float
    h_z: float
    identity: float = 0.0


@dataclass(frozen=True)
class SignalTrace:
    """Uniformly sampled population-of-|0> time series."""

    times: np.ndarray
    values: np.ndarray
    dt: float


def build_waveform(seq: PulseSequence, delta_omega: float) -> DriveWaveform:
    """Lay out the piecewise-constant drive for a pulse sequence.

    Rotary echo becomes alternating +/-Omega segments of duration
    theta/Omega; Rabi a single +Omega segment; Ramsey one zero-amplitude
    segment (its pi/2 pulses are ideal and instantaneous, handled by the
    analysis, not the waveform).
    """
    if seq.kind == "rotary_echo":
        n_seg = 2 * seq.n_cycles
        amplitudes = seq.omega * np.where(np.arange(n_seg) % 2 == 0, 1.0, -1.0)
        return DriveWaveform(seq.theta / seq.omega, amplitudes, delta_omega)
    if seq.kind == "rabi":
        return DriveWaveform(seq.duration, np.array([seq.omega]), delta_omega)
    # ramsey: free evolution
    return DriveWaveform(seq.duration, np.array([0.0]), delta_omega)


def default_dt_max(wave: DriveWaveform) -> float:
    """Default grid step: T_Rabi/200, or 1/512 of an undriven run."""
    amp = np.max(np.abs(wave.amplitudes))
    if amp > 0.0:
        return (TWO_PI / amp) / 200.0
    return wave.total_duration / 512.0


def steps_per_segment(wave: DriveWaveform, dt_max: float) -> int:
    """Steps per segment of the coarsest uniform grid of steps <= dt_max
    that lands on every segment boundary; :class:`GridTooLargeError` past
    :data:`MAX_GRID_STEPS` steps in all."""
    if dt_max <= 0.0:
        raise ValueError("dt_max must be positive")
    n_sub = max(1, math.ceil(wave.segment / dt_max - 1e-9))
    n_total = n_sub * wave.amplitudes.size
    if n_total > MAX_GRID_STEPS:
        raise GridTooLargeError(
            f"grid of {n_total} steps exceeds MAX_GRID_STEPS")
    return n_sub


def _su2_factors(hx, hz, ident, dt):
    """Entries of exp(-i H dt), H = ident*1 + hx*sx + hz*sz, as
    (phase, a0, b, mb, a1): the step maps (psi0, psi1) to
    phase * (a0 psi0 - b psi1, mb psi0 + a1 psi1)."""
    h = np.hypot(hx, hz)
    phi = h * dt
    c = np.cos(phi)
    s = np.sin(phi)
    # unit axis; h == 0 gives the identity (s == 0 kills the axis terms)
    safe = np.where(h > 0.0, h, 1.0)
    nx = hx / safe
    nz = hz / safe
    phase = np.exp(-1j * ident * dt)
    return (phase, c - 1j * s * nz, 1j * s * nx, -1j * s * nx,
            c + 1j * s * nz)


def su2_step(psi0, psi1, hx, hz, ident, dt):
    """Advance states by exp(-i H dt), H = ident*1 + hx*sx + hz*sz.

    All of hx, hz, ident may be scalars or arrays broadcastable against
    the state amplitudes; the closed-form axis-angle exponential keeps
    unitarity at machine precision.
    """
    ph, a0, b, mb, a1 = _su2_factors(hx, hz, ident, dt)
    return ph * (a0 * psi0 - b * psi1), ph * (mb * psi0 + a1 * psi1)


def _hamiltonian_coeffs(amplitude, detuning_total):
    """Pauli coefficients of H = [amp*sx + w*(1-sz)]/2 for given segment."""
    hx = amplitude / 2.0
    hz = -detuning_total / 2.0
    ident = detuning_total / 2.0
    return hx, hz, ident


def segment_unitary(amplitude: float, detuning_total: float, duration: float) -> np.ndarray:
    """Exact 2x2 propagator of one constant segment.

    Its columns are :func:`su2_step` applied to the basis states |0>, |1>.
    """
    hx, hz, ident = _hamiltonian_coeffs(amplitude, detuning_total)
    return np.array(su2_step(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                             hx, hz, ident, duration))


def total_propagator(wave: DriveWaveform, t: float | None = None) -> np.ndarray:
    """Noiseless propagator U(t) of the waveform (t defaults to its end)."""
    if t is None:
        t = wave.total_duration
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    u = IDENTITY.copy()
    t0 = 0.0
    for i, amp in enumerate(wave.amplitudes):
        seg_end = wave.segment * (i + 1)
        if t0 >= t:
            break
        dt_seg = min(seg_end, t) - t0
        u = segment_unitary(amp, wave.detuning, dt_seg) @ u
        t0 = seg_end
    return u


def propagate(wave: DriveWaveform, noise_values: np.ndarray | None = None,
              dt_max: float | None = None) -> SignalTrace:
    """Population of |0> versus time for a state starting in |0>.

    ``noise_values`` is an optional per-step dephasing offset (rad/s),
    one sample per grid step, held constant over the step; pass the
    values of a :class:`remag.noise.NoisePath` sampled on the same grid.
    The grid is uniform, no coarser than dt_max, and lands exactly on
    every segment boundary.
    """
    if dt_max is None:
        dt_max = default_dt_max(wave)
    n_sub = steps_per_segment(wave, dt_max)
    dt = wave.segment / n_sub
    n_steps = n_sub * wave.amplitudes.size
    times = dt * np.arange(n_steps + 1)
    values = np.empty(n_steps + 1)
    values[0] = 1.0

    if noise_values is not None:
        noise_values = np.asarray(noise_values, dtype=float)
        if noise_values.shape != (n_steps,):
            raise ValueError(
                f"noise must supply one value per grid step ({n_steps}), "
                f"got shape {noise_values.shape}")
        if not np.all(np.isfinite(noise_values)):
            raise ValueError("noise samples must be finite")
        # signed amplitude and detuning per step
        amp_steps = np.repeat(wave.amplitudes, n_sub)
        w_steps = wave.detuning + noise_values
        psi0, psi1 = 1.0 + 0.0j, 0.0j
        hx_all, hz_all, id_all = _hamiltonian_coeffs(amp_steps, w_steps)
        for k in range(n_steps):
            psi0, psi1 = su2_step(psi0, psi1, hx_all[k], hz_all[k],
                                  id_all[k], dt)
            values[k + 1] = abs(psi0) ** 2
    else:
        # noiseless: each segment has a constant Hamiltonian, so the
        # whole segment evolves in closed form without stepping.  The
        # segment-start states follow one scalar recurrence over the
        # whole-segment factors; the in-segment offsets tau then fill
        # every segment of one amplitude (two for a rotary echo) in one
        # broadcast
        n_seg = wave.amplitudes.size
        start0 = np.empty(n_seg, dtype=complex)
        start1 = np.empty(n_seg, dtype=complex)
        tau = dt * np.arange(1, n_sub + 1)
        factors = {}
        psi0, psi1 = 1.0 + 0.0j, 0.0j
        for i, amp in enumerate(wave.amplitudes):
            if amp not in factors:
                factors[amp] = tuple(map(complex, _su2_factors(
                    *_hamiltonian_coeffs(amp, wave.detuning),
                    float(tau[-1]))))
            start0[i], start1[i] = psi0, psi1
            sph, sa0, sb, smb, sa1 = factors[amp]
            psi0, psi1 = (sph * (sa0 * psi0 - sb * psi1),
                          sph * (smb * psi0 + sa1 * psi1))
        per_segment = values[1:].reshape(n_seg, n_sub)
        for amp in factors:
            rows = wave.amplitudes == amp
            ph, a0, b, _, _ = _su2_factors(
                *_hamiltonian_coeffs(amp, wave.detuning), tau)
            per_segment[rows] = np.abs(
                ph * (a0 * start0[rows, None] - b * start1[rows, None])) ** 2

    np.clip(values, 0.0, 1.0, out=values)
    return SignalTrace(times=times, values=values, dt=dt)


def triangular_wave(theta: float, omega: float, t) -> np.ndarray:
    """Integral of the rotary-echo square wave (peaks at theta/Omega)."""
    period = cycle_period(theta, omega)
    tau = np.mod(t, period)
    return np.where(tau <= period / 2.0, tau, period - tau)


def u0_on_resonance(theta: float, omega: float, t: float) -> np.ndarray:
    """On-resonance rotary-echo propagator, a pure sigma_x rotation.

    U0 = cos(Omega*TW(t)/2) - i sin(Omega*TW(t)/2) * sigma_x, with TW the
    triangular wave; at full echo times U0 is the identity.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if theta <= 0.0 or omega <= 0.0:
        raise ValueError("theta and omega must be positive")
    angle = omega * float(triangular_wave(theta, omega, t)) / 2.0
    return math.cos(angle) * IDENTITY - 1j * math.sin(angle) * SIGMA_X


def avg_hamiltonian_first_order(theta: float, delta_omega: float) -> EffectiveHamiltonian:
    """First-order average Hamiltonian of the rotary-echo toggling frame.

    h_z = -(dw/theta) sin(theta/2) cos(theta/2),
    h_y = +(dw/theta) sin^2(theta/2), h_x = 0; the identity offset dw/2
    carries the global phase of the rotating-frame Hamiltonian.
    """
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    pref = delta_omega / theta * math.sin(theta / 2.0)
    return EffectiveHamiltonian(
        h_x=0.0,
        h_y=pref * math.sin(theta / 2.0),
        h_z=-pref * math.cos(theta / 2.0),
        identity=delta_omega / 2.0,
    )


def full_echo_times(seq: PulseSequence) -> np.ndarray:
    """t = n * 2 theta / Omega for n = 0 .. n_cycles."""
    return seq.cycle_period * np.arange(seq.n_cycles + 1)
