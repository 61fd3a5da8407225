"""Magnetometer sensitivity: ideal formulas and readout corrections.

Sensitivities are in T/sqrt(Hz).  The ideal rotary-echo magnetometer
interrogated at complete echo cycles has
eta_RE = theta / (2 sin^2(theta/2)) / (gamma_e sqrt(t)); Ramsey is
1/(gamma_e sqrt(t)); Rabi-beat saturates at sqrt(2 Omega)/gamma_e.
Imperfect optical readout (C), the unpolarized nitrogen nuclear spin
(C_A) and repeated readout (C_Nr) each enter as divisors.  The formulas
take a number or an array of interrogation times.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import cycle_period, on_full_echoes, refocuses
from .units import GAMMA_E_RAD_PER_S_PER_T, require_finite


@dataclass(frozen=True)
class ReadoutModel:
    """Mean photon counts and timing of the optical readout."""

    n0: float            # mean photons per readout, |0> reference
    n1: float            # mean photons per readout, |1> reference
    n_r: int = 1         # repeated-readout count
    t_r: float = 0.0     # s per readout
    t_d: float = 0.0     # dead time per shot, s

    def __post_init__(self):
        require_finite(self)
        if not (self.n0 > self.n1 >= 0.0):
            raise ValueError("need n0 > n1 >= 0")
        if self.n_r < 1:
            raise ValueError("n_r must be >= 1")
        if self.t_r < 0.0 or self.t_d < 0.0:
            raise ValueError("t_r and t_d must be nonnegative")


def re_coefficient(theta: float) -> float:
    """theta / (2 sin^2(theta/2)), the RE sensitivity prefactor."""
    if refocuses(theta):
        raise ValueError("theta = 2 pi k refocuses the field; no response")
    s = math.sin(theta / 2.0)
    return theta / (2.0 * s * s)


def sensitivity_ideal(kind: str, t, theta: float | None = None,
                      omega: float | None = None) -> np.ndarray:
    """Ideal (no decoherence, perfect readout) sensitivity in T/sqrt(Hz)
    at each time of t (a number or an array), shaped like t.

    kind "rotary_echo" needs theta and is meant for complete echo cycles
    t = n 2 theta / Omega (warns once when omega is given and a t is not);
    "rabi" needs omega and returns the full t-dependent expression
    sqrt(2 Omega)/gamma_e sqrt(x/|d|), x = t Omega, from the response
    d = 2 - 2 cos x - x sin x of the |1> population to dw^2.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("t must be positive")
    if kind == "rotary_echo":
        if theta is None:
            raise ValueError("rotary_echo needs theta")
        if omega is not None and not on_full_echoes(t, theta, omega):
            warnings.warn("rotary-echo sensitivity formula assumes "
                          "complete echo cycles t = n 2 theta/Omega")
        return re_coefficient(theta) / (GAMMA_E_RAD_PER_S_PER_T * np.sqrt(t))
    if kind == "ramsey":
        return 1.0 / (GAMMA_E_RAD_PER_S_PER_T * np.sqrt(t))
    if kind == "rabi":
        if omega is None:
            raise ValueError("rabi needs omega")
        x = t * omega
        # d = -4 Omega^2 dP1/d(dw^2) takes either sign; only where it
        # vanishes does the population not respond (eta = inf)
        d = np.abs(2.0 - 2.0 * np.cos(x) - x * np.sin(x))
        with np.errstate(divide="ignore"):
            return rabi_asymptote(omega) * np.sqrt(x / d)
    raise ValueError(f"unknown kind {kind!r}")


def rabi_asymptote(omega: float) -> float:
    """Large-t limit sqrt(2 Omega)/gamma of the Rabi-beat sensitivity."""
    return math.sqrt(2.0 * omega) / GAMMA_E_RAD_PER_S_PER_T


def sensitivity_ratio_re_ramsey(theta: float) -> float:
    """eta_RE / eta_Ram = sqrt(theta / (2 sin^3(theta/2))) at t = T'/2."""
    if not 0.0 < theta < 2.0 * math.pi:
        raise ValueError("theta must lie in (0, 2 pi)")
    return math.sqrt(theta / (2.0 * math.sin(theta / 2.0) ** 3))


def readout_factors(r: ReadoutModel, theta: float, hyperfine: float,
                    t) -> tuple[float, np.ndarray, float]:
    """Detection factor C, hyperfine factor C_A, repeated-readout C_Nr.

    C and C_Nr lie in (0, 1], C_A (shaped like t, a number or an array)
    in [0, 1]; all divide the ideal sensitivity.  C_A vanishes where
    1 + 2 cos(2 A t sin(theta/2)/theta) = 0 (the three hyperfine lines
    interfere destructively), which flags an unusable interrogation time.
    """
    if refocuses(theta):
        raise ValueError("theta = 2 pi k: no signal contrast, C undefined")
    d2 = (r.n0 - r.n1) ** 2
    s2 = math.sin(theta / 2.0) ** 2
    inv_c2 = (1.5 + (-11.0 * r.n0 + 5.0 * r.n1) / (2.0 * d2)
              + 0.5 * math.cos(theta) * (1.0 - (r.n0 + r.n1) / d2)
              + 8.0 * r.n0 / (d2 * s2))
    c = 1.0 / math.sqrt(inv_c2)

    arg = 2.0 * hyperfine * np.asarray(t) * math.sin(theta / 2.0) / theta
    c_a = np.abs(1.0 + 2.0 * np.cos(arg)) / 3.0

    c_nr = (1.0 + 3.0 * (r.n0 + r.n1) / (r.n_r * d2)) ** -0.5
    return c, c_a, c_nr


def repeated_readout_gain(r: ReadoutModel) -> float:
    """C_Nr(n_r) / C_Nr(1): the sensitivity improvement (~sqrt(n_r))."""
    d2 = (r.n0 - r.n1) ** 2
    base = 3.0 * (r.n0 + r.n1) / d2
    return math.sqrt((1.0 + base) / (1.0 + base / r.n_r))


def corrected_sensitivity(eta_ideal, c: float, c_a, envelope, t,
                          readout: ReadoutModel) -> np.ndarray:
    """Apply readout factors, decoherence envelope and time overhead.

    eta = eta_ideal * envelope / (C_eff * C_A) * sqrt((t + t_d + n_r t_r)/t),
    where n_r, t_r and t_d come from the readout model and C_eff is C
    boosted by its repeated-readout gain.  eta_ideal, C_A, envelope and
    t are numbers or arrays of one shape; where C_A = 0, eta is inf.
    """
    c_a, envelope, t = (np.asarray(v, dtype=float) for v in (c_a, envelope, t))
    if not 0.0 < c <= 1.0 or not np.all((0.0 <= c_a) & (c_a <= 1.0)):
        raise ValueError("C must lie in (0, 1] and C_A in [0, 1]")
    if np.any(t <= 0.0) or np.any((envelope <= 0.0) & (c_a != 0.0)):
        raise ValueError("t and the envelope must be positive")
    c_eff = c * repeated_readout_gain(readout)
    overhead = np.sqrt((t + readout.t_d + readout.n_r * readout.t_r) / t)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = eta_ideal * envelope / (c_eff * c_a) * overhead
    return np.where(c_a == 0.0, np.inf, eta)  # insensitive interrogation time


def sensitivity_sweep(kind: str, times, readout: ReadoutModel, envelope,
                      theta: float | None = None, omega: float | None = None,
                      hyperfine: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Ideal and corrected sensitivity at each interrogation time.

    ``envelope`` holds the decoherence factor (>= 1) for each time, and
    ``theta``/``omega`` go to :func:`sensitivity_ideal`.  Ramsey and Rabi
    use the detection factor of a pi rotation, a rotary echo that of its
    half-echo angle theta.  Returns the two arrays (ideal, corrected).
    """
    ideal = sensitivity_ideal(kind, times, theta=theta, omega=omega)
    c, c_a, _ = readout_factors(
        readout, theta if kind == "rotary_echo" else math.pi, hyperfine, times)
    return ideal, corrected_sensitivity(ideal, c, c_a, envelope, times,
                                        readout)


def optimal_interrogation_times(theta: float, omega: float, hyperfine: float,
                                horizon: float) -> np.ndarray:
    """Full-echo times n 2 theta/Omega where C_A is locally maximal.

    Only the principal maxima (cosine argument near 2 pi k, C_A near 1)
    are returned; |1 + 2 cos| also has shallow secondary maxima at
    C_A = 1/3 that are poor interrogation points.  With no hyperfine
    coupling C_A = 1 everywhere and every full-echo time qualifies.
    """
    cycle = cycle_period(theta, omega)
    n_max = int(horizon / cycle)
    if n_max < 1:
        raise ValueError("horizon shorter than one echo cycle")
    times = cycle * np.arange(1, n_max + 1)
    if hyperfine == 0.0:
        return times
    arg = 2.0 * hyperfine * times * math.sin(theta / 2.0) / theta
    if horizon * 2.0 * hyperfine * abs(math.sin(theta / 2.0)) / theta < 2.0 * math.pi:
        raise ValueError("horizon must cover at least one hyperfine beat")
    ca = np.abs(1.0 + 2.0 * np.cos(arg)) / 3.0
    inner = (ca[1:-1] >= ca[:-2]) & (ca[1:-1] >= ca[2:]) \
        & ((ca[1:-1] > ca[:-2]) | (ca[1:-1] > ca[2:]))
    keep = np.zeros(times.size, dtype=bool)
    keep[1:-1] = inner
    keep &= ca > 0.5
    return times[keep]
