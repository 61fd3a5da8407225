"""Closed-form signal, dephasing-envelope and pulse-error models.

Everything here is an explicit formula; the exact integrator in
:mod:`remag.dynamics` and the Monte Carlo engine in :mod:`remag.noise`
serve as the independent oracles for these expressions.
"""

from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import (PulseSequence, cycle_period, on_full_echoes,
                       refocuses, theta_mod)

if TYPE_CHECKING:   # remag.noise imports this module
    from .noise import NoiseSpec


def re_signal(theta, omega, delta_omega, t):
    """First-order rotary-echo population of |0>, including the fast factor.

    S = 1/2 + cos^2(theta/2)/2
        + sin^2(theta/2)/2 * cos(2 dw t sin(theta/2)/theta)
          * cos(pi Omega t / (theta mod 2pi))

    At refocusing angles (theta = 2 pi k) the fast factor is undefined and
    is taken as 1: no intra-cycle oscillation survives there and the
    on-resonance propagator is the identity at all times.

    This is the paper's formula, first order in eps = dw/Omega; at full
    echoes it equals :func:`re_signal_full_echo` and shares its beat-phase
    error.  :func:`re_signal_full_echo_eps4` carries the beat through eps^4.
    """
    t = np.asarray(t, dtype=float)
    half = theta / 2.0
    c2 = math.cos(half) ** 2
    s2 = math.sin(half) ** 2
    slow = np.cos(2.0 * delta_omega * t * math.sin(half) / theta)
    fast = 1.0 if refocuses(theta) else np.cos(math.pi * omega * t
                                                / theta_mod(theta))
    return 0.5 + 0.5 * c2 + 0.5 * s2 * slow * fast


def re_signal_full_echo(theta, omega, delta_omega, n):
    """First-order signal at full echo times t = n * 2 theta / Omega.

    S(n) = [1 + cos^2(theta/2) + sin^2(theta/2) cos(4 dw n sin(theta/2)/Omega)]/2

    First order in eps = dw/Omega.  The exact per-cycle beat phase is
    eps [4 s + eps^2 (theta c - 2 s + 2 s^3/3) + O(eps^4)] with
    s = sin(theta/2), c = cos(theta/2), so after n echoes the exact beat
    phase differs from this formula's by n eps^3 (theta c - 2 s + 2 s^3/3),
    a relative -eps^2/3 at theta = pi; the contrast differs at O(eps^2).
    :func:`re_signal_full_echo_eps4` keeps both through eps^4.
    """
    n = np.asarray(n)
    half = theta / 2.0
    phase = 4.0 * delta_omega * n * math.sin(half) / omega
    return 0.5 * (1.0 + math.cos(half) ** 2 + math.sin(half) ** 2 * np.cos(phase))


def re_signal_full_echo_eps4(theta, omega, delta_omega, n):
    """Full-echo signal through fourth order in eps = dw/Omega.

    One cycle U(-Omega) U(+Omega) is exactly a rotation by phi about an
    axis of transverse weight n_perp^2, with W = sqrt(Omega^2 + dw^2),
    r = dw/W and x = theta W / (2 Omega):

        cos(phi/2) = 1 - 2 r^2 sin^2 x,
        n_perp^2   = sin^2 x (1 - r^2) / (1 - r^2 sin^2 x),
        S(n)       = 1 - n_perp^2 (1 - cos(n phi)) / 2.

    Here phi/eps and n_perp^2 are replaced by their Taylor series through
    eps^4, with coefficients closed in theta (the cycle's Magnus expansion
    to that order); the leading terms are :func:`re_signal_full_echo`.  The truncation leaves a
    beat-phase error of order n eps^7, so the residual against the exact
    integrator checks the expansion itself.
    """
    n = np.asarray(n)
    e2 = (delta_omega / omega) ** 2
    s, c = math.sin(theta / 2.0), math.cos(theta / 2.0)
    phi = (delta_omega / omega) * (
        4.0 * s
        + e2 * (theta * c - 2.0 * s + 2.0 * s ** 3 / 3.0)
        + e2 ** 2 * (-theta ** 2 * s / 8.0 - theta * c ** 3 / 2.0
                     - theta * c / 4.0 + 3.0 * s ** 5 / 10.0
                     + s * c ** 2 + s / 2.0))
    perp = (s ** 2
            + e2 * (theta * s * c / 2.0 - s ** 2 * c ** 2)
            + e2 ** 2 * (theta ** 2 * (c ** 2 - s ** 2) / 16.0
                         - theta * s * c / 8.0
                         - theta * s * c * (c ** 2 - s ** 2) / 2.0
                         + s ** 2 * c ** 4))
    return 1.0 - 0.5 * perp * (1.0 - np.cos(n * phi))


def ramsey_signal(delta_omega, t, t2_star=math.inf, hyperfine=0.0,
                  weights=(1.0, 0.0, 0.0)):
    """Ramsey fringe with optional hyperfine triplet and Gaussian decay.

    Weighted mean of cosines over the detuning set {dw, A+dw, A-dw} with
    envelope exp(-(t/T2*)^2); weights (1, 0, 0) reduce to the single-line
    (1 + cos(dw t) exp(-(t/T2*)^2)) / 2.
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0) or not math.isclose(float(w.sum()), 1.0, rel_tol=1e-9):
        raise ValueError("weights must be nonnegative and sum to 1")
    if t2_star <= 0.0:
        raise ValueError("t2_star must be positive")
    t = np.asarray(t, dtype=float)
    detunings = (delta_omega, hyperfine + delta_omega, hyperfine - delta_omega)
    osc = sum(wi * np.cos(di * t) for wi, di in zip(w, detunings))
    env = np.exp(-(t / t2_star) ** 2) if math.isfinite(t2_star) else 1.0
    return 0.5 * (1.0 + osc * env)


def rabi_signal(omega, delta_omega, t):
    """Detuned Rabi population of |0>: 1 - O^2/(O^2+dw^2) sin^2(t sqrt(..)/2)."""
    t = np.asarray(t, dtype=float)
    w_eff2 = omega ** 2 + delta_omega ** 2
    return 1.0 - (omega ** 2 / w_eff2) * np.sin(t * math.sqrt(w_eff2) / 2.0) ** 2


# ---------------------------------------------------------------------------
# dephasing times and stochastic exponents

def t_prime_re(theta: float, sigma: float) -> float:
    """Static-bath rotary-echo dephasing time theta/(sigma sqrt(2) |sin(theta/2)|)."""
    if refocuses(theta):
        return math.inf  # refocusing angle: no first-order dephasing
    return theta / (sigma * math.sqrt(2.0) * abs(math.sin(theta / 2.0)))


def t_prime_ramsey(sigma: float) -> float:
    """Static-bath free-induction dephasing time sqrt(2)/sigma (= T2*).

    Exact, not first order: a static Gaussian detuning of spread sigma
    gives the phase sigma t a variance sigma^2 t^2, so
    <cos Phi> = exp(-(t/T2*)^2) (drive noise on a resonant Rabi or
    Ramsey alike).
    """
    return math.sqrt(2.0) / sigma


def ou_zeta_prime(sigma, tau_c, t):
    """Ramsey dephasing exponent under OU noise:
    zeta'(t) = sigma^2 tau_c^2 (t/tau_c + exp(-t/tau_c) - 1).

    Half the variance of the OU phase integral over [0, t], so
    exp(-zeta') = <cos Phi> exactly, for OU dephasing on Ramsey and OU
    drive noise on a resonant Rabi or Ramsey: the phase is Gaussian.
    """
    t = np.asarray(t, dtype=float)
    x = t / tau_c
    return sigma ** 2 * tau_c ** 2 * (x + np.exp(-x) - 1.0)


def ou_zeta_re_z(theta, sigma, tau_c, t):
    """Rotary-echo exponent under OU dephasing noise:
    zeta(t) = zeta'(t) * 4 sin^2(theta/2) / theta^2.

    First order: second order in sigma, but the noise couples only through
    the cycle-averaged toggling-frame axis, to zeroth order in dw/Omega.
    :func:`remag.noise.exact_mean` is exact.
    """
    factor = 4.0 * math.sin(theta / 2.0) ** 2 / theta ** 2
    return ou_zeta_prime(sigma, tau_c, t) * factor


def ou_zeta_re_x(theta, omega, sigma, tau_c, n):
    """Resonant rotary-echo exponent under OU drive-amplitude noise.

    Exact for n full echoes: on resonance each half echo turns the Bloch
    vector about x, by a Gaussian angle under OU noise, and zeta is half
    the variance of the net angle, so (1 + exp(-zeta))/2 is the exact
    mean (no cumulant beyond the second exists).  The half-echo duration
    enters as theta/Omega; the dimensionless step in both exponentials is
    theta/(Omega tau_c).  (Written with a step theta/(sigma tau_c) in some
    statements of the result, which does not have a static-noise limit of
    zero; the Omega form does, matching the exact refocusing of constant
    drive errors.)
    """
    n = np.asarray(n, dtype=float)
    u = theta / (omega * tau_c)
    e = np.exp(-u)
    th = math.tanh(u / 2.0) ** 2
    return tau_c ** 2 * sigma ** 2 * (
        2.0 * n * u
        + 2.0 * n * (e - 1.0)
        - th * (2.0 * n * (e + 1.0) + np.exp(-2.0 * n * u) - 1.0)
    )


def rabi_static_z_mean(omega, sigma, t):
    """Mean Rabi signal under static Gaussian dephasing noise (closed form)."""
    t = np.asarray(t, dtype=float)
    x = t * sigma ** 2 / omega
    r = 1.0 + x ** 2
    atan = np.arctan(x)
    term1 = np.cos(t * omega + atan / 2.0) / r ** 0.25
    term2 = (sigma ** 2 / omega ** 2) * (
        1.0 - np.cos(t * omega + 3.0 * atan / 2.0) / r ** 0.75)
    return 0.5 * (1.0 + term1 + term2)


# ---------------------------------------------------------------------------
# decay of a sequence under a noise source: ``seq`` and ``spec`` are the
# PulseSequence and NoiseSpec that remag.noise.monte_carlo runs

def in_validity_window(seq: PulseSequence, spec: NoiseSpec) -> bool:
    """Validity window of the OU-z rotary-echo exponent.

    The closed form is backed by simulations for
    tau_c * sigma <~ theta/2 and tau_c >~ theta/(2 Omega); other
    sequences and noises have no window restriction.  Inside the window the
    cycle-averaged exponent still misses the detuned toggling frame
    and the noise's intra-cycle coupling, a relative error of up to
    about (theta / (2 sin(theta/2) Omega tau_c))^2 (8% at theta =
    5 pi, Omega = 2 pi 20 MHz, tau_c = 0.2 us); the exact mean
    (:func:`remag.noise.exact_mean`) has neither error.
    """
    if not (seq.kind == "rotary_echo" and spec.axis == "z"
            and spec.kind == "ou"):
        return True
    return (spec.tau_c * spec.sigma <= seq.theta / 2.0
            and spec.tau_c >= seq.theta / (2.0 * seq.omega))


class ValidityWarning(UserWarning):
    """Envelope evaluated outside its stated validity window."""


def decay_envelope(seq: PulseSequence, spec: NoiseSpec, times):
    """Multiplicative envelope on the oscillatory part of the signal.

    ``times`` is time in seconds (for rotary echo under drive noise it
    should sit on full-echo times; the exponent is evaluated at n = t/T).
    Static drive noise does not decay a resonant rotary echo at full-echo
    times (exact refocusing), so that pair returns a constant 1.
    The static-z Rabi pair has no multiplicative envelope; use
    :func:`mean_signal`.  The OU-z rotary echo warns
    :class:`ValidityWarning` outside :func:`in_validity_window`.
    """
    t = np.asarray(times, dtype=float)
    s, a, k, sigma = seq.kind, spec.axis, spec.kind, spec.sigma
    if a == "z":
        if s == "rotary_echo":
            if k == "static":
                return np.exp(-(t / t_prime_re(seq.theta, sigma)) ** 2)
            if not in_validity_window(seq, spec):
                warnings.warn(
                    "OU dephasing rotary-echo envelope evaluated outside its "
                    "validity window (tau_c*sigma <= theta/2, tau_c >= "
                    "theta/(2 Omega))", ValidityWarning, stacklevel=2)
            return np.exp(-ou_zeta_re_z(seq.theta, sigma, spec.tau_c, t))
        if s == "ramsey":
            if k == "static":
                return np.exp(-(t / t_prime_ramsey(sigma)) ** 2)
            return np.exp(-ou_zeta_prime(sigma, spec.tau_c, t))
        # rabi, z axis
        if k == "static":
            raise ValueError("static-z Rabi has no multiplicative envelope; "
                             "use mean_signal")
        raise ValueError("OU-z Rabi has no closed-form envelope, only "
                         "asymptotes per bath regime")
    # x axis
    if s == "rotary_echo":
        if k == "static":
            return np.ones_like(t)
        n = t / cycle_period(seq.theta, seq.omega)
        return np.exp(-ou_zeta_re_x(seq.theta, seq.omega, sigma,
                                    spec.tau_c, n))
    # rabi or ramsey: drive noise on Rabi mirrors bath noise on Ramsey, and
    # on Ramsey's undriven free evolution it alone turns the spin about x,
    # by a Gaussian angle, as on a resonant Rabi
    if k == "static":
        return np.exp(-(t / t_prime_ramsey(sigma)) ** 2)
    return np.exp(-ou_zeta_prime(sigma, spec.tau_c, t))


def mean_signal(seq: PulseSequence, delta_omega: float, spec: NoiseSpec,
                times):
    """Noise-averaged signal <S>(t) including the coherent oscillation,
    in :func:`remag.noise.exact_mean`'s argument order.

    This function alone decides where its forms hold, and raises
    ValueError elsewhere:

    - the drive-noise (x-axis) forms, the echo's and Ramsey's
      (1 + env)/2 and Rabi's (1 + cos(Omega t) env)/2, and the static-z
      Rabi form
      (:func:`rabi_static_z_mean`) are resonant, so ``delta_omega`` must
      be 0;
    - the rotary-echo forms hold at full echoes only, t = n 2 theta/Omega
      (:func:`remag.dynamics.on_full_echoes`);
    - every pair that :func:`decay_envelope` rejects.

    The dephasing rotary-echo case is a first-order model: the beat of
    :func:`re_signal_full_echo` (beat-phase error n eps^3 (theta c - 2 s +
    2 s^3/3) after n echoes, eps = dw/Omega) times the cycle-averaged
    envelope of :func:`decay_envelope`.  :func:`re_signal_full_echo_eps4`
    is the higher-order beat, and :func:`remag.noise.exact_mean` the exact
    mean under OU noise.  The drive-noise forms, and Ramsey's, are exact:
    there the phase is Gaussian (see :func:`ou_zeta_re_x`).
    """
    t = np.asarray(times, dtype=float)
    s, a = seq.kind, spec.axis
    if delta_omega != 0.0 and (a == "x" or s == "rabi"):
        raise ValueError("the drive-noise and Rabi forms are resonant; "
                         "delta_omega must be 0")
    if s == "rotary_echo" and not on_full_echoes(t, seq.theta, seq.omega):
        raise ValueError("the rotary-echo forms hold at full echoes "
                         "t = n 2 theta/Omega only")
    if s == "rabi" and a == "z" and spec.kind == "static":
        return rabi_static_z_mean(seq.omega, spec.sigma, t)
    env = decay_envelope(seq, spec, t)
    if a == "x":
        osc = np.cos(seq.omega * t) if s == "rabi" else 1.0
        return 0.5 * (1.0 + osc * env)
    if s == "rotary_echo":
        half = seq.theta / 2.0
        osc = np.cos(2.0 * delta_omega * t * math.sin(half) / seq.theta)
        return 0.5 * (1.0 + math.cos(half) ** 2
                      + math.sin(half) ** 2 * osc * env)
    # ramsey
    return 0.5 * (1.0 + np.cos(delta_omega * t) * env)


# ---------------------------------------------------------------------------
# constant drive-amplitude error

def infidelity(seq_kind: str, eps: float, delta_omega: float, omega: float,
               theta: float = 0.0, t: float = 0.0) -> float:
    """Second-order infidelity 1 - F for a constant Rabi-frequency error
    Omega -> (1 + eps) Omega.

    For Ramsey the error enters as a flip-angle error of the pi/2 pulses.
    The expansion is second order in eps and delta_omega; a warning is
    issued for |eps| > 0.2 where it stops being meaningful.
    """
    if abs(eps) > 0.2:
        warnings.warn("second-order expansion is unreliable for |eps| > 0.2",
                      UserWarning, stacklevel=2)
    if seq_kind == "rotary_echo":
        num = 2.0 + theta ** 2 - 2.0 * math.cos(theta) - 2.0 * theta * math.sin(theta)
        return eps ** 2 * t ** 2 * delta_omega ** 2 / 8.0 * num / theta ** 2
    if seq_kind == "rabi":
        x = t * omega
        return (eps ** 2 * t ** 2 * omega ** 2 / 8.0
                - eps ** 2 * delta_omega ** 2 * (-2.0 + x ** 2 + 2.0 * math.cos(x))
                / (8.0 * omega ** 2))
    if seq_kind == "ramsey":
        x = t * omega
        return (eps ** 2 * math.pi ** 2 / 8.0
                - eps ** 2 * delta_omega ** 2
                * (-16.0 + 4.0 * math.pi ** 2 + math.pi * x * (8.0 + math.pi * x))
                / (32.0 * omega ** 2))
    raise ValueError(f"unknown sequence kind {seq_kind!r}")
