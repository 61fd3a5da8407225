"""Periodogram estimation and line extraction for driven-spin signals.

The spectrum of a rotary-echo trace carries pairs of lines symmetric
about the carrier pi*Omega/(theta mod 2pi); this module computes the
periodogram, ranks peaks by a rank-based significance test, bounds the
frequency uncertainty (Cramer-Rao), notches the even carrier harmonics,
and inverts line splittings back to physical detunings.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import SignalTrace, refocuses, theta_mod

DEFAULT_OVERSAMPLE = 4
# A line's first sidelobe under the rectangular window lies between the
# window's first null, 1/T from the line, and its second, 2/T away.
LEAKAGE_REACH = 2.0     # in units of 1/T
# That sidelobe peaks at 0.047 of its line's power (-13.3 dB; Harris, Proc.
# IEEE 66, 51 (1978)); the sidelobes of two mirror lines adding in phase
# reach 4x that, about 0.2.
LEAKAGE_POWER = 0.2


@dataclass(frozen=True)
class Periodogram:
    """Power spectrum P(f) = |sum_j d_j exp(i 2 pi f t_j)|^2 / M."""

    frequencies: np.ndarray  # Hz, uniform grid from 0 to Nyquist
    power: np.ndarray
    n_samples: int           # M, number of time samples
    total_time: float        # s
    oversample: int = DEFAULT_OVERSAMPLE

    def __post_init__(self):
        if np.any(np.diff(self.frequencies) <= 0):
            raise ValueError("frequency grid must be strictly increasing")
        if np.any(self.power < 0):
            raise ValueError("powers must be nonnegative")

    @property
    def grid_spacing(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])


@dataclass(frozen=True)
class PeakReport:
    frequency: float   # Hz, apex after quadratic interpolation
    power: float
    rank: int          # m = 1 for the largest ordinate
    p_value: float
    snr: float
    delta_f: float     # Hz, Cramer-Rao bound at the estimated S/N


@dataclass(frozen=True)
class DetuningEstimate:
    carrier_hz: float
    omega_measured: float          # rad/s
    theta_actual: float            # rad
    detunings: tuple               # of (delta_nu_hz, uncertainty_hz)


def periodogram(trace: SignalTrace, oversample: int = DEFAULT_OVERSAMPLE) -> Periodogram:
    """Mean-removed periodogram on [0, Nyquist], oversampled past 1/t.

    The large DC offset of the driven signal is removed before the
    transform so it does not leak across the whole grid.
    """
    values = np.asarray(trace.values, dtype=float)
    m = values.size
    if m < 8:
        raise ValueError("need at least 8 samples")
    dt = trace.dt
    if dt <= 0:
        raise ValueError("trace must be uniformly sampled with dt > 0")
    times = np.asarray(trace.times, dtype=float)
    if not np.allclose(np.diff(times), dt, rtol=1e-9, atol=1e-15):
        raise ValueError("trace must be uniformly sampled")
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    d = values - values.mean()
    n_fft = oversample * m
    spec = np.fft.rfft(d, n=n_fft)
    power = np.abs(spec) ** 2 / m
    freqs = np.fft.rfftfreq(n_fft, d=dt)
    return Periodogram(frequencies=freqs, power=power, n_samples=m,
                       total_time=m * dt, oversample=oversample)


def _quadratic_apex(freqs, power, i):
    """Sub-grid apex of a local maximum via a parabola through 3 points."""
    if i <= 0 or i >= power.size - 1:
        return float(freqs[i]), float(power[i])
    y0, y1, y2 = power[i - 1], power[i], power[i + 1]
    denom = y0 - 2 * y1 + y2
    if denom >= 0:  # not a strict maximum, e.g. flat plateau
        return float(freqs[i]), float(y1)
    shift = 0.5 * (y0 - y2) / denom
    df = freqs[1] - freqs[0]
    return float(freqs[i] + shift * df), float(y1 - 0.25 * (y0 - y2) * shift)


def _fourier_ordinates(pgram: Periodogram):
    """Indices of statistically independent ordinates (Fourier spacing).

    The oversampled grid interpolates between Fourier frequencies; the
    rank test below is calibrated for independent ordinates, so it runs
    on every oversample-th point, excluding DC and Nyquist.
    """
    step = pgram.oversample
    idx = np.arange(step, pgram.power.size - 1, step)
    return idx


def peak_significance(pgram: Periodogram, max_peaks: int = 10,
                      level: float = 0.01) -> list[PeakReport]:
    """Rank periodogram peaks and attach significance p-values.

    The m-th largest independent ordinate I_m is tested with
    T_m = I_m / (sum_k I_k - sum_{l<m} I_l) and
    p_m ~= (M - (m-1)) (1 - T_m)^(M - m); ranking stops at the first
    peak with p_m above `level`.  Ordinates landing on the shoulder of
    an already-reported peak are absorbed into it instead of being
    reported twice.
    """
    if max_peaks < 1:
        raise ValueError("max_peaks must be >= 1")
    idx = _fourier_ordinates(pgram)
    intensities = pgram.power[idx]
    if intensities.size < 4 or np.ptp(intensities) == 0.0:
        raise ValueError("spectrum is degenerate; cannot rank peaks")
    m_stat = intensities.size
    order = np.argsort(intensities)[::-1]
    total = float(intensities.sum())

    floor = _noise_floor(intensities, m_stat, level, total)
    reports: list[PeakReport] = []
    claimed: list[int] = []  # full-grid apex indices of reported peaks
    removed = 0.0
    for m_minus_1, oi in enumerate(order):
        m = m_minus_1 + 1
        i_m = float(intensities[oi])
        denom = total - removed  # total with the previous peaks removed
        removed += i_m
        if denom <= 0.0:
            break
        t_m = i_m / denom
        p_m = (m_stat - (m - 1)) * (1.0 - t_m) ** (m_stat - m)
        if p_m > level:
            break
        apex_i = _climb_to_local_max(pgram.power, int(idx[oi]))
        if any(abs(apex_i - c) <= pgram.oversample for c in claimed):
            continue  # shoulder of an already-reported peak
        claimed.append(apex_i)
        freq, _ = _quadratic_apex(pgram.frequencies, pgram.power, apex_i)
        area = _peak_area(intensities, oi, floor)
        snr = math.sqrt(2.0 * area / (pgram.n_samples * floor)) if floor > 0 else math.inf
        df = frequency_uncertainty(1.0, math.sqrt(2.0) * snr,
                                   pgram.total_time, pgram.n_samples) \
            if snr > 0 and math.isfinite(snr) else 0.0
        reports.append(PeakReport(frequency=freq, power=float(pgram.power[apex_i]),
                                  rank=m, p_value=float(p_m), snr=snr, delta_f=df))
        if len(reports) >= max_peaks:
            break
    return reports


def _climb_to_local_max(power, i):
    while i + 1 < power.size and power[i + 1] > power[i]:
        i += 1
    while i - 1 >= 0 and power[i - 1] > power[i]:
        i -= 1
    return i


def _noise_floor(intensities, m_stat, level, total):
    """Mean intensity of ordinates below the p = `level` line (rank 1)."""
    # intensity I* where a single ordinate would sit exactly at p = level
    t_star = 1.0 - (level / m_stat) ** (1.0 / (m_stat - 1))
    i_star = t_star * total
    below = intensities[intensities < i_star]
    if below.size == 0:
        return float(intensities.min())
    return float(below.mean())


def _peak_area(intensities, oi, floor):
    """Contiguous above-floor intensity around ordinate oi."""
    area = float(intensities[oi])
    j = oi - 1
    while j >= 0 and intensities[j] > floor:
        area += float(intensities[j])
        j -= 1
    j = oi + 1
    while j < intensities.size and intensities[j] > floor:
        area += float(intensities[j])
        j += 1
    return area


def frequency_uncertainty(sigma_noise: float, amplitude: float,
                          total_time: float, n_samples: int) -> float:
    """Cramer-Rao bound df = (2 sqrt(3)/pi) sigma / (K t sqrt(M))."""
    if sigma_noise <= 0 or amplitude <= 0 or total_time <= 0 or n_samples < 1:
        raise ValueError("inputs must be positive")
    return (2.0 * math.sqrt(3.0) / math.pi) * sigma_noise / (
        amplitude * total_time * math.sqrt(n_samples))


def carrier_frequency(theta: float, omega: float) -> float:
    """Hz position of the intra-cycle carrier pi*Omega/(theta mod 2pi)."""
    if refocuses(theta):
        raise ValueError("theta = 2 pi k has no intra-cycle carrier")
    return (math.pi * omega / theta_mod(theta)) / (2.0 * math.pi)


def harmonic_filter(trace: SignalTrace, omega: float,
                    theta: float) -> SignalTrace:
    """Notch the even harmonics of the carrier out of a trace.

    Frequency-domain notches of half-width 2/t, with cosine-tapered edges
    of width 2/t, are centered at 2k * carrier; the split pairs around odd
    multiples are untouched.  Warns if a notch encroaches on an
    odd-harmonic region.
    """
    f_c = carrier_frequency(theta, omega)
    t_total = trace.values.size * trace.dt
    halfwidth = taper = 2.0 / t_total
    nyquist = 1.0 / (2.0 * trace.dt)

    values = np.asarray(trace.values, dtype=float)
    mean = values.mean()
    spec = np.fft.rfft(values - mean)
    freqs = np.fft.rfftfreq(values.size, d=trace.dt)
    gain = np.ones_like(freqs)
    k = 1
    while 2 * k * f_c - halfwidth - taper <= nyquist:
        center = 2 * k * f_c
        for odd in (2 * k - 1, 2 * k + 1):
            if abs(center - odd * f_c) < halfwidth + taper:
                warnings.warn("even-harmonic notch overlaps the signal "
                              "region around an odd carrier harmonic")
        delta = np.abs(freqs - center)
        stop = delta <= halfwidth
        edge = (delta > halfwidth) & (delta <= halfwidth + taper)
        gain[stop] = 0.0
        gain[edge] = np.minimum(
            gain[edge],
            0.5 * (1.0 - np.cos(np.pi * (delta[edge] - halfwidth) / taper)))
        k += 1
    filtered = np.fft.irfft(spec * gain, n=values.size) + mean
    return SignalTrace(times=trace.times, values=filtered, dt=trace.dt)


def extract_detunings(peaks: list[PeakReport], theta_nominal: float,
                      omega_nominal: float, pair_tolerance_hz: float,
                      trace: SignalTrace) -> DetuningEstimate:
    """Invert symmetric line pairs around the carrier into detunings.

    Pairs mirror-symmetric peaks (largest power first, midpoints within
    `pair_tolerance_hz` of the running carrier estimate), re-estimates
    the carrier as the power-weighted mean of the pair midpoints, infers
    the realized Rabi frequency and actual flip angle (the half-echo
    duration being fixed by timing), and maps each half-splitting via
    delta_nu = df * theta / (2 sin(theta/2)).

    Pairs that are window leakage are dropped first, and the carrier and
    splittings are then refined by a symmetry-constrained least-squares
    fit of the line model to the time series `trace` (`_refine_pairs`:
    variable projection, Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
    (1973), solved by `_levenberg_marquardt`, MINPACK's lmder after
    Moré, LNM 630 (1978), stopping at ftol 1e-8, xtol 1e-14, gtol 1e-8 or
    100 (n + 1) residual evaluations for n unknowns).  Mirror lines a
    Rayleigh width apart interfere, which biases bare periodogram apexes
    by a sizable fraction of the grid spacing; the fit removes that bias.

    The periodogram's rectangular window puts each strong line's first
    sidelobe 1/T to 2/T from it (T the trace's duration), and the mirror
    sidelobes of a strong pair can clear the significance level and pair
    up.  Fit as a line pair, such a pair is pulled onto a real line or
    collapses onto the carrier.  So, walking the pairs in the order they
    were formed, a pair is dropped when its half-splitting lies within
    LEAKAGE_REACH / T of a kept pair's and its summed power is below
    LEAKAGE_POWER of that pair's.  A real pair that weak and that close
    is dropped too.  That is the window's resolution limit: where the
    A - b and A + b pairs of a hyperfine triplet lie under 1/T apart
    (traces of 3-5.5 us at b up to 0.12 MHz), the periodogram shows one
    pair for both, the line hidden in it is lost, and a fit that pulled a
    sidelobe pair onto that line recovered it only by chance.
    """
    if not peaks:
        raise ValueError("no peaks supplied")
    f_c = carrier_frequency(theta_nominal, omega_nominal)
    remaining = sorted(peaks, key=lambda p: p.power, reverse=True)
    pairs = []
    while remaining:
        p = remaining.pop(0)
        mirror = 2.0 * f_c - p.frequency
        best, best_err = None, pair_tolerance_hz
        for q in remaining:
            err = abs(0.5 * (p.frequency + q.frequency) - f_c)
            if abs(q.frequency - mirror) <= 2 * pair_tolerance_hz and err <= best_err:
                best, best_err = q, err
        if best is None:
            continue
        remaining.remove(best)
        pairs.append((p, best))
    if not pairs:
        raise ValueError("no symmetric pair found about the carrier")
    pairs = _drop_leakage_pairs(pairs, trace.values.size * trace.dt)

    weights = np.array([p.power + q.power for p, q in pairs])
    midpoints = np.array([0.5 * (p.frequency + q.frequency) for p, q in pairs])
    splittings = np.array([0.5 * abs(p.frequency - q.frequency)
                           for p, q in pairs])
    f_c_est, splittings = _refine_pairs(
        trace, float(np.average(midpoints, weights=weights)), splittings)

    omega_measured = (2.0 * math.pi * f_c_est * theta_mod(theta_nominal)
                      / math.pi)
    theta_actual = theta_nominal * omega_measured / omega_nominal
    scale = theta_actual / (2.0 * math.sin(theta_actual / 2.0))

    detunings = []
    for (p, q), half_split in zip(pairs, splittings):
        unc = 0.5 * math.hypot(p.delta_f, q.delta_f) * abs(scale)
        detunings.append((half_split * scale, unc))
    detunings.sort()
    return DetuningEstimate(carrier_hz=f_c_est, omega_measured=omega_measured,
                            theta_actual=theta_actual,
                            detunings=tuple(detunings))


def _drop_leakage_pairs(pairs: list, total_time: float) -> list:
    """`pairs` less the mirror sidelobes of a stronger pair, dropped by
    the rule that :func:`extract_detunings` states."""
    reach = LEAKAGE_REACH / total_time
    kept = []   # (half-splitting, summed power) of each kept pair
    out = []
    for p, q in pairs:
        half, power = 0.5 * abs(p.frequency - q.frequency), p.power + q.power
        if not any(abs(half - h) <= reach and power < LEAKAGE_POWER * w
                   for h, w in kept):
            kept.append((half, power))
            out.append((p, q))
    return out


def _refine_pairs(trace: SignalTrace, f_c: float, splittings: np.ndarray):
    """Least-squares refinement of carrier and pair splittings.

    Model: sum over pairs of quadrature cosines at f_c +/- split plus a
    constant; amplitudes are solved linearly at each frequency guess
    (separable least squares), so the nonlinear search runs only over
    the carrier and the splittings.  Each point takes one thin SVD of
    the basis, dropping singular values below lstsq's default cutoff
    (largest * eps * max(n, m)), so a near-degenerate pair is solved as
    lstsq solves it.  That SVD gives the amplitudes c, the residual
    r = P d (P the projector off the basis Phi) and its variable-
    projection Jacobian -(P dPhi c + pinv(Phi)^T dPhi^T r) (Golub &
    Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)), whose derivative
    columns -+2 pi t sin, +-2 pi t cos are built from the cos/sin
    columns already in the basis.  The residual and the Jacobian of one
    point share the SVD through a memo of the last point.

    The search over (f_c, splittings) is `_levenberg_marquardt`, the
    trust-region Levenberg-Marquardt of MINPACK's lmder (Moré, "The
    Levenberg-Marquardt algorithm: implementation and theory", LNM 630
    (1978)) on that residual and Jacobian.  It stops when an iteration
    cuts the cost by at most ftol = 1e-8 relative, predicted and actual,
    when the trust radius falls to xtol = 1e-14 of the scaled point,
    when no Jacobian column lies within gtol = 1e-8 of orthogonal to the
    residual, or after 100 (n + 1) residual evaluations, n unknowns.  It
    evaluates the Jacobian only at accepted points, where the memo
    already holds their SVD.
    """
    t = np.asarray(trace.times, dtype=float)
    d = np.asarray(trace.values, dtype=float)
    two_pi_t = 2.0 * math.pi * t
    # stored transposed, so that each cos/sin column is one contiguous
    # row of basis_t; basis is its (n, 1 + 4 pairs) view
    basis_t = np.empty((1 + 4 * splittings.size, t.size))
    basis_t[0] = 1.0
    basis = basis_t.T
    # one row each per line frequency, in the order (f_c - split,
    # f_c + split) of each pair
    cos_t, sin_t = basis_t[1::2], basis_t[2::2]
    cutoff = np.finfo(float).eps * max(basis.shape)
    memo = {}   # params.tobytes() -> (u, s, vt, c, r) of the last point

    def project(params):
        key = params.tobytes()
        if key not in memo:
            fc, sp = params[0], params[1:]
            freqs = np.column_stack((fc - sp, fc + sp)).ravel()
            w = np.multiply.outer(2.0 * math.pi * freqs, t)
            np.cos(w, out=cos_t)
            np.sin(w, out=sin_t)
            u, s, vt = np.linalg.svd(basis, full_matrices=False)
            rank = np.count_nonzero(s > s[0] * cutoff)
            u, s, vt = u[:, :rank], s[:rank], vt[:rank]
            ud = u.T @ d
            memo.clear()
            memo[key] = (u, s, vt, vt.T @ (ud / s), d - u @ ud)
        return memo[key]

    def residual(params):
        return project(params)[4]

    def jac(params):
        u, s, vt, coef, r = project(params)
        # (dPhi c)^T and dPhi^T r, one row per line frequency
        dphi_c = two_pi_t * (cos_t * coef[2::2, None]
                             - sin_t * coef[1::2, None])
        tr = two_pi_t * r
        vt_dphi_r = vt[:, 2::2] * (cos_t @ tr) - vt[:, 1::2] * (sin_t @ tr)
        dr_df = (dphi_c @ u - (vt_dphi_r / s[:, None]).T) @ u.T - dphi_c
        # the carrier moves every line; a splitting moves its pair apart.
        # Built transposed, so that each Jacobian column is contiguous
        jac_t = np.empty((1 + splittings.size, t.size))
        dr_df.sum(axis=0, out=jac_t[0])
        np.subtract(dr_df[1::2], dr_df[0::2], out=jac_t[1:])
        return jac_t.T

    x = _levenberg_marquardt(residual, jac,
                             np.concatenate(([f_c], splittings)))
    return float(x[0]), np.abs(x[1:])


# Stopping rules of the refit: relative cost reduction, relative trust
# radius and cosine between the residual and each Jacobian column, as the
# refit passed them to scipy's MINPACK least_squares, and MINPACK lmder1's
# budget of 100 residual evaluations per unknown plus one
_LM_FTOL = 1e-8
_LM_XTOL = 1e-14
_LM_GTOL = 1e-8
_LM_NFEV_PER_PARAM = 100
_LM_FACTOR = 100.0      # first trust radius, times |D x0|
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _levenberg_marquardt(residual, jac, x0: np.ndarray) -> np.ndarray:
    """Minimize |residual(x)|^2 from x0; returns the last accepted x.

    MINPACK's lmder (Moré, "The Levenberg-Marquardt algorithm:
    implementation and theory", LNM 630 (1978)) with one SVD in place of
    its pivoted QR.  Each accepted point evaluates ``jac`` once, scales
    its columns by D, the running maximum of their norms, and factors
    J D^-1 = U S V^T.  In those factors the damped step for a damping
    par is D^-1 V q with q_i = -s_i g_i / (s_i^2 + par), g = U^T r, and
    |D p| = |q|, so lmpar's search for the par whose step fills the trust
    radius, and every rejected trial after it, costs O(p^2) and no new
    factorization.  The trust radius follows the gain ratio of actual to
    predicted reduction as in lmder, and so do the stopping rules.

    A rejection can leave the Gauss-Newton step inside the shrunken
    radius, so the next trial is the point just rejected.  lmder
    evaluates it again; here its residual is the one kept from the
    rejection, and no evaluation is counted.
    """
    x = np.array(x0, dtype=float)
    r = residual(x)
    nfev, max_nfev = 1, _LM_NFEV_PER_PARAM * (x.size + 1)
    fnorm = _norm(r)
    if fnorm == 0.0:
        return x
    diag = None
    first = True    # no step accepted yet
    par = 0.0
    rejected = None     # (x, residual) of the last rejected trial
    while True:
        j = jac(x)
        cnorm = np.sqrt(np.einsum("ij,ij->j", j, j))
        nonzero = np.where(cnorm == 0.0, 1.0, cnorm)
        if diag is None:
            diag = nonzero
            xnorm = _norm(diag * x)
            delta = _LM_FACTOR * xnorm or _LM_FACTOR
        # the largest cosine between the residual and a Jacobian column
        gnorm = float(np.max(np.abs(r @ j) / nonzero)) / fnorm
        if gnorm <= _LM_GTOL:
            return x
        diag = np.maximum(diag, cnorm)
        u, s, vt = np.linalg.svd(j / diag, full_matrices=False)
        # Gauss-Newton steps drop the singular values lstsq would drop
        rank = np.count_nonzero(s > s[0] * _EPS * max(j.shape))
        g = r @ u
        while True:
            par, q = _lm_step(s, g, rank, delta, par)
            pnorm = _norm(q)
            if first:
                delta = min(delta, pnorm)
            x_new = x + (q @ vt) / diag
            if rejected is not None and \
                    rejected[0].tobytes() == x_new.tobytes():
                r_new = rejected[1]
            else:
                r_new = residual(x_new)
                nfev += 1
            fnorm1 = _norm(r_new)
            actred = 1.0 - (fnorm1 / fnorm) ** 2 \
                if 0.1 * fnorm1 < fnorm else -1.0
            # predicted reduction |J p|^2 + 2 par |D p|^2, over |r|^2
            jp2, dp2 = _norm(s * q) ** 2, par * pnorm ** 2
            prered = (jp2 + 2.0 * dp2) / fnorm ** 2
            dirder = -(jp2 + dp2) / fnorm ** 2
            ratio = actred / prered if prered != 0.0 else 0.0
            if ratio <= 0.25:
                temp = 0.5 if actred >= 0.0 \
                    else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, 10.0 * pnorm)
                par /= temp
            elif par == 0.0 or ratio >= 0.75:
                delta = 2.0 * pnorm
                par *= 0.5
            accepted = ratio >= 1e-4
            if accepted:
                x, r, fnorm = x_new, r_new, fnorm1
                xnorm = _norm(diag * x)
                first = False
            else:
                rejected = x_new, r_new
            small = 0.5 * ratio <= 1.0
            if (abs(actred) <= _LM_FTOL and prered <= _LM_FTOL and small
                    or delta <= _LM_XTOL * xnorm or nfev >= max_nfev
                    or abs(actred) <= _EPS and prered <= _EPS and small
                    or delta <= _EPS * xnorm or gnorm <= _EPS):
                return x
            if accepted:
                break


def _norm(v: np.ndarray) -> float:
    return math.sqrt(v @ v)


def _lm_step(s: np.ndarray, g: np.ndarray, rank: int, delta: float,
             par: float):
    """MINPACK lmpar on the singular values ``s`` of J D^-1 (the first
    ``rank`` of them kept by a Gauss-Newton step) and g = U^T r: the
    damping par >= 0 and the step q, in V coordinates, with |q| within
    10% of ``delta``, or the Gauss-Newton step and par = 0 where that is
    shorter than 1.1 ``delta``."""
    q = np.zeros_like(g)
    q[:rank] = -g[:rank] / s[:rank]
    dxnorm = _norm(q)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, q
    # Newton's bounds on par: below from the Gauss-Newton step (full rank
    # only), above from the gradient
    parl = 0.0
    if rank == s.size:
        parl = fp / delta * dxnorm ** 2 / float(np.sum((q / s) ** 2))
    gnorm = _norm(s * g)
    paru = gnorm / delta
    if paru == 0.0:
        paru = _TINY / min(delta, 0.1)
    par = min(max(par, parl), paru)
    if par == 0.0:
        par = gnorm / dxnorm
    for it in range(10):
        if par == 0.0:
            par = max(_TINY, 0.001 * paru)
        shifted = s ** 2 + par
        q = -s * g / shifted
        dxnorm = _norm(q)
        temp, fp = fp, dxnorm - delta
        if (abs(fp) <= 0.1 * delta or parl == 0.0 and fp <= temp < 0.0
                or it == 9):
            break
        parc = fp / delta * dxnorm ** 2 / float(np.sum(q ** 2 / shifted))
        if fp > 0.0:
            parl = max(parl, par)
        elif fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + parc)
    return par, q
