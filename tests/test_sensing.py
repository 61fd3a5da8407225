import math
import re
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from remag.models import rabi_signal, re_signal_full_echo
from remag.sensing import (
    ReadoutModel,
    corrected_sensitivity,
    optimal_interrogation_times,
    rabi_asymptote,
    re_coefficient,
    readout_factors,
    repeated_readout_gain,
    sensitivity_ideal,
    sensitivity_ratio_re_ramsey,
    sensitivity_sweep,
)
from remag.units import GAMMA_E_RAD_PER_S_PER_T as GAMMA
from remag.units import mhz_to_rad

W17 = mhz_to_rad(17.0)


class TestIdeal:
    def test_re_coefficient_minimum(self):
        res = minimize_scalar(re_coefficient, bounds=(1.5, 3.0),
                              method="bounded")
        assert res.fun == pytest.approx(1.3801, abs=1e-3)
        assert res.x == pytest.approx(2.3311, abs=0.02)

    def test_re_coefficient_rejects_refocus(self):
        with pytest.raises(ValueError):
            re_coefficient(2 * math.pi)

    def test_ratio_minimum(self):
        res = minimize_scalar(sensitivity_ratio_re_ramsey,
                              bounds=(0.3 * math.pi, 1.5 * math.pi),
                              method="bounded")
        assert 1.19 <= res.fun <= 1.22
        assert 0.7 * math.pi <= res.x <= 0.9 * math.pi

    def test_scalings(self):
        t = 2e-6
        assert sensitivity_ideal("ramsey", t) == pytest.approx(
            1.0 / (GAMMA * math.sqrt(t)))
        assert sensitivity_ideal("rotary_echo", t, theta=math.pi) == \
            pytest.approx(re_coefficient(math.pi) / (GAMMA * math.sqrt(t)))
        # pi-RE is pi/2 times worse than Ramsey at equal t
        ratio = sensitivity_ideal("rotary_echo", t, theta=math.pi) / \
            sensitivity_ideal("ramsey", t)
        assert ratio == pytest.approx(math.pi / 2)

    def test_rabi_beat_minima_approach_asymptote(self):
        omega = W17
        asym = rabi_asymptote(omega)
        for k in (10, 100, 1000):
            x = (2 * k + 1.5) * math.pi
            eta = sensitivity_ideal("rabi", x / omega, omega=omega)
            assert eta == pytest.approx(asym * math.sqrt(x / (x + 2)), rel=1e-9)
        # the minima converge to the asymptote from below
        x = 2001.5 * math.pi
        assert sensitivity_ideal("rabi", x / omega, omega=omega) == \
            pytest.approx(asym, rel=1e-3)

    def test_rabi_insensitive_phase(self):
        # near t Omega = 2 pi k the signal has no field dependence;
        # rounding leaves a huge finite value, not inf
        eta = sensitivity_ideal("rabi", 2 * math.pi / W17, omega=W17)
        assert eta > 100 * rabi_asymptote(W17)

    def test_rabi_matches_a_finite_difference_of_the_signal(self):
        # eta = sqrt(2 Omega x/|d|)/gamma with d = -4 Omega^2 dP1/du, the
        # response of P1 = 1 - rabi_signal to u = dw^2 at u = 0: here a
        # central difference over u = 0 and 2h, the slope at u = h; at
        # h = 1e-10 Omega^2 that and rounding move eta by about 1e-6
        t = np.linspace(0.05e-6, 3e-6, 256)
        x, h = t * W17, 1e-10 * W17 ** 2
        dp1 = rabi_signal(W17, 0.0, t) - rabi_signal(W17, math.sqrt(2 * h), t)
        d = -4.0 * W17 ** 2 * dp1 / (2.0 * h)
        away = np.abs(d) > 0.1              # away from the zeros of d
        assert np.sum(away & (d < 0.0)) > 100   # about half of each period
        want = np.sqrt(2.0 * W17 * x[away] / np.abs(d[away])) / GAMMA
        got = sensitivity_ideal("rabi", t[away], omega=W17)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=0.0)

    def test_full_echo_warning(self):
        with pytest.warns(UserWarning):
            sensitivity_ideal("rotary_echo", 1.3e-7, theta=math.pi, omega=W17)
        # silent on complete cycles, as many as the benchmark's longest echo
        theta = 0.507 * math.pi
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sensitivity_ideal("rotary_echo", 189 * 2 * theta / W17,
                              theta=theta, omega=W17)


class TestFromTrace:
    @pytest.mark.parametrize("theta", [0.75 * math.pi, math.pi, 5 * math.pi])
    def test_recovers_ideal(self, theta):
        # best shot-noise sensitivity sqrt(S(1-S)) / |dS/d(dw)| sqrt(t)/gamma
        # of the exact full-echo signal, by central differences; a slope at
        # the rounding floor (the echo peak at dw = 0) is no measurement
        n = 8
        t = n * 2 * theta / W17
        dw = mhz_to_rad(np.linspace(-6.0, 6.0, 4001))
        sbar = re_signal_full_echo(theta, W17, dw, n)
        slope = np.abs(np.gradient(sbar, dw))[1:-1]
        shot = np.sqrt(np.clip(sbar * (1.0 - sbar), 0.0, None))[1:-1]
        usable = slope > 64 * np.finfo(float).eps / (dw[1] - dw[0])
        eta = shot[usable] / slope[usable] * math.sqrt(t) / GAMMA
        ideal = sensitivity_ideal("rotary_echo", t, theta=theta)
        assert eta.min() == pytest.approx(ideal, rel=1e-2)


class TestReadout:
    def test_detection_factor_value(self):
        r = ReadoutModel(n0=0.0022, n1=0.0015)
        c, c_a, c_nr = readout_factors(r, math.pi, 0.0, 1e-6)
        assert c == pytest.approx(6.64e-3, rel=0.02)
        assert c_a == 1.0
        # at theta = k pi the general form reduces to the simple one
        reduced = (1 + 3 * (r.n0 + r.n1) / (r.n0 - r.n1) ** 2) ** -0.5
        assert c == pytest.approx(reduced, rel=1e-12)

    def test_repeated_readout_gain(self):
        r100 = ReadoutModel(n0=0.0022, n1=0.0015, n_r=100)
        gain = repeated_readout_gain(r100)
        assert 9.5 <= gain <= 10.5

    def test_hyperfine_factor(self):
        r = ReadoutModel(n0=0.0022, n1=0.0015)
        a = mhz_to_rad(2.17)
        # beat node: 2 A t sin(theta/2)/theta = 2 pi / 3 makes C_A = 0
        t = (2 * math.pi / 3) * math.pi / (2 * a * math.sin(math.pi / 2))
        _, c_a, _ = readout_factors(r, math.pi, a, t)
        assert c_a == pytest.approx(0.0, abs=1e-9)
        assert corrected_sensitivity(1.0, 0.5, 0.0, 1.0, 1e-6, r) == math.inf

    def test_corrected_overhead(self):
        r = ReadoutModel(n0=0.0022, n1=0.0015, t_d=3e-6)
        eta = corrected_sensitivity(1.0, 1.0, 1.0, 1.0, t=1e-6, readout=r)
        assert eta == pytest.approx(2.0)

    @pytest.mark.parametrize("fields", [
        {"n0": math.nan}, {"n0": math.inf}, {"n1": math.nan},
        {"n_r": math.inf}, {"t_r": math.nan}, {"t_r": math.inf},
        {"t_d": math.inf}])
    def test_non_finite_fields_rejected(self, fields):
        args = {"n0": 0.0022, "n1": 0.0015, **fields}
        with pytest.raises(ValueError, match=f"{[*fields][0]} must be finite"):
            ReadoutModel(**args)

    def test_optimal_times_spacing(self):
        a = mhz_to_rad(2.17)
        times = optimal_interrogation_times(math.pi, W17, a, 5e-6)
        # principal C_A maxima recur every pi theta/(A sin(theta/2))
        spacing = math.pi ** 2 / a
        assert np.allclose(np.diff(times), spacing, rtol=0.1)
        no_hf = optimal_interrogation_times(math.pi, W17, 0.0, 1e-6)
        assert no_hf.size == int(1e-6 / (2 * math.pi / W17))


def reference_sweep(kind, times, r, envelope, theta=None, omega=None,
                    hyperfine=0.0):
    """The sensitivity budget one time at a time, on Python floats."""
    theta_c = theta if kind == "rotary_echo" else math.pi
    c, _, _ = readout_factors(r, theta_c, 0.0, 1.0)  # C depends on theta alone
    c_eff = c * repeated_readout_gain(r)
    ideal, corrected = [], []
    for t, env in zip(times, envelope):
        if kind == "rotary_echo":
            s = math.sin(theta / 2.0)
            eta = theta / (2.0 * s * s) / (GAMMA * math.sqrt(t))
        elif kind == "ramsey":
            eta = 1.0 / (GAMMA * math.sqrt(t))
        else:
            x = t * omega
            d = abs(2.0 - 2.0 * math.cos(x) - x * math.sin(x))
            eta = (math.inf if d == 0.0 else
                   math.sqrt(2.0 * omega) / GAMMA * math.sqrt(x / d))
        arg = 2.0 * hyperfine * t * math.sin(theta_c / 2.0) / theta_c
        c_a = abs(1.0 + 2.0 * math.cos(arg)) / 3.0
        ideal.append(eta)
        corrected.append(math.inf if c_a == 0.0 else
                         eta * env / (c_eff * c_a)
                         * math.sqrt((t + r.t_d + r.n_r * r.t_r) / t))
    return np.array(ideal), np.array(corrected)


# theta = pi, A = 2.14 MHz: cos(2 A t / pi) is exactly -1/2, so C_A = 0
CA_NODE_T = 7.095497426332088e-06
# t Omega = 2 pi at 17 MHz: rounding leaves the Rabi response d just off 0
RABI_NODE_T = 1.0 / 17e6


class TestTimeGrids:
    """The budget over a whole time grid: one call, the per-time values."""

    CASES = {
        "re_triplet": ("rotary_echo",
                       np.append(2 * math.pi / W17 * np.arange(1, 60),
                                 CA_NODE_T),
                       ReadoutModel(n0=0.0022, n1=0.0015),
                       {"theta": math.pi, "hyperfine": mhz_to_rad(2.14)}),
        "ramsey": ("ramsey", np.linspace(0.2e-6, 6e-6, 50),
                   ReadoutModel(n0=0.0022, n1=0.0015, n_r=100, t_r=1.5e-6,
                                t_d=0.7e-6), {}),
        "rabi": ("rabi", np.append(np.linspace(0.05e-6, 3e-6, 60),
                                   RABI_NODE_T),
                 ReadoutModel(n0=0.0022, n1=0.0015), {"omega": W17}),
        "empty": ("rotary_echo", np.array([]),
                  ReadoutModel(n0=0.0022, n1=0.0015),
                  {"theta": 5 * math.pi, "omega": W17}),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_sweep_is_the_per_time_formulas_bit_for_bit(self, case):
        kind, times, r, kw = self.CASES[case]
        envelope = [math.exp((t / 2e-6) ** 2) for t in times]
        want = reference_sweep(kind, times, r, envelope, **kw)
        got = sensitivity_sweep(kind, times, r, envelope, **kw)
        for w, g in zip(want, got):
            assert g.shape == times.shape
            assert np.array_equal(g, w)
        if case == "re_triplet":    # the node reads inf
            assert got[1][-1] == math.inf
        if case == "rabi":          # the node reads a huge finite value
            assert math.isfinite(got[0][-1])
            assert got[0][-1] > 100 * rabi_asymptote(W17)

    def test_a_number_gives_a_0d_value(self):
        assert np.shape(sensitivity_ideal("ramsey", 2e-6)) == ()
        _, c_a, _ = readout_factors(ReadoutModel(n0=0.0022, n1=0.0015),
                                    math.pi, mhz_to_rad(2.14), CA_NODE_T)
        assert np.shape(c_a) == () and c_a == 0.0

    def test_any_time_at_or_below_zero_raises(self):
        r = ReadoutModel(n0=0.0022, n1=0.0015)
        for t in ([1e-6, 0.0], [-1e-6, 1e-6]):
            with pytest.raises(ValueError, match="t must be positive"):
                sensitivity_ideal("ramsey", t)
            with pytest.raises(ValueError, match="t and the envelope"):
                corrected_sensitivity(1.0, 0.5, [1.0, 1.0], [1.0, 1.0], t, r)
            with pytest.raises(ValueError):
                sensitivity_sweep("ramsey", t, r, [1.0, 1.0])

    def test_envelope_is_checked_only_where_ca_is_nonzero(self):
        r = ReadoutModel(n0=0.0022, n1=0.0015)
        eta = corrected_sensitivity(1.0, 0.5, [0.0, 0.5], [-1.0, 2.0],
                                    [1e-6, 1e-6], r)
        assert eta[0] == math.inf and np.isfinite(eta[1])
        for env in ([1.0, 0.0], [1.0, -2.0]):
            with pytest.raises(ValueError, match="t and the envelope"):
                corrected_sensitivity(1.0, 0.5, [0.0, 0.5], env,
                                      [1e-6, 1e-6], r)

    @pytest.mark.parametrize("c, c_a", [(0.0, [0.5]), (1.5, [0.5]),
                                        (0.5, [0.5, 1.5]), (0.5, [-0.1])])
    def test_factor_range_message(self, c, c_a):
        r = ReadoutModel(n0=0.0022, n1=0.0015)
        with pytest.raises(ValueError, match=re.escape(
                "C must lie in (0, 1] and C_A in [0, 1]")):
            corrected_sensitivity(1.0, c, c_a, 1.0, 1e-6, r)

    def test_one_warning_per_grid_off_the_full_echoes(self):
        cycle = 2 * math.pi / W17
        times = cycle * np.array([1.0, 2.0, 2.5, 3.5])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sensitivity_ideal("rotary_echo", times, theta=math.pi, omega=W17)
        assert [w.category for w in caught] == [UserWarning]
        theta = 0.507 * math.pi
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sensitivity_ideal("rotary_echo",
                              2 * theta / W17 * np.arange(1, 190),
                              theta=theta, omega=W17)
