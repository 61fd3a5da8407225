import math

import numpy as np
import pytest

from remag.dynamics import PulseSequence
from remag.models import DecayScenario, mean_signal, ramsey_signal, t_prime_ramsey
from remag.noise import (NoiseSpec, decay_scenario, ensemble_trace,
                         monte_carlo, sample_path)
from remag.units import mhz_to_rad

SIGMA = mhz_to_rad(1.0)
TAU_C = 2e-7


class TestGenerator:
    def test_static_is_constant(self):
        spec = NoiseSpec(axis="z", kind="static", sigma=SIGMA, seed=4)
        path = sample_path(spec, 1e-6, 1e-9)
        assert np.all(path.values == path.values[0])

    def test_ou_stationary_moments(self):
        spec = NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C, seed=10)
        dt = TAU_C / 20
        path = sample_path(spec, 1e5 * dt, dt)
        x = path.values
        var = x.var()
        assert abs(var / SIGMA ** 2 - 1.0) < 0.03
        lag = 20  # one correlation time
        acov = np.mean(x[:-lag] * x[lag:])
        assert abs(acov / (SIGMA ** 2 * math.exp(-1.0)) - 1.0) < 0.05

    def test_trials_are_independent_and_reproducible(self):
        spec = NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C, seed=2)
        a = sample_path(spec, 1e-6, 1e-8, trial_index=0)
        b = sample_path(spec, 1e-6, 1e-8, trial_index=1)
        a2 = sample_path(spec, 1e-6, 1e-8, trial_index=0)
        assert np.array_equal(a.values, a2.values)
        assert not np.array_equal(a.values, b.values)

    def test_dt_guard(self):
        spec = NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C, seed=0)
        with pytest.raises(ValueError):
            sample_path(spec, 1e-6, TAU_C)  # far coarser than tau_c/20

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(axis="y", kind="ou", sigma=SIGMA, tau_c=TAU_C)
        with pytest.raises(ValueError):
            NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=0.0)
        with pytest.raises(ValueError):
            NoiseSpec(axis="z", kind="static", sigma=SIGMA, relative=True)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_64_bits_rejected(self, seed):
        # masked to 64 bits, -1 would alias 2**64 - 1 and 2**64 + 5 seed 5
        with pytest.raises(ValueError, match="seed"):
            NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C, seed=seed)

    @pytest.mark.parametrize("a, b", [(2**64 - 1, 0), (2**64 - 1, 2**64 - 2),
                                      (2**63 + 1, 2**63)])
    def test_seeds_above_2_63_keep_their_own_stream(self, a, b):
        def path(seed):
            spec = NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C,
                             seed=seed)
            return sample_path(spec, 1e-7, 1e-9).values
        assert not np.array_equal(path(a), path(b))


class TestDecayScenario:
    def test_relative_sigma_scales_with_drive(self):
        omega = mhz_to_rad(19.0)
        seq = PulseSequence.rotary_echo(5 * math.pi, omega, 3)
        rel = NoiseSpec(axis="x", kind="ou", sigma=0.05, tau_c=TAU_C,
                        relative=True)
        scen = decay_scenario(seq, rel)
        assert scen == DecayScenario("rotary_echo", "x", "ou",
                                     sigma=0.05 * omega, tau_c=TAU_C,
                                     theta=5 * math.pi, omega=omega)
        absolute = NoiseSpec(axis="x", kind="ou", sigma=SIGMA, tau_c=TAU_C)
        assert decay_scenario(seq, absolute).sigma == SIGMA

    def test_static_noise_has_no_correlation_time(self):
        seq = PulseSequence.ramsey(1e-6)
        spec = NoiseSpec(axis="z", kind="static", sigma=SIGMA, tau_c=TAU_C)
        assert decay_scenario(seq, spec).tau_c == 0.0


class TestMonteCarlo:
    def test_bit_reproducible(self):
        seq = PulseSequence.rotary_echo(math.pi, mhz_to_rad(20.0), 6)
        spec = NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C, seed=9)
        a = monte_carlo(seq, mhz_to_rad(2.0), spec, trials=64)
        b = monte_carlo(seq, mhz_to_rad(2.0), spec, trials=64)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.stderr, b.stderr)

    def test_records_full_echo_times(self):
        seq = PulseSequence.rotary_echo(math.pi, mhz_to_rad(20.0), 5)
        spec = NoiseSpec(axis="z", kind="static", sigma=SIGMA, seed=1)
        res = monte_carlo(seq, 0.0, spec, trials=8)
        assert res.times.size == 6
        assert res.times[-1] == pytest.approx(seq.total_duration)

    def test_noiseless_limit(self):
        # sigma = 0 reproduces the deterministic signal with zero stderr
        seq = PulseSequence.rotary_echo(math.pi, mhz_to_rad(20.0), 10)
        spec = NoiseSpec(axis="z", kind="static", sigma=0.0, seed=0)
        dw = mhz_to_rad(0.5)
        res = monte_carlo(seq, dw, spec, trials=4)
        from remag.models import re_signal_full_echo
        model = re_signal_full_echo(math.pi, mhz_to_rad(20.0), dw,
                                    np.arange(11))
        assert np.max(np.abs(res.mean - model)) < 2e-3
        assert np.max(res.stderr) < 1e-12

    def test_ramsey_against_static_envelope(self):
        # MC mean under static dephasing vs (1 + cos e^{-(t/T')^2})/2
        seq = PulseSequence.ramsey(1.2e-6)
        spec = NoiseSpec(axis="z", kind="static", sigma=SIGMA, seed=21)
        dw = mhz_to_rad(1.5)
        res = monte_carlo(seq, dw, spec, trials=800,
                          record_times=np.linspace(0, 1.2e-6, 25))
        model = ramsey_signal(dw, res.times, t2_star=t_prime_ramsey(SIGMA))
        se = np.maximum(res.stderr, 1e-9)  # t=0 has only rounding scatter
        assert np.max(np.abs(res.mean - model) / se) < 4.0

    def test_rabi_drive_noise_against_envelope(self):
        omega = mhz_to_rad(20.0)
        period = 2 * math.pi / omega
        seq = PulseSequence.rabi(omega, 10 * period)
        spec = NoiseSpec(axis="x", kind="ou", sigma=0.05, tau_c=TAU_C,
                         seed=33, relative=True)
        res = monte_carlo(seq, 0.0, spec, trials=600,
                          record_times=period * np.arange(11))
        scen = DecayScenario("rabi", "x", "ou", sigma=0.05 * omega,
                             tau_c=TAU_C, omega=omega)
        model = mean_signal(scen, res.times)
        se = np.where(res.stderr > 0, res.stderr, 1.0)
        assert np.max(np.abs(res.mean - model) / se) < 4.0

    def test_ensemble_trace_view(self):
        seq = PulseSequence.rotary_echo(math.pi, mhz_to_rad(20.0), 4)
        spec = NoiseSpec(axis="z", kind="static", sigma=SIGMA, seed=3)
        res = monte_carlo(seq, 0.0, spec, trials=16)
        trace = ensemble_trace(res)
        assert np.array_equal(trace.values, res.mean)
        assert trace.dt == pytest.approx(res.times[1] - res.times[0])

    def test_chunking_does_not_change_result(self):
        seq = PulseSequence.rotary_echo(math.pi, mhz_to_rad(20.0), 4)
        spec = NoiseSpec(axis="z", kind="ou", sigma=SIGMA, tau_c=TAU_C, seed=7)
        a = monte_carlo(seq, 0.0, spec, trials=50, chunk=7)
        b = monte_carlo(seq, 0.0, spec, trials=50, chunk=50)
        assert np.allclose(a.mean, b.mean, atol=1e-12)
