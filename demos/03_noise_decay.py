"""Monte Carlo decoherence vs model mean signals.

An Ornstein-Uhlenbeck bath along z dephases the spin; drive-amplitude
noise along x attacks the rotation itself.  Rotary echoes suppress the
former far better than a plain Rabi drive and, for static amplitude
errors, refocus exactly.  Each case is averaged over noise realizations
and compared to its model: the exact OU mean (`noise.exact_mean`, the
Kubo-Tanimura hierarchy) for both the dephased echo and the drive-noise
Rabi, whose phase is Gaussian, so that the mean also has the closed form
(1 + cos(Omega t) exp(-zeta'))/2 (`models.ou_zeta_prime`).
"""

import math

import numpy as np

from remag.dynamics import PulseSequence
from remag.noise import NoiseSpec, mc_vs_model, monte_carlo
from remag.units import mhz_to_rad

omega = mhz_to_rad(20.0)
tau_c = 200e-9
trials = 2000

# z-axis OU bath, pi rotary echo, detuned by 2 MHz: exact OU mean
seq = PulseSequence.rotary_echo(math.pi, omega, 18)
spec = NoiseSpec(axis="z", kind="ou", sigma=0.05 * omega, tau_c=tau_c, seed=1)
res, model = mc_vs_model(seq, mhz_to_rad(2.0), spec, trials)
z = np.abs(res.mean - model) / np.maximum(res.stderr, 1e-12)
print(f"OU-z pi echo:   worst deviation {z.max():.2f} standard errors "
      f"({trials} trials)")

# x-axis OU drive noise, resonant Rabi, sampled at the Rabi peaks
period = 2.0 * math.pi / omega
seq = PulseSequence.rabi(omega, 12 * period)
spec = NoiseSpec(axis="x", kind="ou", sigma=0.05 * omega, tau_c=tau_c, seed=2)
res, model = mc_vs_model(seq, 0.0, spec, trials,
                         record_times=period * np.arange(13))
z = np.abs(res.mean - model) / np.maximum(res.stderr, 1e-12)
print(f"OU-x Rabi:      worst deviation {z.max():.2f} standard errors")

# static x error: the echo refocuses it exactly at every full echo; the
# noise is constant, so each half echo is one exact step
seq = PulseSequence.rotary_echo(5.0 * math.pi, omega, 20)
spec = NoiseSpec(axis="x", kind="static", sigma=0.05 * omega, seed=3)
res = monte_carlo(seq, 0.0, spec, trials=500)
print(f"static-x 5pi echo: max |signal - 1| = {np.abs(res.mean - 1).max():.1e}"
      f"  (exact refocusing, {res.meta['n_steps']} steps)")
