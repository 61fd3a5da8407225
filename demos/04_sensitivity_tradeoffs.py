"""Magnetometer sensitivity: echo angle, readout, and repeated readout.

The shot-noise-limited sensitivity of a rotary-echo magnetometer scales
as theta/(2 sin^2(theta/2)) / sqrt(t); minimizing over theta, then
correcting for photon readout, hyperfine averaging, and decoherence,
shows where the practical optimum sits and when a repeated (nuclear-
assisted) readout beats a plain Ramsey measurement.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.optimize import minimize_scalar

from remag.models import t_prime_re
from remag.sensing import (ReadoutModel, optimal_interrogation_times,
                           re_coefficient, readout_factors,
                           repeated_readout_gain, sensitivity_sweep)
from remag.units import mhz_to_rad

omega = mhz_to_rad(17.0)

res = minimize_scalar(re_coefficient, bounds=(0.1, 2 * math.pi - 0.1),
                      method="bounded")
print(f"ideal echo-angle optimum: coefficient {res.fun:.4f} "
      f"at theta = {res.x / math.pi:.3f} pi")

readout = ReadoutModel(n0=0.0022, n1=0.0015)
c, _, _ = readout_factors(readout, math.pi, 0.0, 1e-6)
print(f"photon readout factor C(pi) = {c:.2e} "
      f"(a ~{1 / c:.0f}x sensitivity penalty)")
print(f"repeated readout, n_r = 100: gain {repeated_readout_gain(ReadoutModel(0.0022, 0.0015, n_r=100)):.2f}x")

# corrected sensitivity curves under a static bath with T2* = 3 us
t2_star = 3e-6
sigma = math.sqrt(2.0) / t2_star
t_r = 1.5e-6


def best(theta, horizon, n_r):
    t_p = t_prime_re(theta, sigma)
    times = optimal_interrogation_times(theta, omega, 0.0, horizon)
    _, etas = sensitivity_sweep("rotary_echo", times,
                                replace(readout, n_r=n_r, t_r=t_r),
                                [math.exp((t / t_p) ** 2) for t in times],
                                theta=theta)
    i = int(np.argmin(etas))
    return etas[i], times[i]


for theta, n_r in ((math.pi, 1), (math.pi, 100), (11 * math.pi, 100)):
    eta, t = best(theta, 60e-6, n_r)
    print(f"{theta / math.pi:4.0f} pi echo, n_r = {n_r:3d}: "
          f"eta = {eta * 1e6:6.3f} uT/rtHz at t = {t * 1e6:5.2f} us")

times = np.linspace(0.2e-6, 6e-6, 240)
_, etas = sensitivity_sweep("ramsey", times, replace(readout, t_r=t_r),
                            [math.exp((t / t2_star) ** 2) for t in times])
print(f"Ramsey baseline:           eta = {min(etas) * 1e6:6.3f} uT/rtHz")
