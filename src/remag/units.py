"""Unit conventions and physical constants.

All frequencies inside the library are angular (rad/s).  Ordinary
frequencies (Hz, MHz) appear only at I/O boundaries; convert with the
helpers below instead of sprinkling 2*pi factors around.
"""

import math

TWO_PI = 2.0 * math.pi

# Electron gyromagnetic ratio of the NV center, ~2.8 MHz/G.
GAMMA_E_HZ_PER_GAUSS = 2.8e6
GAMMA_E_RAD_PER_S_PER_T = TWO_PI * GAMMA_E_HZ_PER_GAUSS * 1e4  # rad s^-1 T^-1

# CODATA 2022 values (N A^-2, C), used by the calcium-flux estimates.
MU_0 = 1.25663706127e-06
ELEMENTARY_CHARGE = 1.602176634e-19


def mhz_to_rad(f_mhz):
    return TWO_PI * f_mhz * 1e6


def us_to_s(t_us):
    return t_us * 1e-6
