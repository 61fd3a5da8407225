"""Magnetic field and required sensitivity for calcium-flux sensing.

A transient flux of l Ca2+ ions travelling a distance d in time t is a
current I = 2 l e / t (charge 2e per ion); at standoff r it produces
B = (mu0 / 4 pi) 2 l e d / (t r^2).  Resolving it within the flux
duration over N repetitions needs eta = B sqrt(2 pi N t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .units import MU_0, ELEMENTARY_CHARGE, require_finite

MU_0_OVER_4PI = MU_0 / (4.0 * math.pi)


@dataclass(frozen=True)
class CaDomainSpec:
    """A calcium-flux sensing scenario (SI units)."""

    ion_count: float          # l, number of Ca2+ ions
    travel_distance: float    # d, m
    flux_duration: float      # t, s
    standoff: float           # r, m
    repetitions: float = 1.0  # N averaging repetitions

    def __post_init__(self):
        require_finite(self)
        if self.ion_count < 0:
            raise ValueError("ion count must be nonnegative")
        for name in ("travel_distance", "flux_duration", "standoff",
                     "repetitions"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def ca_field(spec: CaDomainSpec) -> float:
    """Field magnitude B = (mu0/4pi) 2 l e d / (t r^2), in tesla."""
    return (MU_0_OVER_4PI * 2.0 * spec.ion_count * ELEMENTARY_CHARGE
            * spec.travel_distance
            / (spec.flux_duration * spec.standoff ** 2))


def ca_required_sensitivity(spec: CaDomainSpec) -> float:
    """Minimum sensitivity eta = B sqrt(2 pi N t), in T/sqrt(Hz)."""
    return ca_field(spec) * math.sqrt(
        2.0 * math.pi * spec.repetitions * spec.flux_duration)


def implied_repetitions(spec: CaDomainSpec, eta_target: float) -> float:
    """N that makes the required sensitivity equal eta_target."""
    if eta_target <= 0:
        raise ValueError("eta_target must be positive")
    b = ca_field(spec)
    return (eta_target / b) ** 2 / (2.0 * math.pi * spec.flux_duration)
