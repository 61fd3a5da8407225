import math
from dataclasses import replace

import pytest
import scipy.constants

from remag.calcium import (
    CaDomainSpec,
    ca_field,
    ca_required_sensitivity,
    implied_repetitions,
)
from remag.units import ELEMENTARY_CHARGE, MU_0

SPEC = CaDomainSpec(ion_count=1e5, travel_distance=200e-9,
                    flux_duration=10e-6, standoff=10e-9)


def test_field_value():
    # hand evaluation: (mu0/4pi) * 2 N e d / (t r^2)
    assert ca_field(SPEC) == pytest.approx(0.64e-6, rel=0.01)


def test_field_scalings():
    closer = CaDomainSpec(1e5, 200e-9, 10e-6, 5e-9)
    assert ca_field(closer) == pytest.approx(4 * ca_field(SPEC))
    slower = CaDomainSpec(1e5, 200e-9, 20e-6, 10e-9)
    assert ca_field(slower) == pytest.approx(0.5 * ca_field(SPEC))


def test_sensitivity_identity():
    spec = CaDomainSpec(1e5, 200e-9, 10e-6, 10e-9, repetitions=3.875e6)
    eta = ca_required_sensitivity(spec)
    b = ca_field(spec)
    n, t = spec.repetitions, spec.flux_duration
    assert abs(eta - b * math.sqrt(2 * math.pi * n * t)) <= 1e-12 * eta


def test_implied_repetitions_roundtrip():
    target = 10e-6
    n = implied_repetitions(SPEC, target)
    spec = CaDomainSpec(1e5, 200e-9, 10e-6, 10e-9, repetitions=n)
    assert ca_required_sensitivity(spec) == pytest.approx(target, rel=1e-12)


def test_validation():
    with pytest.raises(ValueError):
        CaDomainSpec(-1.0, 200e-9, 10e-6, 10e-9)
    with pytest.raises(ValueError):
        CaDomainSpec(1e5, 200e-9, -1.0, 10e-9)


@pytest.mark.parametrize("field", ["ion_count", "travel_distance",
                                   "flux_duration", "standoff",
                                   "repetitions"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_fields_rejected(field, value):
    # NaN fails every range check silently, +inf passes them all
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        replace(SPEC, **{field: value})


def test_constants_are_codata_2022_literals():
    # pinned, so calcium outputs do not follow the CODATA edition of the
    # installed scipy (2018's mu_0 is 1.25663706212e-6)
    assert MU_0 == 1.25663706127e-06
    assert ELEMENTARY_CHARGE == 1.602176634e-19
    assert MU_0 == pytest.approx(scipy.constants.mu_0, rel=1e-9, abs=0.0)
    assert ELEMENTARY_CHARGE == pytest.approx(scipy.constants.e, rel=1e-9,
                                              abs=0.0)
