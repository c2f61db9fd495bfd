import math

import pytest

from dipolebounds.model import Pulse, Scatterer, UnitSystem
from dipolebounds.qfi import SpectralPulse

# Two working points shared across the suite, both with a 13 nm^3
# polarizability volume: a point scatterer driven at 1.03 um (detector /
# classical-bound tests) and a finite-size scatterer (radius lambda/30)
# driven at 532 nm (field and quantum-bound tests).  Everything below is in
# internal units where the drive wavenumber is 1.


@pytest.fixture(scope="session")
def units_1030():
    return UnitSystem.from_wavelength_nm(1030.0)


@pytest.fixture(scope="session")
def scat_1030(units_1030):
    return Scatterer(chi0=units_1030.polarizability_to_internal(13e-27),
                     omega0=10.3)


@pytest.fixture(scope="session")
def pulse_1030(units_1030, scat_1030):
    # 24 fs pulse, fluence tuned so the mean scattered photon number is 1
    tau = units_1030.time_to_internal(24e-15)
    return Pulse(phi=1.0 / scat_1030.cross_section(), tau=tau)


@pytest.fixture(scope="session")
def scat_532():
    units = UnitSystem.from_wavelength_nm(532.0)
    return Scatterer(chi0=units.polarizability_to_internal(13e-27),
                     a0=2.0 * math.pi / 30.0, omega0=5.32)


@pytest.fixture(scope="session")
def pulse_200():
    return Pulse(phi=1.0, tau=200.0)


@pytest.fixture(scope="session")
def spectral_200(pulse_200):
    return SpectralPulse.from_pulse(pulse_200)


@pytest.fixture(scope="session")
def battery():
    # shared across files: the self-check battery is not free
    from dipolebounds.oracles import validate_suite

    return validate_suite()
