import math
from types import SimpleNamespace

import numpy as np
import pytest

from dipolebounds import cli, qfi
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
def paper_scan():
    """The paper's scans as the command line states them at its defaults:
    the arguments of the two axis builders and the keyword arguments that
    ``crb-scan`` and ``size-scan`` give their sweeps besides the physics
    (``finite_a0`` at the default 1030 nm drive)."""
    cfg = cli.resolve_config(None, None, None)
    run, det = cfg["run"], cfg["detector"]
    units = UnitSystem.from_wavelength_nm(cfg["pulse"]["lambda_nm"])
    return SimpleNamespace(
        distance_axis=(run["z_min_over_lambda"], run["z_max_over_lambda"],
                       run["points_per_decade"]),
        time_axis=(run["samples_per_period"],
                   (run["t_min_over_tau"], run["t_max_over_tau"])),
        crb=dict(solid_angle=det["solid_angle_over_pi"] * math.pi,
                 finite_a0=units.length_to_internal(run["finite_a0_nm"] * 1e-9),
                 refinement=det["refinement"]),
        size=dict(a0_over_lambda=np.geomspace(run["a0_min_over_lambda"],
                                              run["a0_max_over_lambda"],
                                              run["sizes"]),
                  gauges=qfi.GAUGES, peak_samples=run["peak_samples"],
                  grid=cli.build_grid(cfg)),
    )


@pytest.fixture(scope="session")
def battery():
    # shared across files: the self-check battery is not free
    from dipolebounds.oracles import validate_suite

    return validate_suite()
