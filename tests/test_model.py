"""Unit conversions, pulse/scatterer containers, information-matrix checks."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import constants
from scipy.integrate import quad

from dipolebounds.model import (
    C_SI,
    EPS0_SI,
    HBAR_SI,
    PARAM_NAMES,
    InfoMatrix,
    PhysicsError,
    Pulse,
    Scatterer,
    UnitSystem,
)

wavelengths = st.floats(min_value=1e-7, max_value=1e-5)
magnitudes = st.floats(min_value=1e-12, max_value=1e12)


class TestConstants:
    def test_codata_2022_literals(self):
        # pinned, so results do not depend on the CODATA edition of scipy
        assert C_SI == 299792458.0
        assert EPS0_SI == 8.8541878188e-12
        assert HBAR_SI == 1.0545718176461565e-34

    def test_agree_with_scipy(self):
        assert C_SI == pytest.approx(constants.c, rel=1e-9)
        assert EPS0_SI == pytest.approx(constants.epsilon_0, rel=1e-9)
        assert HBAR_SI == pytest.approx(constants.hbar, rel=1e-9)


class TestUnitSystem:
    def test_carrier_wavenumber_is_one(self):
        u = UnitSystem.from_wavelength_nm(1030.0)
        assert u.length_to_internal(1030e-9) == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_rejects_nonpositive_wavelength(self):
        with pytest.raises(ValueError):
            UnitSystem(0.0)
        with pytest.raises(ValueError):
            UnitSystem(-1e-6)

    @given(wavelengths, magnitudes)
    def test_length_round_trip(self, wl, x):
        u = UnitSystem(wl)
        assert u.length_from_internal(u.length_to_internal(x)) == pytest.approx(x, rel=1e-12)

    @given(wavelengths, magnitudes)
    def test_time_round_trip(self, wl, t):
        u = UnitSystem(wl)
        assert u.time_from_internal(u.time_to_internal(t)) == pytest.approx(t, rel=1e-12)

    @given(wavelengths, magnitudes)
    def test_polarizability_round_trip(self, wl, v):
        u = UnitSystem(wl)
        assert u.polarizability_from_internal(
            u.polarizability_to_internal(v)) == pytest.approx(v, rel=1e-12)

    @given(wavelengths, magnitudes)
    def test_fluence_round_trip(self, wl, phi):
        u = UnitSystem(wl)
        assert u.fluence_from_internal(u.fluence_to_internal(phi)) == pytest.approx(phi, rel=1e-12)

    @given(wavelengths, magnitudes)
    def test_field_round_trip(self, wl, e):
        u = UnitSystem(wl)
        assert u.field_from_internal(u.field_to_internal(e)) == pytest.approx(e, rel=1e-12)

    @given(wavelengths, magnitudes)
    def test_area_round_trip(self, wl, a):
        u = UnitSystem(wl)
        assert u.area_from_internal(u.area_to_internal(a)) == pytest.approx(a, rel=1e-12)

    def test_frequency_matches_wavenumber(self):
        # omega = c k in SI maps to omega = k internally
        u = UnitSystem.from_wavelength_nm(532.0)
        omega_si = 2.0 * math.pi * 299792458.0 / 532e-9
        assert u.frequency_to_internal(omega_si) == pytest.approx(1.0, rel=1e-9)

    def test_known_values_at_1030nm(self):
        u = UnitSystem.from_wavelength_nm(1030.0)
        assert u.polarizability_to_internal(13e-27) == pytest.approx(
            2.9510140911235653e-06, rel=1e-12)
        assert u.time_to_internal(24e-15) == pytest.approx(
            43.890910306225706, rel=1e-12)


class TestPulse:
    def test_envelope_normalization(self, pulse_200):
        # integral of the squared envelope over all time equals tau exactly
        total, _ = quad(lambda t: pulse_200.envelope(t) ** 2, -np.inf, np.inf)
        assert total == pytest.approx(pulse_200.tau, rel=1e-10)

    def test_envelope_shape(self, pulse_200):
        assert pulse_200.envelope(0.0) == 1.0
        assert pulse_200.envelope(pulse_200.tau) == pytest.approx(
            math.exp(-math.pi / 2.0), rel=1e-12)
        assert pulse_200.envelope(-pulse_200.tau) == pulse_200.envelope(pulse_200.tau)

    def test_peak_field_inverts_fluence(self):
        p = Pulse(phi=3.7, tau=55.0)
        assert p.e_in ** 2 * p.tau / 2.0 == pytest.approx(p.phi, rel=1e-14)

    @pytest.mark.parametrize("bad", [dict(phi=0.0, tau=1.0),
                                     dict(phi=-1.0, tau=1.0),
                                     dict(phi=1.0, tau=0.0),
                                     dict(phi=1.0, tau=-2.0)])
    def test_rejects_nonpositive_parameters(self, bad):
        with pytest.raises(ValueError):
            Pulse(**bad)

    def test_warns_on_broadband_pulse(self):
        with pytest.warns(UserWarning, match="bandwidth"):
            Pulse(phi=1.0, tau=6.0)


class TestScatterer:
    def test_static_response(self, scat_532):
        assert scat_532.chi(0.0) == scat_532.chi0

    def test_response_grows_toward_resonance(self):
        s = Scatterer(chi0=1.0, omega0=10.0)
        # chi(omega0/sqrt(2)) = 2 chi0 for this single-pole profile
        assert s.chi(10.0 / math.sqrt(2.0)) == pytest.approx(2.0, rel=1e-12)
        assert s.chi(20.0) < 0  # above resonance the response flips sign

    def test_cross_section_quartic_in_k(self):
        s = Scatterer(chi0=0.5)
        assert s.cross_section() == pytest.approx(
            2.0 * 0.25 / (3.0 * math.pi), rel=1e-14)
        # Rayleigh scaling in SI: at a fixed polarizability volume, halving
        # the drive wavelength multiplies the cross section by 2^4
        si = []
        for nm in (1030.0, 515.0):
            u = UnitSystem.from_wavelength_nm(nm)
            chi0 = u.polarizability_to_internal(13e-27)
            si.append(u.area_from_internal(Scatterer(chi0=chi0).cross_section()))
        assert si[1] == pytest.approx(16.0 * si[0], rel=1e-12)

    def test_off_resonance_guard(self):
        Scatterer(chi0=1.0, omega0=10.0).check_off_resonance()  # fine
        with pytest.raises(PhysicsError):
            Scatterer(chi0=1.0, omega0=1.5).check_off_resonance()

    @pytest.mark.parametrize("bad", [dict(chi0=0.0), dict(chi0=-1.0),
                                     dict(chi0=1.0, a0=-0.1),
                                     dict(chi0=1.0, omega0=0.0),
                                     dict(chi0=1.0, r0=(0.0, 0.0))])
    def test_rejects_invalid_parameters(self, bad):
        with pytest.raises(ValueError):
            Scatterer(**bad)


class TestInfoMatrix:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            InfoMatrix(np.eye(3))

    def test_rejects_asymmetric(self):
        m = np.eye(4)
        m[0, 1] = 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            InfoMatrix(m)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            InfoMatrix(np.diag([1.0, 1.0, 1.0, -1e-3]))

    def test_errors_invert_a_coupled_block(self):
        m = np.eye(4)
        m[0, 0] = m[1, 1] = 2.0
        m[0, 1] = m[1, 0] = 1.0
        errs = InfoMatrix(m).errors()
        # [[2,1],[1,2]]^-1 has diagonal 2/3
        assert errs[0] == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-14)
        assert errs[1] == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-14)
        assert errs[2] == errs[3] == 1.0

    def test_names_follow_canonical_order(self):
        assert InfoMatrix(np.eye(4)).names == PARAM_NAMES == ("chi0", "x0", "y0", "z0")

