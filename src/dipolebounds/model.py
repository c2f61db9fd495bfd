"""Core value types: unit conversion, scatterer and pulse descriptions.

Everything downstream of this module works in scaled natural units with

    hbar = c = eps0 = mu0 = 1  and  drive wavenumber = 1,

i.e. lengths are measured in units of the reduced drive wavelength
``lambda / (2 pi)``: the drive wavelength is ``2 pi`` and the carrier photon
energy is 1.  :class:`UnitSystem` is the only place where that unit is
fixed, so no function downstream takes a wavenumber or wavelength argument.
It is also the single place where SI values enter or leave; the rest of the
library never sees metres or joules.  The SI constants are CODATA 2022.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

C_SI = 299792458.0                   # speed of light, m/s (exact)
EPS0_SI = 8.8541878188e-12           # vacuum permittivity, F/m
HBAR_SI = 1.0545718176461565e-34     # h / 2 pi with h exact, J s

#: Canonical parameter ordering used by every 4x4 information matrix.
PARAM_NAMES = ("chi0", "x0", "y0", "z0")


class PhysicsError(ValueError):
    """Raised when inputs are outside the model's regime of validity."""


# ---------------------------------------------------------------------------
# unit system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitSystem:
    """Conversions between SI and the internal natural-unit system.

    The internal system sets ``hbar = c = eps0 = 1`` and additionally scales
    lengths so that the incident wavenumber is exactly 1.  Conversion factors
    therefore depend only on the drive wavelength.

    Parameters
    ----------
    wavelength_m : float
        Incident (carrier) wavelength in metres.
    """

    wavelength_m: float

    def __post_init__(self) -> None:
        if not self.wavelength_m > 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength_m}")

    @classmethod
    def from_wavelength_nm(cls, wavelength_nm: float) -> "UnitSystem":
        return cls(wavelength_nm * 1e-9)

    @property
    def k_si(self) -> float:
        """Incident wavenumber in 1/m."""
        return 2.0 * math.pi / self.wavelength_m

    # -- lengths / times -----------------------------------------------------

    def length_to_internal(self, metres):
        return np.asarray(metres) * self.k_si if np.ndim(metres) else metres * self.k_si

    def length_from_internal(self, x):
        return x / self.k_si

    def time_to_internal(self, seconds):
        return seconds * C_SI * self.k_si

    def time_from_internal(self, t):
        return t / (C_SI * self.k_si)

    # -- spectral ------------------------------------------------------------

    def frequency_to_internal(self, rad_per_s):
        """Angular frequency (rad/s) to internal units (where omega = k)."""
        return rad_per_s / (C_SI * self.k_si)

    # -- matter / light ------------------------------------------------------

    def polarizability_to_internal(self, m3):
        """Polarizability volume (m^3) to internal units."""
        return m3 * self.k_si**3

    def polarizability_from_internal(self, chi):
        return chi / self.k_si**3

    def fluence_to_internal(self, per_m2):
        """Photon fluence (photons / m^2) to internal units."""
        return per_m2 / self.k_si**2

    def fluence_from_internal(self, phi):
        return phi * self.k_si**2

    def field_to_internal(self, v_per_m):
        """Electric field amplitude (V/m) to internal units.

        Internal fields are scaled so the free-field energy density is
        ``|E|^2 / 2`` with photon energies ``omega = k``; the SI amplitude
        maps as ``E * sqrt(eps0 / (hbar c^3)) / k^2``.
        """
        return v_per_m * math.sqrt(EPS0_SI / (HBAR_SI * C_SI**3)) / self.k_si**2

    def field_from_internal(self, e):
        return e * self.k_si**2 / math.sqrt(EPS0_SI / (HBAR_SI * C_SI**3))

    def area_from_internal(self, a):
        """Internal area (e.g. a cross section) to m^2."""
        return a / self.k_si**2

    def area_to_internal(self, m2):
        return m2 * self.k_si**2


# ---------------------------------------------------------------------------
# physical configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scatterer:
    """A polarizable point (or small-sphere) scatterer.

    Parameters
    ----------
    chi0 : float
        Static polarizability volume, internal units.  Must be positive.
    a0 : float, optional
        Charge-distribution radius of the regularized model, internal units.
        ``a0 = 0`` selects the ideal point limit.
    omega0 : float
        Internal resonance frequency of the linear response
        ``chi(omega) = chi0 * omega0**2 / (omega0**2 - omega**2)``.
        The drive must sit well below resonance.
    r0 : tuple of float
        Scatterer position, internal units.
    """

    chi0: float
    a0: float = 0.0
    omega0: float = 10.0
    r0: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if not self.chi0 > 0:
            raise ValueError(f"chi0 must be positive, got {self.chi0}")
        if self.a0 < 0:
            raise ValueError(f"a0 must be non-negative, got {self.a0}")
        if not self.omega0 > 0:
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        r0 = tuple(float(x) for x in self.r0)
        if len(r0) != 3:
            raise ValueError("r0 must be a 3-vector")
        object.__setattr__(self, "r0", r0)

    @property
    def d0_sq(self) -> float:
        """Squared dipole-coupling strength, ``omega0 * chi0`` in internal units."""
        return self.omega0 * self.chi0

    def chi(self, omega) -> np.ndarray | float:
        """Linear response at angular frequency ``omega`` (internal units)."""
        w2 = np.square(omega)
        return self.chi0 * self.omega0**2 / (self.omega0**2 - w2)

    def cross_section(self) -> float:
        """Total scattering cross section ``2 chi0^2 / (3 pi)`` (internal)."""
        return 2.0 * self.chi0**2 / (3.0 * math.pi)

    def check_off_resonance(self, margin: float = 2.0) -> None:
        """Require the drive (frequency 1) to sit below resonance by ``margin``."""
        if self.omega0 <= margin:
            raise PhysicsError(
                f"resonance omega0={self.omega0:g} must exceed {margin:g} x drive "
                "frequency 1; the linear-response treatment assumes an "
                "off-resonant drive"
            )


@dataclass(frozen=True)
class Pulse:
    """A transform-limited Gaussian pulse.

    The envelope is ``exp(-pi t^2 / (2 tau^2))``, normalized so the
    integrated squared envelope equals ``tau`` exactly; ``phi`` is the photon
    fluence carried through a unit area at the waist.

    Parameters
    ----------
    phi : float
        Photon fluence, internal units (photons per squared internal length).
    tau : float
        Duration parameter, internal units.  ``tau >> 1`` (many carrier
        cycles) is the quasi-monochromatic regime most results assume.
    """

    phi: float
    tau: float

    def __post_init__(self) -> None:
        if not self.phi > 0:
            raise ValueError(f"phi must be positive, got {self.phi}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.tau < 10.0:
            warnings.warn(
                f"pulse bandwidth is large (tau = {self.tau:.3g} "
                "< 10); narrow-band approximations may be inaccurate",
                stacklevel=2,
            )

    @property
    def e_in(self) -> float:
        """Peak field amplitude: ``phi = E^2 tau / 2`` inverted."""
        return math.sqrt(2.0 * self.phi / self.tau)

    def envelope(self, t):
        """Temporal envelope ``exp(-pi t^2 / (2 tau^2))``."""
        return np.exp(-math.pi * np.square(t) / (2.0 * self.tau**2))


# ---------------------------------------------------------------------------
# estimation-theory containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class InfoMatrix:
    """A 4x4 Fisher-information matrix in canonical parameter order.

    Validates symmetry and (approximate) positive semidefiniteness on
    construction.  Use :meth:`errors` for the square-root CRB diagonal.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"information matrix must be 4x4, got {m.shape}")
        scale = np.abs(m).max()
        if scale > 0 and np.abs(m - m.T).max() > 1e-12 * scale:
            raise ValueError("information matrix is not symmetric")
        m = 0.5 * (m + m.T)
        eigs = np.linalg.eigvalsh(m)
        if eigs[0] < -1e-10 * max(eigs[-1], 0.0):
            raise ValueError(
                f"information matrix has a significantly negative eigenvalue "
                f"({eigs[0]:.3e} vs max {eigs[-1]:.3e})"
            )
        object.__setattr__(self, "matrix", m)

    names = PARAM_NAMES

    @property
    def condition_number(self) -> float:
        return float(np.linalg.cond(self.matrix))

    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.matrix)

    def errors(self) -> np.ndarray:
        """Cramer-Rao standard deviations: sqrt of the diagonal of the inverse."""
        inv_diag = np.diag(self.inverse())
        if np.any(inv_diag < 0):
            raise ValueError("inverse information matrix has negative diagonal")
        return np.sqrt(inv_diag)
