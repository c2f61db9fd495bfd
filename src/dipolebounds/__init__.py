"""Estimation bounds for light scattered by a small polarizable dipole.

The package computes, for a single sub-wavelength scatterer driven by a
pulsed plane wave, how precisely its polarizability and position can be
read out of the scattered light:

* classical Cramer-Rao bounds for photon counting on finite detectors
  (:mod:`~dipolebounds.fisher`, :mod:`~dipolebounds.detector`),
* quantum Fisher information of the full scattered field, both during the
  transient and in closed form long after the pulse (:mod:`~dipolebounds.qfi`),
* the scattered fields themselves, for a point dipole and for a finite-size
  exponential source profile (:mod:`~dipolebounds.fields`).

All calculations use natural units with the drive wavenumber equal to one;
:class:`~dipolebounds.model.UnitSystem` converts to and from SI.
"""

from .detector import PixelGrid, planar_grid, refine
from .fields import (
    FieldSet,
    incident_field,
    poynting_avg,
    scattered_point,
    scattered_regularized,
)
from .fisher import CrbResult, crb_bounds, fi_matrix, mean_counts, n_scattered
from .model import (
    PARAM_NAMES,
    InfoMatrix,
    PhysicsError,
    Pulse,
    Scatterer,
    UnitSystem,
)
from .qfi import (
    SpectralPulse,
    farfield_qcrb_constants,
    farfield_qfi,
    mode_integral_field,
    nsc_series,
    qfi_matrix,
)
from .quadrature import SinhGrid, pv_integral, pv_matrix
from .scenarios import (
    CheckResult,
    SweepResult,
    crb_distance_sweep,
    qfi_time_sweep,
    size_scaling_sweep,
    validate_suite,
)

__version__ = "0.1.0"

__all__ = [
    "PARAM_NAMES",
    "CheckResult",
    "CrbResult",
    "FieldSet",
    "InfoMatrix",
    "PhysicsError",
    "PixelGrid",
    "Pulse",
    "Scatterer",
    "SinhGrid",
    "SpectralPulse",
    "SweepResult",
    "UnitSystem",
    "crb_bounds",
    "crb_distance_sweep",
    "farfield_qcrb_constants",
    "farfield_qfi",
    "fi_matrix",
    "incident_field",
    "mean_counts",
    "mode_integral_field",
    "n_scattered",
    "nsc_series",
    "planar_grid",
    "poynting_avg",
    "pv_integral",
    "pv_matrix",
    "qfi_matrix",
    "qfi_time_sweep",
    "refine",
    "scattered_point",
    "scattered_regularized",
    "size_scaling_sweep",
    "validate_suite",
]
