"""Closed-form electromagnetic fields of a driven dipole scatterer.

All quantities are phasors in internal units (``hbar = c = eps0 = 1`` and
drive wavenumber 1, fixed by :class:`~dipolebounds.model.UnitSystem`):
physical fields are ``Re[E * exp(-i t)]`` times the slow pulse envelope, and
the functions here return the ``t = 0`` phasors, since the global phase
``exp(-i t)`` cancels in every flux.  The incident wave travels along ``+z``
and is polarized along ``x``.  Scattered fields come in two flavours: the
ideal point-dipole solution, and a regularized solution for a source of
finite radius ``a0`` that smoothly reduces to the point form as ``a0 -> 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PhysicsError, Scatterer

__all__ = [
    "FieldSet",
    "incident_field",
    "scattered_point",
    "scattered_regularized",
    "poynting_avg",
    "intensity_parts",
]

#: below this many wavelengths from the source the point solution is refused
_MIN_RHO_WAVELENGTHS = 1e-6


@dataclass(frozen=True, eq=False)
class FieldSet:
    """Complex E/B phasors sampled at a set of points."""

    e: np.ndarray
    b: np.ndarray

    def __add__(self, other: "FieldSet") -> "FieldSet":
        return FieldSet(self.e + other.e, self.b + other.b)


def _geometry(points: np.ndarray, r0) -> tuple[np.ndarray, np.ndarray]:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != 3:
        raise ValueError("points must have shape (..., 3)")
    rho_vec = pts - np.asarray(r0, dtype=float)
    rho = np.linalg.norm(rho_vec, axis=-1)
    return rho_vec, rho


def incident_field(points: np.ndarray, e_in: float = 1.0) -> FieldSet:
    """Plane wave ``E = e_in * ex * exp(i z)`` with ``B = ez x E``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    phase = np.exp(1j * pts[..., 2])
    e = np.zeros(pts.shape, dtype=complex)
    b = np.zeros(pts.shape, dtype=complex)
    e[..., 0] = e_in * phase
    b[..., 1] = e_in * phase
    return FieldSet(e, b)


def _transverse_terms(rho_vec: np.ndarray, rho: np.ndarray):
    """Angular factors of dipole radiation for x-polarized driving.

    Returns ``t1 = ex - e_rho (e_rho . ex)`` (transverse projection of the
    polarization), ``t2 = ex - 3 e_rho (e_rho . ex)`` (static-dipole pattern)
    and ``e_rho x ex``.
    """
    e_rho = rho_vec / rho[..., None]
    cos_x = e_rho[..., 0]
    ex = np.zeros(rho_vec.shape)
    ex[..., 0] = 1.0
    t1 = ex - e_rho * cos_x[..., None]
    t2 = ex - 3.0 * e_rho * cos_x[..., None]
    cross = np.zeros(rho_vec.shape)         # e_rho x ex = (0, e_z, -e_y)
    cross[..., 1] = e_rho[..., 2]
    cross[..., 2] = -e_rho[..., 1]
    return t1, t2, cross


def scattered_point(points: np.ndarray, scatterer: Scatterer,
                    e_in: float = 1.0) -> FieldSet:
    """Field radiated by an ideal driven point dipole at ``scatterer.r0``.

    With ``rho`` the distance from the dipole::

        E = (chi0 e_in / 2 pi) e^{i (rho + z0)}
            [ t1 / rho + (i rho - 1) t2 / rho^3 ]
        B = (i chi0 e_in / 2 pi) e^{i (rho + z0)}
            (e_rho x ex) (1 - i rho) / rho^2

    Points closer than ``1e-6`` wavelengths to the dipole are rejected.
    """
    rho_vec, rho = _geometry(points, scatterer.r0)
    if np.any(rho < _MIN_RHO_WAVELENGTHS * (2.0 * math.pi)):
        raise PhysicsError(
            "field requested closer than 1e-6 wavelengths to the point dipole; "
            "use the regularized model to approach the source"
        )
    t1, t2, cross = _transverse_terms(rho_vec, rho)
    pref = (scatterer.chi0 * e_in / (2.0 * math.pi)
            * np.exp(1j * (rho + scatterer.r0[2])))
    e = pref[..., None] * (t1 / rho[..., None]
                           + (1j * rho - 1.0)[..., None] * t2 / rho[..., None] ** 3)
    b = (1j * pref * (1.0 - 1j * rho) / rho**2)[..., None] * cross
    return FieldSet(e, b)


def regularizer(k, a0: float):
    """Spectral weight of the exponential source profile,
    ``[1 + (a0 k / 2)^2]^-2`` (1 for a0 = 0)."""
    return 1.0 / np.square(1.0 + np.square(np.asarray(k, dtype=float) * (a0 / 2.0)))


def _envelope_brackets(rho: np.ndarray, a0: float):
    """Radial envelope functions of the finite-size source solution.

    Each tends to the appropriate outgoing-wave factor as ``a0 -> 0``:
    ``e1, e2 -> exp(i rho)`` and ``e3 -> -exp(i rho)``.
    """
    x = np.exp(-2.0 * rho / a0)
    osc = np.exp(1j * rho)
    e1 = (4.0 * rho / (a0 * a0**2) + (rho - a0) / a0) * x + osc
    e2 = 1j * ((a0 - 2.0 * rho) / 4.0 - (a0 + 2.0 * rho) / a0**2) * x + osc
    e3 = (rho / a0 + 1.0 + a0**2 * rho / (4.0 * a0)) * x - osc
    return e1, e2, e3


def _magnetic_bracket(rho: np.ndarray, a0: float):
    """Radial profile of the finite-size magnetic field, ``curl E / i``.

    The screened terms cancel the ``1/rho^2`` and ``1/rho`` singularities of
    the oscillating part exactly, leaving a field that is finite at the
    source center; as ``a0 -> 0`` the profile reduces to the point form
    ``i (1 - i rho) exp(i rho) / rho^2``.
    """
    x = np.exp(-2.0 * rho / a0)
    osc = np.exp(1j * rho) * (rho + 1j) / rho**2
    core = 1j * x * (-1.0 / rho**2 - 2.0 / (a0 * rho) + 2.0 / a0**2 + 8.0 / a0**4)
    return osc + core


def scattered_regularized(points: np.ndarray, scatterer: Scatterer,
                          e_in: float = 1.0) -> FieldSet:
    """Field of a driven source with exponential charge profile of radius a0.

    Reduces exactly to :func:`scattered_point` in the ``a0 -> 0`` limit and
    stays finite down to ``rho = 0``; for ``a0 = 0`` it returns the point
    field itself.
    """
    if scatterer.a0 <= 0:
        return scattered_point(points, scatterer, e_in=e_in)
    rho_vec, rho = _geometry(points, scatterer.r0)
    if np.any(rho == 0.0):
        raise PhysicsError("field requested exactly at the source center")
    t1, t2, cross = _transverse_terms(rho_vec, rho)
    e1, e2, e3 = _envelope_brackets(rho, scatterer.a0)
    xi = regularizer(1.0, scatterer.a0)
    pref = (scatterer.chi0 * e_in * xi / (2.0 * math.pi)
            * np.exp(1j * scatterer.r0[2]))
    e = pref * (e1[..., None] * t1 / rho[..., None]
                + (1j * rho * e2 + e3)[..., None] * t2 / rho[..., None] ** 3)
    b = pref * _magnetic_bracket(rho, scatterer.a0)[..., None] * cross
    return FieldSet(e, b)


# ---------------------------------------------------------------------------
# energy flux
# ---------------------------------------------------------------------------

def poynting_avg(fields: FieldSet) -> np.ndarray:
    """Cycle-averaged Poynting vector ``Re(E x B*) / 2`` (internal units)."""
    return 0.5 * np.real(np.cross(fields.e, np.conj(fields.b)))


def _flux_z(e: np.ndarray, b_conj: np.ndarray) -> np.ndarray:
    """z component of ``E x B*`` (``b_conj`` is already conjugated)."""
    return e[..., 0] * b_conj[..., 1] - e[..., 1] * b_conj[..., 0]


def intensity_parts(incident: FieldSet,
                    scattered: FieldSet) -> dict[str, np.ndarray]:
    """z energy flux ``Re(E x B*)_z / 2`` split into incident, interference
    and scattered parts.

    Only the z row of the cross products is formed, with the same arithmetic
    as :func:`poynting_avg`.  The cross ("extinction") term is linear in the
    scattering amplitude and the scattered term quadratic, which is what
    makes the split useful for analytic parameter derivatives.
    """
    b_in = np.conj(incident.b)
    b_sc = np.conj(scattered.b)
    cross = _flux_z(incident.e, b_sc) + _flux_z(scattered.e, b_in)
    return {
        "incident": 0.5 * np.real(_flux_z(incident.e, b_in)),
        "cross": 0.5 * np.real(cross),
        "scattered": 0.5 * np.real(_flux_z(scattered.e, b_sc)),
    }
