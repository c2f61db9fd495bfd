"""Closed-form electromagnetic fields of a driven dipole scatterer.

All quantities are phasors in internal units (``hbar = c = eps0 = 1``,
drive wavenumber ``k = 1`` by convention): physical fields are
``Re[E * exp(-i c k t)]`` times the slow pulse envelope.  The incident wave
travels along ``+z`` and is polarized along ``x``.  Scattered fields come in
two flavours: the ideal point-dipole solution, and a regularized solution for
a source of finite radius ``a0`` that smoothly reduces to the point form as
``a0 -> 0``.
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
    """Complex E/B phasors sampled at a set of points.

    ``core`` flags points inside the regularized source region (``rho < 3 a0``)
    where the closed forms are used outside their best-controlled regime; it is
    ``None`` for field models without a core scale.
    """

    e: np.ndarray
    b: np.ndarray
    core: np.ndarray | None = None

    def __add__(self, other: "FieldSet") -> "FieldSet":
        core = self.core if self.core is not None else other.core
        return FieldSet(self.e + other.e, self.b + other.b, core)


def _geometry(points: np.ndarray, r0) -> tuple[np.ndarray, np.ndarray]:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != 3:
        raise ValueError("points must have shape (..., 3)")
    rho_vec = pts - np.asarray(r0, dtype=float)
    rho = np.linalg.norm(rho_vec, axis=-1)
    return rho_vec, rho


def incident_field(points: np.ndarray, k: float = 1.0, e_in: float = 1.0,
                   t: float = 0.0) -> FieldSet:
    """Plane wave ``E = e_in * ex * exp(i k (z - t))`` with ``B = ez x E``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    phase = np.exp(1j * k * (pts[..., 2] - t))
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
    cross = np.cross(e_rho, ex)
    return t1, t2, cross


def scattered_point(points: np.ndarray, scatterer: Scatterer, k: float = 1.0,
                    e_in: float = 1.0, t: float = 0.0) -> FieldSet:
    """Field radiated by an ideal driven point dipole at ``scatterer.r0``.

    With ``rho`` the distance from the dipole and ``kr = k * rho``::

        E = (k^3 chi0 e_in / 2 pi) e^{i k (rho + z0 - t)}
            [ t1 / kr + (i kr - 1) t2 / kr^3 ]
        B = (i k^3 chi0 e_in / 2 pi) e^{i k (rho + z0 - t)}
            (e_rho x ex) (1 - i kr) / kr^2

    Points closer than ``1e-6`` wavelengths to the dipole are rejected.
    """
    rho_vec, rho = _geometry(points, scatterer.r0)
    lam = 2.0 * math.pi / k
    if np.any(rho < _MIN_RHO_WAVELENGTHS * lam):
        raise PhysicsError(
            "field requested closer than 1e-6 wavelengths to the point dipole; "
            "use the regularized model to approach the source"
        )
    t1, t2, cross = _transverse_terms(rho_vec, rho)
    kr = k * rho
    pref = (k**3 * scatterer.chi0 * e_in / (2.0 * math.pi)
            * np.exp(1j * (k * (rho + scatterer.r0[2]) - k * t)))
    e = pref[..., None] * (t1 / kr[..., None]
                           + (1j * kr - 1.0)[..., None] * t2 / kr[..., None] ** 3)
    b = (1j * pref * (1.0 - 1j * kr) / kr**2)[..., None] * cross
    return FieldSet(e, b)


def regularizer(k, a0: float):
    """Spectral weight of the exponential source profile,
    ``[1 + (a0 k / 2)^2]^-2`` (1 for a0 = 0)."""
    return 1.0 / np.square(1.0 + np.square(np.asarray(k, dtype=float) * (a0 / 2.0)))


def _envelope_brackets(rho: np.ndarray, k: float, a0: float):
    """Radial envelope functions of the finite-size source solution.

    Each tends to the appropriate outgoing-wave factor as ``a0 -> 0``:
    ``e1, e2 -> exp(i k rho)`` and ``e3 -> -exp(i k rho)``.
    """
    x = np.exp(-2.0 * rho / a0)
    osc = np.exp(1j * k * rho)
    ka = a0 * k
    e1 = (4.0 * rho / (a0 * ka**2) + (rho - a0) / a0) * x + osc
    e2 = 1j * (k * (a0 - 2.0 * rho) / 4.0 - (a0 + 2.0 * rho) / (a0**2 * k)) * x + osc
    e3 = (rho / a0 + 1.0 + ka**2 * rho / (4.0 * a0)) * x - osc
    return e1, e2, e3


def _magnetic_bracket(rho: np.ndarray, k: float, a0: float):
    """Radial profile of the finite-size magnetic field, ``curl E / (i k)``.

    The screened terms cancel the ``1/(k rho)^2`` and ``1/(k rho)``
    singularities of the oscillating part exactly, leaving a field that is
    finite at the source center; as ``a0 -> 0`` the profile reduces to the
    point form ``i (1 - i k rho) exp(i k rho) / (k rho)^2``.
    """
    x = np.exp(-2.0 * rho / a0)
    kr = k * rho
    ka = a0 * k
    osc = np.exp(1j * kr) * (kr + 1j) / kr**2
    core = 1j * x * (-1.0 / kr**2 - 2.0 / (ka * kr) + 2.0 / ka**2 + 8.0 / ka**4)
    return osc + core


def scattered_regularized(points: np.ndarray, scatterer: Scatterer,
                          k: float = 1.0, e_in: float = 1.0,
                          t: float = 0.0) -> FieldSet:
    """Field of a driven source with exponential charge profile of radius a0.

    Reduces exactly to :func:`scattered_point` in the ``a0 -> 0`` limit and
    stays finite down to ``rho = 0``.  The returned ``core`` mask flags points
    with ``rho < 3 a0``, where results probe the interior of the source
    distribution.
    """
    if scatterer.a0 <= 0:
        out = scattered_point(points, scatterer, k=k, e_in=e_in, t=t)
        return FieldSet(out.e, out.b, np.zeros(out.e.shape[:-1], dtype=bool))
    rho_vec, rho = _geometry(points, scatterer.r0)
    if np.any(rho == 0.0):
        raise PhysicsError("field requested exactly at the source center")
    t1, t2, cross = _transverse_terms(rho_vec, rho)
    kr = k * rho
    e1, e2, e3 = _envelope_brackets(rho, k, scatterer.a0)
    xi = regularizer(k, scatterer.a0)
    pref = (k**3 * scatterer.chi0 * e_in * xi / (2.0 * math.pi)
            * np.exp(1j * k * (scatterer.r0[2] - t)))
    e = pref * (e1[..., None] * t1 / kr[..., None]
                + (1j * kr * e2 + e3)[..., None] * t2 / kr[..., None] ** 3)
    b = pref * _magnetic_bracket(rho, k, scatterer.a0)[..., None] * cross
    return FieldSet(e, b, rho < 3.0 * scatterer.a0)


# ---------------------------------------------------------------------------
# energy flux
# ---------------------------------------------------------------------------

def poynting_avg(fields: FieldSet) -> np.ndarray:
    """Cycle-averaged Poynting vector ``Re(E x B*) / 2`` (internal units)."""
    return 0.5 * np.real(np.cross(fields.e, np.conj(fields.b)))


def intensity_parts(incident: FieldSet, scattered: FieldSet,
                    normals: np.ndarray) -> dict[str, np.ndarray]:
    """Normal energy flux split into incident, interference and scattered parts.

    The cross ("extinction") term is linear in the scattering amplitude and
    the scattered term quadratic, which is what makes the split useful for
    analytic parameter derivatives.
    """
    normals = np.asarray(normals, dtype=float)
    s_in = poynting_avg(incident)
    s_sc = poynting_avg(scattered)
    cross = 0.5 * np.real(np.cross(incident.e, np.conj(scattered.b))
                          + np.cross(scattered.e, np.conj(incident.b)))
    return {
        "incident": np.sum(s_in * normals, axis=-1),
        "cross": np.sum(cross * normals, axis=-1),
        "scattered": np.sum(s_sc * normals, axis=-1),
    }
