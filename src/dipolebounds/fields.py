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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import PhysicsError, Scatterer

__all__ = [
    "FieldSet",
    "incident_field",
    "scattered_point",
    "scattered_regularized",
    "FluxFrame",
    "source_frame",
    "placement_flux",
    "z_flux_parts",
    "poynting_avg",
    "intensity_parts",
]

#: below this many wavelengths from the source the point solution is refused
_MIN_RHO_WAVELENGTHS = 1e-6

#: z_flux_parts drops the screened terms beyond 2 rho / a0 = _SCREEN_CUTOFF
_SCREEN_CUTOFF = 80.0
_SCREEN_MIN_A0 = 1.1e-4


@dataclass(frozen=True, eq=False)
class FieldSet:
    """Complex E/B phasors sampled at a set of points."""

    e: np.ndarray
    b: np.ndarray


def _geometry(points: np.ndarray, r0) -> tuple[np.ndarray, np.ndarray]:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != 3:
        raise ValueError("points must have shape (..., 3)")
    rho_vec = pts - np.asarray(r0, dtype=float)
    x, y, z = rho_vec[..., 0], rho_vec[..., 1], rho_vec[..., 2]
    # np.linalg.norm(rho_vec, axis=-1) bit for bit, without its slow
    # reduction over a length-3 axis
    rho = np.sqrt(x * x + y * y + z * z)
    return rho_vec, rho


def _refuse_source_points(rho: np.ndarray, a0: float) -> None:
    """Reject points where the field is singular or undefined: closer than
    ``1e-6`` wavelengths to a point dipole (``a0 = 0``), or exactly at the
    center of a finite source."""
    if a0 <= 0:
        if np.any(rho < _MIN_RHO_WAVELENGTHS * (2.0 * math.pi)):
            raise PhysicsError(
                "field requested closer than 1e-6 wavelengths to the point "
                "dipole; use the regularized model to approach the source")
    elif np.any(rho == 0.0):
        raise PhysicsError("field requested exactly at the source center")


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
    _refuse_source_points(rho, 0.0)
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


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """``re + i im`` without the complex temporaries of that expression."""
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _flux_profiles(inv: np.ndarray, a0: float, osc: np.ndarray, screen):
    """Radial profiles of the scattered ``E_x`` and ``B_y`` and their
    rho-derivatives.

    ``E_x`` goes as ``f1 (1 - n_x^2) + f3 (1 - 3 n_x^2)`` and ``B_y`` as
    ``c n_z``.  Each profile is a polynomial in ``q = 1 / rho`` (``inv``)
    times the outgoing wave ``osc``, its phase ``exp(i rho)`` times any
    common factor, plus, when ``screen`` is given (a source of radius
    ``a0 > 0``), a polynomial times the screened wave ``screen``,
    ``exp(-2 rho / a0)`` times the same factor::

        f1 = osc q             + screen (4 / a0^3 + 1 / a0 - q)
        f3 = osc (i q^2 - q^3) + screen (q^3 + 2 q^2 / a0 + (1/2 + 2 / a0^2) q)
        c  = osc (q + i q^2)   + i screen (2 / a0^2 + 8 / a0^4 - 2 q / a0 - q^2)

    These are the brackets of :func:`_envelope_brackets`
    (``f1 = e1 / rho``, ``f3 = (i rho e2 + e3) / rho^3``) and of
    :func:`_magnetic_bracket`, multiplied out, so the field functions stay
    an independent route.  A wave of slope ``k w`` (``k = i`` for ``osc``,
    ``-2 / a0`` for ``screen``) times ``P(rho)`` has slope
    ``(k P + P') w``.  The caller picks the common factor, which is the
    phase reference.  Returns ``(f1, f3, c)`` and ``(f1', f3', c')``.
    """
    q2 = inv * inv
    q3 = q2 * inv
    f1 = osc * inv
    f3 = osc * _complex(-q3, q2)
    c = osc * _complex(inv, q2)
    df1 = osc * _complex(-q2, inv)
    df3 = osc * _complex(3.0 * q2 * q2 - q2, -3.0 * q3)
    dc = osc * _complex(-2.0 * q2, inv - 2.0 * q3)
    if screen is not None:
        decay = 2.0 / a0                  # screen goes as exp(-decay rho)
        g1 = (4.0 / a0**3 + 1.0 / a0) - inv
        g3 = q3 + decay * q2 + (0.5 + 2.0 / a0**2) * inv
        gc = (2.0 / a0**2 + 8.0 / a0**4) - decay * inv - q2
        dg1 = q2
        dg3 = -3.0 * q2 * q2 - 2.0 * decay * q3 - (0.5 + 2.0 / a0**2) * q2
        dgc = decay * q2 + 2.0 * q3
        iscreen = 1j * screen
        f1 = f1 + screen * g1
        f3 = f3 + screen * g3
        c = c + iscreen * gc
        df1 = df1 + screen * (dg1 - decay * g1)
        df3 = df3 + screen * (dg3 - decay * g3)
        dc = dc + iscreen * (dgc - decay * gc)
    return (f1, f3, c), (df1, df3, dc)


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
    _refuse_source_points(rho, scatterer.a0)
    t1, t2, cross = _transverse_terms(rho_vec, rho)
    e1, e2, e3 = _envelope_brackets(rho, scatterer.a0)
    xi = regularizer(1.0, scatterer.a0)
    pref = (scatterer.chi0 * e_in * xi / (2.0 * math.pi)
            * np.exp(1j * scatterer.r0[2]))
    e = pref * (e1[..., None] * t1 / rho[..., None]
                + (1j * rho * e2 + e3)[..., None] * t2 / rho[..., None] ** 3)
    b = pref * _magnetic_bracket(rho, scatterer.a0)[..., None] * cross
    return FieldSet(e, b)


class _FluxTerms(NamedTuple):
    """``E_x`` and ``B_y`` of one source on a frame and the parts of their
    gradients, at unit prefactor and phase, and the products of the z flux
    that no phase reaches."""

    ex: np.ndarray
    by: np.ndarray
    ang_ex: np.ndarray
    rad_ex: np.ndarray
    ang_by: np.ndarray
    rad_by: np.ndarray
    scattered: np.ndarray       # Re(ex conj(by))
    radial: np.ndarray          # Re(rad_ex conj(by) + ex conj(rad_by))
    ang_x: np.ndarray           # Re(ang_ex conj(by))
    ang_z: np.ndarray           # Re(ex conj(ang_by))


@dataclass(frozen=True, eq=False)
class FluxFrame:
    """Points seen from a source: the first stage of :func:`z_flux_parts`.

    ``rho`` and ``inv = 1 / rho`` are the distances from the source, ``n``
    the unit vectors ``(n_x, n_y, n_z)``, ``wave`` the outgoing wave
    ``exp(i rho)`` and ``phase`` the reference ``exp(-i (z - z0))`` of the
    incident wave, one number for points in one plane ``z = const``.
    Mirrored through ``z = 0`` about a source at ``z0 = 0`` the points keep
    ``rho``, ``n_x``, ``n_y`` and ``wave``, ``n_z`` changes sign and
    ``phase`` is conjugated, so one frame serves both plates.
    """

    rho: np.ndarray
    inv: np.ndarray
    n: tuple
    wave: np.ndarray
    phase: complex | np.ndarray
    _terms: dict = field(default_factory=dict, init=False, repr=False)

    def terms(self, a0: float) -> _FluxTerms:
        """The flux terms of a source of radius ``a0``, built on first use:
        once for every source whose screened terms are dropped here (the
        point dipole's, scaled by ``xi`` later), once per radius that keeps
        them."""
        if not (a0 > 0 and (self.rho.min() * 2.0 <= _SCREEN_CUTOFF * a0
                            or a0 <= _SCREEN_MIN_A0)):
            a0 = 0.0
        if a0 not in self._terms:
            self._terms[a0] = _flux_terms(self, a0)
        return self._terms[a0]


def _flux_terms(frame: FluxFrame, a0: float) -> _FluxTerms:
    """:class:`_FluxTerms` on ``frame``, with the screened terms of a source
    of radius ``a0 > 0`` (none for ``a0 = 0``).

    ``grad_r E_x = rad_ex n + ang_ex e_x`` and
    ``grad_r B_y = rad_by n + ang_by e_z``, using
    ``d n_i / d r_j = (delta_ij - n_i n_j) / rho``.
    """
    inv = frame.inv
    nx, _, nz = frame.n
    screen = np.exp(-2.0 / a0 * frame.rho) if a0 > 0 else None
    (f1, f3, c), (df1, df3, dc) = _flux_profiles(inv, a0, frame.wave, screen)
    nx2 = nx * nx
    s1 = 1.0 - nx2
    s3 = 1.0 - 3.0 * nx2
    ex = f1 * s1 + f3 * s3
    by = c * nz
    ang_ex = (f1 + 3.0 * f3) * (-2.0 * inv * nx)
    rad_ex = df1 * s1 + df3 * s3 - ang_ex * nx
    ang_by = c * inv
    rad_by = (dc - ang_by) * nz
    b_sc = np.conj(by)
    return _FluxTerms(ex, by, ang_ex, rad_ex, ang_by, rad_by,
                      np.real(ex * b_sc),
                      np.real(rad_ex * b_sc + ex * np.conj(rad_by)),
                      np.real(ang_ex * b_sc), np.real(ex * np.conj(ang_by)))


def source_frame(points: np.ndarray, r0, a0: float = 0.0) -> FluxFrame:
    """The :class:`FluxFrame` of ``points`` about a source at ``r0``.

    Refuses the points a source of radius ``a0`` cannot take: a point
    dipole refuses every point a finite source refuses, so a frame built
    for the smallest radius it serves refuses for all of its sources.
    """
    rho_vec, rho = _geometry(points, r0)
    _refuse_source_points(rho, a0)
    inv = 1.0 / rho
    # z - z0 is the phase of the incident wave relative to the source
    dz = rho_vec[..., 2]
    flat = dz.ravel()
    if flat.size and np.all(flat == flat[0]):
        dz = flat[0]
    return FluxFrame(rho, inv, tuple(rho_vec[..., i] * inv for i in range(3)),
                     np.exp(1j * rho), np.exp(-1j * dz))


def placement_flux(frame: FluxFrame, scatterer: Scatterer,
                   e_in: float = 1.0, sign: float = 1.0):
    """The second stage of :func:`z_flux_parts`: its ``(cross, scattered,
    grad)`` for a source ``scatterer`` at the frame's ``r0``, on the frame's
    points (``sign = 1``) or on their mirror images through ``z = 0``
    (``sign = -1``, for a source at ``z0 = 0`` only).

    The terms are scaled by ``pref = chi0 e_in xi / 2 pi`` and, where they
    are linear in the fields, turned by the placement's phase; the products
    of two scattered fields see ``pref^2`` and the sign of ``n_z`` alone.
    """
    t = frame.terms(scatterer.a0)
    pref = scatterer.chi0 * e_in * regularizer(1.0, scatterer.a0) / (2.0 * math.pi)
    # the scattered fields' factor relative to the incident wave, and that
    # of the quadratic products with the gradient's -1/2 folded in
    amp = pref * (frame.phase if sign > 0 else np.conj(frame.phase))
    half = (0.5 * e_in) * amp
    quad = -0.5 * pref * pref
    nx, ny, nz = frame.n
    both = half * (t.ex + sign * t.by)          # e_in (E_x + B_y) / 2
    r = (sign * quad) * t.radial - np.real(half * (t.rad_ex + sign * t.rad_by))
    grad = np.empty((3,) + frame.rho.shape)
    grad[0] = nx * r + (sign * quad) * t.ang_x - np.real(half * t.ang_ex)
    grad[1] = ny * r
    grad[2] = (sign * nz) * r - both.imag + quad * t.ang_z \
        - np.real(half * t.ang_by)
    # grad as (..., 3), a view of the component-major array
    return both.real, (-sign * quad) * t.scattered, \
        grad.transpose((*range(1, grad.ndim), 0))


def z_flux_parts(points: np.ndarray, scatterer: Scatterer,
                 e_in: float = 1.0):
    """Cross and scattered parts of the z flux ``Re(E x B*)_z / 2`` and the
    gradient of their sum along the source position ``r0 = (x0, y0, z0)``.

    This is the per-pixel kernel of the classical information; the incident
    part is ``e_in^2 / 2`` everywhere.  The z flux reads only ``E_x`` and
    ``B_y``: the incident wave has ``E_y = B_x = 0`` and the scattered ``B``
    is along ``e_rho x ex = (0, n_z, -n_y)``.  The scattered field is that
    of :func:`scattered_regularized` (the point dipole for ``a0 = 0``), so
    ``E_x = f1 (1 - n_x^2) + f3 (1 - 3 n_x^2)`` and ``B_y = c n_z`` up to
    ``pref exp(i z0)``, ``pref = chi0 e_in xi / 2 pi``, with the profiles
    of :func:`_flux_profiles`.

    It runs in two stages.  :func:`source_frame` takes the geometry about
    the source and the outgoing wave ``exp(i rho)``, and its
    :meth:`FluxFrame.terms` the profiles, ``E_x``, ``B_y`` and their
    gradient terms at unit prefactor and phase, with the products of the
    flux that are quadratic in them.  :func:`placement_flux` then applies
    one source's prefactor and phase.  Sources at one distance share the
    first stage: a point and a finite source on one plate (the finite
    source differs only by ``xi`` where its screened terms are dropped),
    and a plate and its mirror image through ``z = 0`` about a source at
    ``z0 = 0`` (``n_z`` and the phase change sign).  The screened terms of
    a finite source are added per source, where its cutoff needs them.

    Products ``Re(E conj(B))`` do not change under a common phase, so every
    field is formed relative to the incident wave ``e_in exp(i z)``: the
    incident field is the real ``e_in``, and the outgoing wave and the
    screened terms carry ``exp(-i (z - z0))``, one number for points in one
    plane.  That is one complex exponential per point for the point dipole,
    and the real screened ``exp(-2 rho / a0)`` besides for a finite source.

    The screened terms are dropped when every point has
    ``u = 2 rho / a0 > 80`` and ``a0 > 1.1e-4``.  For ``a0 < 1`` their
    largest coefficient is ``8 / a0^4`` (in ``c``; ``16 / a0^5`` in its
    rho-derivative) and the oscillating terms are at least ``|osc q|``, so
    they are below ``8 u exp(-u) / a0^4 = 1.2e-32 / a0^4`` of them at
    ``u = 80``: under ``2^-53`` for ``a0 > 1.1e-4``, ``6e-30`` for 35 nm at
    1030 nm (``a0 = 0.21``).

    A translated source sees ``rho = r - r0``, so ``d/d r0 = -grad_r``.
    With ``grad_r E_x = rad_ex n + ang_ex e_x`` and
    ``grad_r B_y = rad_by n + ang_by e_z``, the drive phase ``exp(i z0)``
    adds ``i E_x`` and ``i B_y`` to the z0 derivatives.  With
    ``E = e_in + E_x`` and ``B = e_in + conj(B_y)`` the gradient is
    ``-n R / 2`` with ``R = Re(rad_ex B + E conj(rad_by))``, plus
    ``-Re(ang_ex B) / 2`` on x0 and ``-(e_in Im(E_x + B_y) +
    Re(E conj(ang_by))) / 2`` on z0.

    Returns ``(cross, scattered, grad)``, ``grad`` of shape ``(npoints, 3)``
    ordered (x0, y0, z0).
    """
    frame = source_frame(points, scatterer.r0, scatterer.a0)
    return placement_flux(frame, scatterer, e_in)


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
    scattering amplitude and the scattered term quadratic.  The split serves
    the full-field reference route for the counts, ``fisher.mean_counts``.
    """
    b_in = np.conj(incident.b)
    b_sc = np.conj(scattered.b)
    cross = _flux_z(incident.e, b_sc) + _flux_z(scattered.e, b_in)
    return {
        "incident": 0.5 * np.real(_flux_z(incident.e, b_in)),
        "cross": 0.5 * np.real(cross),
        "scattered": 0.5 * np.real(_flux_z(scattered.e, b_sc)),
    }
