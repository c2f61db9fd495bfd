"""Classical Fisher information of pixelated intensity detection.

The detector model: each pixel independently Poisson-counts the cycle-averaged
energy flux through its area over the pulse,

    nbar_i = (flux_i) * tau * dA_i     (the carrier photon energy is 1 internally),

with the flux taken along z, the normal of the planar detector.  The
scattered field is that of a source of radius ``a0``, the point dipole when
``a0 = 0``.  The Fisher information for the parameter vector
(chi0, x0, y0, z0) is then

    I_jl = sum_i (1 / nbar_i) (d nbar_i / d theta_j) (d nbar_i / d theta_l).

The z flux reads only ``E_x`` and ``B_y``.  :func:`count_gradients` takes the
counts and all four derivative columns from one
:func:`~dipolebounds.fields.z_flux_parts` pass per pixel, which forms the
fields relative to the incident wave: one complex exponential per pixel for
a point source and two for a finite one.  :func:`mean_counts` sums the flux
of the full fields, the independent reference that ``validate``
differentiates.

The x-polarized drive is symmetric under ``x -> -x`` and ``y -> -y`` about a
source on the z axis: the counts are even there and the x0 and y0 columns
odd.  :func:`fi_matrix` folds a plate that is a mirror cell followed by its
images under ``x -> -x``, ``y -> -y`` and both, bit for bit in positions and
areas (every :func:`~dipolebounds.detector.planar_grid` is), when the source
is on the z axis: it evaluates the cell and multiplies its information by
the parity mask.  Any other plate or source goes through every pixel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fields
from .detector import _MIRROR_SIGNS, PixelGrid
from .model import InfoMatrix, PhysicsError, Pulse, Scatterer

__all__ = [
    "mean_counts",
    "count_gradients",
    "poisson_fi",
    "fi_matrix",
    "n_scattered",
    "CrbResult",
    "crb_bounds",
]

_CHUNK = 1 << 12          # pixels per evaluation block

# sum of S Q S over the four sign images of a mirror cell, entry by entry,
# with S = diag(1, s_x, s_y, 1): the x0 and y0 columns are odd
_PARITY_MASK = 4.0 * np.array([[1, 0, 0, 1], [0, 1, 0, 0],
                               [0, 0, 1, 0], [1, 0, 0, 1]])


def _positive(nbar: np.ndarray) -> np.ndarray:
    if np.any(nbar <= 0):
        raise PhysicsError(
            "non-positive mean count encountered; the net-flux detector model "
            "requires the incident wave to dominate every pixel")
    return nbar


def mean_counts(grid: PixelGrid, scatterer: Scatterer,
                pulse: Pulse) -> np.ndarray:
    """Expected photon counts per pixel over the pulse, from the z flux of
    the full incident and scattered fields (the reference route)."""
    out = np.empty(grid.size)
    for lo in range(0, grid.size, _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        pos = grid.positions[sl]
        parts = fields.intensity_parts(
            fields.incident_field(pos, e_in=pulse.e_in),
            fields.scattered_regularized(pos, scatterer, e_in=pulse.e_in))
        out[sl] = _positive(
            (parts["incident"] + parts["cross"] + parts["scattered"])
            * (pulse.tau * grid.areas[sl]))
    return out


def count_gradients(grid: PixelGrid, scatterer: Scatterer, pulse: Pulse):
    """Mean counts and their derivatives along (chi0, x0, y0, z0).

    Returns ``(nbar, grad)`` with ``grad`` of shape ``(npixels, 4)``.  The
    z flux ``Re(E_x conj(B_y)) / 2`` splits into an incident part
    ``e_in^2 / 2``, a cross part linear in chi0 and a scattered part
    quadratic in it, so ``d nbar / d chi0 = (cross + 2 scattered) / chi0``.
    The cross and scattered parts and the closed-form position gradient of
    the flux come from :func:`~dipolebounds.fields.z_flux_parts`, one block
    of pixels at a time.
    """
    nbar = np.empty(grid.size)
    grad = np.empty((grid.size, 4))
    incident = 0.5 * pulse.e_in**2
    for lo in range(0, grid.size, _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        cross, scattered, d_r0 = fields.z_flux_parts(
            grid.positions[sl], scatterer, e_in=pulse.e_in)
        factor = pulse.tau * grid.areas[sl]
        nbar[sl] = _positive((incident + cross + scattered) * factor)
        grad[sl, 0] = (cross + 2.0 * scattered) / scatterer.chi0 * factor
        grad[sl, 1:] = d_r0 * factor[:, None]
    return nbar, grad


def poisson_fi(nbar: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Fisher information of independent Poisson counts with means ``nbar``."""
    nbar = np.asarray(nbar, dtype=float)
    grad = np.asarray(grad, dtype=float)
    return (grad / nbar[:, None]).T @ grad


def _fold(grid: PixelGrid, scatterer: Scatterer) -> tuple:
    """The pixels to evaluate and the factor that turns their information
    into the plate's: the mirror cell and the parity mask, or all and 1."""
    if scatterer.r0[0] == 0.0 and scatterer.r0[1] == 0.0 \
            and grid.size % 4 == 0:
        pos = grid.positions.reshape(4, -1, 3)
        areas = grid.areas.reshape(4, -1)
        if all(np.array_equal(pos[k], pos[0] * signs)
               and np.array_equal(areas[k], areas[0])
               for k, signs in enumerate(_MIRROR_SIGNS[1:], 1)):
            return PixelGrid(pos[0], areas[0]), _PARITY_MASK
    return grid, 1.0


def fi_matrix(grid: PixelGrid, scatterer: Scatterer,
              pulse: Pulse) -> InfoMatrix:
    """Fisher-information matrix of the pixel counts for (chi0, x0, y0, z0),
    from one quarter of a mirror-built plate for a source on the z axis."""
    pixels, mask = _fold(grid, scatterer)
    m = poisson_fi(*count_gradients(pixels, scatterer, pulse))
    return InfoMatrix(m * mask)


def n_scattered(scatterer: Scatterer, pulse: Pulse) -> float:
    """Mean number of scattered photons, cross section times fluence."""
    return scatterer.cross_section() * pulse.phi


@dataclass(frozen=True)
class CrbResult:
    """Cramer-Rao standard deviations and their dimensionless forms.

    ``sigma`` is ordered (chi0, x0, y0, z0) in internal units;
    ``normalized`` rescales to the conventional comparison variables
    ``sqrt(N_sc) sigma_chi / chi0`` and ``sqrt(N_sc) sigma_pos / lambda``.
    """

    sigma: np.ndarray
    normalized: np.ndarray
    n_sc: float
    condition_number: float


def crb_bounds(info: InfoMatrix, scatterer: Scatterer,
               pulse: Pulse) -> CrbResult:
    """Cramer-Rao bounds (with the conventional normalizations) from an
    information matrix."""
    sigma = info.errors()
    nsc = n_scattered(scatterer, pulse)
    root = math.sqrt(nsc)
    lam = 2.0 * math.pi
    normalized = np.array([
        root * sigma[0] / scatterer.chi0,
        root * sigma[1] / lam,
        root * sigma[2] / lam,
        root * sigma[3] / lam,
    ])
    return CrbResult(sigma, normalized, nsc, info.condition_number)
