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
fields relative to the incident wave.  :func:`mean_counts` sums the flux
of the full fields, the independent reference that ``validate``
differentiates.

:func:`fi_matrices` gives the information of several placements of a
source on one plate: a point or a finite source, on the plate or on its
mirror image through ``z = 0``.  It hands each block of at most ``_CHUNK``
pixels with all the placements to
:func:`~dipolebounds.fields.z_flux_parts`, which decides what the
placements share, and sums the :func:`poisson_fi` of each placement's
counts, so it builds no plate-sized array; :func:`fi_matrix` is its
one-placement case.  The x-polarized drive is symmetric under
``x -> -x`` and ``y -> -y`` about a source on the z axis: the counts are
even there and the x0 and y0 columns odd.  So for a
:class:`~dipolebounds.detector.MirroredGrid` (as from
:func:`~dipolebounds.detector.planar_grid`) and sources on the z axis it
evaluates the mirror cell alone and multiplies by the parity mask.  A
source off the axis takes each block of the cell with its sign images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fields
from .detector import MirroredGrid, PixelGrid
from .model import InfoMatrix, PhysicsError, Pulse, Scatterer

__all__ = [
    "mean_counts",
    "count_gradients",
    "poisson_fi",
    "fi_matrix",
    "fi_matrices",
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
    """Expected photon counts per pixel of the plate over the pulse, from
    the z flux of the full incident and scattered fields (the reference
    route)."""
    grid = grid.plate()
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


def _counts(parts, chi0: float, pulse: Pulse, factor: np.ndarray):
    """Counts and their (chi0, x0, y0, z0) gradient from the flux parts of
    one source, ``factor`` being ``tau`` times the pixel areas.  The
    gradient is built component-major, ``(4, npixels)``, and returned as
    its ``(npixels, 4)`` transpose, which :func:`poisson_fi` undoes."""
    cross, scattered, d_r0 = parts
    nbar = _positive((0.5 * pulse.e_in**2 + cross + scattered) * factor)
    grad = np.empty((4, nbar.size))
    grad[0] = (cross + 2.0 * scattered) / chi0 * factor
    np.multiply(d_r0.T, factor, out=grad[1:])
    return nbar, grad.T


def count_gradients(grid: PixelGrid, scatterer: Scatterer, pulse: Pulse):
    """Mean counts and their derivatives along (chi0, x0, y0, z0).

    Returns ``(nbar, grad)`` with ``grad`` of shape ``(npixels, 4)``, over
    every pixel of the plate.  The z flux ``Re(E_x conj(B_y)) / 2`` splits
    into an incident part ``e_in^2 / 2``, a cross part linear in chi0 and a
    scattered part quadratic in it, so
    ``d nbar / d chi0 = (cross + 2 scattered) / chi0``.
    The cross and scattered parts and the closed-form position gradient of
    the flux come from :func:`~dipolebounds.fields.z_flux_parts`, one block
    of pixels at a time.
    """
    grid = grid.plate()
    nbar = np.empty(grid.size)
    grad = np.empty((4, grid.size)).T     # component-major, as _counts
    for lo in range(0, grid.size, _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        nbar[sl], grad[sl] = _counts(
            fields.z_flux_parts(grid.positions[sl], [(scatterer, 1.0)],
                                pulse.e_in)[0],
            scatterer.chi0, pulse, pulse.tau * grid.areas[sl])
    return nbar, grad


def poisson_fi(nbar: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Fisher information of independent Poisson counts with means ``nbar``
    and gradient ``grad``, one row per count, summed as
    ``(g / nbar) @ g.T`` over the component-major ``g = grad.T``."""
    g = np.asarray(grad, dtype=float).T
    return (g / np.asarray(nbar, dtype=float)) @ g.T


def fi_matrices(grid: PixelGrid, placements, pulse: Pulse) -> list:
    """Fisher-information matrices of several sources on one plate, for
    (chi0, x0, y0, z0), summed block by block.

    ``placements`` holds the ``(scatterer, side)`` pairs of
    :func:`~dipolebounds.fields.z_flux_parts`: ``side = 1`` counts on the
    grid as it is, ``side = -1`` on its mirror image through ``z = 0``.
    A mirrored grid is folded to its mirror cell when every source is on
    the z axis.
    """
    fold = isinstance(grid, MirroredGrid) and all(
        scat.r0[0] == 0.0 and scat.r0[1] == 0.0 for scat, _ in placements)
    block = PixelGrid if fold else type(grid)
    step = _CHUNK if fold else _CHUNK // grid.images
    info = np.zeros((len(placements), 4, 4))
    for lo in range(0, grid.areas.size, step):
        sl = slice(lo, lo + step)
        plate = block(grid.positions[sl], grid.areas[sl]).plate()
        factor = pulse.tau * plate.areas
        parts = fields.z_flux_parts(plate.positions, placements, pulse.e_in)
        for k, (scat, _) in enumerate(placements):
            info[k] += poisson_fi(*_counts(parts[k], scat.chi0, pulse, factor))
        del parts       # freed before the next block's are built
    return [InfoMatrix(m * _PARITY_MASK if fold else m) for m in info]


def fi_matrix(grid: PixelGrid, scatterer: Scatterer,
              pulse: Pulse) -> InfoMatrix:
    """Fisher-information matrix of the pixel counts for (chi0, x0, y0, z0):
    the one-source case of :func:`fi_matrices`."""
    return fi_matrices(grid, [(scatterer, 1.0)], pulse)[0]


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
