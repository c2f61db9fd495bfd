"""Classical Fisher information of pixelated intensity detection.

The detector model: each pixel independently Poisson-counts the cycle-averaged
energy flux through its area over the pulse,

    nbar_i = (flux_i) * tau * dA_i     (the carrier photon energy is 1 internally),

with the flux taken along z, the normal of the planar detector.  The
scattered field is :func:`~dipolebounds.fields.scattered_regularized`, which
is the point-dipole solution when ``a0 = 0``.  The Fisher information
for the parameter vector (chi0, x0, y0, z0) is then

    I_jl = sum_i (1 / nbar_i) (d nbar_i / d theta_j) (d nbar_i / d theta_l).

All derivatives are analytic.  The flux is exactly quadratic in chi0, and
the z flux reads only the ``E_x`` and ``B_y`` components, whose closed-form
source-position derivatives come from
:func:`~dipolebounds.fields.scattered_ex_by`; the incident wave does not move
with the scatterer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fields
from .detector import PixelGrid
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


def _counts_block(pos, da, scatterer, pulse):
    inc = fields.incident_field(pos, e_in=pulse.e_in)
    sc = fields.scattered_regularized(pos, scatterer, e_in=pulse.e_in)
    parts = fields.intensity_parts(inc, sc)
    factor = pulse.tau * da
    nbar = (parts["incident"] + parts["cross"] + parts["scattered"]) * factor
    if np.any(nbar <= 0):
        raise PhysicsError(
            "non-positive mean count encountered; the net-flux detector model "
            "requires the incident wave to dominate every pixel")
    return nbar, parts, factor, inc


def mean_counts(grid: PixelGrid, scatterer: Scatterer,
                pulse: Pulse) -> np.ndarray:
    """Expected photon counts per pixel over the pulse."""
    out = np.empty(grid.size)
    for lo in range(0, grid.size, _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        nbar, _, _, _ = _counts_block(grid.positions[sl], grid.areas[sl],
                                      scatterer, pulse)
        out[sl] = nbar
    return out


def count_gradients(grid: PixelGrid, scatterer: Scatterer, pulse: Pulse):
    """Mean counts and their derivatives along (chi0, x0, y0, z0).

    Returns ``(nbar, grad)`` with ``grad`` of shape ``(npixels, 4)``.  The
    chi0 column uses that the interference part of the flux is linear and
    the scattered part quadratic in chi0, so
    ``d nbar / d chi0 = (cross + 2 scattered) / chi0``.  The z flux of the
    total field is ``Re(E_x B_y*) / 2``, and only its scattered parts move
    with the source, so the position columns are
    ``Re(dE_x B_y* + E_x dB_y*) / 2`` with the closed-form derivatives of
    :func:`~dipolebounds.fields.scattered_ex_by`, in the same pass over the
    pixels as the counts.
    """
    nbar = np.empty(grid.size)
    grad = np.empty((grid.size, 4))
    for lo in range(0, grid.size, _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        pos, da = grid.positions[sl], grid.areas[sl]
        nb, parts, factor, inc = _counts_block(pos, da, scatterer, pulse)
        nbar[sl] = nb
        grad[sl, 0] = (parts["cross"] + 2.0 * parts["scattered"]) \
            / scatterer.chi0 * factor
        ex, by, d_ex, d_by = fields.scattered_ex_by(pos, scatterer,
                                                    e_in=pulse.e_in)
        e_tot = inc.e[:, 0] + ex
        b_tot = np.conj(inc.b[:, 1] + by)
        grad[sl, 1:] = 0.5 * np.real(d_ex * b_tot[:, None]
                                     + e_tot[:, None] * np.conj(d_by)) \
            * factor[:, None]
    return nbar, grad


def poisson_fi(nbar: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Fisher information of independent Poisson counts with means ``nbar``."""
    nbar = np.asarray(nbar, dtype=float)
    grad = np.asarray(grad, dtype=float)
    return (grad / nbar[:, None]).T @ grad


def fi_matrix(grid: PixelGrid, scatterer: Scatterer,
              pulse: Pulse) -> InfoMatrix:
    """Fisher-information matrix of the pixel counts for (chi0, x0, y0, z0)."""
    nbar, grad = count_gradients(grid, scatterer, pulse)
    m = poisson_fi(nbar, grad)
    return InfoMatrix(0.5 * (m + m.T))


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
