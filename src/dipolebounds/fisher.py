"""Classical Fisher information of pixelated intensity detection.

The detector model: each pixel independently Poisson-counts the cycle-averaged
energy flux through its area over the pulse,

    nbar_i = (flux_i) * tau * dA_i     (the carrier photon energy is 1 internally),

with the flux taken along the fixed pixel normal.  The Fisher information for
the parameter vector (chi0, x0, y0, z0) is then

    I_jl = sum_i (1 / nbar_i) (d nbar_i / d theta_j) (d nbar_i / d theta_l).

Polarizability derivatives are analytic (the flux is exactly quadratic in
chi0); position derivatives use central finite differences of the scattered
field only, since the incident wave does not move with the scatterer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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

_CHUNK = 1 << 17          # pixels per evaluation block
_FD_FRACTION = 1e-4       # position finite-difference step, in units of
                          # min(wavelength 2 pi, detector distance)


def _scatter_model(name: str):
    try:
        return {
            "point": fields.scattered_point,
            "regularized": fields.scattered_regularized,
        }[name]
    except KeyError:
        raise ValueError(f"unknown field model {name!r}") from None


def _detector_scale(grid: PixelGrid) -> float:
    meta = grid.meta
    if "distance" in meta:
        return abs(meta["distance"])
    rel = np.linalg.norm(grid.positions, axis=-1)
    return float(rel.min())


def _counts_block(pos, nrm, da, scatter, scatterer, pulse):
    inc = fields.incident_field(pos, e_in=pulse.e_in)
    sc = scatter(pos, scatterer, e_in=pulse.e_in)
    parts = fields.intensity_parts(inc, sc, nrm)
    factor = pulse.tau * da
    nbar = (parts["incident"] + parts["cross"] + parts["scattered"]) * factor
    return nbar, parts, factor, inc


def mean_counts(grid: PixelGrid, scatterer: Scatterer, pulse: Pulse,
                model: str = "point") -> np.ndarray:
    """Expected photon counts per pixel over the pulse."""
    scatter = _scatter_model(model)
    out = np.empty(grid.size)
    for lo in range(0, grid.size, _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        nbar, _, _, _ = _counts_block(grid.positions[sl], grid.normals[sl],
                                      grid.areas[sl], scatter, scatterer,
                                      pulse)
        out[sl] = nbar
    if np.any(out <= 0):
        raise PhysicsError(
            "non-positive mean count encountered; the net-flux detector model "
            "requires the incident wave to dominate every pixel")
    return out


def count_gradients(grid: PixelGrid, scatterer: Scatterer, pulse: Pulse,
                    model: str = "point"):
    """Mean counts and their derivatives along (chi0, x0, y0, z0).

    Returns ``(nbar, grad)`` with ``grad`` of shape ``(npixels, 4)``.  The
    chi0 column is analytic: the interference part of the flux is linear and
    the scattered part quadratic in chi0, so
    ``d nbar / d chi0 = (cross + 2 scattered) / chi0``.  Position columns are
    central differences of the scattered field about ``r0``, with step
    ``_FD_FRACTION * min(2 pi, detector distance)``.
    """
    scatter = _scatter_model(model)
    h = _FD_FRACTION * min(2.0 * math.pi, _detector_scale(grid))

    nbar = np.empty(grid.size)
    grad = np.empty((grid.size, 4))
    for lo in range(0, grid.size, _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        pos, nrm, da = grid.positions[sl], grid.normals[sl], grid.areas[sl]
        nb, parts, factor, inc = _counts_block(pos, nrm, da, scatter,
                                               scatterer, pulse)
        nbar[sl] = nb
        grad[sl, 0] = (parts["cross"] + 2.0 * parts["scattered"]) \
            / scatterer.chi0 * factor
        for axis in range(3):
            shift = np.zeros(3)
            shift[axis] = h
            flux = []
            for sgn in (+1.0, -1.0):
                moved = replace(scatterer,
                                r0=tuple(np.asarray(scatterer.r0) + sgn * shift))
                sc = scatter(pos, moved, e_in=pulse.e_in)
                p = fields.intensity_parts(inc, sc, nrm)
                flux.append(p["cross"] + p["scattered"])
            grad[sl, 1 + axis] = (flux[0] - flux[1]) / (2.0 * h) * factor
    if np.any(nbar <= 0):
        raise PhysicsError(
            "non-positive mean count encountered; the net-flux detector model "
            "requires the incident wave to dominate every pixel")
    return nbar, grad


def poisson_fi(nbar: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Fisher information of independent Poisson counts with means ``nbar``."""
    nbar = np.asarray(nbar, dtype=float)
    grad = np.asarray(grad, dtype=float)
    return (grad / nbar[:, None]).T @ grad


def fi_matrix(grid: PixelGrid, scatterer: Scatterer, pulse: Pulse,
              model: str = "point") -> InfoMatrix:
    """Fisher-information matrix of the pixel counts for (chi0, x0, y0, z0)."""
    nbar, grad = count_gradients(grid, scatterer, pulse, model=model)
    m = poisson_fi(nbar, grad)
    m = 0.5 * (m + m.T)
    meta = {"model": model, "pixels": grid.size, "detector": dict(grid.meta)}
    return InfoMatrix(m, meta)


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
