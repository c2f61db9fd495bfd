"""The numerical-oracle battery of ``dipolebounds validate``, as one table.

Each row of :data:`ORACLES` measures one error against its tolerance:
analytic principal values, brute-force limits, finite differences of the
counts against their analytic derivatives, a likelihood-level Fisher
information, energy conservation, the mode-integral field against the
closed form, the photon-number identity of the transient QFI and the
far-field limits.  A row whose reference is a numerical route names that
route (``reference``) and the production functions it must not reach
(``forbidden``, as ``module.name`` in the package);
``tests/test_oracles.py`` makes those names raise while the reference runs,
so the routes a row compares share no code by test, not by docstring.
:func:`validate_suite` runs the table in order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import detector, fields, fisher, qfi
from .model import Pulse, Scatterer
from .quadrature import pv_integral

__all__ = ["CheckResult", "Oracle", "ORACLES", "run", "validate_suite"]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CheckResult:
    """One oracle outcome: measured error vs tolerance, and its seconds."""

    name: str
    error: float
    tolerance: float
    passed: bool
    detail: str = ""
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: error {self.error:.3e} (tol {self.tolerance:.0e}) {self.detail}"


@dataclass(frozen=True)
class Oracle:
    """One row of the battery.

    ``error()`` returns the error, or the error and a dict of the fields
    that ``detail`` formats.  ``reference`` is the row's numerical
    reference route, and ``forbidden`` the production names it must not
    call.
    """

    name: str
    tolerance: float
    detail: str
    error: Callable
    reference: Callable | None = None
    forbidden: tuple = ()


# the two working points, both with a 13 nm^3 polarizability volume: a
# finite source (radius lambda/30) at 532 nm for the quantum rows, and a
# point source at 1.03 um for the classical ones
_SCAT_532 = Scatterer(chi0=13.0e-27 * (_TWO_PI / 532e-9) ** 3,
                      a0=_TWO_PI / 30.0, omega0=5.32)
_PULSE_200 = Pulse(phi=1.0, tau=200.0)
_SCAT_1030 = Scatterer(chi0=13.0e-27 * (_TWO_PI / 1.03e-6) ** 3, omega0=10.3)
_PULSE_1030 = Pulse(phi=5e17, tau=100.0)


def _plate(refinement: int = 1) -> detector.MirroredGrid:
    return detector.planar_grid(2.0 * _TWO_PI, math.pi, refinement=refinement)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _pv_log_error() -> float:
    return pv_integral(np.ones_like, np.linspace(0.0, 3.0, 3001), 1.0) - math.log(2.0)


def _pv_odd_error() -> float:
    sym = np.linspace(-4.0, 4.0, 4001) + 1.0
    return pv_integral(lambda k: np.exp(-np.square(k - 1.0)), sym, 1.0)


def _sp_profile(k):
    """The smooth integrand of the Sokhotski-Plemelj row: a Gaussian of
    width 0.1 about p = 1, with a linear tilt."""
    return np.exp(-np.square(k - 1.0) / (2.0 * 0.1**2)) * (1.0 + 0.3 * (k - 1.0))


def _smeared_limit() -> complex:
    """Brute-force eta -> 0 limit of int f(k) / (k - p - i eta) dk over
    [0.5, 1.5], p = 1, Richardson-extrapolated in eta^2."""
    p, a, b = 1.0, 0.5, 1.5

    def smeared(eta: float) -> complex:
        # substitute k = p + eta sinh(u): the integrand becomes smooth
        u_lo, u_hi = -math.asinh((p - a) / eta), math.asinh((b - p) / eta)
        u = np.linspace(u_lo, u_hi, 40001)
        k = p + eta * np.sinh(u)
        integrand = _sp_profile(k) * np.cosh(u) / (np.sinh(u) + 1j)
        return np.trapezoid(integrand, u)

    etas = np.array([1e-3, 1e-4, 1e-5])
    vals = np.array([smeared(e) for e in etas])
    # Richardson in eta^2 using the two smallest values
    e1, e2 = etas[1] ** 2, etas[2] ** 2
    return (vals[2] * e1 - vals[1] * e2) / (e1 - e2)


def _sokhotski_plemelj_error() -> float:
    """The smeared limit vs PV - i pi delta."""
    pv = pv_integral(_sp_profile, np.linspace(0.5, 1.5, 20001), 1.0)
    expected = pv - 1j * math.pi * _sp_profile(1.0)
    return abs(_smeared_limit() - expected) / abs(expected)


# ---------------------------------------------------------------------------
# quantum model
# ---------------------------------------------------------------------------

def _dense_f2(scatterer: Scatterer, pulse: Pulse, p: float) -> complex:
    """f2 at ``p`` from a uniform-grid symmetric-excision sum."""
    n = 100001
    k = np.linspace(0.5, 1.5, n)
    dk = k[1] - k[0]
    k = k + (p - k[0]) % dk           # place the pole exactly on a node
    gauss = np.exp(-np.square(k - 1.0) * pulse.tau**2 / (2.0 * math.pi))
    profile = gauss / (1j * np.sqrt(k))
    norm = math.sqrt(pulse.phi * 2.0 * math.pi / (np.sum(np.abs(profile) ** 2) * dk))
    alpha = norm * profile
    xi = qfi.regularizer(k, scatterer.a0)
    kern = np.sqrt(k) * xi * scatterer.chi(k)
    i_p = int(round((p - k[0]) / dk))
    plus = np.trapezoid(kern * np.conj(alpha) / (k + p), k)
    ratio = kern * alpha / (k - p)
    ratio[i_p] = 0.0                  # symmetric excision about the pole node
    w = np.full(n, dk)
    w[0] = w[-1] = 0.5 * dk
    pv = ratio @ w
    xi_p = float(qfi.regularizer(p, scatterer.a0))
    causal = 0.5j * np.sqrt(p) * xi_p * float(scatterer.chi(p)) * alpha[i_p]
    return p**1.5 * xi_p * ((plus + pv) / (2.0 * math.pi) - causal)


def _f2_error() -> float:
    """f2 from the production grid at its node nearest 1.2 vs the dense sum."""
    spectral = qfi.SpectralPulse.from_pulse(_PULSE_200)
    nodes = spectral.grid.nodes
    i_near = int(np.argmin(np.abs(nodes - 1.2)))
    f2_grid = qfi.FrequencyIntegrals(spectral, _SCAT_532).eval(0.0)["f2"][i_near]
    f2_dense = _dense_f2(_SCAT_532, _PULSE_200, float(nodes[i_near]))
    return abs(f2_grid - f2_dense) / abs(f2_dense)


# ---------------------------------------------------------------------------
# classical counts and information
# ---------------------------------------------------------------------------

def _chi_gradient_error() -> float:
    """Central difference of the counts in chi0 vs the analytic column."""
    scat, pulse = _SCAT_1030, _PULSE_1030
    grid = _plate()
    _, grad = fisher.count_gradients(grid, scat, pulse)
    # the counts are an exact quadratic in chi0, so the central difference is
    # exact at any step; a large step avoids cancellation against the
    # incident-light pedestal in the counts
    h = 0.5 * scat.chi0
    nb_p = fisher.mean_counts(grid, replace(scat, chi0=scat.chi0 + h), pulse)
    nb_m = fisher.mean_counts(grid, replace(scat, chi0=scat.chi0 - h), pulse)
    fd = (nb_p - nb_m) / (2.0 * h)
    return np.abs(fd - grad[:, 0]).max() / np.abs(grad[:, 0]).max()


def _position_gradient_error() -> float:
    """Central differences of the counts under a shifted source position vs
    the closed-form position columns of ``count_gradients``.

    Worst error over the x0, y0 and z0 columns, relative to each column's
    largest magnitude, for a point and a finite source on a forward and a
    backward plate, each at the origin and displaced off the axis and
    along z.  A strong scatterer lifts the count differences well above
    the rounding of the incident pedestal and gives the quadratic
    (scattered) part of the flux a visible share.
    """
    worst = 0.0
    for a0 in (0.0, _TWO_PI / 30.0):
        for r0 in ((0.0, 0.0, 0.0), (0.3, -0.2, 0.4)):
            scat = Scatterer(chi0=0.5, a0=a0, r0=r0)
            for z in (0.3 * _TWO_PI, -0.3 * _TWO_PI):
                grid = detector.planar_grid(z, math.pi)
                _, grad = fisher.count_gradients(grid, scat, _PULSE_1030)
                h = 1e-4 * min(_TWO_PI, abs(z))
                for axis in range(3):
                    shift = np.zeros(3)
                    shift[axis] = h
                    up, dn = (fisher.mean_counts(
                        grid, replace(scat, r0=tuple(r0 + step)), _PULSE_1030)
                        for step in (shift, -shift))
                    col = grad[:, 1 + axis]
                    err = np.abs((up - dn) / (2.0 * h) - col).max()
                    worst = max(worst, float(err / np.abs(col).max()))
    return worst


def _energy_conservation_error() -> float:
    """Scattered power through a far sphere vs the total cross section."""
    scatterer = _SCAT_1030
    r = 100.0 * _TWO_PI
    nodes, weights = np.polynomial.legendre.leggauss(64)
    phi = np.linspace(0.0, 2.0 * math.pi, 129)[:-1]
    dphi = phi[1] - phi[0]
    cth, ph = np.meshgrid(nodes, phi, indexing="ij")
    sth = np.sqrt(1.0 - cth**2)
    e_r = np.column_stack([(sth * np.cos(ph)).ravel(),
                           (sth * np.sin(ph)).ravel(), cth.ravel()])
    sc = fields.scattered_point(r * e_r, scatterer)
    s_r = np.sum(fields.poynting_avg(sc) * e_r, axis=-1)
    w = (np.outer(weights, np.full(phi.size, dphi))).ravel()
    power = np.sum(s_r * w) * r**2
    sigma = power / 0.5                     # incident intensity E^2/2 with E=1
    return abs(sigma - scatterer.cross_section()) / scatterer.cross_section()


def _likelihood_fi(nbar: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The Fisher information of independent Poisson pixels, from the
    explicit likelihood summed over the counts 0 to 200."""
    ns = np.arange(0, 201)
    log_factorial = np.array([math.lgamma(n + 1.0) for n in ns])
    brute = np.zeros((4, 4))
    for i in range(nbar.size):
        pmf = np.exp(ns * math.log(nbar[i]) - nbar[i] - log_factorial)
        score = ns / nbar[i] - 1.0          # d log P / d nbar
        brute += np.sum(pmf * score**2) * np.outer(grad[i], grad[i])
    return brute


def _poisson_fi_error() -> float:
    """Pixel-sum FI vs the likelihood FI on a 3x3 toy detector."""
    coords = np.linspace(-2.0, 2.0, 3)
    xs, ys = np.meshgrid(coords, coords, indexing="ij")
    positions = np.column_stack([xs.ravel(), ys.ravel(), np.full(9, 2.0 * _TWO_PI)])
    areas = np.full(9, (coords[1] - coords[0]) ** 2)
    grid = detector.PixelGrid(positions, areas)
    # keep the per-pixel means at O(10) counts so the likelihood sum to
    # n = 200 captures the whole distribution
    pulse = Pulse(phi=5.0, tau=100.0)
    nbar, grad = fisher.count_gradients(grid, _SCAT_1030, pulse)
    direct = fisher.poisson_fi(nbar, grad)
    return float(np.abs(direct - _likelihood_fi(nbar, grad)).max() / np.abs(direct).max())


def _refinement_error() -> float:
    info1 = fisher.fi_matrix(_plate(1), _SCAT_1030, _PULSE_1030)
    info2 = fisher.fi_matrix(_plate(2), _SCAT_1030, _PULSE_1030)
    return np.abs(info2.errors() / info1.errors() - 1.0).max()


def _solid_angle_error() -> float:
    return detector.solid_angle_sum(_plate()) / math.pi - 1.0


# ---------------------------------------------------------------------------
# quantum-classical agreement, the transient identity and far-field limits
# ---------------------------------------------------------------------------

_FIELD_RADII = (5.0 * _SCAT_532.a0, _TWO_PI / 10.0, _TWO_PI)


def _mode_field_error() -> float:
    """Mode-integral field vs closed-form regularized field, worst over
    three points at each radius."""
    direction = np.array([0.6, 0.48, 0.64])
    direction /= np.linalg.norm(direction)
    worst = 0.0
    for rho in _FIELD_RADII:
        pts = np.array([rho * direction, [0.0, 0.0, rho], [rho, 0.0, 0.0]])
        e_mode, b_mode = qfi.mode_integral_field(pts, _SCAT_532)
        closed = fields.scattered_regularized(pts, _SCAT_532)
        num = np.linalg.norm(e_mode - closed.e, axis=-1) \
            + np.linalg.norm(b_mode - closed.b, axis=-1)
        den = np.linalg.norm(closed.e, axis=-1) + np.linalg.norm(closed.b, axis=-1)
        worst = max(worst, float(np.max(num / den)))
    return worst


def _photon_identity_error() -> tuple:
    """J00 vs 4 N_sc / chi0^2 over the whole pulse, in quarter-tau steps,
    wherever photons are out."""
    # a fresh pulse: nsc_series runs before the QFI builds its transforms
    spectral = qfi.SpectralPulse.from_pulse(_PULSE_200)
    times = np.linspace(-3.0, 5.0, 33) * _PULSE_200.tau
    nsc = qfi.nsc_series(_SCAT_532, spectral, times)
    j00 = qfi.qfi_matrix(_SCAT_532, spectral, times).j[:, 0, 0]
    out = nsc > 1e-3 * nsc.max()
    ident = np.abs(j00[out] * _SCAT_532.chi0**2 / (4.0 * nsc[out]) - 1.0).max()
    return ident, {"times": out.sum()}


def _qcrb_constants_error() -> float:
    stated = np.array([0.5, 0.1779, 0.1258, 0.0672])
    return np.abs(qfi.farfield_qcrb_constants() - stated).max()


def _late_diagonal(gauge: str) -> np.ndarray:
    """The QFI's diagonal at t = 5 tau."""
    series = qfi.qfi_matrix(_SCAT_532, qfi.SpectralPulse.from_pulse(_PULSE_200),
                            [5.0 * _PULSE_200.tau], gauge=gauge)
    return np.diag(series.j[0])


def _farfield_error() -> float:
    ff = qfi.farfield_qfi(_SCAT_532, _PULSE_200.phi)
    return np.abs(_late_diagonal("multipolar") / np.diag(ff) - 1.0).max()


def _gauge_error() -> float:
    return np.abs(_late_diagonal("coulomb") / _late_diagonal("multipolar")
                  - 1.0).max()


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

ORACLES = (
    Oracle("pv_analytic_log", 1e-8, "PV of 1/(k-1) over [0,3]", _pv_log_error),
    Oracle("pv_odd_symmetry", 1e-10, "symmetric Gaussian about the pole",
           _pv_odd_error),
    Oracle("sokhotski_plemelj_limit", 1e-4,
           "eta->0 brute force vs PV - i pi delta", _sokhotski_plemelj_error,
           _smeared_limit, ("quadrature.pv_integral",)),
    Oracle("f2_dense_grid", 1e-4, "sinh-grid vs 1e5-node uniform excision",
           _f2_error, _dense_f2, ("qfi.pv_matrix", "qfi.FrequencyIntegrals")),
    Oracle("fd_vs_analytic_chi_gradient", 1e-6,
           "finite difference vs exact quadratic derivative",
           _chi_gradient_error, fisher.mean_counts, ("fields.z_flux_parts",)),
    Oracle("fd_vs_analytic_position_gradient", 1e-6,
           "shifted-r0 counts vs closed-form columns",
           _position_gradient_error, fisher.mean_counts, ("fields.z_flux_parts",)),
    Oracle("energy_conservation", 5e-3, "far-sphere power vs cross section",
           _energy_conservation_error),
    Oracle("poisson_likelihood_fi", 1e-8, "3x3 toy detector, counts to 200",
           _poisson_fi_error, _likelihood_fi, ("fisher.poisson_fi",)),
    Oracle("mode_integral_field", 1e-3,
           f"radii checked: {len(_FIELD_RADII)}", _mode_field_error,
           qfi.mode_integral_field,
           ("fields.scattered_regularized", "fields._envelope_brackets",
            "fields._magnetic_bracket")),
    Oracle("transient_photon_identity", 1e-2,
           "J00 vs scattered-photon count at {times} times in -3..5 tau",
           _photon_identity_error, qfi.nsc_series,
           ("qfi.pv_matrix", "qfi.FrequencyIntegrals", "qfi._block_sums")),
    Oracle("farfield_qcrb_constants", 1e-4,
           "closed-form constants to 4 decimals", _qcrb_constants_error),
    Oracle("dynamic_farfield_match", 3e-2,
           "assembled QFI at t=5 tau vs closed form", _farfield_error),
    Oracle("gauge_farfield_equality", 2e-2, "multipolar vs coulomb at t=5 tau",
           _gauge_error),
    Oracle("crb_refinement_convergence", 1e-2,
           "CRB change on pixel-density doubling", _refinement_error),
    Oracle("planar_solid_angle_sum", 5e-3, "pixel solid angles vs target",
           _solid_angle_error),
)


def run(row: Oracle) -> CheckResult:
    """Measure one row, with its ``time.perf_counter`` seconds."""
    start = time.perf_counter()
    value = row.error()
    seconds = time.perf_counter() - start
    error, fill = value if isinstance(value, tuple) else (value, {})
    err = float(abs(error))
    return CheckResult(row.name, err, row.tolerance, bool(err < row.tolerance),
                       row.detail.format(**fill), seconds)


def validate_suite() -> list:
    """Run every row of :data:`ORACLES`; returns a list of CheckResult."""
    return [run(row) for row in ORACLES]
