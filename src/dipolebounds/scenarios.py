"""Sweep pipelines: CRB vs distance, QFI vs time, QFI vs source size.

Functions here wire the field/detector/information modules into the standard
parameter scans and produce :class:`SweepResult` tables ready for CSV export.
Everything works in internal units (drive wavenumber 1); unit conversion and
figure styling live in the command-line layer.

The module also hosts :func:`validate_suite`, a battery of independent
numerical oracles (analytic principal-value cases, brute-force limits,
finite differences of the counts against their analytic derivatives,
likelihood-level Fisher information, energy conservation, and the
quantum-classical field comparison) used both by the test suite and the
``validate`` subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import detector, fields, fisher, qfi
from .model import PhysicsError, Pulse, Scatterer
from .quadrature import SinhGrid, pv_integral

__all__ = [
    "SweepResult",
    "CheckResult",
    "crb_distance_sweep",
    "qfi_time_sweep",
    "size_scaling_sweep",
    "fit_power_law",
    "validate_suite",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A named sweep axis plus equally-long value columns and a config echo."""

    axis_name: str
    axis: np.ndarray
    columns: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        axis = np.asarray(self.axis, dtype=float)
        object.__setattr__(self, "axis", axis)
        for name, col in self.columns.items():
            if np.asarray(col).shape[0] != axis.shape[0]:
                raise ValueError(f"column {name!r} length does not match axis")

    @property
    def column_names(self) -> list:
        return [self.axis_name, *self.columns.keys()]

    def table(self) -> np.ndarray:
        cols = [self.axis] + [np.asarray(c, dtype=float) for c in self.columns.values()]
        return np.column_stack(cols)


# ---------------------------------------------------------------------------
# CRB vs detector distance
# ---------------------------------------------------------------------------

def default_distance_axis(lo: float = 0.02, hi: float = 10.0,
                          per_decade: int = 40) -> np.ndarray:
    """Log-spaced |Z|/lambda axis, default 40 points per decade."""
    n = max(2, round(per_decade * math.log10(hi / lo)) + 1)
    return np.geomspace(lo, hi, n)


def crb_distance_sweep(scatterer: Scatterer, pulse: Pulse,
                       solid_angle: float = 1.97 * math.pi,
                       z_over_lambda: np.ndarray | None = None,
                       finite_a0: float | None = None,
                       refinement: int = 1) -> SweepResult:
    """Normalized CRBs vs detector distance for a planar detector.

    Three detector placements are evaluated at every distance: forward
    point-dipole, backward point-dipole, and forward with a finite-size
    source of radius ``finite_a0`` (regularized field).  Columns carry the
    dimensionless bounds ``sqrt(N_sc) sigma_chi / chi0`` and
    ``sqrt(N_sc) sigma_r / lambda``; the far-field quantum bounds are
    appended as constant reference columns.
    """
    if z_over_lambda is None:
        z_over_lambda = default_distance_axis()
    z_over_lambda = np.asarray(z_over_lambda, dtype=float)
    if finite_a0 is None:
        finite_a0 = 35e-9 / 1.03e-6 * _TWO_PI   # 35 nm at the 1.03 um drive
    point = replace(scatterer, a0=0.0)
    finite = replace(scatterer, a0=finite_a0)

    def one(z_rel: float):
        z = z_rel * _TWO_PI
        rows = []
        sizes = []
        for sgn, scat in ((+1.0, point), (-1.0, point), (+1.0, finite)):
            grid = detector.planar_grid(sgn * z, solid_angle, refinement)
            sizes.append(grid.size)
            info = fisher.fi_matrix(grid, scat, pulse)
            rows.append(fisher.crb_bounds(info, scat, pulse).normalized)
        return rows, sizes

    results = [one(z_rel) for z_rel in z_over_lambda]
    fwd, bwd, fin = (np.array([r[0][k] for r in results]) for k in range(3))
    sizes = np.array([r[1] for r in results])
    cells = np.sqrt(sizes.max(axis=1))
    qcrb = qfi.farfield_qcrb_constants()

    columns = {}
    for j, name in enumerate(("chi", "x", "y", "z")):
        columns[f"crb_{name}_norm_fwd"] = fwd[:, j]
    for j, name in enumerate(("chi", "x", "y", "z")):
        columns[f"crb_{name}_norm_bwd"] = bwd[:, j]
    for j, name in enumerate(("chi", "x", "y", "z")):
        columns[f"crb_{name}_norm_finite"] = fin[:, j]
    for j, name in enumerate(("chi", "x", "y", "z")):
        columns[f"qcrb_{name}_norm"] = np.full(z_over_lambda.size, qcrb[j])
    columns["cells_per_axis"] = cells

    meta = {
        "scenario": "crb_distance_sweep",
        "solid_angle": float(solid_angle),
        "finite_a0_internal": float(finite_a0),
        "refinement": int(refinement),
        "chi0_internal": scatterer.chi0,
        "omega0_internal": scatterer.omega0,
        "phi_internal": pulse.phi,
        "tau_internal": pulse.tau,
        "n_sc": fisher.n_scattered(point, pulse),
        "pixels": int(sizes.sum()),
    }
    return SweepResult("z_over_lambda", z_over_lambda, columns, meta)


# ---------------------------------------------------------------------------
# QFI vs time
# ---------------------------------------------------------------------------

def default_time_axis(pulse: Pulse, samples_per_period: int = 8,
                      span: tuple = (-3.0, 5.0)) -> np.ndarray:
    """Times covering ``span`` (in units of tau) resolving the 2-omega beat."""
    t0, t1 = span[0] * pulse.tau, span[1] * pulse.tau
    n = max(2, int(math.ceil((t1 - t0) / _TWO_PI * samples_per_period)) + 1)
    return np.linspace(t0, t1, n)


def qfi_time_sweep(scatterer: Scatterer, pulse: Pulse,
                   times: np.ndarray | None = None,
                   gauges: tuple = ("multipolar",),
                   corrections: bool = False,
                   normalize: bool = False,
                   grid: SinhGrid | None = None) -> SweepResult:
    """Time-resolved QFI entries (and scattered photon number) for one pulse.

    With ``normalize=True`` every diagonal entry is divided by its analytic
    long-time value, the chi0/z0 cross entry by the geometric mean of its
    diagonal partners, and the photon number by its asymptotic total.
    """
    if times is None:
        times = default_time_axis(pulse)
    times = np.asarray(times, dtype=float)
    spectral = qfi.SpectralPulse.from_pulse(pulse, grid)
    columns = {}
    for gauge in gauges:
        series = qfi.qfi_matrix(scatterer, spectral, times, gauge=gauge,
                                corrections=corrections and gauge == "multipolar")
        diag = series.diagonal()
        j03 = series.j[:, 0, 3]
        scale = np.ones(4)
        scale03 = 1.0
        if normalize:
            ff = np.diag(qfi.farfield_qfi(scatterer, pulse.phi))
            scale = ff
            scale03 = math.sqrt(ff[0] * ff[3])
        for j, name in enumerate(("j00", "j11", "j22", "j33")):
            columns[f"{name}_{gauge}"] = diag[:, j] / scale[j]
        columns[f"j03_{gauge}"] = j03 / scale03
    nsc = qfi.nsc_series(scatterer, spectral, times)
    nsc_total = fisher.n_scattered(scatterer, pulse)
    columns["nsc"] = nsc / nsc_total if normalize else nsc

    meta = {
        "scenario": "qfi_time_sweep",
        "gauges": list(gauges),
        "corrections": bool(corrections),
        "normalize": bool(normalize),
        "chi0_internal": scatterer.chi0,
        "a0_internal": scatterer.a0,
        "omega0_internal": scatterer.omega0,
        "phi_internal": pulse.phi,
        "tau_internal": pulse.tau,
        "modes": spectral.grid.size,
        "nsc_total": nsc_total,
    }
    return SweepResult("t_internal", times, columns, meta)


# ---------------------------------------------------------------------------
# QFI vs source size
# ---------------------------------------------------------------------------

def fit_power_law(x: np.ndarray, y: np.ndarray) -> tuple:
    """Least-squares exponent of ``y ~ x**n``: returns (n, rms residual)."""
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    coef = np.polyfit(lx, ly, 1)
    resid = ly - np.polyval(coef, lx)
    return float(coef[0]), float(np.sqrt(np.mean(resid**2)))


def _peak_abs(values: np.ndarray) -> float:
    return float(np.max(np.abs(values)))


def size_scaling_sweep(scatterer: Scatterer, pulse: Pulse,
                       a0_over_lambda: np.ndarray | None = None,
                       gauges: tuple = ("multipolar", "coulomb"),
                       peak_samples: int = 65,
                       grid: SinhGrid | None = None) -> SweepResult:
    """Peak transient QFI vs source size, with fitted power-law exponents.

    For each radius the QFI entries are sampled over a window of one
    half-period around the pulse peak (the transient beats at twice the
    carrier, so the window is guaranteed to contain a crest) and the largest
    magnitude is recorded (``peak_*`` columns).  Because at the envelope
    center only half the pulse has scattered, the on-shell pedestal under the
    peak equals half the late-time value; subtracting it isolates the
    transient enhancement, whose size scaling is the quantity with a clean
    power law (``transient_*`` columns).  Exponents of ``(lambda / a0)`` are
    fitted per column and per coupling; saturating entries are statements
    about the peak itself, so both fits are reported.  Following the validity
    analysis, the two largest radii are dropped from a fit when that halves
    its residual (recorded in the metadata).
    """
    if a0_over_lambda is None:
        a0_over_lambda = np.geomspace(1.0 / 120.0, 1.0 / 20.0, 8)
    a0_over_lambda = np.asarray(a0_over_lambda, dtype=float)
    # the peak window (one half-period), then the late time for the pedestal
    times = np.append(np.linspace(-0.5 * math.pi, 0.5 * math.pi, peak_samples),
                      5.0 * pulse.tau)
    spectral = qfi.SpectralPulse.from_pulse(pulse, grid)

    entries = ("j00", "j11", "j33", "j03")
    index = {"j00": (0, 0), "j11": (1, 1), "j33": (3, 3), "j03": (0, 3)}

    def one(a_rel: float):
        scat = replace(scatterer, a0=a_rel * _TWO_PI)
        peaks = {}
        for gauge in gauges:
            series = qfi.qfi_matrix(scat, spectral, times, gauge=gauge)
            for name in entries:
                i, j = index[name]
                pk = _peak_abs(series.j[:-1, i, j])
                lt = abs(series.j[-1, i, j])
                peaks[f"peak_{name}_{gauge}"] = pk
                peaks[f"transient_{name}_{gauge}"] = pk - 0.5 * lt
        return peaks

    rows = [one(a_rel) for a_rel in a0_over_lambda]
    columns = {key: np.array([r[key] for r in rows]) for key in rows[0]}

    lam_over_a0 = 1.0 / a0_over_lambda
    fits = {}
    for key, col in columns.items():
        good = col > 0
        if good.sum() < 3:
            fits[key] = {"exponent": math.nan, "residual": math.nan,
                         "excluded_two_largest_a0": False,
                         "points_used": int(good.sum())}
            continue
        x, y = lam_over_a0[good], col[good]
        n_all, r_all = fit_power_law(x, y)
        # optionally drop the two largest radii (smallest lambda/a0 values);
        # a two-point remainder has zero residual by construction, so the
        # halving criterion is only meaningful with three or more points
        keep = np.argsort(x)[2:]
        if keep.size >= 3:
            n_trim, r_trim = fit_power_law(x[keep], y[keep])
        else:
            n_trim, r_trim = n_all, math.inf
        if r_trim < 0.5 * r_all:
            fits[key] = {"exponent": n_trim, "residual": r_trim,
                         "excluded_two_largest_a0": True,
                         "points_used": int(keep.size)}
        else:
            fits[key] = {"exponent": n_all, "residual": r_all,
                         "excluded_two_largest_a0": False,
                         "points_used": int(x.size)}

    meta = {
        "scenario": "size_scaling_sweep",
        "gauges": list(gauges),
        "peak_samples": int(peak_samples),
        "chi0_internal": scatterer.chi0,
        "omega0_internal": scatterer.omega0,
        "phi_internal": pulse.phi,
        "tau_internal": pulse.tau,
        "fits": fits,
    }
    return SweepResult("a0_over_lambda", a0_over_lambda, columns, meta)


# ---------------------------------------------------------------------------
# validation suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """One oracle outcome: measured error vs tolerance."""

    name: str
    error: float
    tolerance: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: error {self.error:.3e} (tol {self.tolerance:.0e}) {self.detail}"


def _check(name: str, error: float, tol: float, detail: str = "") -> CheckResult:
    err = float(abs(error))
    return CheckResult(name, err, tol, bool(err < tol), detail)


def _sokhotski_plemelj_error() -> float:
    """Brute-force eta -> 0 limit of 1/(k - p - i eta) vs PV - i pi delta."""
    width = 0.1
    p = 1.0
    a, b = 0.5, 1.5

    def f(k):
        return np.exp(-np.square(k - p) / (2.0 * width**2)) * (1.0 + 0.3 * (k - p))

    def smeared(eta: float) -> complex:
        # substitute k = p + eta sinh(u): the integrand becomes smooth
        u_lo, u_hi = -math.asinh((p - a) / eta), math.asinh((b - p) / eta)
        u = np.linspace(u_lo, u_hi, 40001)
        k = p + eta * np.sinh(u)
        integrand = f(k) * np.cosh(u) / (np.sinh(u) + 1j)
        return np.trapezoid(integrand, u)

    etas = np.array([1e-3, 1e-4, 1e-5])
    vals = np.array([smeared(e) for e in etas])
    # Richardson in eta^2 using the two smallest values
    e1, e2 = etas[1] ** 2, etas[2] ** 2
    extrap = (vals[2] * e1 - vals[1] * e2) / (e1 - e2)

    nodes = np.linspace(a, b, 20001)
    pv = pv_integral(f, nodes, p)
    expected = pv - 1j * math.pi * f(p)
    return abs(extrap - expected) / abs(expected)


def _dense_f2_error(scatterer: Scatterer, pulse: Pulse) -> float:
    """f2 from the production grid vs a uniform-grid symmetric-excision sum."""
    spectral = qfi.SpectralPulse.from_pulse(pulse)
    integrals = qfi.FrequencyIntegrals(spectral, scatterer)
    grid = spectral.grid
    i_near = int(np.argmin(np.abs(grid.nodes - 1.2)))
    p = float(grid.nodes[i_near])
    f2_grid = integrals.eval(0.0)["f2"][i_near]

    # independent dense evaluation at the same p
    n = 100001
    k = np.linspace(0.5, 1.5, n)
    dk = k[1] - k[0]
    shift = (p - k[0]) % dk           # place the pole exactly on a node
    k = k + shift
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
    chi_p = float(scatterer.chi(p))
    alpha_p = alpha[i_p]
    f2_dense = p**1.5 * xi_p * ((plus + pv) / (2.0 * math.pi)
                                - 0.5j * np.sqrt(p) * xi_p * chi_p * alpha_p)
    return abs(f2_grid - f2_dense) / abs(f2_dense)


def _poisson_fi_error(scatterer: Scatterer, pulse: Pulse) -> float:
    """Pixel-sum FI vs explicit Poisson-likelihood FI on a 3x3 toy detector."""
    from scipy.stats import poisson

    coords = np.linspace(-2.0, 2.0, 3)
    xs, ys = np.meshgrid(coords, coords, indexing="ij")
    z = 2.0 * _TWO_PI
    positions = np.column_stack([xs.ravel(), ys.ravel(), np.full(9, z)])
    areas = np.full(9, (coords[1] - coords[0]) ** 2)
    grid = detector.PixelGrid(positions, areas)
    nbar, grad = fisher.count_gradients(grid, scatterer, pulse)
    direct = fisher.poisson_fi(nbar, grad)

    ns = np.arange(0, 201)
    brute = np.zeros((4, 4))
    for i in range(nbar.size):
        pmf = poisson.pmf(ns, nbar[i])
        score = ns / nbar[i] - 1.0          # d log P / d nbar
        fisher_scalar = np.sum(pmf * score**2)
        brute += fisher_scalar * np.outer(grad[i], grad[i])
    scale = np.abs(direct).max()
    return float(np.abs(direct - brute).max() / scale)


def _position_gradient_error(pulse: Pulse) -> float:
    """Central differences of the counts under a shifted source position vs
    the closed-form position columns of ``count_gradients``.

    Worst error over the x0, y0 and z0 columns, relative to each column's
    largest magnitude, for a point and a finite source on a forward and a
    backward plate.  A strong scatterer lifts the count differences well
    above the rounding of the incident pedestal and gives the quadratic
    (scattered) part of the flux a visible share.
    """
    worst = 0.0
    for a0 in (0.0, _TWO_PI / 30.0):
        scat = Scatterer(chi0=0.5, a0=a0)
        for z in (0.3 * _TWO_PI, -0.3 * _TWO_PI):
            grid = detector.planar_grid(z, math.pi)
            _, grad = fisher.count_gradients(grid, scat, pulse)
            h = 1e-4 * min(_TWO_PI, abs(z))
            for axis in range(3):
                shift = np.zeros(3)
                shift[axis] = h
                up = fisher.mean_counts(grid, replace(scat, r0=tuple(shift)),
                                        pulse)
                dn = fisher.mean_counts(grid, replace(scat, r0=tuple(-shift)),
                                        pulse)
                col = grad[:, 1 + axis]
                err = np.abs((up - dn) / (2.0 * h) - col).max()
                worst = max(worst, float(err / np.abs(col).max()))
    return worst


def _energy_conservation_error(scatterer: Scatterer) -> float:
    """Scattered power through a far sphere vs the total cross section."""
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


def _mode_field_error(scatterer: Scatterer, rho: float) -> float:
    """Mode-integral field vs closed-form regularized field at radius rho."""
    direction = np.array([0.6, 0.48, 0.64])
    direction /= np.linalg.norm(direction)
    pts = np.array([rho * direction, [0.0, 0.0, rho], [rho, 0.0, 0.0]])
    e_mode, b_mode = qfi.mode_integral_field(pts, scatterer)
    closed = fields.scattered_regularized(pts, scatterer)
    num = np.linalg.norm(e_mode - closed.e, axis=-1) \
        + np.linalg.norm(b_mode - closed.b, axis=-1)
    den = np.linalg.norm(closed.e, axis=-1) + np.linalg.norm(closed.b, axis=-1)
    return float(np.max(num / den))


def validate_suite(level: str = "quick") -> list:
    """Run the numerical-oracle battery; returns a list of CheckResult.

    ``quick`` covers every oracle at standard settings; ``full`` adds the
    long-pulse far-field consistency checks.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    checks = []

    # --- quadrature oracles ---------------------------------------------
    nodes = np.linspace(0.0, 3.0, 3001)
    pv = pv_integral(lambda k: np.ones_like(k), nodes, 1.0)
    checks.append(_check("pv_analytic_log", pv - math.log(2.0), 1e-8,
                         "PV of 1/(k-1) over [0,3]"))

    sym = np.linspace(-4.0, 4.0, 4001) + 1.0
    pv0 = pv_integral(lambda k: np.exp(-np.square(k - 1.0)), sym, 1.0)
    checks.append(_check("pv_odd_symmetry", pv0, 1e-10,
                         "symmetric Gaussian about the pole"))

    checks.append(_check("sokhotski_plemelj_limit", _sokhotski_plemelj_error(),
                         1e-4, "eta->0 brute force vs PV - i pi delta"))

    g = SinhGrid()
    ga = np.exp(-np.square(g.nodes - 1.0) * 50.0)
    hb = 1.0 / (1.0 + g.nodes)
    prod = (ga @ g.weights) * (hb @ g.weights)
    tensor = (g.weights * ga) @ np.outer(np.ones(g.size), hb) @ g.weights
    checks.append(_check("double_integral_separable",
                         (tensor - prod) / prod, 1e-10,
                         "tensor-product quadrature factorizes"))

    # --- quantum-model oracles -------------------------------------------
    us_chi = 13.0e-27 * (2.0 * math.pi / 532e-9) ** 3
    scat_532 = Scatterer(chi0=us_chi, a0=_TWO_PI / 30.0, omega0=5.32)
    pulse_200 = Pulse(phi=1.0, tau=200.0)
    checks.append(_check("f2_dense_grid", _dense_f2_error(scat_532, pulse_200),
                         1e-4, "sinh-grid vs 1e5-node uniform excision"))

    # --- classical oracles ------------------------------------------------
    us_chi_1030 = 13.0e-27 * (2.0 * math.pi / 1.03e-6) ** 3
    scat = Scatterer(chi0=us_chi_1030, omega0=10.3)
    pulse = Pulse(phi=5e17, tau=100.0)
    grid = detector.planar_grid(2.0 * _TWO_PI, math.pi, refinement=1)
    nbar, grad = fisher.count_gradients(grid, scat, pulse)
    # the counts are an exact quadratic in chi0, so the central difference is
    # exact at any step; a large step avoids cancellation against the
    # incident-light pedestal in the counts
    h = 0.5 * scat.chi0
    nb_p = fisher.mean_counts(grid, replace(scat, chi0=scat.chi0 + h), pulse)
    nb_m = fisher.mean_counts(grid, replace(scat, chi0=scat.chi0 - h), pulse)
    fd = (nb_p - nb_m) / (2.0 * h)
    denom = np.abs(grad[:, 0]).max()
    checks.append(_check("fd_vs_analytic_chi_gradient",
                         np.abs(fd - grad[:, 0]).max() / denom, 1e-6,
                         "finite difference vs exact quadratic derivative"))
    checks.append(_check("fd_vs_analytic_position_gradient",
                         _position_gradient_error(pulse), 1e-6,
                         "shifted-r0 counts vs closed-form columns"))

    checks.append(_check("energy_conservation", _energy_conservation_error(scat),
                         5e-3, "far-sphere power vs cross section"))

    # keep the per-pixel means at O(10) counts so the explicit likelihood sum
    # to n = 200 captures the whole distribution
    checks.append(_check("poisson_likelihood_fi",
                         _poisson_fi_error(scat, Pulse(phi=5.0, tau=100.0)),
                         1e-8, "3x3 toy detector, counts to 200"))

    # --- quantum-classical agreement -------------------------------------
    radii = [5.0 * scat_532.a0] if level == "quick" \
        else [5.0 * scat_532.a0, _TWO_PI / 10.0, _TWO_PI]
    worst = max(_mode_field_error(scat_532, rho) for rho in radii)
    checks.append(_check("mode_integral_field", worst, 1e-3,
                         f"radii checked: {len(radii)}"))

    # --- transient identity ----------------------------------------------
    spectral = qfi.SpectralPulse.from_pulse(pulse_200)
    series = qfi.qfi_matrix(scat_532, spectral, [0.0])
    nsc = qfi.nsc_series(scat_532, spectral, [0.0])[0]
    ident = series.j[0, 0, 0] * scat_532.chi0**2 / (4.0 * nsc) - 1.0
    checks.append(_check("transient_photon_identity", ident, 1e-2,
                         "J00 vs scattered-photon count at t=0"))

    # --- far-field constants ----------------------------------------------
    stated = np.array([0.5, 0.1779, 0.1258, 0.0672])
    consts = qfi.farfield_qcrb_constants()
    checks.append(_check("farfield_qcrb_constants",
                         np.abs(consts - stated).max(), 1e-4,
                         "closed-form constants to 4 decimals"))

    if level == "full":
        t5 = 5.0 * pulse_200.tau
        series5 = qfi.qfi_matrix(scat_532, spectral, [t5])
        ff = qfi.farfield_qfi(scat_532, pulse_200.phi)
        diag5 = np.diag(series5.j[0])
        rel = np.abs(diag5 / np.diag(ff) - 1.0).max()
        checks.append(_check("dynamic_farfield_match", rel, 3e-2,
                             "assembled QFI at t=5 tau vs closed form"))

        series5c = qfi.qfi_matrix(scat_532, spectral, [t5], gauge="coulomb")
        gauge_rel = np.abs(np.diag(series5c.j[0]) / diag5 - 1.0).max()
        checks.append(_check("gauge_farfield_equality", gauge_rel, 2e-2,
                             "multipolar vs coulomb at t=5 tau"))

        grid2 = detector.planar_grid(2.0 * _TWO_PI, math.pi, refinement=2)
        info1 = fisher.fi_matrix(grid, scat, pulse)
        info2 = fisher.fi_matrix(grid2, scat, pulse)
        conv = np.abs(info2.errors() / info1.errors() - 1.0).max()
        checks.append(_check("crb_refinement_convergence", conv, 1e-2,
                             "CRB change on pixel-density doubling"))

        osum = detector.solid_angle_sum(grid)
        checks.append(_check("planar_solid_angle_sum",
                             osum / math.pi - 1.0, 5e-3,
                             "pixel solid angles vs target"))
    return checks
