"""Sweep pipelines: CRB vs distance, QFI vs time, QFI vs source size.

Functions here wire the field/detector/information modules into the
paper's parameter scans and produce :class:`SweepResult` tables ready for CSV
export.  The caller gives every scan value; the command line's defaults are
the paper's scans.  Everything works in internal units (drive wavenumber 1);
unit conversion and figure styling live in the command-line layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import detector, fisher, qfi
from .model import Pulse, Scatterer
from .quadrature import SinhGrid

__all__ = [
    "SweepResult",
    "crb_distance_sweep",
    "qfi_time_sweep",
    "qfi_time_sweeps",
    "size_scaling_sweep",
    "fit_power_law",
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


def _physics_meta(scatterer: Scatterer, pulse: Pulse) -> dict:
    """The internal-unit parameters that every sweep's metadata echoes."""
    return {"chi0_internal": scatterer.chi0,
            "omega0_internal": scatterer.omega0,
            "phi_internal": pulse.phi, "tau_internal": pulse.tau}


# ---------------------------------------------------------------------------
# CRB vs detector distance
# ---------------------------------------------------------------------------

def default_distance_axis(lo: float, hi: float,
                          per_decade: int) -> np.ndarray:
    """Log-spaced |Z|/lambda axis from ``lo`` to ``hi``, ``per_decade``
    points per decade."""
    n = max(2, round(per_decade * math.log10(hi / lo)) + 1)
    return np.geomspace(lo, hi, n)


def crb_distance_sweep(scatterer: Scatterer, pulse: Pulse,
                       solid_angle: float, z_over_lambda: np.ndarray,
                       finite_a0: float, refinement: int) -> SweepResult:
    """Normalized CRBs vs detector distance for a planar detector.

    Three detector placements are evaluated at every distance: forward
    point-dipole, backward point-dipole, and forward with a finite-size
    source of radius ``finite_a0`` (regularized field).  Each distance
    builds one plate, whose mirror image through ``z = 0`` is the backward
    one, and :func:`~dipolebounds.fisher.fi_matrices` evaluates the three
    placements on it in one pass.  Columns carry the
    dimensionless bounds ``sqrt(N_sc) sigma_chi / chi0`` and
    ``sqrt(N_sc) sigma_r / lambda``; the far-field quantum bounds are
    appended as constant reference columns.
    """
    z_over_lambda = np.asarray(z_over_lambda, dtype=float)
    point = replace(scatterer, a0=0.0)
    finite = replace(scatterer, a0=finite_a0)
    placements = ((point, 1.0), (point, -1.0), (finite, 1.0))

    bounds, sizes = [], []
    for z_rel in z_over_lambda:
        # one plate per distance; the backward placement is its mirror image
        grid = detector.planar_grid(z_rel * _TWO_PI, solid_angle, refinement)
        infos = fisher.fi_matrices(grid, placements, pulse)
        bounds.append([fisher.crb_bounds(info, scat, pulse).normalized
                       for info, (scat, _) in zip(infos, placements)])
        sizes.append(grid.size)
        del grid        # freed before the next plate is built
    fwd, bwd, fin = np.moveaxis(np.array(bounds), 1, 0)
    cells = np.sqrt(np.array(sizes, dtype=float))
    qcrb = np.tile(qfi.farfield_qcrb_constants(), (z_over_lambda.size, 1))

    columns = {}
    for label, table in (("crb_{}_norm_fwd", fwd), ("crb_{}_norm_bwd", bwd),
                         ("crb_{}_norm_finite", fin), ("qcrb_{}_norm", qcrb)):
        for j, name in enumerate(("chi", "x", "y", "z")):
            columns[label.format(name)] = table[:, j]
    columns["cells_per_axis"] = cells

    meta = {
        "scenario": "crb_distance_sweep",
        "solid_angle": float(solid_angle),
        "finite_a0_internal": float(finite_a0),
        "refinement": int(refinement),
        **_physics_meta(scatterer, pulse),
        "n_sc": fisher.n_scattered(point, pulse),
        "pixels": len(placements) * sum(sizes),
    }
    return SweepResult("z_over_lambda", z_over_lambda, columns, meta)


# ---------------------------------------------------------------------------
# QFI vs time
# ---------------------------------------------------------------------------

def _paired_linspace(t0: float, t1: float, n: int) -> np.ndarray:
    """``np.linspace(t0, t1, n)`` with every ``-t`` the exact negative of a
    ``+t`` where the lattice is symmetric about ``t = 0``.

    With ``h`` the step and ``j2 = round(-2 t0 / h)``, the lattice is
    symmetric when ``2 t0 + j2 h`` vanishes to rounding; then each pair of
    samples ``(j, j2 - j)`` is set to ``-+`` the mean of its two
    magnitudes, and an on-lattice zero (``j2`` even) to 0.0.  A sample moves
    by at most half its pair's gap and a rounding.  Otherwise, and for
    fewer than two samples or an empty span, the samples are
    ``np.linspace``'s.  :func:`~dipolebounds.qfi.qfi_matrices` makes one
    product row per pair.
    """
    times = np.linspace(t0, t1, n)
    if n < 2 or t0 == t1:
        return times
    h = (t1 - t0) / (n - 1)
    j2 = round(-2.0 * t0 / h)
    symmetric = abs(2.0 * t0 + j2 * h) <= 8e-16 * max(-t0, t1)
    if symmetric and 0 <= j2 <= 2 * (n - 1):
        j = np.arange(max(0, j2 - n + 1), (j2 + 1) // 2)
        mean = 0.5 * (times[j2 - j] - times[j])
        times[j], times[j2 - j] = -mean, mean
        if j2 % 2 == 0:
            times[j2 // 2] = 0.0
    return times


def default_time_axis(pulse: Pulse, samples_per_period: int,
                      span: tuple) -> np.ndarray:
    """Times covering ``span`` (in units of tau) at ``samples_per_period``
    per optical period, paired about ``t = 0`` by :func:`_paired_linspace`.

    qfi-time's span of -3 to 5 tau at 8 samples per period gives the
    24 fs, 1030 nm pulse 449 times, 281 distinct ``|t|``, and no sample
    farther from ``np.linspace``'s than 1.3e-16 of the largest ``|t|``.
    """
    t0, t1 = span[0] * pulse.tau, span[1] * pulse.tau
    n = max(2, int(math.ceil((t1 - t0) / _TWO_PI * samples_per_period)) + 1)
    return _paired_linspace(t0, t1, n)


def qfi_time_sweep(scatterer: Scatterer, pulse: Pulse, times: np.ndarray,
                   gauges: tuple, corrections: bool, normalize: bool,
                   grid: SinhGrid) -> SweepResult:
    """Time-resolved QFI entries (and scattered photon number) for one pulse.

    With ``normalize=True`` every diagonal entry is divided by its analytic
    long-time value, the chi0/z0 cross entry by the geometric mean of its
    diagonal partners, and the photon number by its asymptotic total.  The
    one-pulse case of :func:`qfi_time_sweeps`.
    """
    return qfi_time_sweeps([(scatterer, pulse, times)], gauges, corrections,
                           normalize, grid)[0]


def qfi_time_sweeps(runs, gauges: tuple, corrections: bool,
                    normalize: bool, grid: SinhGrid) -> list:
    """:func:`qfi_time_sweep` of several ``(scatterer, pulse, times)`` runs
    on one grid, one :class:`SweepResult` per run, in order.

    The grid's band operators are built once for all runs: first the
    photon-number oracle's, by :func:`~dipolebounds.qfi.nsc_series_list`,
    which frees them on return, and then the QFI's transforms, by
    :func:`~dipolebounds.qfi.share_transforms`, so the two are never held
    together.  Each run's columns are the ones it gets alone, bit for bit,
    but for a photon number moved through its band's edge nodes (see
    :func:`~dipolebounds.qfi.nsc_series_list`).
    """
    runs = [(scatterer, pulse, np.asarray(times, dtype=float))
            for scatterer, pulse, times in runs]
    spectra = [qfi.SpectralPulse.from_pulse(pulse, grid) for _, pulse, _ in runs]
    nscs = qfi.nsc_series_list([(scatterer, spectral, times) for
                                (scatterer, _, times), spectral
                                in zip(runs, spectra)])
    qfi.share_transforms(spectra)
    results = []
    for (scatterer, pulse, times), spectral, nsc in zip(runs, spectra, nscs):
        scale = (np.diag(qfi.farfield_qfi(scatterer, pulse.phi)) if normalize
                 else np.ones(4))
        columns = {}
        for gauge in gauges:
            series = qfi.qfi_matrix(
                scatterer, spectral, times, gauge=gauge,
                corrections=corrections and gauge == "multipolar")
            diag = series.diagonal() / scale
            for j, name in enumerate(("j00", "j11", "j22", "j33")):
                columns[f"{name}_{gauge}"] = diag[:, j]
            columns[f"j03_{gauge}"] = (series.j[:, 0, 3]
                                       / math.sqrt(scale[0] * scale[3]))
        nsc_total = fisher.n_scattered(scatterer, pulse)
        columns["nsc"] = nsc / nsc_total if normalize else nsc

        meta = {
            "scenario": "qfi_time_sweep",
            "gauges": list(gauges),
            "corrections": bool(corrections),
            "normalize": bool(normalize),
            **_physics_meta(scatterer, pulse),
            "a0_internal": scatterer.a0,
            "modes": grid.size,
            "nsc_total": nsc_total,
            "times": times.size,
            # qfi_matrices' product rows per transform
            "product_rows": qfi._time_pairs(times)[0].size,
        }
        results.append(SweepResult("t_internal", times, columns, meta))
    return results


# ---------------------------------------------------------------------------
# QFI vs source size
# ---------------------------------------------------------------------------

def fit_power_law(x: np.ndarray, y: np.ndarray) -> tuple:
    """Least-squares exponent of ``y ~ x**n``: returns (n, rms residual).

    The straight line through ``(log x, log y)``, in closed form about the
    means.  It makes no LAPACK call: the first one in a process raised
    ``size-scan``'s peak RSS by about 0.8 MB.
    """
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    dx, dy = lx - lx.mean(), ly - ly.mean()
    slope = (dx @ dy) / (dx @ dx)
    resid = dy - slope * dx
    return float(slope), float(np.sqrt(np.mean(resid**2)))


def size_scaling_sweep(scatterer: Scatterer, pulse: Pulse,
                       a0_over_lambda: np.ndarray, gauges: tuple,
                       peak_samples: int, grid: SinhGrid) -> SweepResult:
    """Peak transient QFI vs source size, with fitted power-law exponents.

    For each radius the QFI entries are sampled at ``peak_samples`` times
    over a window of one half-period around the pulse peak (the transient
    beats at twice the carrier, so the window is guaranteed to contain a
    crest) and the largest magnitude is recorded (``peak_*`` columns).  The window is
    :func:`_paired_linspace`'s, so every ``-t`` pairs with a ``+t``, and
    5 tau is appended for the late-time value.  All radii in all gauges go
    to one :func:`~dipolebounds.qfi.qfi_matrices` call: size-scan's 8 radii
    in 2 gauges cost 16 x 34 product rows per transform for its 66 times.
    Because at the envelope center only half the pulse has scattered, the
    on-shell pedestal under the peak equals half the late-time value;
    subtracting it isolates the transient enhancement, whose size scaling
    is the quantity with a clean power law (``transient_*`` columns).
    Exponents of ``(lambda / a0)`` are fitted per column and per coupling;
    saturating entries are statements about the peak itself, so both fits
    are reported.  Following the validity analysis, the two largest radii
    are dropped from a fit when that halves its residual (recorded in the
    metadata).
    """
    a0_over_lambda = np.asarray(a0_over_lambda, dtype=float)
    times = np.append(_paired_linspace(-0.5 * math.pi, 0.5 * math.pi,
                                       peak_samples), 5.0 * pulse.tau)
    spectral = qfi.SpectralPulse.from_pulse(pulse, grid)

    # every radius in every gauge, in one call on one series
    sources = [(replace(scatterer, a0=a_rel * _TWO_PI), gauge)
               for a_rel in a0_over_lambda for gauge in gauges]
    j = np.stack([s.j for s in qfi.qfi_matrices(spectral, times, sources)])
    # (radii, gauges, times, entry) for the entries j00, j11, j33 and j03
    j = np.abs(j.reshape(a0_over_lambda.size, len(gauges), times.size, 4, 4)
               [..., [0, 1, 3, 0], [0, 1, 3, 3]])
    peak = j[:, :, :-1].max(axis=2)
    transient = peak - 0.5 * j[:, :, -1]
    columns = {f"{kind}_{name}_{gauge}": table[:, g, e]
               for g, gauge in enumerate(gauges)
               for e, name in enumerate(("j00", "j11", "j33", "j03"))
               for kind, table in (("peak", peak), ("transient", transient))}

    lam_over_a0 = 1.0 / a0_over_lambda
    fits = {}
    for key, col in columns.items():
        x, y = lam_over_a0[col > 0], col[col > 0]
        fit = fit_power_law(x, y) if x.size >= 3 else (math.nan, math.nan)
        # the two largest radii (smallest lambda/a0) go when that halves the
        # residual; a remainder under three points would fit exactly
        keep = np.argsort(x)[2:]
        trim = fit_power_law(x[keep], y[keep]) if keep.size >= 3 else None
        drop = trim is not None and trim[1] < 0.5 * fit[1]
        if drop:
            fit, x = trim, x[keep]
        fits[key] = {"exponent": fit[0], "residual": fit[1],
                     "excluded_two_largest_a0": drop,
                     "points_used": int(x.size)}

    meta = {
        "scenario": "size_scaling_sweep",
        "gauges": list(gauges),
        "peak_samples": int(peak_samples),
        **_physics_meta(scatterer, pulse),
        "fits": fits,
        "times": times.size,
        # qfi_matrices' product rows per transform and source
        "product_rows": qfi._time_pairs(times)[0].size,
    }
    return SweepResult("a0_over_lambda", a0_over_lambda, columns, meta)
