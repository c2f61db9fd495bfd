"""Acceptance battery: one test per release criterion, at stated tolerance.

Each test prints its measured numbers, so a verbose run doubles as the
acceptance report.  Two criteria encode windows or values described as
derived from the published figures.  Criterion 3 asserts its near-field
slopes over the asymptotic window of the model and prints the fit over the
figure-derived window beside it; the reason is in a comment at the test.
The j03 row of criterion 7 keeps its figure-derived exponent 3 at the stated
tolerance and fails: the program measures 1.93.  Whether the value or the
program is at fault needs the paper's full text (README, "Tests").
"""
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from dipolebounds import cli, detector, fields, fisher, qfi, scenarios
from dipolebounds.model import Pulse, Scatterer

LAM = 2.0 * math.pi


# --------------------------------------------------------------------------
# 1. closed-form far-field constants, as reported by the CLI
# --------------------------------------------------------------------------

def test_criterion_01_farfield_constants(capsys):
    assert cli.main(["farfield"]) == 0
    out = capsys.readouterr().out
    got = [float(line.rsplit("=", 1)[1])
           for line in out.splitlines() if "sigma" in line]
    stated = [0.5000, 0.1779, 0.1258, 0.0672]
    with capsys.disabled():
        print(f"\n[criterion 1] constants {got} vs stated {stated}")
    assert len(got) == 4
    for g, s in zip(got, stated):
        assert g == pytest.approx(s, abs=1e-4)


# --------------------------------------------------------------------------
# 2. assembled QFI relaxes to the closed form after the pulse
# --------------------------------------------------------------------------

def test_criterion_02_late_time_matches_closed_form(scat_532, pulse_200,
                                                    spectral_200, capsys):
    assert pulse_200.tau >= 200.0
    j = qfi.qfi_matrix(scat_532, spectral_200, [5.0 * pulse_200.tau]).j[0]
    ff = np.diag(qfi.farfield_qfi(scat_532, pulse_200.phi))
    rel = np.abs(np.diag(j) / ff - 1.0)
    r21 = j[2, 2] / j[1, 1]
    r31 = j[3, 3] / j[1, 1]
    with capsys.disabled():
        print(f"\n[criterion 2] per-entry rel dev {rel.max():.3%}; "
              f"ratios J22/J11 = {r21:.6f}, J33/J11 = {r31:.6f}")
    assert rel.max() < 0.03
    assert r21 == pytest.approx(2.0, rel=0.03)
    assert r31 == pytest.approx(7.0, rel=0.03)


# --------------------------------------------------------------------------
# 3. classical near-field scaling exponents
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def near_field_sweeps(scat_1030, pulse_1030):
    asymptotic = scenarios.crb_distance_sweep(
        scat_1030, pulse_1030, z_over_lambda=np.geomspace(0.005, 0.03, 9))
    crossover = scenarios.crb_distance_sweep(
        scat_1030, pulse_1030, z_over_lambda=np.geomspace(0.02, 0.08, 9))
    return asymptotic, crossover


@pytest.mark.slow
@pytest.mark.parametrize("param,expected", [("chi", 2.0), ("x", 3.0),
                                            ("y", 3.0), ("z", 3.0)])
def test_criterion_03_near_field_slopes(near_field_sweeps, param, expected,
                                        capsys):
    # The exponents are those of the leading 1/(k rho)^3 near-field term, so
    # they are fitted where that term dominates: up to 0.03 lambda, kZ <= 0.19
    # and the (kZ)^2 corrections stay below 4%.  Local log-slopes on 21
    # points from 0.003 to 0.3 lambda hold at 2.01 (chi) and 3.01 (x, y, z)
    # up to about 0.03 lambda.  Beyond it the chi slope falls from 2.05 to
    # 0.49 between 0.034 and 0.067 lambda, the x slope climbs to 3.6 and the
    # z slope dips to 1.96: the window 0.02-0.08 lambda (kZ from 0.13 to
    # 0.50) spans the near-to-far crossover and is reported, not asserted.
    # That window was described as read off the published distance figure.
    # The asserted window comes from the model's physics, not from the
    # paper: the figure is not in the repository, so whether its axis is in
    # lambda (as the package's z/lambda axes are) or in lambda/2pi, which
    # would put the window at 0.0032-0.0127 lambda, is unverified.
    asymptotic, crossover = near_field_sweeps
    slope, _ = scenarios.fit_power_law(
        asymptotic.axis, asymptotic.columns[f"crb_{param}_norm_fwd"])
    cross, _ = scenarios.fit_power_law(
        crossover.axis, crossover.columns[f"crb_{param}_norm_fwd"])
    with capsys.disabled():
        print(f"\n[criterion 3] {param}: slope {slope:+.4f} over the "
              f"asymptotic window [0.005, 0.03] (expected {expected} +- 0.1); "
              f"{cross:+.4f} over the figure-derived window [0.02, 0.08], "
              f"in the crossover")
    assert slope == pytest.approx(expected, abs=0.1)


# --------------------------------------------------------------------------
# 4. far-distance plateau, always above the quantum bound
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_04_far_plateau_above_qcrb(scat_1030, pulse_1030, capsys):
    sweep = scenarios.crb_distance_sweep(scat_1030, pulse_1030,
                                         z_over_lambda=[2.0, 4.5, 10.0])
    qcrb = qfi.farfield_qcrb_constants()
    worst_var, worst_ratio = 0.0, np.inf
    for group in ("fwd", "bwd", "finite"):
        for j, p in enumerate(("chi", "x", "y", "z")):
            col = sweep.columns[f"crb_{p}_norm_{group}"]
            worst_var = max(worst_var, col.max() / col.min() - 1.0)
            worst_ratio = min(worst_ratio, (col / qcrb[j]).min())
    with capsys.disabled():
        print(f"\n[criterion 4] max variation {worst_var:.3%} over [2, 10] "
              f"wavelengths; min CRB/QCRB ratio {worst_ratio:.3f}")
    assert worst_var < 0.10
    assert worst_ratio > 1.0


# --------------------------------------------------------------------------
# 5. energy conservation on a far sphere
# --------------------------------------------------------------------------

def test_criterion_05_energy_conservation(capsys):
    s = Scatterer(chi0=2.9510140911235653e-06)
    e_in, radius = 1.0, 30.0 * LAM
    x, wx = np.polynomial.legendre.leggauss(64)
    phi = 2.0 * math.pi * np.arange(128) / 128.0
    st = np.sqrt(1.0 - x ** 2)
    pts = radius * np.stack([np.outer(st, np.cos(phi)),
                             np.outer(st, np.sin(phi)),
                             np.outer(x, np.ones_like(phi))],
                            axis=-1).reshape(-1, 3)
    flux = np.sum(fields.poynting_avg(fields.scattered_point(pts, s))
                  * (pts / radius), axis=-1)
    dw = np.outer(wx, np.full(128, 2.0 * math.pi / 128.0)).ravel()
    power = radius ** 2 * (flux @ dw)
    expect = s.cross_section() * 0.5 * e_in ** 2
    with capsys.disabled():
        print(f"\n[criterion 5] radiated power off by "
              f"{abs(power / expect - 1.0):.2e} from cross section x intensity")
    assert power == pytest.approx(expect, rel=5e-3)


# --------------------------------------------------------------------------
# 6. mode-decomposition field equals the closed forms
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_06_mode_field_agreement(scat_532, capsys):
    d = np.array([0.3, -0.5, 0.8])
    d /= np.linalg.norm(d)

    errs = {}
    for rho in (5.0 * scat_532.a0, LAM / 10.0, LAM):
        pts = (rho * d)[None, :]
        e_mode, b_mode = qfi.mode_integral_field(pts, scat_532)
        ref = fields.scattered_regularized(pts, scat_532)
        errs[rho] = max(
            np.linalg.norm(e_mode - ref.e) / np.linalg.norm(ref.e),
            np.linalg.norm(b_mode - ref.b) / np.linalg.norm(ref.b))

    # shrink the source: both routes approach the ideal dipole together
    probe = (0.4 * LAM * d)[None, :]
    point = fields.scattered_point(probe, replace(scat_532, a0=0.0)).e
    closed_errs, mode_errs = [], []
    for a0 in (LAM / 30.0, LAM / 60.0, LAM / 120.0):
        small = replace(scat_532, a0=a0)
        closed = fields.scattered_regularized(probe, small).e
        e_mode, _ = qfi.mode_integral_field(probe, small)
        closed_errs.append(np.linalg.norm(closed - point) / np.linalg.norm(point))
        mode_errs.append(np.linalg.norm(e_mode - point) / np.linalg.norm(point))

    with capsys.disabled():
        print(f"\n[criterion 6] route disagreement {max(errs.values()):.2e} "
              f"at radii {sorted(errs)}; point-limit errors closed "
              f"{[f'{e:.2e}' for e in closed_errs]} / mode "
              f"{[f'{e:.2e}' for e in mode_errs]}")
    assert max(errs.values()) < 1e-3
    assert closed_errs[0] > closed_errs[1] > closed_errs[2]
    assert mode_errs[0] > mode_errs[1] > mode_errs[2]
    for c, m in zip(closed_errs, mode_errs):
        assert m == pytest.approx(c, rel=0.5)


# --------------------------------------------------------------------------
# 7. transient size-scaling exponents
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def size_fits(scat_532, pulse_200):
    sweep = scenarios.size_scaling_sweep(scat_532, pulse_200)
    return sweep.meta["fits"]


@pytest.mark.parametrize("key,expected,tol", [
    ("transient_j11_multipolar", 4.0, 0.2),
    ("transient_j00_multipolar", 2.0, 0.2),
    ("transient_j03_multipolar", 3.0, 0.3),
    ("transient_j11_coulomb", 2.0, 0.2),
    ("peak_j00_coulomb", 0.0, 0.2),
])
def test_criterion_07_size_exponents(size_fits, key, expected, tol, capsys):
    got = size_fits[key]["exponent"]
    with capsys.disabled():
        print(f"\n[criterion 7] {key}: exponent {got:+.4f} "
              f"(expected {expected} +- {tol}, "
              f"residual {size_fits[key]['residual']:.2e})")
    assert got == pytest.approx(expected, abs=tol)


# --------------------------------------------------------------------------
# 8. polarizability information counts scattered photons at all times
# --------------------------------------------------------------------------

def test_criterion_08_transient_identity(scat_532, pulse_200, spectral_200,
                                         capsys):
    times = np.linspace(-pulse_200.tau, 2.0 * pulse_200.tau, 10)
    j00 = qfi.qfi_matrix(scat_532, spectral_200, times).j[:, 0, 0]
    nsc = qfi.nsc_series(scat_532, spectral_200, times)
    rel = np.abs(j00 * scat_532.chi0 ** 2 / (4.0 * nsc) - 1.0)
    with capsys.disabled():
        print(f"\n[criterion 8] identity deviation {rel.max():.2e} "
              f"over 10 times in [-tau, 2 tau]")
    assert rel.max() < 0.01


# --------------------------------------------------------------------------
# 9. covariance corrections are negligible at the reference point
# --------------------------------------------------------------------------

def test_criterion_09_correction_magnitude(scat_532, spectral_200, pulse_200,
                                           capsys):
    times = np.linspace(-2.0 * pulse_200.tau, 2.0 * pulse_200.tau, 9)
    plain = qfi.qfi_matrix(scat_532, spectral_200, times)
    corr = qfi.qfi_matrix(scat_532, spectral_200, times, corrections=True)
    rel00 = np.abs(corr.j[:, 0, 0] / plain.j[:, 0, 0] - 1.0).max()
    rel33 = np.abs(corr.j[:, 3, 3] / plain.j[:, 3, 3] - 1.0).max()
    # the cross entry passes through zero, so measure it against its
    # natural scale rather than against itself
    scale03 = np.sqrt(plain.j[:, 0, 0] * plain.j[:, 3, 3])
    rel03 = (np.abs(corr.j[:, 0, 3] - plain.j[:, 0, 3]) / scale03).max()
    with capsys.disabled():
        print(f"\n[criterion 9] relative corrections: "
              f"j00 {rel00:.2e}, j33 {rel33:.2e}, j03 {rel03:.2e}")
    assert rel00 <= 1e-5
    assert rel33 <= 1e-5
    assert rel03 <= 1e-5


# --------------------------------------------------------------------------
# 10. quadrature and likelihood oracles
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name,tolerance", [
    ("pv_analytic_log", 1e-8),
    ("sokhotski_plemelj_limit", 1e-4),
    ("poisson_likelihood_fi", 1e-8),
    ("fd_vs_analytic_chi_gradient", 1e-6),
])
def test_criterion_10_oracles(quick_checks, name, tolerance, capsys):
    check = next(c for c in quick_checks if c.name == name)
    with capsys.disabled():
        print(f"\n[criterion 10] {check.line()}")
    assert check.tolerance == tolerance
    assert check.passed


# --------------------------------------------------------------------------
# 11. structural invariants
# --------------------------------------------------------------------------

def test_criterion_11_structure_and_linearity(scat_532, pulse_200,
                                              spectral_200, scat_1030,
                                              pulse_1030, capsys):
    times = [-50.0, 0.0, 400.0]
    series = qfi.qfi_matrix(scat_532, spectral_200, times)
    worst_sym, worst_eig, worst_ratio, worst_cross = 0.0, 0.0, 0.0, 0.0
    for j in series.j:
        scale = np.abs(np.diag(j)).max()
        worst_sym = max(worst_sym, np.abs(j - j.T).max() / scale)
        worst_eig = max(worst_eig, -np.linalg.eigvalsh(j)[0] / scale)
        worst_ratio = max(worst_ratio, abs(j[2, 2] / j[1, 1] - 2.0))
        worst_cross = max(worst_cross, abs(j[0, 1]) / scale,
                          abs(j[0, 2]) / scale)

    # information is linear in the fluence, for every pipeline
    bright_pulse = Pulse(phi=2.0, tau=pulse_200.tau)
    bright = qfi.SpectralPulse.from_pulse(bright_pulse)
    lin = [np.abs(qfi.qfi_matrix(scat_532, bright, [0.0]).j[0, 1, 1]
                  / (2.0 * series.j[1, 1, 1]) - 1.0)]
    lin.append(abs(qfi.nsc_series(scat_532, bright, [400.0])[0]
                   / (2.0 * qfi.nsc_series(scat_532, spectral_200, [400.0])[0])
                   - 1.0))
    grid = detector.planar_grid(0.3 * LAM, math.pi)
    info = fisher.fi_matrix(grid, scat_1030, pulse_1030)   # PSD-validated
    brighter = Pulse(phi=2.0 * pulse_1030.phi, tau=pulse_1030.tau)
    info2 = fisher.fi_matrix(grid, scat_1030, brighter)
    # ratio only the structurally nonzero entries; the symmetry-forbidden
    # ones hold finite-difference dust that does not scale with anything
    live = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 3)]
    lin.append(max(abs(info2.matrix[i, j] / (2.0 * info.matrix[i, j]) - 1.0)
                   for i, j in live))
    lin.append(abs(fisher.n_scattered(scat_1030, brighter)
                   / (2.0 * fisher.n_scattered(scat_1030, pulse_1030)) - 1.0))

    with capsys.disabled():
        print(f"\n[criterion 11] asymmetry {worst_sym:.1e}, "
              f"most negative eigenvalue {worst_eig:.1e}, "
              f"|J22/J11 - 2| {worst_ratio:.1e}, "
              f"stray cross terms {worst_cross:.1e}, "
              f"fluence nonlinearity {max(lin):.1e}")
    assert worst_sym == 0.0
    assert worst_eig < 1e-10
    assert worst_ratio < 1e-12
    assert worst_cross < 1e-10
    assert max(lin) < 1e-10


# --------------------------------------------------------------------------
# 12. two-color transient enhancement, reported for manual comparison
# --------------------------------------------------------------------------

def test_criterion_12_two_color_report(tmp_path, capsys):
    out = tmp_path / "fig3"
    assert cli.main(["qfi-time", "--preset", "fig3", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "data.csv").read_text().strip().splitlines()
    names = lines[0].split(",")
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    report = ["[criterion 12] transient position-information enhancement"
              " (reported, not asserted):"]
    peaks = {}
    for tag in ("1030nm", "4500nm"):
        col = table[:, names.index(f"j11_per_um2_multipolar_{tag}")]
        peaks[tag] = np.abs(col).max()
        report.append(f"  {tag}: peak/late = {np.abs(col).max() / abs(col[-1]):.3f}")
    report.append(f"  peak J11 ratio 1030nm/4500nm = "
                  f"{peaks['1030nm'] / peaks['4500nm']:.4f}")
    config = json.loads((out / "config.resolved.json").read_text())
    assert config["_meta"]["subcommand"] == "qfi-time"
    with capsys.disabled():
        print("\n" + "\n".join(report))
