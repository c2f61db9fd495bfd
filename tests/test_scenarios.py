"""Sweep drivers, and the validation battery that runs the oracle table."""
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from dipolebounds import cli, detector, fields, qfi
from dipolebounds.detector import planar_grid
from dipolebounds.fisher import crb_bounds, fi_matrix
from dipolebounds.model import Pulse, UnitSystem
from dipolebounds.oracles import ORACLES
from dipolebounds.qfi import farfield_qcrb_constants
from dipolebounds.quadrature import SinhGrid
from dipolebounds.scenarios import (
    SweepResult,
    _paired_linspace,
    crb_distance_sweep,
    default_distance_axis,
    default_time_axis,
    fit_power_law,
    qfi_time_sweep,
    qfi_time_sweeps,
    size_scaling_sweep,
)

LAM = 2.0 * math.pi


class TestSweepResult:
    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="length"):
            SweepResult("x", [1.0, 2.0], {"y": [1.0, 2.0, 3.0]})

    def test_table_layout(self):
        r = SweepResult("x", [1.0, 2.0], {"y": [3.0, 4.0], "z": [5.0, 6.0]})
        assert r.column_names == ["x", "y", "z"]
        np.testing.assert_array_equal(r.table(),
                                      [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])


def test_fit_power_law_recovers_exponent():
    x = np.geomspace(1.0, 30.0, 9)
    n, resid = fit_power_law(x, 3.7 * x ** 2.5)
    assert n == pytest.approx(2.5, abs=1e-12)
    assert resid < 1e-12
    # mild multiplicative noise moves the exponent only slightly
    rng = np.random.default_rng(3)
    n2, _ = fit_power_law(x, 3.7 * x ** 2.5 * np.exp(rng.normal(0, 0.02, 9)))
    assert n2 == pytest.approx(2.5, abs=0.1)


def test_fit_power_law_is_the_polyfit_line():
    # the closed-form fit is np.polyfit's degree-1 least squares in log-log,
    # exponent and rms residual, on noisy data over decades of x
    rng = np.random.default_rng(11)
    for size in (3, 8, 40):
        x = np.geomspace(0.3, 400.0, size)
        y = 2.1 * x ** -1.7 * np.exp(rng.normal(0.0, 0.3, size))
        lx, ly = np.log(x), np.log(y)
        coef = np.polyfit(lx, ly, 1)
        rms = np.sqrt(np.mean((ly - np.polyval(coef, lx)) ** 2))
        n, resid = fit_power_law(x, y)
        assert n == pytest.approx(coef[0], rel=1e-12)
        assert resid == pytest.approx(rms, rel=1e-12)


def test_default_axes(pulse_200, paper_scan):
    z = default_distance_axis(*paper_scan.distance_axis)
    assert z[0] == pytest.approx(0.02) and z[-1] == pytest.approx(10.0)
    assert z.size == 109  # 40 per decade over 2.7 decades
    t = default_time_axis(pulse_200, *paper_scan.time_axis)
    assert t[0] == -3.0 * pulse_200.tau and t[-1] == 5.0 * pulse_200.tau
    # 8 samples per optical period resolves the 2-omega transient
    assert t.size > 8.0 * (t[-1] - t[0]) / (2.0 * math.pi)


class TestDefaultTimeAxis:
    @pytest.mark.parametrize("preset", [None, "fig3"])
    def test_mirrored_about_zero(self, preset):
        # the qfi-time axis of the 24 fs, 1030 nm pulse: 0 is sample 168 of
        # np.linspace's 449, and every -t in the overlap is an exact -(+t)
        cfg = cli.resolve_config(None, preset, None)
        _, _, pulse = cli.build_physics(cfg)
        run = cfg["run"]
        t = default_time_axis(pulse, run["samples_per_period"],
                              (run["t_min_over_tau"], run["t_max_over_tau"]))
        assert t.size == 449 and t[168] == 0.0
        overlap = t[np.abs(t) <= -t[0]]
        assert overlap.size == 2 * 168 + 1
        assert np.all(np.isin(-overlap, t))
        line = np.linspace(-3.0 * pulse.tau, 5.0 * pulse.tau, t.size)
        assert np.abs(t - line).max() <= 2.2e-16 * np.abs(t).max()
        assert len(set(np.abs(t).tolist())) == 281

    def test_lattice_without_zero_is_linspace(self, paper_scan):
        # at 532 nm the 24 fs pulse's 867 samples miss t = 0
        tau = UnitSystem.from_wavelength_nm(532.0).time_to_internal(24e-15)
        t = default_time_axis(Pulse(phi=1.0, tau=tau), *paper_scan.time_axis)
        assert t.size == 867 and not np.any(t == 0.0)
        line = np.linspace(-3.0 * tau, 5.0 * tau, 867)
        assert t.tobytes() == line.tobytes()


class TestPairedLinspace:
    @pytest.mark.parametrize("n,distinct", [(5, 3), (6, 3), (17, 9), (65, 33)])
    def test_peak_window_pairs(self, n, distinct):
        # size-scan's half-period window about the pulse peak
        t = _paired_linspace(-0.5 * math.pi, 0.5 * math.pi, n)
        assert np.all(np.isin(-t, t))
        line = np.linspace(-0.5 * math.pi, 0.5 * math.pi, n)
        assert np.abs(t - line).max() <= 2.2e-16 * np.abs(t).max()
        assert len(set(np.abs(t).tolist())) == distinct
        assert (0.0 in t) == (n % 2 == 1)

    def test_half_integer_lattice_pairs_without_zero(self):
        # -2.5 .. 3.5 in unit steps: 0 lies between two samples
        t = _paired_linspace(-2.5, 3.5, 7)
        assert not np.any(t == 0.0)
        np.testing.assert_array_equal(t[:6], -t[:6][::-1])
        assert t[-1] == 3.5
        assert len(set(np.abs(t).tolist())) == 4

    def test_one_sample_is_linspace(self, scat_532, pulse_200):
        t = _paired_linspace(-0.5 * math.pi, 0.5 * math.pi, 1)
        assert t.tolist() == [-0.5 * math.pi]
        sweep = size_scaling_sweep(scat_532, pulse_200,
                                   [1 / 120, 1 / 60, 1 / 30], ("multipolar",),
                                   peak_samples=1, grid=SinhGrid())
        assert sweep.meta["times"] == 2

    def test_empty_span_is_linspace(self, pulse_200):
        t = default_time_axis(pulse_200, 8, (1.0, 1.0))
        assert t.tolist() == [pulse_200.tau, pulse_200.tau]


@pytest.fixture(scope="module")
def two_point_sweep(scat_1030, pulse_1030, paper_scan):
    return crb_distance_sweep(scat_1030, pulse_1030, z_over_lambda=[0.4, 0.8],
                              **paper_scan.crb)


class TestCrbDistanceSweep:
    @pytest.fixture
    def sweep(self, two_point_sweep):
        return two_point_sweep

    def test_columns_complete(self, sweep):
        names = set(sweep.columns)
        for group in ("fwd", "bwd", "finite"):
            for p in ("chi", "x", "y", "z"):
                assert f"crb_{p}_norm_{group}" in names
        assert "cells_per_axis" in names
        assert sweep.axis_name == "z_over_lambda"
        assert np.all(sweep.table() > 0)

    def test_quantum_reference_columns_are_constant(self, sweep):
        qcrb = farfield_qcrb_constants()
        for j, p in enumerate(("chi", "x", "y", "z")):
            np.testing.assert_array_equal(sweep.columns[f"qcrb_{p}_norm"],
                                          qcrb[j])

    def test_classical_bounds_respect_the_quantum_ones(self, sweep):
        for group in ("fwd", "bwd", "finite"):
            for j, p in enumerate(("chi", "x", "y", "z")):
                assert np.all(sweep.columns[f"crb_{p}_norm_{group}"]
                              > sweep.columns[f"qcrb_{p}_norm"])

    def test_deterministic(self, scat_1030, pulse_1030, sweep, paper_scan):
        again = crb_distance_sweep(scat_1030, pulse_1030,
                                   z_over_lambda=[0.4, 0.8], **paper_scan.crb)
        np.testing.assert_array_equal(again.table(), sweep.table())

    def test_one_plate_alive_at_a_time(self, scat_1030, pulse_1030,
                                       paper_scan, monkeypatch):
        # one plate per distance, mirrored for the backward placement, and
        # freed before the next is built, so the sweep holds one edge axis
        # at a time
        built = []

        def spy(*args):
            assert all(ref() is None for ref in built)
            grid = planar_grid(*args)
            built.append(weakref.ref(grid))
            return grid

        monkeypatch.setattr(detector, "planar_grid", spy)
        crb_distance_sweep(scat_1030, pulse_1030, z_over_lambda=[0.4, 0.8],
                           **paper_scan.crb)
        assert len(built) == 2

    @pytest.mark.parametrize("r0", [(0.3, 0.0, 0.1), (0.2, -0.1, 0.05),
                                    (0.0, 0.0, 0.0), (0.0, 0.0, 0.1)])
    def test_off_axis_source_matches_the_full_plates(self, scat_1030,
                                                     pulse_1030, r0,
                                                     monkeypatch):
        # the three placements of a distance share one plate, and one source
        # frame where the source sits in z = 0; each matches fi_matrix on a
        # plate of its own.  At 0.05 wavelengths the finite source keeps its
        # screened terms, at 2 it drops them.  A source on the z axis folds
        # the plate to its mirror cell; one off the axis goes through every
        # pixel of the plate, for every placement
        scat = replace(scat_1030, r0=r0)
        z_rel = [0.05, 2.0]
        evaluated = []
        flux = fields.z_flux_parts

        def spy(points, placements, *args):
            evaluated.append(len(points) * len(placements))
            return flux(points, placements, *args)

        with monkeypatch.context() as m:
            m.setattr(fields, "z_flux_parts", spy)
            sweep = crb_distance_sweep(scat, pulse_1030, 1.97 * math.pi,
                                       z_rel, LAM / 30.0, refinement=1)
        on_axis = r0[:2] == (0.0, 0.0)
        assert sum(evaluated) == sweep.meta["pixels"] // (4 if on_axis else 1)
        for row, z in enumerate(z_rel):
            for group, sgn, a0 in (("fwd", 1.0, 0.0), ("bwd", -1.0, 0.0),
                                   ("finite", 1.0, LAM / 30.0)):
                src = replace(scat, a0=a0)
                grid = planar_grid(sgn * z * LAM, 1.97 * math.pi)
                want = crb_bounds(fi_matrix(grid, src, pulse_1030), src,
                                  pulse_1030).normalized
                got = [sweep.columns[f"crb_{p}_norm_{group}"][row]
                       for p in ("chi", "x", "y", "z")]
                np.testing.assert_allclose(got, want, rtol=1e-12)


def test_qfi_time_sweep_normalized_plateaus(scat_532, pulse_200):
    sweep = qfi_time_sweep(scat_532, pulse_200,
                           times=[0.0, 5.0 * pulse_200.tau],
                           gauges=("multipolar",), corrections=False,
                           normalize=True, grid=SinhGrid())
    assert sweep.axis_name == "t_internal"
    assert set(sweep.columns) == {"j00_multipolar", "j11_multipolar",
                                  "j22_multipolar", "j33_multipolar",
                                  "j03_multipolar", "nsc"}
    # after the pulse every normalized diagonal sits near its analytic
    # asymptote (the finite source size shaves a percent or two)
    for name in ("j00_multipolar", "j11_multipolar", "j22_multipolar",
                 "j33_multipolar"):
        assert sweep.columns[name][-1] == pytest.approx(1.0, abs=0.05)
    assert sweep.columns["nsc"][-1] == pytest.approx(1.0, abs=0.05)
    assert sweep.meta["nsc_total"] > 0


@pytest.mark.parametrize("corrections", [False, True])
def test_qfi_time_sweeps_match_each_run_alone(corrections):
    # fig3's two wavelengths in one call share the grid's band operators;
    # every column and meta entry is the one each run gets alone, bit for bit
    cfg = cli.resolve_config(None, "fig3", None)
    grid = cli.build_grid(cfg)
    runs = []
    for lam in (1030.0, 4500.0):
        _, scat, pulse = cli.build_physics(cfg, lam)
        runs.append((scat, pulse, np.linspace(-1.0, 2.0, 25) * pulse.tau))
    gauges = ("multipolar", "coulomb")
    both = qfi_time_sweeps(runs, gauges=gauges, corrections=corrections,
                           normalize=False, grid=grid)
    assert len(both) == 2
    for run, sweep in zip(runs, both):
        alone = qfi_time_sweep(*run, gauges=gauges, corrections=corrections,
                               normalize=False, grid=grid)
        assert sweep.meta == alone.meta
        assert list(sweep.columns) == list(alone.columns)
        for name, col in alone.columns.items():
            assert sweep.columns[name].tobytes() == col.tobytes(), name


def test_qfi_time_sweeps_free_the_oracle_first():
    # the oracle's V + P and V - P on the M rows covering both bands (V
    # turned into V - P in place) are freed before the QFI's two transforms
    # on those rows are built, so the (M, n) arrays are never held
    # together: four bound the peak
    cfg = cli.resolve_config(None, "fig3", None)
    grid = cli.build_grid(cfg)
    runs = []
    for lam in (1030.0, 4500.0):
        _, scat, pulse = cli.build_physics(cfg, lam)
        runs.append((scat, pulse, np.linspace(-1.0, 2.0, 25) * pulse.tau))
    bands = [qfi.SpectralPulse.from_pulse(pulse, grid).band
             for _, pulse, _ in runs]
    rows = max(b.stop for b in bands) - min(b.start for b in bands)
    tracemalloc.start()
    qfi_time_sweeps(runs, ("multipolar",), corrections=False,
                    normalize=False, grid=grid)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 4 * rows * grid.size * 8


def test_size_scaling_sweep_structure(scat_532, pulse_200):
    # five radii so a fit survives the drop-two-largest robustness rule
    sweep = size_scaling_sweep(scat_532, pulse_200,
                               a0_over_lambda=np.geomspace(0.01, 0.04, 5),
                               gauges=("multipolar",), peak_samples=17,
                               grid=SinhGrid())
    expected = {f"{kind}_{entry}_multipolar"
                for kind in ("peak", "transient")
                for entry in ("j00", "j11", "j33", "j03")}
    assert set(sweep.columns) == expected
    assert set(sweep.meta["fits"]) == expected
    for fit in sweep.meta["fits"].values():
        assert {"exponent", "residual", "excluded_two_largest_a0",
                "points_used"} <= set(fit)
    # the steepest entry: transverse-position information gains four powers
    # of lambda/a0 during the transient
    assert sweep.meta["fits"]["transient_j11_multipolar"]["exponent"] == \
        pytest.approx(4.0, abs=0.4)
    # peaks grow monotonically as the source shrinks
    assert np.all(np.diff(sweep.columns["peak_j11_multipolar"]) < 0)


@pytest.fixture(scope="module")
def size_sweep(scat_532, pulse_200):
    # size-scan's 65-sample window, three radii, both gauges
    return size_scaling_sweep(scat_532, pulse_200, [1 / 60, 1 / 40, 1 / 30],
                              qfi.GAUGES, peak_samples=65, grid=SinhGrid())


class TestSizeScalingSweep:
    ENTRIES = {"j00": (0, 0), "j11": (1, 1), "j33": (3, 3), "j03": (0, 3)}

    def test_column_and_fit_order(self, size_sweep):
        # per gauge, per entry: the peak, then the transient
        names = [f"{kind}_{entry}_{gauge}"
                 for gauge in ("multipolar", "coulomb") for entry in self.ENTRIES
                 for kind in ("peak", "transient")]
        assert list(size_sweep.columns) == names
        assert list(size_sweep.meta["fits"]) == names

    def test_meta_counts_the_paired_window(self, size_sweep):
        # 65 window samples and the late time; 33 window pairs and the late time
        assert size_sweep.meta["times"] == 66
        assert size_sweep.meta["product_rows"] == 34

    @pytest.mark.parametrize("gauge", ["multipolar", "coulomb"])
    def test_columns_are_the_series_peaks(self, size_sweep, scat_532,
                                          pulse_200, spectral_200, gauge):
        # the middle radius, one source at a time
        times = np.append(_paired_linspace(-0.5 * math.pi, 0.5 * math.pi, 65),
                          5.0 * pulse_200.tau)
        scat = replace(scat_532, a0=2.0 * math.pi / 40)
        j = np.abs(qfi.qfi_matrix(scat, spectral_200, times, gauge=gauge).j)
        for entry, (a, b) in self.ENTRIES.items():
            peak = j[:-1, a, b].max()
            assert size_sweep.columns[f"peak_{entry}_{gauge}"][1] == \
                pytest.approx(peak, rel=1e-12)
            assert size_sweep.columns[f"transient_{entry}_{gauge}"][1] == \
                pytest.approx(peak - 0.5 * j[-1, a, b], rel=1e-9)


class TestValidateSuite:
    def test_full_battery_passes(self, battery):
        # every row of the oracle table, in its order
        assert [c.name for c in battery] == [row.name for row in ORACLES]
        assert len(battery) == 15
        failures = [c for c in battery if not c.passed]
        assert not failures, "\n".join(c.line() for c in failures)

    def test_check_lines_are_printable(self, battery):
        for c in battery:
            line = c.line()
            assert c.name in line and ("PASS" in line or "FAIL" in line)
