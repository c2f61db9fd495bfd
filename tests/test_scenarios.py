"""Sweep drivers and the built-in validation battery."""
import math
from dataclasses import replace

import numpy as np
import pytest

from dipolebounds import fisher
from dipolebounds.detector import planar_grid
from dipolebounds.fisher import count_gradients, crb_bounds, poisson_fi
from dipolebounds.model import InfoMatrix
from dipolebounds.qfi import farfield_qcrb_constants
from dipolebounds.scenarios import (
    SweepResult,
    crb_distance_sweep,
    default_distance_axis,
    default_time_axis,
    fit_power_law,
    qfi_time_sweep,
    size_scaling_sweep,
    validate_suite,
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


def test_default_axes(pulse_200):
    z = default_distance_axis()
    assert z[0] == pytest.approx(0.02) and z[-1] == pytest.approx(10.0)
    assert z.size == 109  # 40 per decade over 2.7 decades
    t = default_time_axis(pulse_200)
    assert t[0] == -3.0 * pulse_200.tau and t[-1] == 5.0 * pulse_200.tau
    # 8 samples per optical period resolves the 2-omega transient
    assert t.size > 8.0 * (t[-1] - t[0]) / (2.0 * math.pi)


@pytest.fixture(scope="module")
def two_point_sweep(scat_1030, pulse_1030):
    return crb_distance_sweep(scat_1030, pulse_1030, z_over_lambda=[0.4, 0.8])


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

    def test_deterministic(self, scat_1030, pulse_1030, sweep):
        again = crb_distance_sweep(scat_1030, pulse_1030,
                                   z_over_lambda=[0.4, 0.8])
        np.testing.assert_array_equal(again.table(), sweep.table())

    @pytest.mark.parametrize("r0", [(0.3, 0.0, 0.1), (0.2, -0.1, 0.05)])
    def test_off_axis_source_matches_the_full_plates(self, scat_1030,
                                                     pulse_1030, r0,
                                                     monkeypatch):
        # a source off the z axis cannot be folded: the sweep goes through
        # every pixel of every plate and gives the full-plate bounds
        scat = replace(scat_1030, r0=r0)
        evaluated = []

        def spy(grid, *args):
            evaluated.append(grid.size)
            return count_gradients(grid, *args)

        with monkeypatch.context() as m:
            m.setattr(fisher, "count_gradients", spy)
            sweep = crb_distance_sweep(scat, pulse_1030, z_over_lambda=[0.4],
                                       finite_a0=LAM / 30.0)
        assert sweep.meta["pixels"] == sum(evaluated)
        for group, sgn, a0 in (("fwd", 1.0, 0.0), ("bwd", -1.0, 0.0),
                               ("finite", 1.0, LAM / 30.0)):
            src = replace(scat, a0=a0)
            grid = planar_grid(sgn * 0.4 * LAM, 1.97 * math.pi)
            info = InfoMatrix(poisson_fi(*count_gradients(grid, src,
                                                          pulse_1030)))
            want = crb_bounds(info, src, pulse_1030).normalized
            got = [sweep.columns[f"crb_{p}_norm_{group}"][0]
                   for p in ("chi", "x", "y", "z")]
            np.testing.assert_allclose(got, want, rtol=1e-10)


def test_qfi_time_sweep_normalized_plateaus(scat_532, pulse_200):
    sweep = qfi_time_sweep(scat_532, pulse_200,
                           times=[0.0, 5.0 * pulse_200.tau], normalize=True)
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


def test_size_scaling_sweep_structure(scat_532, pulse_200):
    # five radii so a fit survives the drop-two-largest robustness rule
    sweep = size_scaling_sweep(scat_532, pulse_200,
                               a0_over_lambda=np.geomspace(0.01, 0.04, 5),
                               gauges=("multipolar",), peak_samples=17)
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


class TestValidateSuite:
    def test_quick_battery_passes(self, quick_checks):
        assert len(quick_checks) == 12
        failures = [c for c in quick_checks if not c.passed]
        assert not failures, "\n".join(c.line() for c in failures)

    def test_check_lines_are_printable(self, quick_checks):
        for c in quick_checks:
            line = c.line()
            assert c.name in line and ("PASS" in line or "FAIL" in line)

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError, match="level"):
            validate_suite("paranoid")

    @pytest.mark.slow
    def test_full_battery_passes(self):
        checks = validate_suite("full")
        assert len(checks) == 16
        failures = [c for c in checks if not c.passed]
        assert not failures, "\n".join(c.line() for c in failures)
