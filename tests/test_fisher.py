"""Photon-counting Fisher information and classical bounds."""
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import poisson

from dipolebounds import fields, fisher
from dipolebounds.detector import PixelGrid, planar_grid
from dipolebounds.fields import (
    FieldSet,
    incident_field,
    intensity_parts,
    poynting_avg,
    scattered_regularized,
)
from dipolebounds.fisher import (
    count_gradients,
    crb_bounds,
    fi_matrix,
    mean_counts,
    n_scattered,
    poisson_fi,
)
from dipolebounds.model import PhysicsError, Pulse, Scatterer

LAM = 2.0 * math.pi


@pytest.fixture(scope="module")
def small_grid():
    # coarse forward plate: enough pixels to be representative, cheap enough
    # for derivative cross-checks
    return planar_grid(0.3 * LAM, math.pi)


def test_poisson_fi_matches_likelihood_expectation():
    # E[(d log L)^2] summed explicitly over the count distribution
    nbar = np.array([2.5, 0.7])
    grad = np.array([[0.4, -1.1], [0.2, 0.9]])
    expect = np.zeros((2, 2))
    for mu, g in zip(nbar, grad):
        n = np.arange(200)
        p = poisson.pmf(n, mu)
        score = (n / mu - 1.0)  # d log L / d mu
        e2 = np.sum(p * score ** 2)
        expect += e2 * np.outer(g, g)
    np.testing.assert_allclose(poisson_fi(nbar, grad), expect, rtol=1e-10)


def test_counts_total_matches_fluence(scat_1030, pulse_1030, small_grid):
    # the plate is many wavelengths across: the extinction dip and the
    # recovered scattered light rebalance, leaving fluence x area up to the
    # Fresnel-zone remainder cut off at the plate edge (a genuine
    # diffraction residual, not quadrature error; ~1e-7 relative here)
    nbar = mean_counts(small_grid, scat_1030, pulse_1030)
    assert nbar.sum() == pytest.approx(
        pulse_1030.phi * small_grid.areas.sum(), rel=5e-7)
    assert np.all(nbar > 0)


def test_finite_size_scatterer_counted_with_its_own_field(
        scat_1030, pulse_1030, small_grid):
    # a0 > 0 selects the regularized field: the counts equal the z flux of
    # incident plus regularized field, built here without the flux split
    # (the point field would be off by ~1e-8 relative on this plate)
    finite = replace(scat_1030, a0=LAM / 30.0)
    pos = small_grid.positions
    inc = incident_field(pos, e_in=pulse_1030.e_in)
    sc = scattered_regularized(pos, finite, e_in=pulse_1030.e_in)
    total = poynting_avg(FieldSet(inc.e + sc.e, inc.b + sc.b))
    expect = total[:, 2] * pulse_1030.tau * small_grid.areas
    np.testing.assert_allclose(mean_counts(small_grid, finite, pulse_1030),
                               expect, rtol=1e-13)


@pytest.mark.parametrize("route", [mean_counts, count_gradients, fi_matrix])
def test_counts_reject_nonphysical_regime(pulse_1030, route):
    # a polarizability so large the shadow overwhelms incident-plus-scattered
    # flux on some pixel is outside the weak-scatterer counting model; the
    # full-field counts and the E_x/B_y counts both refuse it
    grid = planar_grid(2.0 * LAM, math.pi)
    monster = Scatterer(chi0=150.0)
    with pytest.raises(PhysicsError, match="non-positive"):
        route(grid, monster, pulse_1030)


class TestCountGradients:
    def test_chi_column_is_exact(self, scat_1030, pulse_1030, small_grid):
        # counts are quadratic in chi0, so one wide central difference is
        # exact and must match the analytic column to rounding
        nbar, grad = count_gradients(small_grid, scat_1030, pulse_1030)
        h = 0.5 * scat_1030.chi0
        up = mean_counts(small_grid, replace(scat_1030, chi0=scat_1030.chi0 + h),
                         pulse_1030)
        dn = mean_counts(small_grid, replace(scat_1030, chi0=scat_1030.chi0 - h),
                         pulse_1030)
        fd = (up - dn) / (2.0 * h)
        # agreement is limited only by rounding of the incident pedestal
        # inside the difference, a few parts in 1e9 of the column scale
        scale = np.abs(grad[:, 0]).max()
        assert np.abs(grad[:, 0] - fd).max() < 1e-7 * scale

    def test_position_columns_match_independent_differences(
            self, scat_1030, pulse_1030, small_grid):
        # the point source on the forward plate, a finite source, and a
        # backward plate, where only the scattered light carries the signal
        finite = replace(scat_1030, a0=LAM / 30.0)
        backward = planar_grid(-0.3 * LAM, math.pi)
        h = 1e-3
        for scat, grid in ((scat_1030, small_grid), (finite, small_grid),
                           (scat_1030, backward)):
            _, grad = count_gradients(grid, scat, pulse_1030)
            for axis in range(3):
                shift = np.zeros(3)
                shift[axis] = h
                up = mean_counts(grid, replace(scat, r0=tuple(shift)),
                                 pulse_1030)
                dn = mean_counts(grid, replace(scat, r0=tuple(-shift)),
                                 pulse_1030)
                fd = (up - dn) / (2.0 * h)
                scale = np.abs(grad[:, 1 + axis]).max()
                assert np.abs(grad[:, 1 + axis] - fd).max() < 1e-4 * scale

    def test_counts_and_chi_column_are_the_closed_forms(
            self, scat_1030, pulse_1030, small_grid, monkeypatch):
        # count_gradients forms the counts and the chi column from E_x and
        # B_y alone; the references split the flux of the full fields in one
        # block, count_gradients runs in several with a ragged last one.
        # The two routes round differently, so they agree to a bound, not
        # bit for bit
        pos = small_grid.positions
        inc = incident_field(pos, e_in=pulse_1030.e_in)
        for scat in (scat_1030, replace(scat_1030, a0=LAM / 30.0)):
            counts = mean_counts(small_grid, scat, pulse_1030)
            parts = intensity_parts(inc, scattered_regularized(
                pos, scat, e_in=pulse_1030.e_in))
            chi = (parts["cross"] + 2.0 * parts["scattered"]) / scat.chi0 \
                * (pulse_1030.tau * small_grid.areas)
            with monkeypatch.context() as m:
                m.setattr(fisher, "_CHUNK", 257)
                nbar, grad = count_gradients(small_grid, scat, pulse_1030)
            for got, ref in ((nbar, counts), (grad[:, 0], chi)):
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_one_field_pass_per_pixel(self, scat_1030, pulse_1030, small_grid,
                                      monkeypatch):
        # the full-field route is the reference that validate differentiates;
        # count_gradients must reach its answer without it
        refs = [(scat, count_gradients(small_grid, scat, pulse_1030))
                for scat in (scat_1030, replace(scat_1030, a0=LAM / 30.0))]

        def refuse(*args, **kwargs):
            raise AssertionError("full-field route called")

        for name in ("scattered_point", "scattered_regularized",
                     "intensity_parts"):
            monkeypatch.setattr(fields, name, refuse)
        for scat, (nbar, grad) in refs:
            got_nbar, got_grad = count_gradients(small_grid, scat, pulse_1030)
            np.testing.assert_array_equal(got_nbar, nbar)
            np.testing.assert_array_equal(got_grad, grad)


def _unfolded(grid, scat, pulse):
    # the information of every pixel of the plate, symmetrised
    m = poisson_fi(*count_gradients(grid, scat, pulse))
    return 0.5 * (m + m.T)


class TestMirroredFiMatrix:
    """fi_matrix on mirror-built plates: folded for on-axis sources only."""

    @pytest.mark.parametrize("a0", [0.0, LAM / 30.0])
    @pytest.mark.parametrize("z_rel", [0.3, -0.3])
    @pytest.mark.parametrize("r0", [(0.0, 0.0, 0.0), (0.3, 0.0, 0.1),
                                    (0.0, -0.2, 0.0), (0.2, -0.1, 0.05)])
    def test_matches_the_full_plate(self, scat_1030, pulse_1030, r0, z_rel,
                                    a0, monkeypatch):
        # a source on both mirror planes takes the first quarter of the
        # plate and the parity mask; one on a single plane or on neither
        # takes every pixel
        grid = planar_grid(z_rel * LAM, math.pi)
        scat = replace(scat_1030, r0=r0, a0=a0)
        full = _unfolded(grid, scat, pulse_1030)
        evaluated = []

        def spy(cell, *args):
            evaluated.append(cell.size)
            return count_gradients(cell, *args)

        monkeypatch.setattr(fisher, "count_gradients", spy)
        got = fi_matrix(grid, scat, pulse_1030).matrix
        assert np.abs(got - full).max() <= 1e-12 * np.abs(full).max()
        on_axis = r0[0] == 0.0 and r0[1] == 0.0
        assert evaluated == [grid.size // 4 if on_axis else grid.size]

    @pytest.mark.parametrize("a0", [0.0, LAM / 30.0])
    @pytest.mark.parametrize("z_rel", [0.3, -0.3])
    def test_mirror_pixels_count_alike(self, scat_1030, pulse_1030, z_rel, a0):
        # the non-positive-count check on the first quarter covers the whole
        # plate only if the four blocks have the very same counts
        grid = planar_grid(z_rel * LAM, math.pi)
        nbar, _ = count_gradients(grid, replace(scat_1030, a0=a0), pulse_1030)
        blocks = nbar.reshape(4, -1)
        for block in blocks[1:]:
            np.testing.assert_array_equal(block, blocks[0])

    @staticmethod
    def _toy_plate():
        # 3 x 3 row-major plate, its middle row and column on the mirror
        # planes
        coords = np.linspace(-2.0, 2.0, 3)
        xs, ys = np.meshgrid(coords, coords, indexing="ij")
        return PixelGrid(np.column_stack([xs.ravel(), ys.ravel(),
                                          np.full(9, LAM)]), np.full(9, 4.0))

    @staticmethod
    def _one_area_changed():
        grid = planar_grid(0.3 * LAM, math.pi)
        areas = grid.areas.copy()
        areas[2 * grid.size // 4 + 5] *= 1.5
        return PixelGrid(grid.positions, areas)

    @staticmethod
    def _one_position_changed():
        grid = planar_grid(0.3 * LAM, math.pi)
        positions = grid.positions.copy()
        positions[3 * grid.size // 4 + 7, 0] *= 1.01
        return PixelGrid(positions, grid.areas)

    @pytest.mark.parametrize("plate", ["toy3x3", "area", "position"])
    def test_other_plates_go_through_every_pixel(self, scat_1030, pulse_1030,
                                                 plate, monkeypatch):
        # an on-axis source, but a plate that is not a mirror cell and its
        # three sign images bit for bit
        grid = {"toy3x3": self._toy_plate, "area": self._one_area_changed,
                "position": self._one_position_changed}[plate]()
        full = _unfolded(grid, scat_1030, pulse_1030)
        evaluated = []

        def spy(cell, *args):
            evaluated.append(cell.size)
            return count_gradients(cell, *args)

        monkeypatch.setattr(fisher, "count_gradients", spy)
        np.testing.assert_array_equal(
            fi_matrix(grid, scat_1030, pulse_1030).matrix, full)
        assert evaluated == [grid.size]


def test_information_matrix_block_structure(scat_1030, pulse_1030, small_grid):
    # x-polarized drive on a centred square plate: x and y are decoupled
    # from everything by mirror symmetry, chi and z mix through the phase.
    # fi_matrix imposes these zeros with its parity mask, so the pixel sum
    # over the whole plate is what shows them
    m = _unfolded(small_grid, scat_1030, pulse_1030)
    scale = np.abs(np.diag(m)).max()
    for i in range(4):
        for j in range(i + 1, 4):
            if (i, j) == (0, 3):
                continue
            assert abs(m[i, j]) < 1e-12 * scale
    assert abs(m[0, 3]) > 1e-12 * scale  # the chi-z coupling is real


def test_backward_detection_is_worse(scat_1030, pulse_1030):
    fwd = planar_grid(0.6 * LAM, 1.97 * math.pi)
    bwd = planar_grid(-0.6 * LAM, 1.97 * math.pi)
    b_f = crb_bounds(fi_matrix(fwd, scat_1030, pulse_1030), scat_1030, pulse_1030)
    b_b = crb_bounds(fi_matrix(bwd, scat_1030, pulse_1030), scat_1030, pulse_1030)
    # without the interference term the backward plate sees far less
    # parameter sensitivity per photon
    assert np.all(b_b.normalized > b_f.normalized)


class TestCrbBounds:
    def test_normalization_arithmetic(self, scat_1030, pulse_1030, small_grid):
        info = fi_matrix(small_grid, scat_1030, pulse_1030)
        res = crb_bounds(info, scat_1030, pulse_1030)
        root = math.sqrt(res.n_sc)
        assert res.normalized[0] == pytest.approx(
            root * res.sigma[0] / scat_1030.chi0, rel=1e-14)
        np.testing.assert_allclose(
            res.normalized[1:], root * res.sigma[1:] / LAM, rtol=1e-14)
        assert res.condition_number == info.condition_number

    def test_normalized_bounds_are_fluence_free(self, scat_1030, pulse_1030,
                                                small_grid):
        # doubling the fluence halves the variance but doubles N_sc: the
        # normalized bounds are a property of the geometry alone
        brighter = Pulse(phi=2.0 * pulse_1030.phi, tau=pulse_1030.tau)
        a = crb_bounds(fi_matrix(small_grid, scat_1030, pulse_1030),
                       scat_1030, pulse_1030)
        b = crb_bounds(fi_matrix(small_grid, scat_1030, brighter),
                       scat_1030, brighter)
        np.testing.assert_allclose(b.normalized, a.normalized, rtol=1e-10)
        assert b.n_sc == pytest.approx(2.0 * a.n_sc)


def test_n_scattered_is_cross_section_times_fluence(scat_1030, pulse_1030):
    assert n_scattered(scat_1030, pulse_1030) == pytest.approx(1.0, rel=1e-12)
    assert n_scattered(scat_1030, pulse_1030) == pytest.approx(
        scat_1030.cross_section() * pulse_1030.phi)
