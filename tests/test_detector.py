"""Detector geometry: solid angles, pixel tilings, refinement."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolebounds.detector import (
    MirroredGrid,
    PixelGrid,
    axis_cells,
    half_width_for_solid_angle,
    planar_grid,
    planar_solid_angle,
    solid_angle_sum,
)

LAM = 2.0 * math.pi


class TestSolidAngles:
    def test_square_at_unit_aspect(self):
        # a = z is the classic 2pi/3 configuration (six faces of a cube)
        assert planar_solid_angle(1.0, 1.0) == pytest.approx(
            2.0 * math.pi / 3.0, rel=1e-14)

    def test_half_width_known_value(self):
        # Omega = pi at unit distance: (a/z)^2 = 1 + sqrt(2)
        assert half_width_for_solid_angle(math.pi, 1.0) == pytest.approx(
            math.sqrt(1.0 + math.sqrt(2.0)), rel=1e-14)

    @given(st.floats(0.01, 2.0 * math.pi - 0.01), st.floats(0.05, 50.0))
    @settings(max_examples=80, deadline=None)
    def test_planar_round_trip(self, omega, z):
        a = half_width_for_solid_angle(omega, z)
        assert planar_solid_angle(a, z) == pytest.approx(omega, rel=1e-12)

    def test_planar_range_checks(self):
        with pytest.raises(ValueError):
            half_width_for_solid_angle(2.0 * math.pi, 1.0)
        with pytest.raises(ValueError):
            half_width_for_solid_angle(0.0, 1.0)
        with pytest.raises(ValueError):
            planar_solid_angle(1.0, 0.0)
        with pytest.raises(ValueError):
            planar_solid_angle(-1.0, 1.0)


class TestPlanarGrid:
    def test_tiles_the_plate_exactly(self):
        g = planar_grid(2.0 * LAM, 1.97 * math.pi).plate()
        a = half_width_for_solid_angle(1.97 * math.pi, 2.0 * LAM)
        # pixel areas are built from shared edges, so the sum telescopes
        assert g.areas.sum() == pytest.approx((2.0 * a) ** 2, rel=1e-13)
        assert np.all(g.positions[:, 2] == 2.0 * LAM)
        assert g.size == math.isqrt(g.size) ** 2

    @pytest.mark.parametrize("z_rel", [0.1, 2.0])
    def test_resolves_the_requested_solid_angle(self, z_rel):
        g = planar_grid(z_rel * LAM, 1.97 * math.pi)
        osum = solid_angle_sum(g)
        assert osum == pytest.approx(1.97 * math.pi, rel=5e-3)

    def test_negative_distance_backward_plate(self):
        g = planar_grid(-0.5 * LAM, math.pi)
        assert np.all(g.plate().positions[:, 2] == -0.5 * LAM)
        # solid angle seen from the origin is unchanged
        assert solid_angle_sum(g) == pytest.approx(math.pi, rel=5e-3)

    def test_refinement_doubles_linear_density(self):
        g1 = planar_grid(LAM, math.pi)
        g2 = planar_grid(LAM, math.pi, refinement=2)
        # cell edges are re-derived, so doubling is exact only up to rounding
        assert abs(math.isqrt(g2.size) - 2 * math.isqrt(g1.size)) <= 2
        cells = [g.pixels(0, g.cell_size) for g in (g1, g2)]
        assert cells[1].areas.sum() == pytest.approx(cells[0].areas.sum(),
                                                     rel=1e-13)

    @pytest.mark.parametrize("refinement", [1, 2])
    @pytest.mark.parametrize("z_rel", [0.3, -0.3])
    def test_is_its_own_mirror_image(self, z_rel, refinement):
        # the plate is the mirror cell x > 0, y > 0 (row-major, x slowest)
        # and its images under x -> -x, y -> -y and both: pixel k of every
        # block is the sign image of pixel k of the first, bit for bit
        g = planar_grid(z_rel * LAM, 1.97 * math.pi, refinement)
        n = math.isqrt(g.size // 4)
        assert 4 * n * n == g.size
        plate = g.plate()
        assert plate.size == g.size
        pos = plate.positions.reshape(4, n * n, 3)
        areas = plate.areas.reshape(4, n * n)
        stored = g.pixels(0, g.cell_size)
        np.testing.assert_array_equal(pos[0], stored.positions)
        np.testing.assert_array_equal(areas[0], stored.areas)
        cell = pos[0].reshape(n, n, 3)
        assert np.all(cell[..., :2] > 0.0)
        assert np.all(np.diff(cell[:, 0, 0]) > 0.0)
        assert np.all(cell[:, :, 0] == cell[:, :1, 0])
        assert np.all(cell[:, :, 1] == cell[:1, :, 1])
        for block, signs in enumerate(((-1.0, 1.0, 1.0), (1.0, -1.0, 1.0),
                                       (-1.0, -1.0, 1.0)), 1):
            np.testing.assert_array_equal(pos[block], pos[0] * signs)
            np.testing.assert_array_equal(areas[block], areas[0])

    def test_stores_only_the_mirror_cell(self):
        # the grid keeps the quarter x > 0, y > 0; size counts the plate
        g = planar_grid(0.3 * LAM, 1.97 * math.pi)
        assert isinstance(g, MirroredGrid)
        cell = g.pixels(0, g.cell_size)
        assert cell.positions.shape == (g.size // 4, 3)
        assert np.all(cell.positions[:, :2] > 0.0)
        assert type(g.plate()) is PixelGrid
        grid = PixelGrid(cell.positions, cell.areas)
        assert grid.plate() is grid
        assert grid.size == g.size // 4

    @pytest.mark.parametrize("z_rel,omega,refinement", [
        (0.02, 1.97, 1), (-0.3, 1.0, 2), (2.0, 0.5, 1), (4.0, 1.97, 1)])
    def test_cell_pixels_without_building(self, z_rel, omega, refinement):
        # the cell is the edge axis times itself
        g = planar_grid(z_rel * LAM, omega * math.pi, refinement)
        n = axis_cells(z_rel * LAM, omega * math.pi, refinement)
        assert n ** 2 == g.cell_size == g.pixels(0, n * n + 1).areas.size
        assert g.edges.shape == (n + 1,)

    def test_rejects_bad_refinement(self):
        with pytest.raises(ValueError):
            planar_grid(LAM, math.pi, refinement=0)
        with pytest.raises(ValueError):
            axis_cells(LAM, math.pi, refinement=1.5)

    def test_holds_only_its_edge_axis(self):
        # a 10-wavelength plate of 11.9 M pixels is 1725 edges and a plane
        g = planar_grid(10.0 * LAM, 1.97 * math.pi)
        assert [f.name for f in dataclasses.fields(g)] == ["edges", "z"]
        assert g.edges.shape == (1725,) and g.z == 10.0 * LAM
        assert g.size == 4 * 1724 ** 2

    @pytest.mark.parametrize("refinement", [1, 2])
    @pytest.mark.parametrize("z_rel", [0.3, -0.3])
    def test_pixel_runs_are_the_stored_cell(self, z_rel, refinement):
        # every run of cell pixels, across row ends and past the last one,
        # is the cell as it was stored, from the outer products of the
        # axis, bit for bit; block() adds the run's sign images
        g = planar_grid(z_rel * LAM, 1.97 * math.pi, refinement)
        s = g.edges
        centers, widths = 0.5 * (s[:-1] + s[1:]), np.diff(s)
        n = centers.size
        cell = np.empty((n, n, 3))
        cell[..., 0] = centers[:, None]
        cell[..., 1] = centers
        cell[..., 2] = z_rel * LAM
        pos, areas = cell.reshape(-1, 3), np.outer(widths, widths).ravel()
        for lo, hi in ((0, 1), (n - 1, n + 1), (3, 2 * n + 5),
                       (n * n - 7, n * n + 20), (0, n * n)):
            run = g.pixels(lo, hi)
            np.testing.assert_array_equal(run.positions, pos[lo:hi])
            np.testing.assert_array_equal(run.areas, areas[lo:hi])
            block = g.block(lo, hi)
            np.testing.assert_array_equal(
                block.positions.reshape(4, -1, 3),
                pos[lo:hi] * np.array([[[1.0, 1.0, 1.0]], [[-1.0, 1.0, 1.0]],
                                       [[1.0, -1.0, 1.0]], [[-1.0, -1.0, 1.0]]]))
            np.testing.assert_array_equal(block.areas, np.tile(areas[lo:hi], 4))
        np.testing.assert_array_equal(g.plate().positions[:n * n], pos)
        np.testing.assert_array_equal(g.plate().areas[:n * n], areas)


def test_pixelgrid_validates_shapes():
    with pytest.raises(ValueError):
        PixelGrid(np.zeros((2, 3)), np.ones(3))
