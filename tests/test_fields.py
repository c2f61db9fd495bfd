"""Dipole field solutions: closed forms, symmetries, Maxwell consistency."""
import math
from dataclasses import replace

import numpy as np
import pytest

from dipolebounds import fields
from dipolebounds.fields import (
    FieldSet,
    incident_field,
    intensity_parts,
    poynting_avg,
    scattered_point,
    scattered_regularized,
    z_flux_parts,
)
from dipolebounds.model import PhysicsError, Scatterer

LAM = 2.0 * math.pi  # internal wavelength at k = 1

# a generic off-axis direction, nothing special about it
DIRECTION = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])


def test_incident_plane_wave():
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, LAM / 4.0], [1.0, 2.0, 0.0]])
    fs = incident_field(pts, e_in=2.0)
    # linear x polarization, B along y, quarter-wavelength phase advance
    assert fs.e[0] == pytest.approx([2.0, 0.0, 0.0])
    assert fs.b[0] == pytest.approx([0.0, 2.0, 0.0])
    assert fs.e[1, 0] == pytest.approx(2.0j, rel=1e-12)
    assert fs.e[2] == pytest.approx(fs.e[0])  # transverse position is idle
    # t = 0 phasor: the phase advances as exp(i z) along the axis
    fs2 = incident_field(np.array([[0.0, 0.0, 3.7]]), e_in=2.0)
    assert fs2.e[0, 0] == pytest.approx(2.0 * np.exp(3.7j), rel=1e-12)


class TestPointDipole:
    chi0 = 2.9510140911235653e-06  # 13 nm^3 at a 1.03 um drive

    def test_on_axis_closed_form(self):
        # independent transcription of the solution on the z axis, where the
        # transverse projectors both reduce to the x unit vector
        s = Scatterer(chi0=self.chi0)
        rho = 100.0 * LAM
        fs = scattered_point(np.array([[0.0, 0.0, rho]]), s)
        kr = rho
        expect = (s.chi0 / (2.0 * math.pi)) * np.exp(1j * kr) * (
            1.0 / kr + (1j * kr - 1.0) / kr ** 3)
        assert fs.e[0, 0] == pytest.approx(expect, rel=1e-12)
        assert abs(fs.e[0, 1]) == 0.0 and abs(fs.e[0, 2]) < 1e-25
        assert abs(fs.e[0, 0]) == pytest.approx(7.474996549258701e-10, rel=1e-12)

    def test_mirror_symmetry_in_y(self):
        # the drive is x-polarized, so y -> -y maps E -> ME, B -> -MB with
        # M = diag(1, -1, 1); the solution preserves this exactly
        s = Scatterer(chi0=self.chi0)
        pts = np.array([[0.7, 1.3, -0.4], [2.0, -0.3, 5.0]])
        mirrored = pts * np.array([1.0, -1.0, 1.0])
        a, b = scattered_point(pts, s), scattered_point(mirrored, s)
        m = np.array([1.0, -1.0, 1.0])
        np.testing.assert_array_equal(b.e, a.e * m)
        np.testing.assert_array_equal(b.b, -a.b * m)

    def test_refuses_points_at_the_source(self):
        s = Scatterer(chi0=1.0)
        with pytest.raises(PhysicsError, match="closer than"):
            scattered_point(np.array([[1e-7, 0.0, 0.0]]), s)

    def test_far_zone_is_transverse(self):
        # skip the dipole axis itself: along x the radiated amplitude
        # vanishes and only a tiny radial remnant survives, so the
        # transversality ratio is meaningless there
        s = Scatterer(chi0=self.chi0)
        oblique = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        pts = 100.0 * LAM * np.vstack([DIRECTION, [0.0, 1.0, 0.0], oblique])
        fs = scattered_point(pts, s)
        for i, p in enumerate(pts):
            e_rho = p / np.linalg.norm(p)
            e, b = fs.e[i], fs.b[i]
            assert abs(e_rho @ e) / np.linalg.norm(e) < 1e-2
            assert np.linalg.norm(np.cross(e_rho, e) - b) / np.linalg.norm(b) < 1e-5

    def test_position_phase_reference(self):
        # moving the source along z multiplies the field by exp(i k z0) on
        # top of the geometric change; verify via a pure transverse shift,
        # where rho is unchanged
        s0 = Scatterer(chi0=1.0)
        s1 = Scatterer(chi0=1.0, r0=(0.5, 0.0, 0.0))
        p = np.array([[0.5, 0.0, 10.0]])
        a = scattered_point(np.array([[0.0, 0.0, 10.0]]), s0)
        b = scattered_point(p, s1)
        np.testing.assert_allclose(b.e, a.e, rtol=1e-13)


class TestRegularizedSource:
    def test_zero_radius_delegates_to_point(self):
        s = Scatterer(chi0=1.0, a0=0.0)
        pts = np.array([[0.4, 0.1, 0.9], [0.0, 0.0, 12.0]])
        a = scattered_point(pts, s)
        b = scattered_regularized(pts, s)
        np.testing.assert_array_equal(a.e, b.e)
        np.testing.assert_array_equal(a.b, b.b)

    def test_refuses_the_exact_center(self, scat_532):
        with pytest.raises(PhysicsError, match="center"):
            scattered_regularized(np.zeros((1, 3)), scat_532)

    def test_finite_at_tiny_radius(self, scat_532):
        fs = scattered_regularized((1e-8 * DIRECTION)[None, :], scat_532)
        assert np.all(np.isfinite(fs.e)) and np.all(np.isfinite(fs.b))

    def test_mirror_symmetry_in_y(self, scat_532):
        pts = np.array([[0.7, 1.3, -0.4], [0.1, -0.05, 0.2]])
        mirrored = pts * np.array([1.0, -1.0, 1.0])
        a = scattered_regularized(pts, scat_532)
        b = scattered_regularized(mirrored, scat_532)
        m = np.array([1.0, -1.0, 1.0])
        np.testing.assert_array_equal(b.e, a.e * m)
        np.testing.assert_array_equal(b.b, -a.b * m)

    def test_point_limit_is_quadratic_in_radius(self):
        # shrink a0 at a fixed observation point: the relative deviation from
        # the ideal dipole falls off as a0^2
        point = (0.4 * LAM * DIRECTION)[None, :]
        ref = scattered_point(point, Scatterer(chi0=1.0)).e
        errs = []
        for a0 in (LAM / 30.0, LAM / 60.0, LAM / 120.0):
            e = scattered_regularized(point, Scatterer(chi0=1.0, a0=a0)).e
            errs.append(np.linalg.norm(e - ref) / np.linalg.norm(ref))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 2e-3
        for fine, coarse in zip(errs[1:], errs):
            assert coarse / fine == pytest.approx(4.0, abs=0.8)

    def test_faraday_law(self, scat_532):
        # B must equal curl E / (i k); probe with central differences at a
        # near-core, an intermediate and a wavelength-scale radius
        def e_at(p):
            return scattered_regularized(p[None, :], scat_532).e[0]

        h = 1e-5
        for rho in (0.05 * LAM, 0.3 * LAM, LAM):
            p = rho * DIRECTION
            curl = np.zeros(3, dtype=complex)
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                dj = np.zeros(3); dj[j] = h
                dk = np.zeros(3); dk[k] = h
                curl[i] = ((e_at(p + dj)[k] - e_at(p - dj)[k])
                           - (e_at(p + dk)[j] - e_at(p - dk)[j])) / (2.0 * h)
            b = scattered_regularized(p[None, :], scat_532).b[0]
            assert np.linalg.norm(curl / 1j - b) / np.linalg.norm(b) < 1e-7

    def test_radiated_power_matches_cross_section(self, scat_532):
        # total far-zone flux = (form factor)^2 x cross section x intensity
        from dipolebounds.fields import regularizer

        e_in = 3.0
        radius = 200.0 * LAM
        x, wx = np.polynomial.legendre.leggauss(64)  # x = cos(theta)
        phi = 2.0 * math.pi * np.arange(128) / 128.0
        st = np.sqrt(1.0 - x ** 2)
        pts = radius * np.stack([
            np.outer(st, np.cos(phi)),
            np.outer(st, np.sin(phi)),
            np.outer(x, np.ones_like(phi)),
        ], axis=-1).reshape(-1, 3)
        fs = scattered_regularized(pts, scat_532, e_in=e_in)
        flux = np.sum(poynting_avg(fs) * (pts / radius), axis=-1)
        dw = (np.outer(wx, np.full(128, 2.0 * math.pi / 128.0))).ravel()
        power = radius ** 2 * (flux @ dw)
        expect = (regularizer(1.0, scat_532.a0) ** 2
                  * scat_532.cross_section() * 0.5 * e_in ** 2)
        assert power == pytest.approx(expect, rel=1e-5)


def test_z_flux_reads_only_ex_and_by(scat_532):
    # premise of the analytic position gradients: with E_y = B_x = 0 in the
    # incident wave and B_x = 0 in the scattered one, the z row of E x B*
    # reduces to E_x B_y*
    pts = np.random.default_rng(3).normal(scale=2.0, size=(50, 3))
    inc = incident_field(pts, e_in=1.3)
    assert np.all(inc.e[:, 1] == 0.0) and np.all(inc.b[:, 0] == 0.0)
    point = Scatterer(chi0=scat_532.chi0, r0=(0.1, 0.2, -0.3))
    for sc in (scattered_point(pts, point),
               scattered_regularized(pts, scat_532)):
        assert np.all(sc.b[:, 0] == 0.0)


class TestSourcePositionGradients:
    @staticmethod
    def _cases():
        # random points around a displaced source (z0 != 0), for the point
        # dipole and for a finite source, the latter with points inside its
        # core (rho < a0) where the screened terms dominate
        rng = np.random.default_rng(7)
        r0 = (0.15, -0.25, 0.6)
        for a0, scale in ((0.0, 2.0), (LAM / 30.0, 2.0), (LAM / 30.0, 0.1)):
            pts = np.asarray(r0) + rng.normal(scale=scale, size=(40, 3))
            yield Scatterer(chi0=0.7, a0=a0, r0=r0), pts

    @staticmethod
    def _parts(pts, scat):
        # the full-field route: the point field for a0 = 0, through the
        # delegation tested above
        parts = intensity_parts(incident_field(pts, e_in=1.3),
                                scattered_regularized(pts, scat, e_in=1.3))
        return parts["cross"], parts["scattered"]

    def test_values_are_the_flux_parts(self):
        for scat, pts in self._cases():
            [(cross, scattered, _)] = z_flux_parts(pts, [(scat, 1.0)],
                                                     e_in=1.3)
            want_cross, want_scattered = self._parts(pts, scat)
            np.testing.assert_allclose(cross, want_cross, rtol=1e-12)
            np.testing.assert_allclose(scattered, want_scattered, rtol=1e-12)

    def test_match_central_differences(self):
        h = 1e-6
        for scat, pts in self._cases():
            [(_, _, grad)] = z_flux_parts(pts, [(scat, 1.0)], e_in=1.3)
            for axis in range(3):
                shift = np.zeros(3)
                shift[axis] = h
                up, dn = (sum(self._parts(pts, replace(scat, r0=tuple(r0))))
                          for r0 in (scat.r0 + shift, scat.r0 - shift))
                fd = (up - dn) / (2.0 * h)
                scale = np.abs(grad[:, axis]).max()
                assert np.abs(grad[:, axis] - fd).max() < 1e-6 * scale

    @staticmethod
    def _spy_screens(monkeypatch):
        # whether each z_flux_parts call evaluates the screened terms
        screened = []
        profiles = fields._flux_profiles

        def spy(inv, a0, osc, screen):
            screened.append(screen is not None)
            return profiles(inv, a0, osc, screen)

        monkeypatch.setattr(fields, "_flux_profiles", spy)
        return screened

    @pytest.mark.parametrize("a0", [LAM / 30.0, 2e-4, 1.6])
    def test_screened_terms_dropped_beyond_the_cutoff(self, a0, monkeypatch):
        # points all beyond 2 rho / a0 = 80 skip the screened terms, and the
        # flux and its gradient agree with the kept terms to rounding; a
        # block with one point inside keeps them
        r0 = (0.15, -0.25, 0.6)
        scat = Scatterer(chi0=0.7, a0=a0, r0=r0)
        rng = np.random.default_rng(11)
        dirs = rng.normal(size=(60, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        dist = 41.0 * a0 * rng.uniform(1.0, 3.0, 60)
        far = np.asarray(r0) + dirs * dist[:, None]
        near = far.copy()
        near[7] = np.asarray(r0) + dirs[7] * 30.0 * a0
        screened = self._spy_screens(monkeypatch)
        for pts, dropped in ((far, True), (near, False)):
            [got] = z_flux_parts(pts, [(scat, 1.0)], e_in=1.3)
            with monkeypatch.context() as m:
                m.setattr(fields, "_SCREEN_CUTOFF", math.inf)
                [kept] = z_flux_parts(pts, [(scat, 1.0)], e_in=1.3)
            assert screened[-2:] == [not dropped, True]
            for a, b in zip(got, kept):
                assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max()

    def test_screened_terms_kept_for_tiny_sources(self, monkeypatch):
        # below a0 = 1.1e-4 the bound does not hold at the cutoff
        scat = Scatterer(chi0=0.7, a0=5e-5)
        screened = self._spy_screens(monkeypatch)
        z_flux_parts(np.array([[0.0, 0.0, 1.0]]), [(scat, 1.0)])
        assert screened == [True]

    def test_refuses_source_points(self, scat_532):
        with pytest.raises(PhysicsError, match="point dipole"):
            z_flux_parts(np.zeros((1, 3)), [(Scatterer(chi0=1.0), 1.0)])
        with pytest.raises(PhysicsError, match="center"):
            z_flux_parts(np.zeros((1, 3)), [(scat_532, 1.0)])

    def test_each_placement_refuses_its_own_points(self):
        # a point 1e-7 wavelengths from the source: a finite source takes
        # it, and a point dipole refuses it, before or after the finite
        # source on their shared frame
        pts = np.array([[0.0, 0.0, 1e-7 * LAM], [0.3, 0.0, LAM]])
        finite, point = Scatterer(chi0=1.0, a0=LAM / 30.0), Scatterer(chi0=1.0)
        for parts in z_flux_parts(pts, [(finite, 1.0), (finite, -1.0)]):
            assert all(np.isfinite(part).all() for part in parts)
        for placements in ([(finite, 1.0), (point, -1.0)],
                           [(point, 1.0), (finite, 1.0)]):
            with pytest.raises(PhysicsError, match="point dipole"):
                z_flux_parts(pts, placements)

    @pytest.mark.parametrize("z0", [0.0, 0.6])
    def test_each_term_set_is_built_once(self, z0, monkeypatch):
        # a source in z = 0 keeps its point terms across a finite source
        # whose screened terms are kept; a source above it builds a frame
        # per side, and a finite source beyond the cutoff reuses the
        # forward point terms after the backward ones
        a0 = LAM / 30.0
        r0 = (0.0, 0.0, z0)
        point = Scatterer(chi0=0.7, r0=r0)
        finite = Scatterer(chi0=0.7, a0=a0, r0=r0)
        rng = np.random.default_rng(5)
        dirs = rng.normal(size=(30, 3))
        dirs[:, 2] = np.abs(dirs[:, 2]) + 0.5
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        dist = 41.0 * a0 * rng.uniform(1.0, 3.0, 30)
        pts = np.asarray(r0) + dirs * dist[:, None]
        if z0 == 0.0:
            pts[4] = dirs[4] * 30.0 * a0            # inside the cutoff
            placements = [(point, 1.0), (finite, 1.0), (point, -1.0)]
            built = [(0, 0.0), (0, a0)]
        else:
            placements = [(point, 1.0), (point, -1.0), (finite, 1.0)]
            built = [(0, 0.0), (1, 0.0)]
        # each build as (the frame's order of first use, a0)
        frames, calls = [], []
        terms = fields._flux_terms

        def spy(frame, a):
            if all(f is not frame for f in frames):
                frames.append(frame)
            calls.append(([f is frame for f in frames].index(True), a))
            return terms(frame, a)

        monkeypatch.setattr(fields, "_flux_terms", spy)
        together = z_flux_parts(pts, placements, e_in=1.3)
        assert calls == built
        for placement, parts in zip(placements, together):
            [alone] = z_flux_parts(pts, [placement], e_in=1.3)
            for a, b in zip(parts, alone):
                np.testing.assert_array_equal(a, b)


def test_intensity_parts_reconstruct_total_flux(scat_532):
    # the split z flux sums to the z row of the full Poynting vector, on
    # forward and backward plates, for the finite-size and the point source
    pts = np.array([[0.3, 0.2, 5.0], [1.0, -2.0, 8.0], [0.0, 0.0, 30.0],
                    [0.3, 0.2, -5.0], [-1.5, 0.7, -12.0], [0.0, 0.0, -30.0]])
    inc = incident_field(pts, e_in=1.3)
    point = Scatterer(chi0=scat_532.chi0, omega0=scat_532.omega0)
    for sc in (scattered_regularized(pts, scat_532, e_in=1.3),
               scattered_point(pts, point, e_in=1.3)):
        parts = intensity_parts(inc, sc)
        total = poynting_avg(FieldSet(inc.e + sc.e, inc.b + sc.b))[:, 2]
        np.testing.assert_allclose(
            parts["incident"] + parts["cross"] + parts["scattered"], total,
            rtol=1e-13)
