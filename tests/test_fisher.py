"""Photon-counting Fisher information and classical bounds."""
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import poisson

from dipolebounds.detector import planar_grid
from dipolebounds.fields import incident_field, poynting_avg, scattered_regularized
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
    expect = poynting_avg(inc + sc)[:, 2] * pulse_1030.tau * small_grid.areas
    np.testing.assert_allclose(mean_counts(small_grid, finite, pulse_1030),
                               expect, rtol=1e-13)


def test_counts_reject_nonphysical_regime(pulse_1030):
    # a polarizability so large the shadow overwhelms incident-plus-scattered
    # flux on some pixel is outside the weak-scatterer counting model
    grid = planar_grid(2.0 * LAM, math.pi)
    monster = Scatterer(chi0=150.0)
    with pytest.raises(PhysicsError, match="non-positive"):
        mean_counts(grid, monster, pulse_1030)


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
        _, grad = count_gradients(small_grid, scat_1030, pulse_1030)
        h = 1e-3
        for axis in range(3):
            shift = np.zeros(3)
            shift[axis] = h
            up = mean_counts(small_grid,
                             replace(scat_1030, r0=tuple(shift)), pulse_1030)
            dn = mean_counts(small_grid,
                             replace(scat_1030, r0=tuple(-shift)), pulse_1030)
            fd = (up - dn) / (2.0 * h)
            scale = np.abs(grad[:, 1 + axis]).max()
            assert np.abs(grad[:, 1 + axis] - fd).max() < 1e-4 * scale


def test_information_matrix_block_structure(scat_1030, pulse_1030, small_grid):
    # x-polarized drive on a centred square plate: x and y are decoupled
    # from everything by mirror symmetry, chi and z mix through the phase
    m = fi_matrix(small_grid, scat_1030, pulse_1030).matrix
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
