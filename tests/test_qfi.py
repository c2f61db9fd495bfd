"""Quantum Fisher information pipeline: spectra, profiles, assembly, limits."""
import math
from dataclasses import replace

import numpy as np
import pytest

from dipolebounds import qfi
from dipolebounds.model import PhysicsError, Pulse, Scatterer
from dipolebounds.qfi import (
    FrequencyIntegrals,
    SpectralPulse,
    covariance_kernels,
    farfield_qcrb_constants,
    farfield_qfi,
    mode_integral_field,
    nsc_series,
    qfi_matrix,
    regularizer,
)
from dipolebounds.quadrature import SinhGrid, pv_integral, trapezoid_weights
from dipolebounds.scenarios import fit_power_law

LAM = 2.0 * math.pi


class TestSpectralPulse:
    def test_normalization_reproduces_fluence(self, spectral_200, pulse_200):
        # alpha is scaled on the grid, so this must hold to rounding
        assert spectral_200.fluence_on_grid() == pytest.approx(
            pulse_200.phi, rel=1e-13)

    def test_rejects_broadband_pulse(self):
        with pytest.warns(UserWarning):
            short = Pulse(phi=1.0, tau=6.0)
        with pytest.raises(PhysicsError, match="spectrum"):
            SpectralPulse.from_pulse(short)

    def test_support_brackets_the_carrier(self, spectral_200):
        grid = spectral_200.grid
        assert spectral_200.support[grid.carrier_index]
        assert not spectral_200.support[0]
        assert not spectral_200.support[-1]

    def test_time_evolution_is_a_pure_phase(self, spectral_200):
        v = spectral_200.values(17.3)
        np.testing.assert_allclose(np.abs(v), np.abs(spectral_200.alpha),
                                   rtol=1e-14)
        i = spectral_200.grid.carrier_index
        k = spectral_200.grid.nodes[i]
        assert v[i] == pytest.approx(
            spectral_200.alpha[i] * np.exp(-1j * k * 17.3), rel=1e-12)

    def test_array_of_times_stacks_single_times(self, spectral_200):
        times = np.array([[-50.0, 0.0], [17.3, 400.0]])
        v = spectral_200.values(times)
        assert v.shape == times.shape + (spectral_200.grid.size,)
        for t, row in zip(times.ravel(), v.reshape(-1, v.shape[-1])):
            np.testing.assert_array_equal(row, spectral_200.values(t))

    def test_custom_grid(self, pulse_200):
        grid = SinhGrid(k_max=500.0)
        sp = SpectralPulse.from_pulse(pulse_200, grid)
        assert sp.grid is grid
        assert sp.fluence_on_grid() == pytest.approx(1.0, rel=1e-13)


def test_regularizer_values():
    assert regularizer(1.0, 0.0) == 1.0
    assert regularizer(2.0, 1.0) == pytest.approx(0.25, rel=1e-15)
    k = np.linspace(0.1, 20.0, 50)
    xi = regularizer(k, 0.3)
    assert np.all(np.diff(xi) < 0)  # strictly softening with momentum


class TestFrequencyIntegrals:
    def test_rejects_unknown_gauge(self, spectral_200, scat_532):
        with pytest.raises(ValueError, match="gauge"):
            FrequencyIntegrals(spectral_200, scat_532, gauge="lorenz")

    def test_rejects_near_resonant_drive(self, spectral_200):
        with pytest.raises(PhysicsError, match="resonance"):
            FrequencyIntegrals(spectral_200, Scatterer(chi0=1.0, omega0=1.5))

    # (p-power, k-power, sign of the causal term) of each profile in the
    # multipolar coupling, stated independently of qfi.py; the Coulomb
    # coupling shifts one power of k from p and flips the overall sign
    DENSE_ORACLE_SHAPES = {"f1": (0.5, 1.5, -1.0), "f2": (1.5, 0.5, +1.0)}

    def dense_oracle(self, spectral, scat, pulse, profile, near, gauge):
        """Rebuild a profile at the grid node nearest ``near`` on a dense
        uniform grid spanning the whole spectral support, at t = 0.

        The only machinery shared with the production path is the
        pole-subtraction rule, which is validated on analytic cases
        elsewhere.  Returns the production value and the oracle.
        """
        a, b, causal = self.DENSE_ORACLE_SHAPES[profile]
        shift, sign = (1.0, -1.0) if gauge == "coulomb" else (0.0, 1.0)
        i = int(np.argmin(np.abs(spectral.grid.nodes - near)))
        p = spectral.grid.nodes[i]
        k = np.linspace(0.5, 1.5, 50001)  # k = 1 is a node
        a0, tau, phi = scat.a0, pulse.tau, pulse.phi
        w = trapezoid_weights(k)

        def alpha(x):
            gauss = np.exp(-np.square(x - 1.0) * tau ** 2 / (2.0 * math.pi))
            return gauss / (1j * np.sqrt(x))

        def kern(x):
            return x ** (b + shift) * regularizer(x, a0) * scat.chi(x)

        norm = math.sqrt(phi / ((np.abs(alpha(k)) ** 2) @ w / (2.0 * math.pi)))
        plus = (kern(k) * np.conj(norm * alpha(k)) / (k + p)) @ w
        pv = pv_integral(kern(k) * norm * alpha(k), k, p, weights=w)
        oracle = sign * p ** (a - shift) * regularizer(p, a0) * (
            plus / (2.0 * math.pi) + causal * (
                pv / (2.0 * math.pi) - 0.5j * kern(p) * norm * alpha(p)))
        got = FrequencyIntegrals(spectral, scat, gauge).eval(0.0)[profile][i]
        return got, oracle

    @pytest.mark.parametrize("gauge", ["multipolar", "coulomb"])
    @pytest.mark.parametrize("near", [0.9, 1.0, 1.1])
    def test_f2_against_dense_uniform_grid(self, spectral_200, scat_532,
                                           pulse_200, near, gauge):
        # the nodes near p = 0.9 and 1.1 check the factor p in
        # f2 = chi0 p f3, which cannot show at the carrier
        got, oracle = self.dense_oracle(spectral_200, scat_532, pulse_200,
                                        "f2", near, gauge)
        assert got == pytest.approx(oracle, rel=1e-8, abs=0)

    @pytest.mark.parametrize("gauge", ["multipolar", "coulomb"])
    @pytest.mark.parametrize("near", [0.9, 1.0, 1.1])
    def test_f1_against_dense_uniform_grid(self, spectral_200, scat_532,
                                           pulse_200, near, gauge):
        # f1 is built from f3's kernel times k, with the causal sign flipped
        got, oracle = self.dense_oracle(spectral_200, scat_532, pulse_200,
                                        "f1", near, gauge)
        assert got == pytest.approx(oracle, rel=1e-8, abs=0)

    def test_a_block_costs_two_products(self, spectral_200, scat_532,
                                        monkeypatch):
        # V + P and V - P each act once on a (2, T, n) stack: f1 and f3
        # share them, and f2 is formed from f3
        calls = []

        class Spy(np.ndarray):
            def __rmatmul__(self, other):
                calls.append(other.shape)
                return other @ self.view(np.ndarray)

        integ = FrequencyIntegrals(spectral_200, scat_532)
        times = np.linspace(-100.0, 100.0, 7)
        plain = integ.eval(times)
        monkeypatch.setattr(integ, "_sum", integ._sum.view(Spy))
        monkeypatch.setattr(integ, "_diff", integ._diff.view(Spy))
        spied = integ.eval(times)
        assert calls == [(2, 7, spectral_200.grid.size)] * 2
        for name in ("f1", "f2", "f3"):
            np.testing.assert_array_equal(spied[name], plain[name])

    @pytest.mark.parametrize("gauge", ["multipolar", "coulomb"])
    def test_array_of_times_stacks_single_times(self, spectral_200, scat_532,
                                                gauge):
        integ = FrequencyIntegrals(spectral_200, scat_532, gauge)
        times = np.array([-120.0, 0.0, 0.7, 250.0])
        block = integ.eval(times)
        for name in ("f1", "f2", "f3"):
            assert block[name].shape == (times.size, spectral_200.grid.size)
            single = np.stack([integ.eval(t)[name] for t in times])
            # relative to each profile's peak: block and single-time products
            # sum in different orders, which shows element-wise only in the
            # far tail of f1, many orders of magnitude below its peak
            dev = np.abs(block[name] - single).max(axis=-1)
            assert np.all(dev <= 1e-13 * np.abs(single).max(axis=-1)), name

    @pytest.mark.parametrize("gauge,shift", [("multipolar", 0.0),
                                             ("coulomb", -1.0)])
    def test_off_shell_tail_powers(self, spectral_200, scat_532, gauge,
                                   shift):
        """Premise of the passing size exponents of acceptance criterion 7.

        In the off-shell tail 1 << p << 2/a0 the k-integrals go as 1/p,
        so f3 ~ p^(-1/2) and f2 ~ p^(1/2) (one power lower each in the
        Coulomb coupling).  A profile f ~ p^n there makes int p^2 |f|^2 dp,
        cut off at 2/a0, scale as (lambda/a0)^(2n + 3): j00 (from f3) as
        (lambda/a0)^2 and j11 (from f2) as (lambda/a0)^4, or 0 and 2 in the
        Coulomb coupling.  f1 is left out: its tail sets the j03 exponent,
        whose expected value the program does not reach.
        """
        small = replace(scat_532, a0=LAM / 2000.0)
        f = FrequencyIntegrals(spectral_200, small, gauge).eval(
            math.pi / 4.0)
        p = spectral_200.grid.nodes
        tail = (p >= 5.0) & (p <= 60.0)
        for name, power in (("f2", 0.5), ("f3", -0.5)):
            got, _ = fit_power_law(p[tail], np.abs(f[name][tail]))
            assert got == pytest.approx(power + shift, abs=0.05), name


def test_covariance_kernels_are_symmetric_and_small(scat_532, spectral_200):
    delta_xi, upsilon = covariance_kernels(spectral_200.grid, scat_532)
    np.testing.assert_allclose(delta_xi, delta_xi.T, rtol=1e-14)
    np.testing.assert_allclose(upsilon, upsilon.T, rtol=1e-14)
    # both carry the tiny squared coupling d0^2 = omega0 chi0
    assert np.abs(delta_xi).max() < scat_532.d0_sq
    assert np.abs(upsilon).max() < 2.0 * scat_532.d0_sq


class TestQfiMatrix:
    def test_structure(self, scat_532, spectral_200):
        series = qfi_matrix(scat_532, spectral_200, [0.0, 300.0])
        assert series.j.shape == (2, 4, 4)
        j = series.j[1]
        assert j[1, 1] > 0 and j[2, 2] == pytest.approx(2.0 * j[1, 1], rel=1e-14)
        # the only allowed off-diagonal entry couples chi0 and z0
        assert j[0, 1] == j[0, 2] == j[1, 2] == j[1, 3] == j[2, 3] == 0.0
        assert j[0, 3] == j[3, 0]
        assert series.diagonal().shape == (2, 4)

    def test_linear_in_fluence(self, scat_532, pulse_200, spectral_200):
        bright = SpectralPulse.from_pulse(Pulse(phi=2.0, tau=pulse_200.tau))
        a = qfi_matrix(scat_532, spectral_200, [100.0]).j[0]
        b = qfi_matrix(scat_532, bright, [100.0]).j[0]
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-12)

    def test_position_information_oscillates_at_twice_the_drive(
            self, scat_532, spectral_200):
        # during the pulse j33 breathes at 2 omega; crests half a period
        # apart match and the swing is a large fraction of the mean
        times = np.array([-math.pi / 2.0, -math.pi / 4.0, 0.0,
                          math.pi / 4.0, math.pi / 2.0])
        j33 = qfi_matrix(scat_532, spectral_200, times).j[:, 3, 3]
        rng = j33.max() - j33.min()
        assert rng / (j33.max() + j33.min()) > 0.1
        assert abs(j33[0] - j33[-1]) < 0.05 * rng

    def test_coupling_conventions_disagree_only_in_the_transient(
            self, scat_532, spectral_200, pulse_200):
        t_late = 5.0 * pulse_200.tau
        mp = qfi_matrix(scat_532, spectral_200, [0.0, t_late])
        cb = qfi_matrix(scat_532, spectral_200, [0.0, t_late], gauge="coulomb")
        # mid-pulse the multipolar profiles carry much more weight
        assert mp.j[0, 1, 1] > 1.5 * cb.j[0, 1, 1]
        # after the pulse both conventions describe the same free photons
        np.testing.assert_allclose(cb.j[1], mp.j[1], rtol=2e-2)

    def test_corrections_are_small_and_multipolar_only(self, scat_532,
                                                       spectral_200):
        with pytest.raises(ValueError, match="multipolar"):
            qfi_matrix(scat_532, spectral_200, [0.0], gauge="coulomb",
                       corrections=True)
        plain = qfi_matrix(scat_532, spectral_200, [0.0]).j[0]
        corr = qfi_matrix(scat_532, spectral_200, [0.0], corrections=True).j[0]
        assert corr[0, 0] != plain[0, 0]
        assert abs(corr[0, 0] - plain[0, 0]) < 1e-4 * plain[0, 0]
        assert abs(corr[3, 3] - plain[3, 3]) < 1e-4 * plain[3, 3]
        # position block is untouched by the chi/z covariance terms
        assert corr[1, 1] == plain[1, 1]

    def test_series_longer_than_a_block_matches_single_times(
            self, scat_532, spectral_200):
        n = spectral_200.grid.size
        times = np.linspace(-300.0, 600.0, qfi._BLOCK_ELEMENTS // n + 9)
        series = qfi_matrix(scat_532, spectral_200, times, corrections=True).j
        # both ends and both sides of the first block boundary
        for i in (0, qfi._BLOCK_ELEMENTS // n - 1, qfi._BLOCK_ELEMENTS // n,
                  times.size - 1):
            one = qfi_matrix(scat_532, spectral_200, [times[i]],
                             corrections=True).j[0]
            np.testing.assert_allclose(series[i], one, rtol=1e-13,
                                       atol=1e-13 * np.abs(one).max())


class TestScatteredPhotons:
    def test_matches_qfi_identity(self, scat_532, spectral_200):
        # two independent pipelines: J00 = 4 N_sc / chi0^2 at any time
        times = [-100.0, 100.0, 400.0]
        nsc = nsc_series(scat_532, spectral_200, times)
        j00 = qfi_matrix(scat_532, spectral_200, times).j[:, 0, 0]
        np.testing.assert_allclose(4.0 * nsc / scat_532.chi0 ** 2, j00,
                                   rtol=1e-10)

    def test_series_longer_than_a_block_matches_single_times(
            self, scat_532, spectral_200):
        n = spectral_200.grid.size
        times = np.linspace(-300.0, 600.0, qfi._BLOCK_ELEMENTS // n + 9)
        series = nsc_series(scat_532, spectral_200, times)
        for i in (0, qfi._BLOCK_ELEMENTS // n, times.size - 1):
            one = nsc_series(scat_532, spectral_200, [times[i]])[0]
            assert series[i] == pytest.approx(one, rel=1e-13)

    def test_pv_calls_scale_with_time_blocks(self, scat_532, spectral_200,
                                             monkeypatch):
        # pole subtraction runs once per block of times, not once per time
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return pv_integral(*args, **kwargs)

        monkeypatch.setattr(qfi, "pv_integral", counted)
        nsc_series(scat_532, spectral_200, [0.0])
        single = len(calls)
        calls.clear()
        n = spectral_200.grid.size
        nsc_series(scat_532, spectral_200,
                   np.linspace(-300.0, 600.0, qfi._BLOCK_ELEMENTS // n + 9))
        assert single > 0
        assert len(calls) == 2 * single

    def test_independent_of_the_qfi_route(self, scat_532, spectral_200,
                                          monkeypatch):
        # the photon identity is a check only while the two routes share
        # neither the profile evaluator nor the principal-value matrix
        def forbidden(*args, **kwargs):
            raise AssertionError("nsc_series reused the QFI route")

        monkeypatch.setattr(qfi, "pv_matrix", forbidden)
        monkeypatch.setattr(qfi, "FrequencyIntegrals", forbidden)
        assert nsc_series(scat_532, spectral_200, [0.0])[0] > 0.0

    def test_causality(self, scat_532, spectral_200, pulse_200):
        early, late = nsc_series(scat_532, spectral_200,
                                 [-4.0 * pulse_200.tau, 5.0 * pulse_200.tau])
        assert early < 1e-4 * late

    def test_late_time_level(self, scat_532, spectral_200, pulse_200):
        # N_sc(infinity) = sigma phi softened by the source form factor and
        # enhanced by the on-shell response
        (late,) = nsc_series(scat_532, spectral_200, [5.0 * pulse_200.tau])
        predict = (scat_532.cross_section() * pulse_200.phi
                   * regularizer(1.0, scat_532.a0) ** 4
                   * (scat_532.chi(1.0) / scat_532.chi0) ** 2)
        assert late == pytest.approx(predict, rel=2e-2)

    def test_level_is_duration_free(self, scat_532):
        levels = []
        for tau in (44.0, 88.0, 176.0):
            sp = SpectralPulse.from_pulse(Pulse(phi=1.0, tau=tau))
            levels.append(nsc_series(scat_532, sp, [5.0 * tau])[0])
        assert max(levels) / min(levels) < 1.05


class TestFarfieldLimits:
    def test_qfi_closed_form(self):
        s = Scatterer(chi0=3e-4)
        j = farfield_qfi(s, phi=7.0)
        base = 8.0 * s.chi0 ** 2 * 7.0 / (15.0 * math.pi)
        np.testing.assert_allclose(
            np.diag(j), [5.0 * base / s.chi0 ** 2, base, 2.0 * base, 7.0 * base],
            rtol=1e-14)
        assert np.all(j == j.T)

    def test_qcrb_constants(self):
        c = farfield_qcrb_constants()
        np.testing.assert_allclose(
            c, [0.5, 0.177941, 0.125823, 0.067255], atol=5e-7)

    def test_constants_follow_from_the_matrix(self):
        # sqrt(N_sc / J_ii), normalized by chi0 or the wavelength
        s = Scatterer(chi0=1.3e-5)
        phi = 2.9
        j = np.diag(farfield_qfi(s, phi))
        nsc = s.cross_section() * phi
        lam = 2.0 * math.pi
        expect = np.array([math.sqrt(nsc / j[0]) / s.chi0,
                           math.sqrt(nsc / j[1]) / lam,
                           math.sqrt(nsc / j[2]) / lam,
                           math.sqrt(nsc / j[3]) / lam])
        np.testing.assert_allclose(farfield_qcrb_constants(), expect, rtol=1e-12)


class TestModeIntegralField:
    def test_requires_finite_source(self):
        with pytest.raises(PhysicsError, match="a0"):
            mode_integral_field(np.array([[0.0, 0.0, 1.0]]),
                                Scatterer(chi0=1.0, a0=0.0))

    def test_rejects_the_center(self, scat_532):
        with pytest.raises(PhysicsError, match="center"):
            mode_integral_field(np.zeros((1, 3)), scat_532)

    def test_agrees_with_closed_forms(self, scat_532):
        from dipolebounds.fields import scattered_regularized

        d = np.array([0.3, -0.5, 0.8])
        d /= np.linalg.norm(d)
        pts = (5.0 * scat_532.a0 * d)[None, :]
        e_mode, b_mode = mode_integral_field(pts, scat_532)
        fs = scattered_regularized(pts, scat_532)
        assert np.linalg.norm(e_mode - fs.e) / np.linalg.norm(fs.e) < 1e-3
        assert np.linalg.norm(b_mode - fs.b) / np.linalg.norm(fs.b) < 1e-3
