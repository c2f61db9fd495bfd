"""Quantum Fisher information pipeline: spectra, profiles, assembly, limits."""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dipolebounds import cli, qfi, scenarios
from dipolebounds.fields import poynting_avg, scattered_regularized
from dipolebounds.fisher import n_scattered
from dipolebounds.model import PhysicsError, Pulse, Scatterer
from dipolebounds.qfi import (
    FrequencyIntegrals,
    SpectralPulse,
    farfield_qcrb_constants,
    farfield_qfi,
    mode_integral_field,
    nsc_series,
    nsc_series_list,
    qfi_matrices,
    qfi_matrix,
    regularizer,
)
from dipolebounds.quadrature import (SinhGrid, pv_integral, pv_matrix,
                                     trapezoid_weights)
from dipolebounds.scenarios import fit_power_law, size_scaling_sweep

LAM = 2.0 * math.pi


def fluence_on_grid(spectral):
    """Fluence recovered from the sampled amplitude."""
    return (np.abs(spectral.alpha) ** 2) @ spectral.grid.weights / (2.0 * math.pi)


def carrier_index(grid):
    """The node at the carrier wavenumber 1."""
    return int(np.flatnonzero(grid.nodes == 1.0)[0])


@pytest.fixture(scope="module")
def spectral_10():
    # a ten-cycle pulse: its band starts at the first grid node
    return SpectralPulse.from_pulse(Pulse(phi=1.0, tau=10.0))


class TestSpectralPulse:
    def test_normalization_reproduces_fluence(self, spectral_200, pulse_200):
        # alpha is scaled on the grid, so this must hold to rounding
        assert fluence_on_grid(spectral_200) == pytest.approx(
            pulse_200.phi, rel=1e-13)

    def test_rejects_broadband_pulse(self):
        with pytest.warns(UserWarning):
            short = Pulse(phi=1.0, tau=6.0)
        with pytest.raises(PhysicsError, match="spectrum"):
            SpectralPulse.from_pulse(short)

    def test_support_brackets_the_carrier(self, spectral_200):
        # the band is alpha's support: nodes 29-321 of 537 for tau = 200
        grid, band = spectral_200.grid, spectral_200.band
        assert (band.start, band.stop, grid.size) == (29, 322, 537)
        assert band.start < carrier_index(grid) < band.stop

    @pytest.mark.parametrize("spectrum,start,width", [
        ("spectral_200", 29, 293), ("spectral_10", 0, 401)])
    def test_band_premises(self, spectrum, start, width, request):
        # the real-arithmetic kernels rest on these: alpha is purely
        # imaginary, and zero exactly off one contiguous band of nodes
        sp = request.getfixturevalue(spectrum)
        band, alpha = sp.band, sp.alpha
        assert (band.start, band.stop - band.start) == (start, width)
        assert np.all(alpha.real == 0.0)
        assert np.all(alpha[band] != 0.0)
        assert not np.any(alpha[:band.start]) and not np.any(alpha[band.stop:])

    def test_rejects_a_broken_premise(self, spectral_200):
        grid, alpha = spectral_200.grid, spectral_200.alpha
        with pytest.raises(ValueError, match="imaginary"):
            SpectralPulse(grid, alpha + 1e-300)
        split = alpha.copy()
        split[carrier_index(grid)] = 0.0
        with pytest.raises(ValueError, match="contiguous"):
            SpectralPulse(grid, split)

    def test_time_evolution_is_a_pure_phase(self, spectral_200):
        band = spectral_200.band
        re, im = spectral_200.band_values(17.3)
        np.testing.assert_allclose(np.hypot(re, im),
                                   np.abs(spectral_200.alpha[band]),
                                   rtol=1e-14)
        k = spectral_200.grid.nodes[band]
        np.testing.assert_allclose(
            re + 1j * im, spectral_200.alpha[band] * np.exp(-1j * k * 17.3),
            rtol=1e-12)

    def test_array_of_times_stacks_single_times(self, spectral_200):
        times = np.array([[-50.0, 0.0], [17.3, 400.0]])
        width = spectral_200.band.stop - spectral_200.band.start
        re, im = spectral_200.band_values(times)
        assert re.shape == im.shape == times.shape + (width,)
        for t, row_re, row_im in zip(times.ravel(), re.reshape(-1, width),
                                     im.reshape(-1, width)):
            one_re, one_im = spectral_200.band_values(t)
            np.testing.assert_array_equal(row_re, one_re)
            np.testing.assert_array_equal(row_im, one_im)

    def test_custom_grid(self, pulse_200):
        grid = SinhGrid(k_max=500.0)
        sp = SpectralPulse.from_pulse(pulse_200, grid)
        assert sp.grid is grid
        assert fluence_on_grid(sp) == pytest.approx(1.0, rel=1e-13)

    def test_shared_transforms_are_each_pulses_own(self, pulse_200,
                                                   monkeypatch):
        # pulses on one grid take their band rows of one build over the
        # union of the bands, bit for bit the rows each builds alone
        grid = SinhGrid()
        pulses = [Pulse(phi=1.0, tau=10.0), pulse_200]
        alone = [SpectralPulse.from_pulse(p, grid).transforms for p in pulses]
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return pv_matrix(*args, **kwargs)

        monkeypatch.setattr(qfi, "pv_matrix", counted)
        shared = [SpectralPulse.from_pulse(p, grid) for p in pulses]
        qfi.share_transforms(shared)
        assert len(calls) == 1
        for sp, want in zip(shared, alone):
            for got, ref in zip(sp.transforms, want):
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()
        assert len(calls) == 1
        with pytest.raises(ValueError, match="one grid"):
            qfi.share_transforms([shared[0], SpectralPulse.from_pulse(
                pulse_200, SinhGrid())])


def blocked_phases(spectral, t, rows, kern=None):
    """:meth:`SpectralPulse.band_phases` of ``t`` in blocks of ``rows``,
    each block copied before the next reuses its buffers, stacked."""
    phases = spectral.band_phases(t, rows, kern)
    blocks = [tuple(np.copy(part) for part in
                    phases(lo, min(lo + rows, t.size)))
              for lo in range(0, t.size, rows)]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def fig3_runs():
    """fig3's two ``(scatterer, spectral, times)`` on one grid, each with
    its time axis, as ``qfi-time --preset fig3`` builds them."""
    cfg = cli.resolve_config(None, "fig3", None)
    grid = cli.build_grid(cfg)
    units, scat, pulse = cli.build_physics(cfg)
    run = cfg["run"]
    times = scenarios.default_time_axis(
        pulse, run["samples_per_period"],
        (run["t_min_over_tau"], run["t_max_over_tau"]))
    units2, scat2, pulse2 = cli.build_physics(cfg, run["second_lambda_nm"])
    return [(scat, SpectralPulse.from_pulse(pulse, grid), times),
            (scat2, SpectralPulse.from_pulse(pulse2, grid),
             units2.time_to_internal(units.time_from_internal(times)))]


class TestBandPhases:
    """A series taken in blocks gets its band values by angle addition
    from one table of offsets when it is equally spaced, and
    band_values' own rows otherwise."""

    @staticmethod
    def assert_near_band_values(spectral, t, got, kern=1.0):
        # band_values rounds k t by half an ulp; the angle addition adds
        # the axis's deviation from equal spacing (4 ulps of max |t| on
        # fig3's axes): each element within 8 eps max|k t| of |kern a|
        band = spectral.band
        ref = spectral.band_values(t)
        bound = (8.0 * np.finfo(float).eps * np.abs(t).max()
                 * spectral.grid.nodes[band].max()
                 * np.abs(kern * spectral.alpha.imag[band]))
        for part, want in zip(got, ref):
            assert part.shape == want.shape
            assert np.all(np.abs(part - kern * want) <= bound)

    def test_fig3_axes_and_their_distinct_times(self):
        for _, spectral, times in fig3_runs():
            rows = qfi._BLOCK_ELEMENTS // spectral.grid.size
            for t in (times, qfi._time_pairs(times)[0]):
                assert t.size > rows and qfi._equal_step(t) is not None
                self.assert_near_band_values(
                    spectral, t, blocked_phases(spectral, t, rows))

    def test_a_long_series_from_a_negative_time(self, spectral_200,
                                                scat_532):
        # blocks of 7 over 3.5 blocks' worth of times, kernel folded in;
        # each block's first row is band_values' times the kernel exactly
        t = np.linspace(-300.0, 600.0, 25)
        kern = FrequencyIntegrals(spectral_200, scat_532)._kern
        got = blocked_phases(spectral_200, t, 7, kern)
        self.assert_near_band_values(spectral_200, t, got, kern)
        sin, cos = spectral_200.band_values(t[::7])
        assert np.array_equal(got[0][::7], sin * kern)
        assert np.array_equal(got[1][::7], cos * kern)
        assert not np.array_equal(got[0], spectral_200.band_values(t)[0]
                                  * kern)

    def test_unequal_spacing_gets_band_values(self, spectral_200, scat_532,
                                              pulse_200):
        # size-scan's peak window plus 5 tau, its times and its distinct
        # |t|, in blocks of 3: band_values' rows bit for bit
        window = np.append(scenarios._paired_linspace(-0.5 * math.pi, 0.5 * math.pi,
                                            65), 5.0 * pulse_200.tau)
        kern = FrequencyIntegrals(spectral_200, scat_532)._kern
        for t in (window, qfi._time_pairs(window)[0]):
            assert qfi._equal_step(t) is None
            for k in (None, kern):
                got = blocked_phases(spectral_200, t, 3, k)
                want = spectral_200.band_values(t)
                for part, ref in zip(got, want):
                    if k is not None:
                        ref *= k
                    assert part.tobytes() == ref.tobytes()

    def test_fig3_takes_few_rows_of_sin(self, monkeypatch):
        # per series, np.sin runs on at most one block's rows of offsets
        # plus one start row per block, against one row per time directly
        log = []
        sin, band_phases = np.sin, SpectralPulse.band_phases

        def counted(x, *args, **kwargs):
            log[-1][1] += np.size(x) // np.shape(x)[-1]
            return sin(x, *args, **kwargs)

        def marked(self, t, rows, kern=None):
            log.append([(np.size(t), rows), 0])
            return band_phases(self, t, rows, kern)

        monkeypatch.setattr(np, "sin", counted)
        monkeypatch.setattr(SpectralPulse, "band_phases", marked)
        runs = fig3_runs()
        qfi.nsc_series_list(runs)
        for scat, spectral, times in runs:
            qfi_matrix(scat, spectral, times)
        assert [size for (size, _), _ in log] == [449, 449, 281, 281]
        for (size, rows), count in log:
            assert count <= rows + math.ceil(size / rows) < size


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
        # V + P and V - P each act once on a (T, m) array of the m band
        # nodes: f1 follows from f3's products, and f2 is formed from f3
        calls = []

        class Spy(np.ndarray):
            def __rmatmul__(self, other):
                calls.append(other.shape)
                return other @ self.view(np.ndarray)

        integ = FrequencyIntegrals(spectral_200, scat_532)
        times = np.linspace(-100.0, 100.0, 7)
        plain = integ.eval(times)
        monkeypatch.setitem(spectral_200.__dict__, "transforms", tuple(
            m.view(Spy) for m in spectral_200.transforms))
        spied = integ.eval(times)
        band = spectral_200.band
        assert calls == [(7, band.stop - band.start)] * 2
        for name in ("f1", "f2", "f3"):
            np.testing.assert_array_equal(spied[name], plain[name])

    @pytest.mark.parametrize("gauge", ["multipolar", "coulomb"])
    @pytest.mark.parametrize("a0", [0.0, LAM / 30.0], ids=["point", "lambda/30"])
    def test_f1_follows_from_f3_products(self, spectral_200, scat_532, gauge,
                                         a0):
        # the reference route: k g through both transforms, with the causal
        # term -(i/2) k g; eval forms f1 from f3's products by pv_k_stencil
        integ = FrequencyIntegrals(spectral_200, replace(scat_532, a0=a0),
                                   gauge)
        times = np.array([-240.0, -1.3, 0.0, 2.5, 130.0])
        band = spectral_200.band
        kb = spectral_200.grid.nodes[band]
        v_sum, v_diff = spectral_200.transforms
        g_re, g_im = integ._pulse(times)
        v_re = (kb * g_re) @ v_diff
        v_im = (kb * g_im) @ v_sum
        v_re[:, band] += math.pi * kb * g_im
        v_im[:, band] -= math.pi * kb * g_re
        want = -integ._chi0 * integ._pref * (v_re + 1j * v_im)
        got = integ.eval(times)["f1"]
        dev = np.abs(got - want).max(axis=-1)
        assert np.all(dev <= 1e-13 * np.abs(want).max(axis=-1)), dev

    def test_one_transform_build_per_spectrum(self, scat_532, pulse_200,
                                              spectral_200, monkeypatch):
        # V +- P depend on the grid alone: a size sweep over radii and both
        # gauges builds them once, on the spectrum the sweep makes itself
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return pv_matrix(*args, **kwargs)

        monkeypatch.setattr(qfi, "pv_matrix", counted)
        size_scaling_sweep(scat_532, pulse_200, [1 / 60, 1 / 40, 1 / 30],
                           gauges=("multipolar", "coulomb"), peak_samples=5,
                           grid=SinhGrid())
        assert len(calls) == 1
        # profiles in both gauges on a fresh pulse share its one build
        calls.clear()
        fresh = SpectralPulse.from_pulse(pulse_200)
        for gauge in qfi.GAUGES:
            FrequencyIntegrals(fresh, scat_532, gauge).eval(0.0)
        assert len(calls) == 1

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


def covariance_kernels(grid, scat):
    """The residual matter-light covariance kernels ``(delta_xi, upsilon)``
    as dense ``(n, n)`` arrays, from their defining formulas: with
    ``r = sqrt(p) xi_p`` and ``d = p + omega0``,
    ``delta_xi = d0^2 (r/d)_i (r/d)_j`` and
    ``upsilon = -d0^2 r_i r_j (1/d_i + 1/d_j) / (p_i + p_j)``."""
    p = grid.nodes
    root = np.sqrt(p) * regularizer(p, scat.a0)
    denom = p + scat.omega0
    d0_sq = scat.omega0 * scat.chi0
    delta_xi = d0_sq * np.outer(root / denom, root / denom)
    inv = 1.0 / denom
    upsilon = (-d0_sq * np.outer(root, root) / np.add.outer(p, p)
               * (inv[:, None] + inv[None, :]))
    return delta_xi, upsilon


def test_covariance_kernels_are_symmetric_and_small(scat_532, spectral_200):
    delta_xi, upsilon = covariance_kernels(spectral_200.grid, scat_532)
    np.testing.assert_allclose(delta_xi, delta_xi.T, rtol=1e-14)
    np.testing.assert_allclose(upsilon, upsilon.T, rtol=1e-14)
    # both carry the tiny squared coupling d0^2 = omega0 chi0
    d0_sq = scat_532.omega0 * scat_532.chi0
    assert np.abs(delta_xi).max() < d0_sq
    assert np.abs(upsilon).max() < 2.0 * d0_sq
    # qfi_matrices reads them as one grid-only Cauchy matrix and the weight
    # q = sqrt(p) xi_p / (p + omega0): upsilon + delta_xi = -2 omega0 d0^2
    # q_i q_j C_ij and upsilon - delta_xi is that minus 2 d0^2 q q^T
    p = spectral_200.grid.nodes
    q = np.sqrt(p) * regularizer(p, scat_532.a0) / (p + scat_532.omega0)
    plus = -2.0 * scat_532.omega0 * d0_sq * (
        np.outer(q, q) * qfi._cauchy(p))
    minus = plus - 2.0 * d0_sq * np.outer(q, q)
    scale = np.abs(upsilon).max()
    assert np.abs(upsilon + delta_xi - plus).max() <= 1e-15 * scale
    assert np.abs(upsilon - delta_xi - minus).max() <= 1e-15 * scale


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


def mirrored_window(half):
    """``-half`` and ``half`` as one window, each -t the exact negative of
    a +t; a 0 in ``half`` appears once."""
    return np.concatenate((-half[::-1][half[::-1] != 0.0], half))


class _ProductSpy(np.ndarray):
    """V +- P that record the stack each band product acts on."""

    calls: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        assert ufunc is np.matmul
        self.calls.append(inputs[0].shape)
        inputs = [x.view(np.ndarray) if isinstance(x, _ProductSpy) else x
                  for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


class _KernelSpy(_ProductSpy):
    """The covariance corrections' Cauchy matrix, recording the stacks it
    multiplies in a list of its own."""

    calls: list = []


@pytest.fixture
def product_rows(spectral_200, monkeypatch):
    """Rows of the band products qfi_matrix makes on ``spectral_200``,
    summed over blocks, per product."""
    calls = []
    monkeypatch.setattr(_ProductSpy, "calls", calls)
    monkeypatch.setitem(spectral_200.__dict__, "transforms", tuple(
        m.view(_ProductSpy) for m in spectral_200.transforms))

    def rows():
        # the two products of a block act on (rows, m) arrays of equal shape
        assert calls[::2] == calls[1::2]
        assert all(len(shape) == 2 for shape in calls)
        total = sum(shape[0] for shape in calls[::2])
        calls.clear()
        return total
    return rows


@pytest.fixture
def kernel_calls(monkeypatch):
    """Shapes of the stacks the Cauchy matrix multiplies."""
    calls = []
    monkeypatch.setattr(_KernelSpy, "calls", calls)
    cauchy = qfi._cauchy
    monkeypatch.setattr(qfi, "_cauchy",
                        lambda p: cauchy(p).view(_KernelSpy))
    return calls


class TestTimeReversalPairing:
    """A pulse with purely imaginary alpha is transform-limited:
    band_values(-t) mirrors band_values(t) bit for bit, so qfi_matrix makes
    one band product per distinct |t| and derives the other sign."""

    @staticmethod
    def mixed_series(n):
        # a mirrored window with t = 0, two unpaired negative times and a
        # repeated time, shuffled: _BLOCK_ELEMENTS // n + 9 distinct |t|
        half = np.linspace(0.0, 300.0, qfi._BLOCK_ELEMENTS // n + 7)
        window = mirrored_window(half)
        times = np.concatenate((window, [-137.3, -451.9, window[5]]))
        return np.random.default_rng(7).permutation(times)

    @pytest.mark.parametrize("gauge,corrections", [
        ("multipolar", False), ("coulomb", False), ("multipolar", True)])
    def test_paired_series_matches_single_times(self, scat_532, spectral_200,
                                                gauge, corrections):
        n = spectral_200.grid.size
        times = self.mixed_series(n)
        assert np.unique(np.abs(times)).size == qfi._BLOCK_ELEMENTS // n + 9
        series = qfi_matrix(scat_532, spectral_200, times, gauge,
                            corrections).j
        single = np.stack([qfi_matrix(scat_532, spectral_200, [t], gauge,
                                      corrections).j[0] for t in times])
        dev = np.abs(series - single).max(axis=0)
        assert np.all(dev <= 1e-13 * np.abs(single).max(axis=0)), dev

    def test_sources_in_one_call_match_single_calls(self, scat_532,
                                                   spectral_200):
        # more sources than one block has rows, in both gauges, with a
        # point source among the radii: chunked, stacked and paired, each
        # column stays within 1e-13 of its peak of the one-source calls
        n = spectral_200.grid.size
        times = self.mixed_series(n)
        radii = LAM * np.concatenate(([0.0], np.geomspace(1 / 400, 1 / 10,
                                                          qfi._BLOCK_ELEMENTS
                                                          // (2 * n) + 1)))
        sources = [(replace(scat_532, a0=a0), gauge) for a0 in radii
                   for gauge in qfi.GAUGES]
        assert len(sources) > qfi._BLOCK_ELEMENTS // n
        for corrections in (False, True):
            if corrections:
                sources = [src for src in sources if src[1] == "multipolar"]
            batch = qfi_matrices(spectral_200, times, sources, corrections)
            for (scat, gauge), series in zip(sources, batch, strict=True):
                single = qfi_matrix(scat, spectral_200, times, gauge,
                                    corrections).j
                assert np.array_equal(series.times, times)
                dev = np.abs(series.j - single).max(axis=0)
                assert np.all(dev <= 1e-13 * np.abs(single).max(axis=0)), dev
        with pytest.raises(ValueError, match="multipolar"):
            qfi_matrices(spectral_200, times,
                         [(scat_532, "multipolar"), (scat_532, "coulomb")],
                         corrections=True)

    def test_a_mirrored_window_costs_one_row_per_distinct_time(
            self, scat_532, spectral_200, product_rows):
        # N + 1 = _BLOCK_ELEMENTS // n + 9 rows, over more than one block
        big = qfi._BLOCK_ELEMENTS // spectral_200.grid.size + 8
        window = mirrored_window(np.linspace(0.0, 300.0, big + 1))
        assert window.size == 2 * big + 1
        qfi_matrix(scat_532, spectral_200, window)
        assert product_rows() == big + 1
        # an even window, with no t = 0, pairs every time
        qfi_matrix(scat_532, spectral_200, window[window != 0.0])
        assert product_rows() == big

    def test_an_unpaired_axis_costs_all_its_rows(self, scat_532, spectral_200,
                                                  product_rows):
        times = np.linspace(-300.0, 600.0, 149) + 0.1234
        assert np.unique(np.abs(times)).size == times.size
        qfi_matrix(scat_532, spectral_200, times)
        assert product_rows() == times.size

    def test_corrections_cost_four_kernel_rows_per_time(
            self, scat_532, spectral_200, kernel_calls):
        # the covariance forms act on u and v at the signed times: per
        # block of T times, one product of C with the 4T rows of their parts
        times = np.linspace(-300.0, 600.0, 149) + 0.1234
        qfi_matrix(scat_532, spectral_200, times, corrections=True)
        assert len(kernel_calls) > 1
        assert sum(math.prod(shape[:-1])
                   for shape in kernel_calls) == 4 * times.size

    def test_corrected_blocks_hold_their_signed_times(
            self, scat_532, spectral_200, product_rows, kernel_calls):
        # a mirrored window of 2 per + 1 times, per = _BLOCK_ELEMENTS // n:
        # each corrected block holds at most per signed times, and the
        # products still run once per distinct |t|
        per = qfi._BLOCK_ELEMENTS // spectral_200.grid.size
        window = mirrored_window(np.linspace(0.0, 300.0, per + 1))
        qfi_matrix(scat_532, spectral_200, window, corrections=True)
        assert product_rows() == per + 1
        assert max(shape[-2] for shape in kernel_calls) <= per
        assert sum(math.prod(shape[:-1])
                   for shape in kernel_calls) == 4 * window.size

    def test_corrected_sources_share_one_cauchy_matrix(
            self, scat_532, spectral_200, kernel_calls, monkeypatch):
        # sources of their own radius, coupling and resonance: one (n, n)
        # matrix per call, one stacked product per block, and each source
        # within 1e-13 of each column's peak of its one-source call
        n = spectral_200.grid.size
        built = []
        cauchy = qfi._cauchy
        monkeypatch.setattr(qfi, "_cauchy",
                            lambda p: built.append(p.shape) or cauchy(p))
        sources = [(replace(scat_532, a0=a0, chi0=chi0, omega0=omega0),
                    "multipolar")
                   for a0, chi0, omega0 in ((0.0, scat_532.chi0, 5.32),
                                            (LAM / 60, 2.0 * scat_532.chi0,
                                             3.1),
                                            (LAM / 30, scat_532.chi0, 8.0))]
        times = self.mixed_series(n)
        batch = qfi_matrices(spectral_200, times, sources, corrections=True)
        assert built == [(n,)]
        assert {shape[:2] for shape in kernel_calls} == {(4, len(sources))}
        assert sum(shape[2] for shape in kernel_calls) == times.size
        built.clear()
        for (scat, gauge), series in zip(sources, batch, strict=True):
            single = qfi_matrix(scat, spectral_200, times, gauge,
                                corrections=True).j
            dev = np.abs(series.j - single).max(axis=0)
            assert np.all(dev <= 1e-13 * np.abs(single).max(axis=0)), dev
        assert built == [(n,)] * len(sources)

    @pytest.mark.parametrize("samples,rows", [(65, 33), (6, 3)])
    def test_size_scan_window_is_mirrored(self, scat_532, pulse_200,
                                          spectral_200, product_rows,
                                          samples, rows, monkeypatch):
        # the peak window's rows pair, and the late time adds one row
        monkeypatch.setattr(qfi.SpectralPulse, "from_pulse",
                            lambda *args: spectral_200)
        size_scaling_sweep(scat_532, pulse_200, [1 / 60],
                           gauges=("multipolar",), peak_samples=samples,
                           grid=spectral_200.grid)
        assert product_rows() == rows + 1

    def test_size_scan_stacks_its_sources(self, scat_532, pulse_200,
                                          spectral_200, product_rows,
                                          paper_scan, monkeypatch):
        # size-scan's 8 radii in 2 gauges share one call: 16 x 34
        # rows per transform for the 34 distinct |t| of its 66 times
        monkeypatch.setattr(qfi.SpectralPulse, "from_pulse",
                            lambda *args: spectral_200)
        size_scaling_sweep(scat_532, pulse_200, **paper_scan.size)
        assert product_rows() == 16 * 34


class TestScatteredPhotons:
    def test_matches_qfi_identity(self, scat_532, spectral_200):
        # two independent pipelines: J00 = 4 N_sc / chi0^2 at any time
        times = [-100.0, 100.0, 400.0]
        nsc = nsc_series(scat_532, spectral_200, times)
        j00 = qfi_matrix(scat_532, spectral_200, times).j[:, 0, 0]
        np.testing.assert_allclose(4.0 * nsc / scat_532.chi0 ** 2, j00,
                                   rtol=1e-10)

    def test_matches_the_paired_qfi(self, scat_532, spectral_200, pulse_200):
        # the oracle is unpaired: a fault in qfi_matrix's time-reversal
        # pairing cannot hide under validate's 1e-2 photon-identity gate
        times = np.linspace(-3.0, 5.0, 33) * pulse_200.tau
        negative = times[times < 0]
        assert negative.size == 12 and np.all(np.isin(-negative, times))
        nsc = nsc_series(scat_532, spectral_200, times)
        j00 = qfi_matrix(scat_532, spectral_200, times).j[:, 0, 0]
        dev = np.abs(j00 * scat_532.chi0 ** 2 / 4.0 - nsc)
        assert dev.max() <= 1e-12 * nsc.max()

    def test_early_times_keep_nine_digits(self, scat_1030, pulse_1030):
        # before the 1030 nm, 24 fs pulse arrives, J00 at -|t| is an even
        # sum minus an odd one of nearly equal size and loses digits to the
        # difference; the photon identity still holds to 1e-9 of J00
        scat = replace(scat_1030, a0=0.1)
        spectral = SpectralPulse.from_pulse(pulse_1030)
        times = np.arange(-5.0, -1.0) * pulse_1030.tau
        nsc = nsc_series(scat, spectral, times)
        j00 = qfi_matrix(scat, spectral, times).j[:, 0, 0]
        dev = np.abs(j00 - 4.0 * nsc / scat.chi0 ** 2) / j00
        assert np.all(dev <= 1e-9), dev

    def test_series_longer_than_a_block_matches_single_times(
            self, scat_532, spectral_200):
        n = spectral_200.grid.size
        times = np.linspace(-300.0, 600.0, qfi._BLOCK_ELEMENTS // n + 9)
        series = nsc_series(scat_532, spectral_200, times)
        for i in (0, qfi._BLOCK_ELEMENTS // n, times.size - 1):
            one = nsc_series(scat_532, spectral_200, [times[i]])[0]
            assert series[i] == pytest.approx(one, rel=1e-13)

    def test_pole_subtraction_built_once_per_series(
            self, scat_532, spectral_200, monkeypatch):
        # the pole-subtraction weights depend on the grid alone: one build
        # per call, however many blocks of times the series spans
        calls = []
        helper = qfi._pole_subtraction

        def counted(*args, **kwargs):
            calls.append(1)
            return helper(*args, **kwargs)

        monkeypatch.setattr(qfi, "_pole_subtraction", counted)
        nsc_series(scat_532, spectral_200, [0.0])
        assert len(calls) == 1
        calls.clear()
        n = spectral_200.grid.size
        nsc_series(scat_532, spectral_200,
                   np.linspace(-300.0, 600.0, qfi._BLOCK_ELEMENTS // n + 9))
        assert len(calls) == 1

    @pytest.mark.parametrize("ends", [(0.25, 0.75), (0.0, 1.0)])
    def test_operator_columns_are_pv_integral(self, ends):
        # pole columns apply pv_integral's rule, the rest plain excision;
        # (0, 1) puts poles on the nodes next to both grid ends
        grid = SinhGrid()
        k, w, n = grid.nodes, grid.weights, grid.size
        lo = max(1, int(ends[0] * n))
        hi = min(n - 2, int(ends[1] * n))
        inside = slice(lo, hi + 1)
        op = qfi._pv_operator(k, w, inside, slice(0, n))
        f = np.exp(-np.square(k - 1.0)) * np.sqrt(k)
        pv = f @ op
        for i in range(lo, hi + 1):
            assert pv[i] == pytest.approx(
                pv_integral(f, k, k[i], weights=w), rel=1e-12)
        excised = np.concatenate((np.arange(lo), np.arange(hi + 1, n)))
        assert excised[0] == 0 and excised[-1] == n - 1
        for i in excised:
            with np.errstate(divide="ignore"):
                col = w / (k - k[i])
            col[i] = 0.0
            assert pv[i] == pytest.approx(f @ col, rel=1e-12)

    @pytest.mark.parametrize("rows", [(0, 362), (29, 322), (1, 536),
                                      (300, 537), (0, 537)])
    def test_band_rows_are_the_full_operators(self, rows):
        # nsc_series builds only the band rows; each is the full operator's
        # row bit for bit, whether the rows start or end inside the poles
        grid = SinhGrid()
        k, w, n = grid.nodes, grid.weights, grid.size
        inside = slice(30, 321)
        full = qfi._pv_operator(k, w, inside, slice(0, n))
        part = qfi._pv_operator(k, w, inside, slice(*rows))
        assert part.tobytes() == full[slice(*rows)].tobytes()

    def test_operator_holds_no_pole_matrix(self):
        # the band rows are written in place: a build holds its (m, n)
        # result, one block of full rows for the pole-subtracted diagonal,
        # numpy's buffers for a strided output (three operands) and O(n)
        # vectors; a (P, n) pole matrix would take 4 to 9 blocks more
        grid = SinhGrid()
        k, w, n = grid.nodes, grid.weights, grid.size
        block = max(1, qfi._BLOCK_ELEMENTS // n) * n * 8
        for inside, rows in ((slice(1, 362), slice(0, 362)),
                             (slice(30, 321), slice(29, 322)),
                             (slice(1, n - 1), slice(0, n))):
            tracemalloc.start()
            op = qfi._pv_operator(k, w, inside, rows)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            pole_matrix = (inside.stop - inside.start) * n * 8
            assert pole_matrix > 4 * block
            assert peak <= (op.nbytes + block + 3 * np.getbufsize() * 8
                            + 32 * n * 8), (rows, peak - op.nbytes)

    def test_series_on_one_grid_match_each_alone(self, scat_532, pulse_200):
        # one operator on the union of two bands; each series multiplies
        # its own band's rows and is the series it gets alone, bit for bit
        grid = SinhGrid()
        runs = [(scat_532, SpectralPulse.from_pulse(p, grid),
                 np.linspace(-3.0, 5.0, 17) * p.tau)
                for p in (pulse_200, Pulse(phi=2.0, tau=10.0))]
        assert runs[0][1].band != runs[1][1].band
        got = nsc_series_list(runs)
        for (scat, sp, times), series in zip(runs, got):
            assert series.tobytes() == nsc_series(scat, sp, times).tobytes()
        with pytest.raises(ValueError, match="one grid"):
            nsc_series_list([runs[0], (scat_532, SpectralPulse.from_pulse(
                pulse_200), [0.0])])

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

    @pytest.mark.parametrize("a0", [0.0, LAM / 120.0, LAM / 30.0],
                             ids=["point", "lambda/120", "lambda/30"])
    def test_late_time_level_on_a_fine_grid(self, a0, scat_532, pulse_200):
        # the photon number the quantum route reaches, over the static point
        # value sigma phi that pulse.nsc_target fixes.  The default grid is
        # 1.25e-3 off at 5 tau; with delta / 4 it is within 7.8e-5
        scat = replace(scat_532, a0=a0)
        spectral = SpectralPulse.from_pulse(pulse_200, SinhGrid(delta=3.8e-2 / 4))
        (late,) = nsc_series(scat, spectral, [5.0 * pulse_200.tau])
        factor = (scat.chi(1.0) / scat.chi0) ** 2 * regularizer(1.0, a0) ** 4
        assert late / n_scattered(scat, pulse_200) == pytest.approx(
            factor, rel=2e-4)

    @pytest.mark.parametrize("a0", [LAM / 120.0, LAM / 30.0],
                             ids=["lambda/120", "lambda/30"])
    def test_quantum_to_classical_ratio(self, a0, scat_532, pulse_200):
        # the two routes model a finite source differently: the classical
        # field carries xi(1) once and the static chi0, the quantum
        # amplitude xi on drive and emission and chi(k).  Their photon
        # numbers differ by (chi(1) / chi0)^2 xi(1)^2.  The classical number
        # is the far-sphere Poynting sum of scattered_regularized (it equals
        # xi(1)^2 sigma phi to 1e-15); the quantum one is nsc_series at
        # 5 tau on a delta / 4 grid.  Measured 5.4e-5 (lambda/30) and 7.7e-5
        # (lambda/120) off, the quantum grid's error; tolerance 2e-4
        scat = replace(scat_532, a0=a0)
        nodes, weights = np.polynomial.legendre.leggauss(64)
        phi = np.linspace(0.0, 2.0 * math.pi, 129)[:-1]
        cth, ph = np.meshgrid(nodes, phi, indexing="ij")
        sth = np.sqrt(1.0 - cth**2)
        e_r = np.column_stack([(sth * np.cos(ph)).ravel(),
                               (sth * np.sin(ph)).ravel(), cth.ravel()])
        r = 100.0 * LAM
        s_r = np.sum(poynting_avg(scattered_regularized(r * e_r, scat))
                     * e_r, axis=-1)
        power = s_r @ np.outer(weights, np.full(phi.size, phi[1])).ravel() \
            * r**2
        classical = power / 0.5 * pulse_200.phi    # sigma phi, e_in = 1
        spectral = SpectralPulse.from_pulse(pulse_200,
                                            SinhGrid(delta=3.8e-2 / 4))
        (quantum,) = nsc_series(scat, spectral, [5.0 * pulse_200.tau])
        ratio = (scat.chi(1.0) / scat.chi0) ** 2 * regularizer(1.0, a0) ** 2
        assert quantum / classical == pytest.approx(ratio, rel=2e-4)

    def test_level_is_duration_free(self, scat_532):
        levels = []
        for tau in (44.0, 88.0, 176.0):
            sp = SpectralPulse.from_pulse(Pulse(phi=1.0, tau=tau))
            levels.append(nsc_series(scat_532, sp, [5.0 * tau])[0])
        assert max(levels) / min(levels) < 1.05


def dense_reference_qfi(scat, spectral, times, gauge, corrections):
    """The QFI as assembled before the band kernel: complex
    ``alpha exp(-ikt)`` on all n nodes, the full n x n V +- P and
    ``|f|^2 @ w p^2`` from the complex profiles."""
    k, w = spectral.grid.nodes, spectral.grid.weights
    pv = pv_matrix(k, w)
    plus = w[None, :] / (k[None, :] + k[:, None])
    v_sum, v_diff = (pv + plus).T, (pv - plus).T
    shift, sign = (1.0, -1.0) if gauge == "coulomb" else (0.0, 1.0)
    xi, chi0 = regularizer(k, scat.a0), scat.chi0
    kern = k ** (0.5 + shift) * xi * scat.chi(k) / chi0
    pref = sign * k ** (0.5 - shift) * xi
    g = kern * spectral.alpha * np.exp(-1j * k * np.asarray(times)[:, None])
    h = k * g
    x = np.stack((g.real, h.imag)) @ v_sum
    y = np.stack((g.imag, h.real)) @ v_diff
    f3 = pref * ((x[0] + 1j * y[0]) / (2.0 * math.pi) - 0.5j * g)
    f1 = -chi0 * pref * ((y[1] + 1j * x[1]) / (2.0 * math.pi) - 0.5j * h)
    f2 = chi0 * k * f3
    wp2 = w * k**2
    i1, i2, i3 = (np.square(np.abs(f)) @ wp2 for f in (f1, f2, f3))
    j11 = 4.0 / (15.0 * math.pi**2) * i2
    j33 = 2.0 * j11 + 4.0 / (3.0 * math.pi**2) * i1
    j00 = 4.0 / (3.0 * math.pi**2) * i3
    j03 = -4.0 / (3.0 * math.pi**2) * (np.imag(f1 * np.conj(f3)) @ wp2)
    if corrections:
        delta_xi, upsilon = covariance_kernels(spectral.grid, scat)
        a1, a3 = wp2 * f1, wp2 * f3
        c1, c3 = np.conj(a1), np.conj(a3)
        up1, dx1 = c1 @ upsilon, c1 @ delta_xi
        up3, dx3 = c3 @ upsilon, c3 @ delta_xi
        c = 4.0 / (9.0 * math.pi**4)
        j33 += c * np.sum(up1 * c1 - dx1 * a1, axis=-1).real
        j00 -= c * np.sum(up3 * c3 + dx3 * a3, axis=-1).real
        j03 -= c * np.sum(up1 * c3 + dx1 * a3, axis=-1).imag
    return np.stack((j00, j11, 2.0 * j11, j33, j03), axis=-1)


def dense_reference_nsc(scat, spectral, times):
    """The photon number as summed before the band kernel, on all n nodes."""
    k, w, n = spectral.grid.nodes, spectral.grid.weights, spectral.grid.size
    idx = np.flatnonzero(spectral.alpha)
    inside = slice(max(idx[0], 1), min(idx[-1], n - 2) + 1)
    v = qfi._pv_operator(k, w, inside, slice(0, n))
    plus = w[:, None] / np.add.outer(k, k)
    xi = regularizer(k, scat.a0)
    fk = (np.sqrt(k) * xi * scat.chi(k) * spectral.alpha
          * np.exp(-1j * k * np.asarray(times)[:, None]))
    amp = fk.real @ (v + plus) + 1j * (fk.imag @ (v - plus))
    s = (amp / (2.0 * math.pi) - 0.5j * fk) * (np.sqrt(k) * xi)
    return np.square(np.abs(s)) @ (w * k**2) / (3.0 * math.pi**2)


@pytest.mark.parametrize("spectrum,tau", [("spectral_200", 200.0),
                                          ("spectral_10", 10.0)])
class TestBandKernelAgainstDenseReference:
    """The band kernels drop the zero-amplitude rows and form no complex
    profile; against the dense complex route each output column agrees to
    1e-13 of its peak, across a block boundary."""

    @staticmethod
    def times(spectral, tau):
        return np.linspace(-3.0 * tau, 5.0 * tau, qfi._BLOCK_ELEMENTS
                           // spectral.grid.size + 9)

    @pytest.mark.parametrize("gauge,corrections", [
        ("multipolar", False), ("coulomb", False), ("multipolar", True)])
    def test_qfi_matrix(self, spectrum, tau, gauge, corrections, scat_532,
                        request):
        sp = request.getfixturevalue(spectrum)
        times = self.times(sp, tau)
        j = qfi_matrix(scat_532, sp, times, gauge, corrections).j
        got = np.stack((j[:, 0, 0], j[:, 1, 1], j[:, 2, 2], j[:, 3, 3],
                        j[:, 0, 3]), axis=-1)
        want = dense_reference_qfi(scat_532, sp, times, gauge, corrections)
        dev = np.abs(got - want).max(axis=0)
        assert np.all(dev <= 1e-13 * np.abs(want).max(axis=0)), dev

    def test_nsc_series(self, spectrum, tau, scat_532, request):
        sp = request.getfixturevalue(spectrum)
        times = self.times(sp, tau)
        want = dense_reference_nsc(scat_532, sp, times)
        got = nsc_series(scat_532, sp, times)
        assert np.abs(got - want).max() <= 1e-13 * want.max()


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

    def test_si_tail_series_matches_sici(self):
        # from the bound to 1e4, within 5e-11 of the envelope 1/x of
        # scipy's pi/2 - Si (measured 1.8e-11 at x = 30; above x = 100 the
        # 2e-12 left is scipy's own rounding)
        from scipy.special import sici

        xs = np.geomspace(qfi._SI_TAIL_MIN_X, 1e4, 2001)
        got = np.array([qfi._si_tail(x) for x in xs])
        want = 0.5 * math.pi - sici(xs)[0]
        assert np.max(np.abs(got - want) * xs) < 5e-11

    def test_refuses_points_below_the_tail_bound(self, scat_532):
        # at a0 = lambda/30 the bound p_max rho >= 30 falls at 2.9e-4 lambda
        with pytest.raises(PhysicsError, match="p_max rho >= 30"):
            mode_integral_field(np.array([[0.0, 0.0, 2.8e-4 * LAM]]),
                                scat_532)
        e, b = mode_integral_field(np.array([[0.0, 0.0, 3.0e-4 * LAM]]),
                                   scat_532)
        assert np.all(np.isfinite(e)) and np.all(np.isfinite(b))

    def test_agrees_with_closed_forms(self, scat_532):
        from dipolebounds.fields import scattered_regularized

        d = np.array([0.3, -0.5, 0.8])
        d /= np.linalg.norm(d)
        pts = (5.0 * scat_532.a0 * d)[None, :]
        e_mode, b_mode = mode_integral_field(pts, scat_532)
        fs = scattered_regularized(pts, scat_532)
        assert np.linalg.norm(e_mode - fs.e) / np.linalg.norm(fs.e) < 1e-3
        assert np.linalg.norm(b_mode - fs.b) / np.linalg.norm(fs.b) < 1e-3
