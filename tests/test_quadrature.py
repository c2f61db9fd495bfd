"""Principal-value quadrature and the sinh-spaced momentum grid."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dipolebounds.quadrature import (
    SinhGrid,
    pv_integral,
    pv_k_stencil,
    pv_matrix,
    trapezoid_weights,
)


def test_trapezoid_weights_match_numpy():
    x = np.sort(np.concatenate([np.linspace(0, 1, 40), [0.013, 0.42, 0.777]]))
    y = np.cos(3.0 * x)
    assert trapezoid_weights(x) @ y == pytest.approx(np.trapezoid(y, x), rel=1e-14)


class TestPvIntegral:
    def test_constant_integrand_gives_log(self):
        # PV int_1^4 dk/(k-2) = ln 2; pole subtraction makes this exact
        nodes = np.linspace(1.0, 4.0, 3001)
        pv = pv_integral(np.ones_like(nodes), nodes, 2.0)
        assert pv == pytest.approx(math.log(2.0), abs=1e-10)

    @given(st.floats(-5, 5), st.floats(0.1, 10), st.floats(0.05, 0.95),
           st.integers(5, 300))
    @settings(max_examples=60, deadline=None)
    def test_log_window_on_uneven_nodes(self, a, width, frac, n):
        # the analytic endpoint term survives any sampling of a constant
        nodes = a + width * np.linspace(0.0, 1.0, n) ** 2
        pole = a + frac * width
        if not nodes[0] < pole < nodes[-1]:
            return
        expect = math.log((nodes[-1] - pole) / (pole - nodes[0]))
        assert pv_integral(np.ones(n), nodes, pole) == pytest.approx(
            expect, rel=1e-9, abs=1e-9)

    def test_even_integrand_symmetric_window(self):
        nodes = np.linspace(-8.0, 8.0, 4001)
        pv = pv_integral(lambda x: np.exp(-np.square(x)), nodes, 0.0)
        assert abs(pv) < 1e-10

    def test_callable_and_samples_agree(self):
        nodes = np.linspace(0.2, 3.0, 801)
        f = lambda x: np.exp(-np.square(x - 1.3))
        a = pv_integral(f, nodes, 1.1)
        b = pv_integral(f(nodes), nodes, 1.1)
        assert b == pytest.approx(a, rel=1e-6)

    @pytest.mark.parametrize("pole", [0.2, 3.0, -1.0, 5.0])
    def test_pole_must_be_interior(self, pole):
        nodes = np.linspace(0.2, 3.0, 11)
        with pytest.raises(ValueError):
            pv_integral(np.ones(11), nodes, pole)

    def test_sample_rows_match_single_calls(self):
        # (T, n) samples give one principal value per row
        nodes = 0.1 + 3.0 * np.linspace(0.0, 1.0, 220) ** 2
        f = np.exp(-4.0 * (nodes - 1.0) ** 2) * np.exp(2j * nodes)
        fs = f * np.exp(1j * np.outer(np.arange(1.0, 6.0), nodes))
        # a pole off the nodes, one exactly on a node, one next to an end node
        for pole in (0.37, nodes[57], nodes[1]):
            rows = pv_integral(fs, nodes, pole)
            assert rows.shape == (5,)
            for f_row, row in zip(fs, rows):
                assert row == pytest.approx(pv_integral(f_row, nodes, pole),
                                            rel=1e-12)

    def test_pole_on_a_node_is_removable(self):
        # odd subtracted part + zero log term: exact zero again
        nodes = np.linspace(-2.0, 2.0, 41)  # 0.0 is a node
        pv = pv_integral(np.exp(-nodes ** 2), nodes, 0.0)
        assert abs(pv) < 1e-12


class TestPvMatrix:
    def setup_method(self):
        self.nodes = 0.1 + 3.0 * np.linspace(0.0, 1.0, 220) ** 2
        self.f = np.exp(-4.0 * (self.nodes - 1.0) ** 2)

    def test_interior_rows_match_single_pole_version(self):
        m = pv_matrix(self.nodes)
        out = m @ self.f
        for i in (5, 60, 110, 214):
            ref = pv_integral(self.f, self.nodes, self.nodes[i])
            assert out[i] == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_boundary_rows_stay_finite(self):
        m = pv_matrix(self.nodes)
        assert np.all(np.isfinite(m))

    def test_matches_row_by_row_construction(self):
        # reference: the row-by-row build, in the same order of updates
        grid = SinhGrid()
        k, w = grid.nodes, grid.weights
        n = k.size
        with np.errstate(divide="ignore"):
            ref = w[None, :] / (k[None, :] - k[:, None])
        np.fill_diagonal(ref, 0.0)
        off_sum = ref.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_term = np.log((k[-1] - k) / (k - k[0]))
        for i in range(n):
            lt = log_term[i]
            if not np.isfinite(lt):
                continue
            ref[i, i] += lt - off_sum[i]
            lo, hi = max(i - 1, 0), min(i + 1, n - 1)
            ref[i, hi] += w[i] / (k[hi] - k[lo])
            ref[i, lo] -= w[i] / (k[hi] - k[lo])
        assert np.array_equal(pv_matrix(k, w), ref)

    @pytest.mark.parametrize("grid", ["sinh", "uneven"])
    def test_times_k_minus_p_is_weights_and_stencil(self, grid):
        # the premise of pv_k_stencil: entry by entry, M_ij (k_j - p_i) is
        # w_j - w_i delta_ij plus s_i |k_j - p_i| on j = i +- 1, with
        # s_i = w_i / (k_{i+1} - k_{i-1}) and no stencil on the end rows
        if grid == "sinh":
            k, w = SinhGrid().nodes, SinhGrid().weights
        else:
            k, w = self.nodes, trapezoid_weights(self.nodes)
        n = k.size
        want = np.tile(w, (n, 1)) - np.diag(w)
        for i in range(1, n - 1):
            s = w[i] / (k[i + 1] - k[i - 1])
            want[i, i + 1] += s * (k[i + 1] - k[i])
            want[i, i - 1] += s * (k[i] - k[i - 1])
        got = pv_matrix(k, w) * (k[None, :] - k[:, None])
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("weights", [None, "sinh"])
    def test_k_stencil_moves_k_through_the_matrix(self, weights):
        # M (k g) = p (M g) + w @ g + C g, row by row, for any samples g
        if weights is None:
            k, w = self.nodes, trapezoid_weights(self.nodes)
            below, on, above = pv_k_stencil(k)
        else:
            k, w = SinhGrid().nodes, SinhGrid().weights
            below, on, above = pv_k_stencil(k, w)
        g = np.random.default_rng(3).standard_normal((4, k.size))
        c = on * g
        c[:, 1:] += below[1:] * g[:, :-1]
        c[:, :-1] += above[:-1] * g[:, 1:]
        m = pv_matrix(k, w)
        lhs = (k * g) @ m.T
        rhs = k * (g @ m.T) + (g @ w)[:, None] + c
        scale = np.abs(k * g) @ np.abs(m.T)
        assert np.all(np.abs(lhs - rhs) <= 1e-13 * scale)
        assert below[0] == above[0] == below[-1] == above[-1] == 0.0


class TestSinhGrid:
    def test_carrier_node_is_exact(self):
        g = SinhGrid()
        assert np.count_nonzero(g.nodes == 1.0) == 1
        assert g.nodes[0] > 0.0
        assert np.all(np.diff(g.nodes) > 0)
        assert np.all(g.weights > 0)
        assert g.size == g.nodes.size == g.weights.size

    def test_gaussian_integral_matches_analytic(self):
        # uniform trapezoid in the sinh variable is exponentially accurate
        from scipy.special import erf

        g = SinhGrid()
        f = lambda p: np.exp(-50.0 * np.square(p - 1.0))
        root = math.sqrt(50.0)
        ref = math.sqrt(math.pi / 200.0) * (erf(root * (g.nodes[-1] - 1.0))
                                            - erf(root * (g.nodes[0] - 1.0)))
        assert f(g.nodes) @ g.weights == pytest.approx(ref, rel=1e-12)

    def test_tail_cutoff_is_converged(self):
        # the hard-UV integrand used in practice: k^3 against the squared
        # source form factor at a0 = 0.2
        from dipolebounds.qfi import regularizer

        def total(grid):
            k = grid.nodes
            return (k ** 3 * regularizer(k, 0.2) ** 2) @ grid.weights

        base = total(SinhGrid())
        assert total(SinhGrid(k_max=2.2e3)) == pytest.approx(base, rel=1e-7)

    def test_step_halving_is_converged(self):
        from dipolebounds.qfi import regularizer

        def total(grid):
            k = grid.nodes
            return (k ** 3 * regularizer(k, 0.2) ** 2) @ grid.weights

        base = total(SinhGrid())
        fine = total(SinhGrid(delta=1.9e-2))
        assert fine == pytest.approx(base, rel=1e-9)
