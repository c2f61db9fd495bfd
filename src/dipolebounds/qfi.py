"""Quantum Fisher information of the scattered light.

The scatterer is driven by a pulsed coherent state; the outgoing radiation is
Gaussian, so the quantum Fisher information (QFI) for the parameters
(chi0, x0, y0, z0) reduces to radial-momentum integrals over three complex
amplitude-derivative profiles ``f1, f2, f3`` (and, in the multipolar
light-matter coupling, small corrections from the matter-light covariances).
All three come from one kernel: f1's kernel is ``chi0 k`` times f3's, with the
same prefactor and the causal term's sign flipped, and ``f2 = chi0 p f3``.
The factor ``k`` moves through the PV and 1/(k+p) transforms exactly, up to
a tridiagonal remainder of the grid's own stencil
(:func:`~dipolebounds.quadrature.pv_k_stencil`), so f1 follows from f3's
two products.  The pulse amplitude is purely imaginary and vanishes off a
band of the stretched momentum grid, so a block of T times costs one real
product per transform, each on a (T, m) band array, m the band width.  A
purely imaginary amplitude is a transform-limited pulse: the amplitude at
-t mirrors the one at t, so one product is odd in t and the other even,
and :func:`qfi_matrices` makes them once per distinct ``|t|`` for all its
sources at once, assembling every entry at ``+-|t|`` as an even sum plus
or minus an odd one.  The distinct ``|t|`` ascend, so a mirrored, equally
spaced window leaves an equally spaced series; there, as on any equally
spaced series taken in blocks, the pulse's band values follow from one
table of ``sin`` and ``cos`` of the block offsets by angle addition
(:meth:`SpectralPulse.band_phases`), not one ``sin`` and ``cos`` per
time.  Only the covariance corrections and
:meth:`FrequencyIntegrals.eval` form the profiles, from the same products
at signed times.  The module also provides independent cross-checks: the
mean scattered photon number from the scattering amplitude itself, the
analytic long-time (far-field) limits, and a direct mode-decomposition
evaluation of the stationary scattered field.

Conventions: internal units (``hbar = c = 1``, carrier wavenumber 1, as fixed
by :class:`~dipolebounds.model.UnitSystem`), pulse spectrum
``alpha(k) = N exp(-(k - 1)^2 tau^2 / 2 pi) / (i sqrt(k))``
with ``N`` fixed by the fluence via ``phi = (1/2pi) int |alpha|^2 dk``, and
the causal prescription ``1/(k - p + i0+) = PV - i pi delta(k - p)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import regularizer
from .model import PhysicsError, Pulse, Scatterer
from .quadrature import (_BLOCK_ELEMENTS, SinhGrid, _pole_subtraction,
                         pv_integral, pv_k_stencil, pv_matrix,
                         trapezoid_weights)

__all__ = [
    "GAUGES",
    "SpectralPulse",
    "share_transforms",
    "FrequencyIntegrals",
    "QfiSeries",
    "qfi_matrices",
    "qfi_matrix",
    "nsc_series",
    "nsc_series_list",
    "farfield_qfi",
    "farfield_qcrb_constants",
    "mode_integral_field",
]

GAUGES = ("multipolar", "coulomb")


# ---------------------------------------------------------------------------
# pulse spectrum on the momentum grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpectralPulse:
    """Incident-pulse spectral amplitude sampled on a momentum grid.

    ``alpha`` holds the stationary amplitude ``alpha(k)``, purely imaginary
    by construction; the time-dependent amplitude is ``alpha(k) exp(-i k t)``
    (:meth:`band_values`).  The normalization ties the amplitude to the
    photon fluence: ``phi = (1/2pi) int |alpha(k)|^2 dk`` holds on the grid
    by construction.  ``alpha`` vanishes outside its :attr:`band`, the
    contiguous slice of nodes where the Gaussian envelope has not underflowed;
    every kernel integrates over the band alone.  The pulse also holds the
    grid-only transforms V + P and V - P restricted to the band
    (:attr:`transforms`), shared by every :class:`FrequencyIntegrals` on it.
    """

    grid: SinhGrid
    alpha: np.ndarray

    def __post_init__(self) -> None:
        # the real-arithmetic kernels rest on these premises; a purely
        # imaginary alpha also makes the pulse transform-limited, so that
        # the band values at -t are (-a sin kt, a cos kt), which
        # qfi_matrices' time-reversal pairing rests on: it makes the row of
        # each |t| once, by band_values or by band_phases' angle addition,
        # and takes the row of -t from it exactly
        if np.any(self.alpha.real != 0.0):
            raise ValueError("alpha must be purely imaginary")
        if not np.any(self.alpha) or not np.all(self.alpha[self.band]):
            raise ValueError("alpha must be nonzero on one contiguous band")

    @classmethod
    def from_pulse(cls, pulse: Pulse, grid: SinhGrid | None = None) -> "SpectralPulse":
        if grid is None:
            grid = SinhGrid()
        k = grid.nodes
        with np.errstate(under="ignore"):
            gauss = np.exp(-np.square(k - 1.0) * pulse.tau**2 / (2.0 * math.pi))
        gauss[gauss < 1e-290] = 0.0
        profile = np.where(k > 1e-12, gauss / (1j * np.sqrt(k)), 0.0)
        # the envelope must have decayed to numerical irrelevance at both grid
        # ends; a relative test keeps ~10-cycle pulses usable while rejecting
        # genuinely broadband ones whose spectrum spills past the ends
        if gauss.max() == 0.0 or max(gauss[0], gauss[-1]) > 1e-6 * gauss.max():
            raise PhysicsError(
                "pulse spectrum does not fit inside the momentum grid; "
                "use a longer pulse or a wider grid")
        norm_sq = (np.abs(profile) ** 2) @ grid.weights / (2.0 * math.pi)
        alpha = math.sqrt(pulse.phi / norm_sq) * profile
        return cls(grid, alpha)

    @cached_property
    def band(self) -> slice:
        """Nodes where ``alpha`` is nonzero; it is zero on every other node."""
        nonzero = np.flatnonzero(self.alpha)
        return slice(int(nonzero[0]), int(nonzero[-1]) + 1)

    @cached_property
    def transforms(self) -> tuple[np.ndarray, np.ndarray]:
        """Band rows of ``((V + P).T, (V - P).T)``, each ``(m, n)``.

        V is the PV and P the 1/(k+p) matrix, ``n`` the grid size and ``m``
        the band width.  Built on first use, once per grid: a pulse used
        only by :func:`nsc_series` never holds them, and pulses passed to
        :func:`share_transforms` hold row views of one build.
        """
        return _band_transforms(self.grid, self.band)

    @cached_property
    def _k_stencil(self) -> tuple[slice, np.ndarray]:
        """The band's nodes and their two neighbours, and
        :func:`~dipolebounds.quadrature.pv_k_stencil`'s ``(3, r)`` rows on
        them."""
        band, n = self.band, self.grid.size
        rows = slice(max(band.start - 1, 0), min(band.stop + 1, n))
        return rows, np.stack(pv_k_stencil(self.grid.nodes,
                                           self.grid.weights))[:, rows]

    def band_values(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Real and imaginary parts of ``alpha(k) exp(-i k t)`` on the band.

        With ``alpha = i a`` they are ``a sin kt`` and ``a cos kt``.  ``t`` is
        a scalar or an array of times; each part has shape ``t.shape + (m,)``
        for a band of ``m`` nodes.  One ``sin`` and one ``cos`` per element:
        a series taken in blocks goes through :meth:`band_phases`, which
        reuses one table of them across blocks where the times allow it.
        """
        kt = np.multiply.outer(np.asarray(t, dtype=float),
                               self.grid.nodes[self.band])
        a = self.alpha.imag[self.band]
        return a * np.sin(kt), a * np.cos(kt)

    def band_phases(self, t, rows: int, kern=None):
        """:meth:`band_values` of the series ``t`` taken in blocks of at most
        ``rows`` times, each part times the band kernel ``kern`` if given.

        Returns ``phases(lo, hi)``, the two parts at ``t[lo:hi]`` as
        ``(hi - lo, m)`` arrays, valid until the next call.  When ``t`` spans
        more than one block and is equally spaced (:func:`_equal_step`, step
        ``h``), ``sin`` and ``cos`` of ``k r h`` for the offsets
        ``r < rows`` are taken once, and a block starting at ``t0`` follows
        from its first row by angle addition,
        ``a sin k(t0 + rh) = (a sin kt0) cos krh + (a cos kt0) sin krh``
        and ``a cos k(t0 + rh) = (a cos kt0) cos krh - (a sin kt0) sin krh``:
        four products and two sums into buffers reused from block to block.
        A series of ``B`` blocks then costs ``rows + B`` rows of ``sin`` and
        ``cos`` instead of one per time.  Each block's first row is
        :meth:`band_values`' bit for bit; the others are within a few ulps
        of ``k t`` in phase, plus ``k`` times the spacing's deviation from
        ``h``.  Any other series gets :meth:`band_values`' rows times
        ``kern``, bit for bit.
        """
        t = np.asarray(t, dtype=float)

        def direct(lo, hi):
            sin, cos = self.band_values(t[lo:hi])
            if kern is not None:
                sin *= kern
                cos *= kern
            return sin, cos

        step = _equal_step(t) if t.size > rows else None
        if step is None:
            return direct
        krh = np.multiply.outer(np.arange(rows) * step,
                                self.grid.nodes[self.band])
        sin_r = np.sin(krh)
        cos_r = np.cos(krh, out=krh)
        buf = np.empty((2,) + krh.shape)

        def added(lo, hi):
            sin0, cos0 = direct(lo, lo + 1)
            sin, cos = buf[:, :hi - lo]
            cos_rh, sin_rh = cos_r[:hi - lo], sin_r[:hi - lo]
            np.multiply(cos_rh, sin0, out=sin)
            sin += sin_rh * cos0
            np.multiply(cos_rh, cos0, out=cos)
            cos -= sin_rh * sin0
            return sin, cos
        return added

    def _products(self, g_re, g_im) -> tuple[np.ndarray, np.ndarray]:
        """``(g_re @ (V + P), g_im @ (V - P))`` for band samples of any
        leading shape: one product per transform, on all rows at once."""
        v_sum, v_diff = self.transforms
        lead, m = np.shape(g_re)[:-1], v_sum.shape[0]
        x = np.reshape(g_re, (-1, m)) @ v_sum
        y = np.reshape(g_im, (-1, m)) @ v_diff
        return x.reshape(lead + (-1,)), y.reshape(lead + (-1,))

    def _k_remainder(self, g) -> tuple[slice, np.ndarray]:
        """``C g`` of :func:`~dipolebounds.quadrature.pv_k_stencil` for band
        samples ``g`` (zero off the band), as ``(rows, values)``: ``C g``
        vanishes off the band's nodes and their two neighbours, ``rows``."""
        rows, (below, on, above) = self._k_stencil
        band = self.band
        pad = np.zeros(np.shape(g)[:-1] + (rows.stop - rows.start,))
        pad[..., band.start - rows.start:band.stop - rows.start] = g
        out = on * pad
        out[..., 1:] += below[1:] * pad[..., :-1]
        out[..., :-1] += above[:-1] * pad[..., 1:]
        return rows, out

    def _profiles(self, g_re, g_im, x, y):
        """``(Re u, Im u, Re v, Im v)`` on the full grid, as
        :class:`FrequencyIntegrals` defines u and v, from band samples
        ``g_re, g_im`` and their products ``x, y`` (:meth:`_products`) of
        one leading shape; ``x`` and ``y`` become u's parts in place."""
        band, p = self.band, self.grid.nodes
        # the causal term -(i/2) g, with g carrying the transforms' 1/2pi
        x[..., band] += math.pi * g_im
        y[..., band] -= math.pi * g_re
        v_re, v_im = p * x, p * y
        v_im += 2.0 * np.asarray(g_im @ self.grid.weights[band])[..., None]
        rows, c = self._k_remainder(g_re)
        v_re[..., rows] += c
        rows, c = self._k_remainder(g_im)
        v_im[..., rows] += c
        return x, y, v_re, v_im


#: a series is equally spaced when no time is farther than this many ulps of
#: its largest ``|t|`` from the line through its ends; qfi-time's axes and
#: their distinct ``|t|`` are within 4
_SPACING_ULPS = 8


def _equal_step(t: np.ndarray) -> float | None:
    """The step of the 1-d series ``t`` if it is equally spaced (see
    ``_SPACING_ULPS``), else ``None``."""
    step = (t[-1] - t[0]) / (t.size - 1)
    dev = np.abs(t[0] + np.arange(t.size) * step - t).max()
    return step if dev <= _SPACING_ULPS * np.spacing(np.abs(t).max()) else None


def _band_transforms(grid: SinhGrid, rows: slice) -> tuple:
    """Rows ``rows`` of ``((V + P).T, (V - P).T)`` on ``grid``."""
    k, w = grid.nodes, grid.weights
    pv = pv_matrix(k, w, rows).T
    plus = k[rows, None] + k
    np.divide(w[rows, None], plus, out=plus)
    v_sum = pv + plus
    v_diff = np.subtract(pv, plus, out=plus)
    return v_sum, v_diff


def _covering_rows(spectra) -> tuple:
    """The grid the pulses ``spectra`` share, and the smallest run of its
    nodes that covers every pulse's band."""
    grid = spectra[0].grid
    if any(spectral.grid is not grid for spectral in spectra):
        raise ValueError("the pulses must share one grid")
    return grid, slice(min(spectral.band.start for spectral in spectra),
                       max(spectral.band.stop for spectral in spectra))


def share_transforms(spectra) -> None:
    """Build the :attr:`SpectralPulse.transforms` of pulses on one grid
    once: each pulse gets its band's rows, as views, of one build on the
    smallest run of nodes that covers every band.  The rows are the ones
    each pulse would build alone, bit for bit."""
    spectra = list(spectra)
    grid, union = _covering_rows(spectra)
    v_sum, v_diff = _band_transforms(grid, union)
    for spectral in spectra:
        rows = slice(spectral.band.start - union.start,
                     spectral.band.stop - union.start)
        # the slot cached_property fills on first use
        spectral.__dict__["transforms"] = v_sum[rows], v_diff[rows]


# ---------------------------------------------------------------------------
# the three derivative profiles
# ---------------------------------------------------------------------------

class FrequencyIntegrals:
    """Evaluator of the amplitude-derivative profiles f1, f2, f3.

    With ``g(k, t) = K(k) alpha(k, t)``, kernel
    ``K(k) = k^(1/2+s) xi_k chi(k) / chi0`` and prefactor
    ``pref(p) = sign p^(1/2-s) xi_p`` (``s = 0, sign = 1`` multipolar;
    ``s = 1, sign = -1`` Coulomb) and ``I = int dk/2pi``,

        f3 = pref [ I g*/(k + p) + PV I g/(k - p) - (i/2) g(p) ]
        f1 = chi0 pref [ I k g*/(k + p) - PV I k g/(k - p) + (i/2) p g(p) ]

    and ``f2 = chi0 p f3``: the x0 and chi0 derivatives of one scattered
    amplitude bring out the emitted momentum p and divide by chi0.  For the
    PV matrix V and the 1/(k+p) matrix P, ``g = a + ib`` gives
    ``g* P + g V = a (V + P) + i b (V - P)``: only ``V + P`` and ``V - P``
    are kept (the pulse holds them, built once).  ``g`` vanishes off the
    pulse's band, so only their band rows enter, and f3 costs one real
    product per transform on ``(T, m)`` band arrays per block of ``T``
    times, for a band of ``m`` nodes.

    f1 costs no product of its own.  With ``u = f3 / pref`` and
    ``v = -f1 / (chi0 pref)``, ``k / (k - p) = 1 + p / (k - p)`` and
    ``k / (k + p) = 1 - p / (k + p)`` give, on the grid exactly
    (:func:`~dipolebounds.quadrature.pv_k_stencil`),

        Re v = p Re u + C a / 2pi,    Im v = p Im u + 2 I b + C b / 2pi,

    where ``C`` is the tridiagonal remainder of the PV matrix's on-pole
    stencil; the causal terms follow the same rule, with ``k = p`` on the
    pole.  :meth:`SpectralPulse._profiles` forms the parts of u and v, for
    :meth:`eval` and for the covariance corrections of
    :func:`qfi_matrices`; the main QFI sums use the real products alone.

    Parameters
    ----------
    spectral : SpectralPulse
        Pulse spectrum (fixes the grid).
    scatterer : Scatterer
        Supplies the linear response and the source-size weight.
    gauge : str
        Light-matter coupling convention, ``"multipolar"`` or ``"coulomb"``.
        Both give identical late-time observables; the profiles differ in
        their off-shell tails.
    """

    def __init__(self, spectral: SpectralPulse, scatterer: Scatterer,
                 gauge: str = "multipolar") -> None:
        if gauge not in GAUGES:
            raise ValueError(f"gauge must be one of {GAUGES}, got {gauge!r}")
        scatterer.check_off_resonance()
        self.spectral = spectral
        self._chi0 = scatterer.chi0
        self.nodes = k = spectral.grid.nodes
        xi = regularizer(k, scatterer.a0)

        shift = 1.0 if gauge == "coulomb" else 0.0
        sign = -1.0 if gauge == "coulomb" else 1.0
        band = spectral.band
        kb = k[band]
        # K / 2pi on the band: the transforms then give the k-integrals
        self._kern = (kb ** (0.5 + shift) * xi[band] * scatterer.chi(kb)
                      / (2.0 * math.pi * self._chi0))
        self._pref = sign * k ** (0.5 - shift) * xi

    def _pulse(self, t):
        """The band kernel times the pulse, ``(g_re, g_im)``."""
        sin, cos = self.spectral.band_values(t)
        return self._kern * sin, self._kern * cos

    def eval(self, t) -> dict[str, np.ndarray]:
        """Profiles at all grid nodes, keyed ``f1, f2, f3``.

        ``t`` is a scalar or an array of times; each profile has shape
        ``t.shape + (n,)``.  The working arrays grow with ``t.size``, so long
        series are passed in blocks (as :func:`qfi_matrices` does).
        """
        spectral = self.spectral
        g_re, g_im = self._pulse(t)
        u_re, u_im, v_re, v_im = spectral._profiles(
            g_re, g_im, *spectral._products(g_re, g_im))
        f3 = self._pref * (u_re + 1j * u_im)
        f1 = -self._chi0 * self._pref * (v_re + 1j * v_im)
        return {"f1": f1, "f2": self._chi0 * self.nodes * f3, "f3": f3}


# ---------------------------------------------------------------------------
# QFI assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QfiSeries:
    """Time-resolved QFI matrices in canonical order (chi0, x0, y0, z0)."""

    times: np.ndarray
    j: np.ndarray                    # shape (ntimes, 4, 4)

    def diagonal(self) -> np.ndarray:
        return np.einsum("tii->ti", self.j)


def _block_sums(spectral: SpectralPulse, g, i, s, kern, weights,
                covariance=None):
    """The QFI sums of one block of distinct ``|t|`` for stacked sources, at
    the block's times ``s * |t|[i]``.

    ``kern`` is ``(S, 1, m)``, the sources' band kernels, and ``g`` the
    ``(S, T, m)`` band samples ``(g_re, g_im)``, the kernels times the
    pulse's :meth:`~SpectralPulse.band_phases` at the block's ``T``
    distinct ``|t|``; they are only read.  ``weights`` is ``(S, n, 2)``,
    the sources' ``w p^2 pref^2`` and ``w p^4 pref^2``.  Returns
    ``(S, T, K)`` for the ``T`` values in ``i``.  Its columns are the sums
    over the nodes of ``|u|^2 w p^2 pref^2``, the same times ``p^2``,
    ``|v|^2 w p^2 pref^2`` and ``Im(v u*) w p^2 pref^2``, each an even sum
    in ``t`` made once per ``|t|`` plus ``s`` times an odd one.  With
    ``covariance``, ``(scale, omega0, C)``, the sources' ``(S, 1, n)``
    ``w p^2 pref q`` and ``(S, 1)`` ``omega0`` and the grid's Cauchy matrix
    (:func:`qfi_matrices`), the three covariance forms over ``-2 d0^2``
    follow, made on the signed rows.  The working arrays are freed on
    return.
    """
    band = spectral.band
    p, w = spectral.grid.nodes, spectral.grid.weights
    g_re, g_im = g
    x, y = spectral._products(g_re, g_im)
    forms = None
    if covariance is not None:
        scale, omega0, cauchy = covariance
        # at -t, g_re and x flip sign while g_im and y do not.  b stacks
        # scale (Re u, Im u, Re v, Im v) on the signed rows.  Over -2 d0^2,
        # P = upsilon + delta_xi gives f P g = omega0 f C g and
        # M = upsilon - delta_xi gives f M g = omega0 f C g + (sum f)(sum g),
        # and the forms are v_re M v_re - v_im P v_im,
        # u_re P u_re - u_im M u_im and u_im M v_re + u_re P v_im
        b = np.stack(spectral._profiles(g_re[:, i] * s[:, None], g_im[:, i],
                                        x[:, i] * s[:, None], y[:, i]))
        b *= scale
        bcb = np.einsum("f...n,g...n->fg...", b, b @ cauchy)
        bcb *= omega0
        total = b.sum(axis=-1)
        del b
        forms = np.stack((bcb[2, 2] - bcb[3, 3] + total[2] * total[2],
                          bcb[0, 0] - bcb[1, 1] - total[1] * total[1],
                          bcb[1, 2] + bcb[0, 3] + total[1] * total[2]),
                         axis=-1)
    wpp = weights[..., :1]
    wb = weights[:, band]
    # u = s x + pi g_im + i (y - s pi g_re), s = sign t:
    # |u|^2 = x^2 + y^2 + pi^2 |g|^2 + 2 s pi (g_im x - g_re y)
    sq = np.square(x)
    sq += np.square(y)
    u_even = sq @ weights
    del sq
    q = g_im * x[..., band]
    q -= g_re * y[..., band]
    u_odd = 2.0 * math.pi * (q @ wb)
    del q
    # v = s (p x + C g_re) + pi p g_im + i (p y + d + C g_im - s pi p g_re)
    # with d = 2 w @ g_im, so Im(v u*) = s ((d + C g_im) x - (C g_re) y)
    # + pi ((d + C g_im) g_im + (C g_re) g_re) on the band
    d = 2.0 * (g_im @ w[band])[..., None]
    rows, c_re = spectral._k_remainder(g_re)
    _, c_im = spectral._k_remainder(g_im)
    t = c_im * x[..., rows]
    t -= c_re * y[..., rows]
    cross_odd = d * (x @ wpp) + t @ wpp[:, rows]
    x *= p
    x[..., rows] += c_re
    y *= p
    y += d
    y[..., rows] += c_im
    c_im += d
    on = slice(band.start - rows.start, band.stop - rows.start)
    c_re, c_im = c_re[..., on], c_im[..., on]
    t = g_im * c_im
    t += g_re * c_re
    cross_even = math.pi * (t @ wpp[:, band])
    # x and y are now v's full-grid parts, so |v|^2 = x^2 + y^2
    # + pi^2 p^2 |g|^2 + 2 s pi p (g_im x - g_re y), whose odd half on the
    # band is p^2 times |u|^2's plus 2 s pi p (g_im C g_re - g_re (d + C g_im))
    t = g_im * c_re
    t -= g_re * c_im
    v_odd = u_odd[..., 1:] + 2.0 * math.pi * (t @ (wpp[:, band]
                                                   * p[band, None]))
    del t, c_re, c_im
    sq = np.square(x)
    sq += np.square(y)
    v_even = sq @ wpp
    del sq
    # the band terms' pi^2 |g|^2 is the same at every t
    const = math.pi**2 * (np.square(kern * spectral.alpha.imag[band]) @ wb)
    even = np.concatenate((u_even + const, v_even + const[..., 1:],
                           cross_even), axis=-1)
    odd = np.concatenate((u_odd, v_odd, cross_odd), axis=-1)
    sums = even[:, i] + s[:, None] * odd[:, i]
    return sums if forms is None else np.concatenate((sums, forms), axis=-1)


def _cauchy(p: np.ndarray) -> np.ndarray:
    """The grid's ``(n, n)`` Cauchy matrix ``1 / (p_i + p_j)``."""
    return 1.0 / np.add.outer(p, p)


def _time_pairs(times: np.ndarray) -> tuple:
    """The distinct ``|t|`` of ``times`` in ascending order, and each time's
    index into them: :func:`qfi_matrices` makes one product row per
    distinct ``|t|``.  A window mirrored about ``t = 0`` has the ``|t|`` of
    its nonnegative half, which are equally spaced where the window is."""
    return np.unique(np.abs(times), return_inverse=True)


def qfi_matrices(spectral: SpectralPulse, times, sources,
                 corrections: bool = False) -> list:
    """QFI matrices of several sources on one pulse, at each requested time.

    ``sources`` holds ``(scatterer, gauge)`` pairs; one :class:`QfiSeries`
    is returned per source, in order.  The diagonal blocks use the radial
    profiles only; with ``corrections=True`` (multipolar coupling only)
    the residual matter-light covariance terms are added to the chi0/z0
    block.

    The pulse is transform-limited, so at ``-t`` the band samples ``g_re``
    and with them ``x = g_re @ (V + P)`` flip sign while ``g_im`` and
    ``y = g_im @ (V - P)`` do not, and every main QFI sum is an even sum
    plus ``sign t`` times an odd one.  The products run once per distinct
    ``|t|`` and are shared by both signs: a mirrored window of ``2N + 1``
    times costs ``N + 1`` product rows per source and transform.  The
    blocks of distinct ``|t|`` are shared by all sources, whose kernels are
    stacked: a block costs one product per transform for all of them, on
    at most ``_BLOCK_ELEMENTS // n`` rows counted across sources.  Sources
    beyond that are taken in chunks.  The distinct ``|t|`` ascend
    (:func:`_time_pairs`), and each chunk takes their band values from
    :meth:`SpectralPulse.band_phases`, a lone source's kernel folded in:
    fig3's 281 distinct ``|t|`` in blocks of 61 cost 61 + 5 rows of
    ``sin`` and ``cos`` instead of 281.

    The corrections are quadratic forms of u and v in the matter-light
    covariance kernels ``delta_xi = d0^2 q q^T`` and
    ``upsilon = -d0^2 q_i q_j (1 + 2 omega0 / (p_i + p_j))``, with
    ``q = sqrt(p) xi_p / (p + omega0)`` and ``d0^2 = omega0 chi0``.  So
    ``upsilon + delta_xi = -2 omega0 d0^2 q_i q_j C_ij`` and
    ``upsilon - delta_xi`` is that minus ``2 d0^2 q q^T``, where
    ``C = 1 / (p_i + p_j)`` depends on the grid alone: one ``(n, n)``
    matrix per call, built after the pulse's transforms, serves every
    source, and corrected sources stack and chunk as plain ones do.  Each
    block forms u and v on its signed times
    (:meth:`SpectralPulse._profiles`) and multiplies C once: ``T`` times
    cost ``4 T`` rows of C per source, paired or not, and a corrected block
    holds at most as many signed times as an uncorrected one holds
    distinct ``|t|``.

    Before the pulse arrives, an entry at ``-|t|`` is the difference of
    two nearly equal sums and keeps fewer relative digits: on the 1030 nm,
    24 fs pulse with ``a0 = 0.1``, J00 at -5 to -2 pulse durations matches
    ``4 N_sc / chi0^2`` (:func:`nsc_series`) to 4e-11 to 2e-10 of itself.
    ``qfi-time``'s rows from -3 pulse durations to 0 are such entries, as
    :func:`~dipolebounds.scenarios.default_time_axis` pairs them.
    """
    sources = list(sources)
    if corrections and any(gauge != "multipolar" for _, gauge in sources):
        raise ValueError(
            "covariance corrections are derived for the multipolar coupling; "
            "combine corrections=True with gauge='multipolar'")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    mags, index = _time_pairs(times)
    sign = np.where(times < 0.0, -1.0, 1.0)

    grid, band = spectral.grid, spectral.band
    p = grid.nodes
    wp2 = grid.weights * p**2
    step = max(1, _BLOCK_ELEMENTS // grid.size)
    chunk = max(1, min(len(sources), step))
    per = step // chunk
    # a block holds at most per distinct |t|; a corrected one also at most
    # per signed times, as its forms are made on those
    rows = np.bincount(index) if corrections else np.ones(mags.size, np.intp)
    starts = [0]
    while starts[-1] < mags.size:
        held = np.cumsum(rows[starts[-1]:starts[-1] + per])
        starts.append(starts[-1] + max(1, np.searchsorted(held, per, "right")))
    spans = list(zip(starts, starts[1:]))
    longest = max((m1 - m0 for m0, m1 in spans), default=1)
    cauchy = None
    if corrections:
        spectral.transforms     # built first: C is not alive beside them
        cauchy = _cauchy(p)
    out = np.zeros((len(sources), times.size, 4, 4))
    for lo in range(0, len(sources), chunk):
        group = sources[lo:lo + chunk]
        kern = np.empty((len(group), 1, band.stop - band.start))
        weights = np.empty((len(group), grid.size, 2))
        chi0, omega0 = np.empty((2, len(group), 1))
        for row, (scat, gauge) in enumerate(group):
            integrals = FrequencyIntegrals(spectral, scat, gauge)
            kern[row, 0], weights[row, :, 0] = integrals._kern, integrals._pref
            chi0[row], omega0[row] = integrals._chi0, scat.omega0
        # |f3|^2 = pref^2 |u|^2, |f2|^2 = chi0^2 p^2 |f3|^2,
        # |f1|^2 = chi0^2 pref^2 |v|^2 and Im(f1 f3*) = -chi0 pref^2 Im(v u*)
        wpp = weights[..., 0]
        np.square(wpp, out=wpp)
        wpp *= wp2
        np.multiply(wpp, p**2, out=weights[..., 1])
        # multipolar pref is sqrt(p) xi_p, so w p^2 pref q = wpp / (p + omega0)
        covariance = (None if cauchy is None else
                      ((wpp / (p + omega0))[:, None], omega0, cauchy))
        blk = out[lo:lo + len(group)]
        # one source's kernel goes into the phases' start rows
        phases = spectral.band_phases(mags, longest,
                                      kern[0, 0] if len(group) == 1 else None)
        for m0, m1 in spans:
            at = np.flatnonzero((index >= m0) & (index < m1))
            g_re, g_im = phases(m0, m1)
            g = ((g_re[None], g_im[None]) if len(group) == 1
                 else (kern * g_re, kern * g_im))
            tot = _block_sums(spectral, g, index[at] - m0, sign[at], kern,
                              weights, covariance)
            j11 = 4.0 / (15.0 * math.pi**2) * chi0**2 * tot[..., 1]
            j33 = 2.0 * j11 + 4.0 / (3.0 * math.pi**2) * chi0**2 * tot[..., 2]
            j00 = 4.0 / (3.0 * math.pi**2) * tot[..., 0]
            j03 = 4.0 / (3.0 * math.pi**2) * chi0 * tot[..., 3]
            if corrections:
                # the forms are over -2 d0^2 = -2 omega0 chi0
                c = -8.0 / (9.0 * math.pi**4) * omega0 * chi0
                j33 += c * chi0**2 * tot[..., 4]
                j00 -= c * tot[..., 5]
                j03 -= c * chi0 * tot[..., 6]
            blk[:, at, 0, 0], blk[:, at, 3, 3] = j00, j33
            blk[:, at, 1, 1], blk[:, at, 2, 2] = j11, 2.0 * j11
            blk[:, at, 0, 3] = blk[:, at, 3, 0] = j03
    return [QfiSeries(times, j) for j in out]


def qfi_matrix(scatterer: Scatterer, spectral: SpectralPulse, times,
               gauge: str = "multipolar", corrections: bool = False) -> QfiSeries:
    """QFI matrix of the scattered state at each requested time: the
    one-source case of :func:`qfi_matrices`."""
    return qfi_matrices(spectral, times, [(scatterer, gauge)], corrections)[0]


# ---------------------------------------------------------------------------
# scattered photon number (independent route through the amplitude itself)
# ---------------------------------------------------------------------------

def _pv_operator(nodes: np.ndarray, weights: np.ndarray, inside: slice,
                 rows: slice) -> np.ndarray:
    """Rows ``rows`` of the real ``(n, n)`` operator ``V`` with ``f @ V`` the
    principal values of ``int f(k)/(k - p) dk`` at every node ``p``.

    The columns of the poles ``inside`` follow :func:`pv_integral`'s pole
    subtraction, its log term folded into the pole's own entry; the other
    columns get plain excision, ``w / (k - p)`` without the on-pole node.
    Both slices are contiguous runs of nodes, and every entry is the one
    the full operator holds.  The entries are written in place: the pole
    columns by the rule itself, as the transpose of its ``c[:, rows]``, and
    its full-row sums come in blocks of poles.
    """
    n = nodes.size
    op = np.empty((rows.stop - rows.start, n))
    _, coef = _pole_subtraction(nodes, weights, nodes[inside], rows,
                                op[:, inside].T)
    k, w = nodes[rows, None], weights[rows, None]
    with np.errstate(divide="ignore"):
        for cols in (slice(0, inside.start), slice(inside.stop, n)):
            np.subtract(k, nodes[cols], out=op[:, cols])
            np.divide(w, op[:, cols], out=op[:, cols])
    # the diagonal: each pole's own entry, 0 where a pole is excised
    diag = np.zeros(n)
    diag[inside] = coef
    on = np.arange(rows.start, rows.stop)
    op[on - rows.start, on] = diag[rows]
    return op


def nsc_series(scatterer: Scatterer, spectral: SpectralPulse, times) -> np.ndarray:
    """Mean scattered photon number at each time, from the mode amplitudes.

    Builds the outgoing radial amplitude directly,

        s(p, t) = sqrt(p) xi_p int dk/2pi sqrt(k) xi_k chi(k)
                  [ alpha(k,t)/(k - p + i0+) + alpha*(k,t)/(k + p) ],

    and sums ``|s|^2`` over modes:  N_sc(t) = (1/3 pi^2) int dp p^2 |s|^2.
    Deliberately does not reuse :class:`FrequencyIntegrals`,
    :attr:`SpectralPulse.transforms` or
    :func:`~dipolebounds.quadrature.pv_matrix`, so it can serve as an
    independent consistency check of the QFI pipeline
    (J_00 = 4 N_sc / chi0^2 at all times); the ``transient_photon_identity``
    row of :data:`~dipolebounds.oracles.ORACLES` names those and
    :func:`_block_sums` as forbidden, and ``tests/test_oracles.py``
    enforces it.  For the same reason it does
    not pair ``+-t`` as :func:`qfi_matrices` does: every time gets its own
    product row, so a fault in that pairing shows in the photon identity
    (``tests/test_qfi.py`` holds it to 1e-12 on a series where the negative
    times pair).  Poles inside the pulse's band get
    :func:`~dipolebounds.quadrature.pv_integral`'s pole subtraction; the
    remaining poles get plain excision.  Both are built once per grid, as
    one real operator V, and combined with the 1/(k+p) operator P: for the
    real kernel, ``f = a + ib`` gives ``f V + f* P = a (V + P) + i b (V - P)``.
    ``f`` vanishes off the band, so only the band rows of V and P are built,
    and a block of ``T`` times costs two real products on ``(T, m)`` band
    arrays; ``|s|^2`` is summed from the real and imaginary parts.  The
    pulse's band values, with the kernel folded in, come from
    :meth:`SpectralPulse.band_phases`, which the QFI path shares, so the
    photon identity does not check them: ``tests/test_qfi.py`` holds them
    to direct ``sin`` and ``cos`` on fig3's axes.  This is the one-series
    case of :func:`nsc_series_list`.
    """
    return nsc_series_list([(scatterer, spectral, times)])[0]


def nsc_series_list(runs) -> list:
    """:func:`nsc_series` of several ``(scatterer, spectral, times)`` runs
    whose pulses share one grid: one array per run, in order.

    V and P are built once, on the rows of the smallest run of nodes that
    covers every pulse's band, and the poles inside that run get the pole
    subtraction.  V + P and V - P take two ``(M, n)`` arrays for the run's
    ``M`` rows: V becomes V - P in place, with P made again in blocks of
    rows.  Each series multiplies only its own band's rows, as
    views, and the operators are freed on return.  A pole outside a
    pulse's own band but inside another's reaches that pulse's series only
    through the stencil on its band's two edge nodes, where the amplitude
    is below 1e-290 of its peak.
    """
    runs = list(runs)
    grid, union = _covering_rows([spectral for _, spectral, _ in runs])
    k, w, n = grid.nodes, grid.weights, grid.size
    # a pole outside the bands or at a grid boundary gets plain excision,
    # with negligible weight downstream
    inside = slice(max(union.start, 1), min(union.stop - 1, n - 2) + 1)
    # V's rows on the bands: nothing n x n is built
    v_minus = _pv_operator(k, w, inside, union)
    # P's rows, V + P in place, then V - P in place of V, with P made again
    # in blocks of rows: two (M, n) arrays are held
    v_plus = k[union, None] + k
    np.divide(w[union, None], v_plus, out=v_plus)
    v_plus += v_minus
    step = max(1, _BLOCK_ELEMENTS // n)
    for lo in range(union.start, union.stop, step):
        hi = min(lo + step, union.stop)
        p_rows = k[lo:hi, None] + k
        np.divide(w[lo:hi, None], p_rows, out=p_rows)
        v_minus[lo - union.start:hi - union.start] -= p_rows
    del p_rows
    out = []
    for scatterer, spectral, times in runs:
        rows = slice(spectral.band.start - union.start,
                     spectral.band.stop - union.start)
        out.append(_nsc_run(scatterer, spectral, times, v_plus[rows],
                            v_minus[rows]))
    return out


def _nsc_run(scatterer: Scatterer, spectral: SpectralPulse, times,
             v_plus: np.ndarray, v_minus: np.ndarray) -> np.ndarray:
    """One run of :func:`nsc_series_list`, given the band rows of V + P
    and V - P; its working arrays are freed on return, before the next
    run's are made."""
    k, w = spectral.grid.nodes, spectral.grid.weights
    band = spectral.band
    kb = k[band]
    xi = regularizer(k, scatterer.a0)
    # the kernel carries the 1/2pi of the k-integral
    kern = np.sqrt(kb) * xi[band] * scatterer.chi(kb) / (2.0 * math.pi)
    # |s|^2 p^2 with the emitted mode's factor sqrt(p) xi_p squared in
    weights = w * k**3 * np.square(xi) / (3.0 * math.pi**2)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    step = max(1, _BLOCK_ELEMENTS // k.size)
    nsc = np.empty(times.size)
    phases = spectral.band_phases(times, step, kern)
    # s's parts, reused from block to block
    buf = np.empty((2, min(step, times.size), k.size))
    for lo in range(0, times.size, step):
        f_re, f_im = phases(lo, min(lo + step, times.size))
        s_re, s_im = buf[:, :len(f_re)]
        np.matmul(f_re, v_plus, out=s_re)
        np.matmul(f_im, v_minus, out=s_im)
        # the causal term -(i/2) f, with f carrying the 1/2pi
        s_re[:, band] += math.pi * f_im
        s_im[:, band] -= math.pi * f_re
        # |s|^2, in place
        s_re *= s_re
        s_im *= s_im
        s_re += s_im
        nsc[lo:lo + step] = s_re @ weights
    return nsc


# ---------------------------------------------------------------------------
# analytic long-time limits
# ---------------------------------------------------------------------------

def farfield_qfi(scatterer: Scatterer, phi: float) -> np.ndarray:
    """Asymptotic (long-time, narrow-band, point-source) QFI matrix.

    Diagonal, with the polarizability entry ``8 phi / 3 pi`` and position
    entries ``(8 chi0^2 phi / 15 pi) * (1, 2, 7)``.  This is the static,
    point-source, narrow-band form: it takes the response at ``chi0`` and
    no source-size weight.  The model's own long-time J00 (from
    :func:`qfi_matrix`) differs from it by ``(chi(1)/chi0)^2 xi(1)^4``,
    ``xi`` the source-size weight :func:`~dipolebounds.fields.regularizer`:
    1.0746 at ``a0 = 0`` and 0.9848 at ``a0 = lambda/30`` for the 532 nm,
    ``omega0 = 5.32`` scatterer of the ``validate`` suite.
    """
    base = 8.0 * scatterer.chi0**2 * phi / (15.0 * math.pi)
    return np.diag([base * 5.0 / scatterer.chi0 ** 2,
                    base, 2.0 * base, 7.0 * base])


def farfield_qcrb_constants() -> np.ndarray:
    """Normalized single-photon QCRB constants.

    ``sqrt(N_sc) dchi0 / chi0`` and ``sqrt(N_sc) dr / lambda`` in the
    long-time limit: ``(1/2, sqrt5/4pi, sqrt(5/2)/4pi, sqrt(5/7)/4pi)``.
    """
    return np.array([0.5,
                     math.sqrt(5.0) / (4.0 * math.pi),
                     math.sqrt(2.5) / (4.0 * math.pi),
                     math.sqrt(5.0 / 7.0) / (4.0 * math.pi)])


# ---------------------------------------------------------------------------
# stationary field from the mode decomposition
# ---------------------------------------------------------------------------

def _angular_profiles(x: np.ndarray):
    """Radial mode kernels: spherical-wave profiles and their small-x limits.

    Returns ``(ft1, ft2, g)`` where the transverse part of the field goes as
    ``ft1 = sin x / x``, the longitudinal part as
    ``ft2 = (x cos x - sin x) / x^3`` and the magnetic kernel as
    ``g = (sin x - x cos x) / x^2``.
    """
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    sin, cos = np.sin(xs), np.cos(xs)
    ft1 = np.where(small, 1.0 - x**2 / 6.0, sin / xs)
    ft2 = np.where(small, -(1.0 / 3.0) + x**2 / 30.0, (xs * cos - sin) / xs**3)
    g = np.where(small, x / 3.0 - x**3 / 30.0, (sin - xs * cos) / xs**2)
    return ft1, ft2, g


#: smallest argument of :func:`_si_tail`: its series then holds
#: ``pi/2 - Si(x)`` to 2e-11 of the envelope ``1/x``, and far better above
_SI_TAIL_MIN_X = 30.0


def _si_tail(x: float) -> float:
    """``pi/2 - Si(x)`` for ``x >= _SI_TAIL_MIN_X``, from the 8-term
    asymptotic series ``f cos x + g sin x`` with
    ``f ~ sum_k (-1)^k (2k)! / x^(2k+1)`` and
    ``g ~ sum_k (-1)^k (2k+1)! / x^(2k+2)``; its error is about the first
    omitted term, ``16! / x^17``."""
    inv = -1.0 / (x * x)
    f = sum(math.factorial(2 * k) * inv**k for k in range(8)) / x
    g = sum(math.factorial(2 * k + 1) * inv**k for k in range(8)) / (x * x)
    return f * math.cos(x) + g * math.sin(x)


def mode_integral_field(points: np.ndarray, scatterer: Scatterer):
    """Stationary scattered field assembled mode by mode.

    Integrates the radial-mode decomposition of the driven source's field
    numerically over momentum (principal value across the on-shell pole plus
    the resonant half-residue) instead of using the closed forms in
    :mod:`dipolebounds.fields`.  Agreement between the two routes validates
    both the closed forms and the causal pole prescription.  Needs a finite
    source size (``a0 > 0``, for momentum-space convergence), and refuses a
    point so near the source that ``p_max rho`` falls below
    ``_SI_TAIL_MIN_X`` (:func:`_si_tail`), with ``p_max`` the momentum
    cutoff: at ``a0 = lambda/30``, a point within 2.9e-4 wavelengths.

    Returns the ``(E, B)`` pair for a unit incident amplitude, complex
    arrays shaped like ``points``.
    """
    if scatterer.a0 <= 0:
        raise PhysicsError("mode-integral field needs a finite source size a0")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rho_vec = pts - np.asarray(scatterer.r0)
    rho = np.linalg.norm(rho_vec, axis=-1)
    if np.any(rho == 0):
        raise PhysicsError("field requested exactly at the source center")

    a0 = scatterer.a0
    # momentum cutoff: the integrand tail is ~ 16 sin(p rho)/(a0^4 rho p^3),
    # so truncating at p_max leaves a relative error ~ 16/(a0^4 rho p_max^3)
    # against the O(1/rho) field scale; it is held at 1e-6
    p_max = (16.0 / (1e-6 * a0**4 * rho.min())) ** (1.0 / 3.0)
    p_max = max(p_max, 6.0, 8.0 / a0)
    dp = min(2.0 * math.pi / (10.0 * rho.max()), 1.0 / 40.0)
    dp = 1.0 / math.ceil(1.0 / dp)          # land the pole exactly on a node
    p = np.arange(0.0, p_max + 0.5 * dp, dp)
    p[0] = 1e-30                            # kernels are regular at p -> 0
    if p[-1] * rho.min() < _SI_TAIL_MIN_X:
        raise PhysicsError(
            "mode-integral field requested too near the source center: its "
            f"momentum tail needs p_max rho >= {_SI_TAIL_MIN_X:g}")
    w = trapezoid_weights(p)
    xi_p = regularizer(p, a0)

    e_rho = rho_vec / rho[..., None]
    cos_x = e_rho[..., 0]
    ex = np.zeros_like(e_rho)
    ex[..., 0] = 1.0
    t1 = ex - e_rho * cos_x[..., None]
    t2 = ex - 3.0 * e_rho * cos_x[..., None]
    cross = np.cross(e_rho, ex)

    # the half-residue at p = 1 carries the regularizer through the sampled
    # integrand, so the prefactor itself stays regularizer-free
    pref = scatterer.chi0 * np.exp(1j * scatterer.r0[2]) / (2.0 * math.pi**2)
    e_out = np.empty(pts.shape, dtype=complex)
    b_out = np.empty(pts.shape, dtype=complex)
    i_pole = int(round(1.0 / dp))           # the node carrying the pole
    base = p**3 * xi_p
    for i, r in enumerate(rho):
        ft1, ft2, g = _angular_profiles(p * r)
        # the electric kernels carry p^3; the magnetic one p^4, because
        # the per-mode curl contributes one extra power of the mode momentum
        fk = np.stack((base * ft1, base * ft2, base * g * p))
        pv = pv_integral(fk, p, 1.0, weights=w)
        et1, et2, gb = pv + (fk / (p + 1.0)) @ w + 1j * math.pi * fk[:, i_pole]
        # the magnetic kernel only falls off as 1/p^2 (one power slower than
        # the electric ones), so add its truncated tail analytically: beyond
        # the cutoff the integrand is -32 cos(p r) / (a0^4 r p^2)
        p_end = p[-1]
        gb -= (32.0 / (a0**4 * r)) * (
            math.cos(p_end * r) / p_end - r * _si_tail(p_end * r))
        e_out[i] = pref * (et1 * t1[i] + et2 * t2[i])
        b_out[i] = 1j * pref * gb * cross[i]
    return e_out, b_out
