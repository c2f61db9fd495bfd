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
or minus an odd one.  Only the covariance corrections and
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
from .quadrature import (SinhGrid, _pole_subtraction, pv_integral,
                         pv_k_stencil, pv_matrix, trapezoid_weights)

__all__ = [
    "GAUGES",
    "SpectralPulse",
    "FrequencyIntegrals",
    "QfiSeries",
    "qfi_matrices",
    "qfi_matrix",
    "nsc_series",
    "farfield_qfi",
    "farfield_qcrb_constants",
    "mode_integral_field",
    "covariance_kernels",
]

GAUGES = ("multipolar", "coulomb")

#: element budget of one working array: times are processed in blocks of
#: ``_BLOCK_ELEMENTS // n`` rows of ``n`` grid values, which keeps memory
#: flat however long the requested series is
_BLOCK_ELEMENTS = 2**15


def _blocks(count: int, n: int):
    """Slices covering ``range(count)`` in blocks of rows of length ``n``."""
    step = max(1, _BLOCK_ELEMENTS // n)
    return [slice(i, i + step) for i in range(0, count, step)]


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
        # band_values(-t) is (-a sin kt, a cos kt) bit for bit, which
        # qfi_matrices' time-reversal pairing rests on
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
        the band width.  Built on first use: a pulse used only by
        :func:`nsc_series` never holds them.
        """
        k, w = self.grid.nodes, self.grid.weights
        band = self.band
        # pv_matrix's is the one n x n array: the rest is built on the band
        pv = pv_matrix(k, w)[:, band].T
        plus = k[band, None] + k
        np.divide(w[band, None], plus, out=plus)
        v_sum = pv + plus
        v_diff = np.subtract(pv, plus, out=plus)
        return v_sum, v_diff

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
        for a band of ``m`` nodes.
        """
        kt = np.multiply.outer(np.asarray(t, dtype=float),
                               self.grid.nodes[self.band])
        a = self.alpha.imag[self.band]
        return a * np.sin(kt), a * np.cos(kt)

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
# matter-light covariance kernels (multipolar coupling, scatterer at origin)
# ---------------------------------------------------------------------------

def covariance_kernels(grid: SinhGrid, scatterer: Scatterer):
    """Residual matter-light covariance kernels on the grid.

    Returns ``(delta_xi, upsilon)``, the real symmetric kernels coupling pairs
    of radial modes in the QFI correction terms.  Both scale with the squared
    dipole coupling ``d0^2 = omega0 chi0`` and are strongly suppressed for
    narrow-band driving, which is what keeps the leading QFI expressions
    accurate.
    """
    p = grid.nodes
    xi = regularizer(p, scatterer.a0)
    root = np.sqrt(p) * xi
    denom = p + scatterer.omega0
    d0sq = scatterer.d0_sq
    delta_xi = d0sq * np.outer(root / denom, root / denom)
    inv = 1.0 / denom
    upsilon = (-d0sq * np.outer(root, root) / (p[:, None] + p[None, :])
               * (inv[:, None] + inv[None, :]))
    return delta_xi, upsilon


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


def _block_sums(spectral: SpectralPulse, mags, i, s, kern, weights,
                covariance=None):
    """The QFI sums of one block of distinct ``|t|`` for stacked sources, at
    the block's times ``s * mags[i]``.

    ``kern`` is ``(S, 1, m)``, the sources' band kernels, and ``weights``
    ``(S, n, 2)``, their ``w p^2 pref^2`` and ``w p^4 pref^2``.  Returns
    ``(S, T, K)`` for the ``T`` values in ``i``.  Its columns are the sums
    over the nodes of ``|u|^2 w p^2 pref^2``, the same times ``p^2``,
    ``|v|^2 w p^2 pref^2`` and ``Im(v u*) w p^2 pref^2``, each an even sum
    in ``t`` made once per ``|t|`` plus ``s`` times an odd one.  With
    ``covariance``, one source's ``(w p^2 pref, upsilon - delta_xi,
    upsilon + delta_xi)``, the three covariance forms follow, made on the
    signed rows.  The working arrays are freed on return.
    """
    band = spectral.band
    p, w = spectral.grid.nodes, spectral.grid.weights
    sin, cos = spectral.band_values(mags)
    g_re, g_im = kern * sin, kern * cos
    x, y = spectral._products(g_re, g_im)
    forms = None
    if covariance is not None:
        scale, minus, plus = covariance
        # at -t, g_re and x flip sign while g_im and y do not.  With
        # a = scale u, b = scale v and M, P = upsilon -+ delta_xi the forms
        # are b_re M b_re - b_im P b_im, a_re P a_re - a_im M a_im and
        # a_im M b_re + a_re P b_im
        ab = np.stack(spectral._profiles(g_re[:, i] * s[:, None], g_im[:, i],
                                         x[:, i] * s[:, None], y[:, i]))
        ab *= scale
        kab = np.empty_like(ab)
        np.matmul(ab[::3], plus, out=kab[::3])
        np.matmul(ab[1:3], minus, out=kab[1:3])
        q = np.einsum("f...n,g...n->fg...", ab, kab)
        forms = np.stack((q[2, 2] - q[3, 3], q[0, 0] - q[1, 1],
                          q[1, 2] + q[0, 3]), axis=-1)
        del ab, kab
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


def _time_pairs(times: np.ndarray) -> tuple:
    """The distinct ``|t|`` of ``times`` in order of first appearance, and
    each time's index into them: :func:`qfi_matrices` makes one product
    row per distinct ``|t|``."""
    first = {}
    index = np.array([first.setdefault(v, len(first))
                      for v in np.abs(times).tolist()], dtype=np.intp)
    return np.array(list(first), dtype=float), index


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
    times costs ``N + 1`` product rows per source and transform.  The band
    values and the blocks of distinct ``|t|`` are made once for all
    sources, whose kernels are stacked: a block costs one product per
    transform for all of them, on at most ``_BLOCK_ELEMENTS // n`` rows
    counted across sources.  Sources beyond that are taken in chunks, and
    with ``corrections`` one at a time, as each holds two ``(n, n)``
    covariance kernels of its own.  The corrections are quadratic forms in
    those kernels of u and v, which each block forms on its signed times
    (:meth:`SpectralPulse._profiles`): ``T`` times cost ``4 T`` kernel
    rows, paired or not, and a corrected block holds at most as many signed
    times as an uncorrected one holds distinct ``|t|``.

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
    chunk = 1 if corrections else max(1, min(len(sources), step))
    per = step // chunk
    # a block holds at most per distinct |t|; a corrected one also at most
    # per signed times, as its forms are made on those
    rows = np.bincount(index) if corrections else np.ones(mags.size, np.intp)
    starts = [0]
    while starts[-1] < mags.size:
        held = np.cumsum(rows[starts[-1]:starts[-1] + per])
        starts.append(starts[-1] + max(1, np.searchsorted(held, per, "right")))
    out = np.zeros((len(sources), times.size, 4, 4))
    for lo in range(0, len(sources), chunk):
        group = sources[lo:lo + chunk]
        kern = np.empty((len(group), 1, band.stop - band.start))
        weights = np.empty((len(group), grid.size, 2))
        chi0 = np.empty((len(group), 1))
        for row, (scat, gauge) in enumerate(group):
            integrals = FrequencyIntegrals(spectral, scat, gauge)
            kern[row, 0], chi0[row] = integrals._kern, integrals._chi0
            weights[row, :, 0] = integrals._pref
        covariance = None
        if corrections:
            # a chunk is then one source, with (n, n) kernels of its own
            delta_xi, upsilon = covariance_kernels(grid, scat)
            # each correction reads the kernels only as upsilon -+ delta_xi
            minus = upsilon - delta_xi
            plus = np.add(upsilon, delta_xi, out=upsilon)
            del delta_xi
            covariance = (wp2 * integrals._pref, minus, plus)
        # |f3|^2 = pref^2 |u|^2, |f2|^2 = chi0^2 p^2 |f3|^2,
        # |f1|^2 = chi0^2 pref^2 |v|^2 and Im(f1 f3*) = -chi0 pref^2 Im(v u*)
        wpp = weights[..., 0]
        np.square(wpp, out=wpp)
        wpp *= wp2
        np.multiply(wpp, p**2, out=weights[..., 1])
        blk = out[lo:lo + len(group)]
        for m0, m1 in zip(starts, starts[1:]):
            at = np.flatnonzero((index >= m0) & (index < m1))
            tot = _block_sums(spectral, mags[m0:m1], index[at] - m0,
                              sign[at], kern, weights, covariance)
            j11 = 4.0 / (15.0 * math.pi**2) * chi0**2 * tot[..., 1]
            j33 = 2.0 * j11 + 4.0 / (3.0 * math.pi**2) * chi0**2 * tot[..., 2]
            j00 = 4.0 / (3.0 * math.pi**2) * tot[..., 0]
            j03 = 4.0 / (3.0 * math.pi**2) * chi0 * tot[..., 3]
            if corrections:
                c = 4.0 / (9.0 * math.pi**4)
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
    the full operator holds.
    """
    n = nodes.size
    op = np.empty((rows.stop - rows.start, n))
    c, coef = _pole_subtraction(nodes, weights, nodes[inside])
    op[:, inside] = c[:, rows].T
    del c
    k, w = nodes[rows, None], weights[rows, None]
    with np.errstate(divide="ignore"):
        for cols in (slice(0, inside.start), slice(inside.stop, n)):
            op[:, cols] = w / (k - nodes[cols])
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
    (J_00 = 4 N_sc / chi0^2 at all times).  For the same reason it does
    not pair ``+-t`` as :func:`qfi_matrices` does: every time gets its own
    product row, so a fault in that pairing shows in the photon identity
    (``tests/test_qfi.py`` holds it to 1e-12 on a series where the negative
    times pair).  Poles inside the pulse's band
    get :func:`~dipolebounds.quadrature.pv_integral`'s pole subtraction; the
    remaining poles get plain excision.  Both are built once per call, as one
    real operator V, and combined with the 1/(k+p) operator P: for the real
    kernel, ``f = a + ib`` gives ``f V + f* P = a (V + P) + i b (V - P)``.
    ``f`` vanishes off the band, so only the band rows of V and P are built,
    and a block of ``T`` times costs two real products on ``(T, m)`` band
    arrays; ``|s|^2`` is summed from the real and imaginary parts.
    """
    grid = spectral.grid
    k, w, n = grid.nodes, grid.weights, grid.size
    band = spectral.band
    kb = k[band]
    xi = regularizer(k, scatterer.a0)
    # the kernel carries the 1/2pi of the k-integral
    kern = np.sqrt(kb) * xi[band] * scatterer.chi(kb) / (2.0 * math.pi)
    # a pole outside the band or at a grid boundary gets plain excision, with
    # negligible weight downstream
    inside = slice(max(band.start, 1), min(band.stop - 1, n - 2) + 1)
    # V's band rows: nothing n x n is built
    v = _pv_operator(k, w, inside, band)
    # P's band rows first, then V - P, then V + P in place
    v_plus = kb[:, None] + k
    np.divide(w[band, None], v_plus, out=v_plus)
    v_minus = v - v_plus
    v_plus += v
    del v
    # |s|^2 p^2 with the emitted mode's factor sqrt(p) xi_p squared in
    weights = w * k**3 * np.square(xi) / (3.0 * math.pi**2)

    times = np.atleast_1d(np.asarray(times, dtype=float))
    out = np.empty(times.size)
    for blk in _blocks(times.size, n):
        sin, cos = spectral.band_values(times[blk])
        f_re, f_im = kern * sin, kern * cos
        s_re, s_im = f_re @ v_plus, f_im @ v_minus
        # the causal term -(i/2) f, with f carrying the 1/2pi
        s_re[:, band] += math.pi * f_im
        s_im[:, band] -= math.pi * f_re
        out[blk] = (np.square(s_re) + np.square(s_im)) @ weights
    return out


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


def mode_integral_field(points: np.ndarray, scatterer: Scatterer):
    """Stationary scattered field assembled mode by mode.

    Integrates the radial-mode decomposition of the driven source's field
    numerically over momentum (principal value across the on-shell pole plus
    the resonant half-residue) instead of using the closed forms in
    :mod:`dipolebounds.fields`.  Agreement between the two routes validates
    both the closed forms and the causal pole prescription.  Needs scipy
    and a finite source size (``a0 > 0``, for momentum-space convergence).

    Returns the ``(E, B)`` pair for a unit incident amplitude, complex
    arrays shaped like ``points``.
    """
    from scipy.special import sici
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
        si_end = sici(p_end * r)[0]
        gb -= (32.0 / (a0**4 * r)) * (
            math.cos(p_end * r) / p_end - r * (0.5 * math.pi - si_end))
        e_out[i] = pref * (et1 * t1[i] + et2 * t2[i])
        b_out[i] = 1j * pref * gb * cross[i]
    return e_out, b_out
