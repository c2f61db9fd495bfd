"""Momentum-space quadrature: stretched grids and principal-value integrals.

The radial-momentum integrands in this package share a common shape: a
narrow spectral peak at the carrier wavenumber (1 in internal units) sitting
on top of slowly varying tails that must be followed out to ``~10^3``.  A
sinh-stretched grid resolves both regimes with a few hundred nodes.  Singular denominators
``1/(k - p)`` are handled by pole subtraction; the ``-i pi * residue`` half
of the causal prescription ``1/(k - p + i0+) = PV - i pi delta`` is returned
separately so callers can combine the pieces explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SinhGrid",
    "trapezoid_weights",
    "pv_integral",
    "pv_matrix",
    "pv_k_stencil",
]

#: element budget of one working array: rows of ``n`` grid values (full-row
#: sums here, times in :mod:`~dipolebounds.qfi`) are formed in blocks of
#: ``_BLOCK_ELEMENTS // n``, which keeps memory flat however many rows
_BLOCK_ELEMENTS = 2**15


def trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Trapezoid-rule weights for an arbitrary ascending node set."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a 1-d array of at least two nodes")
    w = np.empty_like(x)
    w[1:-1] = 0.5 * (x[2:] - x[:-2])
    w[0] = 0.5 * (x[1] - x[0])
    w[-1] = 0.5 * (x[-1] - x[-2])
    return w


@dataclass(frozen=True, eq=False)
class SinhGrid:
    """Sinh-stretched momentum grid, dense near the carrier wavenumber 1.

    Nodes follow ``p_n = d * sinh(delta * (n - n0)) + 1`` with ``n0`` chosen
    so that ``p_{n0} = 1`` exactly; spacing is ``~ d * delta`` near the
    carrier and grows geometrically toward both ends.  Nodes at or below zero
    are discarded.

    Parameters
    ----------
    d : float
        Scale of the dense region; near-carrier spacing is ``d * delta``.
    delta : float
        Logarithmic stretching increment.
    k_max : float
        Upper cutoff; the grid ends at the first node at or above ``k_max``
        (1134.87 for the default 1100).
    """

    d: float = 2.5e-3
    delta: float = 3.8e-2
    k_max: float = 1.1e3
    nodes: np.ndarray = field(init=False, repr=False, default=None)
    weights: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if not (self.d > 0 and self.delta > 0):
            raise ValueError("d and delta must both be positive")
        if self.k_max <= 1.0:
            raise ValueError(f"k_max={self.k_max} must exceed the carrier 1")
        n0 = math.floor(math.asinh(1.0 / self.d) / self.delta)
        n_hi = n0 + math.ceil(math.asinh((self.k_max - 1.0) / self.d) / self.delta)
        n = np.arange(0, n_hi + 1)
        u = self.delta * (n - n0)
        p = self.d * np.sinh(u) + 1.0
        keep = p > 1e-12
        p, u = p[keep], u[keep]
        # trapezoid in the uniform stretched coordinate with the exact metric
        # dk/du = d cosh(u); for the smooth decaying integrands this is far
        # more accurate than node-difference weights in k itself
        w = self.delta * self.d * np.cosh(u)
        w[0] *= 0.5
        w[-1] *= 0.5
        object.__setattr__(self, "nodes", p)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.nodes.size


# ---------------------------------------------------------------------------
# principal-value integration
# ---------------------------------------------------------------------------

def pv_integral(f, nodes: np.ndarray, pole: float,
                weights: np.ndarray | None = None):
    """Principal value of ``int f(k) / (k - pole) dk`` over the node range.

    Uses pole subtraction:

        PV int f/(k-p) = int (f(k) - f(p))/(k - p) dk + f(p) ln((b-p)/(p-a))

    where the first integrand is smooth and handled by the trapezoid rule.
    ``f`` may be a callable (evaluated at the nodes and the pole) or an array
    of samples, in which case ``f(pole)`` is obtained by local quadratic
    interpolation.  The scalar ``pole`` must lie strictly inside
    ``(nodes[0], nodes[-1])``.

    The rule is linear in the samples.  With the real row ``c = w / (k - p)``,
    whose on-pole entry is replaced by a central-difference stencil for the
    removable ratio ``f'(p)``, and ``s`` the sum of ``c`` without that
    stencil,

        PV = F @ c - f(p) s + f(p) ln((b-p)/(p-a)).

    So samples may carry leading axes: ``(T, n)`` samples (``T`` functions
    on the same nodes, such as one per time) give ``T`` principal values
    from one product.  ``c`` and ``ln((b-p)/(p-a)) - s`` come from
    :func:`_pole_subtraction`, which callers that apply the rule to many
    sample sets at many fixed poles can build once.

    Returns the principal value only; the causal prescription's delta-function
    part, ``-i pi f(pole)``, is the caller's to add.
    """
    nodes = np.asarray(nodes, dtype=float)
    if weights is None:
        weights = trapezoid_weights(nodes)
    pole = float(pole)
    a, b = nodes[0], nodes[-1]
    if not a < pole < b:
        raise ValueError(f"pole {pole} must lie inside ({a}, {b})")

    if callable(f):
        fk = np.asarray(f(nodes))
        fp = f(pole)
    else:
        fk = np.asarray(f)
        fp = _interp_quadratic(nodes, fk, pole)
    c, coef = _pole_subtraction(nodes, weights, np.array([pole]), slice(None))
    return (fk @ c.T)[..., 0] + fp * coef[0]


def _pole_subtraction(nodes: np.ndarray, weights: np.ndarray, p: np.ndarray,
                      cols: slice, out: np.ndarray | None = None):
    """:func:`pv_integral`'s rule for the 1-d poles ``p``, as ``(c, coef)``.

    ``PV = F @ c.T + f(p) coef`` for ``F`` on the nodes ``cols``, a
    contiguous slice: ``c`` is the real ``(P, len)`` matrix ``w / (k - p)``
    on those nodes, with each on-pole entry zeroed and the
    central-difference stencil for ``f'(p)`` on its neighbours, written into
    ``out`` where given (a ``(P, len)`` array or view, such as a transposed
    one).  ``coef = ln((b-p)/(p-a)) - s``, ``s`` the full-row sums of ``c``
    without the stencil, formed in blocks of poles, so no ``(P, n)`` array
    is built.  Every pole must lie strictly inside the node range.
    """
    a, b = nodes[0], nodes[-1]
    n = nodes.size
    # a node within 1e-14 of a pole is one of its two neighbours in order
    near = np.clip(np.searchsorted(nodes, p), 1, n - 1)[:, None] - [1, 0]
    on_pole = (np.abs(nodes[near] - p[:, None])
               < 1e-14 * np.maximum(np.abs(p), 1.0)[:, None])
    row, col = np.nonzero(on_pole)
    col = near[row, col]
    step = max(1, _BLOCK_ELEMENTS // n)
    s = np.empty(p.size)
    block = np.empty((min(step, p.size), n))
    for lo in range(0, p.size, step):
        c = np.subtract(nodes, p[lo:lo + step, None], out=block[:p.size - lo])
        with np.errstate(divide="ignore"):
            np.divide(weights, c, out=c)
        at = (row >= lo) & (row < lo + step)
        c[row[at] - lo, col[at]] = 0.0
        s[lo:lo + step] = c.sum(axis=1)
    coef = np.log((b - p) / (p - a)) - s
    start, stop, _ = cols.indices(n)
    c = np.subtract(nodes[cols], p[:, None], out=out)
    with np.errstate(divide="ignore"):
        np.divide(weights[cols], c, out=c)
    keep = (col >= start) & (col < stop)
    c[row[keep], col[keep] - start] = 0.0
    # removable singularity: w_i f'(p) from the neighbouring nodes
    lo = np.maximum(col - 1, 0)
    hi = np.minimum(col + 1, n - 1)
    stencil = weights[col] / (nodes[hi] - nodes[lo])
    for at, add in ((hi, stencil), (lo, -stencil)):
        keep = (at >= start) & (at < stop)
        c[row[keep], at[keep] - start] += add[keep]
    return c, coef


def _interp_quadratic(x: np.ndarray, y: np.ndarray, x0):
    """Quadratic (3-point Lagrange) interpolation of samples at ``x0``.

    ``y`` holds samples along its last axis; ``x0`` may be a scalar or an
    array, and the result has shape ``y.shape[:-1] + x0.shape``.
    """
    i = np.clip(np.searchsorted(x, x0), 1, x.size - 2)
    xa, xb, xc = x[i - 1], x[i], x[i + 1]
    l0 = (x0 - xb) * (x0 - xc) / ((xa - xb) * (xa - xc))
    l1 = (x0 - xa) * (x0 - xc) / ((xb - xa) * (xb - xc))
    l2 = (x0 - xa) * (x0 - xb) / ((xc - xa) * (xc - xb))
    return y[..., i - 1] * l0 + y[..., i] * l1 + y[..., i + 1] * l2


def pv_matrix(nodes: np.ndarray, weights: np.ndarray,
              cols=None) -> np.ndarray:
    """Matrix form of the principal-value transform on a fixed grid.

    Returns ``M`` such that ``M @ f`` approximates
    ``PV int f(k)/(k - p) dk`` for every node ``p`` of the grid
    simultaneously, with ``f`` sampled on the same grid.  Row ``i`` applies
    pole subtraction at ``p = nodes[i]``: off-diagonal entries are
    ``w_j / (k_j - p_i)``, the subtracted ``-f(p) sum w_j/(k_j - p_i)`` and
    the boundary log term fold into column ``i``, and the removable on-pole
    ratio ``f'(p)`` is realized by a central-difference stencil on the
    neighbouring columns.  The two endpoint rows, whose log term is
    infinite, get plain pole excision: accurate only where the integrand is
    small, as this package's are at both grid ends.

    ``cols`` (any index of a 1-d array) returns ``M[:, cols]`` bit for bit
    without the other columns: the full-row sums that the diagonal
    entries need are formed in blocks of rows.
    """
    nodes = np.asarray(nodes, dtype=float)
    a, b = nodes[0], nodes[-1]
    n = nodes.size
    c = np.arange(n) if cols is None else np.arange(n)[cols]
    at = np.arange(c.size)

    m = nodes[c] - nodes[:, None]                   # k_j - p_i
    with np.errstate(divide="ignore"):
        np.divide(weights[c], m, out=m)
    m[c, at] = 0.0

    # interior rows, column i: -f(p_i) sum_j' w_j/(k_j - p_i) + f(p_i) log(...)
    inner = (c > 0) & (c < n - 1)
    i = c[inner]
    sums = np.empty(i.size)
    step = max(1, _BLOCK_ELEMENTS // n)
    for lo in range(0, i.size, step):
        rows = i[lo:lo + step]
        full = nodes - nodes[rows, None]
        with np.errstate(divide="ignore"):
            np.divide(weights, full, out=full)
        full[np.arange(rows.size), rows] = 0.0
        sums[lo:lo + step] = full.sum(axis=1)
    p = nodes[i]
    m[i, at[inner]] += np.log((b - p) / (p - a)) - sums
    # on-pole removable ratio: w_i * f'(p_i) via neighbouring nodes, on the
    # interior rows i = c - 1 (column i + 1) and i = c + 1 (column i - 1)
    stencil = _stencil(nodes, weights)
    up = c >= 2
    m[c[up] - 1, at[up]] += stencil[c[up] - 1]
    down = c <= n - 3
    m[c[down] + 1, at[down]] -= stencil[c[down] + 1]
    return m


def _stencil(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """:func:`pv_matrix`'s on-pole weights ``s_i = w_i / (k_{i+1} - k_{i-1})``,
    zero on the two end rows, which have no stencil."""
    s = np.zeros_like(nodes)
    s[1:-1] = weights[1:-1] / (nodes[2:] - nodes[:-2])
    return s


def pv_k_stencil(nodes: np.ndarray, weights: np.ndarray):
    """What a factor ``k`` leaves behind under :func:`pv_matrix`.

    For ``M = pv_matrix(nodes, weights)`` and any samples ``g`` every row
    obeys, to rounding,

        (M @ (k g))_i = p_i (M @ g)_i + w @ g + (C g)_i,

    since ``k_j / (k_j - p_i) = 1 + p_i / (k_j - p_i)`` off the diagonal,
    the diagonal entry meets ``k_i = p_i``, and what is left is the
    excised node ``-w_i g_i`` and the on-pole stencil's
    ``s_i [(k_{i+1} - p_i) g_{i+1} + (p_i - k_{i-1}) g_{i-1}]``.  ``C`` is
    tridiagonal; returned as ``(below, on, above)``, each of length ``n``,
    with ``(C g)_i = below_i g_{i-1} + on_i g_i + above_i g_{i+1}``.
    """
    nodes = np.asarray(nodes, dtype=float)
    s = _stencil(nodes, weights)
    below, above = np.zeros_like(s), np.zeros_like(s)
    below[1:-1] = s[1:-1] * (nodes[1:-1] - nodes[:-2])
    above[1:-1] = s[1:-1] * (nodes[2:] - nodes[1:-1])
    return below, -weights, above
