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
    "real_matmul",
]


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
        Upper cutoff; the grid stops at the last node below ``k_max``.
    """

    d: float = 2.5e-3
    delta: float = 3.8e-2
    k_max: float = 1.1e3
    nodes: np.ndarray = field(init=False, repr=False, default=None)
    weights: np.ndarray = field(init=False, repr=False, default=None)
    carrier_index: int = field(init=False, repr=False, default=None)

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
        object.__setattr__(self, "carrier_index", int(np.argmin(np.abs(p - 1.0))))

    @property
    def size(self) -> int:
        return self.nodes.size

    def integrate(self, values: np.ndarray) -> complex | float:
        """Plain trapezoid integral of samples on the grid (last axis)."""
        return np.asarray(values) @ self.weights


# ---------------------------------------------------------------------------
# principal-value integration
# ---------------------------------------------------------------------------

def pv_integral(f, nodes: np.ndarray, pole, weights: np.ndarray | None = None):
    """Principal value of ``int f(k) / (k - pole) dk`` over the node range.

    Uses pole subtraction:

        PV int f/(k-p) = int (f(k) - f(p))/(k - p) dk + f(p) ln((b-p)/(p-a))

    where the first integrand is smooth and handled by the trapezoid rule.
    ``f`` may be a callable (evaluated at the nodes and the pole) or an array
    of samples, in which case ``f(pole)`` is obtained by local quadratic
    interpolation.  ``pole`` may be a scalar or an array of poles; each pole
    gets the same subtraction rule.  Every pole must lie strictly inside
    ``(nodes[0], nodes[-1])``.

    The rule is linear in the samples.  With the real ``(P, n)`` matrix
    ``c = w / (k - p)`` for the ``P`` poles, whose on-pole entries are
    replaced by a central-difference stencil for the removable ratio
    ``f'(p)``, and ``s`` the row sums of ``c`` without that stencil,

        PV = F @ c.T - f(p) s + f(p) ln((b-p)/(p-a)).

    So samples may carry leading axes: ``(T, n)`` samples (``T`` functions
    on the same nodes, such as one per time) give a result of shape
    ``(T,) + pole.shape``, from one matrix product.  An array of ``P`` poles
    builds ``(P, nodes.size)`` intermediates, so callers with many poles
    pass them in blocks.

    Returns the principal value only; the causal prescription's delta-function
    part, ``-i pi f(pole)``, is the caller's to add.
    """
    nodes = np.asarray(nodes, dtype=float)
    if weights is None:
        weights = trapezoid_weights(nodes)
    a, b = nodes[0], nodes[-1]
    poles = np.asarray(pole, dtype=float)
    if not np.all((a < poles) & (poles < b)):
        raise ValueError(f"pole {pole} must lie inside ({a}, {b})")

    if callable(f):
        fk = np.asarray(f(nodes))
        fp = np.asarray(f(poles))
    else:
        fk = np.asarray(f)
        fp = _interp_quadratic(nodes, fk, poles)
    lead = fk.shape[:-1]
    p = poles.reshape(-1)

    diff = nodes - p[:, None]
    on_pole = np.abs(diff) < 1e-14 * np.maximum(np.abs(p), 1.0)[:, None]
    with np.errstate(divide="ignore"):
        c = weights / diff
    c[on_pole] = 0.0
    c_sum = c.sum(axis=1)
    # removable singularity: w_i f'(p) from the neighbouring nodes
    row, col = np.nonzero(on_pole)
    lo = np.maximum(col - 1, 0)
    hi = np.minimum(col + 1, nodes.size - 1)
    stencil = weights[col] / (nodes[hi] - nodes[lo])
    c[row, hi] += stencil
    c[row, lo] -= stencil
    fp = fp.reshape(lead + p.shape)
    pv = real_matmul(fk, c.T) + fp * (np.log((b - p) / (p - a)) - c_sum)
    return pv.reshape(lead + poles.shape)


def real_matmul(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x @ m`` for a real ``m``, with a complex ``x`` split into its parts.

    numpy runs a complex-by-real ``@`` as an unaccelerated loop (or up-casts
    ``m``); stacking the real and imaginary parts of ``x`` into one
    contiguous real array keeps the product in BLAS.
    """
    if not np.iscomplexobj(x):
        return x @ m
    parts = np.stack((x.real, x.imag)) @ m
    return parts[0] + 1j * parts[1]


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


def pv_matrix(nodes: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
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
    """
    nodes = np.asarray(nodes, dtype=float)
    if weights is None:
        weights = trapezoid_weights(nodes)
    a, b = nodes[0], nodes[-1]

    diff = nodes[None, :] - nodes[:, None]          # k_j - p_i
    with np.errstate(divide="ignore"):
        m = weights[None, :] / diff
    np.fill_diagonal(m, 0.0)

    # interior rows, column i: -f(p_i) sum_j' w_j/(k_j - p_i) + f(p_i) log(...)
    i = np.arange(1, nodes.size - 1)
    p = nodes[i]
    m[i, i] += np.log((b - p) / (p - a)) - m.sum(axis=1)[i]
    # on-pole removable ratio: w_i * f'(p_i) via neighbouring nodes
    stencil = weights[i] / (nodes[i + 1] - nodes[i - 1])
    m[i, i + 1] += stencil
    m[i, i - 1] -= stencil
    return m
