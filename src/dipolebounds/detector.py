"""Pixelated planar detector.

The detector is a square planar array at ``z = Z`` (forward ``Z > 0`` or
backward ``Z < 0``) normal to the z axis, so the counted flux is its z
component and pixels carry no normal vector.  A grid is pixel centers and
exact per-pixel areas; it is a deterministic pure function of its
arguments.  :func:`planar_grid` returns a :class:`MirroredGrid`, which
holds one edge axis and the plane ``z``: its mirror cell is the axis times
itself, made a run of pixels at a time, so a plate costs memory in its
linear pixel count, not its area.  ``plate()`` builds every pixel, for the
reference routes.

The planar transverse coordinates use a sinh stretching ``s = |Z| sinh(xi)``
with uniform ``xi`` cell edges: pixels are small near the axis (where the
detected pattern varies on the scale of ``|Z|``) and grow toward the rim.
The edge resolution also tracks the Fresnel-zone scale ``~ lambda / |Z|``
(``lambda = 2 pi`` in internal units), but the rim fringes are not fully
resolved.  Against refinement 8 on the ``1.97 pi`` plate, the point-dipole
bounds of the default grid (refinement 1) are worst at
``Z = -0.252 lambda``: 1.99e-2 off for y0 and 1.91e-2 for chi0.  At
``Z = +-2 lambda`` they are at most 1.8e-3 off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "PixelGrid",
    "MirroredGrid",
    "planar_solid_angle",
    "half_width_for_solid_angle",
    "planar_grid",
    "axis_cells",
    "solid_angle_sum",
]

# resolution targets for the planar map: at least _AXIAL_SAMPLES cells per
# unit of xi (feature scale |Z| near the axis), and at least _ZONE_SAMPLES
# cells per Fresnel-zone scale lambda at the rim scale of the stretching
_AXIAL_SAMPLES = 12
_ZONE_SAMPLES = 36

# the four pixel blocks of a mirrored plate, as signs of (x, y, z): the
# mirror cell, then its images under x -> -x, y -> -y and both
_MIRROR_SIGNS = np.array([[1.0, 1.0, 1.0], [-1.0, 1.0, 1.0],
                          [1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]])


@dataclass(frozen=True, eq=False)
class PixelGrid:
    """Pixels of a plate normal to z: centers and exact areas."""

    positions: np.ndarray
    areas: np.ndarray
    images = 1              # sign images of the stored pixels in the plate

    def __post_init__(self) -> None:
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        areas = np.atleast_1d(np.asarray(self.areas, dtype=float))
        if pos.shape[0] != areas.shape[0]:
            raise ValueError("positions and areas sizes disagree")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "areas", areas)

    @property
    def cell_size(self) -> int:
        """Pixels whose sign images make up the plate: all of them."""
        return self.areas.size

    @property
    def size(self) -> int:
        return self.images * self.cell_size

    def block(self, lo: int, hi: int) -> PixelGrid:
        """Pixels ``[lo, hi)``."""
        return PixelGrid(self.positions[lo:hi], self.areas[lo:hi])

    def plate(self) -> PixelGrid:
        """Every pixel of the plate."""
        return self


@dataclass(frozen=True, eq=False)
class MirroredGrid:
    """A square plate at ``z`` held as one edge axis ``0 = s_0 < ... < s_n``.

    Its mirror cell ``x > 0, y > 0`` is the tensor product of the axis with
    itself: cell pixel ``k = i n + j`` (row-major, x slowest) is centered at
    ``(c_i, c_j, z)``, ``c_i = (s_i + s_{i+1}) / 2``, with area
    ``w_i w_j``, ``w_i = s_{i+1} - s_i``.  The cell's images under
    ``x -> -x``, ``y -> -y`` and both (same areas) complete the plate.
    Runs of cell pixels are made on demand (:meth:`pixels`), so the grid
    holds ``O(n)`` floats for a plate of ``4 n^2`` pixels.
    """

    edges: np.ndarray
    z: float
    images = len(_MIRROR_SIGNS)

    @cached_property
    def _axis(self) -> tuple[np.ndarray, np.ndarray]:
        """Centers and widths of the axis cells."""
        s = self.edges
        return 0.5 * (s[:-1] + s[1:]), np.diff(s)

    @property
    def cell_size(self) -> int:
        """Pixels of the mirror cell."""
        return (self.edges.size - 1) ** 2

    @property
    def size(self) -> int:
        return self.images * self.cell_size

    def pixels(self, lo: int, hi: int) -> PixelGrid:
        """Cell pixels ``[lo, hi)``."""
        centers, widths = self._axis
        i, j = np.divmod(np.arange(lo, min(hi, self.cell_size)), centers.size)
        pos = np.empty((i.size, 3))
        pos[:, 0] = centers[i]
        pos[:, 1] = centers[j]
        pos[:, 2] = self.z
        return PixelGrid(pos, widths[i] * widths[j])

    def block(self, lo: int, hi: int) -> PixelGrid:
        """Cell pixels ``[lo, hi)``, then their three sign images."""
        cell = self.pixels(lo, hi)
        return PixelGrid(
            (_MIRROR_SIGNS[:, None] * cell.positions).reshape(-1, 3),
            np.tile(cell.areas, self.images))

    def plate(self) -> PixelGrid:
        """The cell, then its three sign images, built in full."""
        return self.block(0, self.cell_size)


# ---------------------------------------------------------------------------
# solid angles
# ---------------------------------------------------------------------------

def planar_solid_angle(half_width: float, distance: float) -> float:
    """Solid angle subtended by a square of half-width ``a`` at distance ``z``.

    Uses the closed form ``4 arctan(a^2 / (|z| sqrt(2 a^2 + z^2)))``.
    """
    if half_width <= 0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    z = abs(distance)
    if z == 0:
        raise ValueError("detector plane cannot contain the scatterer (z = 0)")
    a2 = half_width**2
    return 4.0 * math.atan(a2 / (z * math.sqrt(2.0 * a2 + z * z)))


def half_width_for_solid_angle(solid_angle: float, distance: float) -> float:
    """Half-width of the square plate subtending ``solid_angle`` at ``|z|``.

    Closed-form inverse of :func:`planar_solid_angle`: with
    ``x = tan(solid_angle / 4)`` the squared aspect ratio is
    ``(a/z)^2 = x^2 + x sqrt(x^2 + 1)``.  Valid for ``0 < solid_angle < 2 pi``
    (a plate covers at most a half space).
    """
    if not 0.0 < solid_angle < 2.0 * math.pi:
        raise ValueError(
            f"planar solid angle must lie in (0, 2 pi), got {solid_angle}")
    z = abs(distance)
    if z == 0:
        raise ValueError("detector plane cannot contain the scatterer (z = 0)")
    x = math.tan(0.25 * solid_angle)
    u = x * x + x * math.hypot(x, 1.0)
    return z * math.sqrt(u)


# ---------------------------------------------------------------------------
# grid builders
# ---------------------------------------------------------------------------

def _half_axis(distance: float, solid_angle: float, refinement: int):
    """``|Z|``, the plate half-width, the stretched half-width ``xi_max``
    and the cells per half axis of :func:`planar_grid`."""
    if refinement < 1 or int(refinement) != refinement:
        raise ValueError(f"refinement must be a positive integer, got {refinement}")
    az = abs(float(distance))
    a = half_width_for_solid_angle(solid_angle, az)
    xi_max = math.asinh(a / az)
    dxi = min(1.0 / _AXIAL_SAMPLES,
              2.0 * math.pi / (_ZONE_SAMPLES * az)) / refinement
    return az, a, xi_max, max(2, math.ceil(xi_max / dxi))


def planar_grid(distance: float, solid_angle: float,
                refinement: int = 1) -> MirroredGrid:
    """Square planar detector at ``z = distance`` (signed), normal ``+z``.

    The plate half-width is fixed by the requested solid angle.  Transverse
    pixel edges follow ``s = |Z| sinh(xi)`` with uniform ``xi``; the outermost
    edges land exactly on ``+-a`` so pixel areas tile the plate exactly.
    ``refinement`` doubles the linear pixel density per unit.
    The grid holds the edge axis of the mirror cell ``x > 0, y > 0``; the
    cell's sign images complete the plate, which
    :func:`~dipolebounds.fisher.fi_matrix` folds for a source on the z axis.
    """
    az, a, xi_max, half_cells = _half_axis(distance, solid_angle, refinement)
    half = az * np.sinh(np.linspace(0.0, xi_max, half_cells + 1))
    half[-1] = a
    return MirroredGrid(half, float(distance))


def axis_cells(distance: float, solid_angle: float,
               refinement: int = 1) -> int:
    """Cells of the edge axis of :func:`planar_grid`, without building it;
    the mirror cell has their square of pixels."""
    return _half_axis(distance, solid_angle, refinement)[3]


def solid_angle_sum(grid: PixelGrid | MirroredGrid) -> float:
    """Discrete solid angle seen from the origin: sum of z-projected pixel
    areas over distance^2."""
    grid = grid.plate()
    pos = grid.positions
    r = np.linalg.norm(pos, axis=-1)
    proj = pos[:, 2] / r
    return float(np.sum(grid.areas * np.abs(proj) / r**2))
