"""The 2x2 picture: the linear bijection onto the open quadratic cone in
R^3, pointwise cone cross-sections, the half-space boundary plane, and
the constant-determinant hyperboloid foliation.

The bijection phi maps [[a, b], [b, c]] to (sqrt(2) b, (a - c)/sqrt(2),
(a + c)/sqrt(2)); it is linear in the matrix entries, so tangents
transport by the same map.  Everything here emits plain coordinate
arrays; plotting is left to the caller's tooling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import HALF_SPACE, LOEWNER, QUAD_AFFINE, QUAD_TRANSLATE, RAY, ConeSpec
from .core import SpdMatrix, as_tangent
from .errors import DimensionMismatch, EmptySection, InvalidParameters, OutsideCone

_SQRT2 = math.sqrt(2.0)
MAX_RESOLUTION = 1024  # arcs per section and grid points per leaf axis


@dataclass(frozen=True)
class ConePoint3:
    """Point strictly inside the cone z^2 - x^2 - y^2 > 0, z > 0."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (self.z > 0.0 and self.z**2 - self.x**2 - self.y**2 > 0.0):
            raise OutsideCone(f"({self.x}, {self.y}, {self.z}) not interior to the cone")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def phi(sigma: SpdMatrix) -> ConePoint3:
    """Coordinates of a 2x2 SPD matrix inside the open cone in R^3."""
    if sigma.n != 2:
        raise DimensionMismatch("the cone picture exists only for n = 2")
    a, b, c = sigma.entries[0, 0], sigma.entries[0, 1], sigma.entries[1, 1]
    return ConePoint3(_SQRT2 * b, (a - c) / _SQRT2, (a + c) / _SQRT2)


def phi_inverse(p) -> SpdMatrix:
    """Matrix with coordinates p; raises OutsideCone when p is not interior."""
    if not isinstance(p, ConePoint3):
        p = ConePoint3(*np.asarray(p, dtype=float))
    a = (p.z + p.y) / _SQRT2
    b = p.x / _SQRT2
    c = (p.z - p.y) / _SQRT2
    return SpdMatrix([[a, b], [b, c]])


def tangent_to_coords(x) -> np.ndarray:
    """Transport a symmetric 2x2 tangent by the (linear) coordinate map."""
    x = as_tangent(x)
    if x.n != 2:
        raise DimensionMismatch("the cone picture exists only for n = 2")
    da, db, dc = x.entries[0, 0], x.entries[0, 1], x.entries[1, 1]
    return np.array([_SQRT2 * db, (da - dc) / _SQRT2, (da + dc) / _SQRT2])


def coords_to_tangent(delta):
    """Inverse tangent transport: coordinates back to a symmetric matrix."""
    dx, dy, dz = np.asarray(delta, dtype=float)
    da = (dz + dy) / _SQRT2
    db = dx / _SQRT2
    dc = (dz - dy) / _SQRT2
    return as_tangent(np.array([[da, db], [db, dc]]))


def coordinate_margins(spec: ConeSpec, p: ConePoint3, delta) -> tuple[float, float | None]:
    """Normalized (linear, quadratic) coordinate-form margins of a tangent
    direction at p.  The quadratic entry is None for the half-space.

    These are the closed-form pullbacks of the membership inequalities;
    signs agree with `cone_membership` through the coordinate map.  Note
    the quadratic affine form carries delta_y^2 with coefficient
    (z^2 - x^2 + y^2); expanding tr(S^-1 X)^2 - mu tr(S^-1 X S^-1 X) in
    these coordinates confirms the sign of the y^2 term.
    """
    x, y, z = p.x, p.y, p.z
    dx, dy, dz = np.asarray(delta, dtype=float)
    dnorm2 = dx * dx + dy * dy + dz * dz
    pnorm2 = x * x + y * y + z * z
    if dnorm2 == 0.0:
        return 1.0, 1.0

    if spec.kind == QUAD_AFFINE:
        lin = (z * dz - x * dx - y * dy) / math.sqrt(pnorm2 * dnorm2)
        quad = 2.0 * (x * dx + y * dy - z * dz) ** 2 - spec.mu * (
            (z * z + x * x - y * y) * dx * dx
            + (z * z - x * x + y * y) * dy * dy
            + (x * x + y * y + z * z) * dz * dz
            + 4.0 * x * y * dx * dy
            - 4.0 * x * z * dx * dz
            - 4.0 * y * z * dy * dz
        )
        return lin, quad / (pnorm2 * dnorm2)

    if spec.kind in (QUAD_TRANSLATE, LOEWNER):
        mu = 1.0 if spec.kind == LOEWNER else spec.mu
        lin = dz / math.sqrt(dnorm2)
        quad = ((2.0 / mu - 1.0) * dz * dz - dx * dx - dy * dy) / dnorm2
        return lin, quad

    if spec.kind == HALF_SPACE:
        lin = (z * dz - x * dx - y * dy) / math.sqrt(pnorm2 * dnorm2)
        return lin, None

    raise EmptySection("the ray field has no two-dimensional section")


def _section_margin(spec: ConeSpec, p: ConePoint3, v: np.ndarray) -> float:
    lin, quad = coordinate_margins(spec, p, v)
    return lin if quad is None else min(lin, quad)


def _interior_axis(spec: ConeSpec, p: ConePoint3) -> np.ndarray:
    if spec.kind == QUAD_AFFINE:
        u = p.as_array()
    elif spec.kind in (QUAD_TRANSLATE, LOEWNER):
        u = np.array([0.0, 0.0, 1.0])
    elif spec.kind == HALF_SPACE:
        u = np.array([-p.x, -p.y, p.z])
    else:
        raise EmptySection("the ray field has no two-dimensional section")
    return u / np.linalg.norm(u)


def cone_cross_section(spec: ConeSpec, p: ConePoint3, resolution: int) -> np.ndarray:
    """Boundary curve of the cone at p, as unit tangent directions.

    Sweeps `resolution` great-circle arcs (8 to MAX_RESOLUTION) from the
    interior axis to its antipode and bisects each to within 1e-10 rad of
    the zero crossing of the membership margin.  Raises EmptySection for
    the ray field.
    """
    if not 8 <= resolution <= MAX_RESOLUTION:
        raise InvalidParameters(f"resolution must be in [8, {MAX_RESOLUTION}], got {resolution}")
    if spec.kind == RAY:
        raise EmptySection("the ray field has no two-dimensional section")
    if spec.n != 2:
        raise DimensionMismatch("sections are drawn in the n = 2 picture")
    axis = _interior_axis(spec, p)
    helper = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = helper - np.dot(helper, axis) * axis
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)

    out = np.empty((resolution, 3))
    for k in range(resolution):
        psi = 2.0 * math.pi * k / resolution
        w = math.cos(psi) * e1 + math.sin(psi) * e2

        def direction(theta: float) -> np.ndarray:
            return math.cos(theta) * axis + math.sin(theta) * w

        lo, hi = 0.0, math.pi
        # margin is positive at the axis and negative at the antipode;
        # convexity gives a single crossing along the arc
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if _section_margin(spec, p, direction(mid)) >= 0.0:
                lo = mid
            else:
                hi = mid
        out[k] = direction(0.5 * (lo + hi))
    return out


def hyperboloid_leaf(c: float, resolution: int) -> np.ndarray:
    """Parametric grid of the leaf z^2 - x^2 - y^2 = c (c >= 0).

    Every grid point with c > 0 maps to an SPD matrix of determinant
    c/2; the limiting c = 0 surface is the boundary of the cone itself,
    so those points are not valid interior ConePoint3 values and raw
    coordinates are returned instead.  The radius rho = sqrt(x^2 + y^2)
    runs from 0 to 2 sqrt(c + 1).  Shape (resolution, resolution, 3),
    with resolution from 8 to MAX_RESOLUTION.
    """
    if c < 0:
        raise InvalidParameters("leaf label must be >= 0")
    if not 8 <= resolution <= MAX_RESOLUTION:
        raise InvalidParameters(f"resolution must be in [8, {MAX_RESOLUTION}], got {resolution}")
    rho = np.linspace(0.0, 2.0 * math.sqrt(c + 1.0), resolution)
    theta = np.linspace(0.0, 2.0 * math.pi, resolution)
    rr, tt = np.meshgrid(rho, theta, indexing="ij")
    grid = np.empty((resolution, resolution, 3))
    grid[..., 0] = rr * np.cos(tt)
    grid[..., 1] = rr * np.sin(tt)
    grid[..., 2] = np.sqrt(c + rr * rr)
    return grid
