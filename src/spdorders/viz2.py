"""The 2x2 picture: the linear bijection onto the open quadratic cone in
R^3, pointwise cone cross-sections, the half-space boundary plane, and
the constant-determinant hyperboloid foliation.

The bijection phi maps [[a, b], [b, c]] to (sqrt(2) b, (a - c)/sqrt(2),
(a + c)/sqrt(2)); it is linear in the matrix entries, so tangents
transport by the same map.  Each cone field at a point pulls back to
one linear and one quadratic form in these coordinates, so margins and
cross-sections are closed-form.  Everything here emits plain coordinate
arrays; plotting is left to the caller's tooling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import HALF_SPACE, LOEWNER, QUAD_TRANSLATE, RAY, ConeSpec
from .core import SpdMatrix, as_tangent
from .errors import DimensionMismatch, EmptySection, InvalidParameters, OutsideCone

_SQRT2 = math.sqrt(2.0)
MAX_RESOLUTION = 1024  # arcs per section and grid points per leaf axis
MAX_LEAF_LABEL = 1e307  # a leaf's rim has z^2 = 5c + 4, which must stay finite


@dataclass(frozen=True)
class ConePoint3:
    """Point strictly inside the cone z^2 - x^2 - y^2 > 0, z > 0."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        x, y, z = _unit_scaled(self.x, self.y, self.z)
        if not (z > 0.0 and z * z - x * x - y * y > 0.0):
            raise OutsideCone(f"({self.x}, {self.y}, {self.z}) not interior to the cone")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def _unit_scaled(*coords: float) -> tuple[float, ...]:
    """The coordinates times the power of two that brings the largest |coordinate| into [0.5, 1):
    the cone's forms are homogeneous, and no square of these overflows nor, for the largest, underflows."""
    e = math.frexp(max(map(abs, coords), default=0.0))[1]
    return tuple(math.ldexp(c, -e) for c in coords)


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


def _section_forms(spec: ConeSpec, p: ConePoint3):
    """The cone at p pulled back to the coordinates: (unit interior axis,
    linear form l, 3x3 quadratic form A or None for the half-space, scale
    s), built on p as _unit_scaled scales it (which moves no margin and no
    section); membership reads l.delta >= 0 and delta^T A delta >= 0.  For
    quad-affine, A expands |p|^2 (tr(S^-1 X)^2 - mu tr(S^-1 X S^-1 X));
    its delta_y^2 coefficient carries (z^2 - x^2 + y^2).
    """
    if spec.kind in (QUAD_TRANSLATE, LOEWNER):
        mu = 1.0 if spec.kind == LOEWNER else spec.mu
        e3 = np.array([0.0, 0.0, 1.0])
        return e3, e3, np.diag([-1.0, -1.0, 2.0 / mu - 1.0]), 1.0
    if spec.kind == RAY:
        raise EmptySection("the ray field has no two-dimensional section")
    x, y, z = _unit_scaled(p.x, p.y, p.z)
    lin = np.array([-x, -y, z])
    pnorm2 = x * x + y * y + z * z
    if spec.kind == HALF_SPACE:
        return lin / np.linalg.norm(lin), lin, None, pnorm2
    m = np.array([
        [z * z + x * x - y * y, 2.0 * x * y, -2.0 * x * z],
        [2.0 * x * y, z * z - x * x + y * y, -2.0 * y * z],
        [-2.0 * x * z, -2.0 * y * z, pnorm2],
    ])
    return np.array([x, y, z]) / math.sqrt(pnorm2), lin, 2.0 * np.outer(lin, lin) - spec.mu * m, pnorm2


def coordinate_margins(spec: ConeSpec, p: ConePoint3, delta) -> tuple[float, float | None]:
    """Normalized (linear, quadratic) coordinate-form margins of a tangent
    direction at p.  The quadratic entry is None for the half-space.

    These are the closed-form pullbacks of the membership inequalities;
    signs agree with `cone_membership` through the coordinate map.
    """
    delta = np.array(_unit_scaled(*np.asarray(delta, dtype=float)))  # the margins have degree 0 in delta
    dnorm2 = float(delta @ delta)
    if dnorm2 == 0.0:
        return 1.0, 1.0
    _, lin, form, scale = _section_forms(spec, p)
    norm2 = scale * dnorm2
    quad = None if form is None else float(delta @ form @ delta) / norm2
    return float(lin @ delta) / math.sqrt(norm2), quad


def cone_cross_section(spec: ConeSpec, p: ConePoint3, resolution: int) -> np.ndarray:
    """Boundary curve of the cone at p, as unit tangent directions.

    Sweeps `resolution` great-circle arcs (8 to MAX_RESOLUTION) from the
    interior axis to its antipode and returns, in closed form, the first
    zero of the membership margin on each.  Along cos t axis + sin t w
    the quadratic form reads a cos^2 t + 2b cos t sin t + c sin^2 t with
    a > 0, so the boundary is the larger root of a u^2 + 2b u + c in
    u = cot t; the half-space boundary sits at t = pi/2.  Raises
    EmptySection for the ray field.
    """
    if not 8 <= resolution <= MAX_RESOLUTION:
        raise InvalidParameters(f"resolution must be in [8, {MAX_RESOLUTION}], got {resolution}")
    axis, _, form, _ = _section_forms(spec, p)
    if spec.n != 2:
        raise DimensionMismatch("sections are drawn in the n = 2 picture")
    helper = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = helper - np.dot(helper, axis) * axis
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    psi = 2.0 * np.pi * np.arange(resolution) / resolution
    w = np.cos(psi)[:, None] * e1 + np.sin(psi)[:, None] * e2
    if form is None:
        theta = np.full(resolution, 0.5 * np.pi)
    else:
        a = axis @ form @ axis
        b = w @ (form @ axis)
        c = np.einsum("ki,ij,kj->k", w, form, w)
        root = np.sqrt(b * b - a * c)
        # atan2(a, root - b) cancels for b > 0; this is the same angle
        # with the numerator rationalised
        theta = np.where(b > 0.0, np.arctan2(b + root, -c), np.arctan2(a, root - b))
    return np.cos(theta)[:, None] * axis + np.sin(theta)[:, None] * w


def hyperboloid_leaf(c: float, resolution: int) -> np.ndarray:
    """Parametric grid of the leaf z^2 - x^2 - y^2 = c, 0 <= c <= MAX_LEAF_LABEL.

    Every grid point with c > 0 maps to an SPD matrix of determinant
    c/2; the limiting c = 0 surface is the boundary of the cone itself,
    so those points are not valid interior ConePoint3 values and raw
    coordinates are returned instead.  The radius rho = sqrt(x^2 + y^2)
    runs from 0 to 2 sqrt(c + 1).  Shape (resolution, resolution, 3),
    with resolution from 8 to MAX_RESOLUTION.
    """
    if not 0.0 <= c <= MAX_LEAF_LABEL:  # also rejects nan
        raise InvalidParameters(f"leaf label must be in [0, {MAX_LEAF_LABEL:g}], got {c}")
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
