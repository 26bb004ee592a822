"""Affine-invariant metric family, geodesics, exp/log maps, the geometric
mean, and the constant-determinant foliation.

The metric parameter mu_metric (valid above -1/n) is deliberately a
different symbol from the cone parameter mu used in `cones`; the two
ranges do not overlap in meaning and must not be conflated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    SpdMatrix,
    SymTangent,
    as_tangent,
    require_well_conditioned,
    sym_eig,
)
from .errors import DimensionMismatch, IllConditioned, InvalidParameters


@dataclass(frozen=True)
class MetricSpec:
    """Parameter of the invariant inner product family
    tr(S^-1 X S^-1 Y) + mu_metric * tr(S^-1 X) tr(S^-1 Y)."""

    mu_metric: float = 0.0


def inner_product(metric: MetricSpec, sigma: SpdMatrix, x, y) -> float:
    """Invariant inner product of two tangents at sigma."""
    x = as_tangent(x)
    y = as_tangent(y)
    if x.n != sigma.n or y.n != sigma.n:
        raise DimensionMismatch("tangent and base dimensions differ")
    if metric.mu_metric <= -1.0 / sigma.n:
        raise InvalidParameters(f"mu_metric={metric.mu_metric} must exceed -1/n = {-1.0 / sigma.n}")
    wx = sigma.inv_apply(x.entries)
    wy = sigma.inv_apply(y.entries)
    return float(np.sum(wx * wy.T) + metric.mu_metric * np.trace(wx) * np.trace(wy))


def relative_eigenframe(sigma1: SpdMatrix, sigma2: SpdMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The frame (b, w) that diagonalizes a pair: sigma1 = b b^T and
    sigma2 = b diag(w) b^T, with w the ascending eigenvalues and u the
    eigenvectors of sigma1^{-1/2} sigma2 sigma1^{-1/2}, and b = sigma1^{1/2} u.
    Raises IllConditioned when the relative spectrum spans more than 1e12.
    """
    if sigma1.n != sigma2.n:
        raise DimensionMismatch(f"points have dimensions {sigma1.n} and {sigma2.n}")
    spec = sigma1.spectrum
    inv_root = spec.apply(lambda w: 1.0 / np.sqrt(w))
    rel = inv_root @ sigma2.entries @ inv_root
    rel = 0.5 * (rel + rel.T)
    w, u = np.linalg.eigh(rel)
    require_well_conditioned(w, "relative matrix of the pair")
    return spec.apply(np.sqrt) @ u, w


def relative_eigenvalues(sigma1: SpdMatrix, sigma2: SpdMatrix) -> np.ndarray:
    """Ascending eigenvalues of sigma2 sigma1^{-1}, computed through the
    symmetric similar matrix sigma1^{-1/2} sigma2 sigma1^{-1/2} so the
    output is guaranteed real and positive."""
    return relative_eigenframe(sigma1, sigma2)[1]


def geodesic(sigma1: SpdMatrix, sigma2: SpdMatrix, t: float) -> SpdMatrix:
    """Point at parameter t on the invariant geodesic from sigma1 to sigma2:
    sigma1^{1/2} (sigma1^{-1/2} sigma2 sigma1^{-1/2})^t sigma1^{1/2}.

    Defined for every real t; t=0 and t=1 reproduce the endpoints.
    """
    b, w = relative_eigenframe(sigma1, sigma2)
    return SpdMatrix((b * w**t) @ b.T)


def geodesic_velocity(sigma1: SpdMatrix, sigma2: SpdMatrix, t: float) -> SymTangent:
    """Analytic velocity of the geodesic at parameter t."""
    b, w = relative_eigenframe(sigma1, sigma2)
    return SymTangent((b * (np.log(w) * w**t)) @ b.T)


def riemannian_exp(sigma: SpdMatrix, x) -> SpdMatrix:
    """Geodesic exponential: sigma^{1/2} exp(sigma^{-1/2} X sigma^{-1/2}) sigma^{1/2}."""
    x = as_tangent(x)
    if x.n != sigma.n:
        raise DimensionMismatch("tangent dimension differs from base point")
    inv_root = sigma.spectrum.apply(lambda w: 1.0 / np.sqrt(w))
    s = inv_root @ x.entries @ inv_root
    spec = sym_eig(0.5 * (s + s.T))
    w = spec.eigenvalues
    if w[-1] - w[0] > np.log(1e12):
        raise IllConditioned("exponential image would exceed the condition cap")
    root = sigma.spectrum.apply(np.sqrt)
    return SpdMatrix(root @ spec.apply(np.exp) @ root)


def riemannian_log(sigma1: SpdMatrix, sigma2: SpdMatrix) -> SymTangent:
    """Inverse of riemannian_exp: the initial velocity of the geodesic
    from sigma1 to sigma2."""
    b, w = relative_eigenframe(sigma1, sigma2)
    return SymTangent((b * np.log(w)) @ b.T, base=sigma1)


def geometric_mean(sigma1: SpdMatrix, sigma2: SpdMatrix) -> SpdMatrix:
    """Geometric mean sigma1^{1/2} (sigma1^{-1/2} sigma2 sigma1^{-1/2})^{1/2} sigma1^{1/2},
    the midpoint of the invariant geodesic."""
    return geodesic(sigma1, sigma2, 0.5)


def det_leaf(sigma: SpdMatrix) -> float:
    """Leaf label of the constant-determinant foliation, returned as
    log det (Cholesky based) to keep the full dynamic range."""
    return sigma.log_det


def distance(sigma1: SpdMatrix, sigma2: SpdMatrix) -> float:
    """Geodesic distance under the standard invariant metric (mu_metric = 0):
    the Frobenius norm of log(sigma1^{-1/2} sigma2 sigma1^{-1/2})."""
    w = relative_eigenvalues(sigma1, sigma2)
    return float(np.linalg.norm(np.log(w)))
