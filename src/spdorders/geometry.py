"""Affine-invariant metric family, geodesics, exp/log maps, the geometric
mean, and the constant-determinant foliation.

The metric parameter mu_metric (valid above -1/n) is deliberately a
different symbol from the cone parameter mu used in `cones`; the two
ranges do not overlap in meaning and must not be conflated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    COND_CAP,
    SpdMatrix,
    SpdStack,
    SymTangent,
    _one_point,
    _spectral_apply,
    _sym_eig_stack,
    _validate_spd_stack,
    _validate_sym_stack,
    as_tangent,
)
from .errors import DimensionMismatch, IllConditioned, InvalidParameters, SpdError


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


def _norm(a: np.ndarray) -> float:
    """The Frobenius norm through the ddot np.linalg.norm takes: the same bits, less dispatch."""
    f = a.ravel(order="K")
    return math.sqrt(f.dot(f))


def _whitened(inv_root: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """inv_root @ entries @ inv_root, exactly symmetrized: of one pair, or of each row of broadcasting stacks."""
    rel = inv_root @ entries @ inv_root
    return 0.5 * (rel + rel.swapaxes(-1, -2))


ILL_CONDITIONED_PAIR = f"relative matrix of the pair condition number exceeds {COND_CAP:.1e}"


def _relative_eigh(sigma1: SpdMatrix, sigma2: SpdMatrix) -> tuple[np.ndarray, np.ndarray]:
    """eigh of sigma1^{-1/2} sigma2 sigma1^{-1/2}, checked as relative_eigenframe's docstring says."""
    if sigma1.n != sigma2.n:
        raise DimensionMismatch(f"points have dimensions {sigma1.n} and {sigma2.n}")
    w, u = np.linalg.eigh(_whitened(sigma1.inv_root, sigma2.entries))
    if w[0] <= 0 or w[-1] / w[0] > COND_CAP:
        raise IllConditioned(ILL_CONDITIONED_PAIR)
    return w, u


def relative_eigenframe(sigma1: SpdMatrix, sigma2: SpdMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The frame (b, w) that diagonalizes a pair: sigma1 = b b^T and
    sigma2 = b diag(w) b^T, with w the ascending eigenvalues and u the
    eigenvectors of sigma1^{-1/2} sigma2 sigma1^{-1/2}, and b = sigma1^{1/2} u.
    Raises IllConditioned when the relative spectrum spans more than COND_CAP.
    """
    w, u = _relative_eigh(sigma1, sigma2)
    return sigma1.spectrum.apply(np.sqrt) @ u, w


def relative_eigenvalues(sigma1: SpdMatrix, sigma2: SpdMatrix) -> np.ndarray:
    """Ascending eigenvalues of sigma2 sigma1^{-1}, computed through the
    symmetric similar matrix sigma1^{-1/2} sigma2 sigma1^{-1/2} so the
    output is guaranteed real and positive; the frame is not built."""
    return _relative_eigh(sigma1, sigma2)[0]


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


def _inv_roots(points: SpdStack) -> tuple[np.ndarray, SpdError | None]:
    """sigma^{-1/2} of the rows points.spectrum() returns, and its error."""
    w, v, err = points.spectrum()
    return _spectral_apply(w, v, lambda w: 1.0 / np.sqrt(w)), err


def _exp_stack(points: SpdStack, inv: np.ndarray, xs: np.ndarray, width: int) -> tuple[SpdStack, SpdError | None]:
    """riemannian_exp over a stack of base points with their whitening
    factors inv (those _inv_roots gives), each point owning `width`
    consecutive rows of the tangent stack xs: the images of the rows before
    the first row that fails a guard, and that row's error, or None."""
    w, v, err = points.spectrum()
    inv, root = (np.repeat(a, width, axis=0) for a in (inv, _spectral_apply(w, v, np.sqrt)))
    s = inv @ xs[:len(inv)] @ inv
    sym, later = _validate_sym_stack(0.5 * (s + s.swapaxes(1, 2)))
    w, v, last = _sym_eig_stack(sym)
    err = last or later or err
    wide = w[:, -1] - w[:, 0] > np.log(COND_CAP)
    if np.count_nonzero(wide):
        bad = int(wide.argmax())
        w, v, err = w[:bad], v[:bad], IllConditioned("exponential image would exceed the condition cap")
    images, later = _validate_spd_stack(root[:len(w)] @ _spectral_apply(w, v, np.exp) @ root[:len(w)])
    return images, later or err


def riemannian_exp(sigma: SpdMatrix, x) -> SpdMatrix:
    """Geodesic exponential: sigma^{1/2} exp(sigma^{-1/2} X sigma^{-1/2}) sigma^{1/2}.
    The one-row view of _exp_stack."""
    x = as_tangent(x)
    if x.n != sigma.n:
        raise DimensionMismatch("tangent dimension differs from base point")
    return _one_point(*_exp_stack(SpdStack.of(sigma), sigma.inv_root[None], x.entries[None], 1))


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
    return _norm(np.log(relative_eigenvalues(sigma1, sigma2)))
