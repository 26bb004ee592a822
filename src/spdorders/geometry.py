"""Affine-invariant metric family, geodesics, exp/log maps, the geometric
mean, and the constant-determinant foliation.

The metric parameter mu_metric (valid above -1/n) is deliberately a
different symbol from the cone parameter mu used in `cones`; the two
ranges do not overlap in meaning and must not be conflated.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .core import (
    COND_CAP,
    SpdMatrix,
    SpdStack,
    SymTangent,
    _checked,
    _spectral_apply,
    _sym_eig_stack,
    _validate_spd_stack,
    _validate_sym_stack,
    as_tangent,
    eigh,
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
    half = 0.5 * (inv_root @ entries @ inv_root)  # halved first: a sum at 2^1023 would overflow
    return half + half.swapaxes(-1, -2)


def _canonical_shift(top1, top2):
    """The pair's canonical scale 2^shift: shift = -max(j1, j2), j the frexp exponent of a point's lambda_max."""
    if isinstance(top1, np.ndarray):  # row pairs; a float pair takes math.frexp, about 8x cheaper
        return -np.maximum(np.frexp(top1)[1], np.frexp(top2)[1])
    return -max(math.frexp(top1)[1], math.frexp(top2)[1])


def _relative_eighs(w1: np.ndarray, v1: np.ndarray, entries: np.ndarray, shift: np.ndarray):
    """eigh of sigma1^{-1/2} sigma2 sigma1^{-1/2} for each row of stacks of sigma1's eigenpairs (w1, v1), sigma2's
    entries and the pair's _canonical_shift, both points at 2^shift by exact ldexps: returns pair(j), row j's
    eigenvalues and eigenvectors, raising IllConditioned when they are not positive or span more than COND_CAP."""
    inv = _spectral_apply(np.ldexp(w1, shift[:, None]), v1, lambda w: 1.0 / np.sqrt(w))
    w, u = eigh(_whitened(inv, np.ldexp(entries, shift[:, None, None])))

    def pair(j: int) -> tuple[np.ndarray, np.ndarray]:
        wj = w[j]
        if not (wj[0] > 0 and wj[-1] / wj[0] <= COND_CAP):  # NaN fails too
            raise IllConditioned(f"relative matrix of the pair condition number exceeds {COND_CAP:.1e}")
        return wj, u[j]

    return pair


def _relative_eigh(sigma1: SpdMatrix, sigma2: SpdMatrix) -> tuple[np.ndarray, np.ndarray]:
    """_relative_eighs of one pair, checked as relative_eigenframe's docstring says,
    read-only and kept by sigma1 for its last sigma2: one eigh per pair."""
    if sigma1.n != sigma2.n:
        raise DimensionMismatch(f"points have dimensions {sigma1.n} and {sigma2.n}")
    pair, w, u = sigma1._relative
    if pair() is sigma2:  # a weak reference: the memo keeps no point alive
        return w, u
    (w1, _), (w2, _) = sigma1._eig, sigma2._eig
    low, high = float(w2[0]) / float(w1[-1]), float(w2[-1]) / float(w1[0])  # bounds of the relative spectrum
    if not (2.0**-1022 <= low and high < 2.0**1023):  # at the canonical scale _whitened's sums are <= max(1, high)
        raise InvalidParameters(f"relative spectrum bound [{low:.3e}, {high:.3e}] leaves the normal float range")
    shift = np.array([_canonical_shift(w1[-1], w2[-1])])
    w, u = _relative_eighs(*SpdStack.of(sigma1).spectrum(), SpdStack.of(sigma2).entries, shift)(0)
    w.setflags(write=False)  # shared by every call on the pair
    u.setflags(write=False)
    sigma1._relative = weakref.ref(sigma2), w, u
    return w, u


def relative_eigenframe(sigma1: SpdMatrix, sigma2: SpdMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The frame (b, w) that diagonalizes a pair: sigma1 = b b^T and
    sigma2 = b diag(w) b^T, with w the ascending eigenvalues and u the
    eigenvectors of sigma1^{-1/2} sigma2 sigma1^{-1/2} at the pair's canonical
    scale (the same bits for the pair at 2^k), and b = sigma1^{1/2} u.  w is
    read-only and shared with relative_eigenvalues of the same pair.  Raises
    InvalidParameters when the bound [lambda_min(sigma2) / lambda_max(sigma1),
    lambda_max(sigma2) / lambda_min(sigma1)] on the relative spectrum leaves
    [2^-1022, 2^1023), and IllConditioned when it spans more than COND_CAP."""
    w, u = _relative_eigh(sigma1, sigma2)
    return SpdStack.of(sigma1).root(0.5)[0] @ u, w


def relative_eigenvalues(sigma1: SpdMatrix, sigma2: SpdMatrix) -> np.ndarray:
    """Ascending eigenvalues of sigma2 sigma1^{-1}, computed through the
    symmetric similar matrix sigma1^{-1/2} sigma2 sigma1^{-1/2} so the
    output is guaranteed real and positive; the frame is not built.  The
    array is read-only and shared with relative_eigenframe of the same pair."""
    return _relative_eigh(sigma1, sigma2)[0]


def _geodesic_curve(sigma1: SpdMatrix, sigma2: SpdMatrix):
    """The invariant geodesic from sigma1 to sigma2 in their relative
    eigenframe (b, w): the map from t (a float, or a (k, 1, 1) array) to the
    raw entries of the point b diag(w^t) b^T and of its velocity
    b diag(log(w) w^t) b^T, and whether it is numerically constant."""
    b, w = relative_eigenframe(sigma1, sigma2)
    logw = np.log(w)

    def curve(t):
        powers = w**t  # a float t keeps numpy's scalar-exponent path: w**0.5 is sqrt(w)
        point, velocity = b * powers, b * (logw * powers)
        rows = (-1, len(w))  # every row of each stack in one gemm against the shared b^T
        point_rows, velocity_rows = point.reshape(rows) @ b.T, velocity.reshape(rows) @ b.T
        return point_rows.reshape(point.shape), velocity_rows.reshape(point.shape)

    return curve, _norm(logw) <= 1e-10


def geodesic(sigma1: SpdMatrix, sigma2: SpdMatrix, t: float) -> SpdMatrix:
    """Point at parameter t on the invariant geodesic from sigma1 to sigma2:
    sigma1^{1/2} (sigma1^{-1/2} sigma2 sigma1^{-1/2})^t sigma1^{1/2}.

    Defined for every real t; t=0 and t=1 reproduce the endpoints.
    """
    curve, _ = _geodesic_curve(sigma1, sigma2)
    return SpdMatrix(curve(t)[0])


def geodesic_velocity(sigma1: SpdMatrix, sigma2: SpdMatrix, t: float) -> SymTangent:
    """Analytic velocity of the geodesic at parameter t."""
    curve, _ = _geodesic_curve(sigma1, sigma2)
    return SymTangent(curve(t)[1])


def _exp_stack(points: SpdStack, xs: np.ndarray) -> tuple[SpdStack, SpdError | None]:
    """riemannian_exp over a stack of base points, each owning an equal run
    of consecutive rows of the tangent stack xs, whitened and mapped back by
    the roots the stack builds once: the images of the rows before the
    first row that fails a guard, and that row's error, or None."""
    inv, root = (np.repeat(points.root(power), len(xs) // len(points), axis=0) for power in (-0.5, 0.5))
    sym, err = _validate_sym_stack(_whitened(inv, xs))
    w, v = _sym_eig_stack(sym)
    wide = w[:, -1] - w[:, 0] > np.log(COND_CAP)
    if np.count_nonzero(wide):
        bad = int(wide.argmax())
        w, v, err = w[:bad], v[:bad], IllConditioned("exponential image would exceed the condition cap")
    with np.errstate(over="ignore", invalid="ignore"):  # an image past the float range fails SpdMatrix's guard
        images = root[:len(w)] @ _spectral_apply(w, v, np.exp) @ root[:len(w)]
    images, later = _validate_spd_stack(images)
    return images, later or err


def riemannian_exp(sigma: SpdMatrix, x) -> SpdMatrix:
    """Geodesic exponential: sigma^{1/2} exp(sigma^{-1/2} X sigma^{-1/2}) sigma^{1/2}.
    The one-row view of _exp_stack."""
    x = as_tangent(x)
    if x.n != sigma.n:
        raise DimensionMismatch("tangent dimension differs from base point")
    return _checked(*_exp_stack(SpdStack.of(sigma), x.entries[None])).point(0)


def riemannian_log(sigma1: SpdMatrix, sigma2: SpdMatrix) -> SymTangent:
    """Inverse of riemannian_exp: the initial velocity of the geodesic
    from sigma1 to sigma2."""
    return SymTangent(geodesic_velocity(sigma1, sigma2, 0.0).entries, base=sigma1, checked=True)


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
