"""Global order predicates induced by cone fields.

Every order but the half-space preorder is decided by one spectral rule:
the eigenvalues of sigma2 - sigma1 (translation kinds) or the
log-eigenvalues of sigma2 sigma1^{-1} (affine kinds), tested against the
spectral cone.  It is exact and O(n^3); the discretized conal-path
oracle exists for cross-validation only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import (
    DEFAULT_TOL,
    HALF_SPACE,
    LOEWNER,
    RAY,
    TRANSLATION_KINDS,
    ConeSpec,
    cone_margins,
    sample_cone_tangent,
)
from .core import (
    SpdMatrix,
    SymTangent,
    derive_rng,
    random_spd,
    _validate_spd_stack,
    _validate_sym_stack,
)
from .errors import DimensionMismatch, InvalidParameters, NotOrdered, SpdError
from .geometry import relative_eigenframe, relative_eigenvalues, riemannian_exp

LESS_EQUAL = "less_equal"
GREATER_EQUAL = "greater_equal"
EQUAL = "equal"
INCOMPARABLE = "incomparable"

EQUALITY_RTOL = 1e-10  # relative Frobenius threshold for the equal short-circuit


@dataclass(frozen=True)
class OrderVerdict:
    """Four-way comparison with signed, scale-invariant margins.

    equal implies both margins >= -tol; incomparable implies both < -tol.
    When both directions hold for the half-space preorder (equal
    determinants, distinct matrices) the forward direction wins.
    """

    relation: str
    forward_margin: float
    reverse_margin: float


def _spectral_margins(d: np.ndarray, mu: float | None, kind: str) -> tuple[float, float]:
    """Forward/reverse margins of a spectral vector (log-eigenvalues for
    the affine families, plain difference eigenvalues for translation)."""
    nrm = float(np.linalg.norm(d))
    if nrm == 0.0:
        return 1.0, 1.0
    if kind == LOEWNER:
        return float(d[0]) / nrm, -float(d[-1]) / nrm
    s = float(np.sum(d))
    if kind == RAY:
        deviation = float(np.linalg.norm(d - s / d.shape[0])) / nrm
        return min(-deviation, s / nrm), min(-deviation, -s / nrm)
    quad = (s * s - mu * float(np.sum(d * d))) / nrm**2
    return min(s / nrm, quad), min(-s / nrm, quad)


def order_compare(spec: ConeSpec, sigma1: SpdMatrix, sigma2: SpdMatrix, tol: float = DEFAULT_TOL) -> OrderVerdict:
    """Decide how sigma1 and sigma2 relate under the order induced by spec.

    Incomparability is a first-class verdict, not an error: these are
    genuine partial orders.
    """
    if sigma1.n != sigma2.n or spec.n != sigma1.n:
        raise DimensionMismatch(f"spec n={spec.n}, points n={sigma1.n}, {sigma2.n}")

    e1, e2 = sigma1.entries, sigma2.entries
    # ||sigma||_F <= sqrt(n) lambda_max: up to lambda_max = 2^500 the squares in the norms stay finite
    huge = max(sigma1._eig[0][-1], sigma2._eig[0][-1]) > 2.0**500
    scale = np.inf if huge else max(float(np.linalg.norm(e1)), float(np.linalg.norm(e2)))
    if not 2.0**-500 <= scale <= 2.0**500:  # one exact power of two: largest |entry| into [0.5, 1)
        shift = -np.frexp(max(np.abs(e1).max(), np.abs(e2).max()))[1]
        e1, e2 = np.ldexp(e1, shift), np.ldexp(e2, shift)
        scale = max(float(np.linalg.norm(e1)), float(np.linalg.norm(e2)))
    if float(np.linalg.norm(e2 - e1)) <= EQUALITY_RTOL * scale:
        return OrderVerdict(EQUAL, 1.0, 1.0)

    if spec.kind == HALF_SPACE:
        ld = sigma2.log_det - sigma1.log_det
        fwd, rev = ld, -ld
    else:
        if spec.kind in TRANSLATION_KINDS:
            d = np.linalg.eigvalsh(e2 - e1)
        else:
            d = np.log(relative_eigenvalues(sigma1, sigma2))
        fwd, rev = _spectral_margins(d, spec.mu, spec.kind)

    if fwd >= -tol:
        return OrderVerdict(LESS_EQUAL, fwd, rev)
    if rev >= -tol:
        return OrderVerdict(GREATER_EQUAL, fwd, rev)
    return OrderVerdict(INCOMPARABLE, fwd, rev)


def _conal_path(spec: ConeSpec, sigma1: SpdMatrix, sigma2: SpdMatrix):
    """The conal path from sigma1 to sigma2, mapping t (a float or a
    (k, 1, 1) array) to raw point and velocity entries, and whether it is
    numerically constant.  Translation specs use the straight line (their
    cone field is constant, so the segment is conal exactly when the order
    holds), the others the invariant geodesic b diag(w^t) b^T."""
    if spec.kind in TRANSLATION_KINDS:
        def line(t):
            points = (1.0 - t) * sigma1.entries + t * sigma2.entries
            return points, np.broadcast_to(sigma2.entries - sigma1.entries, points.shape)
        return line, False
    b, w = relative_eigenframe(sigma1, sigma2)
    logw = np.log(w)

    def curve(t):
        powers = w**t  # a float t keeps numpy's scalar-exponent path: w**0.5 is sqrt(w)
        return (b * powers) @ b.T, (b * (logw * powers)) @ b.T

    return curve, bool(np.linalg.norm(logw) <= 1e-10)


def conal_path_oracle(
    spec: ConeSpec,
    sigma1: SpdMatrix,
    sigma2: SpdMatrix,
    samples: int,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Cross-validation oracle: discretize the conal path from sigma1 to
    sigma2 and test the velocity against the cone at every sample.

    True iff every membership margin is >= -10*tol.  All samples are
    built and tested as one stack, with SpdMatrix's and SymTangent's
    guards on every point and velocity; the first sample that fails
    decides, so an invalid point raises only when no earlier sample is
    outside the cone.
    """
    if samples < 2:
        raise InvalidParameters("need at least two path samples")

    path, constant = _conal_path(spec, sigma1, sigma2)
    if constant:
        return True  # numerically constant path: zero velocity everywhere
    points, velocities = path(np.linspace(0.0, 1.0, samples)[:, None, None])

    points, _, _, err = _validate_spd_stack(points)
    velocities, verr = _validate_sym_stack(velocities[: len(points)])
    if verr is not None:
        points, err = points[: len(velocities)], verr
    margins, _ = cone_margins(spec, points, velocities)
    if np.any(margins < -10.0 * tol):
        return False
    if err is not None:
        raise err
    return True


def _conal_step(spec: ConeSpec, sigma: SpdMatrix, direction: SymTangent, size: float) -> SpdMatrix:
    """Move from sigma along a cone direction, staying on a conal path."""
    if spec.kind in TRANSLATION_KINDS:
        # unit-norm direction: a step below lambda_min keeps the sum SPD
        lam_min = sigma.spectrum.eigenvalues[0]
        return SpdMatrix(sigma.entries + size * 0.5 * lam_min * direction.entries)
    return riemannian_exp(sigma, SymTangent(size * direction.entries))


def random_ordered_pair(spec: ConeSpec, n: int, seed: int) -> tuple[SpdMatrix, SpdMatrix]:
    """Deterministic ordered pair sigma1 <= sigma2 for the given spec,
    built by stepping from a random point along an interior cone ray."""
    rng = derive_rng(seed)
    sigma1 = random_spd(n, rng, scale=0.6)
    direction = sample_cone_tangent(spec, sigma1, rng, boundary=False)
    return sigma1, _conal_step(spec, sigma1, direction, float(rng.uniform(0.3, 1.2)))


def order_interval_sample(
    spec: ConeSpec,
    sigma1: SpdMatrix,
    sigma2: SpdMatrix,
    seed: int,
    count: int,
) -> list[SpdMatrix]:
    """Sample points of the order interval [sigma1, sigma2].

    The first sample is the path midpoint; the rest are random path
    points nudged along local cone directions.  Every returned point is
    re-verified against both endpoints with order_compare before being
    accepted, falling back to the unperturbed path point.
    """
    pre = order_compare(spec, sigma1, sigma2)
    if pre.relation not in (LESS_EQUAL, EQUAL):
        raise NotOrdered(f"endpoints compare as {pre.relation}")

    if count > 0:
        path, _ = _conal_path(spec, sigma1, sigma2)

    def valid(candidate: SpdMatrix) -> bool:
        lo = order_compare(spec, sigma1, candidate)
        hi = order_compare(spec, candidate, sigma2)
        return lo.relation in (LESS_EQUAL, EQUAL) and hi.relation in (LESS_EQUAL, EQUAL)

    out: list[SpdMatrix] = []
    for i in range(count):
        rng = derive_rng(seed, i)
        t = 0.5 if i == 0 else float(rng.uniform(0.05, 0.95))
        base = SpdMatrix(path(t)[0])
        chosen = None
        if i > 0:
            direction = sample_cone_tangent(spec, base, rng, boundary=False)
            size = 0.15
            for _ in range(6):
                try:
                    candidate = _conal_step(spec, base, direction, size)
                except SpdError:
                    break
                if valid(candidate):
                    chosen = candidate
                    break
                size *= 0.5
        if chosen is None:
            chosen = base if valid(base) else sigma1
        out.append(chosen)
    return out
