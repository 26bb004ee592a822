"""Global order predicates induced by cone fields.

Every order but the half-space preorder is decided by one spectral rule:
the eigenvalues of sigma2 - sigma1 (translation kinds) or the
log-eigenvalues of sigma2 sigma1^{-1} (affine kinds), tested against the
spectral cone.  It is exact and O(n^3); the discretized conal-path
oracle exists for cross-validation only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import (
    DEFAULT_TOL,
    HALF_SPACE,
    TRANSLATION_KINDS,
    ConeSpec,
    _kind_margin,
    _tangent_stack,
    cone_margins,
    sample_cone_tangent,
)
from .core import (
    BLOCK_ROWS,
    PD_RTOL,
    SpdMatrix,
    SpdStack,
    _checked,
    _log_dets,
    _positive_rows,
    _row_norms,
    random_spd,
    _validate_spd_stack,
    _validate_sym_stack,
    eigvalsh,
)
from .errors import DimensionMismatch, InvalidParameters, NotOrdered, SpdError
from .geometry import _canonical_shift, _exp_stack, _geodesic_curve, _norm, _relative_eighs, relative_eigenvalues
from .seeds import derive_rng, derive_seed_words, seeded_rngs

LESS_EQUAL = "less_equal"
GREATER_EQUAL = "greater_equal"
EQUAL = "equal"
INCOMPARABLE = "incomparable"

EQUALITY_RTOL = 1e-10  # relative Frobenius threshold for the equal short-circuit


@dataclass(frozen=True)
class OrderVerdict:
    """Four-way comparison with signed margins, invariant under congruence (affine kinds) and rescaling (all).

    equal implies both margins >= -tol; incomparable implies both < -tol.
    When both directions hold for the half-space preorder (equal
    determinants, distinct matrices) the forward direction wins.
    """

    relation: str
    forward_margin: float
    reverse_margin: float


def _spectral_margins(d: np.ndarray, spec: ConeSpec) -> tuple[float, float]:
    """Forward and reverse margins of a spectral vector (log-eigenvalues for
    the affine families, plain difference eigenvalues for translation): the
    kind's margin rule on the moments of d and of -d, as Python floats."""
    nrm = _norm(d)
    if nrm == 0.0:
        return 1.0, 1.0
    # np.add.reduce(d) is d.sum() without the method's dispatch
    rule = _kind_margin(spec, nrm, lambda: float(np.add.reduce(d)), lambda: float(np.add.reduce(d * d)),
                        lambda t: _norm(d - t / d.shape[0]))
    (own, trace, _), (rev_own, rev_trace, _) = rule(False, lambda: float(d[0])), rule(True, lambda: -float(d[-1]))
    return min(own, trace), min(rev_own, rev_trace)


def _half_space_margins(lows: SpdStack, highs: SpdStack, i1, i2) -> np.ndarray:
    """log det sigma2 - log det sigma1 of the row pairs (lows[i1], highs[i2]): one stacked Cholesky with each point
    at 2^-j, j the frexp exponent of its lambda_max, plus n (j2 - j1) ln 2, the same bits for the pair at 2^k."""
    j = np.frexp(np.concatenate((lows.eigenvalues[i1, -1], highs.eigenvalues[i2, -1])))[1]
    ld, k = _log_dets(np.ldexp(np.concatenate((lows.entries[i1], highs.entries[i2])), -j[:, None, None])), len(i1)
    return (ld[k:] - ld[:k]) + lows.n * (j[k:] - j[:k]) * math.log(2.0)


def order_compare(spec: ConeSpec, sigma1: SpdMatrix, sigma2: SpdMatrix, tol: float = DEFAULT_TOL) -> OrderVerdict:
    """Decide how sigma1 and sigma2 relate under the order induced by spec.

    Incomparability is a first-class verdict, not an error: these are genuine
    partial orders.  The pair is decided at its canonical scale (_canonical_shift).
    """
    if sigma1.n != sigma2.n or spec.n != sigma1.n:
        raise DimensionMismatch(f"spec n={spec.n}, points n={sigma1.n}, {sigma2.n}")

    shift = _canonical_shift(sigma1._eig[0][-1], sigma2._eig[0][-1])
    e1, e2 = np.ldexp(sigma1.entries, shift), np.ldexp(sigma2.entries, shift)
    if _norm(e2 - e1) <= EQUALITY_RTOL * max(_norm(e1), _norm(e2)):
        return OrderVerdict(EQUAL, 1.0, 1.0)

    if spec.kind == HALF_SPACE:
        fwd = float(_half_space_margins(SpdStack.of(sigma1), SpdStack.of(sigma2), [0], [0])[0])
        rev = -fwd
    else:
        if spec.kind in TRANSLATION_KINDS:
            d = eigvalsh(e2 - e1)
        else:
            d = np.log(relative_eigenvalues(sigma1, sigma2))
        fwd, rev = _spectral_margins(d, spec)

    if fwd >= -tol:
        return OrderVerdict(LESS_EQUAL, fwd, rev)
    if rev >= -tol:
        return OrderVerdict(GREATER_EQUAL, fwd, rev)
    return OrderVerdict(INCOMPARABLE, fwd, rev)


def _ordered_rows(spec: ConeSpec, lows: SpdStack, highs: SpdStack):
    """order_compare over the row pairs of two stacks (a one-row stack pairs with every row),
    each pair decided here by order_compare's rule at its canonical scale: returns ordered(j), whether
    pair j is less_equal or equal, raising what order_compare raises, from one stacked Cholesky or
    eigensolve.  The affine kinds read the low rows' eigenvectors, so for them a low row that fails
    SpdStack.spectrum()'s guard raises here."""
    i1, i2 = (np.arange(max(len(lows), len(highs))) % len(s) for s in (lows, highs))
    shift = _canonical_shift(lows.eigenvalues[i1, -1], highs.eigenvalues[i2, -1])
    e1, e2 = (np.ldexp(s.entries[i], shift[:, None, None]) for s, i in ((lows, i1), (highs, i2)))
    equal = _row_norms(e2 - e1) <= EQUALITY_RTOL * np.maximum(_row_norms(e1), _row_norms(e2))
    if spec.kind == HALF_SPACE:
        ld = _half_space_margins(lows, highs, i1, i2)
        margin = lambda j: ld[j]
    elif spec.kind in TRANSLATION_KINDS:
        d = eigvalsh(e2 - e1)
        margin = lambda j: _spectral_margins(d[j], spec)[0]
    else:
        w1, v1 = lows.spectrum()
        pair = _relative_eighs(w1[i1], v1[i1], highs.entries[i2], shift)
        margin = lambda j: _spectral_margins(np.log(pair(j)[0]), spec)[0]
    return lambda j: bool(equal[j]) or margin(j) >= -DEFAULT_TOL  # order_compare's equal or less_equal


def _conal_path(spec: ConeSpec, sigma1: SpdMatrix, sigma2: SpdMatrix):
    """The conal path from sigma1 to sigma2, mapping t (a float or a
    (k, 1, 1) array) to raw point and velocity entries, and whether it is
    numerically constant.  Translation specs use the straight line (their
    cone field is constant, so the segment is conal exactly when the order
    holds), the others the invariant geodesic."""
    if spec.kind in TRANSLATION_KINDS:
        def line(t):
            points = (1.0 - t) * sigma1.entries + t * sigma2.entries
            return points, np.broadcast_to(sigma2.entries - sigma1.entries, points.shape)
        return line, False
    return _geodesic_curve(sigma1, sigma2)


def conal_path_oracle(
    spec: ConeSpec,
    sigma1: SpdMatrix,
    sigma2: SpdMatrix,
    samples: int,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Cross-validation oracle: discretize the conal path from sigma1 to
    sigma2 and test the velocity against the cone at every sample.

    True iff every membership margin is >= -10*tol.  Every point and velocity passes SymTangent's guards:
    sample 0 alone (the margin is constant along the path, so it decides an unordered pair), then stacks of
    at most BLOCK_ROWS.  The first sample that fails decides, so an invalid point raises only when no earlier
    sample is outside the cone.  The points pass the eigen test (_positive_rows) too, unless one eigvalsh of
    the endpoints certifies the path.  Each exact point's spectrum lies in [L, U], U <= kappa L, kappa the
    endpoints' larger lambda_max / lambda_min: the weighted geometric mean is monotone (Kubo and Ando,
    1980), lambda_min concave and lambda_max convex (Weyl).  To first order in eps = 2^-52 (Higham, 2002,
    ch. 3), four roundings each move L and U by at most n^2 eps kappa^2 relatively: the endpoints' spectra,
    the affine frame (b, w) (whitening magnifies sigma2's rounding by kappa), the products b diag(w^t) b^T
    and eigh's backward error.  So n PD_RTOL kappa + 4 n^2 eps kappa^2 <= 1/2 leaves each computed point
    lambda_min - n PD_RTOL lambda_max >= L / 4, and eps lambda_min >= 2^-1022 keeps gradual underflow below
    eps L.  A NaN, inf or non-positive endpoint spectrum fails.
    """
    if samples < 2:
        raise InvalidParameters("need at least two path samples")
    path, constant = _conal_path(spec, sigma1, sigma2)
    if constant:
        return True  # numerically constant path: zero velocity everywhere
    w, eps, n = eigvalsh(np.stack((sigma1.entries, sigma2.entries))), 2.0**-52, sigma1.n
    certified = all(lo * eps >= 2.0**-1022 and n * PD_RTOL * (k := hi / lo) + 4 * n * n * eps * k * k <= 0.5
                    for lo, hi in zip(w[:, 0].tolist(), w[:, -1].tolist()))
    for first in range(1 - BLOCK_ROWS, samples, BLOCK_ROWS):  # samples [0, 1), [1, 129), [129, 257), ...
        ts = np.arange(max(first, 0), min(first + BLOCK_ROWS, samples), dtype=float) * (1.0 / (samples - 1))
        if first + BLOCK_ROWS >= samples:
            ts[-1] = 1.0  # linspace's grid, built block by block
        points, velocities = path(ts[:, None, None])
        points, err = _validate_sym_stack(points)
        if not certified:
            valid, err = _positive_rows(points, err)
            points = valid.entries
        velocities, verr = _validate_sym_stack(velocities[: len(points)])
        if verr is not None:
            points, err = points[: len(velocities)], verr
        margins, _ = cone_margins(spec, points, velocities)
        if np.any(margins < -10.0 * tol):
            return False
        _checked(None, err)
    return True


def _conal_steps(spec: ConeSpec, bases: SpdStack, directions: np.ndarray, sizes) -> tuple[SpdStack, SpdError | None]:
    """Moves from each base point along its cone direction by each size,
    staying on a conal path, in row-major order: the steps before the
    first that fails a guard, and that step's error, or None."""
    n = bases.n
    if spec.kind in TRANSLATION_KINDS:
        # unit-norm direction: a step below lambda_min keeps the sum SPD
        coef = (sizes * 0.5)[None, :] * bases.spectrum()[0][:, :1]
        raw = bases.entries[:, None] + coef[:, :, None, None] * directions[:, None]
        return _validate_spd_stack(raw.reshape(-1, n, n))
    xs = (sizes[:, None, None] * directions[:, None]).reshape(-1, n, n)
    return _exp_stack(bases, xs)


def random_ordered_pair(spec: ConeSpec, n: int, seed: int) -> tuple[SpdMatrix, SpdMatrix]:
    """Deterministic ordered pair sigma1 <= sigma2 for the given spec,
    built by stepping from a random point along an interior cone ray."""
    rng = derive_rng(seed)
    sigma1 = random_spd(n, rng, scale=0.6)
    direction = sample_cone_tangent(spec, sigma1, rng, boundary=False)
    steps = _conal_steps(spec, SpdStack.of(sigma1), direction.entries[None], np.array([rng.uniform(0.3, 1.2)]))
    return sigma1, _checked(*steps).point(0)


# the nudges order_interval_sample tries, largest first (no numpy at import: its first ufunc call costs memory)
STEP_SIZES = tuple(0.15 * 0.5**k for k in range(6))


def order_interval_sample(
    spec: ConeSpec,
    sigma1: SpdMatrix,
    sigma2: SpdMatrix,
    seed: int,
    count: int,
) -> list[SpdMatrix]:
    """Sample points of the order interval [sigma1, sigma2].

    The first sample is the path midpoint; sample i > 0 is a path point
    nudged along a cone direction (both drawn from derive_rng(seed, i)) by
    the first of STEP_SIZES whose step verifies against both endpoints by
    order_compare's rule.  A step that fails a guard ends the sizes;
    without a valid step the sample falls back to the path point if it
    verifies, else to sigma1.  Points, directions, steps and comparisons
    (_ordered_rows, one stack per endpoint) run as stacks, then the samples
    are walked in order, so the earliest sample's error wins.
    """
    pre = order_compare(spec, sigma1, sigma2)
    if pre.relation not in (LESS_EQUAL, EQUAL):
        raise NotOrdered(f"endpoints compare as {pre.relation}")
    if count <= 0:
        return []
    path, _ = _conal_path(spec, sigma1, sigma2)
    rngs = seeded_rngs(derive_seed_words(seed, np.arange(count)[:, None]))
    ts = np.array([rng.uniform(0.05, 0.95) for rng in rngs[1:]])
    # a float t keeps w**0.5 numpy's sqrt
    bases, base_err = _validate_spd_stack(np.concatenate([path(0.5)[0][None], path(ts[:, None, None])[0]]))
    moved = bases[1:]  # the samples that draw a direction
    directions, tangent_err = _tangent_stack(spec, moved, rngs[1:len(bases)], [False] * len(moved))
    # every size of every direction, up to the direction's first step that
    # fails a guard; the directions after a failing step run again
    parts, sizes = [bases], []
    while len(sizes) < len(directions):
        done = len(sizes)
        steps, err = _conal_steps(spec, moved[done:len(directions)], directions[done:], np.array(STEP_SIZES))
        parts.append(steps)
        rows, kept = divmod(len(steps), len(STEP_SIZES))
        sizes += [len(STEP_SIZES)] * rows + ([kept] if err is not None else [])
    candidates = _concat(parts)  # the path points, then the steps
    lo = _ordered_rows(spec, SpdStack.of(sigma1), candidates)
    hi = _ordered_rows(spec, candidates, SpdStack.of(sigma2))

    out, first = [], len(bases)
    for i in range(count):
        if i == len(bases):
            raise base_err
        if i > len(directions):
            raise tangent_err
        chosen = None
        if i > 0:
            chosen = next((candidates.point(j) for j in range(first, first + sizes[i - 1]) if lo(j) and hi(j)), None)
            first += sizes[i - 1]
        out.append(chosen or (candidates.point(i) if lo(i) and hi(i) else sigma1))
    return out


def _concat(stacks) -> SpdStack:
    parts = zip(*((s.entries, s.eigenvalues, s.eigenvectors) for s in stacks))
    return SpdStack(*(np.concatenate(part) for part in parts))
