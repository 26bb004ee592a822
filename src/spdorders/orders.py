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
    TRANSLATION_KINDS,
    ConeSpec,
    _kind_margin,
    _tangent_stack,
    cone_margins,
    sample_cone_tangent,
)
from .core import (
    BLOCK_ROWS,
    COND_CAP,
    WINDOW,
    SpdMatrix,
    SpdStack,
    SymTangent,
    _checked,
    _row_norms,
    random_spd,
    _validate_spd_entries,
    _validate_spd_stack,
    _validate_sym_stack,
    _windowed,
    eigh,
    eigvalsh,
)
from .errors import DimensionMismatch, IllConditioned, InvalidParameters, NotOrdered, SpdError
from .geometry import (
    ILL_CONDITIONED_PAIR,
    _exp_stack,
    _geodesic_curve,
    _norm,
    _whitened,
    relative_eigenvalues,
)
from .seeds import derive_rng, derive_seed_words, seeded_rngs

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


def order_compare(spec: ConeSpec, sigma1: SpdMatrix, sigma2: SpdMatrix, tol: float = DEFAULT_TOL) -> OrderVerdict:
    """Decide how sigma1 and sigma2 relate under the order induced by spec.

    Incomparability is a first-class verdict, not an error: these are
    genuine partial orders.
    """
    if sigma1.n != sigma2.n or spec.n != sigma1.n:
        raise DimensionMismatch(f"spec n={spec.n}, points n={sigma1.n}, {sigma2.n}")

    e1, e2 = sigma1.entries, sigma2.entries
    if not 1.0 / WINDOW <= max(sigma1._eig[0][-1], sigma2._eig[0][-1]) <= WINDOW:  # lambda_max >= max|entry|
        e1, e2 = np.split(_windowed(np.concatenate((e1, e2))[None])[0][0], 2)  # one row: one power of two for both
    if _norm(e2 - e1) <= EQUALITY_RTOL * max(_norm(e1), _norm(e2)):
        return OrderVerdict(EQUAL, 1.0, 1.0)

    if spec.kind == HALF_SPACE:
        ld = sigma2.log_det - sigma1.log_det
        fwd, rev = ld, -ld
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


def _take(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    return a[rows if len(a) > 1 else np.zeros_like(rows)]  # a one-row stack pairs with every row


def _ordered_rows(spec: ConeSpec, lows: SpdStack, highs: SpdStack):
    """order_compare over the row pairs of two stacks (a one-row stack pairs
    with every row), its spectral vectors from one stacked eigensolve:
    returns ordered(j, pair), whether pair j is less_equal or equal by the
    scalar margin rule, raising what order_compare raises.  Pairs with
    nothing to stack (half-space, a missing whitening factor, a pair whose
    larger lambda_max lies outside core.WINDOW) run order_compare itself
    on pair()."""
    e1, e2 = lows.entries, highs.entries
    with np.errstate(over="ignore"):
        equal = _row_norms(e2 - e1) <= EQUALITY_RTOL * np.maximum(_row_norms(e1), _row_norms(e2))
    top = np.maximum(lows.eigenvalues[:, -1], highs.eigenvalues[:, -1])
    opened = ~((1.0 / WINDOW <= top) & (top <= WINDOW))
    affine = spec.kind not in TRANSLATION_KINDS + (HALF_SPACE,)
    inv, err = lows.root(-0.5) if affine else (None, None)
    if spec.kind == HALF_SPACE or err is not None:
        opened[:] = True
    rows = np.flatnonzero(~opened & ~equal)
    if affine:
        w = eigh(_whitened(_take(inv, rows), _take(e2, rows)))[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            ill = (w[:, 0] <= 0) | (w[:, -1] / w[:, 0] > COND_CAP)
        vectors = [None if bad else d for d, bad in zip(np.log(np.where(ill[:, None], 1.0, w)), ill)]
    else:
        vectors = eigvalsh(_take(e2, rows) - _take(e1, rows))
    vectors = dict(zip(rows.tolist(), vectors))

    def ordered(j: int, pair) -> bool:
        if opened[j]:
            return order_compare(spec, *pair()).relation in (LESS_EQUAL, EQUAL)
        if equal[j]:
            return True
        if vectors[j] is None:
            raise IllConditioned(ILL_CONDITIONED_PAIR)
        return _spectral_margins(vectors[j], spec)[0] >= -DEFAULT_TOL  # order_compare's less_equal

    return ordered


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

    True iff every membership margin is >= -10*tol.  Every point and
    velocity passes SpdMatrix's guards (_validate_spd_entries) and
    SymTangent's: sample 0 alone (the margin is constant along the path,
    so on an unordered pair it decides), then the rest in stacks of at
    most BLOCK_ROWS.  The first sample that fails decides, so an invalid
    point raises only when no earlier sample is outside the cone.
    """
    if samples < 2:
        raise InvalidParameters("need at least two path samples")

    path, constant = _conal_path(spec, sigma1, sigma2)
    if constant:
        return True  # numerically constant path: zero velocity everywhere
    for first in range(1 - BLOCK_ROWS, samples, BLOCK_ROWS):  # samples [0, 1), [1, 129), [129, 257), ...
        ts = np.arange(max(first, 0), min(first + BLOCK_ROWS, samples), dtype=float) * (1.0 / (samples - 1))
        if first + BLOCK_ROWS >= samples:
            ts[-1] = 1.0  # linspace's grid, built block by block
        points, velocities = path(ts[:, None, None])
        points, err = _validate_spd_entries(points)
        velocities, verr = _validate_sym_stack(velocities[: len(points)])
        if verr is not None:
            points, err = points[: len(velocities)], verr
        margins, _ = cone_margins(spec, points, velocities)
        if np.any(margins < -10.0 * tol):
            return False
        _checked(None, err)
    return True


def _conal_steps(spec: ConeSpec, bases: SpdStack, directions: np.ndarray, sizes) -> tuple[SpdStack, SpdError | None]:
    """_conal_step from each base point along its direction by each size,
    in row-major order: the steps before the first that fails a guard, and
    that step's error, or None."""
    n = bases.n
    if spec.kind in TRANSLATION_KINDS:
        # unit-norm direction: a step below lambda_min keeps the sum SPD
        w, _, err = bases.spectrum()
        coef = (sizes * 0.5)[None, :] * w[:, :1]
        raw = bases.entries[:len(w), None] + coef[:, :, None, None] * directions[:len(w), None]
        steps, later = _validate_spd_stack(raw.reshape(-1, n, n))
        return steps, later or err
    xs = (sizes[:, None, None] * directions[:, None]).reshape(-1, n, n)
    return _exp_stack(bases, xs)


def _conal_step(spec: ConeSpec, sigma: SpdMatrix, direction: SymTangent, size: float) -> SpdMatrix:
    """Move from sigma along a cone direction, staying on a conal path:
    the one-step view of _conal_steps."""
    return _checked(*_conal_steps(spec, SpdStack.of(sigma), direction.entries[None], np.array([size]))).point(0)


def random_ordered_pair(spec: ConeSpec, n: int, seed: int) -> tuple[SpdMatrix, SpdMatrix]:
    """Deterministic ordered pair sigma1 <= sigma2 for the given spec,
    built by stepping from a random point along an interior cone ray."""
    rng = derive_rng(seed)
    sigma1 = random_spd(n, rng, scale=0.6)
    direction = sample_cone_tangent(spec, sigma1, rng, boundary=False)
    return sigma1, _conal_step(spec, sigma1, direction, float(rng.uniform(0.3, 1.2)))


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
    the first of STEP_SIZES whose step order_compare verifies against both
    endpoints.  A step that fails a guard ends the sizes; without a valid
    step the sample falls back to the path point if it verifies, else to
    sigma1.  Points, directions, steps and comparisons run as stacks, then
    the samples are walked in order, so the earliest sample's error wins.
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

    def valid(j: int) -> bool:
        below = lo(j, lambda: (sigma1, candidates.point(j)))
        above = hi(j, lambda: (candidates.point(j), sigma2))
        return below and above

    out, first = [], len(bases)
    for i in range(count):
        if i == len(bases):
            raise base_err
        if i > len(directions):
            raise tangent_err
        chosen = None
        if i > 0:
            chosen = next((candidates.point(j) for j in range(first, first + sizes[i - 1]) if valid(j)), None)
            first += sizes[i - 1]
        out.append(chosen or (candidates.point(i) if valid(i) else sigma1))
    return out


def _concat(stacks) -> SpdStack:
    parts = zip(*((s.entries, s.eigenvalues, s.eigenvectors) for s in stacks))
    return SpdStack(*(np.concatenate(part) for part in parts))
