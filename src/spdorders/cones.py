"""Cone specifications and pointwise membership tests.

Five tangent-cone families are supported at each base point Sigma:

* quad-affine(mu):    (tr(S^-1 X))^2 - mu tr(S^-1 X S^-1 X) >= 0 and tr(S^-1 X) >= 0
* quad-translate(mu): the same inequalities with Sigma replaced by I
* loewner:            X positive semidefinite
* half-space:         tr(S^-1 X) >= 0 (a wedge, not a pointed cone)
* ray:                X = c * Sigma for some c >= 0

The quadratic parameter mu must lie strictly inside (0, n); the mu -> 0
and mu -> n limits are exposed as the distinct half-space and ray kinds.
Membership is closed (margin >= -tol); the zero tangent is inside every
cone with margin +1 by convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    SpdMatrix,
    SpdStack,
    SymTangent,
    _check_dimension,
    _identity,
    _is_json_number,
    _row_norms,
    _spectral_apply,
    _validate_sym_stack,
    as_tangent,
)
from .errors import DimensionMismatch, InvalidParameters, SpdError
from .seeds import _random_syms, _standard_normals

DEFAULT_TOL = 1e-10

QUAD_AFFINE = "quad-affine"
QUAD_TRANSLATE = "quad-translate"
LOEWNER = "loewner"
HALF_SPACE = "half-space"
RAY = "ray"

_KINDS = (QUAD_AFFINE, QUAD_TRANSLATE, LOEWNER, HALF_SPACE, RAY)

# Kinds whose cone field is the same at every point: their conal paths are
# straight lines and their orders compare sigma2 - sigma1.
TRANSLATION_KINDS = (QUAD_TRANSLATE, LOEWNER)


@dataclass(frozen=True)
class ConeSpec:
    """Tagged choice of cone field; the order-defining object."""

    kind: str
    n: int
    mu: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidParameters(f"unknown cone kind {self.kind!r}")
        _check_dimension(self.n)
        if self.kind in (QUAD_AFFINE, QUAD_TRANSLATE):
            if self.mu is None:
                raise InvalidParameters(f"{self.kind} requires mu")
            if not (0.0 < self.mu < self.n):
                raise InvalidParameters(f"mu={self.mu} outside open interval (0, {self.n})")
        elif self.mu is not None:
            raise InvalidParameters(f"{self.kind} takes no mu parameter")

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "n": self.n}
        if self.mu is not None:
            d["mu"] = self.mu
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ConeSpec":
        n, mu = d.get("n"), d.get("mu")
        if not _is_json_number(n, int):
            raise InvalidParameters(f'"n" must be an integer, got {n!r}')
        if mu is not None and not _is_json_number(mu):
            raise InvalidParameters(f'"mu" must be a number, got {mu!r}')
        return cls(kind=d.get("kind"), n=n, mu=mu)


def quadratic_affine(mu: float, n: int) -> ConeSpec:
    return ConeSpec(QUAD_AFFINE, n, float(mu))


def quadratic_translation(mu: float, n: int) -> ConeSpec:
    return ConeSpec(QUAD_TRANSLATE, n, float(mu))


def loewner(n: int) -> ConeSpec:
    return ConeSpec(LOEWNER, n)


def half_space_affine(n: int) -> ConeSpec:
    return ConeSpec(HALF_SPACE, n)


def ray_affine(n: int) -> ConeSpec:
    return ConeSpec(RAY, n)


@dataclass(frozen=True)
class MembershipReport:
    """Signed, scale-invariant membership verdict: inside iff margin >= -tol."""

    inside: bool
    margin: float
    binding_constraint: str  # one of BINDINGS


# binding constraints, indexed by the codes cone_margins returns
BINDINGS = ("trace_sign", "quadratic_form", "eigenvalue_min", "ray_deviation")
_TRACE_SIGN, _QUADRATIC_FORM, _EIGENVALUE_MIN, _RAY_DEVIATION = range(len(BINDINGS))


class SpectralCone:
    """Permutation-invariant cone of eigenvalue vectors in R^n.

    Defined by lam^T Q_mu lam >= 0 and 1^T lam >= 0 where Q_mu has
    diagonal entries 1 - mu and off-diagonal entries 1.
    """

    def __init__(self, mu: float, n: int):
        _check_dimension(n)
        if not (0.0 < mu < n):
            raise InvalidParameters(f"mu={mu} outside open interval (0, {n})")
        self.mu = float(mu)
        self.n = int(n)

    @property
    def form_matrix(self) -> np.ndarray:
        q = np.ones((self.n, self.n))
        np.fill_diagonal(q, 1.0 - self.mu)
        return q

    def __repr__(self):
        return f"SpectralCone(mu={self.mu}, n={self.n})"


def _quad_margins(t, tr2, magnitude, mu: float):
    """The quadratic-cone rule: the smaller of the normalized trace margin and
    quadratic margin (t^2 - mu tr2) / magnitude^2, ties going to the quadratic
    constraint."""
    t_margin = t / magnitude
    q_margin = (t * t - mu * tr2) / magnitude**2
    quad_binds = q_margin <= t_margin
    return np.where(quad_binds, q_margin, t_margin), np.where(quad_binds, _QUADRATIC_FORM, _TRACE_SIGN)


def cone_margins(spec: ConeSpec, sigmas, xs) -> tuple[np.ndarray, np.ndarray]:
    """Membership margins of a stack of tangents, each against the cone at
    its own base point.

    sigmas and xs are (k, n, n) stacks of SPD points and symmetric
    tangents that passed SpdMatrix's and SymTangent's guards.  Returns the
    k margins and the k binding constraints as integer codes into
    BINDINGS; row i is inside iff its margin is >= -tol.  Margins are
    invariant under rescaling of the tangent (and, for the affine
    families, under congruence), so one tolerance works across
    magnitudes; a row whose largest |entry| is >= 2^500 is brought into
    [0.5, 1) by an exact power of two before it is squared, and smaller
    rows are left untouched.  A tangent whose norm or invariant magnitude
    is zero (or underflows to zero) is inside every cone with margin +1,
    reported against the tie-breaking quadratic constraint.  An empty
    stack gives empty results.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 3 or sigmas.shape != xs.shape or xs.shape[1:] != (spec.n, spec.n):
        raise DimensionMismatch(f"cone n={spec.n}, points {sigmas.shape}, tangents {xs.shape}")
    abs_xs = np.abs(xs)
    if abs_xs.max(initial=0.0) >= 2.0**500:
        peak = abs_xs.max(axis=(1, 2))
        xs = np.ldexp(xs, -np.where(peak >= 2.0**500, np.frexp(peak)[1], 0)[:, None, None])
    affine = spec.kind not in TRANSLATION_KINDS
    xnorm = _row_norms(xs)
    zero = xnorm == 0.0
    if affine:
        w = np.linalg.solve(sigmas, xs)
        t = w.diagonal(0, 1, 2).sum(axis=1)
        tr2 = (w * w.swapaxes(1, 2)).sum(axis=(1, 2))
        # sqrt(tr(W^2)) for W = S^-1 X: this equals the Frobenius norm of
        # the symmetrized conjugate S^-1/2 X S^-1/2 and is congruence
        # invariant, which keeps margins stable under the group action.
        magnitude = np.sqrt(np.maximum(tr2, 0.0))
        zero |= magnitude == 0.0
    # zero rows get the +1 convention at the end; unit norms keep them
    # from dividing by zero meanwhile
    any_zero = zero.any()
    if any_zero:
        xnorm = np.where(zero, 1.0, xnorm)
        if affine:
            magnitude = np.where(zero, 1.0, magnitude)
    if spec.kind == LOEWNER:
        margin = np.linalg.eigvalsh(xs)[:, 0] / xnorm
        binding = np.full(len(xs), _EIGENVALUE_MIN)
    elif spec.kind == QUAD_TRANSLATE:
        margin, binding = _quad_margins(xs.diagonal(0, 1, 2).sum(axis=1), xnorm**2, xnorm, spec.mu)
    elif spec.kind == QUAD_AFFINE:
        margin, binding = _quad_margins(t, tr2, magnitude, spec.mu)
    elif spec.kind == HALF_SPACE:
        margin = t / magnitude
        binding = np.full(len(xs), _TRACE_SIGN)
    else:  # ray: X must be a nonnegative multiple of sigma
        deviation = _row_norms(xs - (t / spec.n)[:, None, None] * sigmas) / xnorm
        t_margin = t / magnitude
        ray_binds = -deviation <= t_margin
        margin = np.where(ray_binds, -deviation, t_margin)
        binding = np.where(ray_binds, _RAY_DEVIATION, _TRACE_SIGN)
    if any_zero:
        margin, binding = np.where(zero, 1.0, margin), np.where(zero, _QUADRATIC_FORM, binding)
    return margin, binding


def _row_report(margins: np.ndarray, binding: np.ndarray, tol: float) -> MembershipReport:
    margin = float(margins[0])
    return MembershipReport(inside=margin >= -tol, margin=margin, binding_constraint=BINDINGS[binding[0]])


def cone_membership(spec: ConeSpec, sigma: SpdMatrix, x, tol: float = DEFAULT_TOL) -> MembershipReport:
    """Pointwise membership of tangent x in the cone at sigma: the one-row
    view of cone_margins."""
    x = as_tangent(x)
    if x.n != sigma.n or spec.n != sigma.n:
        raise DimensionMismatch(f"cone n={spec.n}, point n={sigma.n}, tangent n={x.n}")
    return _row_report(*cone_margins(spec, sigma.entries[None], x.entries[None]), tol)


def spectral_membership(cone: SpectralCone, lam) -> MembershipReport:
    """Membership of an eigenvalue vector in the spectral cone: the
    quadratic translation cone tested on diag(lam).

    Permuting the entries of lam never changes the verdict.
    """
    v = np.asarray(lam, dtype=float)
    if v.shape != (cone.n,):
        raise DimensionMismatch(f"expected a vector of length {cone.n}, got shape {v.shape}")
    spec = ConeSpec(QUAD_TRANSLATE, cone.n, cone.mu)
    return _row_report(*cone_margins(spec, np.eye(cone.n)[None], np.diag(v)[None]), DEFAULT_TOL)


def dual_spectral_cone(cone: SpectralCone) -> SpectralCone:
    """Dual of the spectral cone under the standard inner product: mu -> n - mu."""
    return SpectralCone(cone.n - cone.mu, cone.n)


def classify_quadratic_form(alpha: float, beta: float, n: int) -> str:
    """Classify alpha*(tr X)^2/n + beta*||X - (tr X/n) I||^2 on symmetric matrices.

    Returns one of positive_definite, lorentzian, degenerate, other.
    """
    if n < 2:
        raise InvalidParameters("classification needs n >= 2")
    if alpha == 0.0 or beta == 0.0:
        return "degenerate"
    if alpha > 0.0 and beta > 0.0:
        return "positive_definite"
    if alpha > 0.0 and beta < 0.0:
        return "lorentzian"
    return "other"


def traceless_projection(x) -> SymTangent:
    """Orthogonal projection onto trace-zero symmetric matrices: X - (tr X / n) I."""
    x = as_tangent(x)
    out = x.entries - (np.trace(x.entries) / x.n) * np.eye(x.n)
    return SymTangent(out, base=x.base)


# ---------------------------------------------------------------------------
# Cone sampling.  Violation hunting concentrates on boundaries, so boundary
# rays are sampled by solving the scalar quadratic that mixes a Gaussian
# direction with the cone axis until the quadratic margin vanishes.
# ---------------------------------------------------------------------------


def _boundary_rays(mu: float, n: int, rngs, matrix: bool = True) -> np.ndarray:
    """Unit-norm points on the boundary of the quadratic cone, one per
    generator: symmetric matrices at the identity (a (k, n, n) stack), or
    with matrix=False spectral vectors (k, n).

    Each row mixes a Gaussian draw with the cone axis by the root of the
    scalar quadratic that zeroes the quadratic margin.  Every row draws
    its first attempt from its own generator, the algebra runs once over
    the stack, and only the rows with a degenerate draw draw again, so
    each row's stream is read as a one-row loop would read it.  Needs
    n >= 2 and 0 < mu < n, or no draw is ever accepted.
    """
    shape = (n, n) if matrix else (n,)
    g = (_random_syms(n, rngs) if matrix else _standard_normals(rngs, shape)).reshape(len(rngs), math.prod(shape))
    tau = g[:, ::n + 1 if matrix else 1].sum(axis=1)  # the trace: the diagonal's sum
    s = (g * g).sum(axis=1)
    disc = mu * (n - mu) * (n * s - tau * tau)
    c = (-tau * (n - mu) + np.sqrt(np.maximum(disc, 0.0))) / (n * (n - mu))
    y = g + c[:, None] * (_identity(n).ravel() if matrix else np.ones(n))
    norm = _row_norms(y)
    ok = (disc > 0) & (norm > 1e-8)
    np.divide(y, norm[:, None], out=y, where=ok[:, None])
    y = y.reshape(len(y), *shape)
    if not ok.all():
        redo = np.flatnonzero(~ok)
        y[redo] = _boundary_rays(mu, n, [rngs[i] for i in redo], matrix)
    return y


def sample_spectral_boundary(mu: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm vector on the boundary of the spectral cone (quadratic
    margin zero): the one-row view of the boundary-ray solver.

    Needs n >= 2 and 0 < mu < n: otherwise the discriminant of the ray
    quadratic is never positive (at n = 1 the cone is the ray [0, inf),
    with no unit vector on its boundary), so no draw would be accepted.
    """
    if n < 2 or not 0.0 < mu < n:
        raise InvalidParameters(f"no spectral cone boundary to sample at n={n}, mu={mu}")
    _check_dimension(n)
    return _boundary_rays(mu, n, [rng], matrix=False)[0]


def _tangent_stack(spec: ConeSpec, points: SpdStack, rngs, boundary) -> tuple[np.ndarray, SpdError | None]:
    """sample_cone_tangents over a stack of base points, each owning an
    equal run of consecutive rows: the tangents of the rows before the
    first row that fails a guard (its point's spectrum, or SymTangent's
    guards on the tangent), and that row's error, or None.

    Every row draws its Gaussian matrix (the ray: its scale), then every
    interior row its shift, so rows need distinct generators; the algebra
    runs once over the stack.  A degenerate draw falls back to the axis of
    its own point.
    """
    n = spec.n
    if spec.n != points.n:
        raise DimensionMismatch(f"cone n={spec.n}, point n={points.n}")
    rows = list(zip(rngs, boundary, strict=True))
    rngs = [rng for rng, _ in rows]
    width = len(rows) // max(len(points), 1)
    if n == 1:  # every 1x1 cone here degenerates to the nonnegative ray
        ys = np.ones((len(rows), 1, 1))
    elif spec.kind == RAY:  # the cone is the single ray spanned by sigma
        scale = np.array([rng.uniform(0.2, 2.0) for rng in rngs]).reshape(len(points), width, 1, 1)
        ys = (scale * points.entries[:, None]).reshape(-1, n, n)
    else:
        quadratic = spec.kind in (QUAD_AFFINE, QUAD_TRANSLATE)
        ys = _boundary_rays(spec.mu, n, rngs) if quadratic else _random_syms(n, rngs)
        low = 0.1 if spec.kind == LOEWNER else 0.2
        shift = np.array([0.0 if on_boundary else rng.uniform(low, 1.0) for rng, on_boundary in rows])
        del rows, rngs  # every draw is made: the generators go before the algebra allocates
        if spec.kind == HALF_SPACE:  # the traceless part, shifted by its norm
            trace = ys.reshape(len(ys), n * n)[:, ::n + 1].sum(axis=1)
            ys = ys - (trace / n)[:, None, None] * _identity(n)
            shift = shift * _row_norms(ys)
        if spec.kind == LOEWNER:
            w, v = np.linalg.eigh(ys)
            w = w - w[:, :1]
            # boundary rows add an exact +0.0 to their nonnegative w
            w = w + (shift * (1.0 + w[:, -1]))[:, None]
            ys = _spectral_apply(w, v, lambda x: x)
        else:
            ys = ys + shift[:, None, None] * _identity(n)
    err = None
    if n > 1 and spec.kind in (QUAD_AFFINE, HALF_SPACE):
        root, err = points.root(0.5)
        ys = (root[:, None] @ ys[:len(root) * width].reshape(len(root), width, n, n) @ root[:, None]).reshape(-1, n, n)

    ys = 0.5 * (ys + ys.swapaxes(1, 2))
    norms = _row_norms(ys)
    degenerate = norms < 1e-12
    if degenerate.any():  # degenerate draw (e.g. constant spectrum); fall back to the axis
        axis = points.entries[np.flatnonzero(degenerate) // width]
        ys[degenerate] = axis
        norms[degenerate] = _row_norms(axis)
    sym, later = _validate_sym_stack(ys / norms[:, None, None])
    return sym, later or err


def sample_cone_tangents(spec: ConeSpec, sigma: SpdMatrix, rngs, boundary) -> np.ndarray:
    """Random unit-Frobenius tangents inside K(sigma), one row per generator:
    a boundary ray where boundary[i] is set, else a strictly interior ray.
    The view of _tangent_stack with sigma owning every row; returns a
    read-only (k, n, n) stack that passed SymTangent's guards."""
    ys, err = _tangent_stack(spec, SpdStack.of(sigma), rngs, boundary)
    if err is not None:
        raise err
    return ys


def sample_cone_tangent(spec: ConeSpec, sigma: SpdMatrix, rng: np.random.Generator,
                        boundary: bool = True) -> SymTangent:
    """Random unit-Frobenius tangent inside K(sigma): the one-row view of
    sample_cone_tangents."""
    return SymTangent(sample_cone_tangents(spec, sigma, [rng], [boundary])[0], base=sigma, checked=True)
