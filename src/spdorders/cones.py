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
cone with margin +1 by convention.  Margins read W = S^-1 X (X for the
translation kinds); the ray's is -sqrt(tr((W - (t/n) I)^2) / tr(W^2)),
t = tr W, so every affine kind's margin is invariant under congruence;
with rows first brought into core.WINDOW, margins have degree 0 in S and X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    WINDOW,
    SpdMatrix,
    SpdStack,
    SymTangent,
    _check_dimension,
    _checked,
    _identity,
    _is_json_number,
    _row_norms,
    _spectral_apply,
    _validate_sym_stack,
    _windowed,
    as_tangent,
    eigh,
    eigvalsh,
    solve,
)
from .errors import DimensionMismatch, InvalidParameters, SpdError
from .seeds import _random_syms, _standard_normals, _uniforms

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
        ConeSpec(QUAD_TRANSLATE, n, mu)  # the checks of n and 0 < mu < n
        self.mu = float(mu)
        self.n = int(n)

    @property
    def form_matrix(self) -> np.ndarray:
        q = np.ones((self.n, self.n))
        np.fill_diagonal(q, 1.0 - self.mu)
        return q

    def __repr__(self):
        return f"SpectralCone(mu={self.mu}, n={self.n})"


def _kind_margin(spec: ConeSpec, m, t, tr2, dev, low):
    """Each kind's margin rule over the moments of a tangent X: its norm m, trace t, squared norm tr2,
    axis distance dev and smallest eigenvalue low, of which a kind reads only its own (loewner low,
    half-space t, ray t and dev, the quadratic kinds t and tr2; the others may be None).  Returns
    (own margin, trace margin or inf, own code); the margin is the smaller, ties to the own.  The rule
    of -X reads -t and minus the largest eigenvalue, the same bits as negating X's margins.  Arrays
    come from cone_margins, Python floats from orders."""
    if spec.kind == LOEWNER:
        return low / m, math.inf, _EIGENVALUE_MIN
    margin = t / m
    if spec.kind == HALF_SPACE:
        return margin, math.inf, _TRACE_SIGN
    if spec.kind == RAY:
        return -dev / m, margin, _RAY_DEVIATION
    return (t * t - spec.mu * tr2) / (m * m), margin, _QUADRATIC_FORM


def cone_margins(spec: ConeSpec, sigmas, xs) -> tuple[np.ndarray, np.ndarray]:
    """Membership margins of a stack of tangents, each against the cone at
    its own base point.

    sigmas and xs are (k, n, n) stacks of SPD points and symmetric
    tangents that passed SpdMatrix's and SymTangent's guards.  Returns the
    k margins and the k binding constraints as integer codes into
    BINDINGS; row i is inside iff its margin is >= -tol.  The rule reads
    the moments of W = S^-1 X (X for the translation kinds; the ray's
    deviation is sqrt(tr((W - (t/n) I)^2))), so margins are invariant
    under rescaling of the tangent and, for the affine families, under
    congruence, and one tolerance works across magnitudes.  Tangent rows,
    and for the affine kinds point rows, outside core.WINDOW are brought
    into it by an exact power of two before W is solved, so W and tr(W^2)
    stay finite and normal; the other rows keep every bit.  The zero
    tangent (or, for the affine kinds, one whose invariant magnitude
    rounds to zero) is inside every cone with margin +1, reported against
    the tie-breaking quadratic constraint.  An empty stack gives empty results.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 3 or sigmas.shape != xs.shape or xs.shape[1:] != (spec.n, spec.n):
        raise DimensionMismatch(f"cone n={spec.n}, points {sigmas.shape}, tangents {xs.shape}")
    xs, _, m = _windowed(xs)
    zero = m == 0.0
    if spec.kind in TRANSLATION_KINDS:
        w, tr2 = xs, m**2
    else:  # the margins have degree 0 in S, and S and X in the window keep W and tr(W^2) finite and normal
        diagonal = sigmas.diagonal(0, 1, 2)  # an SPD row's largest |entry| lies on its diagonal
        low, high = np.minimum.reduce(diagonal, None, initial=1.0), np.maximum.reduce(diagonal, None, initial=0.0)
        if not (1.0 / WINDOW <= low and high <= WINDOW):
            sigmas = _windowed(sigmas)[0]
        w = solve(sigmas, xs)
        tr2 = (w * w.swapaxes(1, 2)).sum(axis=(1, 2))
        # sqrt(tr(W^2)) equals the Frobenius norm of the symmetrized
        # conjugate S^-1/2 X S^-1/2, which is congruence invariant
        m = np.sqrt(np.maximum(tr2, 0.0))
        zero |= m == 0.0
    # zero rows get the +1 convention at the end; a unit magnitude keeps
    # them from dividing by zero meanwhile
    any_zero = zero.any()
    if any_zero:
        m = np.where(zero, 1.0, m)

    t, dev, low = w.diagonal(0, 1, 2).sum(axis=1), None, None
    if spec.kind == RAY:  # sqrt(tr((W - (t/n) I)^2)), not tr2 - t^2/n, which cancels
        gap = w - (t / spec.n)[:, None, None] * _identity(spec.n)
        dev = np.sqrt(np.maximum((gap * gap.swapaxes(1, 2)).sum(axis=(1, 2)), 0.0))
    if spec.kind == LOEWNER:  # the Loewner cone, a translation kind, reads the eigenvalues of X itself
        low = eigvalsh(xs)[:, 0]
    own, trace, code = _kind_margin(spec, m, t, tr2, dev, low)
    binds = own <= trace
    margin, binding = np.where(binds, own, trace), np.where(binds, code, _TRACE_SIGN)
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
    first row that fails SymTangent's guards, and that row's error, or None.

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
    degenerate = ()
    if n == 1:  # every 1x1 cone here degenerates to the nonnegative ray
        ys = np.ones((len(rows), 1, 1))
    elif spec.kind == RAY:  # the cone is the single ray spanned by sigma
        scale = _uniforms(rngs, 0.2, 2.0).reshape(len(points), width, 1, 1)
        ys = (scale * points.entries[:, None]).reshape(-1, n, n)
    else:
        quadratic = spec.kind in (QUAD_AFFINE, QUAD_TRANSLATE)
        ys = _boundary_rays(spec.mu, n, rngs) if quadratic else _random_syms(n, rngs)
        low = 0.1 if spec.kind == LOEWNER else 0.2
        interior = [row for row, (_, on_boundary) in enumerate(rows) if not on_boundary]
        shift = np.zeros(len(rows))
        shift[interior] = _uniforms([rngs[row] for row in interior], low, 1.0)
        del rows, rngs  # every draw is made: the generators go before the algebra allocates
        if spec.kind == HALF_SPACE:  # the traceless part, shifted by its norm
            trace = ys.reshape(len(ys), n * n)[:, ::n + 1].sum(axis=1)
            ys = ys - (trace / n)[:, None, None] * _identity(n)
            shift = shift * _row_norms(ys)
        if spec.kind == LOEWNER:
            w, v = eigh(ys)
            w = w - w[:, :1]
            # boundary rows add an exact +0.0 to their nonnegative w
            w = w + (shift * (1.0 + w[:, -1]))[:, None]
            ys = _spectral_apply(w, v, lambda x: x)
        else:
            ys = ys + shift[:, None, None] * _identity(n)
        degenerate = np.flatnonzero(_row_norms(ys) < 1e-12)  # told on the draw, before the congruence scales it
    if n > 1 and spec.kind in (QUAD_AFFINE, HALF_SPACE):
        root = points.root(0.5)
        ys = (root[:, None] @ ys.reshape(len(root), width, n, n) @ root[:, None]).reshape(-1, n, n)

    ys = 0.5 * (ys + ys.swapaxes(1, 2))
    for i in degenerate:  # a degenerate draw (e.g. constant spectrum) falls back to its point's axis
        ys[i] = points.entries[i // width]
    ys, _, norms = _windowed(ys)  # norms that neither overflow nor underflow: the same tangent at every scale of sigma
    return _validate_sym_stack(ys / norms[:, None, None])


def sample_cone_tangents(spec: ConeSpec, sigma: SpdMatrix, rngs, boundary) -> np.ndarray:
    """Random unit-Frobenius tangents inside K(sigma), one row per generator:
    a boundary ray where boundary[i] is set, else a strictly interior ray.
    The view of _tangent_stack with sigma owning every row; returns a
    read-only (k, n, n) stack that passed SymTangent's guards."""
    return _checked(*_tangent_stack(spec, SpdStack.of(sigma), rngs, boundary))


def sample_cone_tangent(spec: ConeSpec, sigma: SpdMatrix, rng: np.random.Generator,
                        boundary: bool = True) -> SymTangent:
    """Random unit-Frobenius tangent inside K(sigma): the one-row view of
    sample_cone_tangents."""
    return SymTangent(sample_cone_tangents(spec, sigma, [rng], [boundary])[0], base=sigma, checked=True)
