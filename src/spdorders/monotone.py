"""Differential-positivity engine: analytic differentials of the basic
maps on the SPD manifold, cone-contraction certificates, trace identity
and inequality validators, and counterexample search.

Real matrix powers are evaluated spectrally; the generalized Sylvester
equation is kept as a verification contract for the power differential,
not as the computation path, since first divided differences are cheaper
and cover irrational exponents.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cones import DEFAULT_TOL, ConeSpec, cone_margins, cone_membership, sample_cone_tangent, sample_cone_tangents
from .core import (
    SpdMatrix,
    SymTangent,
    _as_finite_square,
    _validate_sym_stack,
    as_tangent,
    congruence,
    derive_rng,
    derive_seed_words,
    matrix_function,
    random_spd,
    random_sym,
    seeded_rngs,
)
from .errors import DimensionMismatch, InvalidParameters, SpdError
from .orders import EQUAL, LESS_EQUAL, _conal_step, order_compare

POWER = "power"
INVERSION = "inversion"
CONGRUENCE = "congruence"
SCALING = "scaling"
TRANSLATION = "translation"

MAX_SAMPLES = 10**5  # points x directions per check_differential_positivity call


@dataclass(frozen=True)
class SmoothMap:
    """A self-map of the SPD manifold with an analytic differential rule."""

    kind: str
    exponent: float | None = None
    factor: float | None = None
    matrix: np.ndarray | None = None

    @property
    def label(self) -> str:
        if self.kind == POWER:
            return f"power:{self.exponent:g}"
        if self.kind == SCALING:
            return f"scale:{self.factor:g}"
        if self.kind == INVERSION:
            return "inv"
        return self.kind

    def _check_size(self, n: int) -> None:
        if self.matrix is not None and self.matrix.shape[0] != n:
            raise DimensionMismatch(f"map matrix is {self.matrix.shape[0]}x{self.matrix.shape[0]}, point is {n}x{n}")

    def apply(self, sigma: SpdMatrix) -> SpdMatrix:
        """Evaluate the map; the result is SPD for every kind except
        translation with a non-psd shift on near-singular inputs."""
        self._check_size(sigma.n)
        if self.kind == POWER:
            return matrix_function(sigma, "power", self.exponent)
        if self.kind == INVERSION:
            return matrix_function(sigma, "inv")
        if self.kind == CONGRUENCE:
            return congruence(self.matrix, sigma)
        if self.kind == SCALING:
            return SpdMatrix(self.factor * sigma.entries)
        return SpdMatrix(sigma.entries + self.matrix)


def power_map(r: float) -> SmoothMap:
    return SmoothMap(POWER, exponent=float(r))


def inversion_map() -> SmoothMap:
    return SmoothMap(INVERSION)


def congruence_map(a) -> SmoothMap:
    mat = np.array(_as_finite_square(a))
    mat.flags.writeable = False
    return SmoothMap(CONGRUENCE, matrix=mat)


def scaling_map(factor: float) -> SmoothMap:
    if factor <= 0:
        raise InvalidParameters("scaling factor must be positive")
    return SmoothMap(SCALING, factor=float(factor))


def translation_map(c) -> SmoothMap:
    mat = _as_finite_square(c)
    mat = 0.5 * (mat + mat.T)
    if np.linalg.eigvalsh(mat)[0] < 0:
        warnings.warn("translation shift is not positive semidefinite; "
                      "images of near-singular points may leave the SPD cone")
    mat.flags.writeable = False
    return SmoothMap(TRANSLATION, matrix=mat)


def _power_divided_differences(w: np.ndarray, r: float) -> np.ndarray:
    """First divided differences of x -> x**r on the eigenvalue grid,
    with the analytic limit r*x**(r-1) on (numerically) equal pairs."""
    fw = w**r
    diff = w[:, None] - w[None, :]
    close = np.abs(diff) <= 1e-7 * np.maximum(w[:, None], w[None, :])
    safe = np.where(close, 1.0, diff)
    quotient = (fw[:, None] - fw[None, :]) / safe
    mid = 0.5 * (w[:, None] + w[None, :])
    return np.where(close, r * mid ** (r - 1.0), quotient)


def map_differentials(m: SmoothMap, sigma: SpdMatrix, xs) -> np.ndarray:
    """Analytic differential of the map at sigma on a (k, n, n) stack of
    tangents that passed SymTangent's guards; returns a read-only stack
    that passed them too.

    power(r) is computed in the eigenbasis of sigma through first divided
    differences, evaluated once per stack; inversion is -S^-1 X S^-1;
    congruence, scaling and translation are linear."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 3 or xs.shape[1:] != (sigma.n, sigma.n):
        raise DimensionMismatch("tangent dimension differs from base point")
    m._check_size(sigma.n)
    if m.kind == POWER:
        spec = sigma.spectrum
        v = spec.eigenvectors
        xprime = v.T @ xs @ v
        out = v @ (_power_divided_differences(spec.eigenvalues, m.exponent) * xprime) @ v.T
    elif m.kind == INVERSION:
        w = sigma.inv_apply(xs)
        out = -sigma.inv_apply(w.swapaxes(1, 2)).swapaxes(1, 2)
    elif m.kind == CONGRUENCE:
        out = m.matrix @ xs @ m.matrix.T
    elif m.kind == SCALING:
        out = m.factor * xs
    else:
        out = xs
    if m.kind in (POWER, INVERSION):
        out = 0.5 * (out + out.swapaxes(1, 2))
    sym, err = _validate_sym_stack(out)
    if err is not None:
        raise err
    return sym


def map_differential(m: SmoothMap, sigma: SpdMatrix, x) -> SymTangent:
    """Analytic differential of the map at sigma applied to tangent x: the
    one-row view of map_differentials."""
    return SymTangent(map_differentials(m, sigma, as_tangent(x).entries[None])[0], checked=True)


def sylvester_residual(p: int, sigma: SpdMatrix, x) -> float:
    """Relative residual of the generalized Sylvester equation
    sum_j (S^{1/p})^{p-1-j} Y (S^{1/p})^j = X for Y the analytic
    differential of the p-th root map."""
    if p < 1:
        raise InvalidParameters("p must be a positive integer")
    x = as_tangent(x)
    y = map_differential(power_map(1.0 / p), sigma, x).entries
    root = matrix_function(sigma, "power", 1.0 / p).entries
    powers = [np.eye(sigma.n)]
    for _ in range(p - 1):
        powers.append(powers[-1] @ root)
    acc = np.zeros_like(y)
    for j in range(p):
        acc += powers[p - 1 - j] @ y @ powers[j]
    return float(np.linalg.norm(acc - x.entries) / np.linalg.norm(x.entries))


@dataclass
class PositivityReport:
    """Outcome of sampling the differential against a cone field."""

    map_label: str
    cone: ConeSpec
    samples_tested: int
    violations: list = field(default_factory=list)  # (SpdMatrix, SymTangent, margin)
    min_output_margin: float = math.inf

    @property
    def is_positive(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        """JSON-ready summary; violation_count is exact, witnesses lists the first five."""
        return {
            "map": self.map_label,
            "cone": self.cone.to_dict(),
            "samples_tested": self.samples_tested,
            "violation_count": len(self.violations),
            "min_output_margin": self.min_output_margin,
            "witnesses": [
                {
                    "sigma": sig.entries.tolist(),
                    "direction": tan.entries.tolist(),
                    "output_margin": margin,
                }
                for sig, tan, margin in self.violations[:5]
            ],
        }


def check_differential_positivity(
    m: SmoothMap,
    spec: ConeSpec,
    seed: int,
    n_points: int,
    n_directions: int,
    tol: float = DEFAULT_TOL,
) -> PositivityReport:
    """Sample base points and cone rays, push the rays through the map
    differential, and record every landing outside the cone at the image.

    Directions alternate between boundary rays (where violations
    concentrate) and interior rays.  Each sample's random stream is
    derive_rng(seed, point index, direction index + 1), and each point's
    derive_rng(seed, point index), so the aggregate is independent of
    execution order; all their seeds are hashed in one pass.  Each base
    point samples, maps and tests its directions as one stack;
    MAX_SAMPLES caps the total.
    """
    if n_points < 1 or n_directions < 1:
        raise InvalidParameters("need at least one point and one direction")
    if n_points * n_directions > MAX_SAMPLES:
        raise InvalidParameters(f"{n_points} x {n_directions} samples above the cap of {MAX_SAMPLES}")
    report = PositivityReport(map_label=m.label, cone=spec, samples_tested=n_points * n_directions)
    boundary = [j % 2 == 0 for j in range(n_directions)]
    # every stream is hashed up front; generators exist one point at a time
    point_words = derive_seed_words(seed, np.arange(n_points)[:, None])
    grid = np.stack(np.meshgrid(np.arange(n_points), np.arange(1, n_directions + 1), indexing="ij"), axis=2)
    direction_words = derive_seed_words(seed, grid.reshape(-1, 2)).reshape(n_points, n_directions, 4)
    for i in range(n_points):
        sigma = random_spd(spec.n, seeded_rngs(point_words[i:i + 1])[0], scale=0.7)
        image = m.apply(sigma)
        xs = sample_cone_tangents(spec, sigma, seeded_rngs(direction_words[i]), boundary)
        outs = map_differentials(m, sigma, xs)
        margins, _ = cone_margins(spec, np.broadcast_to(image.entries, outs.shape), outs)
        for j, margin in enumerate(margins.tolist()):
            if margin < report.min_output_margin:
                report.min_output_margin = margin
            if margin < -tol:
                report.violations.append((sigma, SymTangent(xs[j], base=sigma, checked=True), margin))
    return report


def trace_identity_residual(m: SmoothMap, sigma: SpdMatrix, x) -> float:
    """Relative residual of tr(f_r(S)^-1 df_r X) = r tr(S^-1 X) for power maps."""
    if m.kind != POWER or m.exponent is None or m.exponent <= 0:
        raise InvalidParameters("identity holds for power maps with r > 0")
    x = as_tangent(x)
    image = m.apply(sigma)
    lhs = float(np.trace(image.inv_apply(map_differential(m, sigma, x).entries)))
    rhs = m.exponent * float(np.trace(sigma.inv_apply(x.entries)))
    return abs(lhs - rhs) / (1.0 + abs(rhs))


POWER_TRACE_LEMMA = "power_trace_lemma"
SHIFT_INEQUALITY = "shift_inequality"


def trace_inequality_fuzz(kind: str, param: int, seed: int, count: int) -> float:
    """Fuzz one of the two trace inequalities and return the worst
    relative slack (rhs - lhs signed so that >= 0 means the inequality held).

    power_trace_lemma(m): tr[(AB)^{2m}] <= tr[A^{2m} B^{2m}] for symmetric A, B.
    shift_inequality(k):  tr(S^{-2-k} X S^k X) >= tr(S^{-1-k} X S^{-1+k} X).
    """
    if count < 1:
        raise InvalidParameters("count must be >= 1")
    worst = math.inf
    if kind == POWER_TRACE_LEMMA:
        if param < 1:
            raise InvalidParameters("m must be >= 1")
        for i in range(count):
            rng = derive_rng(seed, i)
            n = int(rng.integers(2, 7))
            a = random_sym(n, rng)
            b = random_sym(n, rng)
            lhs = float(np.trace(np.linalg.matrix_power(a @ b, 2 * param)))
            rhs = float(np.trace(np.linalg.matrix_power(a, 2 * param) @ np.linalg.matrix_power(b, 2 * param)))
            slack = (rhs - lhs) / max(1.0, abs(lhs), abs(rhs))
            worst = min(worst, slack)
        return worst
    if kind == SHIFT_INEQUALITY:
        if param < 0:
            raise InvalidParameters("k must be >= 0")
        k = param
        for i in range(count):
            rng = derive_rng(seed, i)
            n = int(rng.integers(2, 7))
            sigma = random_spd(n, rng, scale=0.8)
            x = random_sym(n, rng)
            spec = sigma.spectrum

            def spower(e):
                return spec.apply(lambda w: w**e)

            lhs = float(np.trace(spower(-2 - k) @ x @ spower(k) @ x))
            rhs = float(np.trace(spower(-1 - k) @ x @ spower(-1 + k) @ x))
            slack = (lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
            worst = min(worst, slack)
        return worst
    raise InvalidParameters(f"unknown inequality kind {kind!r}")


@dataclass(frozen=True)
class ContractionWitness:
    """Boundary tangent at a diagonal point where the cone contraction by
    the root maps is strict (strict is False when sigma1 == sigma2 and
    the underlying trace inequality collapses to an equality)."""

    sigma: SpdMatrix
    tangent: SymTangent
    delta: float
    strict: bool
    trace_gap: float


def strict_contraction_witness(mu: float, n: int, sigma1: float, sigma2: float) -> ContractionWitness:
    """Boundary witness at diag(sigma1, sigma2, ..., sigma2): the tangent
    that copies the diagonal and carries the off-diagonal coupling
    delta = sqrt(n (n - mu) sigma1 sigma2 / (2 mu)), which lands the
    quadratic cone margin exactly at zero."""
    if not (0.0 < mu < n):
        raise InvalidParameters(f"mu={mu} outside open interval (0, {n})")
    if n < 2:
        raise InvalidParameters("need n >= 2")
    if not (sigma1 >= sigma2 > 0):
        raise InvalidParameters("need sigma1 >= sigma2 > 0")
    diag = np.full(n, float(sigma2))
    diag[0] = float(sigma1)
    sigma = SpdMatrix(np.diag(diag))
    delta = math.sqrt(n * (n - mu) * sigma1 * sigma2 / (2.0 * mu))
    xmat = np.diag(diag)
    xmat[0, 1] = xmat[1, 0] = delta
    tangent = SymTangent(xmat, base=sigma)
    inv = np.diag(1.0 / diag)
    w = inv @ xmat
    lhs = float(np.sum(w * w.T))            # tr(S^-1 X S^-1 X)
    rhs = float(np.trace(inv @ inv @ xmat @ xmat))  # tr(S^-2 X^2)
    return ContractionWitness(
        sigma=sigma,
        tangent=tangent,
        delta=delta,
        strict=sigma1 > sigma2,
        trace_gap=rhs - lhs,
    )


def find_order_counterexample(
    m: SmoothMap,
    spec: ConeSpec,
    seed: int,
    budget: int,
):
    """Search for an ordered pair broken by the map.

    Random restarts sample boundary rays; when the differential pushes a
    ray out of the cone, the violating direction is integrated into an
    ordered pair and the images re-compared.  Returns (sigma1, sigma2,
    samples_used) on success, None when the budget is exhausted.
    """
    used = 0
    i = 0
    while used < budget:
        rng = derive_rng(seed, i)
        i += 1
        used += 1
        sigma = random_spd(spec.n, rng, scale=0.7)
        x = sample_cone_tangent(spec, sigma, rng, boundary=True)
        out = map_differential(m, sigma, x)
        image = m.apply(sigma)
        if cone_membership(spec, image, out).margin >= -10.0 * DEFAULT_TOL:
            continue
        for size in (1.0, 0.5, 0.2, 0.05):
            try:
                sigma2 = _conal_step(spec, sigma, x, size)
            except SpdError:
                continue
            if order_compare(spec, sigma, sigma2).relation not in (LESS_EQUAL, EQUAL):
                continue
            verdict = order_compare(spec, m.apply(sigma), m.apply(sigma2))
            if verdict.relation not in (LESS_EQUAL, EQUAL) and verdict.forward_margin < -10.0 * DEFAULT_TOL:
                return sigma, sigma2, used
    return None
