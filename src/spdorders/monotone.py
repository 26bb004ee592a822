"""Differential-positivity engine: analytic differentials of the basic
maps on the SPD manifold, the sampled positivity check, and
counterexample search.  The trace identity and inequality validators and
the cone-contraction witness live in traces.

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

from .cones import DEFAULT_TOL, ConeSpec, _tangent_stack, cone_margins
from .core import (
    MAX_SAMPLES,
    SpdMatrix,
    SpdStack,
    SymTangent,
    _as_finite_square,
    _as_square,
    _block_rows,
    _blocks,
    _check_symmetry,
    _checked,
    _congruence_stack,
    _matrix_function_stack,
    _random_spd_stack,
    _validate_spd_stack,
    _validate_sym_stack,
    as_tangent,
    eigvalsh,
    matrix_function,
    solve,
)
from .errors import DimensionMismatch, InvalidParameters, SpdError
from .orders import EQUAL, LESS_EQUAL, _conal_steps, order_compare
from .seeds import derive_seed_words, seeded_streams

POWER = "power"
INVERSION = "inversion"
CONGRUENCE = "congruence"
SCALING = "scaling"
TRANSLATION = "translation"

WITNESSES = 5  # the violations a PositivityReport keeps: the first, in sample order


@dataclass(frozen=True)
class SmoothMap:
    """A self-map of the SPD manifold with an analytic differential rule."""

    kind: str
    exponent: float | None = None
    factor: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _RULES:
            raise InvalidParameters(f"unknown map kind {self.kind!r}")
        for name in ("exponent", "factor", "matrix"):  # the kind's own parameter, and no other
            value, own = getattr(self, name), name == _RULES[self.kind][0]
            if (value is None) == own:
                raise InvalidParameters(f"{self.kind} map {'needs' if own else 'takes no'} {name}")
            if own and name != "matrix" and not math.isfinite(value):
                raise InvalidParameters(f"map {name} must be finite, got {value}")
        if self.factor is not None and self.factor <= 0:
            raise InvalidParameters("scaling factor must be positive")

    @property
    def label(self) -> str:
        return _RULES[self.kind][1].format(self)

    def _check_size(self, n: int) -> None:
        if self.matrix is not None and self.matrix.shape[0] != n:
            raise DimensionMismatch(f"map matrix is {self.matrix.shape[0]}x{self.matrix.shape[0]}, point is {n}x{n}")

    def _apply_stack(self, points: SpdStack) -> tuple[SpdStack, SpdError | None]:
        """The map on a stack of points: the images of the rows before the
        first row whose image fails SpdMatrix's guards, and that row's
        error, or None."""
        self._check_size(points.n)
        return _RULES[self.kind][2](self, points)

    def apply(self, sigma: SpdMatrix) -> SpdMatrix:
        """Evaluate the map; the result is SPD for every kind except
        translation with a non-psd shift on near-singular inputs.  The
        one-row view of _apply_stack."""
        return _checked(*self._apply_stack(SpdStack.of(sigma))).point(0)


def power_map(r: float) -> SmoothMap:
    return SmoothMap(POWER, exponent=float(r))


def inversion_map() -> SmoothMap:
    return SmoothMap(INVERSION)


def congruence_map(a) -> SmoothMap:
    mat = np.array(_as_finite_square(a))
    mat.flags.writeable = False
    return SmoothMap(CONGRUENCE, matrix=mat)


def scaling_map(factor: float) -> SmoothMap:
    return SmoothMap(SCALING, factor=float(factor))


def translation_map(c) -> SmoothMap:
    """X -> X + C, for a shift C that passes core._validate_sym_stack as every symmetric input does."""
    mat = _check_symmetry(_as_square(c))
    if eigvalsh(mat)[0] < 0:
        warnings.warn("translation shift is not positive semidefinite; "
                      "images of near-singular points may leave the SPD cone")
    return SmoothMap(TRANSLATION, matrix=mat)


def _power_divided_differences(w: np.ndarray, r: float) -> np.ndarray:
    """First divided differences of x -> x**r on the eigenvalue grid (of
    one point, or of each row of a stack), with the analytic limit
    r*x**(r-1) on (numerically) equal pairs."""
    fw = w**r
    wi, wj = w[..., :, None], w[..., None, :]
    diff = wi - wj
    close = np.abs(diff) <= 1e-7 * np.maximum(wi, wj)
    safe = np.where(close, 1.0, diff)
    quotient = (fw[..., :, None] - fw[..., None, :]) / safe
    mid = 0.5 * (wi + wj)
    return np.where(close, r * mid ** (r - 1.0), quotient)


def _power_differentials(m: SmoothMap, points: SpdStack, xs: np.ndarray):
    """power(r) in the eigenbasis of each point, through first divided differences."""
    n, width = points.n, len(xs) // len(points)
    w, v = points.spectrum()
    v, vt = v[:, None], np.ascontiguousarray(v.swapaxes(1, 2))[:, None]
    xprime = vt @ xs.reshape(len(w), width, n, n) @ v
    out = (v @ (_power_divided_differences(w, m.exponent)[:, None] * xprime) @ vt).reshape(-1, n, n)
    return 0.5 * (out + out.swapaxes(1, 2))


def _inversion_differentials(m: SmoothMap, points: SpdStack, xs: np.ndarray):
    """-S^-1 X S^-1 for each point S."""
    a = points.entries[:, None]
    y = solve(a, xs.reshape(len(points), -1, points.n, points.n))
    out = -solve(a, y.swapaxes(-1, -2)).swapaxes(-1, -2).reshape(xs.shape)
    return 0.5 * (out + out.swapaxes(1, 2))


# Per map kind: its one parameter, its label, the map on a stack of points
# (as _apply_stack), and its differential on a tangent stack before
# SymTangent's guards (as _differential_stack)
_RULES = {
    POWER: ("exponent", "power:{0.exponent:g}", lambda m, p: _matrix_function_stack(p, "power", m.exponent),
            _power_differentials),
    INVERSION: (None, "inv", lambda m, p: _matrix_function_stack(p, "inv"), _inversion_differentials),
    CONGRUENCE: ("matrix", CONGRUENCE, lambda m, p: _congruence_stack(m.matrix, p),
                 lambda m, p, xs: m.matrix @ xs @ m.matrix.T),
    SCALING: ("factor", "scale:{0.factor:g}", lambda m, p: _validate_spd_stack(m.factor * p.entries),
              lambda m, p, xs: m.factor * xs),
    TRANSLATION: ("matrix", TRANSLATION, lambda m, p: _validate_spd_stack(p.entries + m.matrix), lambda m, p, xs: xs),
}


def _differential_stack(m: SmoothMap, points: SpdStack, xs: np.ndarray) -> tuple[np.ndarray, SpdError | None]:
    """map_differentials over a stack of base points, each owning an equal
    run of consecutive rows of the (k, n, n) tangent stack: the
    differentials of the rows before the first row whose differential
    fails SymTangent's guards, and that row's error, or None."""
    m._check_size(points.n)
    return _validate_sym_stack(_RULES[m.kind][3](m, points, xs))


def map_differentials(m: SmoothMap, sigma: SpdMatrix, xs) -> np.ndarray:
    """Analytic differential of the map at sigma on a (k, n, n) stack of
    tangents that passed SymTangent's guards; returns a read-only stack
    that passed them too.

    power(r) is computed in the eigenbasis of sigma through first divided
    differences; inversion is -S^-1 X S^-1; congruence, scaling and
    translation are linear.  The view of _differential_stack with sigma
    owning every row."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 3 or xs.shape[1:] != (sigma.n, sigma.n):
        raise DimensionMismatch("tangent dimension differs from base point")
    return _checked(*_differential_stack(m, SpdStack.of(sigma), xs))


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
    acc = sum(powers[p - 1 - j] @ y @ powers[j] for j in range(p))
    return float(np.linalg.norm(acc - x.entries) / np.linalg.norm(x.entries))


@dataclass
class PositivityReport:
    """Outcome of sampling the differential against a cone field; violation_count is exact."""

    map_label: str
    cone: ConeSpec
    samples_tested: int
    violations: list = field(default_factory=list)  # the first WITNESSES (SpdMatrix, SymTangent, margin)
    min_output_margin: float = math.inf
    violation_count: int = 0

    @property
    def is_positive(self) -> bool:
        return not self.violation_count

    def to_dict(self) -> dict:
        """JSON-ready summary of the count and the kept witnesses."""
        return {
            "map": self.map_label,
            "cone": self.cone.to_dict(),
            "samples_tested": self.samples_tested,
            "violation_count": self.violation_count,
            "min_output_margin": self.min_output_margin,
            "witnesses": [
                {
                    "sigma": sig.entries.tolist(),
                    "direction": tan.entries.tolist(),
                    "output_margin": margin,
                }
                for sig, tan, margin in self.violations
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
    differential, and count every landing outside the cone at the image.

    Directions alternate between boundary rays (where violations
    concentrate) and interior rays.  Point i draws from derive_rng(seed, i)
    and its direction j from derive_rng(seed, i, j + 1), so the aggregate
    is independent of execution order; all their seeds are hashed as one grid.

    A row is one (point, direction) sample, in point-major order.  The
    points are walked in spans of whole points, at most core._block_rows(n)
    rows each (a point with more directions is a span of its own, its
    directions taken that many at a time), so each stacked array of a chunk
    holds at most max(128 n^2, 8192) entries.  MAX_SAMPLES caps the total.
    A failing guard raises what testing one point after another would: the
    error of the earliest failing point, at its earliest stage.
    """
    if n_points < 1 or n_directions < 1:
        raise InvalidParameters("need at least one point and one direction")
    if n_points * n_directions > MAX_SAMPLES:
        raise InvalidParameters(f"{n_points} x {n_directions} samples above the cap of {MAX_SAMPLES}")
    report = PositivityReport(map_label=m.label, cone=spec, samples_tested=n_points * n_directions)
    # SeedSequence pads entropy to four 32-bit words with zeros, so (seed, i, 0) hashes as (seed, i)
    # while a row has at most four words: the seed takes at most two, i and j stay below MAX_SAMPLES < 2^32
    grid = np.stack(np.meshgrid(np.arange(n_points), np.arange(n_directions + 1), indexing="ij"), axis=2)
    words = derive_seed_words(seed, grid.reshape(-1, 2)).reshape(n_points, n_directions + 1, 4)
    per_block = max(1, _block_rows(spec.n) // n_directions)
    spans = ((lo, words[lo:lo + per_block]) for lo in range(0, n_points, per_block))
    bases = {}  # one SpdMatrix per point that has a witness, by its index
    for start, span, sigmas, _, xs, margins in _positivity_chunks(m, spec, spans):
        # fold the chunk in as a row-by-row pass would: the running minimum
        # moves on a strictly smaller margin (never on NaN), every violation
        # is counted, and the first WITNESSES keep a copy of their tangent
        below = np.flatnonzero(margins < report.min_output_margin)
        if below.size:
            report.min_output_margin = float(margins[below[np.argmin(margins[below])]])
        rows = np.flatnonzero(margins < -tol)
        report.violation_count += rows.size
        kept = xs[rows[:WITNESSES - len(report.violations)]]
        kept.flags.writeable = False
        for row, x in zip(rows[:len(kept)].tolist(), kept):
            sigma = bases.setdefault(start + row // span, sigmas.point(row // span))
            report.violations.append((sigma, SymTangent(x, base=sigma, checked=True), float(margins[row])))
        del xs  # witnesses hold copies: the chunk's rows go before the next chunk is drawn
    return report


def _positivity_chunks(m: SmoothMap, spec: ConeSpec, spans):
    """check_differential_positivity's stages over spans (first point, seed
    words (points, 1 + directions, 4)): column 0 seeds the points, the rest
    their tangents; with no more columns each point's one boundary ray is
    drawn after it from its stream.  Yields (span's first point, directions
    per point, points, images, tangents, margins) per chunk up to the
    earliest failing row, then raises its error."""
    for start, words in spans:
        n_directions = max(1, words.shape[1] - 1)
        boundary = np.arange(n_directions) % 2 == 0
        width = min(n_directions, _block_rows(spec.n))
        # Each stage runs only on the points before the earliest failure so
        # far, so any error it finds belongs to an earlier point and wins.
        rngs = seeded_streams(words[:, 0], spec.n)
        sigmas, err = _random_spd_stack(spec.n, rngs, 0.7)
        images, later = m._apply_stack(sigmas) if len(sigmas) else (sigmas, None)
        err = later or err
        # points that reach the tangent stage, and the later stages; they
        # part only when a point's differential fails and its later chunks
        # still draw tangents, whose errors come first
        drawn = tested = len(images)
        for first in range(0, n_directions, width):
            if not drawn:
                break
            span = min(width, n_directions - first)
            if words.shape[1] > 1:
                rngs = seeded_streams(words[:drawn, 1 + first:1 + first + span].reshape(-1, 4), spec.n)
            on_boundary = np.tile(boundary[first:first + span], drawn)
            xs, later = _tangent_stack(spec, sigmas[:drawn], rngs[:len(on_boundary)], on_boundary)
            del rngs  # the streams and their fallback rows' generators, kept only while tangents are drawn
            if later is not None:
                err, drawn = later, len(xs) // span
                tested = min(tested, drawn)
            if not tested:
                continue
            outs, later = _differential_stack(m, sigmas[:tested], xs[:tested * span])
            if later is not None:
                err, tested = later, len(outs) // span
            margins, _ = cone_margins(spec, np.repeat(images.entries[:tested], span, axis=0), outs[:tested * span])
            yield start, span, sigmas, images, xs[:tested * span], margins
            del xs, outs  # a chunk's rows go before the next chunk draws its generators
        _checked(None, err)


def find_order_counterexample(m: SmoothMap, spec: ConeSpec, seed: int, budget: int):
    """Search for an ordered pair broken by the map.

    Random restarts sample boundary rays; when the differential pushes a
    ray out of the cone, the violating direction is integrated into an
    ordered pair and the images re-compared.  Returns (sigma1, sigma2,
    samples_used) on success, None when the budget is exhausted.

    Restart i draws its point, then its ray, from derive_rng(seed, i); spans of
    restarts (0 alone, then core._block_rows(n) at a time) are hashed as the walk
    reaches them.  Violating restarts walk the step sizes in order: the first hit
    wins, and the earliest failing restart's error is raised.
    """
    spans = ((lo, derive_seed_words(seed, np.arange(lo, hi)[:, None])[:, None]) for lo, hi in _blocks(budget, spec.n))
    for start, _, sigmas, images, xs, margins in _positivity_chunks(m, spec, spans):
        for row in np.flatnonzero(~(margins >= -10.0 * DEFAULT_TOL)).tolist():
            sigma = sigmas.point(row)
            for size in (1.0, 0.5, 0.2, 0.05):  # a step that fails a guard is rejected
                steps, err = _conal_steps(spec, SpdStack.of(sigma), xs[row:row + 1], np.array([size]))
                sigma2 = steps.point(0) if err is None else None
                if sigma2 is None or order_compare(spec, sigma, sigma2).relation not in (LESS_EQUAL, EQUAL):
                    continue
                verdict = order_compare(spec, images.point(row), m.apply(sigma2))
                if verdict.relation not in (LESS_EQUAL, EQUAL) and verdict.forward_margin < -10.0 * DEFAULT_TOL:
                    return sigma, sigma2, start + row + 1
    return None
