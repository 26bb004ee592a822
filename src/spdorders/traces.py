"""Trace identity and inequality validators behind the extended
Loewner-Heinz theorem, and the boundary witness of strict cone
contraction by the root maps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SpdMatrix, SymTangent, _check_dimension, as_tangent, random_spd, random_sym
from .errors import InvalidParameters
from .monotone import POWER, SmoothMap, map_differential
from .seeds import derive_rng


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
    """Fuzz one of the two trace inequalities low <= high and return the
    worst relative slack (high - low, so that >= 0 means the inequality held).

    power_trace_lemma(m): tr[(AB)^{2m}] <= tr[A^{2m} B^{2m}] for symmetric A, B.
    shift_inequality(k):  tr(S^{-2-k} X S^k X) >= tr(S^{-1-k} X S^{-1+k} X).

    A sample with a side that is not finite raises InvalidParameters, so
    that an overflow never reads as an inequality that held.
    """
    if count < 1:
        raise InvalidParameters("count must be >= 1")
    if kind == POWER_TRACE_LEMMA and param < 1:
        raise InvalidParameters("m must be >= 1")
    if kind == SHIFT_INEQUALITY and param < 0:
        raise InvalidParameters("k must be >= 0")
    if kind not in (POWER_TRACE_LEMMA, SHIFT_INEQUALITY):
        raise InvalidParameters(f"unknown inequality kind {kind!r}")
    worst = math.inf
    # an overflowing sample is decided by the finiteness check, not by a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(count):
            rng = derive_rng(seed, i)
            n = int(rng.integers(2, 7))
            if kind == POWER_TRACE_LEMMA:
                a, b = random_sym(n, rng), random_sym(n, rng)
                low = float(np.trace(np.linalg.matrix_power(a @ b, 2 * param)))
                high = float(np.trace(np.linalg.matrix_power(a, 2 * param) @ np.linalg.matrix_power(b, 2 * param)))
            else:
                sigma = random_spd(n, rng, scale=0.8)
                x = random_sym(n, rng)
                spec = sigma.spectrum

                def spower(e):
                    return spec.apply(lambda w: w**e)

                high = float(np.trace(spower(-2 - param) @ x @ spower(param) @ x))
                low = float(np.trace(spower(-1 - param) @ x @ spower(-1 + param) @ x))
            if not (math.isfinite(low) and math.isfinite(high)):
                raise InvalidParameters(f"{kind} sample {i} is not finite: cannot decide {low!r} <= {high!r}")
            worst = min(worst, (high - low) / max(1.0, abs(low), abs(high)))
    return worst


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
    _check_dimension(n)
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
