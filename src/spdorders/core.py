"""Validated SPD and symmetric matrix types plus spectral matrix functions.

Everything here is eigendecomposition based: dimensions are desk scale
(n <= 64 by contract) and every cone test downstream wants the spectral
form anyway.  All values are immutable after construction and safe to
share between threads.
"""

from __future__ import annotations

import math
from functools import cache, cached_property

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    IllConditioned,
    InvalidParameters,
    NotPositiveDefinite,
    NotSymmetric,
    SingularTransform,
    SpdError,
)

SYM_RTOL = 1e-12          # symmetry acceptance, relative to 1 + max|entry|
PD_RTOL = 1e-12           # lambda_min > n * PD_RTOL * lambda_max
ORTHO_TOL = 1e-10         # ||V^T V - I||_F on eigenvector matrices
RECON_RTOL = 1e-10        # ||V L V^T - A||_F <= RECON_RTOL * ||A||_F
COND_CAP = 1e12           # condition numbers beyond this raise IllConditioned
MAX_DIM = 64


def _as_square(raw) -> np.ndarray:
    a = np.asarray(raw, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionMismatch("dimension must be >= 1")
    if a.shape[0] > MAX_DIM:
        raise InvalidParameters(f"dimension {a.shape[0]} above desk-scale cap {MAX_DIM}")
    return a


def _as_finite_square(raw) -> np.ndarray:
    a = _as_square(raw)
    if not np.all(np.isfinite(a)):
        raise InvalidParameters("matrix entries must be finite")
    return a


def _is_json_number(value, types=(int, float)) -> bool:
    """Whether a decoded JSON value is a number of the given types; JSON
    true and false decode to bool, which Python counts as an int."""
    return isinstance(value, types) and not isinstance(value, bool)


def _validate_sym_stack(a: np.ndarray) -> tuple[np.ndarray, SpdError | None]:
    """Finite-entry and symmetry guards over a (k, n, n) stack, row by row.

    A row is accepted when its asymmetry max|a - a^T| is within
    SYM_RTOL * (1 + max|a|).  Returns the exactly symmetrized (read-only)
    rows before the first failing row, and the error that row fails
    with, or None when every row passes.
    """
    err = None
    if len(a) == 1:  # one row: the same rule on Python floats, without per-row reductions
        amax = float(np.abs(a).max(initial=0.0))
        at = a.swapaxes(1, 2)
        if not math.isfinite(amax):
            err = InvalidParameters("matrix entries must be finite")
        else:
            tolerance = SYM_RTOL * (1.0 + amax)
            gap = float(np.abs(a - at).max(initial=0.0))
            if not gap <= tolerance:
                err = NotSymmetric(f"asymmetry {gap:.3e} exceeds tolerance {tolerance:.3e}")
        if err is not None:
            a, at = a[:0], at[:0]
    else:
        amax = np.abs(a).max(axis=(1, 2), initial=0.0)
        finite = np.isfinite(amax)
        if not finite.all():
            bad = int(finite.argmin())
            a, amax, err = a[:bad], amax[:bad], InvalidParameters("matrix entries must be finite")
        at = a.swapaxes(1, 2)
        tolerance = SYM_RTOL * (1.0 + amax)
        gap = np.abs(a - at).max(axis=(1, 2), initial=0.0)
        symmetric = gap <= tolerance
        if not symmetric.all():
            bad = int(symmetric.argmin())
            err = NotSymmetric(f"asymmetry {gap[bad]:.3e} exceeds tolerance {tolerance[bad]:.3e}")
            a, at = a[:bad], at[:bad]
    sym = 0.5 * (a + at)
    sym.flags.writeable = False
    return sym, err


def _validate_spd_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, SpdError | None]:
    """SpdMatrix's guards over a (k, n, n) stack, row by row: the guards of
    _validate_sym_stack, then lambda_min > n * PD_RTOL * lambda_max.

    Returns the symmetrized rows before the first failing row, their
    ascending eigenvalues and eigenvectors, and the error that row fails
    with, or None when every row passes.  An eigensolver failure, which
    numpy reports for the stack as a whole, raises ConvergenceFailure.
    """
    sym, err = _validate_sym_stack(a)
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    # w ascends, so a row with lambda_max <= 0 fails here as well
    positive = w[:, 0] > a.shape[-1] * PD_RTOL * w[:, -1]
    if not positive.all():
        bad = int(positive.argmin())
        err = NotPositiveDefinite(
            f"eigenvalue range [{w[bad, 0]:.6e}, {w[bad, -1]:.6e}] fails positivity test"
        )
        sym, w, v = sym[:bad], w[:bad], v[:bad]
    return sym, w, v, err


def _check_symmetry(a: np.ndarray) -> np.ndarray:
    sym, err = _validate_sym_stack(a[None])
    if err is not None:
        raise err
    return sym[0]


class Spectrum:
    """Eigendecomposition of a symmetric matrix: ascending eigenvalues and
    an orthogonal eigenvector matrix (columns)."""

    __slots__ = ("eigenvalues", "eigenvectors")

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray):
        w = np.asarray(eigenvalues, dtype=float)
        v = np.asarray(eigenvectors, dtype=float)
        n = w.shape[0]
        ortho = np.linalg.norm(v.T @ v - np.eye(n))
        if ortho > ORTHO_TOL:
            raise ConvergenceFailure(f"eigenvector matrix not orthogonal: {ortho:.3e}")
        w.flags.writeable = False
        v.flags.writeable = False
        self.eigenvalues = w
        self.eigenvectors = v

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def apply(self, f) -> np.ndarray:
        """Return V f(w) V^T with f applied entrywise to the eigenvalues."""
        v = self.eigenvectors
        return (v * f(self.eigenvalues)) @ v.T  # v * d is v @ diag(d): one product per entry


def sym_eig(a) -> Spectrum:
    """Eigendecomposition of a symmetric matrix with validated invariants.

    Accepts a raw array, an SpdMatrix, or a SymTangent.  Eigenvalues come
    back ascending; the reconstruction error is checked against the input.
    """
    mat = a.entries if isinstance(a, (SpdMatrix, SymTangent)) else _check_symmetry(_as_square(a))
    try:
        w, v = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    spec = Spectrum(w, v)
    recon = np.linalg.norm(spec.apply(lambda x: x) - mat)
    norm = np.linalg.norm(mat)
    if recon > RECON_RTOL * max(norm, 1e-300):
        raise ConvergenceFailure(f"reconstruction error {recon:.3e} too large")
    return spec


class SpdMatrix:
    """A validated symmetric positive definite matrix, the manifold point.

    Construction symmetrizes the input exactly and rejects matrices that
    are asymmetric beyond tolerance or whose smallest eigenvalue is not
    safely positive (lambda_min > n * 1e-12 * lambda_max).
    """

    def __init__(self, raw):
        sym, w, v, err = _validate_spd_stack(_as_square(raw)[None])
        if err is not None:
            raise err
        self.entries = sym[0]
        self._eig = (w[0], v[0])

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def spectrum(self) -> Spectrum:
        return Spectrum(*self._eig)

    @cached_property
    def log_det(self) -> float:
        # Cholesky keeps the computation stable across the full dynamic range.
        chol = np.linalg.cholesky(self.entries)
        return 2.0 * float(np.sum(np.log(np.diag(chol))))

    def inv_apply(self, x: np.ndarray) -> np.ndarray:
        """Solve self @ y = x."""
        return np.linalg.solve(self.entries, x)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype)

    def __repr__(self):
        return f"SpdMatrix(n={self.n})"


class SymTangent:
    """A symmetric matrix used as a tangent vector, optionally anchored at
    an SpdMatrix base point.  checked=True wraps a row of a stack that
    already passed _validate_sym_stack without repeating the guards."""

    def __init__(self, raw, base: SpdMatrix | None = None, checked: bool = False):
        sym = raw if checked else _check_symmetry(_as_square(raw))
        if base is not None and base.n != sym.shape[0]:
            raise DimensionMismatch(f"tangent is {sym.shape[0]}x{sym.shape[0]}, base is {base.n}x{base.n}")
        self.entries = sym
        self.base = base

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype)

    def __repr__(self):
        return f"SymTangent(n={self.n})"


def as_tangent(x) -> SymTangent:
    """Coerce an array-like into a SymTangent (pass-through if it already is one)."""
    if isinstance(x, SymTangent):
        return x
    return SymTangent(np.asarray(x, dtype=float))


def spd_validate(raw) -> SpdMatrix:
    """Validate a raw square array as an SPD matrix.

    Raises NotSymmetric or NotPositiveDefinite with the offending numbers
    in the message; on success the stored matrix is exactly symmetric.
    """
    return SpdMatrix(raw)


def matrix_function(sigma: SpdMatrix, kind: str, exponent: float | None = None):
    """Spectral matrix function V f(L) V^T for f in {sqrt, log, inv, power}.

    sqrt, inv and power return SpdMatrix (positive eigenvalues map to
    positive eigenvalues); log returns a SymTangent.
    """
    if not isinstance(sigma, SpdMatrix):
        sigma = spd_validate(sigma)
    spec = sigma.spectrum
    if kind == "sqrt":
        return SpdMatrix(spec.apply(np.sqrt))
    if kind == "log":
        return SymTangent(spec.apply(np.log))
    if kind == "inv":
        return SpdMatrix(spec.apply(lambda w: 1.0 / w))
    if kind == "power":
        if exponent is None:
            raise InvalidParameters("power requires an exponent")
        r = float(exponent)
        return SpdMatrix(spec.apply(lambda w: w ** r))
    raise InvalidParameters(f"unknown matrix function kind {kind!r}")


def sym_exp(x) -> SpdMatrix:
    """Matrix exponential of a symmetric matrix (always SPD)."""
    spec = sym_eig(x)
    return SpdMatrix(spec.apply(np.exp))


def congruence(a, sigma: SpdMatrix) -> SpdMatrix:
    """Congruence transform A Sigma A^T for an invertible A.

    Rejects A with |det A| <= 1e-12 * ||A||_2^n.  The result is positive
    definite by Sylvester's law of inertia.
    """
    amat = _as_finite_square(a)
    if amat.shape[0] != sigma.n:
        raise DimensionMismatch(f"transform is {amat.shape[0]}x{amat.shape[0]}, point is {sigma.n}x{sigma.n}")
    sign, logabsdet = np.linalg.slogdet(amat)
    opnorm = np.linalg.norm(amat, 2)
    if sign == 0 or logabsdet <= np.log(1e-12) + sigma.n * np.log(max(opnorm, 1e-300)):
        raise SingularTransform("transform matrix is numerically singular")
    return SpdMatrix(amat @ sigma.entries @ amat.T)


def require_well_conditioned(eigenvalues: np.ndarray, what: str = "matrix") -> None:
    """Raise IllConditioned when the positive spectrum spans more than COND_CAP."""
    w = np.asarray(eigenvalues, dtype=float)
    if w[0] <= 0 or w[-1] / w[0] > COND_CAP:
        raise IllConditioned(f"{what} condition number exceeds {COND_CAP:.1e}")


def derive_rng(seed: int, *indices: int) -> np.random.Generator:
    """Deterministic per-sample generator from a master seed and sample indices.

    The stream depends only on (seed, indices), never on execution order,
    so batch loops may run concurrently without changing aggregates.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [int(i) & 0xFFFFFFFFFFFFFFFF for i in indices]
    return np.random.default_rng(entropy)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), ported to
# uint32 arrays so that every row is hashed at once.  Its multipliers walk
# fixed sequences that never depend on the entropy, so all rows share them.
_MASK32 = 0xFFFFFFFF
_MIX_A, _MIX_B = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hash_constants(start: int, mult: int, count: int) -> np.ndarray:
    consts = [start]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


_STATE_CONSTANTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)  # generate_state's, for 8 uint32 words


def _hashmix(v: np.ndarray, consts: np.ndarray, t: int) -> np.ndarray:
    """SeedSequence's hashmix of each column c of v, taking the hash
    constants t + c (xor) and t + c + 1 (multiplier)."""
    v = (v ^ consts[t:t + v.shape[1]]) * consts[t + 1:t + 1 + v.shape[1]]
    return v ^ (v >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_A * x - _MIX_B * y
    return r ^ (r >> _SHIFT)


def derive_seed_words(seed: int, indices) -> np.ndarray:
    """PCG64 seed words of derive_rng(seed, *row) for each row of a (k, m)
    integer array, hashed in one pass; returns a (k, 4) uint64 array for
    seeded_rngs.

    Entries wrap to 64 bits as in derive_rng, and each splits into one
    uint32 word, or two when it is >= 2^32, so rows may differ in length;
    words past the 4-word pool get SeedSequence's extra mixing rounds.
    """
    idx = np.asarray(indices)
    if idx.ndim != 2:
        raise DimensionMismatch(f"expected a (k, m) array of indices, got shape {idx.shape}")
    values = np.empty((idx.shape[0], idx.shape[1] + 1), dtype=np.uint64)
    values[:, 0] = int(seed) & 0xFFFFFFFFFFFFFFFF
    values[:, 1:] = idx.astype(np.uint64)
    low, high = (values & np.uint64(_MASK32)).astype(np.uint32), (values >> np.uint64(32)).astype(np.uint32)
    lengths = np.full(len(values), values.shape[1])
    words = low
    if high.any():  # interleave the high words and move the zero ones to the row ends
        keep = np.stack([np.ones_like(high, dtype=bool), high != 0], axis=2).reshape(len(values), -1)
        words = np.stack([low, high], axis=2).reshape(keep.shape)
        words = np.take_along_axis(words, np.argsort(~keep, axis=1, kind="stable"), axis=1)
        lengths = keep.sum(axis=1)
    width = max(int(lengths.max(initial=0)), 4)
    entropy = np.zeros((len(values), width), dtype=np.uint32)  # zero words pad to the pool size
    entropy[:, :words.shape[1]] = words[:, :width]
    consts = _hash_constants(0x43B0D7E5, 0x931E8875, 16 + 4 * (width - 4))
    pool = _hashmix(entropy[:, :4], consts, 0)
    for src in range(4):  # hashmix(pool[src]) into each other pool word, in order
        dst = [d for d in range(4) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, [src] * 3], consts, 4 + 3 * src))
    for src in range(4, width):
        mixed = _mix(pool, _hashmix(entropy[:, [src] * 4], consts, 4 * src))
        pool = np.where((lengths > src)[:, None], mixed, pool)
    state = _hashmix(np.tile(pool, 2), _STATE_CONSTANTS, 0)
    return state.view(np.uint64)


@cache
def _seed_words_type():
    # numpy.random loads only when a generator is built, so that importing
    # the package (every CLI process) does not pay for it
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """A row of derive_seed_words posing as the seed sequence PCG64 reads."""

        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):
                raise InvalidParameters("seed words answer only PCG64's request for 4 uint64 words")
            return self.words

    return SeedWords


def seeded_rngs(words) -> list[np.random.Generator]:
    """One generator per row of derive_seed_words(seed, indices): row i
    draws the stream of derive_rng(seed, *indices[i])."""
    from numpy.random import PCG64, Generator

    seed_words = _seed_words_type()
    return [Generator(PCG64(seed_words(row))) for row in words]


def random_sym(n: int, seed, scale: float = 1.0) -> np.ndarray:
    """Symmetrized Gaussian matrix, deterministic for a fixed seed."""
    rng = seed if isinstance(seed, np.random.Generator) else derive_rng(seed)
    g = rng.standard_normal((n, n))
    return scale * 0.5 * (g + g.T)


def random_spd(n: int, seed, scale: float = 1.0) -> SpdMatrix:
    """Random SPD matrix exp(scale * S) with S a symmetrized Gaussian.

    The matrix exponential of a Gaussian symmetric matrix gives roughly
    log-uniform spectra, so `scale` sweeps from near-identity to
    ill-conditioned regimes.  Deterministic for a fixed integer seed.
    """
    if n < 1:
        raise InvalidParameters("dimension must be >= 1")
    if scale < 0:
        raise InvalidParameters("scale must be positive")
    s = random_sym(n, seed, scale=scale)
    return sym_exp(s)
