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
from numpy._core.umath import _extobj_contextvar, _make_extobj
from numpy.linalg import _umath_linalg

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidParameters,
    NotPositiveDefinite,
    NotSymmetric,
    SingularTransform,
    SpdError,
)
from .seeds import _random_syms, derive_rng

SYM_RTOL = 1e-12          # symmetry acceptance, relative to 1 + max|entry|
PD_RTOL = 1e-12           # lambda_min > n * PD_RTOL * lambda_max
ORTHO_TOL = 1e-10         # ||V^T V - I||_F on eigenvector matrices
RECON_RTOL = 1e-10        # ||V L V^T - A||_F <= RECON_RTOL * ||A||_F
COND_CAP = 1e12           # condition numbers beyond this raise IllConditioned
MAX_DIM = 64
BLOCK_ROWS = 128          # rows a stacked check builds and tests at once: memory grows with BLOCK_ROWS * n^2
WINDOW = 2.0**200         # rows outside the scale window [1/WINDOW, WINDOW] are first _windowed


def _lapack(gufunc, signature: str, message: str):
    """numpy.linalg's call of a LAPACK gufunc on float64 squares, bit for bit, without its checks
    and casts (at n <= 8 they cost about as much as the factorisation).  The errstate numpy sets,
    under which a failure raises LinAlgError with numpy's message, is built once and set per call
    on numpy's private context variable, so it keeps the ufunc buffer size of import time."""
    def fail(err, flag):
        raise np.linalg.LinAlgError(message)

    state = _make_extobj(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")

    def entry(*operands):
        token = _extobj_contextvar.set(state)
        try:
            return gufunc(*operands, signature=signature)
        finally:
            _extobj_contextvar.reset(token)

    return entry


# The package's one entry per factorisation (each reads the lower triangle).
eigh = _lapack(_umath_linalg.eigh_lo, "d->dd", "Eigenvalues did not converge")
eigvalsh = _lapack(_umath_linalg.eigvalsh_lo, "d->d", "Eigenvalues did not converge")
cholesky = _lapack(_umath_linalg.cholesky_lo, "d->d", "Matrix is not positive definite")
solve = _lapack(_umath_linalg.solve, "dd->d", "Singular matrix")


def _check_dimension(n: int) -> None:
    """Reject a dimension that is not an integer (bools included) or lies
    outside 1..MAX_DIM, before anything that large is allocated."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise InvalidParameters(f"dimension must be an integer, got {n!r}")
    if n < 1:
        raise InvalidParameters("dimension must be >= 1")
    if n > MAX_DIM:
        raise InvalidParameters(f"dimension {n} above desk-scale cap {MAX_DIM}")


def _as_square(raw) -> np.ndarray:
    a = np.asarray(raw, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionMismatch("dimension must be >= 1")
    _check_dimension(a.shape[0])
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


@cache
def _identity(n: int) -> np.ndarray:
    """The n x n identity, built once per n and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _row_norms(a: np.ndarray) -> np.ndarray:
    flat = a.reshape(len(a), math.prod(a.shape[1:]))  # -1 is ambiguous for an empty stack
    return np.sqrt(np.vecdot(flat, flat))  # bit for bit np.linalg.norm of each row


def _windowed(a: np.ndarray) -> tuple[np.ndarray, np.ndarray | int, np.ndarray]:
    """The (k, n, m) stack a with each row whose largest |entry| lies outside
    [1/WINDOW, WINDOW] scaled by the power of two 2^-e that brings it into
    [0.5, 1), the exponents e (0 for the rows that keep every bit) and the
    result's _row_norms.  In the window no square, nor S^-1 X of a guarded
    pair, leaves the normal range, and eigh(2^k A) is 2^k eigh(A) bit for bit
    (OpenBLAS 0.3.31: max|A| in [2^-400, 2^485]; outside, LAPACK scales)."""
    if np.abs(a).max(initial=0.0) <= WINDOW:  # one reduction, before any square, tells most stacks
        norms = _row_norms(a)
        if norms.min(initial=math.inf) * WINDOW >= math.sqrt(a.shape[1] * a.shape[2]):  # ||row|| <= this max|row|
            return a, 0, norms
    peak = np.abs(a).max(axis=(1, 2), initial=0.0)
    e = np.where((peak < 1.0 / WINDOW) | (peak > WINDOW), np.frexp(peak)[1], 0)
    a = np.ldexp(a, -e[:, None, None])
    return a, e, _row_norms(a)


def _symmetrized(a: np.ndarray, peak: float) -> np.ndarray:
    """(a + a^T) / 2 for an a whose largest |entry| is peak: halved first only
    at peak >= 2^1023, where the sum could overflow (halving rounds subnormals)."""
    at = a.swapaxes(-1, -2)
    return 0.5 * a + 0.5 * at if peak >= 2.0**1023 else 0.5 * (a + at)


# The stacked guards and kernels below return the rows before the first
# row that fails, and that row's error (None when every row passes).  A
# kernel that runs guards in turn ends with `later or err`: each guard sees
# only the rows the earlier ones passed, so an error it finds belongs to an
# earlier row, and wins.  The checks on LAPACK's own output
# (_check_orthogonal, _sym_eig_stack's reconstruction) raise where they run.


def _validate_sym_stack(a: np.ndarray) -> tuple[np.ndarray, SpdError | None]:
    """Finite-entry and symmetry guards over a (k, n, n) stack, row by row.

    A row is accepted when its asymmetry max|a - a^T| is within
    SYM_RTOL * (1 + max|a|).  Returns the exactly symmetrized (read-only)
    rows before the first failing row, and the error that row fails
    with, or None when every row passes.  A finite stack within SYM_RTOL
    everywhere passes whole: every row's tolerance is at least SYM_RTOL.
    """
    err, peak = None, 0.0
    at = a.swapaxes(1, 2)
    # finiteness (and |entries| < 2^1023) first, so that inf - inf never
    # reaches the subtraction; NaN fails the bound too
    if not (np.abs(a).max(initial=0.0) < 2.0**1023 and np.abs(a - at).max(initial=0.0) <= SYM_RTOL):
        amax = np.abs(a).max(axis=(1, 2), initial=0.0)
        finite = np.isfinite(amax)
        if not finite.all():
            bad = int(finite.argmin())
            a, amax, err = a[:bad], amax[:bad], InvalidParameters("matrix entries must be finite")
        at = a.swapaxes(1, 2)
        tolerance = SYM_RTOL * (1.0 + amax)
        with np.errstate(over="ignore"):  # a gap beyond the float range reads inf, and fails
            gap = np.abs(a - at).max(axis=(1, 2), initial=0.0)
        symmetric = gap <= tolerance
        if not symmetric.all():
            bad = int(symmetric.argmin())
            err = NotSymmetric(f"asymmetry {gap[bad]:.3e} exceeds tolerance {tolerance[bad]:.3e}")
            a = a[:bad]
        peak = amax[:len(a)].max(initial=0.0)
    sym = _symmetrized(a, peak)
    sym.flags.writeable = False
    return sym, err


def _validate_spd_stack(a: np.ndarray) -> tuple[SpdStack, SpdError | None]:
    """SpdMatrix's guards over a (k, n, n) stack, row by row: the guards of
    _validate_sym_stack, then _positive_rows.  Returns the rows before the
    first failing row, as an SpdStack, and the error that row fails with,
    or None when every row passes."""
    return _positive_rows(*_validate_sym_stack(a))


def _positive_rows(sym: np.ndarray, err: SpdError | None) -> tuple[SpdStack, SpdError | None]:
    """The eigen test lambda_min > n * PD_RTOL * lambda_max, the one rule for its
    verdict and messages, on rows that passed _validate_sym_stack with error err.
    An eigensolver failure (numpy's, for the whole stack) raises ConvergenceFailure."""
    w, v = _eigh(sym)
    # w ascends, so a row with lambda_max <= 0 fails here as well
    positive = w[:, 0] > sym.shape[-1] * PD_RTOL * w[:, -1]
    if np.count_nonzero(positive) < len(positive):
        bad = int(positive.argmin())
        span = f"eigenvalue range [{w[bad, 0]:.6e}, {w[bad, -1]:.6e}]"
        err = NotPositiveDefinite(f"{span} fails positivity test")
        if not np.isfinite(w[bad]).all():  # no verdict: the input's spectrum cannot be represented
            err = InvalidParameters(f"{span} lies beyond the float range")
        sym, w, v = sym[:bad], w[:bad], v[:bad]
    return SpdStack(sym, w, v), err


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def _check_orthogonal(v: np.ndarray) -> None:
    """Spectrum's guard over a (k, n, n) stack of eigenvector matrices,
    ||V^T V - I||_F <= ORTHO_TOL: raises ConvergenceFailure on the first
    row that fails."""
    ortho = _row_norms(np.ascontiguousarray(v.swapaxes(-1, -2)) @ v - _identity(v.shape[-1]))
    failing = ortho > ORTHO_TOL
    if np.count_nonzero(failing):  # the cheapest test on a short stack
        raise ConvergenceFailure(f"eigenvector matrix not orthogonal: {ortho[int(failing.argmax())]:.3e}")


def _spectral_apply(w: np.ndarray, v: np.ndarray, f) -> np.ndarray:
    """V f(w) V^T for one eigendecomposition or for each row of a stack."""
    return (v * f(w)[..., None, :]) @ np.ascontiguousarray(v.swapaxes(-1, -2))  # v * d is v @ diag(d)


def _log_dets(a: np.ndarray) -> np.ndarray:
    """log det of an SPD matrix, or of each row of a stack: twice the summed log diagonal of
    its Cholesky factor, which keeps the computation stable across the full dynamic range."""
    return 2.0 * np.sum(np.log(np.diagonal(cholesky(a), axis1=-2, axis2=-1)), axis=-1)


def _checked(value, err: SpdError | None):
    """A kernel's value, or the error its first failing row failed with."""
    if err is not None:
        raise err
    return value


def _check_symmetry(a: np.ndarray) -> np.ndarray:
    return _checked(*_validate_sym_stack(a[None]))[0]


class Spectrum:
    """Eigendecomposition of a symmetric matrix: ascending eigenvalues and
    an orthogonal eigenvector matrix (columns).  checked=True wraps a row
    that already passed _check_orthogonal without repeating the guard."""

    __slots__ = ("eigenvalues", "eigenvectors")

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray, checked: bool = False):
        w = np.asarray(eigenvalues, dtype=float)
        v = np.asarray(eigenvectors, dtype=float)
        if not checked:
            peak = np.abs(v).max(initial=0.0)
            if peak > 1.0 + ORTHO_TOL:  # an orthogonal V has |entries| <= 1, and V^T V of this one could overflow
                raise ConvergenceFailure(f"eigenvector matrix not orthogonal: entry {peak:.3e} exceeds 1")
            _check_orthogonal(v[None])
        w.flags.writeable = False
        v.flags.writeable = False
        self.eigenvalues = w
        self.eigenvectors = v

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def apply(self, f) -> np.ndarray:
        """Return V f(w) V^T with f applied entrywise to the eigenvalues."""
        return _spectral_apply(self.eigenvalues, self.eigenvectors, f)


def _sym_eig_stack(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sym_eig over a (k, n, n) stack that passed _validate_sym_stack: the
    eigenvalues and eigenvectors of every row.  Raises ConvergenceFailure
    on the first row that fails the orthogonality or reconstruction check
    (a row brought into the window reports its error there)."""
    w, v = _eigh(sym)
    _check_orthogonal(v)
    ws = w  # |w| <= WINDOW keeps every square in both norms inside the float range
    if abs(w).max(initial=0.0) > WINDOW:  # past it, rows are checked at the scale _windowed brings them to
        sym, e, _ = _windowed(sym)
        ws = np.ldexp(w, -np.reshape(e, (-1, 1)))
    recon = _row_norms(_spectral_apply(ws, v, lambda w: w) - sym)
    too_large = recon > RECON_RTOL * np.maximum(_row_norms(sym), 1e-300)
    if np.count_nonzero(too_large):
        raise ConvergenceFailure(f"reconstruction error {recon[int(too_large.argmax())]:.3e} too large")
    return w, v


def _as_sym(a) -> np.ndarray:
    """A raw array past SymTangent's guards, or the entries of an SpdMatrix or SymTangent."""
    return a.entries if isinstance(a, (SpdMatrix, SymTangent)) else _check_symmetry(_as_square(a))


def sym_eig(a) -> Spectrum:
    """Eigendecomposition of a symmetric matrix with validated invariants.

    Accepts a raw array, an SpdMatrix, or a SymTangent.  Eigenvalues come
    back ascending; the reconstruction error is checked against the input.
    The one-row view of _sym_eig_stack.
    """
    w, v = _sym_eig_stack(_as_sym(a)[None])
    return Spectrum(w[0], v[0], checked=True)


def _sym_exp_stack(sym: np.ndarray) -> tuple[SpdStack, SpdError | None]:
    """sym_exp over a (k, n, n) stack that passed _validate_sym_stack: the
    exponentials of the rows before the first row that fails SpdMatrix's
    guards, and that row's error, or None."""
    w, v = _sym_eig_stack(sym)
    with np.errstate(over="ignore", invalid="ignore"):  # an image past the float range fails SpdMatrix's guard
        images = _spectral_apply(w, v, np.exp)
    return _validate_spd_stack(images)


class SpdMatrix:
    """A validated symmetric positive definite matrix, the manifold point.

    Construction symmetrizes the input exactly and rejects matrices that
    are asymmetric beyond tolerance or whose smallest eigenvalue is not
    safely positive (lambda_min > n * 1e-12 * lambda_max).
    """

    _relative = (lambda: None, None, None)  # geometry._relative_eigh's memo: weak sigma2, w, u

    def __init__(self, raw):
        self._hold(_checked(*_validate_spd_stack(_as_square(raw)[None])))

    def _hold(self, points: SpdStack) -> None:
        """Become the point of a one-row stack, which the one-base views hand their kernels."""
        self._stack = points
        self.entries = points.entries[0]
        self._eig = (points.eigenvalues[0], points.eigenvectors[0])

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def spectrum(self) -> Spectrum:
        w, v = self._stack.spectrum()
        return Spectrum(w[0], v[0], checked=True)

    @cached_property
    def log_det(self) -> float:
        return float(_log_dets(self.entries))

    def inv_apply(self, x: np.ndarray) -> np.ndarray:
        """Solve self @ y = x."""
        return np.linalg.solve(self.entries, x)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype)

    def __repr__(self):
        return f"SpdMatrix(n={self.n})"


class SpdStack:
    """SPD points as the rows of a stack, every row past SpdMatrix's
    guards: (k, n, n) entries with their ascending eigenvalues (k, n) and
    eigenvectors (k, n, n).  The stacked kernels take their base points
    this way, and an SpdMatrix is the point of a one-row stack.

    Spectrum's orthogonality guard runs and each square root is built when
    a kernel first asks for them, once per stack: an SpdMatrix checks its
    point and builds its roots once, however many views it goes through.
    """

    __slots__ = ("entries", "eigenvalues", "eigenvectors", "_orthogonal", "_roots")

    def __init__(self, entries, eigenvalues, eigenvectors):
        self.entries, self.eigenvalues, self.eigenvectors = entries, eigenvalues, eigenvectors
        self._orthogonal = False  # whether the eigenvectors passed Spectrum's guard
        self._roots = {}  # power: sigma^power, once built

    @staticmethod
    def of(sigma: SpdMatrix) -> SpdStack:
        """sigma's own one-row stack, which a one-base view hands its kernel."""
        return sigma._stack

    @property
    def n(self) -> int:
        return self.entries.shape[-1]

    def __len__(self) -> int:
        return len(self.entries)

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors of every row; raises ConvergenceFailure
        when a row's eigenvectors fail Spectrum's guard."""
        if not self._orthogonal:
            _check_orthogonal(self.eigenvectors)
            self._orthogonal = True
        return self.eigenvalues, self.eigenvectors

    def root(self, power: float) -> np.ndarray:
        """sigma^power (power 1/2 or -1/2) of every row, read-only."""
        if power not in self._roots:
            root = _spectral_apply(*self.spectrum(), np.sqrt if power > 0 else lambda w: 1.0 / np.sqrt(w))
            root.flags.writeable = False
            self._roots[power] = root
        return self._roots[power]

    def __getitem__(self, rows: slice) -> SpdStack:
        """The rows of a slice: the stack itself, its guard and roots built, when it takes every row."""
        if range(len(self))[rows] == range(len(self)):
            return self
        return SpdStack(self.entries[rows], self.eigenvalues[rows], self.eigenvectors[rows])

    def point(self, i: int) -> SpdMatrix:
        """Row i as an SpdMatrix, without running the guards again; the row
        is copied, so that the point does not keep a larger stack alive."""
        row = self
        if len(self) > 1:
            row = SpdStack(*(np.array(a[i:i + 1]) for a in (self.entries, self.eigenvalues, self.eigenvectors)))
            row.entries.flags.writeable = False
        sigma = SpdMatrix.__new__(SpdMatrix)
        sigma._hold(row)
        return sigma


class SymTangent:
    """A symmetric matrix used as a tangent vector, optionally anchored at
    an SpdMatrix base point.  checked=True wraps a row of a stack that
    already passed _validate_sym_stack without repeating the guards."""

    __slots__ = ("entries", "base")

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


def _matrix_function_stack(points: SpdStack, kind: str, exponent: float | None = None) -> tuple[SpdStack, SpdError | None]:
    """matrix_function's SPD kinds (sqrt, inv, power) over a stack of
    points: the images of the rows before the first row whose image fails
    SpdMatrix's guards, and that row's error, or None."""
    if kind == "power" and exponent is None:
        raise InvalidParameters("power requires an exponent")
    fs = {"sqrt": np.sqrt, "inv": lambda w: 1.0 / w, "power": lambda w: w ** float(exponent)}
    f = fs.get(kind) if isinstance(kind, str) else None
    if f is None:
        raise InvalidParameters(f"unknown matrix function kind {kind!r}")
    return _validate_spd_stack(_spectral_apply(*points.spectrum(), f))


def matrix_function(sigma: SpdMatrix, kind: str, exponent: float | None = None):
    """Spectral matrix function V f(L) V^T for f in {sqrt, log, inv, power}.

    sqrt, inv and power return SpdMatrix (positive eigenvalues map to
    positive eigenvalues), as the one-row view of _matrix_function_stack;
    log returns a SymTangent.
    """
    if not isinstance(sigma, SpdMatrix):
        sigma = spd_validate(sigma)
    if kind == "log":
        return SymTangent(sigma.spectrum.apply(np.log))
    return _checked(*_matrix_function_stack(SpdStack.of(sigma), kind, exponent)).point(0)


def sym_exp(x) -> SpdMatrix:
    """Matrix exponential of a symmetric matrix (always SPD): the one-row
    view of _sym_exp_stack."""
    return _checked(*_sym_exp_stack(_as_sym(x)[None])).point(0)


def _congruence_stack(a, points: SpdStack) -> tuple[SpdStack, SpdError | None]:
    """congruence over a stack of points: the images of the rows before the
    first row that fails SpdMatrix's guards, and that row's error, or
    None.  A transform that is not finite, of the wrong size or
    numerically singular raises."""
    amat = _as_finite_square(a)
    n = points.n
    if amat.shape[0] != n:
        raise DimensionMismatch(f"transform is {amat.shape[0]}x{amat.shape[0]}, point is {n}x{n}")
    sign, logabsdet = np.linalg.slogdet(amat)
    opnorm = np.linalg.norm(amat, 2)
    if sign == 0 or logabsdet <= np.log(1e-12) + n * np.log(max(opnorm, 1e-300)):
        raise SingularTransform("transform matrix is numerically singular")
    return _validate_spd_stack(amat @ points.entries @ amat.T)


def congruence(a, sigma: SpdMatrix) -> SpdMatrix:
    """Congruence transform A Sigma A^T for an invertible A: the one-row
    view of _congruence_stack.

    Rejects A with |det A| <= 1e-12 * ||A||_2^n.  The result is positive
    definite by Sylvester's law of inertia.
    """
    return _checked(*_congruence_stack(a, SpdStack.of(sigma))).point(0)


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else derive_rng(seed)


def random_sym(n: int, seed, scale: float = 1.0) -> np.ndarray:
    """Symmetrized Gaussian matrix, deterministic for a fixed seed: the
    one-row view of _random_syms."""
    _check_dimension(n)
    return _random_syms(n, [_rng(seed)], scale)[0]


def _random_spd_stack(n: int, seeds, scale: float = 1.0) -> tuple[SpdStack, SpdError | None]:
    """random_spd for each seed (an integer or a generator), stacked: the
    points before the first one that fails a guard, and its error, or
    None.  Each row reads its own generator as random_spd does."""
    _check_dimension(n)
    if scale < 0:
        raise InvalidParameters("scale must be positive")
    syms, err = _validate_sym_stack(_random_syms(n, [_rng(seed) for seed in seeds], scale))
    points, later = _sym_exp_stack(syms)
    return points, later or err


def random_spd(n: int, seed, scale: float = 1.0) -> SpdMatrix:
    """Random SPD matrix exp(scale * S) with S a symmetrized Gaussian.

    The matrix exponential of a Gaussian symmetric matrix gives roughly
    log-uniform spectra, so `scale` sweeps from near-identity to
    ill-conditioned regimes.  Deterministic for a fixed integer seed.
    The one-row view of _random_spd_stack.
    """
    return _checked(*_random_spd_stack(n, [seed], scale)).point(0)
