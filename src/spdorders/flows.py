"""Isospectral Toda and QR flow integration with projection monitors.

Fixed-step classical RK4: the trajectories are smooth and desk scale,
and the spectrum-drift monitor acts as the safety net for an oversized
step.  Each state is re-symmetrized after every step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import SpdMatrix, _as_square, _check_symmetry, sym_eig
from .errors import (
    DimensionMismatch,
    InvalidParameters,
    MismatchedTrajectories,
    SpectrumDrift,
)

TODA = "toda"
QR = "qr"

DRIFT_LIMIT = 1e-5  # absolute drift of any sorted eigenvalue before bailing out
MAX_STATE_ENTRIES = 10_000_000  # (ceil(t_end / step) + 2) * n^2 stored floats, 80 MB of states
MONOTONE_TOL = 1e-8  # per-step decrease the projection monitors still accept as nondecreasing

SCALAR_FUNCTIONS = {
    "identity": lambda w: w,
    "exp": np.exp,
    "arctan": np.arctan,
    "cube": lambda w: w**3,
}


@functools.lru_cache(maxsize=64)
def _strict_lower(rows: int, cols: int) -> np.ndarray:
    mask = np.tri(rows, cols, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def skew_projection(x) -> np.ndarray:
    """Skew-symmetric part used by both Lax fields: lower triangle kept,
    diagonal zeroed, upper triangle negated."""
    a = np.asarray(x, dtype=float)
    lower = np.where(_strict_lower(*a.shape[-2:]), a, 0.0)  # np.tril(a, k=-1), mask built once per shape
    return lower - lower.T


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _toda_field(x: np.ndarray) -> np.ndarray:
    return _commutator(x, skew_projection(x))


def _qr_field(x: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(x)
    if w[0] <= 0:
        raise SpectrumDrift("state left the positive definite cone; step too large")
    logx = (v * np.log(w)) @ v.T  # v * l is v @ diag(l): one product per entry
    return _commutator(x, skew_projection(logx))


@dataclass
class FlowTrajectory:
    """Time-stamped sequence of symmetric matrices plus integrator metadata."""

    times: np.ndarray           # strictly increasing
    states: np.ndarray          # (len(times), n, n), each symmetric
    flow_kind: str
    step: float
    initial_spectrum: np.ndarray  # sorted ascending
    max_drift: float = 0.0      # running maximum of the per-step drift monitor

    @property
    def n(self) -> int:
        return self.states.shape[-1]

    def spectrum_drift(self) -> float:
        """Largest absolute deviation of any sorted eigenvalue from the
        initial spectrum, over the whole trajectory (0.0 without steps)."""
        return self.max_drift


def _check_state_budget(t_end: float, step: float, n: int) -> int:
    """Return ceil(t_end / step) + 2, the most states a run stores (the
    rounded sum of t can fall short of t_end by one tiny step: t_end=1,
    step=1e-5 takes 100,001 steps), or reject the run when they would
    hold more than MAX_STATE_ENTRIES entries."""
    ratio = t_end / step
    if not ratio <= MAX_STATE_ENTRIES or (math.ceil(ratio) + 2) * n * n > MAX_STATE_ENTRIES:
        raise InvalidParameters(
            f"t_end/step = {ratio:.3g} steps at n={n} would store more than {MAX_STATE_ENTRIES} state entries"
        )
    return math.ceil(ratio) + 2


def integrate_flow(kind: str, x0, t_end: float, step: float) -> FlowTrajectory:
    """Integrate the Toda flow X' = [X, skew(X)] or the QR flow
    S' = [S, skew(log S)] with fixed-step RK4.

    The initial matrix must be symmetric (SPD for the QR flow).  step and
    t_end must be finite and positive, and the trajectory may store at
    most MAX_STATE_ENTRIES floats, (ceil(t_end / step) + 2) * n^2; both
    are checked before the first step, and the states are written into
    one array of that size.  Raises SpectrumDrift as soon as any sorted
    eigenvalue deviates from the initial spectrum by more than
    DRIFT_LIMIT, or a step leaves the finite numbers, which signals that
    the step is too large.
    """
    if not (0.0 < step < math.inf and 0.0 < t_end < math.inf):
        raise InvalidParameters("step and t_end must be finite and positive")
    if kind == TODA:
        field = _toda_field
        x = _check_symmetry(_as_square(x0))
    elif kind == QR:
        field = _qr_field
        x = (x0 if isinstance(x0, SpdMatrix) else SpdMatrix(x0)).entries
    else:
        raise InvalidParameters(f"unknown flow kind {kind!r}")
    capacity = _check_state_budget(t_end, step, x.shape[0])

    initial_spectrum = np.linalg.eigvalsh(x)
    max_drift = 0.0
    times = np.empty(capacity)
    states = np.empty((capacity,) + x.shape)
    times[0], states[0], count = 0.0, x, 1
    t = 0.0
    # An overflowing step ends in SpectrumDrift below, so numpy's warnings add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_end - 1e-12 * max(t_end, 1.0):
            h = min(step, t_end - t)
            try:
                k1 = field(x)
                k2 = field(x + 0.5 * h * k1)
                k3 = field(x + 0.5 * h * k2)
                k4 = field(x + h * k3)
                x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                x = 0.5 * (x + x.T)
                drift = np.max(np.abs(np.linalg.eigvalsh(x) - initial_spectrum))
            except np.linalg.LinAlgError:  # LAPACK may reject a non-finite state outright
                drift = math.nan
            t = t + h
            if not drift <= DRIFT_LIMIT:  # a non-finite state gives a NaN drift
                raise SpectrumDrift(f"eigenvalue drift {drift:.3e} exceeds {DRIFT_LIMIT:.1e} at t={t:.6g}")
            max_drift = max(max_drift, float(drift))
            times[count], states[count] = t, x
            count += 1

    return FlowTrajectory(
        times=times[:count],
        states=states[:count],
        flow_kind=kind,
        step=float(step),
        initial_spectrum=initial_spectrum,
        max_drift=max_drift,
    )


def projected_eigenvalues(traj: FlowTrajectory, r: int) -> np.ndarray:
    """Sorted eigenvalues of the leading r x r principal block of every state."""
    if not (1 <= r <= traj.n):
        raise DimensionMismatch(f"projection rank {r} outside 1..{traj.n}")
    return np.linalg.eigvalsh(traj.states[:, :r, :r])


def _worst_step(curves: np.ndarray) -> float:
    """Smallest change between consecutive states, 0.0 for a single state."""
    if len(curves) < 2:
        return 0.0
    return float(np.min(np.diff(curves, axis=0)))


def projected_monotonicity(traj: FlowTrajectory, r: int) -> tuple[bool, float]:
    """Whether every ordered eigenvalue curve of the leading r x r block is
    nondecreasing up to MONOTONE_TOL, plus the worst per-step decrease."""
    worst = _worst_step(projected_eigenvalues(traj, r))
    return worst >= -MONOTONE_TOL, worst


def _resolve_scalar(f):
    if callable(f):
        return f
    try:
        return SCALAR_FUNCTIONS[f]
    except KeyError:
        raise InvalidParameters(f"unknown scalar function tag {f!r}") from None


def projected_trace_curve(traj: FlowTrajectory, r: int, f, alpha: float = 1.0) -> np.ndarray:
    """Curve t -> tr f(E_r^T X(t)^alpha E_r).  alpha != 1 requires SPD
    states (QR flow); f is a nondecreasing scalar tag or callable, applied
    entrywise to the (states, r) array of block eigenvalues."""
    if not (1 <= r <= traj.n):
        raise DimensionMismatch(f"projection rank {r} outside 1..{traj.n}")
    func = _resolve_scalar(f)
    states = traj.states
    if alpha != 1.0:  # sym_eig checks each state's eigenframe before the power is taken
        states = np.array([sym_eig(state).apply(lambda w: w**alpha) for state in states])
    return np.sum(func(np.linalg.eigvalsh(states[:, :r, :r])), axis=1)


def preorder_monitor(
    traj1: FlowTrajectory,
    traj2: FlowTrajectory,
    f,
    r: int,
    alpha: float = 1.0,
) -> bool:
    """Check the half-space preorder behaviour of two projected flows.

    Both projected trace curves tr f(X_r(t)) must be nondecreasing, and
    when the initial full traces satisfy tr(X(0) - Xhat(0)) >= 0 the gap
    between the curves must stay above that initial trace difference,
    both up to MONOTONE_TOL.
    """
    if traj1.times.shape != traj2.times.shape or not np.allclose(traj1.times, traj2.times, atol=1e-12):
        raise MismatchedTrajectories("time grids differ")
    if traj1.n != traj2.n:
        raise MismatchedTrajectories("dimensions differ")
    c1 = projected_trace_curve(traj1, r, f, alpha=alpha)
    c2 = projected_trace_curve(traj2, r, f, alpha=alpha)
    if _worst_step(c1) < -MONOTONE_TOL or _worst_step(c2) < -MONOTONE_TOL:
        return False
    delta0 = float(np.trace(traj1.states[0]) - np.trace(traj2.states[0]))
    if delta0 >= 0.0 and np.min(c1 - c2) < delta0 - MONOTONE_TOL:
        return False
    return True


def trajectory_csv(traj: FlowTrajectory) -> str:
    """CSV export: header t,a11,...,ann (row-major, symmetric entries
    duplicated), entries written with 17 significant digits."""
    n = traj.n
    header = ["t"] + [f"a{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    lines = [",".join(header)]
    for t, state in zip(traj.times, traj.states):
        row = [f"{t:.17g}"] + [f"{v:.17g}" for v in state.reshape(-1)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
