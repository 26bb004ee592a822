"""Isospectral Toda and QR flow integration with projection monitors.

Fixed-step classical RK4: the trajectories are smooth and desk scale,
and the spectrum-drift monitor acts as the safety net for an oversized
step.  Each state is re-symmetrized after every step.
"""

from __future__ import annotations

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

SCALAR_FUNCTIONS = {
    "identity": lambda w: w,
    "exp": np.exp,
    "arctan": np.arctan,
    "cube": lambda w: w**3,
}


def skew_projection(x) -> np.ndarray:
    """Skew-symmetric part used by both Lax fields: lower triangle kept,
    diagonal zeroed, upper triangle negated."""
    a = np.asarray(x, dtype=float)
    lower = np.tril(a, k=-1)
    return lower - lower.T


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _toda_field(x: np.ndarray) -> np.ndarray:
    return _commutator(x, skew_projection(x))


def _qr_field(x: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(x)
    if w[0] <= 0:
        raise SpectrumDrift("state left the positive definite cone; step too large")
    logx = v @ np.diag(np.log(w)) @ v.T
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


def integrate_flow(kind: str, x0, t_end: float, step: float, drift_limit: float = DRIFT_LIMIT) -> FlowTrajectory:
    """Integrate the Toda flow X' = [X, skew(X)] or the QR flow
    S' = [S, skew(log S)] with fixed-step RK4.

    The initial matrix must be symmetric (SPD for the QR flow).  Raises
    SpectrumDrift as soon as any sorted eigenvalue deviates from the
    initial spectrum by more than drift_limit, which signals that the
    step is too large.
    """
    if step <= 0 or t_end <= 0:
        raise InvalidParameters("step and t_end must be positive")
    if kind == TODA:
        field = _toda_field
        x = _check_symmetry(_as_square(x0)).copy()
    elif kind == QR:
        field = _qr_field
        x = SpdMatrix(x0).entries.copy() if not isinstance(x0, SpdMatrix) else x0.entries.copy()
    else:
        raise InvalidParameters(f"unknown flow kind {kind!r}")

    initial_spectrum = np.linalg.eigvalsh(x)
    max_drift = 0.0
    times = [0.0]
    states = [x.copy()]
    t = 0.0
    while t < t_end - 1e-12 * max(t_end, 1.0):
        h = min(step, t_end - t)
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x = 0.5 * (x + x.T)
        t = t + h
        drift = np.max(np.abs(np.linalg.eigvalsh(x) - initial_spectrum))
        if drift > drift_limit:
            raise SpectrumDrift(f"eigenvalue drift {drift:.3e} exceeds {drift_limit:.1e} at t={t:.6g}")
        max_drift = max(max_drift, float(drift))
        times.append(t)
        states.append(x.copy())

    return FlowTrajectory(
        times=np.array(times),
        states=np.array(states),
        flow_kind=kind,
        step=float(step),
        initial_spectrum=initial_spectrum,
        max_drift=max_drift,
    )


def projected_eigenvalues(traj: FlowTrajectory, r: int) -> np.ndarray:
    """Sorted eigenvalues of the leading r x r principal block of every state."""
    if not (1 <= r <= traj.n):
        raise DimensionMismatch(f"projection rank {r} outside 1..{traj.n}")
    return np.array([np.linalg.eigvalsh(state[:r, :r]) for state in traj.states])


def projected_monotonicity(traj: FlowTrajectory, r: int, tol: float = 1e-8) -> tuple[bool, float]:
    """Whether every ordered eigenvalue curve of the leading r x r block is
    nondecreasing, plus the worst per-step decrease observed."""
    curves = projected_eigenvalues(traj, r)
    if len(curves) < 2:
        return True, 0.0
    worst = float(np.min(np.diff(curves, axis=0)))
    return worst >= -tol, worst


def _resolve_scalar(f):
    if callable(f):
        return f
    try:
        return SCALAR_FUNCTIONS[f]
    except KeyError:
        raise InvalidParameters(f"unknown scalar function tag {f!r}") from None


def projected_trace_curve(traj: FlowTrajectory, r: int, f, alpha: float = 1.0) -> np.ndarray:
    """Curve t -> tr f(E_r^T X(t)^alpha E_r).  alpha != 1 requires SPD
    states (QR flow); f is a nondecreasing scalar tag or callable."""
    if not (1 <= r <= traj.n):
        raise DimensionMismatch(f"projection rank {r} outside 1..{traj.n}")
    func = _resolve_scalar(f)
    out = np.empty(len(traj.times))
    for idx, state in enumerate(traj.states):
        if alpha != 1.0:
            state = sym_eig(state).apply(lambda w: w**alpha)
        w = np.linalg.eigvalsh(state[:r, :r])
        out[idx] = float(np.sum(func(w)))
    return out


def preorder_monitor(
    traj1: FlowTrajectory,
    traj2: FlowTrajectory,
    f,
    r: int,
    tol: float = 1e-8,
    alpha: float = 1.0,
) -> bool:
    """Check the half-space preorder behaviour of two projected flows.

    Both projected trace curves tr f(X_r(t)) must be nondecreasing, and
    when the initial full traces satisfy tr(X(0) - Xhat(0)) >= 0 the gap
    between the curves must stay above that initial trace difference.
    """
    if traj1.times.shape != traj2.times.shape or not np.allclose(traj1.times, traj2.times, atol=1e-12):
        raise MismatchedTrajectories("time grids differ")
    if traj1.n != traj2.n:
        raise MismatchedTrajectories("dimensions differ")
    c1 = projected_trace_curve(traj1, r, f, alpha=alpha)
    c2 = projected_trace_curve(traj2, r, f, alpha=alpha)
    if np.min(np.diff(c1)) < -tol or np.min(np.diff(c2)) < -tol:
        return False
    delta0 = float(np.trace(traj1.states[0]) - np.trace(traj2.states[0]))
    if delta0 >= 0.0 and np.min(c1 - c2) < delta0 - tol:
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
