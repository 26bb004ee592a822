"""Isospectral Toda and QR flow integration with projection monitors.

Fixed-step classical RK4: the trajectories are smooth and desk scale,
and the spectrum-drift monitor acts as the safety net for an oversized
step.  Both Lax fields are exactly symmetric, and so is every state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BLOCK_ROWS,
    SpdMatrix,
    _as_square,
    _check_symmetry,
    _checked,
    _spectral_apply,
    _sym_eig_stack,
    _validate_sym_stack,
    eigh,
    eigvalsh,
)
from .errors import DimensionMismatch, InvalidParameters, MismatchedTrajectories, SpectrumDrift

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


def skew_projection(x) -> np.ndarray:
    """Skew-symmetric part used by both Lax fields: lower triangle kept,
    diagonal zeroed, upper triangle negated (of each matrix of a stack)."""
    lower = np.tril(np.asarray(x, dtype=float), k=-1)
    return lower - lower.swapaxes(-1, -2)


def _lax_field(kind: str, n: int):
    """X -> [X, B] with B = skew_projection(G), G = X (Toda) or log X (QR).
    For symmetric X and skew B, B X = -(X B)^T, so the field is P + P^T
    with P = X B: one product, and exactly symmetric."""
    mask = np.tri(n, n, k=-1, dtype=bool)  # skew_projection's np.tril(g, k=-1), its mask built once per run

    def lax_field(x: np.ndarray) -> np.ndarray:
        g = x
        if kind == QR:
            w, v = eigh(x)
            if w[0] <= 0:
                raise SpectrumDrift("state left the positive definite cone; step too large")
            g = (v * np.log(w)) @ v.T  # v * l is v @ diag(l): one product per entry
        lower = np.where(mask, g, 0.0)
        p = x @ (lower - lower.T)
        return p + p.T

    return lax_field


@dataclass(frozen=True)
class FlowTrajectory:
    """Time-stamped sequence of symmetric matrices plus integrator metadata."""

    times: np.ndarray           # strictly increasing
    states: np.ndarray          # (len(times), n, n), each symmetric; read-only from integrate_flow
    flow_kind: str
    step: float
    initial_spectrum: np.ndarray  # sorted ascending
    max_drift: float = 0.0      # running maximum of the per-step drift monitor
    _spectra: np.ndarray | None = field(default=None, repr=False, compare=False)  # read-only eigvalsh(states)

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


def _drift_error(drift: float, t: float) -> SpectrumDrift:
    return SpectrumDrift(f"eigenvalue drift {drift:.3e} exceeds {DRIFT_LIMIT:.1e} at t={t:.6g}")


def _state_spectra(states: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of each state, a NaN row for a state LAPACK rejects."""
    try:
        return eigvalsh(states)
    except np.linalg.LinAlgError:  # numpy rejects the stack as a whole: ask state by state
        if len(states) == 1:
            return np.full(states.shape[:2], math.nan)
        return np.concatenate([_state_spectra(state[None]) for state in states])


def integrate_flow(kind: str, x0, t_end: float, step: float) -> FlowTrajectory:
    """Integrate the Toda flow X' = [X, skew(X)] or the QR flow
    S' = [S, skew(log S)] with fixed-step RK4.

    The initial matrix must be symmetric (SPD for the QR flow).  step and
    t_end must be finite and positive, and the trajectory may store at
    most MAX_STATE_ENTRIES floats, (ceil(t_end / step) + 2) * n^2; both
    are checked before the first step, and the states are written into
    one array of that size.  Raises SpectrumDrift at the first state
    whose sorted eigenvalues deviate from the initial spectrum by more
    than DRIFT_LIMIT, or that leaves the finite numbers, which signals
    that the step is too large.  The stored states are checked in blocks
    of BLOCK_ROWS, and before an error of a step propagates.
    """
    if not (0.0 < step < math.inf and 0.0 < t_end < math.inf):
        raise InvalidParameters("step and t_end must be finite and positive")
    if kind == TODA:
        x = _check_symmetry(_as_square(x0))
    elif kind == QR:
        x = (x0 if isinstance(x0, SpdMatrix) else SpdMatrix(x0)).entries
    else:
        raise InvalidParameters(f"unknown flow kind {kind!r}")
    n = x.shape[0]
    capacity = _check_state_budget(t_end, step, n)
    lax_field = _lax_field(kind, n)

    initial_spectrum = eigvalsh(x)
    max_drift = 0.0
    times = np.empty(capacity)
    states = np.empty((capacity, n, n))
    spectra = np.empty((capacity, n))  # the drift check's eigenvalues, kept for the rank-n monitor
    times[0], states[0], spectra[0], count, checked = 0.0, x, initial_spectrum, 1, 1

    def check() -> None:
        """Fold the drifts of the unchecked states into max_drift, raising at the first that fails."""
        nonlocal max_drift, checked
        spectra[checked:count] = _state_spectra(states[checked:count])
        drifts = np.abs(spectra[checked:count] - initial_spectrum).max(axis=1)
        failing = ~(drifts <= DRIFT_LIMIT)  # a non-finite state gives a NaN drift
        if failing.any():
            bad = int(failing.argmax())
            raise _drift_error(drifts[bad], times[checked + bad])
        max_drift = max(max_drift, float(drifts.max(initial=0.0)))
        checked = count

    t = 0.0
    # An overflowing step ends in SpectrumDrift, so numpy's warnings add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_end - 1e-12 * max(t_end, 1.0):
            h = min(step, t_end - t)
            try:
                k1 = lax_field(x)
                k2 = lax_field(x + 0.5 * h * k1)
                k3 = lax_field(x + 0.5 * h * k2)
                k4 = lax_field(x + h * k3)
            except SpectrumDrift:  # an earlier state's drift wins
                check()
                raise
            except np.linalg.LinAlgError:  # LAPACK may reject a non-finite state outright
                check()
                raise _drift_error(math.nan, t + h) from None
            x = np.add(x, (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=states[count])
            t = t + h
            times[count] = t
            count += 1
            if count - checked == BLOCK_ROWS:
                check()
        check()

    states.flags.writeable = spectra.flags.writeable = False
    return FlowTrajectory(
        times=times[:count],
        states=states[:count],
        flow_kind=kind,
        step=float(step),
        initial_spectrum=initial_spectrum,
        max_drift=max_drift,
        _spectra=spectra[:count],
    )


def projected_eigenvalues(traj: FlowTrajectory, r: int) -> np.ndarray:
    """Sorted eigenvalues of the leading r x r principal block of every
    state; at r = n, a copy of the spectra integrate_flow's drift check kept."""
    if not (1 <= r <= traj.n):
        raise DimensionMismatch(f"projection rank {r} outside 1..{traj.n}")
    if r == traj.n and traj._spectra is not None:
        return traj._spectra.copy()
    return eigvalsh(traj.states[:, :r, :r])


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


def projected_trace_curve(traj: FlowTrajectory, r: int, f: str, alpha: float = 1.0) -> np.ndarray:
    """Curve t -> tr f(E_r^T X(t)^alpha E_r).  alpha != 1 requires SPD
    states (QR flow); f tags a nondecreasing function in SCALAR_FUNCTIONS,
    applied entrywise to the (states, r) array of block eigenvalues."""
    if not (1 <= r <= traj.n):
        raise DimensionMismatch(f"projection rank {r} outside 1..{traj.n}")
    if f not in SCALAR_FUNCTIONS:
        raise InvalidParameters(f"unknown scalar function tag {f!r}")
    func = SCALAR_FUNCTIONS[f]
    if alpha == 1.0:
        return np.sum(func(projected_eigenvalues(traj, r)), axis=1)
    # sym_eig's guards over the stack, before the power is taken; the first failing state raises
    sym, err = _validate_sym_stack(traj.states)
    powered = _checked(_spectral_apply(*_sym_eig_stack(sym), lambda w: w**alpha), err)
    return np.sum(func(eigvalsh(powered[:, :r, :r])), axis=1)


def preorder_monitor(traj1: FlowTrajectory, traj2: FlowTrajectory, f: str, r: int, alpha: float = 1.0) -> bool:
    """Check the half-space preorder behaviour of two projected flows.

    Both projected trace curves tr f(X_r(t)) must be nondecreasing, and
    when the initial full traces satisfy tr(X(0) - Xhat(0)) >= 0 the gap
    between the curves must stay above that initial trace difference,
    both up to MONOTONE_TOL.  A NaN in either comparison fails it.
    """
    if traj1.times.shape != traj2.times.shape or not np.allclose(traj1.times, traj2.times, atol=1e-12):
        raise MismatchedTrajectories("time grids differ")
    if traj1.n != traj2.n:
        raise MismatchedTrajectories("dimensions differ")
    c1 = projected_trace_curve(traj1, r, f, alpha=alpha)
    c2 = projected_trace_curve(traj2, r, f, alpha=alpha)
    if not (_worst_step(c1) >= -MONOTONE_TOL and _worst_step(c2) >= -MONOTONE_TOL):
        return False
    delta0 = float(np.trace(traj1.states[0]) - np.trace(traj2.states[0]))
    return bool(delta0 < 0.0 or np.min(c1 - c2) >= delta0 - MONOTONE_TOL)


def trajectory_csv(traj: FlowTrajectory) -> str:
    """CSV export: header t,a11,...,ann (row-major, symmetric entries
    duplicated), entries written with 17 significant digits."""
    n = traj.n
    lines = [",".join(["t"] + [f"a{i + 1}{j + 1}" for i in range(n) for j in range(n)])]
    for t, state in zip(traj.times, traj.states):
        lines.append(",".join([f"{t:.17g}"] + [f"{v:.17g}" for v in state.reshape(-1)]))
    return "\n".join(lines) + "\n"
