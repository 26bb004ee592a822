import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from spdorders import (
    integrate_flow,
    preorder_monitor,
    projected_eigenvalues,
    random_spd,
    skew_projection,
    sym_eig,
)
from spdorders.core import derive_rng, random_sym
from spdorders.errors import (
    DimensionMismatch,
    InvalidParameters,
    MismatchedTrajectories,
    SpectrumDrift,
)
from spdorders.flows import (
    MAX_STATE_ENTRIES,
    FlowTrajectory,
    SCALAR_FUNCTIONS,
    _check_state_budget,
    _lax_field,
    projected_monotonicity,
    projected_trace_curve,
    trajectory_csv,
)


def tridiagonal(diag, off):
    n = len(diag)
    m = np.diag(np.asarray(diag, dtype=float))
    for i in range(n - 1):
        m[i, i + 1] = m[i + 1, i] = off[i]
    return m


def start(kind, n, seed):
    return random_sym(n, seed, scale=0.5) if kind == "toda" else random_spd(n, seed, scale=0.35).entries


def reference_rk4(kind, x0, t_end, step):
    """The RK4 loop with the field code as it stood before the skew mask was
    cached and log S was formed as (v * log w) @ v.T: per-call np.tril,
    an explicit diagonal matrix, a copy of every state, and the drift
    monitor run after every step, raising at the first state that fails."""

    def skew(a):
        lower = np.tril(a, k=-1)
        return lower - lower.T

    def field(x):
        if kind == "qr":
            w, v = np.linalg.eigh(x)
            if w[0] <= 0:
                raise SpectrumDrift("state left the positive definite cone; step too large")
            x_log = v @ np.diag(np.log(w)) @ v.T
            return x @ skew(x_log) - skew(x_log) @ x
        return x @ skew(x) - skew(x) @ x

    x = np.array(x0, dtype=float)
    initial_spectrum = np.linalg.eigvalsh(x)
    max_drift = 0.0
    times, states = [0.0], [x.copy()]
    t = 0.0
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
                drift = float(np.max(np.abs(np.linalg.eigvalsh(x) - initial_spectrum)))
            except np.linalg.LinAlgError:
                drift = math.nan
            t = t + h
            if not drift <= 1e-5:
                raise SpectrumDrift(f"eigenvalue drift {drift:.3e} exceeds 1.0e-05 at t={t:.6g}")
            max_drift = max(max_drift, drift)
            times.append(t)
            states.append(x.copy())
    return np.array(times), np.array(states), max_drift


def closed_form(kind, x0, t):
    """Symes' QR-factorization solution: X(t) = Q^T X0 Q where exp(t G0) = QR,
    R with a positive diagonal, and G0 = X0 (Toda) or log S0 (QR flow, so
    exp(t G0) = S0^t).  Q^T Q' is skew with the strict lower triangle of
    Q^T G0 Q, the triangle skew_projection keeps."""
    w, v = np.linalg.eigh(x0)
    g = w if kind == "toda" else np.log(w)
    q, r = np.linalg.qr((v * np.exp(t * g)) @ v.T)
    q = q * np.sign(np.diag(r))
    return q.T @ x0 @ q


def hexes(a):
    a = np.asarray(a)
    return a.shape, [float(v).hex() for v in a.ravel()]


class TestSkewProjection:
    def test_two_by_two(self):
        out = skew_projection(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(out, np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_diagonal_maps_to_zero(self):
        assert np.array_equal(skew_projection(np.diag([3.0, -1.0, 2.0])), np.zeros((3, 3)))

    def test_exactly_skew(self):
        x = random_sym(5, 3)
        out = skew_projection(x)
        assert np.array_equal(out, -out.T)

    @pytest.mark.parametrize("shape", [(2, 4, 4), (3, 3, 3)])
    def test_stack_matches_each_matrix_alone(self, shape):
        # a (3, 3, 3) stack is the case where reversing every axis still broadcasts
        xs = np.stack([random_sym(shape[1], derive_rng(40, k)) for k in range(shape[0])])
        out = skew_projection(xs)
        assert out.shape == shape
        for x, row in zip(xs, out):
            assert hexes(row) == hexes(skew_projection(x))

    def test_matrix_bits_unchanged(self):
        for n in range(1, 6):
            x = random_sym(n, derive_rng(41, n))
            lower = np.tril(x, k=-1)
            assert hexes(skew_projection(x)) == hexes(lower - lower.T)

    def test_commutator_example(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = skew_projection(x)
        comm = x @ p - p @ x
        assert np.array_equal(comm, np.array([[2.0, 0.0], [0.0, -2.0]]))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_product_field_is_the_commutator(self, n):
        # B X = -(X B)^T must hold bit for bit in this BLAS for P + P^T to equal X B - B X
        for seed in range(5):
            x = random_sym(n, seed)
            s = random_spd(n, seed)
            w, v = np.linalg.eigh(s.entries)
            for kind, y, g in (("toda", x, x), ("qr", s.entries, (v * np.log(w)) @ v.T)):
                b = skew_projection(g)
                p = y @ b
                commutator = y @ b - b @ y
                assert hexes(p + p.T) == hexes(commutator)
                assert hexes(_lax_field(kind, n)(y)) == hexes(commutator)


class TestIntegration:
    def test_diagonal_is_stationary(self):
        x0 = np.diag([3.0, 1.0, -2.0])
        traj = integrate_flow("toda", x0, t_end=1.0, step=0.01)
        assert np.allclose(traj.states[-1], x0, atol=1e-14)

    def test_times_strictly_increasing_and_symmetric_states(self):
        x0 = random_sym(4, 8)
        traj = integrate_flow("toda", x0, t_end=0.5, step=0.01)
        assert np.all(np.diff(traj.times) > 0)
        for state in traj.states:
            assert np.max(np.abs(state - state.T)) <= 1e-12

    def test_isospectral_toda(self):
        x0 = random_sym(5, 12)
        traj = integrate_flow("toda", x0, t_end=2.0, step=1e-3)
        assert traj.spectrum_drift() <= 1e-6

    def test_isospectral_qr(self):
        sigma = random_spd(5, 4, scale=0.6)
        traj = integrate_flow("qr", sigma, t_end=2.0, step=1e-3)
        assert traj.spectrum_drift() <= 1e-6
        # positive definiteness is conserved along the QR flow
        for state in traj.states[:: len(traj.states) // 20]:
            assert np.linalg.eigvalsh(state)[0] > 0

    @pytest.mark.parametrize("kind", ["toda", "qr"])
    def test_drift_is_the_running_maximum_over_states(self, kind):
        x0 = random_sym(4, 3) if kind == "toda" else random_spd(4, 3, scale=0.6)
        traj = integrate_flow(kind, x0, t_end=0.3, step=1e-2)
        drift = 0.0
        for state in traj.states:  # the per-state eigenvalue pass, bit for bit
            drift = max(drift, float(np.max(np.abs(np.linalg.eigvalsh(state) - traj.initial_spectrum))))
        assert traj.spectrum_drift().hex() == drift.hex()
        assert drift > 0.0

    @pytest.mark.parametrize("t_end, step, steps", [(1e-13, 1e-3, 1), (1e-13, 1e-14, 10), (5e-12, 1e-12, 5)])
    def test_tiny_horizons_reach_t_end(self, t_end, step, steps):
        # the loop stops within 1e-12 t_end of t_end, whatever the scale of t_end
        traj = integrate_flow("toda", random_sym(3, 1), t_end=t_end, step=step)
        assert len(traj.times) == 1 + steps
        assert abs(traj.times[-1] - t_end) <= 1e-12 * t_end
        assert traj.spectrum_drift() <= 1e-12

    def test_oversized_step_raises_drift(self):
        x0 = 10.0 * random_sym(4, 2)
        with pytest.raises(SpectrumDrift):
            integrate_flow("toda", x0, t_end=5.0, step=0.5)

    def test_qr_requires_spd(self):
        from spdorders.errors import NotPositiveDefinite

        with pytest.raises(NotPositiveDefinite):
            integrate_flow("qr", np.diag([1.0, -1.0]), t_end=0.1, step=0.01)

    @pytest.mark.parametrize(
        "t_end, step", [(1.0, np.nan), (np.nan, 0.1), (np.inf, 0.1), (1.0, np.inf), (1.0, -np.inf)]
    )
    def test_non_finite_parameters_rejected(self, t_end, step):
        with pytest.raises(InvalidParameters):
            integrate_flow("toda", np.eye(2), t_end=t_end, step=step)

    @pytest.mark.parametrize("kind, n", [("toda", 2), ("toda", 3), ("qr", 2), ("qr", 3)])
    def test_overflowing_step_raises_drift_without_warnings(self, kind, n):
        # toda at n=2 used to end with a NaN drift that passed the monitor,
        # at n=3 with LAPACK rejecting the non-finite state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectrumDrift):
                integrate_flow(kind, start(kind, n, 0), t_end=1e150, step=1e150)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameters):
            integrate_flow("toda", np.eye(2), t_end=0.0, step=0.1)
        with pytest.raises(InvalidParameters):
            integrate_flow("nope", np.eye(2), t_end=1.0, step=0.1)

    def test_toda_sorts_tridiagonal_input(self):
        x0 = tridiagonal([1.0, 3.0, -1.0, 2.0], [0.8, 0.5, 0.9])
        traj = integrate_flow("toda", x0, t_end=25.0, step=5e-3)
        final = traj.states[-1]
        offdiag = final - np.diag(np.diag(final))
        assert np.linalg.norm(offdiag) <= 1e-2
        target = np.sort(sym_eig(x0).eigenvalues)[::-1]  # largest settles top-left
        assert np.allclose(np.diag(final), target, atol=1e-2)

    def test_step_halving_is_fourth_order(self):
        x0 = random_sym(4, 21)
        h = 0.02
        coarse = integrate_flow("toda", x0, t_end=1.0, step=h).states[-1]
        medium = integrate_flow("toda", x0, t_end=1.0, step=h / 2).states[-1]
        reference = integrate_flow("toda", x0, t_end=1.0, step=h / 4).states[-1]
        e1 = np.linalg.norm(coarse - reference)
        e2 = np.linalg.norm(medium - reference)
        assert 8.0 <= e1 / e2 <= 32.0


class TestStateBudget:
    def test_unbounded_horizon_rejected_before_any_step(self):
        with pytest.raises(InvalidParameters, match="state entries"):
            integrate_flow("toda", np.eye(2), t_end=1e9, step=1e-9)

    def test_admits_criterion_09(self):
        _check_state_budget(10.0, 1e-3, 8)  # 10,001 states at n=8

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_cap_is_exact(self, n):
        steps = MAX_STATE_ENTRIES // (n * n) - 2  # ceil(t_end / step) + 2 states
        _check_state_budget(float(steps), 1.0, n)
        with pytest.raises(InvalidParameters):
            _check_state_budget(float(steps + 1), 1.0, n)

    @pytest.mark.parametrize("t_end, step", [(1e300, 1e-300), (1.0, 5e-324)])
    def test_overflowing_ratio_rejected(self, t_end, step):
        with pytest.raises(InvalidParameters):
            _check_state_budget(t_end, step, 1)

    def test_budget_counts_the_last_tiny_step(self):
        # replays the loop's arithmetic: the rounded sum of 100,000 steps
        # of 1e-5 falls short of 1, so the loop takes one more tiny step
        t_end, step, t, states = 1.0, 1e-5, 0.0, 1
        while t < t_end - 1e-12 * max(t_end, 1.0):
            t = t + min(step, t_end - t)
            states += 1
        assert states == math.ceil(t_end / step) + 2 == 100_002
        assert _check_state_budget(t_end, step, 2) == states

    def test_states_are_stored_without_a_second_copy(self):
        x0 = random_sym(8, 5, scale=0.5)
        tracemalloc.start()
        try:
            traj = integrate_flow("toda", x0, t_end=3.0, step=1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.states.shape == (3001, 8, 8)
        assert peak <= 1.2 * traj.states.nbytes


class TestClosedForm:
    @pytest.mark.parametrize("kind", ["toda", "qr"])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_rk4_matches_the_qr_factorization_solution(self, kind, n):
        # measured: at most 3.9e-12 over seeds 0-19, at n = 8 for Toda
        for seed in (0, 1):
            x0 = start(kind, n, seed)
            traj = integrate_flow(kind, x0, t_end=0.5, step=1e-3)
            for t, state in zip(traj.times[::100], traj.states[::100]):
                assert np.abs(state - closed_form(kind, x0, t)).max() <= 1e-11
            assert np.abs(traj.states[-1] - closed_form(kind, x0, 0.5)).max() <= 1e-11


class TestStoredTrajectory:
    @pytest.mark.parametrize("kind", ["toda", "qr"])
    def test_states_and_spectra_are_read_only(self, kind):
        traj = integrate_flow(kind, start(kind, 4, 3), t_end=0.05, step=1e-3)
        for stored in (traj.states, traj._spectra):
            assert not stored.flags.writeable
            with pytest.raises(ValueError):
                stored[0, 0] = 0.0

    @pytest.mark.parametrize("kind", ["toda", "qr"])
    def test_full_rank_eigenvalues_are_a_fresh_copy_of_the_drift_spectra(self, kind):
        traj = integrate_flow(kind, start(kind, 5, 4), t_end=0.3, step=1e-3)  # 301 states: three drift blocks
        first = projected_eigenvalues(traj, 5)
        assert hexes(first) == hexes(np.linalg.eigvalsh(traj.states))
        assert first.flags.writeable
        first[:] = 0.0
        assert hexes(projected_eigenvalues(traj, 5)) == hexes(np.linalg.eigvalsh(traj.states))
        built = dataclasses.replace(traj, _spectra=None)  # a trajectory built by hand has no stored spectra
        assert hexes(projected_eigenvalues(built, 5)) == hexes(np.linalg.eigvalsh(traj.states))


CASES = [(kind, n, seed) for kind in ("toda", "qr") for n in (1, 2, 3, 5, 8) for seed in (0, 1)]


class TestBitIdentity:
    """The lean step and the stacked monitors against the loops they replaced."""

    @pytest.mark.parametrize("kind, n, seed", CASES)
    def test_states_match_reference_loop(self, kind, n, seed):
        x0 = start(kind, n, seed)
        traj = integrate_flow(kind, x0, t_end=0.1, step=1e-3)
        times, states, max_drift = reference_rk4(kind, x0, 0.1, 1e-3)
        assert hexes(traj.times) == hexes(times)
        assert hexes(traj.states) == hexes(states)
        assert traj.max_drift.hex() == max_drift.hex()

    @pytest.mark.parametrize("kind, x0, t_end, step", [
        ("toda", 10.0 * random_sym(4, 2), 5.0, 0.5),
        # a weak coupling swaps the diagonal late: the drift fails at state 314 (toda), 158 (qr)
        ("toda", np.array([[1.0, 1e-12], [1e-12, 100.0]]), 1.0, 1e-3),
        ("qr", np.array([[1.0, 1e-8], [1e-8, 1e4]]), 16.0, 0.016),
        ("qr", random_spd(4, 6).entries, 40.0, 1.3),  # a stage leaves the positive definite cone
        ("toda", 1e150 * random_sym(3, 1), 1.0, 1e-3),  # the first step overflows
        ("toda", start("toda", 3, 0), 1e150, 1e150),
        ("qr", start("qr", 3, 0), 1e150, 1e150),
    ], ids=["toda-step", "toda-late", "qr-late", "qr-cone-exit", "toda-overflow", "toda-huge-step", "qr-huge-step"])
    def test_oversized_step_raises_as_the_per_step_monitor(self, kind, x0, t_end, step):
        with pytest.raises(SpectrumDrift) as expected:
            reference_rk4(kind, x0, t_end, step)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectrumDrift) as raised:
                integrate_flow(kind, x0, t_end, step)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("kind, n, seed", CASES)
    def test_projected_eigenvalues_match_per_state_loop(self, kind, n, seed):
        traj = integrate_flow(kind, start(kind, n, seed), t_end=0.1, step=1e-3)
        for r in range(1, n + 1):
            loop = np.array([np.linalg.eigvalsh(state[:r, :r]) for state in traj.states])
            assert hexes(projected_eigenvalues(traj, r)) == hexes(loop)

    @pytest.mark.parametrize("kind, n, seed", CASES)
    def test_projected_trace_curve_matches_per_state_loop(self, kind, n, seed):
        traj = integrate_flow(kind, start(kind, n, seed), t_end=0.03, step=1e-3)
        for tag, func in SCALAR_FUNCTIONS.items():
            for alpha in (1.0, 0.5, 2.0) if kind == "qr" else (1.0,):
                for r in sorted({1, (n + 1) // 2, n}):
                    loop = np.empty(len(traj.times))
                    for idx, state in enumerate(traj.states):
                        if alpha != 1.0:
                            state = sym_eig(state).apply(lambda w: w**alpha)
                        loop[idx] = float(np.sum(func(np.linalg.eigvalsh(state[:r, :r]))))
                    assert hexes(projected_trace_curve(traj, r, tag, alpha=alpha)) == hexes(loop)


class TestProjections:
    def test_full_projection_is_constant(self):
        x0 = random_sym(4, 5)
        traj = integrate_flow("toda", x0, t_end=1.0, step=1e-2)
        curves = projected_eigenvalues(traj, 4)
        assert np.max(np.abs(curves - curves[0])) <= 1e-8

    def test_curves_nondecreasing(self):
        x0 = random_sym(5, 9)
        traj = integrate_flow("toda", x0, t_end=3.0, step=1e-3)
        for r in range(1, 6):
            curves = projected_eigenvalues(traj, r)
            assert np.min(np.diff(curves, axis=0)) >= -1e-8

    def test_rank_one_is_the_corner_entry(self):
        x0 = random_sym(4, 10)
        traj = integrate_flow("toda", x0, t_end=1.0, step=1e-2)
        curves = projected_eigenvalues(traj, 1)
        assert np.allclose(curves[:, 0], traj.states[:, 0, 0])
        assert np.min(np.diff(curves[:, 0])) >= -1e-8

    def test_rank_validation(self):
        traj = integrate_flow("toda", random_sym(3, 1), t_end=0.1, step=0.01)
        with pytest.raises(DimensionMismatch):
            projected_eigenvalues(traj, 4)


class TestPreorderMonitor:
    def test_identical_initial_conditions(self):
        x0 = random_sym(4, 3)
        t1 = integrate_flow("toda", x0, t_end=1.0, step=1e-2)
        t2 = integrate_flow("toda", x0, t_end=1.0, step=1e-2)
        assert preorder_monitor(t1, t2, "exp", 3)

    def test_identity_function_full_rank_constant(self):
        # with f = identity and r = n both curves are conserved traces
        a = random_sym(4, 6)
        b = random_sym(4, 7)
        if np.trace(a) < np.trace(b):
            a, b = b, a
        t1 = integrate_flow("toda", a, t_end=1.0, step=1e-2)
        t2 = integrate_flow("toda", b, t_end=1.0, step=1e-2)
        c1 = projected_trace_curve(t1, 4, "identity")
        assert np.max(np.abs(c1 - c1[0])) <= 1e-9
        assert preorder_monitor(t1, t2, "identity", 4)

    def test_exponential_monitor_on_ordered_traces(self):
        a = random_sym(4, 11)
        b = a - 0.1 * np.eye(4)  # tr(a - b) = 0.4 > 0
        t1 = integrate_flow("toda", a, t_end=5.0, step=5e-3)
        t2 = integrate_flow("toda", b, t_end=5.0, step=5e-3)
        assert preorder_monitor(t1, t2, "exp", 3)

    def test_qr_power_monitors(self):
        # the half-space monitor holds for powers of the QR flow state
        sigma = random_spd(4, 15, scale=0.5)
        traj = integrate_flow("qr", sigma, t_end=2.0, step=2e-3)
        for alpha in (0.5, 1.0, 2.0):
            for r in (1, 2, 3):
                curve = projected_trace_curve(traj, r, "exp", alpha=alpha)
                assert np.min(np.diff(curve)) >= -1e-8

    def test_single_state_trajectories(self):
        # the initial state alone, stored as integrate_flow stores it
        def single_state(x):
            spectrum = np.linalg.eigvalsh(x)
            return FlowTrajectory(np.zeros(1), x[None], "toda", 1e-3, spectrum, _spectra=spectrum[None])

        x0 = random_sym(3, 4)
        one, up = single_state(x0), single_state(x0 + np.eye(3))
        assert projected_monotonicity(one, 2) == (True, 0.0)
        assert preorder_monitor(one, one, "exp", 2)
        # tr(up - one) = 3 at t = 0, but the leading 2 x 2 traces differ by 2
        assert not preorder_monitor(up, one, "identity", 2)
        assert preorder_monitor(up, one, "identity", 3)

    def test_infinite_curves_fail(self):
        # exp overflows on every state, so each curve is all inf and its steps are NaN
        x0 = random_sym(3, derive_rng(1)) + 800.0 * np.eye(3)
        t1 = integrate_flow("toda", x0, t_end=0.05, step=1e-3)
        t2 = integrate_flow("toda", x0 - 0.5 * np.eye(3), t_end=0.05, step=1e-3)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isinf(projected_trace_curve(t1, 2, "exp")).all()
            assert preorder_monitor(t1, t2, "exp", 2) is False

    def test_mismatched_grids_rejected(self):
        x0 = random_sym(3, 2)
        t1 = integrate_flow("toda", x0, t_end=1.0, step=1e-2)
        t2 = integrate_flow("toda", x0, t_end=1.0, step=2e-2)
        with pytest.raises(MismatchedTrajectories):
            preorder_monitor(t1, t2, "exp", 2)

    def test_unknown_scalar_tag(self):
        x0 = random_sym(3, 2)
        t1 = integrate_flow("toda", x0, t_end=0.1, step=1e-2)
        with pytest.raises(InvalidParameters):
            projected_trace_curve(t1, 2, "sinh?")

    def test_scalar_function_is_a_tag_not_a_callable(self):
        t1 = integrate_flow("toda", random_sym(3, 2), t_end=0.1, step=1e-2)
        with pytest.raises(InvalidParameters):
            projected_trace_curve(t1, 2, np.exp)
        with pytest.raises(InvalidParameters):
            preorder_monitor(t1, t1, np.exp, 2)


class TestCsvExport:
    def test_header_and_digits(self):
        traj = integrate_flow("toda", random_sym(2, 5), t_end=0.05, step=0.01)
        text = trajectory_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,a11,a12,a21,a22"
        assert len(lines) == len(traj.times) + 1
        cells = lines[2].split(",")
        parsed = np.array([float(c) for c in cells[1:]]).reshape(2, 2)
        assert np.array_equal(parsed, traj.states[1])  # 17 digits round-trips exactly
