import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdorders import (
    SpdMatrix,
    SymTangent,
    congruence,
    matrix_function,
    random_spd,
    spd_validate,
    sym_eig,
)
import spdorders
from spdorders import core
from spdorders.core import (
    MAX_DIM,
    SYM_RTOL,
    SpdStack,
    Spectrum,
    _validate_spd_stack,
    _validate_sym_stack,
    derive_rng,
    random_sym,
    sym_exp,
)
from spdorders.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidParameters,
    NotPositiveDefinite,
    NotSymmetric,
    SingularTransform,
)
from spdorders.seeds import (
    MAX_VECTOR_WORDS,
    MIN_VECTOR_ROWS,
    _standard_normals,
    _subset,
    _uniforms,
    derive_seed_words,
    seeded_rngs,
    seeded_streams,
)
from spdorders.streams import Streams

seeds = st.integers(min_value=0, max_value=2**32 - 1)
non_finite = pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])


def eig2x2(a, b, c):
    # closed-form eigenvalues of [[a, b], [b, c]], the test-side oracle
    mid = 0.5 * (a + c)
    rad = math.sqrt(0.25 * (a - c) ** 2 + b * b)
    return mid - rad, mid + rad


class TestValidation:
    def test_identity_accepted(self):
        m = spd_validate(np.eye(2))
        assert m.n == 2
        assert np.array_equal(m.entries, np.eye(2))

    def test_indefinite_rejected(self):
        # oracle: eigenvalues of [[1,2],[2,1]] are 1 -+ 2 = (-1, 3)
        lo, hi = eig2x2(1.0, 2.0, 1.0)
        assert (lo, hi) == (-1.0, 3.0)
        with pytest.raises(NotPositiveDefinite):
            spd_validate([[1.0, 2.0], [2.0, 1.0]])

    def test_tiny_asymmetry_symmetrized(self):
        m = spd_validate([[1.0, 1e-15], [0.0, 1.0]])
        assert np.array_equal(m.entries, m.entries.T)
        assert m.entries[0, 1] == 0.5e-15

    def test_large_asymmetry_rejected(self):
        with pytest.raises(NotSymmetric):
            spd_validate([[1.0, 0.1], [0.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            spd_validate(np.ones((2, 3)))

    def test_near_singular_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            spd_validate(np.diag([1.0, 1e-14]))

    def test_dimension_cap(self):
        with pytest.raises(InvalidParameters):
            spd_validate(np.eye(65))

    @non_finite
    def test_non_finite_rejected(self, bad):
        for raw in ([[1.0, bad], [bad, 1.0]], [[1.0, 0.0], [0.0, bad]]):
            with pytest.raises(InvalidParameters, match="finite"):
                spd_validate(raw)


class TestSymEig:
    def test_diagonal(self):
        spec = sym_eig(np.diag([3.0, 1.0]))
        assert np.allclose(spec.eigenvalues, [1.0, 3.0])

    def test_offdiagonal(self):
        # oracle: [[0,1],[1,0]] has eigenvalues -+1
        assert eig2x2(0.0, 1.0, 0.0) == (-1.0, 1.0)
        spec = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_identity(self, n):
        assert np.allclose(sym_eig(np.eye(n)).eigenvalues, 1.0)

    @non_finite
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidParameters, match="finite"):
            sym_eig(np.array([[bad, 1.0], [1.0, 0.0]]))

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        spec = sym_eig(a)
        assert np.all(np.diff(spec.eigenvalues) >= 0)
        v = spec.eigenvectors
        assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-10
        recon = v @ np.diag(spec.eigenvalues) @ v.T
        assert np.linalg.norm(recon - a) <= 1e-10 * max(np.linalg.norm(a), 1e-30)


class TestMatrixFunctions:
    def test_sqrt_diagonal(self):
        out = matrix_function(spd_validate(np.diag([4.0, 9.0])), "sqrt")
        assert np.allclose(out.entries, np.diag([2.0, 3.0]))

    def test_log_identity(self):
        out = matrix_function(spd_validate(np.eye(3)), "log")
        assert np.allclose(out.entries, 0.0)

    def test_cube_root_scalar(self):
        out = matrix_function(spd_validate([[8.0]]), "power", 1.0 / 3.0)
        assert np.allclose(out.entries, [[2.0]])

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_sqrt_squares_back(self, seed):
        sigma = random_spd(4, seed, scale=0.8)
        root = matrix_function(sigma, "sqrt").entries
        err = np.linalg.norm(root @ root - sigma.entries) / np.linalg.norm(sigma.entries)
        assert err <= 1e-9

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_exp_log_roundtrip(self, seed):
        sigma = random_spd(3, seed, scale=0.8)
        back = sym_exp(matrix_function(sigma, "log"))
        err = np.linalg.norm(back.entries - sigma.entries) / np.linalg.norm(sigma.entries)
        assert err <= 1e-9

    @pytest.mark.parametrize("r", [-3.0, -1.2, -0.5, 0.5, 1.7, 3.0])
    def test_power_inverse_pairs(self, r):
        sigma = random_spd(4, 11, scale=0.7)
        prod = matrix_function(sigma, "power", r).entries @ matrix_function(sigma, "power", -r).entries
        assert np.linalg.norm(prod - np.eye(4)) <= 1e-9

    def test_inv_matches_solve(self):
        sigma = random_spd(5, 3, scale=0.6)
        inv = matrix_function(sigma, "inv").entries
        assert np.allclose(inv @ sigma.entries, np.eye(5), atol=1e-10)

    @pytest.mark.parametrize("x", [800.0 * np.eye(2), np.diag([800.0, -800.0])])
    def test_exponential_past_the_float_range_fails_its_guard(self, x):
        # SpdMatrix's finiteness guard decides, not an overflow warning
        with pytest.raises(InvalidParameters, match="finite"):
            sym_exp(x)


class TestCongruence:
    def test_identity_transform(self):
        sigma = random_spd(3, 1)
        out = congruence(np.eye(3), sigma)
        assert np.allclose(out.entries, sigma.entries)

    def test_scaling_transform(self):
        out = congruence(2.0 * np.eye(2), spd_validate(np.eye(2)))
        assert np.allclose(out.entries, 4.0 * np.eye(2))

    def test_maps_one_point_onto_another(self):
        # A = s2^{1/2} s1^{-1/2} carries s1 to s2
        for seed in range(10):
            s1 = random_spd(4, seed, 0.7)
            s2 = random_spd(4, seed + 100, 0.7)
            a = matrix_function(s2, "sqrt").entries @ matrix_function(s1, "power", -0.5).entries
            out = congruence(a, s1)
            err = np.linalg.norm(out.entries - s2.entries) / np.linalg.norm(s2.entries)
            assert err <= 1e-9

    def test_composition(self):
        rng = np.random.default_rng(5)
        sigma = random_spd(4, 2)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        lhs = congruence(a, congruence(b, sigma)).entries
        rhs = congruence(a @ b, sigma).entries
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) <= 1e-9

    def test_inertia_preserved(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            sigma = random_spd(3, int(rng.integers(1 << 30)), 0.8)
            a = rng.standard_normal((3, 3))
            assert np.all(np.linalg.eigvalsh(congruence(a, sigma).entries) > 0)

    def test_singular_rejected(self):
        sigma = random_spd(2, 0)
        with pytest.raises(SingularTransform):
            congruence(np.array([[1.0, 1.0], [1.0, 1.0]]), sigma)

    @non_finite
    def test_non_finite_transform_rejected(self, bad):
        with pytest.raises(InvalidParameters, match="finite"):
            congruence(np.array([[1.0, bad], [0.0, 1.0]]), random_spd(2, 0))


class TestRandomSpd:
    def test_deterministic(self):
        a = random_spd(3, 42)
        b = random_spd(3, 42)
        assert np.array_equal(a.entries, b.entries)

    def test_zero_scale_gives_identity(self):
        assert np.allclose(random_spd(4, 7, scale=0.0).entries, np.eye(4), atol=1e-14)

    def test_always_validates(self):
        # property: every draw passes spd_validate
        for seed in range(1000):
            sigma = random_spd(3, seed, scale=0.5)
            spd_validate(sigma.entries)

    def test_seeds_differ(self):
        assert not np.array_equal(random_spd(3, 1).entries, random_spd(3, 2).entries)

    # n = 2**62 is far past any allocation; numpy would refuse its size at once
    @pytest.mark.parametrize("n", [MAX_DIM + 1, 2**62])
    @pytest.mark.parametrize("draw", [random_spd, random_sym])
    def test_dimension_cap_before_drawing(self, n, draw):
        with pytest.raises(InvalidParameters, match=f"dimension {n} above desk-scale cap {MAX_DIM}"):
            draw(n, 0)

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("draw", [random_spd, random_sym])
    def test_dimension_below_one(self, n, draw):
        with pytest.raises(InvalidParameters, match="dimension must be >= 1"):
            draw(n, 0)

    # 2.5 used to reach np.full and raise a TypeError; True passed as 1
    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
    @pytest.mark.parametrize("draw", [random_spd, random_sym])
    def test_dimension_must_be_an_integer(self, n, draw):
        with pytest.raises(InvalidParameters, match="dimension must be an integer"):
            draw(n, 0)

    def test_numpy_integer_dimension(self):
        assert random_spd(np.int64(3), 0).n == 3


class TestSpdStack:
    def _stack(self):
        sigma = random_spd(3, 1)
        w, v = sigma._eig
        # the middle row's eigenvector columns have norm 2: not orthogonal
        return SpdStack(np.stack([sigma.entries] * 3), np.stack([w] * 3), np.stack([v, 2.0 * v, v]))

    def test_orthogonality_guard_raises(self):
        stack = self._stack()
        for _ in range(2):  # a failing stack is not marked as checked
            with pytest.raises(ConvergenceFailure, match="eigenvector matrix not orthogonal"):
                stack.spectrum()

    def test_slice_guards_its_own_rows(self):
        stack = self._stack()
        assert stack[:3] is stack and stack[0:] is stack
        with pytest.raises(ConvergenceFailure, match="not orthogonal"):
            stack[:2].spectrum()
        for rows in (stack[:1], stack[2:]):
            w, v = rows.spectrum()
            assert w is rows.eigenvalues and v is rows.eigenvectors and len(w) == 1

    @staticmethod
    def _count_spectral_applies(monkeypatch):
        """Record the row count of every core._spectral_apply call."""
        import spdorders.core as core

        calls, real = [], core._spectral_apply

        def counting(w, v, f):
            calls.append(len(w))
            return real(w, v, f)

        monkeypatch.setattr(core, "_spectral_apply", counting)
        return calls, real

    def test_roots_are_built_once_per_stack(self, monkeypatch):
        from spdorders.core import _validate_spd_stack

        stack, _ = _validate_spd_stack(np.stack([random_spd(3, seed, 0.8).entries for seed in range(4)]))
        calls, real = self._count_spectral_applies(monkeypatch)
        for view in (stack, stack, stack[:]):
            root, inv = view.root(0.5), view.root(-0.5)
        assert calls == [4, 4]
        w, v = stack.spectrum()
        assert root.tobytes() == real(w, v, np.sqrt).tobytes() and not root.flags.writeable
        assert inv.tobytes() == real(w, v, lambda w: 1.0 / np.sqrt(w)).tobytes() and not inv.flags.writeable
        # a strict slice is a new stack, with roots of its own
        assert stack[1:].root(0.5).tobytes() == root[1:].tobytes() and calls == [4, 4, 3]

    def test_a_point_builds_its_roots_once(self, monkeypatch):
        from spdorders import order_compare, quadratic_affine, riemannian_exp
        from spdorders.geometry import relative_eigenframe

        s1, s2 = random_spd(3, 1, 0.8), random_spd(3, 2, 0.8)
        builds, root = [], SpdStack.root

        def counting(stack, power):  # a power not yet in the stack's cache is built now
            if power not in stack._roots:
                builds.append((stack, power))
            return root(stack, power)

        monkeypatch.setattr(SpdStack, "root", counting)
        for _ in range(3):
            relative_eigenframe(s1, s2)
            riemannian_exp(s1, 0.1 * np.eye(3))
            order_compare(quadratic_affine(1.5, 3), s1, s2)
        assert sorted(builds, key=lambda b: b[1]) == [(SpdStack.of(s1), -0.5), (SpdStack.of(s1), 0.5)]

    def test_roots_raise_the_guard_error(self):
        stack = self._stack()
        for power in (0.5, -0.5):
            with pytest.raises(ConvergenceFailure, match="not orthogonal"):
                stack.root(power)
        assert stack._roots == {}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [2.0**256, 2.0**300, 2.0**1000, math.inf])
    def test_spectrum_rejects_large_eigenvectors_without_a_warning(self, scale):
        with pytest.raises(ConvergenceFailure, match="not orthogonal"):
            Spectrum(np.ones(2), np.diag([scale, scale]))

    def test_spectrum_uses_the_same_guard(self):
        with pytest.raises(ConvergenceFailure, match="not orthogonal"):
            Spectrum(np.ones(2), 2.0 * np.eye(2))

    def test_point_copies_its_row(self):
        stack = self._stack()
        sigma = stack.point(2)
        assert np.array_equal(sigma.entries, stack.entries[2]) and not np.shares_memory(sigma.entries, stack.entries)
        assert not sigma.entries.flags.writeable


class TestEigenOutputChecks:
    """The checks on LAPACK's own output (orthogonality, reconstruction)
    raise where they run: no valid stack fails them, a faulty eigensolver does."""

    @pytest.mark.filterwarnings("error")
    @given(n=st.integers(1, 8), k=st.integers(-1000, 1000), rows=st.integers(1, 5),
           kind=st.sampled_from(["symmetric", "spd", "near-identity"]), seed=seeds)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_valid_stacks_pass_both_checks(self, n, k, rows, kind, seed):
        rngs = [derive_rng(seed, i) for i in range(rows)]
        if kind == "spd":
            raw = np.stack([random_spd(n, rng, 0.8).entries for rng in rngs])
        else:
            raw = np.stack([random_sym(n, rng) for rng in rngs])
            if kind == "near-identity":
                raw = np.eye(n) + 1e-8 * raw
        sym, err = _validate_sym_stack(np.ldexp(raw, k))
        assert err is None
        w, v = core._sym_eig_stack(sym)
        assert w.shape == (rows, n) and v.shape == (rows, n, n)
        if kind != "symmetric":
            points, err = _validate_spd_stack(sym)
            assert err is None
            w, v = points.spectrum()
            assert len(w) == len(v) == rows

    @pytest.mark.parametrize("fault,message", [
        (lambda w, v: (w, 2.0 * v), "eigenvector matrix not orthogonal"),
        (lambda w, v: (2.0 * w, v), "reconstruction error"),
    ])
    def test_a_faulty_eigensolver_raises_its_check(self, fault, message, monkeypatch, capsys, tmp_path):
        from spdorders.cli import main

        real = core._eigh
        monkeypatch.setattr(core, "_eigh", lambda a: fault(*real(a)))
        for call in (lambda: sym_eig(np.diag([1.0, 2.0])), lambda: random_spd(3, 0)):
            with pytest.raises(ConvergenceFailure, match=message):
                call()
        cone = tmp_path / "cone.json"
        cone.write_text('{"kind": "loewner", "n": 2}')
        assert main(["monotone", "--map", "power:2", "--cone", str(cone), "--points", "2", "--dirs", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


class TestTangent:
    def test_symmetrized_storage(self):
        t = SymTangent([[0.0, 1.0 + 5e-14], [1.0, 0.0]])
        assert np.array_equal(t.entries, t.entries.T)

    def test_base_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            SymTangent(np.zeros((2, 2)), base=random_spd(3, 0))

    @non_finite
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidParameters, match="finite"):
            SymTangent([[0.0, bad], [bad, 0.0]])


class TestOneRowSymmetryGuard:
    # a one-row stack against a two-row stack of the same row
    ROWS = {
        "symmetric": [[2.0, 0.5], [0.5, 1.0]],
        "within_tolerance": [[1.0, 1.0 + 1e-13], [1.0, 3.0]],
        "tiny": [[5e-324, 0.0], [0.0, 1e-300]],
        "huge": [[1e300, -1e299], [-1e299, 1e300]],
        "negative_zero": [[-0.0, 0.0], [0.0, -0.0]],
        "asymmetric": [[1.0, 2.0], [0.0, 1.0]],
        "nan": [[1.0, np.nan], [np.nan, 1.0]],
        "inf": [[np.inf, 0.0], [0.0, 1.0]],
        "minus_inf": [[1.0, 0.0], [0.0, -np.inf]],
    }

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_matches_stacked_rule(self, name):
        row = np.array(self.ROWS[name])
        one, one_err = _validate_sym_stack(row[None])
        two, two_err = _validate_sym_stack(np.stack([row, row]))
        assert one.shape == (min(len(two), 1), 2, 2) and not one.flags.writeable
        assert [v.hex() for v in one.ravel().tolist()] == [v.hex() for v in two[:1].ravel().tolist()]
        assert type(one_err) is type(two_err)
        assert str(one_err) == str(two_err)

    def test_three_by_three_random_rows(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.standard_normal((3, 3))
            a = a + a.T + rng.choice([0.0, 1e-13, 1e-3]) * rng.standard_normal((3, 3))
            one, one_err = _validate_sym_stack(a[None])
            two, two_err = _validate_sym_stack(np.stack([a, a]))
            assert one.tobytes() == two[:len(one)].tobytes() and str(one_err) == str(two_err)


def _reference_sym_rows(a):
    """The symmetry guard one row at a time on Python floats: the
    symmetrized rows before the first failing row, and that row's error."""
    rows = []
    for row in a.tolist():
        entries = [v for line in row for v in line]
        if not all(math.isfinite(v) for v in entries):
            return rows, InvalidParameters("matrix entries must be finite")
        tolerance = SYM_RTOL * (1.0 + max(abs(v) for v in entries))
        n = len(row)
        gap = max(abs(row[i][j] - row[j][i]) for i in range(n) for j in range(n))
        if not gap <= tolerance:
            return rows, NotSymmetric(f"asymmetry {gap:.3e} exceeds tolerance {tolerance:.3e}")
        rows.append([[0.5 * (row[i][j] + row[j][i]) for j in range(n)] for i in range(n)])
    return rows, None


class TestSymmetryGuardAgainstPerRowRule:
    @staticmethod
    def _row(kind, n, rng):
        scale = 10.0 ** rng.integers(-3, 4)
        g = rng.standard_normal((n, n)) * scale
        a = g + g.T
        tolerance = SYM_RTOL * (1.0 + np.abs(a).max())
        if kind == "over":  # just past the row's own tolerance
            a[0, -1] = a[-1, 0] + 1.01 * tolerance
        elif kind == "between":  # past SYM_RTOL, within the row's tolerance
            a = a * (100.0 / np.abs(a).max())
            a[0, -1] = a[-1, 0] + 50.0 * SYM_RTOL
        elif kind in ("nan", "inf", "-inf"):
            a[rng.integers(n), rng.integers(n)] = float(kind)
        return a

    @staticmethod
    def _assert_matches(a):
        sym, err = _validate_sym_stack(a)
        ref, ref_err = _reference_sym_rows(a)
        assert not sym.flags.writeable and sym.shape == (len(ref), *a.shape[1:])
        assert [v.hex() for v in sym.ravel().tolist()] == [v.hex() for row in ref for line in row for v in line]
        assert (type(err), str(err)) == (type(ref_err), str(ref_err))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_mixed_stacks(self, n):
        rng = np.random.default_rng(n)
        kinds = ["symmetric", "symmetric", "between", "over", "nan", "inf", "-inf"]
        for _ in range(300):
            rows = rng.choice(kinds, size=int(rng.integers(1, 7)))
            self._assert_matches(np.array([self._row(kind, n, rng) for kind in rows]))

    @pytest.mark.parametrize("kind", ["symmetric", "between"])
    def test_passing_stacks(self, kind):
        # a "between" stack fails the whole-stack test and passes row by row
        rng = np.random.default_rng(4)
        a = np.array([self._row(kind, 3, rng) for _ in range(8)])
        assert (np.abs(a - a.swapaxes(1, 2)).max() > SYM_RTOL) == (kind == "between")
        self._assert_matches(a)
        assert _validate_sym_stack(a)[1] is None

    def test_empty_stack(self):
        self._assert_matches(np.empty((0, 3, 3)))


class TestHalvesFirstSymmetrization:
    # stacks with an entry >= 2^1023 take 0.5 a + 0.5 a^T, whose sum cannot overflow

    def test_bit_identical_to_the_halved_sum_in_the_normal_range(self):
        rng = np.random.default_rng(7)
        for exponent in range(-300, 301, 25):
            a = rng.standard_normal((40, 3, 3)) * 10.0**exponent
            a = a + a.swapaxes(1, 2) + 1e-14 * 10.0**exponent * rng.standard_normal((40, 3, 3))
            at = a.swapaxes(1, 2)
            assert (0.5 * a + 0.5 * at).tobytes() == (0.5 * (a + at)).tobytes()

    def test_subnormal_entries_keep_the_halved_sum(self):
        # halving first rounds the smallest subnormal away, so only stacks
        # with an entry >= 2^1023 take it
        tiny = np.array([[[1.0, 5e-324], [5e-324, 1.0]]])
        assert (0.5 * tiny + 0.5 * tiny.swapaxes(1, 2))[0, 0, 1] == 0.0
        sym, err = _validate_sym_stack(tiny)
        assert err is None and sym.tobytes() == tiny.tobytes()

    def test_entries_near_the_float_limit_stay_finite(self):
        huge = np.finfo(float).max
        a = np.array([[[1e308, 0.0], [0.0, 1e308]], [[huge, 1e308], [1e308, huge]]])
        sym, err = _validate_sym_stack(a)
        assert err is None and sym.tobytes() == a.tobytes()
        sigma = spd_validate(np.diag([1e308, 1e308]))
        assert np.array_equal(sigma.spectrum.eigenvalues, [1e308, 1e308])

    def test_spectrum_beyond_the_float_range_is_no_verdict(self):
        # det > 0, but lambda_max (about 2.3e308) is not representable
        with pytest.raises(InvalidParameters, match=r"\[2\.19\d*e\+307, inf\] lies beyond the float range"):
            spd_validate([[1e308, 1e308], [1e308, 1.5e308]])

    def test_spectrum_below_the_normal_range_is_no_verdict(self):
        # lambda_max below 2^-1022 leaves the spectrum to gradual underflow;
        # 2^-1000 I keeps every bit, and is SPD
        with pytest.raises(InvalidParameters, match=r"\[1\.0*e-310, 1\.0*e-310\] lies below the normal float range"):
            spd_validate(1e-310 * np.eye(2))
        assert np.array_equal(spd_validate(2.0**-1000 * np.eye(2)).spectrum.eigenvalues, [2.0**-1000] * 2)
        with pytest.raises(NotPositiveDefinite):
            spd_validate(-1e-310 * np.eye(2))

    def test_asymmetry_beyond_the_float_range_fails_without_overflow(self):
        with pytest.raises(NotSymmetric, match="asymmetry inf"):
            spd_validate([[1.0, 1e308], [-1e308, 1.0]])


def _linalg_outcome(f, *args):
    """f's arrays as float.hex (with their shapes), or its LinAlgError message."""
    try:
        out = f(*args)
    except np.linalg.LinAlgError as exc:
        return "LinAlgError", str(exc)
    return [(a.dtype, a.shape, [float.hex(v) for v in a.ravel().tolist()]) for a in (out if isinstance(out, tuple) else (out,))]


class TestLapackEntries:
    # core's eigh, eigvalsh, cholesky and solve call numpy.linalg._umath_linalg,
    # a private numpy module: these fail first if a numpy release changes it
    ENTRIES = [("eigh", np.linalg.eigh), ("eigvalsh", np.linalg.eigvalsh), ("cholesky", np.linalg.cholesky)]
    NAN_DIAGONAL = np.where(np.eye(5) > 0, np.nan, 0.1)  # eigh and eigvalsh report no convergence

    @staticmethod
    def _squares(n, seed):
        """(6, n, n) stacks: random SPD, symmetric indefinite, and SPD at 2^-300 and 2^300."""
        g = np.random.default_rng(seed).standard_normal((2, 6, n, n))
        spd = g[0] @ g[0].swapaxes(1, 2) + 0.1 * np.eye(n)
        indefinite = g[1] + g[1].swapaxes(1, 2)
        return {"spd": spd, "indefinite": indefinite, "tiny": np.ldexp(spd, -300), "huge": np.ldexp(spd, 300)}

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_bit_for_bit_as_numpy(self, n):
        for kind, stack in self._squares(n, n).items():
            b = np.random.default_rng(100 + n).standard_normal((6, 4, n, n))
            for name, reference in self.ENTRIES:
                for a in (stack[0], stack):
                    assert _linalg_outcome(getattr(core, name), a) == _linalg_outcome(reference, a), (kind, name)
            # one matrix, a stack, and monotone's (k, 1, n, n) against (k, m, n, n) broadcast
            for args in ((stack[0], b[0, 0]), (stack, b[:, 0]), (stack[:, None], b)):
                assert _linalg_outcome(core.solve, *args) == _linalg_outcome(np.linalg.solve, *args), kind

    def test_failures_raise_numpys_message(self):
        failing = [
            (core.eigh, np.linalg.eigh, (self.NAN_DIAGONAL,)),
            (core.eigvalsh, np.linalg.eigvalsh, (self.NAN_DIAGONAL,)),
            (core.cholesky, np.linalg.cholesky, (np.diag([1.0, -1.0]),)),
            (core.solve, np.linalg.solve, (np.ones((2, 2)), np.eye(2))),
        ]
        for entry, reference, args in failing:
            expected = _linalg_outcome(reference, *args)
            assert expected[0] == "LinAlgError"
            # as the RK4 loop of integrate_flow calls them, with warnings as errors
            with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
                warnings.simplefilter("error")
                assert _linalg_outcome(entry, *args) == expected

    def test_nan_input_as_numpy(self):
        # numpy raises on some NaN inputs and returns NaN on others; the entries follow it
        singles = [np.full((2, 2), np.nan), np.diag([np.nan, 1.0]), np.diag([1.0, np.nan, 1.0]), self.NAN_DIAGONAL]
        for a in singles:
            for name, reference in self.ENTRIES:
                assert _linalg_outcome(getattr(core, name), a) == _linalg_outcome(reference, a), name
            b = np.eye(len(a))
            assert _linalg_outcome(core.solve, a, b) == _linalg_outcome(np.linalg.solve, a, b)

    def test_calls_leave_the_callers_error_state(self):
        def handler(err, flag):
            pass

        for outer in ({}, {"over": "ignore", "invalid": "ignore"}, {"all": "raise", "call": handler}):
            with np.errstate(**outer):
                before = np.geterr(), np.geterrcall()
                core.eigh(np.eye(3))
                assert (np.geterr(), np.geterrcall()) == before, outer
                with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                    core.cholesky(np.diag([1.0, -1.0]))
                assert (np.geterr(), np.geterrcall()) == before, outer

    def test_threads_keep_their_own_error_state(self):
        # one thread's calls raise while the other's succeed, switching threads often
        barrier, seen = threading.Barrier(2, timeout=30), {}

        def run(name, a, outer):
            with np.errstate(**outer):
                before = np.geterr(), np.geterrcall()
                barrier.wait()
                outcomes = set()
                for _ in range(300):
                    outcomes.add("raised" if _linalg_outcome(core.cholesky, a)[0] == "LinAlgError" else "returned")
                seen[name] = outcomes, (np.geterr(), np.geterrcall()) == before

        threads = [threading.Thread(target=run, args=("raising", np.diag([1.0, -1.0]), {"over": "raise"})),
                   threading.Thread(target=run, args=("succeeding", np.eye(2), {"under": "warn", "invalid": "ignore"}))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == {"raising": ({"raised"}, True), "succeeding": ({"returned"}, True)}

    def test_public_functions_when_numpy_lacks_the_private_names(self):
        # a numpy release may rename the private names core imports: the package still imports,
        # takes the public np.linalg functions, and gives the same bits and the same messages
        hide = ("import numpy, numpy._core.umath as umath\n"
                "del umath._make_extobj, umath._extobj_contextvar, numpy.linalg._umath_linalg\n"
                "sys.modules['numpy.linalg._umath_linalg'] = None\n")
        run = ("import json, numpy as np\n"
               "from spdorders import core\n"
               f"sys.path.insert(0, {str(Path(__file__).resolve().parent.parent / 'scripts')!r})\n"
               "import fingerprint\n"
               "try:\n"
               "    core._eigh(np.where(np.eye(5) > 0, np.nan, 0.1))\n"
               "except core.ConvergenceFailure as exc:\n"
               "    failure = str(exc)\n"
               "print(json.dumps([core.eigh is np.linalg.eigh, failure, fingerprint.run_corpus()]))\n")
        src = str(Path(spdorders.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        outcomes = []
        for prelude in ("", hide):
            done = subprocess.run([sys.executable, "-c", "import sys\n" + prelude + run], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            outcomes.append(json.loads(done.stdout))
        (private, message, groups), (public, fallback_message, fallback_groups) = outcomes
        assert (private, public) == (False, True)
        assert message == fallback_message == "Eigenvalues did not converge"
        assert len(groups) == 9 and fallback_groups == groups


def _special_stack(n, k, seed):
    """A (k, n, n) Gaussian stack with +0.0, -0.0 and subnormal entries mixed in."""
    a = np.random.default_rng(seed).standard_normal((k, n, n))
    flat = a.reshape(-1)
    flat[::5], flat[1::7] = 0.0, -0.0
    flat[2::3] = np.ldexp(flat[2::3], -1050)
    return a


def _hexes(a, factors=None):
    """float.hex of every entry, with the shape.  Given the operands (l, r) of
    the product behind a, an entry whose every term l[i, m] r[m, j] is a zero
    (a zero factor, or a product that underflows) is compared without its
    sign: numpy's own loop, which runs over a transposed view, starts each sum
    at +0.0, so -0.0 + -0.0 gives +0.0 there and -0.0 in BLAS."""
    a = np.array(a, dtype=float)
    if factors is not None:
        zero_terms = np.all(factors[0][..., :, :, None] * factors[1][..., None, :, :] == 0.0, axis=-2)
        a[np.broadcast_to(zero_terms, a.shape) & (a == 0.0)] = 0.0
    return a.shape, [float.hex(v) for v in a.ravel().tolist()]


class TestContiguousProducts:
    # The stacked products read contiguous operands: one gemm per shared
    # factor, transposes materialised.  Each package function keeps the bits
    # of numpy's plain stacked @ on the same operands, with +-0.0 and
    # subnormal entries, at scales 1 and 2^-+300.  The bits depend on the BLAS
    # build, so both forms run here and no hash is committed.
    SIZES = [(n, k) for n in (1, 2, 3, 5, 8) for k in (1, 2, 99)]
    SCALES = (0, -300, 300)

    @staticmethod
    def _recorded_row_norms(monkeypatch):
        seen = []
        row_norms = core._row_norms
        monkeypatch.setattr(core, "_row_norms", lambda a: seen.append(a) or row_norms(a))
        return seen

    @pytest.mark.parametrize("n,k", SIZES)
    def test_curve_as_one_gemm(self, n, k, monkeypatch):
        from spdorders import geometry

        w = np.abs(_special_stack(n, 1, n + k + 1)[0, 0]) + 0.5
        for b in (np.ldexp(_special_stack(n, 1, n + k)[0], e) for e in self.SCALES):
            monkeypatch.setattr(geometry, "relative_eigenframe", lambda s1, s2: (b, w))
            curve, _ = geometry._geodesic_curve(None, None)
            for t in (0.5, np.linspace(0.0, 1.0, k)[:, None, None]):  # one matrix, as a float t gives, or a stack
                powers = w**t
                for got, left in zip(curve(t), (b * powers, b * (np.log(w) * powers))):
                    assert _hexes(got, (left, b.T)) == _hexes(left @ b.T, (left, b.T))

    @pytest.mark.parametrize("n,k", SIZES)
    def test_spectral_apply(self, n, k):
        stack, w = _special_stack(n, k, 10 + n + k), np.abs(_special_stack(n, k, 20 + n + k)[..., 0]) + 0.5
        for v in (np.ldexp(stack, e) for e in self.SCALES):
            for f in (np.sqrt, np.log):
                for vs, ws in ((v, w), (v[0], w[0])):
                    factors = vs * f(ws)[..., None, :], vs.swapaxes(-1, -2)
                    expected = factors[0] @ factors[1]
                    assert _hexes(core._spectral_apply(ws, vs, f), factors) == _hexes(expected, factors)

    @pytest.mark.parametrize("n,k", SIZES)
    def test_orthogonal_rows(self, n, k, monkeypatch):
        seen = self._recorded_row_norms(monkeypatch)
        for v in (np.ldexp(_special_stack(n, k, 30 + n + k), e) for e in self.SCALES):
            # a Gaussian stack is not orthogonal; at 2^300 the norm of V^T V - I overflows to inf: the row fails
            with np.errstate(over="ignore"), pytest.raises(ConvergenceFailure, match="not orthogonal"):
                core._check_orthogonal(v)
            factors = v.swapaxes(-1, -2), v
            expected = factors[0] @ factors[1] - np.eye(n)
            assert _hexes(seen.pop(), factors) == _hexes(expected, factors)  # the V^T V - I it measured

    @pytest.mark.parametrize("n,k", SIZES)
    def test_sym_eig_reconstruction(self, n, k, monkeypatch):
        seen = self._recorded_row_norms(monkeypatch)
        for e in self.SCALES:
            sym = np.ldexp(_special_stack(n, k, 40 + n + k), e)
            sym = sym + sym.swapaxes(1, 2)
            got_w, got_v = core._sym_eig_stack(sym)
            recon, norms = seen[-2:]  # V diag(w) V^T - sym, then sym for the bound on its norm
            w, v = core.eigh(sym)
            ws = w
            if abs(w).max() > core.WINDOW:
                sym, shift, _ = core._windowed(sym)
                ws = np.ldexp(w, -np.reshape(shift, (-1, 1)))
            factors = v * ws[:, None, :], v.swapaxes(1, 2)
            assert _hexes(recon, factors) == _hexes(factors[0] @ factors[1] - sym, factors)
            assert _hexes(norms) == _hexes(sym)
            assert (_hexes(got_w), _hexes(got_v)) == (_hexes(w), _hexes(v))

    @pytest.mark.parametrize("n,k", SIZES)
    def test_power_differentials(self, n, k):
        from spdorders import power_map
        from spdorders.monotone import _power_differentials, _power_divided_differences

        for e in self.SCALES:
            points, _ = core._random_spd_stack(n, [derive_rng(i) for i in range(k)], 0.8)
            points, _ = _validate_spd_stack(np.ldexp(points.entries, e))
            for width in (1, 3):  # each point's eigenbasis broadcast over its run of tangents (4-D)
                xs = np.ldexp(_special_stack(n, k * width, 7 + width), e)
                xs = xs + xs.swapaxes(1, 2)
                out = _power_differentials(power_map(0.5), points, xs)
                vs = points.eigenvectors[:, None]
                vt = vs.swapaxes(-1, -2)
                dd = _power_divided_differences(points.eigenvalues, 0.5)[:, None]
                ref = (vs @ (dd * (vt @ xs.reshape(k, width, n, n) @ vs)) @ vt).reshape(-1, n, n)
                assert _hexes(out) == _hexes(0.5 * (ref + ref.swapaxes(1, 2)))


class TestSeedWords:
    SEEDS = [0, 1, -1, 2**40 + 3, 2**64 - 1]
    # tuples of 0 to 5 indices; values >= 2^32 take two words, so the last
    # rows hash more than the 4-word pool
    INDEX_ROWS = [(), (0,), (7,), (-1,), (3, 4), (2**32, 5), (2**64 - 1, 2**40 + 3), (1, 2, 3),
                  (2**33, 2**34, 2**35), (0, 0, 0, 0), (-2, 9, 2**63, 1, 2**32 - 1)]

    @staticmethod
    def _same_stream(g, seed, row):
        ref = derive_rng(seed, *row)
        assert g.bit_generator.state == ref.bit_generator.state
        assert g.integers(0, 2**63, 5).tolist() == ref.integers(0, 2**63, 5).tolist()
        assert g.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("row", INDEX_ROWS)
    def test_words_seed_the_derive_rng_stream(self, seed, row):
        wrapped = np.array([[v % 2**64 for v in row]], dtype=np.uint64).reshape(1, len(row))
        words = derive_seed_words(seed, wrapped)
        assert words.shape == (1, 4) and words.dtype == np.uint64
        self._same_stream(seeded_rngs(words)[0], seed, row)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_of_mixed_length_in_one_batch(self, seed):
        # one to six words per row, two to seven with the seed
        rows = [(0, 1, 2), (2**32, 1, 2), (5, 2**40, 2**64 - 1), (2**50, 2**51, 2**52), (9, 8, 7)]
        words = derive_seed_words(seed, np.array(rows, dtype=np.uint64))
        for g, row in zip(seeded_rngs(words), rows, strict=True):
            self._same_stream(g, seed, row)

    def test_negative_indices_wrap_like_derive_rng(self):
        rows = np.array([[-1, 3], [0, -(2**40)], [5, 6]])
        for g, row in zip(seeded_rngs(derive_seed_words(-7, rows)), rows.tolist(), strict=True):
            self._same_stream(g, -7, row)

    def test_empty_batch(self):
        assert derive_seed_words(3, np.zeros((0, 2), dtype=np.int64)).shape == (0, 4)

    def test_rejects_a_flat_index_list(self):
        with pytest.raises(DimensionMismatch):
            derive_seed_words(0, [1, 2, 3])

    def test_import_leaves_numpy_random_unloaded(self):
        src = str(Path(spdorders.__file__).resolve().parents[1])
        code = "import sys, spdorders; print('numpy.random' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr

    # every (low, high) the package draws: the tangent sampler's interior shifts (Loewner, the
    # others) and ray scales, order_interval_sample's t and random_ordered_pair's step size
    @pytest.mark.parametrize("low, high", [(0.1, 1.0), (0.2, 1.0), (0.2, 2.0), (0.05, 0.95), (0.3, 1.2)])
    def test_uniforms_are_the_uniform_draws(self, low, high):
        words = derive_seed_words(17, np.arange(10_000)[:, None])
        drawn, reference = seeded_rngs(words), seeded_rngs(words)
        assert _uniforms(drawn, low, high).tobytes() == np.array([g.uniform(low, high) for g in reference]).tobytes()
        # and each generator read one double, as uniform does
        assert [g.random() for g in drawn] == [g.random() for g in reference]

    def test_seed_words_serve_only_the_pcg64_request(self):
        g = seeded_rngs(derive_seed_words(0, [[1]]))[0]
        with pytest.raises(InvalidParameters):
            g.bit_generator.seed_seq.generate_state(8, np.uint32)


def _first_slow_normal(rng, count):
    """The first of count standard normals of rng that reads more than one raw
    word (the ziggurat's slow path), told by a twin advanced one word per draw; or None."""
    twin = np.random.Generator(type(rng.bit_generator)())
    twin.bit_generator.state = rng.bit_generator.state
    for j in range(count):
        twin.bit_generator.advance(1)
        rng.standard_normal()
        if rng.bit_generator.state != twin.bit_generator.state:
            return j
    return None


class TestSeededStreams:
    """seeded_streams reads derive_rng(seed, *row)'s stream bit for bit, whether a
    draw takes the vector pass, falls back to a row's generator or stays per row."""

    # either side of the vector pass's row threshold, and blocks past it
    ROWS = [1, 4, MIN_VECTOR_ROWS - 1, MIN_VECTOR_ROWS, 100, 2000]

    @staticmethod
    def _bytes(a):
        return np.asarray(a, dtype=float).tobytes()

    def _mixed_draws(self, seed, rows, n, make=None):
        """The draw order of _tangent_stack and _boundary_rays: n x n normals for every
        row, uniforms for every other row, n normals again for every third; then
        each row's generator goes on with its stream.  make builds the streams
        from the seed words, by default seeded_streams."""
        words = derive_seed_words(seed, np.array(rows)[:, None])
        streams = seeded_streams(words, n) if make is None else make(words)
        refs = [derive_rng(seed, row) for row in rows]
        assert self._bytes(_standard_normals(streams, (n, n))) == self._bytes([g.standard_normal((n, n)) for g in refs])
        half, third = np.arange(0, len(rows), 2), np.arange(0, len(rows), 3)
        got = _uniforms(_subset(streams, half), 0.2, 1.0)
        assert self._bytes(got) == self._bytes([refs[i].uniform(0.2, 1.0) for i in half])
        got = _standard_normals(_subset(streams, third), (n,))
        assert self._bytes(got) == self._bytes([refs[i].standard_normal(n) for i in third])
        for i in {0, len(rows) // 2, len(rows) - 1}:
            got = _standard_normals(_subset(streams, np.array([i])), (3,))[0]
            assert got.tobytes() == refs[i].standard_normal(3).tobytes()
        return streams

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("k", ROWS)
    def test_mixed_draws_read_the_derive_rng_streams(self, n, k):
        vector = k >= MIN_VECTOR_ROWS and n * n <= MAX_VECTOR_WORDS
        assert isinstance(self._mixed_draws(30 + n, list(range(k)), n), Streams) == vector
        # a Streams of any size reads the same streams, its too long draws row by row
        self._mixed_draws(30 + n, list(range(k)), n, Streams)

    @pytest.mark.parametrize("n", [1, 4, 5, 8])
    def test_only_draws_past_the_word_bound_leave_the_vector_pass(self, n):
        # rows the vector pass served keep no generator (their _drawn count is not -1)
        streams = Streams(derive_seed_words(1, np.arange(100)[:, None]))
        _standard_normals(streams, (n, n))
        assert (streams._drawn >= 0).any() == (n * n <= MAX_VECTOR_WORDS)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rows_falling_back_at_their_first_middle_and_last_normal(self, n):
        count, found = n * n, {}
        for row in range(20_000):
            at = _first_slow_normal(derive_rng(5, row), count)
            if at in (0, count // 2, count - 1):
                found.setdefault(at, row)
            if len(found) == 3:
                break
        assert len(found) == 3
        # among other rows, on both sides of the row threshold: past it, the vector
        # pass hands the three rows to their generators
        for others in (MIN_VECTOR_ROWS - 4, MIN_VECTOR_ROWS + 40):
            rows = sorted(found.values()) + list(range(30_000, 30_000 + others))
            streams = self._mixed_draws(5, rows, n)
            assert isinstance(streams, list) or (streams._drawn[:3] < 0).all()

    def test_a_list_of_generators_is_drawn_row_by_row_in_order(self):
        # one generator for every row reads its stream in row order
        rng, ref = derive_rng(9), derive_rng(9)
        got = _standard_normals([rng] * 3, (2, 2))
        assert self._bytes(got) == self._bytes([ref.standard_normal((2, 2)) for _ in range(3)])

    def test_stream_views_share_their_rows(self):
        # a draw through a view moves the rows of the streams it was taken from
        streams = seeded_streams(derive_seed_words(3, np.arange(MIN_VECTOR_ROWS + 1)[:, None]), 2)
        first = _uniforms(streams[1:], 0.0, 1.0)
        ref = derive_rng(3, 7)
        assert first[6] == ref.random() and _uniforms(streams[[7]], 0.0, 1.0)[0] == ref.random()
        assert _uniforms(streams[[0]], 0.0, 1.0)[0] == derive_rng(3, 0).random()
