import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from spdorders import (
    check_differential_positivity,
    cone_membership,
    congruence_map,
    find_order_counterexample,
    half_space_affine,
    inversion_map,
    loewner,
    map_differential,
    matrix_function,
    order_compare,
    power_map,
    quadratic_affine,
    quadratic_translation,
    random_ordered_pair,
    random_spd,
    ray_affine,
    scaling_map,
    spd_validate,
    strict_contraction_witness,
    trace_identity_residual,
    trace_inequality_fuzz,
    translation_map,
)
from spdorders.cones import DEFAULT_TOL, ConeSpec, sample_cone_tangent
from spdorders.core import MAX_DIM, SpdMatrix, SpdStack, SymTangent, _checked, derive_rng, random_sym
from spdorders.errors import DimensionMismatch, InvalidParameters, NotPositiveDefinite, NotSymmetric, SpdError
from spdorders import core, monotone
from spdorders.monotone import SmoothMap, map_differentials, sylvester_residual
from spdorders.orders import _conal_steps
from spdorders.seeds import derive_seed_words

MAPS = [
    power_map(0.5),
    power_map(1.0 / 3.0),
    power_map(2.0),
    power_map(3.7),
    inversion_map(),
    scaling_map(2.5),
]


def finite_difference(m, sigma, x, h_rel=1e-5):
    # central differences of the map itself, the independent oracle
    h = h_rel * np.linalg.norm(sigma.entries) / np.linalg.norm(x)
    plus = m.apply(spd_validate(sigma.entries + h * x)).entries
    minus = m.apply(spd_validate(sigma.entries - h * x)).entries
    return (plus - minus) / (2.0 * h)


class TestDifferential:
    def test_half_power_at_identity(self):
        eye = spd_validate(np.eye(3))
        x = random_sym(3, 1)
        out = map_differential(power_map(0.5), eye, x).entries
        assert np.allclose(out, 0.5 * x, rtol=1e-12)

    def test_inversion_at_identity(self):
        eye = spd_validate(np.eye(3))
        x = random_sym(3, 2)
        out = map_differential(inversion_map(), eye, x).entries
        assert np.allclose(out, -x, rtol=1e-12)

    def test_inversion_formula(self):
        sigma = random_spd(4, 5, 0.7)
        x = random_sym(4, 6)
        inv = matrix_function(sigma, "inv").entries
        expected = -inv @ x @ inv
        out = map_differential(inversion_map(), sigma, x).entries
        assert np.allclose(out, expected, rtol=1e-10)

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 7])
    def test_generalized_sylvester_residual(self, p):
        for seed in range(10):
            sigma = random_spd(3, seed, 0.7)
            x = random_sym(3, seed + 40)
            assert sylvester_residual(p, sigma, x) <= 1e-8

    @pytest.mark.parametrize("m", MAPS, ids=lambda m: m.label)
    def test_matches_finite_differences(self, m):
        for seed in range(15):
            sigma = random_spd(3, seed, 0.5)
            x = random_sym(3, seed + 17)
            analytic = map_differential(m, sigma, x).entries
            fd = finite_difference(m, sigma, x)
            assert np.linalg.norm(fd - analytic) / np.linalg.norm(analytic) <= 1e-6

    def test_congruence_and_translation_differentials(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 3))
        sigma = random_spd(3, 3, 0.6)
        x = random_sym(3, 9)
        assert np.allclose(map_differential(congruence_map(a), sigma, x).entries, a @ x @ a.T)
        c = random_spd(3, 4, 0.4).entries
        assert np.allclose(map_differential(translation_map(c), sigma, x).entries, x)

    def test_translation_near_the_float_limit_stays_finite(self):
        shift = translation_map(np.diag([1e308, 1e308])).matrix
        assert np.array_equal(shift, np.diag([1e308, 1e308]))
        image = translation_map([[1e308, 1.0], [3.0, 1e308]]).apply(SpdMatrix(np.eye(2)))
        assert np.array_equal(image.entries, [[1e308, 2.0], [2.0, 1e308]])

    @pytest.mark.parametrize("m", [power_map(-2.0), inversion_map()], ids=lambda m: m.label)
    def test_differential_at_an_ill_conditioned_point_is_exactly_symmetric(self, m):
        # at cond(S) = 1e10, inside COND_CAP, the products V (D o V^T X V) V^T and
        # S^-1 X S^-1 come out asymmetric by far more than SYM_RTOL; the rules
        # return their symmetric part, so the guard that follows accepts them
        q, _ = np.linalg.qr(derive_rng(2).standard_normal((3, 3)))
        sigma = SpdMatrix((q * [1e-5, 1.0, 1e5]) @ q.T)
        x = np.outer(q[:, 0], q[:, 2])
        out = map_differential(m, sigma, x + x.T).entries
        assert np.array_equal(out, out.T)

    def test_near_degenerate_spectrum(self):
        # clustered eigenvalues exercise the divided-difference limit
        sigma = spd_validate(np.diag([2.0, 2.0 + 1e-12, 5.0]))
        x = random_sym(3, 11)
        analytic = map_differential(power_map(0.5), sigma, x).entries
        fd = finite_difference(power_map(0.5), sigma, x)
        assert np.linalg.norm(fd - analytic) / np.linalg.norm(analytic) <= 1e-6

    def test_rational_power_composition(self):
        # power(q/p) equals power(1/p) after power(q)
        sigma = random_spd(3, 13, 0.6)
        for q, p in ((2, 3), (3, 5), (1, 4)):
            direct = matrix_function(sigma, "power", q / p).entries
            composed = matrix_function(matrix_function(sigma, "power", float(q)), "power", 1.0 / p).entries
            assert np.linalg.norm(direct - composed) / np.linalg.norm(direct) <= 1e-9


class TestTraceIdentity:
    @pytest.mark.parametrize("r", [1.0 / 3.0, 0.5, 2.0, 3.7])
    def test_residual_small(self, r):
        for seed in range(100):
            sigma = random_spd(3, seed, 0.7)
            x = random_sym(3, seed + 7)
            assert trace_identity_residual(power_map(r), sigma, x) <= 1e-8

    def test_r_equal_one_exact(self):
        sigma = random_spd(4, 2, 0.8)
        x = random_sym(4, 3)
        assert trace_identity_residual(power_map(1.0), sigma, x) <= 1e-14

    def test_identity_base_point_root_maps(self):
        eye = spd_validate(np.eye(4))
        for p in (2, 3, 5):
            x = random_sym(4, p)
            df = map_differential(power_map(1.0 / p), eye, x).entries
            assert abs(p * np.trace(df) - np.trace(x)) <= 1e-10

    def test_requires_positive_power(self):
        with pytest.raises(InvalidParameters):
            trace_identity_residual(inversion_map(), random_spd(2, 0), np.eye(2))


class TestTraceInequalities:
    def test_commuting_equality_cases(self):
        eye = np.eye(3)
        assert np.trace(np.linalg.matrix_power(eye @ eye, 2)) == np.trace(eye @ eye)
        # identity inputs collapse both inequalities to equalities
        assert abs(np.trace(eye) - np.trace(eye)) == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_power_trace_lemma(self, m):
        worst = trace_inequality_fuzz("power_trace_lemma", m, seed=1000 + m, count=2000)
        assert worst >= -1e-10

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_shift_inequality(self, k):
        worst = trace_inequality_fuzz("shift_inequality", k, seed=2000 + k, count=2000)
        assert worst >= -1e-10

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameters):
            trace_inequality_fuzz("nope", 1, 0, 1)

    def test_overflowing_sample_is_not_a_pass(self):
        # 86 of these 200 samples overflow to a NaN slack, which min() would skip
        with pytest.raises(InvalidParameters, match="power_trace_lemma sample 0 is not finite"):
            trace_inequality_fuzz("power_trace_lemma", 200, seed=5, count=200)

    def test_overflowing_shift_sample_is_not_a_pass(self):
        with pytest.raises(InvalidParameters, match="shift_inequality sample 0 is not finite"):
            trace_inequality_fuzz("shift_inequality", 400, seed=5, count=3)


class TestContractionWitness:
    def test_equal_sigmas_degenerate(self):
        w = strict_contraction_witness(1.0, 2, 1.0, 1.0)
        assert w.delta == pytest.approx(1.0)
        assert np.allclose(w.tangent.entries, np.ones((2, 2)))
        assert not w.strict
        assert w.trace_gap == pytest.approx(0.0, abs=1e-14)

    def test_distinct_sigmas_strict(self):
        # delta^2 = n(n-mu) s1 s2 / (2 mu) = 2*1*4*1/2 = 4 here
        w = strict_contraction_witness(1.0, 2, 4.0, 1.0)
        assert w.delta**2 == pytest.approx(4.0)
        assert w.strict
        # direct evaluation of both traces: gap = (1/s1 - 1/s2)^2 * delta^2
        assert w.trace_gap == pytest.approx((1.0 / 4.0 - 1.0) ** 2 * 4.0, rel=1e-12)

    @pytest.mark.parametrize("n,mu,s1,s2", [(2, 0.5, 3.0, 1.0), (3, 1.5, 2.0, 0.5), (5, 4.5, 7.0, 2.0)])
    def test_witness_lands_on_the_boundary(self, n, mu, s1, s2):
        w = strict_contraction_witness(mu, n, s1, s2)
        rep = cone_membership(quadratic_affine(mu, n), w.sigma, w.tangent)
        assert abs(rep.margin) <= 1e-9
        assert w.trace_gap > 0

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameters):
            strict_contraction_witness(1.0, 2, 1.0, 2.0)
        with pytest.raises(InvalidParameters):
            strict_contraction_witness(2.0, 2, 2.0, 1.0)

    @pytest.mark.parametrize("n", [MAX_DIM + 1, 2**62])
    def test_dimension_cap_before_allocating(self, n):
        with pytest.raises(InvalidParameters, match=f"dimension {n} above desk-scale cap"):
            strict_contraction_witness(1.0, n, 2.0, 1.0)


class TestDifferentialPositivity:
    @pytest.mark.parametrize("r", [0.25, 0.5, 0.75, 1.0])
    def test_roots_are_positive_on_quadratic_cones(self, r):
        # 10^3 point-direction pairs per configuration
        for n, mu in ((2, 1.0), (3, 1.5), (5, 4.5)):
            report = check_differential_positivity(
                power_map(r), quadratic_affine(mu, n), seed=5, n_points=25, n_directions=40
            )
            assert report.samples_tested == 1000
            assert report.is_positive, f"n={n} mu={mu} min={report.min_output_margin}"

    def test_square_violates_loewner(self):
        report = check_differential_positivity(
            power_map(2.0), loewner(2), seed=5, n_points=50, n_directions=10
        )
        assert report.violations
        assert report.min_output_margin < -1e-6

    def test_congruence_always_positive(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((3, 3))
        for spec in (quadratic_affine(2.0, 3), loewner(3)):
            report = check_differential_positivity(
                congruence_map(a), spec, seed=2, n_points=20, n_directions=10
            )
            assert report.is_positive

    def test_scaling_always_positive(self):
        for spec in (quadratic_affine(0.6, 3), loewner(3), quadratic_affine(2.9, 3)):
            report = check_differential_positivity(
                scaling_map(7.5), spec, seed=3, n_points=20, n_directions=10
            )
            assert report.is_positive

    def test_sample_cap_is_checked_before_the_first_draw(self):
        # validator only: no size here is ever drawn
        cap = monotone.MAX_SAMPLES
        for points, dirs in ((1, cap + 1), (cap + 1, 1), (10**12, 1), (1, 10**9), (10**6, 10**6)):
            with pytest.raises(InvalidParameters, match="cap"):
                check_differential_positivity(inversion_map(), loewner(2), seed=0, n_points=points, n_directions=dirs)

    def test_report_serialization_caps_witnesses(self):
        m, spec = power_map(2.0), loewner(2)
        report = check_differential_positivity(m, spec, seed=1, n_points=30, n_directions=10)
        assert_matches_reference(report, *reference_positivity(m, spec, 1, 30, 10))
        doc = report.to_dict()
        assert doc["violation_count"] == report.violation_count > monotone.WITNESSES == len(doc["witnesses"])
        assert [w["direction"] for w in doc["witnesses"]] == [tan.entries.tolist() for _, tan, _ in report.violations]
        assert doc["min_output_margin"] == report.min_output_margin

    def test_an_all_violating_check_holds_five_witnesses(self):
        # the inverse reverses every cone ray, so each of the 100,000 samples violates;
        # the report keeps the exact count and five witnesses, not one tuple per violation
        m, spec = power_map(-1.0), quadratic_affine(1.5, 3)
        check_differential_positivity(m, spec, 0, 5, 2)  # caches and lazy imports filled before tracing
        tracemalloc.start()
        try:
            report = check_differential_positivity(m, spec, 0, 5000, 20)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 10**6
        assert report.violation_count == 100_000 and len(report.violations) == monotone.WITNESSES

    def test_a_check_leaves_the_cyclic_collector_idle(self):
        # the streams of 4,200 rows draw in vector passes, and only the rows that leave the
        # ziggurat's fast path build a generator: one generator per row, about 12,600 tracked
        # objects, ran 22 young and 1 middle collection here
        m, spec = power_map(0.5), quadratic_affine(1.5, 3)
        check_differential_positivity(m, spec, seed=0, n_points=5, n_directions=2)  # lazy imports and caches
        runs = [0, 0, 0]

        def count(phase, info):
            if phase == "start":
                runs[info["generation"]] += 1

        gc.collect()
        gc.callbacks.append(count)
        try:
            check_differential_positivity(m, spec, seed=0, n_points=200, n_directions=20)
        finally:
            gc.callbacks.remove(count)
        assert runs[0] <= 5 and runs[1:] == [0, 0], runs


def hexes(a):
    return [v.hex() for v in np.asarray(a, dtype=float).ravel().tolist()]


# Per-sample reference: the scalar draw and differential rules written out
# once more, independent of the stacked kernels, one sample at a time.


def reference_boundary_at_identity(mu, n, rng):
    while True:
        g = random_sym(n, rng)
        tau = float(np.trace(g))
        s = float(np.sum(g * g))
        disc = mu * (n - mu) * (n * s - tau * tau)
        if disc <= 0:
            continue
        c = (-tau * (n - mu) + math.sqrt(disc)) / (n * (n - mu))
        y = g + c * np.eye(n)
        norm = np.linalg.norm(y)
        if norm > 1e-8:
            return y / norm


def reference_tangent(spec, sigma, rng, boundary):
    n = spec.n
    if n == 1:
        return SymTangent(np.ones((1, 1)), base=sigma)
    if spec.kind in ("quad-affine", "quad-translate"):
        y = reference_boundary_at_identity(spec.mu, n, rng)
        if not boundary:
            y = y + rng.uniform(0.2, 1.0) * np.eye(n)
        if spec.kind == "quad-affine":
            root = sigma.spectrum.apply(np.sqrt)
            y = root @ y @ root
    elif spec.kind == "loewner":
        w, v = np.linalg.eigh(random_sym(n, rng))
        w = w - w[0]
        if not boundary:
            w = w + rng.uniform(0.1, 1.0) * (1.0 + w[-1])
        y = v @ np.diag(w) @ v.T
    elif spec.kind == "half-space":
        g = random_sym(n, rng)
        y = g - (np.trace(g) / n) * np.eye(n)
        if not boundary:
            y = y + rng.uniform(0.2, 1.0) * np.linalg.norm(y) * np.eye(n)
        root = sigma.spectrum.apply(np.sqrt)
        y = root @ y @ root
    else:
        y = rng.uniform(0.2, 2.0) * sigma.entries
    y = 0.5 * (y + y.T)
    norm = np.linalg.norm(y)
    if norm < 1e-12:
        y = sigma.entries
        norm = np.linalg.norm(y)
    return SymTangent(y / norm, base=sigma)


def reference_differential(m, sigma, x):
    if m.kind == "power":
        spec = sigma.spectrum
        v = spec.eigenvectors
        xprime = v.T @ x.entries @ v
        out = v @ (monotone._power_divided_differences(spec.eigenvalues, m.exponent) * xprime) @ v.T
        return SymTangent(0.5 * (out + out.T))
    if m.kind == "inversion":
        w = sigma.inv_apply(x.entries)
        out = -sigma.inv_apply(w.T).T
        return SymTangent(0.5 * (out + out.T))
    if m.kind == "congruence":
        return SymTangent(m.matrix @ x.entries @ m.matrix.T)
    if m.kind == "scaling":
        return SymTangent(m.factor * x.entries)
    return SymTangent(x.entries.copy())


def reference_positivity(m, spec, seed, n_points, n_directions, tol=DEFAULT_TOL):
    min_margin, violations = math.inf, []
    for i in range(n_points):
        sigma = random_spd(spec.n, derive_rng(seed, i), scale=0.7)
        image = m.apply(sigma)
        for j in range(n_directions):
            x = reference_tangent(spec, sigma, derive_rng(seed, i, j + 1), boundary=(j % 2 == 0))
            margin = cone_membership(spec, image, reference_differential(m, sigma, x), tol=tol).margin
            if margin < min_margin:
                min_margin = margin
            if margin < -tol:
                violations.append((sigma, x, margin))
    return n_points * n_directions, min_margin, violations


def assert_matches_reference(got, samples, min_margin, violations):
    """The report against reference_positivity's: the exact count, and the
    reference's first WITNESSES violations, bit for bit."""
    assert got.samples_tested == samples
    assert got.min_output_margin.hex() == float(min_margin).hex()
    assert got.violation_count == len(violations)
    kept = violations[:monotone.WITNESSES]
    assert len(got.violations) == len(kept)
    for (sig, tan, margin), (ref_sig, ref_tan, ref_margin) in zip(got.violations, kept):
        assert hexes(sig.entries) == hexes(ref_sig.entries)
        assert hexes(tan.entries) == hexes(ref_tan.entries)
        assert tan.base is sig and margin.hex() == ref_margin.hex()
    # one SpdMatrix per violating point, shared by its kept tangents across chunks
    assert len({id(sig) for sig, _, _ in got.violations}) == len({id(sig) for sig, _, _ in kept})


def outcome(fn):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # non-psd translation shifts warn
        try:
            return fn()
        except Exception as exc:  # the exception type is what gets compared
            return type(exc)


@st.composite
def map_and_cone(draw):
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["quad-affine", "quad-translate", "loewner", "half-space", "ray"]))
    mu = draw(st.floats(0.05, 0.95)) * n if kind.startswith("quad") else None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.sampled_from([
        lambda: power_map(draw(st.floats(-3.0, 3.0))),
        inversion_map,
        lambda: congruence_map(rng.standard_normal((n, n)) + draw(st.floats(0.0, 3.0)) * np.eye(n)),
        lambda: scaling_map(draw(st.floats(0.1, 10.0))),
        lambda: translation_map(draw(st.floats(-0.5, 1.0)) * random_sym(n, rng)),
    ]))
    return outcome(m), ConeSpec(kind, n, mu)


class TestBatchedPositivityMatchesLoop:
    @settings(max_examples=150, deadline=None)
    # seeds from -2^63 to 2^64 - 1: both wrap to 64 bits, and those >= 2^32 hash two words
    @given(map_and_cone(), st.integers(-(2**63), 2**64 - 1), st.integers(1, 4), st.integers(1, 7))
    def test_same_report_as_per_sample_loop(self, case, seed, n_points, n_directions):
        m, spec = case
        if isinstance(m, type):  # the map's own constructor rejected its parameters
            event("map rejected")
            return
        got = outcome(lambda: check_differential_positivity(m, spec, seed, n_points, n_directions))
        want = outcome(lambda: reference_positivity(m, spec, seed, n_points, n_directions))
        if isinstance(want, type) or isinstance(got, type):
            event(f"raises {getattr(want, '__name__', want)}")
            assert got is want
            return
        event("violations" if want[2] else "clean")
        assert_matches_reference(got, *want)

    @pytest.mark.parametrize("m", MAPS + [congruence_map(np.diag([1.0, -2.0, 0.5])), translation_map(np.eye(3))],
                             ids=lambda m: m.label)
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_stacked_rows_match_single_view(self, m, n):
        # every row of one stacked call equals the one-row view, bit for bit
        if m.matrix is not None and m.matrix.shape[0] != n:
            m = type(m)(m.kind, matrix=np.eye(n) * np.linspace(0.5, 2.0, n)[:, None])
        sigma = random_spd(n, derive_rng(30, n), 0.7)
        xs = np.stack([SymTangent(random_sym(n, derive_rng(31, j))).entries for j in range(9)])
        stack = map_differentials(m, sigma, xs)
        assert stack.shape == (9, n, n) and not stack.flags.writeable
        for x, row in zip(xs, stack):
            assert hexes(row) == hexes(map_differential(m, sigma, x).entries)

    def test_stack_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            map_differentials(power_map(0.5), random_spd(3, 1), np.zeros((2, 2, 2)))


BLOCK_MAPS = {
    "power": lambda n: power_map(1.5),
    "inversion": lambda n: inversion_map(),
    "congruence": lambda n: congruence_map(np.eye(n) + np.tril(np.ones((n, n)), -1)),
    "scaling": lambda n: scaling_map(2.5),
    "translation": lambda n: translation_map(0.5 * np.eye(n)),
}
CONE_KINDS = ["quad-affine", "quad-translate", "loewner", "half-space", "ray"]


def assert_same_report(m, spec, seed, n_points, n_directions):
    got = check_differential_positivity(m, spec, seed, n_points, n_directions)
    assert_matches_reference(got, *reference_positivity(m, spec, seed, n_points, n_directions))


class TestBlocksMatchLoop:
    # Sizes past a block of small_blocks (128 rows at n = 2, 56 at n = 3):
    # 3 x 300 splits each point's directions over several chunks, 30 x 20
    # makes several blocks of whole points.
    @pytest.mark.parametrize("n_points, n_directions", [(3, 300), (30, 20)], ids=["split-points", "whole-points"])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", CONE_KINDS)
    @pytest.mark.parametrize("map_kind", list(BLOCK_MAPS))
    def test_same_report_as_per_sample_loop(self, map_kind, kind, n, n_points, n_directions, small_blocks):
        assert n_points * n_directions > 2 * core._block_rows(n)
        spec = ConeSpec(kind, n, n / 2 if kind.startswith("quad") else None)
        assert_same_report(BLOCK_MAPS[map_kind](n), spec, 11, n_points, n_directions)

    def test_witnesses_of_one_point_share_its_base_across_chunks(self, small_blocks):
        # 1 point x 120 directions at n = 3 is chunks of 56, 56 and 8 rows; at this tol the
        # first chunk holds two violations, so the five witnesses come from more than one chunk
        m, spec, tol = power_map(1.5), quadratic_affine(1.5, 3), 0.15
        assert 0 < check_differential_positivity(m, spec, 5, 1, 56, tol=tol).violation_count < monotone.WITNESSES
        got = check_differential_positivity(m, spec, 5, 1, 120, tol=tol)
        assert_matches_reference(got, *reference_positivity(m, spec, 5, 1, 120, tol=tol))
        assert len(got.violations) == monotone.WITNESSES and len({id(sig) for sig, _, _ in got.violations}) == 1

    @pytest.mark.parametrize("kind", CONE_KINDS)
    def test_same_report_across_real_blocks(self, kind):
        # the benchmark's survey cell: 50 points x 20 directions at n = 3 are
        # two blocks of core._block_rows(3) = 910 rows, 45 points and 5
        assert core._block_rows(3) // 20 == 45
        spec = ConeSpec(kind, 3, 1.5 if kind.startswith("quad") else None)
        assert_same_report(power_map(1.5), spec, 11, 50, 20)

    # a shift of -0.2 I takes only a later point's image out of the cone: its
    # smallest eigenvalue is the first one below 0.2 (point 18 of seed 6 at
    # n = 2, in a later block; point 2 of seed 4 at n = 3, whose 300
    # directions take several chunks)
    @pytest.mark.parametrize("n, seed, n_points, n_directions, point", [(2, 6, 30, 20, 18), (3, 4, 3, 300, 2)])
    def test_later_image_outside_the_cone_raises_as_the_loop_does(self, n, seed, n_points, n_directions, point,
                                                                   small_blocks):
        assert point >= core._block_rows(n) // n_directions or n_directions > core._block_rows(n)
        lam_min = [np.linalg.eigvalsh(random_spd(n, derive_rng(seed, i), 0.7).entries)[0] for i in range(n_points)]
        assert min(lam_min[:point]) > 0.21 and lam_min[point] < 0.2
        with pytest.warns(UserWarning, match="not positive semidefinite"):
            m = translation_map(-0.2 * np.eye(n))
        spec = quadratic_affine(n / 2, n)
        with pytest.raises(NotPositiveDefinite) as want:
            reference_positivity(m, spec, seed, n_points, n_directions)
        with pytest.raises(NotPositiveDefinite) as got:
            check_differential_positivity(m, spec, seed, n_points, n_directions)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)

    def test_one_hash_pass_seeds_every_span(self, monkeypatch, small_blocks):
        # 30 x 20 at n = 3 walks 15 spans of 2 points: one grid seeds them all
        calls = []

        def counting(seed, indices):
            calls.append(np.shape(indices))
            return derive_seed_words(seed, indices)

        monkeypatch.setattr(monotone, "derive_seed_words", counting)
        check_differential_positivity(power_map(1.5), quadratic_affine(1.5, 3), 11, 30, 20)
        assert calls == [(30 * 21, 2)]

    def test_peak_memory_grows_with_the_block(self):
        # 2000 directions of one point at n = 32: a stack of them all would
        # take 16 MB per array, a chunk of BLOCK_ROWS = 128 about 1 MB
        tracemalloc.start()
        try:
            report = check_differential_positivity(power_map(0.5), quadratic_affine(16, 32), 0, 1, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.samples_tested == 2000 and report.is_positive
        assert peak < 32 * 10**6

    def test_peak_memory_of_many_blocks_stays_near_one_block(self):
        # 200 points x 20 directions at n = 3 are five blocks of at most 45
        # points (910 rows), 45 x 20 one: each block's arrays and generators
        # go before the next block is drawn
        m, spec = power_map(0.5), quadratic_affine(1.5, 3)
        check_differential_positivity(m, spec, 0, 45, 20)  # caches and lazy imports filled before tracing

        def peak(n_points):
            tracemalloc.start()
            try:
                check_differential_positivity(m, spec, 0, n_points, 20)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, five = peak(45), peak(200)
        assert five <= 1.3 * one


class TestOrderLevelMonotonicity:
    def test_inversion_is_antitone(self):
        for spec in (quadratic_affine(1.5, 3), loewner(3), quadratic_affine(0.5, 3)):
            for seed in range(50):
                s1, s2 = random_ordered_pair(spec, 3, seed)
                v = order_compare(spec, matrix_function(s2, "inv"), matrix_function(s1, "inv"))
                assert v.relation in ("less_equal", "equal")

    def test_square_breaks_order_end_to_end(self):
        found = find_order_counterexample(power_map(2.0), loewner(2), seed=0, budget=2000)
        assert found is not None
        s1, s2, _ = found
        assert order_compare(loewner(2), s1, s2).relation in ("less_equal", "equal")
        sq1 = matrix_function(s1, "power", 2.0)
        sq2 = matrix_function(s2, "power", 2.0)
        assert order_compare(loewner(2), sq1, sq2).relation not in ("less_equal", "equal")

    def test_unexpected_step_errors_propagate(self, monkeypatch):
        # only a returned guard error rejects a step; anything raised is a defect
        def broken_step(*args):
            raise TypeError("broken step")

        monkeypatch.setattr(monotone, "_conal_steps", broken_step)
        with pytest.raises(TypeError, match="broken step"):
            find_order_counterexample(power_map(2.0), loewner(2), seed=0, budget=20)

    def test_translation_breaks_strictly_conal_orders(self):
        # non-translation-invariant fields admit an order-breaking shift
        for n, mu in ((2, 0.5), (3, 1.0)):
            spec = quadratic_affine(mu, n)
            witness = None
            for trial in range(40):
                shift = random_spd(n, derive_rng(900, trial), 0.5)
                found = find_order_counterexample(
                    translation_map(shift.entries), spec, seed=trial, budget=50
                )
                if found:
                    witness = (shift, found)
                    break
            assert witness is not None, f"no translation counterexample at n={n}, mu={mu}"

    def test_translation_preserves_loewner(self):
        shift = random_spd(3, 77, 0.5)
        report = check_differential_positivity(
            translation_map(shift.entries), loewner(3), seed=4, n_points=20, n_directions=10
        )
        assert report.is_positive

    def test_scaling_preserves_orders_end_to_end(self):
        for spec in (quadratic_affine(2.2, 3), loewner(3)):
            for seed in range(30):
                s1, s2 = random_ordered_pair(spec, 3, seed)
                a = spd_validate(3.0 * s1.entries)
                b = spd_validate(3.0 * s2.entries)
                assert order_compare(spec, a, b).relation in ("less_equal", "equal")

    def test_translation_shift_must_be_symmetric(self):
        with pytest.raises(NotSymmetric):
            translation_map([[1.0, 5.0], [-3.0, 1.0]])

    @pytest.mark.parametrize("build, name", [
        (lambda: SmoothMap("bogus"), "kind"),
        (lambda: power_map(math.nan), "exponent"),
        (lambda: power_map(-math.inf), "exponent"),
        (lambda: scaling_map(math.nan), "factor"),
        (lambda: scaling_map(math.inf), "factor"),
        (lambda: scaling_map(0.0), "factor"),
        (lambda: SmoothMap("power"), "exponent"),
        (lambda: SmoothMap("scaling"), "factor"),
        (lambda: SmoothMap("translation"), "matrix"),
        (lambda: SmoothMap("power", exponent=2.0, factor=3.0), "factor"),
        (lambda: SmoothMap("inversion", matrix=np.eye(3)), "matrix"),
        (lambda: SmoothMap("congruence", matrix=np.eye(2), exponent=1.0), "exponent"),
    ])
    def test_map_parameters_are_checked(self, build, name):
        with pytest.raises(InvalidParameters, match=name):
            build()

    def test_translation_non_psd_shift_warns(self):
        with pytest.warns(UserWarning):
            translation_map(np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("build", [translation_map, congruence_map])
    @pytest.mark.parametrize("raw, error", [
        ([[1.0, 2.0, 3.0]], DimensionMismatch),
        (np.zeros((2, 2, 2)), DimensionMismatch),
        (np.eye(65), InvalidParameters),
        ([[math.nan, 0.0], [0.0, 1.0]], InvalidParameters),
        ([[1.0, 0.0], [0.0, math.inf]], InvalidParameters),
    ])
    def test_map_matrix_must_be_a_finite_square(self, build, raw, error):
        with pytest.raises(error):
            build(raw)

    @pytest.mark.parametrize("smap", [translation_map([[2.0]]), congruence_map(np.eye(3))])
    def test_map_matrix_must_match_the_point(self, smap):
        sigma = SpdMatrix(np.diag([2.0, 1.0]))
        with pytest.raises(DimensionMismatch):
            smap.apply(sigma)
        with pytest.raises(DimensionMismatch):
            map_differential(smap, sigma, np.eye(2))
        with pytest.raises(DimensionMismatch):
            map_differentials(smap, sigma, np.eye(2)[None])

    def test_counterexample_search_rejects_a_mismatched_map(self):
        with pytest.raises(DimensionMismatch):
            find_order_counterexample(congruence_map(np.eye(3)), quadratic_affine(1.0, 2), seed=0, budget=3)

    @pytest.mark.parametrize("r", [0.5, 2.0])
    def test_differential_and_order_routes_agree(self, r):
        # a clean differential report must come with a clean order-level scan,
        # and a dirty one with an order-level counterexample
        spec = quadratic_affine(1.5, 3)
        diff_clean = check_differential_positivity(
            power_map(r), spec, seed=8, n_points=30, n_directions=10
        ).is_positive
        order_violation = None
        for seed in range(200):
            s1, s2 = random_ordered_pair(spec, 3, seed)
            v = order_compare(spec, matrix_function(s1, "power", r), matrix_function(s2, "power", r))
            if v.relation not in ("less_equal", "equal") and v.forward_margin < -1e-9:
                order_violation = (s1, s2)
                break
        searched = find_order_counterexample(power_map(r), spec, seed=9, budget=2000)
        if diff_clean:
            assert order_violation is None and searched is None
        else:
            assert searched is not None


def _conal_step(spec, sigma, direction, size):
    """The point one orders._conal_steps step from sigma reaches."""
    return _checked(*_conal_steps(spec, SpdStack.of(sigma), direction.entries[None], np.array([size]))).point(0)


def reference_find_order_counterexample(m, spec, seed, budget):
    # The search one restart at a time: restart i draws its point and then
    # its boundary ray from derive_rng(seed, i) through the one-row views.
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
            if order_compare(spec, sigma, sigma2).relation not in ("less_equal", "equal"):
                continue
            verdict = order_compare(spec, m.apply(sigma), m.apply(sigma2))
            if verdict.relation not in ("less_equal", "equal") and verdict.forward_margin < -10.0 * DEFAULT_TOL:
                return sigma, sigma2, used
    return None


def search_outcome(fn):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # non-psd translation shifts warn
        try:
            found = fn()
        except Exception as exc:
            return type(exc), str(exc)
    return found if found is None else (hexes(found[0].entries), hexes(found[1].entries), found[2])


# criterion 03's ten searches, then maps with and without counterexamples
# (and with failing guards) on every cone kind, then the degenerate budgets
SEARCHES = (
    [(lambda: power_map(2.0), lambda: loewner(2), 3, 10_000)]
    + [(lambda: power_map(2.0), lambda n=n, mu=mu: quadratic_affine(mu, n), 100 + idx, 10_000)
       for idx, (n, mu) in enumerate((n, mu) for n in (2, 3, 5) for mu in (0.5, n / 2, n - 0.5))]
    + [(lambda r=r: power_map(r), cone, 5, 400) for r in (-1.0, 0.5, 1.0, 1.2, 3.0) for cone in (
        lambda: quadratic_affine(1.5, 3), lambda: quadratic_translation(1.0, 3), lambda: loewner(3),
        lambda: half_space_affine(3), lambda: ray_affine(3))]
    + [
        (inversion_map, lambda: quadratic_affine(1.5, 3), 6, 400),
        (lambda: power_map(40.0), lambda: quadratic_affine(1.5, 3), 7, 400),
        (lambda: translation_map(random_spd(3, derive_rng(900, 1), 0.5).entries),
         lambda: quadratic_affine(1.0, 3), 1, 400),
        (lambda: translation_map(-0.2 * np.eye(3)), lambda: quadratic_affine(1.5, 3), 4, 400),
        # no hit, and restart 2's image fails its guard: the error after restart 1's walk
        (lambda: translation_map(-0.2 * np.eye(3)), lambda: loewner(3), 4, 400),
        (lambda: power_map(12.0), lambda: half_space_affine(3), 4, 400),
        (lambda: congruence_map(np.eye(3)), lambda: quadratic_affine(1.0, 2), 0, 3),
        (lambda: power_map(2.0), lambda: loewner(2), 0, 0),
        (lambda: power_map(2.0), lambda: loewner(2), 0, -1),
    ]
)


class TestSearchMatchesLoop:
    @pytest.mark.parametrize("case", range(len(SEARCHES)))
    def test_same_result_as_the_restart_loop(self, case, small_blocks):
        # small_blocks: budgets of 400 cross blocks of 20 (n = 5) to 128 (n = 2) restarts
        build_map, build_cone, seed, budget = SEARCHES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m, spec = build_map(), build_cone()
        got = search_outcome(lambda: find_order_counterexample(m, spec, seed, budget))
        assert got == search_outcome(lambda: reference_find_order_counterexample(m, spec, seed, budget))

    def test_no_span_is_hashed_after_the_failing_restart(self, monkeypatch, small_blocks):
        # a shift of -0.1 I takes restart 76's image (smallest eigenvalue 0.078, every earlier one above
        # 0.107) out of the SPD set; small_blocks cuts spans [0, 1), [1, 57), [57, 113), ... at n = 3
        spans = []

        def recording(seed, indices):
            spans.append((int(indices[0, 0]), len(indices)))
            return derive_seed_words(seed, indices)

        monkeypatch.setattr(monotone, "derive_seed_words", recording)
        with pytest.warns(UserWarning, match="not positive semidefinite"):
            m = translation_map(-0.1 * np.eye(3))
        with pytest.raises(NotPositiveDefinite):
            find_order_counterexample(m, loewner(3), 0, 400)
        assert spans == [(0, 1), (1, 56), (57, 56)]
        with pytest.raises(NotPositiveDefinite):
            reference_find_order_counterexample(m, loewner(3), 0, 400)

    def test_same_result_across_real_blocks(self):
        # power 0.5 breaks no order, so all 1,000 restarts at n = 3 run:
        # restart 0, then blocks of core._block_rows(3) = 910 and 89
        m, spec = power_map(0.5), quadratic_affine(1.5, 3)
        got = search_outcome(lambda: find_order_counterexample(m, spec, 5, 1000))
        assert got is None and got == search_outcome(lambda: reference_find_order_counterexample(m, spec, 5, 1000))

    def test_huge_budget_returns_at_the_first_hit(self):
        # this shift's hit comes at restart 1, in the first block after
        # restart 0: nothing is drawn or allocated in proportion to the budget
        m, spec = translation_map(random_spd(2, derive_rng(900, 0), 0.5).entries), quadratic_affine(0.5, 2)
        tracemalloc.start()
        try:
            found = find_order_counterexample(m, spec, 0, 10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found[2] == 2 and peak < 4 * 10**6
        want = reference_find_order_counterexample(m, spec, 0, 10**12)
        assert search_outcome(lambda: found) == search_outcome(lambda: want)
