import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spdorders import (
    ConeSpec,
    SpdMatrix,
    SymTangent,
    cone_membership,
    conal_path_oracle,
    half_space_affine,
    loewner,
    order_compare,
    order_interval_sample,
    quadratic_affine,
    quadratic_translation,
    random_ordered_pair,
    random_spd,
    ray_affine,
    spd_validate,
)
from spdorders import cones, core, flows, geometry, orders, seeds
from spdorders.cones import sample_cone_tangent
from spdorders.core import BLOCK_ROWS, Spectrum, derive_rng, matrix_function, sym_eig
from spdorders.errors import (
    IllConditioned,
    InvalidParameters,
    NotOrdered,
    NotPositiveDefinite,
    NotSymmetric,
    SpdError,
)
from spdorders.geometry import relative_eigenframe

E = math.e
GRID = [(2, 0.5), (2, 1.0), (3, 1.5), (3, 2.5), (5, 2.5), (5, 4.5)]
ALL_SPECS = [
    quadratic_affine(1.5, 3),
    quadratic_translation(1.5, 3),
    loewner(3),
    half_space_affine(3),
    ray_affine(3),
]


class TestSpectralCriterion:
    def test_scalar_multiple_ordered(self):
        # log-eigenvalues (1, 1): sum 2 >= 0 and 4 - 2 >= 0
        v = order_compare(quadratic_affine(1.0, 2), spd_validate(np.eye(2)), spd_validate(E * np.eye(2)))
        assert v.relation == "less_equal"

    def test_unimodular_spread_incomparable(self):
        # log-eigenvalues (1, -1): sum 0 but 0 - 2 < 0
        v = order_compare(
            quadratic_affine(1.0, 2), spd_validate(np.eye(2)), spd_validate(np.diag([E, 1.0 / E]))
        )
        assert v.relation == "incomparable"

    def test_loewner_indefinite_difference(self):
        v = order_compare(loewner(2), spd_validate(np.eye(2)), spd_validate(np.diag([2.0, 0.5])))
        assert v.relation == "incomparable"

    def test_reflexive(self):
        sigma = random_spd(3, 4)
        for spec in ALL_SPECS:
            assert order_compare(spec, sigma, sigma).relation == "equal"

    def test_reverse_direction(self):
        spec = quadratic_affine(1.5, 3)
        s1, s2 = random_ordered_pair(spec, 3, 8)
        assert order_compare(spec, s2, s1).relation == "greater_equal"

    def test_half_space_by_log_det(self):
        spec = half_space_affine(2)
        a = spd_validate(np.diag([1.0, 1.0]))
        b = spd_validate(np.diag([3.0, 1.0]))
        assert order_compare(spec, a, b).relation == "less_equal"
        assert order_compare(spec, b, a).relation == "greater_equal"
        # equal determinants but distinct points: forward direction wins (preorder)
        c = spd_validate(np.diag([2.0, 0.5]))
        v = order_compare(spec, a, c)
        assert v.relation == "less_equal" and v.reverse_margin >= -1e-10

    def test_ray_order(self):
        spec = ray_affine(3)
        sigma = random_spd(3, 2, 0.5)
        double = spd_validate(2.0 * sigma.entries)
        assert order_compare(spec, sigma, double).relation == "less_equal"
        assert order_compare(spec, double, sigma).relation == "greater_equal"
        other = random_spd(3, 3, 0.5)
        assert order_compare(spec, sigma, other).relation == "incomparable"

    def test_ill_conditioned_pair_rejected(self):
        s1 = spd_validate(np.diag([1e-5, 1e5]))
        s2 = matrix_function(s1, "inv")
        with pytest.raises(IllConditioned):
            order_compare(quadratic_affine(1.0, 2), s1, s2)

    def test_antisymmetry_fuzz(self):
        # forward and reverse both holding forces equality (pointed cones)
        for spec in (quadratic_affine(0.7, 3), quadratic_translation(2.1, 3), loewner(3), ray_affine(3)):
            for seed in range(200):
                a = random_spd(3, seed, 0.6)
                b = random_spd(3, seed + 10_000, 0.6)
                v = order_compare(spec, a, b)
                both = v.forward_margin >= -1e-10 and v.reverse_margin >= -1e-10
                if both:
                    gap = np.linalg.norm(a.entries - b.entries)
                    assert gap <= 1e-8 * np.linalg.norm(a.entries)

    def test_transitivity_chains(self):
        # conal two-step chains: s1 <= s2 <= s3 implies s1 <= s3 (10^3 chains)
        from spdorders.cones import sample_cone_tangent

        count = 0
        for spec in ALL_SPECS:
            for seed in range(200):
                s1, s2 = random_ordered_pair(spec, 3, seed)
                rng = derive_rng(seed, 99)
                direction = sample_cone_tangent(spec, s2, rng, boundary=False)
                s3 = reference_step(spec, s2, direction, 0.6)
                assert order_compare(spec, s1, s2).relation in ("less_equal", "equal")
                assert order_compare(spec, s2, s3).relation in ("less_equal", "equal")
                assert order_compare(spec, s1, s3).relation in ("less_equal", "equal")
                count += 1
        assert count == 1000

    @pytest.mark.parametrize("n,mu", GRID)
    def test_congruence_invariance(self, n, mu):
        spec = quadratic_affine(mu, n)
        rng = np.random.default_rng(12)
        for _ in range(30):
            a = random_spd(n, int(rng.integers(1 << 30)), 0.7)
            b = random_spd(n, int(rng.integers(1 << 30)), 0.7)
            g = rng.standard_normal((n, n))
            v1 = order_compare(spec, a, b)
            v2 = order_compare(
                spec,
                spd_validate(g @ a.entries @ g.T),
                spd_validate(g @ b.entries @ g.T),
            )
            assert v1.relation == v2.relation
            assert v2.forward_margin == pytest.approx(v1.forward_margin, rel=1e-8, abs=1e-10)
            assert v2.reverse_margin == pytest.approx(v1.reverse_margin, rel=1e-8, abs=1e-10)

    def test_determinant_strictly_monotone(self):
        # ordered distinct pairs increase the determinant under pointed specs
        for spec in (quadratic_affine(2.5, 3), loewner(3), ray_affine(3)):
            for seed in range(100):
                s1, s2 = random_ordered_pair(spec, 3, seed)
                assert s2.log_det > s1.log_det

    def test_translation_affine_coincide_for_n2_mu1(self):
        affine = quadratic_affine(1.0, 2)
        translation = quadratic_translation(1.0, 2)
        for seed in range(1000):
            a = random_spd(2, seed, 0.7)
            b = random_spd(2, seed + 20_000, 0.7)
            assert order_compare(affine, a, b).relation == order_compare(translation, a, b).relation

    def test_spectrum_of_product_paths_agree(self):
        # eig(S2 S1^-1) computed directly matches the symmetric route
        from spdorders.geometry import relative_eigenvalues

        rng = np.random.default_rng(3)
        for _ in range(50):
            a = random_spd(4, int(rng.integers(1 << 30)), 0.7)
            b = random_spd(4, int(rng.integers(1 << 30)), 0.7)
            sym_route = relative_eigenvalues(a, b)
            direct = np.sort(np.linalg.eigvals(b.entries @ np.linalg.inv(a.entries)).real)
            assert np.allclose(direct, sym_route, rtol=1e-9, atol=1e-12)


def kinds_at(n):
    return [quadratic_affine(0.5 * n, n), quadratic_translation(0.5 * n, n), loewner(n),
            half_space_affine(n), ray_affine(n)]


def drift_bound(a, b):
    """How far an affine kind's margins may move when the pair is rescaled
    past LAPACK's exact range (OpenBLAS 0.3.31: max|A| outside [2^-400,
    2^485]), where eigh scales by a factor that is no power of two.  The
    cached eigenpairs of 2^k a are then those of 2^k (a + E), ||E|| <= c n eps
    lambda_max(a) (backward stability), which moves each relative eigenvalue
    by a relative c n eps kappa(a) (Weyl, on the pencil) and so each entry of
    d = log w by as much.  A margin is of degree 0 in d, with a gradient of
    norm O(sqrt(n) / ||d||): 16 n^2 kappa(a) / ||d|| ulp.  Over 5 n, 3 specs,
    48 pairs and 85 k in [-664, 664] the largest drift was 1.74 of its 16."""
    from spdorders.geometry import relative_eigenvalues

    w = a.spectrum.eigenvalues
    return 16 * a.n**2 * 2.0**-52 * (w[-1] / w[0]) / float(np.linalg.norm(np.log(relative_eigenvalues(a, b))))


class TestExtremeMagnitudes:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [664, -664])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_power_of_two_scaling_keeps_the_verdict(self, n, k):
        # 2^664 puts the entries near 1e200, where the squares in a
        # Frobenius norm overflow; 2^-664 near 1e-200, where they underflow.
        # The half-space and translation margins read only exact ldexps of
        # the entries, so they keep every bit; the affine ones read cached
        # eigenpairs, which LAPACK rescales out here
        for spec in kinds_at(n):
            for seed in range(6):
                s1, s2 = random_ordered_pair(spec, n, seed)
                r1, r2 = random_spd(n, derive_rng(seed, 1), 0.8), random_spd(n, derive_rng(seed, 2), 0.8)
                for a, b in ((s1, s2), (s2, s1), (r1, r2)):
                    want = order_compare(spec, a, b)
                    got = order_compare(spec, SpdMatrix(np.ldexp(a.entries, k)), SpdMatrix(np.ldexp(b.entries, k)))
                    assert got.relation == want.relation
                    bound = drift_bound(a, b) if spec.kind in ("quad-affine", "ray") else 0.0  # 0: bit for bit
                    for g, w in ((got.forward_margin, want.forward_margin), (got.reverse_margin, want.reverse_margin)):
                        assert abs(g - w) <= bound

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(n=st.sampled_from([1, 2, 3, 5, 8]), kind=st.integers(0, 4), seed=st.integers(0, 2**16),
           pair=st.sampled_from(["random", "ordered", "reversed"]),
           near=st.lists(st.integers(-200, 200), max_size=6), far=st.integers(-520, 520))
    def test_margins_are_bit_for_bit_at_every_power_of_two(self, n, kind, seed, pair, near, far):
        # every k in core.WINDOW's range gives the same bits: the verdict, its
        # margins, the relative spectrum and the distance; out to 2^+-520 the
        # margins stay within drift_bound
        from spdorders.geometry import distance, relative_eigenvalues

        spec = specs_at(n)[kind]
        a, b = random_spd(n, derive_rng(seed, 0), 0.8), random_spd(n, derive_rng(seed, 1), 0.8)
        if pair != "random":
            a, b = random_ordered_pair(spec, n, seed)[:: 1 if pair == "ordered" else -1]

        def outcomes(k):
            x, y = SpdMatrix(np.ldexp(a.entries, k)), SpdMatrix(np.ldexp(b.entries, k))
            out = [compare_outcome(lean_compare, spec, x, y)]
            for f in (relative_eigenvalues, distance):
                try:
                    out.append(hexes(np.atleast_1d(f(x, y))))
                except SpdError as exc:
                    out.append((type(exc), str(exc)))
            return out

        want = outcomes(0)
        for k in (-200, 200, *near):
            assert outcomes(k) == want
        got = outcomes(far)
        assert got[0][0] == want[0][0]
        if isinstance(want[0][1], list) and want[0][0] != "equal":
            bound = drift_bound(a, b) if spec.kind in ("quad-affine", "ray") else 0.0
            for g, w in zip(got[0][1], want[0][1]):
                assert abs(float.fromhex(g) - float.fromhex(w)) <= bound

    def test_spectral_margins_square_the_norm_correctly_rounded(self):
        # m**2 on a Python float is libm's pow, which is not correctly rounded:
        # for this d it read one ulp apart at d and at 2^-4 d
        spec = quadratic_translation(4.0 / 3.0, 2)
        d = core.eigvalsh(random_spd(2, derive_rng(55, 1), 0.8).entries - random_spd(2, derive_rng(55, 0), 0.8).entries)
        margins = [[m.hex() for m in orders._spectral_margins(np.ldexp(d, k), spec)] for k in (0, -4)]
        assert margins[0] == margins[1]

    @pytest.mark.filterwarnings("error")
    def test_huge_multiple_of_identity_is_above_a_unit_matrix(self):
        a, b = SpdMatrix(1e200 * np.eye(2)), SpdMatrix(np.diag([2.0, 1.0]))
        for spec in kinds_at(2):
            want = "incomparable" if spec.kind == "ray" else "greater_equal"  # diag(2, 1) is no multiple of I
            assert order_compare(spec, a, b).relation == want
        assert order_compare(ConeSpec("quad-affine", 2, 1.0), a, b).relation == "greater_equal"

    @pytest.mark.filterwarnings("error")
    def test_relative_spectrum_past_the_float_range_raises(self):
        # the relative spectra {2^1200, 2^1201} and {2^-1201, 2^-1200} have
        # condition number 2, but no float holds them
        from spdorders.geometry import distance, relative_eigenvalues

        a, b = SpdMatrix(np.ldexp(np.eye(2), -600)), SpdMatrix(np.ldexp(np.diag([1.0, 2.0]), 600))
        for lo, hi in ((a, b), (b, a)):
            for spec in (quadratic_affine(1.0, 2), ray_affine(2)):
                with pytest.raises(InvalidParameters, match="normal float range"):
                    order_compare(spec, lo, hi)
            for f in (relative_eigenvalues, distance):
                with pytest.raises(InvalidParameters, match="normal float range"):
                    f(lo, hi)

    @pytest.mark.filterwarnings("error")
    def test_tiny_pair_is_ordered_not_equal(self):
        a, b = SpdMatrix(1e-200 * np.eye(2)), SpdMatrix(np.diag([2e-200, 1e-200]))
        for spec in (loewner(2), quadratic_translation(1.0, 2), quadratic_affine(1.0, 2)):
            verdict = order_compare(spec, a, b)
            assert verdict.relation == "less_equal" and verdict.reverse_margin == -1.0


class TestConalPathOracle:
    @pytest.mark.parametrize("n,mu", GRID)
    def test_agrees_with_spectral_criterion(self, n, mu):
        spec = quadratic_affine(mu, n)
        for seed in range(25):
            s1, s2 = random_ordered_pair(spec, n, seed)
            assert conal_path_oracle(spec, s1, s2, 25)
            a = random_spd(n, seed, 0.8)
            b = random_spd(n, seed + 999, 0.8)
            fwd = order_compare(spec, a, b).relation in ("less_equal", "equal")
            assert conal_path_oracle(spec, a, b, 25) == fwd

    def test_equal_endpoints(self):
        sigma = random_spd(3, 6)
        for spec in ALL_SPECS:
            assert conal_path_oracle(spec, sigma, sigma, 10)

    def test_loewner_psd_difference_via_straight_line(self):
        sigma = random_spd(3, 1, 0.5)
        bump = spd_validate(sigma.entries + np.diag([0.2, 0.1, 0.3]))
        assert conal_path_oracle(loewner(3), sigma, bump, 20)
        dent = np.array(sigma.entries)
        dent[0, 0] += 0.5
        dent[1, 1] -= 0.1
        assert not conal_path_oracle(loewner(3), sigma, spd_validate(dent), 20)


def reference_oracle(spec, sigma1, sigma2, samples, tol=1e-10):
    """The path oracle as a per-sample loop: one SpdMatrix, one SymTangent
    and one cone_membership call per sample, stopping at the first sample
    that fails."""
    ts = np.linspace(0.0, 1.0, samples)
    if spec.kind in ("quad-translate", "loewner"):
        velocity = SymTangent(sigma2.entries - sigma1.entries)
        for t in ts:
            point = SpdMatrix((1.0 - t) * sigma1.entries + t * sigma2.entries)
            if cone_membership(spec, point, velocity, tol=tol).margin < -10.0 * tol:
                return False
        return True
    b, w = relative_eigenframe(sigma1, sigma2)
    logw = np.log(w)
    if np.linalg.norm(logw) <= 1e-10:
        return True
    for t in ts:
        powers = w**t
        point = SpdMatrix(b @ np.diag(powers) @ b.T)
        velocity = SymTangent(b @ np.diag(logw * powers) @ b.T)
        if cone_membership(spec, point, velocity, tol=tol).margin < -10.0 * tol:
            return False
    return True


def outcome(oracle, *args):
    try:
        return oracle(*args)
    except SpdError as exc:
        return type(exc)


def unvalidated_point(entries):
    """An SpdMatrix endpoint that skipped validation, so that the path
    reaches points the oracle must reject."""
    fake = object.__new__(SpdMatrix)
    fake.entries = np.array(entries, dtype=float)
    return fake


def block_sizes(count, n):
    """The stack sizes of a block walk over count rows at dimension n: row 0 alone, then
    core._block_rows(n) rows at a time."""
    rows = core._block_rows(n)
    return [1] + [min(rows, count - first) for first in range(1, count, rows)]


class TestBatchedOracleMatchesLoop:
    # small_blocks: the sample counts around 128 and 256 cross block boundaries at every n
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        kind=st.sampled_from(["quad-affine", "quad-translate", "loewner", "half-space", "ray"]),
        n=st.integers(2, 4),
        mu_frac=st.floats(0.05, 0.95),
        pair=st.sampled_from(["random", "forward", "reverse", "equal"]),
        seed=st.integers(0, 2**31 - 1),
        samples=st.one_of(st.integers(2, 40), st.integers(BLOCK_ROWS - 1, 2 * BLOCK_ROWS + 3)),
    )
    def test_same_verdict_as_per_sample_loop(self, small_blocks, kind, n, mu_frac, pair, seed, samples):
        mu = mu_frac * n if kind.startswith("quad") else None
        spec = ConeSpec(kind, n, mu)
        if pair == "random":
            a, b = random_spd(n, derive_rng(seed, 0), 0.8), random_spd(n, derive_rng(seed, 1), 0.8)
        elif pair == "equal":
            a = b = random_spd(n, seed, 0.8)
        else:
            a, b = random_ordered_pair(spec, n, seed)
            if pair == "reverse":
                a, b = b, a
        expected = outcome(reference_oracle, spec, a, b, samples)
        assert outcome(conal_path_oracle, spec, a, b, samples) == expected
        if pair in ("forward", "equal"):
            assert expected is True

    @pytest.mark.parametrize("spec", [quadratic_affine(1.5, 3), half_space_affine(3), ray_affine(3)],
                             ids=lambda s: s.kind)
    def test_unordered_pair_guards_one_sample(self, spec, monkeypatch, small_blocks):
        # the margin is constant along the geodesic, so sample 0 decides;
        # the endpoints certify both paths, so no block runs the eigen test
        tested, eigen_tested = [], []
        margins, positive_rows = orders.cone_margins, orders._positive_rows

        def counting_margins(spec, points, velocities):
            tested.append(len(points))
            return margins(spec, points, velocities)

        def counting_positive_rows(sym, err):
            eigen_tested.append(len(sym))
            return positive_rows(sym, err)

        monkeypatch.setattr(orders, "cone_margins", counting_margins)
        monkeypatch.setattr(orders, "_positive_rows", counting_positive_rows)
        sigma1, sigma2 = random_ordered_pair(spec, 3, 5)
        assert conal_path_oracle(spec, sigma2, sigma1, 300) is False
        assert tested == [1]
        tested.clear()
        assert conal_path_oracle(spec, sigma1, sigma2, 300) is True
        assert tested == [1, 56, 56, 56, 56, 56, 19] == block_sizes(300, 3)
        assert eigen_tested == []

    def test_unordered_pair_builds_no_grid(self):
        # sample 0 decides an unordered pair, and each block builds its own
        # sample times: 10**7 samples allocate no 80 MB grid up front
        spec = quadratic_affine(1.5, 3)
        sigma1, sigma2 = random_ordered_pair(spec, 3, 5)
        assert conal_path_oracle(spec, sigma2, sigma1, 100) is False  # caches filled before tracing
        tracemalloc.start()
        try:
            assert conal_path_oracle(spec, sigma2, sigma1, 10**7) is False
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    # at 50, 99 and 198 samples (n - 1) * (1 / (n - 1)) rounds below 1.0, so the last time needs
    # setting; at n = 3 a block holds 56 samples with BLOCK_ROWS at 8, 910 at 128 (the real size)
    @pytest.mark.parametrize("block_rows", [8, BLOCK_ROWS])
    @pytest.mark.parametrize("samples", [2, 3, 50, 57, 58, 99, 100, 113, 128, 129, 130, 198, 257, 911, 912, 1001])
    def test_sample_times_are_linspace(self, samples, block_rows, monkeypatch):
        monkeypatch.setattr(core, "BLOCK_ROWS", block_rows)
        times = []
        conal_path = orders._conal_path

        def recording(*args):
            path, constant = conal_path(*args)

            def recorded(t):
                times.append(t.ravel().copy())
                return path(t)

            return recorded, constant

        monkeypatch.setattr(orders, "_conal_path", recording)
        spec = quadratic_affine(1.5, 3)
        assert conal_path_oracle(spec, *random_ordered_pair(spec, 3, 5), samples) is True
        assert hexes(np.concatenate(times)) == hexes(np.linspace(0.0, 1.0, samples))
        assert [len(t) for t in times] == block_sizes(samples, 3)

    @pytest.mark.parametrize("spec", [quadratic_affine(2.5, 5), loewner(5)], ids=lambda s: s.kind)
    def test_memory_is_bounded_by_the_block(self, spec):
        # an ordered pair runs every sample; one stack of 20,000 points
        # holds 4 MB per array (the one-stack oracle peaked at 17-21 MB),
        # a block of core._block_rows(5) = 327 rows about 65 KB
        samples, n = 20_000, spec.n
        sigma1, sigma2 = random_ordered_pair(spec, n, 3)
        tracemalloc.start()
        try:
            assert conal_path_oracle(spec, sigma1, sigma2, samples) is True
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one_stack = samples * n * n * 8
        assert peak <= one_stack / 5
        assert peak <= samples * 8 + 20 * BLOCK_ROWS * n * n * 8  # the sample times, and a few block arrays

    def test_margin_failure_before_an_invalid_point_decides(self):
        # the velocity diag(0, -2) leaves the Loewner cone at the first
        # sample; the path diag(1, 1 - 2t) stops being SPD past t = 1/2
        sigma1, sigma2 = spd_validate(np.eye(2)), unvalidated_point(np.diag([1.0, -1.0]))
        assert reference_oracle(loewner(2), sigma1, sigma2, 11) is False
        assert conal_path_oracle(loewner(2), sigma1, sigma2, 11) is False

    def test_invalid_point_before_any_margin_failure_raises(self):
        # the velocity diag(3, -1) is inside the quadratic cone (mu = 0.3);
        # only the last point diag(4, 0) fails, on positive definiteness
        spec = quadratic_translation(0.3, 2)
        sigma1, sigma2 = spd_validate(np.eye(2)), unvalidated_point(np.diag([4.0, 0.0]))
        with pytest.raises(NotPositiveDefinite):
            reference_oracle(spec, sigma1, sigma2, 11)
        with pytest.raises(NotPositiveDefinite):
            conal_path_oracle(spec, sigma1, sigma2, 11)

    @pytest.mark.parametrize("spec, end, verdict", [
        # the velocity leaves the Loewner cone at sample 0: the invalid points come later
        (loewner(2), [1.0, -1.0], False),
        # the velocity is inside: the points past t = 1/1.02, in the last block, fail
        (quadratic_translation(0.3, 2), [4.0, -0.02], NotPositiveDefinite),
    ], ids=["margin", "invalid"])
    def test_first_failure_decides_across_blocks(self, spec, end, verdict, small_blocks):
        sigma1, sigma2 = spd_validate(np.eye(2)), unvalidated_point(np.diag(end))
        for samples in (BLOCK_ROWS, BLOCK_ROWS + 1, BLOCK_ROWS + 2, 300):
            expected = outcome(reference_oracle, spec, sigma1, sigma2, samples)
            assert outcome(conal_path_oracle, spec, sigma1, sigma2, samples) == expected == verdict

    def test_overflowing_velocity_after_margin_failure_decides(self):
        # the geodesic from I to diag(M/2, M/4) leaves the ray at the first
        # sample; its velocity overflows to inf only at the last one
        huge = np.finfo(float).max
        sigma1, sigma2 = spd_validate(np.eye(2)), spd_validate(np.diag([huge / 2, huge / 4]))
        with np.errstate(over="ignore", invalid="ignore"):
            assert reference_oracle(ray_affine(2), sigma1, sigma2, 11) is False
            assert conal_path_oracle(ray_affine(2), sigma1, sigma2, 11) is False

    def test_overflowing_velocity_before_any_margin_failure_raises(self):
        # along the geodesic from I to (M/2) I the velocity is a positive
        # multiple of the point, inside the cone, until it overflows to inf
        huge = np.finfo(float).max
        sigma1, sigma2 = spd_validate(np.eye(2)), spd_validate(huge / 2 * np.eye(2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidParameters, match="finite"):
                reference_oracle(quadratic_affine(1.0, 2), sigma1, sigma2, 11)
            with pytest.raises(InvalidParameters, match="finite"):
                conal_path_oracle(quadratic_affine(1.0, 2), sigma1, sigma2, 11)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("spec", [loewner(2), quadratic_translation(0.5, 2)], ids=lambda s: s.kind)
    def test_non_finite_endpoint_raises(self, spec, bad):
        # every sample, the first included, is non-finite
        sigma1, sigma2 = spd_validate(np.eye(2)), unvalidated_point([[1.0, bad], [bad, 1.0]])
        with np.errstate(invalid="ignore"):
            with pytest.raises(InvalidParameters, match="finite"):
                reference_oracle(spec, sigma1, sigma2, 11)
            with pytest.raises(InvalidParameters, match="finite"):
                conal_path_oracle(spec, sigma1, sigma2, 11)


class TestIntervalSampling:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_samples_revalidate(self, spec):
        s1, s2 = random_ordered_pair(spec, 3, 11)
        points = order_interval_sample(spec, s1, s2, seed=0, count=6)
        assert len(points) == 6
        for p in points:
            assert order_compare(spec, s1, p).relation in ("less_equal", "equal")
            assert order_compare(spec, p, s2).relation in ("less_equal", "equal")

    def test_relative_frame_computed_once_per_interval(self, monkeypatch):
        calls = []

        def counting(sigma1, sigma2):
            calls.append(1)
            return relative_eigenframe(sigma1, sigma2)

        monkeypatch.setattr(geometry, "relative_eigenframe", counting)
        spec = quadratic_affine(1.2, 3)
        s1, s2 = random_ordered_pair(spec, 3, 11)
        assert len(order_interval_sample(spec, s1, s2, seed=0, count=6)) == 6
        assert len(calls) == 1
        assert order_interval_sample(spec, s1, s2, seed=0, count=0) == [] and len(calls) == 1

    def test_first_sample_is_the_midpoint(self):
        from spdorders.geometry import geodesic

        # The ray and half-space cases tell w**0.5, numpy's sqrt, from a
        # midpoint that shares an array exponent with the other samples.
        cases = [(quadratic_affine(1.2, 3), 21, 5, 1), (ray_affine(3), 0, 0, 5), (half_space_affine(1), 1, 1, 5)]
        for spec, pair_seed, seed, count in cases:
            s1, s2 = random_ordered_pair(spec, spec.n, pair_seed)
            points = order_interval_sample(spec, s1, s2, seed=seed, count=count)
            assert np.array_equal(points[0].entries, geodesic(s1, s2, 0.5).entries)

    def test_endpoints_are_valid_interval_points(self):
        spec = quadratic_affine(1.2, 3)
        s1, s2 = random_ordered_pair(spec, 3, 31)
        for p in (s1, s2):
            assert order_compare(spec, s1, p).relation in ("less_equal", "equal")
            assert order_compare(spec, p, s2).relation in ("less_equal", "equal")

    def test_unordered_endpoints_rejected(self):
        spec = quadratic_affine(2.5, 3)
        a = random_spd(3, 1, 0.8)
        b = random_spd(3, 2, 0.8)
        if order_compare(spec, a, b).relation in ("less_equal", "equal"):
            pytest.skip("random pair unexpectedly ordered")
        with pytest.raises(NotOrdered):
            order_interval_sample(spec, a, b, seed=0, count=2)

    def test_unexpected_step_errors_propagate(self, monkeypatch):
        # only SpdError means "no candidate"; anything else is a defect
        def broken_step(*args):
            raise TypeError("broken step")

        spec = quadratic_affine(1.2, 3)
        s1, s2 = random_ordered_pair(spec, 3, 21)
        monkeypatch.setattr(orders, "_conal_steps", broken_step)
        with pytest.raises(TypeError, match="broken step"):
            order_interval_sample(spec, s1, s2, seed=5, count=3)

    def test_transient_memory_stays_near_one_block(self, small_blocks):
        # small_blocks: 200 samples at n = 3 are 5 spans of at most 56, 760 samples 15; each span's
        # generators, points, directions and steps go before the next is built.  The returned
        # points stay held, so the peak above them is what the walk allocates.  Both counts end in
        # a span of 31 samples, since the points returned after the peak move the figure by up to
        # 1.4x with the length of the last span
        spec = quadratic_affine(1.5, 3)
        s1, s2 = random_ordered_pair(spec, 3, 11)
        order_interval_sample(spec, s1, s2, seed=0, count=60)  # caches and lazy imports filled before tracing

        def transient(count):
            tracemalloc.start()
            try:
                points = order_interval_sample(spec, s1, s2, seed=0, count=count)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(points) == count
            return peak - held

        assert transient(200 + 10 * core._block_rows(3)) <= 1.2 * transient(200)


# ---------------------------------------------------------------------------
# The lean order_compare and the stacked interval sampler against the
# scalar code they replace, kept here as references (each comparison
# written out at the pair's canonical scale).
# ---------------------------------------------------------------------------


def exponent(sigma):
    """j with lambda_max in [2^(j-1), 2^j): frexp's exponent."""
    return math.frexp(sigma.spectrum.eigenvalues[-1])[1]


def reference_relative_eigenframe(sigma1, sigma2):
    # whitened at the canonical scale 2^shift: sigma1's eigenvalues and sigma2's entries scaled exactly
    shift = -max(exponent(sigma1), exponent(sigma2))
    scaled = Spectrum(np.ldexp(sigma1.spectrum.eigenvalues, shift), sigma1.spectrum.eigenvectors)
    inv_root = scaled.apply(lambda w: 1.0 / np.sqrt(w))
    rel = 0.5 * (inv_root @ np.ldexp(sigma2.entries, shift) @ inv_root)
    w, u = np.linalg.eigh(rel + rel.T)
    if w[0] <= 0 or w[-1] / w[0] > 1e12:
        raise IllConditioned("relative matrix of the pair condition number exceeds 1.0e+12")
    return sigma1.spectrum.apply(np.sqrt) @ u, w


def reference_spectral_margins(d, mu, kind):
    nrm = float(np.linalg.norm(d))
    if nrm == 0.0:
        return 1.0, 1.0
    if kind == "loewner":
        return float(d[0]) / nrm, -float(d[-1]) / nrm
    s = float(np.sum(d))
    if kind == "ray":
        deviation = float(np.linalg.norm(d - s / d.shape[0])) / nrm
        return min(-deviation, s / nrm), min(-deviation, -s / nrm)
    quad = (s * s - mu * float(np.sum(d * d))) / nrm**2
    return min(s / nrm, quad), min(-s / nrm, quad)


def reference_compare(spec, sigma1, sigma2, tol=1e-10):
    """order_compare written out at the pair's canonical scale: both points
    scaled by 2^-max(j1, j2), j the frexp exponent of a point's lambda_max,
    and for the half-space margin each point by its own 2^-j."""
    j1, j2 = exponent(sigma1), exponent(sigma2)
    e1, e2 = np.ldexp(sigma1.entries, -max(j1, j2)), np.ldexp(sigma2.entries, -max(j1, j2))
    scale = max(float(np.linalg.norm(e1)), float(np.linalg.norm(e2)))
    if float(np.linalg.norm(e2 - e1)) <= 1e-10 * scale:
        return "equal", 1.0, 1.0
    if spec.kind == "half-space":
        chol1 = np.linalg.cholesky(np.ldexp(sigma1.entries, -j1))
        chol2 = np.linalg.cholesky(np.ldexp(sigma2.entries, -j2))
        ld = 2.0 * float(np.sum(np.log(np.diag(chol2)))) - 2.0 * float(np.sum(np.log(np.diag(chol1))))
        ld += sigma1.n * (j2 - j1) * math.log(2.0)
        fwd, rev = ld, -ld
    else:
        if spec.kind in ("quad-translate", "loewner"):
            d = np.linalg.eigvalsh(e2 - e1)
        else:
            d = np.log(reference_relative_eigenframe(sigma1, sigma2)[1])
        fwd, rev = reference_spectral_margins(d, spec.mu, spec.kind)
    if fwd >= -tol:
        return "less_equal", fwd, rev
    if rev >= -tol:
        return "greater_equal", fwd, rev
    return "incomparable", fwd, rev


def reference_step(spec, sigma, direction, size):
    """One conal step from sigma as it was written before the stacked step kernel, orders._conal_steps."""
    if spec.kind in ("quad-translate", "loewner"):
        lam_min = sigma.spectrum.eigenvalues[0]
        return SpdMatrix(sigma.entries + size * 0.5 * lam_min * direction.entries)
    inv_root = sigma.spectrum.apply(lambda w: 1.0 / np.sqrt(w))
    s = inv_root @ (size * direction.entries) @ inv_root
    spec_s = sym_eig(0.5 * (s + s.T))
    w = spec_s.eigenvalues
    if w[-1] - w[0] > np.log(1e12):
        raise IllConditioned("exponential image would exceed the condition cap")
    root = sigma.spectrum.apply(np.sqrt)
    return SpdMatrix(root @ spec_s.apply(np.exp) @ root)


def reference_interval_sample(spec, sigma1, sigma2, seed, count, step=reference_step):
    """order_interval_sample as a per-sample loop, as it was written before
    the stacked sampler; returns each point with how it was chosen."""
    if reference_compare(spec, sigma1, sigma2)[0] not in ("less_equal", "equal"):
        raise NotOrdered(f"endpoints compare as {reference_compare(spec, sigma1, sigma2)[0]}")
    if count > 0:
        path, _ = orders._conal_path(spec, sigma1, sigma2)

    def valid(candidate):
        lo = reference_compare(spec, sigma1, candidate)[0]
        hi = reference_compare(spec, candidate, sigma2)[0]
        return lo in ("less_equal", "equal") and hi in ("less_equal", "equal")

    out = []
    for i in range(count):
        rng = derive_rng(seed, i)
        t = 0.5 if i == 0 else float(rng.uniform(0.05, 0.95))
        base = SpdMatrix(path(t)[0])
        chosen = None
        if i > 0:
            direction = sample_cone_tangent(spec, base, rng, boundary=False)
            size = 0.15
            for _ in range(6):
                try:
                    candidate = step(spec, base, direction, size)
                except SpdError:
                    break
                if valid(candidate):
                    chosen = (candidate, "step")
                    break
                size *= 0.5
        if chosen is None:
            chosen = (base, "path") if valid(base) else (sigma1, "sigma1")
        out.append(chosen)
    return out


def hexes(values):
    return [float(v).hex() for v in values]


def compare_outcome(compare, spec, a, b):
    try:
        relation, fwd, rev = compare(spec, a, b)
    except SpdError as exc:
        return type(exc), str(exc)
    return relation, hexes([fwd, rev])


def frame_outcome(sigma1, sigma2):
    """relative_eigenframe (b and w), relative_eigenvalues and distance of the pair, each on a fresh copy
    of it, so that each works out the pair's scaling itself; or the error they raise."""
    from spdorders.geometry import distance, relative_eigenvalues

    def fresh():
        return SpdMatrix(sigma1.entries), SpdMatrix(sigma2.entries)

    try:
        b, w = relative_eigenframe(*fresh())
        return hexes(b.ravel()), hexes(w), hexes(relative_eigenvalues(*fresh())), distance(*fresh()).hex()
    except SpdError as exc:
        return type(exc), str(exc)


def reference_frame_outcome(sigma1, sigma2):
    try:
        b, w = reference_relative_eigenframe(sigma1, sigma2)
    except SpdError as exc:
        return type(exc), str(exc)
    return hexes(b.ravel()), hexes(w), hexes(w), float(np.linalg.norm(np.log(w))).hex()


def lean_compare(spec, a, b):
    verdict = order_compare(spec, a, b)
    return verdict.relation, verdict.forward_margin, verdict.reverse_margin


def specs_at(n):
    return [ConeSpec("quad-affine", n, n / 3), ConeSpec("quad-translate", n, 2 * n / 3),
            loewner(n), half_space_affine(n), ray_affine(n)]


class TestLeanCompareMatchesReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_relations_and_margins_bit_for_bit(self, n):
        from spdorders.geometry import distance, relative_eigenvalues

        for spec in specs_at(n):
            for seed in range(12):
                a, b = random_spd(n, derive_rng(seed, 0), 0.8), random_spd(n, derive_rng(seed, 1), 0.8)
                lo, hi = random_ordered_pair(spec, n, seed)
                pairs = [(a, b), (b, a), (lo, hi), (hi, lo), (a, a), (lo, SpdMatrix(lo.entries))]
                for k in (-520, -500, -300, 300, 500, 520):
                    pairs.append((SpdMatrix(np.ldexp(a.entries, k)), SpdMatrix(np.ldexp(b.entries, k))))
                    pairs.append((SpdMatrix(np.ldexp(lo.entries, k)), SpdMatrix(np.ldexp(hi.entries, k))))
                for x, y in pairs:
                    # the standalone path, on fresh copies that no order_compare has seen
                    assert frame_outcome(x, y) == reference_frame_outcome(x, y)
                    want = compare_outcome(reference_compare, spec, x, y)
                    assert compare_outcome(lean_compare, spec, x, y) == want
                    try:
                        ref_w = reference_relative_eigenframe(x, y)[1]
                    except IllConditioned:
                        with pytest.raises(IllConditioned):
                            relative_eigenvalues(x, y)
                        continue
                    assert hexes(relative_eigenvalues(x, y)) == hexes(ref_w)
                    assert distance(x, y).hex() == float(np.linalg.norm(np.log(ref_w))).hex()

    def test_ill_conditioned_pair_raises_as_before(self):
        a, b = spd_validate(np.diag([1e-7, 1.0])), spd_validate(np.diag([1.0, 1e-7]))
        assert compare_outcome(lean_compare, quadratic_affine(1.0, 2), a, b) == (
            compare_outcome(reference_compare, quadratic_affine(1.0, 2), a, b))


def interval_outcome(sampler, *args, **kwargs):
    try:
        points = sampler(*args, **kwargs)
    except SpdError as exc:
        return type(exc), str(exc)
    return [p.entries.tobytes() for p in points]


def reference_outcome(*args, **kwargs):
    try:
        chosen = reference_interval_sample(*args, **kwargs)
    except SpdError as exc:
        return (type(exc), str(exc)), set()
    return [p.entries.tobytes() for p, _ in chosen], {how for _, how in chosen}


class TestIntervalSamplerMatchesLoop:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_same_points_as_per_sample_loop(self, n):
        taken = set()
        for spec in specs_at(n):
            for pair_seed in (0, 7):
                s1, s2 = random_ordered_pair(spec, n, pair_seed)
                for seed in (0, 5, -3):
                    for count in (0, 1, 2, 6):
                        want, how = reference_outcome(spec, s1, s2, seed, count)
                        taken |= how
                        assert interval_outcome(order_interval_sample, spec, s1, s2, seed, count) == want
        assert "step" in taken

    def test_fallbacks_match(self):
        # sigma2 - sigma1 is 2^-30 e1 e1^T exactly (2^-30 I for the ray): no
        # nudge stays below sigma2, and a path point whose rounding leaves
        # the thin interval falls back to sigma1
        s1 = spd_validate([[1.3, 0.4], [0.4, 0.9]])
        thin = spd_validate(s1.entries + np.diag([2.0**-30, 0.0]))
        cases = [(quadratic_affine(0.5, 2), s1, thin), (quadratic_translation(0.5, 2), s1, thin),
                 (loewner(2), s1, thin), (half_space_affine(2), s1, thin),
                 (ray_affine(2), spd_validate(np.eye(2)), spd_validate((1.0 + 2.0**-30) * np.eye(2)))]
        taken = set()
        for spec, s1, s2 in cases:
            for seed in range(4):
                want, how = reference_outcome(spec, s1, s2, seed, 8)
                taken |= how
                assert interval_outcome(order_interval_sample, spec, s1, s2, seed, 8) == want
        assert {"path", "sigma1"} <= taken

    @pytest.mark.parametrize("k", [-520, -450, 450, 520])
    def test_extreme_magnitudes_as_per_sample_loop(self, k):
        # endpoints at 2^+-450 and 2^+-520, each pair decided at its canonical scale;
        # a unit nudge at a tiny base point fails its step, and the sampler
        # decides that without a floating-point warning
        for spec in specs_at(2):
            s1, s2 = random_ordered_pair(spec, 2, 4)
            s1, s2 = SpdMatrix(np.ldexp(s1.entries, k)), SpdMatrix(np.ldexp(s2.entries, k))
            for count in (1, 2, 6):
                with np.errstate(over="ignore", invalid="ignore"):
                    want, _ = reference_outcome(spec, s1, s2, 3, count)
                assert interval_outcome(order_interval_sample, spec, s1, s2, 3, count) == want

    def test_equal_endpoints_fall_back_to_the_path(self):
        s1 = random_spd(3, 4, 0.7)
        for spec in specs_at(3):
            want, how = reference_outcome(spec, s1, s1, 2, 5)
            assert how == {"path"}
            assert interval_outcome(order_interval_sample, spec, s1, s1, 2, 5) == want

    def test_failing_steps_end_their_rows(self):
        # from 1e-3 I towards I the whitened nudge grows as the base point
        # shrinks: rows near sigma1 fail at the first size, later rows step
        spec = quadratic_affine(1.0, 2)
        s1, s2 = spd_validate(1e-3 * np.eye(2)), spd_validate(np.array([[1.0, 0.2], [0.2, 0.9]]))
        failed = []

        def counting_step(*args):
            try:
                return reference_step(*args)
            except SpdError:
                failed.append(args[-1])
                raise

        for seed in range(3):
            want, _ = reference_outcome(spec, s1, s2, seed, 12, step=counting_step)
            assert interval_outcome(order_interval_sample, spec, s1, s2, seed, 12) == want
        assert failed

    def test_step_failing_mid_sequence_ends_its_row(self, monkeypatch):
        # every step of the third size fails: each row's search ends there
        third = float(orders.STEP_SIZES[2])

        def failing_step(spec, sigma, direction, size):
            if size == third:
                raise NotPositiveDefinite("third size")
            return reference_step(spec, sigma, direction, size)

        real = orders._conal_steps

        def failing_steps(spec, bases, directions, sizes):
            steps, err = real(spec, bases, directions, sizes)
            cut = [i for i in range(len(bases) * len(sizes)) if sizes[i % len(sizes)] == third]
            if cut and cut[0] < len(steps):
                return steps[:cut[0]], NotPositiveDefinite("third size")
            return steps, err

        monkeypatch.setattr(orders, "_conal_steps", failing_steps)
        for spec in specs_at(3):
            s1, s2 = random_ordered_pair(spec, 3, 3)
            for seed in range(3):
                want, _ = reference_outcome(spec, s1, s2, seed, 6, step=failing_step)
                assert interval_outcome(order_interval_sample, spec, s1, s2, seed, 6) == want

    def test_earliest_error_wins(self, monkeypatch):
        # tangents whose leading entry is above a threshold fail, each with
        # its own message; every count pins the row whose error is raised
        import spdorders.cones as cones

        real = cones._tangent_stack

        def failing_tangents(spec, points, rngs, boundary):
            ys, err = real(spec, points, rngs, boundary)
            high = np.flatnonzero(ys[:, 0, 0] > 0.6)
            if len(high):
                return ys[:high[0]], NotSymmetric(f"tangent {ys[high[0], 0, 0]!r}")
            return ys, err

        pairs = [(spec, *random_ordered_pair(spec, 2, 5)) for spec in [quadratic_affine(1.0, 2), loewner(2)]]
        monkeypatch.setattr(cones, "_tangent_stack", failing_tangents)
        monkeypatch.setattr(orders, "_tangent_stack", failing_tangents)
        errors = set()
        for spec, s1, s2 in pairs:
            for seed in range(4):
                for count in range(8):
                    want, _ = reference_outcome(spec, s1, s2, seed, count)
                    got = interval_outcome(order_interval_sample, spec, s1, s2, seed, count)
                    assert got == want
                    if isinstance(want, tuple):
                        errors.add(want)
        assert len(errors) > 1

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_same_points_across_blocks(self, n, small_blocks):
        # past core._blocks' first span of _block_rows(n) samples after the midpoint, by one and two
        # samples, and into a third span: each span hashes and stacks its own samples
        rows = core._block_rows(n)
        for spec in specs_at(n):
            s1, s2 = random_ordered_pair(spec, n, 7)
            for count in (rows + 1, rows + 2, 2 * rows + 3):
                want, _ = reference_outcome(spec, s1, s2, 3, count)
                assert interval_outcome(order_interval_sample, spec, s1, s2, 3, count) == want

    def test_a_failing_tangent_builds_no_later_block(self, monkeypatch, small_blocks):
        # the tangents of test_earliest_error_wins fail at sample 4, in the second of core._blocks'
        # spans: its error is raised, and the seeds of the two spans after it are never hashed
        real, hashed = cones._tangent_stack, []

        def failing_tangents(spec, points, rngs, boundary):
            ys, err = real(spec, points, rngs, boundary)
            high = np.flatnonzero(ys[:, 0, 0] > 0.6)
            if len(high):
                return ys[:high[0]], NotSymmetric(f"tangent {ys[high[0], 0, 0]!r}")
            return ys, err

        spec, count = quadratic_affine(1.0, 2), 2 * core._block_rows(2) + 3
        s1, s2 = random_ordered_pair(spec, 2, 5)
        monkeypatch.setattr(cones, "_tangent_stack", failing_tangents)
        monkeypatch.setattr(orders, "_tangent_stack", failing_tangents)
        monkeypatch.setattr(orders, "derive_seed_words", lambda *args: hashed.append(args[1]) or
                            seeds.derive_seed_words(*args))
        want, _ = reference_outcome(spec, s1, s2, 3, count)
        assert want == reference_outcome(spec, s1, s2, 3, 5)[0] != reference_outcome(spec, s1, s2, 3, 4)[0]
        assert interval_outcome(order_interval_sample, spec, s1, s2, 3, count) == want
        assert [idx.ravel().tolist() for idx in hashed] == [list(range(1, core._block_rows(2) + 1))]


class TestOneOrderVerdict:
    def test_a_failing_whitening_factor_raises_for_the_affine_kinds(self):
        # the second point's eigenvector columns have norm 2: they fail
        # SpdStack.spectrum()'s guard, which only the affine kinds read; those
        # raise its error, the translation and half-space kinds decide the pair
        from spdorders.errors import ConvergenceFailure

        for spec in specs_at(3):
            lows, highs = zip(*(random_ordered_pair(spec, 3, seed) for seed in range(4)))
            stack = orders._concat([core.SpdStack.of(p) for p in lows])
            v = stack.eigenvectors.copy()
            v[1] *= 2.0
            bad = core.SpdStack(stack.entries, stack.eigenvalues, v).point(1)
            for high in highs:
                if spec.kind in ("quad-affine", "ray"):
                    with pytest.raises(ConvergenceFailure, match="eigenvector matrix not orthogonal"):
                        order_compare(spec, bad, high)
                else:
                    assert order_compare(spec, bad, high) == order_compare(spec, lows[1], high)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_the_sampler_compares_only_the_candidates_it_reaches(self, spec, monkeypatch):
        # the endpoints once, then both comparisons of each candidate up to
        # the one the walk takes: the midpoint alone for one sample
        calls, real = [], orders.order_compare
        monkeypatch.setattr(orders, "order_compare", lambda *args: calls.append(args[1:]) or real(*args))
        s1, s2 = random_ordered_pair(spec, 3, 11)
        points = order_interval_sample(spec, s1, s2, seed=0, count=1)
        assert calls == [(s1, s2), (s1, points[0]), (points[0], s2)]

    def test_sample_count_is_capped_before_any_seed_is_hashed(self):
        spec = quadratic_affine(1.5, 3)
        s1, s2 = random_ordered_pair(spec, 3, 11)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameters, match="cap"):
                order_interval_sample(spec, s1, s2, seed=0, count=10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


# ---------------------------------------------------------------------------
# The path oracle without throwaway eigensolves: its path certificate
# against the eigh-guarded body it replaces, and the relative-frame memo.
# ---------------------------------------------------------------------------


def eigh_guarded_oracle(spec, sigma1, sigma2, samples, tol=1e-10):
    """conal_path_oracle as it was written before any positivity certificate:
    every block's points pass _validate_spd_stack and its stacked eigh."""
    from spdorders.core import _checked, _validate_spd_stack, _validate_sym_stack
    from spdorders.cones import cone_margins

    if samples < 2:
        raise InvalidParameters("need at least two path samples")
    path, constant = orders._conal_path(spec, sigma1, sigma2)
    if constant:
        return True
    ts = np.linspace(0.0, 1.0, samples)[:, None, None]
    bounds = [0, *range(1, samples, BLOCK_ROWS), samples]
    for lo, hi in zip(bounds, bounds[1:]):
        points, velocities = path(ts[lo:hi])
        valid, err = _validate_spd_stack(points)
        points = valid.entries
        velocities, verr = _validate_sym_stack(velocities[: len(points)])
        if verr is not None:
            points, err = points[: len(velocities)], verr
        margins, _ = cone_margins(spec, points, velocities)
        if np.any(margins < -10.0 * tol):
            return False
        _checked(None, err)
    return True


def oracle_outcome(oracle, *args):
    try:
        return oracle(*args)
    except SpdError as exc:
        return type(exc), str(exc)


def counting_eigh(monkeypatch):
    """Patch core.eigh, the package's one eigh, in every module that reads
    it, to record the stack shape of each input it solves: () for one
    matrix, (k,) for a stack of k."""
    calls, eigh = [], core.eigh

    def counting(a):
        calls.append(np.shape(a)[:-2])
        return eigh(a)

    for module in (core, cones, flows, geometry):
        monkeypatch.setattr(module, "eigh", counting)
    return calls


class TestCertifiedOracleMatchesEighGuard:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_pairs_of_every_kind(self, n, small_blocks):
        for spec in specs_at(n):
            pairs = []
            for seed in range(6):
                lo, hi = random_ordered_pair(spec, n, seed)
                other = random_spd(n, derive_rng(seed, 3), 0.8)
                pairs += [(lo, hi), (hi, lo), (lo, other), (lo, lo), (lo, SpdMatrix(lo.entries))]
            # relative spectra spanning just below and just above COND_CAP
            for spread in (0.5e12, 0.99e12, 1.01e12):
                a = 1.0 / math.sqrt(spread)
                pairs.append((spd_validate(np.diag([1.0] + [0.5] * (n - 2) + [a])),
                              spd_validate(np.diag([a] + [0.5] * (n - 2) + [1.0]))))
            pairs += [(SpdMatrix(np.ldexp(a.entries, k)), SpdMatrix(np.ldexp(b.entries, k)))
                      for a, b in pairs[:10] for k in (-520, 520)]
            for a, b in pairs:
                for samples in (2, 100, BLOCK_ROWS + 3):
                    expected = oracle_outcome(eigh_guarded_oracle, spec, a, b, samples)
                    assert oracle_outcome(conal_path_oracle, spec, a, b, samples) == expected

    @pytest.mark.parametrize("spec, end", [
        (loewner(2), [1.0, -1.0]),
        (quadratic_translation(0.3, 2), [4.0, -0.02]),
        (quadratic_translation(0.3, 2), [4.0, 0.0]),
        (quadratic_translation(0.3, 2), [4.0, 1e-13]),
    ])
    def test_paths_leaving_the_spd_set(self, spec, end, small_blocks):
        # the endpoints fail the path certificate, and the last points the eigen test
        sigma1, sigma2 = spd_validate(np.eye(2)), unvalidated_point(np.diag(end))
        for samples in (11, BLOCK_ROWS + 2, 300):
            expected = oracle_outcome(eigh_guarded_oracle, spec, sigma1, sigma2, samples)
            assert oracle_outcome(conal_path_oracle, spec, sigma1, sigma2, samples) == expected

    @pytest.mark.parametrize("e", [-520, 0, 520])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_endpoints_across_the_certificate_threshold(self, n, e, monkeypatch, small_blocks):
        # for n <= 5 the certificate's threshold kappa lies between 1e6 and
        # 3e7 at every scale: only pairs with an endpoint above it run the
        # eigen test, on each block the oracle builds
        eigen_tested, positive_rows = [], orders._positive_rows

        def counting(sym, err):
            eigen_tested.append(len(sym))
            return positive_rows(sym, err)

        monkeypatch.setattr(orders, "_positive_rows", counting)
        q = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))[0]
        for kappa in (1e3, 1e6, 3e7, 1e9):
            a = (q * np.geomspace(1.0 / kappa, 1.0, n)) @ q.T
            a = SpdMatrix(np.ldexp(0.5 * (a + a.T), e))
            other = SpdMatrix(np.ldexp(random_spd(n, n, 0.3).entries, e))
            double = SpdMatrix(2.0 * a.entries)
            for spec in specs_at(n):
                for lo, hi in ((a, double), (double, a), (a, other), (other, a)):
                    expected = oracle_outcome(eigh_guarded_oracle, spec, lo, hi, BLOCK_ROWS + 3)
                    eigen_tested.clear()
                    assert oracle_outcome(conal_path_oracle, spec, lo, hi, BLOCK_ROWS + 3) == expected
                    if kappa < 1e7:
                        assert eigen_tested == []
                    else:  # every block up to the one that decides
                        assert eigen_tested and eigen_tested == block_sizes(BLOCK_ROWS + 3, n)[: len(eigen_tested)]

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_ordered_pair_runs_no_stacked_eigh(self, spec, monkeypatch):
        sigma1, sigma2 = random_ordered_pair(spec, 3, 7)
        calls = counting_eigh(monkeypatch)
        assert conal_path_oracle(spec, sigma1, sigma2, 300) is True
        # the affine kinds' one relative eigh, a one-row stack, and no block
        assert calls == ([] if spec.kind in cones.TRANSLATION_KINDS else [(1,)])
        calls.clear()
        # the eigh-guarded body solved each block: sample 0, then three blocks
        assert eigh_guarded_oracle(spec, sigma1, sigma2, 300) is True
        assert calls == [(1,), (BLOCK_ROWS,), (BLOCK_ROWS,), (300 - 1 - 2 * BLOCK_ROWS,)]


class TestRelativeFrameMemo:
    def test_compare_and_oracle_share_one_whitened_eigh(self, monkeypatch):
        spec = quadratic_affine(1.5, 3)
        sigma1, sigma2 = random_ordered_pair(spec, 3, 7)
        other = SpdMatrix(sigma2.entries)  # the same entries, a new point
        calls = counting_eigh(monkeypatch)
        verdict = order_compare(spec, sigma1, sigma2)
        assert verdict.relation == "less_equal"
        assert conal_path_oracle(spec, sigma1, sigma2, 50) is True
        assert calls == [(1,)]
        # the memo holds one pair, told by identity: a new sigma2 solves again
        assert order_compare(spec, sigma1, other) == verdict
        assert calls == [(1,), (1,)]

    def test_shared_arrays_are_read_only_and_bit_for_bit(self):
        from spdorders.geometry import relative_eigenvalues

        sigma1, sigma2 = random_spd(4, 1, 0.8), random_spd(4, 2, 0.8)
        ref_b, ref_w = reference_relative_eigenframe(sigma1, sigma2)
        w = relative_eigenvalues(sigma1, sigma2)
        b, frame_w = relative_eigenframe(sigma1, sigma2)
        assert frame_w is w and not w.flags.writeable
        assert hexes(w) == hexes(ref_w)
        assert b.tobytes() == relative_eigenframe(sigma1, SpdMatrix(sigma2.entries))[0].tobytes()

    def test_ill_conditioned_pair_is_not_memoised(self, monkeypatch):
        sigma1, sigma2 = spd_validate(np.diag([1.0, 1e-7])), spd_validate(np.diag([1e-7, 1.0]))
        calls = counting_eigh(monkeypatch)
        for _ in range(2):
            with pytest.raises(IllConditioned):
                order_compare(quadratic_affine(1.0, 2), sigma1, sigma2)
        assert calls == [(1,), (1,)]

    def test_threads_sharing_a_point_read_their_own_pair(self):
        import sys
        import threading

        from spdorders.geometry import relative_eigenvalues

        sigma1 = random_spd(3, 1, 0.8)
        others = [random_spd(3, 10 + i, 0.8) for i in range(5)]
        expected = [hexes(reference_relative_eigenframe(sigma1, other)[1]) for other in others]
        wrong = []

        def work(k):
            for i in range(300):
                j = (k + i) % len(others)
                if hexes(relative_eigenvalues(sigma1, others[j])) != expected[j]:
                    wrong.append((k, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_memo_keeps_no_point_alive(self):
        import gc
        import weakref

        sigma1, sigma2 = random_spd(3, 1, 0.8), random_spd(3, 2, 0.8)
        order_compare(quadratic_affine(1.5, 3), sigma1, sigma2)
        alive = weakref.ref(sigma2)
        del sigma2
        gc.collect()
        assert alive() is None
