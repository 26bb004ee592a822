import math

import numpy as np
import pytest
from hypothesis import given, settings
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
from spdorders import orders
from spdorders.core import derive_rng, matrix_function
from spdorders.errors import IllConditioned, InvalidParameters, NotOrdered, NotPositiveDefinite, SpdError
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
        from spdorders.orders import _conal_step

        count = 0
        for spec in ALL_SPECS:
            for seed in range(200):
                s1, s2 = random_ordered_pair(spec, 3, seed)
                rng = derive_rng(seed, 99)
                direction = sample_cone_tangent(spec, s2, rng, boundary=False)
                s3 = _conal_step(spec, s2, direction, 0.6)
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


class TestBatchedOracleMatchesLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["quad-affine", "quad-translate", "loewner", "half-space", "ray"]),
        n=st.integers(2, 4),
        mu_frac=st.floats(0.05, 0.95),
        pair=st.sampled_from(["random", "forward", "reverse", "equal"]),
        seed=st.integers(0, 2**31 - 1),
        samples=st.integers(2, 40),
    )
    def test_same_verdict_as_per_sample_loop(self, kind, n, mu_frac, pair, seed, samples):
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

        monkeypatch.setattr(orders, "relative_eigenframe", counting)
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
        monkeypatch.setattr(orders, "_conal_step", broken_step)
        with pytest.raises(TypeError, match="broken step"):
            order_interval_sample(spec, s1, s2, seed=5, count=3)
