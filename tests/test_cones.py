import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spdorders import (
    SpectralCone,
    classify_quadratic_form,
    cone_membership,
    dual_spectral_cone,
    half_space_affine,
    loewner,
    quadratic_affine,
    quadratic_translation,
    random_spd,
    ray_affine,
    spd_validate,
    spectral_membership,
    traceless_projection,
)
from spdorders.cones import (
    BINDINGS,
    ConeSpec,
    cone_margins,
    sample_cone_tangent,
    sample_cone_tangents,
    sample_spectral_boundary,
)
from spdorders.core import MAX_DIM, as_tangent, derive_rng, random_sym
from spdorders.errors import DimensionMismatch, InvalidParameters

seeds = st.integers(min_value=0, max_value=2**32 - 1)

KINDS = ["quad-affine", "quad-translate", "loewner", "half-space", "ray"]

GRID = [(2, 0.5), (2, 1.0), (2, 1.5), (3, 0.5), (3, 1.5), (3, 2.5), (5, 2.5), (5, 4.5)]


def random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class TestConeSpec:
    def test_mu_strictly_inside(self):
        for bad in (0.0, -1.0, 3.0, 3.5):
            with pytest.raises(InvalidParameters):
                quadratic_affine(bad, 3)

    def test_mu_forbidden_for_other_kinds(self):
        with pytest.raises(InvalidParameters):
            ConeSpec("loewner", 3, mu=1.0)

    def test_serialization_roundtrip(self):
        for spec in (quadratic_affine(0.7, 4), loewner(2), half_space_affine(3), ray_affine(5)):
            assert ConeSpec.from_dict(spec.to_dict()) == spec

    def test_dimension_above_cap_rejected(self):
        # only the constructor runs: nothing of size n is ever allocated
        assert ConeSpec("loewner", MAX_DIM).n == MAX_DIM
        for n in (MAX_DIM + 1, 100000):
            with pytest.raises(InvalidParameters):
                ConeSpec("loewner", n)
            with pytest.raises(InvalidParameters):
                ConeSpec.from_dict({"kind": "quad-affine", "n": n, "mu": 1.0})

    @pytest.mark.parametrize("n", [2.5, True])
    def test_dimension_must_be_an_integer(self, n):
        with pytest.raises(InvalidParameters, match="dimension must be an integer"):
            ConeSpec("loewner", n)

    @pytest.mark.parametrize("mu", [True, False, "1.0", [1.0]])
    def test_from_dict_mu_must_be_a_json_number(self, mu):
        with pytest.raises(InvalidParameters):
            ConeSpec.from_dict({"kind": "quad-affine", "n": 2, "mu": mu})
        assert ConeSpec.from_dict({"kind": "quad-affine", "n": 2, "mu": 1}).mu == 1


class TestMembership:
    @pytest.mark.parametrize("n,mu", GRID)
    def test_sigma_direction_strictly_inside(self, n, mu):
        # the raw quadratic margin at X = Sigma is n^2 - mu*n > 0
        sigma = random_spd(n, 3, 0.8)
        w = sigma.inv_apply(sigma.entries)
        t = np.trace(w)
        quad = t * t - mu * np.sum(w * w.T)
        assert abs(quad - (n * n - mu * n)) <= 1e-9 * n * n
        rep = cone_membership(quadratic_affine(mu, n), sigma, sigma.entries)
        assert rep.inside and rep.margin > 1e-6

    def test_boundary_coupling_example(self):
        # n=2, mu=1 at the identity: off-diagonal 1 puts [[1,1],[1,1]] on the boundary
        rep = cone_membership(quadratic_affine(1.0, 2), spd_validate(np.eye(2)), np.ones((2, 2)))
        assert abs(rep.margin) <= 1e-12
        assert rep.inside

    def test_loewner_negative_definite_outside(self):
        rep = cone_membership(loewner(3), random_spd(3, 5), -np.eye(3))
        assert not rep.inside
        assert rep.binding_constraint == "eigenvalue_min"

    def test_zero_tangent_inside_every_cone(self):
        # only the exact zero: a tiny tangent is rescaled and gets its own margin
        for sigma in (random_spd(3, 1), spd_validate(np.diag([1e-10, 2e-10, 3e-10]))):
            for spec in (quadratic_affine(1.0, 3), quadratic_translation(2.0, 3),
                         loewner(3), half_space_affine(3), ray_affine(3)):
                rep = cone_membership(spec, sigma, np.zeros((3, 3)))
                assert rep.inside and rep.margin == 1.0
                assert rep.binding_constraint == "quadratic_form"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", [quadratic_affine(1.0, 3), quadratic_translation(2.0, 3), loewner(3),
                                      half_space_affine(3), ray_affine(3)], ids=lambda s: s.kind)
    def test_tiny_tangents_get_their_rescaled_margins(self, spec):
        # tangents whose squares underflow once read as the zero tangent;
        # with the largest |entry| of x in [0.5, 1), 2^-k x reads as x, bit for bit
        raw = random_sym(3, 2)
        x = np.ldexp(raw, -np.frexp(np.abs(raw).max())[1])
        for sigma in (random_spd(3, 1).entries, np.diag([1e-10, 2e-10, 3e-10])):
            expected = cone_margins(spec, sigma[None], x[None])
            for k in (520, 560, 1000):
                margins, binding = cone_margins(spec, sigma[None], np.ldexp(x, -k)[None])
                assert margins.tolist() == expected[0].tolist() and binding.tolist() == expected[1].tolist()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", [quadratic_affine(1.0, 2), half_space_affine(2), ray_affine(2)],
                             ids=lambda s: s.kind)
    @pytest.mark.parametrize("s, x, shift", [
        # S^-1 X = 2^-998 x once underflowed in tr(W^2) and read as the zero tangent
        (np.eye(2), np.array([[0.3, -0.9], [-0.9, 0.2]]), 499),
        # S^-1 X = 2^998 diag(1, 1e11) x once overflowed inside the solve, and
        # read as margin NaN (quad-affine, ray) or inf (half-space)
        (np.diag([1.0, 1e-11]), np.array([[0.5, 0.2], [0.2, 0.7]]), -499),
    ], ids=["underflow", "overflow"])
    def test_underflowing_relative_tangent_gets_its_margin(self, spec, s, x, shift):
        # S = 2^shift s and X = 2^-shift x each lie in the float range; both
        # are brought into the scale window by exact powers of two, and the
        # solve scales exactly, so the margin is that at (s, x) bit for bit
        rep = cone_membership(spec, spd_validate(2.0**shift * s), 2.0**-shift * x)
        assert math.isfinite(rep.margin) and rep.margin != 1.0
        assert rep == cone_membership(spec, spd_validate(s), x)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", [quadratic_affine(1.0, 2), quadratic_translation(0.5, 2), loewner(2),
                                      half_space_affine(2), ray_affine(2)], ids=lambda s: s.kind)
    def test_huge_tangents_get_their_rescaled_margins(self, spec):
        sigmas = [np.eye(2), random_spd(2, 4).entries, random_spd(2, 5).entries]
        tangents = [-np.eye(2), np.array([[1.0, 3.0], [3.0, 1.0]]), random_sym(2, 6), random_sym(2, 7)]
        xs = np.array([scale * x for x in tangents for scale in (1e160, 1e300, -1e200, 2.0**500)])
        stack = np.array([s for s in sigmas for _ in xs]), np.tile(xs, (len(sigmas), 1, 1))
        margins, binding = cone_margins(spec, *stack)
        small, small_binding = cone_margins(spec, stack[0], stack[1] / 2.0**532)
        np.testing.assert_array_max_ulp(margins, small, maxulp=4)
        assert (binding == small_binding).all()

    @pytest.mark.filterwarnings("error")
    def test_rows_below_the_rescale_bound_are_untouched(self):
        sigma = random_spd(3, 8).entries
        rows = np.array([random_sym(3, 9), 1e150 * random_sym(3, 10), 1e170 * random_sym(3, 11)])
        for spec in (quadratic_affine(1.0, 3), loewner(3), ray_affine(3)):
            together, _ = cone_margins(spec, np.array([sigma] * 3), rows)
            alone, _ = cone_margins(spec, np.array([sigma] * 2), rows[:2])
            assert together[0] == alone[0] and together[1] == alone[1]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", [quadratic_affine(1.5, 3), half_space_affine(3), ray_affine(3)],
                             ids=lambda s: s.kind)
    def test_base_points_out_of_range_get_their_rescaled_margins(self, spec):
        # the affine margins have degree 0 in S: 2^+-520 S reads as S, bit
        # for bit when the largest |entry| of S lies in [0.5, 1)
        raw = random_spd(3, 12).entries
        sigma = np.ldexp(raw, -np.frexp(np.abs(raw).max())[1])
        xs = np.array([random_sym(3, 13), -np.eye(3), sigma, np.eye(3) + 0.1 * random_sym(3, 14)])
        expected = cone_margins(spec, np.array([sigma] * len(xs)), xs)
        for shift in (-520, 520):
            margins, binding = cone_margins(spec, np.array([np.ldexp(sigma, shift)] * len(xs)), xs)
            assert margins.tolist() == expected[0].tolist() and binding.tolist() == expected[1].tolist()
        # an in-range row keeps every bit beside an out-of-range one
        together, _ = cone_margins(spec, np.array([raw, np.ldexp(sigma, -520)]), xs[:2])
        alone, _ = cone_margins(spec, raw[None], xs[:1])
        assert together[0] == alone[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(kind=st.sampled_from(KINDS), n=st.sampled_from([1, 2, 3, 5]), seed=seeds,
           k=st.integers(-600, 600), k2=st.integers(-600, 600))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_margins_have_degree_zero_in_s_and_in_x(self, kind, n, seed, k, k2):
        # margins at (2^k S, 2^k2 X) are those at (S, X) within 2 ulp (bit for
        # bit on OpenBLAS 0.3.31): rows outside the scale window are brought
        # into it by exact powers of two, and inside it solve and eigvalsh
        # scale exactly.  Loewner needs no exception near X = 2^-450, where
        # LAPACK scales internally: such an X enters the window before eigvalsh
        spec = ConeSpec(kind, n, n / 3 if kind.startswith("quad") else None)
        sigma = random_spd(n, seed, 0.8).entries
        xs = np.array([random_sym(n, derive_rng(seed, 1)), sigma, -np.eye(n), np.eye(n) + 0.3 * random_sym(n, seed)])
        sigmas = np.array([sigma] * len(xs))
        expected, expected_binding = cone_margins(spec, sigmas, xs)
        margins, binding = cone_margins(spec, np.ldexp(sigmas, k), np.ldexp(xs, k2))
        np.testing.assert_array_max_ulp(margins, expected, maxulp=2)
        assert binding.tolist() == expected_binding.tolist()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", [quadratic_affine(1.0, 2), half_space_affine(2), ray_affine(2)],
                             ids=lambda s: s.kind)
    def test_negative_tangent_at_a_huge_base_point_is_outside(self, spec):
        # S^-1 X = -1e-200 I: its invariant magnitude once underflowed to the zero-tangent +1
        rep = cone_membership(spec, spd_validate(1e200 * np.eye(2)), -np.eye(2))
        assert not rep.inside
        assert rep.margin == pytest.approx(-math.sqrt(2.0), rel=1e-15)

    def test_ray_membership(self):
        sigma = random_spd(3, 9, 0.6)
        spec = ray_affine(3)
        assert cone_membership(spec, sigma, 2.5 * sigma.entries).inside
        assert not cone_membership(spec, sigma, -sigma.entries).inside
        off = random_sym(3, 4)
        assert not cone_membership(spec, sigma, sigma.entries + off).inside

    def test_half_space_is_trace_sign(self):
        sigma = random_spd(2, 2)
        spec = half_space_affine(2)
        assert cone_membership(spec, sigma, sigma.entries).inside
        assert not cone_membership(spec, sigma, -sigma.entries).inside

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cone_membership(quadratic_affine(1.0, 3), random_spd(3, 0), np.eye(2))

    @pytest.mark.parametrize("kind", ["quad-affine", "quad-translate", "loewner", "half-space", "ray"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
    def test_stacked_rows_match_single_membership(self, kind, n):
        # every row of one stacked call equals the scalar call on that row, bit for bit
        spec = ConeSpec(kind, n, 0.4 * n if kind.startswith("quad") else None)
        sigmas, xs = [], []
        for i in range(40):
            rng = derive_rng(2024, n, i)
            sigma = random_spd(n, rng, 0.8)
            x = random_sym(n, rng)
            if i % 5 == 1:
                x = np.zeros((n, n))
            elif i % 5 == 2:
                x = x * (1e-160 if i % 2 else 1e-170)  # squares go subnormal or vanish
            elif i % 5 == 3:
                x = rng.uniform(-1.0, 2.0) * sigma.entries
            elif i % 5 == 4:
                x = sample_cone_tangent(spec, sigma, rng).entries
            sigmas.append(sigma)
            xs.append(as_tangent(x).entries)
        margins, binding = cone_margins(spec, np.stack([s.entries for s in sigmas]), np.stack(xs))
        tol = 1e-10
        for sigma, x, margin, bound in zip(sigmas, xs, margins, binding):
            rep = cone_membership(spec, sigma, x, tol=tol)
            assert float(margin).hex() == rep.margin.hex()
            assert (margin >= -tol) == rep.inside
            assert BINDINGS[bound] == rep.binding_constraint

    @pytest.mark.parametrize("kind", ["quad-affine", "quad-translate", "loewner", "half-space", "ray"])
    def test_empty_stack(self, kind):
        margins, binding = cone_margins(ConeSpec(kind, 3, 1.0 if kind.startswith("quad") else None),
                                        np.empty((0, 3, 3)), np.empty((0, 3, 3)))
        assert margins.shape == binding.shape == (0,)

    def test_stacked_dimension_mismatch(self):
        sigmas = np.stack([np.eye(3)] * 2)
        with pytest.raises(DimensionMismatch):
            cone_margins(loewner(3), sigmas, sigmas[:1])
        with pytest.raises(DimensionMismatch):
            cone_margins(loewner(2), sigmas, sigmas)

    @pytest.mark.parametrize("kind,n,mu", [("quad-affine", n, mu) for n, mu in GRID]
                             + [(kind, n, None) for kind in ("half-space", "ray") for n in (2, 3, 5)])
    def test_affine_invariance_of_margins(self, kind, n, mu):
        spec = ConeSpec(kind, n, mu)
        rng = np.random.default_rng(17)
        for _ in range(25):
            sigma = random_spd(n, int(rng.integers(1 << 30)), 0.7)
            x = random_sym(n, int(rng.integers(1 << 30)))
            a = rng.standard_normal((n, n))
            before = cone_membership(spec, sigma, x)
            after = cone_membership(
                spec, spd_validate(a @ sigma.entries @ a.T), a @ x @ a.T
            )
            assert before.inside == after.inside
            assert after.margin == pytest.approx(before.margin, rel=1e-8, abs=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["quad-affine", "half-space", "ray"]), n=st.integers(2, 5), seed=seeds)
    def test_congruence_invariance_over_random_transforms(self, kind, n, seed):
        # the gap is rounding in the whitening W = S^-1 X, which grows with
        # cond(A S A^T) <= cond(A)^2 cond(S); transforms past cond(A) = 1e3 are skipped
        rng = np.random.default_rng(seed)
        spec = ConeSpec(kind, n, 0.4 * n if kind == "quad-affine" else None)
        sigma, x, a = random_spd(n, rng, 0.7), random_sym(n, rng), rng.standard_normal((n, n))
        assume(np.linalg.cond(a) < 1e3)
        cond = np.linalg.cond(a) ** 2 * np.linalg.cond(sigma.entries)
        before = cone_membership(spec, sigma, x).margin
        after = cone_membership(spec, spd_validate(a @ sigma.entries @ a.T), a @ x @ a.T).margin
        assert abs(after - before) <= 16 * n * cond * np.finfo(float).eps

    def test_ray_margin_is_congruence_invariant(self):
        # measured in raw coordinates, the ray margin shrank 70-fold under A = diag(1, 100)
        x, a = np.array([[1.0, 0.1], [0.1, 1.0]]), np.diag([1.0, 100.0])
        before = cone_membership(ray_affine(2), spd_validate(np.eye(2)), x)
        after = cone_membership(ray_affine(2), spd_validate(a @ a.T), a @ x @ a.T)
        assert before.margin == pytest.approx(-0.1 / math.sqrt(1.01), rel=1e-12)
        assert after.margin == pytest.approx(before.margin, rel=1e-8, abs=1e-10)
        assert before.binding_constraint == after.binding_constraint == "ray_deviation"

    def test_rotation_invariance_at_identity(self):
        rng = np.random.default_rng(23)
        eye = spd_validate(np.eye(4))
        for spec in (quadratic_affine(2.0, 4), loewner(4), half_space_affine(4)):
            for _ in range(20):
                x = random_sym(4, int(rng.integers(1 << 30)))
                q = random_orthogonal(4, rng)
                m1 = cone_membership(spec, eye, x).margin
                m2 = cone_membership(spec, eye, q @ x @ q.T).margin
                assert abs(m1 - m2) <= 1e-9

    def test_convexity_fuzz(self):
        # positive combinations of members stay inside (10^4 samples)
        spec = quadratic_affine(1.2, 3)
        sigma = random_spd(3, 31, 0.6)
        for i in range(10_000):
            rng = derive_rng(77, i)
            x1 = sample_cone_tangent(spec, sigma, rng, boundary=bool(i % 2))
            x2 = sample_cone_tangent(spec, sigma, rng, boundary=bool((i + 1) % 2))
            a, b = rng.uniform(0.0, 2.0, size=2)
            comb = a * x1.entries + b * x2.entries
            assert cone_membership(spec, sigma, comb).margin >= -1e-9

    def test_pointedness(self):
        rng = np.random.default_rng(3)
        sigma = random_spd(3, 13, 0.7)
        for spec in (quadratic_affine(0.8, 3), quadratic_translation(2.2, 3), loewner(3)):
            for _ in range(300):
                x = random_sym(3, int(rng.integers(1 << 30)))
                fwd = cone_membership(spec, sigma, x)
                rev = cone_membership(spec, sigma, -x)
                assert not (fwd.inside and rev.inside)

    def test_half_space_is_a_wedge(self):
        # trace-zero directions belong in both directions: no pointedness
        sigma = spd_validate(np.eye(2))
        x = np.diag([1.0, -1.0])
        spec = half_space_affine(2)
        assert cone_membership(spec, sigma, x).inside
        assert cone_membership(spec, sigma, -x).inside

    def test_small_mu_approaches_half_space(self):
        sigma = random_spd(3, 41, 0.7)
        spec_hs = half_space_affine(3)
        rng = np.random.default_rng(6)
        for _ in range(200):
            x = random_sym(3, int(rng.integers(1 << 30)))
            t = np.trace(sigma.inv_apply(x))
            if abs(t) < 0.1:
                continue
            quad = cone_membership(quadratic_affine(1e-9, 3), sigma, x)
            hs = cone_membership(spec_hs, sigma, x)
            assert quad.inside == hs.inside

    def test_loewner_affine_form_equals_plain_psd(self):
        # evaluating min eig of S^-1/2 X S^-1/2 gives the same verdict as psd(X)
        rng = np.random.default_rng(10)
        for n in (2, 3, 5):
            spec = loewner(n)
            for _ in range(100):
                sigma = random_spd(n, int(rng.integers(1 << 30)), 0.8)
                x = random_sym(n, int(rng.integers(1 << 30)))
                inv_root = sigma.spectrum.apply(lambda w: w**-0.5)
                conj = inv_root @ x @ inv_root
                affine_inside = np.linalg.eigvalsh(conj)[0] >= -1e-10 * np.linalg.norm(conj)
                assert cone_membership(spec, sigma, x).inside == affine_inside


class TestSpectralCone:
    # n = 2**62 is far past any allocation; numpy would refuse its size at once
    @pytest.mark.parametrize("n", [MAX_DIM + 1, 2**62])
    def test_dimension_cap_before_allocating(self, n):
        with pytest.raises(InvalidParameters, match=f"dimension {n} above desk-scale cap {MAX_DIM}"):
            SpectralCone(1.0, n)
        with pytest.raises(InvalidParameters, match=f"dimension {n} above desk-scale cap {MAX_DIM}"):
            sample_spectral_boundary(1.0, n, derive_rng(0))

    def test_fractional_dimension_rejected(self):
        # mu = 2.2 lies inside (0, 2.5), and int(2.5) = 2 would have been stored
        with pytest.raises(InvalidParameters, match="dimension must be an integer"):
            SpectralCone(2.2, 2.5)

    def test_form_matrix_entries(self):
        q = SpectralCone(1.25, 3).form_matrix
        assert np.allclose(np.diag(q), 1.0 - 1.25)
        off = q[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 1.0)

    def test_examples(self):
        cone = SpectralCone(1.0, 2)
        assert spectral_membership(cone, [1.0, 1.0]).inside       # 4 - 2 >= 0
        assert not spectral_membership(cone, [1.0, -1.0]).inside  # sum 0, quad -2

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        mu = float(rng.uniform(0.05, n - 0.05))
        lam = rng.standard_normal(n)
        cone = SpectralCone(mu, n)
        base = spectral_membership(cone, lam)
        perm = spectral_membership(cone, rng.permutation(lam))
        assert base.inside == perm.inside
        assert perm.margin == pytest.approx(base.margin, rel=1e-12, abs=1e-12)

    def test_quadratic_form_matches_margin(self):
        cone = SpectralCone(1.7, 4)
        rng = np.random.default_rng(0)
        for _ in range(50):
            lam = rng.standard_normal(4)
            quad = lam @ cone.form_matrix @ lam
            s = lam.sum()
            assert quad == pytest.approx(s * s - cone.mu * lam @ lam, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n,mu", GRID)
    def test_matches_cone_membership(self, n, mu):
        # eigenvalues of S^-1/2 X S^-1/2 decide affine membership
        cone = SpectralCone(mu, n)
        spec = quadratic_affine(mu, n)
        rng = np.random.default_rng(71)
        for _ in range(40):
            sigma = random_spd(n, int(rng.integers(1 << 30)), 0.7)
            x = random_sym(n, int(rng.integers(1 << 30)))
            inv_root = sigma.spectrum.apply(lambda w: w**-0.5)
            lam = np.linalg.eigvalsh(inv_root @ x @ inv_root)
            srep = spectral_membership(cone, lam)
            crep = cone_membership(spec, sigma, x)
            if abs(srep.margin) > 1e-9:
                assert srep.inside == crep.inside


class TestDualCone:
    def test_parameter(self):
        assert dual_spectral_cone(SpectralCone(0.5, 3)).mu == 2.5

    def test_self_dual_at_half_n(self):
        for n in (2, 3, 5):
            assert dual_spectral_cone(SpectralCone(n / 2, n)).mu == n / 2

    @pytest.mark.parametrize("n,mu", GRID)
    def test_pairing_nonnegative(self, n, mu):
        primal = [sample_spectral_boundary(mu, n, derive_rng(1, i)) for i in range(200)]
        dual = [sample_spectral_boundary(n - mu, n, derive_rng(2, i)) for i in range(200)]
        pairings = np.array(primal) @ np.array(dual).T
        assert pairings.min() >= -1e-9

    @pytest.mark.parametrize("mu, n", [(0.5, 1), (0.0, 3), (3.0, 3), (-1.0, 2), (np.nan, 2)])
    def test_boundary_sampler_rejects_cones_without_boundary_rays(self, mu, n):
        # at n = 1, or mu outside (0, n), no draw has a positive discriminant
        with pytest.raises(InvalidParameters):
            sample_spectral_boundary(mu, n, derive_rng(0))


class TestClassifier:
    def test_examples(self):
        assert classify_quadratic_form(1.0, 1.0, 3) == "positive_definite"
        assert classify_quadratic_form(0.0, 1.0, 3) == "degenerate"
        assert classify_quadratic_form(1.0, 0.0, 3) == "degenerate"
        assert classify_quadratic_form(-1.0, -1.0, 3) == "other"
        assert classify_quadratic_form(-1.0, 1.0, 3) == "other"

    @pytest.mark.parametrize("n,mu", GRID)
    def test_cone_parameters_are_lorentzian(self, n, mu):
        assert classify_quadratic_form(n - mu, -mu, n) == "lorentzian"

    def test_needs_n_at_least_two(self):
        with pytest.raises(InvalidParameters):
            classify_quadratic_form(1.0, 1.0, 1)


class TestTracelessProjection:
    def test_identity_projects_to_zero(self):
        assert np.allclose(traceless_projection(np.eye(4)).entries, 0.0)

    def test_idempotent_on_traceless(self):
        x = np.diag([2.0, -1.0, -1.0])
        assert np.allclose(traceless_projection(x).entries, x)

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_norm_decomposition(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        x = random_sym(n, int(rng.integers(1 << 30)))
        pi = traceless_projection(x).entries
        assert abs(np.trace(pi)) <= 1e-12 * np.linalg.norm(x)
        recon = (np.trace(x) / n) * np.eye(n) + pi
        assert np.max(np.abs(recon - x)) <= 1e-15 * np.max(np.abs(x))
        lhs = np.trace(x @ x)
        rhs = np.trace(x) ** 2 / n + np.linalg.norm(pi) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestSampling:
    @pytest.mark.parametrize("n,mu", GRID)
    def test_boundary_rays_sit_on_the_boundary(self, n, mu):
        spec = quadratic_affine(mu, n)
        for i in range(50):
            sigma = random_spd(n, derive_rng(5, i), 0.7)
            x = sample_cone_tangent(spec, sigma, derive_rng(6, i), boundary=True)
            assert abs(cone_membership(spec, sigma, x).margin) <= 1e-9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1.0, 1e-13, 2.0**-520, 2.0**520])
    def test_interior_rays_have_positive_margin(self, scale):
        # at scale * sigma every kind draws the unit tangent it draws at sigma,
        # boundary rays too: the affine kinds' congruence scales the draw
        for kind_spec in (quadratic_affine(1.5, 3), loewner(3), half_space_affine(3), ray_affine(3)):
            for i in range(30):
                sigma = random_spd(3, derive_rng(7, i), 0.7)
                x = sample_cone_tangent(kind_spec, sigma, derive_rng(8, i), boundary=False)
                assert cone_membership(kind_spec, sigma, x).inside
                scaled = spd_validate(scale * sigma.entries)
                for boundary in (False, True):
                    want = sample_cone_tangent(kind_spec, sigma, derive_rng(8, i), boundary).entries
                    got = sample_cone_tangent(kind_spec, scaled, derive_rng(8, i), boundary).entries
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_stacked_rows_match_single_view(self, kind, n):
        # every row of one stacked call equals the one-row view, bit for bit
        spec = ConeSpec(kind, n, 0.4 * n if kind.startswith("quad") else None)
        sigma = random_spd(n, derive_rng(9, n), 0.7)
        boundary = [bool(b) for b in derive_rng(10, n).integers(0, 2, size=12)]
        stack = sample_cone_tangents(spec, sigma, [derive_rng(11, j) for j in range(12)], boundary)
        assert stack.shape == (12, n, n) and not stack.flags.writeable
        for j, row in enumerate(stack):
            single = sample_cone_tangent(spec, sigma, derive_rng(11, j), boundary=boundary[j])
            assert single.base is sigma
            assert [v.hex() for v in row.ravel().tolist()] == [v.hex() for v in single.entries.ravel().tolist()]

    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_stack(self, kind):
        spec = ConeSpec(kind, 3, 1.0 if kind.startswith("quad") else None)
        assert sample_cone_tangents(spec, random_spd(3, 1), [], []).shape == (0, 3, 3)

    def test_boundary_flags_must_match_generators(self):
        with pytest.raises(ValueError):
            sample_cone_tangents(loewner(3), random_spd(3, 1), [derive_rng(1), derive_rng(2)], [True])


def _reference_boundary_ray(mu, n, draw, trace, axis):
    """The scalar boundary-ray loop: one draw at a time until the
    discriminant is positive and the mixed ray has a usable norm."""
    while True:
        g = draw()
        tau = float(trace(g))
        s = float(np.sum(g * g))
        disc = mu * (n - mu) * (n * s - tau * tau)
        if disc <= 0:
            continue
        c = (-tau * (n - mu) + math.sqrt(disc)) / (n * (n - mu))
        y = g + c * axis
        norm = np.linalg.norm(y)
        if norm > 1e-8:
            return y / norm


class _DegenerateFirstDraw:
    """A generator whose first standard_normal draw is the given array
    (a multiple of the cone axis, which has a zero discriminant); every
    later draw comes from rng."""

    def __init__(self, first, rng):
        self.first, self.rng = first, rng

    def standard_normal(self, size=None, out=None):
        if self.first is None:
            return self.rng.standard_normal(size, out=out)
        first, self.first = self.first, None
        if out is None:
            return first.copy()
        out[...] = first
        return out

    def uniform(self, low, high):
        return self.rng.uniform(low, high)


def _sym_draw(rng, n):
    g = rng.standard_normal((n, n))  # random_sym's draw, for generators it does not take
    return 0.5 * (g + g.T)


def _hex(a):
    return [v.hex() for v in np.asarray(a, dtype=float).ravel().tolist()]


class TestBoundaryRaySolver:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9])
    @pytest.mark.parametrize("share", [0.1, 0.5, 0.9])
    def test_spectral_boundary_matches_scalar_loop(self, n, share):
        mu = share * n
        for i in range(30):
            rng = derive_rng(12, n, i)
            ref = _reference_boundary_ray(mu, n, lambda: rng.standard_normal(n), np.sum, 1.0)
            assert _hex(sample_spectral_boundary(mu, n, derive_rng(12, n, i))) == _hex(ref)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_degenerate_first_draws_draw_again(self, n):
        # rows 0, 3, 6, ... start with 2.5 I, which a boundary ray cannot mix;
        # the interior rows then draw their shift after the redraw
        mu = 0.4 * n
        boundary = [j % 2 == 0 for j in range(9)]

        def rngs():
            return [_DegenerateFirstDraw(2.5 * np.eye(n), derive_rng(13, j)) if j % 3 == 0 else derive_rng(13, j)
                    for j in range(9)]

        sigma = random_spd(n, derive_rng(14, n), 0.7)
        stack = sample_cone_tangents(quadratic_translation(mu, n), sigma, rngs(), boundary)
        for j, (rng, on_boundary) in enumerate(zip(rngs(), boundary)):
            y = _reference_boundary_ray(mu, n, lambda: _sym_draw(rng, n), np.trace, np.eye(n))
            if not on_boundary:
                y = y + rng.uniform(0.2, 1.0) * np.eye(n)
            y = 0.5 * (y + y.T)
            y = y / np.linalg.norm(y)
            assert _hex(stack[j]) == _hex(0.5 * (y + y.T)), j

    def test_degenerate_first_spectral_draw_draws_again(self):
        first = _DegenerateFirstDraw(-1.5 * np.ones(3), derive_rng(15, 0))
        rng = derive_rng(15, 0)
        ref = _reference_boundary_ray(1.2, 3, lambda: rng.standard_normal(3), np.sum, 1.0)
        assert _hex(sample_spectral_boundary(1.2, 3, first)) == _hex(ref)


def _reference_cone_tangents(spec, sigma, rngs, boundary):
    """The sampler as a per-kind loop: each row draws and shifts in turn
    from its own generator, then the stack is rotated, symmetrized and
    normalized as the sampler does it."""
    n = spec.n
    ys = np.empty((len(rngs), n, n))
    if n == 1:
        ys[:] = 1.0
    elif spec.kind in ("quad-affine", "quad-translate"):
        for row, (rng, on_boundary) in enumerate(zip(rngs, boundary)):
            ys[row] = _reference_boundary_ray(spec.mu, n, lambda: _sym_draw(rng, n), np.trace, np.eye(n))
            if not on_boundary:
                ys[row] += rng.uniform(0.2, 1.0) * np.eye(n)
    elif spec.kind == "loewner":
        shift = np.zeros(len(rngs))
        for row, (rng, on_boundary) in enumerate(zip(rngs, boundary)):
            ys[row] = random_sym(n, rng)
            shift[row] = 0.0 if on_boundary else rng.uniform(0.1, 1.0)
        w, v = np.linalg.eigh(ys)
        w = w - w[:, :1]
        w = w + (shift * (1.0 + w[:, -1]))[:, None]
        ys = (v * w[:, None, :]) @ v.swapaxes(1, 2)
    elif spec.kind == "half-space":
        for row, (rng, on_boundary) in enumerate(zip(rngs, boundary)):
            g = random_sym(n, rng)
            y = g - (np.trace(g) / n) * np.eye(n)
            ys[row] = y if on_boundary else y + rng.uniform(0.2, 1.0) * np.linalg.norm(y) * np.eye(n)
    else:
        for row, rng in enumerate(rngs):
            ys[row] = rng.uniform(0.2, 2.0) * sigma.entries
    # a degenerate draw is told before the congruence; the ray draws a scale
    degenerate = [n > 1 and spec.kind != "ray" and np.linalg.norm(y) < 1e-12 for y in ys]
    if n > 1 and spec.kind in ("quad-affine", "half-space"):
        root = sigma.spectrum.apply(np.sqrt)
        ys = root @ ys @ root
    out = []
    for y, axis in zip(ys, degenerate):
        y = sigma.entries if axis else 0.5 * (y + y.T)
        y = y / np.linalg.norm(y)
        out.append(0.5 * (y + y.T))
    return np.array(out).reshape(len(rngs), n, n)


class TestSamplerAgainstPerKindLoop:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
    def test_bit_for_bit_with_next_draws(self, kind, n):
        spec = ConeSpec(kind, n, 0.3 * n if kind.startswith("quad") else None)
        for seed in range(6):
            sigma = random_spd(n, derive_rng(16, n, seed), 0.7)
            boundary = [bool(b) for b in derive_rng(17, n, seed).integers(0, 2, size=7)]
            got_rngs = [derive_rng(18, seed, j) for j in range(7)]
            ref_rngs = [derive_rng(18, seed, j) for j in range(7)]
            got = sample_cone_tangents(spec, sigma, got_rngs, boundary)
            ref = _reference_cone_tangents(spec, sigma, ref_rngs, boundary)
            assert _hex(got) == _hex(ref), (seed, boundary)
            # every generator stopped where the per-kind loop left it
            assert [g.standard_normal() for g in got_rngs] == [r.standard_normal() for r in ref_rngs]
