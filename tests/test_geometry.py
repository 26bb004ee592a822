import math

import numpy as np
import pytest
import scipy.linalg

from spdorders import (
    MetricSpec,
    det_leaf,
    distance,
    geodesic,
    geometric_mean,
    inner_product,
    matrix_function,
    quadratic_affine,
    random_ordered_pair,
    random_spd,
    riemannian_exp,
    riemannian_log,
    spd_validate,
)
from spdorders import ConeSpec, SpdMatrix, SymTangent, sym_eig
from spdorders.core import derive_rng, random_sym
from spdorders.errors import IllConditioned, InvalidParameters, NotPositiveDefinite
from spdorders.geometry import geodesic_velocity, relative_eigenframe
from spdorders.orders import _conal_path


class TestInnerProduct:
    def test_identity_values(self):
        eye = spd_validate(np.eye(3))
        assert inner_product(MetricSpec(0.0), eye, np.eye(3), np.eye(3)) == pytest.approx(3.0)
        # direct evaluation: tr(I) + mu * tr(I)^2 = n + n^2 for mu = 1
        assert inner_product(MetricSpec(1.0), eye, np.eye(3), np.eye(3)) == pytest.approx(12.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        metric = MetricSpec(0.3)
        for _ in range(30):
            sigma = random_spd(3, int(rng.integers(1 << 30)), 0.7)
            x = random_sym(3, int(rng.integers(1 << 30)))
            y = random_sym(3, int(rng.integers(1 << 30)))
            a = rng.standard_normal((3, 3))
            before = inner_product(metric, sigma, x, y)
            after = inner_product(
                metric, spd_validate(a @ sigma.entries @ a.T), a @ x @ a.T, a @ y @ a.T
            )
            assert after == pytest.approx(before, rel=1e-9)

    def test_symmetric_bilinear(self):
        sigma = random_spd(4, 3, 0.6)
        metric = MetricSpec(0.5)
        x, y, z = (random_sym(4, s) for s in (1, 2, 3))
        assert inner_product(metric, sigma, x, y) == pytest.approx(inner_product(metric, sigma, y, x))
        lhs = inner_product(metric, sigma, 2.0 * x + z, y)
        rhs = 2.0 * inner_product(metric, sigma, x, y) + inner_product(metric, sigma, z, y)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_mu_metric_floor(self):
        eye = spd_validate(np.eye(4))
        with pytest.raises(InvalidParameters):
            inner_product(MetricSpec(-0.25), eye, np.eye(4), np.eye(4))


class TestGeodesic:
    def test_endpoints(self):
        a = random_spd(4, 1, 0.7)
        b = random_spd(4, 2, 0.7)
        assert np.allclose(geodesic(a, b, 0.0).entries, a.entries, rtol=1e-9)
        assert np.allclose(geodesic(a, b, 1.0).entries, b.entries, rtol=1e-9)

    def test_identity_base_gives_matrix_power(self):
        b = random_spd(3, 5, 0.8)
        eye = spd_validate(np.eye(3))
        for t in (-0.5, 0.3, 2.0):
            expected = matrix_function(b, "power", t).entries
            assert np.allclose(geodesic(eye, b, t).entries, expected, rtol=1e-9)

    def test_equal_determinant_leaf(self):
        a = random_spd(3, 7, 0.6)
        raw = random_spd(3, 8, 0.6)
        # rescale to the same determinant leaf
        b = spd_validate(raw.entries * math.exp((a.log_det - raw.log_det) / 3))
        assert b.log_det == pytest.approx(a.log_det, abs=1e-12)
        for t in np.linspace(0.0, 1.0, 17):
            assert det_leaf(geodesic(a, b, t)) == pytest.approx(a.log_det, abs=1e-9)

    def test_velocity_matches_finite_differences(self):
        a = random_spd(4, 9, 0.6)
        b = random_spd(4, 10, 0.6)
        h = 1e-5
        for t in (0.2, 0.5, 0.9):
            analytic = geodesic_velocity(a, b, t).entries
            fd = (geodesic(a, b, t + h).entries - geodesic(a, b, t - h).entries) / (2 * h)
            assert np.linalg.norm(fd - analytic) / np.linalg.norm(analytic) <= 1e-6

    def test_log_det_derivative_identity(self):
        # d/dt log det gamma = tr(gamma^-1 gamma')
        a = random_spd(3, 11, 0.7)
        b = random_spd(3, 12, 0.7)
        h = 1e-6
        for t in (0.25, 0.75):
            point = geodesic(a, b, t)
            vel = geodesic_velocity(a, b, t).entries
            fd = (det_leaf(geodesic(a, b, t + h)) - det_leaf(geodesic(a, b, t - h))) / (2 * h)
            assert fd == pytest.approx(np.trace(point.inv_apply(vel)), rel=1e-6, abs=1e-8)


class TestExpLog:
    def test_exp_at_identity_is_matrix_exponential(self):
        eye = spd_validate(np.eye(4))
        x = random_sym(4, 3, 0.7)
        ours = riemannian_exp(eye, x).entries
        reference = scipy.linalg.expm(x)  # independent Pade-based oracle
        assert np.linalg.norm(ours - reference) / np.linalg.norm(reference) <= 1e-10

    def test_log_of_same_point_is_zero(self):
        sigma = random_spd(3, 4, 0.8)
        assert np.linalg.norm(riemannian_log(sigma, sigma).entries) <= 1e-10

    def test_mutually_inverse(self):
        for seed in range(20):
            sigma = random_spd(3, seed, 0.6)
            x = random_sym(3, seed + 50, 0.5)
            back = riemannian_log(sigma, riemannian_exp(sigma, x)).entries
            assert np.linalg.norm(back - x) / np.linalg.norm(x) <= 1e-8

    def test_traceless_directions_stay_on_leaf(self):
        sigma = random_spd(4, 6, 0.7)
        root = sigma.spectrum.apply(np.sqrt)
        for seed in range(10):
            w = random_sym(4, seed)
            w -= (np.trace(w) / 4) * np.eye(4)
            x = root @ w @ root  # tr(S^-1 X) = tr(W) = 0
            out = riemannian_exp(sigma, x)
            assert out.log_det == pytest.approx(sigma.log_det, abs=1e-9)


class TestGeometricMean:
    def test_identity_argument(self):
        sigma = random_spd(3, 2, 0.9)
        eye = spd_validate(np.eye(3))
        expected = matrix_function(sigma, "sqrt").entries
        assert np.allclose(geometric_mean(eye, sigma).entries, expected, rtol=1e-9)

    def test_commuting_diagonal_case(self):
        a = spd_validate(np.diag([1.0, 4.0]))
        b = spd_validate(np.diag([9.0, 1.0]))
        assert np.allclose(geometric_mean(a, b).entries, np.diag([3.0, 2.0]), rtol=1e-12)

    def test_is_geodesic_midpoint(self):
        a = random_spd(4, 21, 0.7)
        b = random_spd(4, 22, 0.7)
        assert np.allclose(geometric_mean(a, b).entries, geodesic(a, b, 0.5).entries, rtol=1e-9)

    def test_symmetric_in_arguments(self):
        for seed in range(50):
            a = random_spd(3, seed, 0.7)
            b = random_spd(3, seed + 1000, 0.7)
            m1 = geometric_mean(a, b).entries
            m2 = geometric_mean(b, a).entries
            assert np.linalg.norm(m1 - m2) / np.linalg.norm(m1) <= 1e-9


class TestLeafAndDistance:
    def test_log_det_examples(self):
        assert det_leaf(spd_validate(np.eye(5))) == 0.0
        assert det_leaf(spd_validate(np.diag([2.0, 0.5]))) == pytest.approx(0.0, abs=1e-14)

    def test_against_slogdet(self):
        for seed in range(20):
            sigma = random_spd(4, seed, 1.0)
            sign, expected = np.linalg.slogdet(sigma.entries)
            assert sign == 1.0
            assert det_leaf(sigma) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_leaf_strictly_increases_along_conal_geodesics(self):
        spec = quadratic_affine(1.5, 3)
        for seed in range(20):
            s1, s2 = random_ordered_pair(spec, 3, seed)
            samples = [det_leaf(geodesic(s1, s2, t)) for t in np.linspace(0, 1, 25)]
            assert np.all(np.diff(samples) > 0)

    def test_distance_identity_to_scalar(self):
        eye = spd_validate(np.eye(3))
        assert distance(eye, spd_validate(math.e * np.eye(3))) == pytest.approx(math.sqrt(3.0))

    def test_distance_symmetric_and_invariant(self):
        a = random_spd(3, 31, 0.8)
        b = random_spd(3, 32, 0.8)
        assert distance(a, b) == pytest.approx(distance(b, a), rel=1e-9)
        g = np.random.default_rng(0).standard_normal((3, 3))
        ga = spd_validate(g @ a.entries @ g.T)
        gb = spd_validate(g @ b.entries @ g.T)
        assert distance(ga, gb) == pytest.approx(distance(a, b), rel=1e-9)


# ---------------------------------------------------------------------------
# The frame views against their bodies from before the relative eigenframe
# had one implementation (roots built per call, the curve written out in
# each view), kept here as references: every output is the same bytes.
# ---------------------------------------------------------------------------


def reference_frame(sigma1, sigma2):
    inv_root = sigma1.spectrum.apply(lambda w: 1.0 / np.sqrt(w))
    rel = inv_root @ sigma2.entries @ inv_root
    w, u = np.linalg.eigh(0.5 * (rel + rel.T))
    if w[0] <= 0 or w[-1] / w[0] > 1e12:
        raise IllConditioned("relative matrix of the pair condition number exceeds 1.0e+12")
    return sigma1.spectrum.apply(np.sqrt) @ u, w


def reference_exp(sigma, x):
    inv_root = sigma.spectrum.apply(lambda w: 1.0 / np.sqrt(w))
    s = inv_root @ x @ inv_root
    spectrum = sym_eig(0.5 * (s + s.T))
    w = spectrum.eigenvalues
    if w[-1] - w[0] > np.log(1e12):
        raise IllConditioned("exponential image would exceed the condition cap")
    root = sigma.spectrum.apply(np.sqrt)
    return SpdMatrix(root @ spectrum.apply(np.exp) @ root).entries


def frame_pairs(n, scale):
    for seed in range(12):
        a, b = random_spd(n, derive_rng(seed, 0), 0.8), random_spd(n, derive_rng(seed, 1), 0.8)
        yield spd_validate(a.entries * scale), spd_validate(b.entries * scale), random_sym(n, seed, 0.2) * scale


def exp_outcome(exp, sigma, x):
    try:
        out = exp(sigma, x)
    except (IllConditioned, NotPositiveDefinite) as exc:  # a step past the condition cap or SpdMatrix's guards
        return type(exc), str(exc)
    return np.asarray(out).tobytes()


def same_bytes(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestFrameViewsBitForBit:
    @pytest.mark.parametrize("scale", [1.0, 2.0**520, 2.0**-520], ids=["unit", "2^520", "2^-520"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_views_match_the_written_out_bodies(self, n, scale):
        ts = np.linspace(0.0, 1.0, 9)[:, None, None]
        for s1, s2, x in frame_pairs(n, scale):
            b, w = reference_frame(s1, s2)
            frame = relative_eigenframe(s1, s2)
            assert same_bytes(frame[0], b) and same_bytes(frame[1], w)
            for t in (0.0, 0.3, 0.5, 1.0, -0.7, 2):
                assert same_bytes(geodesic(s1, s2, t).entries, SpdMatrix((b * w**t) @ b.T).entries)
                assert same_bytes(geodesic_velocity(s1, s2, t).entries, SymTangent((b * (np.log(w) * w**t)) @ b.T).entries)
            assert same_bytes(riemannian_log(s1, s2).entries, SymTangent((b * np.log(w)) @ b.T).entries)
            assert same_bytes(geometric_mean(s1, s2).entries, SpdMatrix((b * w**0.5) @ b.T).entries)
            assert exp_outcome(riemannian_exp, s1, x) == exp_outcome(reference_exp, s1, x)
            path, constant = _conal_path(ConeSpec("ray", n), s1, s2)
            assert constant == bool(np.linalg.norm(np.log(w)) <= 1e-10)
            for t in (0.5, ts):
                points, velocities = path(t)
                assert same_bytes(points, (b * w**t) @ b.T)
                assert same_bytes(velocities, (b * (np.log(w) * w**t)) @ b.T)
