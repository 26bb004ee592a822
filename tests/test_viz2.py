import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdorders import (
    ConePoint3,
    cone_cross_section,
    cone_membership,
    det_leaf,
    half_space_affine,
    hyperboloid_leaf,
    loewner,
    phi,
    phi_inverse,
    quadratic_affine,
    quadratic_translation,
    random_spd,
    ray_affine,
    spd_validate,
)
from spdorders.core import random_sym
from spdorders.errors import DimensionMismatch, EmptySection, InvalidParameters, OutsideCone
from spdorders.viz2 import (
    MAX_LEAF_LABEL,
    MAX_RESOLUTION,
    coordinate_margins,
    coords_to_tangent,
    tangent_to_coords,
)

SQRT2 = math.sqrt(2.0)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestBijection:
    def test_identity_lands_at_axis(self):
        p = phi(spd_validate(np.eye(2)))
        assert (p.x, p.y) == (0.0, 0.0)
        assert p.z == pytest.approx(SQRT2, rel=1e-15)

    def test_diag_two_one(self):
        p = phi(spd_validate(np.diag([2.0, 1.0])))
        assert p.x == 0.0
        assert p.y == pytest.approx(1.0 / SQRT2, rel=1e-15)
        assert p.z == pytest.approx(3.0 / SQRT2, rel=1e-15)

    @given(seeds)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, seed):
        sigma = random_spd(2, seed, scale=0.9)
        back = phi_inverse(phi(sigma))
        assert np.max(np.abs(back.entries - sigma.entries)) <= 1e-12 * np.max(np.abs(sigma.entries))

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            phi(random_spd(3, 0))

    def test_outside_cone_rejected(self):
        with pytest.raises(OutsideCone):
            ConePoint3(1.0, 1.0, 1.0)
        with pytest.raises(OutsideCone):
            phi_inverse((0.0, 0.0, -1.0))

    def test_determinant_identity(self):
        # det of the matrix at (x, y, z) is (z^2 - x^2 - y^2) / 2
        rng = np.random.default_rng(3)
        for _ in range(200):
            x, y = rng.uniform(-2, 2, size=2)
            z = math.sqrt(x * x + y * y + rng.uniform(0.01, 4.0))
            sigma = phi_inverse((x, y, z))
            det = np.linalg.det(sigma.entries)
            assert det == pytest.approx((z * z - x * x - y * y) / 2.0, rel=1e-10)

    def test_tangent_transport_roundtrip(self):
        x = random_sym(2, 9)
        assert np.allclose(coords_to_tangent(tangent_to_coords(x)).entries, x, atol=1e-15)


class TestPullbackConsistency:
    @pytest.mark.parametrize("mu", [0.3, 1.0, 1.7])
    def test_affine_form_signs_match_membership(self, mu):
        spec = quadratic_affine(mu, 2)
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(400):
            sigma = random_spd(2, int(rng.integers(1 << 30)), 0.8)
            x = random_sym(2, int(rng.integers(1 << 30)))
            p = phi(sigma)
            lin, quad = coordinate_margins(spec, p, tangent_to_coords(x))
            coord_inside = lin >= 0.0 and quad >= 0.0
            abstract = cone_membership(spec, sigma, x)
            if min(abs(lin), abs(quad), abs(abstract.margin)) <= 1e-9:
                continue
            assert coord_inside == abstract.inside
            checked += 1
        assert checked > 300

    def test_translation_form_signs_match_membership(self):
        spec = quadratic_translation(0.8, 2)
        rng = np.random.default_rng(6)
        for _ in range(300):
            sigma = random_spd(2, int(rng.integers(1 << 30)), 0.8)
            x = random_sym(2, int(rng.integers(1 << 30)))
            lin, quad = coordinate_margins(spec, phi(sigma), tangent_to_coords(x))
            abstract = cone_membership(spec, sigma, x)
            if min(abs(lin), abs(quad), abs(abstract.margin)) <= 1e-9:
                continue
            assert (lin >= 0 and quad >= 0) == abstract.inside

    def test_half_space_form_signs_match_membership(self):
        spec = half_space_affine(2)
        rng = np.random.default_rng(7)
        for _ in range(300):
            sigma = random_spd(2, int(rng.integers(1 << 30)), 0.8)
            x = random_sym(2, int(rng.integers(1 << 30)))
            lin, quad = coordinate_margins(spec, phi(sigma), tangent_to_coords(x))
            assert quad is None
            abstract = cone_membership(spec, sigma, x)
            if min(abs(lin), abs(abstract.margin)) <= 1e-9:
                continue
            assert (lin >= 0) == abstract.inside


class TestCrossSections:
    def test_sections_at_identity_coincide(self):
        # affine and translation cones agree at the base point of the picture
        p = phi(spd_validate(np.eye(2)))
        for mu in (0.5, 1.0, 1.5):
            affine = cone_cross_section(quadratic_affine(mu, 2), p, 32)
            translation = cone_cross_section(quadratic_translation(mu, 2), p, 32)
            assert np.allclose(affine, translation, atol=1e-9)
            for v in affine:
                # boundary satisfies (2/mu - 1) dz^2 = dx^2 + dy^2
                assert (2.0 / mu - 1.0) * v[2] ** 2 == pytest.approx(v[0] ** 2 + v[1] ** 2, abs=1e-8)

    def test_mu_one_affine_equals_translation_everywhere(self):
        for seed in range(10):
            p = phi(random_spd(2, seed, 0.8))
            affine = cone_cross_section(quadratic_affine(1.0, 2), p, 24)
            spec_t = quadratic_translation(1.0, 2)
            for v in affine:
                lin, quad = coordinate_margins(spec_t, p, v)
                assert min(lin, quad) == pytest.approx(0.0, abs=1e-8)

    def test_loewner_section_matches_translation_mu_one(self):
        p = phi(random_spd(2, 3, 0.7))
        lo = cone_cross_section(loewner(2), p, 24)
        tr = cone_cross_section(quadratic_translation(1.0, 2), p, 24)
        assert np.allclose(lo, tr, atol=1e-9)

    def test_half_space_section_is_the_boundary_plane(self):
        p = phi(random_spd(2, 11, 0.9))
        normal = np.array([-p.x, -p.y, p.z])
        section = cone_cross_section(half_space_affine(2), p, 24)
        for v in section:
            assert abs(np.dot(v, normal)) <= 1e-9 * np.linalg.norm(normal)

    def test_boundary_verified_against_abstract_membership(self):
        for mu in (0.4, 1.2):
            spec = quadratic_affine(mu, 2)
            sigma = random_spd(2, 21, 0.8)
            section = cone_cross_section(spec, phi(sigma), 24)
            for v in section:
                rep = cone_membership(spec, sigma, coords_to_tangent(v))
                assert abs(rep.margin) <= 1e-8

    def test_ray_section_is_empty(self):
        with pytest.raises(EmptySection):
            cone_cross_section(ray_affine(2), phi(random_spd(2, 1)), 16)

    def test_resolution_floor(self):
        with pytest.raises(InvalidParameters):
            cone_cross_section(quadratic_affine(1.0, 2), phi(random_spd(2, 1)), 4)

    def test_resolution_cap(self):
        p = phi(random_spd(2, 1))
        assert len(cone_cross_section(quadratic_affine(1.0, 2), p, 256)) == 256
        with pytest.raises(InvalidParameters, match="resolution"):
            cone_cross_section(quadratic_affine(1.0, 2), p, MAX_RESOLUTION + 1)


def bisected_section(spec, p, resolution):
    """The section as it was drawn before its closed form: bisect each arc
    to 1e-10 rad on the smaller coordinate margin."""
    if spec.kind in ("quad-translate", "loewner"):
        axis = np.array([0.0, 0.0, 1.0])
    elif spec.kind == "half-space":
        axis = np.array([-p.x, -p.y, p.z])
    else:
        axis = p.as_array()
    axis = axis / np.linalg.norm(axis)
    helper = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = helper - np.dot(helper, axis) * axis
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    out = np.empty((resolution, 3))
    for k in range(resolution):
        psi = 2.0 * math.pi * k / resolution
        w = math.cos(psi) * e1 + math.sin(psi) * e2
        lo, hi = 0.0, math.pi
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            lin, quad = coordinate_margins(spec, p, math.cos(mid) * axis + math.sin(mid) * w)
            if (lin if quad is None else min(lin, quad)) >= 0.0:
                lo = mid
            else:
                hi = mid
        theta = 0.5 * (lo + hi)
        out[k] = math.cos(theta) * axis + math.sin(theta) * w
    return out


class TestClosedFormSections:
    SPECS = [quadratic_affine(0.5, 2), quadratic_affine(1.0, 2), quadratic_affine(1.5, 2),
             quadratic_translation(0.8, 2), loewner(2), half_space_affine(2)]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.mu}")
    def test_matches_the_bisection_reference(self, spec):
        for seed in (0, 1, 2):
            p = phi(random_spd(2, seed, 0.8))
            closed = cone_cross_section(spec, p, 256)
            assert np.max(np.linalg.norm(closed - bisected_section(spec, p, 256), axis=1)) <= 1e-10

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.mu}")
    def test_directions_are_unit_and_on_the_boundary(self, spec):
        # a point far from the identity, where the affine axis leans far from e3
        p = phi(spd_validate(np.array([[50.0, 7.0], [7.0, 1.0]])))
        for v in cone_cross_section(spec, p, 64):
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
            lin, quad = coordinate_margins(spec, p, v)
            assert abs(lin if quad is None else min(lin, quad)) <= 1e-12


class TestExtremeScales:
    # the forms are homogeneous in p: a section at 2^+-520 is the unscaled
    # section bit for bit, and no square overflows or underflows on the way
    SPECS = [quadratic_affine(0.5, 2), quadratic_affine(1.0, 2), quadratic_translation(0.8, 2),
             loewner(2), half_space_affine(2)]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.mu}")
    @pytest.mark.parametrize("e", [-520, -300, 8, 300, 520])
    def test_sections_equal_the_unscaled_section(self, spec, e):
        for seed in (0, 5):
            sigma = random_spd(2, seed, 0.6)
            p, scaled = phi(sigma), phi(spd_validate(np.ldexp(sigma.entries, e)))
            assert cone_cross_section(spec, scaled, 24).tobytes() == cone_cross_section(spec, p, 24).tobytes()
            delta = np.array([0.3, -0.2, 1.0])
            assert coordinate_margins(spec, scaled, delta) == coordinate_margins(spec, p, delta)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.mu}")
    @pytest.mark.parametrize("e", [-1000, -600, 600, 1000])
    def test_margins_in_the_scale_of_the_tangent(self, spec, e):
        # the margins have degree 0 in delta: no square of a scaled delta
        # may underflow to the zero tangent's (1, 1) or overflow
        for seed in (0, 5):
            p = phi(random_spd(2, seed, 0.6))
            for delta in (np.array([0.3, -0.2, 1.0]), np.array([-1.0, 0.25, 0.5])):
                assert coordinate_margins(spec, p, np.ldexp(delta, e)) == coordinate_margins(spec, p, delta)

    @pytest.mark.filterwarnings("error")
    def test_interiority_at_extreme_scales(self):
        for e in (-1070, -520, 520, 1000):
            z = math.ldexp(1.0, e)
            assert ConePoint3(0.6 * z, -0.1 * z, z).z == z
            for x in (z, 1.5 * z, 1e308, math.nan, math.inf):
                with pytest.raises(OutsideCone):
                    ConePoint3(x, 0.0, z)


class TestHyperboloidLeaves:
    def test_zero_label_gives_the_cone_boundary(self):
        grid = hyperboloid_leaf(0.0, 16)
        flat = grid.reshape(-1, 3)
        assert np.allclose(flat[:, 2] ** 2, flat[:, 0] ** 2 + flat[:, 1] ** 2, atol=1e-12)

    def test_leaf_through_identity_point(self):
        grid = hyperboloid_leaf(2.0, 16)
        assert np.allclose(grid[0, :, 2], SQRT2)  # rho = 0 row sits at (0, 0, sqrt 2)

    def test_constant_log_det(self):
        grid = hyperboloid_leaf(2.0, 12)
        values = [det_leaf(phi_inverse(pt)) for pt in grid.reshape(-1, 3)]
        assert np.max(np.abs(np.array(values) - math.log(1.0))) <= 1e-10

    def test_grid_tangents_annihilate_the_half_space_form(self):
        # analytic surface tangents: (-y, x, 0) and (x z, y z, x^2 + y^2)
        grid = hyperboloid_leaf(1.5, 12).reshape(-1, 3)
        for x, y, z in grid[12:]:
            for dx, dy, dz in ((-y, x, 0.0), (x * z, y * z, x * x + y * y)):
                assert abs(z * dz - x * dx - y * dy) <= 1e-8 * max(1.0, z * z)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameters):
            hyperboloid_leaf(-1.0, 16)
        with pytest.raises(InvalidParameters):
            hyperboloid_leaf(1.0, 4)

    def test_resolution_cap(self):
        # rejected before the grid is allocated
        for resolution in (MAX_RESOLUTION + 1, 10**8):
            with pytest.raises(InvalidParameters, match="resolution"):
                hyperboloid_leaf(2.0, resolution)

    def test_label_cap(self):
        assert np.isfinite(hyperboloid_leaf(MAX_LEAF_LABEL, 8)).all()
        # rejected before the grid is allocated
        for c in (math.nan, math.inf, 4e307, -math.inf):
            with pytest.raises(InvalidParameters, match="leaf label"):
                hyperboloid_leaf(c, 8)
