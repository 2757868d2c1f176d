import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapetransport import preshape
from shapetransport.errors import AntipodalPoints, DegenerateConfiguration

from conftest import (
    random_horizontal,
    random_preshape,
    random_rotation,
    random_skew,
    random_tangent,
)


class TestProjection:
    def test_fixed_point(self, rng):
        x = random_preshape(rng, 3, 4)
        assert np.allclose(preshape.project_to_preshape(x), x, atol=1e-14)

    def test_translation_invariance(self, rng):
        cfg = rng.standard_normal((3, 5))
        shifted = cfg + rng.standard_normal((3, 1))
        assert np.allclose(preshape.project_to_preshape(cfg),
                           preshape.project_to_preshape(shifted), atol=1e-12)

    def test_scale_invariance(self, rng):
        cfg = rng.standard_normal((3, 5))
        assert np.allclose(preshape.project_to_preshape(cfg),
                           preshape.project_to_preshape(3.7 * cfg), atol=1e-12)

    def test_invariants(self, rng):
        x = preshape.project_to_preshape(rng.standard_normal((2, 8)))
        assert np.linalg.norm(x.sum(axis=1)) <= 1e-12
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12

    def test_coincident_landmarks_raise(self):
        with pytest.raises(DegenerateConfiguration):
            preshape.project_to_preshape(np.ones((3, 4)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_landmarks_rejected(self, rng, value):
        points = rng.standard_normal((3, 4))
        points[1, 2] = value
        with pytest.raises(ValueError, match="finite"):
            preshape.project_to_preshape(points)


class TestTangent:
    def test_radial_component_removed(self, rng):
        x = random_preshape(rng, 3, 4)
        assert np.linalg.norm(preshape.to_tangent(x, x)) < 1e-12

    def test_idempotent(self, rng):
        x = random_preshape(rng, 3, 4)
        w = preshape.to_tangent(x, rng.standard_normal((3, 4)))
        assert np.allclose(preshape.to_tangent(x, w), w, atol=1e-13)

    def test_tangency(self, rng):
        x = random_preshape(rng, 3, 4)
        w = preshape.to_tangent(x, rng.standard_normal((3, 4)))
        assert abs(np.sum(w * x)) < 1e-12
        assert np.linalg.norm(w.sum(axis=1)) < 1e-12


class TestExpLogDist:
    def test_exp_zero(self, rng):
        x = random_preshape(rng, 3, 4)
        assert np.array_equal(preshape.exp(x, np.zeros_like(x)), x)

    def test_exp_below_1e_9_is_the_normalised_sum(self, rng):
        # cos|w| and sin|w|/|w| round to 1.0 there, so no branch is needed
        for norm in np.logspace(-161, -9, 153):
            x = random_preshape(rng, 3, 4)
            w = norm * random_tangent(rng, x)
            assert np.array_equal(preshape.exp(x, w),
                                  (x + w) / np.linalg.norm(x + w))

    def test_exp_antipode(self, rng):
        x = random_preshape(rng, 3, 4)
        w = np.pi * random_tangent(rng, x)
        assert np.linalg.norm(preshape.exp(x, w) + x) < 1e-12

    def test_exp_arc_length(self, rng):
        x = random_preshape(rng, 3, 4)
        y = preshape.exp(x, 0.5 * random_tangent(rng, x))
        assert abs(preshape.dist(x, y) - 0.5) < 1e-12

    def test_log_identity(self, rng):
        x = random_preshape(rng, 3, 4)
        assert np.array_equal(preshape.log(x, x), np.zeros_like(x))

    def test_log_inverts_exp(self, rng):
        x = random_preshape(rng, 3, 4)
        w = 2.0 * random_tangent(rng, x)
        assert np.linalg.norm(preshape.log(x, preshape.exp(x, w)) - w) < 1e-10

    @pytest.mark.parametrize("norm", [1e-7, 1e-8, 1e-10])
    def test_log_inverts_exp_at_tiny_distances(self, rng, norm):
        # below 1.4e-7, where 1 - cos d < 1e-14: coincidence is a test on sin d
        for _ in range(10):
            x = random_preshape(rng, 3, 4)
            w = norm * random_tangent(rng, x)
            assert np.linalg.norm(preshape.log(x, preshape.exp(x, w)) - w) <= 1e-15

    def test_exp_inverts_log(self, rng):
        for _ in range(10):
            x = random_preshape(rng, 3, 4)
            y = random_preshape(rng, 3, 4)
            assert np.linalg.norm(preshape.exp(x, preshape.log(x, y)) - y) < 1e-10

    def test_dist_trivials(self, rng):
        x = random_preshape(rng, 3, 4)
        assert preshape.dist(x, x) == 0.0
        assert abs(preshape.dist(x, -x) - np.pi) < 1e-12

    def test_dist_matches_log_norm(self, rng):
        x = random_preshape(rng, 3, 4)
        y = random_preshape(rng, 3, 4)
        assert abs(preshape.dist(x, y) - np.linalg.norm(preshape.log(x, y))) < 1e-12
        assert abs(preshape.dist(x, y) - preshape.dist(y, x)) < 1e-15

    def test_log_antipodal_raises(self, rng):
        x = random_preshape(rng, 3, 4)
        with pytest.raises(AntipodalPoints):
            preshape.log(x, -x)

    @staticmethod
    def basis_pair(inner):
        # x = E_11 and y = inner E_11, so <x, y> is exactly `inner`
        x = np.zeros((3, 4))
        x[0, 0] = 1.0
        return x, inner * x

    def test_inner_one_ulp_above_one(self):
        x, y = self.basis_pair(np.nextafter(1.0, 2.0))
        assert np.array_equal(preshape.log(x, y), np.zeros_like(x))
        # clamped to 1: the distance is the gap |y - x| = 2^-52 itself
        assert preshape.dist(x, y) == np.arctan2(2.0**-52, 1.0)

    def test_inner_one_ulp_below_minus_one(self):
        x, y = self.basis_pair(np.nextafter(-1.0, -2.0))
        with pytest.raises(AntipodalPoints):
            preshape.log(x, y)
        assert preshape.dist(x, y) == np.arctan2(2.0**-52, -1.0)

    def test_nan_inner_product_propagates(self, rng):
        x = random_preshape(rng, 3, 4)
        y = random_preshape(rng, 3, 4)
        y[1, 2] = np.nan
        assert np.isnan(preshape.log(x, y)).all()
        assert np.isnan(preshape.dist(x, y))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           norm=st.floats(1e-6, np.pi - 0.1))
    def test_round_trip_property(self, seed, norm):
        rng = np.random.default_rng(seed)
        x = random_preshape(rng, 3, 4)
        w = norm * random_tangent(rng, x)
        assert np.linalg.norm(preshape.log(x, preshape.exp(x, w)) - w) <= 1e-9

    def test_geodesic_stays_on_sphere(self, rng):
        x = random_preshape(rng, 3, 4)
        w = 2.5 * random_tangent(rng, x)
        for t in np.linspace(0.0, 1.0, 100):
            assert abs(np.linalg.norm(preshape.exp(x, t * w)) - 1.0) <= 1e-12


class TestNorm:
    @pytest.mark.parametrize("layout", ["c", "transposed", "sliced", "stack"])
    def test_matches_numpy_bit_for_bit(self, rng, layout):
        for _ in range(20):
            a = rng.standard_normal((7, 301)) * rng.uniform(1e-3, 1e3, 301)
            a = {"c": a, "transposed": a.T, "sliced": a[1::2, ::3],
                 "stack": a.reshape(7, 7, 43)}[layout]
            assert preshape._norm(a) == np.linalg.norm(a)


class TestVerticalHorizontal:
    def test_horizontal_has_no_vertical_part(self, rng):
        x = random_preshape(rng, 3, 4)
        h = random_horizontal(rng, x)
        assert np.linalg.norm(preshape.vertical_projection(x, h)) < 1e-10

    def test_vertical_is_fixed(self, rng):
        x = random_preshape(rng, 3, 4)
        w = preshape.to_tangent(x, random_skew(rng, 3) @ x)
        assert np.linalg.norm(preshape.vertical_projection(x, w) - w) < 1e-10

    def test_split_is_orthogonal(self, rng):
        for _ in range(10):
            x = random_preshape(rng, 3, 4)
            w = random_tangent(rng, x)
            ver = preshape.vertical_projection(x, w)
            hor = preshape.horizontal_projection(x, w)
            assert abs(np.sum(ver * hor)) < 1e-10

    def test_split_sums_to_whole(self, rng):
        x = random_preshape(rng, 3, 4)
        w = random_tangent(rng, x)
        ver = preshape.vertical_projection(x, w)
        hor = preshape.horizontal_projection(x, w)
        assert np.linalg.norm(ver + hor - w) < 1e-15

    def test_horizontal_certificate(self, rng):
        x = random_preshape(rng, 3, 4)
        hor = preshape.horizontal_projection(x, random_tangent(rng, x))
        assert preshape.is_horizontal(x, hor)

    def test_horizontal_idempotent(self, rng):
        x = random_preshape(rng, 3, 4)
        hor = preshape.horizontal_projection(x, random_tangent(rng, x))
        assert np.linalg.norm(preshape.horizontal_projection(x, hor) - hor) < 1e-12

    def test_geodesic_velocity_stays_horizontal(self, rng):
        x = random_preshape(rng, 3, 4)
        w = random_horizontal(rng, x)
        norm = np.linalg.norm(w)
        for t in np.linspace(0.0, 1.0, 11):
            gamma = preshape.exp(x, t * w)
            gamma_dot = np.cos(t * norm) * w - norm * np.sin(t * norm) * x
            assert preshape.is_horizontal(gamma, gamma_dot)


class TestAlign:
    def test_identity(self, rng):
        x = random_preshape(rng, 3, 4)
        assert np.linalg.norm(preshape.align(x, x) - x) < 1e-12

    def test_undoes_rotation(self, rng):
        x = random_preshape(rng, 3, 4)
        r0 = random_rotation(rng, 3)
        assert np.linalg.norm(preshape.align(x, r0 @ x) - x) < 1e-10

    def test_symmetry_certificate_and_distance(self, rng):
        x = random_preshape(rng, 3, 4)
        y = random_preshape(rng, 3, 4)
        aligned = preshape.align(x, y)
        cert = x @ aligned.T
        assert np.linalg.norm(cert - cert.T) < 1e-10
        assert preshape.dist(x, aligned) <= preshape.dist(x, y) + 1e-12

    def test_log_to_aligned_is_horizontal(self, rng):
        x = random_preshape(rng, 3, 4)
        y = random_preshape(rng, 3, 4)
        assert preshape.is_horizontal(x, preshape.log(x, preshape.align(x, y)))

    def test_beats_random_rotations(self, rng):
        x = random_preshape(rng, 3, 4)
        y = random_preshape(rng, 3, 4)
        d_opt = preshape.dist(x, preshape.align(x, y))
        for _ in range(1000):
            r = random_rotation(rng, 3)
            assert d_opt <= preshape.dist(x, r @ y) + 1e-12

