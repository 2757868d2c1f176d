import numpy as np
import pytest

from shapetransport import preshape, quotient
from shapetransport.errors import RankDeficient
from shapetransport.linalg import RANK_RTOL

from conftest import (
    random_horizontal,
    random_preshape,
    random_rotation,
    random_skew,
    rank_one_preshape,
)


class TestRepresentative:
    def test_valid_passes(self, rng):
        x = random_preshape(rng, 3, 4)
        assert quotient.check_representative(x) is x

    def test_singular_stratum_rejected(self):
        with pytest.raises(RankDeficient):
            quotient.check_representative(rank_one_preshape())

    def test_solver_rank_test_applies(self):
        # singular values (1, 1e-6, 0): rank 2 by a singular-value test, but
        # xx^T has eigenvalues (1, 1e-12, 0), which the Sylvester solver
        # reads as rank 1, so the representative must be rejected here
        rows = np.linalg.qr(np.array([[1.0, -1.0, 0.0, 0.0],
                                      [1.0, 1.0, -2.0, 0.0]]).T)[0].T
        x = np.zeros((3, 4))
        x[:2] = np.array([[1.0], [1e-6]]) * rows
        x /= np.linalg.norm(x)
        with pytest.raises(RankDeficient):
            quotient.check_representative(x)

    @pytest.mark.parametrize("factor,rejected", [(0.99, True), (1.01, False)])
    def test_rank_threshold(self, factor, rejected):
        # xx^T = diag(1, ratio, 0) / (1 + ratio): the second eigenvalue sits
        # 1 % under or over RANK_RTOL times the largest
        rows = np.linalg.qr(np.array([[1.0, -1.0, 0.0, 0.0],
                                      [1.0, 1.0, -2.0, 0.0]]).T)[0].T
        ratio = factor * RANK_RTOL
        x = np.zeros((3, 4))
        x[:2] = np.sqrt(np.array([[1.0], [ratio]]) / (1.0 + ratio)) * rows
        lam = np.linalg.eigh(x @ x.T)[0]
        assert lam[1] / lam[2] == pytest.approx(ratio, rel=1e-6)
        if rejected:
            with pytest.raises(RankDeficient):
                quotient.check_representative(x)
        else:
            assert quotient.check_representative(x) is x

    def test_non_preshape_rejected(self, rng):
        with pytest.raises(ValueError):
            quotient.check_representative(rng.standard_normal((3, 4)))
        with pytest.raises(ValueError, match="pre-shape"):
            quotient.check_representative(np.full((3, 4), np.nan))


class TestQuotientExp:
    def test_zero_vector(self, rng):
        x = random_preshape(rng, 3, 4)
        assert np.array_equal(quotient.quotient_exp(x, np.zeros_like(x)), x)

    def test_vertical_vector_keeps_shape(self, rng):
        x = random_preshape(rng, 3, 4)
        v = preshape.to_tangent(x, random_skew(rng, 3) @ x)
        y = quotient.quotient_exp(x, v)
        assert quotient.quotient_dist(x, y) < 1e-8

    def test_horizontal_vector_moves_by_its_norm(self, rng):
        x = random_preshape(rng, 3, 4)
        v = 0.4 * random_horizontal(rng, x)
        y = quotient.quotient_exp(x, v)
        assert abs(quotient.quotient_dist(x, y) - 0.4) < 1e-9


class TestQuotientLog:
    def test_same_point(self, rng):
        x = random_preshape(rng, 3, 4)
        assert np.linalg.norm(quotient.quotient_log(x, x)) < 1e-12

    def test_rotated_copy(self, rng):
        x = random_preshape(rng, 3, 4)
        assert np.linalg.norm(
            quotient.quotient_log(x, random_rotation(rng, 3) @ x)) < 1e-10

    def test_round_trip(self, rng):
        x = random_preshape(rng, 3, 4)
        v = 0.3 * random_horizontal(rng, x)
        recovered = quotient.quotient_log(x, quotient.quotient_exp(x, v))
        assert np.linalg.norm(recovered - v) < 1e-9

    def test_round_trip_up_to_bound(self, rng):
        for _ in range(10):
            x = random_preshape(rng, 3, 4)
            v = rng.uniform(0.05, 0.7) * random_horizontal(rng, x)
            y = quotient.quotient_exp(x, v)
            assert np.linalg.norm(quotient.quotient_log(x, y) - v) < 1e-9
            assert quotient.quotient_dist(y, quotient.quotient_exp(x, quotient.quotient_log(x, y))) < 1e-9

    def test_output_horizontal(self, rng):
        x = random_preshape(rng, 3, 4)
        y = random_preshape(rng, 3, 4)
        v = quotient.quotient_log(x, y)
        assert preshape.is_horizontal(x, v)
        assert abs(np.sum(v * x)) < 1e-12


class TestQuotientDist:
    def test_rotation_invariance(self, rng):
        x = random_preshape(rng, 3, 4)
        assert quotient.quotient_dist(x, random_rotation(rng, 3) @ x) < 1e-10

    def test_bounded_by_sphere_distance(self, rng):
        x = random_preshape(rng, 3, 4)
        y = random_preshape(rng, 3, 4)
        assert quotient.quotient_dist(x, y) <= preshape.dist(x, y) + 1e-12

    def test_beats_random_rotations(self, rng):
        x = random_preshape(rng, 3, 4)
        y = random_preshape(rng, 3, 4)
        d = quotient.quotient_dist(x, y)
        for _ in range(1000):
            assert d <= preshape.dist(x, random_rotation(rng, 3) @ y) + 1e-12

    def test_symmetry(self, rng):
        x = random_preshape(rng, 3, 4)
        y = random_preshape(rng, 3, 4)
        assert abs(quotient.quotient_dist(x, y) - quotient.quotient_dist(y, x)) < 1e-10

    def test_representative_independence(self, rng):
        x = random_preshape(rng, 3, 4)
        y = random_preshape(rng, 3, 4)
        d = quotient.quotient_dist(x, y)
        for _ in range(5):
            r1 = random_rotation(rng, 3)
            r2 = random_rotation(rng, 3)
            assert abs(quotient.quotient_dist(r1 @ x, r2 @ y) - d) < 1e-9
