import numpy as np
import pytest

from shapetransport import linalg, preshape
from shapetransport.errors import AmbiguousAlignment, RankDeficient

from conftest import (
    random_preshape,
    random_rotation,
    random_skew,
    random_tangent,
    rank_one_preshape,
)


def sylvester_residual(x, w, a):
    s = x @ x.T
    return np.linalg.norm(a @ s + s @ a - (w @ x.T - x @ w.T))


class TestSylvester:
    def test_horizontal_vector_gives_zero(self, rng):
        x = random_preshape(rng, 3, 4)
        w = preshape.horizontal_projection(x, random_tangent(rng, x))
        a = linalg.solve_sylvester_skew(x, w)
        assert np.linalg.norm(a) < 1e-10

    def test_vertical_vectors_are_fixed(self, rng):
        # w = B x for skew B solves the equation with A = B when x has full rank
        for _ in range(10):
            x = random_preshape(rng, 3, 4)
            b = random_skew(rng, 3)
            a = linalg.solve_sylvester_skew(x, b @ x)
            assert np.linalg.norm(a - b) < 1e-9
            assert sylvester_residual(x, b @ x, a) < 1e-10

    def test_random_residual(self, rng):
        for _ in range(20):
            x = random_preshape(rng, 3, 4)
            w = rng.standard_normal((3, 4))
            a = linalg.solve_sylvester_skew(x, w)
            assert sylvester_residual(x, w, a) <= 1e-10 * (1 + np.linalg.norm(w))

    def test_output_exactly_skew(self, rng):
        x = random_preshape(rng, 4, 6)
        a = linalg.solve_sylvester_skew(x, rng.standard_normal((4, 6)))
        assert np.array_equal(a, -a.T)

    def test_rank_deficient_raises(self, rng):
        x = rank_one_preshape()
        with pytest.raises(RankDeficient):
            linalg.solve_sylvester_skew(x, rng.standard_normal((3, 4)))

    def test_one_by_one_needs_rank_one(self):
        # the bound is max(m - 1, 1): a zero 1-by-1 S raises, alone or stacked
        zero = np.zeros((1, 1))
        for sym in (zero, np.array([np.eye(1), zero])):
            with pytest.raises(RankDeficient):
                linalg.solve_skew_sylvester(sym, zero)
        assert linalg.solve_skew_sylvester(np.eye(1), zero).shape == (1, 1)

    def test_one_rank_deficient_point_in_a_stack_raises(self, rng):
        xs = np.array([random_preshape(rng, 3, 4), rank_one_preshape(),
                       random_preshape(rng, 3, 4)])
        w = rng.standard_normal((3, 4))
        assert linalg.solve_sylvester_skew(xs[::2], w).shape == (2, 3, 3)
        with pytest.raises(RankDeficient):
            linalg.solve_sylvester_skew(xs, w)
        sym = xs @ xs.swapaxes(-1, -2)
        with pytest.raises(RankDeficient):
            linalg.solve_skew_sylvester(sym[:, None], random_skew(rng, 3))

    def test_stack_with_a_rank_m_minus_1_point_matches_a_loop(self, rng):
        # a zero row gives xx^T an exactly zero eigenvalue, whose diagonal
        # denominator must be infinite for every point of the stack
        planar = random_preshape(rng, 3, 4)
        planar[2] = 0.0
        planar /= np.linalg.norm(planar)
        xs = np.array([random_preshape(rng, 3, 4), planar])
        w = rng.standard_normal((2, 5, 3, 4))
        stacked = linalg.solve_sylvester_skew(xs[:, None], w)
        looped = np.array([[linalg.solve_sylvester_skew(x, v) for v in row]
                           for x, row in zip(xs, w)])
        assert np.all(np.isfinite(looped))
        assert np.abs(stacked - looped).max() <= 1e-14

    def test_rank_of_a_stack_is_the_rank_of_each_row(self):
        tol = linalg.RANK_RTOL
        lam = np.array([[0.0, 0.99 * tol, 1.0], [0.0, 1.01 * tol, 1.0],
                        [0.5, 0.7, 2.0], [0.0, 0.0, 0.0], [-2.0, -1.0, -0.5],
                        [1e-30, 1e-20, 1e-9]])
        ranks = [linalg.eigenvalue_rank(row) for row in lam]
        assert ranks == [1, 2, 3, 0, 0, 1]
        stacked = linalg.eigenvalue_rank(lam.reshape(2, 3, 3))
        assert stacked.shape == (2, 3)
        assert stacked.ravel().tolist() == ranks


class TestOptimalRotation:
    def test_identity_case(self, rng):
        x = random_preshape(rng, 3, 4)
        r = linalg.optimal_rotation(x, x)
        assert np.linalg.norm(r - np.eye(3)) < 1e-10

    def test_undoes_rotation(self, rng):
        for _ in range(10):
            x = random_preshape(rng, 3, 5)
            r0 = random_rotation(rng, 3)
            r = linalg.optimal_rotation(x, r0 @ x)
            assert np.linalg.norm(r @ (r0 @ x) - x) < 1e-12

    def test_special_orthogonal(self, rng):
        for m in (2, 3, 4):
            x = random_preshape(rng, m, 6)
            y = random_preshape(rng, m, 6)
            r = linalg.optimal_rotation(x, y)
            assert np.abs(r.T @ r - np.eye(m)).max() < 1e-12
            assert abs(np.linalg.det(r) - 1.0) < 1e-12
            # never worse than no rotation at all
            assert np.sum(x * (r @ y)) >= np.sum(x * y) - 1e-12

    def test_beats_random_rotations(self, rng):
        x = random_preshape(rng, 3, 4)
        y = random_preshape(rng, 3, 4)
        r = linalg.optimal_rotation(x, y)
        best = np.sum(x * (r @ y))
        samples = np.stack([random_rotation(rng, 3) for _ in range(1000)])
        gains = np.einsum("il,rij,jl->r", x, samples, y)
        assert best >= gains.max() - 1e-12

    def test_symmetry_certificate(self, rng):
        x = random_preshape(rng, 3, 4)
        y = random_preshape(rng, 3, 4)
        r = linalg.optimal_rotation(x, y)
        cert = x @ (r @ y).T
        assert np.linalg.norm(cert - cert.T) < 1e-10

    @staticmethod
    def kabsch(x, y):
        # R = P diag(1, ..., 1, det(P Q^T)) Q^T, written out from the SVD
        p, _, qt = np.linalg.svd(x @ y.T)
        signs = np.ones(len(p))
        signs[-1] = np.sign(np.linalg.det(p) * np.linalg.det(qt))
        return (p * signs) @ qt, signs[-1]

    @pytest.mark.parametrize("m, k", [(2, 3), (3, 4), (3, 12), (5, 8)])
    def test_no_flip_is_the_kabsch_formula(self, rng, m, k):
        for _ in range(10):
            x = random_preshape(rng, m, k)
            y = random_preshape(rng, m, k)
            expected, sign = self.kabsch(x, y)
            if sign < 0:
                y = y[[1, 0, *range(2, m)]]  # a row swap flips the sign
                expected, sign = self.kabsch(x, y)
            assert sign > 0
            assert np.array_equal(linalg.optimal_rotation(x, y), expected)

    @pytest.mark.parametrize("m, k", [(2, 3), (3, 4), (3, 12), (5, 8)])
    def test_flip_is_the_kabsch_formula(self, rng, m, k):
        # y is a reflected copy of x, so det(x y^T) < 0 and R needs the flip
        for _ in range(10):
            x = random_preshape(rng, m, k)
            y = np.diag([1.0] * (m - 1) + [-1.0]) @ x
            expected, sign = self.kabsch(x, y)
            assert sign < 0
            r = linalg.optimal_rotation(x, y)
            assert np.array_equal(r, expected)
            assert np.linalg.det(r) > 0.0

    def test_ambiguous_alignment_raises(self):
        x = rank_one_preshape()
        with pytest.raises(AmbiguousAlignment):
            linalg.optimal_rotation(x, -x)
