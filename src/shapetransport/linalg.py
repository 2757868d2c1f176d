"""Small dense linear-algebra kernels.

Symmetric-coefficient skew Sylvester solver and the SVD-based optimal
rotation (rotation-only Procrustes). Design envelope is m <= 10. The
Sylvester solvers take stacks (..., m, k) of right-hand sides and of
points; stacked products are plain broadcasting `@`, with no reshaping
helper.
"""

import numpy as np

from .errors import AmbiguousAlignment, RankDeficient

# A singular/eigen value counts as zero below this fraction of the largest.
RANK_RTOL = 1e-9


def eigenvalue_rank(lam: np.ndarray):
    """Numerical rank of a positive semi-definite matrix from its ascending
    eigenvalues: the count not below RANK_RTOL times the largest, 0 when the
    largest is not positive. A stack (..., m) of eigenvalue rows gives the
    array of their ranks."""
    if lam.ndim > 1:
        top = lam[..., -1:]
        rank = lam.shape[-1] - np.count_nonzero(lam < RANK_RTOL * top, axis=-1)
        return np.where(top[..., 0] <= 0.0, 0, rank)
    if lam[-1] <= 0.0:
        return 0
    return len(lam) - np.count_nonzero(lam < RANK_RTOL * lam[-1])


def solve_skew_sylvester(sym: np.ndarray, rhs_skew: np.ndarray) -> np.ndarray:
    """Solve A @ S + S @ A = B for skew-symmetric A.

    S = ``sym`` must be symmetric positive semi-definite with at most one
    (near-)zero eigenvalue, B = ``rhs_skew`` skew-symmetric. Either may be a
    stack (..., m, m); the two stacks broadcast, and one S serves all the
    right-hand sides stacked against it with one eigh. Solved in the
    eigenbasis of S: with S = U diag(lam) U^T, the transformed solution has
    entries B~_ij / (lam_i + lam_j) off the diagonal and zeros on it.
    Raises RankDeficient when the rank of S (of any S in a stack), by
    `eigenvalue_rank`, is below max(m - 1, 1).
    """
    lam, u = np.linalg.eigh(sym)
    m = lam.shape[-1]
    rank = eigenvalue_rank(lam)
    # rank 0 stands for a largest eigenvalue that is not positive
    if (rank.min() if lam.ndim > 1 else rank) < max(m - 1, 1):
        raise RankDeficient(
            "two or more eigenvalues below tolerance; rank < m-1"
        )
    denom = lam[..., None] + lam[..., None, :]
    # the solution's diagonal is 0
    denom.reshape(-1, m * m)[:, ::m + 1] = np.inf
    ut = u.swapaxes(-1, -2)
    a = u @ (ut @ rhs_skew @ u / denom) @ ut
    return 0.5 * (a - a.swapaxes(-1, -2))


def solve_sylvester_skew(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Skew-symmetric A with A(xx^T) + (xx^T)A = wx^T - xw^T.

    ``x`` is an m-by-k pre-shape of rank >= m-1 and ``w`` any m-by-k matrix;
    either may be a stack (..., m, k), and the result has the broadcast
    shape of the two stacks.
    """
    xt = x.swapaxes(-1, -2)
    wx = w @ xt
    return solve_skew_sylvester(x @ xt, wx - wx.swapaxes(-1, -2))


def optimal_rotation(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rotation R in SO(m) maximizing <x, R y> (Frobenius inner product).

    Kabsch convention: SVD x y^T = P Sigma Q^T, then
    R = P diag(1, ..., 1, det(P Q^T)) Q^T. Raises AmbiguousAlignment when a
    determinant flip is needed but the two smallest singular values are both
    (near-)zero, i.e. the minimizer is not unique.
    """
    p, sig, qt = np.linalg.svd(x @ y.T)
    rot = p @ qt
    if np.linalg.det(rot) < 0.0:
        if sig[-2] + sig[-1] <= RANK_RTOL * sig[0]:
            raise AmbiguousAlignment(
                "optimal rotation not unique: degenerate singular values"
            )
        p[:, -1] = -p[:, -1]
        rot = p @ qt
    return rot
