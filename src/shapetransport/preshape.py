"""The pre-shape sphere of centered, unit-norm m-by-k landmark matrices.

Projection from raw landmarks, closed-form sphere geodesics (exp/log/dist),
tangent projection, the vertical/horizontal split and the align map.
Points and tangent vectors are plain m-by-k numpy arrays; columns are
landmarks in R^m. `center`, `remove_radial`, `to_tangent` and the
vertical and horizontal projections also take a stack (..., m, k) of
vectors, and all but `center` a stack of points; the two stacks broadcast
against each other, and so do their products with `@`.
"""

import math
import warnings

import numpy as np

from .errors import AntipodalPoints, DegenerateConfiguration, io_failure
from .linalg import eigenvalue_rank, optimal_rotation, solve_sylvester_skew

# log treats points as coincident when |y - <x, y> x|, the sine of their
# distance, is at most this.
_COINCIDENT = 1e-14
# Inner products at or below -1 + this raise AntipodalPoints.
_ANTIPODAL = 1e-10


def frobenius_inner(a: np.ndarray, b: np.ndarray) -> float:
    return float((a * b).sum())


def _norm(a: np.ndarray) -> float:
    """np.linalg.norm(a) of a float array, bit for bit, minus its wrapper."""
    a = a.ravel(order="K")
    return math.sqrt(a.dot(a))


def center(points: np.ndarray) -> np.ndarray:
    """Subtract the landmark barycentre from every column."""
    return points - points.mean(axis=-1, keepdims=True)


def project_to_preshape(points: np.ndarray) -> np.ndarray:
    """Center and normalize a raw landmark configuration.

    Invariant under translation of all landmarks and positive rescaling.
    Raises ValueError on a non-finite entry (or norm).
    """
    points = np.asarray(points, dtype=float)
    if not math.isfinite(_norm(points)):
        raise ValueError("landmarks need finite entries and norm")
    centered = center(points)
    norm = _norm(centered)
    if norm <= 1e-12:
        raise DegenerateConfiguration("all landmarks coincide")
    return centered / norm


def configuration_rank(x: np.ndarray) -> int:
    """Numerical rank of xx^T under the Sylvester solver's own test, on the
    same eigh call, so that the solver accepts every x of rank >= m-1."""
    return eigenvalue_rank(np.linalg.eigh(x @ x.T)[0])


def remove_radial(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w minus its component along the unit-norm x."""
    return w - (w * x).sum(axis=(-2, -1), keepdims=True) * x


def to_tangent(x: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Project a raw m-by-k matrix onto the tangent space at x.

    Centers the columns, then removes the radial component. Idempotent.
    """
    return remove_radial(x, center(np.asarray(raw, dtype=float)))


def exp(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Great-circle exponential cos(|w|) x + sin(|w|) w/|w|, or its limit
    x + w at |w| = 0, to which the formula rounds for |w| < 1e-9."""
    norm = _norm(w)
    if norm == 0.0:
        y = x + w
    else:
        y = np.cos(norm) * x + (np.sin(norm) / norm) * w
    return y / _norm(y)


def log(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inverse of exp: tangent vector at x pointing to y, length dist(x, y)."""
    cos_d = min(max(frobenius_inner(x, y), -1.0), 1.0)
    if cos_d <= -1.0 + _ANTIPODAL:
        raise AntipodalPoints("log undefined at the cut locus")
    u = y - cos_d * x
    norm_u = _norm(u)
    # A test on 1 - cos d would zero every distance below 1.4e-7.
    if norm_u <= _COINCIDENT:
        return np.zeros_like(x)
    # |u| = sin(theta); atan2 keeps the angle well-conditioned near 0,
    # where arccos loses half the significant digits.
    return np.arctan2(norm_u, cos_d) * u / norm_u


def dist(x: np.ndarray, y: np.ndarray) -> float:
    """Arc-length distance on the pre-shape sphere, in [0, pi].

    Same atan2 form as in log: full precision for nearly coincident
    (and nearly antipodal) points, where arccos of the clamped inner
    product would lose half the digits.
    """
    cos_d = min(max(frobenius_inner(x, y), -1.0), 1.0)
    sin_d = _norm(y - cos_d * x)
    return float(np.arctan2(sin_d, cos_d))


def vertical_projection(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Component of w along the rotation fiber: A x with A from the
    Sylvester equation A(xx^T) + (xx^T)A = wx^T - xw^T."""
    return solve_sylvester_skew(x, w) @ x


def horizontal_projection(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Component of w orthogonal to the fiber; satisfies xw^T symmetric."""
    return w - vertical_projection(x, w)


def is_horizontal(x: np.ndarray, w: np.ndarray, tol: float = 1e-10) -> bool:
    """Symmetry certificate: x w^T must be symmetric up to tol."""
    cert = x @ w.T - w @ x.T
    return float(np.linalg.norm(cert)) <= tol


def align(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rotated copy of y closest to x; realizes the quotient distance."""
    return optimal_rotation(x, y) @ y


def read_landmarks(path) -> np.ndarray:
    """Load a landmark CSV (one row per landmark, m columns, no header)
    and return the m-by-k matrix. An empty file and non-finite values are
    rejected."""
    with io_failure(path), warnings.catch_warnings():
        # loadtxt warns on a file without rows; that is the ValueError below
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
        if not rows.size:
            raise ValueError("no landmarks")
        if not np.isfinite(rows).all():
            raise ValueError("non-finite value")
    return rows.T
