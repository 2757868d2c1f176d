"""Shape-space operations on rotation classes of pre-shapes.

A shape is handled through an explicit pre-shape representative; all
computations happen on the sphere, with alignment realizing the quotient
log and distance. Representatives of rank < m-1 sit on the singular
strata and are rejected.
"""

import numpy as np

from . import preshape
from .errors import RankDeficient


def check_representative(x: np.ndarray) -> np.ndarray:
    """Validate a pre-shape as a usable shape representative.

    Requires m >= 2, centered columns, unit Frobenius norm and rank >= m-1.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[0] < 2:
        raise ValueError("landmarks need at least 2 coordinates (m >= 2)")
    # Written as not (... <= ...) so that NaN fails the check too.
    if not (np.linalg.norm(x.sum(axis=1)) <= 1e-10
            and abs(np.linalg.norm(x) - 1.0) <= 1e-10):
        raise ValueError("representative is not a centered unit-norm pre-shape")
    if preshape.configuration_rank(x) < x.shape[0] - 1:
        raise RankDeficient("representative lies on a singular stratum")
    return x


def quotient_exp(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Representative of the shape-space exponential: exp along the
    horizontal part of v."""
    return preshape.exp(x, preshape.horizontal_projection(x, v))


def quotient_log(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Horizontal tangent vector at x pointing to the shape of y.

    Computed as the sphere log towards the aligned copy of y; the result
    is horizontal by construction.
    """
    return preshape.log(x, preshape.align(x, y))


def quotient_dist(x: np.ndarray, y: np.ndarray) -> float:
    """Shape-space distance: sphere distance after optimal alignment."""
    return preshape.dist(x, preshape.align(x, y))
