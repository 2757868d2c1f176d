"""Parallel transport along a horizontal geodesic of the shape space.

Four methods: the projected Euler scheme, explicit-midpoint RK2 and
classical RK4 integration of the transport ODE, and the pole ladder
built from quotient exp/log.
"""

from dataclasses import dataclass

import numpy as np

from . import preshape, quotient
from .linalg import solve_skew_sylvester

# Explicit schemes as (c, b, d), nodes, weights and divisor. Each stage
# reads only the one before it: stage j evaluates the ODE at s + c_j delta
# on v + c_j delta k_{j-1}, and a step adds delta / d * sum_j b_j k_j.
# RK4 keeps the classical (k1 + 2 k2 + 2 k3 + k4) / 6 form.
SCHEMES = {
    "euler": ((0.0,), (1.0,), 1.0),
    "rk2": ((0.0, 0.5), (0.0, 1.0), 1.0),
    "rk4": ((0.0, 0.5, 0.5, 1.0), (1.0, 2.0, 2.0, 1.0), 6.0),
}
METHODS = (*SCHEMES, "pole")


@dataclass(frozen=True)
class TransportProblem:
    """Transport the horizontal vector v along the geodesic t -> exp(x, t w),
    t in [0, 1], using n steps (or ladder rungs)."""

    x: np.ndarray
    w: np.ndarray
    v: np.ndarray
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("step count must be >= 1")


@dataclass(frozen=True)
class TransportResult:
    endpoint: np.ndarray
    transported: np.ndarray


def geodesic_state(x: np.ndarray, w: np.ndarray, s: float):
    """Point and velocity of the unit-interval geodesic at parameter s.

    gamma(s) = cos(s|w|) x + sin(s|w|) w/|w| and its analytic derivative
    gamma'(s) = cos(s|w|) w - |w| sin(s|w|) x. Horizontality of w is
    preserved along the curve.
    """
    norm = np.linalg.norm(w)
    if norm < 1e-12:
        return x.copy(), w.copy()
    angle = s * norm
    c, si = np.cos(angle), np.sin(angle)
    gamma = c * x + (si / norm) * w
    gamma_dot = c * w - (norm * si) * x
    return gamma, gamma_dot


def transport_ode_rhs(gamma: np.ndarray, gamma_dot: np.ndarray,
                      v: np.ndarray) -> np.ndarray:
    """Right-hand side of the transport ODE,
    v' = -Tr(gamma' v^T) gamma + A gamma, with skew A solving
    A (gamma gamma^T) + (gamma gamma^T) A = gamma' v^T - v gamma'^T."""
    a = solve_skew_sylvester(gamma @ gamma.T, gamma_dot @ v.T - v @ gamma_dot.T)
    return -float(np.sum(gamma_dot * v)) * gamma + a @ gamma


def transport_integrated(problem: TransportProblem,
                         scheme: str = "rk4") -> TransportResult:
    """Integrate the transport ODE with a fixed step 1/n.

    Euler projects back to the tangent space and the horizontal subspace
    after every step; the RK schemes integrate the raw ODE with states
    evaluated on the exact geodesic and project once at the end.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    nodes, weights, divisor = SCHEMES[scheme]
    x, w, v, n = problem.x, problem.w, problem.v, problem.n
    delta = 1.0 / n
    for i in range(n):
        s = i * delta
        k = step = None
        for c, b in zip(nodes, weights):
            gamma, gamma_dot = geodesic_state(x, w, s + c * delta)
            k = transport_ode_rhs(
                gamma, gamma_dot, v if k is None else v + c * delta * k)
            step = b * k if step is None else step + b * k
        v = v + (delta / divisor) * step
        if scheme == "euler":
            gamma_next, _ = geodesic_state(x, w, (i + 1) * delta)
            v = preshape.to_tangent(gamma_next, v)
            v = preshape.horizontal_projection(gamma_next, v)

    endpoint = preshape.exp(x, w)
    v = preshape.horizontal_projection(endpoint, preshape.to_tangent(endpoint, v))
    return TransportResult(endpoint=endpoint, transported=v)


def pole_ladder(problem: TransportProblem, alpha: float = 2.0) -> TransportResult:
    """Geodesic-parallelogram transport with n rungs.

    The initial vector is scaled by 1/n^alpha; each rung reflects the
    moving point through the midpoint of the current geodesic segment,
    using quotient geodesics (alignment + sphere log) for the diagonals.
    The final log at the endpoint is rescaled by n^alpha with sign (-1)^n.
    """
    if alpha < 1.0:
        raise ValueError("alpha must be >= 1")
    x, w, v, n = problem.x, problem.w, problem.v, problem.n
    scale = float(n) ** alpha

    endpoint = preshape.exp(x, w)
    # v is horizontal, so the quotient exponential is the sphere one.
    x_v = preshape.exp(x, v / scale)
    for i in range(n):
        mid, _ = geodesic_state(x, w, (2 * i + 1) / (2.0 * n))
        diag = quotient.quotient_log(mid, x_v)
        x_v = preshape.exp(mid, -diag)
    transported = scale * (-1.0) ** n * quotient.quotient_log(endpoint, x_v)
    return TransportResult(endpoint=endpoint, transported=transported)


def transport(problem: TransportProblem, method: str,
              alpha: float = 2.0) -> TransportResult:
    """Dispatch on method name: euler, rk2, rk4 or pole."""
    if method == "pole":
        return pole_ladder(problem, alpha=alpha)
    return transport_integrated(problem, scheme=method)
