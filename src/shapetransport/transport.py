"""Parallel transport along a horizontal geodesic of the shape space.

Four methods: the projected Euler scheme, explicit-midpoint RK2 and
classical RK4 integration of the transport ODE, and the pole ladder
built from quotient exp/log. The integrated schemes move a vector only
within the row span of x and w, so they integrate in m-by-min(k, 2m)
span coordinates whatever k is, and they are linear in the vector: repeats
along one geodesic apply an operator of side m * min(k, 2m).
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import preshape, quotient
from .linalg import solve_skew_sylvester

# Explicit schemes as (c, b, d), nodes, weights and divisor. Each stage
# reads only the one before it: stage j of step i evaluates the ODE at
# (i + c_j) delta on v + c_j delta k_{j-1}, and a step adds
# delta / d * sum_j b_j k_j.
# RK4 keeps the classical (k1 + 2 k2 + 2 k3 + k4) / 6 form.
SCHEMES = {
    "euler": ((0.0,), (1.0,), 1.0),
    "rk2": ((0.0, 0.5), (0.0, 1.0), 1.0),
    "rk4": ((0.0, 0.5, 0.5, 1.0), (1.0, 2.0, 2.0, 1.0), 6.0),
}
METHODS = (*SCHEMES, "pole")


def _is_count(value) -> bool:
    """An integer, numpy's included, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A count or a Python or numpy float."""
    return _is_count(value) or isinstance(value, (float, np.floating))


@dataclass(frozen=True)
class TransportProblem:
    """Transport the horizontal vector v along the geodesic t -> exp(x, t w),
    t in [0, 1], in n >= 1 steps (or ladder rungs); x, w and v are m-by-k,
    kept as float arrays (a float64 ndarray as itself). Raises ValueError
    unless n is an integer >= 1, not a bool, and x, w and v have one
    non-empty 2-D shape and real, finite entries (and norms)."""

    x: np.ndarray
    w: np.ndarray
    v: np.ndarray
    n: int

    def __post_init__(self):
        if not _is_count(self.n) or self.n < 1:
            raise ValueError(f"step count must be an integer >= 1: {self.n!r}")
        arrays = [np.asarray(a) for a in (self.x, self.w, self.v)]
        if any(a.dtype.kind not in "iuf" for a in arrays):
            raise ValueError("x, w and v need real entries: "
                             f"{[a.dtype.name for a in arrays]}")
        shapes = [a.shape for a in arrays]
        if len(shapes[0]) != 2 or shapes.count(shapes[0]) != 3 or 0 in shapes[0]:
            raise ValueError(f"x, w and v need one non-empty 2-D shape: {shapes}")
        for name, a in zip("xwv", arrays):
            object.__setattr__(self, name, a.astype(float, copy=False))
        norms = map(preshape._norm, (self.x, self.w, self.v))
        if not math.isfinite(sum(norms)):
            raise ValueError("x, w and v need finite entries and norms")


@dataclass(frozen=True)
class TransportResult:
    endpoint: np.ndarray
    transported: np.ndarray


def geodesic_state(x: np.ndarray, w: np.ndarray, s: float):
    """Point and velocity of the unit-interval geodesic at parameter s.

    gamma(s) = cos(s|w|) x + sin(s|w|) w/|w| and its analytic derivative
    gamma'(s) = cos(s|w|) w - |w| sin(s|w|) x. Horizontality of w is
    preserved along the curve. An array s of shape (..., 1, 1) gives the
    states at every s stacked along its leading axes. Only |w| = 0 takes
    the first-order limit (x + s w, w)."""
    norm = preshape._norm(w)
    if norm == 0.0:
        return x + s * w, w + 0.0 * s
    angle = s * norm
    c, si = np.cos(angle), np.sin(angle)
    gamma = c * x + (si / norm) * w
    gamma_dot = c * w - (norm * si) * x
    return gamma, gamma_dot


def transport_ode_rhs(gamma: np.ndarray, gamma_dot: np.ndarray,
                      v: np.ndarray) -> np.ndarray:
    """Right-hand side of the transport ODE,
    v' = -Tr(gamma' v^T) gamma + A gamma, with skew A solving
    A (gamma gamma^T) + (gamma gamma^T) A = gamma' v^T - v gamma'^T.

    ``v`` may be a stack (..., m, k) of vectors, and (gamma, gamma') a
    stack of states; the stacks broadcast, and the vectors stacked against
    one state share its Sylvester eigenbasis. One vector at one state, as
    _integrate steps it, takes `dot` and `.T` for the same products in the
    same order, bit for bit.
    """
    if v.ndim == gamma.ndim == gamma_dot.ndim == 2:
        v_gd = v.dot(gamma_dot.T)
        a = solve_skew_sylvester(gamma.dot(gamma.T), v_gd.T - v_gd)
        return a.dot(gamma) - np.einsum("ij,ij->", v, gamma_dot) * gamma
    v_gd = v @ gamma_dot.swapaxes(-1, -2)
    a = solve_skew_sylvester(gamma @ gamma.swapaxes(-1, -2),
                             v_gd.swapaxes(-1, -2) - v_gd)
    radial = np.einsum("...ij,...ij->...", v, gamma_dot)[..., None, None]
    return a @ gamma - radial * gamma


def _step(v: np.ndarray, rhs, delta: float, scheme: str, project):
    """One step of the scheme from v, a vector or a stack of vectors:
    v + delta / d * sum_j b_j k_j over every stage, zero weights included
    (0.0 + x and 1.0 * x are exact, so no weight needs a branch).

    rhs(c, u) is the ODE's right-hand side on u at c steps from the start
    of the step, and project(u) maps u to the horizontal space at its end,
    which Euler does after every step.
    """
    nodes, weights, divisor = SCHEMES[scheme]
    k, step = None, 0.0
    for c, b in zip(nodes, weights):
        k = rhs(c, v if k is None else v + c * delta * k)
        step = step + b * k
    v = v + (delta / divisor) * step
    return project(v) if scheme == "euler" else v


def _horizontal(gamma: np.ndarray, v: np.ndarray) -> np.ndarray:
    # No centring: span coordinates are not landmark columns.
    return preshape.horizontal_projection(
        gamma, preshape.remove_radial(gamma, v))


# Steps per block. A block's states come from one geodesic_state call, and
# the build's transient arrays hold one block's maps, whatever n is.
_BLOCK = 16


def _blocks(x: np.ndarray, w: np.ndarray, n: int, scheme: str):
    """Yield (count, gamma, gamma', row) for each block of _BLOCK steps:
    count steps and the states of one geodesic_state call, with row(i, c)
    the row that the stage at node c of the block's step i reads (c = 1
    ends the step; i may be an array of steps). Only this generator knows
    the layout: per rows per step, 2 with midpoints, else 1."""
    per = 2 if any(c % 1 for c in SCHEMES[scheme][0]) else 1
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        s = np.arange(per * start, per * stop + 1) * (1.0 / per) * (1.0 / n)
        yield (stop - start, *geodesic_state(x, w, s[:, None, None]),
               lambda i, c: per * i + int(per * c))


def _integrate(x: np.ndarray, w: np.ndarray, v: np.ndarray, n: int,
               scheme: str) -> np.ndarray:
    """Step v, one vector (m, r) or a stack (..., m, r), along
    t -> exp(x, t w) with n steps of the scheme and return it at t = 1.

    x, w and v are in the coordinates of an orthonormal basis of a row
    space that holds x and w, so columns are not landmarks. Euler removes
    the radial and the vertical component after every step; the RK schemes
    integrate the raw ODE with states evaluated on the exact geodesic, read
    from _blocks. The caller projects the result at the endpoint.
    """
    for count, gamma, gamma_dot, row in _blocks(x, w, n, scheme):
        for i in range(count):
            v = _step(v, lambda c, u: transport_ode_rhs(
                gamma[row(i, c)], gamma_dot[row(i, c)], u),
                1.0 / n, scheme, lambda u: _horizontal(gamma[row(i, 1)], u))
    return v


def _operator(x: np.ndarray, w: np.ndarray, n: int,
              scheme: str) -> np.ndarray:
    """Square matrix P of side x.size with v.reshape(-1) @ P what
    _integrate(x, w, v, n, scheme) gives, to rounding, for every v of the
    shape of x. The right-hand side is linear, v @ L(s) at abscissa s. Per
    block of _blocks, one transport_ode_rhs call on the unit matrices gives
    L at every row, _step on the identity with right-hand side u @ L gives
    the maps of all the block's steps at once (Euler projects their rows),
    and the fold multiplies them into P in order, one block at a time."""
    eye = op = np.eye(x.size)
    for count, gamma, gamma_dot, row in _blocks(x, w, n, scheme):
        maps = transport_ode_rhs(gamma[:, None], gamma_dot[:, None],
                                 eye.reshape(-1, *x.shape))
        maps, steps = maps.reshape(-1, x.size, x.size), np.arange(count)
        op = reduce(np.matmul, _step(
            eye, lambda c, u: u @ maps[row(steps, c)], 1.0 / n, scheme,
            lambda u: _horizontal(gamma[row(steps, 1), None], u.reshape(
                -1, x.size, *x.shape)).reshape(u.shape)), op)
        del maps  # before the next block's: one block's maps at a time
    return op


# The geodesic of the last call (scheme, n and the bytes of x and w), an
# orthonormal basis y of the row span of x and w, the endpoint and, once a
# call has repeated the geodesic, its operator P, endpoint projection in.
_last = None


def transport_integrated(problem: TransportProblem,
                         scheme: str = "rk4") -> TransportResult:
    """Integrate the transport ODE with a fixed step 1/n.

    Along the geodesic the ODE only adds A gamma - <gamma', v> gamma to v,
    which lies in the row span of x and w. So the call integrates v @ y,
    with y an orthonormal k-by-min(k, 2m) basis of that span, projects the
    result at the endpoint e on e @ y, lifts it back as v + (moved - v @ y)
    @ y^T and centres it: the rest of v is orthogonal to e's rows, so only
    centring acts on it. A call along a new geodesic steps v @ y. A call
    that repeats the geodesic of the call before it applies the operator P
    of side m min(k, 2m), _operator's map projected at e row by row, built
    by the first repeat. The two paths round differently, so their results
    agree to the last few ulps, not bit for bit.
    """
    global _last
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    x, w, v, n = problem.x, problem.w, problem.v, problem.n
    key = (scheme, n, x.shape, x.tobytes(), w.tobytes())
    # Read once, write at most once: a concurrent call never mixes entries.
    last = _last
    if last is None or last[0] != key:
        y = np.linalg.qr(np.concatenate([x, w]).T)[0]
        endpoint = preshape.exp(x, w)
        _last = key, y, endpoint, None
        v_r = v @ y
        moved = _horizontal(endpoint @ y,
                            _integrate(x @ y, w @ y, v_r, n, scheme))
    else:
        _, y, endpoint, op = last
        if op is None:
            e_r = endpoint @ y
            op = _horizontal(e_r, _operator(x @ y, w @ y, n, scheme).reshape(
                -1, *e_r.shape)).reshape(e_r.size, -1)
            _last = key, y, endpoint, op
        v_r = v @ y
        moved = (v_r.reshape(-1) @ op).reshape(v_r.shape)
    transported = preshape.center(v + (moved - v_r) @ y.T)
    return TransportResult(endpoint=endpoint.copy(), transported=transported)


def ladder_scale(n: int, alpha: float) -> float:
    """The pole ladder's scale n^alpha at n rungs. Raises ValueError unless
    alpha is a real number (a Python or numpy integer or float, not a
    bool), finite and >= 1, and n^alpha is a finite float."""
    if _is_real(alpha) and 1.0 <= alpha < math.inf:
        try:
            return math.pow(n, alpha)
        except OverflowError:
            pass
    raise ValueError("alpha must be finite and >= 1, with n^alpha a finite "
                     f"float: alpha={alpha!r}, n={n}")


def pole_ladder(problem: TransportProblem, alpha: float = 2.0) -> TransportResult:
    """Geodesic-parallelogram transport with n rungs.

    The initial vector is scaled by 1/n^alpha; each rung reflects the
    moving point through the midpoint of the current geodesic segment,
    using quotient geodesics (alignment + sphere log) for the diagonals.
    The final log at the endpoint is rescaled by n^alpha with sign (-1)^n.
    """
    x, w, v, n = problem.x, problem.w, problem.v, problem.n
    scale = ladder_scale(n, alpha)

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
