import numpy as np
import pytest

from shapetransport import preshape


def random_preshape(rng, m, k):
    """Full-rank random pre-shape (resamples the degenerate measure-zero cases)."""
    while True:
        x = preshape.project_to_preshape(rng.standard_normal((m, k)))
        if preshape.configuration_rank(x) == min(m, k - 1):
            return x


def random_tangent(rng, x, unit=True):
    w = preshape.to_tangent(x, rng.standard_normal(x.shape))
    if unit:
        w = w / np.linalg.norm(w)
    return w


def random_horizontal(rng, x, unit=True):
    w = preshape.horizontal_projection(x, random_tangent(rng, x, unit=False))
    if unit:
        w = w / np.linalg.norm(w)
    return w


def random_rotation(rng, m):
    """Haar-ish rotation from the QR decomposition of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_skew(rng, m):
    b = rng.standard_normal((m, m))
    return 0.5 * (b - b.T)


def rank_one_preshape(k=4):
    """A pre-shape of rank 1 in R^3; sits on the singular stratum."""
    u = np.linspace(-1.0, 1.0, k)
    u -= u.mean()
    u /= np.linalg.norm(u)
    x = np.zeros((3, k))
    x[0] = u
    return x


def planar_transport(x, w, v):
    """Exact transport of the horizontal v along t -> exp(x, t w) for m = 2.

    With z = x[0] + i x[1] in C^k, theta = |w| and u = w / theta, the part
    of v complex-orthogonal to z and u stays put, and the complex multiples
    of u turn with the velocity: P v = v + <u, v> (gamma'(1) / theta - u),
    <u, v> Hermitian. This is the horizontal lift of the transport on
    CP^(k-2) through the Hopf fibration.
    """
    theta = np.linalg.norm(w)
    if theta == 0.0:
        return v.copy()
    z, u, vc = (a[0] + 1j * a[1] for a in (x, w / theta, v))
    velocity = np.cos(theta) * u - np.sin(theta) * z
    moved = vc + np.vdot(u, vc) * (velocity - u)
    return np.array([moved.real, moved.imag])


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
