"""Cost functions with analytic ambient 2-jets.

Each kind provides value, ambient gradient, and ambient Hessian-times-vector.
Exposing the Hessian only through its action keeps matrix costs cheap: a
pullback jet needs H applied to tangent-basis columns, never the full
(np x np) operator.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ManifoldMismatch, NotTwiceDifferentiable
from .manifolds import Point


def _check_symmetric(A, label):
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("%s must be square" % label)
    if np.linalg.norm(A - A.T) > 1e-10 * max(np.linalg.norm(A), np.finfo(float).tiny):
        raise ValueError("%s must be symmetric" % label)
    A.setflags(write=False)
    return A


@dataclass(frozen=True, eq=False)
class Quadratic:
    """f(x) = 1/2 x^T A x + b^T x on Euclidean space or the sphere."""
    A: np.ndarray
    b: np.ndarray = None

    def __post_init__(self):
        A = _check_symmetric(self.A, "A")
        object.__setattr__(self, "A", A)
        b = np.zeros(A.shape[0]) if self.b is None else np.array(self.b, dtype=float)
        if b.shape != (A.shape[0],):
            raise ValueError("b length does not match A")
        b.setflags(write=False)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True, eq=False)
class BrockettTrace:
    """f(X) = Tr(X^T A X N) on the Stiefel manifold; N diagonal with
    distinct positive entries so the minimiser is an isolated point
    (up to column signs)."""
    A: np.ndarray
    N: np.ndarray

    def __post_init__(self):
        A = _check_symmetric(self.A, "A")
        object.__setattr__(self, "A", A)
        N = np.array(self.N, dtype=float)
        if N.ndim != 2 or N.shape[0] != N.shape[1]:
            raise ValueError("N must be square")
        if np.any(N - np.diag(np.diag(N)) != 0.0):
            raise ValueError("N must be diagonal")
        d = np.diag(N)
        if np.any(d <= 0.0) or len(set(d.tolist())) != d.size:
            raise ValueError("N diagonal must be distinct and positive")
        N.setflags(write=False)
        object.__setattr__(self, "N", N)


@dataclass(frozen=True, eq=False)
class GrassmannTrace:
    """g(X) = Tr(X^T A X) on the Grassmann manifold (descends to the
    quotient); A symmetric with distinct eigenvalues."""
    A: np.ndarray

    def __post_init__(self):
        A = _check_symmetric(self.A, "A")
        lam = np.linalg.eigvalsh(A)
        scale = max(abs(lam[0]), abs(lam[-1]), np.finfo(float).tiny)
        if np.min(np.diff(lam)) <= 1e-10 * scale:
            raise ValueError("A must have distinct eigenvalues")
        object.__setattr__(self, "A", A)


@dataclass(frozen=True)
class AbsPower:
    """f(x) = x^2 + |x|^{5/2} on the line; C^2 but not C^3 at the minimiser."""


@dataclass(frozen=True)
class ShiftedCubic:
    """f(x) = (x - z)^2 + 2 (x - z)^3 with critical point at the shift z."""
    z: float


def _expect_manifold(c, p: Point):
    m = p.manifold
    if isinstance(c, Quadratic):
        if m.kind in ("euclidean", "sphere") and m.n == c.A.shape[0]:
            return
    elif isinstance(c, BrockettTrace):
        if m.kind == "stiefel" and m.n == c.A.shape[0] and m.p == c.N.shape[0]:
            return
    elif isinstance(c, GrassmannTrace):
        if m.kind == "grassmann" and m.n == c.A.shape[0]:
            return
    elif isinstance(c, (AbsPower, ShiftedCubic)):
        if m.kind == "euclidean" and m.n == 1:
            return
    raise ManifoldMismatch("cost %s incompatible with manifold %s(n=%d, p=%d)"
                           % (type(c).__name__, m.kind, m.n, m.p))


def value(c, p: Point) -> float:
    _expect_manifold(c, p)
    if isinstance(c, Quadratic):
        x = p.ambient
        return float(0.5 * x @ c.A @ x + c.b @ x)
    if isinstance(c, BrockettTrace):
        X = p.as_matrix()
        return float(np.trace(X.T @ c.A @ X @ c.N))
    if isinstance(c, GrassmannTrace):
        X = p.as_matrix()
        return float(np.trace(X.T @ c.A @ X))
    x = p.ambient[0]
    if isinstance(c, AbsPower):
        return float(x * x + abs(x) ** 2.5)
    d = x - c.z
    return float(d * d + 2.0 * d ** 3)


def ambient_gradient(c, p: Point) -> np.ndarray:
    _expect_manifold(c, p)
    if isinstance(c, Quadratic):
        return c.A @ p.ambient + c.b
    if isinstance(c, BrockettTrace):
        X = p.as_matrix()
        return (2.0 * c.A @ X @ c.N).flatten(order="F")
    if isinstance(c, GrassmannTrace):
        X = p.as_matrix()
        return (2.0 * c.A @ X).flatten(order="F")
    x = p.ambient[0]
    if isinstance(c, AbsPower):
        return np.array([2.0 * x + 2.5 * abs(x) ** 1.5 * np.sign(x)])
    d = x - c.z
    return np.array([2.0 * d + 6.0 * d * d])


def ambient_hessian_vec(c, p: Point, direction) -> np.ndarray:
    """Ambient Hessian applied to one direction, or to each column of an
    (ambient_dim x k) block of directions."""
    direction = np.asarray(direction, dtype=float)
    _expect_manifold(c, p)
    if isinstance(c, Quadratic):
        return c.A @ direction
    if isinstance(c, (BrockettTrace, GrassmannTrace)):
        # column-major n x p matrices: Z[b] is column b of every direction
        n, pp = p.manifold.n, p.manifold.p
        Z = direction.reshape(pp, n, direction.size // (n * pp))
        HZ = 2.0 * c.A @ Z
        if isinstance(c, BrockettTrace):
            HZ = HZ * np.diag(c.N)[:, None, None]
        return HZ.reshape(direction.shape)
    x = p.ambient[0]
    if isinstance(c, AbsPower):
        if x == 0.0:
            # refuse the boundary case: the curvature model 2 + (15/4)sqrt|x|
            # is only meaningful away from the kink of the 5/2-power term
            raise NotTwiceDifferentiable("AbsPower hessian evaluated at exactly 0")
        return (2.0 + 3.75 * np.sqrt(abs(x))) * direction
    return (2.0 + 12.0 * (x - c.z)) * direction
