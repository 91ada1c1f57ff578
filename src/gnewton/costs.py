"""Cost functions with analytic ambient 2-jets.

Each kind is one class that owns its maths: the manifold classes it lives
on (`manifolds`, checked with its dims by `valid_on`), value, ambient
gradient, ambient Hessian (`hessian`, one exactly symmetric matrix that
callers only read), and its closed-form minimiser (`truth`). Every
Newton step reads that one matrix, whatever coordinates carry it.
"""

from math import isfinite

import numpy as np

from .errors import NotTwiceDifferentiable, SingularHessian
from .linalg import (_eigvalsh, _symmetric, all_finite, symmetric_eigen,
                     symmetric_solve)
from .manifolds import (Euclidean, Grassmann, ManifoldDescriptor, Point,
                        Sphere, Stiefel, _LivesOn, _OnTheLine, _sym, _Value)


def _frozen_symmetric(A) -> np.ndarray:
    """A frozen copy of A that passes linalg's symmetric-matrix contract
    and is not empty."""
    A = _symmetric(np.array(A, dtype=float), "A")[0]
    if not A.size:
        raise ValueError("A must not be empty")
    A.setflags(write=False)
    return A


def _block_diagonal(blocks, k: int) -> np.ndarray:
    """The kn x kn matrix whose k diagonal n x n blocks are `blocks` (one
    n x n matrix for all, or a stack of k), zero elsewhere: the Hessian of
    a sum of quadratics in the column-major columns of an n x k matrix."""
    n = blocks.shape[-1]
    H = np.zeros((k, n, k, n))
    np.einsum("aiaj->aij", H)[...] = blocks  # a writeable view of the blocks
    return H.reshape(k * n, k * n)


class _MatrixCost(_LivesOn):
    """Base of the costs on a symmetric n x n matrix A, each of which binds
    `_frozen_symmetric(A)` and fits a manifold of that n."""

    def valid_on(self, m: ManifoldDescriptor) -> bool:
        return super().valid_on(m) and m.n == self.A.shape[0]


class Quadratic(_MatrixCost):
    """f(x) = 1/2 x^T A x + b^T x on Euclidean space or the sphere."""
    name = "quadratic"
    manifolds = (Euclidean, Sphere)
    _fields = ("A", "b", "M")
    _defaults = {"M": None}  # M = (A + A^T) / 2, derived, never given

    def __init__(self, A, b=None):
        A = _frozen_symmetric(A)
        n = A.shape[0]
        b = np.zeros(n) if b is None else np.array(b, dtype=float)
        if b.shape != (n,):
            raise ValueError("b length does not match A")
        if not all_finite(b):
            raise ValueError("b must be finite")
        b.setflags(write=False)
        M = _sym(A)
        M.setflags(write=False)
        super().__init__(A, b, M)

    def value(self, p: Point) -> float:
        x = p.ambient
        return float(0.5 * x @ self.A @ x + self.b @ x)

    def grad(self, p: Point) -> np.ndarray:
        return self.A @ p.ambient + self.b

    def hessian(self, p: Point) -> np.ndarray:
        return self.M

    def truth(self, m: ManifoldDescriptor):
        """Rayleigh (on the sphere, b = 0): eigenvector of the smallest
        eigenvalue; with b != 0 the sphere has no closed form, so None.
        Euclidean: the stationary point, None when A is singular."""
        if isinstance(m, Sphere):
            if np.any(self.b != 0.0):
                return None
            _, V = symmetric_eigen(self.A)
            return Point(m, V[:, 0])
        try:
            x = symmetric_solve(self.A, -self.b)
        except SingularHessian:
            return None
        return Point(m, x)


class BrockettTrace(_MatrixCost):
    """f(X) = Tr(X^T A X N) on the Stiefel manifold; N diagonal with
    distinct positive entries so the minimiser is an isolated point
    (up to column signs)."""
    name = "brockett"
    manifolds = (Stiefel,)
    _fields = ("A", "N", "M")
    _defaults = {"M": None}  # M = kron(N, A + A^T), derived, never given

    def __init__(self, A, N):
        A = _frozen_symmetric(A)
        N = np.array(N, dtype=float)
        if N.ndim != 2 or N.shape[0] != N.shape[1]:
            raise ValueError("N must be square")
        if not 1 <= N.shape[0] <= A.shape[0]:
            raise ValueError("N must have 1 to n = %d columns" % A.shape[0])
        if not all_finite(N):
            raise ValueError("N must be finite")
        if np.any(N - np.diag(np.diag(N)) != 0.0):
            raise ValueError("N must be diagonal")
        d = np.diag(N)
        if np.any(d <= 0.0) or len(set(d.tolist())) != d.size:
            raise ValueError("N diagonal must be distinct and positive")
        N.setflags(write=False)
        M = _block_diagonal(d[:, None, None] * (A + A.T), d.size)
        M.setflags(write=False)
        super().__init__(A, N, M)

    def valid_on(self, m: ManifoldDescriptor) -> bool:
        return super().valid_on(m) and m.p == self.N.shape[0]

    def value(self, p: Point) -> float:
        X = p.as_matrix()
        return float(np.trace(X.T @ self.A @ X @ self.N))

    def grad(self, p: Point) -> np.ndarray:
        return (2.0 * self.A @ p.as_matrix() @ self.N).flatten(order="F")

    def hessian(self, p: Point) -> np.ndarray:
        return self.M

    def truth(self, m: ManifoldDescriptor):
        """Eigenvectors assigned so the largest N weight pairs with the
        smallest eigenvalue."""
        _, V = symmetric_eigen(self.A)
        order = np.argsort(-np.diag(self.N))
        X = np.zeros((m.n, m.p))
        for i in range(m.p):
            X[:, order[i]] = V[:, i]
        return Point(m, X.flatten(order="F"))


class GrassmannTrace(_MatrixCost):
    """g(X) = Tr(X^T A X) on the Grassmann manifold (descends to the
    quotient); A symmetric with distinct eigenvalues."""
    name = "grassmann_trace"
    manifolds = (Grassmann,)
    _fields = ("A", "M")
    # M: p -> kron(I_p, A + A^T), each bound read-only on its first read;
    # derived, never given
    _defaults = {"M": None}

    def __init__(self, A):
        A = _frozen_symmetric(A)
        lam = _eigvalsh(A)
        scale = max(abs(lam[0]), abs(lam[-1]), np.finfo(float).tiny)
        if lam.size > 1 and np.min(np.diff(lam)) <= 1e-10 * scale:
            raise ValueError("A must have distinct eigenvalues")
        super().__init__(A, {})

    def value(self, p: Point) -> float:
        X = p.as_matrix()
        return float(np.trace(X.T @ self.A @ X))

    def grad(self, p: Point) -> np.ndarray:
        return (2.0 * self.A @ p.as_matrix()).flatten(order="F")

    def hessian(self, p: Point) -> np.ndarray:
        k = p.manifold.p
        M = self.M.get(k)
        if M is None:
            M = self.M[k] = _block_diagonal(self.A + self.A.T, k)
            M.setflags(write=False)
        return M

    def truth(self, m: ManifoldDescriptor):
        """The minor subspace."""
        _, V = symmetric_eigen(self.A)
        return Point(m, V[:, :m.p].flatten(order="F"))


class AbsPower(_Value, _OnTheLine):
    """f(x) = x^2 + |x|^{5/2} on the line; C^2 but not C^3 at the minimiser."""
    name = "abs_power"

    def value(self, p: Point) -> float:
        x = p.ambient[0]
        return float(x * x + abs(x) ** 2.5)

    def grad(self, p: Point) -> np.ndarray:
        x = p.ambient[0]
        return np.array([2.0 * x + 2.5 * abs(x) ** 1.5 * np.sign(x)])

    def hessian(self, p: Point) -> np.ndarray:
        x = p.ambient[0]
        if x == 0.0:
            # refuse the boundary case: the curvature model 2 + (15/4)sqrt|x|
            # is only meaningful away from the kink of the 5/2-power term
            raise NotTwiceDifferentiable("AbsPower hessian evaluated at exactly 0")
        return np.array([[2.0 + 3.75 * np.sqrt(abs(x))]])

    def truth(self, m: ManifoldDescriptor):
        return Point(m, np.zeros(1))


class ShiftedCubic(_Value, _OnTheLine):
    """f(x) = (x - z)^2 + 2 (x - z)^3 with critical point at the shift z."""
    name = "shifted_cubic"
    _fields = ("z",)

    def __init__(self, z: float):
        if not isfinite(z):
            raise ValueError("z must be finite")
        super().__init__(z)

    def value(self, p: Point) -> float:
        d = p.ambient[0] - self.z
        return float(d * d + 2.0 * d ** 3)

    def grad(self, p: Point) -> np.ndarray:
        d = p.ambient[0] - self.z
        return np.array([2.0 * d + 6.0 * d * d])

    def hessian(self, p: Point) -> np.ndarray:
        return np.array([[2.0 + 12.0 * (p.ambient[0] - self.z)]])

    def truth(self, m: ManifoldDescriptor):
        return Point(m, np.array([self.z]))


def value(c, p: Point) -> float:
    return c.check_on(p.manifold).value(p)


def ambient_gradient(c, p: Point) -> np.ndarray:
    return c.check_on(p.manifold).grad(p)


def ambient_hessian_vec(c, p: Point, direction) -> np.ndarray:
    """Ambient Hessian applied to one direction, or to each column of an
    (ambient_dim x k) block of directions: `hessian(p)` times it."""
    return c.check_on(p.manifold).hessian(p) @ np.asarray(direction, dtype=float)
