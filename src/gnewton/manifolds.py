"""Embedded manifolds: Euclidean space, the sphere, Stiefel and Grassmann.

Points and tangent vectors are stored in ambient coordinates; matrix-valued
points are flattened column-major. Grassmann elements are represented by
Stiefel matrices with horizontal tangent vectors (X^T V = 0), so a Grassmann
step is a Stiefel step restricted to the horizontal subspace.
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import (InfeasiblePoint, ManifoldMismatch, OutsideValidityRadius,
                     ProjectionUndefined, RankDeficient)
from .linalg import norm, polar_factor
from .rng import SplitMix64

FEAS_TOL = 1e-10

_KINDS = ("euclidean", "sphere", "stiefel", "grassmann")


@dataclass(frozen=True)
class ManifoldDescriptor:
    kind: str
    n: int
    p: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError("unknown manifold kind %r" % (self.kind,))
        if not (1 <= self.p <= self.n):
            raise ValueError("need 1 <= p <= n, got n=%d p=%d" % (self.n, self.p))
        if self.kind in ("euclidean", "sphere") and self.p != 1:
            raise ValueError("%s takes no p parameter" % self.kind)

    @property
    def ambient_dim(self) -> int:
        return self.n if self.kind in ("euclidean", "sphere") else self.n * self.p

    @property
    def intrinsic_dim(self) -> int:
        if self.kind == "euclidean":
            return self.n
        if self.kind == "sphere":
            return self.n - 1
        if self.kind == "stiefel":
            return self.n * self.p - self.p * (self.p + 1) // 2
        return self.p * (self.n - self.p)


def euclidean(n: int) -> ManifoldDescriptor:
    return ManifoldDescriptor("euclidean", n)


def sphere(n: int) -> ManifoldDescriptor:
    return ManifoldDescriptor("sphere", n)


def stiefel(n: int, p: int) -> ManifoldDescriptor:
    return ManifoldDescriptor("stiefel", n, p)


def grassmann(n: int, p: int) -> ManifoldDescriptor:
    return ManifoldDescriptor("grassmann", n, p)


def _freeze(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _orthonormality_residual(A: np.ndarray) -> float:
    """||A^T A - I||_F; 1 comes off the diagonal in place, the bits of G - I."""
    G = A.T @ A
    G.flat[::G.shape[0] + 1] -= 1.0
    return norm(G)


def _feasibility_residual(m: ManifoldDescriptor, x: np.ndarray) -> float:
    if m.kind == "euclidean":
        return 0.0
    if m.kind == "sphere":
        return abs(norm(x) - 1.0)
    return _orthonormality_residual(x.reshape(m.n, m.p, order="F"))


@dataclass(frozen=True, eq=False)
class Point:
    manifold: ManifoldDescriptor
    ambient: np.ndarray

    def __post_init__(self):
        x = _freeze(self.ambient)
        object.__setattr__(self, "ambient", x)
        if x.shape != (self.manifold.ambient_dim,):
            raise ValueError("ambient length %r, expected %d"
                             % (x.shape, self.manifold.ambient_dim))
        if not np.isfinite(x).all():
            raise InfeasiblePoint("non-finite ambient coordinates")
        resid = _feasibility_residual(self.manifold, x)
        if resid > FEAS_TOL:
            raise InfeasiblePoint("infeasible point: residual %.3e" % resid)

    def as_matrix(self) -> np.ndarray:
        return self.ambient.reshape(self.manifold.n, self.manifold.p, order="F")


def _tangency_residual(m: ManifoldDescriptor, x: np.ndarray, v: np.ndarray) -> float:
    if m.kind == "euclidean":
        return 0.0
    if m.kind == "sphere":
        return abs(float(x @ v))
    X = x.reshape(m.n, m.p, order="F")
    V = v.reshape(m.n, m.p, order="F")
    if m.kind == "stiefel":
        return norm(X.T @ V + V.T @ X)
    return norm(X.T @ V)  # horizontal space


@dataclass(frozen=True, eq=False)
class TangentVector:
    base: Point
    ambient: np.ndarray

    def __post_init__(self):
        v = _freeze(self.ambient)
        object.__setattr__(self, "ambient", v)
        m = self.base.manifold
        if v.shape != (m.ambient_dim,):
            raise ValueError("ambient length %r, expected %d" % (v.shape, m.ambient_dim))
        if not np.isfinite(v).all():
            raise InfeasiblePoint("non-finite tangent coordinates")
        resid = _tangency_residual(m, self.base.ambient, v)
        # absolute at unit scale, relative beyond (huge near-singular
        # steps would otherwise fail on pure rounding)
        if resid > FEAS_TOL * max(1.0, norm(v)):
            raise InfeasiblePoint("tangency residual %.3e too large" % resid)

    @property
    def norm(self) -> float:
        return norm(self.ambient)

    def as_matrix(self) -> np.ndarray:
        m = self.base.manifold
        return self.ambient.reshape(m.n, m.p, order="F")


@dataclass(frozen=True, eq=False)
class TangentBasis:
    base: Point
    columns: np.ndarray  # ambient_dim x intrinsic_dim, orthonormal

    def __post_init__(self):
        B = _freeze(self.columns)
        object.__setattr__(self, "columns", B)
        m = self.base.manifold
        if B.shape != (m.ambient_dim, m.intrinsic_dim):
            raise ValueError("basis shape %r, expected %r"
                             % (B.shape, (m.ambient_dim, m.intrinsic_dim)))
        if _orthonormality_residual(B) > FEAS_TOL:
            raise ValueError("basis columns not orthonormal")


def _complete_orthonormal(K: np.ndarray) -> np.ndarray:
    """Extend the orthonormal columns of the n x k array K to a basis of
    R^n, returning the n x (n - k) completion.

    Pivoted Gram-Schmidt on the standard basis: each pick takes the e_i
    with the largest residual, ties to the lowest index. Pivoting matters:
    a first-axis-above-threshold sweep cancels catastrophically when the
    existing columns nearly align with coordinate axes, and losses of ~1e-7
    there poison every pullback gradient downstream. Pivot order is a pure
    function of the inputs, so the completion is deterministic.

    The squared residual of e_i is the diagonal entry of the projector
    I - QQ^T onto what is left, so the picks are a pivoted Cholesky of
    I - KK^T, costing O(n j) for the j-th pick. For a single column p the
    picks have a closed form, taken without a loop (`_complete_unit`).
    """
    n, k = K.shape
    if k == 1:
        return _complete_unit(K[:, 0])
    Q = np.empty((n, n))
    Q[:, :k] = K
    d = 1.0 - (K * K).sum(axis=1)  # squared residual of each e_i
    for j in range(k, n):
        i = int(np.argmax(d))  # ties go to the lowest index
        v = -(Q[:, :j] @ Q[i, :j])
        v[i] += 1.0
        v -= Q[:, :j] @ (Q[:, :j].T @ v)
        v /= norm(v)
        Q[:, j] = v
        d -= v * v
        d[i] = -np.inf
    return Q[:, k:]


def _complete_unit(p: np.ndarray) -> np.ndarray:
    """The pivoted completion of one unit vector p, in closed form.

    Once the set S is picked, what is left of the span of p and e_S is
    along p' = p with S zeroed, so e_l (l not in S) has squared residual
    1 - p_l^2 / c_S with c_S = |p'|^2. That is monotone in p_l^2: the picks
    are a stable sort of 1 - p^2, largest first, and column j is
    (e_i - p_i p'_j / c_j) / sqrt(c_{j+1} / c_j) for the j-th pick i. The
    sort keys on the rounded 1 - p^2, not on p^2, so squares under the
    rounding of 1 tie, as in the residual norms. The c_j are tail sums of
    the sorted p^2, free of cancellation, and the last is max p^2 >= 1/n.
    """
    n = p.size
    order = np.argsort(-(1.0 - p * p), kind="stable")
    ps = p[order]
    c = np.cumsum((ps * ps)[::-1])[::-1]  # c[j] = sum of ps[j:]**2
    j = np.arange(n - 1)
    P = np.where(np.arange(n)[:, None] >= j, ps[:, None], 0.0)
    B = P * (-ps[:-1] / c[:-1])
    B[j, j] += 1.0
    B *= np.sqrt(c[:-1] / c[1:])
    out = np.empty((n, n - 1))
    out[order] = B
    return out


def tangent_basis(p: Point) -> TangentBasis:
    """Deterministic orthonormal basis of the tangent (Grassmann: horizontal)
    space at p, as ambient columns.

    Matrix manifolds list the skew block first (Stiefel only: the pair
    (i, j), i < j, moves column j along x_i and column i along -x_j), then
    the normal block: column b moves along the a-th completion vector, b
    outer, a inner, which in column-major coordinates is kron(I_p, P)."""
    m = p.manifold
    if m.kind == "euclidean":
        return TangentBasis(p, np.eye(m.n))
    if m.kind == "sphere":
        return TangentBasis(p, _complete_orthonormal(p.ambient[:, None]))
    X = p.as_matrix()
    n, pp = m.n, m.p
    normal = np.kron(np.eye(pp), _complete_orthonormal(X))
    if m.kind == "grassmann":
        return TangentBasis(p, normal)
    i, j = np.triu_indices(pp, 1)
    skew = np.zeros((n, pp, i.size))
    skew[:, j, np.arange(i.size)] = X[:, i] / sqrt(2.0)
    skew[:, i, np.arange(i.size)] = -X[:, j] / sqrt(2.0)
    return TangentBasis(p, np.hstack([skew.reshape(n * pp, i.size, order="F"),
                                      normal]))


def project_to_manifold(m: ManifoldDescriptor, ambient, guard=None) -> Point:
    """Euclidean-closest feasible point for the given ambient coordinates.

    With a guard, a norm (sphere) or smallest singular value (Stiefel,
    Grassmann) at or under it raises OutsideValidityRadius: a projection
    step p + v that collapses has left the map's validity region."""
    x = np.asarray(ambient, dtype=float)
    if m.kind == "euclidean":
        return Point(m, x)
    if m.kind == "sphere":
        nx = norm(x)
        if guard is not None and nx <= guard:
            raise OutsideValidityRadius("norm %.3e under guard %g" % (nx, guard))
        if nx == 0.0:
            raise ProjectionUndefined("cannot project the zero vector")
        return Point(m, x / nx)
    M = x.reshape(m.n, m.p, order="F")
    try:
        U = polar_factor(M, guard)
    except RankDeficient as exc:
        raise ProjectionUndefined(str(exc)) from exc
    return Point(m, U.flatten(order="F"))


def distance(p: Point, q: Point) -> float:
    """Ambient chordal distance; Grassmann uses projector distance
    ||XX^T - YY^T||_F, which is representative-independent."""
    if p.manifold != q.manifold:
        raise ManifoldMismatch("points on different manifolds")
    if p.manifold.kind == "grassmann":
        X, Y = p.as_matrix(), q.as_matrix()
        return norm(X @ X.T - Y @ Y.T)
    return norm(p.ambient - q.ambient)


def random_point(m: ManifoldDescriptor, seed: int) -> Point:
    """Seed-deterministic point: normalised (sphere) or polar-projected
    (Stiefel/Grassmann) gaussian draw; plain gaussian for Euclidean."""
    return draw_point(m, SplitMix64(seed))


def draw_point(m: ManifoldDescriptor, rng: SplitMix64) -> Point:
    """The draw behind random_point, from a caller's stream."""
    if m.kind == "euclidean":
        return Point(m, rng.gaussians(m.n))
    if m.kind == "sphere":
        while True:
            g = rng.gaussians(m.n)
            ng = norm(g)
            if ng > 1e-6:
                return Point(m, g / ng)
    while True:
        G = rng.gaussians(m.n * m.p).reshape(m.n, m.p, order="F")
        try:
            U = polar_factor(G)
        except RankDeficient:
            continue
        return Point(m, U.flatten(order="F"))
