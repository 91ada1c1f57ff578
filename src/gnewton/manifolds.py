"""Embedded manifolds: Euclidean space, the sphere, Stiefel and Grassmann.

Points and tangent vectors are stored in ambient coordinates; matrix-valued
points are flattened column-major. Grassmann elements are represented by
Stiefel matrices with horizontal tangent vectors (X^T V = 0), so a Grassmann
step is a Stiefel step restricted to the horizontal subspace. Each
manifold is one class that owns its geometry.
"""

from functools import lru_cache
from itertools import combinations, repeat
from math import sqrt

import numpy as np

from .errors import (InfeasiblePoint, ManifoldMismatch, OutsideValidityRadius,
                     ProjectionUndefined, RankDeficient)
from .linalg import all_finite, norm, polar_factor, row_dots, row_norms
from .rng import SplitMix64

FEAS_TOL = 1e-10


# Matrix points and directions are n x p, flattened column-major; a basis
# is handled as an (m, n, p) stack of direction matrices.

def _as_stack(B: np.ndarray, n: int, p: int) -> np.ndarray:
    return B.T.reshape(B.shape[1], p, n).transpose(0, 2, 1)


def _pair_sums(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """[<S_a, T_b>] over two (m, n, p) stacks, as an m x m matrix."""
    m, n, p = S.shape
    return S.reshape(m, n * p) @ T.reshape(m, n * p).T


def _sym(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.T)


class _Record:
    """Base of the package's records: `__init__` binds the fields that
    `_fields` names into the instance dict, and after it nothing can be
    assigned or deleted. The repr lists the fields. Equality and hash are
    by identity, unless the class derives from `_Value`."""
    _fields = ()

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to or delete field %r" % name)

    __delattr__ = __setattr__

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))


class _Value(_Record):
    """A record equal to another of its class with an equal `_key`, and
    hashed on it: by default the instance dict, which holds the fields
    alone, compared as it is because many comparisons run per solve
    (`distance` compares manifolds)."""

    def _key(self) -> dict:
        return self.__dict__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(tuple(self._key().values()))


class ManifoldDescriptor(_Value):
    """Base of the manifold classes: dims n and p (p > 1 only where the
    class `takes_p`) and `kind`, the config name. Each class defines
    `intrinsic_dim`, the feasibility and tangency residuals, of one row
    or (overriding `feasibility_residuals` and `tangency_residuals`) of a
    stack (`check_feasible` and `check_tangent` make the one rule of each),
    the `tangent_columns`, `_project` on a stack of rows, and its second
    fundamental form II_p(v, v), the normal part of the acceleration of
    every curve through p with velocity v, twice over:
    `second_fundamental_form(p, v)`, and `weingarten(p, B, g)`, the matrix
    g . II_p(b_i, b_j) over B's columns.
    """
    _fields = ("n", "p")
    name = None
    takes_p = False
    draw_guard = None  # see draw

    def __init__(self, n: int, p: int = 1):
        if not (1 <= p <= n):
            raise ValueError("need 1 <= p <= n, got n=%d p=%d" % (n, p))
        if not self.takes_p and p != 1:
            raise ValueError("%s takes no p parameter" % self.name)
        self.__dict__.update(n=n, p=p)

    @property
    def kind(self) -> str:
        return self.name

    @property
    def ambient_dim(self) -> int:
        return self.n * self.p

    @property
    def dims(self) -> tuple:
        """The dims a config or truth spec gives: n, and p where taken."""
        return (self.n, self.p) if self.takes_p else (self.n,)

    def check_feasible(self, X: np.ndarray):
        """The rule every Point obeys, on each row of the (k, N) stack X:
        finite, and feasible within FEAS_TOL."""
        if not all_finite(X):
            raise InfeasiblePoint("non-finite ambient coordinates")
        for resid in self.feasibility_residuals(X):
            if resid > FEAS_TOL:
                raise InfeasiblePoint("infeasible point: residual %.3e" % resid)

    def check_tangent(self, X: np.ndarray, V: np.ndarray):
        """The rule every TangentVector obeys, on each row v of the (k, N)
        stack V at its base X (one row, or one per row): finite, and tangent
        within FEAS_TOL max(1, |v|), absolute at unit scale and relative
        beyond (huge near-singular steps would fail on pure rounding)."""
        if not all_finite(V):
            raise InfeasiblePoint("non-finite tangent coordinates")
        for resid, v in zip(self.tangency_residuals(X, V), V):
            # |v| is needed only above the unit-scale tolerance
            if resid > FEAS_TOL and resid > FEAS_TOL * norm(v):
                raise InfeasiblePoint("tangency residual %.3e too large"
                                      % resid)

    def feasibility_residuals(self, X: np.ndarray) -> list:
        return [self.feasibility_residual(x) for x in X]

    def tangency_residuals(self, X: np.ndarray, V: np.ndarray) -> list:
        bases = X if X.ndim == 2 else repeat(X)
        return [self.tangency_residual(x, v) for x, v in zip(bases, V)]

    def project(self, x: np.ndarray, guard=None) -> "Point":
        """The closest point to x; see `_project`."""
        return Point(self, self._project(x[None], guard)[0])

    def distance(self, x: "Point", y: "Point") -> float:
        """Ambient chordal distance."""
        return norm(x.ambient - y.ambient)

    def draw(self, rng: SplitMix64) -> "Point":
        """A seeded gaussian draw, projected; drawn again where the
        projection is undefined, trips `draw_guard` or, on an ill-conditioned
        frame draw, misses FEAS_TOL."""
        while True:
            try:
                return self.project(rng.gaussians(self.ambient_dim),
                                    self.draw_guard)
            except (ProjectionUndefined, OutsideValidityRadius,
                    InfeasiblePoint):
                continue

    def sample_point(self, rng: SplitMix64) -> "Point":
        """A base point of the pair audit."""
        return self.draw(rng)

    def align_signs(self, truth: "Point", final: "Point") -> "Point":
        """The truth re-signed onto the branch of `final`, where it is
        defined only up to signs."""
        return truth


class _LivesOn(_Record):
    """Base of kinds and costs: `manifolds`, the classes they live on, which
    `valid_on` checks (subclasses add their dims) and `check_on` enforces."""
    name = None
    manifolds = (ManifoldDescriptor,)

    def valid_on(self, m: ManifoldDescriptor) -> bool:
        return isinstance(m, self.manifolds)

    def check_on(self, m: ManifoldDescriptor):
        if not self.valid_on(m):
            raise ManifoldMismatch("%s is not valid on %s(n=%d, p=%d)"
                                   % (self.name, m.kind, m.n, m.p))
        return self


class Euclidean(ManifoldDescriptor):
    """R^n, flat: every tangent space is R^n and II = 0."""
    name = "euclidean"

    @property
    def intrinsic_dim(self) -> int:
        return self.n

    def feasibility_residual(self, x: np.ndarray) -> float:
        return 0.0

    def tangency_residual(self, x: np.ndarray, v: np.ndarray) -> float:
        return 0.0

    def tangent_columns(self, p: "Point") -> np.ndarray:
        return np.eye(self.n)

    def _project(self, X: np.ndarray, guard=None) -> np.ndarray:
        return X

    def sample_point(self, rng: SplitMix64) -> "Point":
        # away from 0: the 1-d example kinds have a pole there
        return Point(self, np.array([0.5 + 0.5 * rng.uniform()
                                     for _ in range(self.n)]))

    def second_fundamental_form(self, p: "Point", v: np.ndarray) -> np.ndarray:
        return np.zeros(self.ambient_dim)

    def weingarten(self, p: "Point", B: np.ndarray, g: np.ndarray) -> np.ndarray:
        return np.zeros((B.shape[1], B.shape[1]))


class _OnTheLine(_LivesOn):
    """Base of the kinds and costs that live on the line: Euclidean, n = 1."""
    manifolds = (Euclidean,)

    def valid_on(self, m: ManifoldDescriptor) -> bool:
        return super().valid_on(m) and m.n == 1


class Sphere(ManifoldDescriptor):
    """The unit sphere in R^n. Every curve bends along -p,
    II_p(v, v) = -|v|^2 p, so over an orthonormal basis the contraction is
    -(g . p) I."""
    name = "sphere"
    draw_guard = 1e-6

    @property
    def intrinsic_dim(self) -> int:
        return self.n - 1

    def feasibility_residuals(self, X: np.ndarray) -> list:
        return [abs(nx - 1.0) for nx in row_norms(X)]

    def tangency_residuals(self, X: np.ndarray, V: np.ndarray) -> list:
        return [abs(s) for s in row_dots(V, X)]

    def tangent_columns(self, p: "Point") -> np.ndarray:
        return _complete_orthonormal(p.ambient[:, None])

    def _project(self, X: np.ndarray, guard=None) -> np.ndarray:
        """Each row over its norm, which must exceed the guard and 0."""
        norms = row_norms(X)
        for nx in norms:
            if guard is not None and nx <= guard:
                raise OutsideValidityRadius("norm %.3e under guard %g"
                                            % (nx, guard))
            if nx == 0.0:
                raise ProjectionUndefined("cannot project the zero vector")
        return X / np.array(norms)[:, None]

    def align_signs(self, truth: "Point", final: "Point") -> "Point":
        if float(np.dot(truth.ambient, final.ambient)) < 0.0:
            return Point(self, -truth.ambient)
        return truth

    def second_fundamental_form(self, p: "Point", v: np.ndarray) -> np.ndarray:
        nv = norm(v)
        return -(nv * nv) * p.ambient

    def weingarten(self, p: "Point", B: np.ndarray, g: np.ndarray) -> np.ndarray:
        return -float(g @ p.ambient) * np.eye(B.shape[1])


class _Frame(ManifoldDescriptor):
    """n x p orthonormal frames X^T X = I, shared by Stiefel and Grassmann.
    II_X(V, V) = -X V^T V, whose contraction with g is the Weingarten map
    V -> -V sym(X^T G)."""
    takes_p = True

    def feasibility_residual(self, x: np.ndarray) -> float:
        return _orthonormality_residual(x.reshape(self.n, self.p, order="F"))

    def tangent_columns(self, p: "Point") -> np.ndarray:
        """The horizontal block: column b moves along the a-th completion
        vector P_a of X, b outer, a inner, which in column-major coordinates
        is kron(I_p, P). It is filled in place, byte for byte what kron
        gives: P in the p diagonal blocks, 0.0 * P (signed zeros) off them."""
        return self._columns(p.as_matrix(), 0)

    def _columns(self, X: np.ndarray, k: int) -> np.ndarray:
        """The tangent columns at X: k zero ones for the caller to fill,
        then the horizontal block."""
        n, pp = self.n, self.p
        out = np.zeros((n * pp, k + pp * (n - pp)))
        P = _complete_orthonormal(X)
        H = out[:, k:].reshape(pp, n, pp, n - pp)  # a view: block (b, b')
        H[...] = 0.0 * P[:, None, :]
        for b in range(pp):
            H[b, :, b] = P
        return out

    def _project(self, X: np.ndarray, guard=None) -> np.ndarray:
        """The polar factor of each row's frame, one row at a time."""
        out = np.empty_like(X)
        for row, x in zip(out, X):
            try:
                U = polar_factor(x.reshape(self.n, self.p, order="F"), guard)
            except RankDeficient as exc:
                raise ProjectionUndefined(str(exc)) from exc
            row[:] = U.flatten(order="F")
        return out

    def second_fundamental_form(self, p: "Point", v: np.ndarray) -> np.ndarray:
        V = v.reshape(self.n, self.p, order="F")
        return (-p.as_matrix() @ (V.T @ V)).flatten(order="F")

    def weingarten(self, p: "Point", B: np.ndarray, g: np.ndarray) -> np.ndarray:
        V = _as_stack(B, self.n, self.p)
        N = p.as_matrix().T @ g.reshape(self.n, self.p, order="F")
        return -_pair_sums(V @ _sym(N), V)


class Stiefel(_Frame):
    """Orthonormal n x p frames."""
    name = "stiefel"

    @property
    def intrinsic_dim(self) -> int:
        return self.n * self.p - self.p * (self.p + 1) // 2

    def tangency_residual(self, x: np.ndarray, v: np.ndarray) -> float:
        X = x.reshape(self.n, self.p, order="F")
        V = v.reshape(self.n, self.p, order="F")
        return norm(X.T @ V + V.T @ X)

    def tangent_columns(self, p: "Point") -> np.ndarray:
        """The skew block first: the pair (i, j), i < j, in row-major
        order, moves column j along x_i and column i along -x_j; then the
        horizontal block."""
        X = p.as_matrix()
        pp = self.p
        k = pp * (pp - 1) // 2
        out = self._columns(X, k)
        S = out[:, :k].reshape(pp, self.n, k)  # a view: S[c, :, pair]
        Xs = X / sqrt(2.0)
        for c, (i, j) in enumerate(combinations(range(pp), 2)):
            S[j, :, c] = Xs[:, i]
            S[i, :, c] = -Xs[:, j]
        return out

    def align_signs(self, truth: "Point", final: "Point") -> "Point":
        T = truth.as_matrix().copy()
        F = final.as_matrix()
        for j in range(self.p):
            if float(np.dot(T[:, j], F[:, j])) < 0.0:
                T[:, j] = -T[:, j]
        return Point(self, T.flatten(order="F"))


class Grassmann(_Frame):
    """p-planes in R^n, as frames with horizontal tangent vectors."""
    name = "grassmann"

    @property
    def intrinsic_dim(self) -> int:
        return self.p * (self.n - self.p)

    def tangency_residual(self, x: np.ndarray, v: np.ndarray) -> float:
        X = x.reshape(self.n, self.p, order="F")
        return norm(X.T @ v.reshape(self.n, self.p, order="F"))

    def distance(self, x: "Point", y: "Point") -> float:
        X, Y = x.as_matrix(), y.as_matrix()
        return norm(X @ X.T - Y @ Y.T)


# the constructors by their lowercase names
euclidean = Euclidean
sphere = Sphere
stiefel = Stiefel
grassmann = Grassmann


def _freeze(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _orthonormality_residual(A: np.ndarray) -> float:
    """||A^T A - I||_F; 1 comes off the diagonal in place, the bits of G - I."""
    G = A.T @ A
    G.flat[::G.shape[0] + 1] -= 1.0
    return norm(G)


class Point(_Record):
    """A feasible point; its dict also holds the tangent columns a running
    step lends it (see `tangent_columns`)."""
    _fields = ("manifold", "ambient")

    def __init__(self, manifold: ManifoldDescriptor, ambient):
        x = _freeze(ambient)
        if x.shape != (manifold.ambient_dim,):
            raise ValueError("ambient length %r, expected %d"
                             % (x.shape, manifold.ambient_dim))
        manifold.check_feasible(x[None])
        self.__dict__.update(manifold=manifold, ambient=x)

    def as_matrix(self) -> np.ndarray:
        return self.ambient.reshape(self.manifold.n, self.manifold.p, order="F")

    @property
    def tangent_columns(self) -> np.ndarray:
        """The tangent columns here: a running step's lent ones, else new."""
        lent = vars(self).get("_lent_columns")
        return self.manifold.tangent_columns(self) if lent is None else lent


class TangentVector(_Record):
    _fields = ("base", "ambient")

    def __init__(self, base: Point, ambient):
        v = _freeze(ambient)
        m = base.manifold
        if v.shape != (m.ambient_dim,):
            raise ValueError("ambient length %r, expected %d" % (v.shape, m.ambient_dim))
        m.check_tangent(base.ambient, v[None])
        self.__dict__.update(base=base, ambient=v)

    @property
    def norm(self) -> float:
        return norm(self.ambient)

    def as_matrix(self) -> np.ndarray:
        m = self.base.manifold
        return self.ambient.reshape(m.n, m.p, order="F")


class TangentBasis(_Record):
    """`columns`: ambient_dim x intrinsic_dim, orthonormal."""
    _fields = ("base", "columns")

    def __init__(self, base: Point, columns):
        B = _freeze(columns)
        m = base.manifold
        if B.shape != (m.ambient_dim, m.intrinsic_dim):
            raise ValueError("basis shape %r, expected %r"
                             % (B.shape, (m.ambient_dim, m.intrinsic_dim)))
        if _orthonormality_residual(B) > FEAS_TOL:
            raise ValueError("basis columns not orthonormal")
        self.__dict__.update(base=base, columns=B)


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
        Qj = Q[:, :j]
        i = int(d.argmax())  # ties go to the lowest index
        v = -(Qj @ Qj[i])
        v[i] += 1.0
        v -= Qj @ (Qj.T @ v)
        v /= sqrt(float(v.dot(v)))  # norm(v), without the call
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
    The key p^2 - 1 is -(1 - p^2) bitwise.
    """
    n = p.size
    order = np.argsort(p * p - 1.0, kind="stable")
    ps = p[order]
    c = np.cumsum((ps * ps)[::-1])[::-1]  # c[j] = sum of ps[j:]**2
    B = np.where(_lower_mask(n), ps[:, None], 0.0)
    B *= -ps[:-1] / c[:-1]
    B.flat[::n] += 1.0  # entry (j, j) of the n x (n - 1) B is flat j n
    B *= np.sqrt(c[:-1] / c[1:])
    out = np.empty((n, n - 1))
    out[order] = B
    return out


@lru_cache(maxsize=64)
def _lower_mask(n: int) -> np.ndarray:
    """The n x (n - 1) mask of entries (i, j) with i >= j, shared
    read-only."""
    lower = np.arange(n)[:, None] >= np.arange(n - 1)
    lower.setflags(write=False)
    return lower


def tangent_basis(p: Point) -> TangentBasis:
    """Deterministic orthonormal basis of the tangent (Grassmann: horizontal)
    space at p, as ambient columns."""
    return TangentBasis(p, p.manifold.tangent_columns(p))


def random_unit_tangent(p: Point, rng: SplitMix64) -> np.ndarray:
    """A seeded unit tangent direction at p, in ambient coordinates: the
    basis columns times `tangent_gaussians`, over its norm."""
    d = tangent_basis(p).columns @ tangent_gaussians(p, rng)
    return d / norm(d)


def tangent_gaussians(p: Point, rng: SplitMix64) -> np.ndarray:
    """Gaussians g for a direction B g at p (B the basis columns), drawn
    again while |B g| is under 1e-12; ManifoldMismatch if m has none."""
    m = p.manifold
    if m.intrinsic_dim == 0:
        raise ManifoldMismatch("%s(n=%d, p=%d) is zero-dimensional: no unit "
                               "tangent direction" % (m.kind, m.n, m.p))
    while True:
        g = rng.gaussians(m.intrinsic_dim)
        # orthonormal columns keep |B g| over |g| / 2: only a tiny g needs B
        if norm(g) > 2e-12 or norm(tangent_basis(p).columns @ g) > 1e-12:
            return g


def project_to_manifold(m: ManifoldDescriptor, ambient, guard=None) -> Point:
    """Euclidean-closest feasible point for the given ambient coordinates.

    With a guard, a norm (sphere) or smallest singular value (Stiefel,
    Grassmann) at or under it raises OutsideValidityRadius: a projection
    step p + v that collapses has left the map's validity region."""
    return m.project(np.asarray(ambient, dtype=float), guard)


def distance(p: Point, q: Point) -> float:
    """Ambient chordal distance; Grassmann uses projector distance
    ||XX^T - YY^T||_F, which is representative-independent."""
    if p.manifold != q.manifold:
        raise ManifoldMismatch("points on different manifolds")
    return p.manifold.distance(p, q)


def random_point(m: ManifoldDescriptor, seed: int) -> Point:
    """Seed-deterministic point: normalised (sphere) or polar-projected
    (Stiefel/Grassmann) gaussian draw; plain gaussian for Euclidean."""
    return m.draw(SplitMix64(seed))
