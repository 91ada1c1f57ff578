"""Embedded manifolds: Euclidean space, the sphere, Stiefel and Grassmann.

Points and tangent vectors are stored in ambient coordinates; matrix-valued
points are flattened column-major. Grassmann elements are represented by
Stiefel matrices with horizontal tangent vectors (X^T V = 0), so a Grassmann
step is a Stiefel step restricted to the horizontal subspace. Each
manifold is one class that owns its geometry.
"""

from functools import lru_cache
from itertools import combinations
from math import sqrt

import numpy as np

from .errors import InfeasiblePoint, ManifoldMismatch, ProjectionUndefined
from .linalg import (_polar, _qr, _unit_rows, all_finite, norm, row_dots,
                     row_norms)
from .rng import SplitMix64

FEAS_TOL = 1e-10


def _frame_product(B: np.ndarray, S: np.ndarray) -> np.ndarray:
    """[<V_a S, V_b>] over B's columns vec(V_a), for a symmetric p x p S."""
    return B.T @ (S @ B.reshape(S.shape[0], -1)).reshape(B.shape)


def _sym(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.T)


class _Record:
    """Base of the package's records: `__init__` binds the fields that
    `_fields` names into the instance dict, and after it nothing can be
    assigned or deleted. The repr lists the fields. Equality and hash are
    by identity, unless the class derives from `_Value`."""
    _fields = ()
    _defaults = {}

    def __init__(self, *args, **kw):
        """Binds each field, given in order or by keyword or else taken from
        `_defaults`, into the instance dict in `_fields` order; a checking
        `__init__` ends in this one, through super()."""
        fields = self._fields
        if kw or len(args) != len(fields):  # else every field, in order
            values = {**self._defaults, **dict(zip(fields, args)), **kw}
            if (len(args) > len(fields) or len(values) != len(fields)
                    or not set(kw) <= set(fields[len(args):])):
                raise TypeError("%s(%s) cannot bind %d positional and %s" % (
                    type(self).__qualname__, ", ".join(fields), len(args),
                    "keywords %s" % sorted(kw) if kw else "no keywords"))
            args = [values[f] for f in fields]
        self.__dict__.update(zip(fields, args))

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to or delete field %r" % name)

    __delattr__ = __setattr__

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))


class _Value(_Record):
    """A record equal to itself and to another of its class with an equal
    `_key`, and hashed on it: by default the instance dict, which holds the
    fields alone, compared as it is because many comparisons run per solve
    (`distance` compares a manifold, nearly always with itself)."""

    def _key(self) -> dict:
        return self.__dict__

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(tuple(self._key().values()))


class ManifoldDescriptor(_Value):
    """Base of the manifold classes: dims n and p (p > 1 only where the
    class `takes_p`) and `kind`, the config name. Each class defines
    `intrinsic_dim`, one residual hook per rule on a stack of rows,
    `feasibility_residuals(X)` and `tangency_residuals(X, V)`, each row's
    with the bits of that row alone (`check_feasible` and `check_tangent`
    make the one rule of each), `tangent_columns`, the one basis (new each
    call), `step_coordinates`, the step's, `_project` on a stack of rows,
    and its second fundamental form II_p(v, v), the normal part of the
    acceleration of every curve through p with velocity v, twice over:
    `second_fundamental_form(p, v)`, and `weingarten(p, B, g)`, the matrix
    g . II_p(b_i, b_j) over B's columns.
    """
    _fields = ("n", "p")
    name = None
    takes_p = False

    def __init__(self, n: int, p: int = 1):
        if n < 1:
            raise ValueError("need n >= 1, got n=%d" % n)
        if not (1 <= p <= n):
            raise ValueError("need 1 <= p <= n, got n=%d p=%d" % (n, p))
        if not self.takes_p and p != 1:
            raise ValueError("%s takes no p parameter" % self.name)
        super().__init__(n, p)

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

    def step_coordinates(self, p: "Point", basis=None) -> "TangentBasis":
        """The Newton step's at p: its `tangent_basis`, or the one given."""
        return tangent_basis(p) if basis is None else basis

    def project(self, x: np.ndarray) -> "Point":
        """The closest point to x; see `_project`."""
        return Point(self, self._project(x[None])[0])

    def distance(self, x: "Point", y: "Point") -> float:
        """Ambient chordal distance."""
        return norm(x.ambient - y.ambient)

    def draw(self, rng: SplitMix64) -> "Point":
        """A seeded gaussian draw, projected; drawn again where the
        projection is undefined."""
        while True:
            try:
                return self.project(rng.gaussians(self.ambient_dim))
            except ProjectionUndefined:
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
    """R^n: flat (II = 0), its own tangent space and step coordinates."""
    name = "euclidean"

    @property
    def intrinsic_dim(self) -> int:
        return self.n

    def feasibility_residuals(self, X: np.ndarray) -> list:
        return [0.0] * len(X)

    def tangency_residuals(self, X: np.ndarray, V: np.ndarray) -> list:
        return [0.0] * len(V)

    def tangent_columns(self, p: "Point") -> np.ndarray:
        """A new array: the identity."""
        return np.eye(self.n)

    def step_coordinates(self, p: "Point", basis=None) -> "Euclidean":
        return self

    def pullback(self, c, phi, p: "Point", g: np.ndarray):
        return g, c.hessian(p) + phi.curvature(p, _identity(self.n), g)

    def lift(self, s: np.ndarray) -> np.ndarray:
        return s

    def _project(self, X: np.ndarray) -> np.ndarray:
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
    """The unit sphere in R^n, with the tangent columns of one Householder
    reflector. Every curve bends along -p, II_p(v, v) = -|v|^2 p, so over
    an orthonormal basis the contraction is -(g . p) I."""
    name = "sphere"

    @property
    def intrinsic_dim(self) -> int:
        return self.n - 1

    def feasibility_residuals(self, X: np.ndarray) -> list:
        return [abs(nx - 1.0) for nx in row_norms(X)]

    def tangency_residuals(self, X: np.ndarray, V: np.ndarray) -> list:
        return [abs(s) for s in row_dots(V, X)]

    def tangent_columns(self, p: "Point") -> np.ndarray:
        """A new array: `_reflector_columns` of p."""
        return _reflector_columns(p.ambient)

    def step_coordinates(self, p: "Point", basis=None) -> "_Reflector":
        return _Reflector(p.ambient)

    def _project(self, X: np.ndarray) -> np.ndarray:
        """Each row over its norm, which must not be 0 (`_unit_rows`)."""
        return _unit_rows(X, "cannot project the zero vector")

    def align_signs(self, truth: "Point", final: "Point") -> "Point":
        if float(np.dot(truth.ambient, final.ambient)) < 0.0:
            return Point(self, -truth.ambient)
        return truth

    def second_fundamental_form(self, p: "Point", v: np.ndarray) -> np.ndarray:
        nv = norm(v)
        return -(nv * nv) * p.ambient

    def weingarten(self, p: "Point", B, g: np.ndarray):
        """B None: the diagonal shift's float, in `_Reflector`'s steps."""
        k = -float(g.dot(p.ambient))
        return k if B is None else k * _identity(B.shape[1])


class _Frame(ManifoldDescriptor):
    """n x p orthonormal frames X^T X = I, shared by Stiefel and Grassmann,
    with tangent columns over the completion of one Householder QR of X.
    II_X(V, V) = -X V^T V, whose contraction with g is the Weingarten map
    V -> V S, S = -sym(X^T G). As vec(V S) = (S kron I_n) vec(V), over a
    basis B it is one product B^T (S kron I_n) B (`_frame_product`)."""
    takes_p = True

    def feasibility_residuals(self, X: np.ndarray) -> list:
        """|X^T X - I|_F per frame, as stacked matmuls over the (k, p, n)
        view of the stack (a column-major frame is its transpose row-major),
        with each frame's bits alone; 1 comes off the diagonals in place."""
        T = X.reshape(-1, self.p, self.n)
        G = np.matmul(T, T.transpose(0, 2, 1)).reshape(len(T), -1)
        G[:, ::self.p + 1] -= 1.0
        return row_norms(G)

    def tangent_columns(self, p: "Point") -> np.ndarray:
        """A new array: `_columns` over X's `_completion`."""
        X = p.as_matrix()
        return self._columns(X, self._completion(X))

    def _completion(self, X: np.ndarray) -> np.ndarray:
        """The completion of X that one Householder QR gives, the last
        n - p columns of its complete Q."""
        return _qr(X, complete=True)[0][:, self.p:]

    def _columns(self, X: np.ndarray, P: np.ndarray) -> np.ndarray:
        """The tangent columns at X over its orthonormal completion P: the
        horizontal block."""
        return self._horizontal(P, 0)

    def _horizontal(self, P: np.ndarray, k: int) -> np.ndarray:
        """k zero columns for the caller to fill, then the horizontal block:
        column b moves along the a-th completion vector P_a, b outer, a
        inner, in column-major coordinates kron(I_p, P), filled in place
        byte for byte as kron gives it: P in the p diagonal blocks,
        0.0 * P (signed zeros) off."""
        n, pp = self.n, self.p
        out = np.zeros((n * pp, k + pp * (n - pp)))
        H = out[:, k:].reshape(pp, n, pp, n - pp)  # a view: block (b, b')
        H[...] = 0.0 * P[:, None, :]
        for b in range(pp):
            H[b, :, b] = P
        return out

    def _project(self, X: np.ndarray) -> np.ndarray:
        """The polar factor of each row's frame, in one stacked call over
        the transposed (k, p, n) view; a non-finite row is no point, and the
        factor tests finiteness no more (`_polar`)."""
        if not all_finite(X):
            raise InfeasiblePoint("non-finite ambient coordinates")
        U = _polar(X.reshape(-1, self.p, self.n).transpose(0, 2, 1))
        return U.transpose(0, 2, 1).reshape(X.shape)

    def second_fundamental_form(self, p: "Point", v: np.ndarray) -> np.ndarray:
        V = v.reshape(self.n, self.p, order="F")
        return (-p.as_matrix() @ (V.T @ V)).flatten(order="F")

    def weingarten(self, p: "Point", B, g: np.ndarray) -> np.ndarray:
        """B None: S itself, in `_Completion`'s steps."""
        S = -_sym(p.as_matrix().T @ g.reshape(self.n, self.p, order="F"))
        return S if B is None else _frame_product(B, S)


class Stiefel(_Frame):
    """Orthonormal n x p frames."""
    name = "stiefel"

    @property
    def intrinsic_dim(self) -> int:
        return self.n * self.p - self.p * (self.p + 1) // 2

    def tangency_residuals(self, X: np.ndarray, V: np.ndarray) -> list:
        """|X^T V + V^T X|_F per row, over (k, p, n) views."""
        A, B = (Y.reshape(-1, self.p, self.n) for Y in (X, V))
        S = np.matmul(A, B.transpose(0, 2, 1))
        S += np.matmul(B, A.transpose(0, 2, 1))
        return row_norms(S.reshape(len(V), -1))

    def _columns(self, X: np.ndarray, P: np.ndarray) -> np.ndarray:
        """The skew block first: the pair (i, j), i < j, in row-major
        order, moves column j along x_i and column i along -x_j; then the
        horizontal block over P."""
        pp = self.p
        k = pp * (pp - 1) // 2
        out = self._horizontal(P, k)
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

    def tangency_residuals(self, X: np.ndarray, V: np.ndarray) -> list:
        """|X^T V|_F per row, over (k, p, n) views."""
        A, B = (Y.reshape(-1, self.p, self.n) for Y in (X, V))
        S = np.matmul(A, B.transpose(0, 2, 1))
        return row_norms(S.reshape(len(V), -1))

    def step_coordinates(self, p: "Point", basis=None) -> "_Completion":
        return _Completion(self._completion(p.as_matrix()), self.p)

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
    G.reshape(-1)[::G.shape[0] + 1] -= 1.0
    return norm(G)


class Point(_Record):
    """A feasible point."""
    _fields = ("manifold", "ambient")

    def __init__(self, manifold: ManifoldDescriptor, ambient):
        x = _freeze(ambient)
        if x.shape != (manifold.ambient_dim,):
            raise ValueError("ambient length %r, expected %d"
                             % (x.shape, manifold.ambient_dim))
        manifold.check_feasible(x[None])
        super().__init__(manifold, x)

    def as_matrix(self) -> np.ndarray:
        return self.ambient.reshape(self.manifold.n, self.manifold.p, order="F")


class TangentVector(_Record):
    _fields = ("base", "ambient")

    def __init__(self, base: Point, ambient):
        v = _freeze(ambient)
        m = base.manifold
        if v.shape != (m.ambient_dim,):
            raise ValueError("ambient length %r, expected %d" % (v.shape, m.ambient_dim))
        m.check_tangent(base.ambient, v[None])
        super().__init__(base, v)

    @property
    def norm(self) -> float:
        return norm(self.ambient)

    def as_matrix(self) -> np.ndarray:
        m = self.base.manifold
        return self.ambient.reshape(m.n, m.p, order="F")


class TangentBasis(_Record):
    """`columns` B: ambient_dim x intrinsic_dim, orthonormal (a copy); as
    step coordinates, (B^T g, sym(B^T (M B) + C)) with M = c.hessian(p),
    and w = B s."""
    _fields = ("base", "columns")

    def __init__(self, base: Point, columns):
        self._bind(base, _checked_basis(base.manifold, _freeze(columns)))

    def _bind(self, base: Point, B: np.ndarray) -> "TangentBasis":
        """Binds columns B that `_checked_basis` has passed, uncopied."""
        super().__init__(base, B)
        return self

    def pullback(self, c, phi, p: Point, g: np.ndarray):
        B = self.columns
        grad = B.T @ g
        return grad, _sym(B.T @ (c.hessian(p) @ B) + phi.curvature(p, B, g))

    def lift(self, s: np.ndarray) -> np.ndarray:
        return self.columns @ s


def _checked_basis(m: ManifoldDescriptor, B: np.ndarray) -> np.ndarray:
    """B, frozen in place, checked m's ambient_dim x intrinsic_dim with
    orthonormal columns: the one rule of every basis."""
    B.setflags(write=False)
    if B.shape != (m.ambient_dim, m.intrinsic_dim):
        raise ValueError("basis shape %r, expected %r"
                         % (B.shape, (m.ambient_dim, m.intrinsic_dim)))
    if _orthonormality_residual(B) > FEAS_TOL:
        raise ValueError("basis columns not orthonormal")
    return B


def _reflector_columns(x: np.ndarray) -> np.ndarray:
    """A new array: `_Reflector`'s columns 2..n, I[:, 1:] - v x_{2..n}^T / d,
    orthonormal for every feasible x."""
    n = x.size
    R = _Reflector(x)
    B = R.v[:, None] * (x[1:] / -R.d)
    B.reshape(-1)[n - 1::n] += 1.0  # entry (j + 1, j) is flat j n + n - 1
    return B


class _Reflector(_Record):
    """The sphere's step coordinates at x: Q = I - beta v v^T, v = x + s r e_1,
    r = |x| (not read as 1), s = sign(x_1) (+1 at 0), beta = 1 / d,
    d = r (r + |x_1|) = v^T v / 2, applied in factored form and checked as
    that operator, |Q^T Q - I|_F = |t (t - 2)| <= FEAS_TOL, t = beta v^T v.
    Q e_1 = -s x / r, and its columns 2..n are `tangent_columns`."""
    _fields = ("v", "d", "beta")

    def __init__(self, x: np.ndarray):
        r, x1 = norm(x), float(x[0])
        v = x.copy()
        v[0] = x1 + r if x1 >= 0.0 else x1 - r
        d = r * (r + abs(x1))
        beta = 1.0 / d
        t = beta * float(v.dot(v))
        if abs(t * (t - 2.0)) > FEAS_TOL:
            raise ValueError("basis columns not orthonormal")
        super().__init__(v, d, beta)

    def pullback(self, c, phi, p: Point, g: np.ndarray):
        """With M = c.hessian(p), x' = v_{2..n}, u = M v, z = beta u -
        beta^2 (v . u) v / 2: grad = g' - beta (v . g) x', H = M' - (x' z'^T
        + z' x'^T) + C, C phi's diagonal shift or matrix over the columns."""
        v, beta = self.v, self.beta
        x = v[1:]
        grad = g[1:] - (beta * float(v.dot(g))) * x
        M = c.hessian(p)
        u = M.dot(v)
        z = beta * u[1:] - (0.5 * beta * beta * float(v.dot(u))) * x
        T = x[:, None] * z
        H = M[1:, 1:] - (T + T.T)
        C = phi.curvature(p, None, g)
        if isinstance(C, float):
            H.reshape(-1)[::x.size + 1] += C
        else:
            H += _sym(C)
        return grad, H

    def lift(self, s: np.ndarray) -> np.ndarray:  # (0, s) - beta (x'.s) v
        w = -(self.beta * float(self.v[1:].dot(s))) * self.v
        w[1:] += s
        return w


class _Completion(_Record):
    """Grassmann's step coordinates at X: B = I_p kron P over the
    completion P of X (n x q, q = n - p), the horizontal lift V = P K of
    K in R^{q x p}, with s the rows of K^T; applied blockwise and checked
    as that operator, |B^T B - I|_F = sqrt(p) |P^T P - I|_F <= FEAS_TOL.
    Written out, B is the Grassmann basis of `tangent_basis`."""
    _fields = ("P", "p")

    def __init__(self, P: np.ndarray, p: int):
        if sqrt(p) * _orthonormality_residual(P) > FEAS_TOL:
            raise ValueError("basis columns not orthonormal")
        super().__init__(P, p)

    def pullback(self, c, phi, x: Point, g: np.ndarray):
        """With G^T the (p, n) view of g: grad = G^T P flattened, and
        H = sym(B^T M' B), M' = c.hessian(x) plus phi's curvature S kron I_n
        at its block diagonals, as one (p^2 n x n) (n x q) product and one
        P^T stacked over the p block rows."""
        P, p = self.P, self.p
        n, q = P.shape
        grad = (g.reshape(p, n) @ P).ravel()
        M = c.hessian(x).copy()
        M.reshape(-1)[_block_diagonals(p, n)] += np.repeat(
            phi.curvature(x, None, g), n)
        T = (M.reshape(p * n * p, n) @ P).reshape(p, n, p * q)
        return grad, _sym(np.matmul(P.T, T).reshape(p * q, p * q))

    def lift(self, s: np.ndarray) -> np.ndarray:  # vec(P K), by rows of K^T
        return (s.reshape(self.p, -1) @ self.P.T).ravel()


@lru_cache(maxsize=64)
def _block_diagonals(p: int, n: int) -> np.ndarray:
    """The flat indices of a pn x pn matrix's n x n block diagonals, block
    (b, b') row-major, then i: (b n + i) pn + b' n + i, shared read-only."""
    b, i = np.arange(p), np.arange(n)
    flat = ((b[:, None, None] * n + i) * (p * n) + b[:, None] * n + i).ravel()
    flat.setflags(write=False)
    return flat


@lru_cache(maxsize=64)
def _identity(m: int) -> np.ndarray:
    """The m x m identity, shared read-only."""
    eye = np.eye(m)
    eye.setflags(write=False)
    return eye


def tangent_basis(p: Point) -> TangentBasis:
    """Deterministic orthonormal basis of the tangent (Grassmann: horizontal)
    space at p, the one the Newton step solves over: the new
    `tangent_columns` through `_checked_basis`, not copied."""
    B = _checked_basis(p.manifold, p.manifold.tangent_columns(p))
    return TangentBasis.__new__(TangentBasis)._bind(p, B)


def random_unit_tangent(p: Point, rng: SplitMix64) -> np.ndarray:
    """A seeded unit tangent direction at p, in ambient coordinates: the
    basis columns times `tangent_gaussians`, over its norm."""
    d = tangent_basis(p).columns @ tangent_gaussians(p, rng)
    return d / norm(d)


def tangent_gaussians(p: Point, rng: SplitMix64) -> np.ndarray:
    """Gaussians g for a direction B g at p (B the basis columns), drawn
    again while |g| is at most 1e-12 (B's orthonormal columns keep |B g|
    = |g| within FEAS_TOL relative); ManifoldMismatch if m has none."""
    m = p.manifold
    if m.intrinsic_dim == 0:
        raise ManifoldMismatch("%s(n=%d, p=%d) is zero-dimensional: no unit "
                               "tangent direction" % (m.kind, m.n, m.p))
    while True:
        g = rng.gaussians(m.intrinsic_dim)
        if norm(g) > 1e-12:
            return g


def project_to_manifold(m: ManifoldDescriptor, ambient) -> Point:
    """Euclidean-closest feasible point for the given ambient coordinates."""
    return m.project(np.asarray(ambient, dtype=float))


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
