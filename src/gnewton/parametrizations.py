"""Parametrisation pairs (phi, psi) and numerical audits of their conditions.

A pair defines one generalised Newton method: phi pulls the cost back to the
tangent space at the current point, psi maps the Euclidean Newton increment
back to the manifold. Every kind anchors phi_p(0) = p exactly and has
D phi_p(0) = I; the audit measures how well the latter and the quadratic
remainder bound ||psi_p(y) - p - y|| <= beta ||y||^2 hold on samples.

A kind is one class that owns its maths: its `name`, the manifold classes
it lives on (`manifolds`), its map away from the origin (`_at`, on a
stack of displacements) and the tangential part of its second-order
term, if it has one.
"""

from functools import lru_cache
from itertools import repeat
from math import cos, isfinite, log, sin

import numpy as np

from .errors import ChartDomainViolation, GnewtonError, ProjectionUndefined
from .manifolds import (ManifoldDescriptor, Point, Sphere, Stiefel,
                        Grassmann, TangentVector, tangent_basis,
                        tangent_gaussians, _frame_product, _LivesOn,
                        _identity, _OnTheLine, _reflector_columns, _Value)
from .linalg import (_qr, _unit_rows, all_finite, norm, polar_factor,
                     row_dots, row_norms)
from .rates import log_log_fit
from .rng import SplitMix64

_H = np.finfo(float).eps ** (1.0 / 3.0)  # the central difference step


class _Kind(_LivesOn):
    """Base of every kind: `apply` checks the manifold, anchors
    phi_p(0) = p exactly and otherwise calls the kind's map.

    `_at(m, X, V)` is the kind's one map: each row of the (k, N) stack V
    of tangent displacements mapped at the row of X beside it (or at X
    itself, one row), returned as a stack, unchecked: the caller checks
    each row once, and a kind that composes another calls its `_at`, never
    its `apply`. Row i holds the bits a one-row call on V[i] gives, so a
    stack takes only elementwise arithmetic, `row_dots`, a call that
    treats each matrix of a stack alone (a stacked `matmul`, `qr`), or a
    loop over the rows. `_step_map(p, w)` is that map on one ambient row,
    unchecked: `apply` and the Newton step both map through it.

    `second_order(p, v)` is D^2 phi_p(0)(v, v) and `curvature(p, B, g)` the
    matrix g . D^2 phi_p(0)(b_i, b_j) over B's columns, all a pullback
    Hessian needs of it; on the sphere B may be None, the step's own
    coordinates (`Sphere.weingarten`). As D phi_p(0) = I, the normal part
    is the manifold's second fundamental form for every kind, so that is
    the default; the second-order retractions (projection, geodesic,
    recentred) have no tangential part, and other kinds add theirs.
    """

    def apply(self, v: TangentVector) -> Point:
        self.check_on(v.base.manifold)
        return self._step_map(v.base, v.ambient)

    def _step_map(self, p: Point, w: np.ndarray) -> Point:
        if norm(w) == 0.0:
            return p
        return Point(p.manifold,
                     self._at(p.manifold, p.ambient[None], w[None])[0])

    def second_order(self, p: Point, v: np.ndarray) -> np.ndarray:
        return p.manifold.second_fundamental_form(p, v)

    def curvature(self, p: Point, B: np.ndarray, g: np.ndarray) -> np.ndarray:
        return p.manifold.weingarten(p, B, g)


class _LineTerms(_OnTheLine, _Kind):
    """Kinds on the line: the basis is the single column (1,), so C is the
    second-order term itself, contracted with g."""

    def curvature(self, p: Point, B: np.ndarray, g: np.ndarray) -> np.ndarray:
        return np.array([[float(g @ self.second_order(p, B[:, 0]))]])


def _line_rows(X: np.ndarray, V: np.ndarray):
    """(x, t) for each row (t,) of V and its base (x,): the row of X beside
    it, or X itself. A line kind maps them one at a time on numpy scalars,
    which keeps each row's bits and costs a one-row step least."""
    return zip(X.ravel() if X.ndim == 2 else repeat(X[0]), V.ravel())


class Projection(_Value, _Kind):
    """Closest-point projection of p + v back onto the manifold.

    It is defined on the whole tangent space, so it has no validity radius:
    |p + v|^2 = 1 + |v|^2 on the sphere, and X^T V + V^T X = 0 gives
    (X + V)^T (X + V) = I + V^T V on Stiefel and Grassmann, so the norm or
    smallest singular value of p + v is at least 1. A step off the tangent
    space by all that `check_tangent` lets through, FEAS_TOL max(1, |v|),
    keeps it near 1 for |v| up to 1e8, far past any convergent step.
    """
    name = "projection"

    def _at(self, m, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        return m._project(X + V)


class SphereGeodesic(_Value, _Kind):
    """Great-circle map cos(|v|) p + sin(|v|) v/|v| (sphere only)."""
    name = "sphere_geodesic"
    manifolds = (Sphere,)

    def _at(self, m, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        norms = row_norms(V)
        c = np.array([cos(nv) for nv in norms])[:, None]
        s = np.array([sin(nv) for nv in norms])[:, None]
        return c * X + s * (V / np.array(norms)[:, None])


class QR(_Value, _Kind):
    """Orthonormal factor of p + v with positive-diagonal R.

    Differentiating X + tV = Q R at t = 0 for a tangent V gives R' = 0 and
    Q' = V, and then Q'' = -X (2 triu(M, 1) + diag(M)) with M = V^T V.
    Beside the normal part II = -X M that leaves the tangential term
    T(V, V) = X (tril(M, -1) - triu(M, 1)); with one column (the sphere) it
    is 0 and QR is normalisation, x / |x| (`_unit_rows`).
    """
    name = "qr"
    manifolds = (Sphere, Stiefel, Grassmann)

    def _at(self, m, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        """One column: each row over its norm. More: one stacked QR, which
        LAPACK factors each matrix of alone."""
        if m.p == 1:
            return _unit_rows(X + V, "rank-deficient QR factor")
        k = V.shape[0]
        Q, d = _qr((X + V).reshape(k, m.p, m.n).transpose(0, 2, 1))
        if np.any(d == 0.0):
            raise ProjectionUndefined("rank-deficient QR factor")
        return ((Q * np.sign(d)[:, None, :]).transpose(0, 2, 1)
                .reshape(k, m.n * m.p))

    def second_order(self, p: Point, v: np.ndarray) -> np.ndarray:
        S = super().second_order(p, v)
        m = p.manifold
        if m.p == 1:
            return S
        V = v.reshape(m.n, m.p, order="F")
        T = p.as_matrix() @ _tril_minus_triu(V.T @ V)
        return S + T.flatten(order="F")

    def curvature(self, p: Point, B: np.ndarray, g: np.ndarray) -> np.ndarray:
        """g . T(V, V) = <N, tril(M, -1) - triu(M, 1)> with N = X^T G, and
        with the Weingarten term -<N, M> it is -<S, M>, S = N's upper
        triangle mirrored (i >= j from N^T): V -> -V S, one frame product."""
        m = p.manifold
        if m.p == 1:
            return super().curvature(p, B, g)
        N = p.as_matrix().T @ g.reshape(m.n, m.p, order="F")
        return _frame_product(B, -np.where(_lower_mask(m.p + 1)[:-1], N.T, N))


@lru_cache(maxsize=64)
def _lower_mask(n: int) -> np.ndarray:
    """The n x (n - 1) mask of entries (i, j) with i >= j, shared
    read-only."""
    lower = np.arange(n)[:, None] >= np.arange(n - 1)
    lower.setflags(write=False)
    return lower


def _tril_minus_triu(M: np.ndarray) -> np.ndarray:
    """tril(M, -1) - triu(M, 1) to the bit, from the cached mask."""
    L = _lower_mask(M.shape[0] + 1)[:-1]  # i >= j
    return np.where(L, np.where(L.T, 0.0, M), 0.0 - M)  # -M: -0.0 for +0.0


class Custom1D(_Value, _LineTerms):
    """One-dimensional map y -> x + t + sum_k c_k t^k with t the tangent
    displacement; coeffs[k-1] multiplies t^k, so a nonzero first entry
    deliberately breaks D phi(0) = I (used to exercise the audit)."""
    name = "custom1d"
    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple = ()):
        coeffs = tuple(float(c) for c in coeffs)
        if not all(isfinite(c) for c in coeffs):
            raise ValueError("coeffs must be finite")
        super().__init__(coeffs)

    def _at(self, m, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        out = []
        for x, t in _line_rows(X, V):
            y, tp = x + t, t
            for c in self.coeffs:
                y += c * tp
                tp = tp * t
            out.append(y)
        return np.array(out)[:, None]

    def second_order(self, p: Point, v: np.ndarray) -> np.ndarray:
        c2 = self.coeffs[1] if len(self.coeffs) >= 2 else 0.0
        t = v[0]
        return np.array([2.0 * c2 * t * t])


class ExampleBeta(_Value, _LineTerms):
    """One-dimensional family x + t + (beta/x) t^2, the identity at x = 0."""
    name = "example_beta"
    _fields = ("beta",)

    def __init__(self, beta: float):
        if not isfinite(beta):
            raise ValueError("beta must be finite")
        super().__init__(beta)

    def _at(self, m, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        return np.array([x + t if x == 0.0
                         else x + t + (self.beta / x) * t * t
                         for x, t in _line_rows(X, V)])[:, None]

    def second_order(self, p: Point, v: np.ndarray) -> np.ndarray:
        x = p.ambient[0]
        if x == 0.0:
            return np.zeros(1)
        t = v[0]
        return np.array([2.0 * (self.beta / x) * t * t])


class Recentred(_Value, _Kind):
    """Sphere pair obtained by rotating a base pair anchored at e1: the map
    at p is g . base_{e1}(g^T v) for a seeded rotation g with g e1 = p.
    Rotation keeps the base's second-order term, which is the sphere's."""
    name = "recentred"
    manifolds = (Sphere,)
    _fields = ("base", "rotation_seed")

    def __init__(self, base, rotation_seed: int = 0):
        if not isinstance(base, (Projection, SphereGeodesic)):
            raise ValueError("recentred base must be projection or geodesic")
        super().__init__(base, rotation_seed)

    def _at(self, m, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        """One rotation g per run of equal base rows (the audit repeats each
        point's row), held one at a time and built on the row itself, which
        the caller has checked: its rows w = g^T v through the base's `_at`
        at e1, and back by g, as stacked matmuls, which give each row the
        bits of g^T v and g y. A row that rotates to zero keeps apply's
        anchor and maps to e1, so to p."""
        X = X.reshape(-1, m.n)
        cuts = (np.flatnonzero((X[1:] != X[:-1]).any(axis=1)) + 1
                if len(X) > 1 else [])
        e1 = _identity(m.n)[:1]
        out = np.empty_like(V)
        for i, j in zip([0, *cuts], [*cuts, len(V)]):
            g = _rotation(self.rotation_seed, X[i])
            W = np.matmul(g.T, V[i:j, :, None])[..., 0]
            W[:, 0] = 0.0  # exact tangency at e1; rotation rounding leaks in
            norms = row_norms(W)
            live = np.array(norms) != 0.0 if 0.0 in norms else slice(None)
            Y = np.repeat(e1, len(W), axis=0)
            Y[live] = self.base._at(m, e1[0], W[live])
            out[i:j] = np.matmul(g, Y[..., None])[..., 0]
        return out


class Stereographic(_Kind):
    """Newton in the stereographic chart s of the sphere from `pole`, as a
    kind: phi_p(v) = s^-1(s(p) + Ds(p) v). Since D phi_p(0) = I and Newton
    is affine-invariant, the pair (Stereographic, Stereographic) takes
    exactly the chart-lifted Newton step. The chart misses the pole, which
    maps to infinity: a point numerically at the pole raises
    ChartDomainViolation.

    With s^-1(y) = q + 2 (y - q) / r, r = 1 + |y|^2, and u = Ds(p) v,
    D^2 phi_p(0)(v, v) = -8 (y.u) u / r^2 - 4 |u|^2 (y - q) / r^2
    + 16 (y.u)^2 (y - q) / r^3 at y = s(p).
    """
    name = "stereographic"
    manifolds = (Sphere,)
    _fields = ("pole",)

    def __init__(self, pole):
        q = np.array(pole, dtype=float)
        if not all_finite(q):
            raise ValueError("pole must be finite")
        if q.ndim != 1 or abs(norm(q) - 1.0) > 1e-10:
            raise ValueError("pole must be a unit vector")
        q.setflags(write=False)
        super().__init__(q)

    def valid_on(self, m: ManifoldDescriptor) -> bool:
        return super().valid_on(m) and m.n == self.pole.size

    def _chart(self, X: np.ndarray):
        """y = s(x) and the matrix of Ds(x),
        Ds(x) v = ((v - (q.v) q) + (q.v) y) / (1 - q.x), for each row x of
        the stack X, stacked: q.x by `row_dots`, the rest elementwise."""
        q = self.pole
        qx = np.array(row_dots(X, q))[:, None]
        d = 1.0 - qx
        if (d <= 1e-12).any():
            raise ChartDomainViolation("point is (numerically) at the chart pole")
        Y = (X - qx * q) / d
        return Y, (_identity(q.size) + (Y - q)[..., None] * q) / d[..., None]

    def _at(self, m, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        """D v as a stacked matmul, the bits of each row's D @ v."""
        q = self.pole
        Y, D = self._chart(X.reshape(-1, m.n))
        Z = Y + np.matmul(D, V[..., None])[..., 0]
        return q + 2.0 * (Z - q) / (1.0 + np.array(row_dots(Z, Z)))[:, None]

    def second_order(self, p: Point, v: np.ndarray) -> np.ndarray:
        (y,), (D,) = self._chart(p.ambient[None])
        u = D @ v
        r = 1.0 + y @ y
        yu = y @ u
        w = y - self.pole
        return (-8.0 * yu * u / r ** 2 - 4.0 * (u @ u) * w / r ** 2
                + 16.0 * yu * yu * w / r ** 3)

    def curvature(self, p: Point, B: np.ndarray, g: np.ndarray) -> np.ndarray:
        """With U = Ds(p) B (B None: `tangent_columns`), a = U^T g,
        b = U^T y and gamma = g . (y - q):
        C = -4 (a b^T + b a^T) / r^2 - 4 gamma U^T U / r^2
        + 16 gamma b b^T / r^3."""
        (y,), (D,) = self._chart(p.ambient[None])
        U = D @ (p.manifold.tangent_columns(p) if B is None else B)
        a = U.T @ g
        b = U.T @ y
        gamma = float(g @ (y - self.pole))
        r = 1.0 + y @ y
        return (-4.0 * (np.outer(a, b) + np.outer(b, a)) / r ** 2
                - 4.0 * gamma * (U.T @ U) / r ** 2
                + 16.0 * gamma * np.outer(b, b) / r ** 3)


class ParametrizationPair(_Value):
    _fields = ("phi", "psi")

    def check_on(self, m: ManifoldDescriptor) -> "ParametrizationPair":
        """The pair, phi and then psi checked on m."""
        self.phi.check_on(m)
        self.psi.check_on(m)
        return self


def pair_label(pair: ParametrizationPair) -> str:
    return "%s+%s" % (pair.phi.name, pair.psi.name)


@lru_cache(maxsize=64)
def _seeded_rotation(seed: int, k: int) -> np.ndarray:
    """Polar factor of a seeded k x k gaussian draw: the rotation of the
    tangent columns, drawn once per (seed, k) and shared read-only."""
    G = SplitMix64(seed).gaussians(k * k).reshape(k, k, order="F")
    R = polar_factor(G)
    R.setflags(write=False)
    return R


def recentring_rotation(kind: Recentred, p: Point) -> np.ndarray:
    """Orthogonal g with g e1 = p, deterministic in (p, rotation_seed).

    The stabiliser of e1 leaves g underdetermined; the seed picks a fixed
    rotation of the tangent columns."""
    return _rotation(kind.rotation_seed, p.ambient)


def _rotation(seed: int, x: np.ndarray) -> np.ndarray:
    """recentring_rotation at the unit row x: x beside the sphere's tangent
    columns at x (`_reflector_columns`) turned by the seeded rotation."""
    n = x.size
    if n == 1:
        return x.reshape(1, 1).copy()
    C = _reflector_columns(x) @ _seeded_rotation(seed, n - 1)
    return np.column_stack([x, C])


def apply_phi(pair: ParametrizationPair, v: TangentVector) -> Point:
    return pair.phi.apply(v)


def apply_psi(pair: ParametrizationPair, v: TangentVector) -> Point:
    return pair.psi.apply(v)


def second_order_term(pair: ParametrizationPair, v: TangentVector) -> np.ndarray:
    """Quadratic Taylor coefficient D^2 phi_p(0)(v, v) in ambient coordinates."""
    p = v.base
    return pair.phi.check_on(p.manifold).second_order(p, v.ambient)


class AuditReport(_Value):
    """Equal, and hashed, on every field but `pass_flags`, which follow
    from the others. `samples_dropped` is 0: a sample the maps refuse
    raises instead (audit.json keeps the key)."""
    _fields = ("alpha_hat", "beta_hat", "fitted_slope", "identity_residual",
               "dphi_residual", "pass_flags", "samples_dropped", "radii")
    _defaults = {"samples_dropped": 0, "radii": ()}

    def _key(self) -> dict:
        return {f: v for f, v in self.__dict__.items() if f != "pass_flags"}

    @property
    def all_pass(self) -> bool:
        return all(self.pass_flags.values())


def _sweep(pair: ParametrizationPair, m: ManifoldDescriptor, P: list,
           G: list, steps: np.ndarray):
    """The audit's stages for the samples at P (gaussians G), each one pass,
    in one sample's order: each direction d from its point's basis, which
    no sample keeps; rows d, +-h d and r d checked; phi
    maps +-h d and psi r d, one `_at` each on the repeated points (one in
    all when phi is psi), the mapped rows checked. -> dphi and alpha
    residuals per sample, psi residuals per row"""
    N = m.ambient_dim
    D = np.empty((len(P), N))
    for p, g, d in zip(P, G, D):  # one basis live at a time
        d[:] = tangent_basis(p).columns @ g
    D /= np.array(row_norms(D))[:, None]
    phi, psi = pair.phi.check_on(m), pair.psi.check_on(m)
    rows = steps[:, None] * D[:, None]
    X = np.array([p.ambient for p in P])
    m.check_tangent(np.repeat(X, len(steps), axis=0), rows.reshape(-1, N))
    alpha = [norm(phi.second_order(p, d)) for p, d in zip(P, D)]
    V = rows[:, 1:]  # each sample's rows mapped at its repeated point
    maps = [(phi, V)] if phi == psi else [(phi, V[:, :2]), (psi, V[:, 2:])]
    Y = np.concatenate([kind._at(m, np.repeat(X, U.shape[1], axis=0),
                                 U.reshape(-1, N)).reshape(U.shape)
                        for kind, U in maps], axis=1)
    m.check_feasible(Y.reshape(-1, N))
    fd = (Y[:, 0] - Y[:, 1]) / (2.0 * steps[1])
    Z = Y[:, 2:] - X[:, None] - steps[3:, None] * D[:, None]
    return row_norms(fd - D), alpha, row_norms(Z.reshape(-1, N))


def audit_conditions(pair: ParametrizationPair, m: ManifoldDescriptor,
                     sample_points: int, sample_radii, seed: int) -> AuditReport:
    """Finite-sample audit of the pair's defining conditions.

    Per sampled base point and tangent direction: estimates
    ||D phi_p(0) - I|| by central differences, bounds the
    second-order term, and measures ||psi_p(y) - p - y|| against ||y||^2
    over the given radii. The result is sampling evidence, not a proof:
    finitely many base points cannot rule out non-uniformity between them.
    phi_p(0) = p holds exactly for every kind, so `identity_residual` is 0.
    A zero-dimensional manifold has no direction to sample: ManifoldMismatch.

    The samples are drawn in turn from one prefetched block of the stream,
    then checked and mapped in one `_sweep`. An error propagates, the
    first sample's.
    """
    if type(sample_points) is not int or sample_points < 1:  # bool is not
        raise ValueError("sample_points must be a positive integer")
    radii = tuple(float(r) for r in sample_radii)
    if not all(isfinite(r) for r in radii):
        raise ValueError("sample_radii must be finite")
    if any(r <= 0 for r in radii):
        raise ValueError("sample_radii must be positive")
    if len(radii) < 2 or any(a <= b for a, b in zip(radii, radii[1:])):
        raise ValueError("need two or more strictly descending sample_radii")
    if min(radii) < 1e-6:
        raise ValueError("smallest radius must be >= 1e-6")

    rng = SplitMix64(seed)
    # what a sample draws when nothing is drawn again, or one or two more
    rng.prefetch(sample_points * (m.ambient_dim + m.intrinsic_dim + 2))
    # a point, then its direction's gaussians, in turn (0-dimensional m raises)
    drawn = (m.sample_point(rng) for _ in range(sample_points))
    P, G = zip(*[(p, tangent_gaussians(p, rng)) for p in drawn])
    steps = np.array((1.0, _H, -_H) + radii)
    try:
        dphi, alpha, resid = _sweep(pair, m, P, G, steps)
    except (GnewtonError, ValueError):
        for i in range(sample_points):  # the first sample that raises alone
            _sweep(pair, m, P[i:i + 1], G[i:i + 1], steps)
        raise
    identity_residual = 0.0  # `_Kind.apply` returns p itself at v = 0
    dphi_residual, alpha_hat = (max([0.0] + v) for v in (dphi, alpha))
    # the ambient subtraction leaves ~1e-16 rounding residue even
    # when psi is exact (p + y computed then re-subtracted); below
    # this floor the residual is indistinguishable from zero and
    # must not be fitted, or an exact pair fails its own audit
    kept = [(r, e) for r, e in zip(radii * sample_points, resid) if e > 1e-14]
    beta_hat = max([0.0] + [e / (r * r) for r, e in kept])
    log_r, log_resid = [log(r) for r, _ in kept], [log(e) for _, e in kept]

    # an exact-to-machine psi leaves nothing to fit; the quadratic bound
    # then holds trivially. One radius alone leaves a 0/0 slope, so is no fit
    fitted_slope = (log_log_fit(log_r, log_resid)[0] if len(set(log_r)) >= 2
                    else float("inf"))

    flags = {
        "identity": identity_residual <= 1e-10,
        "dphi": dphi_residual <= 1e-6,
        "slope": fitted_slope >= 1.9,
    }
    return AuditReport(alpha_hat, beta_hat, fitted_slope, identity_residual,
                       dphi_residual, flags, 0, radii)
