"""Parametrisation pairs (phi, psi) and numerical audits of their conditions.

A pair defines one generalised Newton method: phi pulls the cost back to the
tangent space at the current point, psi maps the Euclidean Newton increment
back to the manifold. Every kind anchors the identity phi_p(0) = p and
D phi_p(0) = I; the audit measures how well those and the quadratic
remainder bound ||psi_p(y) - p - y|| <= beta ||y||^2 hold on samples.

A kind is one class that owns its maths: its `name`, the manifold classes
it lives on (`manifolds`), its map away from the origin (`_map`, on a stack
of displacements) and the tangential part of its second-order term, if it
has one.
"""

from functools import lru_cache
from math import cos, isfinite, isnan, log, sin

import numpy as np

from .errors import (ChartDomainViolation, GnewtonError,
                     OutsideValidityRadius, ProjectionUndefined)
from .manifolds import (ManifoldDescriptor, Point, Sphere, Stiefel,
                        Grassmann, TangentVector, random_unit_tangent,
                        tangent_basis, tangent_gaussians, _as_stack,
                        _LivesOn, _OnTheLine, _pair_sums, _sym, _Value)
from .linalg import all_finite, norm, polar_factor, row_norms
from .rates import log_log_fit
from .rng import SplitMix64

_H = np.finfo(float).eps ** (1.0 / 3.0)  # the central difference step

# norm or smallest singular value of p + v at or under this aborts a
# projection step; see Projection for why a tangent v never reaches it
PROJECTION_GUARD = 0.1


class _Kind(_LivesOn):
    """Base of every kind: `apply` checks the manifold, anchors
    phi_p(0) = p exactly and otherwise calls the kind's map on one row.

    `_map(p, V)` maps a (k, N) stack of nonzero tangent displacements at p
    and returns the k mapped ambient rows, unchecked: the caller checks
    each row once, and a kind that composes another calls its `_map`,
    never its `apply`. Row i holds the bits a one-row call on V[i] gives.
    A kind vectorises only arithmetic that works elementwise and loops
    over the rows where a stacked call (a matrix product, say) could round
    differently; `_map_each(P, V)` maps V[i] at P[i], one `_map` per point.
    A kind whose `_map` reads `p.tangent_columns` sets `reads_basis`, so
    the audit lends it the basis it completed for the sample's direction.

    `second_order(p, v)` is D^2 phi_p(0)(v, v) and `curvature(p, B, g)` the
    matrix g . D^2 phi_p(0)(b_i, b_j) over B's columns, all a pullback
    Hessian needs of it. As D phi_p(0) = I, the normal part is the
    manifold's second fundamental form for every kind, so that is the
    default; the second-order retractions (projection, geodesic, recentred)
    have no tangential part, and other kinds add theirs.
    """
    reads_basis = False

    def apply(self, v: TangentVector) -> Point:
        p = v.base
        self.check_on(p.manifold)
        if norm(v.ambient) == 0.0:
            return p
        return Point(p.manifold, self._map(p, v.ambient[None])[0])

    def _map_each(self, P: list, V: np.ndarray) -> np.ndarray:
        return np.array([self._map(p, v) for p, v in zip(P, V)])

    def second_order(self, p: Point, v: np.ndarray) -> np.ndarray:
        return p.manifold.second_fundamental_form(p, v)

    def curvature(self, p: Point, B: np.ndarray, g: np.ndarray) -> np.ndarray:
        return p.manifold.weingarten(p, B, g)


class _Elementwise(_Kind):
    """A kind elementwise in its base: `_at(m, X, V)` maps each row of V at
    the row of X alongside, or at X itself where X is one row."""

    def _map(self, p: Point, V: np.ndarray) -> np.ndarray:
        return self._at(p.manifold, p.ambient, V)

    def _map_each(self, P: list, V: np.ndarray) -> np.ndarray:
        X = np.repeat([p.ambient for p in P], V.shape[1], axis=0)
        return self._at(P[0].manifold, X, V.reshape(X.shape)).reshape(V.shape)


class _LineTerms(_OnTheLine, _Kind):
    """Kinds on the line: the basis is the single column (1,), so C is the
    second-order term itself, contracted with g."""

    def curvature(self, p: Point, B: np.ndarray, g: np.ndarray) -> np.ndarray:
        return np.array([[float(g @ self.second_order(p, B[:, 0]))]])


class Projection(_Value, _Elementwise):
    """Closest-point projection of p + v back onto the manifold.

    For an exactly tangent v the projection is always defined:
    |p + v|^2 = 1 + |v|^2 on the sphere, and X^T V + V^T X = 0 gives
    (X + V)^T (X + V) = I + V^T V on Stiefel and Grassmann, so the norm or
    smallest singular value of p + v is at least 1. PROJECTION_GUARD can
    therefore trip only when rounding has broken the tangency of v.
    """
    name = "projection"

    def _at(self, m, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        return m._project(X + V, PROJECTION_GUARD)


class SphereGeodesic(_Value, _Elementwise):
    """Great-circle map cos(|v|) p + sin(|v|) v/|v| (sphere only)."""
    name = "sphere_geodesic"
    manifolds = (Sphere,)

    def _at(self, m, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        norms = row_norms(V)
        c = np.array([cos(nv) for nv in norms])[:, None]
        s = np.array([sin(nv) for nv in norms])[:, None]
        return c * X + s * (V / np.array(norms)[:, None])


class QR(_Value, _Elementwise):
    """Orthonormal factor of p + v with positive-diagonal R.

    Differentiating X + tV = Q R at t = 0 for a tangent V gives R' = 0 and
    Q' = V, and then Q'' = -X (2 triu(M, 1) + diag(M)) with M = V^T V.
    Beside the normal part II = -X M that leaves the tangential term
    T(V, V) = X (tril(M, -1) - triu(M, 1)); with one column (the sphere) it
    is 0 and QR is normalisation.
    """
    name = "qr"
    manifolds = (Sphere, Stiefel, Grassmann)

    def _at(self, m, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        """One stacked QR; LAPACK factors each matrix of the stack alone."""
        k = V.shape[0]
        Q, R = np.linalg.qr((X + V).reshape(k, m.p, m.n)
                            .transpose(0, 2, 1))
        d = np.diagonal(R, axis1=1, axis2=2)
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
        M = V.T @ V
        T = p.as_matrix() @ (np.tril(M, -1) - np.triu(M, 1))
        return S + T.flatten(order="F")

    def curvature(self, p: Point, B: np.ndarray, g: np.ndarray) -> np.ndarray:
        """g . T(V, V) = <N, tril(M, -1) - triu(M, 1)> = <V E, V> with
        N = X^T G and E = tril(N - N^T, -1), polarised over the basis."""
        C = super().curvature(p, B, g)
        m = p.manifold
        if m.p == 1:
            return C
        N = p.as_matrix().T @ g.reshape(m.n, m.p, order="F")
        V = _as_stack(B, m.n, m.p)
        return C + _sym(_pair_sums(V @ np.tril(N - N.T, -1), V))


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
        self.__dict__["coeffs"] = coeffs

    def _map(self, p: Point, V: np.ndarray) -> np.ndarray:
        out = np.empty_like(V)
        for row, v in zip(out, V):
            t = v[0]
            result = p.ambient[0] + t
            tp = t
            for c in self.coeffs:
                result += c * tp
                tp = tp * t
            row[0] = result
        return out

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
        self.__dict__["beta"] = beta

    def _map(self, p: Point, V: np.ndarray) -> np.ndarray:
        x = p.ambient[0]
        out = np.empty_like(V)
        for row, v in zip(out, V):
            t = v[0]
            row[0] = x + t if x == 0.0 else x + t + (self.beta / x) * t * t
        return out

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
    reads_basis = True

    def __init__(self, base, rotation_seed: int = 0):
        if not isinstance(base, (Projection, SphereGeodesic)):
            raise ValueError("recentred base must be projection or geodesic")
        self.__dict__.update(base=base, rotation_seed=rotation_seed)

    def _map(self, p: Point, V: np.ndarray) -> np.ndarray:
        """One rotation for the stack; each row goes through the base's
        `_map` at e1, and its products with g are taken row by row. A row
        that rotates to zero keeps apply's anchor and maps to e1."""
        m = p.manifold
        g = recentring_rotation(self, p)
        x = np.zeros(m.n)
        x[0] = 1.0
        e1 = Point(m, x)
        out = np.empty_like(V)
        for row, v in zip(out, V):
            w = g.T @ v
            w[0] = 0.0  # exact tangency at e1; rotation rounding leaks in
            y = x if norm(w) == 0.0 else self.base._map(e1, w[None])[0]
            row[:] = g @ y
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
        self.__dict__["pole"] = q

    def valid_on(self, m: ManifoldDescriptor) -> bool:
        return super().valid_on(m) and m.n == self.pole.size

    def _chart(self, p: Point):
        """y = s(p) and the matrix of Ds(p),
        Ds(p) v = ((v - (q.v) q) + (q.v) y) / (1 - q.p)."""
        q = self.pole
        x = p.ambient
        d = 1.0 - q @ x
        if d <= 1e-12:
            raise ChartDomainViolation("point is (numerically) at the chart pole")
        y = (x - (x @ q) * q) / d
        return y, (np.eye(q.size) + np.outer(y - q, q)) / d

    def _map(self, p: Point, V: np.ndarray) -> np.ndarray:
        y, D = self._chart(p)
        out = np.empty_like(V)
        for row, v in zip(out, V):
            z = y + D @ v
            row[:] = self.pole + 2.0 * (z - self.pole) / (1.0 + z @ z)
        return out

    def second_order(self, p: Point, v: np.ndarray) -> np.ndarray:
        y, D = self._chart(p)
        u = D @ v
        r = 1.0 + y @ y
        yu = y @ u
        w = y - self.pole
        return (-8.0 * yu * u / r ** 2 - 4.0 * (u @ u) * w / r ** 2
                + 16.0 * yu * yu * w / r ** 3)

    def curvature(self, p: Point, B: np.ndarray, g: np.ndarray) -> np.ndarray:
        """With U = Ds(p) B, a = U^T g, b = U^T y and gamma = g . (y - q):
        C = -4 (a b^T + b a^T) / r^2 - 4 gamma U^T U / r^2
        + 16 gamma b b^T / r^3."""
        y, D = self._chart(p)
        U = D @ B
        a = U.T @ g
        b = U.T @ y
        gamma = float(g @ (y - self.pole))
        r = 1.0 + y @ y
        return (-4.0 * (np.outer(a, b) + np.outer(b, a)) / r ** 2
                - 4.0 * gamma * (U.T @ U) / r ** 2
                + 16.0 * gamma * np.outer(b, b) / r ** 3)


class ParametrizationPair(_Value):
    _fields = ("phi", "psi")

    def __init__(self, phi, psi):
        self.__dict__.update(phi=phi, psi=psi)


def pair_label(pair: ParametrizationPair) -> str:
    return "%s+%s" % (pair.phi.name, pair.psi.name)


@lru_cache(maxsize=64)
def _seeded_rotation(seed: int, k: int) -> np.ndarray:
    """Polar factor of a seeded k x k gaussian draw: the rotation of the
    completion columns, drawn once per (seed, k) and shared read-only."""
    G = SplitMix64(seed).gaussians(k * k).reshape(k, k, order="F")
    R = polar_factor(G)
    R.setflags(write=False)
    return R


def recentring_rotation(kind: Recentred, p: Point) -> np.ndarray:
    """Orthogonal g with g e1 = p, deterministic in (p, rotation_seed).

    The stabiliser of e1 leaves g underdetermined; the seed picks a fixed
    rotation of the completion columns."""
    n = p.manifold.n
    if n > 1:
        R = _seeded_rotation(kind.rotation_seed, n - 1)
        C = p.tangent_columns @ R
        return np.column_stack([p.ambient, C])
    return p.ambient.reshape(1, 1).copy()


def apply_phi(pair: ParametrizationPair, v: TangentVector) -> Point:
    return pair.phi.apply(v)


def apply_psi(pair: ParametrizationPair, v: TangentVector) -> Point:
    return pair.psi.apply(v)


def second_order_term(pair: ParametrizationPair, v: TangentVector) -> np.ndarray:
    """Quadratic Taylor coefficient D^2 phi_p(0)(v, v) in ambient coordinates."""
    p = v.base
    return pair.phi.check_on(p.manifold).second_order(p, v.ambient)


def curvature_term(pair: ParametrizationPair, p: Point, B: np.ndarray,
                   g: np.ndarray) -> np.ndarray:
    """C[i, j] = g . D^2 phi_p(0)(b_i, b_j) over the columns of B: the term
    the ambient gradient g adds to a Hessian pulled back through phi."""
    return pair.phi.check_on(p.manifold).curvature(p, B, g)


class AuditReport(_Value):
    """Equal, and hashed, on every field but `pass_flags`, which follow
    from the others."""
    _fields = ("alpha_hat", "beta_hat", "fitted_slope", "identity_residual",
               "dphi_residual", "pass_flags", "samples_dropped", "radii")

    def __init__(self, alpha_hat: float, beta_hat: float, fitted_slope: float,
                 identity_residual: float, dphi_residual: float,
                 pass_flags: dict, samples_dropped: int = 0, radii: tuple = ()):
        self.__dict__.update(
            alpha_hat=alpha_hat, beta_hat=beta_hat, fitted_slope=fitted_slope,
            identity_residual=identity_residual, dphi_residual=dphi_residual,
            pass_flags=pass_flags, samples_dropped=samples_dropped,
            radii=radii)

    def _key(self) -> dict:
        return {f: v for f, v in self.__dict__.items() if f != "pass_flags"}

    @property
    def all_pass(self) -> bool:
        return all(self.pass_flags.values())


def _sweep(pair: ParametrizationPair, m: ManifoldDescriptor, P: list,
           G: list, steps: np.ndarray):
    """The audit's stages for the samples at P (gaussians G), each one pass,
    in one sample's order: each direction d from its point's basis (one
    completion, kept only where a kind `reads_basis`); rows d, +-h d and
    r d checked; phi maps +-h d and psi r d, one `_map_each` each (one in
    all when phi is psi), the mapped rows checked; on
    OutsideValidityRadius phi's rows are mapped again and each psi row
    alone, NaN where psi trips its guard. -> anchor, dphi and alpha
    residuals per sample, psi residuals per row"""
    N = m.ambient_dim
    lend = pair.phi.reads_basis or pair.psi.reads_basis
    D = np.empty((len(P), N))
    for p, g, d in zip(P, G, D):  # one basis live, unless a kind reads it
        B = tangent_basis(p).columns
        d[:] = B @ g
        if lend:
            vars(p)["_lent_columns"] = B
    D /= np.array(row_norms(D))[:, None]
    anchor = [norm(apply_phi(pair, TangentVector(p, np.zeros(N))).ambient
                   - p.ambient) for p in P]
    phi, psi = pair.phi.check_on(m), pair.psi.check_on(m)
    rows = steps[:, None] * D[:, None]
    X = np.array([p.ambient for p in P])
    m.check_tangent(np.repeat(X, len(steps), axis=0), rows.reshape(-1, N))
    alpha = [norm(phi.second_order(p, d)) for p, d in zip(P, D)]
    V = rows[:, 1:]
    try:
        if phi == psi:
            Y = phi._map_each(P, V)
        else:
            Y = np.concatenate([phi._map_each(P, V[:, :2]),
                                psi._map_each(P, V[:, 2:])], axis=1)
    except OutsideValidityRadius:
        Y = np.full(V.shape, np.nan)
        Y[:, :2] = phi._map_each(P, V[:, :2])
        m.check_feasible(Y[:, :2].reshape(-1, N))
        for p, Yp, Vp in zip(P, Y[:, 2:], V[:, 2:]):
            for y, v in zip(Yp, Vp):
                try:
                    q = psi._map(p, v[None])
                except OutsideValidityRadius:
                    continue
                m.check_feasible(q)
                y[:] = q[0]
    else:
        m.check_feasible(Y.reshape(-1, N))
    fd = (Y[:, 0] - Y[:, 1]) / (2.0 * steps[1])
    Z = Y[:, 2:] - X[:, None] - steps[3:, None] * D[:, None]
    return anchor, row_norms(fd - D), alpha, row_norms(Z.reshape(-1, N))


def audit_conditions(pair: ParametrizationPair, m: ManifoldDescriptor,
                     sample_points: int, sample_radii, seed: int) -> AuditReport:
    """Finite-sample audit of the pair's defining conditions.

    Per sampled base point and tangent direction: checks phi_p(0) = p,
    estimates ||D phi_p(0) - I|| by central differences, bounds the
    second-order term, and measures ||psi_p(y) - p - y|| against ||y||^2
    over the given radii. The result is sampling evidence, not a proof:
    finitely many base points cannot rule out non-uniformity between them.
    A zero-dimensional manifold has no direction to sample: ManifoldMismatch.

    The samples are drawn in turn from one prefetched block of the stream,
    then checked and mapped in one `_sweep`. A radius where psi trips its
    guard is dropped; any other error propagates, the first sample's.
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
        anchor, dphi, alpha, resid = _sweep(pair, m, P, G, steps)
    except (GnewtonError, ValueError):
        for i in range(sample_points):  # the first sample that raises alone
            _sweep(pair, m, P[i:i + 1], G[i:i + 1], steps)
        raise
    identity_residual, dphi_residual, alpha_hat = (
        max([0.0] + v) for v in (anchor, dphi, alpha))  # in sample order
    dropped = sum(map(isnan, resid))  # NaN where psi tripped its guard
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
    return AuditReport(alpha_hat=alpha_hat, beta_hat=beta_hat,
                       fitted_slope=fitted_slope,
                       identity_residual=identity_residual,
                       dphi_residual=dphi_residual, pass_flags=flags,
                       samples_dropped=dropped, radii=radii)
