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

from dataclasses import dataclass, field
from functools import lru_cache
from math import cos, isfinite, log, sin

import numpy as np

from .errors import (ChartDomainViolation, OutsideValidityRadius,
                     ProjectionUndefined)
from .manifolds import (ManifoldDescriptor, Point, Sphere, Stiefel,
                        Grassmann, TangentVector, random_unit_tangent,
                        _as_stack, _LivesOn, _OnTheLine, _pair_sums, _sym)
from .linalg import all_finite, norm, polar_factor
from .rates import log_log_fit
from .rng import SplitMix64

_EPS = np.finfo(float).eps

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
    differently.

    `second_order(p, v)` is D^2 phi_p(0)(v, v) and `curvature(p, B, g)` the
    matrix g . D^2 phi_p(0)(b_i, b_j) over B's columns, all a pullback
    Hessian needs of it. As D phi_p(0) = I, the normal part is the
    manifold's second fundamental form for every kind, so that is the
    default; the second-order retractions (projection, geodesic, recentred)
    have no tangential part, and other kinds add theirs.
    """

    def apply(self, v: TangentVector) -> Point:
        p = v.base
        self.check_on(p.manifold)
        if norm(v.ambient) == 0.0:
            return p
        return Point(p.manifold, self._map(p, v.ambient[None])[0])

    def second_order(self, p: Point, v: np.ndarray) -> np.ndarray:
        return p.manifold.second_fundamental_form(p, v)

    def curvature(self, p: Point, B: np.ndarray, g: np.ndarray) -> np.ndarray:
        return p.manifold.weingarten(p, B, g)


class _LineTerms(_OnTheLine, _Kind):
    """Kinds on the line: the basis is the single column (1,), so C is the
    second-order term itself, contracted with g."""

    def curvature(self, p: Point, B: np.ndarray, g: np.ndarray) -> np.ndarray:
        return np.array([[float(g @ self.second_order(p, B[:, 0]))]])


@dataclass(frozen=True)
class Projection(_Kind):
    """Closest-point projection of p + v back onto the manifold.

    For an exactly tangent v the projection is always defined:
    |p + v|^2 = 1 + |v|^2 on the sphere, and X^T V + V^T X = 0 gives
    (X + V)^T (X + V) = I + V^T V on Stiefel and Grassmann, so the norm or
    smallest singular value of p + v is at least 1. PROJECTION_GUARD can
    therefore trip only when rounding has broken the tangency of v.
    """
    name = "projection"

    def _map(self, p: Point, V: np.ndarray) -> np.ndarray:
        return p.manifold._project(p.ambient + V, PROJECTION_GUARD)


@dataclass(frozen=True)
class SphereGeodesic(_Kind):
    """Great-circle map cos(|v|) p + sin(|v|) v/|v| (sphere only)."""
    name = "sphere_geodesic"
    manifolds = (Sphere,)

    def _map(self, p: Point, V: np.ndarray) -> np.ndarray:
        norms = [norm(v) for v in V]
        c = np.array([cos(nv) for nv in norms])[:, None]
        s = np.array([sin(nv) for nv in norms])[:, None]
        return c * p.ambient + s * (V / np.array(norms)[:, None])


@dataclass(frozen=True)
class QR(_Kind):
    """Orthonormal factor of p + v with positive-diagonal R.

    Differentiating X + tV = Q R at t = 0 for a tangent V gives R' = 0 and
    Q' = V, and then Q'' = -X (2 triu(M, 1) + diag(M)) with M = V^T V.
    Beside the normal part II = -X M that leaves the tangential term
    T(V, V) = X (tril(M, -1) - triu(M, 1)); with one column (the sphere) it
    is 0 and QR is normalisation.
    """
    name = "qr"
    manifolds = (Sphere, Stiefel, Grassmann)

    def _map(self, p: Point, V: np.ndarray) -> np.ndarray:
        """One stacked QR; LAPACK factors each matrix of the stack alone."""
        m = p.manifold
        k = V.shape[0]
        Q, R = np.linalg.qr((p.ambient + V).reshape(k, m.p, m.n)
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


@dataclass(frozen=True)
class Custom1D(_LineTerms):
    """One-dimensional map y -> x + t + sum_k c_k t^k with t the tangent
    displacement; coeffs[k-1] multiplies t^k, so a nonzero first entry
    deliberately breaks D phi(0) = I (used to exercise the audit)."""
    name = "custom1d"
    coeffs: tuple = ()

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not all(isfinite(c) for c in coeffs):
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "coeffs", coeffs)

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


@dataclass(frozen=True)
class ExampleBeta(_LineTerms):
    """One-dimensional family x + t + (beta/x) t^2, the identity at x = 0."""
    name = "example_beta"
    beta: float

    def __post_init__(self):
        if not isfinite(self.beta):
            raise ValueError("beta must be finite")

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


@dataclass(frozen=True)
class Recentred(_Kind):
    """Sphere pair obtained by rotating a base pair anchored at e1: the map
    at p is g . base_{e1}(g^T v) for a seeded rotation g with g e1 = p.
    Rotation keeps the base's second-order term, which is the sphere's."""
    name = "recentred"
    manifolds = (Sphere,)
    base: object
    rotation_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.base, (Projection, SphereGeodesic)):
            raise ValueError("recentred base must be projection or geodesic")

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


@dataclass(frozen=True, eq=False)
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
    pole: np.ndarray

    def __post_init__(self):
        q = np.array(self.pole, dtype=float)
        if not all_finite(q):
            raise ValueError("pole must be finite")
        if q.ndim != 1 or abs(norm(q) - 1.0) > 1e-10:
            raise ValueError("pole must be a unit vector")
        q.setflags(write=False)
        object.__setattr__(self, "pole", q)

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


@dataclass(frozen=True)
class ParametrizationPair:
    phi: object
    psi: object


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


@dataclass(frozen=True)
class AuditReport:
    alpha_hat: float
    beta_hat: float
    fitted_slope: float
    identity_residual: float
    dphi_residual: float
    pass_flags: dict = field(compare=False)
    samples_dropped: int = 0
    radii: tuple = ()

    @property
    def all_pass(self) -> bool:
        return all(self.pass_flags.values())


def _sample(pair: ParametrizationPair, p: Point, d: np.ndarray,
            steps: np.ndarray):
    """One audit sample with one `_map` call per kind (one in all when phi
    and psi are the same map). The rows steps[i] d are d itself (steps[0]
    is 1), +-h d and r d, checked by TangentVector's rule; the mapped rows
    are checked by Point's, in row order. No row is zero (d is a unit
    vector and every step is at least 1e-6), so none needs apply's anchor.

    Where the call raises OutsideValidityRadius, phi's two rows are mapped
    again, so a phi trip propagates, and then each psi row alone: a row
    where psi trips its guard is None. -> (plus, minus, alpha, psi rows)"""
    m = p.manifold
    phi, psi = pair.phi.check_on(m), pair.psi.check_on(m)
    D = steps[:, None] * d
    m.check_tangent(p.ambient, D)
    V = D[1:]
    alpha = norm(phi.second_order(p, d))
    try:
        if phi == psi:
            Y = phi._map(p, V)
        else:
            Y = np.concatenate([phi._map(p, V[:2]), psi._map(p, V[2:])])
    except OutsideValidityRadius:
        Y = phi._map(p, V[:2])
        m.check_feasible(Y)
        rows = []
        for v in V[2:]:
            try:
                q = psi._map(p, v[None])
            except OutsideValidityRadius:
                rows.append(None)
                continue
            m.check_feasible(q)
            rows.append(q[0])
        return Y[0], Y[1], alpha, rows
    m.check_feasible(Y)
    return Y[0], Y[1], alpha, list(Y[2:])


def audit_conditions(pair: ParametrizationPair, m: ManifoldDescriptor,
                     sample_points: int, sample_radii, seed: int) -> AuditReport:
    """Finite-sample audit of the pair's defining conditions.

    Per sampled base point and tangent direction: checks phi_p(0) = p,
    estimates ||D phi_p(0) - I|| by central differences, bounds the
    second-order term, and measures ||psi_p(y) - p - y|| against ||y||^2
    over the given radii. The result is sampling evidence, not a proof:
    finitely many base points cannot rule out non-uniformity between them.
    A zero-dimensional manifold has no direction to sample: ManifoldMismatch.

    Each sample maps all its displacements in one stacked call per kind.
    A radius where psi trips its guard is dropped; any other error
    propagates.
    """
    radii = tuple(float(r) for r in sample_radii)
    if not all(isfinite(r) for r in radii):
        raise ValueError("sample_radii must be finite")
    if any(r <= 0 for r in radii):
        raise ValueError("sample_radii must be positive")
    if len(radii) < 2 or any(a <= b for a, b in zip(radii, radii[1:])):
        raise ValueError("need two or more strictly descending sample_radii")
    if min(radii) < 1e-6:
        raise ValueError("smallest radius must be >= 1e-6")
    if sample_points < 1:
        raise ValueError("sample_points must be >= 1")

    rng = SplitMix64(seed)
    identity_residual = 0.0
    dphi_residual = 0.0
    alpha_hat = 0.0
    beta_hat = 0.0
    dropped = 0
    log_r, log_resid = [], []
    h = _EPS ** (1.0 / 3.0)
    steps = np.array((1.0, h, -h) + radii)

    for _ in range(sample_points):
        p = m.sample_point(rng)
        d = random_unit_tangent(p, rng)

        q0 = apply_phi(pair, TangentVector(p, np.zeros(m.ambient_dim)))
        identity_residual = max(identity_residual,
                                norm(q0.ambient - p.ambient))

        plus, minus, alpha, rows = _sample(pair, p, d, steps)

        fd = (plus - minus) / (2.0 * h)
        dphi_residual = max(dphi_residual, norm(fd - d))
        alpha_hat = max(alpha_hat, alpha)

        for r, q in zip(radii, rows):
            if q is None:
                dropped += 1
                continue
            resid = norm(q - p.ambient - r * d)
            # the ambient subtraction leaves ~1e-16 rounding residue even
            # when psi is exact (p + y computed then re-subtracted); below
            # this floor the residual is indistinguishable from zero and
            # must not be fitted, or an exact pair fails its own audit
            if resid <= 1e-14:
                continue
            beta_hat = max(beta_hat, resid / (r * r))
            log_r.append(log(r))
            log_resid.append(log(resid))

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
