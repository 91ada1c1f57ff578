from itertools import permutations

import numpy as np
import pytest

from gnewton.costs import (AbsPower, BrockettTrace, GrassmannTrace, Quadratic,
                           ShiftedCubic, ambient_gradient, ambient_hessian_vec,
                           value)
from gnewton.errors import ManifoldMismatch, NotTwiceDifferentiable
from gnewton.linalg import symmetric_eigen
from gnewton.manifolds import (Point, euclidean, grassmann, random_point,
                               sphere, stiefel)
from gnewton.parametrizations import QR
from gnewton.rng import SplitMix64

E6 = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


def test_quadratic_value_gradient_hessian():
    c = Quadratic(np.diag([1.0, 3.0]), np.array([0.5, 0.0]))
    p = Point(euclidean(2), np.array([1.0, 2.0]))
    assert value(c, p) == 0.5 * (1.0 + 12.0) + 0.5
    assert np.array_equal(ambient_gradient(c, p), [1.5, 6.0])
    assert np.array_equal(ambient_hessian_vec(c, p, np.array([1.0, 1.0])), [1.0, 3.0])


def test_quadratic_defaults_b_to_zero():
    c = Quadratic(np.eye(2))
    assert np.array_equal(c.b, np.zeros(2))


def test_quadratic_rejects_asymmetric():
    with pytest.raises(ValueError):
        Quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]))
    # also where |A|_F overflows or underflows to 0
    for scale in (1e200, 1e-170):
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="^A must be symmetric$"):
            Quadratic(scale * np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_hessian_is_one_exactly_symmetric_matrix():
    """every cost's one Hessian hook against its closed form: (A + A^T) / 2
    for Quadratic, kron(diag(w), A + A^T) for the trace costs (w the
    diagonal of N, or ones) and the line costs' 1 x 1 second derivatives;
    each exactly symmetric, and a bound one shared read-only"""
    A = np.array([[1.0, 2.0], [2.0 + 1e-12, 3.0]])
    c = Quadratic(A)
    p = Point(euclidean(2), np.array([1.0, 2.0]))
    A6 = E6 + np.diag([1e-13] * 5, 1)  # symmetric within SYM_RTOL only
    w = np.array([3.0, 2.0, 1.0])
    B = BrockettTrace(A6, np.diag(w))
    G = GrassmannTrace(A6)
    X = np.eye(6)[:, :3].flatten(order="F")
    q, r = Point(stiefel(6, 3), X), Point(grassmann(6, 3), X)
    x = 0.25
    line = Point(euclidean(1), np.array([x]))
    cases = ((c, p, 0.5 * (A + A.T)),
             (B, q, np.kron(np.diag(w), A6 + A6.T)),
             (G, r, np.kron(np.diag(np.ones(3)), A6 + A6.T)),
             (ShiftedCubic(0.5), line, [[2.0 + 12.0 * (x - 0.5)]]),
             (AbsPower(), line, [[2.0 + 3.75 * np.sqrt(x)]]))
    for cost, point, expected in cases:
        H = cost.hessian(point)
        assert np.array_equal(H, expected), cost.name
        assert np.array_equal(H, H.T), cost.name
    for cost, point in ((c, p), (B, q)):
        M = cost.hessian(point)
        assert M is cost.hessian(point) and not M.flags.writeable


def test_hessian_vec_is_the_hessian_times_the_directions():
    """ambient_hessian_vec is hessian(p) @ D to the bit, for one direction
    and for a block of them"""
    rng = SplitMix64(3)
    S = np.array(rng.gaussians(36)).reshape(6, 6)
    S = S + S.T
    cases = ((Quadratic(S), random_point(sphere(6), 1)),
             (BrockettTrace(S, np.diag([2.0, 1.0])),
              random_point(stiefel(6, 2), 1)),
             (GrassmannTrace(E6), random_point(grassmann(6, 2), 1)),
             (ShiftedCubic(0.5), Point(euclidean(1), np.array([0.25]))),
             (AbsPower(), Point(euclidean(1), np.array([0.25]))))
    for c, p in cases:
        N = p.manifold.ambient_dim
        for D in (np.array(rng.gaussians(N)),
                  np.array(rng.gaussians(3 * N)).reshape(N, 3)):
            got = ambient_hessian_vec(c, p, D)
            assert got.tobytes() == (c.hessian(p) @ D).tobytes(), c.name


def test_matrix_costs_refuse_an_empty_a():
    """a 0 x 0 A fits no manifold: each matrix cost names it"""
    A = np.zeros((0, 0))
    for build in (Quadratic, lambda A: BrockettTrace(A, np.eye(1)),
                  GrassmannTrace):
        with pytest.raises(ValueError, match="^A must not be empty$"):
            build(A)


def test_brockett_value_at_swapped_eigenvectors():
    c = BrockettTrace(E6, np.diag([1.0, 2.0]))
    X = np.eye(6)[:, [1, 0]]  # [e2, e1]
    p = Point(stiefel(6, 2), X.flatten(order="F"))
    assert abs(value(c, p) - 4.0) <= 1e-15  # 1*lam2 + 2*lam1 = 2 + 2


def test_brockett_minimum_by_permutation_enumeration():
    """exhaustive oracle over eigenvector-column assignments, n=6 p=2"""
    c = BrockettTrace(E6, np.diag([1.0, 2.0]))
    lam, V = symmetric_eigen(E6)
    m = stiefel(6, 2)
    best = np.inf
    for idx in permutations(range(6), 2):
        X = np.column_stack([V[:, idx[0]], V[:, idx[1]]])
        best = min(best, value(c, Point(m, X.flatten(order="F"))))
    assert abs(best - 4.0) <= 1e-12


def test_brockett_constructor_validation():
    with pytest.raises(ValueError):
        BrockettTrace(E6, np.array([[1.0, 0.5], [0.5, 2.0]]))  # not diagonal
    with pytest.raises(ValueError):
        BrockettTrace(E6, np.diag([2.0, 2.0]))  # repeated weights
    with pytest.raises(ValueError):
        BrockettTrace(E6, np.diag([1.0, -1.0]))  # non-positive weight


def test_grassmann_trace_value_and_invariance():
    c = GrassmannTrace(E6)
    m = grassmann(6, 2)
    X = np.eye(6)[:, :2]
    p = Point(m, X.flatten(order="F"))
    assert abs(value(c, p) - 3.0) <= 1e-15  # lam1 + lam2
    rng = SplitMix64(5)
    for _ in range(100):
        th = 2.0 * np.pi * rng.uniform()
        Q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        pq = Point(m, (X @ Q).flatten(order="F"))
        assert abs(value(c, pq) - value(c, p)) <= 1e-12


def test_grassmann_trace_rejects_degenerate_spectrum():
    with pytest.raises(ValueError):
        GrassmannTrace(np.eye(3))


def test_abs_power_oracles():
    c = AbsPower()
    p = Point(euclidean(1), np.array([0.25]))
    assert abs(value(c, p) - (0.0625 + 0.25 ** 2.5)) <= 1e-17
    assert abs(ambient_gradient(c, p)[0] - 0.8125) <= 1e-16
    assert abs(ambient_hessian_vec(c, p, np.ones(1))[0] - 3.875) <= 1e-15
    # even function: gradient flips sign
    q = Point(euclidean(1), np.array([-0.25]))
    assert abs(ambient_gradient(c, q)[0] + 0.8125) <= 1e-16


def test_abs_power_no_second_derivative_at_zero():
    c = AbsPower()
    p = Point(euclidean(1), np.zeros(1))
    assert value(c, p) == 0.0
    assert ambient_gradient(c, p)[0] == 0.0
    with pytest.raises(NotTwiceDifferentiable):
        ambient_hessian_vec(c, p, np.ones(1))


def test_shifted_cubic_oracles():
    c = ShiftedCubic(0.0)
    p = Point(euclidean(1), np.array([0.1]))
    assert abs(value(c, p) - 0.012) <= 1e-17
    assert abs(ambient_gradient(c, p)[0] - 0.26) <= 1e-16
    assert abs(ambient_hessian_vec(c, p, np.ones(1))[0] - 3.2) <= 1e-15
    c2 = ShiftedCubic(1.5)
    assert value(c2, Point(euclidean(1), np.array([1.5]))) == 0.0


def test_manifold_mismatch():
    c = Quadratic(np.eye(6))
    with pytest.raises(ManifoldMismatch):
        value(c, random_point(stiefel(6, 2), 0))
    cb = BrockettTrace(E6, np.diag([1.0, 2.0]))
    with pytest.raises(ManifoldMismatch):
        value(cb, random_point(sphere(6), 0))
    with pytest.raises(ManifoldMismatch):
        value(AbsPower(), Point(euclidean(2), np.zeros(2)))


def test_costs_separate_stiefel_from_grassmann():
    """Grassmann shares the frame code of Stiefel but is no Stiefel
    manifold: each trace cost lives on its own, while QR lives on both."""
    for n, k in ((6, 2), (5, 1), (4, 4)):
        A = np.diag(np.arange(1.0, n + 1.0))
        brockett = BrockettTrace(A, np.diag(np.arange(1.0, k + 1.0)))
        trace = GrassmannTrace(A)
        assert brockett.valid_on(stiefel(n, k))
        assert not brockett.valid_on(grassmann(n, k))
        assert trace.valid_on(grassmann(n, k))
        assert not trace.valid_on(stiefel(n, k))
        assert QR().valid_on(stiefel(n, k)) and QR().valid_on(grassmann(n, k))
        with pytest.raises(ManifoldMismatch):
            value(brockett, random_point(grassmann(n, k), 0))
        with pytest.raises(ManifoldMismatch):
            value(trace, random_point(stiefel(n, k), 0))


def test_quadratic_sphere_truth_needs_b_zero():
    """With b != 0 the eigenvector of A's smallest eigenvalue is no
    critical point on the sphere, and the sphere has no closed form."""
    A = np.diag([1.0, 2.0, 3.0])
    b = np.array([0.0, 0.5, 0.0])
    m = sphere(3)
    e1 = Point(m, np.array([1.0, 0.0, 0.0]))
    g = ambient_gradient(Quadratic(A, b), e1)
    assert np.linalg.norm(g - (g @ e1.ambient) * e1.ambient) == 0.5
    assert Quadratic(A, b).truth(m) is None
    assert abs(Quadratic(A).truth(m).ambient[0]) == 1.0
    x = Quadratic(A, b).truth(euclidean(3)).ambient
    assert np.allclose(A @ x + b, 0.0, atol=1e-15)


def _fd_grad(c, p, h=1e-6):
    m = p.manifold
    n = m.ambient_dim
    g = np.zeros(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        # probe in ambient space: value() only needs a Point container, so
        # use the euclidean wrapper of matching dimension for off-manifold x
        g[i] = (_val(c, p.ambient + e) - _val(c, p.ambient - e)) / (2.0 * h)
    return g


def _val(c, x):
    # costs are smooth ambient functions; evaluate off-manifold via the
    # euclidean container of the right length
    m = euclidean(len(x))
    if isinstance(c, Quadratic):
        return value(Quadratic(c.A, c.b), Point(m, x)) if len(x) == c.A.shape[0] else None
    return _AMBIENT[type(c)](c, x)


_AMBIENT = {
    BrockettTrace: lambda c, x: float(np.trace(
        x.reshape(c.A.shape[0], -1, order="F").T @ c.A
        @ x.reshape(c.A.shape[0], -1, order="F") @ c.N)),
    GrassmannTrace: lambda c, x: float(np.trace(
        x.reshape(c.A.shape[0], -1, order="F").T @ c.A
        @ x.reshape(c.A.shape[0], -1, order="F"))),
    AbsPower: lambda c, x: float(x[0] ** 2 + abs(x[0]) ** 2.5),
    ShiftedCubic: lambda c, x: float((x[0] - c.z) ** 2 + 2.0 * (x[0] - c.z) ** 3),
}


def _case_points(seed_count=100):
    cases = [
        (Quadratic(E6), sphere(6)),
        (BrockettTrace(E6, np.diag([1.0, 2.0])), stiefel(6, 2)),
        (GrassmannTrace(E6), grassmann(6, 2)),
        (AbsPower(), euclidean(1)),
        (ShiftedCubic(0.3), euclidean(1)),
    ]
    for c, m in cases:
        for seed in range(seed_count):
            p = random_point(m, seed)
            if isinstance(c, AbsPower) and abs(p.ambient[0]) < 1e-2:
                continue  # second derivative blows up near the kink
            yield c, p


def test_gradient_matches_finite_differences():
    for c, p in _case_points(100):
        g = ambient_gradient(c, p)
        fd = _fd_grad(c, p)
        assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g)), type(c).__name__


def test_hessian_vec_matches_gradient_differences():
    rng = SplitMix64(21)
    for c, p in _case_points(20):
        n = p.manifold.ambient_dim
        d = rng.gaussians(n)
        d = d / np.linalg.norm(d)
        h = 1e-5
        pp = Point(euclidean(n), p.ambient + h * d)
        pm = Point(euclidean(n), p.ambient - h * d)
        cn = c if not isinstance(c, Quadratic) else Quadratic(c.A, c.b)
        fd = (_grad_any(cn, pp) - _grad_any(cn, pm)) / (2.0 * h)
        hv = ambient_hessian_vec(c, p, d)
        assert np.linalg.norm(hv - fd) <= 1e-5 * max(1.0, np.linalg.norm(hv)), type(c).__name__


def _grad_any(c, p):
    # ambient gradient formulas hold off-manifold too
    x = p.ambient
    if isinstance(c, Quadratic):
        return c.A @ x + c.b
    if isinstance(c, BrockettTrace):
        X = x.reshape(c.A.shape[0], -1, order="F")
        return (2.0 * c.A @ X @ c.N).flatten(order="F")
    if isinstance(c, GrassmannTrace):
        X = x.reshape(c.A.shape[0], -1, order="F")
        return (2.0 * c.A @ X).flatten(order="F")
    if isinstance(c, AbsPower):
        t = x[0]
        return np.array([2.0 * t + 2.5 * abs(t) ** 1.5 * np.sign(t)])
    d = x[0] - c.z
    return np.array([2.0 * d + 6.0 * d * d])
