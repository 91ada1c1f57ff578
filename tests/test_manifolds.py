from itertools import product

import numpy as np
import pytest

from gnewton.errors import (InfeasiblePoint, ManifoldMismatch,
                            ProjectionUndefined)
from gnewton.manifolds import (Point, TangentVector, distance, euclidean,
                               grassmann, project_to_manifold, random_point,
                               sphere, stiefel, tangent_basis,
                               tangent_gaussians,
                               _orthonormality_residual)
from gnewton.rng import SplitMix64

ALL = [euclidean(4), sphere(5), stiefel(4, 2), grassmann(5, 2)]


def test_descriptor_dims():
    assert euclidean(3).ambient_dim == 3 and euclidean(3).intrinsic_dim == 3
    assert sphere(4).ambient_dim == 4 and sphere(4).intrinsic_dim == 3
    m = stiefel(5, 2)
    assert m.ambient_dim == 10 and m.intrinsic_dim == 10 - 3  # np - p(p+1)/2
    g = grassmann(5, 2)
    assert g.ambient_dim == 10 and g.intrinsic_dim == 6  # p(n-p)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        stiefel(2, 3)
    with pytest.raises(ValueError):
        euclidean(0)


def test_point_rejects_infeasible():
    with pytest.raises(ValueError):
        Point(sphere(3), np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        Point(stiefel(3, 2), np.ones(6))
    with pytest.raises(ValueError):
        Point(sphere(3), np.array([np.nan, 0.0, 0.0]))


def test_infeasibility_is_typed():
    """off-manifold, non-finite and non-tangent coordinates raise
    InfeasiblePoint (a ValueError); a wrong length is a plain ValueError"""
    with pytest.raises(InfeasiblePoint):
        Point(sphere(3), np.array([1.0, 1.0, 0.0]))
    with pytest.raises(InfeasiblePoint):
        Point(stiefel(3, 2), np.full(6, np.inf))
    p = Point(sphere(3), np.eye(3)[:, 0])
    with pytest.raises(InfeasiblePoint):
        TangentVector(p, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(InfeasiblePoint):
        TangentVector(p, np.array([0.0, np.nan, 0.0]))
    for make in (lambda: Point(sphere(3), np.ones(2)),
                 lambda: TangentVector(p, np.zeros(4))):
        with pytest.raises(ValueError) as exc:
            make()
        assert not isinstance(exc.value, InfeasiblePoint)


def test_point_as_matrix_column_major():
    X = np.eye(3)[:, :2]
    p = Point(stiefel(3, 2), X.flatten(order="F"))
    assert np.array_equal(p.as_matrix(), X)


def test_tangent_vector_rejects_non_tangent():
    p = Point(sphere(3), np.eye(3)[:, 0])
    with pytest.raises(ValueError):
        TangentVector(p, np.array([1.0, 0.0, 0.0]))  # radial, not tangent
    v = TangentVector(p, np.array([0.0, 2.0, 0.0]))
    assert v.norm == 2.0


def test_tangent_basis_coordinate_sphere():
    # tangent space at e1 is span{e2, e3}
    B = tangent_basis(Point(sphere(3), np.eye(3)[:, 0]))
    assert B.columns.shape == (3, 2)
    assert np.allclose(np.abs(B.columns[0]), 0.0, atol=1e-14)


def test_tangent_basis_euclidean_is_standard():
    B = tangent_basis(Point(euclidean(3), np.array([5.0, -2.0, 0.0])))
    assert np.array_equal(B.columns, np.eye(3))


def test_tangent_basis_stiefel_dimension_and_skewness():
    X = np.eye(3)[:, :2]
    p = Point(stiefel(3, 2), X.flatten(order="F"))
    B = tangent_basis(p)
    assert B.columns.shape == (6, 3)
    for j in range(3):
        V = B.columns[:, j].reshape(3, 2, order="F")
        S = X.T @ V
        assert np.linalg.norm(S + S.T) <= 1e-10


def test_tangent_basis_random_points():
    """orthonormality + tangency on 100 random points per manifold"""
    for m in ALL:
        for seed in range(100):
            p = random_point(m, seed)
            B = tangent_basis(p)
            k = B.columns.shape[1]
            assert np.linalg.norm(B.columns.T @ B.columns - np.eye(k)) <= 1e-10
            for j in range(k):
                TangentVector(p, B.columns[:, j])  # raises if not tangent


def test_tangent_basis_near_axis_sphere():
    # regression: points nearly aligned with a coordinate axis used to lose
    # orthogonality to cancellation in the basis completion
    for eps in (1e-7, 1e-9, 1e-12):
        x = np.array([1.0, eps, -eps, eps * 0.5, 0.0, 0.0])
        p = project_to_manifold(sphere(6), x)
        B = tangent_basis(p)
        assert np.linalg.norm(B.columns.T @ B.columns - np.eye(5)) <= 1e-10
        assert np.linalg.norm(B.columns.T @ p.ambient) <= 1e-10


def test_project_sphere_example():
    p = project_to_manifold(sphere(2), np.array([3.0, 4.0]))
    assert np.allclose(p.ambient, [0.6, 0.8], atol=1e-15)


def test_project_stiefel_example():
    p = project_to_manifold(stiefel(2, 2), np.diag([2.0, 0.5]).flatten(order="F"))
    assert np.allclose(p.as_matrix(), np.eye(2), atol=1e-12)


def test_project_zero_vector_undefined():
    with pytest.raises(ProjectionUndefined):
        project_to_manifold(sphere(2), np.zeros(2))


def test_project_rank_deficient_undefined():
    M = np.column_stack([np.ones(3), np.ones(3)])
    with pytest.raises(ProjectionUndefined):
        project_to_manifold(stiefel(3, 2), M.flatten(order="F"))


def test_project_idempotent():
    for m in ALL:
        for seed in range(30):
            p = random_point(m, seed)
            q = project_to_manifold(m, p.ambient)
            assert np.linalg.norm(q.ambient - p.ambient) <= 1e-12


def test_distance_examples():
    m = sphere(2)
    e1 = Point(m, np.array([1.0, 0.0]))
    e2 = Point(m, np.array([0.0, 1.0]))
    assert distance(e1, e1) == 0.0
    assert abs(distance(e1, e2) - np.sqrt(2.0)) <= 1e-15
    g = grassmann(3, 1)
    a = Point(g, np.eye(3)[:, 0])
    b = Point(g, -np.eye(3)[:, 0])
    assert distance(a, b) == 0.0  # same subspace, different representative


def test_distance_mismatch():
    with pytest.raises(ManifoldMismatch):
        distance(Point(sphere(3), np.eye(3)[:, 0]),
                 Point(euclidean(3), np.eye(3)[:, 0]))


def test_grassmann_distance_representative_invariance():
    m = grassmann(5, 2)
    p = random_point(m, 3)
    q = random_point(m, 4)
    d0 = distance(p, q)
    rng = SplitMix64(11)
    for _ in range(100):
        # random 2x2 orthogonal: rotation, sometimes a flip
        th = 2.0 * np.pi * rng.uniform()
        Q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        if rng.next_u64() % 2:
            Q[:, 1] = -Q[:, 1]
        Xq = p.as_matrix() @ Q
        pq = Point(m, Xq.flatten(order="F"))
        assert abs(distance(pq, q) - d0) <= 1e-12


def test_random_point_deterministic_and_feasible():
    for m in ALL:
        a = random_point(m, 7)
        b = random_point(m, 7)
        assert np.array_equal(a.ambient, b.ambient)
    # 1000-seed feasibility sweep on the sphere (Point() validates residual)
    m = sphere(6)
    for seed in range(1000):
        random_point(m, seed)


def test_random_point_seeds_differ():
    m = stiefel(4, 2)
    pts = [random_point(m, s) for s in range(20)]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert distance(pts[i], pts[j]) > 1e-6


# the seeds of the frame residual stacks: each seed draws a 5-row stack
FRAME_RESIDUAL_SEEDS = range(8)


def test_orthonormality_residual_is_gram_minus_identity_bit_for_bit():
    """Taking 1 off the Gram diagonal in place gives the bits of
    ||A^T A - I||_F, on tangent bases, Stiefel points and arbitrary
    matrices (where the residual is far from 0). A frame's stacked
    residual hooks give, row for row, the bits of ||X^T X - I||_F and of
    the tangency formula, ||X^T V + V^T X||_F on Stiefel and ||X^T V||_F
    on Grassmann, on 5-row stacks of frames (every other row moved 1e-9
    off the manifold) at their own rows or at one row for all."""
    def old(A):
        return np.linalg.norm(A.T @ A - np.eye(A.shape[1]))

    for m in (sphere(7), stiefel(6, 3), stiefel(4, 4), grassmann(8, 2),
              sphere(1)):
        for seed in range(10):
            p = random_point(m, seed)
            B = tangent_basis(p).columns
            assert _orthonormality_residual(B) == old(B)
            if m.kind != "sphere":
                X = p.as_matrix()
                assert m.feasibility_residuals(p.ambient[None])[0] == old(X)
                assert _orthonormality_residual(X) == old(X)
    formulas = {"stiefel": lambda X, V: np.linalg.norm(X.T @ V + V.T @ X),
                "grassmann": lambda X, V: np.linalg.norm(X.T @ V)}
    for (n, k), make in product(((3, 3), (5, 2), (7, 3), (12, 3), (20, 4),
                                 (6, 1)), (stiefel, grassmann)):
        m = make(n, k)
        tangency = formulas[m.kind]
        for seed in FRAME_RESIDUAL_SEEDS:
            rng = SplitMix64(seed)
            X = np.array([random_point(m, 5 * seed + i).ambient
                          for i in range(5)])
            X[1::2] += 1e-9 * rng.gaussians(X[1::2].size).reshape(2, -1)
            V = rng.gaussians(X.size).reshape(X.shape)
            F = [x.reshape(n, k, order="F") for x in X]
            G = [v.reshape(n, k, order="F") for v in V]
            assert m.feasibility_residuals(X) == [old(A) for A in F]
            assert m.tangency_residuals(X, V) == [
                tangency(A, C) for A, C in zip(F, G)]
            assert m.tangency_residuals(X[0], V) == [
                tangency(F[0], C) for C in G]
    rng = SplitMix64(5)
    for n, k in ((5, 2), (9, 4), (3, 3), (6, 1)):
        A = rng.gaussians(n * k).reshape(n, k, order="F")
        assert _orthonormality_residual(A) == old(A) > 0.1


def test_random_point_redraws_ill_conditioned_frames():
    """a frame draw so ill-conditioned that its polar factor misses
    FEAS_TOL is drawn again, like an undefined projection, not raised;
    every other seed keeps its first draw"""
    from gnewton.manifolds import FEAS_TOL
    for m, seeds in ((stiefel(3, 3), (121, 156, 185, 306, 559)),
                     (stiefel(2, 2), (645, 681))):
        for s in seeds:
            with pytest.raises(InfeasiblePoint):
                m.project(SplitMix64(s).gaussians(m.ambient_dim))
            p = random_point(m, s)
            assert m.feasibility_residuals(p.ambient[None])[0] <= FEAS_TOL
            assert np.array_equal(p.ambient, random_point(m, s).ambient)
        for s in range(50):
            first = m.project(SplitMix64(s).gaussians(m.ambient_dim))
            assert np.array_equal(random_point(m, s).ambient, first.ambient)


def test_random_unit_tangent():
    """one seeded draw: unit, tangent, in the basis' span, and refused
    with a typed error where there is no tangent direction"""
    from gnewton.manifolds import random_unit_tangent
    for m in ALL + [stiefel(2, 2), sphere(2)]:
        for seed in range(5):
            p = random_point(m, seed)
            d = random_unit_tangent(p, SplitMix64(seed))
            assert abs(np.linalg.norm(d) - 1.0) <= 1e-15
            TangentVector(p, d)
            B = tangent_basis(p).columns
            assert np.linalg.norm(d - B @ (B.T @ d)) <= 1e-12
    for m in (sphere(1), stiefel(1, 1), grassmann(3, 3), grassmann(1, 1)):
        assert m.intrinsic_dim == 0
        p = random_point(m, 0)
        with pytest.raises(ManifoldMismatch, match="zero-dimensional"):
            random_unit_tangent(p, SplitMix64(0))


def test_tangent_rule_with_one_base_per_row():
    """check_tangent over rows at their own bases raises what
    TangentVector raises for the first bad row alone"""
    for m in ALL:
        points = [random_point(m, s) for s in range(4)]
        V = np.array([tangent_basis(p).columns[:, 0] for p in points])
        X = np.array([p.ambient for p in points])
        m.check_tangent(X, V)
        if m.kind == "euclidean":
            continue
        bad = V.copy()
        bad[2] = X[2] + 1e-3 * V[2]
        with pytest.raises(InfeasiblePoint) as stacked:
            m.check_tangent(X, bad)
        with pytest.raises(InfeasiblePoint) as alone:
            TangentVector(points[2], bad[2])
        assert str(stacked.value) == str(alone.value)


class _Scripted:
    """An rng whose gaussians are given draws, in turn."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def gaussians(self, k):
        return np.array(self.draws.pop(0), dtype=float)[:k]


def test_tangent_gaussians_draw_again_under_the_floor():
    """a draw g of norm at or under 1e-12 is drawn again, one just over
    it is kept; orthonormal columns keep |B g| = |g| within FEAS_TOL"""
    for m in ALL + [sphere(2)]:
        p = random_point(m, 1)
        k = m.intrinsic_dim
        e = np.eye(k)[0]
        rng = _Scripted(0.0 * e, 1e-13 * e, 5e-13 * e, 1e-12 * e, 3e-12 * e,
                        e)
        assert np.array_equal(tangent_gaussians(p, rng), 3e-12 * e)
        assert len(rng.draws) == 1
        rng = _Scripted(1.2e-12 * e)
        assert np.array_equal(tangent_gaussians(p, rng), 1.2e-12 * e)
