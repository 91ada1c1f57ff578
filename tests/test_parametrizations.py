import json
import tracemalloc
import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np
import pytest

import gnewton.manifolds as manifolds_mod
import gnewton.parametrizations as par_mod
import oracles
from gnewton.cli import main
from gnewton.config import build_audit_params
from gnewton.errors import (ChartDomainViolation, GnewtonError,
                            InfeasiblePoint, ManifoldMismatch,
                            ProjectionUndefined)
from gnewton.linalg import polar_factor
from gnewton.manifolds import (FEAS_TOL, Point, Sphere, TangentVector,
                               euclidean, grassmann, random_point,
                               random_unit_tangent, sphere, stiefel,
                               tangent_basis)
from gnewton.parametrizations import (Custom1D, ExampleBeta,
                                      ParametrizationPair, Projection, QR,
                                      Recentred, SphereGeodesic,
                                      Stereographic, apply_phi, apply_psi,
                                      audit_conditions, pair_label,
                                      recentring_rotation, second_order_term,
                                      _Kind, _seeded_rotation)
from gnewton.rng import SplitMix64


def _pair(kind):
    return ParametrizationPair(kind, kind)


def _cases():
    """(kind, manifold) combinations each kind is valid on"""
    out = []
    for m in (euclidean(3), sphere(4), stiefel(4, 2), grassmann(4, 2)):
        out.append((Projection(), m))
    out.append((SphereGeodesic(), sphere(4)))
    for m in (sphere(4), stiefel(4, 2), grassmann(4, 2)):
        out.append((QR(), m))
    out.append((Custom1D((0.0, -1.0)), euclidean(1)))
    out.append((ExampleBeta(1.0), euclidean(1)))
    out.append((Recentred(Projection(), 3), sphere(4)))
    out.append((Recentred(SphereGeodesic(), 3), sphere(4)))
    out.append((Stereographic(-np.eye(4)[:, 0]), sphere(4)))
    return out


def test_kind_validity_table():
    assert Projection().valid_on(grassmann(5, 2))
    assert not SphereGeodesic().valid_on(euclidean(2))
    assert not Custom1D((1.0,)).valid_on(euclidean(2))  # 1-D only
    assert not Recentred(Projection(), 0).valid_on(stiefel(3, 2))
    assert not QR().valid_on(euclidean(3))
    pole = np.eye(4)[:, 0]
    assert Stereographic(pole).valid_on(sphere(4))
    assert not Stereographic(pole).valid_on(sphere(3))  # pole's dimension
    assert not Stereographic(pole).valid_on(euclidean(4))


def test_labels():
    p = ParametrizationPair(Projection(), SphereGeodesic())
    assert pair_label(p) == "%s+%s" % (Projection().name,
                                       SphereGeodesic().name)


def test_anchor_at_zero_is_exact():
    """phi_p(0) = p bitwise, every kind, 100 random points"""
    for kind, m in _cases():
        for seed in range(100):
            p = random_point(m, seed)
            q = apply_phi(_pair(kind), TangentVector(p, np.zeros(m.ambient_dim)))
            assert np.array_equal(q.ambient, p.ambient), (kind.name, m.kind, seed)


def test_sphere_projection_example():
    p = Point(sphere(2), np.array([1.0, 0.0]))
    v = TangentVector(p, np.array([0.0, 0.5]))
    q = apply_phi(_pair(Projection()), v)
    assert np.allclose(q.ambient, np.array([1.0, 0.5]) / np.sqrt(1.25), atol=1e-15)


def test_projection_needs_no_guard_as_p_plus_v_keeps_full_rank():
    """|p + v|^2 = 1 + |v|^2 on the sphere and (X + V)^T (X + V) = I + V^T V
    on Stiefel and Grassmann, so the smallest singular value of p + v is at
    least 1 for a tangent v. A v pushed off the tangent space along -X u u^T
    by all the tangency rule lets through, FEAS_TOL max(1, |v|), keeps it
    over 0.99 for |v| up to 1e8, also where v moves one column alone (a
    basis column) and leaves the others' singular values near 1"""
    rng = SplitMix64(4)
    for m in (sphere(6), stiefel(6, 2), stiefel(5, 3), grassmann(7, 3)):
        for seed in range(10):
            p = random_point(m, seed)
            X = p.as_matrix()
            B = tangent_basis(p).columns
            d = B @ rng.gaussians(m.intrinsic_dim)
            for scale in 10.0 ** np.arange(-3, 9):
                v = scale * d / np.linalg.norm(d)
                if scale <= 1e6:  # past it, X + v rounds off more
                    M = X + v.reshape(m.n, m.p, order="F")
                    smin = np.linalg.svd(M, compute_uv=False).min()
                    assert smin >= 1.0 - 1e-12, (m, seed, scale, smin)
                    apply_psi(_pair(Projection()), TangentVector(p, v))
                for w, u in product((v, scale * B[:, -1]), np.eye(m.p)):
                    off = -(X @ np.outer(u, u)).flatten(order="F")
                    off *= (0.999 * FEAS_TOL * max(1.0, scale) / m
                            .tangency_residuals(p.ambient[None], off[None])[0])
                    TangentVector(p, w + off)  # the rule lets it through
                    M = X + (w + off).reshape(m.n, m.p, order="F")
                    smin = np.linalg.svd(M, compute_uv=False).min()
                    assert smin >= 0.99, (m, seed, scale, smin)


def test_sphere_geodesic_quarter_turn():
    # unit-speed geodesic from e1 towards e2 for time pi/2 lands at e2
    p = Point(sphere(2), np.array([1.0, 0.0]))
    v = TangentVector(p, np.array([0.0, np.pi / 2.0]))
    q = apply_phi(_pair(SphereGeodesic()), v)
    assert np.allclose(q.ambient, [0.0, 1.0], atol=1e-15)


def test_example_beta_map_value():
    # psi_1(-1/3) with beta = 1: 1 - 1/3 + 1/9 = 7/9
    p = Point(euclidean(1), np.array([1.0]))
    v = TangentVector(p, np.array([-1.0 / 3.0]))
    q = apply_psi(_pair(ExampleBeta(1.0)), v)
    assert abs(q.ambient[0] - 7.0 / 9.0) <= 1e-15


def test_example_beta_identity_at_origin():
    p = Point(euclidean(1), np.array([0.0]))
    v = TangentVector(p, np.array([0.7]))
    q = apply_phi(_pair(ExampleBeta(2.0)), v)
    assert q.ambient[0] == 0.7


def test_custom1d_polynomial():
    # coeffs (0, -1): phi_x(t) = x + t - t^2
    p = Point(euclidean(1), np.array([0.25]))
    v = TangentVector(p, np.array([0.5]))
    q = apply_phi(_pair(Custom1D((0.0, -1.0))), v)
    assert abs(q.ambient[0] - (0.25 + 0.5 - 0.25)) <= 1e-16


def test_qr_on_sphere_matches_projection():
    # 1-column QR with the positive-diagonal convention is normalisation
    m = sphere(5)
    rng = SplitMix64(8)
    for seed in range(20):
        p = random_point(m, seed)
        B = tangent_basis(p)
        v = TangentVector(p, 0.3 * (B.columns @ rng.gaussians(4)))
        a = apply_phi(_pair(QR()), v)
        b = apply_phi(_pair(Projection()), v)
        assert np.linalg.norm(a.ambient - b.ambient) <= 1e-14


@pytest.mark.parametrize("seeds", [range(0, 20), range(20, 40)],
                         ids=["set-on-0-19", "checked-on-20-39"])
def test_qr_step_map_is_apply_within_rounding(seeds):
    """on one column the Newton step's map and QR's apply are one map:
    p + w to (p + w)/|p + w|, byte for byte, for steps from 1e-3 to 1e2 in
    length"""
    for m in (sphere(2), sphere(3), sphere(6), sphere(30), sphere(100),
              stiefel(5, 1), grassmann(4, 1)):
        for seed in seeds:
            p = random_point(m, seed)
            rng = SplitMix64(1000 + seed)
            length = 10.0 ** (2.0 - 5.0 * rng.uniform())
            w = random_unit_tangent(p, rng) * length
            got = QR()._step_map(p, w).ambient
            want = QR().apply(TangentVector(p, w)).ambient
            x = p.ambient + w
            assert got.tobytes() == want.tobytes(), (m, seed)
            assert got.tobytes() == (x / np.linalg.norm(x)).tobytes()


def test_qr_step_map_keeps_apply_off_the_one_column_path():
    """QR's step map is apply's row map: a zero w returns p itself; a frame
    of p > 1 columns maps through LAPACK's QR, to the bit; a non-QR
    manifold is refused before any map, by apply and by the run's and the
    step's entry checks (the step map itself checks nothing); a zero
    column raises apply's error"""
    from gnewton.costs import Quadratic
    from gnewton.newton import Fixed, generalized_newton_step, run_iteration
    kind = QR()
    for m in (sphere(3), stiefel(5, 1), stiefel(4, 2)):
        p = random_point(m, 0)
        assert kind._step_map(p, np.zeros(m.ambient_dim)) is p
    w = 0.3 * tangent_basis(p).columns[:, 1]
    assert (kind._step_map(p, w).ambient.tobytes()
            == kind.apply(TangentVector(p, w)).ambient.tobytes())
    c = Quadratic(np.eye(3))
    for x in (np.zeros(3), np.ones(3)):  # a zero step, and one that moves
        e = Point(euclidean(3), x)
        with pytest.raises(ManifoldMismatch):
            kind.apply(TangentVector(e, np.ones(3)))
        for pair in (ParametrizationPair(Projection(), kind),
                     ParametrizationPair(kind, kind)):
            with pytest.raises(ManifoldMismatch):
                generalized_newton_step(c, pair, e)
            with pytest.raises(ManifoldMismatch):
                run_iteration(c, Fixed(pair), e, 5, 1e-12)
    p = random_point(sphere(3), 0)
    with pytest.raises(ProjectionUndefined, match="rank-deficient QR factor"):
        kind._step_map(p, -p.ambient)


def test_one_column_maps_agree_with_lapack_past_overflow():
    """at |w| = 1e160, 1e200 and 1e300 the squared norm of p + w overflows:
    QR and projection still map to the unit vector, within 2 ulp of
    np.linalg.qr's Q (positive R) in each coordinate, both as maps of the
    row and as the checked apply"""
    m = sphere(6)
    ulp = np.spacing(1.0)
    for seed in range(20):
        p = random_point(m, seed)
        u = random_unit_tangent(p, SplitMix64(100 + seed))
        for length in (1e160, 1e200, 1e300):
            w = length * u
            Q, R = np.linalg.qr((p.ambient + w)[:, None])
            want = Q[:, 0] * np.sign(R[0, 0])
            for kind in (QR(), Projection()):
                with np.errstate(over="ignore"):
                    mapped = kind._at(m, p.ambient, w[None])[0]
                    applied = kind.apply(TangentVector(p, w)).ambient
                assert mapped.tobytes() == applied.tobytes()
                assert np.abs(mapped - want).max() <= 2 * ulp, (seed, length)


@pytest.mark.parametrize("m", [sphere(3), stiefel(5, 1), grassmann(4, 1)],
                         ids=["sphere3", "stiefel5x1", "grassmann4x1"])
def test_a_zero_row_keeps_each_kinds_refusal(m):
    """p + w = 0 is refused with each kind's ProjectionUndefined message,
    for one row and in a stack: projection's on the sphere, QR's on every
    one-column manifold"""
    p = random_point(m, 0)
    W = np.stack([np.zeros(m.ambient_dim), -p.ambient])
    kinds = [(QR(), "rank-deficient QR factor")]
    if m.kind == "sphere":
        kinds.append((Projection(), "cannot project the zero vector"))
    for kind, message in kinds:
        with pytest.raises(ProjectionUndefined, match="^%s$" % message):
            kind._step_map(p, -p.ambient)
        with pytest.raises(ProjectionUndefined, match="^%s$" % message):
            kind._at(m, p.ambient, W)


def test_qr_deterministic():
    m = stiefel(4, 2)
    p = random_point(m, 1)
    B = tangent_basis(p)
    v = TangentVector(p, 0.4 * B.columns[:, 0] + 0.2 * B.columns[:, 2])
    a = apply_phi(_pair(QR()), v)
    b = apply_phi(_pair(QR()), v)
    assert np.array_equal(a.ambient, b.ambient)


def test_recentred_projection_equals_projection():
    """re-centring the projection pair reproduces it (rotation equivariance)"""
    m = sphere(4)
    kind = Recentred(Projection(), 17)
    rng = SplitMix64(31)
    for seed in range(50):
        p = random_point(m, seed)
        B = tangent_basis(p)
        v = TangentVector(p, 0.2 * (B.columns @ rng.gaussians(3)))
        a = apply_phi(_pair(kind), v)
        b = apply_phi(_pair(Projection()), v)
        assert np.linalg.norm(a.ambient - b.ambient) <= 1e-12


def test_recentred_row_rotating_to_zero_maps_to_p():
    """a step along p itself, inside the tangency tolerance, rotates to
    the zero row at e1; the anchor maps it to p, where the geodesic's own
    map divides 0 by 0"""
    m = sphere(5)
    p = Point(m, np.eye(5)[0])
    for seed in range(4):
        kind = Recentred(SphereGeodesic(), seed)
        q = kind.apply(TangentVector(p, 1e-11 * p.ambient))
        assert q.ambient.tobytes() == p.ambient.tobytes()
    with np.errstate(invalid="ignore"):
        assert np.isnan(SphereGeodesic()._at(m, p.ambient,
                                             np.zeros((1, 5)))[0]).all()


def test_stereographic_refuses_a_non_finite_pole():
    """NaN compares false, so it would pass the unit-norm test"""
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^pole must be finite$"):
            Stereographic(np.array([bad, 0.0, 0.0]))


def test_recentring_rotation_properties():
    kind = Recentred(Projection(), 5)
    m = sphere(5)
    for seed in range(20):
        p = random_point(m, seed)
        R = recentring_rotation(kind, p)
        assert np.linalg.norm(R.T @ R - np.eye(5)) <= 1e-12
        assert np.linalg.norm(R[:, 0] - p.ambient) <= 1e-15  # first column is p


def test_seeded_rotation_is_cached_read_only_and_fresh_bits():
    for seed, k in ((0, 5), (5, 4), (7, 1), (123, 29)):
        R = _seeded_rotation(seed, k)
        G = SplitMix64(seed).gaussians(k * k).reshape(k, k, order="F")
        assert np.array_equal(R, polar_factor(G))
        assert _seeded_rotation(seed, k) is R
        with pytest.raises(ValueError):
            R[0, 0] = 0.0


def test_second_order_sphere_example():
    p = Point(sphere(3), np.eye(3)[:, 0])
    v = TangentVector(p, np.eye(3)[:, 1])
    S = second_order_term(_pair(Projection()), v)
    assert np.allclose(S, -np.eye(3)[:, 0], atol=1e-12)
    S = second_order_term(_pair(SphereGeodesic()), v)
    assert np.allclose(S, -np.eye(3)[:, 0], atol=1e-12)


def test_second_order_zero_vector():
    for kind, m in _cases():
        p = random_point(m, 0)
        S = second_order_term(_pair(kind), TangentVector(p, np.zeros(m.ambient_dim)))
        assert np.array_equal(S, np.zeros(m.ambient_dim))


def test_second_order_rejects_kind_invalid_on_manifold():
    p = random_point(stiefel(4, 2), 0)
    v = TangentVector(p, tangent_basis(p).columns[:, 0])
    for kind in (SphereGeodesic(), Custom1D((0.0, 1.0))):
        with pytest.raises(ManifoldMismatch):
            second_order_term(_pair(kind), v)


def test_second_order_stiefel_block():
    X = np.eye(3)[:, :2]
    p = Point(stiefel(3, 2), X.flatten(order="F"))
    V = np.zeros((3, 2))
    V[2, 0] = 1.0  # V^T V = diag(1, 0), X^T V = 0 (skew)
    v = TangentVector(p, V.flatten(order="F"))
    S = second_order_term(_pair(Projection()), v).reshape(3, 2, order="F")
    want = np.zeros((3, 2))
    want[0, 0] = -1.0  # -X (V^T V)
    assert np.allclose(S, want, atol=1e-12)


def test_second_order_custom1d_coefficient():
    p = Point(euclidean(1), np.array([2.0]))
    v = TangentVector(p, np.array([3.0]))
    S = second_order_term(_pair(Custom1D((0.0, -1.0))), v)
    assert abs(S[0] - 2.0 * (-1.0) * 9.0) <= 1e-12  # 2 c2 t^2


def test_second_order_matches_finite_differences():
    """analytic vs central-difference curvature, 100 random unit tangents"""
    h = np.finfo(float).eps ** 0.25
    rng = SplitMix64(444)
    for kind, m in _cases():
        for trial in range(100 // 10):
            p = random_point(m, trial + 1)
            B = tangent_basis(p)
            for _ in range(10):
                d = B.columns @ rng.gaussians(m.intrinsic_dim)
                d = d / np.linalg.norm(d)
                v = TangentVector(p, d)
                S = second_order_term(_pair(kind), v)
                fp = apply_phi(_pair(kind), TangentVector(p, h * d)).ambient
                fm = apply_phi(_pair(kind), TangentVector(p, -h * d)).ambient
                fd = (fp - 2.0 * p.ambient + fm) / (h * h)
                scale = max(1.0, float(np.linalg.norm(fd)))
                assert np.linalg.norm(S - fd) <= 1e-6 * scale, (kind.name, m.kind)


def test_audit_sphere_projection():
    rep = audit_conditions(_pair(Projection()), sphere(6), 20,
                           [1e-1, 1e-2, 1e-3], 42)
    assert 0.4 <= rep.beta_hat <= 0.6
    assert 1.9 <= rep.fitted_slope <= 2.1
    assert rep.identity_residual <= 1e-10
    assert rep.dphi_residual <= 1e-6
    assert rep.all_pass


def test_audit_euclidean_identity_pair():
    # psi(y) = p + y exactly: residuals vanish, slope degenerates to +inf
    rep = audit_conditions(_pair(Projection()), euclidean(3), 10,
                           [1e-1, 1e-2, 1e-3], 1)
    assert rep.beta_hat == 0.0
    assert rep.fitted_slope == np.inf
    assert rep.all_pass


def test_audit_example_beta_curvature():
    # psi_x(y) = x + y + y^2/x: residual y^2/|x|, base points keep |x| in
    # [1/2, 1] so beta_hat lands in [1, 2]
    rep = audit_conditions(_pair(ExampleBeta(1.0)), euclidean(1), 20,
                           [1e-1, 1e-2, 1e-3], 7)
    assert 1.0 <= rep.beta_hat <= 2.0
    assert abs(rep.fitted_slope - 2.0) <= 0.1
    assert rep.all_pass


def test_audit_flags_broken_pair():
    # coeffs (0.1,): phi_x(t) = x + 1.1 t, so Dphi(0) = 1.1 violates the
    # identity-derivative condition by exactly 0.1
    rep = audit_conditions(_pair(Custom1D((0.1,))), euclidean(1), 20,
                           [1e-1, 1e-2, 1e-3], 42)
    assert abs(rep.dphi_residual - 0.1) <= 1e-6
    assert not rep.pass_flags["dphi"]
    assert not rep.all_pass


def test_audit_validates_radii():
    with pytest.raises(ValueError):
        audit_conditions(_pair(Projection()), sphere(3), 5, [1e-3, 1e-2], 0)
    with pytest.raises(ValueError):
        audit_conditions(_pair(Projection()), sphere(3), 5, [1e-1, 1e-8], 0)
    with pytest.raises(ValueError, match="sample_points"):
        audit_conditions(_pair(Projection()), sphere(3), 0, [1e-1, 1e-2], 0)
    # a slope needs two distinct radii: at one radius the fit is a 0/0
    # that rounding turns into any number (0.8 for [1e-1] on this seed)
    for radii in ([1e-1], [1e-1, 1e-1], [1e-1, 1e-2, 1e-2]):
        with pytest.raises(ValueError, match="strictly descending"):
            audit_conditions(_pair(Projection()), sphere(6), 20, radii, 3)
    # refused before anything is drawn, not caught later as non-finite
    # tangent coordinates of a sample
    for radii in ([np.nan, 1e-2], [1e-1, np.nan], [np.inf, 1e-2]):
        with pytest.raises(ValueError, match="sample_radii must be finite"):
            audit_conditions(_pair(Projection()), sphere(6), 20, radii, 3)


def test_audit_slope_needs_two_contributing_radii():
    # psi_x(t) = x + t + 1e-9 t^2: at r = 1e-3 the residual 1e-15 is under
    # the audit's 1e-14 floor, so r = 1e-1 alone contributes, which leaves
    # nothing to fit: a slope from it would be a 0/0 (and a RuntimeWarning)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = audit_conditions(_pair(Custom1D((0.0, 1e-9))), euclidean(1), 5,
                               [1e-1, 1e-3], 0)
    assert rep.fitted_slope == float("inf")
    assert 0.9e-9 <= rep.beta_hat <= 1.1e-9  # the r = 1e-1 residuals count


def test_audit_deterministic():
    a = audit_conditions(_pair(Projection()), stiefel(4, 2), 10,
                         [1e-1, 1e-2, 1e-3], 11)
    b = audit_conditions(_pair(Projection()), stiefel(4, 2), 10,
                         [1e-1, 1e-2, 1e-3], 11)
    assert a.beta_hat == b.beta_hat and a.fitted_slope == b.fitted_slope


def test_h3_slope_all_builtin_pairs():
    """every valid (kind, manifold) shows quadratic-or-better psi residuals"""
    for kind, m in _cases():
        rep = audit_conditions(_pair(kind), m, 10, [1e-1, 1e-2, 1e-3], 3)
        assert rep.fitted_slope >= 1.9, (kind.name, m.kind, rep.fitted_slope)


# --- stacked maps ----------------------------------------------------------------

def _stack(p, rng, k=5):
    """k tangent displacements at p, with norms from 1e-6 to 1."""
    m = p.manifold
    B = tangent_basis(p).columns
    rows = []
    for scale in np.logspace(-6, 0, k):
        d = B @ rng.gaussians(m.intrinsic_dim)
        rows.append(scale * d / np.linalg.norm(d))
    return np.array(rows)


def _interleaved(m, seed, rng):
    """The rows of three points' 4-row stacks, interleaved, and the point
    of each row."""
    points = [random_point(m, 10 * seed + i) for i in range(3)]
    stacks = [_stack(p, rng, 4) for p in points]
    P = [p for _ in range(4) for p in points]
    return P, np.array([V[j] for j in range(4) for V in stacks])


def test_stacked_map_is_bitwise_the_row_map():
    """every kind on every manifold it lives on: _at on a 5-row stack at one
    point, and on the rows of three points interleaved (each at its own
    point's row), gives, row for row, the bytes of _at on that row alone
    and of apply. A recentred row that rotates to zero maps to its point;
    a stereographic row at the pole raises what its one-row call raises"""
    rng = SplitMix64(90)
    for kind, m in _cases() + [(Projection(), euclidean(1)),
                               (Projection(), sphere(6)),
                               (QR(), stiefel(12, 3)), (QR(), grassmann(7, 3))]:
        for seed in range(4):
            p = random_point(m, seed + 1)
            V = _stack(p, rng)
            P, W = _interleaved(m, seed, rng)
            if isinstance(kind, Recentred):  # e1 rotates e1 to zero
                P.insert(5, Point(m, np.eye(m.n)[0]))
                W = np.insert(W, 5, 1e-11 * P[5].ambient, axis=0)
            X = np.array([q.ambient for q in P])
            for base, rows, points in ((p.ambient, V, [p] * len(V)),
                                       (X, W, P)):
                Y = kind._at(m, base, rows)
                assert Y.shape == rows.shape
                for q, v, y in zip(points, rows, Y):
                    assert (kind._at(m, q.ambient, v[None])[0].tobytes()
                            == y.tobytes()), (kind.name, m.kind, seed)
                    r = apply_phi(_pair(kind), TangentVector(q, v))
                    assert r.ambient.tobytes() == y.tobytes()
            if isinstance(kind, Recentred):
                assert Y[5].tobytes() == X[5].tobytes()
            if isinstance(kind, Stereographic):
                X[7] = kind.pole
                with pytest.raises(ChartDomainViolation) as stacked:
                    kind._at(m, X, W)
                with pytest.raises(ChartDomainViolation) as alone:
                    kind._at(m, X[7], W[7][None])
                assert str(stacked.value) == str(alone.value)


# the audit seeds of the kinds whose map was re-written to take a stack
# (Custom1D, ExampleBeta, Recentred on either base, Stereographic); the
# other kinds run at seed 5 alone
REWRITTEN_SEEDS = range(10)


def test_stacked_audit_is_bitwise_the_row_audit():
    """the stacked audit reports what one apply per displacement reports,
    to the bit, for every kind (and a mixed pair) on its manifolds"""
    cases = [(_pair(k), m) for k, m in _cases()]
    cases.append((ParametrizationPair(SphereGeodesic(), QR()), sphere(6)))
    cases.append((ParametrizationPair(Projection(), SphereGeodesic()),
                  sphere(6)))
    rewritten = (Custom1D, ExampleBeta, Recentred, Stereographic)
    for pair, m in cases:
        for seed in (REWRITTEN_SEEDS if isinstance(pair.phi, rewritten)
                     else (5,)):
            args = (pair, m, 6, [1e-1, 1e-2, 1e-3], seed)
            assert repr(audit_conditions(*args)) == repr(
                oracles.audit_rows(*args)), (pair_label(pair), seed)


def test_stacked_row_checks_are_the_point_and_tangent_rules():
    """a bad row of a stack raises the class and message that Point or
    TangentVector raises for that row alone"""
    m = sphere(4)
    p = random_point(m, 3)
    V = _stack(p, SplitMix64(1))
    bad_tangent = V.copy()
    bad_tangent[2] += 1e-3 * p.ambient
    bad_rows = apply_phi(_pair(Projection()), TangentVector(p, V[0])).ambient
    bad_rows = np.array([bad_rows, 1.001 * bad_rows])
    for stack, check, single in (
            (bad_tangent, lambda: m.check_tangent(p.ambient, bad_tangent),
             lambda: TangentVector(p, bad_tangent[2])),
            (bad_rows, lambda: m.check_feasible(bad_rows),
             lambda: Point(m, bad_rows[1]))):
        with pytest.raises(InfeasiblePoint) as stacked:
            check()
        with pytest.raises(InfeasiblePoint) as alone:
            single()
        assert str(stacked.value) == str(alone.value)
    nonfinite = V.copy()
    nonfinite[4, 0] = np.nan
    with pytest.raises(InfeasiblePoint, match="non-finite tangent"):
        m.check_tangent(p.ambient, nonfinite)
    with pytest.raises(InfeasiblePoint, match="non-finite ambient"):
        m.check_feasible(nonfinite)


@dataclass(frozen=True)
class _Drifting(_Kind):
    """Projection whose rows of norm over 0.05 drift off the sphere."""
    name = "drifting"

    def _at(self, m, X, V):
        scale = np.where(np.linalg.norm(V, axis=1) > 0.05, 1.001, 1.0)
        return Projection()._at(m, X, V) * scale[:, None]


def test_audit_raises_the_point_error_of_a_bad_row():
    """the psi row at r = 0.1 is off the sphere: the audit raises what
    Point raises for that row"""
    m = sphere(4)
    with pytest.raises(InfeasiblePoint) as raised:
        audit_conditions(_pair(_Drifting()), m, 3, [1e-1, 1e-2], 0)
    rng = SplitMix64(0)
    p = m.sample_point(rng)
    d = random_unit_tangent(p, rng)
    with pytest.raises(InfeasiblePoint) as alone:
        Point(m, _Drifting()._at(m, p.ambient, 0.1 * d[None])[0])
    assert str(raised.value) == str(alone.value)


# --- the audit in one sweep -----------------------------------------------------

def _outcome(audit, args):
    """The report's repr, or the class and message of what was raised."""
    try:
        return repr(audit(*args))
    except (GnewtonError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def test_sweep_is_the_row_audit_for_every_pair_on_every_manifold():
    """every phi and psi valid on a manifold, the same kind or mixed, on
    every manifold of the kinds' classes, audit seeds 0-19: the sweep
    reports (or raises) what one apply per displacement does"""
    kinds = [Projection(), SphereGeodesic(), QR(), Custom1D((0.0, -1.0)),
             ExampleBeta(1.0), Recentred(Projection(), 3),
             Recentred(SphereGeodesic(), 5)]
    spaces = [euclidean(1), euclidean(3), sphere(2), sphere(6), stiefel(4, 2),
              stiefel(5, 1), stiefel(3, 3), grassmann(5, 2), grassmann(4, 1)]
    for m in spaces:
        valid = [k for k in kinds if k.valid_on(m)]
        if isinstance(m, Sphere):
            valid.append(Stereographic(-np.eye(m.n)[:, 0]))
        for phi in valid:
            for psi in valid:
                pair = ParametrizationPair(phi, psi)
                for seed in range(20):
                    args = (pair, m, 4, [1e-1, 1e-2, 1e-3], seed)
                    assert (_outcome(audit_conditions, args)
                            == _outcome(oracles.audit_rows, args)), \
                        (pair_label(pair), m, seed)


class _Skittish(Sphere):
    """A sphere whose draws are refused about half the time (a 6-d gaussian
    has norm under 2.2 with chance 0.44), as an undefined projection, so
    `draw` draws again; `trips` counts them."""
    trips = []

    def project(self, x):
        if np.linalg.norm(x) <= 2.2:
            self.trips.append(1)
            raise ProjectionUndefined("draw refused")
        return super().project(x)


def test_sweep_draws_retries_from_the_stream_in_order():
    """draws drawn again inside the audit run past the prefetched block
    and take the stream as the one-sample-at-a-time draws take it"""
    m = _Skittish(6)
    for seed in range(10):
        for pair in (_pair(Projection()),
                     ParametrizationPair(SphereGeodesic(), QR())):
            args = (pair, m, 12, [1e-1, 1e-2, 1e-3], seed)
            del _Skittish.trips[:]
            got = audit_conditions(*args)
            trips = len(_Skittish.trips)
            assert trips >= 3, (seed, trips)
            assert repr(got) == repr(oracles.audit_rows(*args)), seed
            assert len(_Skittish.trips) == 2 * trips


class _TwoFaults(_Kind):
    """Projection at a base with p[0] > 0, but 1.001 times off the sphere;
    undefined at a base with p[0] < 0."""
    name = "two_faults"
    manifolds = (Sphere,)

    def _at(self, m, X, V):
        if (X[..., 0] < 0.0).any():
            raise ProjectionUndefined("no map at this base")
        return 1.001 * Projection()._at(m, X, V)


def test_sweep_raises_the_earlier_samples_error():
    """sample 0's mapped rows fail Point's rule, a later stage than the map
    that raises for sample 1: the audit raises sample 0's error, as the
    one-sample-at-a-time audit does, not the one its map pass meets first"""
    m = sphere(4)
    signs = {}
    for seed in range(50):
        rng = SplitMix64(seed)
        first = m.sample_point(rng)
        random_unit_tangent(first, rng)
        second = m.sample_point(rng)
        signs.setdefault((first.ambient[0] > 0.0, second.ambient[0] > 0.0),
                         seed)
    for (first_maps, _), seed in sorted(signs.items()):
        args = (_pair(_TwoFaults()), m, 5, [1e-1, 1e-2], seed)
        error = InfeasiblePoint if first_maps else ProjectionUndefined
        with pytest.raises(error) as raised:
            audit_conditions(*args)
        with pytest.raises(error) as rows:
            oracles.audit_rows(*args)
        assert str(raised.value) == str(rows.value)
    assert (True, False) in signs


class _Tilted(Sphere):
    """A sphere whose tangent columns complete a unit vector 1e-3 away
    from the point: orthonormal, but not tangent there."""

    def tangent_columns(self, p):
        q = p.ambient + 1e-3 * np.eye(self.n)[0]
        return manifolds_mod._reflector_columns(q / np.linalg.norm(q))


def test_sweep_raises_the_tangent_rule_of_the_first_bad_row():
    """the rows of every sample are checked by TangentVector's rule: the
    first, sample 0's direction itself, raises what TangentVector raises"""
    m = _Tilted(5)
    for seed in range(5):
        with pytest.raises(InfeasiblePoint) as raised:
            audit_conditions(_pair(Projection()), m, 3, [1e-1, 1e-2], seed)
        rng = SplitMix64(seed)
        p = m.sample_point(rng)
        d = random_unit_tangent(p, rng)
        with pytest.raises(InfeasiblePoint) as alone:
            TangentVector(p, d)
        assert str(raised.value) == str(alone.value)
        assert "tangency residual" in str(raised.value)


def test_recentred_audit_completes_each_tangent_space_twice(monkeypatch):
    """the sweep builds each sample's basis for its direction, and
    Recentred's rotation builds it once more, both through the one basis
    function: two per sample, against one for a kind that reads no
    basis"""
    calls = []
    columns = manifolds_mod._reflector_columns
    for mod in (manifolds_mod, par_mod):
        monkeypatch.setattr(mod, "_reflector_columns",
                            lambda x: calls.append(1) or columns(x))
    for kind, per_sample in ((Recentred(Projection(), 0), 2),
                             (Recentred(SphereGeodesic(), 2), 2),
                             (Projection(), 1)):
        for sample_points in (1, 7, 20):
            del calls[:]
            args = (_pair(kind), sphere(6), sample_points,
                    [1e-1, 1e-2, 1e-3], 3)
            rep = audit_conditions(*args)
            assert len(calls) == per_sample * sample_points, (kind,
                                                              sample_points)
            assert repr(rep) == repr(oracles.audit_rows(*args))


def test_audit_refuses_what_the_config_refuses_as_sample_points(tmp_path,
                                                                capsys):
    """a float or a bool is no sample count: 2.0 raised a bare TypeError
    from range(), and True audited one sample; `gnewton audit` reports the
    library's refusal with exit 4"""
    radii = [1e-1, 1e-2]
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    for bad in (2.0, True, False, 0, -3, 1.5):
        with pytest.raises(ValueError, match="^sample_points must be a "
                                             "positive integer$"):
            audit_conditions(_pair(Projection()), sphere(3), bad, radii, 0)
        cfg_path.write_text(json.dumps({
            "version": 1, "manifold": {"kind": "sphere", "n": 3},
            "pairs": [{"phi": {"kind": "projection"},
                       "psi": {"kind": "projection"}}],
            "audit": {"sample_points": bad}}))
        assert main(["audit", str(cfg_path), "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "error: %s: audit: sample_points must be a positive integer\n"
            % cfg_path)
        assert not out.exists()
    for good in (1, 3):
        audit_conditions(_pair(Projection()), sphere(3), good, radii, 0)
        build_audit_params({"audit": {"sample_points": good}})


def test_audit_holds_no_basis_per_sample():
    """no sample keeps a completed basis, neither its direction's nor a
    recentring rotation's: the audit's peak grows per sample by its
    stacked rows alone, well under one sphere(80) basis (80 x 79 floats)"""
    m = sphere(80)
    radii = [1e-1, 1e-2, 1e-3]
    for kind in (Projection(), Recentred(Projection(), 0),
                 Recentred(SphereGeodesic(), 2)):
        pair = _pair(kind)
        audit_conditions(pair, m, 2, radii, 0)
        peaks = []
        for sample_points in (10, 60):
            tracemalloc.start()
            audit_conditions(pair, m, sample_points, radii, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        per_sample = (peaks[1] - peaks[0]) / 50
        assert per_sample < 0.5 * m.ambient_dim * m.intrinsic_dim * 8, (
            kind, per_sample)
