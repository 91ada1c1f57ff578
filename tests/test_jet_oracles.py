"""The closed-form, vectorised jet against the loop-based reference
implementations in oracles.py, the basis against numpy's Householder forms
there, and the analytic QR and
stereographic second-order terms against central differences."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from gnewton.config import compute_truth, near_truth_start
from gnewton.linalg import polar_factor
from gnewton.costs import (BrockettTrace, GrassmannTrace, Quadratic,
                           ShiftedCubic)
from gnewton.manifolds import (Point, TangentVector, euclidean, grassmann,
                               project_to_manifold, random_point, sphere,
                               stiefel, tangent_basis)
from gnewton.newton import pullback_jet
from gnewton.parametrizations import (QR, Custom1D, ExampleBeta,
                                      ParametrizationPair, Projection,
                                      Recentred, SphereGeodesic,
                                      Stereographic, apply_phi,
                                      second_order_term)
from gnewton.rng import SplitMix64


def _sym(n, seed):
    M = SplitMix64(seed).gaussians(n * n).reshape(n, n)
    return 0.5 * (M + M.T)


# generic costs, so iterates are no critical points and the curvature term
# carries weight
SPACES = {
    "euclidean3": (euclidean(3), Quadratic(_sym(3, 1), np.ones(3))),
    "line": (euclidean(1), ShiftedCubic(0.3)),
    "sphere5": (sphere(5), Quadratic(_sym(5, 2))),
    "stiefel5x2": (stiefel(5, 2), BrockettTrace(_sym(5, 3), np.diag([1.0, 2.0]))),
    "stiefel3x3": (stiefel(3, 3), BrockettTrace(_sym(3, 4),
                                                np.diag([1.0, 2.0, 3.0]))),
    "grassmann6x2": (grassmann(6, 2), GrassmannTrace(_sym(6, 5))),
}

CLOSED_FORM = [
    (Projection(), "euclidean3"), (Projection(), "line"),
    (Projection(), "sphere5"), (Projection(), "stiefel5x2"),
    (Projection(), "stiefel3x3"), (Projection(), "grassmann6x2"),
    (SphereGeodesic(), "sphere5"),
    (Recentred(Projection(), 3), "sphere5"),
    (Recentred(SphereGeodesic(), 3), "sphere5"),
    (Custom1D((0.0, -1.0)), "line"), (ExampleBeta(1.5), "line"),
    (Stereographic(-np.eye(5)[:, 0]), "sphere5"),
]
QR_SPACES = ["sphere5", "stiefel5x2", "stiefel3x3", "grassmann6x2"]
# kinds whose second-order term is also checked against an extrapolated
# central difference of the map itself
RICHARDSON = ([(QR(), space) for space in QR_SPACES]
              + [(Stereographic(-np.eye(5)[:, 0]), "sphere5")])


def _rel_gap(H, ref):
    return float(np.linalg.norm(H - ref)) / max(1.0, float(np.linalg.norm(ref)))


def _jet_gap(kind, space, seed, **oracle):
    m, c = SPACES[space]
    p = random_point(m, seed)
    j = pullback_jet(c, ParametrizationPair(kind, kind), p)
    ref = oracles.pullback_hessian(c, kind, p, j.basis.columns, **oracle)
    return _rel_gap(j.hessian, ref)


def test_closed_form_jet_matches_polarised_oracle():
    for kind, space in CLOSED_FORM:
        for seed in range(10):
            gap = _jet_gap(kind, space, seed)
            assert gap <= 1e-10, (kind.name, space, seed, gap)


def _richardson_second_order(kind, v, h=2e-3):
    """Central second differences at h and h/2, extrapolated: O(h^4)."""
    pair = ParametrizationPair(kind, kind)
    p = v.base

    def central(t):
        return (apply_phi(pair, TangentVector(p, t * v.ambient)).ambient
                - 2.0 * p.ambient
                + apply_phi(pair, TangentVector(p, -t * v.ambient)).ambient
                ) / (t * t)

    return (4.0 * central(0.5 * h) - central(h)) / 3.0


def test_qr_jet_matches_finite_difference_oracle():
    # the old jet differenced at h = eps^(1/4) and carries its own error of
    # up to ~1.1e-6 relative (stiefel3x3, seed 8); an extrapolated
    # difference shows that error is the oracle's, not the closed form's
    for space in QR_SPACES:
        for seed in range(10):
            gap = _jet_gap(QR(), space, seed)
            assert gap <= 2e-6, (space, seed, gap)
    for kind, space in RICHARDSON:
        for seed in range(10):
            gap = _jet_gap(kind, space, seed,
                           second_order=_richardson_second_order)
            assert gap <= 1e-7, (kind.name, space, seed, gap)


def test_qr_curvature_is_polarised_second_order_term():
    """the contracted curvature and the ambient second-order term are one
    formula: polarising the latter reproduces the former to rounding"""
    pair = ParametrizationPair(QR(), QR())

    def analytic(kind, v):
        return second_order_term(pair, v)

    for space in QR_SPACES:
        for seed in range(5):
            gap = _jet_gap(QR(), space, seed, second_order=analytic)
            assert gap <= 1e-12, (space, seed, gap)


FRAMES = [stiefel(5, 2), stiefel(3, 3), stiefel(6, 1), stiefel(12, 3),
          grassmann(6, 2), grassmann(9, 1), grassmann(20, 4)]


def _rel(A, ref):
    return float(np.linalg.norm(A - ref)) / float(np.linalg.norm(ref))


def test_frame_curvature_matches_stacked_oracle():
    """the one-product curvature against the stacked contraction, over the
    point's own columns, a seeded rotation of them and a column subset,
    and C(B R) = R^T C(B) R, for a generic ambient gradient"""
    for kind in (Projection(), QR()):
        pair = ParametrizationPair(kind, kind)
        for m in FRAMES:
            for seed in range(10):
                p = random_point(m, seed)
                g = SplitMix64(seed + 100).gaussians(m.ambient_dim)
                B = tangent_basis(p).columns
                k = B.shape[1]
                R = polar_factor(
                    SplitMix64(seed + 200).gaussians(k * k).reshape(k, k))
                got = {}
                for name, cols in (("own", B), ("rotated", B @ R),
                                   ("subset", B[:, 1::2])):
                    got[name] = pair.phi.check_on(p.manifold).curvature(
                        p, cols, g)
                    ref = oracles.stacked_curvature(kind, p, cols, g)
                    gap = _rel(got[name], ref)
                    assert gap <= 1e-13, (kind.name, m, seed, name, gap)
                gap = _rel(got["rotated"], R.T @ got["own"] @ R)
                assert gap <= 1e-13, (kind.name, m, seed, "R^T C R", gap)


def test_qr_second_order_matches_tril_triu_oracle_byte_for_byte():
    """QR's tangential matrix from np.where on the cached mask gives the
    bytes of tril(M, -1) - triu(M, 1), signed zeros included, and so does
    its second-order term along a generic tangent, a small one, and one
    basis column"""
    from gnewton.parametrizations import _tril_minus_triu
    M = np.array([[0.0, -0.0, 0.0], [0.0, -0.0, -0.0], [-0.0, 2.0, -3.0]])
    for A in (M, M.T, -M, M[:2, :2], M[:1, :1]):
        assert (_tril_minus_triu(A).tobytes()
                == (np.tril(A, -1) - np.triu(A, 1)).tobytes()), A
    for m in (stiefel(12, 3), stiefel(5, 2), grassmann(20, 4),
              grassmann(6, 2)):
        for seed in range(20):
            p = random_point(m, seed)
            B = tangent_basis(p).columns
            d = B @ SplitMix64(seed + 100).gaussians(B.shape[1])
            for v in (d, 1e-3 * d, B[:, seed % B.shape[1]]):
                assert (QR().second_order(p, v).tobytes()
                        == oracles.qr_second_order(p, v).tobytes()), (m, seed)


def _rotated(n, seed):
    """Q^T diag(1..n) Q for a seeded orthogonal Q, so the truths are no
    coordinate vectors (there every kind's term vanishes trivially)."""
    Q = polar_factor(SplitMix64(seed).gaussians(n * n).reshape(n, n))
    A = Q.T @ np.diag(np.arange(1.0, n + 1.0)) @ Q
    return 0.5 * (A + A.T)


def test_coordinate_independence_at_a_critical_point():
    """Every kind with D phi_p(0) = I has the manifold's normal part, and a
    tangential part that meets only the tangential gradient, which is 0 at
    a critical point: so all give the same pulled-back Hessian at the
    truth, over seeds 0-4."""
    for seed in range(5):
        pole = SplitMix64(seed + 100).gaussians(6)
        cases = [
            (sphere(6), Quadratic(_rotated(6, seed)),
             [Projection(), SphereGeodesic(), QR(),
              Recentred(Projection(), seed), Recentred(SphereGeodesic(), seed),
              Stereographic(pole / np.linalg.norm(pole))]),
            (stiefel(12, 3), BrockettTrace(_rotated(12, seed),
                                           np.diag([1.0, 2.0, 3.0])),
             [Projection(), QR()]),
            (grassmann(20, 4), GrassmannTrace(_rotated(20, seed)),
             [Projection(), QR()]),
        ]
        for m, c, kinds in cases:
            truth = compute_truth(m, c)
            H = [pullback_jet(c, ParametrizationPair(k, k), truth).hessian
                 for k in kinds]
            for k, Hk in zip(kinds, H):
                gap = _rel_gap(Hk, H[0])
                assert gap <= 1e-12, (m.kind, k.name, seed, gap)


def _basis_gap(p):
    return float(np.abs(tangent_basis(p).columns
                        - oracles.householder_basis(p)).max(initial=0.0))


def test_basis_matches_loop_oracle_on_random_points():
    """the basis is numpy's Householder one (`oracles.householder_basis`):
    a different reflector or completion would put some column O(1) away,
    not 1e-14"""
    cases = [(m, range(30)) for m in (
        sphere(2), sphere(7), sphere(30), stiefel(6, 2), stiefel(4, 4),
        grassmann(7, 3), stiefel(12, 3), grassmann(20, 4))]
    cases.append((sphere(100), range(5)))
    for m, seeds in cases:
        for seed in seeds:
            gap = _basis_gap(random_point(m, seed))
            assert gap <= 1e-14, (m, seed, gap)


def test_basis_empty_completion():
    assert tangent_basis(Point(sphere(1), [1.0])).columns.shape == (1, 0)
    B = tangent_basis(random_point(stiefel(4, 4), 0)).columns
    assert B.shape == (16, 6)
    assert np.linalg.norm(B.T @ B - np.eye(6)) <= 1e-14


def test_basis_matches_loop_oracle_on_axes():
    """on the axes the basis is numpy's Householder one, value for value"""
    for n in (2, 6, 30):
        for k in range(n):
            for x in (np.eye(n)[:, k], -np.eye(n)[:, k]):
                p = Point(sphere(n), x)
                assert np.array_equal(tangent_basis(p).columns,
                                      oracles.householder_basis(p))
    for m in (stiefel(6, 2), grassmann(6, 2), stiefel(5, 3)):
        X = np.eye(m.n)[:, ::-1][:, :m.p]
        p = Point(m, X.flatten(order="F"))
        assert np.array_equal(tangent_basis(p).columns,
                              oracles.householder_basis(p))


def test_basis_matches_loop_oracle_near_axes():
    """Off-axis offsets from 1e-4 down to below the rounding of 1, where a
    completion that chose by comparing residuals would meet ties: the
    reflector and the QR choose nothing, and match numpy's forms. At
    eps = 1e-9 the basis is checked orthonormal and tangent."""
    D = np.arange(12.0).reshape(6, 2)

    def near_axis(m, eps):
        return project_to_manifold(m, (np.eye(6)[:, :2] + eps * D).flatten(
            order="F"))

    for eps in (1e-4, 1e-6, 1e-8, 1e-12, 1e-15):
        x = np.array([1.0, eps, -eps, eps * 0.5, 0.0, 0.0])
        assert _basis_gap(project_to_manifold(sphere(6), x)) <= 1e-14
        for m in (stiefel(6, 2), grassmann(6, 2)):
            assert _basis_gap(near_axis(m, eps)) <= 1e-14, (m, eps)
    p = near_axis(stiefel(6, 2), 1e-9)
    B = tangent_basis(p).columns
    assert np.linalg.norm(B.T @ B - np.eye(B.shape[1])) <= 1e-14
    for col in B.T:
        TangentVector(p, col)


def _near_axis_frames():
    """The axis-aligned frame of R^6 and the near-axis frames of
    test_basis_matches_loop_oracle_near_axes, on stiefel(6, 2) and
    grassmann(6, 2)."""
    D = np.arange(12.0).reshape(6, 2)
    for m in (stiefel(6, 2), grassmann(6, 2)):
        for eps in (0.0, 1e-4, 1e-6, 1e-8, 1e-9, 1e-12, 1e-15):
            yield project_to_manifold(m, (np.eye(6)[:, :2] + eps * D).flatten(
                order="F"))


def test_frame_columns_match_kron_oracle_byte_for_byte():
    """the in-place fill gives the bytes of kron(I_p, P) after the hstacked
    skew block, signed zeros of the off-diagonal blocks included, over the
    completion P of np.linalg.qr(X, "complete")"""
    spaces = (stiefel(12, 3), grassmann(20, 4), stiefel(6, 2), stiefel(4, 4),
              stiefel(5, 1), grassmann(7, 3), grassmann(9, 1))
    points = [random_point(m, seed) for m in spaces for seed in range(50)]
    for p in points + list(_near_axis_frames()):
        X = p.as_matrix()
        got = p.manifold.tangent_columns(p)
        want = oracles.frame_columns(
            p, np.linalg.qr(X, "complete")[0][:, p.manifold.p:])
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), p


def _diag(n):
    return np.diag(np.arange(1.0, n + 1.0))


def test_near_truth_start_bit_identical():
    """seeded starts of the size ladder and the acceptance criteria are the
    ones the loop-built basis gives, to the bit"""
    setups = [
        (sphere(6), Quadratic(_diag(6)), 0.1),
        (sphere(30), Quadratic(_diag(30)), 0.1),
        (sphere(100), Quadratic(_diag(100)), 0.1),
        (stiefel(12, 3), BrockettTrace(_diag(12), _diag(3)), 0.1),
        (grassmann(20, 4), GrassmannTrace(_diag(20)), 0.1),
        (stiefel(6, 2), BrockettTrace(_diag(6), _diag(2)), 0.05),
        (grassmann(6, 2), GrassmannTrace(
            np.diag([1.0, 2.0, 2.003, 4.0, 5.0, 6.0])), 0.05),
    ]
    for m, c, delta in setups:
        truth = compute_truth(m, c)
        B = oracles.tangent_basis(truth)
        for seed in list(range(40)) + [100]:
            d = B @ SplitMix64(seed).gaussians(m.intrinsic_dim)
            d = d / np.linalg.norm(d)
            want = project_to_manifold(m, truth.ambient + delta * d)
            got = near_truth_start(m, truth, delta, seed)
            assert np.array_equal(got.ambient, want.ambient), (m, seed)


_SHAPES = st.integers(1, 7).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=st.sampled_from(("stiefel", "grassmann")), shape=_SHAPES,
       seed=st.integers(0, 2 ** 32), scale=st.floats(0.1, 3.0))
@example(kind="stiefel", shape=(4, 4), seed=5, scale=1.0)
@example(kind="stiefel", shape=(2, 2), seed=0, scale=2.0)
@example(kind="grassmann", shape=(5, 4), seed=1, scale=1.0)
def test_qr_second_order_matches_central_differences(kind, shape, seed, scale):
    m = {"stiefel": stiefel, "grassmann": grassmann}[kind](*shape)
    if m.intrinsic_dim == 0:
        return  # a single point: no direction to differentiate along
    pair = ParametrizationPair(QR(), QR())
    p = random_point(m, seed)
    u = tangent_basis(p).columns @ SplitMix64(seed + 1).gaussians(
        m.intrinsic_dim)
    u = u / np.linalg.norm(u)
    h = 1e-3
    fd = (apply_phi(pair, TangentVector(p, h * u)).ambient - 2.0 * p.ambient
          + apply_phi(pair, TangentVector(p, -h * u)).ambient) / (h * h)
    S = second_order_term(pair, TangentVector(p, scale * u))
    # truncation error of the difference is O(h^2), rounding O(eps / h^2)
    assert np.linalg.norm(S - scale * scale * fd) <= 1e-5 * scale * scale * max(
        1.0, float(np.linalg.norm(fd)))
