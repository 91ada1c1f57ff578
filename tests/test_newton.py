import numpy as np
import pytest

import oracles
from gnewton.costs import (AbsPower, BrockettTrace, GrassmannTrace,
                           Quadratic, ShiftedCubic, value)
from gnewton.config import near_truth_start
import gnewton.linalg as linalg_mod
import gnewton.manifolds as manifolds_mod
import gnewton.newton as newton_mod
import gnewton.parametrizations as par_mod
from gnewton.errors import (ChartDomainViolation, InfeasiblePoint,
                            ManifoldMismatch, NotTwiceDifferentiable,
                            OutsideValidityRadius, ProjectionUndefined,
                            SingularHessian)
from gnewton.linalg import condition_estimate, norm, symmetric_solve
from gnewton.manifolds import (Point, TangentVector, distance, euclidean,
                               grassmann, random_point, sphere, stiefel,
                               tangent_basis)
from gnewton.newton import (Fixed, PathDependent, Random, RoundRobin,
                            generalized_newton_step, pullback_jet,
                            run_iteration)
from gnewton.parametrizations import (QR, Custom1D, ExampleBeta,
                                      ParametrizationPair, Projection,
                                      Recentred, SphereGeodesic, Stereographic,
                                      apply_psi, audit_conditions, pair_label)
from gnewton.rates import estimate_rate
from gnewton.rng import SplitMix64

PP = ParametrizationPair(Projection(), Projection())


def _pair(kind):
    return ParametrizationPair(kind, kind)


# --- steps ----------------------------------------------------------------------

def test_euclidean_step_on_square():
    # f(x) = x^2: gradient 2, hessian 2 at x = 1, step -1
    j = pullback_jet(Quadratic(np.array([[2.0]])), PP,
                     Point(euclidean(1), np.array([1.0])))
    assert j.gradient[0] == 2.0 and j.hessian[0, 0] == 2.0
    assert (-symmetric_solve(j.hessian, j.gradient))[0] == -1.0


def test_zero_gradient_zero_step():
    j = pullback_jet(Quadratic(np.array([[2.0]])), PP,
                     Point(euclidean(1), np.array([0.0])))
    assert (-symmetric_solve(j.hessian, j.gradient))[0] == 0.0


def test_abs_power_newton_map():
    # next = 5 x sqrt(x) / (8 + 15 sqrt(x)); at 0.25 that is 0.625/15.5
    for x in (0.5, 0.25, 0.1):
        res = generalized_newton_step(AbsPower(), PP,
                                      Point(euclidean(1), np.array([x])))
        want = 5.0 * x * np.sqrt(x) / (8.0 + 15.0 * np.sqrt(x))
        assert abs(res.next.ambient[0] - want) <= 1e-12
    res = generalized_newton_step(AbsPower(), PP,
                                  Point(euclidean(1), np.array([0.25])))
    assert abs(res.next.ambient[0] - 0.625 / 15.5) <= 1e-15


def test_pullback_jet_euclidean_identity_pair_is_ambient_jet():
    A = np.array([[3.0, 1.0], [1.0, 4.0]])
    b = np.array([0.5, -1.0])
    p = Point(euclidean(2), np.array([2.0, -1.0]))
    j = pullback_jet(Quadratic(A, b), PP, p)
    assert np.allclose(j.gradient, A @ p.ambient + b, atol=1e-14)
    assert np.allclose(j.hessian, A, atol=1e-12)


def test_pullback_jet_sphere_rayleigh_by_hand():
    # restrict 1/2 x^T diag(1,3) x to the circle at e1: second derivative 2
    j = pullback_jet(Quadratic(np.diag([1.0, 3.0])), PP,
                     Point(sphere(2), np.array([1.0, 0.0])))
    assert abs(j.gradient[0]) <= 1e-15
    assert abs(j.hessian[0, 0] - 2.0) <= 1e-12


def test_pullback_jet_example_beta_hessian():
    for beta in (1.0, -0.25, 2.0):
        j = pullback_jet(Quadratic(np.array([[2.0]])), _pair(ExampleBeta(beta)),
                         Point(euclidean(1), np.array([1.0])))
        assert abs(j.hessian[0, 0] - (2.0 + 4.0 * beta)) <= 1e-12


def test_pullback_hessian_symmetric():
    rng = SplitMix64(3)
    m = sphere(5)
    M = rng.gaussians(25).reshape(5, 5)
    c = Quadratic(0.5 * (M + M.T))
    for seed in range(30):
        j = pullback_jet(c, _pair(SphereGeodesic()), random_point(m, seed))
        assert np.array_equal(j.hessian, j.hessian.T)


def test_generalized_step_example_beta_closed_form():
    c = Quadratic(np.array([[2.0]]))  # f(x) = x^2
    for beta in (1.0, -0.25, 2.0):
        res = generalized_newton_step(c, _pair(ExampleBeta(beta)),
                                      Point(euclidean(1), np.array([1.0])))
        want = beta * (3.0 + 4.0 * beta) / (1.0 + 2.0 * beta) ** 2
        assert abs(res.next.ambient[0] - want) <= 1e-10


def test_generalized_step_beta_half_singular():
    c = Quadratic(np.array([[2.0]]))
    with pytest.raises(SingularHessian):
        generalized_newton_step(c, _pair(ExampleBeta(-0.5)),
                                Point(euclidean(1), np.array([1.0])))


def test_zero_dimensional_step_names_the_empty_hessian():
    """sphere(1), stiefel(1, 1) and grassmann(1, 1) have a 0 x 0 jet: the
    step says the Hessian has no nonzero eigenvalue"""
    A = np.array([[2.0]])
    for c, m in ((Quadratic(A), sphere(1)),
                 (BrockettTrace(A, np.eye(1)), stiefel(1, 1)),
                 (GrassmannTrace(A), grassmann(1, 1))):
        with pytest.raises(SingularHessian,
                           match=r"no nonzero eigenvalue \(0 x 0\)"):
            generalized_newton_step(c, PP, Point(m, np.array([1.0])))


def test_fixed_point_property():
    """at a critical point the step is zero and psi anchors: next = p"""
    c = Quadratic(np.diag([1.0, 2.0, 5.0]))
    p = Point(sphere(3), np.eye(3)[:, 0])
    for kind in (Projection(), SphereGeodesic()):
        res = generalized_newton_step(c, _pair(kind), p)
        assert distance(res.next, p) <= 1e-12
        assert res.step_norm <= 1e-14
    ce = Quadratic(np.diag([2.0, 4.0]), np.array([-2.0, -4.0]))
    pe = Point(euclidean(2), np.array([1.0, 1.0]))  # gradient zero here
    res = generalized_newton_step(ce, PP, pe)
    assert distance(res.next, pe) <= 1e-12


def test_example14_one_step_magnitude():
    # custom pair turns the cubic into an 8 x^3 map
    c = ShiftedCubic(0.0)
    res = generalized_newton_step(c, _pair(Custom1D((0.0, -1.0))),
                                  Point(euclidean(1), np.array([0.01])))
    assert abs(abs(res.next.ambient[0]) - 8e-6) <= 0.1 * 8e-6


def test_step_result_reports_condition():
    res = generalized_newton_step(Quadratic(np.diag([1.0, 10.0])), PP,
                                  Point(euclidean(2), np.array([1.0, 1.0])))
    assert abs(res.hessian_condition - 10.0) <= 1e-9
    assert res.pair_used is PP


def test_recentred_step_completes_the_tangent_basis_once(monkeypatch):
    """psi's recentring rotation builds p's reflector columns once, through
    the one function, and the step, which applies the reflector in factored
    form, builds none; p keeps nothing of them and holds its two fields
    alone, so a second step from the same point builds them again, to the
    same bits"""
    calls = []
    _count_package_calls(monkeypatch, calls, "_reflector_columns",
                         manifolds_mod._reflector_columns, keep_args=True)
    c = Quadratic(np.diag(np.arange(1.0, 7.0)))
    pair = _pair(Recentred(Projection(), 3))
    for seed in range(5):
        p = random_point(sphere(6), seed)
        del calls[:]
        first = generalized_newton_step(c, pair, p)
        assert len(calls) == 1
        assert list(vars(p)) == ["manifold", "ambient"]
        again = generalized_newton_step(c, pair, p)
        assert len(calls) == 2
        assert np.array_equal(first.next.ambient, again.next.ambient)
        assert all(np.array_equal(x, p.ambient) for (x,) in calls)
        generalized_newton_step(c, PP, p)  # a map that reads no basis
        assert len(calls) == 2


def test_affine_invariance():
    """Newton steps commute with invertible linear reparametrisation"""
    rng = SplitMix64(62)
    for _ in range(25):
        M = rng.gaussians(9).reshape(3, 3)
        A = M @ M.T + np.eye(3)
        b = rng.gaussians(3)
        T = rng.gaussians(9).reshape(3, 3) + 3.0 * np.eye(3)
        x = rng.gaussians(3)
        # step of f at x
        jx = pullback_jet(Quadratic(A, b), PP, Point(euclidean(3), x))
        sx = -symmetric_solve(jx.hessian, jx.gradient)
        # step of f o T at T^{-1} x
        At = T.T @ A @ T
        bt = T.T @ b
        y = np.linalg.solve(T, x)
        jy = pullback_jet(Quadratic(0.5 * (At + At.T), bt), PP,
                          Point(euclidean(3), y))
        sy = -symmetric_solve(jy.hessian, jy.gradient)
        assert np.linalg.norm(sy - np.linalg.solve(T, sx)) <= 1e-10 * max(
            1.0, np.linalg.norm(sx))


def test_hessian_deviation_ratio_bounded():
    # ||(H(x) - H(x*)) (x - x*)|| / ||x - x*||^2 == 12 for the cubic family
    c = ShiftedCubic(0.0)
    m = euclidean(1)
    for r in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
        p = Point(m, np.array([r]))
        j = pullback_jet(c, PP, p)
        j0 = pullback_jet(c, PP, Point(m, np.zeros(1)))
        ratio = abs((j.hessian[0, 0] - j0.hessian[0, 0]) * r) / r ** 2
        assert abs(ratio - 12.0) <= 1e-6


# --- run_iteration ----------------------------------------------------------------

def test_quadratic_converges_in_one_step():
    # Newton exactness: single step lands on the minimiser
    c = Quadratic(np.diag([2.0, 4.0]), np.array([-2.0, -4.0]))  # min at (1,1)
    p0 = Point(euclidean(2), np.array([0.0, 0.0]))
    tr = run_iteration(c, Fixed(PP), p0, 10, 2.0)
    assert tr.termination == "Converged"
    assert len(tr.step_norms) == 1
    assert np.allclose(tr.points[-1].ambient, [1.0, 1.0], atol=1e-14)
    # with a tight tolerance the confirming zero step is needed as well
    tr = run_iteration(c, Fixed(PP), p0, 10, 1e-12)
    assert tr.termination == "Converged"
    assert len(tr.step_norms) == 2
    assert tr.step_norms[1] <= 1e-12


def test_trace_shapes_and_costs():
    c = Quadratic(np.diag([1.0, 2.0, 3.0]))
    p0 = random_point(sphere(3), 4)
    tr = run_iteration(c, Fixed(PP), p0, 20, 1e-12)
    k = len(tr.step_norms)
    assert len(tr.points) == k + 1
    assert len(tr.cost_values) == k + 1
    assert len(tr.pairs_used) == k
    assert tr.points[0] is p0
    assert tr.cost_values[0] == value(c, p0)


def test_max_iterations_termination():
    tr = run_iteration(AbsPower(), Fixed(PP),
                       Point(euclidean(1), np.array([0.5])), 3, 1e-30)
    assert tr.termination == "MaxIterations"
    assert len(tr.step_norms) == 3


def test_singular_hessian_termination():
    c = Quadratic(np.array([[2.0]]))
    tr = run_iteration(c, Fixed(_pair(ExampleBeta(-0.5))),
                       Point(euclidean(1), np.array([1.0])), 5, 1e-12)
    assert tr.termination == "SingularHessian"
    assert len(tr.points) == 1  # nothing after p0


def test_left_validity_region_termination():
    # AbsPower jets do not exist at the kink
    tr = run_iteration(AbsPower(), Fixed(PP),
                       Point(euclidean(1), np.array([0.0])), 5, 1e-12)
    assert tr.termination == "LeftValidityRegion"


def test_overflowing_jet_is_left_validity():
    # the gradient 10 x overflows at x = 1e308: no usable jet there
    c = Quadratic(np.array([[10.0]]))
    p = Point(euclidean(1), np.array([1e308]))
    with np.errstate(over="ignore"):
        with pytest.raises(NotTwiceDifferentiable):
            pullback_jet(c, PP, p)
    # run_iteration silences a diverging run's overflow on its own
    tr = run_iteration(c, Fixed(PP), p, 5, 1e-12)
    assert tr.termination == "LeftValidityRegion"


def test_plain_value_error_in_a_step_propagates(monkeypatch):
    """only InfeasiblePoint means the iterate diverged; any other
    ValueError raised inside a step is a bug and is not swallowed"""
    def broken(c, pair, p):
        raise ValueError("operands could not be broadcast together")
    monkeypatch.setattr(newton_mod, "_array_step", broken)
    c = Quadratic(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="broadcast"):
        run_iteration(c, Fixed(PP), random_point(sphere(3), 1), 5, 1e-12)


def test_infeasible_step_is_left_validity(monkeypatch):
    def diverged(c, pair, p):
        raise InfeasiblePoint("non-finite ambient coordinates")
    monkeypatch.setattr(newton_mod, "_array_step", diverged)
    c = Quadratic(np.diag([1.0, 2.0, 3.0]))
    tr = run_iteration(c, Fixed(PP), random_point(sphere(3), 1), 5, 1e-12)
    assert tr.termination == "LeftValidityRegion"
    assert len(tr.points) == 1


def test_step_condition_is_the_jet_condition():
    """the step's Hessian is the jet's in the step's own basis, Q^T H Q:
    its condition is the jet's, and |s| the step's over the published
    basis, within the bounds of the basis tests below"""
    eps = np.finfo(float).eps
    c = Quadratic(np.diag([1.0, 2.0, 3.0, 4.0]))
    for seed in range(10):
        p = random_point(sphere(4), seed)
        res = generalized_newton_step(c, PP, p)
        j = pullback_jet(c, PP, p)
        kappa = condition_estimate(j.hessian)
        assert (abs(res.hessian_condition - kappa)
                <= BASIS_TOL * kappa * kappa * eps)
        s = norm(symmetric_solve(j.hessian, j.gradient))
        assert abs(res.step_norm - s) <= BASIS_TOL * kappa * eps * max(1.0, s)


def test_validates_arguments():
    c = Quadratic(np.eye(2))
    p = Point(euclidean(2), np.zeros(2))
    with pytest.raises(ValueError):
        run_iteration(c, Fixed(PP), p, 0, 1e-12)
    with pytest.raises(ValueError):
        run_iteration(c, Fixed(PP), p, 5, 0.0)


@pytest.mark.parametrize("tol", [float("inf"), float("nan")])
def test_non_finite_tol_is_refused(tol):
    """an infinite tol would end any run Converged after one step"""
    c = Quadratic(np.eye(2))
    p = Point(euclidean(2), np.ones(2))
    with pytest.raises(ValueError, match="^tol: must be"):
        run_iteration(c, Fixed(PP), p, 5, tol)


# --- selectors ---------------------------------------------------------------------

def test_round_robin_cycles():
    pairs = (PP, _pair(SphereGeodesic()))
    c = Quadratic(np.diag([1.0, 2.0, 3.0, 4.0]))
    p0 = random_point(sphere(4), 2)
    tr = run_iteration(c, RoundRobin(pairs), p0, 6, 1e-30)
    labels = tr.pairs_used
    assert labels[0] != labels[1]
    assert labels[0] == labels[2] and labels[1] == labels[3]


def test_random_selector_reproducible():
    pairs = (PP, _pair(SphereGeodesic()))
    c = Quadratic(np.diag([1.0, 2.0, 3.0, 4.0]))
    p0 = random_point(sphere(4), 2)
    a = run_iteration(c, Random(pairs, 9), p0, 8, 1e-30)
    b = run_iteration(c, Random(pairs, 9), p0, 8, 1e-30)
    assert a.pairs_used == b.pairs_used
    assert np.array_equal(a.points[-1].ambient, b.points[-1].ambient)
    c2 = run_iteration(c, Random(pairs, 10), p0, 8, 1e-30)
    assert a.pairs_used != c2.pairs_used  # different seed, different draw


def test_path_dependent_distance_keyed():
    pairs = (PP, _pair(SphereGeodesic()), _pair(Projection()))
    c = Quadratic(np.diag([1.0, 2.0, 3.0, 4.0]))
    p0 = random_point(sphere(4), 8)
    tr = run_iteration(c, PathDependent("distance-keyed", pairs), p0, 12, 1e-13)
    assert tr.termination == "Converged"
    # far from the start it uses pairs[0]; close to convergence pairs[2]
    assert tr.pairs_used[0] == "projection+projection"
    assert tr.pairs_used[-1] == "projection+projection"


def test_path_dependent_alternate_on_repeat():
    pairs = (PP, _pair(SphereGeodesic()))
    c = Quadratic(np.diag([1.0, 3.0, 5.0]))
    p0 = random_point(sphere(3), 6)
    tr = run_iteration(c, PathDependent("alternate-on-repeat", pairs), p0, 15, 1e-13)
    assert tr.termination == "Converged"


def test_selector_constructor_validation():
    with pytest.raises(ValueError):
        RoundRobin(())
    with pytest.raises(ValueError):
        PathDependent("no-such-rule", (PP,))


# --- the stereographic chart as a pair ----------------------------------------

def test_stereographic_pair_is_the_chart_lifted_step():
    """one pair step is the chart-lifted Newton step from the starts of the
    rate test below. The reference's second differences at h = eps^(1/3)
    carry rounding of order eps / h^2, about 1e-6 here; from random starts,
    where the steps are O(1), it reaches 1e-4, and shrinks with h as h^2."""
    from gnewton.config import compute_truth, near_truth_start
    m = sphere(6)
    c = Quadratic(np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    truth = compute_truth(m, c)
    pole = -np.eye(6)[:, 0]
    pair = _pair(Stereographic(pole))
    for seed in range(20):
        p = near_truth_start(m, truth, 0.3, seed)
        got = generalized_newton_step(c, pair, p).next
        want = oracles.chart_lift_step(c, pole, p)
        assert distance(got, want) <= 1e-5, seed


def test_stereographic_chart_rejects_pole():
    pole = np.eye(3)[:, 0]
    c = Quadratic(np.diag([1.0, 2.0, 3.0]))
    pair = _pair(Stereographic(pole))
    p = Point(sphere(3), pole)
    with pytest.raises(ChartDomainViolation):
        generalized_newton_step(c, pair, p)
    tr = run_iteration(c, Fixed(pair), p, 5, 1e-12)
    assert tr.termination == "LeftValidityRegion"
    assert len(tr.points) == 1


def test_stereographic_newton_rate():
    """five fixed steps from a frozen start fit a superquadratic rate"""
    from gnewton.config import compute_truth, match_truth_signs, near_truth_start
    m = sphere(6)
    c = Quadratic(np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    truth = compute_truth(m, c)
    pair = _pair(Stereographic(-np.eye(6)[:, 0]))
    tr = run_iteration(c, Fixed(pair), near_truth_start(m, truth, 0.3, 3),
                       5, 1e-30)
    t = match_truth_signs(truth, tr.points[-1])
    errs = [distance(q, t) for q in tr.points]
    est = estimate_rate(errs, floor=1e-10, ceil=0.7)
    assert est.K >= 1.8


def _workload_experiments():
    """The manifold/cost/pair combinations of the solve-ladder and
    rate-study benchmark workloads, each from near-truth starts 0-4."""
    from gnewton.config import build_experiment

    def diag(n):
        return "diag:" + ",".join(str(k) for k in range(1, n + 1))

    proj, geo, qr = ({"kind": "projection"}, {"kind": "sphere_geodesic"},
                     {"kind": "qr"})
    rec = {"kind": "recentred", "base": proj, "rotation_seed": 0}
    cubic = {"kind": "custom1d", "coeffs": [0.0, -1.0]}
    beta = {"kind": "example_beta", "beta": 1.0}
    line = {"kind": "euclidean", "n": 1}
    spaces = [({"kind": "sphere", "n": n}, {"kind": "quadratic", "A": diag(n)},
               (proj, qr) + ((geo, rec) if n == 6 else ()))
              for n in (6, 30, 100)]
    spaces += [({"kind": "stiefel", "n": 12, "p": 3},
                {"kind": "brockett", "A": diag(12), "N": diag(3)}, (proj, qr)),
               ({"kind": "grassmann", "n": 20, "p": 4},
                {"kind": "grassmann_trace", "A": diag(20)}, (proj, qr)),
               (line, {"kind": "abs_power"}, (proj,)),
               (line, {"kind": "shifted_cubic", "z": 0.3}, (proj, cubic)),
               (line, {"kind": "shifted_cubic", "z": 1.0}, (beta,))]
    for manifold, cost, kinds in spaces:
        for seed in range(5):
            yield build_experiment({
                "version": 1, "manifold": manifold, "cost": cost,
                "pairs": [{"phi": k, "psi": k} for k in kinds],
                "selector": {"kind": "fixed"},
                "x0": "near-truth:0.1:%d" % seed, "max_iter": 1, "tol": 1e-12})


def test_pullback_hessian_is_bitwise_symmetric_on_workload_pairs():
    """0.5 (H + H^T) is symmetric to the bit, so the jet needs no check of
    its own: the solve's check can never trip on a pulled-back Hessian"""
    count = 0
    for exp in _workload_experiments():
        for pair in exp.pairs:
            H = pullback_jet(exp.cost, pair, exp.x0).hessian
            assert np.array_equal(H, H.T), (exp.manifold, pair)
            count += 1
    assert count == 5 * 16


def test_newton_step_checks_a_hand_built_asymmetric_jet():
    """the symmetry check moved from Jet2 to the solve; it did not vanish"""
    from gnewton.newton import Jet2
    p = random_point(sphere(3), 0)
    j = Jet2(basis=tangent_basis(p), value=0.0, gradient=np.ones(2),
             hessian=np.array([[2.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        -symmetric_solve(j.hessian, j.gradient)
    with pytest.raises(ValueError, match="symmetric"):
        linalg_mod.symmetric_solve(j.hessian, j.gradient)


class _Counting:
    """A cost that counts its calls, delegating the maths to `cost`."""

    def __init__(self, cost):
        self.cost = cost
        self.name = cost.name
        self.calls = {"check_on": 0, "value": 0, "grad": 0, "hessian": 0}

    def check_on(self, m):
        self.calls["check_on"] += 1
        self.cost.check_on(m)
        return self

    def value(self, p):
        self.calls["value"] += 1
        return self.cost.value(p)

    def grad(self, p):
        self.calls["grad"] += 1
        return self.cost.grad(p)

    def hessian(self, p):
        self.calls["hessian"] += 1
        return self.cost.hessian(p)


class _NaNHessian(_Counting):
    def hessian(self, p):
        return np.nan * super().hessian(p)


def test_nan_hessian_is_no_jet_and_leaves_the_region():
    """the jet's finite test is the step's only one on H: a NaN Hessian
    raises there, and a run ends LeftValidityRegion at its start"""
    c = _NaNHessian(Quadratic(np.diag([1.0, 2.0, 3.0])))
    p = random_point(sphere(3), 1)
    with pytest.raises(NotTwiceDifferentiable,
                       match="^non-finite pulled-back jet$"):
        generalized_newton_step(c, PP, p)
    tr = run_iteration(c, Fixed(PP), p, 5, 1e-12)
    assert tr.termination == "LeftValidityRegion" and len(tr.points) == 1


class _InfHessian(_Counting):
    def hessian(self, p):
        return np.inf * super().hessian(p)


class _NaNGradient(_Counting):
    def grad(self, p):
        return np.nan * super().grad(p)


class _InfGradient(_Counting):
    def grad(self, p):
        return np.inf * super().grad(p)


def test_jet_refuses_non_finite_entries_not_an_overflowing_norm():
    """the jet's finite test reads |H|_F and |grad| and tests the entries
    only where a norm is not finite: a finite H and gradient whose norms
    overflow (entries near 1e200) are a jet, which the step solves by the
    eigenvalue rule, while NaN or inf in H or the gradient raises"""
    p = Point(euclidean(2), np.ones(2))
    with np.errstate(over="ignore"):  # each norm of A overflows
        c = Quadratic(np.diag([1e200, 2e200]))
        j = pullback_jet(c, PP, p)
        assert norm(j.hessian) == norm(j.gradient) == np.inf
        res = generalized_newton_step(c, PP, p)
    assert np.array_equal(j.hessian, c.A)
    assert res.next.ambient.tolist() == [0.0, 0.0]
    assert res.step_norm == norm(np.ones(2))
    assert run_iteration(c, Fixed(PP), p, 5, 1e-12).termination == \
        "Converged"
    q = Point(euclidean(1), np.ones(1))  # B = (1): no inf meets a 0
    for bad in (_NaNHessian, _InfHessian, _NaNGradient, _InfGradient):
        c = bad(Quadratic(np.array([[2.0]])))
        for step in (pullback_jet, generalized_newton_step):
            with pytest.raises(NotTwiceDifferentiable,
                               match="^non-finite pulled-back jet$"):
                step(c, PP, q)


def test_public_steps_check_the_cost_and_kinds_at_entry():
    """pullback_jet checks the cost and phi, generalized_newton_step the
    cost, phi and psi, before any derivative is taken; run_iteration
    checks the cost before its first step"""
    p = random_point(sphere(3), 1)
    c = Quadratic(np.diag([1.0, 2.0, 3.0]))
    wrong = _Counting(Quadratic(np.eye(4)))
    line = Custom1D((0.5,))  # a kind of the line alone
    for step in (pullback_jet, generalized_newton_step):
        with pytest.raises(ManifoldMismatch):
            step(wrong, PP, p)
        with pytest.raises(ManifoldMismatch):
            step(c, ParametrizationPair(line, Projection()), p)
    with pytest.raises(ManifoldMismatch):
        generalized_newton_step(c, ParametrizationPair(Projection(), line), p)
    pullback_jet(c, ParametrizationPair(Projection(), line), p)  # no psi
    with pytest.raises(ManifoldMismatch):
        run_iteration(wrong, Fixed(PP), p, 5, 1e-12)
    assert wrong.calls == {"check_on": 3, "value": 0, "grad": 0,
                           "hessian": 0}


class _FreshPairs:
    """A selector whose chooser builds a new pair at every step: a
    projection pair before step `bad`, then one whose psi is the sphere's
    geodesic. Each call asserts that every pair it built is still alive,
    so that no later pair can take a checked pair's id."""

    def __init__(self, bad):
        self.bad = bad

    def chooser(self):
        import weakref
        built = []

        def choose(k, points):
            assert all(ref() is not None for ref in built)
            psi = Projection() if k < self.bad else SphereGeodesic()
            pair = ParametrizationPair(Projection(), psi)
            built.append(weakref.ref(pair))
            return pair
        return choose


def test_run_checks_each_pair_the_first_time_it_is_chosen():
    """a run checks each pair the first time the selector returns it, so a
    pair invalid on the manifold raises ManifoldMismatch at the step that
    chooses it, after the steps before it took their jets: a round robin's
    second pair at step 1, and a pair built anew at step 3. The run holds
    each pair it checked: a freed pair's id, taken by a new pair, would
    pass that pair unchecked"""
    p0 = Point(euclidean(1), np.array([1.0]))
    geodesic = SphereGeodesic()  # a kind of the sphere alone
    for selector, steps in (
            (RoundRobin((PP, ParametrizationPair(Projection(), geodesic))), 1),
            (RoundRobin((PP, _pair(geodesic))), 1),
            (_FreshPairs(3), 3)):
        c = _Counting(ShiftedCubic(0.0))
        with pytest.raises(ManifoldMismatch):
            run_iteration(c, selector, p0, 20, 1e-12)
        assert c.calls["grad"] == steps
        assert c.calls["check_on"] == 1
    c = ShiftedCubic(0.0)
    tr = run_iteration(c, _FreshPairs(20), p0, 20, 1e-12)
    assert tr.termination == "Converged" and len(tr.step_norms) > 3


def test_one_step_checks_each_value_once(monkeypatch):
    """one certified sphere(6) projection step makes 2 finite tests (the
    step w and the next point) and no Gram check: the jet's H and gradient
    are proved finite by their norms, the solve does not test H again, and
    the reflector is checked as an operator, by one dot product"""
    import sys
    from gnewton.config import near_truth_start
    c = Quadratic(np.diag(np.arange(1.0, 7.0)))
    p = near_truth_start(sphere(6), c.truth(sphere(6)), 0.1, 0)
    calls = []

    def count(name, inner):
        def counted(*args):
            calls.append(name)
            return inner(*args)
        for mod in [m for k, m in sys.modules.items()
                    if k.startswith("gnewton.")]:
            if vars(mod).get(name) is inner:
                monkeypatch.setattr(mod, name, counted)
    count("all_finite", newton_mod.all_finite)
    count("_orthonormality_residual", manifolds_mod._orthonormality_residual)
    generalized_newton_step(c, PP, p)
    assert (calls.count("all_finite"),
            calls.count("_orthonormality_residual")) == (2, 0)
    # an uncertified step (the Cholesky certificate refuses its H) takes
    # the eigenvalue rule on the H already tested: 2 finite tests too
    q = random_point(sphere(6), 0)
    eig = _counting(monkeypatch, "eigvalsh")
    calls.clear()
    generalized_newton_step(c, PP, q)
    assert len(eig) == 1 and calls.count("all_finite") == 2


def _count_package_calls(monkeypatch, calls, name, inner, keep_args=False):
    """Every gnewton module's binding of `inner`, wrapped to append name,
    or with keep_args its arguments, to calls."""
    import sys

    def counted(*args):
        calls.append(args if keep_args else name)
        return inner(*args)
    for mod in [m for k, m in sys.modules.items() if k.startswith("gnewton.")]:
        if vars(mod).get(name) is inner:
            monkeypatch.setattr(mod, name, counted)


def test_run_checks_each_value_once_and_builds_one_record_per_iterate(
        monkeypatch):
    """run_iteration takes the array step: a certified sphere(6) projection
    run makes 2 finite tests (w, and the next point where it moved) and no
    Gram check per step, as one generalized_newton_step does, and builds
    no TangentBasis, Jet2, TangentVector or StepResult, one Point per
    accepted iterate (none where a zero step returns p itself), one record
    of its coordinates per step (`_Reflector`) and its trace; pullback_jet
    still checks its written-out basis once"""
    from gnewton.config import near_truth_start
    from gnewton.manifolds import _Record
    c = Quadratic(np.diag(np.arange(1.0, 7.0)))
    p0 = near_truth_start(sphere(6), c.truth(sphere(6)), 0.1, 0)
    fixed = Fixed(PP)
    calls, built = [], []
    _count_package_calls(monkeypatch, calls, "all_finite",
                         newton_mod.all_finite)
    _count_package_calls(monkeypatch, calls, "_orthonormality_residual",
                         manifolds_mod._orthonormality_residual)
    bind = _Record.__init__

    def counted_bind(self, *args, **kw):
        built.append(type(self).__name__)
        bind(self, *args, **kw)
    monkeypatch.setattr(_Record, "__init__", counted_bind)
    eig = _counting(monkeypatch, "eigvalsh")
    tr = run_iteration(c, fixed, p0, 20, 1e-12)
    steps = len(tr.step_norms)
    moved = sum(q is not p for p, q in zip(tr.points, tr.points[1:]))
    assert tr.termination == "Converged" and steps >= 3 and not eig
    assert calls.count("all_finite") == steps + moved
    assert calls.count("_orthonormality_residual") == 0
    assert sorted(built) == (["IterationTrace"] + ["Point"] * moved
                             + ["_Reflector"] * steps)
    calls.clear()
    built.clear()
    pullback_jet(c, PP, p0)
    assert calls.count("_orthonormality_residual") == 1
    # the reflector of the written-out basis, and the step's
    assert sorted(built) == ["Jet2", "TangentBasis"] + ["_Reflector"] * 2


# every frame shape the basis tests draw: p = 1, 1 < p < n and p = n (a
# zero-dimensional Grassmann, whose every step is a SingularHessian)
_FRAMES = (stiefel(5, 1), stiefel(6, 3), stiefel(4, 4),
           grassmann(5, 1), grassmann(7, 3), grassmann(4, 4))
_FRAME_PAIRS = [ParametrizationPair(a, b) for a in (Projection(), QR())
                for b in (Projection(), QR())]


def _frame_cost(m, seed):
    """a seeded symmetric A: Brockett with N = diag(p, ..., 1) on Stiefel,
    the trace cost on Grassmann"""
    G = SplitMix64(seed).gaussians(m.n * m.n).reshape(m.n, m.n)
    if m.kind == "stiefel":
        return BrockettTrace(G + G.T, np.diag(np.arange(m.p, 0.0, -1.0)))
    return GrassmannTrace(G + G.T)


def _composed_step(c, pair, p):
    """the step composed from the public functions: pullback_jet, the
    solve, psi of w = B s, lifted by the manifold's step_coordinates.
    -> (next point, s, H)"""
    jet = pullback_jet(c, pair, p)
    s = -symmetric_solve(jet.hessian, jet.gradient)
    w = TangentVector(p, p.manifold.step_coordinates(p).lift(s))
    return apply_psi(pair, w), s, jet.hessian


def _pivoted_step(c, pair, p):
    """the step composed over another orthonormal basis, the pivoted one
    of `oracles.pivoted_basis`: the jet over it, the solve, psi of
    w = B s. -> (next point, s, H)"""
    B = oracles.pivoted_basis(p)
    c.check_on(p.manifold)
    _, grad, H, _ = newton_mod._jet(c, pair.phi.check_on(p.manifold), p,
                                    manifolds_mod.TangentBasis(p, B))
    s = -symmetric_solve(H, grad)
    return apply_psi(pair, TangentVector(p, B @ s)), s, H


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # compared by class below
        return exc


# C in the bound C cond(H) eps: the largest ratio on seeds 0-19 was 10.6
# (the spectrum; next point 2.3, |s| 1.7, condition 4.3), and seeds 20-39
# were not looked at while choosing it
BASIS_TOL = 32.0


def _step_agrees_across_bases(m, c, seed, pairs, jet_rounding=False,
                              reference=None):
    """at m's seeded random point and, where m has a tangent direction, a
    near-truth start, for each pair: generalized_newton_step raises the
    class the reference step raises (by default `_pivoted_step`, the step
    composed over the pivoted basis), or agrees with it
    in the next point and |s| within C cond(H) eps max(1, |s|), in each
    eigenvalue of its Hessian within C cond(H) eps |lambda|_min (Weyl's
    C eps |H|_2) and in hessian_condition within C cond(H)^2 eps.

    With jet_rounding, the bounds read the rounding of the jet itself:
    cond(H) becomes kappa_J = (|B^T A B|_2 + |C|_2) / |lambda|_min (A the
    ambient Hessian, C phi's curvature term), which is cond(H) unless the
    sum H = B^T A B + C cancels, except in hessian_condition's own factor,
    and the next point and |s| also carry the gradient's rounding,
    C eps |grad f| / |lambda|_min. A sphere(2) H is one 1 x 1 difference of
    O(1) terms, whose cancellation cond(H) = 1 does not see.
    -> (cases, cases raised)"""
    eps = np.finfo(float).eps
    cases = raised = 0
    points = [random_point(m, seed)]
    if m.intrinsic_dim:
        points.append(near_truth_start(m, c.truth(m), 0.1, seed))
    for p in points:
        scales = {}  # by phi, which alone makes the jet: checked once
        for pair in pairs:
            cases += 1
            ref = _outcome(reference or _pivoted_step, c, pair, p)
            got = _outcome(generalized_newton_step, c, pair, p)
            if isinstance(ref, Exception) or isinstance(got, Exception):
                assert type(got) is type(ref), (m, seed, pair, got, ref)
                assert reference is None or str(got) == str(ref)
                raised += 1
                continue
            nxt, s, H = ref
            if id(pair.phi) not in scales:
                kappa = condition_estimate(H)
                lam = np.linalg.eigvalsh(H)
                low = np.abs(lam).min()
                kappa_j, grad_term = kappa, 0.0
                if jet_rounding:
                    B, g = oracles.pivoted_basis(p), c.grad(p)
                    kappa_j = (np.linalg.norm(B.T @ (c.hessian(p) @ B), 2)
                               + np.linalg.norm(pair.phi.curvature(p, B, g),
                                                2)) / low
                    grad_term = norm(g) / low
                gap = np.abs(np.linalg.eigvalsh(got.hessian) - lam)
                assert gap.max() <= BASIS_TOL * kappa_j * eps * low
                assert (abs(got.hessian_condition - kappa)
                        <= BASIS_TOL * kappa * kappa_j * eps)
                scales[id(pair.phi)] = kappa_j, grad_term
            kappa_j, grad_term = scales[id(pair.phi)]
            tol = BASIS_TOL * eps * (kappa_j * max(1.0, norm(s)) + grad_term)
            assert norm(got.next.ambient - nxt.ambient) <= tol
            assert abs(got.step_norm - norm(s)) <= tol
    return cases, raised


@pytest.mark.parametrize("seeds", [range(0, 20), range(20, 40),
                                   range(40, 80)],
                         ids=["set-on-0-19", "checked-on-20-39",
                              "checked-on-40-79"])
def test_frame_step_does_not_depend_on_the_basis(seeds):
    """on Stiefel and Grassmann the step solves over the Householder
    basis, B' = B Q: for every ordered pair of projection and QR it agrees
    with the step over the pivoted basis (`_step_agrees_across_bases`)"""
    cases = raised = 0
    for m in _FRAMES:
        for seed in seeds:
            more = _step_agrees_across_bases(m, _frame_cost(m, seed), seed,
                                             _FRAME_PAIRS)
            cases, raised = cases + more[0], raised + more[1]
    # every Grassmann(4, 4) step is singular, and nothing else raised
    assert (cases, raised) == (len(seeds) * 4 * 11, len(seeds) * 4)


def test_long_frame_steps_return_orthonormal_frames():
    """Grassmann(7, 3) at seeds 128, 163 and 198 steps 779 to 2,211 from
    its random point: every projection/QR pair returns and agrees with the
    step over the pivoted basis, and each next frame is orthonormal within
    1e-14, far inside FEAS_TOL"""
    m = grassmann(7, 3)
    for seed in (128, 163, 198):
        c = _frame_cost(m, seed)
        assert _step_agrees_across_bases(m, c, seed, _FRAME_PAIRS) == (8, 0)
        p = random_point(m, seed)
        for pair in _FRAME_PAIRS:
            step = generalized_newton_step(c, pair, p)
            assert step.step_norm > 700.0
            assert m.feasibility_residuals(step.next.ambient[None])[0] <= 1e-14


# sphere(1) has a 1 x 0 basis: its every step is a SingularHessian
_SPHERES = (sphere(1), sphere(2), sphere(3), sphere(6), sphere(30))


def _sphere_pairs(n):
    """every ordered pair of the sphere kinds: projection, geodesic, QR,
    both recentred bases and stereographic (pole -e1)"""
    kinds = (Projection(), SphereGeodesic(), QR(),
             Recentred(Projection(), 0), Recentred(SphereGeodesic(), 1),
             Stereographic(-np.eye(n)[:, 0]))
    return [ParametrizationPair(a, b) for a in kinds for b in kinds]


@pytest.mark.parametrize("seeds", [range(0, 20), range(20, 40)],
                         ids=["set-on-0-19", "checked-on-20-39"])
def test_sphere_step_does_not_depend_on_the_basis(seeds):
    """on the sphere the step solves over the columns of one Householder
    reflector: for every ordered pair of the sphere kinds, with a seeded
    symmetric A, it agrees with the step over the pivoted basis
    (`_step_agrees_across_bases`)"""
    cases = raised = 0
    for m in _SPHERES:
        pairs = _sphere_pairs(m.n)
        for seed in seeds:
            G = SplitMix64(seed).gaussians(m.n * m.n).reshape(m.n, m.n)
            more = _step_agrees_across_bases(m, Quadratic(G + G.T), seed,
                                             pairs, jet_rounding=True)
            cases, raised = cases + more[0], raised + more[1]
    # every sphere(1) step is singular, and nothing else raised
    assert (cases, raised) == (len(seeds) * 36 * 9, len(seeds) * 36)


def _public_step_cases():
    """(manifold, cost, pair, point): every ordered pair of projection and
    QR, and on the sphere of geodesic and recentred too, at the seeded
    random points 0-19 of sphere 2, 6 and 30, Stiefel(6, 3) and (5, 1) and
    Grassmann(7, 3) and (4, 1)"""
    sphere_kinds = (Projection(), SphereGeodesic(), QR(),
                    Recentred(Projection(), 0))
    spaces = [(m, sphere_kinds) for m in (sphere(2), sphere(6), sphere(30))]
    spaces += [(m, (Projection(), QR())) for m in (
        stiefel(6, 3), stiefel(5, 1), grassmann(7, 3), grassmann(4, 1))]
    for m, kinds in spaces:
        for seed in range(20):
            if m.kind == "sphere":
                G = SplitMix64(seed).gaussians(m.n * m.n).reshape(m.n, m.n)
                c = Quadratic(G + G.T)
            else:
                c = _frame_cost(m, seed)
            p = random_point(m, seed)
            for a in kinds:
                for b in kinds:
                    yield m, c, ParametrizationPair(a, b), p


def test_composed_public_step_is_the_step_to_the_bit():
    """pullback_jet, then symmetric_solve, then apply_psi give
    generalized_newton_step's next point and Hessian byte for byte, or
    raise its error, class and message: one basis and one map each"""
    cases = raised = 0
    for m, c, pair, p in _public_step_cases():
        cases += 1
        ref = _outcome(_composed_step, c, pair, p)
        got = _outcome(generalized_newton_step, c, pair, p)
        case = (m, pair_label(pair), p.ambient.tolist())
        if isinstance(ref, Exception) or isinstance(got, Exception):
            assert (type(got), str(got)) == (type(ref), str(ref)), case
            raised += 1
            continue
        nxt, s, H = ref
        assert got.next.ambient.tobytes() == nxt.ambient.tobytes(), case
        assert got.hessian.tobytes() == H.tobytes(), case
        assert got.step_norm == norm(s), case
    assert (cases, raised) == (1280, 0)


def _unit_reflector_columns(x):
    """the sphere's tangent columns with |x| read as 1: I[:, 1:] minus
    v x_{2..n}^T / (1 + |x_1|), v = x + sign(x_1) e_1"""
    n = x.size
    v = x.copy()
    v[0] += 1.0 if x[0] >= 0.0 else -1.0
    B = v[:, None] * (x[1:] / (-1.0 - abs(x[0])))
    B.reshape(-1)[n - 1::n] += 1.0
    return B


def test_sphere_step_columns_take_the_norm_of_a_feasible_point(monkeypatch):
    """a feasible sphere point has |x| within FEAS_TOL of 1, not 1: at
    |x| = 1 +- 9e-11 the reflector columns, built from r = |x|, stay
    orthonormal (read as 1, their residual is about 2 (r - 1)), so the
    step agrees with the step over the pivoted basis and a run converges;
    at |x| == 1.0 they are the bits of r read as 1. A step builds none: it
    applies the same reflector in factored form"""
    eps = np.finfo(float).eps
    m = sphere(6)
    c = Quadratic(np.diag(np.arange(1.0, 7.0)))
    calls = []
    _count_package_calls(monkeypatch, calls, "_reflector_columns",
                         manifolds_mod._reflector_columns)
    for d in (9e-11, -9e-11):
        # e_2 is the case that read |x| as 1 and refused its own basis
        assert manifolds_mod._orthonormality_residual(
            _unit_reflector_columns((1.0 + d) * np.eye(6)[1])) > 1e-10
        for u in (np.eye(6)[1], random_point(m, 3).ambient,
                  -random_point(m, 4).ambient):
            p = Point(m, (1.0 + d) * u)
            B = m.tangent_columns(p)
            assert manifolds_mod._orthonormality_residual(B) <= 8 * eps
            calls.clear()
            got = generalized_newton_step(c, PP, p)
            assert calls == []
            nxt, s, H = _pivoted_step(c, PP, p)
            tol = BASIS_TOL * eps * condition_estimate(H) * max(1.0, norm(s))
            assert norm(got.next.ambient - nxt.ambient) <= tol
            assert run_iteration(c, Fixed(PP), p, 20, 1e-12).termination \
                == "Converged"
    unit = 0
    for seed in range(40):
        p = random_point(m, seed)
        if norm(p.ambient) == 1.0:
            unit += 1
            assert (m.tangent_columns(p).tobytes()
                    == _unit_reflector_columns(p.ambient).tobytes())
    assert unit >= 20


@pytest.mark.parametrize("m", [stiefel(6, 3), grassmann(7, 3)],
                         ids=["stiefel", "grassmann"])
@pytest.mark.parametrize("kind", [Projection(), QR()], ids=lambda k: k.name)
def test_frame_step_makes_no_pivoted_completion(monkeypatch, m, kind):
    """the package has no pivoted completion: pullback_jet,
    near_truth_start and audit_conditions each complete a point's frame
    through the one basis function, `tangent_columns` over one Householder
    QR, once per point; a Stiefel run writes out and checks one basis per
    step, and a Grassmann run none, as it applies I_p kron P blockwise"""
    assert not hasattr(manifolds_mod, "_complete_orthonormal")
    c = _frame_cost(m, 0)
    calls = []
    _count_package_calls(monkeypatch, calls, "_checked_basis",
                         manifolds_mod._checked_basis)
    columns = manifolds_mod._Frame.tangent_columns
    monkeypatch.setattr(manifolds_mod._Frame, "tangent_columns",
                        lambda self, p: calls.append("tangent_columns")
                        or columns(self, p))
    p0 = near_truth_start(m, c.truth(m), 0.1, 0)
    assert calls == ["tangent_columns", "_checked_basis"]
    calls.clear()
    tr = run_iteration(c, Fixed(_pair(kind)), p0, 20, 1e-12)
    steps = len(tr.step_norms)
    assert tr.termination == "Converged" and steps >= 3
    assert calls == ["tangent_columns", "_checked_basis"] * (
        steps if m.kind == "stiefel" else 0)
    calls.clear()
    for p in tr.points:
        pullback_jet(c, _pair(kind), p)
    assert calls.count("tangent_columns") == len(tr.points)
    calls.clear()
    audit_conditions(_pair(kind), m, 5, [0.1, 0.01], 0)
    assert calls.count("tangent_columns") == 5


@pytest.mark.parametrize("m", [sphere(6), stiefel(5, 1), grassmann(4, 1),
                               stiefel(6, 3)],
                         ids=["sphere6", "stiefel5x1", "grassmann4x1",
                              "stiefel6x3"])
def test_one_column_qr_step_makes_no_qr_call(monkeypatch, m):
    """a one-column QR run maps each step by normalisation, with no
    LAPACK QR (linalg's `_qr`) of the map; a Stiefel(6, 3) run still makes
    one per step that moves. Frames complete their step columns with one
    complete QR per step, the sphere with none"""
    if m.kind == "sphere":
        G = SplitMix64(0).gaussians(m.n * m.n).reshape(m.n, m.n)
        c = Quadratic(G + G.T)
    else:
        c = _frame_cost(m, 0)
    p0 = near_truth_start(m, c.truth(m), 0.1, 0)
    calls = []
    qr = linalg_mod._qr

    def counted(a, complete=False):
        calls.append("complete" if complete else "reduced")
        return qr(a, complete)
    for mod in (manifolds_mod, par_mod):
        monkeypatch.setattr(mod, "_qr", counted)
    tr = run_iteration(c, Fixed(_pair(QR())), p0, 20, 1e-12)
    steps = len(tr.step_norms)
    moved = sum(q is not p for p, q in zip(tr.points, tr.points[1:]))
    assert tr.termination == "Converged" and steps >= 3
    assert calls.count("reduced") == (0 if m.p == 1 else moved)
    assert calls.count("complete") == (0 if m.kind == "sphere" else steps)


def _written_out_step(c, pair, p):
    """the step over p's written-out `tangent_columns` B: the jet over
    them, the solve, psi of w = B s. -> (next point, s, H)"""
    B = p.manifold.tangent_columns(p)
    c.check_on(p.manifold)
    _, grad, H, _ = newton_mod._jet(c, pair.phi.check_on(p.manifold), p,
                                    manifolds_mod.TangentBasis(p, B))
    s = -symmetric_solve(H, grad)
    return apply_psi(pair, TangentVector(p, B @ s)), s, H


def _step_cases(sizes, seeds, kinds):
    """(cost, pair, point): a seeded symmetric A on sphere(n) and its
    seeded random point, for each pair (k, k) of kinds"""
    for n in sizes:
        for seed in seeds:
            G = SplitMix64(seed).gaussians(n * n).reshape(n, n)
            p = random_point(sphere(n), seed)
            for kind in kinds:
                yield Quadratic(G + G.T), _pair(kind), p


_REFLECTOR_KINDS = (Projection(), QR(), SphereGeodesic(),
                    Recentred(Projection(), 0))


def test_reflector_step_agrees_with_the_written_out_step():
    """the step applies the reflector in factored form; over its
    written-out columns (`_written_out_step`) it is the same step to
    rounding: on sphere 2-12, 30 and 100 with a seeded symmetric A, for
    the projection, QR, geodesic and recentred pairs, both raise the same
    error, class and message, or they agree within the bounds of
    `_step_agrees_across_bases`, whose cond(H) reads the jet's rounding.
    Seeds 0-39, stated before the first run"""
    cases = raised = 0
    for n in [*range(2, 13), 30, 100]:
        m = sphere(n)
        for seed in range(40):
            G = SplitMix64(seed).gaussians(n * n).reshape(n, n)
            more = _step_agrees_across_bases(
                m, Quadratic(G + G.T), seed,
                [_pair(k) for k in _REFLECTOR_KINDS], jet_rounding=True,
                reference=_written_out_step)
            cases, raised = cases + more[0], raised + more[1]
    assert (cases, raised) == (13 * 40 * 2 * 4, 0)


# every Grassmann shape the factored step is checked on: p = 1, 1 < p < n,
# the solve-ladder's (20, 4) and p = n (zero-dimensional, every step singular)
_GRASSMANNS = (grassmann(5, 1), grassmann(7, 3), grassmann(8, 2),
               grassmann(20, 4), grassmann(4, 4))


def test_completion_step_agrees_with_the_written_out_step():
    """Grassmann's step applies I_p kron P blockwise; over its written-out
    columns (`_written_out_step`) it is the same step to rounding: on
    Grassmann (5,1), (7,3), (8,2), (20,4) and (4,4) with the seeded trace
    cost, for every ordered projection/QR pair, both raise the same error,
    class and message, or they agree within the bounds of
    `_step_agrees_across_bases`. Seeds 0-39, stated before the first run"""
    cases = raised = 0
    for m in _GRASSMANNS:
        for seed in range(40):
            more = _step_agrees_across_bases(
                m, _frame_cost(m, seed), seed, _FRAME_PAIRS,
                reference=_written_out_step)
            cases, raised = cases + more[0], raised + more[1]
    # every Grassmann(4, 4) step is singular, and nothing else raised
    assert (cases, raised) == (40 * 4 * (2 * 4 + 1), 40 * 4)


def test_completion_check_is_the_operators_residual():
    """the step checks the operator it applies, B = I_p kron P, by P alone:
    sqrt(p) |P^T P - I|_F is |B^T B - I|_F of the written-out columns to
    rounding, and a P off by one part in 1e6 raises the basis error"""
    eps = np.finfo(float).eps
    points = 0
    for m in _GRASSMANNS[:4]:
        for seed in range(30):
            p = random_point(m, seed)
            C = m.step_coordinates(p)
            assert C.p == m.p and C.P.shape == (m.n, m.n - m.p)
            resid = np.sqrt(m.p) * manifolds_mod._orthonormality_residual(C.P)
            full = manifolds_mod._orthonormality_residual(m.tangent_columns(p))
            assert abs(resid - full) <= 4 * eps
            with pytest.raises(ValueError,
                               match="^basis columns not orthonormal$"):
                type(C)((1.0 + 1e-6) * C.P, m.p)
            points += 1
    assert points == 120


@pytest.mark.parametrize("kind", [Projection(), QR()], ids=lambda k: k.name)
def test_frame_curvature_of_the_step_coordinates_is_s(kind):
    """on Grassmann, curvature(p, None, g) is the p x p S of V -> V S,
    and its frame product over the written-out columns is curvature(p, B,
    g) byte for byte"""
    for m in _GRASSMANNS:
        for seed in range(5):
            c = _frame_cost(m, seed)
            p = random_point(m, seed)
            g = c.grad(p)
            S = kind.curvature(p, None, g)
            assert S.shape == (m.p, m.p)
            B = m.tangent_columns(p)
            assert (manifolds_mod._frame_product(B, S).tobytes()
                    == kind.curvature(p, B, g).tobytes())


def test_grassmann_run_builds_no_basis(monkeypatch):
    """a Grassmann run builds one `_Completion` per step and no
    TangentBasis, and each step takes one complete QR and reads the
    cost's Hessian once"""
    from gnewton.manifolds import _Record
    m = grassmann(20, 4)
    c = _Counting(_frame_cost(m, 0))
    p0 = near_truth_start(m, c.cost.truth(m), 0.1, 0)
    selectors = [Fixed(_pair(kind)) for kind in (Projection(), QR())]
    built, shapes = [], []
    bind = _Record.__init__

    def counted_bind(self, *args, **kw):
        built.append(type(self).__name__)
        bind(self, *args, **kw)
    monkeypatch.setattr(_Record, "__init__", counted_bind)
    qr = linalg_mod._qr

    def counted_qr(a, complete=False):
        q, d = qr(a, complete)
        shapes.append((complete, q.shape))
        return q, d
    monkeypatch.setattr(manifolds_mod, "_qr", counted_qr)
    for selector in selectors:
        built.clear()
        shapes.clear()
        c.calls["hessian"] = 0
        tr = run_iteration(c, selector, p0, 20, 1e-12)
        steps = len(tr.step_norms)
        moved = sum(q is not p for p, q in zip(tr.points, tr.points[1:]))
        assert tr.termination == "Converged" and steps >= 3
        assert sorted(built) == (["IterationTrace"] + ["Point"] * moved
                                 + ["_Completion"] * steps)
        assert shapes == [(True, (20, 20))] * steps
        assert c.calls["hessian"] == steps


def _line_cases():
    """(cost, pair, point): each line cost at points on both sides of its
    critical point, 0 included, with every ordered pair of the line kinds;
    then Quadratic on R^2, R^3 and R^6 with seeded A and b"""
    kinds = (Projection(), Custom1D((0.0, -1.0)), Custom1D((0.3, 0.2, 1.0)),
             ExampleBeta(0.7), ExampleBeta(-0.5))
    line = euclidean(1)
    for cost in (AbsPower(), ShiftedCubic(0.0), ShiftedCubic(0.75)):
        for x in (0.0, 0.01, -0.3, 0.9, 2.5, -1e-9):
            for a in kinds:
                for b in kinds:
                    yield cost, ParametrizationPair(a, b), Point(
                        line, np.array([x]))
    for n in (2, 3, 6):
        for seed in range(10):
            rng = SplitMix64(seed)
            G = rng.gaussians(n * n).reshape(n, n)
            p = Point(euclidean(n), rng.gaussians(n))
            yield Quadratic(G + G.T, rng.gaussians(n)), PP, p


def test_euclidean_step_is_the_identity_basis_step_to_the_bit():
    """Euclidean space steps in its ambient coordinates, which form no
    identity: next point, |s| and H are the bytes of the step over
    np.eye(n), or it raises that step's error, class and message"""
    cases = raised = 0
    for c, pair, p in _line_cases():
        cases += 1
        ref = _outcome(_written_out_step, c, pair, p)
        got = _outcome(generalized_newton_step, c, pair, p)
        case = (c, pair_label(pair), p.ambient.tolist())
        if isinstance(ref, Exception) or isinstance(got, Exception):
            assert (type(got), str(got)) == (type(ref), str(ref)), case
            raised += 1
            continue
        nxt, s, H = ref
        assert got.next.ambient.tobytes() == nxt.ambient.tobytes(), case
        assert got.hessian.tobytes() == H.tobytes(), case
        assert got.step_norm == norm(s), case
    assert cases == 480 and 0 < raised < cases


def test_step_reads_the_hessian_once_and_writes_out_no_basis(monkeypatch):
    """every step reads the cost's ambient Hessian once, as one matrix: a
    sphere step neither writes out nor Gram-checks the reflector's columns,
    a Euclidean step builds no tangent columns, and a Stiefel or Grassmann
    step applies it to its one basis"""
    calls = []
    for name in ("_reflector_columns", "_orthonormality_residual"):
        _count_package_calls(monkeypatch, calls, name,
                             getattr(manifolds_mod, name))
    columns = manifolds_mod.Euclidean.tangent_columns
    monkeypatch.setattr(manifolds_mod.Euclidean, "tangent_columns",
                        lambda self, p: calls.append("tangent_columns")
                        or columns(self, p))
    for raw, pair, p in _step_cases([2, 6, 30], range(3), _REFLECTOR_KINDS):
        c = _Counting(raw)
        generalized_newton_step(c, ParametrizationPair(pair.phi,
                                                       Projection()), p)
        assert c.calls["hessian"] == 1
    for raw, pair, p in _line_cases():
        c = _Counting(raw)
        _outcome(generalized_newton_step, c, pair, p)
        assert c.calls["hessian"] == 1
    assert calls == []
    for m in (stiefel(6, 3), grassmann(7, 3)):
        c = _Counting(_frame_cost(m, 0))
        for pair in _FRAME_PAIRS:
            c.calls["hessian"] = 0
            generalized_newton_step(c, pair, random_point(m, 0))
            assert c.calls["hessian"] == 1, (m, pair)


def test_reflector_check_is_the_operators_residual():
    """the step checks the operator it applies, Q = I - beta v v^T, by one
    dot: |t (t - 2)|, t = beta v^T v, is |Q^T Q - I|_F to rounding, and a
    beta off by one part in 1e6 reads about 4e-6, far over FEAS_TOL; the
    reflector of a point scaled off the sphere (x / |x| times 1 + 1e-6)
    passes it, as |x| is not read as 1"""
    eps = np.finfo(float).eps
    for n in (2, 6, 30):
        for seed in range(10):
            x = random_point(sphere(n), seed).ambient
            for y in (x, (1.0 + 1e-6) * x):
                R = manifolds_mod._Reflector(y)
                assert R.beta == 1.0 / R.d
                for beta in (R.beta, R.beta * (1.0 + 1e-6)):
                    Q = np.eye(n) - beta * np.outer(R.v, R.v)
                    t = beta * (R.v @ R.v)
                    resid = norm(Q.T @ Q - np.eye(n))
                    assert abs(abs(t * (t - 2.0)) - resid) <= 8 * n * eps
                    assert (resid > 1e-10) == (beta != R.beta)


# how run_iteration names the end that each typed step error makes
_ENDS = {SingularHessian: "SingularHessian"}
_ENDS.update(dict.fromkeys(
    (NotTwiceDifferentiable, ProjectionUndefined, OutsideValidityRadius,
     ChartDomainViolation, InfeasiblePoint), "LeftValidityRegion"))


def _stepped_by_hand(c, pair, p0, max_iter, tol):
    """run_iteration's loop for a fixed pair, over generalized_newton_step.
    -> (points, step norms, cost values, termination)"""
    points, norms, costs = [p0], [], []
    end = "MaxIterations"
    for _ in range(max_iter):
        try:
            res = generalized_newton_step(c, pair, points[-1])
        except tuple(_ENDS) as exc:
            end = _ENDS[type(exc)]
            break
        assert res.pair_used is pair
        costs.append(res.base_value)
        points.append(res.next)
        norms.append(res.step_norm)
        if res.step_norm <= tol:
            end = "Converged"
            break
    return points, norms, costs + [value(c, points[-1])], end


def _agreement_cases():
    """(cost, pair, start) for every valid ordered pair of projection,
    geodesic, QR, both recentred bases and stereographic on sphere(6), of
    projection and QR on Stiefel(6,2) and Grassmann(8,2), and of projection
    and the two line kinds, from seeded random starts: sphere and frame
    seeds 0-3, line seeds 0-7"""
    def ordered(kinds):
        return [ParametrizationPair(a, b) for a in kinds for b in kinds]
    sphere_kinds = (Projection(), SphereGeodesic(), QR(),
                    Recentred(Projection(), 0), Recentred(SphereGeodesic(), 1),
                    Stereographic(-np.eye(6)[:, 0]))
    frames = ((sphere(6), Quadratic(np.diag(np.arange(1.0, 7.0))),
               sphere_kinds),
              (stiefel(6, 2), BrockettTrace(np.diag(np.arange(1.0, 7.0)),
                                            np.diag([2.0, 1.0])),
               (Projection(), QR())),
              (grassmann(8, 2), GrassmannTrace(np.diag(np.arange(1.0, 9.0))),
               (Projection(), QR())))
    for m, c, kinds in frames:
        for pair in ordered(kinds):
            for seed in range(4):
                yield c, pair, random_point(m, seed)
    # x^2 with the map x + t - t^2 / (2x): its pulled-back Hessian is
    # 2 - 2x (1 / x), 0 or rounding, so a run ends SingularHessian, or
    # overflows and leaves the region, at the start or steps later
    line = ((ShiftedCubic(0.3), (Projection(), Custom1D((0.0, -1.0)),
                                 ExampleBeta(1.0))),
            (Quadratic(np.array([[2.0]])), (Projection(), ExampleBeta(-0.5))))
    for c, kinds in line:
        for pair in ordered(kinds):
            for seed in range(8):
                yield c, pair, random_point(euclidean(1), seed)


def test_run_iteration_is_the_public_step_bit_for_bit():
    """run_iteration's array step and a loop of generalized_newton_step
    give the same points, step norms, cost values, pairs and termination,
    to the bit, and end with the same error class at the same step"""
    ends = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for c, pair, p0 in _agreement_cases():
            tr = run_iteration(c, Fixed(pair), p0, 30, 1e-12)
            points, norms, costs, end = _stepped_by_hand(c, pair, p0, 30,
                                                         1e-12)
            case = (pair_label(pair), p0.ambient.tolist())
            assert [q.ambient.tobytes() for q in tr.points] == \
                [q.ambient.tobytes() for q in points], case
            assert tr.step_norms == tuple(norms), case
            assert tr.cost_values == tuple(costs), case
            assert tr.termination == end, case
            assert tr.pairs_used == (pair_label(pair),) * len(norms), case
            ends.add((end, len(norms) > 0))
    assert ends >= {("Converged", True), ("MaxIterations", True),
                    ("SingularHessian", False), ("SingularHessian", True),
                    ("LeftValidityRegion", True)}


def test_one_value_per_iterate():
    """each iterate's cost value is taken once, from its jet where a step
    left it; a jet checks the cost against the manifold once, and so does
    a run"""
    A = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    c = _Counting(Quadratic(A))
    pullback_jet(c, PP, random_point(sphere(5), 2))
    assert c.calls == {"check_on": 1, "value": 1, "grad": 1, "hessian": 1}
    for pair in (PP, _pair(SphereGeodesic())):
        for seed in range(3):
            c = _Counting(Quadratic(A))
            p0 = random_point(sphere(5), seed)
            tr = run_iteration(c, Fixed(pair), p0, 30, 1e-12)
            assert tr.termination == "Converged" and len(tr.points) > 3
            assert c.calls["value"] == len(tr.points)
            assert c.calls["check_on"] == 1
            assert c.calls["grad"] == len(tr.points) - 1
            ref = run_iteration(Quadratic(A), Fixed(pair), p0, 30, 1e-12)
            assert tr.cost_values == ref.cost_values
            assert tr.cost_values == tuple(value(Quadratic(A), q)
                                           for q in tr.points)


# --- the solve's Cholesky certificate in a step -------------------------------

def _counting(monkeypatch, name):
    """linalg's LAPACK route `_<name>` (every gnewton module's binding),
    wrapped to count its calls"""
    calls = []
    _count_package_calls(monkeypatch, calls, "_" + name,
                         getattr(linalg_mod, "_" + name))
    return calls


def test_certified_step_calls_no_eigensolver(monkeypatch):
    """a sphere(100) projection step near the minimiser is certified by
    one Cholesky and takes no eigenvalues; reading hessian_condition
    takes them once, and gives the jet's condition within the bound of
    the basis tests"""
    from gnewton.config import near_truth_start
    m = sphere(100)
    c = Quadratic(np.diag(np.arange(1.0, 101.0)))
    p = near_truth_start(m, c.truth(m), 0.1, 0)
    eig = _counting(monkeypatch, "eigvalsh")
    chol = _counting(monkeypatch, "cholesky")
    res = generalized_newton_step(c, PP, p)
    assert (len(eig), len(chol)) == (0, 1)
    cond = res.hessian_condition
    assert len(eig) == 1
    kappa = condition_estimate(pullback_jet(c, PP, p).hessian)
    assert abs(cond - kappa) <= BASIS_TOL * kappa * kappa * np.finfo(float).eps


def test_indefinite_steps_take_the_eigenvalue_rule_with_the_same_iterates(
        monkeypatch):
    """near a middle eigenvector the pulled-back Hessian is indefinite: each
    step's Cholesky fails and the eigenvalue rule solves, giving the
    iterates of a step that calls solve_with_condition itself, patched in
    for linalg's `_solve` where the step calls it"""
    from oracles import solve_with_condition
    c = Quadratic(np.diag(np.arange(1.0, 7.0)))
    x = np.eye(6)[2] + 0.05 * np.ones(6)
    p = Point(sphere(6), x / np.linalg.norm(x))
    eig = _counting(monkeypatch, "eigvalsh")
    chol = _counting(monkeypatch, "cholesky")
    tr = run_iteration(c, Fixed(PP), p, 20, 1e-12)
    steps = len(tr.step_norms)
    assert tr.termination == "Converged" and steps >= 3
    assert len(eig) == len(chol) == steps
    monkeypatch.setattr(newton_mod, "_solve",
                        lambda H, h, b: solve_with_condition(H, b)[0])
    ref = run_iteration(c, Fixed(PP), p, 20, 1e-12)
    assert [q.ambient.tobytes() for q in tr.points] == \
        [q.ambient.tobytes() for q in ref.points]


def test_positive_definite_jet_past_the_limit_is_singular():
    """the pulled-back Hessian diag(1, 0.5, 0.99e-12) is positive definite
    but past COND_LIMIT: the step refuses it, and a run ends there"""
    c = Quadratic(np.diag([1.0, 0.5, 0.99e-12]))
    p = Point(euclidean(3), np.ones(3))
    assert np.array_equal(pullback_jet(c, PP, p).hessian, c.A)
    with pytest.raises(SingularHessian):
        generalized_newton_step(c, PP, p)
    assert run_iteration(c, Fixed(PP), p, 5, 1e-12).termination == \
        "SingularHessian"


def test_every_workload_step_is_certified(monkeypatch):
    """every step of every solve of the three benchmark workloads at run
    seeds 0-2 (bench/workloads.py, loaded by path) is certified: one
    Cholesky per step, and no eigenvalues"""
    import importlib.util
    from pathlib import Path
    from gnewton.config import build_experiment
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "bench"
        / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    exps = [build_experiment(s.config) for name in workloads.WORKLOADS
            for seed in (0, 1, 2) for s in workloads.make(name, seed).solves]
    eig = _counting(monkeypatch, "eigvalsh")
    chol = _counting(monkeypatch, "cholesky")
    steps = 0
    for exp in exps:
        tr = run_iteration(exp.cost, exp.selector, exp.x0, exp.max_iter,
                           exp.tol)
        steps += len(tr.step_norms)
    assert steps > 2000
    assert (len(eig), len(chol)) == (0, steps)
