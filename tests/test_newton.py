import numpy as np
import pytest

import oracles
from gnewton.costs import (AbsPower, Quadratic, ShiftedCubic, value)
import gnewton.manifolds as manifolds_mod
import gnewton.newton as newton_mod
from gnewton.errors import (ChartDomainViolation, InfeasiblePoint,
                            NotTwiceDifferentiable, SingularHessian)
from gnewton.linalg import condition_estimate, symmetric_solve
from gnewton.manifolds import (Point, distance, euclidean, random_point,
                               sphere, tangent_basis)
from gnewton.newton import (Fixed, PathDependent, Random, RoundRobin,
                            euclidean_newton_step, generalized_newton_step,
                            pullback_jet, run_iteration)
from gnewton.parametrizations import (Custom1D, ExampleBeta,
                                      ParametrizationPair, Projection,
                                      Recentred, SphereGeodesic, Stereographic)
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
    assert euclidean_newton_step(j)[0] == -1.0


def test_zero_gradient_zero_step():
    j = pullback_jet(Quadratic(np.array([[2.0]])), PP,
                     Point(euclidean(1), np.array([0.0])))
    assert euclidean_newton_step(j)[0] == 0.0


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
    """the jet's basis and psi's recentring rotation read one completion of
    p's tangent space; nothing of it outlives the step, so a second step
    from the same point completes it again, to the same bits"""
    calls = []
    complete = manifolds_mod._complete_unit
    monkeypatch.setattr(manifolds_mod, "_complete_unit",
                        lambda p: calls.append(p) or complete(p))
    c = Quadratic(np.diag(np.arange(1.0, 7.0)))
    pair = _pair(Recentred(Projection(), 3))
    for seed in range(5):
        p = random_point(sphere(6), seed)
        del calls[:]
        first = generalized_newton_step(c, pair, p)
        assert len(calls) == 1
        again = generalized_newton_step(c, pair, p)
        assert len(calls) == 2
        assert np.array_equal(first.next.ambient, again.next.ambient)
        assert np.array_equal(p.tangent_columns, complete(p.ambient))
        assert len(calls) == 3


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
        sx = euclidean_newton_step(jx)
        # step of f o T at T^{-1} x
        At = T.T @ A @ T
        bt = T.T @ b
        y = np.linalg.solve(T, x)
        jy = pullback_jet(Quadratic(0.5 * (At + At.T), bt), PP,
                          Point(euclidean(3), y))
        sy = euclidean_newton_step(jy)
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
        tr = run_iteration(c, Fixed(PP), p, 5, 1e-12)
    assert tr.termination == "LeftValidityRegion"


def test_plain_value_error_in_a_step_propagates(monkeypatch):
    """only InfeasiblePoint means the iterate diverged; any other
    ValueError raised inside a step is a bug and is not swallowed"""
    def broken(c, pair, p):
        raise ValueError("operands could not be broadcast together")
    monkeypatch.setattr(newton_mod, "generalized_newton_step", broken)
    c = Quadratic(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="broadcast"):
        run_iteration(c, Fixed(PP), random_point(sphere(3), 1), 5, 1e-12)


def test_infeasible_step_is_left_validity(monkeypatch):
    def diverged(c, pair, p):
        raise InfeasiblePoint("non-finite ambient coordinates")
    monkeypatch.setattr(newton_mod, "generalized_newton_step", diverged)
    c = Quadratic(np.diag([1.0, 2.0, 3.0]))
    tr = run_iteration(c, Fixed(PP), random_point(sphere(3), 1), 5, 1e-12)
    assert tr.termination == "LeftValidityRegion"
    assert len(tr.points) == 1


def test_step_condition_is_the_jet_condition():
    c = Quadratic(np.diag([1.0, 2.0, 3.0, 4.0]))
    for seed in range(10):
        p = random_point(sphere(4), seed)
        res = generalized_newton_step(c, PP, p)
        j = pullback_jet(c, PP, p)
        assert res.hessian_condition == condition_estimate(j.hessian)
        s = euclidean_newton_step(j)
        assert res.step_norm == float(np.linalg.norm(s))


def test_validates_arguments():
    c = Quadratic(np.eye(2))
    p = Point(euclidean(2), np.zeros(2))
    with pytest.raises(ValueError):
        run_iteration(c, Fixed(PP), p, 0, 1e-12)
    with pytest.raises(ValueError):
        run_iteration(c, Fixed(PP), p, 5, 0.0)


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
        euclidean_newton_step(j)
    with pytest.raises(ValueError, match="symmetric"):
        newton_mod.solve_with_condition(j.hessian, j.gradient)


class _Counting:
    """A cost that counts its calls, delegating the maths to `cost`."""

    def __init__(self, cost):
        self.cost = cost
        self.name = cost.name
        self.calls = {"check_on": 0, "value": 0, "grad": 0, "hess_vec": 0}

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

    def hess_vec(self, p, direction):
        self.calls["hess_vec"] += 1
        return self.cost.hess_vec(p, direction)


def test_one_value_per_iterate():
    """each iterate's cost value is taken once, from its jet where a step
    left it, and a jet checks the cost against the manifold once"""
    A = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    c = _Counting(Quadratic(A))
    pullback_jet(c, PP, random_point(sphere(5), 2))
    assert c.calls == {"check_on": 1, "value": 1, "grad": 1, "hess_vec": 1}
    for pair in (PP, _pair(SphereGeodesic())):
        for seed in range(3):
            c = _Counting(Quadratic(A))
            p0 = random_point(sphere(5), seed)
            tr = run_iteration(c, Fixed(pair), p0, 30, 1e-12)
            assert tr.termination == "Converged" and len(tr.points) > 3
            assert c.calls["value"] == len(tr.points)
            assert c.calls["check_on"] == len(tr.points)
            assert c.calls["grad"] == len(tr.points) - 1
            ref = run_iteration(Quadratic(A), Fixed(pair), p0, 30, 1e-12)
            assert tr.cost_values == ref.cost_values
            assert tr.cost_values == tuple(value(Quadratic(A), q)
                                           for q in tr.points)
