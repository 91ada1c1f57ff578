"""End-to-end checks of the package's headline numerical claims.

Each check covers one advertised behaviour at its stated tolerance and
records a `criterion N: PASS/FAIL` line, printed in the terminal summary.
Seeds are fixed; every number here is reproducible bit for bit on one
platform. Rate claims over several starts pool every seed of a declared
range into one fit, so no claim hinges on which seeds a BLAS build happens
to round exactly onto the truth.
"""
import numpy as np
import pytest

from conftest import acceptance_lines

import gnewton as g

M6 = g.sphere(6)
A6 = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
C6 = g.Quadratic(A6)
TRUTH6 = g.compute_truth(M6, C6)
PP = g.ParametrizationPair(g.Projection(), g.Projection())
E1 = g.euclidean(1)


def _check(num, ok, detail):
    acceptance_lines.append("criterion %2d: %s (%s)"
                            % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def _rate(points_or_errs, truth=None, floor=1e-30, ceil=0.5):
    errs = (points_or_errs if truth is None
            else [g.distance(p, truth) for p in points_or_errs])
    return g.estimate_rate(errs, floor=floor, ceil=ceil)


def _errors(trace, truth):
    return g.error_sequence(trace, g.match_truth_signs(truth, trace.points[-1]))


def _pooled(ladders):
    """Pooled fit above the rounding level, and each ladder's usable pairs.

    The floor sits at the rounding level of O(1) coordinates: a rung below
    it is rounding noise (or an exact zero), not a step of the power law.
    """
    est = g.pooled_rate(ladders, floor=g.DEFAULT_FLOOR, ceil=0.5)
    pairs = [len(g.usable_pairs(e, g.DEFAULT_FLOOR, 0.5)) for e in ladders]
    return est, pairs


def test_criterion_01_beta_family_closed_form():
    c = g.Quadratic(np.array([[2.0]]))  # f(x) = x^2
    worst = 0.0
    for beta in (1.0, -0.25, 2.0):
        pair = g.ParametrizationPair(g.ExampleBeta(beta), g.ExampleBeta(beta))
        for x in (1.0, 0.3, -0.7):
            res = g.generalized_newton_step(c, pair, g.Point(E1, np.array([x])))
            want = beta * (3.0 + 4.0 * beta) / (1.0 + 2.0 * beta) ** 2 * x
            worst = max(worst, abs(res.next.ambient[0] - want))
    singular = False
    try:
        g.generalized_newton_step(
            c, g.ParametrizationPair(g.ExampleBeta(-0.5), g.ExampleBeta(-0.5)),
            g.Point(E1, np.array([1.0])))
    except g.SingularHessian:
        singular = True
    _check(1, worst <= 1e-10 and singular,
           "max closed-form gap %.2e; beta=-1/2 singular: %s"
           % (worst, singular))


def test_criterion_02_half_power_map_and_rate():
    c = g.AbsPower()
    worst = 0.0
    for x in (0.5, 0.25, 0.1):
        res = g.generalized_newton_step(c, PP, g.Point(E1, np.array([x])))
        want = 5.0 * x * np.sqrt(x) / (8.0 + 15.0 * np.sqrt(x))
        worst = max(worst, abs(res.next.ambient[0] - want))
    tr = g.run_iteration(c, g.Fixed(PP), g.Point(E1, np.array([0.5])),
                         60, 1e-13)
    est = g.estimate_rate(g.error_sequence(tr, g.Point(E1, np.zeros(1))))
    _check(2, worst <= 1e-12 and 1.4 <= est.K <= 1.6,
           "max map gap %.2e; fitted K=%.4f" % (worst, est.K))


def test_criterion_03_cubic_pair_order_three():
    pair = g.ParametrizationPair(g.Custom1D((0.0, -1.0)),
                                 g.Custom1D((0.0, -1.0)))
    ratios = []
    for z in (0.0, 0.3):
        c = g.ShiftedCubic(z)
        for dx in (1e-2, 3e-3, 1e-3):
            res = g.generalized_newton_step(c, pair,
                                            g.Point(E1, np.array([z + dx])))
            ratios.append(abs(res.next.ambient[0] - z) / dx ** 3)
    tr = g.run_iteration(g.ShiftedCubic(0.0), g.Fixed(pair),
                         g.Point(E1, np.array([0.05])), 30, 1e-13)
    est = _rate(tr.points, g.Point(E1, np.zeros(1)))
    ok = all(7.2 <= r <= 8.8 for r in ratios) and 2.7 <= est.K <= 3.3
    _check(3, ok, "cubic ratios in [%.3f, %.3f]; fitted K=%.4f"
           % (min(ratios), max(ratios), est.K))


def test_criterion_04_sphere_eigenvector_basin():
    # all twenty perturbed starts fall back to the bottom eigenvector
    neg = g.Point(M6, -TRUTH6.ambient)
    iters, dists, ladders = [], [], []
    for seed in range(20):
        x0 = g.near_truth_start(M6, TRUTH6, 0.1, seed)
        tr = g.run_iteration(C6, g.Fixed(PP), x0, 15, 1e-12)
        assert tr.termination == "Converged"
        iters.append(len(tr.points) - 1)
        dists.append(min(g.distance(tr.points[-1], TRUTH6),
                         g.distance(tr.points[-1], neg)))
        ladders.append(_errors(tr, TRUTH6))
    # from 0.1 a float64 ladder resolves 0.1, ~1e-3, ~1e-9 and then hits
    # rounding noise (~eps * 1e-9) or an exact zero: two pairs per seed,
    # pooled over the whole seed range into one fit
    est, pairs = _pooled(ladders)
    ok = (max(iters) <= 15 and max(dists) <= 1e-9
          and est.K >= 1.8 and min(pairs) >= 2)
    _check(4, ok,
           "20/20 converged, max %d iters, max dist %.1e; pooled K=%.3f "
           "over %d pairs, >= %d per seed (superquadratic)"
           % (max(iters), max(dists), est.K, est.n_points, min(pairs)))


def test_criterion_05_stiefel_trace_objective():
    m = g.stiefel(6, 2)
    c = g.BrockettTrace(A6, np.diag([1.0, 2.0]))
    truth = g.compute_truth(m, c)
    gaps, ladders = [], []
    for seed in range(10):
        x0 = g.near_truth_start(m, truth, 0.05, seed)
        tr = g.run_iteration(c, g.Fixed(PP), x0, 40, 1e-12)
        assert tr.termination == "Converged"
        gaps.append(abs(tr.cost_values[-1] - 4.0))
        ladders.append(_errors(tr, truth))
    est, pairs = _pooled(ladders)
    ok = max(gaps) <= 1e-8 and est.K >= 1.8 and min(pairs) >= 2
    _check(5, ok, "max |cost - 4| = %.2e; pooled K=%.3f over %d pairs, "
           ">= %d per seed" % (max(gaps), est.K, est.n_points, min(pairs)))


def test_criterion_06_grassmann_near_degenerate():
    m = g.grassmann(6, 2)
    c = g.GrassmannTrace(np.diag([1.0, 2.0, 2.003, 4.0, 5.0, 6.0]))
    truth = g.compute_truth(m, c)
    seeds, dists, ladders = range(40), [], []
    for seed in seeds:
        x0 = g.near_truth_start(m, truth, 0.05, seed)
        tr = g.run_iteration(c, g.Fixed(PP), x0, 40, 1e-12)
        assert tr.termination == "Converged"
        # Converged alone also admits another critical point (seed 25
        # ends 1.414 away): all but two seeds must land on the truth, and
        # the rate pools the ladders of those that do
        dists.append(g.distance(tr.points[-1], truth))
        if dists[-1] <= 1e-10:
            ladders.append(_errors(tr, truth))
    est, pairs = _pooled(ladders)
    ok = (len(ladders) >= len(seeds) - 2 and est.K >= 2.5
          and min(pairs) >= 2)
    _check(6, ok, "spectral gap 3e-3; %d/%d seeds on the truth; pooled "
           "K=%.3f over %d pairs, >= %d per seed"
           % (len(ladders), len(seeds), est.K, est.n_points, min(pairs)))


def test_criterion_07_random_pair_selection():
    pairs = (PP,
             g.ParametrizationPair(g.SphereGeodesic(), g.SphereGeodesic()),
             g.ParametrizationPair(g.Recentred(g.Projection(), 0),
                                   g.Recentred(g.Projection(), 0)))
    x0 = g.near_truth_start(M6, TRUTH6, 0.1, 100)
    limits, ladders = [], []
    for seed in range(10):
        tr = g.run_iteration(C6, g.Random(pairs, seed), x0, 30, 1e-12)
        assert tr.termination == "Converged"
        limits.append(tr.points[-1].ambient)
        ladders.append(_errors(tr, TRUTH6))
    spread = max(float(np.linalg.norm(a - b)) for a in limits for b in limits)
    est, npairs = _pooled(ladders)
    ok = spread <= 1e-8 and est.K >= 1.8 and min(npairs) >= 2
    _check(7, ok, "10 selector seeds, limit spread %.2e; pooled K=%.3f over "
           "%d pairs, >= %d per seed"
           % (spread, est.K, est.n_points, min(npairs)))


def test_criterion_08_condition_audit():
    rep = g.audit_conditions(PP, M6, 20, [1e-1, 1e-2, 1e-3], 42)
    broken = g.ParametrizationPair(g.Custom1D((0.1,)), g.Custom1D((0.1,)))
    rep2 = g.audit_conditions(broken, E1, 20, [1e-1, 1e-2, 1e-3], 42)
    ok = (1.9 <= rep.fitted_slope <= 2.1 and 0.4 <= rep.beta_hat <= 0.6
          and rep.all_pass and not rep2.pass_flags["dphi"]
          and not rep2.all_pass)
    _check(8, ok,
           "slope=%.4f beta_hat=%.4f pass=%s; broken pair flagged: %s"
           % (rep.fitted_slope, rep.beta_hat, rep.all_pass,
              not rep2.all_pass))


def test_criterion_09_synthetic_ladder_recovery():
    worst = 0.0
    for K0 in (1.5, 2.0, 3.0):
        for kappa in (0.5, 1.0, 2.0):
            errs = [0.1]
            while errs[-1] > 1e-260:
                errs.append(kappa * errs[-1] ** K0)
            est = g.estimate_rate(errs, floor=1e-250, ceil=1.0)
            worst = max(worst, abs(est.K - K0))
    _check(9, worst <= 0.05, "worst |K - K0| = %.2e over 9 ladders" % worst)


def test_criterion_10_perturbed_hessian_rate():
    # adding |x - z|^gamma I to the pulled-back Hessian each step decays
    # with the iterate, so the quadratic phase survives the perturbation
    c = g.ShiftedCubic(0.0)
    gamma = 1.0
    p = g.Point(E1, np.array([0.05]))
    pts = [p]
    for _ in range(60):
        j = g.pullback_jet(c, PP, p)
        lam = abs(p.ambient[0]) ** gamma
        s = -g.symmetric_solve(j.hessian + lam * np.eye(1), j.gradient)
        p = g.apply_psi(PP, g.TangentVector(p, j.basis.columns @ s))
        pts.append(p)
        if float(np.linalg.norm(s)) <= 1e-13:
            break
    est = _rate(pts, g.Point(E1, np.zeros(1)), floor=g.DEFAULT_FLOOR,
                ceil=g.DEFAULT_CEIL)
    _check(10, est.K >= 1.8,
           "gamma=1 perturbation: fitted K=%.4f (unperturbed 1.96)" % est.K)