import math

import numpy as np
import pytest

from gnewton.costs import Quadratic
from gnewton.errors import InsufficientData
from gnewton.manifolds import Point, euclidean, random_point, sphere
from gnewton.newton import Fixed, run_iteration
from gnewton.parametrizations import ParametrizationPair, Projection
from gnewton.rates import (DEFAULT_CEIL, DEFAULT_FLOOR, error_sequence,
                           estimate_rate, pooled_rate, usable_pairs)


def _synthetic(K, kappa, e0, n):
    errs = [e0]
    for _ in range(n - 1):
        errs.append(kappa * errs[-1] ** K)
    return errs


def test_exact_quadratic_sequence():
    # e_k = 0.5^(2^k): e_{k+1} = e_k^2 exactly, so K = 2, kappa = 1
    errs = [0.5 ** 2 ** k for k in range(6)]
    est = estimate_rate(errs)
    assert est.K == 2.0
    assert est.kappa == 1.0
    assert est.n_points == 3
    assert est.window == (2, 5)
    assert est.fit_residual == 0.0


def test_geometric_sequence_rate_one():
    est = estimate_rate([0.08 * 0.5 ** k for k in range(10)])
    assert abs(est.K - 1.0) <= 1e-9
    assert abs(est.kappa - 0.5) <= 1e-9


def test_synthetic_grid_recovery():
    for K0 in (1.5, 2.0, 2.5, 3.0):
        for kappa0 in (0.5, 1.0, 2.0):
            errs = _synthetic(K0, kappa0, 0.05, 12)
            est = estimate_rate(errs, floor=1e-300, ceil=0.09)
            assert abs(est.K - K0) <= 0.05, (K0, kappa0, est.K)
            assert abs(est.kappa - kappa0) <= 0.2 * kappa0 + 1e-9


def test_window_excludes_rails():
    errs = [0.9, 0.5 ** 2, 0.5 ** 4, 0.5 ** 8, 0.5 ** 16, 1e-14, 3e-15]
    est = estimate_rate(errs, floor=1e-12, ceil=0.5)
    assert est.window[0] >= 1
    assert est.window[1] <= 5
    assert abs(est.K - 2.0) <= 0.05


def test_appending_floor_noise_keeps_estimate():
    """iterates rattling at the floor must not drag the fit"""
    errs = _synthetic(2.0, 1.0, 0.09, 5)  # last entry 1.85e-17, below floor
    base = estimate_rate(errs, floor=1e-11)
    assert base.n_points == 3
    for tail in ([2e-12], [2e-12, 8e-13], [5e-13, 9e-13, 1e-13]):
        est = estimate_rate(errs + tail, floor=1e-11)
        assert est.K == base.K
        assert est.window == base.window


def test_insufficient_short_sequence():
    with pytest.raises(InsufficientData):
        estimate_rate([0.1, 0.01, 1e-4])


def test_insufficient_all_below_floor():
    with pytest.raises(InsufficientData):
        estimate_rate([1e-13, 1e-14, 1e-15, 1e-16], floor=1e-12)


def test_insufficient_sublinear_fit():
    # a stalling sequence (plateau at 1e-5) fits K well under 1/2
    errs = _synthetic(0.2, 1e-4, 0.05, 8)
    with pytest.raises(InsufficientData):
        estimate_rate(errs)


def test_insufficient_when_errors_stall():
    # a stalled iterate repeats one error: the log-log fit has no spread to
    # take a slope over (0/0), which is no fit rather than K = nan
    with pytest.raises(InsufficientData, match="no slope"):
        estimate_rate([1e-5] * 6)
    with pytest.raises(InsufficientData, match="no slope"):
        pooled_rate([[1e-5] * 3, [1e-5] * 4])


def test_insufficient_when_kappa_overflows():
    # errors equal to 1e-10 but in their last digits fit K ~ 1000, and
    # exp of the intercept (~2.3e4) overflows a float
    errs = [1e-10 * (1 + 1e-14 * 1000 ** k) for k in range(5)]
    with pytest.raises(InsufficientData, match="overflows"):
        estimate_rate(errs, 1e-30, 0.5)


def test_validation():
    errs = [0.1, 0.01, 1e-4, 1e-8, 1e-16]
    with pytest.raises(ValueError):
        estimate_rate(errs, floor=-1.0)
    with pytest.raises(ValueError):
        estimate_rate(errs, floor=0.5, ceil=0.5)
    # garbage entries (a negative "distance") fall outside the rails and
    # starve the fit rather than crashing the log
    with pytest.raises(InsufficientData):
        estimate_rate([0.1, -0.01, 1e-4, 1e-8])


def test_defaults_exposed():
    assert DEFAULT_FLOOR == 1e-12
    assert DEFAULT_CEIL == 1e-1


def test_estimate_fields_consistent():
    errs = _synthetic(2.0, 0.8, 0.05, 9)
    est = estimate_rate(errs, floor=1e-200)
    lo, hi = est.window
    assert est.n_points == hi - lo
    assert est.fit_residual >= 0.0
    # fitted line reproduces the log-log data inside the window
    for k in range(lo, hi):
        pred = math.log(est.kappa) + est.K * math.log(errs[k])
        assert abs(pred - math.log(errs[k + 1])) <= 1e-6


def test_error_sequence_with_truth():
    m = euclidean(1)
    pts = [Point(m, np.array([x])) for x in (0.5, 0.1, 0.01)]
    truth = Point(m, np.array([0.0]))
    errs = error_sequence(pts, truth)
    assert errs == [0.5, 0.1, 0.01]


def test_error_sequence_without_truth():
    """last iterate stands in for the limit; the two final errors are dropped"""
    m = euclidean(1)
    xs = [0.5, 0.1, 0.01, 1e-4, 1e-8, 1e-16]
    pts = [Point(m, np.array([x])) for x in xs]
    errs = error_sequence(pts, None)
    assert len(errs) == len(xs) - 2
    assert errs == [abs(x - xs[-1]) for x in xs[:-2]]


def test_error_sequence_accepts_trace():
    c = Quadratic(np.diag([1.0, 2.0, 4.0]))
    pp = ParametrizationPair(Projection(), Projection())
    tr = run_iteration(c, Fixed(pp), random_point(sphere(3), 11), 30, 1e-13)
    assert tr.termination == "Converged"
    with_truth = error_sequence(tr, tr.points[-1])
    assert len(with_truth) == len(tr.points)
    bare = error_sequence(tr, None)
    assert len(bare) == len(tr.points) - 2
    assert bare == with_truth[:-2]


def test_end_to_end_half_power_rate():
    # |x| + x^2 sqrt(|x|) from 0.5: the map is 5x sqrt(x)/(8+15 sqrt(x)),
    # whose measured order sits at 1.5 up to the kappa drift the default
    # window tolerates
    from gnewton.costs import AbsPower
    tr = run_iteration(AbsPower(), Fixed(ParametrizationPair(Projection(),
                                                             Projection())),
                       Point(euclidean(1), np.array([0.5])), 8, 1e-30)
    errs = error_sequence(tr, Point(euclidean(1), np.array([0.0])))
    est = estimate_rate(errs)
    assert 1.4 <= est.K <= 1.6


def test_pooled_single_sequence_is_estimate_rate():
    for errs, floor in ((_synthetic(2.0, 0.8, 0.05, 9), 1e-200),
                        ([0.5 ** 2 ** k for k in range(6)], DEFAULT_FLOOR),
                        (_synthetic(3.0, 1.4, 0.09, 5), 1e-30)):
        assert pooled_rate([errs], floor=floor) == estimate_rate(errs,
                                                                 floor=floor)


def test_pooled_never_pairs_across_sequences():
    small = [0.5 ** 2 ** k for k in range(6)]  # ends at 2.3e-10
    large = [0.09 ** 2 ** k for k in range(5)]  # starts at 0.09
    a, b = estimate_rate(small), estimate_rate(large)
    assert a.K == b.K == 2.0
    est = pooled_rate([small, large])
    assert abs(est.K - 2.0) <= 1e-12
    assert abs(est.kappa - 1.0) <= 1e-12
    assert est.n_points == a.n_points + b.n_points
    assert est.window == (0, 5)
    # the boundary pair (2.3e-10, 0.09) is what a concatenation would add
    assert usable_pairs(small + large) == [2, 3, 4, 5, 6, 7, 8]
    with pytest.raises(InsufficientData):
        estimate_rate(small + large)


def test_pooled_insufficient_total():
    # a cubic ladder cut off by an exact zero, as float64 leaves it
    two_pairs = [0.09, 0.09 ** 3, 0.09 ** 9, 0.0]
    assert len(usable_pairs(two_pairs)) == 2
    with pytest.raises(InsufficientData):
        pooled_rate([two_pairs, [1e-13, 1e-14, 1e-15, 1e-16]])
    with pytest.raises(InsufficientData):
        pooled_rate([])
    est = pooled_rate([two_pairs, two_pairs])
    assert est.n_points == 4
    assert abs(est.K - 3.0) <= 1e-9
