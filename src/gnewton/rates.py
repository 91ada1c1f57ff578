"""Convergence-rate measurement: error sequences and (K, kappa) fits.

The model is ||x_{k+1} - x*|| <= kappa ||x_k - x*||^K. A log-log least-squares
fit over consecutive error pairs recovers K as the slope and kappa as
exp(intercept); kappa's value depends on the distance convention (ambient
chordal / Grassmann projector here), K does not.
"""

from math import exp, log, sqrt

import numpy as np

from .errors import InsufficientData, ManifoldMismatch
from .linalg import norm
from .manifolds import Point, _Value, distance

DEFAULT_FLOOR = 1e-12
DEFAULT_CEIL = 1e-1
_ROUNDING = 8 * float(np.finfo(float).eps)  # times |x*|_F: the level of x*


class RateEstimate(_Value):
    """`window`: the (first, last) error indices spanned by the fit;
    `fit_residual`: the RMS of the log-space regression residuals;
    `n_points`: the number of consecutive pairs in the fit."""
    _fields = ("K", "kappa", "window", "fit_residual", "n_points")


def log_log_fit(xs, ys):
    """Least-squares line ys = slope xs + intercept, for logs of a power
    law; its means and sums take np.add.reduce, the one reduction that
    ndarray's mean and sum run, to the bit. -> (slope, intercept)"""
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    mx, my = np.add.reduce(xs) / xs.size, np.add.reduce(ys) / ys.size
    dx = xs - mx
    slope = float(np.add.reduce(dx * (ys - my)) / np.add.reduce(dx * dx))
    return slope, float(my - slope * mx)


@np.errstate(over="ignore", invalid="ignore")  # a diverged trace overflows
def error_sequence(trace, truth) -> list:
    """Distances of trace points to the truth.

    With truth = None the final trace point stands in for the truth and the
    last two entries are dropped: the final error is an exact zero and the
    penultimate one is biased low, so both would contaminate a fit.
    """
    points = list(trace.points) if hasattr(trace, "points") else list(trace)
    if not points:
        raise ValueError("empty trace")
    if truth is None:
        truth = points[-1]
        points = points[:-2]
    elif isinstance(truth, Point) and truth.manifold != points[0].manifold:
        raise ManifoldMismatch("truth lives on a different manifold")
    return [distance(p, truth) for p in points]


def resolvable_rate(sequences, limits, floor: float = DEFAULT_FLOOR,
                    ceil: float = DEFAULT_CEIL) -> RateEstimate:
    """The fit a run publishes: ``estimate_rate`` of one error sequence, or
    ``pooled_rate`` of several, over the rungs that rounding can resolve.

    ``limits`` holds, per sequence, the point x* its errors are measured
    to: the truth, or the final iterate where ``error_sequence`` has none.
    An error at or under x*'s rounding level 8 eps |x*|_F reads as 0, so it
    falls outside (floor, ceil): a step of length about e_k moves x by
    rounding of that size, so a rung there is noise, not a power law. A
    truth at 0 has level 0 and keeps every rung. Where a level lies above
    the floor, InsufficientData names it, whether or not a rung fell
    under it, so the reason does not change with rounding either.
    """
    guarded, top = [], 0.0
    for errors, x in zip(sequences, limits):
        level = _ROUNDING * norm(x.ambient)
        top = max(top, level)
        guarded.append([0.0 if e <= level else e for e in errors])
    try:
        if len(guarded) == 1:
            return estimate_rate(guarded[0], floor, ceil)
        return pooled_rate(guarded, floor, ceil)
    except InsufficientData as exc:
        if top <= floor:
            raise
        raise InsufficientData("%s; errors at or under the rounding level "
                               "%.3g of the limit read as 0" % (exc, top)
                               ) from None


def usable_pairs(errors, floor: float = DEFAULT_FLOOR,
                 ceil: float = DEFAULT_CEIL) -> list:
    """Indices k whose pair (e_k, e_{k+1}) lies strictly inside (floor, ceil)."""
    return [k for k, (a, b) in enumerate(zip(errors, errors[1:]))
            if floor < a < ceil and floor < b < ceil]


def estimate_rate(errors, floor: float = DEFAULT_FLOOR,
                  ceil: float = DEFAULT_CEIL) -> RateEstimate:
    """Fit log e_{k+1} = K log e_k + log kappa over usable pairs.

    A pair is usable when both errors lie strictly inside (floor, ceil):
    below the floor 64-bit rounding has destroyed the power law, above the
    ceiling the behaviour is pre-asymptotic. The floor must therefore not
    sit below the iterates' rounding level: an error under about eps times
    the previous one is rounding noise, not a rung of the ladder. Fewer
    than 4 errors, fewer than 3 usable pairs, usable errors all equal (a
    stalled iterate), a fitted K below 0.5, which no convergent power law
    produces, or a kappa that overflows a float raises InsufficientData.
    This is ``pooled_rate`` over one sequence.
    """
    errors = list(errors)
    if len(errors) < 4:
        raise InsufficientData("need at least 4 errors, got %d" % len(errors))
    return pooled_rate([errors], floor, ceil)


def pooled_rate(sequences, floor: float = DEFAULT_FLOOR,
                ceil: float = DEFAULT_CEIL) -> RateEstimate:
    """One (K, kappa) fit over the usable pairs of several error sequences.

    Pairs are formed inside each sequence, never across the boundary
    between two, so independent traces of one method (say, one per seed)
    pool their resolvable rungs: a float64 trace of a cubic method from
    0.1 holds only two pairs above the rounding level, too few to fit on
    its own. ``window`` spans the earliest first and the latest last error
    index used in any sequence; ``n_points`` counts the pooled pairs.
    Raises InsufficientData as ``estimate_rate`` does.
    """
    if not (0 <= floor < ceil):
        raise ValueError("need 0 <= floor < ceil")
    xs, ys, first, last = [], [], [], []
    for errors in sequences:
        errors = [float(e) for e in errors]
        idx = usable_pairs(errors, floor, ceil)
        if idx:
            xs += [log(errors[k]) for k in idx]
            ys += [log(errors[k + 1]) for k in idx]
            first.append(idx[0])
            last.append(idx[-1] + 1)
    if len(xs) < 3:
        raise InsufficientData("only %d usable pairs in (%g, %g)"
                               % (len(xs), floor, ceil))
    if min(xs) == max(xs):
        raise InsufficientData("usable errors all equal: no slope to fit")
    xs, ys = np.array(xs), np.array(ys)
    K, c = log_log_fit(xs, ys)
    resid = ys - (K * xs + c)
    if K < 0.5:
        raise InsufficientData("fitted K=%.3f below 0.5; sequence is not a "
                               "convergent power law" % K)
    try:
        kappa = exp(c)
    except OverflowError:
        raise InsufficientData("fitted log kappa=%.3e overflows (K=%.3f)"
                               % (c, K)) from None
    return RateEstimate(K=K, kappa=kappa, window=(min(first), max(last)),
                        fit_residual=sqrt(float(np.add.reduce(resid * resid)
                                                / resid.size)),
                        n_points=len(xs))
