"""Convergence-rate measurement: error sequences and (K, kappa) fits.

The model is ||x_{k+1} - x*|| <= kappa ||x_k - x*||^K. A log-log least-squares
fit over consecutive error pairs recovers K as the slope and kappa as
exp(intercept); kappa's value depends on the distance convention (ambient
chordal / Grassmann projector here), K does not.
"""

from dataclasses import dataclass
from math import exp, log, sqrt

import numpy as np

from .errors import InsufficientData, ManifoldMismatch
from .manifolds import Point, distance

DEFAULT_FLOOR = 1e-12
DEFAULT_CEIL = 1e-1


@dataclass(frozen=True)
class RateEstimate:
    K: float
    kappa: float
    window: tuple  # (first, last) error indices spanned by the fit
    fit_residual: float  # RMS of log-space regression residuals
    n_points: int  # number of consecutive pairs in the fit


def log_log_fit(xs, ys):
    """Least-squares line ys = slope xs + intercept, for logs of a power
    law. -> (slope, intercept)"""
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    dx = xs - xs.mean()
    slope = float((dx * (ys - ys.mean())).sum() / (dx * dx).sum())
    return slope, float(ys.mean() - slope * xs.mean())


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
                        fit_residual=float(sqrt(float(np.mean(resid * resid)))),
                        n_points=len(xs))
