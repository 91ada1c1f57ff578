"""The generalised Newton iteration.

One generalised step is: pull the cost back through phi to the tangent space
at p, take a pure Euclidean Newton step of the resulting 2-jet, and map the
increment back through psi. Pure means pure: no damping, no line search, no
globalisation — divergence from bad starts is expected behaviour and gets
reported, not patched. A selector policy may change the (phi, psi) pair at
every iteration; convergence is declared on step norm, not gradient norm.
"""

from math import isfinite

import numpy as np

from .errors import (ChartDomainViolation, ConfigError, InfeasiblePoint,
                     NotTwiceDifferentiable, OutsideValidityRadius,
                     ProjectionUndefined, SingularHessian)
from .linalg import _solve, all_finite, condition_estimate, norm
from .manifolds import Point, _Record, _Value, distance, tangent_basis
from .parametrizations import ParametrizationPair, pair_label
from .rng import SplitMix64


class Jet2(_Record):
    """Value, gradient and symmetric Hessian of a pulled-back cost at the
    tangent-space origin, in the coordinates of an orthonormal basis. The
    solve checks the Hessian's symmetry (linalg's contract)."""
    _fields = ("basis", "value", "gradient", "hessian")


class StepResult(_Record):
    """A step from a point, as `generalized_newton_step` returns it: the
    record of the array step `_array_step`, which `run_iteration` takes
    without it. `base_value` is the cost there and `hessian` the
    pulled-back Hessian the step solved with, both from its jet over
    `tangent_basis`, so `hessian` is `pullback_jet`'s to the bit, and
    `next` is `apply_psi`'s of the increment. The step takes no
    eigenvalues when its solve's Cholesky certificate holds, so
    `hessian_condition` (condition_estimate of `hessian`) is computed when
    read."""
    _fields = ("next", "step_norm", "hessian", "pair_used", "base_value")

    @property
    def hessian_condition(self) -> float:
        return condition_estimate(self.hessian)


class IterationTrace(_Record):
    """`termination`: Converged | SingularHessian | MaxIterations |
    LeftValidityRegion."""
    _fields = ("points", "step_norms", "cost_values", "termination",
               "pairs_used")

    def __init__(self, points: tuple, step_norms: tuple, cost_values: tuple,
                 termination: str, pairs_used: tuple):
        k = len(points) - 1
        if not (len(step_norms) == k and len(pairs_used) == k
                and len(cost_values) == k + 1):
            raise ValueError("trace lengths inconsistent")
        super().__init__(points, step_norms, cost_values, termination,
                         pairs_used)


# --- selector policies -----------------------------------------------------
#
# `chooser()` makes a per-run pair chooser, choose(k, points) -> pair; any
# state lives in the chooser, so reusing a policy object across runs stays
# reproducible.

def _own_pairs(pairs) -> tuple:
    pairs = tuple(pairs)
    if not pairs:
        raise ValueError("pairs list must be non-empty")
    return pairs


class Fixed(_Value):
    name = "fixed"
    _fields = ("pair",)

    def chooser(self):
        return lambda k, points: self.pair


class RoundRobin(_Value):
    name = "round_robin"
    _fields = ("pairs",)

    def __init__(self, pairs: tuple):
        super().__init__(_own_pairs(pairs))

    def chooser(self):
        return lambda k, points: self.pairs[k % len(self.pairs)]


class Random(_Value):
    name = "random"
    _fields = ("pairs", "seed")

    def __init__(self, pairs: tuple, seed: int):
        super().__init__(_own_pairs(pairs), seed)

    def chooser(self):
        rng = SplitMix64(self.seed)
        return lambda k, points: self.pairs[rng.next_u64() % len(self.pairs)]


class PathDependent(_Value):
    """Two concrete stateful rules:

    - "alternate-on-repeat": advance to the next pair whenever the current
      point has already been visited (within 1e-9), so a revisit never
      replays the same map.
    - "distance-keyed": choose the pair by the current distance from the
      start point (far / middle / near bands at 0.1 and 1e-6).
    """
    name = "path"
    rules = ("alternate-on-repeat", "distance-keyed")
    _fields = ("rule", "pairs")

    def __init__(self, rule: str, pairs: tuple):
        pairs = _own_pairs(pairs)
        if rule not in self.rules:
            raise ValueError("unknown path rule %r" % (rule,))
        super().__init__(rule, pairs)

    def chooser(self):
        pairs = self.pairs
        if self.rule == "alternate-on-repeat":
            state = {"idx": 0}

            def choose(k, points):
                cur = points[-1]
                for prev in points[:-1]:
                    if distance(prev, cur) <= 1e-9:
                        state["idx"] = (state["idx"] + 1) % len(pairs)
                        break
                return pairs[state["idx"]]
            return choose

        def choose(k, points):
            d = distance(points[-1], points[0])
            i = 0 if d >= 0.1 else 1 if d >= 1e-6 else 2
            return pairs[min(i, len(pairs) - 1)]
        return choose


# --- steps ------------------------------------------------------------------

def pullback_jet(c, pair: ParametrizationPair, p: Point) -> Jet2:
    """2-jet of the cost pulled back through phi at the tangent origin: the
    record of `_jet` over the basis of p, in the step's coordinates. The
    cost and phi are checked against the manifold at entry.

    The gradient needs no correction (D phi_p(0) = I); the Hessian is
    B^T (ambient Hessian) B plus phi's curvature term
    C[i, j] = grad . D^2 phi_p(0)(b_i, b_j), which each kind contracts in
    closed form. A jet that overflows is no usable second derivative.
    """
    c.check_on(p.manifold)
    basis = tangent_basis(p)
    f, grad, H, _ = _jet(c, pair.phi.check_on(p.manifold), p,
                         p.manifold.step_coordinates(p, basis))
    return Jet2(basis, f, grad, H)


def _jet(c, phi, p: Point, coordinates):
    """The jet of `pullback_jet` by the step coordinates' `pullback`, for
    a cost and phi the caller checked; H symmetric to the bit. A finite
    h = |H|_F or |grad| proves its array finite; only a non-finite norm,
    which a finite array can give by overflow, tests the entries.
    -> (value, gradient, Hessian, h)"""
    grad, H = coordinates.pullback(c, phi, p, c.grad(p))
    h = norm(H)
    if not ((isfinite(h) or all_finite(H))
            and (isfinite(norm(grad)) or all_finite(grad))):
        raise NotTwiceDifferentiable("non-finite pulled-back jet")
    return c.value(p), grad, H, h


def generalized_newton_step(c, pair: ParametrizationPair, p: Point) -> StepResult:
    """One step of E_f = psi_p . N_{f o phi_p} at p: the record of the
    array step `_array_step`, which `run_iteration` calls directly. The
    cost, phi and psi are checked against the manifold at entry.

    The step does not depend on the orthonormal basis of T_p that carries
    it: with B' = BQ the jet is (Q^T g, Q^T H Q), so w = B's' = Bs. It is
    the step composed from `pullback_jet`, `symmetric_solve` and
    `apply_psi`, to the bit."""
    c.check_on(p.manifold)
    nxt, step_norm, H, f = _array_step(c, pair.check_on(p.manifold), p)
    return StepResult(nxt, step_norm, H, pair, f)


def _array_step(c, pair: ParametrizationPair, p: Point):
    """The step on arrays: the jet in p's checked step coordinates, the
    solve, their increment w = B s checked tangent as a TangentVector is,
    and psi's row map of w (p itself for a zero w). It builds no record but
    the next Point, and checks no kind: its callers check the cost and the
    pair. The solve takes H, symmetric to the bit, with the jet's norm h.
    -> (next point, |s|, Hessian, f(p))"""
    m = p.manifold
    coordinates = m.step_coordinates(p)
    f, grad, H, h = _jet(c, pair.phi, p, coordinates)
    s = -_solve(H, h, grad)
    w = coordinates.lift(s)
    m.check_tangent(p.ambient, w[None])
    return pair.psi._step_map(p, w), norm(s), H, f


@np.errstate(over="ignore", invalid="ignore")  # a diverging run overflows
def run_iteration(c, selector, p0: Point, max_iter: int, tol: float) -> IterationTrace:
    """Iterate generalised Newton steps with the selector choosing the pair.

    Errors do not escape: a singular pullback Hessian terminates with
    "SingularHessian"; a step leaving the region where the maps or jets are
    defined terminates with "LeftValidityRegion". The trace keeps everything
    collected up to the failure, starting from p0 itself. A point's cost
    value comes from the jet of the step taken from it; the last point,
    from which no step completed, has it taken on its own. A budget out of
    range (max_iter < 1, tol not positive or not finite) is a ConfigError.
    The cost is checked on p0's manifold once, and each pair the first
    time the selector returns it: a ManifoldMismatch propagates from there.
    """
    if max_iter < 1:
        raise ConfigError("max_iter: must be >= 1")
    if not tol > 0:
        raise ConfigError("tol: must be positive")
    if not isfinite(tol):
        raise ConfigError("tol: must be finite")
    m = p0.manifold
    c.check_on(m)
    checked = {}  # id(pair) -> pair, held so that no id is reused
    choose = selector.chooser()
    points = [p0]
    step_norms = []
    cost_values = []
    pairs_used = []
    termination = "MaxIterations"
    for k in range(max_iter):
        pair = choose(k, points)
        if id(pair) not in checked:
            checked[id(pair)] = pair.check_on(m)
        try:
            nxt, step_norm, _, f = _array_step(c, pair, points[-1])
        except SingularHessian:
            termination = "SingularHessian"
            break
        except (NotTwiceDifferentiable, ProjectionUndefined,
                OutsideValidityRadius, ChartDomainViolation, InfeasiblePoint):
            # InfeasiblePoint is Point/TangentVector validation rejecting a
            # diverged iterate (overflow to non-finite, or a huge ill-
            # conditioned step whose rounding breaks tangency) -- the
            # iteration has left any region where the maps make sense. Any
            # other error is a bug and propagates.
            termination = "LeftValidityRegion"
            break
        cost_values.append(f)
        points.append(nxt)
        step_norms.append(step_norm)
        pairs_used.append(pair_label(pair))
        if step_norm <= tol:
            termination = "Converged"
            break
    cost_values.append(c.value(points[-1]))
    return IterationTrace(tuple(points), tuple(step_norms), tuple(cost_values),
                          termination, tuple(pairs_used))

