"""The generalised Newton iteration.

One generalised step is: pull the cost back through phi to the tangent space
at p, take a pure Euclidean Newton step of the resulting 2-jet, and map the
increment back through psi. Pure means pure: no damping, no line search, no
globalisation — divergence from bad starts is expected behaviour and gets
reported, not patched. A selector policy may change the (phi, psi) pair at
every iteration; convergence is declared on step norm, not gradient norm.
"""

from dataclasses import dataclass

import numpy as np

from .costs import value
from .errors import (ChartDomainViolation, InfeasiblePoint,
                     NotTwiceDifferentiable, OutsideValidityRadius,
                     ProjectionUndefined, SingularHessian)
from .linalg import all_finite, norm, solve_with_condition, symmetric_solve
from .manifolds import Point, TangentBasis, TangentVector, distance, tangent_basis
from .parametrizations import (ParametrizationPair, apply_psi, curvature_term,
                               pair_label)
from .rng import SplitMix64


@dataclass(frozen=True, eq=False)
class Jet2:
    """Value, gradient and symmetric Hessian of a pulled-back cost at the
    tangent-space origin, in the coordinates of an orthonormal basis. The
    solve checks the Hessian's symmetry (linalg's contract)."""
    basis: TangentBasis
    value: float
    gradient: np.ndarray
    hessian: np.ndarray


@dataclass(frozen=True, eq=False)
class StepResult:
    """A step from a point; `base_value` is the cost there, from its jet."""
    next: Point
    step_norm: float
    hessian_condition: float
    pair_used: ParametrizationPair
    base_value: float


@dataclass(frozen=True, eq=False)
class IterationTrace:
    points: tuple
    step_norms: tuple
    cost_values: tuple
    termination: str  # Converged | SingularHessian | MaxIterations | LeftValidityRegion
    pairs_used: tuple

    def __post_init__(self):
        k = len(self.points) - 1
        if not (len(self.step_norms) == k and len(self.pairs_used) == k
                and len(self.cost_values) == k + 1):
            raise ValueError("trace lengths inconsistent")


# --- selector policies -----------------------------------------------------
#
# `chooser()` makes a per-run pair chooser, choose(k, points) -> pair; any
# state lives in the chooser, so reusing a policy object across runs stays
# reproducible.

def _own_pairs(policy):
    object.__setattr__(policy, "pairs", tuple(policy.pairs))
    if not policy.pairs:
        raise ValueError("pairs list must be non-empty")


@dataclass(frozen=True)
class Fixed:
    name = "fixed"
    pair: ParametrizationPair

    def chooser(self):
        return lambda k, points: self.pair


@dataclass(frozen=True)
class RoundRobin:
    name = "round_robin"
    pairs: tuple

    def __post_init__(self):
        _own_pairs(self)

    def chooser(self):
        return lambda k, points: self.pairs[k % len(self.pairs)]


@dataclass(frozen=True)
class Random:
    name = "random"
    pairs: tuple
    seed: int

    def __post_init__(self):
        _own_pairs(self)

    def chooser(self):
        rng = SplitMix64(self.seed)
        return lambda k, points: self.pairs[rng.next_u64() % len(self.pairs)]


@dataclass(frozen=True)
class PathDependent:
    """Two concrete stateful rules:

    - "alternate-on-repeat": advance to the next pair whenever the current
      point has already been visited (within 1e-9), so a revisit never
      replays the same map.
    - "distance-keyed": choose the pair by the current distance from the
      start point (far / middle / near bands at 0.1 and 1e-6).
    """
    name = "path"
    rules = ("alternate-on-repeat", "distance-keyed")
    rule: str
    pairs: tuple

    def __post_init__(self):
        _own_pairs(self)
        if self.rule not in self.rules:
            raise ValueError("unknown path rule %r" % (self.rule,))

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

def euclidean_newton_step(j: Jet2) -> np.ndarray:
    """Pure Newton increment -H^{-1} g in tangent coordinates."""
    return -symmetric_solve(j.hessian, j.gradient)


def pullback_jet(c, pair: ParametrizationPair, p: Point) -> Jet2:
    """2-jet of the cost pulled back through phi at the tangent origin.

    The gradient needs no correction (D phi_p(0) = I); the Hessian is
    B^T (ambient Hessian) B plus phi's curvature term
    C[i, j] = grad . D^2 phi_p(0)(b_i, b_j), which each kind contracts in
    closed form. A jet that overflows is no usable second derivative.
    The cost is checked against the manifold once.
    """
    B = tangent_basis(p)
    c.check_on(p.manifold)
    cols = B.columns
    g_amb = c.grad(p)
    grad = cols.T @ g_amb
    H = cols.T @ c.hess_vec(p, cols)
    H = H + curvature_term(pair, p, cols, g_amb)
    H = 0.5 * (H + H.T)
    if not (all_finite(H) and all_finite(grad)):
        raise NotTwiceDifferentiable("non-finite pulled-back jet")
    return Jet2(basis=B, value=c.value(p), gradient=grad, hessian=H)


def generalized_newton_step(c, pair: ParametrizationPair, p: Point) -> StepResult:
    """One step of E_f = psi_p . N_{f o phi_p} at p; psi reads the jet's
    tangent columns, lent to p only while it maps the increment."""
    j = pullback_jet(c, pair, p)
    x, cond = solve_with_condition(j.hessian, j.gradient)
    s = -x
    w = TangentVector(p, j.basis.columns @ s)
    vars(p)["_lent_columns"] = j.basis.columns
    try:
        nxt = apply_psi(pair, w)
    finally:
        vars(p).pop("_lent_columns", None)
    return StepResult(next=nxt, step_norm=norm(s), hessian_condition=cond,
                      pair_used=pair, base_value=j.value)


def run_iteration(c, selector, p0: Point, max_iter: int, tol: float) -> IterationTrace:
    """Iterate generalised Newton steps with the selector choosing the pair.

    Errors do not escape: a singular pullback Hessian terminates with
    "SingularHessian"; a step leaving the region where the maps or jets are
    defined terminates with "LeftValidityRegion". The trace keeps everything
    collected up to the failure, starting from p0 itself. A point's cost
    value comes from the jet of the step taken from it; the last point,
    from which no step completed, has it taken on its own.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    choose = selector.chooser()
    points = [p0]
    step_norms = []
    cost_values = []
    pairs_used = []
    termination = "MaxIterations"
    for k in range(max_iter):
        pair = choose(k, points)
        try:
            res = generalized_newton_step(c, pair, points[-1])
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
        cost_values.append(res.base_value)
        points.append(res.next)
        step_norms.append(res.step_norm)
        pairs_used.append(pair_label(pair))
        if res.step_norm <= tol:
            termination = "Converged"
            break
    cost_values.append(value(c, points[-1]))
    return IterationTrace(points=tuple(points), step_norms=tuple(step_norms),
                          cost_values=tuple(cost_values), termination=termination,
                          pairs_used=tuple(pairs_used))

