"""Newton iteration engines.

One generalised step is: pull the cost back through phi to the tangent space
at p, take a pure Euclidean Newton step of the resulting 2-jet, and map the
increment back through psi. Pure means pure: no damping, no line search, no
globalisation — divergence from bad starts is expected behaviour and gets
reported, not patched. A selector policy may change the (phi, psi) pair at
every iteration; convergence is declared on step norm, not gradient norm.
"""

from dataclasses import dataclass

import numpy as np

from .costs import ambient_gradient, ambient_hessian_vec, value
from .errors import (ChartDomainViolation, InfeasiblePoint,
                     NotTwiceDifferentiable, OutsideValidityRadius,
                     ProjectionUndefined, SingularHessian)
from .linalg import solve_with_condition, symmetric_solve
from .manifolds import (Point, TangentBasis, TangentVector, distance,
                        tangent_basis, _complete_orthonormal)
from .parametrizations import (ParametrizationPair, Projection, apply_psi,
                               curvature_term, pair_label)
from .rng import SplitMix64

_EPS = np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class Jet2:
    """Value, gradient and symmetric Hessian of a pulled-back cost at the
    tangent-space origin, in the coordinates of an orthonormal basis."""
    basis: TangentBasis
    value: float
    gradient: np.ndarray
    hessian: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.hessian, dtype=float)
        scale = np.linalg.norm(H)
        if scale > 0 and np.linalg.norm(H - H.T) > 1e-10 * scale:
            raise ValueError("jet hessian is not symmetric")


@dataclass(frozen=True, eq=False)
class StepResult:
    next: Point
    step_norm: float
    hessian_condition: float
    pair_used: ParametrizationPair


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

@dataclass(frozen=True)
class Fixed:
    pair: ParametrizationPair


@dataclass(frozen=True)
class RoundRobin:
    pairs: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if not self.pairs:
            raise ValueError("pairs list must be non-empty")


@dataclass(frozen=True)
class Random:
    pairs: tuple
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if not self.pairs:
            raise ValueError("pairs list must be non-empty")


@dataclass(frozen=True)
class PathDependent:
    """Two concrete stateful rules:

    - "alternate-on-repeat": advance to the next pair whenever the current
      point has already been visited (within 1e-9), so a revisit never
      replays the same map.
    - "distance-keyed": choose the pair by the current distance from the
      start point (far / middle / near bands at 0.1 and 1e-6).
    """
    rule: str
    pairs: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if not self.pairs:
            raise ValueError("pairs list must be non-empty")
        if self.rule not in ("alternate-on-repeat", "distance-keyed"):
            raise ValueError("unknown path rule %r" % (self.rule,))


def _make_chooser(selector):
    """Per-run pair chooser; state is created fresh here so reusing a policy
    object across runs stays reproducible."""
    if isinstance(selector, Fixed):
        return lambda k, points, step_norms: selector.pair
    if isinstance(selector, RoundRobin):
        return lambda k, points, step_norms: selector.pairs[k % len(selector.pairs)]
    if isinstance(selector, Random):
        rng = SplitMix64(selector.seed)
        return lambda k, points, step_norms: selector.pairs[
            rng.next_u64() % len(selector.pairs)]
    if isinstance(selector, PathDependent):
        if selector.rule == "alternate-on-repeat":
            state = {"idx": 0}

            def choose(k, points, step_norms):
                cur = points[-1]
                for prev in points[:-1]:
                    if distance(prev, cur) <= 1e-9:
                        state["idx"] = (state["idx"] + 1) % len(selector.pairs)
                        break
                return selector.pairs[state["idx"]]
            return choose

        def choose(k, points, step_norms):
            d = distance(points[-1], points[0])
            if d >= 0.1:
                i = 0
            elif d >= 1e-6:
                i = 1
            else:
                i = 2
            return selector.pairs[min(i, len(selector.pairs) - 1)]
        return choose
    raise TypeError("unknown selector %r" % (selector,))


SelectorPolicy = (Fixed, RoundRobin, Random, PathDependent)


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
    """
    B = tangent_basis(p)
    cols = B.columns
    g_amb = ambient_gradient(c, p)
    grad = cols.T @ g_amb
    H = cols.T @ ambient_hessian_vec(c, p, cols)
    H = H + curvature_term(pair, p, cols, g_amb)
    H = 0.5 * (H + H.T)
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(grad))):
        raise NotTwiceDifferentiable("non-finite pulled-back jet")
    return Jet2(basis=B, value=value(c, p), gradient=grad, hessian=H)


def generalized_newton_step(c, pair: ParametrizationPair, p: Point) -> StepResult:
    """One step of E_f = psi_p . N_{f o phi_p} at p, from one factorisation
    of the pulled-back Hessian."""
    j = pullback_jet(c, pair, p)
    x, cond = solve_with_condition(j.hessian, j.gradient)
    s = -x
    w = TangentVector(p, j.basis.columns @ s)
    nxt = apply_psi(pair, w)
    return StepResult(next=nxt, step_norm=float(np.linalg.norm(s)),
                      hessian_condition=cond, pair_used=pair)


def run_iteration(c, selector, p0: Point, max_iter: int, tol: float) -> IterationTrace:
    """Iterate generalised Newton steps with the selector choosing the pair.

    Errors do not escape: a singular pullback Hessian terminates with
    "SingularHessian"; a step leaving the region where the maps or jets are
    defined terminates with "LeftValidityRegion". The trace keeps everything
    collected up to the failure, starting from p0 itself.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    choose = _make_chooser(selector)
    points = [p0]
    step_norms = []
    cost_values = [value(c, p0)]
    pairs_used = []
    termination = "MaxIterations"
    for k in range(max_iter):
        pair = choose(k, points, step_norms)
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
        points.append(res.next)
        step_norms.append(res.step_norm)
        cost_values.append(value(c, res.next))
        pairs_used.append(pair_label(pair))
        if res.step_norm <= tol:
            termination = "Converged"
            break
    return IterationTrace(points=tuple(points), step_norms=tuple(step_norms),
                          cost_values=tuple(cost_values), termination=termination,
                          pairs_used=tuple(pairs_used))


# --- chart lift --------------------------------------------------------------

@dataclass(frozen=True)
class Newton:
    """Undamped Newton as the lifted method."""


@dataclass(frozen=True)
class DampedNewton:
    """Levenberg-style damping: step = -(H + lam I)^{-1} g."""
    lam: float


@dataclass(frozen=True)
class Identity:
    """Trivial chart on Euclidean space."""


@dataclass(frozen=True, eq=False)
class SphereStereographic:
    """Stereographic chart of the sphere projected from `pole`: covers the
    sphere minus the pole itself (which maps to infinity), so points
    numerically too close to the pole are rejected."""
    pole: np.ndarray

    def __post_init__(self):
        q = np.array(self.pole, dtype=float)
        if abs(np.linalg.norm(q) - 1.0) > 1e-10:
            raise ValueError("pole must be a unit vector")
        q.setflags(write=False)
        object.__setattr__(self, "pole", q)


def _stereo_fwd(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    denom = 1.0 - q @ x
    if denom <= 1e-12:
        raise ChartDomainViolation("point is (numerically) at the chart pole")
    return (x - (x @ q) * q) / denom


def _stereo_inv(y: np.ndarray, q: np.ndarray) -> np.ndarray:
    n2 = y @ y
    return ((n2 - 1.0) * q + 2.0 * y) / (n2 + 1.0)


def _solve_step(H, g, method) -> np.ndarray:
    if isinstance(method, DampedNewton):
        H = H + method.lam * np.eye(H.shape[0])
    return -symmetric_solve(H, g)


def chart_lift_step(method, chart, c, p: Point) -> Point:
    """One step of a shift-invariant Euclidean method lifted through a chart:
    map p in, re-centre the pulled-back cost at the image, step, map back.

    Through a genuine chart the pullback has no analytic jet, so gradient and
    Hessian come from central finite differences with step eps^(1/3) — the
    error floor this puts on iterates (~1e-11) is measurable and expected.
    """
    m = p.manifold
    if isinstance(chart, Identity):
        if m.kind != "euclidean":
            raise ChartDomainViolation("identity chart requires Euclidean space")
        pair = ParametrizationPair(Projection(), Projection())
        j = pullback_jet(c, pair, p)
        s = _solve_step(j.hessian, j.gradient, method)
        return Point(m, p.ambient + j.basis.columns @ s)

    if not isinstance(chart, SphereStereographic):
        raise TypeError("unknown chart %r" % (chart,))
    if m.kind != "sphere":
        raise ChartDomainViolation("stereographic chart requires the sphere")
    q = chart.pole
    n = m.n
    y0 = _stereo_fwd(p.ambient, q)
    h = _EPS ** (1.0 / 3.0)
    # chart coordinates carry n - 1 degrees of freedom; differencing along an
    # orthonormal basis of the pole's complement keeps every probe point on
    # the chart plane, so the inverse lands on the sphere to rounding
    B = _complete_orthonormal(q[:, None], n - 1)
    k = n - 1

    def g(s):
        return value(c, Point(m, _stereo_inv(y0 + B @ s, q)))

    g0 = g(np.zeros(k))
    grad = np.zeros(k)
    H = np.zeros((k, k))
    for i in range(k):
        ei = np.eye(k)[i] * h
        grad[i] = (g(ei) - g(-ei)) / (2.0 * h)
        H[i, i] = (g(ei) - 2.0 * g0 + g(-ei)) / (h * h)
    for i in range(k):
        for j in range(i + 1, k):
            eij = (np.eye(k)[i] + np.eye(k)[j]) * h
            dij = (np.eye(k)[i] - np.eye(k)[j]) * h
            H[i, j] = H[j, i] = ((g(eij) - 2.0 * g0 + g(-eij))
                                 - (g(dij) - 2.0 * g0 + g(-dij))) / (4.0 * h * h)
    s = _solve_step(H, grad, method)
    return Point(m, _stereo_inv(y0 + B @ s, q))
