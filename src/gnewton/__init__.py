"""Newton's method on manifolds through parametrisation pairs.

A parametrisation pair (phi, psi) turns the classical Newton update into a
manifold iteration: pull the cost back through phi, take the Euclidean
Newton step in the tangent space, push the result through psi. The package
provides the linear-algebra kernel, manifold/point types, the built-in
parametrisation kinds with their sufficient-condition audit, cost models,
the iteration driver with pair selectors, and convergence-rate fitting.
The ``gnewton`` console script exposes run/audit/rates on top of it.
"""

from types import ModuleType as _ModuleType

from .costs import (AbsPower, BrockettTrace, GrassmannTrace, Quadratic,
                    ShiftedCubic, ambient_gradient, ambient_hessian_vec, value)
from .errors import (ChartDomainViolation, ConfigError, GnewtonError,
                     InfeasiblePoint, InsufficientData, ManifoldMismatch,
                     NotTwiceDifferentiable, OutsideValidityRadius,
                     ProjectionUndefined, RankDeficient, SingularHessian)
from .config import (Experiment, build_experiment, compute_truth, load_config,
                     match_truth_signs, near_truth_start)
from .linalg import polar_factor, symmetric_eigen, symmetric_solve
from .manifolds import (Euclidean, Grassmann, ManifoldDescriptor, Point,
                        Sphere, Stiefel, TangentBasis, TangentVector,
                        distance, euclidean, grassmann, project_to_manifold,
                        random_point, sphere, stiefel, tangent_basis)
from .newton import (Fixed, IterationTrace, Jet2, PathDependent, Random,
                     RoundRobin, StepResult, generalized_newton_step,
                     pullback_jet, run_iteration)
from .parametrizations import (AuditReport, Custom1D, ExampleBeta,
                               ParametrizationPair, Projection, QR, Recentred,
                               SphereGeodesic, Stereographic, apply_phi,
                               apply_psi, audit_conditions, pair_label,
                               recentring_rotation, second_order_term)
from .rates import (DEFAULT_CEIL, DEFAULT_FLOOR, RateEstimate, error_sequence,
                    estimate_rate, pooled_rate, resolvable_rate, usable_pairs)
from .rng import SplitMix64

__version__ = "0.1.0"

# every public name the imports above bind, not the submodules they load
__all__ = [name for name, v in globals().items()
           if not (name.startswith("_") or isinstance(v, _ModuleType))]
__all__.append("__version__")
