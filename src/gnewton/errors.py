"""Exception taxonomy shared across the package.

Iteration drivers map a subset of these onto termination states instead of
letting them escape; see newton.run_iteration.
"""


class GnewtonError(Exception):
    """Base class for all package-specific errors."""


class InfeasiblePoint(GnewtonError, ValueError):
    """Coordinates are non-finite, off the manifold, or not tangent: the
    iterate has left the region where points and steps make sense."""


class SingularHessian(GnewtonError):
    """Hessian is singular or too ill-conditioned for a trustworthy solve."""


class ManifoldMismatch(GnewtonError):
    """Operands live on different manifolds (or the wrong one)."""


class ProjectionUndefined(GnewtonError):
    """Closest-point projection has no unique answer (zero vector, rank loss)."""


class OutsideValidityRadius(GnewtonError):
    """Tangent step is outside the region where a kind's map is
    well-behaved; no shipped kind has such a region."""


class NotTwiceDifferentiable(GnewtonError):
    """Cost lacks a usable second derivative at the requested point."""


class ChartDomainViolation(GnewtonError):
    """Point is outside (or too close to the edge of) the chart's domain."""


class InsufficientData(GnewtonError):
    """Too few usable samples to produce a rate estimate."""


class ConfigError(GnewtonError, ValueError):
    """A config, argument or trace file is malformed; the message names the
    key, argument or row."""
