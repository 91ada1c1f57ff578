"""Dense symmetric kernels: solve, polar factor, eigendecomposition, norm.

Everything here is small (sphere(100) gives a 99 x 99 Hessian) and dense;
the Newton solve takes eigenvalues only, then one LU. LAPACK via numpy does
the heavy lifting; this module owns the contracts around it: the one
symmetric-matrix check (square, finite, symmetric), the one finite test
(`all_finite`), the condition limit, sign conventions, error taxonomy.
"""

from math import sqrt

import numpy as np

from .errors import (NoConvergence, OutsideValidityRadius, RankDeficient,
                     SingularHessian)

COND_LIMIT = 1e12
SYM_RTOL = 1e-10
_TINY = np.finfo(float).tiny


def norm(x) -> float:
    """np.linalg.norm(x) for the default ord and axis, as a float: its own
    fast path (ravel in memory order, dot, sqrt), so the same bits, without
    the per-call dispatch."""
    x = x.ravel(order="K")
    return sqrt(float(x.dot(x)))


def all_finite(x: np.ndarray) -> bool:
    """np.isfinite(x).all(), with the finite entries counted instead of
    reduced: the same answer without the reduction's per-call dispatch."""
    return np.count_nonzero(np.isfinite(x)) == x.size


def _as_square_symmetric(A, label="matrix"):
    """A as a float array, checked square, finite (NaN would pass the
    symmetry test) and symmetric within SYM_RTOL relative."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("%s must be square" % label)
    if not all_finite(A):
        raise ValueError("%s must be finite" % label)
    if norm(A - A.T) > SYM_RTOL * max(norm(A), _TINY):
        raise ValueError("%s must be symmetric" % label)
    return A


def _spectral_extremes(lam):
    """|lambda|_max, |lambda|_min and their ratio (inf when singular)."""
    a = np.abs(lam)
    lmax, lmin = float(a.max(initial=0.0)), float(a.min(initial=np.inf))
    return lmax, lmin, (np.inf if lmin == 0.0 else lmax / lmin)


def condition_estimate(H) -> float:
    """Spectral condition number estimate |lambda|_max / |lambda|_min of
    symmetric H, from its eigenvalues alone."""
    return _spectral_extremes(np.linalg.eigvalsh(_as_square_symmetric(H)))[2]


def solve_with_condition(H, b):
    """Solve H s = b for symmetric H. -> (s, condition)

    The eigenvalues alone give the condition estimate, and s comes from one
    LU solve that only an H passing the guard reaches: SingularHessian when
    H has no nonzero eigenvalue (the zero matrix, or the 0 x 0 jet of a
    zero-dimensional manifold, whose estimate reads 0), with a message that
    says so, or when the estimate exceeds COND_LIMIT (inf for a singular H,
    so it is refused before LU could raise).
    """
    H = _as_square_symmetric(H)
    b = np.asarray(b, dtype=float)
    if b.shape != (H.shape[0],):
        raise ValueError("rhs length %r does not match matrix dimension %d"
                         % (b.shape, H.shape[0]))
    lmax, _, cond = _spectral_extremes(np.linalg.eigvalsh(H))
    if lmax == 0.0:
        raise SingularHessian("Hessian has no nonzero eigenvalue (%d x %d)"
                              % H.shape)
    if cond > COND_LIMIT:
        raise SingularHessian("condition estimate %.3e exceeds limits" % cond)
    return np.linalg.solve(H, b), cond


def symmetric_solve(H, b) -> np.ndarray:
    """Solve H s = b for symmetric H (see solve_with_condition)."""
    return solve_with_condition(H, b)[0]


def polar_factor(M, guard=None) -> np.ndarray:
    """Orthonormal polar factor U = M (M^T M)^{-1/2} of an n x p matrix.

    U is the Frobenius-closest matrix with orthonormal columns. Computed
    through the eigendecomposition of M^T M (p is tiny in every use here, so
    no numerically fragile regime arises). Without a guard, a numerically
    rank-deficient M raises RankDeficient. With one, the smallest singular
    value must exceed the guard instead, or OutsideValidityRadius is raised:
    a projection step p + v that collapses has left the map's validity
    region, which a run reports as such, never as a rank error.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] < M.shape[1]:
        raise ValueError("expected n x p with n >= p, got shape %r" % (M.shape,))
    s, Q = np.linalg.eigh(M.T @ M)
    smin = np.sqrt(max(float(s[0]), 0.0))
    if guard is not None:
        if smin <= guard:
            raise OutsideValidityRadius(
                "smallest singular value %.3e under guard %g" % (smin, guard))
    elif float(s[-1]) <= 0.0:
        raise RankDeficient("matrix has no positive singular value")
    elif smin <= 1e-12 * np.sqrt(float(s[-1])):
        raise RankDeficient(
            "smallest singular value %.3e below rank threshold" % smin)
    return M @ (Q * (1.0 / np.sqrt(s))) @ Q.T


def symmetric_eigen(A):
    """Eigenvalues (ascending) and orthonormal eigenvectors of symmetric A.

    Eigenvector signs are fixed so the first component of each column whose
    magnitude is above 1e-12 is positive, making ground-truth comparisons
    deterministic.
    """
    A = _as_square_symmetric(A)
    try:
        lam, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("eigensolver did not converge") from exc
    V = V.copy()
    for k in range(V.shape[1]):
        col = V[:, k]
        idx = np.nonzero(np.abs(col) > 1e-12)[0]
        if idx.size and col[idx[0]] < 0.0:
            V[:, k] = -col
    return lam, V
