"""Dense symmetric kernels: solve, polar factor, eigendecomposition, norm.

Everything here is small (sphere(100) gives a 99 x 99 Hessian) and dense;
the Newton solve tries one Cholesky factorisation of a shifted H, whose
success proves the condition limit, then takes one LU; eigenvalues are
taken only where that proof fails, or where a condition is asked for.
LAPACK via numpy does the heavy lifting; this module owns the contracts
around it: the one symmetric-matrix check (square, finite, symmetric), the
one finite test (`all_finite`), the condition limit, sign conventions,
error taxonomy.
"""

from math import sqrt

import numpy as np

from .errors import (NoConvergence, OutsideValidityRadius, RankDeficient,
                     SingularHessian)

COND_LIMIT = 1e12
SYM_RTOL = 1e-10
_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps


def norm(x) -> float:
    """np.linalg.norm(x) for the default ord and axis, as a float: its own
    fast path (ravel in memory order, dot, sqrt), so the same bits, without
    the per-call dispatch."""
    x = x.ravel(order="K")
    return sqrt(float(x.dot(x)))


def row_dots(A: np.ndarray, B: np.ndarray) -> list:
    """A[i].dot(B[i]) for each row of the 2-d A (B one row, or one per row),
    to the bit: one matmul runs each 1 x N by N x 1 product through `dot`."""
    if len(A) == 1:
        return [float(A[0].dot(B if B.ndim == 1 else B[0]))]
    return np.matmul(A[:, None, :], B[..., None]).ravel().tolist()


def row_norms(X: np.ndarray) -> list:
    """norm(x) for each row x of the 2-d X, to the bit."""
    return [sqrt(s) for s in row_dots(X, X)]


def all_finite(x: np.ndarray) -> bool:
    """np.isfinite(x).all(), with the finite entries counted instead of
    reduced: the same answer without the reduction's per-call dispatch."""
    return np.count_nonzero(np.isfinite(x)) == x.size


def _symmetric_and_norm(A, label="matrix"):
    """A as a float array, checked square, finite (NaN would pass the
    symmetry test) and symmetric within SYM_RTOL relative, with the
    Frobenius norm the symmetry test takes. -> (A, |A|_F)"""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("%s must be square" % label)
    if not all_finite(A):
        raise ValueError("%s must be finite" % label)
    a = norm(A)
    if norm(A - A.T) > SYM_RTOL * max(a, _TINY):
        raise ValueError("%s must be symmetric" % label)
    return A, a


def _as_square_symmetric(A, label="matrix"):
    """A as checked by _symmetric_and_norm."""
    return _symmetric_and_norm(A, label)[0]


def _checked_rhs(b, n):
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError("rhs length %r does not match matrix dimension %d"
                         % (b.shape, n))
    return b


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
    """Solve H s = b for symmetric H by the eigenvalue rule.
    -> (s, condition)

    The eigenvalues alone give the condition estimate, and s comes from one
    LU solve that only an H passing the guard reaches: SingularHessian when
    H has no nonzero eigenvalue (the zero matrix, or the 0 x 0 jet of a
    zero-dimensional manifold, whose estimate reads 0), with a message that
    says so, or when the estimate exceeds COND_LIMIT (inf for a singular H,
    so it is refused before LU could raise). The Newton step calls
    symmetric_solve, which reaches this rule only for an H that its
    Cholesky certificate cannot accept.
    """
    H = _as_square_symmetric(H)
    b = _checked_rhs(b, H.shape[0])
    lmax, _, cond = _spectral_extremes(np.linalg.eigvalsh(H))
    if lmax == 0.0:
        raise SingularHessian("Hessian has no nonzero eigenvalue (%d x %d)"
                              % H.shape)
    if cond > COND_LIMIT:
        raise SingularHessian("condition estimate %.3e exceeds limits" % cond)
    return np.linalg.solve(H, b), cond


def _certified(H, h) -> bool:
    """Whether one Cholesky factorisation of H - tau I runs to completion,
    with tau = h max(100 / COND_LIMIT, 2 n^2 eps) and h = |H|_F. Success
    proves lambda_min(H) > 0 and cond_2(H) < COND_LIMIT / 20.

    Cholesky and eigvalsh read the lower triangle of H alone; the contract
    keeps its norm h within SYM_RTOL. If the factorisation of the rounded
    A = fl(H - tau I) completes, LAPACK met only positive pivots, so the
    computed R is nonsingular and R^T R = A + dA with
    |dA| <= gamma_{n+1} |R^T| |R|, gamma_k = k u / (1 - k u), u = eps / 2
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
    Thm 10.3; Demmel, LAPACK Working Note 14, 1989). Then
    |dA|_2 <= |dA|_F <= gamma_{n+1} |R|_F^2 = gamma_{n+1} tr(R^T R), and
    tr(R^T R) <= tr(A) / (1 - gamma_{n+1}), because dA's diagonal is bounded
    by gamma_{n+1} diag(R^T R). The shift's own rounding E is diagonal with
    |E|_2 <= u (h + tau); it adds at most n u (h + tau) < n tau to the trace,
    so tr(A) <= tr(H) <= sqrt(n) h. As R^T R = H - tau I + E + dA is
    positive definite, lambda_min(H) > tau - delta with
    delta = |E|_2 + |dA|_2 <= u tau + ((n + 1) sqrt(n) / 2 + 1 / 2) eps h
    (1 + O(n eps)), and the bracket is at most 1.5 n^2 for every n >= 1
    (n = 1 is the tightest). So c = 2 in tau >= 2 n^2 eps h gives
    delta < 0.8 tau, hence lambda_min(H) > 0.2 tau >= 20 h / COND_LIMIT,
    and with lambda_max <= h, cond_2(H) < COND_LIMIT / 20. The eigenvalues
    the eigenvalue rule computes for the same H lie within its
    eigensolver's absolute error, p(n) eps |H|_2 with p(n) of order n, of
    the exact ones: far less than the 19 h / COND_LIMIT (about 8.5e4 eps h)
    that would close the margin, so any H this accepts, the rule accepts
    too. The second term of tau governs from n = 475 on. n = 0 and H = 0
    give tau = 0, and an |H|_F that overflowed gives tau = inf; neither is
    tried.
    """
    n = H.shape[0]
    tau = h * max(100.0 / COND_LIMIT, 2.0 * n * n * _EPS)
    if not 0.0 < tau < np.inf:
        return False
    A = H.copy()
    A.reshape(-1)[::n + 1] -= tau
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


def symmetric_solve(H, b) -> np.ndarray:
    """Solve H s = b for symmetric H: solve_with_condition's s bit for bit,
    or the same error, class and message.

    After the symmetric contract and the rhs check, one Cholesky
    factorisation of a shifted H (_certified) proves that H passes the
    condition limit; such an H goes straight to the same LU solve, without
    an eigensolver. Every other H (a failed Cholesky, n = 0, H = 0) takes
    solve_with_condition's eigenvalue rule, unchanged.
    """
    H, h = _symmetric_and_norm(H)
    b = _checked_rhs(b, H.shape[0])
    if _certified(H, h):
        return np.linalg.solve(H, b)
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
