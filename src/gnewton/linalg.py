"""Dense symmetric kernels: solve, polar factor, eigendecomposition, norms.

Everything here is small (sphere(100) gives a 99 x 99 Hessian) and dense;
the Newton solve tries one Cholesky factorisation of a shifted H, whose
success proves the condition limit, then takes one LU; eigenvalues are
taken only where that proof fails, or where a condition is asked for.
This module owns every LAPACK call of the package: it calls numpy's own
linalg gufuncs (`numpy.linalg._umath_linalg`) under the error policy that
numpy's wrappers set, so each result is the wrapper's array bit for bit
and each refusal the wrapper's LinAlgError, without the wrapper's
per-call checks and casts. Around them it owns the contracts: the one
symmetric-matrix check (square, finite, symmetric), the one finite test
(`all_finite`), the condition limit, sign conventions, error taxonomy.
"""

from math import inf, sqrt

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg import _umath_linalg as _lapack

from .errors import ProjectionUndefined, RankDeficient, SingularHessian

COND_LIMIT = 1e12
SYM_RTOL = 1e-10
_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps


def _policy(message):
    """numpy's linalg error policy, as a decorator: a LAPACK failure (the
    gufunc's invalid flag) raises LinAlgError(message), and overflow,
    division and underflow inside LAPACK are ignored. Each call enters it
    afresh, so the caller's own errstate neither warns nor raises there."""
    def fail(err, flag):
        raise LinAlgError(message)
    return np.errstate(call=fail, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


@_policy("Matrix is not positive definite")
def _cholesky(A):
    """np.linalg.cholesky of a float A: its lower factor."""
    return _lapack.cholesky_lo(A, signature="d->d")


@_policy("Singular matrix")
def _lu_solve(A, b):
    """np.linalg.solve of a float A and a float vector b."""
    return _lapack.solve1(A, b, signature="dd->d")


@_policy("Eigenvalues did not converge")
def _eigvalsh(A):
    """np.linalg.eigvalsh of a float A: ascending, from the lower triangle."""
    return _lapack.eigvalsh_lo(A, signature="d->d")


@_policy("Eigenvalues did not converge")
def _eigh(A):
    """np.linalg.eigh of a float A. -> (eigenvalues, eigenvectors)"""
    return _lapack.eigh_lo(A, signature="d->dd")


@_policy("Incorrect argument found while performing QR factorization")
def _qr(A, complete=False):
    """np.linalg.qr of a float A, or of a stack of them, in mode "complete"
    if complete else "reduced": Q, and the diagonal of R, read off the
    factored copy whose upper triangle R is. -> (Q, diag R)"""
    a = A.astype(float, copy=True)  # geqrf factors it in place
    tau = _lapack.qr_r_raw(a, signature="d->d")
    m, n = a.shape[-2:]
    q = (_lapack.qr_complete if complete and m > n
         else _lapack.qr_reduced)(a, tau, signature="dd->d")
    return q, np.diagonal(a, axis1=-2, axis2=-1)


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


def _unit_rows(X: np.ndarray, undefined: str) -> np.ndarray:
    """x / norm(x) for each row x of the 2-d X, to the bit, where that norm
    is finite and not 0; one row takes one dot, as `norm` does. A nonzero
    finite row whose squared norm overflows, or underflows to 0, is first
    scaled exactly, by the power of 2 of its largest magnitude. A zero row
    raises ProjectionUndefined(undefined)."""
    if len(X) == 1:
        r = norm(X)
        if 0.0 < r < inf:
            return X / r
    norms = row_norms(X)
    if 0.0 in norms or inf in norms:
        odd = [i for i, r in enumerate(norms) if r == 0.0 or r == inf]
        S = np.abs(X[odd]).max(axis=1, keepdims=True)
        if 0.0 in S:
            raise ProjectionUndefined(undefined)
        X = X.copy()
        X[odd] = np.ldexp(X[odd], -np.frexp(S)[1])
        for i, r in zip(odd, row_norms(X[odd])):
            norms[i] = r
    return X / np.array(norms)[:, None]


def all_finite(x: np.ndarray) -> bool:
    """np.isfinite(x).all(), with the finite entries counted instead of
    reduced: the same answer without the reduction's per-call dispatch."""
    return np.count_nonzero(np.isfinite(x)) == x.size


def _symmetric(A, label="matrix"):
    """A as a float array, checked square, finite (NaN passes symmetry) and
    symmetric within SYM_RTOL relative, with the norm that test takes; an
    |A|_F that overflows or underflows to 0 tests A scaled exactly, as
    `_unit_rows` scales a row. -> (A, |A|_F)"""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("%s must be square" % label)
    if not all_finite(A):
        raise ValueError("%s must be finite" % label)
    a = t = norm(A)
    T = A
    if not 0.0 < a < inf and A.size:
        T = np.ldexp(A, -np.frexp(np.abs(A).max())[1])
        t = norm(T)
    if norm(T - T.T) > SYM_RTOL * max(t, _TINY):
        raise ValueError("%s must be symmetric" % label)
    return A, a


def _checked_rhs(b, n):
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
    return _spectral_extremes(_eigvalsh(_symmetric(H)[0]))[2]


def _eigen_rule(H, b):
    """The eigenvalue rule, on an H and b that the contract has checked.
    -> (s, condition)

    The eigenvalues alone give the condition estimate, and s comes from one
    LU solve that only an H passing the guard reaches: SingularHessian when
    H has no nonzero eigenvalue (the zero matrix, or the 0 x 0 jet of a
    zero-dimensional manifold, whose estimate reads 0), with a message that
    says so, or when the estimate exceeds COND_LIMIT (inf for a singular H,
    so it is refused before LU could raise). The Newton step reaches this
    rule only for an H that the Cholesky certificate of `_solve` refuses.
    """
    lmax, _, cond = _spectral_extremes(_eigvalsh(H))
    if lmax == 0.0:
        raise SingularHessian("Hessian has no nonzero eigenvalue (%d x %d)"
                              % H.shape)
    if cond > COND_LIMIT:
        raise SingularHessian("condition estimate %.3e exceeds limits" % cond)
    return _lu_solve(H, b), cond


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
        _cholesky(A)
    except LinAlgError:
        return False
    return True


def symmetric_solve(H, b) -> np.ndarray:
    """Solve H s = b for a square, finite, symmetric H: the eigenvalue
    rule's s bit for bit, or its error, class and message."""
    return _solve(*_symmetric(H), np.asarray(b, dtype=float))


def _solve(H, h, b) -> np.ndarray:
    """The rhs test, then one Cholesky of the checked H shifted by its norm
    h (_certified) proves the condition limit before the same LU solve;
    any other H takes the eigenvalue rule. The Newton step calls it on its
    jet, finite and symmetric to the bit, with the h the jet took."""
    b = _checked_rhs(b, H.shape[0])
    if _certified(H, h):
        return _lu_solve(H, b)
    return _eigen_rule(H, b)[0]


def polar_factor(M) -> np.ndarray:
    """Orthonormal polar factor U = M (M^T M)^{-1/2} of an n x p matrix.

    U is the Frobenius-closest matrix with orthonormal columns. Computed
    through the eigendecomposition of M^T M, which squares M's condition:
    for M = X + V, a frame moved by a step, U's orthonormality residual can
    grow as about eps |V|^2, past FEAS_TOL near |V| = 1e3. A numerically
    rank-deficient M raises RankDeficient.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or not M.shape[0] >= M.shape[1] >= 1:
        raise ValueError("expected n x p with n >= p >= 1, got shape %r"
                         % (M.shape,))
    s, Q = _eigh(M.T @ M)
    smin = np.sqrt(max(float(s[0]), 0.0))
    if float(s[-1]) <= 0.0:
        raise RankDeficient("matrix has no positive singular value")
    if smin <= 1e-12 * np.sqrt(float(s[-1])):
        raise RankDeficient(
            "smallest singular value %.3e below rank threshold" % smin)
    return M @ (Q * (1.0 / np.sqrt(s))) @ Q.T


def symmetric_eigen(A):
    """Eigenvalues (ascending) and orthonormal eigenvectors of symmetric A.

    Eigenvector signs are fixed so the first component of each column whose
    magnitude is above 1e-12 is positive, making ground-truth comparisons
    deterministic.
    """
    lam, V = _eigh(_symmetric(A)[0])
    V = V.copy()
    for k in range(V.shape[1]):
        col = V[:, k]
        idx = np.nonzero(np.abs(col) > 1e-12)[0]
        if idx.size and col[idx[0]] < 0.0:
            V[:, k] = -col
    return lam, V
