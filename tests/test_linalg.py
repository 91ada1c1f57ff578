import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import gnewton.linalg as linalg_mod
from gnewton.errors import (GnewtonError, InfeasiblePoint, ProjectionUndefined,
                            SingularHessian)
from gnewton.linalg import (COND_LIMIT, _unit_rows, all_finite,
                            condition_estimate, norm, polar_factor, row_dots,
                            row_norms, symmetric_eigen, symmetric_solve)
from gnewton.rng import SplitMix64
from oracles import solve_with_condition


# --- symmetric_solve ----------------------------------------------------------

def test_solve_identity():
    b = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(symmetric_solve(np.eye(3), b), b)


def test_solve_scalar():
    assert symmetric_solve(np.array([[2.0]]), np.array([4.0]))[0] == 2.0


def test_solve_2x2_hand_inverted():
    s = symmetric_solve(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([1.0, 1.0]))
    assert np.allclose(s, [1.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_solve_rank_deficient_raises():
    with pytest.raises(SingularHessian):
        symmetric_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0]))


def test_solve_zero_matrix_raises():
    with pytest.raises(SingularHessian):
        symmetric_solve(np.zeros((2, 2)), np.ones(2))


def test_solve_condition_limit():
    with pytest.raises(SingularHessian):
        symmetric_solve(np.diag([1.0, 1e-13]), np.ones(2))


def test_solve_rejects_asymmetric():
    with pytest.raises(ValueError):
        symmetric_solve(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))


def test_solve_residual_bound_random():
    """1000 well-conditioned instances, dims 1-16."""
    rng = SplitMix64(314)
    for k in range(1000):
        n = 1 + rng.next_u64() % 16
        M = rng.gaussians(n * n).reshape(n, n)
        # eigenvalues in [1, ~n^2+1]: condition far below 1e6
        H = M @ M.T + np.eye(n)
        b = rng.gaussians(n)
        s = symmetric_solve(H, b)
        nrm = np.linalg.norm
        assert nrm(H @ s - b) <= 1e-9 * (nrm(H) * nrm(s) + nrm(b))


def test_solve_with_condition_shares_one_factorisation():
    """the solve and the condition it reports share one code path: the
    condition comes from the eigenvalues alone and equals
    condition_estimate bitwise, and the solve is symmetric_solve's LU"""
    rng = SplitMix64(15)
    for _ in range(50):
        M = rng.gaussians(16).reshape(4, 4)
        H = 0.5 * (M + M.T)  # indefinite in general
        b = rng.gaussians(4)
        s, cond = solve_with_condition(H, b)
        assert cond == condition_estimate(H)
        assert np.array_equal(s, symmetric_solve(H, b))
        assert np.linalg.norm(H @ s - b) <= 1e-9 * cond * np.linalg.norm(b)
    with pytest.raises(SingularHessian):
        solve_with_condition(np.diag([1.0, -1e-13]), np.ones(2))


def _rotated(lam, seed):
    """Q diag(lam) Q^T for a seeded orthogonal Q, symmetrised."""
    n = len(lam)
    Q = polar_factor(SplitMix64(seed).gaussians(n * n).reshape(n, n))
    H = (Q * np.asarray(lam, dtype=float)) @ Q.T
    return 0.5 * (H + H.T)


def test_solve_indefinite_sweep_matches_the_eigenvector_solve():
    """symmetric indefinite H, n = 1..16, 29 and 99, alternately Gaussian
    and a rotated spectrum of mixed signs over six decades: the LU solve
    has the backward error of test_solve_residual_bound_random and agrees
    with V((V^T b) / lambda) within a small multiple of cond * eps"""
    eps = np.finfo(float).eps
    nrm = np.linalg.norm
    rng = SplitMix64(2718)
    for n in list(range(1, 17)) + [29, 99]:
        for k in range(40 if n <= 16 else 8):
            if k % 2 == 0:
                M = rng.gaussians(n * n).reshape(n, n)
                H = 0.5 * (M + M.T)
            else:
                mags = 10.0 ** (6.0 * np.array([rng.uniform()
                                                for _ in range(n)]))
                H = _rotated(rng.gaussians(n) * mags, rng.next_u64())
            b = rng.gaussians(n)
            s, cond = solve_with_condition(H, b)
            assert nrm(H @ s - b) <= 1e-9 * (nrm(H) * nrm(s) + nrm(b))
            lam, V = np.linalg.eigh(H)
            ref = V @ ((V.T @ b) / lam)
            assert nrm(s - ref) <= 8.0 * cond * eps * nrm(ref)


@pytest.mark.parametrize("rotate", [False, True])
def test_solve_thresholds_on_both_sides(rotate):
    """exact diagonals and rotated ones: a condition just under COND_LIMIT
    solves, just over raises; a |lambda|_min of 2e-14 or 5e-15 against a
    |lambda|_max of 1 puts the condition far past COND_LIMIT"""
    def H(small):
        lam = [-1.0, 0.5, small]
        return _rotated(lam, 11) if rotate else np.diag(lam)
    b = np.ones(3)
    s, cond = solve_with_condition(H(1.01 / COND_LIMIT), b)
    assert 0.98 * COND_LIMIT <= cond <= COND_LIMIT
    assert np.linalg.norm(H(1.01 / COND_LIMIT) @ s - b) <= 1e-3
    for small in (0.99 / COND_LIMIT, 2e-14, 5e-15, -0.99 / COND_LIMIT):
        with pytest.raises(SingularHessian):
            solve_with_condition(H(small), b)


def test_exactly_singular_raises_singular_hessian_not_linalgerror():
    """the guard refuses what LU would fail on, so numpy's LinAlgError
    never escapes the solve"""
    M = SplitMix64(99).gaussians(99 * 98).reshape(99, 98)
    cases = [np.zeros((3, 3)), np.ones((2, 2)), np.diag([2.0, 0.0, -1.0]),
             _rotated([3.0, 0.0, -1.0, 2.0], 5), M @ M.T]
    for H in cases:
        b = np.ones(H.shape[0])
        with pytest.raises(SingularHessian):
            solve_with_condition(H, b)
    for H in cases[:3]:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(H, np.ones(H.shape[0]))


def test_empty_hessian_is_singular():
    """the 0 x 0 jet of a zero-dimensional manifold has no eigenvalue: its
    condition reads 0, and the solve refuses it all the same"""
    assert condition_estimate(np.zeros((0, 0))) == 0.0
    with pytest.raises(SingularHessian):
        solve_with_condition(np.zeros((0, 0)), np.zeros(0))


def test_hessian_without_nonzero_eigenvalue_says_so():
    """an H with no nonzero eigenvalue is refused for that reason, not for a
    condition estimate that reads 0 (0 x 0) or inf (3 x 3)"""
    for n in (0, 3):
        with pytest.raises(SingularHessian,
                           match=r"^Hessian has no nonzero eigenvalue "
                                 r"\(%d x %d\)$" % (n, n)):
            solve_with_condition(np.zeros((n, n)), np.zeros(n))


def test_import_leaves_out_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [q for q in env.get("PYTHONPATH", "").split(os.pathsep) if q])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, gnewton; print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# --- polar_factor ---------------------------------------------------------------

def test_polar_orthonormal_fixed_point():
    M = np.column_stack([np.eye(4)[:, 0], np.eye(4)[:, 2]])
    assert np.allclose(polar_factor(M), M, atol=1e-12)


def test_polar_positive_diagonal():
    U = polar_factor(np.diag([2.0, 0.5]))
    assert np.allclose(U, np.eye(2), atol=1e-12)


def test_polar_rank_deficient_raises():
    M = np.column_stack([np.ones(3), np.ones(3)])
    with pytest.raises(ProjectionUndefined):
        polar_factor(M)


def test_polar_refuses_a_matrix_without_columns():
    """an n x 0 or 0 x 0 M has no polar factor: the shape check's
    ValueError, not an IndexError from an empty spectrum"""
    for shape in ((3, 0), (0, 0)):
        with pytest.raises(ValueError, match=r"n >= p >= 1, got shape"):
            polar_factor(np.zeros(shape))


def test_polar_optimality_conditions():
    # U^T U = I and U^T M symmetric positive definite
    rng = SplitMix64(99)
    for _ in range(50):
        M = rng.gaussians(8).reshape(4, 2) + np.eye(4)[:, :2]
        U = polar_factor(M)
        assert np.linalg.norm(U.T @ U - np.eye(2)) <= 1e-12
        S = U.T @ M
        assert np.linalg.norm(S - S.T) <= 1e-10 * np.linalg.norm(S)
        assert np.all(np.linalg.eigvalsh(0.5 * (S + S.T)) > 0)


def test_polar_closest_orthonormal():
    """1000 random full-rank M; U beats 100 random orthonormal Q each."""
    rng = SplitMix64(2718)
    shapes = [(2, 2), (3, 2), (4, 2), (6, 2)]
    for k in range(1000):
        n, p = shapes[k % len(shapes)]
        M = rng.gaussians(n * p).reshape(n, p)
        try:
            U = polar_factor(M)
        except ProjectionUndefined:
            continue  # vanishingly rare for Gaussian draws; not the property under test
        dU = np.linalg.norm(M - U)
        # one draw for the 100 Q: n p is even, so these are the gaussians
        # of 100 draws of n p each; their orthonormal factors W V^T
        W, _, Vt = np.linalg.svd(rng.gaussians(100 * n * p).reshape(100, n, p)
                                 + 0.1 * np.eye(n)[:, :p], full_matrices=False)
        Q = W @ Vt
        assert np.all(np.linalg.norm(Q.transpose(0, 2, 1) @ Q - np.eye(p),
                                     axis=(1, 2)) <= 1e-12)
        assert np.all(dU <= np.linalg.norm(M - Q, axis=(1, 2)) + 1e-12)


def test_stacked_polar_factor_gives_each_matrix_its_own_bits():
    """one call over a stack of 60 gives each matrix the bytes of its own
    call, in five frame shapes, square ones included"""
    rng = SplitMix64(314)
    for n, p in ((12, 3), (20, 4), (7, 3), (5, 5), (6, 2)):
        M = rng.gaussians(60 * n * p).reshape(60, n, p)
        U = polar_factor(M)
        assert U.shape == M.shape
        for Uk, Mk in zip(U, M):
            assert Uk.tobytes() == polar_factor(Mk).tobytes()


def test_polar_factor_of_a_long_step_is_orthonormal_to_rounding():
    """M = X + V with V tangent at a frame X: a normal part of norm 1e3 or
    1e6 and rank p - 1, which leaves M a singular value near 1 and a
    condition near |V|, plus a unit skew part. U^T U = I within 1e-14,
    where a factor through M^T M loses eps cond^2"""
    rng = SplitMix64(77)
    for n, p in ((7, 3), (12, 3), (20, 4)):
        for scale in (1e3, 1e6):
            for _ in range(10):
                X = np.linalg.qr(rng.gaussians(n * p).reshape(n, p))[0]
                P = np.linalg.qr(X, "complete")[0][:, p:]
                K = (rng.gaussians((n - p) * (p - 1)).reshape(n - p, p - 1)
                     @ rng.gaussians((p - 1) * p).reshape(p - 1, p))
                W = rng.gaussians(p * p).reshape(p, p)
                V = scale * P @ K / np.linalg.norm(K) + X @ (W - W.T)
                U = polar_factor(X + V)
                assert np.linalg.norm(U.T @ U - np.eye(p)) <= 1e-14


def test_polar_factor_refuses_non_finite_and_rank_deficient_matrices():
    """a NaN or inf entry is a ValueError before LAPACK sees it, alone or
    anywhere in a stack; in a stack the first rank-deficient matrix raises
    the ProjectionUndefined of its own call"""
    M = SplitMix64(3).gaussians(4 * 5 * 2).reshape(4, 5, 2)
    for bad in (np.nan, np.inf, -np.inf):
        A = M.copy()
        A[2, 1, 0] = bad
        for arg in (A, A[2]):
            with pytest.raises(ValueError, match="must be finite"):
                polar_factor(arg)
    A = M.copy()
    A[1, :, 1] = A[1, :, 0]
    A[3] = 0.0
    with pytest.raises(ProjectionUndefined) as alone:
        polar_factor(A[1])
    with pytest.raises(ProjectionUndefined, match="rank threshold") as got:
        polar_factor(A)
    assert str(got.value) == str(alone.value)


# --- symmetric_eigen ------------------------------------------------------------

def test_eigen_diagonal_permutation():
    lam, V = symmetric_eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(lam, [1.0, 2.0, 3.0], atol=1e-14)
    want = np.column_stack([np.eye(3)[:, 1], np.eye(3)[:, 2], np.eye(3)[:, 0]])
    assert np.allclose(V, want, atol=1e-14)


def test_eigen_2x2_hand():
    lam, V = symmetric_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(lam, [1.0, 3.0], atol=1e-14)
    assert np.linalg.norm(V.T @ V - np.eye(2)) <= 1e-10


def test_eigen_identity_degenerate():
    lam, V = symmetric_eigen(np.eye(4))
    assert np.allclose(lam, np.ones(4), atol=1e-14)
    assert np.linalg.norm(V.T @ V - np.eye(4)) <= 1e-10


def test_eigen_sign_convention():
    # first nonzero component of each eigenvector is positive
    rng = SplitMix64(55)
    for _ in range(100):
        M = rng.gaussians(25).reshape(5, 5)
        A = 0.5 * (M + M.T)
        lam, V = symmetric_eigen(A)
        assert np.all(np.diff(lam) >= -1e-12)
        for j in range(5):
            col = V[:, j]
            nz = col[np.abs(col) > 1e-12]
            assert nz[0] > 0


def test_eigen_reconstruction():
    rng = SplitMix64(77)
    for _ in range(100):
        M = rng.gaussians(36).reshape(6, 6)
        A = 0.5 * (M + M.T)
        lam, V = symmetric_eigen(A)
        err = np.linalg.norm(A - V @ np.diag(lam) @ V.T)
        assert err <= 1e-9 * max(np.linalg.norm(A), 1e-30)
        assert np.linalg.norm(A @ V - V @ np.diag(lam)) <= 1e-9 * max(np.linalg.norm(A), 1.0)


def test_eigen_rejects_asymmetric():
    with pytest.raises(ValueError):
        symmetric_eigen(np.array([[1.0, 5.0], [0.0, 2.0]]))


# --- norm ----------------------------------------------------------------------

_VIEWS = {
    "c": np.ascontiguousarray,
    "f": np.asfortranarray,
    "transposed": lambda a: a.T,
    "strided": lambda a: a[::2],
    "reversed": lambda a: a[..., ::-1],
}


def _bits(x) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=0,
                                         max_side=7),
                elements=st.floats(width=64)),
       view=st.sampled_from(sorted(_VIEWS)))
@example(a=np.zeros(0), view="c")
@example(a=np.zeros((0, 3)), view="f")
@example(a=np.array([np.inf, -1.0]), view="c")
@example(a=np.array([-np.inf, 2.0, 3.0]), view="strided")
@example(a=np.array([[np.nan, 1.0], [2.0, np.inf]]), view="transposed")
@example(a=np.array([[1.0, -2.0, 3.0], [4.0, 5.0, -6.0]]), view="f")
def test_norm_is_np_linalg_norm_bit_for_bit(a, view):
    """norm is np.linalg.norm's default path: the same bits on 1-D and
    2-D arrays in either order, on transposed, strided and reversed views,
    empty arrays and non-finite entries (NaN compared by its bits)."""
    x = _VIEWS[view](a)
    with np.errstate(over="ignore"):  # huge entries overflow to inf in both
        got, want = norm(x), float(np.linalg.norm(x))
    assert type(got) is float
    assert _bits(got) == _bits(want)


def test_symmetric_contract_rejects_non_finite():
    """NaN compares false, so it would pass the symmetry test; the
    contract refuses non-finite entries first, for every solve"""
    b = np.ones(2)
    for bad in (np.nan, np.inf, -np.inf):
        for H in (np.array([[bad, 0.0], [0.0, 1.0]]),
                  np.array([[1.0, bad], [bad, 1.0]])):
            with pytest.raises(ValueError, match="matrix must be finite"):
                symmetric_solve(H, b)
            with pytest.raises(ValueError, match="matrix must be finite"):
                solve_with_condition(H, b)
            with pytest.raises(ValueError, match="matrix must be finite"):
                symmetric_eigen(H)


def test_symmetric_contract_messages():
    from gnewton.linalg import _symmetric
    with pytest.raises(ValueError, match="^matrix must be square$"):
        symmetric_solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError, match="^matrix must be symmetric$"):
        symmetric_solve(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(ValueError, match="^A must be square$"):
        _symmetric(np.ones(3), "A")
    # within SYM_RTOL relative passes, and the array comes back as given
    A = np.array([[1.0, 1e-12], [0.0, 1.0]])
    assert _symmetric(A)[0] is A


def test_symmetric_contract_holds_where_the_norm_overflows_or_underflows():
    """|A|_F overflows at 1e200 and underflows to 0 at 1e-170, which made
    the relative bound inf or 0 and let these asymmetric matrices through
    (to answers off by 1e170); they are tested at unit scale, exactly
    scaled by a power of 2, and refused, while symmetric ones at those
    scales still pass, returned as given with their norm"""
    from gnewton.linalg import _symmetric
    for scale in (1e200, 1e-170):
        A = scale * np.array([[1.0, 1.0], [0.0, 1.0]])
        S = scale * np.array([[1.0, 2.0], [2.0, 3.0]])
        with np.errstate(over="ignore"):  # |A|_F overflows at 1e200
            with pytest.raises(ValueError,
                               match="^matrix must be symmetric$"):
                symmetric_solve(A, np.ones(2))
            with pytest.raises(ValueError, match="^A must be symmetric$"):
                _symmetric(A, "A")
            got, a = _symmetric(S)
            assert got is S and a == norm(S) in (np.inf, 0.0)
            assert _symmetric(np.diag([1.0, 2.0]) * scale)[1] == norm(
                np.diag([1.0, 2.0]) * scale)


@pytest.mark.parametrize("H, broken", [
    (np.array([[1.0, 5.0], [0.0, 1.0]]), "symmetric"),
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), "finite"),
    (np.ones((1, 3)), "square"),
])
def test_condition_estimate_runs_the_symmetric_contract(H, broken):
    """eigh reads one triangle (1.0 for the asymmetric matrix), passes NaN
    through and fails on a non-square input in numpy's own error: the
    contract refuses all three as every solve does"""
    with pytest.raises(ValueError, match="^matrix must be %s$" % broken):
        condition_estimate(H)


# --- the Cholesky certificate of symmetric_solve --------------------------------

def _outcome(solve, H, b):
    """solve(H, b)'s bytes, or its error's class and message"""
    try:
        return solve(H, b).tobytes()
    except (SingularHessian, ValueError) as exc:
        return type(exc), str(exc)


def _reflected(lam, seed):
    """(I - 2 v v^T) diag(lam) (I - 2 v v^T) for a seeded unit v, symmetrised:
    a dense H with spectrum lam at O(n^2) cost, for n where _rotated's
    polar factor is slow"""
    v = SplitMix64(seed).gaussians(len(lam))
    v /= np.linalg.norm(v)
    w = np.asarray(lam, dtype=float) * v
    H = np.diag(lam) - 2.0 * np.outer(v, w) - 2.0 * np.outer(w, v)
    H += 4.0 * float(v @ w) * np.outer(v, v)
    return 0.5 * (H + H.T)


def _certificate_spectrum(kind, n, rng):
    """A spectrum of the kind: its magnitudes span 10^-e..1 with e drawn
    from [0, 15], so conditions land on both sides of COND_LIMIT"""
    e = 15.0 * rng.uniform()
    mags = 10.0 ** (-e * np.array([rng.uniform() for _ in range(n)]))
    mags[0] = 10.0 ** -e
    mags[-1] = 1.0
    if kind == "negative":
        return -mags
    if kind == "indefinite":
        signs = np.array([1.0 if rng.uniform() < 0.5 else -1.0
                          for _ in range(n)])
        signs[0], signs[-1] = -1.0, 1.0
        return signs * mags
    if kind == "rank-deficient":
        mags[:1 + rng.next_u64() % n] = 0.0
    return mags


def _certificate_sweep(sizes):
    """(lam, H, b) for the certificate sweep at each n of sizes: positive
    and negative definite, indefinite and rank-deficient spectra, rotated
    or diagonal, with conditions on both sides of the limit"""
    rng = SplitMix64(1414)
    kinds = ("positive", "negative", "indefinite", "rank-deficient")
    for n in sizes:
        rotate = _rotated if n < 600 else _reflected
        for k in range(48 if n <= 16 else 8):
            lam = _certificate_spectrum(kinds[k % 4], n, rng)
            H = rotate(lam, rng.next_u64()) if k % 8 < 4 else np.diag(lam)
            yield lam, H, rng.gaussians(n)


def test_certificate_sweep_accepts_only_what_the_eigenvalue_rule_accepts():
    """n = 1..16, 29, 99 and 600 (where 2 n^2 eps is the larger shift):
    positive and negative definite, indefinite and rank-deficient H, rotated
    or diagonal, with conditions on both sides of the limit. An H the
    certificate accepts is positive definite with a condition of at most
    COND_LIMIT / 10, and symmetric_solve gives solve_with_condition's bits
    or its error, class and message, on every H"""
    from gnewton.linalg import _certified
    eps = np.finfo(float).eps
    assert 2.0 * 600 ** 2 * eps > 100.0 / COND_LIMIT > 2.0 * 99 ** 2 * eps
    certified = {True: 0, False: 0}
    for lam, H, b in _certificate_sweep(list(range(1, 17)) + [29, 99, 600]):
        if _certified(H, norm(H)):
            assert lam.min() > 0.0 and np.linalg.eigvalsh(H)[0] > 0.0
            assert condition_estimate(H) <= COND_LIMIT / 10
            certified[True] += 1
        elif lam.min() > 0.0:
            certified[False] += 1
        assert (_outcome(symmetric_solve, H, b)
                == _outcome(lambda H, b: solve_with_condition(H, b)[0],
                            H, b))
    # positive definite spectra on both sides of what the shift proves
    assert certified[True] > 50 and certified[False] > 50


def test_certificate_shift_grows_with_n_past_the_limit_term():
    """at n = 600 the shift is 2 n^2 eps |H|_F, about 1.6e-10 |H|_F: a
    positive definite H whose lambda_min sits under it is not certified,
    and the eigenvalue rule solves it with the same bits"""
    from gnewton.linalg import _certified
    lam = np.ones(600)
    lam[0] = 1.2e-10 * norm(np.diag(lam))
    H = _reflected(lam, 3)
    b = np.ones(600)
    assert not _certified(H, norm(H))
    assert np.linalg.eigvalsh(H)[0] > 100.0 / COND_LIMIT * norm(H)
    assert np.array_equal(symmetric_solve(H, b), solve_with_condition(H, b)[0])


def test_positive_definite_past_the_limit_is_still_singular():
    """diag(1, 0.5, 0.99e-12) is positive definite, so a Cholesky of H
    itself succeeds, but its condition 1.01e12 is past COND_LIMIT: the
    shifted factorisation fails and the eigenvalue rule refuses it"""
    H = np.diag([1.0, 0.5, 0.99e-12])
    np.linalg.cholesky(H)
    with pytest.raises(SingularHessian, match="^condition estimate 1.010e"):
        symmetric_solve(H, np.ones(3))


# --- the LAPACK boundary: numpy's public wrappers as the oracle ---------------

def _wrapped(f, *args):
    """f(*args)'s arrays (or bool) as bytes, or its LinAlgError's class and
    message"""
    try:
        out = f(*args)
    except np.linalg.LinAlgError as exc:
        return type(exc), str(exc)
    return [np.asarray(x).tobytes()
            for x in (out if isinstance(out, tuple) else (out,))]


def test_lapack_routes_are_numpys_wrappers_bit_for_bit(monkeypatch):
    """on the certificate sweep's H (n = 1..16, 29 and 99, certified and
    refused), a 0 x 0 H and non-finite ones, each LAPACK route of linalg
    gives np.linalg's bits, or raises its LinAlgError with its message:
    a non-positive-definite Cholesky, a singular LU, an eigensolver or an
    SVD that meets NaN. With those wrappers patched in, the certificate and
    every public solve, eigen and polar route give the same outcome"""
    from gnewton import linalg
    routes = {"_cholesky": np.linalg.cholesky, "_lu_solve": np.linalg.solve,
              "_eigvalsh": np.linalg.eigvalsh, "_eigh": np.linalg.eigh,
              "_svd": lambda A: np.linalg.svd(A, full_matrices=False)}
    public = {"certified": lambda H, b: linalg._certified(H, norm(H)),
              "symmetric_solve": lambda H, b: symmetric_solve(H, b),
              "condition_estimate": lambda H, b: np.array(
                  condition_estimate(H)),
              "symmetric_eigen": lambda H, b: symmetric_eigen(H),
              "polar_factor": lambda H, b: polar_factor(H)}

    def outcomes(H, b):
        out = {}
        for k, f in public.items():
            try:
                out[k] = _wrapped(f, H, b)
            except (GnewtonError, ValueError) as exc:
                out[k] = type(exc), str(exc)
        return out
    cases = [(H, b) for _, H, b in _certificate_sweep(list(range(1, 17))
                                                      + [29, 99])]
    cases += [(np.zeros((0, 0)), np.zeros(0)),
              (np.diag([1.0, 0.0, 2.0]), np.ones(3)),
              (np.full((3, 3), np.nan), np.ones(3)),
              (np.diag([np.inf, 1.0]), np.ones(2))]
    refused = {name: 0 for name in routes}
    got = []
    for H, b in cases:
        for name, wrapper in routes.items():
            args = (H, b) if name == "_lu_solve" else (H,)
            want = _wrapped(wrapper, *args)
            assert _wrapped(getattr(linalg, name), *args) == want, name
            refused[name] += isinstance(want, tuple)  # (class, message)
        if all_finite(H):
            got.append(outcomes(H, b))
    # refused and accepted on both sides: the NaN H alone stops eigh and
    # the SVD
    assert refused["_cholesky"] > 100 and refused["_lu_solve"] > 10
    assert refused["_eigvalsh"] == refused["_eigh"] == refused["_svd"] == 1
    assert sum(g["certified"] == [np.True_.tobytes()] for g in got) > 50
    for name, wrapper in routes.items():
        monkeypatch.setattr(linalg, name, wrapper)
    assert [outcomes(H, b) for H, b in cases if all_finite(H)] == got


def _qr_inputs():
    """(A, complete) for QR's stacked map and the frames' step columns:
    stacks of sphere (one column) and frame shapes as QR._at builds them
    (transposed views of (k, p, n)), C- and F-ordered single frames,
    square ones, and a frame with a zero column"""
    rng = SplitMix64(29)
    for n, p in ((2, 1), (6, 1), (30, 1), (100, 1), (5, 2), (6, 2), (12, 3),
                 (20, 4), (4, 4)):
        for k in (1, 3, 7):
            T = rng.gaussians(k * p * n).reshape(k, p, n)
            yield T.transpose(0, 2, 1), False
        X = rng.gaussians(n * p).reshape(n, p)
        for view in (X, np.asfortranarray(X), X.T.copy().T):
            yield view, False
            yield view, True
        Z = X.copy()
        Z[:, -1] = 0.0
        yield Z, True
        yield Z[None], False


def test_qr_route_is_numpys_wrapper_bit_for_bit():
    """linalg._qr gives the Q of np.linalg.qr in reduced and complete mode,
    and the diagonal of its R, bit for bit, on stacked, transposed and
    Fortran-ordered inputs and on a rank-deficient one, and leaves its
    input as it was"""
    from gnewton.linalg import _qr
    count = 0
    for A, complete in _qr_inputs():
        before = A.tobytes()
        Q, d = _qr(A, complete)
        Qw, Rw = np.linalg.qr(A, "complete" if complete else "reduced")
        assert Q.tobytes() == Qw.tobytes() and Q.strides == Qw.strides
        assert (d.tobytes()
                == np.diagonal(Rw, axis1=-2, axis2=-1).copy().tobytes())
        assert A.tobytes() == before
        count += 1
    assert count == 9 * 11


def test_refused_certificate_warns_nothing_outside_a_run():
    """a refused Cholesky sets LAPACK's invalid flag: the certificate reads
    it as False under numpy's own policy, with no RuntimeWarning (which the
    test settings make an error) under the default error state or any
    other, and without run_iteration's errstate around it"""
    from gnewton.linalg import _certified
    H = np.diag([1.0, -1.0, 2.0])
    for state in ({}, {"all": "raise"}, {"all": "warn"}, {"all": "ignore"}):
        with warnings.catch_warnings(record=True) as seen, \
                np.errstate(**state):
            warnings.simplefilter("always")
            assert _certified(H, norm(H)) is False
            assert np.array_equal(symmetric_solve(H, np.ones(3)),
                                  [1.0, -1.0, 0.5])
        assert seen == []


def test_row_dots_and_norms_are_dot_and_norm_bit_for_bit():
    """the stacked matmul takes each row's dot product through the kernel
    `dot` uses: one row, a stack, one base row for all and scaled rows"""
    for n in (1, 2, 5, 6, 17, 36, 80, 100):
        for seed in range(40):
            rng = SplitMix64(1000 * n + seed)
            k = 1 + seed % 9
            A = (rng.gaussians(k * n).reshape(k, n)
                 * 10.0 ** rng.gaussians(k)[:, None])
            B = rng.gaussians(k * n).reshape(k, n)
            x = rng.gaussians(n)
            assert row_dots(A, B) == [float(a.dot(b)) for a, b in zip(A, B)]
            assert row_dots(A, x) == [float(a.dot(x)) for a in A]
            assert row_norms(A) == [norm(a) for a in A]


# --- the row normaliser -------------------------------------------------------

def _gaussian_rows(seed, k, n):
    """k seeded gaussian rows of length n, each at its own scale 10^e,
    |e| <= 100, so that no squared norm leaves the normal range"""
    rng = SplitMix64(seed)
    scale = 10.0 ** np.clip(30.0 * rng.gaussians(k), -100.0, 100.0)
    return rng.gaussians(k * n).reshape(k, n) * scale[:, None]


def test_unit_rows_keep_the_bits_of_each_row_over_its_norm():
    """a row whose norm is finite and not 0 maps to x / norm(x), to the
    bit, alone or in a stack"""
    for n in (1, 2, 5, 6, 30, 100):
        for seed in range(40):
            X = _gaussian_rows(1000 * n + seed, 1 + seed % 9, n)
            want = np.array([x / np.linalg.norm(x) for x in X])
            assert _unit_rows(X, "").tobytes() == want.tobytes()
            for x, w in zip(X, want):
                assert _unit_rows(x[None], "").tobytes() == w.tobytes()


def test_unit_rows_take_one_dot_for_one_row(monkeypatch):
    """one row whose norm is finite and not 0 costs `norm`'s one dot and
    one division: no stacked matmul (`row_norms`) and no array of norms,
    which a Newton step would pay on every QR or projection map"""
    def stacked(X):
        raise AssertionError("a stacked norm for one row")
    x = _gaussian_rows(7, 1, 6)
    want = x / norm(x)
    monkeypatch.setattr(linalg_mod, "row_norms", stacked)
    assert _unit_rows(x, "").tobytes() == want.tobytes()


def test_unit_rows_scale_a_row_whose_square_overflows_or_underflows():
    """a finite row whose squared norm overflows, or underflows to 0, maps
    to the unit vector: scaled by a power of 2, exactly, it has the bits
    of the same row at unit scale, alone or beside rows that keep theirs"""
    for n in (1, 2, 6, 30):
        for seed in range(20):
            X = SplitMix64(seed).gaussians(3 * n).reshape(3, n)
            want = _unit_rows(X, "")
            for k in (600, 700, 1020, -600, -800):
                Y = np.ldexp(X, k)
                mixed = np.concatenate([Y[:1], X[1:]])
                with np.errstate(over="ignore", under="ignore"):
                    got = [_unit_rows(Y, ""), _unit_rows(mixed, "")]
                    got += [np.concatenate([_unit_rows(y[None], "")
                                            for y in Y])]
                for g in got:
                    assert g.tobytes() == want.tobytes(), (n, seed, k)


def test_unit_rows_refuse_a_zero_row_with_the_callers_message():
    """a zero row raises ProjectionUndefined with the message given, alone
    or in a stack; a NaN row maps to a non-finite row, and a row with an
    inf entry raises InfeasiblePoint before it divides (no warning)"""
    x = np.ones((1, 4))
    for X in (np.zeros((1, 4)), np.concatenate([x, np.zeros((1, 4)), x])):
        with pytest.raises(ProjectionUndefined, match="^no direction$"):
            _unit_rows(X, "no direction")
    assert not all_finite(_unit_rows(np.array([[1.0, np.nan, 2.0]]), ""))
    with pytest.raises(InfeasiblePoint,
                       match="^non-finite ambient coordinates$"):
        _unit_rows(np.array([[1.0, -np.inf, 2.0]]), "")
