"""Reference implementations the vectorised code is checked against.

These are the earlier, loop-based forms of the tangent basis and of the
pullback jet, kept verbatim in behaviour: a pure-Python pivoted
Gram-Schmidt, and a jet whose curvature term is recovered from O(m^2)
second-order probes by polarisation, with the QR kind's second-order term
taken by central differences. The stereographic kind's second-order term
is derived here on its own, by the quotient rule. `chart_lift_step` is the
earlier chart-lifted Newton step with its finite-difference jet, and
`audit_rows` the earlier row-by-row audit, one public call per
displacement. They are slow and only serve as oracles. `frame_columns`
is the frame tangent columns over a given completion as they were
assembled before the in-place fill, kept verbatim in code: its bytes are
the reference. `householder_basis` is the tangent basis from numpy's own
forms: the columns 2..n of I - 2 v v^T / v^T v on the sphere, and the
frame columns over `np.linalg.qr(X, "complete")`. `pivoted_basis` is the
basis the package published before it took the Householder one, over
`pivoted_completion`, the pivoted Gram-Schmidt with its pick loop, or
`complete_unit`, its closed form for one column: the reference basis
that shows a step does not depend on its basis. `stacked_curvature` is
the frame curvature term as it was contracted over a stack of
per-direction matrices before the one product. `qr_second_order` is QR's second-order term with its tangential
matrix formed by np.tril and np.triu, and `mean_log_log_fit` and
`mean_pooled_rate` are the rate fit with its means taken by `.mean()`:
kept verbatim in code, their bytes are the reference. `solve_with_condition`
is the eigenvalue rule alone behind the symmetric contract, the solve
before the Cholesky certificate: its bits, or its error, class and message,
are what `symmetric_solve` gives.
"""

from math import exp, log, sqrt

import numpy as np

from gnewton.costs import ambient_gradient, ambient_hessian_vec, value
from gnewton.errors import ChartDomainViolation, InsufficientData
from gnewton.linalg import (_checked_rhs, _eigen_rule, _symmetric, norm,
                            symmetric_solve)
from gnewton.manifolds import Point, TangentVector, random_unit_tangent
from gnewton.parametrizations import (QR, AuditReport, Custom1D, ExampleBeta,
                                      ParametrizationPair, Projection,
                                      Recentred, SphereGeodesic,
                                      Stereographic, apply_phi, apply_psi,
                                      second_order_term)
from gnewton.rates import RateEstimate, log_log_fit, usable_pairs
from gnewton.rng import SplitMix64

_EPS = np.finfo(float).eps


def complete_orthonormal(cols, n, want):
    """Extend `cols` (orthonormal ambient vectors) by `want` more columns,
    picking the standard basis vector with the largest residual each time
    and re-orthogonalising twice."""
    kept = list(cols)
    out = []
    resid = [np.eye(n)[i].copy() for i in range(n)]
    for c in resid:
        for u in kept:
            c -= (c @ u) * u
    chosen = set()
    while len(out) < want:
        norms = sorted((-np.linalg.norm(resid[i]), i)
                       for i in range(n) if i not in chosen)
        i = norms[0][1]
        chosen.add(i)
        v = resid[i]
        for _ in range(2):
            for u in kept + out:
                v = v - (v @ u) * u
        v = v / np.linalg.norm(v)
        out.append(v)
        for j in range(n):
            if j not in chosen:
                resid[j] = resid[j] - (resid[j] @ v) * v
    return out


def tangent_basis(p):
    """Loop-built tangent basis columns at p (ambient_dim x intrinsic_dim)."""
    m = p.manifold
    if m.kind == "euclidean":
        return np.eye(m.n)
    if m.kind == "sphere":
        return np.column_stack(complete_orthonormal([p.ambient], m.n, m.n - 1))
    X = p.as_matrix()
    n, pp = m.n, m.p
    cols = []
    if m.kind == "stiefel":
        for i in range(pp):
            for j in range(i + 1, pp):
                V = np.zeros_like(X)
                V[:, j] = X[:, i] / sqrt(2.0)
                V[:, i] = -X[:, j] / sqrt(2.0)
                cols.append(V)
    perp = complete_orthonormal([X[:, k] for k in range(pp)], n, n - pp)
    for b in range(pp):
        for a in range(n - pp):
            V = np.zeros_like(X)
            V[:, b] = perp[a]
            cols.append(V)
    return np.column_stack([V.flatten(order="F") for V in cols])


def pivoted_completion(K):
    """The pivoted Gram-Schmidt completion of the orthonormal columns of
    the n x k array K to a basis of R^n, the n x (n - k) completion: each
    pick takes the e_i with the largest residual, ties to the lowest index.
    One column takes the closed form `complete_unit`."""
    n, k = K.shape
    if k == 1:
        return complete_unit(K[:, 0])
    Q = np.empty((n, n))
    Q[:, :k] = K
    d = 1.0 - (K * K).sum(axis=1)  # squared residual of each e_i
    for j in range(k, n):
        i = int(np.argmax(d))  # ties go to the lowest index
        v = -(Q[:, :j] @ Q[i, :j])
        v[i] += 1.0
        v -= Q[:, :j] @ (Q[:, :j].T @ v)
        v /= norm(v)
        Q[:, j] = v
        d -= v * v
        d[i] = -np.inf
    return Q[:, k:]


def complete_unit(p):
    """The pivoted completion of one unit vector p, in closed form.

    Once the set S is picked, what is left of the span of p and e_S is
    along p' = p with S zeroed, so e_l (l not in S) has squared residual
    1 - p_l^2 / c_S with c_S = |p'|^2. That is monotone in p_l^2: the picks
    are a stable sort of 1 - p^2, largest first, and column j is
    (e_i - p_i p'_j / c_j) / sqrt(c_{j+1} / c_j) for the j-th pick i. The
    sort keys on the rounded 1 - p^2, not on p^2, so squares under the
    rounding of 1 tie, as in the residual norms. The c_j are tail sums of
    the sorted p^2, free of cancellation, and the last is max p^2 >= 1/n.
    The key p^2 - 1 is -(1 - p^2) bitwise.
    """
    n = p.size
    order = np.argsort(p * p - 1.0, kind="stable")
    ps = p[order]
    c = np.cumsum((ps * ps)[::-1])[::-1]  # c[j] = sum of ps[j:]**2
    B = np.where(np.arange(n)[:, None] >= np.arange(n - 1), ps[:, None], 0.0)
    B *= -ps[:-1] / c[:-1]
    B.reshape(-1)[::n] += 1.0  # entry (j, j) of the n x (n - 1) B is flat j n
    B *= np.sqrt(c[:-1] / c[1:])
    out = np.empty((n, n - 1))
    out[order] = B
    return out


def _basis_over(p, completion):
    """The tangent columns at p over completion(K), K the point's
    orthonormal columns: its columns on the sphere, the frame columns over
    it on Stiefel and Grassmann, the identity on the line."""
    m = p.manifold
    if m.kind == "euclidean":
        return np.eye(m.n)
    if m.kind == "sphere":
        return completion(p.ambient[:, None])
    return frame_columns(p, completion(p.as_matrix()))


def pivoted_basis(p):
    """The tangent columns at p over `pivoted_completion`."""
    return _basis_over(p, pivoted_completion)


def householder_basis(p):
    """The tangent columns at p from numpy's forms: on the sphere columns
    2..n of I - 2 v v^T / v^T v, v = p + sign(p_1) |p| e_1 (+1 at 0); on
    Stiefel and Grassmann the frame columns over the last n - p columns of
    `np.linalg.qr(X, "complete")`."""
    if p.manifold.kind == "sphere":
        x = p.ambient
        v = x + np.copysign(np.linalg.norm(x), x[0] + 0.0) * np.eye(x.size)[0]
        return (np.eye(x.size) - 2.0 * np.outer(v, v) / (v @ v))[:, 1:]
    return _basis_over(p, lambda K: np.linalg.qr(K, "complete")[0]
                       [:, K.shape[1]:])


def frame_columns(p, P):
    """Stiefel or Grassmann tangent columns at p over the completion P as
    they were assembled: the skew block (Stiefel only) by triu_indices and
    fancy indexing, then the horizontal block as kron(I_p, P), joined by
    hstack."""
    m = p.manifold
    X = p.as_matrix()
    horizontal = np.kron(np.eye(m.p), P)
    if m.kind == "grassmann":
        return horizontal
    n, pp = m.n, m.p
    i, j = np.triu_indices(pp, 1)
    skew = np.zeros((n, pp, i.size))
    skew[:, j, np.arange(i.size)] = X[:, i] / sqrt(2.0)
    skew[:, i, np.arange(i.size)] = -X[:, j] / sqrt(2.0)
    return np.hstack([skew.reshape(n * pp, i.size, order="F"), horizontal])


def second_order(kind, v):
    """D^2 phi_p(0)(v, v): closed forms, central differences for QR."""
    p = v.base
    m = p.manifold
    nv = float(np.linalg.norm(v.ambient))
    if nv == 0.0:
        return np.zeros(m.ambient_dim)
    if isinstance(kind, (SphereGeodesic, Recentred)):
        return -(nv * nv) * p.ambient
    if isinstance(kind, Projection):
        if m.kind == "euclidean":
            return np.zeros(m.ambient_dim)
        if m.kind == "sphere":
            return -(nv * nv) * p.ambient
        X = p.as_matrix()
        V = v.as_matrix()
        return (-X @ (V.T @ V)).flatten(order="F")
    if isinstance(kind, Custom1D):
        c2 = kind.coeffs[1] if len(kind.coeffs) >= 2 else 0.0
        t = v.ambient[0]
        return np.array([2.0 * c2 * t * t])
    if isinstance(kind, ExampleBeta):
        x = p.ambient[0]
        if x == 0.0:
            return np.zeros(1)
        t = v.ambient[0]
        return np.array([2.0 * (kind.beta / x) * t * t])
    if isinstance(kind, Stereographic):
        return _stereo_second_order(kind.pole, p.ambient, v.ambient)
    pair = ParametrizationPair(kind, kind)
    u = v.ambient / nv
    h = _EPS ** 0.25 / max(1.0, nv)
    plus = apply_phi(pair, TangentVector(p, h * u)).ambient
    minus = apply_phi(pair, TangentVector(p, -h * u)).ambient
    return ((plus - 2.0 * p.ambient + minus) / (h * h)) * (nv * nv)


def _stereo_fwd(x, q):
    denom = 1.0 - q @ x
    if denom <= 1e-12:
        raise ChartDomainViolation("point is (numerically) at the chart pole")
    return (x - (x @ q) * q) / denom


def _stereo_inv(y, q):
    n2 = y @ y
    return ((n2 - 1.0) * q + 2.0 * y) / (n2 + 1.0)


def _stereo_second_order(q, x, v):
    """d^2/dt^2 of s^-1(s(x) + t u) at t = 0, u = Ds(x) v, with
    s^-1 = N / r, N = (|y|^2 - 1) q + 2 y and r = |y|^2 + 1, by the
    quotient rule: (N/r)'' = N''/r - 2 N' r'/r^2 - N r''/r^2 + 2 N r'^2/r^3."""
    d = 1.0 - q @ x
    y = _stereo_fwd(x, q)
    u = (v - (q @ v) * q) / d + y * (q @ v) / d
    N = (y @ y - 1.0) * q + 2.0 * y
    r = y @ y + 1.0
    dN = 2.0 * (y @ u) * q + 2.0 * u
    ddN = 2.0 * (u @ u) * q
    dr = 2.0 * (y @ u)
    ddr = 2.0 * (u @ u)
    return ddN / r - 2.0 * dN * dr / r ** 2 - N * ddr / r ** 2 + 2.0 * N * dr ** 2 / r ** 3


def chart_lift_step(c, pole, p):
    """One Newton step lifted through the stereographic chart from `pole`:
    map p in, re-centre the pulled-back cost at the image, step, map back.

    Through a genuine chart the pullback has no analytic jet, so gradient and
    Hessian come from central finite differences with step eps^(1/3) -- the
    error floor this puts on iterates (~1e-11) is measurable and expected.
    """
    m = p.manifold
    q = np.asarray(pole, dtype=float)
    n = m.n
    y0 = _stereo_fwd(p.ambient, q)
    h = _EPS ** (1.0 / 3.0)
    # chart coordinates carry n - 1 degrees of freedom; differencing along an
    # orthonormal basis of the pole's complement keeps every probe point on
    # the chart plane, so the inverse lands on the sphere to rounding
    B = np.column_stack(complete_orthonormal([q], n, n - 1))
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
    s = -symmetric_solve(H, grad)
    return Point(m, _stereo_inv(y0 + B @ s, q))


def pullback_hessian(c, kind, p, cols, second_order=second_order):
    """Pulled-back Hessian over `cols`, the curvature term polarised from
    `second_order(kind, v)`: S(v, w) = 1/4 [S(v + w) - S(v - w)]."""
    m = cols.shape[1]
    g_amb = ambient_gradient(c, p)
    hcols = np.column_stack([ambient_hessian_vec(c, p, cols[:, j])
                             for j in range(m)])
    H = cols.T @ hcols
    svv = [second_order(kind, TangentVector(p, cols[:, i])) for i in range(m)]
    for i in range(m):
        H[i, i] += g_amb @ svv[i]
        for j in range(i + 1, m):
            plus = second_order(kind, TangentVector(p, cols[:, i] + cols[:, j]))
            minus = second_order(kind, TangentVector(p, cols[:, i] - cols[:, j]))
            corr = g_amb @ (0.25 * (plus - minus))
            H[i, j] += corr
            H[j, i] += corr
    return 0.5 * (H + H.T)


def stacked_curvature(kind, p, B, g):
    """The frame curvature term as it was contracted before the one
    product: B restacked into m n x p direction matrices V_a, the Weingarten
    map summed pairwise as -<V_a sym(N), V_b> with N = X^T G, and for QR
    with p > 1 a second stacked pass <V_a E, V_b>, E = tril(N - N^T, -1),
    symmetrised at m x m."""
    m = p.manifold
    n, pp, k = m.n, m.p, B.shape[1]
    V = B.T.reshape(k, pp, n).transpose(0, 2, 1)

    def pair_sums(S, T):
        return S.reshape(k, n * pp) @ T.reshape(k, n * pp).T

    N = p.as_matrix().T @ g.reshape(n, pp, order="F")
    C = -pair_sums(V @ (0.5 * (N + N.T)), V)
    if isinstance(kind, QR) and pp > 1:
        P = pair_sums(V @ np.tril(N - N.T, -1), V)
        C = C + 0.5 * (P + P.T)
    return C


def qr_second_order(p, v):
    """QR's second-order term along v at p, its tangential matrix formed
    as tril(M, -1) - triu(M, 1)."""
    m = p.manifold
    S = m.second_fundamental_form(p, v)
    if m.p == 1:
        return S
    V = v.reshape(m.n, m.p, order="F")
    M = V.T @ V
    T = p.as_matrix() @ (np.tril(M, -1) - np.triu(M, 1))
    return S + T.flatten(order="F")


def mean_log_log_fit(xs, ys):
    """rates.log_log_fit with each mean taken by `.mean()`, twice over."""
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    dx = xs - xs.mean()
    slope = float((dx * (ys - ys.mean())).sum() / (dx * dx).sum())
    return slope, float(ys.mean() - slope * xs.mean())


def mean_pooled_rate(sequences, floor, ceil):
    """rates.pooled_rate over mean_log_log_fit, its RMS by np.mean."""
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
    K, c = mean_log_log_fit(xs, ys)
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


def solve_with_condition(H, b):
    """Solve H s = b for a square, finite, symmetric H by the eigenvalue
    rule alone. -> (s, condition)"""
    H = _symmetric(H)[0]
    return _eigen_rule(H, _checked_rhs(np.asarray(b, dtype=float), H.shape[0]))


def audit_rows(pair, m, sample_points, radii, seed):
    """`audit_conditions` one public call per displacement, from the same
    draws: apply_phi at 0 and at +-h d, second_order_term along d, then
    apply_psi at r d for each radius. The radii are taken as valid."""
    radii = tuple(float(r) for r in radii)
    rng = SplitMix64(seed)
    identity_residual = dphi_residual = alpha_hat = beta_hat = 0.0
    log_r, log_resid = [], []
    h = _EPS ** (1.0 / 3.0)
    for _ in range(sample_points):
        p = m.sample_point(rng)
        d = random_unit_tangent(p, rng)
        q0 = apply_phi(pair, TangentVector(p, np.zeros(m.ambient_dim)))
        identity_residual = max(identity_residual,
                                norm(q0.ambient - p.ambient))
        plus = apply_phi(pair, TangentVector(p, h * d)).ambient
        minus = apply_phi(pair, TangentVector(p, -h * d)).ambient
        dphi_residual = max(dphi_residual,
                            norm((plus - minus) / (2.0 * h) - d))
        alpha_hat = max(alpha_hat,
                        norm(second_order_term(pair, TangentVector(p, d))))
        for r in radii:
            q = apply_psi(pair, TangentVector(p, r * d)).ambient
            resid = norm(q - p.ambient - r * d)
            if resid <= 1e-14:
                continue
            beta_hat = max(beta_hat, resid / (r * r))
            log_r.append(log(r))
            log_resid.append(log(resid))
    fitted_slope = (log_log_fit(log_r, log_resid)[0] if len(set(log_r)) >= 2
                    else float("inf"))
    flags = {
        "identity": identity_residual <= 1e-10,
        "dphi": dphi_residual <= 1e-6,
        "slope": fitted_slope >= 1.9,
    }
    return AuditReport(alpha_hat=alpha_hat, beta_hat=beta_hat,
                       fitted_slope=fitted_slope,
                       identity_residual=identity_residual,
                       dphi_residual=dphi_residual, pass_flags=flags,
                       samples_dropped=0, radii=radii)
