"""Reference implementations the vectorised code is checked against.

These are the earlier, loop-based forms of the tangent basis and of the
pullback jet, kept verbatim in behaviour: a pure-Python pivoted
Gram-Schmidt, and a jet whose curvature term is recovered from O(m^2)
second-order probes by polarisation, with the QR kind's second-order term
taken by central differences. They are slow and only serve as oracles.
"""

from math import sqrt

import numpy as np

from gnewton.costs import ambient_gradient, ambient_hessian_vec
from gnewton.manifolds import TangentVector
from gnewton.parametrizations import (Custom1D, ExampleBeta,
                                      ParametrizationPair, Projection,
                                      Recentred, SphereGeodesic, apply_phi)

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
    pair = ParametrizationPair(kind, kind)
    u = v.ambient / nv
    h = _EPS ** 0.25 / max(1.0, nv)
    plus = apply_phi(pair, TangentVector(p, h * u)).ambient
    minus = apply_phi(pair, TangentVector(p, -h * u)).ambient
    return ((plus - 2.0 * p.ambient + minus) / (h * h)) * (nv * nv)


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
