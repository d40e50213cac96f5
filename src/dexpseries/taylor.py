"""Curvature operators r_n(v) by Taylor-mode propagation along the geodesic.

The series needs only the d x d operators r_n(v) = (v^n . nabla^n R)(v, .) v.
By Lemma 2 they are the t-derivatives at t = 0 of the transported curvature

    T(t) = F(t)^-1 R(x'(t), F(t) .) x'(t)

along the geodesic x(t) = Exp_p(t v), with F the parallel frame, F(0) = I.
Every quantity along the curve is a truncated univariate Taylor series in t,
stored as an array whose leading axis is the power of t:

* the geodesic coefficients, solved order by order from x'' = -Gamma(x)(x', x');
* Gamma and its first partials along the curve, by composing the model's
  christoffel_jet(p, K+1) with x(t) - p, one coefficient per step.  Each
  monomial's series is its parent's times one variable, the parent read from
  polyjet's lowering table; the partials reuse the jet rows through the same
  table, so the jet is the one large array;
* the frame F (F' = A F with A = -Gamma(x)(x', .)) and its inverse
  (H' = -H A);
* T = H M F with M = R(x', .) x', read off as r_n = n! [t^n] T.

This is the production route; the dense covariant-derivative tower in
geometry is the cross-check, so nothing here builds a covariant-derivative
tensor or a multivariate polynomial product.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import ManifoldModel
from .polyjet import _diff_table, lowering_table, monomial_exponents


def _cauchy(subscripts: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product of two series: out[k] = sum_j einsum(subscripts, a[j], b[k-j]).

    `subscripts` names the coefficient axes only, in lower-case letters; the
    result has the shorter of the two lengths.
    """
    n = min(len(a), len(b))
    lag = np.arange(n)[:, None] - np.arange(n)[None, :]
    mask = (lag >= 0).reshape((n, n) + (1,) * (b.ndim - 1))
    shifted = np.where(mask, b[np.maximum(lag, 0)], 0.0)  # shifted[k, j] = b[k - j]
    lhs, out = subscripts.split("->")
    sa, sb = lhs.split(",")
    return np.einsum(f"J{sa},KJ{sb}->K{out}", a[:n], shifted)


def curvature_operators(model: ManifoldModel, p, v, max_order: int) -> list[np.ndarray]:
    """The operators r_0(v), ..., r_K(v) at p, K = max_order, as (d, d) arrays.

    r_n(v) is w -> (v^n . nabla^n R)(v, w) v, equal to jacobi_operator on the
    dense curvature jet; only p has to lie in the chart domain.
    """
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    d = model.dimension
    if v.shape != (d,):
        raise ValueError(f"v must have {d} components")
    model.require_in_domain(p)
    K = max_order

    gamma = model.christoffel_jet(p, K + 1)  # rows: monomials in xi = x - p
    # each monomial of positive degree is parent * xi_var, var its first nonzero exponent
    variables = np.argmax(monomial_exponents(d, K + 1)[1:] > 0, axis=1)
    parents = lowering_table(d, K + 1)[variables, np.arange(1, len(gamma.data))]

    xi = np.zeros((K + 2, d))          # x(t) - p
    xi[1] = v
    mono = np.zeros((len(gamma.data), K + 1))  # mono[m, k] = [t^k] xi^(exponent m)
    mono[0, 0] = 1.0
    g = np.zeros((K + 1, d, d, d))     # Gamma(x(t)), layout [k, l, i, j]
    vel = np.zeros((K + 1, d))         # x'(t)
    vv = np.zeros((K + 1, d, d))       # x'(t) (x) x'(t)
    for k in range(K + 1):
        if k >= 1:
            # [t^k] parent * xi_var; xi has no constant term, so only columns
            # below k of the parents enter
            mono[1:, k] = np.einsum("jh,hj->h", xi[1:k + 1, variables],
                                    mono[parents, k - 1::-1])
        g[k] = np.tensordot(mono[:, k], gamma.data, axes=1)
        vel[k] = (k + 1) * xi[k + 1]
        vv[k] = np.einsum("ja,jb->ab", vel[:k + 1], vel[k::-1])
        if k + 2 <= K + 1:
            acc = np.einsum("ilab,iab->l", g[:k + 1], vv[k::-1])  # [t^k] Gamma(x', x')
            xi[k + 2] = -acc / ((k + 2) * (k + 1))

    # d_a Gamma from the jet rows, no jet of partials: [t^k] d_a xi^e = e_a [t^k] xi^(e-1_a)
    dg = np.empty((K + 1, d, d, d, d))  # [k, a, l, j, k']
    for a in range(d):
        src, dst, fac = _diff_table(d, K + 1, a)
        weights = np.zeros_like(mono)
        weights[src] = fac[:, None] * mono[dst]
        dg[:, a] = np.tensordot(weights, gamma.data, axes=(0, 0))
    gv = _cauchy("lim,i->lm", g, vel)  # Gamma(x', .) = -A
    # M[l, j] = R[l, i, j, k] x'^i x'^k with
    # R[l,i,j,k] = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik
    m = (_cauchy("aljk,ak->lj", dg, vv)
         - _cauchy("jlik,ik->lj", dg, vv)
         + _cauchy("lm,mj->lj", gv, _cauchy("mjk,k->mj", g, vel))
         - _cauchy("ljm,m->lj", g, _cauchy("mik,ik->m", g, vv)))

    frame = np.zeros((K + 1, d, d))
    inverse = np.zeros((K + 1, d, d))
    frame[0] = inverse[0] = np.eye(d)
    for k in range(K):
        frame[k + 1] = -np.einsum("jab,jbc->ac", gv[:k + 1], frame[k::-1]) / (k + 1)
        inverse[k + 1] = np.einsum("jab,jbc->ac", inverse[k::-1], gv[:k + 1]) / (k + 1)

    transported = _cauchy("ab,bc->ac", _cauchy("ab,bc->ac", inverse, m), frame)
    return [math.factorial(n) * transported[n] for n in range(K + 1)]
