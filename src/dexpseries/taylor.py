"""Curvature operators r_n(v) by Taylor-mode propagation along the geodesic.

The series needs only the d x d operators r_n(v) = (v^n . nabla^n R)(v, .) v.
By Lemma 2 they are the t-derivatives at t = 0 of the transported curvature

    T(t) = F(t)^-1 R(x'(t), F(t) .) x'(t)

along the geodesic x(t) = Exp_p(t v), with F the parallel frame, F(0) = I.
Every quantity along the curve is a truncated univariate Taylor series in t,
stored as an array whose leading axis is the power of t:

* the geodesic coefficients, solved order by order from x'' = -Gamma(x)(x', x');
* Gamma along the curve, from the model's christoffel_series, written with
  _cauchy and the division rule _divide.  Gamma through order k + 1 needs x
  through order k + 1 and gives x[k + 2] and x[k + 3], so one Gamma call
  serves two orders; Gamma is taken through order K + 1 (one more call when
  K is odd);
* M = R(x', .) x' from d_x' Gamma(., x'), which is dGamma/dt, and the
  (d, d) Jacobian d_j Gamma(x', x') at fixed x', the model's
  christoffel_gradient_series; no series of d Gamma (d^4 entries) is built;
* the frame F (F' = A F with A = -Gamma(x)(x', .)) and its inverse
  (H' = -H A);
* T = H M F, read off as r_n = n! [t^n] T.

This is the production route; the dense covariant-derivative tower in
geometry is the cross-check, so nothing here builds a covariant-derivative
tensor or a multivariate polynomial product.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .geometry import ManifoldModel


@lru_cache(maxsize=None)
def _lags(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (n, n) gather index max(k - j, 0) and mask k >= j of a Cauchy product."""
    lag = np.arange(n)[:, None] - np.arange(n)[None, :]
    index, mask = np.maximum(lag, 0), lag >= 0
    index.flags.writeable = mask.flags.writeable = False
    return index, mask


def _cauchy(subscripts: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product of two series: out[k] = sum_j einsum(subscripts, a[j], b[k-j]).

    `subscripts` names the coefficient axes only, in lower-case letters; the
    result has the shorter of the two lengths.
    """
    n = min(len(a), len(b))
    index, mask = _lags(n)
    shifted = np.where(mask.reshape(mask.shape + (1,) * (b.ndim - 1)), b[index], 0.0)
    lhs, out = subscripts.split("->")
    sa, sb = lhs.split(",")
    return np.einsum(f"J{sa},KJ{sb}->K{out}", a[:n], shifted)  # shifted[k, j] = b[k - j]


def _divide(c: float, u: np.ndarray) -> np.ndarray:
    """The series q = c / u for a constant c and a scalar series u, u[0] != 0, from u q = c."""
    q = np.empty_like(u)
    q[0] = c / u[0]
    for k in range(1, len(u)):
        q[k] = -np.dot(u[1:k + 1], q[k - 1::-1]) / u[0]
    return q


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

    xs = np.zeros((K + 2, d))  # x(t)
    xs[0], xs[1] = p, v
    vel = np.zeros((K + 1, d))  # x'(t)
    vv = np.zeros((K + 1, d, d))  # x'(t) (x) x'(t)
    gvv = np.zeros((K + 1, d))  # Gamma(x', x') = -x''
    for k in range(0, K + 2, 2):
        g = model.christoffel_series(xs[:k + 2])  # Gamma(x(t)) to order min(k + 1, K + 1)
        for j in range(k, min(k + 2, K + 1)):
            vel[j] = (j + 1) * xs[j + 1]
            vv[j] = np.einsum("ja,jb->ab", vel[:j + 1], vel[j::-1])
            gvv[j] = np.einsum("ilab,iab->l", g[:j + 1], vv[j::-1])
            if j < K:
                xs[j + 2] = -gvv[j] / ((j + 2) * (j + 1))
    dg = np.arange(1, K + 2)[:, None, None, None] * g[1:]  # d/dt Gamma(x(t)) = d_x' Gamma
    gv = _cauchy("lim,i->lm", g, vel)  # Gamma(x', .) = -A
    # M[l, j] = R[l, i, j, k] x'^i x'^k with
    # R[l,i,j,k] = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik
    m = (_cauchy("ljk,k->lj", dg, vel)
         - model.christoffel_gradient_series(xs[:K + 1], vv).swapaxes(1, 2)
         + _cauchy("lm,mj->lj", gv, gv)
         - _cauchy("ljm,m->lj", g, gvv))

    frame = np.zeros((K + 1, d, d))
    inverse = np.zeros((K + 1, d, d))
    frame[0] = inverse[0] = np.eye(d)
    for k in range(K):
        frame[k + 1] = -np.einsum("jab,jbc->ac", gv[:k + 1], frame[k::-1]) / (k + 1)
        inverse[k + 1] = np.einsum("jab,jbc->ac", inverse[k::-1], gv[:k + 1]) / (k + 1)

    transported = _cauchy("ab,bc->ac", _cauchy("ab,bc->ac", inverse, m), frame)
    return [math.factorial(n) * transported[n] for n in range(K + 1)]

