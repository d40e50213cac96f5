"""Numerical evaluation of the operator Taylor series at a concrete (point, v).

Both routes start from the curvature operators r_0(v), ..., r_{N-2}(v), the
only geometric input the degree-N series needs, stacked as one (N-1, d, d)
array.  They come either as a list of (d, d) arrays, which the CLI gets from
taylor.curvature_operators along the geodesic, or from a dense CurvatureJet
through jacobi_operator, the cross-check route.  The two routes are:

* the closed form: sum over words nu of coefficient(nu) * word_operator(nu);
* the recurrence: degree components built bottom-up, component n being
  1/(n(n+1)) * sum_m (1/m!) * r_m(v) . component(n-m-2).

Each takes one batched product per degree: the closed form multiplies the
first operators of all degree-n words by their suffixes' matrices, read from
a stack of the shorter words through a cached read-only table, and weights
them in one sum; the recurrence multiplies the stacked scaled operators by the
stacked lower components.  Components come back as one (N+1, d, d) array.

Their term-by-term agreement (a theorem in exact arithmetic) is the package's
central numerical cross-check; these are the only two series routes, and the
Jacobi-field ODE oracle (oracle.dexp_oracle) is their independent check.

The series is treated as asymptotic in |v|; the tested operating envelope is
|v| <= 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import CurvatureJet, jacobi_operator
from .series import coefficient, words_of_degree, words_up_to_degree
from .tensors import LinearOperator


@dataclass
class SeriesEvaluation:
    """Truncated series value with its per-degree Frobenius norms."""

    operator: LinearOperator
    max_degree: int
    per_degree_norms: list[float]

    def to_json(self) -> dict:
        return {
            "operator": self.operator.to_json(),
            "max_degree": self.max_degree,
            "per_degree_norms": self.per_degree_norms,
        }


def _operator_list(source, v, max_degree: int) -> np.ndarray:
    """r_0(v), ..., r_K(v) with K = max(0, N-2) as one (K+1, d, d) array, from an
    operator list or a dense jet.

    An operator list is already evaluated at its v, so v must then be None.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    top = max(0, max_degree - 2)
    if isinstance(source, CurvatureJet):
        if source.max_order < top:
            raise ValueError(
                f"series degree {max_degree} needs curvature derivatives to order "
                f"{top}, jet has {source.max_order}"
            )
        return np.array([jacobi_operator(source, v, m).matrix for m in range(top + 1)])
    if v is not None:
        raise TypeError("v belongs with a CurvatureJet; an operator list is already evaluated at v")
    ops = np.asarray(source, dtype=float)
    if len(ops) <= top:
        raise ValueError(f"series degree {max_degree} needs the operators r_0..r_{top}, "
                         f"got {len(ops)}")
    return ops[:top + 1]


@lru_cache(maxsize=None)
def _word_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only first letters, suffix rows and coefficients (exact, rounded to
    floats) of the degree-n words, in words_of_degree order.

    A suffix row indexes the stack of all words of degree below n in
    words_up_to_degree order, the empty word first.
    """
    rows = {word: i for i, word in enumerate(words_up_to_degree(n - 1))}
    words = words_of_degree(n)
    table = (np.array([word[0] for word in words], dtype=np.int64),
             np.array([rows[word[1:]] for word in words], dtype=np.int64),
             np.array([float(coefficient(word)) for word in words]))
    for a in table:
        a.flags.writeable = False
    return table


def closed_form_components(source, v=None, max_degree: int = 8) -> np.ndarray:
    """Homogeneous degree components, (N+1, d, d), from the closed-form coefficients.

    `source` is the list r_0(v), r_1(v), ... (then v is None) or a dense
    CurvatureJet evaluated at v.  The word matrices are stacked degree by
    degree; those of degree n are one batched product of each word's first
    operator with its suffix's stacked matrix, and component n is one
    weighted sum over them, so every word costs one matrix product.
    """
    ops = _operator_list(source, v, max_degree)
    d = ops.shape[1]
    tables = [_word_table(n) for n in range(2, max_degree + 1)]
    comps = np.zeros((max_degree + 1, d, d))
    comps[0] = np.eye(d)
    stack = np.empty((1 + sum(len(weights) for _, _, weights in tables), d, d))
    stack[0] = np.eye(d)
    top = 1
    for n, (firsts, suffixes, weights) in enumerate(tables, start=2):
        mats = stack[top:top + len(weights)]
        np.matmul(ops[firsts], stack[suffixes], out=mats)
        comps[n] = (weights @ mats.reshape(len(weights), d * d)).reshape(d, d)
        top += len(weights)
    return comps


def recurrence_components(source, v=None, max_degree: int = 8) -> np.ndarray:
    """Homogeneous degree components, (N+1, d, d), from the bottom-up recurrence,
    each one stacked product over its terms.

    `source` is as for closed_form_components.
    """
    ops = _operator_list(source, v, max_degree)
    d = ops.shape[1]
    scaled = ops * np.array([1.0 / math.factorial(m) for m in range(len(ops))])[:, None, None]
    comps = np.zeros((max_degree + 1, d, d))
    comps[0] = np.eye(d)
    for n in range(2, max_degree + 1):
        comps[n] = (scaled[:n - 1] @ comps[n - 2::-1]).sum(0) / (n * (n + 1))
    return comps


def _package(comps: np.ndarray, max_degree: int) -> SeriesEvaluation:
    norms = np.linalg.norm(comps, axis=(1, 2)).tolist()
    return SeriesEvaluation(LinearOperator(comps.sum(0)), max_degree, norms)


def evaluate_closed_form(source, v=None, max_degree: int = 8) -> SeriesEvaluation:
    """Truncated series via the closed-form coefficient rule; `source` as for
    closed_form_components."""
    return _package(closed_form_components(source, v, max_degree), max_degree)


def evaluate_recurrence(source, v=None, max_degree: int = 8) -> SeriesEvaluation:
    """Truncated series via the homogeneous-component recurrence; `source` as
    for closed_form_components."""
    return _package(recurrence_components(source, v, max_degree), max_degree)


def evaluate_symmetric(source, v=None, terms: int = 4) -> LinearOperator:
    """Locally symmetric specialization: sum_k r0^k / (2k+1)!.

    `source` is as for closed_form_components; only r_0(v) is read.  On models
    with vanishing covariant curvature derivatives this equals the full series
    truncated at degree 2*terms.
    """
    if terms < 0:
        raise ValueError("terms must be nonnegative")
    r0 = _operator_list(source, v, 0)[0]
    d = r0.shape[0]
    acc = np.eye(d)
    power = np.eye(d)
    for k in range(1, terms + 1):
        power = r0 @ power
        acc = acc + power / math.factorial(2 * k + 1)
    return LinearOperator(acc)

