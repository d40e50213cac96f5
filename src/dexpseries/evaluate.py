"""Numerical evaluation of the operator Taylor series at a concrete (point, v).

Both routes start from the curvature operators r_0(v), ..., r_{N-2}(v), the
only geometric input the degree-N series needs.  They come either as a list of
(d, d) arrays, which the CLI gets from taylor.curvature_operators along the
geodesic, or from a dense CurvatureJet through jacobi_operator, the
cross-check route.  The two routes are:

* the closed form: sum over words nu of coefficient(nu) * word_operator(nu);
* the recurrence: degree components built bottom-up, component n being
  1/(n(n+1)) * sum_m (1/m!) * r_m(v) . component(n-m-2).

Their term-by-term agreement (a theorem in exact arithmetic) is the package's
central numerical cross-check, together with the ODE oracle.

The series is treated as asymptotic in |v|; the tested operating envelope is
|v| <= 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import CurvatureJet, jacobi_operator
from .series import coefficient, words_of_degree
from .tensors import LinearOperator


@dataclass
class SeriesEvaluation:
    """Truncated series value with its per-degree Frobenius norms."""

    operator: LinearOperator
    max_degree: int
    per_degree_norms: list[float]
    truncation_estimate: float

    def to_json(self) -> dict:
        return {
            "operator": self.operator.to_json(),
            "max_degree": self.max_degree,
            "per_degree_norms": self.per_degree_norms,
            "truncation_estimate": self.truncation_estimate,
        }


def _operator_list(source, v, max_degree: int) -> list[np.ndarray]:
    """r_0(v), ..., r_K(v) with K = max(0, N-2), from an operator list or a dense jet.

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
        return [jacobi_operator(source, v, m).matrix for m in range(top + 1)]
    if v is not None:
        raise TypeError("v belongs with a CurvatureJet; an operator list is already evaluated at v")
    ops = [np.asarray(r, dtype=float) for r in source]
    if len(ops) <= top:
        raise ValueError(f"series degree {max_degree} needs the operators r_0..r_{top}, "
                         f"got {len(ops)}")
    return ops


@lru_cache(maxsize=None)
def _weighted_words(n: int) -> tuple[tuple[tuple[int, ...], float], ...]:
    """The degree-n words with their exact coefficients rounded to floats."""
    return tuple((word, float(coefficient(word))) for word in words_of_degree(n))


def closed_form_components(source, v=None, max_degree: int = 8) -> list[np.ndarray]:
    """Homogeneous degree components from the closed-form coefficients.

    `source` is the list r_0(v), r_1(v), ... (then v is None) or a dense
    CurvatureJet evaluated at v.  Word values are cached by suffix, so each
    word costs one matrix product.
    """
    ops = _operator_list(source, v, max_degree)
    d = ops[0].shape[0]
    comps = [np.zeros((d, d)) for _ in range(max_degree + 1)]
    comps[0] = np.eye(d)
    cache: dict[tuple[int, ...], np.ndarray] = {(): np.eye(d)}
    for n in range(2, max_degree + 1):
        total = np.zeros((d, d))
        for word, weight in _weighted_words(n):
            mat = ops[word[0]] @ cache[word[1:]]
            cache[word] = mat
            total += weight * mat
        comps[n] = total
    return comps


def recurrence_components(source, v=None, max_degree: int = 8) -> list[np.ndarray]:
    """Homogeneous degree components from the bottom-up recurrence.

    `source` is as for closed_form_components.
    """
    ops = _operator_list(source, v, max_degree)
    d = ops[0].shape[0]
    comps = [np.eye(d), np.zeros((d, d))]
    if max_degree == 0:
        return comps[:1]
    for n in range(2, max_degree + 1):
        acc = np.zeros((d, d))
        for m in range(0, n - 1):
            acc += (1.0 / math.factorial(m)) * (ops[m] @ comps[n - m - 2])
        comps.append(acc / (n * (n + 1)))
    return comps


def _package(comps: list[np.ndarray], max_degree: int) -> SeriesEvaluation:
    operator = LinearOperator(sum(comps))
    norms = [float(np.linalg.norm(c)) for c in comps]
    return SeriesEvaluation(operator, max_degree, norms, norms[-1])


def evaluate_closed_form(source, v=None, max_degree: int = 8) -> SeriesEvaluation:
    """Truncated series via the closed-form coefficient rule; `source` as for
    closed_form_components."""
    return _package(closed_form_components(source, v, max_degree), max_degree)


def evaluate_recurrence(source, v=None, max_degree: int = 8) -> SeriesEvaluation:
    """Truncated series via the homogeneous-component recurrence; `source` as
    for closed_form_components."""
    return _package(recurrence_components(source, v, max_degree), max_degree)


def evaluate_symmetric(jet: CurvatureJet, v, terms: int) -> LinearOperator:
    """Locally symmetric specialization: sum_k r0^k / (2k+1)!.

    On models with vanishing covariant curvature derivatives this equals the
    full series truncated at degree 2*terms.
    """
    if terms < 0:
        raise ValueError("terms must be nonnegative")
    d = jet.dimension
    r0 = jacobi_operator(jet, v, 0).matrix
    acc = np.eye(d)
    power = np.eye(d)
    for k in range(1, terms + 1):
        power = r0 @ power
        acc = acc + power / math.factorial(2 * k + 1)
    return LinearOperator(acc)


def ode_residual(jet: CurvatureJet, v, max_degree: int, t: float) -> float:
    """Residual of the defining second-order ODE on degree-truncated data.

    With E(t) = sum_n t^n E_n and the transported-curvature operator truncated
    as sum_{n>=2} t^n/(n-2)! * jacobi_operator(n-2), the combination
        (t^2 d^2/dt^2 + 2 t d/dt) E(t) - R(t) E(t)
    vanishes through degree max_degree, so the returned Frobenius norm is
    O(t^(max_degree+1)) as t -> 0.
    """
    if abs(t) > 1.0:
        raise ValueError("the residual diagnostic is defined for |t| <= 1")
    comps = recurrence_components(jet, v, max_degree)
    d = jet.dimension
    lhs = np.zeros((d, d))
    value = np.zeros((d, d))
    for n, comp in enumerate(comps):
        tn = t**n
        value += tn * comp
        lhs += n * (n + 1) * tn * comp
    rop = np.zeros((d, d))
    for n in range(2, max_degree + 1):
        rop += (t**n / math.factorial(n - 2)) * jacobi_operator(jet, v, n - 2).matrix
    return float(np.linalg.norm(lhs - rop @ value))
