"""Curvature, its high-order covariant derivatives, and the curvature operators.

A manifold enters through a single chart: the model supplies exact Christoffel
jets (truncated Taylor polynomials of Gamma^k_ij about any chart point).  From
those this module computes

* the curvature tensor, with the fixed sign convention
      R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z,
  i.e. componentwise, with storage order R[l, x, y, z] for (R(X,Y)Z)^l:
      R[l,i,j,k] = d_i Gamma^l_jk - d_j Gamma^l_ik
                   + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik;
* the iterated covariant derivatives of R at a point, each application
  prepending one covariant slot (derivative slots sit first, then the three
  curvature slots X, Y, Z);
* the Jacobi-type operators w -> (v^n . nabla^n R)(v, w) v built from them, and
  their compositions indexed by integer words.

All derivatives are taken on truncated polynomial jets, so the only numerical
error in this module is floating-point rounding.  The dense tower stores
nabla^n R as a d^(n+4) array; it is the cross-check for the Taylor-mode route
in taylor.py, which the CLI uses for the series, and it is the right-hand side
of the oracle's transported-curvature derivative check.
"""

from __future__ import annotations

import numpy as np

from .polyjet import PolyTensor, contract
from .tensors import DenseTensor, LinearOperator, contract_leading


class ChartDomainError(ValueError):
    """A chart point (or a trajectory) left the model's chart domain."""

    def __init__(self, message, exit_time=None):
        super().__init__(message)
        self.exit_time = exit_time


class ManifoldModel:
    """A chart with a torsion-free affine connection.

    Subclasses must implement christoffel_jet(x, order) returning the Taylor
    polynomial of Gamma about x as a PolyTensor of shape (d, d, d) with layout
    data[m, k, i, j] = Taylor coefficient of Gamma^k_ij.  Symmetry in (i, j) is
    the torsion-free requirement; symmetry of the jets under permutation of the
    derivative multi-index is automatic in the Taylor-coefficient encoding.
    """

    dimension: int
    name = "manifold"
    metric = None  # models carrying a metric override with a method x -> (d, d)

    def christoffel_jet(self, x, order: int) -> PolyTensor:
        raise NotImplementedError

    def christoffel(self, x) -> np.ndarray:
        """Gamma^k_ij at x; subclasses may override with a faster closed form."""
        return self.christoffel_jet(np.asarray(x, dtype=float), 0).value

    def in_domain(self, x) -> bool:
        return True

    def require_in_domain(self, x, time=None):
        if not self.in_domain(np.asarray(x, dtype=float)):
            at = "" if time is None else f" at t={time:.6g}"
            raise ChartDomainError(f"point {np.asarray(x)} outside chart domain of {self.name}{at}",
                                   exit_time=time)

    def __repr__(self):
        return f"{type(self).__name__}(dimension={self.dimension})"


def curvature_polynomial(gamma: PolyTensor, degree: int) -> PolyTensor:
    """Curvature tensor R[l, x, y, z] as a polynomial jet of the given degree.

    Requires the Christoffel jet to one degree higher (the d Gamma terms).
    """
    if gamma.degree < degree + 1:
        raise ValueError(f"christoffel jet degree {gamma.degree} < required {degree + 1}")
    d = gamma.dim
    dg = np.stack([gamma.diff(a).truncate(degree).data for a in range(d)], axis=1)
    term1 = np.einsum("mxlyz->mlxyz", dg)
    term2 = np.einsum("mylxz->mlxyz", dg)
    gg = contract("lxm,myz->lxyz", gamma, gamma, degree)
    gg_swapped = np.einsum("mlyxz->mlxyz", gg.data)
    return PolyTensor(d, degree, term1 - term2 + gg.data - gg_swapped)


def covariant_derivative(tensor: PolyTensor, gamma: PolyTensor, degree: int) -> PolyTensor:
    """One covariant derivative of a (1, s)-tensor jet; new covariant slot first.

    out[l, a, j_1..j_s] = d_a T[l, j..] + Gamma^l_am T[m, j..]
                          - sum_i Gamma^m_{a j_i} T[l, .., m at i, ..]
    """
    if tensor.degree < degree + 1:
        raise ValueError(f"tensor jet degree {tensor.degree} < required {degree + 1}")
    d = tensor.dim
    s = tensor.data.ndim - 2  # covariant slots of the input
    letters = "bcdefghijknopqrstvwxyz"  # 'u', 'a', 'm' are reserved in the subscripts
    if s > len(letters):
        raise ValueError("tensor rank too large")
    J = letters[:s]

    parts = np.stack([tensor.diff(a).truncate(degree).data for a in range(d)], axis=2)
    out = PolyTensor(d, degree, parts)
    out = out + contract(f"uam,m{J}->ua{J}", gamma, tensor, degree)
    for i in range(s):
        t_sub = "u" + J[:i] + "m" + J[i + 1:]
        out = out - contract(f"ma{J[i]},{t_sub}->ua{J}", gamma, tensor, degree)
    return out


class CurvatureJet:
    """R and its covariant derivatives at a point: entry n is the (1, 3+n)
    tensor of the n-th derivative, derivative slots leading."""

    def __init__(self, point, max_order: int, tensors: list[DenseTensor]):
        self.point = np.asarray(point, dtype=float)
        self.max_order = int(max_order)
        if len(tensors) != self.max_order + 1:
            raise ValueError("need one tensor per derivative order")
        for n, t in enumerate(tensors):
            if (t.contravariant, t.covariant) != (1, 3 + n):
                raise ValueError(f"entry {n} must be a (1, {3 + n}) tensor")
        self.tensors = list(tensors)

    @property
    def dimension(self) -> int:
        return self.tensors[0].dimension

    def to_json(self) -> dict:
        return {
            "point": self.point.tolist(),
            "max_order": self.max_order,
            "tensors": [t.to_json() for t in self.tensors],
        }

    @classmethod
    def from_json(cls, blob: dict) -> "CurvatureJet":
        tensors = [DenseTensor.from_json(t) for t in blob["tensors"]]
        return cls(np.asarray(blob["point"], dtype=float), blob["max_order"], tensors)

    def __repr__(self):
        return f"CurvatureJet(d={self.dimension}, max_order={self.max_order})"


def curvature(model: ManifoldModel, x) -> DenseTensor:
    """Curvature tensor at x as a (1, 3) tensor, antisymmetric in the (X, Y) pair."""
    x = np.asarray(x, dtype=float)
    model.require_in_domain(x)
    gamma = model.christoffel_jet(x, 1)
    return DenseTensor(1, 3, curvature_polynomial(gamma, 0).value)


def curvature_jet(model: ManifoldModel, p, max_order: int) -> CurvatureJet:
    """R, nabla R, ..., nabla^max_order R at p, computed on polynomial jets.

    The Christoffel jet is requested to degree max_order + 1; each covariant
    derivative lowers the working polynomial degree by one, so every stored
    value is exact up to floating-point rounding.
    """
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    p = np.asarray(p, dtype=float)
    model.require_in_domain(p)
    gamma = model.christoffel_jet(p, max_order + 1)
    current = curvature_polynomial(gamma, max_order)
    tensors = [DenseTensor(1, 3, current.value)]
    for n in range(max_order):
        current = covariant_derivative(current, gamma, max_order - n - 1)
        tensors.append(DenseTensor(1, 4 + n, current.value))
    return CurvatureJet(p, max_order, tensors)


def directional_derivative(jet: CurvatureJet, v, n: int) -> DenseTensor:
    """v^n . (nabla^n R): the derivative slots fully contracted with v."""
    if not 0 <= n <= jet.max_order:
        raise ValueError(f"derivative order {n} outside jet range 0..{jet.max_order}")
    return contract_leading(jet.tensors[n], np.asarray(v, dtype=float), n)


def jacobi_operator(jet: CurvatureJet, v, n: int) -> LinearOperator:
    """The operator w -> (v^n . nabla^n R)(v, w) v; homogeneous of degree n+2 in v."""
    v = np.asarray(v, dtype=float)
    g = directional_derivative(jet, v, n).components
    return LinearOperator(np.einsum("lijk,i,k->lj", g, v, v))


def word_operator(jet: CurvatureJet, v, word) -> LinearOperator:
    """Left-to-right composition of jacobi_operator factors; identity for ()."""
    word = tuple(int(n) for n in word)
    if any(n < 0 for n in word):
        raise ValueError("word entries must be nonnegative")
    if word and max(word) > jet.max_order:
        raise ValueError(f"word {word} needs derivative order {max(word)} > jet max {jet.max_order}")
    out = LinearOperator.identity(jet.dimension)
    for n in word:
        out = out @ jacobi_operator(jet, v, n)
    return out
