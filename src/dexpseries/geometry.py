"""Curvature, its high-order covariant derivatives, and the curvature operators.

A manifold enters through a single chart: the model supplies Christoffel
symbols with their first partials in closed form, and exact Christoffel jets
(truncated Taylor polynomials of Gamma^k_ij about any chart point).  From
those this module computes

* the curvature tensor, pointwise from Gamma and d Gamma (any batch of
  points), and as a polynomial jet, with the fixed sign convention
      R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z,
  i.e. componentwise, with storage order R[l, x, y, z] for (R(X,Y)Z)^l:
      R[l,i,j,k] = d_i Gamma^l_jk - d_j Gamma^l_ik
                   + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik;
* the iterated covariant derivatives of R at a point, each application
  prepending one covariant slot (derivative slots sit first, then the three
  curvature slots X, Y, Z);
* the Jacobi-type operators w -> (v^n . nabla^n R)(v, w) v built from them
  (jacobi_operator contracts the n derivative slots with v itself), and their
  compositions indexed by integer words.

Higher derivatives are taken on truncated polynomial jets, so the only
numerical error in this module is floating-point rounding.  The dense tower
stores nabla^n R as a d^(n+4) array; it is the cross-check for the Taylor-mode
route in taylor.py, which the CLI uses for the series, and it is the
right-hand side of the oracle's transported-curvature derivative check.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .polyjet import CHUNK_BYTES, PolyTensor, contract, monomial_count
from .tensors import DenseTensor, LinearOperator


class ChartDomainError(ValueError):
    """A chart point (or a trajectory) left the model's chart domain."""

    def __init__(self, message, exit_time=None):
        super().__init__(message)
        self.exit_time = exit_time


class ManifoldModel:
    """A chart with a torsion-free affine connection.

    A model supplies christoffel(x), Gamma[..., k, i, j] = Gamma^k_ij at chart points x
    of shape (..., d); christoffel_partials(x), the closed-form [..., a, k, i, j] =
    d_a Gamma^k_ij; christoffel_series(xs), Gamma as a series in t along a curve with
    Taylor coefficients xs (n, d); christoffel_gradient_series(xs, uu), the series
    [k, a, l] of d_a Gamma^l(u, u) for the series uu (n, d, d) of u (x) u; and
    christoffel_jet(x, order), the Taylor polynomial of Gamma about x as a PolyTensor of
    shape (d, d, d).  The ODE oracle uses only the first two, the Taylor route only the
    series, and the dense tower only the jet.  Symmetry in (i, j) is the torsion-free
    requirement; symmetry of the jets under permutation of the derivative multi-index is
    automatic in the Taylor-coefficient encoding.
    """

    dimension: int
    name = "manifold"
    metric = None  # models carrying a metric override with a method x -> (d, d)

    def christoffel(self, x) -> np.ndarray:
        raise NotImplementedError

    def christoffel_partials(self, x) -> np.ndarray:
        raise NotImplementedError

    def christoffel_jet(self, x, order: int) -> PolyTensor:
        raise NotImplementedError

    def in_domain(self, x) -> np.ndarray:
        """Boolean array of shape (...) for chart points of shape (..., d)."""
        return np.ones(np.shape(x)[:-1], dtype=bool)

    def require_in_domain(self, x, time=None):
        x = np.asarray(x, dtype=float)
        inside = self.in_domain(x)
        if not np.all(inside):
            bad = x[np.logical_not(inside)][0] if x.ndim > 1 else x
            at = "" if time is None else f" at t={time:.6g}"
            raise ChartDomainError(f"point {bad} outside chart domain of {self.name}{at}",
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
    # d_x Gamma^l_yz + Gamma^l_xm Gamma^m_yz, less the same with x and y exchanged
    out = np.empty((monomial_count(d, degree),) + (d,) * 4)
    for a in range(d):
        out[:, :, a] = gamma.diff(a).truncate(degree).data
    contract("lxm,myz->lxyz", gamma, gamma, degree, out=out)
    out -= out.swapaxes(2, 3).copy()
    return PolyTensor(d, degree, out)


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

    out = np.empty((monomial_count(d, degree), d, d) + tensor.shape[1:])
    for a in range(d):
        out[:, :, a] = tensor.diff(a).truncate(degree).data
    contract(f"uam,m{J}->ua{J}", gamma, tensor, degree, out=out)
    minus_gamma = PolyTensor(d, degree, -gamma.truncate(degree).data)
    for i in range(s):
        t_sub = "u" + J[:i] + "m" + J[i + 1:]
        contract(f"ma{J[i]},{t_sub}->ua{J}", minus_gamma, tensor, degree, out=out)
    return PolyTensor(d, degree, out)


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

    def __repr__(self):
        return f"CurvatureJet(d={self.dimension}, max_order={self.max_order})"


def riemann(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """R[..., l, i, j, k] by the four-term formula from Gamma and d Gamma[..., a]."""
    gg = np.einsum("...lim,...mjk->...lijk", gamma, gamma)
    return (np.einsum("...iljk->...lijk", dgamma) - np.einsum("...jlik->...lijk", dgamma)
            + gg - np.einsum("...ljik->...lijk", gg))


def curvature(model: ManifoldModel, x) -> DenseTensor:
    """Curvature tensor at x as a (1, 3) tensor, antisymmetric in the (X, Y) pair.

    Built from the model's closed-form Gamma and d Gamma at x, sharing no code
    with the dense tower or the jets.
    """
    x = np.asarray(x, dtype=float)
    model.require_in_domain(x)
    return DenseTensor(1, 3, riemann(model.christoffel(x), model.christoffel_partials(x)))


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


def curvature_jet_bytes(d: int, max_order: int) -> int:
    """Bytes curvature_jet holds at peak once its tables are built: the Christoffel jet,
    the tower's largest stage and contract's gathered block with its copy, two
    CHUNK_BYTES.  A stage is one jet nabla^i R of degree K - i (none for R itself)
    beside two arrays the size of the next jet: that jet, filled in place, and one
    block of a product, which for the degree-0 last jet is the whole jet."""
    jets = [monomial_count(d, max_order - i) * d ** (i + 4) for i in range(max_order + 1)]
    stage = max(a + 2 * b for a, b in zip([0] + jets, jets))
    return (monomial_count(d, max_order + 1) * d**3 + stage) * 8 + 2 * CHUNK_BYTES


@lru_cache(maxsize=None)
def _digits(d: int, n: int) -> np.ndarray:
    """Read-only (n, d^n) table: column i holds the n base-d digits of i, most significant first."""
    table = np.indices((d,) * n).reshape(n, d**n)
    table.flags.writeable = False
    return table


def jacobi_operator(jet: CurvatureJet, v, n: int) -> LinearOperator:
    """The operator w -> (v^n . nabla^n R)(v, w) v; homogeneous of degree n+2 in v.

    nabla^n R is read once, as one product of the Kronecker power v^(x)n with a
    (d, d^n, d^3) view of its components, then R(v, ., v) is contracted.
    """
    if not 0 <= n <= jet.max_order:
        raise ValueError(f"derivative order {n} outside jet range 0..{jet.max_order}")
    v = np.asarray(v, dtype=float)
    d = jet.dimension
    power = v[_digits(d, n)].prod(axis=0)  # v^(x)n: the products v_a1 ... v_an in C order
    g = power @ jet.tensors[n].components.reshape(d, d**n, d**3)
    return LinearOperator(np.einsum("lijk,i,k->lj", g.reshape(d, d, d, d), v, v))


def word_operator(jet: CurvatureJet, v, word) -> LinearOperator:
    """Left-to-right composition of jacobi_operator factors; identity for ()."""
    word = tuple(int(n) for n in word)
    if any(n < 0 for n in word):
        raise ValueError("word entries must be nonnegative")
    if word and max(word) > jet.max_order:
        raise ValueError(f"word {word} needs derivative order {max(word)} > jet max {jet.max_order}")
    out = np.eye(jet.dimension)
    for n in word:
        out = out @ jacobi_operator(jet, v, n).matrix
    return LinearOperator(out)
