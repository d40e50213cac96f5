"""Truncated multivariate Taylor polynomials with tensor-valued coefficients.

A PolyTensor represents a tensor field near a base point, expanded in the chart
offset xi and truncated at a total degree:

    T(xi) = sum_m  data[m] * xi**exponents[m],          |exponents[m]| <= degree

where data has shape (n_monomials, *tensor_shape).  Monomials are ordered by
total degree and then lexicographically, so the monomials of degree <= k are
always a prefix of the monomials of degree <= k+1; truncation is a row slice.

Coefficients are Taylor coefficients (partial derivative / multi-index
factorial), so the degree-0 row is the field's value at the base point and the
degree-1 rows are its first partial derivatives.

Every lookup of a neighbouring monomial goes through one mixed-radix key
search (_radix_lookup), cached as two read-only tables: product_table (the
row of e + e') and lowering_table (the row of e - 1_a).  The lowering table
serves derivatives and the conformal Christoffel jets.  Only the dense tower
uses this module: the Taylor route (taylor.py) builds no PolyTensor.

Products (contract) convolve monomial indices through the product table,
and the tensor slots of the two factors combine through a caller-supplied
einsum subscript.  They serve the dense covariant-derivative tower in
geometry, the cross-check of the Taylor route; no production path multiplies
two PolyTensors.
"""

from __future__ import annotations

import itertools
import math
import string
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def monomial_count(dim: int, degree: int) -> int:
    if degree < 0:
        return 0
    return math.comb(degree + dim, dim)


@lru_cache(maxsize=None)
def monomial_exponents(dim: int, degree: int) -> np.ndarray:
    """(M, dim) integer array of exponent tuples, graded then lexicographic: each
    degree block is stars and bars, e_a = the gap between bars a - 1 and a, less one."""
    blocks = []
    for total in range(degree + 1):
        slots = total + dim - 1
        bars = np.array(list(itertools.combinations(range(slots), dim - 1)), dtype=np.int64)
        blocks.append(np.diff(bars, axis=1, prepend=-1, append=slots) - 1)
    arr = np.concatenate(blocks)
    arr.flags.writeable = False
    return arr


def _radix_lookup(dim: int, degree: int, base: int):
    """Mixed-radix keys of the monomials of degree <= `degree`, and their inverse.

    Returns the key weights r = (base^k) and a function mapping keys e . r to
    rows, or -1 where no monomial has that key.  Keys are exact for exponent
    entries below `base`; past int64 they are Python integers."""
    dtype = np.int64 if base**dim < 2**63 else object
    r = np.array([base**k for k in range(dim)], dtype=dtype)
    keys = monomial_exponents(dim, degree).astype(dtype) @ r
    order = np.argsort(keys)
    sorted_keys = keys[order]

    def rows(query):
        pos = np.minimum(np.searchsorted(sorted_keys, query), len(order) - 1)
        return np.where(sorted_keys[pos] == query, order[pos], -1).astype(np.int64)

    return r, rows


@lru_cache(maxsize=None)
def product_table(dim: int, deg_a: int, deg_b: int, deg_out: int) -> np.ndarray:
    """(Ma, Mb) table: index of monomial e_a + e_b among degree <= deg_out, or -1.

    Mixed-radix keys (every entry < base) add under products."""
    r, rows = _radix_lookup(dim, deg_out, max(deg_a + deg_b, deg_out) + 1)
    ka = monomial_exponents(dim, deg_a).astype(r.dtype) @ r
    kb = monomial_exponents(dim, deg_b).astype(r.dtype) @ r
    table = rows(ka[:, None] + kb[None, :])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def lowering_table(dim: int, degree: int) -> np.ndarray:
    """(dim, M) table: [a, m] is the row of exps[m] - 1_a, or -1 where exps[m][a] == 0.

    By the prefix property its first columns are the table of any lower degree."""
    exps = monomial_exponents(dim, degree)
    r, rows = _radix_lookup(dim, degree, degree + 1)
    keys = exps.astype(r.dtype) @ r
    table = np.where(exps.T > 0, rows(keys[None, :] - r[:, None]), -1)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _diff_table(dim: int, degree: int, var: int):
    """(src, dst, factor) index arrays implementing d/dxi_var on coefficient rows."""
    lowered = lowering_table(dim, degree)[var]
    src = np.flatnonzero(lowered >= 0)
    return src, lowered[src], monomial_exponents(dim, degree)[src, var].astype(float)


class PolyTensor:
    """Tensor-valued truncated Taylor polynomial; see module docstring."""

    __slots__ = ("dim", "degree", "data")

    def __init__(self, dim: int, degree: int, data: np.ndarray):
        data = np.asarray(data, dtype=float)
        if data.shape[0] != monomial_count(dim, degree):
            raise ValueError(
                f"expected {monomial_count(dim, degree)} coefficient rows for "
                f"dim={dim}, degree={degree}; got {data.shape[0]}"
            )
        self.dim = dim
        self.degree = degree
        self.data = data

    @classmethod
    def zeros(cls, dim: int, degree: int, shape: tuple[int, ...]) -> "PolyTensor":
        return cls(dim, degree, np.zeros((monomial_count(dim, degree),) + tuple(shape)))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape[1:]

    @property
    def value(self) -> np.ndarray:
        """Tensor value at the base point (offset zero)."""
        return self.data[0].copy()

    def truncate(self, degree: int) -> "PolyTensor":
        if degree > self.degree:
            raise ValueError(f"cannot truncate degree {self.degree} up to {degree}")
        if degree == self.degree:
            return self
        return PolyTensor(self.dim, degree, self.data[: monomial_count(self.dim, degree)])

    def diff(self, var: int) -> "PolyTensor":
        """Partial derivative in chart variable `var`; truncation degree drops by one."""
        if not 0 <= var < self.dim:
            raise ValueError(f"variable index {var} out of range for dim {self.dim}")
        if self.degree == 0:
            return PolyTensor.zeros(self.dim, 0, self.shape)
        src, dst, fac = _diff_table(self.dim, self.degree, var)
        out = PolyTensor.zeros(self.dim, self.degree - 1, self.shape)
        fac = fac.reshape((-1,) + (1,) * len(self.shape))
        out.data[dst] = fac * self.data[src]
        return out

    def eval(self, xi) -> np.ndarray:
        """Evaluate the truncated polynomial at chart offset xi from the base point."""
        xi = np.asarray(xi, dtype=float)
        exps = monomial_exponents(self.dim, self.degree)
        weights = np.prod(xi[None, :] ** exps, axis=1)
        return np.tensordot(weights, self.data, axes=(0, 0))

    def __repr__(self) -> str:
        return f"PolyTensor(dim={self.dim}, degree={self.degree}, shape={self.shape})"


def contract(subscripts: str, a: PolyTensor, b: PolyTensor, degree: int | None = None) -> PolyTensor:
    """Polynomial product with an einsum contraction over the tensor slots.

    `subscripts` refers to the tensor axes only, e.g. "lim,mjk->lijk"; the
    monomial axis is convolved.  The result is truncated at `degree`, which may
    not exceed min(a.degree, b.degree) (beyond that the product coefficients
    would depend on discarded terms).
    """
    if a.dim != b.dim:
        raise ValueError("polynomial dimensions differ")
    safe = min(a.degree, b.degree)
    if degree is None:
        degree = safe
    if degree > safe:
        raise ValueError(f"product degree {degree} exceeds reliable degree {safe}")
    a = a.truncate(min(a.degree, degree))
    b = b.truncate(min(b.degree, degree))

    lhs, out_sub = subscripts.split("->")
    a_sub, b_sub = lhs.split(",")
    used = set(subscripts) - {",", "-", ">"}
    mono = next(c for c in string.ascii_letters if c not in used)
    stage_sub = f"{a_sub},{mono}{b_sub}->{mono}{out_sub}"

    out_shape = np.einsum(stage_sub, a.data[0], b.data[:0]).shape[1:]
    out = PolyTensor.zeros(a.dim, degree, out_shape)
    table = product_table(a.dim, a.degree, b.degree, degree)
    mb = b.data.shape[0]
    for i in range(a.data.shape[0]):
        coeff = a.data[i]
        if not np.any(coeff):
            continue
        idx = table[i, :mb]
        valid = idx >= 0
        if not valid.any():
            continue
        contrib = np.einsum(stage_sub, coeff, b.data[valid])
        out.data[idx[valid]] += contrib
    return out

