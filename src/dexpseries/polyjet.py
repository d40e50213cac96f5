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
search, cached as read-only tables built on first use: product_table (the
row of e + e') and its inverse quotient_table (the row of e - e').  Its
columns for e' = 1_a, quotient_table(dim, D, 1, D)[:, dim - a], serve
derivatives and the conformal Christoffel jets.  Only the dense tower uses
this module: the Taylor route (taylor.py) builds no PolyTensor.

Products (contract) gather, for every output monomial, the first factor's
rows at its quotients by the second factor's monomials, and contract them
with the second factor in one einsum per block of output rows; the tensor
slots combine through a caller-supplied einsum subscript, and nothing
convolves row by row.  Each block can be added into a caller's array, so
the dense tower sums its terms in one array per stage.  They serve the dense covariant-derivative tower in
geometry, the cross-check of the Taylor route; no production path multiplies
two PolyTensors.
"""

from __future__ import annotations

import itertools
import math
import string
from functools import lru_cache

import numpy as np

CHUNK_BYTES = 2**20  # contract gathers about this much of its first factor per block


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


@lru_cache(maxsize=None)
def product_table(dim: int, deg_a: int, deg_b: int, deg_out: int) -> np.ndarray:
    """(Ma, Mb) table: index of monomial e_a + e_b among degree <= deg_out, or -1.

    Mixed-radix keys e . (base^k) add under products and are exact while every
    entry stays below base; past int64 they are Python integers."""
    base = max(deg_a + deg_b, deg_out) + 1
    dtype = np.int64 if base**dim < 2**63 else object
    r = np.array([base**k for k in range(dim)], dtype=dtype)
    keys = monomial_exponents(dim, deg_out).astype(dtype) @ r
    order = np.argsort(keys)
    sorted_keys = keys[order]
    ka, kb = (monomial_exponents(dim, deg).astype(dtype) @ r for deg in (deg_a, deg_b))
    query = ka[:, None] + kb[None, :]
    pos = np.minimum(np.searchsorted(sorted_keys, query), len(order) - 1)
    table = np.where(sorted_keys[pos] == query, order[pos], -1).astype(np.int64)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def quotient_table(dim: int, deg_a: int, deg_b: int, deg_out: int) -> np.ndarray:
    """(M_out, Mb) table: index of monomial e_k - e_j among degree <= deg_a, or -1.

    Inverts the product table, where e_i -> e_i + e_j is one to one for each j;
    differences of radix keys at base deg_out + 1 can borrow into a valid key."""
    product = product_table(dim, deg_a, deg_b, deg_out)
    i, j = np.nonzero(product >= 0)
    table = np.full((monomial_count(dim, deg_out), product.shape[1]), -1, dtype=np.int64)
    table[product[i, j], j] = i
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _diff_table(dim: int, degree: int, var: int):
    """(src, dst, factor) index arrays implementing d/dxi_var on coefficient rows."""
    lowered = quotient_table(dim, degree, 1, degree)[:, dim - var]  # the row of e - 1_var
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

    def __repr__(self) -> str:
        return f"PolyTensor(dim={self.dim}, degree={self.degree}, shape={self.shape})"


def contract(subscripts: str, a: PolyTensor, b: PolyTensor, degree: int | None = None,
             out: np.ndarray | None = None) -> PolyTensor:
    """Polynomial product with an einsum contraction over the tensor slots.

    `subscripts` refers to the tensor axes only, e.g. "lim,mjk->lijk".  Each
    output row gathers its quotients, out[e_k] = sum_j a[e_k - e_j] (x) b[e_j]
    with an absent quotient reading a zero row, and contracts them in one
    einsum per block of rows; a block gathers about CHUNK_BYTES of `a`.  The
    result is truncated at `degree`, which may not exceed min(a.degree, b.degree)
    (beyond that the product coefficients would depend on discarded terms).
    Given `out`, an array of the product's data shape, the product is added
    into it block by block, and only one block of the product is ever held.
    """
    if a.dim != b.dim:
        raise ValueError("polynomial dimensions differ")
    safe = min(a.degree, b.degree)
    if degree is None:
        degree = safe
    if degree > safe:
        raise ValueError(f"product degree {degree} exceeds reliable degree {safe}")
    a, b = a.truncate(degree), b.truncate(degree)

    lhs, out_sub = subscripts.split("->")
    a_sub, b_sub = lhs.split(",")
    row, col = [c for c in string.ascii_letters if c not in subscripts][:2]
    stage_sub = f"{row}{col}{a_sub},{col}{b_sub}->{row}{out_sub}"

    table = quotient_table(a.dim, degree, degree, degree)
    padded = np.concatenate([a.data, np.zeros((1,) + a.shape)])  # row -1 is zero
    degrees = monomial_exponents(a.dim, degree).sum(axis=1)
    step = max(1, CHUNK_BYTES // (table.shape[1] * padded[0].nbytes))
    if out is None:
        out = np.zeros((len(table),) + np.einsum(stage_sub, padded[table[:0]], b.data).shape[1:])
    for start in range(0, len(table), step):
        rows = slice(start, start + step)
        top = monomial_count(a.dim, degrees[rows][-1])  # b's monomials up to the block's degree
        out[rows] += np.einsum(stage_sub, padded[table[rows, :top]], b.data[:top], optimize=True)
    return PolyTensor(a.dim, degree, out)
