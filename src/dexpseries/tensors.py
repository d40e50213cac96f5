"""Small dense multilinear algebra at a single tangent space.

Tensors live over one d-dimensional real vector space (the tangent space at a
chart point).  Components are stored dense, contravariant slots first, then
covariant slots in declared order.  Tangent vectors are plain 1-d numpy arrays.

`contract_leading` contracts a vector into the first covariant slot as a
batched matrix-vector product on a reshaped view, so the dense components are
read in place and never transposed or copied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _as_components(values, ndim_expected: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim_expected:
        raise ValueError(f"expected a rank-{ndim_expected} component array, got rank {arr.ndim}")
    if arr.shape != arr.shape[:1] * arr.ndim:
        raise ValueError(f"all slots must share one dimension, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("tensor components must be finite")
    return arr


@dataclass(eq=False)
class DenseTensor:
    """Mixed-variance tensor: `contravariant` upper slots then `covariant` lower slots."""

    contravariant: int
    covariant: int
    components: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.contravariant < 0 or self.covariant < 0:
            raise ValueError("arities must be nonnegative")
        self.components = _as_components(self.components, self.contravariant + self.covariant)

    @property
    def dimension(self) -> int:
        return self.components.shape[0] if self.components.ndim else 1


def contract_leading(tensor: DenseTensor, v: np.ndarray, n: int) -> DenseTensor:
    """Contract the vector v into the first covariant slot, n times.

    Equals the full contraction of the n-fold tensor power of v with the leading
    n covariant slots.  Each contraction views the components as
    (contravariant shape) + (d, rest), a stack of d x rest matrices, and
    multiplies v into every matrix with one matmul; the result is reshaped to
    the remaining rank once at the end.
    """
    if n < 0:
        raise ValueError("contraction count must be nonnegative")
    if n > tensor.covariant:
        raise ValueError(f"cannot contract {n} covariant slots, tensor has {tensor.covariant}")
    v = np.asarray(v, dtype=float)
    if v.shape != (tensor.dimension,):
        raise ValueError(f"vector shape {v.shape} does not match dimension {tensor.dimension}")
    comps = tensor.components
    d, rank = tensor.dimension, comps.ndim
    lead = comps.shape[:tensor.contravariant]
    for _ in range(n):
        comps = v @ comps.reshape(lead + (d, -1))
    return DenseTensor(tensor.contravariant, tensor.covariant - n,
                       comps.reshape((d,) * (rank - n)))


@dataclass(eq=False)
class LinearOperator:
    """A d x d real matrix acting on the tangent space."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.matrix = _as_components(self.matrix, 2)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def zero(cls, d: int) -> "LinearOperator":
        return cls(np.zeros((d, d)))

    def apply(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if w.shape != (self.dimension,):
            raise ValueError(f"vector shape {w.shape} does not match dimension {self.dimension}")
        return self.matrix @ w

    def __mul__(self, scalar: float) -> "LinearOperator":
        return LinearOperator(self.matrix * float(scalar))

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return {"dimension": self.dimension, "matrix": self.matrix.tolist()}


def operator_distance(a: LinearOperator, b: LinearOperator) -> float:
    """Frobenius norm of a - b."""
    if a.dimension != b.dimension:
        raise ValueError("operator dimensions differ")
    return float(np.linalg.norm(a.matrix - b.matrix))
