"""Concrete chart models: flat space, round sphere, hyperbolic space, and
seeded random polynomial connections.

Every model supplies Christoffel symbols and their first partials in closed
form on batches of chart points, and exact Christoffel jets (zero, the Taylor
division recurrence for the conformal models, or the polynomial shift), so no
finite differencing and no multivariate polynomial product enters the
curvature pipeline.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .geometry import ManifoldModel
from .polyjet import PolyTensor, lowering_table, monomial_exponents

MAX_POLY_TABLE_BYTES = 2**26  # from_config: (d, d, d, d) arrays; polynomial shift tables
MAX_SCALE = np.finfo(float).max / 2  # uniform(-scale, scale) needs 2 scale in the double range


class FlatSpace(ManifoldModel):
    """R^d with the trivial connection; everything downstream is exactly zero."""

    name = "flat"

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension

    def christoffel_jet(self, x, order: int) -> PolyTensor:
        d = self.dimension
        return PolyTensor.zeros(d, order, (d, d, d))

    def christoffel(self, x) -> np.ndarray:
        d = self.dimension
        return np.zeros(np.shape(x)[:-1] + (d, d, d))

    def christoffel_partials(self, x) -> np.ndarray:
        d = self.dimension
        return np.zeros(np.shape(x)[:-1] + (d, d, d, d))

    def metric(self, x) -> np.ndarray:
        return np.eye(self.dimension)


class _ConformalModel(ManifoldModel):
    """Conformally flat metric g = (a/u)^2 * I with u(x) = c0 + sigma |x|^2.

    Christoffels follow the conformal rule with phi = log a - log u:
        Gamma^k_ij = dphi_i d_jk + dphi_j d_ik - dphi_k d_ij,
        dphi_i = -2 sigma x_i / u,
    i.e. Gamma = w(x) A(x) with w = -2 sigma / u and A linear in x, so
        d_a Gamma = d_a w A(x) + w A(e_a),    d_a w = 4 sigma^2 x_a / u^2.
    Jets come from the division rule of Taylor arithmetic: about the base
    point x, u(x + xi) = u(x) + 2 sigma x.xi + sigma |xi|^2 and
    u Gamma = -2 sigma A(x + xi), so each Taylor coefficient g[e] of Gamma is
        g[e] = (s[e] - sum_{a in e} (2 sigma x_a g[e - 1_a] + sigma g[e - 2_a])) / u(x)
    in graded monomial order, with the source s[0] = -2 sigma A(x),
    s[1_a] = -2 sigma A(e_a), s[e] = 0 above degree one, and the g[e - 2_a]
    term only where e_a >= 2.  The result is exact to the truncation order.
    """

    def __init__(self, dimension: int, c0: float, sigma: float, factor_num: float):
        if dimension < 2:
            raise ValueError("dimension must be at least 2")
        self.dimension = dimension
        self._c0 = float(c0)
        self._sigma = float(sigma)
        self._a = float(factor_num)

    def _u(self, x):
        return self._c0 + self._sigma * np.einsum("...i,...i->...", x, x)

    def conformal_factor(self, x) -> float:
        """lambda(x) with g = lambda^2 * I."""
        return self._a / self._u(np.asarray(x, dtype=float))

    def metric(self, x) -> np.ndarray:
        lam = self.conformal_factor(x)
        return lam * lam * np.eye(self.dimension)

    @staticmethod
    def _symbol_pattern(x: np.ndarray) -> np.ndarray:
        """A[..., k, i, j] = x_i d_jk + x_j d_ik - x_k d_ij."""
        eye = np.eye(x.shape[-1])
        return (np.einsum("...i,jk->...kij", x, eye)
                + np.einsum("...j,ik->...kij", x, eye)
                - np.einsum("...k,ij->...kij", x, eye))

    def christoffel(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        w = -2.0 * self._sigma / self._u(x)
        return w[..., None, None, None] * self._symbol_pattern(x)

    def christoffel_partials(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = self._u(x)[..., None, None, None, None]
        dw = 4.0 * self._sigma**2 * x[..., :, None, None, None] / (u * u)
        return (dw * self._symbol_pattern(x)[..., None, :, :, :]
                + (-2.0 * self._sigma / u) * self._symbol_pattern(np.eye(self.dimension)))

    def christoffel_jet(self, x, order: int) -> PolyTensor:
        x = np.asarray(x, dtype=float)
        d, sigma, u0 = self.dimension, self._sigma, self._u(x)
        source = -2.0 * sigma * self._symbol_pattern(np.vstack([x, np.eye(d)]))  # A(x), A(e_a)
        low = lowering_table(d, order).tolist()  # low[a][m]: row of exps[m] - 1_a
        jet = PolyTensor.zeros(d, order, (d, d, d))
        g = jet.data
        for m, e in enumerate(monomial_exponents(d, order).tolist()):  # lower rows solved first
            total = sum(e)
            acc = source[0] if total == 0 else source[1 + e.index(1)] if total == 1 else 0.0
            for a in range(d):
                if e[a] == 0:
                    continue
                lower = low[a][m]
                acc = acc - 2.0 * sigma * x[a] * g[lower]
                if e[a] >= 2:
                    acc = acc - sigma * g[low[a][lower]]
            g[m] = acc / u0
        return jet


class Sphere(_ConformalModel):
    """Round d-sphere of the given radius in a stereographic chart.

    Chart domain is all of R^d (one point of the sphere is missed); sectional
    curvature is 1/radius^2 and the connection is locally symmetric.
    """

    name = "sphere"

    def __init__(self, dimension: int, radius: float = 1.0):
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError(f"radius must be positive and finite, got {radius!r}")
        self.radius = float(radius)
        r2 = radius * radius
        super().__init__(dimension, c0=r2, sigma=+1.0, factor_num=2.0 * r2)


class HyperbolicSpace(_ConformalModel):
    """Hyperbolic d-space of curvature -1 in the Poincare ball chart."""

    name = "hyperbolic"

    def __init__(self, dimension: int):
        super().__init__(dimension, c0=1.0, sigma=-1.0, factor_num=2.0)

    def in_domain(self, x) -> np.ndarray:
        return np.einsum("...i,...i->...", x, x) < 1.0


@lru_cache(maxsize=None)
def _poly_tables(d: int, degree: int):
    """Read-only exponent tables shared by every polynomial model of (d, degree).

    Returns the monomial exponents (M, d); the lowered exponents (d, M, d),
    [a, s] = exps[s] - 1_a floored at 0, for the partials; and the shift
    exponents and binomials (M, M, d) and (M, M) for recentering.  The target
    monomials of a shift are the same set: a shifted degree-D polynomial has
    degree D.
    """
    exps = monomial_exponents(d, degree)
    lowered = np.clip(exps[None, :, :] - np.eye(d, dtype=exps.dtype)[:, None, :], 0, None)
    ea = exps[:, None, :]
    eb = exps[None, :, :]
    diff = ea - eb
    valid = np.all(diff >= 0, axis=2)
    shift_exps = np.clip(diff, 0, None)
    comb = np.vectorize(math.comb)
    binom = np.where(valid, np.prod(comb(ea, np.minimum(eb, ea)), axis=2), 0.0)
    for table in (lowered, shift_exps, binom):
        table.flags.writeable = False
    return exps, lowered, shift_exps, binom


class PolynomialConnection(ManifoldModel):
    """A generic non-metric torsion-free connection with polynomial Christoffels.

    Coefficients are drawn uniformly from [-scale, scale] per monomial and
    symmetrized in the lower index pair; generation is deterministic in the
    seed.  Jets are exact polynomial recenterings.

    Gamma, its partials and the jet all weight the coefficients by monomials
    x^e.  Each call builds one power table x_a^k (k = 0..D, d (D+1) pow
    calls) and gathers the d factors of every monomial from it, instead of
    one pow per (monomial, variable) pair.  The exponent tables are shared,
    read-only, by all models of the same dimension and degree.
    """

    name = "polynomial"

    def __init__(self, dimension: int, max_poly_degree: int = 3, scale: float = 0.5, seed: int = 0):
        if dimension < 2:
            raise ValueError("dimension must be at least 2")
        if max_poly_degree < 0:
            raise ValueError("max_poly_degree must be nonnegative")
        if not abs(scale) <= MAX_SCALE:
            raise ValueError(f"scale must lie in [-{MAX_SCALE:g}, {MAX_SCALE:g}], got {scale!r}")
        self.dimension = dimension
        self.max_poly_degree = int(max_poly_degree)
        self.scale = float(scale)
        self.seed = int(seed)

        d = dimension
        self._exps, self._lowered_exps, self._shift_exps, self._shift_binom = _poly_tables(
            d, self.max_poly_degree)
        rng = np.random.default_rng(self.seed)
        raw = rng.uniform(-self.scale, self.scale, size=(len(self._exps), d, d, d))
        self.coefficients = 0.5 * (raw + raw.swapaxes(2, 3))

    def in_domain(self, x) -> np.ndarray:
        return np.einsum("...i,...i->...", x, x) < 1.0

    def _monomials(self, x: np.ndarray, exps: np.ndarray) -> np.ndarray:
        """x^e for every exponent row e of exps (..., d), at chart points x (..., d).

        The d (D+1) powers x_a^k come from one pow table and are gathered per
        exponent row, so every factor is the same pow value as x_a ** e_a and
        the product runs in the same order."""
        d = self.dimension
        powers = x[..., :, None] ** np.arange(self.max_poly_degree + 1)
        return np.multiply.reduce(powers[..., np.arange(d), exps], axis=-1)

    def christoffel(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        weights = self._monomials(x, self._exps)
        return np.einsum("...s,skij->...kij", weights, self.coefficients)

    def christoffel_partials(self, x) -> np.ndarray:
        # d_a x^e = e_a x^(e - 1_a): lowered exponents times the old exponent
        x = np.asarray(x, dtype=float)
        weights = self._exps.T * self._monomials(x, self._lowered_exps)
        return np.einsum("...as,skij->...akij", weights, self.coefficients)

    def christoffel_jet(self, x, order: int) -> PolyTensor:
        x = np.asarray(x, dtype=float)
        d = self.dimension
        weights = self._shift_binom * self._monomials(x, self._shift_exps)
        shifted = np.einsum("st,skij->tkij", weights, self.coefficients)
        out = PolyTensor.zeros(d, order, (d, d, d))
        rows = min(out.data.shape[0], shifted.shape[0])
        out.data[:rows] = shifted[:rows]
        return out


def flat(dimension: int) -> FlatSpace:
    return FlatSpace(dimension)


def sphere(dimension: int, radius: float = 1.0) -> Sphere:
    return Sphere(dimension, radius)


def hyperbolic(dimension: int) -> HyperbolicSpace:
    return HyperbolicSpace(dimension)


def polynomial_connection(dimension: int, max_poly_degree: int = 3,
                          scale: float = 0.5, seed: int = 0) -> PolynomialConnection:
    return PolynomialConnection(dimension, max_poly_degree, scale, seed)


def integer(value, name: str, low=-math.inf, high=math.inf) -> int:
    """A JSON integer (not a bool, a float or a string) in low..high."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise ValueError(f"{name} must lie in {low}..{high}, got {value}")
    return value


def number(value, name: str, above=-math.inf, high=math.inf) -> float:
    """A finite JSON number (not a bool or a string) in (above, high]: above itself is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer past the double range
        out = math.inf
    if not math.isfinite(out):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not above < out <= high:
        upper = f"{high:g}]" if high < math.inf else "inf)"
        raise ValueError(f"{name} must lie in ({above:g}, {upper}, got {value!r}")
    return out


def from_config(config: dict) -> ManifoldModel:
    """Build a model from a CLI-style description dict of JSON-typed fields."""
    cfg = dict(config)
    kind = cfg.pop("kind", None)
    if kind is None:
        raise ValueError("manifold config needs a 'kind' field")
    d = integer(cfg.pop("dimension", None), "dimension")
    if 8 * d**4 > MAX_POLY_TABLE_BYTES:  # the (d, d, d, d) curvature or dGamma at a point
        raise ValueError(f"dimension {d} is too large: one (d, d, d, d) array would exceed "
                         f"{MAX_POLY_TABLE_BYTES // 2**20} MiB")
    if kind == "flat":
        model = flat(d)
    elif kind == "sphere":
        model = sphere(d, number(cfg.pop("radius", 1.0), "radius"))
    elif kind == "hyperbolic":
        model = hyperbolic(d)
    elif kind == "polynomial":
        poly_degree = integer(cfg.pop("degree", 3), "degree")
        m = math.comb(d + max(poly_degree, 0), d)  # monomials of degree <= poly_degree
        if 8 * m * d * (m + d * d) > MAX_POLY_TABLE_BYTES:  # (M, M, d) and (M, d, d, d)
            raise ValueError(f"polynomial degree {poly_degree} is too high for dimension {d}")
        model = polynomial_connection(d, poly_degree, number(cfg.pop("scale", 0.5), "scale"),
                                      integer(cfg.pop("seed", 0), "seed", low=0))
    else:
        raise ValueError(f"unknown manifold kind {kind!r}")
    if cfg:
        raise ValueError(f"unused manifold config fields: {sorted(cfg)}")
    return model
