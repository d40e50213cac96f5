"""Concrete chart models: the conformally flat family of flat space, round
spheres and hyperbolic space (sigma = 0, +1, -1), and seeded random
polynomial connections.

Every model supplies Christoffel symbols and their first partials in closed
form on batches of chart points (for the oracle), Gamma and the x-Jacobian of
Gamma(u, u) as series along a curve (the Taylor route) and exact jets (the
dense tower): A(V) for the conformal family's one vector field V = w x (only w
takes the Taylor division rule), or Taylor's theorem along x (polynomials).
No finite differencing and no multivariate polynomial product enters the
curvature pipeline.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np

from .geometry import ManifoldModel
from .polyjet import PolyTensor, monomial_count, monomial_exponents, quotient_table
from .taylor import _cauchy, _divide

MAX_POLY_TABLE_BYTES = 2**26  # from_config: (d, d, d, d) arrays; polynomial monomial count
MAX_SCALE = np.finfo(float).max / 2  # uniform(-scale, scale) needs 2 scale in the double range


@lru_cache(maxsize=None)
def _pattern_table(d: int) -> np.ndarray:
    """Read-only (d, d^3) table T of the unit patterns A(e_c), so that A(y) = y @ T exactly:
    each entry of A(y)[k, i, j] = y_i d_jk + y_j d_ik - y_k d_ij is one signed y_c or 0."""
    table = np.zeros((d,) * 4)
    c, k = np.ogrid[:d, :d]
    table[c, k, c, k] += 1.0  # y_i d_jk
    table[c, k, k, c] += 1.0  # y_j d_ik
    table[c, c, k, k] -= 1.0  # y_k d_ij
    table.flags.writeable = False
    return table.reshape(d, d**3)


class _ConformalModel(ManifoldModel):
    """Conformally flat metric g = (a/u)^2 * I with u(x) = c0 + sigma |x|^2:
    flat space (sigma = 0), the sphere (+1) and hyperbolic space (-1).

    With phi = log a - log u the connection is linear in one vector field,
    Gamma = A(V) with V = dphi = w x and the scalar w = -2 sigma / u, so
        d_a Gamma = A(d_a w x + w e_a),   d_a w = 4 sigma^2 x_a / u^2,
    and the jet rows are Gamma[e] = A(V[e]), V[e] = w[e] x + (w[e - 1_a])_a,
    since V(x + xi) = w(x + xi) (x + xi).  Only w takes the division rule of
    Taylor arithmetic: u(x + xi) = u(x) + 2 sigma x.xi + sigma |xi|^2 and
    u w = -2 sigma give w[0] = -2 sigma / u(x) and
        w[e] = -(2 sigma sum_a x_a w[e - 1_a] + sigma sum_a w[e - 2_a]) / u(x),
    absent monomials counting zero, solved one total degree at a time.  The
    jet is exact to the truncation order; its row 0 is christoffel(x) exactly.
    Along a curve x(t), w = -2 sigma / u(x(t)) by that rule in t, Gamma = A(w x)
    and d_a Gamma = A(w^2 x_a x + w e_a).
    """

    min_dimension = 2

    def __init__(self, dimension: int, c0: float, sigma: float, factor_num: float):
        if dimension < self.min_dimension:
            raise ValueError(f"dimension must be at least {self.min_dimension}")
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

    def _pattern(self, y: np.ndarray) -> np.ndarray:  # A(y)[..., k, i, j] for y (..., d)
        return (y @ _pattern_table(self.dimension)).reshape(y.shape[:-1] + (self.dimension,) * 3)

    def christoffel(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        w = -2.0 * self._sigma / self._u(x)
        return self._pattern(w[..., None] * x)

    def christoffel_partials(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = self._u(x)[..., None, None]
        dw = 4.0 * self._sigma**2 * x[..., :, None] / (u * u)
        w = -2.0 * self._sigma / u
        return self._pattern(dw * x[..., None, :] + w * np.eye(self.dimension))

    def _wx_series(self, xs):  # w and V = w x along a curve with coefficients xs (n, d)
        u = self._sigma * _cauchy("a,a->", xs, xs)
        u[0] += self._c0
        w = _divide(-2.0 * self._sigma, u)
        return w, _cauchy(",a->a", w, xs)

    def christoffel_series(self, xs) -> np.ndarray:
        return self._pattern(self._wx_series(xs)[1])

    def christoffel_gradient_series(self, xs, uu) -> np.ndarray:
        w, wx = self._wx_series(xs)  # d_a V = Y[a], Y = (w x) (x) (w x) + w I
        y = _cauchy("a,c->ac", wx, wx) + w[:, None, None] * np.eye(self.dimension)
        trace = np.einsum("kii->k", uu)[:, None, None] * np.eye(self.dimension)
        return _cauchy("ac,cl->al", y, 2.0 * uu - trace)  # A(y)(u, u) = (2 uu - tr(uu) I) y

    def christoffel_jet(self, x, order: int) -> PolyTensor:
        x = np.asarray(x, dtype=float)
        d, sigma, u0 = self.dimension, self._sigma, self._u(x)
        # [a, m]: the row of exps[m] - 1_a (low2: - 2_a), or -1; 1_a is quotient column d - a
        low = quotient_table(d, order, 1, order)[:, :0:-1].T
        low2 = np.where(low >= 0, np.take_along_axis(low, np.maximum(low, 0), axis=1), -1)
        w = np.zeros(low.shape[1] + 1)  # w[-1] = 0 stands for an absent monomial
        w[0] = -2.0 * sigma / u0
        for k in range(1, order + 1):  # degree k reads only rows of degree k - 1 and k - 2
            rows = slice(monomial_count(d, k - 1), monomial_count(d, k))
            lower = (x[:, None] * w[low[:, rows]]).sum(axis=0)  # summed over a in order
            w[rows] = -(2.0 * sigma * lower + sigma * w[low2[:, rows]].sum(axis=0)) / u0
        v = w[:-1, None] * x + w[low.T]
        return PolyTensor(d, order, self._pattern(v))


class FlatSpace(_ConformalModel):
    """R^d: the conformal family at sigma = 0, so u = 1, w = 0, Gamma = A(0) = 0 and g = I."""

    name = "flat"
    min_dimension = 1

    def __init__(self, dimension: int):
        super().__init__(dimension, c0=1.0, sigma=0.0, factor_num=1.0)


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
    """Read-only tables shared by every polynomial model of (d, degree): the
    monomial exponents exps (M, d); lowered (d, M), [a, s] the row of
    exps[s] - 1_a, or s where exps[s][a] = 0; and raised (d, M'), [a, m] the
    row of exps[m] + 1_a for the M' monomials below degree D."""
    exps = monomial_exponents(d, degree)
    row = {e: s for s, e in enumerate(map(tuple, exps.tolist()))}
    unit, below = np.eye(d, dtype=exps.dtype), exps[:monomial_count(d, degree - 1)]
    lowered = np.array([[row.get(tuple(e), s) for s, e in enumerate((exps - u).tolist())]
                        for u in unit], dtype=np.intp)
    raised = np.array([[row[tuple(e)] for e in (below + u).tolist()] for u in unit], dtype=np.intp)
    for table in (lowered, raised):
        table.flags.writeable = False
    return exps, lowered, raised


class PolynomialConnection(ManifoldModel):
    """A generic non-metric torsion-free connection with polynomial Christoffels.

    Coefficients are drawn uniformly from [-scale, scale] per monomial and
    symmetrized in the lower index pair; generation is deterministic in the
    seed.  Jets are exact polynomial recenterings.

    Gamma and its partials weight the coefficients by monomials x^e, each
    gathered from one power table x_a^k (k = 0..D, d (D+1) pow calls); the
    partials gather x^(e - 1_a) by the lowered rows.  The jet is Taylor's
    theorem along x, Gamma(x + xi) = sum_{j <= D} (x . grad)^j Gamma(xi) / j!,
    where (x . grad) P has row m = sum_a x_a (e_m + 1_a)_a P[e_m + 1_a].
    Along a curve x(t) monomial series replace the monomial values (d_a Gamma(u, u)
    weights the coefficients' contractions C_s(u, u)).
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
        self._exps, self._lowered, self._raised = _poly_tables(d, self.max_poly_degree)
        rng = np.random.default_rng(self.seed)
        raw = rng.uniform(-self.scale, self.scale, size=(len(self._exps), d, d, d))
        self.coefficients = 0.5 * (raw + raw.swapaxes(2, 3))

    def in_domain(self, x) -> np.ndarray:
        return np.einsum("...i,...i->...", x, x) < 1.0

    def _monomials(self, x: np.ndarray) -> np.ndarray:
        """x^e for every monomial exponent row e, at chart points x (..., d).

        The d (D+1) powers x_a^k come from one pow table and are gathered per
        exponent row, so every factor is the same pow value as x_a ** e_a and
        the product runs in the same order."""
        powers = x[..., :, None] ** np.arange(self.max_poly_degree + 1)
        return np.multiply.reduce(powers[..., np.arange(self.dimension), self._exps], axis=-1)

    def _monomial_series(self, xs) -> np.ndarray:
        """[t^k] x(t)^e for every exponent row e, (n, M), from the series xs (n, d)."""
        powers = np.zeros((len(xs), self.max_poly_degree + 1, self.dimension))  # x_a(t)^k
        powers[0, 0] = 1.0
        for k in range(1, self.max_poly_degree + 1):
            powers[:, k] = _cauchy("a,a->a", powers[:, k - 1], xs)
        factors = powers[:, self._exps, np.arange(self.dimension)]  # x_a(t)^(e_a), (n, M, d)
        return reduce(lambda mono, f: _cauchy("m,m->m", mono, f), factors.transpose(2, 0, 1))

    def _gamma(self, mono: np.ndarray) -> np.ndarray:  # from the monomial values x^e (..., M)
        return np.einsum("...s,skij->...kij", mono, self.coefficients)

    def _partial_weights(self, mono: np.ndarray) -> np.ndarray:  # [..., a, s]: e_a x^(e - 1_a)
        return self._exps.T * mono[..., self._lowered]

    def christoffel(self, x) -> np.ndarray:
        return self._gamma(self._monomials(np.asarray(x, dtype=float)))

    def christoffel_partials(self, x) -> np.ndarray:
        weights = self._partial_weights(self._monomials(np.asarray(x, dtype=float)))
        return np.einsum("...as,skij->...akij", weights, self.coefficients)

    def christoffel_series(self, xs) -> np.ndarray:
        return self._gamma(self._monomial_series(xs))

    def christoffel_gradient_series(self, xs, uu) -> np.ndarray:
        weights = self._partial_weights(self._monomial_series(xs))
        return _cauchy("as,sl->al", weights, np.einsum("skij,nij->nsk", self.coefficients, uu))

    def christoffel_jet(self, x, order: int) -> PolyTensor:
        x = np.asarray(x, dtype=float)
        d, degree = self.dimension, self.max_poly_degree
        term = self.coefficients
        shifted = term.copy()
        for j in range(1, degree + 1):  # each step lowers the degree by one
            rows = monomial_count(d, degree - j)
            weights = x[:, None] * (self._exps[:rows].T + 1) / j
            term = np.einsum("am,amkij->mkij", weights, term[self._raised[:, :rows]])
            shifted[:rows] += term
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
        # caps M, and so the per-node monomial gathers that the oracle count leaves out
        if 8 * m * d * (m + d * d) > MAX_POLY_TABLE_BYTES:
            raise ValueError(f"polynomial degree {poly_degree} is too high for dimension {d}")
        model = polynomial_connection(d, poly_degree, number(cfg.pop("scale", 0.5), "scale"),
                                      integer(cfg.pop("seed", 0), "seed", low=0))
    else:
        raise ValueError(f"unknown manifold kind {kind!r}")
    if cfg:
        raise ValueError(f"unused manifold config fields: {sorted(cfg)}")
    return model
