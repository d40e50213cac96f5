import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from dexpseries.manifolds import (
    FlatSpace,
    _ConformalModel,
    flat,
    from_config,
    hyperbolic,
    polynomial_connection,
    sphere,
)
from dexpseries.polyjet import monomial_count, monomial_exponents
from test_polyjet import poly_eval


def seeded_points(model, count, rng, radius=0.35):
    pts = rng.uniform(-radius, radius, size=(count, model.dimension))
    return [p for p in pts if model.in_domain(p)]


ZOO = [
    flat(3),
    sphere(2, 1.0),
    sphere(3, 2.0),
    hyperbolic(2),
    hyperbolic(3),
    polynomial_connection(3, 3, 0.5, 42),
    polynomial_connection(2, 2, 0.3, 7),
]


@pytest.mark.parametrize("model", ZOO, ids=lambda m: f"{m.name}{m.dimension}")
def test_series_along_a_curve_sum_to_the_closed_form(model):
    # Gamma along x(t) = x0 + x1 t + x2 t^2, and d_a Gamma(x(t))(u(t), u(t)) for
    # u(t) = u0 + u1 t + u2 t^2, summed through t^9 at t = 0.05, agree with the
    # closed forms at x(t) up to the truncation term
    rng = np.random.default_rng(4)
    d = model.dimension
    xs, us = np.zeros((10, d)), np.zeros((10, d))
    xs[:3], us[:3] = rng.uniform(-0.3, 0.3, size=(2, 3, d))
    uu = np.array([sum(np.outer(us[j], us[k - j]) for j in range(k + 1)) for k in range(10)])
    t = 0.05
    x, u = (c[0] + c[1] * t + c[2] * t * t for c in (xs, us))

    def gradient(y, uu):
        return np.einsum("akij,ij->ak", model.christoffel_partials(y), uu)

    for coeffs, direct, at0, at_t in (
            (model.christoffel_series(xs), model.christoffel, (xs[0],), (x,)),
            (model.christoffel_gradient_series(xs, uu), gradient, (xs[0], uu[0]),
             (x, np.outer(u, u)))):
        assert coeffs.shape == (10,) + direct(*at_t).shape
        assert np.max(np.abs(coeffs[0] - direct(*at0))) <= 1e-15
        summed = np.tensordot(t ** np.arange(10), coeffs, axes=1)
        assert np.max(np.abs(summed - direct(*at_t))) <= 1e-12


@pytest.mark.parametrize("model", ZOO, ids=lambda m: f"{m.name}{m.dimension}")
def test_torsion_free_symmetry_exact(model):
    rng = np.random.default_rng(1)
    for p in seeded_points(model, 6, rng):
        gamma = model.christoffel(p)
        assert np.array_equal(gamma, gamma.swapaxes(1, 2))


@pytest.mark.parametrize("model", ZOO, ids=lambda m: f"{m.name}{m.dimension}")
def test_jet_value_and_derivative_slots_match_direct_formula(model):
    rng = np.random.default_rng(2)
    for p in seeded_points(model, 3, rng):
        jet = model.christoffel_jet(p, 3)
        assert np.allclose(jet.value, model.christoffel(p), atol=1e-14)
        # the jet, evaluated at a small offset, reproduces Gamma there up to
        # the quartic truncation remainder
        xi = rng.uniform(-0.02, 0.02, size=model.dimension)
        direct = model.christoffel(p + xi)
        assert np.allclose(poly_eval(jet, xi), direct, atol=2e-6)
        # torsion symmetry holds coefficientwise
        assert np.allclose(jet.data, jet.data.swapaxes(2, 3), atol=0)


@pytest.mark.parametrize("model", ZOO, ids=lambda m: f"{m.name}{m.dimension}")
def test_order_zero_jet_matches_value(model):
    p = np.full(model.dimension, 0.07)
    jet = model.christoffel_jet(p, 0)
    assert jet.degree == 0
    assert np.allclose(jet.value, model.christoffel(p), atol=1e-15)


def test_jet_eval_high_order_conformal():
    model = sphere(2, 1.0)
    p = np.array([0.2, -0.1])
    jet = model.christoffel_jet(p, 8)
    xi = np.array([0.08, 0.05])
    assert np.allclose(poly_eval(jet, xi), model.christoffel(p + xi), atol=1e-10)


def test_flat_is_trivial():
    model = flat(4)
    assert np.array_equal(model.christoffel(np.ones(4)), np.zeros((4, 4, 4)))
    jet = model.christoffel_jet(np.zeros(4), 5)
    assert not np.any(jet.data)


def test_flat_space_is_the_conformal_family_at_sigma_zero():
    assert issubclass(FlatSpace, _ConformalModel)
    own = {"christoffel", "christoffel_partials", "christoffel_jet", "metric"}
    assert not own & set(FlatSpace.__dict__)


def _positive_zeros(a: np.ndarray, shape) -> bool:  # a -0.0 would print as -0.0 in an artifact
    return a.shape == shape and not np.any(a) and not np.any(np.signbit(a))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["negative", "positive"])
def test_flat_quantities_are_positive_zeros(d, sign):
    model = flat(d)
    rng = np.random.default_rng(d)
    for shape in [(d,), (7, d), (3, 4, d)]:
        x = sign * rng.uniform(0.1, 0.9, size=shape)
        assert _positive_zeros(model.christoffel(x), shape[:-1] + (d,) * 3)
        assert _positive_zeros(model.christoffel_partials(x), shape[:-1] + (d,) * 4)
    x = sign * rng.uniform(0.1, 0.9, size=d)
    for order in range(7):
        jet = model.christoffel_jet(x, order)
        assert jet.degree == order
        assert _positive_zeros(jet.data, (monomial_count(d, order),) + (d,) * 3)
    metric = model.metric(x)
    assert np.array_equal(metric, np.eye(d)) and not np.any(np.signbit(metric))
    xs = sign * rng.uniform(0.1, 0.9, size=(5, d))
    uu = np.einsum("ka,kb->kab", xs, xs)
    assert _positive_zeros(model.christoffel_series(xs), (5,) + (d,) * 3)
    assert _positive_zeros(model.christoffel_gradient_series(xs, uu), (5, d, d))


def test_sphere_conformal_factor_and_metric():
    model = sphere(2, 1.0)
    assert model.conformal_factor(np.zeros(2)) == pytest.approx(2.0)
    g = model.metric(np.array([0.3, 0.4]))
    lam = 2.0 / (1.0 + 0.25)
    assert np.allclose(g, lam * lam * np.eye(2))


def test_hyperbolic_domain():
    model = hyperbolic(2)
    assert model.in_domain(np.array([0.9, 0.0]))
    assert not model.in_domain(np.array([0.8, 0.7]))
    assert model.conformal_factor(np.zeros(2)) == pytest.approx(2.0)


def test_polynomial_seed_reproducibility():
    a = polynomial_connection(3, 3, 0.5, 42)
    b = polynomial_connection(3, 3, 0.5, 42)
    c = polynomial_connection(3, 3, 0.5, 43)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert not np.array_equal(a.coefficients, c.coefficients)


def test_polynomial_scale_bounds_coefficients():
    model = polynomial_connection(3, 3, 0.5, 11)
    assert np.max(np.abs(model.coefficients)) <= 0.5


def test_polynomial_jet_is_exact_recentering():
    model = polynomial_connection(3, 3, 0.5, 42)
    rng = np.random.default_rng(4)
    p = rng.uniform(-0.3, 0.3, size=3)
    jet = model.christoffel_jet(p, model.max_poly_degree)
    for _ in range(4):
        xi = rng.uniform(-0.4, 0.4, size=3)
        assert np.allclose(poly_eval(jet, xi), model.christoffel(p + xi), atol=1e-12)


def test_polynomial_jet_truncation_padding():
    model = polynomial_connection(2, 2, 0.4, 5)
    p = np.array([0.1, -0.2])
    low = model.christoffel_jet(p, 1)
    high = model.christoffel_jet(p, 6)
    assert np.allclose(high.data[: low.data.shape[0]], low.data)
    # beyond the polynomial degree everything is zero
    from dexpseries.polyjet import monomial_count

    assert not np.any(high.data[monomial_count(2, 2):])


def test_from_config():
    m = from_config({"kind": "sphere", "dimension": 2, "radius": 2.0})
    assert isinstance(m, type(sphere(2))) and m.radius == 2.0
    m = from_config({"kind": "polynomial", "dimension": 3, "degree": 2, "scale": 0.1, "seed": 9})
    assert m.seed == 9 and m.max_poly_degree == 2
    assert isinstance(from_config({"kind": "flat", "dimension": 2}), FlatSpace)
    assert from_config({"kind": "sphere", "dimension": 2, "radius": 3}).radius == 3.0
    with pytest.raises(ValueError):
        from_config({"kind": "torus", "dimension": 2})
    with pytest.raises(ValueError):
        from_config({"dimension": 2})
    with pytest.raises(ValueError):
        from_config({"kind": "flat", "dimension": 2, "radius": 1.0})
    # integers only, up to the largest d whose (d, d, d, d) array fits 64 MiB
    assert from_config({"kind": "flat", "dimension": 53}).dimension == 53
    for bad in (54, 2.0, 2.5, True, "3", None):
        with pytest.raises(ValueError, match="dimension"):
            from_config({"kind": "flat", "dimension": bad})
    with pytest.raises(ValueError, match="dimension"):  # was a bare KeyError('dimension')
        from_config({"kind": "flat"})


@pytest.mark.parametrize("model", ZOO, ids=lambda m: f"{m.name}{m.dimension}")
def test_batched_christoffel_is_exact_stack_of_pointwise_calls(model):
    rng = np.random.default_rng(5)
    pts = np.array(seeded_points(model, 12, rng))
    gamma = model.christoffel(pts)
    assert gamma.shape == (len(pts),) + (model.dimension,) * 3
    assert np.array_equal(gamma, gamma.swapaxes(-1, -2))
    assert np.array_equal(gamma, np.stack([model.christoffel(p) for p in pts]))
    partials = model.christoffel_partials(pts)
    assert np.array_equal(partials, np.stack([model.christoffel_partials(p) for p in pts]))
    # a (2, N/2, d) batch keeps its leading axes
    assert np.array_equal(model.christoffel(pts.reshape(2, -1, model.dimension)),
                          gamma.reshape((2, -1) + gamma.shape[1:]))


@pytest.mark.parametrize("model", ZOO, ids=lambda m: f"{m.name}{m.dimension}")
def test_in_domain_is_vectorised(model):
    rng = np.random.default_rng(6)
    pts = rng.uniform(-0.9, 0.9, size=(20, model.dimension))
    inside = model.in_domain(pts)
    assert inside.shape == (20,)
    assert list(inside) == [bool(model.in_domain(p)) for p in pts]


PARTIALS_MODELS = [
    flat(3),
    sphere(2, 1.0),
    sphere(3, 2.0),
    hyperbolic(3),
    polynomial_connection(3, 3, 0.5, 42),
    polynomial_connection(4, 3, 0.5, 7),
]


@pytest.mark.parametrize("model", PARTIALS_MODELS, ids=lambda m: f"{m.name}{m.dimension}")
def test_christoffel_partials_match_jet_and_central_difference(model):
    rng = np.random.default_rng(7)
    d, h = model.dimension, 1e-5
    for p in seeded_points(model, 4, rng):
        partials = model.christoffel_partials(p)
        assert partials.shape == (d,) * 4
        jet = model.christoffel_jet(p, 1)
        for a, e in enumerate(np.eye(d)):
            assert np.max(np.abs(partials[a] - jet.diff(a).value)) <= 1e-13
            central = (model.christoffel(p + h * e) - model.christoffel(p - h * e)) / (2 * h)
            assert np.max(np.abs(partials[a] - central)) <= 1e-7


def _reference_monomials(x, exps):
    # the elementwise x ** e power of every (monomial, variable) pair
    return np.prod(x[..., None, :] ** exps, axis=-1)


def _reference_christoffel(model, x):
    weights = _reference_monomials(x, model._exps)
    return np.einsum("...s,skij->...kij", weights, model.coefficients)


def _reference_partials(model, x):
    # (d, M, d) lowered exponents e - 1_a floored at 0; the floored rows get weight e_a = 0
    exps = model._exps
    lowered = np.clip(exps[None, :, :] - np.eye(model.dimension, dtype=exps.dtype)[:, None, :],
                      0, None)
    weights = exps.T * np.prod(x[..., None, None, :] ** lowered, axis=-1)
    return np.einsum("...as,skij->...akij", weights, model.coefficients)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("poly_degree", [0, 1, 3, 5])
def test_polynomial_power_table_is_bit_identical_to_elementwise_powers(d, poly_degree):
    model = polynomial_connection(d, poly_degree, 0.5, 3)
    rng = np.random.default_rng(10 * d + poly_degree)
    for shape in [(d,), (12, d), (2, 6, d)]:
        x = rng.uniform(-0.6, 0.6, size=shape)
        assert np.array_equal(model.christoffel(x), _reference_christoffel(model, x))
        assert np.array_equal(model.christoffel_partials(x), _reference_partials(model, x))


def _exact_recentering(model, x):
    """Gamma(x + xi) in xi by the binomial expansion of every (x + xi)^e, in exact
    rational arithmetic, rounded once to doubles."""
    d = model.dimension
    exps = [tuple(e) for e in model._exps.tolist()]
    row = {e: s for s, e in enumerate(exps)}
    coefficients = np.vectorize(Fraction, otypes=[object])(model.coefficients)
    x = [Fraction(float(c)) for c in x]
    out = np.zeros(model.coefficients.shape, dtype=object)
    for e, c in zip(exps, coefficients):
        for t in itertools.product(*(range(k + 1) for k in e)):
            weight = Fraction(1)
            for a in range(d):
                weight *= math.comb(e[a], t[a]) * x[a] ** (e[a] - t[a])
            out[row[t]] += weight * c
    return out.astype(float)


@pytest.mark.parametrize("d, poly_degree", [(2, 0), (2, 1), (2, 5), (3, 3), (3, 5), (4, 3),
                                            (5, 2)])
def test_polynomial_jet_matches_exact_rational_recentering(d, poly_degree):
    model = polynomial_connection(d, poly_degree, 0.5, 3)
    p = np.random.default_rng(10 * d + poly_degree).uniform(-0.5, 0.5, size=d)
    exact = _exact_recentering(model, p)
    for order in sorted({max(poly_degree - 1, 0), poly_degree, poly_degree + 2}):
        data = model.christoffel_jet(p, order).data
        rows = min(len(data), len(exact))  # truncated below D, zero-padded above
        assert np.max(np.abs(data[:rows] - exact[:rows])) <= 1e-15 * np.max(np.abs(exact))
        assert not np.any(data[rows:])


def test_polynomial_models_share_read_only_exponent_tables():
    a = polynomial_connection(3, 3, 0.5, 1)
    b = polynomial_connection(3, 3, 0.5, 2)
    for name in ("_exps", "_lowered", "_raised"):
        assert getattr(a, name) is getattr(b, name)
        with pytest.raises(ValueError):
            getattr(a, name)[(0,) * getattr(a, name).ndim] = 7
    assert not np.array_equal(a.coefficients, b.coefficients)


@pytest.mark.parametrize("d, accepted", [(3, 19), (14, 3)])
def test_polynomial_degree_bound_boundary(d, accepted):
    # the largest degree from_config accepts and the smallest it refuses
    cfg = {"kind": "polynomial", "dimension": d}
    assert from_config(dict(cfg, degree=accepted)).max_poly_degree == accepted
    with pytest.raises(ValueError, match=f"degree {accepted + 1} is too high"):
        from_config(dict(cfg, degree=accepted + 1))


def _reference_pattern(x: np.ndarray) -> np.ndarray:
    """A[..., k, i, j] = x_i d_jk + x_j d_ik - x_k d_ij, by three einsums."""
    eye = np.eye(x.shape[-1])
    return (np.einsum("...i,jk->...kij", x, eye)
            + np.einsum("...j,ik->...kij", x, eye)
            - np.einsum("...k,ij->...kij", x, eye))


def _lowered(e, a, by):
    """The exponent tuple e - by 1_a."""
    return e[:a] + (e[a] - by,) + e[a + 1:]


def _reference_conformal_jet(model, x, order):
    """The scalar division recurrence with w looked up by exponent tuple, each row
    assembled as A(V[e]) with V[e] = w[e] x + (w[e - 1_a])_a."""
    d, sigma, u0 = model.dimension, model._sigma, model._u(x)
    exps = [tuple(e) for e in monomial_exponents(d, order).tolist()]
    w = {exps[0]: -2.0 * sigma / u0}
    for e in exps[1:]:
        s1 = s2 = 0.0
        for a in range(d):
            if e[a] >= 1:
                s1 += x[a] * w[_lowered(e, a, 1)]
            if e[a] >= 2:
                s2 += w[_lowered(e, a, 2)]
        w[e] = -(2.0 * sigma * s1 + sigma * s2) / u0
    v = [[w[e] * x[a] + (w[_lowered(e, a, 1)] if e[a] else 0.0) for a in range(d)] for e in exps]
    return _reference_pattern(np.array(v))


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("make", [sphere, hyperbolic], ids=["sphere", "hyperbolic"])
def test_conformal_jet_is_bit_identical_to_tuple_lookup_recurrence(make, d):
    model = make(d)
    x = np.random.default_rng(d).uniform(-0.4, 0.4, size=d)
    for order in range(9):
        assert np.array_equal(model.christoffel_jet(x, order).data,
                              _reference_conformal_jet(model, x, order))


CONFORMAL = [sphere(2, 1.0), sphere(3, 1.3), sphere(6, 0.5), hyperbolic(2), hyperbolic(5)]


@pytest.mark.parametrize("model", CONFORMAL, ids=lambda m: f"{m.name}{m.dimension}")
def test_conformal_christoffel_is_bit_identical_to_scalar_times_pattern(model):
    # Gamma = w A(x) and d_a Gamma = d_a w A(x) + w A(e_a), w = -2 sigma / u
    d, sigma = model.dimension, model._sigma
    rng = np.random.default_rng(d)
    for shape in [(d,), (7, d), (3, 4, d)]:
        x = rng.uniform(-0.9, 0.9, size=shape) / np.sqrt(d)
        w = (-2.0 * sigma / model._u(x))[..., None, None, None]
        assert np.array_equal(model.christoffel(x), w * _reference_pattern(x))
        u = model._u(x)[..., None, None, None, None]
        dw = 4.0 * sigma**2 * x[..., :, None, None, None] / (u * u)
        want = (dw * _reference_pattern(x)[..., None, :, :, :]
                + (-2.0 * sigma / u) * _reference_pattern(np.eye(d)))
        assert np.array_equal(model.christoffel_partials(x), want)


def _exact_conformal_field(model, x, order):
    """V[e] in exact rational arithmetic from the same recurrence, rounded once to doubles."""
    d, sigma = model.dimension, Fraction(model._sigma)
    x = [Fraction(float(c)) for c in x]
    u0 = Fraction(model._c0) + sigma * sum(c * c for c in x)
    exps = [tuple(e) for e in monomial_exponents(d, order).tolist()]
    w = {exps[0]: -2 * sigma / u0}

    def below(e, a, by):  # w[e - by 1_a], zero where e_a < by
        return w[_lowered(e, a, by)] if e[a] >= by else 0

    for e in exps[1:]:
        w[e] = -(2 * sigma * sum(x[a] * below(e, a, 1) for a in range(d))
                 + sigma * sum(below(e, a, 2) for a in range(d))) / u0
    return np.array([[float(w[e] * x[a] + below(e, a, 1)) for a in range(d)] for e in exps])


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("make", [sphere, hyperbolic], ids=["sphere", "hyperbolic"])
def test_conformal_jet_rows_match_exact_rational_jet(make, d):
    # each entry of A(V) is one signed V_c, so A of the rounded exact field is
    # the exact jet rounded entrywise
    model, order = make(d), 9
    rng = np.random.default_rng(20 + d)
    for x in rng.uniform(-0.45, 0.45, size=(3, d)):
        exact = _reference_pattern(_exact_conformal_field(model, x, order)).reshape(-1, d**3)
        data = model.christoffel_jet(x, order).data.reshape(-1, d**3)
        error = np.max(np.abs(data - exact), axis=1)
        assert np.all(error <= 2e-15 * np.max(np.abs(exact), axis=1))


@pytest.mark.parametrize("model", [flat(3)] + CONFORMAL, ids=lambda m: f"{m.name}{m.dimension}")
def test_jet_row_zero_is_christoffel_exactly(model):
    rng = np.random.default_rng(9)
    for p in seeded_points(model, 250, rng, radius=0.9 / np.sqrt(model.dimension)):
        assert np.array_equal(model.christoffel_jet(p, 2).data[0], model.christoffel(p))
