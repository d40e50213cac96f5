import numpy as np
import pytest

from dexpseries.geometry import (
    ChartDomainError,
    _digits,
    curvature,
    curvature_jet,
    jacobi_operator,
    word_operator,
)
from dexpseries.manifolds import flat, hyperbolic, polynomial_connection, sphere
from dexpseries.tensors import contract_leading, operator_distance


# ----------------------------------------------------------------------------
# independent oracles
# ----------------------------------------------------------------------------

def transport_along_segment(model, x0, delta, steps):
    """Parallel transport matrix along the straight chart segment x0 -> x0+delta."""
    d = model.dimension
    U = np.eye(d)
    h = 1.0 / steps

    def A(t):
        gamma = model.christoffel(x0 + t * delta)
        return -np.einsum("kij,i->kj", gamma, delta)

    for s in range(steps):
        t = s * h
        k1 = A(t) @ U
        k2 = A(t + h / 2) @ (U + h / 2 * k1)
        k3 = A(t + h / 2) @ (U + h / 2 * k2)
        k4 = A(t + h) @ (U + h * k3)
        U = U + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return U


def square_holonomy(model, p, ei, ej, steps):
    """Transport around p -> p+ei -> p+ei+ej -> p+ej -> p."""
    H = np.eye(model.dimension)
    for x0, delta in [
        (p, ei),
        (p + ei, ej),
        (p + ei + ej, -ei),
        (p + ej, -ej),
    ]:
        H = transport_along_segment(model, x0, delta, steps) @ H
    return H


def neville(xs, ys):
    """Polynomial extrapolation of samples ys(xs) to x=0."""
    tableau = list(ys)
    n = len(xs)
    for level in range(1, n):
        for k in range(n - level):
            x0, x1 = xs[k], xs[k + level]
            tableau[k] = (x0 * tableau[k + 1] - x1 * tableau[k]) / (x0 - x1)
    return tableau[0]


def holonomy_curvature(model, p, i, j, epsilons=(0.12, 0.09, 0.065, 0.045, 0.03), steps=48):
    """Curvature matrix R(e_i, e_j) acting on the Z slot, from square holonomies.

    The holonomy expands as H = I - eps^2 R(e_i,e_j) + O(eps^3); averaging the
    square with its point reflection kills all odd orders, so extrapolation
    runs in eps^2.
    """
    d = model.dimension
    samples = []
    for eps in epsilons:
        ei = np.zeros(d)
        ej = np.zeros(d)
        ei[i] = eps
        ej[j] = eps
        Hp = square_holonomy(model, p, ei, ej, steps)
        Hm = square_holonomy(model, p, -ei, -ej, steps)
        samples.append((2 * np.eye(d) - Hp - Hm) / (2 * eps * eps))
    return neville([e * e for e in epsilons], samples)


def fd_covariant_derivative(model, p, field, h=1e-2):
    """Covariant derivative of a pointwise (1, s)-tensor field, with the
    partial-derivative term taken by Richardson-extrapolated central
    differences.  Output layout [l, a, slots] matches the jet convention."""
    base = field(p)
    d = model.dimension
    gamma = model.christoffel(p)
    s = base.ndim - 1
    letters = "bcdefghij"[:s]

    stacked = np.empty((d,) + base.shape)
    for a in range(d):
        e = np.zeros(d)
        e[a] = 1.0

        def stencil(step):
            return (-field(p + 2 * step * e) + 8 * field(p + step * e)
                    - 8 * field(p - step * e) + field(p - 2 * step * e)) / (12 * step)

        term = (16.0 * stencil(h / 2) - stencil(h)) / 15.0
        term = term + np.einsum(f"lm,m{letters}->l{letters}", gamma[:, a, :], base)
        for i in range(s):
            sub_in = "l" + letters[:i] + "m" + letters[i + 1:]
            term = term - np.einsum(f"m{letters[i]},{sub_in}->l{letters}",
                                    gamma[:, a, :], base)
        stacked[a] = term
    return np.moveaxis(stacked, 0, 1)


# ----------------------------------------------------------------------------
# curvature tests
# ----------------------------------------------------------------------------

def test_flat_curvature_zero():
    model = flat(3)
    R = curvature(model, np.array([0.3, -0.2, 1.0]))
    assert not np.any(R.components)
    jet = curvature_jet(model, np.zeros(3), 4)
    for t in jet.tensors:
        assert not np.any(t.components)


@pytest.mark.parametrize("model,K", [
    (sphere(2, 1.0), 1.0),
    (sphere(3, 2.0), 0.25),
    (hyperbolic(2), -1.0),
    (hyperbolic(3), -1.0),
], ids=["sphere2", "sphere3r2", "hyp2", "hyp3"])
def test_constant_curvature_closed_form(model, K):
    rng = np.random.default_rng(0)
    for _ in range(3):
        p = rng.uniform(-0.3, 0.3, size=model.dimension)
        g = model.metric(p)
        R = curvature(model, p).components
        eye = np.eye(model.dimension)
        expected = K * (np.einsum("jk,li->lijk", g, eye) - np.einsum("ik,lj->lijk", g, eye))
        assert np.allclose(R, expected, atol=1e-11)


def test_sphere_sectional_curvature_inner_product_identity():
    model = sphere(2, 1.0)
    rng = np.random.default_rng(5)
    p = np.array([0.1, 0.2])
    g = model.metric(p)
    R = curvature(model, p).components
    v, w = rng.normal(size=2), rng.normal(size=2)
    Rvwv = np.einsum("lijk,i,j,k->l", R, v, w, v)
    lhs = Rvwv @ g @ w
    vv, ww, vw = v @ g @ v, w @ g @ w, v @ g @ w
    assert lhs == pytest.approx(-(vv * ww - vw * vw), rel=1e-10)


def test_curvature_antisymmetry_and_bianchi():
    rng = np.random.default_rng(1)
    for model in [sphere(2, 1.0), hyperbolic(3), polynomial_connection(3, 3, 0.5, 42)]:
        for _ in range(10):
            p = rng.uniform(-0.3, 0.3, size=model.dimension)
            R = curvature(model, p).components
            assert np.allclose(R, -R.swapaxes(1, 2), atol=1e-13)
            cyclic = R + np.einsum("ljki->lijk", R) + np.einsum("lkij->lijk", R)
            assert np.max(np.abs(cyclic)) <= 1e-12


@pytest.mark.parametrize("model,point", [
    (polynomial_connection(3, 3, 0.5, 42), np.zeros(3)),
    (polynomial_connection(2, 2, 0.4, 3), np.array([0.1, -0.05])),
    (sphere(2, 1.0), np.array([0.15, 0.1])),
], ids=["poly3", "poly2", "sphere2"])
def test_curvature_against_holonomy_oracle(model, point):
    d = model.dimension
    R = curvature(model, point).components
    for i in range(d):
        for j in range(i + 1, d):
            oracle = holonomy_curvature(model, point, i, j)
            assert np.allclose(R[:, i, j, :], oracle, atol=1e-8)


def test_curvature_outside_domain_rejected():
    model = hyperbolic(2)
    with pytest.raises(ChartDomainError):
        curvature(model, np.array([1.2, 0.0]))


# ----------------------------------------------------------------------------
# covariant derivative jets
# ----------------------------------------------------------------------------

def test_sphere_and_hyperbolic_are_locally_symmetric():
    for model in [sphere(2, 1.0), sphere(3, 2.0), sphere(4, 1.5), hyperbolic(2)]:
        p = np.full(model.dimension, 0.12)
        jet = curvature_jet(model, p, 5)
        scale = np.max(np.abs(jet.tensors[0].components))
        for n in range(1, 6):
            assert np.max(np.abs(jet.tensors[n].components)) <= 1e-10 * max(1.0, scale)


def test_first_covariant_derivative_against_fd_oracle():
    model = polynomial_connection(3, 3, 0.5, 42)
    p = np.array([0.05, -0.1, 0.08])
    jet = curvature_jet(model, p, 1)
    want = fd_covariant_derivative(model, p, lambda x: curvature(model, x).components)
    assert np.allclose(jet.tensors[1].components, want, atol=2e-8)


def test_third_covariant_derivative_against_fd_recursion():
    # the stencil route through transported curvature stops at the second
    # derivative tensor; entry 3 is pinned by finite-differencing entry 2
    model = polynomial_connection(2, 3, 0.5, 42)
    p = np.array([0.05, -0.1])
    jet = curvature_jet(model, p, 3)
    want = fd_covariant_derivative(
        model, p, lambda x: curvature_jet(model, x, 2).tensors[2].components
    )
    scale = np.max(np.abs(want))
    assert np.max(np.abs(jet.tensors[3].components - want)) <= 1e-6 * max(1.0, scale)


def test_polynomial_connection_has_nonzero_first_derivative():
    model = polynomial_connection(3, 3, 0.5, 42)
    jet = curvature_jet(model, np.zeros(3), 1)
    norm = np.linalg.norm(jet.tensors[1].components)
    assert norm > 1e-3
    # golden value, pinned once
    assert norm == pytest.approx(8.37105966227786, rel=1e-12)


def test_jet_storage_shapes():
    model = polynomial_connection(2, 2, 0.4, 5)
    jet = curvature_jet(model, np.zeros(2), 3)
    for n, t in enumerate(jet.tensors):
        assert t.components.shape == (2,) * (4 + n)


def test_jet_order_errors():
    model = flat(2)
    jet = curvature_jet(model, np.zeros(2), 2)
    with pytest.raises(ValueError):
        jacobi_operator(jet, np.ones(2), 3)
    with pytest.raises(ValueError):
        jacobi_operator(jet, np.ones(2), -1)
    with pytest.raises(ValueError):
        word_operator(jet, np.ones(2), (5,))


# ----------------------------------------------------------------------------
# curvature operators
# ----------------------------------------------------------------------------

def test_jacobi_operator_basics():
    model = polynomial_connection(3, 3, 0.5, 42)
    jet = curvature_jet(model, np.zeros(3), 2)
    v = np.array([0.2, -0.1, 0.05])
    r0 = jacobi_operator(jet, v, 0).matrix
    assert np.array_equal(r0, np.einsum("lijk,i,k->lj", jet.tensors[0].components, v, v))
    assert not np.any(jacobi_operator(jet, np.zeros(3), 2).matrix)
    # exact scaling in powers of two: degree n + 2 in v
    for n in range(3):
        doubled = jacobi_operator(jet, 2.0 * v, n).matrix
        assert np.array_equal(doubled, 2.0 ** (n + 2) * jacobi_operator(jet, v, n).matrix)


def _jacobi_operator_chain(jet, v, n):
    """The per-order chain jacobi_operator ran before it read nabla^n R in one
    product: contract_leading n times, then R(v, ., v)."""
    g = contract_leading(jet.tensors[n], v, n).components
    return np.einsum("lijk,i,k->lj", g, v, v)


@pytest.mark.parametrize("model", [polynomial_connection(3, 3, 0.5, 42),
                                   polynomial_connection(2, 3, 0.5, 7)], ids=["poly3", "poly2"])
def test_jacobi_operator_matches_the_contraction_chain(model):
    rng = np.random.default_rng(12)
    jet = curvature_jet(model, rng.uniform(-0.1, 0.1, model.dimension), 6)
    for _ in range(3):
        v = rng.uniform(-0.3, 0.3, model.dimension)
        for n in range(7):
            ref = _jacobi_operator_chain(jet, v, n)
            err = np.linalg.norm(jacobi_operator(jet, v, n).matrix - ref)
            assert err <= 1e-14 * np.linalg.norm(ref), (n, err)


@pytest.mark.parametrize("d, n", [(1, 3), (2, 0), (3, 1), (3, 4), (5, 2)])
def test_digit_table_spells_each_index_and_is_read_only(d, n):
    table = _digits(d, n)
    assert table.shape == (n, d**n)
    assert np.array_equal(d ** np.arange(n - 1, -1, -1) @ table, np.arange(d**n))
    with pytest.raises(ValueError):
        table[..., 0] = 1


def test_jacobi_operator_flat_zero():
    jet = curvature_jet(flat(3), np.zeros(3), 2)
    for n in range(3):
        assert not np.any(jacobi_operator(jet, np.array([0.3, 0.1, -0.2]), n).matrix)


def test_jacobi_operator_homogeneity():
    model = polynomial_connection(3, 3, 0.5, 42)
    jet = curvature_jet(model, np.zeros(3), 3)
    rng = np.random.default_rng(8)
    v = rng.normal(size=3) * 0.3
    for n in range(4):
        a = jacobi_operator(jet, 2.0 * v, n)
        b = jacobi_operator(jet, v, n)
        assert np.allclose(a.matrix, 2.0 ** (n + 2) * b.matrix, rtol=1e-13, atol=1e-16)


def test_jacobi_operator_annihilates_velocity_at_order_zero():
    rng = np.random.default_rng(9)
    for model in [sphere(2, 1.0), hyperbolic(3), polynomial_connection(3, 3, 0.5, 42)]:
        jet = curvature_jet(model, rng.uniform(-0.2, 0.2, model.dimension), 0)
        v = rng.normal(size=model.dimension) * 0.4
        assert np.linalg.norm(jacobi_operator(jet, v, 0).apply(v)) <= 1e-12


def test_sphere_jacobi_operator_eigenstructure():
    model = sphere(2, 1.0)
    p = np.array([0.1, -0.2])
    jet = curvature_jet(model, p, 0)
    g = model.metric(p)
    rng = np.random.default_rng(10)
    v = rng.normal(size=2)
    v = v / np.sqrt(v @ g @ v)  # unit metric norm
    op = jacobi_operator(jet, v, 0)
    # eigenvalue 0 along v, -|v|_g^2 = -1 on the g-orthogonal complement
    assert np.linalg.norm(op.apply(v)) <= 1e-12
    w = np.array([-(g @ v)[1], (g @ v)[0]])  # g-orthogonal to v
    assert np.allclose(op.apply(w), -w, atol=1e-11)


def test_word_operator():
    model = polynomial_connection(3, 3, 0.5, 42)
    jet = curvature_jet(model, np.zeros(3), 3)
    v = np.array([0.25, -0.15, 0.1])
    ident = word_operator(jet, v, ())
    assert np.array_equal(ident.matrix, np.eye(3))
    single = word_operator(jet, v, (2,))
    assert operator_distance(single, jacobi_operator(jet, v, 2)) == 0.0
    pair = word_operator(jet, v, (1, 0))
    expected = jacobi_operator(jet, v, 1).matrix @ jacobi_operator(jet, v, 0).matrix
    assert np.array_equal(pair.matrix, expected)


def test_word_operator_homogeneity():
    model = polynomial_connection(3, 3, 0.5, 42)
    jet = curvature_jet(model, np.zeros(3), 2)
    rng = np.random.default_rng(11)
    from dexpseries.series import degree as word_degree

    for _ in range(20):
        v = rng.normal(size=3) * 0.3
        length = rng.integers(1, 4)
        word = tuple(int(n) for n in rng.integers(0, 3, size=length))
        t = 1.5
        a = word_operator(jet, t * v, word)
        b = word_operator(jet, v, word)
        scale = t ** word_degree(word)
        denom = max(np.max(np.abs(b.matrix)) * scale, 1e-300)
        assert np.max(np.abs(a.matrix - scale * b.matrix)) / denom <= 1e-12
