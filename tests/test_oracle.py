import math
from fractions import Fraction

import numpy as np
import pytest

import dexpseries
from dexpseries.evaluate import evaluate_closed_form
from dexpseries.geometry import ChartDomainError, curvature_jet, jacobi_operator, riemann
from dexpseries.manifolds import flat, hyperbolic, polynomial_connection, sphere
from dexpseries.oracle import (
    BLOCK_STEPS,
    STENCIL_OFFSETS,
    STENCIL_SAMPLE_KEYS,
    curvature_derivative_table,
    dexp_oracle,
    fd_weights,
    integrate_geodesic,
    jacobi_matrix,
    stencil_weights,
    transport_frame,
    transported_curvature,
)
from dexpseries.tensors import operator_distance


def sphere_embed(x, radius=1.0):
    """Inverse stereographic embedding into the ambient sphere of the given radius."""
    r2 = float(np.dot(x, x))
    return radius * np.concatenate([2.0 * radius * x, [r2 - radius**2]]) / (r2 + radius**2)


def test_sphere_embedding_pullback_matches_model_metric():
    model = sphere(2, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(3):
        p = rng.uniform(-0.5, 0.5, 2)
        h = 1e-6
        jac = np.stack(
            [(sphere_embed(p + h * e) - sphere_embed(p - h * e)) / (2 * h) for e in np.eye(2)],
            axis=1,
        )
        assert np.allclose(jac.T @ jac, model.metric(p), atol=1e-8)


def test_flat_geodesics_are_exact_lines():
    model = flat(3)
    p = np.array([0.5, -1.0, 2.0])
    v = np.array([0.1, 0.2, -0.3])
    traj = integrate_geodesic(model, p, v, 10)
    expected = p[None, :] + traj.times[:, None] * v[None, :]
    assert np.allclose(traj.positions, expected, atol=1e-15)
    assert np.allclose(traj.velocities, np.broadcast_to(v, traj.velocities.shape), atol=1e-15)


def test_sphere_geodesic_endpoint_distance():
    model = sphere(2, 1.0)
    p = np.array([0.2, -0.1])
    rng = np.random.default_rng(1)
    w = rng.normal(size=2)
    g = model.metric(p)
    v = 0.5 * w / np.sqrt(w @ g @ w)  # metric norm 0.5
    traj = integrate_geodesic(model, p, v, 400)
    a, b = sphere_embed(p), sphere_embed(traj.endpoint)
    dist = np.arccos(np.clip(a @ b, -1.0, 1.0))
    assert dist == pytest.approx(0.5, abs=1e-8)


def test_geodesic_speed_constancy():
    for model in [sphere(2, 1.0), hyperbolic(2)]:
        p = np.array([0.1, 0.15])
        v = np.array([0.3, -0.2])
        traj = integrate_geodesic(model, p, v, 300)
        speeds = [
            np.sqrt(u @ model.metric(x) @ u)
            for x, u in zip(traj.positions[::60], traj.velocities[::60])
        ]
        assert np.max(np.abs(np.diff(speeds))) <= 1e-9


def test_geodesic_step_halving_order_four():
    model = polynomial_connection(3, 3, 0.5, 42)
    p = np.zeros(3)
    v = np.array([0.35, -0.2, 0.25])
    ref = integrate_geodesic(model, p, v, 1600).endpoint
    steps = np.array([25, 50, 100, 200])
    errs = np.array([np.linalg.norm(integrate_geodesic(model, p, v, s).endpoint - ref) for s in steps])
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert abs(slope + 4.0) <= 0.3


def test_chart_exit_reports_time():
    # hyperbolic space never exits its ball (the boundary is infinitely far);
    # a generic polynomial connection on |x| < 1 does
    model = polynomial_connection(2, 2, 0.2, 5)
    with pytest.raises(ChartDomainError) as info:
        integrate_geodesic(model, np.array([0.9, 0.0]), np.array([5.0, 0.0]), 100)
    assert info.value.exit_time is not None
    assert 0.0 < info.value.exit_time <= 1.0


def test_transport_frame_flat_identity():
    model = flat(2)
    traj = integrate_geodesic(model, np.zeros(2), np.array([0.4, 0.1]), 50)
    frames = transport_frame(model, traj)
    assert np.allclose(frames, np.eye(2)[None], atol=1e-15)
    assert np.array_equal(frames[0], np.eye(2))


@pytest.mark.parametrize("model", [sphere(2, 1.0), hyperbolic(2)], ids=["sphere", "hyperbolic"])
def test_transport_preserves_metric(model):
    p = np.array([0.1, 0.2])
    v = np.array([0.3, -0.25])
    traj = integrate_geodesic(model, p, v, 400)
    frames = transport_frame(model, traj)
    g0 = model.metric(p)
    rng = np.random.default_rng(3)
    u1, u2 = rng.normal(size=2), rng.normal(size=2)
    for k in (100, 200, 400):
        gt = model.metric(traj.positions[2 * k])
        f = frames[k]
        assert (f @ u1) @ gt @ (f @ u2) == pytest.approx(u1 @ g0 @ u2, abs=1e-8)


def test_transport_roundtrip_identity():
    model = polynomial_connection(3, 3, 0.5, 42)
    p = np.zeros(3)
    v = np.array([0.25, -0.2, 0.15])
    traj = integrate_geodesic(model, p, v, 800)
    fwd = transport_frame(model, traj)[-1]
    back_traj = integrate_geodesic(model, traj.endpoint, -traj.velocities[-1], 800)
    back = transport_frame(model, back_traj)[-1]
    assert np.allclose(back @ fwd, np.eye(3), atol=1e-10)


def test_transport_ode_residual_on_grid():
    # central difference of the frame columns satisfies the transport equation
    model = sphere(2, 1.0)
    traj = integrate_geodesic(model, np.array([0.05, 0.1]), np.array([0.3, 0.2]), 400)
    frames = transport_frame(model, traj)
    k = 150
    h = traj.times[2] - traj.times[0]  # frames sit at every other trajectory node
    dF = (frames[k + 1] - frames[k - 1]) / (2 * h)
    x, u = traj.positions[2 * k], traj.velocities[2 * k]
    gamma = model.christoffel(x)
    residual = dF + np.einsum("kij,i,jc->kc", gamma, u, frames[k])
    assert np.max(np.abs(residual)) <= 1e-4  # FD truncation dominates


def test_dexp_oracle_flat_identity():
    op = dexp_oracle(flat(3), np.zeros(3), np.array([0.4, -0.3, 0.2]), 50)
    assert np.allclose(op.matrix, np.eye(3), atol=1e-14)


def test_dexp_oracle_sphere_eigenstructure():
    model = sphere(2, 1.0)
    p = np.array([0.15, -0.05])
    g = model.metric(p)
    rng = np.random.default_rng(4)
    w = rng.normal(size=2)
    v = 0.5 * w / np.sqrt(w @ g @ w)
    op = dexp_oracle(model, p, v, 800)
    # eigenvalue 1 along v
    assert np.allclose(op.apply(v), v, atol=1e-9)
    # eigenvalue sin(s)/s on the g-orthogonal complement, s = metric norm
    u = np.linalg.solve(g, np.array([-(g @ v)[1], (g @ v)[0]]))
    u_perp = u - (u @ g @ v) / (v @ g @ v) * v
    expected = math.sin(0.5) / 0.5
    assert np.allclose(op.apply(u_perp), expected * u_perp, atol=1e-9)


def test_dexp_oracle_small_velocity_near_identity():
    model = polynomial_connection(3, 3, 0.5, 42)
    v = 1e-4 * np.array([1.0, -0.5, 0.25])
    op = dexp_oracle(model, np.zeros(3), v, 200)
    assert np.max(np.abs(op.matrix - np.eye(3))) <= 1e-7


def test_dexp_oracle_step_halving_order_four():
    model = polynomial_connection(3, 3, 0.5, 42)
    p = np.zeros(3)
    v = np.array([0.3, -0.25, 0.2])
    ref = dexp_oracle(model, p, v, 1200).matrix
    steps = np.array([25, 50, 100])
    errs = np.array([np.linalg.norm(dexp_oracle(model, p, v, int(s)).matrix - ref) for s in steps])
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert abs(slope + 4.0) <= 0.3


def test_dexp_oracle_matches_series_in_dimension_four():
    model = polynomial_connection(4, 2, 0.4, 3)
    p = np.zeros(4)
    v = np.array([0.15, -0.1, 0.08, 0.05])
    jet = curvature_jet(model, p, 4)
    series_op = evaluate_closed_form(jet, v, 6).operator
    oracle_op = dexp_oracle(model, p, v, 600)
    assert operator_distance(series_op, oracle_op) <= 1e-6


def test_dexp_oracle_matches_series_on_generic_connection():
    model = polynomial_connection(3, 3, 0.5, 42)
    p = np.zeros(3)
    rng = np.random.default_rng(6)
    v = rng.normal(size=3)
    v = 0.2 * v / np.linalg.norm(v)
    jet = curvature_jet(model, p, 8)
    series_op = evaluate_closed_form(jet, v, 10).operator
    oracle_op = dexp_oracle(model, p, v, 1000)
    assert operator_distance(series_op, oracle_op) <= 1e-7


def test_transported_curvature_trivial_cases():
    model = polynomial_connection(3, 3, 0.5, 42)
    z = transported_curvature(model, np.zeros(3), np.zeros(3), 50)
    assert not np.any(z.matrix)
    f = transported_curvature(flat(3), np.zeros(3), np.array([0.3, 0.2, 0.1]), 50)
    assert not np.any(f.matrix)


def test_transported_curvature_on_sphere_matches_scaled_operator():
    # locally symmetric: transported curvature at t v equals t^2 * jacobi_operator(v, 0)
    model = sphere(2, 1.0)
    p = np.array([0.1, 0.05])
    v = np.array([0.3, -0.1])
    jet = curvature_jet(model, p, 0)
    base = jacobi_operator(jet, v, 0).matrix
    for t in (0.3, 1.0):
        got = transported_curvature(model, p, t * v, 600).matrix
        assert np.allclose(got, t * t * base, atol=1e-8)


def test_fd_weights_reproduce_derivatives_of_monomials():
    offsets = (-4, -3, -2, -1, 0, 1, 2, 3, 4)
    for order in (1, 2, 3, 4):
        w = fd_weights(offsets, order)
        for m in range(9):
            moment = sum(wi * s**m for wi, s in zip(w, offsets))
            expect = math.factorial(order) if m == order else 0
            assert moment == expect


@pytest.mark.parametrize("order", range(5))
def test_stencil_weights_match_taylor_moments_exactly(order):
    # sum_k W_k (k/2)^j = order! [j == order] for every j below the first unmatched
    # moment, 11 for odd and 12 for even orders; order 0 is exactly one-hot
    weights = stencil_weights(order)
    assert all(isinstance(w, Fraction) for w in weights)
    if order == 0:
        assert weights == tuple(Fraction(k == 0) for k in STENCIL_SAMPLE_KEYS)
        return
    first_unmatched = 11 if order % 2 else 12
    for j in range(first_unmatched + 1):
        moment = sum(w * Fraction(k, 2) ** j for w, k in zip(weights, STENCIL_SAMPLE_KEYS))
        if j < first_unmatched:
            assert moment == (math.factorial(order) if j == order else 0), j
        else:
            assert moment != 0


def _two_stencil_derivative(samples: dict, h: float, order: int) -> np.ndarray:
    """Reference: the nine-point stencils on spacing h and h/2, each summed in
    floating point, then their Richardson extrapolation with the error order q."""
    if order == 0:
        return samples[0]
    weights = fd_weights(STENCIL_OFFSETS, order)
    q = len(STENCIL_OFFSETS) + (order % 2 == 0) - order

    def stencil(spacing_key, spacing):
        acc = np.zeros_like(samples[0])
        for w, s in zip(weights, STENCIL_OFFSETS):
            acc += float(w) * samples[s * spacing_key]
        return acc / spacing**order

    return (2.0**q * stencil(1, 0.5 * h) - stencil(2, h)) / (2.0**q - 1.0)


@pytest.mark.parametrize("model, p, v", [
    (polynomial_connection(3, 3, 0.5, 42), np.zeros(3), np.array([0.15, -0.12, 0.1])),
    (sphere(2, 0.5), np.array([0.1, -0.05]), np.array([0.2, 0.5])),
], ids=["polynomial", "sphere"])
def test_one_weight_vector_matches_the_two_stencil_reference(model, p, v):
    steps, fd_step = 150, 1e-2
    table = curvature_derivative_table(model, p, v, range(5), steps=steps, fd_step=fd_step)
    h = fd_step / np.linalg.norm(v)
    ts = 0.5 * h * np.array(STENCIL_SAMPLE_KEYS, dtype=float)
    ops = transported_curvature(model, p, ts[:, None] * v, steps)
    samples = {k: op.matrix for k, op in zip(STENCIL_SAMPLE_KEYS, ops)}
    assert np.array_equal(table[0].lhs.matrix, _two_stencil_derivative(samples, h, 0))
    for n in range(1, 5):
        gap = np.linalg.norm(table[n].lhs.matrix - _two_stencil_derivative(samples, h, n))
        assert gap <= table[n].floor, (n, gap, table[n].floor)


def test_curvature_derivative_low_orders_zero():
    model = polynomial_connection(3, 3, 0.5, 42)
    v = np.array([0.2, 0.1, -0.1])
    table = curvature_derivative_table(model, np.zeros(3), v, [0, 1], steps=200)
    assert not np.any(table[0].rhs.matrix)
    assert not np.any(table[1].rhs.matrix)
    assert table[0].distance <= 1e-12
    assert table[1].distance <= 1e-6


def test_curvature_derivative_orders_two_to_four_match():
    # order n probes the (n-2)-th covariant derivative of curvature
    model = polynomial_connection(3, 3, 0.5, 42)
    v = np.array([0.2, 0.1, -0.1])
    table = curvature_derivative_table(model, np.zeros(3), v, [2, 3, 4], steps=400)
    for n in (2, 3, 4):
        assert np.linalg.norm(table[n].rhs.matrix) > 1e-3
        assert table[n].distance <= 1e-5


def test_curvature_derivative_single_matches_table():
    # one requested order (as lemma2 asks) gives the entry of a larger table
    model = polynomial_connection(3, 3, 0.5, 42)
    v = np.array([0.2, 0.1, -0.1])
    single = curvature_derivative_table(model, np.zeros(3), v, [2], steps=200)[2]
    table = curvature_derivative_table(model, np.zeros(3), v, [1, 2, 3], steps=200)
    assert np.array_equal(single.lhs.matrix, table[2].lhs.matrix)
    assert np.array_equal(single.rhs.matrix, table[2].rhs.matrix)


def test_curvature_derivative_rejects_high_order():
    model = flat(2)
    with pytest.raises(ValueError):
        curvature_derivative_table(model, np.zeros(2), np.array([0.1, 0.0]), [5], steps=100)


def _oracle_outputs(m, p, v):
    traj = integrate_geodesic(m, p, v, 100)
    return [traj.positions, traj.velocities, transport_frame(m, traj),
            dexp_oracle(m, p, v, 100).matrix, transported_curvature(m, p, v, 100).matrix]


def test_oracle_avoids_dense_machinery(monkeypatch):
    # the oracle runs on closed-form Gamma and d Gamma alone: it reaches
    # neither christoffel_jet, the Taylor route's series nor the dense tower it checks
    cases = [(flat(3), np.zeros(3), np.array([0.2, -0.1, 0.15])),
             (polynomial_connection(3, 3, 0.5, 42), np.array([0.05, 0.0, -0.1]),
              np.array([0.2, -0.1, 0.15])),
             (polynomial_connection(4, 3, 0.5, 7), np.zeros(4),
              np.array([0.1, 0.15, -0.05, 0.1]))]
    expected = [_oracle_outputs(*case) for case in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("jet or dense-tower code called by the oracle")

    for module in (dexpseries.polyjet, dexpseries.geometry, dexpseries.manifolds,
                   dexpseries.taylor):
        for name in ("contract", "quotient_table", "_diff_table", "_cauchy", "_divide"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(dexpseries.geometry, "covariant_derivative", forbidden)
    monkeypatch.setattr(dexpseries.geometry, "curvature_polynomial", forbidden)
    for m, _, _ in cases:
        for name in ("christoffel_jet", "christoffel_series", "christoffel_gradient_series"):
            monkeypatch.setattr(type(m), name, forbidden)
    for case, want in zip(cases, expected):
        for got, ref in zip(_oracle_outputs(*case), want):
            assert np.array_equal(got, ref)


def _rel(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


@pytest.mark.parametrize("model, p",
                         [(polynomial_connection(3, 3, 0.5, 42), np.array([0.05, 0.0, -0.1])),
                          (sphere(2, 1.0), np.array([0.1, 0.05]))],
                         ids=["polynomial3", "sphere2"])
def test_batch_rows_match_single_calls(model, p):
    rng = np.random.default_rng(8)
    vs = rng.uniform(-0.3, 0.3, size=(4, model.dimension))
    traj = integrate_geodesic(model, p, vs, 120)
    jacobi = dexp_oracle(model, p, vs, 120)
    transported = transported_curvature(model, p, vs, 120)
    assert len(jacobi) == len(transported) == len(vs)
    for b, v in enumerate(vs):
        single = integrate_geodesic(model, p, v, 120)
        assert _rel(traj.positions[:, b], single.positions) <= 1e-14
        assert _rel(traj.velocities[:, b], single.velocities) <= 1e-14
        assert _rel(jacobi[b].matrix, dexp_oracle(model, p, v, 120).matrix) <= 1e-14
        assert _rel(transported[b].matrix, transported_curvature(model, p, v, 120).matrix) <= 1e-14


def test_batch_chart_exit_reports_earliest_time():
    model = polynomial_connection(2, 2, 0.2, 5)
    p = np.array([0.9, 0.0])
    vs = np.array([[0.05, 0.0], [5.0, 0.0], [3.0, 0.0]])
    times = []
    for v in vs[1:]:
        with pytest.raises(ChartDomainError) as info:
            integrate_geodesic(model, p, v, 100)
        times.append(info.value.exit_time)
    assert times[0] < times[1]
    integrate_geodesic(model, p, vs[0], 100)  # stays inside
    for call in (integrate_geodesic, dexp_oracle, transported_curvature):
        with pytest.raises(ChartDomainError) as info:
            call(model, p, vs, 100)
        assert info.value.exit_time == times[0]


# -- the streamed oracle against one whole-curve integration ---------------------------

FIVE_MODELS = [(flat(3), np.array([0.5, -1.0, 0.2])),
               (sphere(3, 1.3), np.array([0.1, 0.05, -0.1])),
               (hyperbolic(2), np.array([0.1, 0.15])),
               (polynomial_connection(3, 3, 0.5, 42), np.array([0.05, 0.0, -0.1])),
               (polynomial_connection(4, 2, 0.4, 3), np.zeros(4))]
FIVE_IDS = ["flat3", "sphere3", "hyperbolic2", "polynomial3", "polynomial4"]


def _whole_curve_reference(model, p, v, steps):
    """dexp_oracle and transported_curvature from one trajectory of all 2*steps + 1
    nodes, with the Jacobi matrix contracted from the d^4 curvature (riemann)."""
    traj = integrate_geodesic(model, p, v, steps)
    d = model.dimension
    f = transport_frame(model, traj)[-1]
    fv = np.einsum("...ij,...j->...i", f, v)
    r_end = riemann(traj.christoffels[-1], model.christoffel_partials(traj.endpoint))
    transported = np.linalg.solve(f, np.einsum("...lijk,...i,...k->...lj", r_end, fv, fv) @ f)

    u = traj.velocities
    a = -np.einsum("n...kij,n...i->n...kj", traj.christoffels, u)
    r = riemann(traj.christoffels, model.christoffel_partials(traj.positions))
    big = np.zeros(a.shape[:-2] + (3 * d, 3 * d))
    for b in range(3):
        big[..., b * d:(b + 1) * d, b * d:(b + 1) * d] = a
    big[..., :d, d:2 * d] = np.eye(d)
    big[..., d:2 * d, :d] = np.einsum("n...lijk,n...i,n...k->n...lj", r, u, u)
    y = np.zeros(v.shape[:-1] + (3 * d, d))
    y[..., d:2 * d, :] = y[..., 2 * d:, :] = np.eye(d)
    for s in range(steps):  # RK4 on the half-step grid, as in transport_frame
        n0, h = 2 * s, traj.times[2 * s + 2] - traj.times[2 * s]
        k1 = big[n0] @ y
        k2 = big[n0 + 1] @ (y + 0.5 * h * k1)
        k3 = big[n0 + 1] @ (y + 0.5 * h * k2)
        k4 = big[n0 + 2] @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.linalg.solve(y[..., 2 * d:, :], y[..., :d, :]), transported


def _matrices(ops):
    return np.array([op.matrix for op in ops]) if isinstance(ops, list) else ops.matrix


@pytest.mark.parametrize("batch", [None, 3], ids=["single", "batch"])
@pytest.mark.parametrize("steps", [30, 100, 150, 200])
@pytest.mark.parametrize("model, p", FIVE_MODELS, ids=FIVE_IDS)
def test_streamed_oracle_matches_whole_curve_reference(model, p, steps, batch):
    # 30 steps are less than one block; 100, 150 and 200 end in a partial block
    assert steps < BLOCK_STEPS or steps % BLOCK_STEPS
    rng = np.random.default_rng(steps)
    d = model.dimension
    v = rng.uniform(-0.3, 0.3, size=(d,) if batch is None else (batch, d))
    jacobi_ref, transported_ref = _whole_curve_reference(model, p, v, steps)
    assert _rel(_matrices(dexp_oracle(model, p, v, steps)), jacobi_ref) <= 1e-13
    assert _rel(_matrices(transported_curvature(model, p, v, steps)), transported_ref) <= 1e-13


@pytest.mark.parametrize("steps", [30, 64, 150, 200])
def test_blocks_tile_the_whole_curve_grid(monkeypatch, steps):
    # the oracle takes the 2*steps half steps of one integration, on its exact time
    # grid, in blocks of BLOCK_STEPS coarse steps, each from the end of the last
    model, p = polynomial_connection(3, 3, 0.5, 42), np.array([0.05, 0.0, -0.1])
    v = np.array([[0.2, -0.1, 0.15], [0.1, 0.1, -0.2]])
    whole = integrate_geodesic(model, p, v, steps)
    blocks = []

    def recording(*args):
        traj = integrate_geodesic(*args)
        blocks.append(traj)
        return traj

    monkeypatch.setattr(dexpseries.oracle, "integrate_geodesic", recording)
    for call in (dexp_oracle, transported_curvature):
        blocks.clear()
        call(model, p, v, steps)
        assert len(blocks) == -(-steps // BLOCK_STEPS)
        assert sum(len(b.times) - 1 for b in blocks) == 2 * steps
        n0 = 0
        for b in blocks:
            n1 = n0 + len(b.times)
            assert np.array_equal(b.times, whole.times[n0:n1])
            assert np.array_equal(b.positions, whole.positions[n0:n1])
            assert np.array_equal(b.christoffels, whole.christoffels[n0:n1])
            n0 = n1 - 1


@pytest.mark.parametrize("call", [integrate_geodesic, dexp_oracle, transported_curvature])
def test_nonpositive_steps_are_refused(call):
    for steps in (0, -3):
        with pytest.raises(ValueError, match="steps must be positive"):
            call(flat(2), np.zeros(2), np.array([0.1, 0.2]), steps)


def test_chart_exit_in_a_later_block_reports_earliest_time():
    model = polynomial_connection(2, 2, 0.2, 5)
    p, steps = np.array([0.9, 0.0]), 200
    vs = np.array([[0.05, 0.0], [0.2, 0.0], [0.15, 0.0]])  # first inside, then exits
    with pytest.raises(ChartDomainError) as info:
        integrate_geodesic(model, p, vs, steps)
    earliest = info.value.exit_time
    assert BLOCK_STEPS / steps < earliest < 1.0  # past the first block
    for v, expected in ((vs, earliest), (vs[1], earliest)):
        for call in (dexp_oracle, transported_curvature):
            with pytest.raises(ChartDomainError) as info:
                call(model, p, v, steps)
            assert info.value.exit_time == expected


@pytest.mark.parametrize("model, p", FIVE_MODELS, ids=FIVE_IDS)
def test_jacobi_matrix_is_the_contracted_curvature(model, p):
    rng = np.random.default_rng(9)
    d = model.dimension
    for shape in ((), (7,), (3, 2)):
        x = p + rng.uniform(-0.2, 0.2, size=shape + (d,))
        u = rng.uniform(-1.0, 1.0, size=shape + (d,))
        gamma, dgamma = model.christoffel(x), model.christoffel_partials(x)
        want = np.einsum("...lijk,...i,...k->...lj", riemann(gamma, dgamma), u, u)
        got = jacobi_matrix(gamma, dgamma, u)
        assert got.shape == shape + (d, d)
        assert _rel(got, want) <= 1e-13
