"""Independent ODE ground truth for the transported differential.

Everything here is built from fixed-step classical RK4 integration of chart
ODEs, using only the models' closed-form Christoffel symbols, their closed-form
first partials, and the curvature formed from the two (geometry.riemann).
Neither christoffel_jet, the Taylor route nor the dense tower enters; the
tower supplies only the prediction that the derivative check compares against.
The three pillars:

* geodesics:           x'' = -Gamma(x)(x', x')
* parallel transport:  u'  = -Gamma(x)(x', u)
* Jacobi fields:       covariant second derivative of J equals R(x', J) x',
                       integrated as the first-order system in (J, DJ/dt)

The transported differential of the exponential map is read off from Jacobi
fields with J(0) = 0, (DJ/dt)(0) = w: its value on w is the frame-inverse of
J(1).  This Jacobi route (dexp_oracle) is the one independent check of the
two series routes in evaluate.  The transported curvature operator and its
t-derivatives at 0 (high-order central stencils plus Richardson extrapolation)
check the curvature operators themselves against the dense tower (Lemma 2).

The geodesic, transport and Jacobi entry points take one velocity (d,) or a
batch (B, d); a batch gives a list of LinearOperators.  RK4 advances all B
geodesics in lock step with one batched christoffel call per stage and checks
the chart domain after every step, so the earliest exit time is reported.
Trajectories are stored on a half-step grid (2*steps + 1 nodes) so that the
linear ODEs along the curve take full RK4 steps with exact node data; they
reuse Gamma kept from the first RK4 stage at each node, and curvature at all
nodes takes one christoffel_partials call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .geometry import ManifoldModel, curvature_jet, jacobi_operator, riemann
from .tensors import LinearOperator


@dataclass
class GeodesicTrajectory:
    """Chart positions, velocities and Christoffel symbols on the grid
    t_0 = 0 < ... < t_M = 1; node axis first, then any batch axis."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    christoffels: np.ndarray

    @property
    def endpoint(self) -> np.ndarray:
        return self.positions[-1]


@dataclass
class TransportFrame:
    """Parallel-transported basis along a geodesic; frames[k] maps the initial
    tangent space to the tangent space at times[k] in chart coordinates."""

    times: np.ndarray
    frames: np.ndarray

    @property
    def end(self) -> np.ndarray:
        return self.frames[-1]


def _as_operators(matrices: np.ndarray, v: np.ndarray):
    """One LinearOperator for a single velocity, a list of them for a batch."""
    if v.ndim == 1:
        return LinearOperator(matrices)
    return [LinearOperator(m) for m in matrices]


def integrate_geodesic(model: ManifoldModel, p, v, steps: int) -> GeodesicTrajectory:
    """RK4 integration of the geodesics with gamma(0) = p, gamma'(0) = v on [0, 1].

    v is one velocity (d,) or a batch (B, d), all integrated in lock step.  The
    trajectory is stored at 2*steps + 1 nodes (every half step).  Leaving the
    chart domain raises ChartDomainError carrying the earliest exit time.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    model.require_in_domain(p, time=0.0)

    n_fine = 2 * steps
    h = 1.0 / n_fine
    d = model.dimension
    times = np.linspace(0.0, 1.0, n_fine + 1)
    positions = np.empty((n_fine + 1,) + v.shape)
    velocities = np.empty_like(positions)
    gammas = np.empty(positions.shape + (d, d))

    def acc(gamma, u):
        return -np.einsum("...kij,...i,...j->...k", gamma, u, u)

    x, u = np.broadcast_to(p, v.shape), v
    positions[0], velocities[0] = x, u
    for k in range(n_fine):
        gammas[k] = model.christoffel(x)
        k1x, k1u = u, acc(gammas[k], u)
        k2x, k2u = u + 0.5 * h * k1u, acc(model.christoffel(x + 0.5 * h * k1x), u + 0.5 * h * k1u)
        k3x, k3u = u + 0.5 * h * k2u, acc(model.christoffel(x + 0.5 * h * k2x), u + 0.5 * h * k2u)
        k4x, k4u = u + h * k3u, acc(model.christoffel(x + h * k3x), u + h * k3u)
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        model.require_in_domain(x, time=times[k + 1])
        positions[k + 1], velocities[k + 1] = x, u
    gammas[-1] = model.christoffel(x)
    return GeodesicTrajectory(times, positions, velocities, gammas)


def _transport_generators(traj: GeodesicTrajectory) -> np.ndarray:
    """A(t_k) with u' = A u for parallel transport: A = -Gamma(x)(x', .) at each node."""
    return -np.einsum("n...kij,n...i->n...kj", traj.christoffels, traj.velocities)


def _integrate_linear(a_nodes: np.ndarray, times: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """RK4 for Y' = A(t) Y, A given on a half-step grid with any batch axes after
    the node axis; returns Y at the even nodes."""
    n_steps = (len(times) - 1) // 2
    out = np.empty((n_steps + 1,) + y0.shape)
    out[0] = y0
    y = y0
    for s in range(n_steps):
        n0 = 2 * s
        h = times[n0 + 2] - times[n0]
        k1 = a_nodes[n0] @ y
        k2 = a_nodes[n0 + 1] @ (y + 0.5 * h * k1)
        k3 = a_nodes[n0 + 1] @ (y + 0.5 * h * k2)
        k4 = a_nodes[n0 + 2] @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[s + 1] = y
    return out


def transport_frame(model: ManifoldModel, traj: GeodesicTrajectory) -> TransportFrame:
    """Parallel transport of the full coordinate basis along the trajectory
    (each trajectory of a batch); Gamma comes from the stored nodes."""
    identity = np.broadcast_to(np.eye(model.dimension), traj.christoffels.shape[1:-1])
    frames = _integrate_linear(_transport_generators(traj), traj.times, identity)
    return TransportFrame(traj.times[::2], frames)


def dexp_oracle(model: ManifoldModel, p, v, steps: int):
    """Transported differential of the exponential map via Jacobi fields.

    For each basis vector w, the Jacobi field with J(0) = 0, (DJ/dt)(0) = w is
    integrated along the geodesic; the operator's column is the end frame's
    inverse applied to J(1).  All columns, and the transport frame itself,
    integrate jointly as one matrix ODE (per batch member).
    """
    v = np.asarray(v, dtype=float)
    traj = integrate_geodesic(model, p, v, steps)
    d = model.dimension
    a_nodes = _transport_generators(traj)
    r_nodes = riemann(traj.christoffels, model.christoffel_partials(traj.positions))
    rj_nodes = np.einsum("n...lijk,n...i,n...k->n...lj", r_nodes, traj.velocities,
                         traj.velocities)

    # state Y = [J; K; F] with J' = K + A J, K' = RJ J + A K and F' = A F
    a_big = np.zeros(a_nodes.shape[:-2] + (3 * d, 3 * d))
    for b in range(3):
        a_big[..., b * d:(b + 1) * d, b * d:(b + 1) * d] = a_nodes
    a_big[..., :d, d:2 * d] = np.eye(d)
    a_big[..., d:2 * d, :d] = rj_nodes

    y0 = np.zeros(v.shape[:-1] + (3 * d, d))
    y0[..., d:2 * d, :] = y0[..., 2 * d:, :] = np.eye(d)
    end = _integrate_linear(a_big, traj.times, y0)[-1]
    return _as_operators(np.linalg.solve(end[..., 2 * d:, :], end[..., :d, :]), v)


def transported_curvature(model: ManifoldModel, p, v, steps: int):
    """The operator w -> F^-1 R_end(F v, F w) F v with F the end transport frame.

    Curvature is evaluated at the geodesic endpoint and conjugated back; both
    outer slots carry the transported v.  v may be a batch, as everywhere here.
    """
    v = np.asarray(v, dtype=float)
    traj = integrate_geodesic(model, p, v, steps)
    f = transport_frame(model, traj).end
    r_end = riemann(traj.christoffels[-1], model.christoffel_partials(traj.endpoint))
    fv = np.einsum("...ij,...j->...i", f, v)
    mid = np.einsum("...lijk,...i,...k->...lj", r_end, fv, fv)
    return _as_operators(np.linalg.solve(f, mid @ f), v)


# ----------------------------------------------------------------------------
# t-derivatives of the transported curvature (finite differences + Richardson)
# ----------------------------------------------------------------------------

@lru_cache(maxsize=None)
def fd_weights(offsets: tuple[int, ...], order: int) -> tuple[Fraction, ...]:
    """Exact stencil weights for the order-th derivative on integer offsets.

    sum_s w_s f(s h) = h^order f^(order)(0) + higher-order terms.  The weight of
    s is order! times the x^order coefficient of the Lagrange basis polynomial
    prod_{r != s} (x - r) / (s - r).
    """
    if order >= len(offsets):
        raise ValueError("stencil too short for requested derivative order")
    weights = []
    for s in offsets:
        basis = [Fraction(1)]  # coefficients, constant term first
        for r in offsets:
            if r != s:  # basis *= (x - r) / (s - r)
                basis = [(lower - r * same) / (s - r)
                         for lower, same in zip([0] + basis, basis + [0])]
        weights.append(math.factorial(order) * basis[order])
    return tuple(weights)


STENCIL_OFFSETS = (-4, -3, -2, -1, 0, 1, 2, 3, 4)
# t = k h/2 at every k of the coarse (spacing h) and fine (spacing h/2) stencils
STENCIL_SAMPLE_KEYS = tuple(sorted({2 * s for s in STENCIL_OFFSETS} | set(STENCIL_OFFSETS)))


@dataclass
class DerivativeCheck:
    """FD derivative of the transported curvature against the jet prediction."""

    order: int
    lhs: LinearOperator
    rhs: LinearOperator
    distance: float

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
            "distance": self.distance,
        }


def _transported_curvature_samples(model, p, v, h: float, steps: int) -> dict[int, np.ndarray]:
    """Samples of t -> transported_curvature(t v) at t = k h/2 for the stencils."""
    ts = 0.5 * h * np.array(STENCIL_SAMPLE_KEYS, dtype=float)
    ops = transported_curvature(model, p, ts[:, None] * np.asarray(v, dtype=float), steps)
    return {k: op.matrix for k, op in zip(STENCIL_SAMPLE_KEYS, ops)}


def _fd_derivative(samples, h: float, order: int, d: int) -> np.ndarray:
    """Richardson-extrapolated stencil derivative at t = 0 from the sample table."""
    if order == 0:
        return samples[0]
    weights = fd_weights(STENCIL_OFFSETS, order)
    # the weights match Taylor moments 0..8 and are even or odd with the order, so
    # the first unmatched moment is 9 for odd and 10 for even orders: error O(h^q)
    q = len(STENCIL_OFFSETS) + (order % 2 == 0) - order

    def stencil(spacing_key, spacing):
        acc = np.zeros((d, d))
        for w, s in zip(weights, STENCIL_OFFSETS):
            acc += float(w) * samples[s * spacing_key]
        return acc / spacing**order

    coarse = stencil(2, h)
    fine = stencil(1, 0.5 * h)
    return (2.0**q * fine - coarse) / (2.0**q - 1.0)


def curvature_derivative_table(model: ManifoldModel, p, v, orders, steps: int = 600,
                               fd_step: float = 1e-2) -> dict[int, DerivativeCheck]:
    """DerivativeCheck for several derivative orders, sharing one sample sweep.

    The step is fd_step / |v| so the stencil reach in the tangent space is
    independent of the vector's length.  Orders 0 and 1 have an exactly zero
    prediction; order n >= 2 is checked against n(n-1) * jacobi_operator(n-2).
    """
    orders = sorted(set(int(n) for n in orders))
    if orders and not 0 <= orders[0] <= orders[-1] <= 4:
        raise ValueError("derivative orders must lie in 0..4 (stencil noise grows fast)")
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    d = model.dimension
    h = fd_step / max(float(np.linalg.norm(v)), 1e-12)
    samples = _transported_curvature_samples(model, p, v, h, steps)
    max_rhs = max((n - 2 for n in orders if n >= 2), default=-1)
    jet = curvature_jet(model, p, max_rhs) if max_rhs >= 0 else None

    out = {}
    for n in orders:
        lhs = LinearOperator(_fd_derivative(samples, h, n, d))
        if n >= 2:
            rhs = n * (n - 1) * jacobi_operator(jet, v, n - 2)
        else:
            rhs = LinearOperator.zero(d)
        out[n] = DerivativeCheck(n, lhs, rhs, float(np.linalg.norm(lhs.matrix - rhs.matrix)))
    return out
