"""Independent ODE ground truth for the transported differential.

Everything here is built from fixed-step classical RK4 integration of chart
ODEs, using only pointwise Christoffel symbols and the pointwise curvature
formed from Gamma and its first partials (geometry.curvature).  The Taylor
route never enters; the dense covariant-derivative tower supplies only the
prediction that the derivative check compares against.  The three pillars:

* geodesics:           x'' = -Gamma(x)(x', x')
* parallel transport:  u'  = -Gamma(x)(x', u)
* Jacobi fields:       covariant second derivative of J equals R(x', J) x',
                       integrated as the first-order system in (J, DJ/dt)

The transported differential of the exponential map is read off from Jacobi
fields with J(0) = 0, (DJ/dt)(0) = w: its value on w is the frame-inverse of
J(1).  The transported curvature operator and its t-derivatives at 0 (computed
with high-order central stencils plus Richardson extrapolation) provide the
remaining cross-checks against the jet machinery.

Trajectories are stored on a half-step grid (2*steps + 1 nodes) so that the
linear ODEs along the curve can take full RK4 steps with exact node data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import ManifoldModel, curvature, curvature_jet, jacobi_operator
from .tensors import LinearOperator


@dataclass
class GeodesicTrajectory:
    """Chart positions and velocities on the grid t_0 = 0 < ... < t_M = 1."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray

    @property
    def endpoint(self) -> np.ndarray:
        return self.positions[-1]

    @property
    def end_velocity(self) -> np.ndarray:
        return self.velocities[-1]


@dataclass
class TransportFrame:
    """Parallel-transported basis along a geodesic; frames[k] maps the initial
    tangent space to the tangent space at times[k] in chart coordinates."""

    times: np.ndarray
    frames: np.ndarray

    @property
    def end(self) -> np.ndarray:
        return self.frames[-1]


def integrate_geodesic(model: ManifoldModel, p, v, steps: int) -> GeodesicTrajectory:
    """RK4 integration of the geodesic with gamma(0) = p, gamma'(0) = v on [0, 1].

    The trajectory is stored at 2*steps + 1 nodes (every half step).  Leaving
    the chart domain raises ChartDomainError carrying the exit time.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    model.require_in_domain(p, time=0.0)

    n_fine = 2 * steps
    h = 1.0 / n_fine
    times = np.linspace(0.0, 1.0, n_fine + 1)
    positions = np.empty((n_fine + 1, model.dimension))
    velocities = np.empty_like(positions)
    positions[0], velocities[0] = p, v

    def acc(x, u):
        gamma = model.christoffel(x)
        return -np.einsum("kij,i,j->k", gamma, u, u)

    x, u = p, v
    for k in range(n_fine):
        k1x, k1u = u, acc(x, u)
        k2x, k2u = u + 0.5 * h * k1u, acc(x + 0.5 * h * k1x, u + 0.5 * h * k1u)
        k3x, k3u = u + 0.5 * h * k2u, acc(x + 0.5 * h * k2x, u + 0.5 * h * k2u)
        k4x, k4u = u + h * k3u, acc(x + h * k3x, u + h * k3u)
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        model.require_in_domain(x, time=times[k + 1])
        positions[k + 1], velocities[k + 1] = x, u
    return GeodesicTrajectory(times, positions, velocities)


def _transport_generators(model: ManifoldModel, traj: GeodesicTrajectory) -> np.ndarray:
    """A(t_k) with u' = A u for parallel transport: A = -Gamma(x)(x', .) at each node."""
    gammas = np.stack([model.christoffel(x) for x in traj.positions])
    return -np.einsum("nkij,ni->nkj", gammas, traj.velocities)


def _integrate_linear(a_nodes: np.ndarray, times: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """RK4 for Y' = A(t) Y, A given on a half-step grid; returns Y at the even nodes."""
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
    """Parallel transport of the full coordinate basis along the trajectory."""
    d = model.dimension
    a_nodes = _transport_generators(model, traj)
    frames = _integrate_linear(a_nodes, traj.times, np.eye(d))
    return TransportFrame(traj.times[::2], frames)


def dexp_oracle(model: ManifoldModel, p, v, steps: int) -> LinearOperator:
    """Transported differential of the exponential map via Jacobi fields.

    For each basis vector w, the Jacobi field with J(0) = 0, (DJ/dt)(0) = w is
    integrated along the geodesic; the operator's column is the end frame's
    inverse applied to J(1).  All columns integrate jointly as one matrix ODE.
    """
    traj = integrate_geodesic(model, p, v, steps)
    d = model.dimension
    a_nodes = _transport_generators(model, traj)
    r_nodes = np.stack([curvature(model, x).components for x in traj.positions])
    rj_nodes = np.einsum("nlijk,ni,nk->nlj", r_nodes, traj.velocities, traj.velocities)

    # state Y = [J; K] with J' = K + A J and K' = RJ J + A K
    a_big = np.zeros((len(traj.times), 2 * d, 2 * d))
    a_big[:, :d, :d] = a_nodes
    a_big[:, d:, d:] = a_nodes
    a_big[:, :d, d:] = np.eye(d)
    a_big[:, d:, :d] = rj_nodes

    y0 = np.vstack([np.zeros((d, d)), np.eye(d)])
    states = _integrate_linear(a_big, traj.times, y0)
    j_end = states[-1][:d]

    frames = _integrate_linear(a_nodes, traj.times, np.eye(d))
    return LinearOperator(np.linalg.solve(frames[-1], j_end))


def dexp_oracle_fd(model: ManifoldModel, p, v, steps: int, fd_step: float = 1e-3) -> LinearOperator:
    """Second, cruder oracle: central differences of chart exponential endpoints.

    Perturbs the initial velocity along each basis direction and transports the
    endpoint differences back; one Richardson level on the step.  Catches
    errors shared along the Jacobi route; noisier, not used for acceptance.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    d = model.dimension
    frame_end = transport_frame(model, integrate_geodesic(model, p, v, steps)).end

    def column(b, h):
        e = np.zeros(d)
        e[b] = h
        plus = integrate_geodesic(model, p, v + e, steps).endpoint
        minus = integrate_geodesic(model, p, v - e, steps).endpoint
        return (plus - minus) / (2.0 * h)

    cols = []
    for b in range(d):
        c = (4.0 * column(b, fd_step / 2) - column(b, fd_step)) / 3.0
        cols.append(c)
    return LinearOperator(np.linalg.solve(frame_end, np.stack(cols, axis=1)))


def transported_curvature(model: ManifoldModel, p, v, steps: int) -> LinearOperator:
    """The operator w -> F^-1 R_end(F v, F w) F v with F the end transport frame.

    Curvature is evaluated at the geodesic endpoint and conjugated back; both
    outer slots carry the transported v.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    traj = integrate_geodesic(model, p, v, steps)
    frame = transport_frame(model, traj)
    f = frame.end
    r_end = curvature(model, traj.endpoint).components
    fv = f @ v
    mid = np.einsum("lijk,i,k->lj", r_end, fv, fv)
    return LinearOperator(np.linalg.solve(f, mid @ f))


# ----------------------------------------------------------------------------
# t-derivatives of the transported curvature (finite differences + Richardson)
# ----------------------------------------------------------------------------

def _solve_fraction_system(matrix, rhs):
    """Gaussian elimination over exact Fractions."""
    n = len(rhs)
    a = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def fd_weights(offsets: tuple[int, ...], order: int) -> list[Fraction]:
    """Exact stencil weights for the order-th derivative on integer offsets.

    sum_s w_s f(s h) = h^order f^(order)(0) + higher-order terms.
    """
    n = len(offsets)
    if order >= n:
        raise ValueError("stencil too short for requested derivative order")
    matrix = [[Fraction(s) ** m for s in offsets] for m in range(n)]
    rhs = [Fraction(math.factorial(order)) if m == order else Fraction(0) for m in range(n)]
    return _solve_fraction_system(matrix, rhs)


def _stencil_error_order(offsets, weights, order, max_probe=20) -> int:
    """Exponent q with stencil error O(h^q): first unmatched Taylor moment."""
    for m in range(len(offsets), max_probe):
        moment = sum(w * Fraction(s) ** m for w, s in zip(weights, offsets))
        moment -= Fraction(math.factorial(order)) if m == order else 0
        if moment != 0:
            return m - order
    raise RuntimeError("could not locate leading stencil error term")


STENCIL_OFFSETS = (-4, -3, -2, -1, 0, 1, 2, 3, 4)


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
    ks = sorted({2 * s for s in STENCIL_OFFSETS} | set(STENCIL_OFFSETS))
    samples = {}
    for k in ks:
        t = 0.5 * h * k
        samples[k] = transported_curvature(model, p, t * np.asarray(v, dtype=float), steps).matrix
    return samples


def _fd_derivative(samples, h: float, order: int, d: int) -> np.ndarray:
    """Richardson-extrapolated stencil derivative at t = 0 from the sample table."""
    if order == 0:
        return samples[0]
    weights = fd_weights(STENCIL_OFFSETS, order)
    q = _stencil_error_order(STENCIL_OFFSETS, weights, order)

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
