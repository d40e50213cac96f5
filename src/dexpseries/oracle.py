"""Independent ODE ground truth for the transported differential.

Everything here is built from fixed-step classical RK4 integration of chart
ODEs, using only the models' closed-form Christoffel symbols and their
closed-form first partials; the Jacobi matrix R(u, .)u is contracted from the
two (jacobi_matrix), and the d^4 curvature is never formed.  Neither
christoffel_jet, the Taylor route nor the dense tower enters; the tower
supplies only the prediction that the derivative check compares against.
The three pillars:

* geodesics:           x'' = -Gamma(x)(x', x')
* parallel transport:  u'  = -Gamma(x)(x', u)
* Jacobi fields:       covariant second derivative of J equals R(x', J) x',
                       integrated as the first-order system in (J, DJ/dt)

The transported differential of the exponential map is read off from Jacobi
fields with J(0) = 0, (DJ/dt)(0) = w: its value on w is the frame-inverse of
J(1).  This Jacobi route (dexp_oracle) is the one independent check of the
two series routes in evaluate.  The transported curvature operator and its
t-derivatives at 0 (each order one exact weight vector over 13 samples, with the
rounding floor of the result) check the curvature operators themselves against
the dense tower (Lemma 2).

The geodesic, transport and Jacobi entry points take one velocity (d,) or a
batch (B, d); a batch gives a list of LinearOperators.  RK4 advances all B
geodesics in lock step with one batched christoffel call per stage and checks
the chart domain after every step, so the earliest exit time is reported.
Trajectories are stored on a half-step grid (2*steps + 1 nodes) so that the
linear ODEs along the curve take full RK4 steps with exact node data; they
reuse Gamma kept from the first RK4 stage at each node.

dexp_oracle and transported_curvature stream the curve in blocks of
BLOCK_STEPS coarse steps, so their memory does not grow with steps.  Per
block, integrate_geodesic advances the geodesics from the end of the block
before, one christoffel_partials call gives d Gamma at all of the block's
nodes (dexp_oracle), jacobi_matrix forms the Jacobi matrices in one batched
call, and the linear RK4 carries the state (J, DJ/dt and the frame, or the
frame alone) into the next block.  The steps and their values are those of one
whole-curve integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .geometry import ManifoldModel, curvature_jet, jacobi_operator
from .tensors import LinearOperator

BLOCK_STEPS = 64  # coarse RK4 steps per streamed block of the trajectory
EPS = float(np.finfo(float).eps)


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


def _as_operators(matrices: np.ndarray, v: np.ndarray):
    """One LinearOperator for a single velocity, a list of them for a batch."""
    if v.ndim == 1:
        return LinearOperator(matrices)
    return [LinearOperator(m) for m in matrices]


def integrate_geodesic(model: ManifoldModel, p, v, steps: int, start: int = 0,
                       stop: int | None = None) -> GeodesicTrajectory:
    """RK4 integration of the geodesics with gamma(0) = p, gamma'(0) = v on [0, 1].

    v is one velocity (d,) or a batch (B, d), all integrated in lock step.  The
    trajectory is stored at 2*steps + 1 nodes (every half step).  Given start
    and stop, only the coarse steps start..stop of that grid are taken, from
    position p and velocity v at t = start / steps.  Leaving the chart domain
    raises ChartDomainError carrying the earliest exit time.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    stop = steps if stop is None else stop
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    times = np.linspace(0.0, 1.0, 2 * steps + 1)[2 * start:2 * stop + 1]
    model.require_in_domain(p, time=times[0])

    n_fine = len(times) - 1
    h = 1.0 / (2 * steps)
    d = model.dimension
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


def block_steps(steps: int) -> int:
    """Coarse RK4 steps in one streamed block of a curve of `steps` steps."""
    return min(steps, BLOCK_STEPS)


def _geodesic_blocks(model: ManifoldModel, p, v, steps: int):
    """The trajectory of integrate_geodesic in consecutive blocks of BLOCK_STEPS
    coarse steps, each starting at the last node of the one before.  A block is
    released before the next one is integrated if the caller drops it too."""
    if steps < 1:
        raise ValueError("steps must be positive")
    for start in range(0, steps, BLOCK_STEPS):
        traj = integrate_geodesic(model, p, v, steps, start, min(start + BLOCK_STEPS, steps))
        p, v = traj.endpoint, traj.velocities[-1]
        yield traj
        del traj


def _transport_generators(traj: GeodesicTrajectory) -> np.ndarray:
    """A(t_k) with u' = A u for parallel transport: A = -Gamma(x)(x', .) at each node."""
    return -np.einsum("n...kij,n...i->n...kj", traj.christoffels, traj.velocities)


def jacobi_matrix(gamma: np.ndarray, dgamma: np.ndarray, u: np.ndarray) -> np.ndarray:
    """M = R(u, .)u, M[..., l, j] = R[l, i, j, k] u^i u^k, from Gamma, d Gamma[..., a]
    and u at any batch of points, without forming the d^4 curvature:
    M = d_u Gamma(., u) - d_(.) Gamma(u, u) + G G - Gamma(., Gamma(u, u)), G = Gamma(u, .)."""
    dgu = np.einsum("...aljk,...k->...alj", dgamma, u)
    g = np.einsum("...lim,...i->...lm", gamma, u)
    return (np.einsum("...alj,...a->...lj", dgu, u) - np.einsum("...jli,...i->...lj", dgu, u)
            + g @ g - np.einsum("...ljm,...mk,...k->...lj", gamma, g, u))


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


def transport_frame(model: ManifoldModel, traj: GeodesicTrajectory, initial=None) -> np.ndarray:
    """Parallel transport of a frame along the trajectory (each trajectory of a
    batch): initial at traj.times[0], the coordinate basis by default; Gamma
    comes from the stored nodes.  Frame k maps the initial tangent space to the
    tangent space at the k-th coarse node, the trajectory's times[2 k]."""
    if initial is None:
        initial = np.broadcast_to(np.eye(model.dimension), traj.christoffels.shape[1:-1])
    return _integrate_linear(_transport_generators(traj), traj.times, initial)


def dexp_oracle(model: ManifoldModel, p, v, steps: int):
    """Transported differential of the exponential map via Jacobi fields.

    For each basis vector w, the Jacobi field with J(0) = 0, (DJ/dt)(0) = w is
    integrated along the geodesic; the operator's column is the end frame's
    inverse applied to J(1).  All columns, and the transport frame itself,
    integrate jointly as one matrix ODE (per batch member).
    """
    v = np.asarray(v, dtype=float)
    d = model.dimension
    # state Y = [J; K; F] with J' = K + A J, K' = M J + A K and F' = A F
    y = np.zeros(v.shape[:-1] + (3 * d, d))
    y[..., d:2 * d, :] = y[..., 2 * d:, :] = np.eye(d)
    for traj in _geodesic_blocks(model, p, v, steps):
        a_nodes = _transport_generators(traj)
        m_nodes = jacobi_matrix(traj.christoffels, model.christoffel_partials(traj.positions),
                                traj.velocities)
        a_big = np.zeros(a_nodes.shape[:-2] + (3 * d, 3 * d))
        for b in range(3):
            a_big[..., b * d:(b + 1) * d, b * d:(b + 1) * d] = a_nodes
        a_big[..., :d, d:2 * d] = np.eye(d)
        a_big[..., d:2 * d, :d] = m_nodes
        y = _integrate_linear(a_big, traj.times, y)[-1]
    return _as_operators(np.linalg.solve(y[..., 2 * d:, :], y[..., :d, :]), v)


def dexp_oracle_bytes(d: int, steps: int, batch: int) -> int:
    """Bytes dexp_oracle holds at peak: d Gamma, Gamma with its contraction by x' and
    the Jacobi system, d^4 + 2 d^3 + 12 d^2 doubles, at each of the 2 b + 1 nodes of
    one block of b = block_steps(steps) coarse steps of each of the batch geodesics."""
    return (2 * block_steps(steps) + 1) * batch * (d**4 + 2 * d**3 + 12 * d**2) * 8


def transported_curvature(model: ManifoldModel, p, v, steps: int):
    """The operator w -> F^-1 R_end(F v, F w) F v with F the end transport frame.

    Curvature is evaluated at the geodesic endpoint and conjugated back; both
    outer slots carry the transported v.  v may be a batch, as everywhere here.
    """
    v = np.asarray(v, dtype=float)
    f = None
    for traj in _geodesic_blocks(model, p, v, steps):
        f = transport_frame(model, traj, f)[-1]
        x_end = traj.endpoint
        del traj  # so that one block is held at a time
    fv = np.einsum("...ij,...j->...i", f, v)
    mid = jacobi_matrix(model.christoffel(x_end), model.christoffel_partials(x_end), fv)
    return _as_operators(np.linalg.solve(f, mid @ f), v)


# ----------------------------------------------------------------------------
# t-derivatives of the transported curvature (one weight vector per order)
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


def stencil_bytes(d: int, steps: int) -> int:
    """Bytes the sample sweep of curvature_derivative_table holds at peak: for each of its
    geodesics, one per sample key, Gamma, the transport generator and the frame at the 2 b + 1
    nodes of one block (b = block_steps(steps)), or d Gamma at its end if larger (never both)."""
    return len(STENCIL_SAMPLE_KEYS) * max((2 * block_steps(steps) + 1) * (d**3 + 2 * d**2),
                                          d**4) * 8


@dataclass
class DerivativeCheck:
    """FD derivative of the transported curvature against the jet prediction."""

    order: int
    lhs: LinearOperator
    rhs: LinearOperator
    distance: float
    floor: float  # rounding floor of the distance

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
            "distance": self.distance,
            "floor": self.floor,
        }


@lru_cache(maxsize=None)
def stencil_weights(order: int) -> tuple[Fraction, ...]:
    """Exact weights W over STENCIL_SAMPLE_KEYS with sum_k W_k f(k h/2) = h^order f^(order)(0)
    + O(h^(m+2-order)): the Richardson combination (2^q fine - coarse) / (2^q - 1), q = m - order,
    of the nine-point stencils on spacing h (keys 2s) and h/2 (keys s).  Each matches the Taylor
    moments 0..8 and is even or odd with the order, so its first unmatched moment m is 9 (odd)
    or 10 (even orders), which W cancels.  Order 0 is one-hot at key 0."""
    stencil = dict(zip(STENCIL_OFFSETS, fd_weights(STENCIL_OFFSETS, order)))
    m = len(STENCIL_OFFSETS) + (order % 2 == 0)
    return tuple((2**m * stencil.get(k, 0) - stencil.get(k / 2, 0)) / (2 ** (m - order) - 1)
                 for k in STENCIL_SAMPLE_KEYS)


def curvature_derivative_table(model: ManifoldModel, p, v, orders, steps: int = 600,
                               fd_step: float = 1e-2) -> dict[int, DerivativeCheck]:
    """DerivativeCheck for several derivative orders, sharing one sample sweep.

    The step is fd_step / |v| so the stencil reach in the tangent space is
    independent of the vector's length.  Orders 0 and 1 have an exactly zero
    prediction; order n >= 2 is checked against n(n-1) * jacobi_operator(n-2).
    The floor eps (sqrt(steps) sum_k |W_k| |sample_k| / h^n + |rhs|) bounds the
    distance that rounding alone leaves: each RK4 sample carries about
    eps sqrt(steps) relative rounding.
    """
    orders = sorted(set(int(n) for n in orders))
    if orders and not 0 <= orders[0] <= orders[-1] <= 4:
        raise ValueError("derivative orders must lie in 0..4 (stencil noise grows fast)")
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    d = model.dimension
    h = fd_step / max(float(np.linalg.norm(v)), 1e-12)
    ts = 0.5 * h * np.array(STENCIL_SAMPLE_KEYS, dtype=float)
    samples = np.array([r.matrix for r in transported_curvature(model, p, np.outer(ts, v), steps)])
    sample_norms = np.linalg.norm(samples, axis=(1, 2))
    max_rhs = max((n - 2 for n in orders if n >= 2), default=-1)
    jet = curvature_jet(model, p, max_rhs) if max_rhs >= 0 else None

    out = {}
    for n in orders:
        weights = np.array(stencil_weights(n), dtype=float)
        lhs = LinearOperator(np.tensordot(weights, samples, 1) / h**n)
        rhs = n * (n - 1) * jacobi_operator(jet, v, n - 2) if n >= 2 else LinearOperator.zero(d)
        floor = EPS * (math.sqrt(steps) * (np.abs(weights) @ sample_norms) / h**n
                       + np.linalg.norm(rhs.matrix))
        out[n] = DerivativeCheck(n, lhs, rhs, float(np.linalg.norm(lhs.matrix - rhs.matrix)),
                                 float(floor))
    return out
