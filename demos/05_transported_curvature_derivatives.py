"""Derivatives of the transported curvature operator along the geodesic ray.

Transport the curvature tensor at the geodesic point back to the base and
sandwich it with the (transported) velocity: the result, as a function of the
ray parameter t, has n-th derivative n(n-1) times the order-(n-2)
curvature-derivative operator at the base point.  The left side is measured
with one exact weight vector per order over 13 integrated transports (the
Richardson combination of two 9-point central stencils); the right side comes
from the exact polynomial jets.  Orders 0 and 1 vanish identically.
"""

import numpy as np

from dexpseries import (
    curvature_derivative_table,
    flat,
    hyperbolic,
    polynomial_connection,
    sphere,
    transported_curvature,
)

models = [
    (flat(3), np.zeros(3), np.array([0.2, -0.15, 0.1])),
    (sphere(2, 1.0), np.array([0.1, -0.05]), np.array([0.2, 0.12])),
    (hyperbolic(2), np.array([0.05, 0.1]), np.array([0.18, -0.14])),
    (polynomial_connection(3, 3, 0.5, 42), np.zeros(3), np.array([0.15, -0.12, 0.1])),
]

for model, p, v in models:
    print(f"--- {model.name} ---")
    table = curvature_derivative_table(model, p, v, range(5), steps=200)
    for n, check in table.items():
        rhs_norm = np.linalg.norm(check.rhs.matrix)
        print(f"  order {n}: |rhs| = {rhs_norm:9.3e}   distance = {check.distance:.3e}")
    print()

# the raw operator itself: on the sphere (locally symmetric) transporting
# curvature changes nothing, so the operator is exactly quadratic in t
model = sphere(2, 1.0)
p = np.array([0.1, -0.05])
v = np.array([0.2, 0.12])
base = transported_curvature(model, p, v, 400).matrix
for t in (0.5, 1.0):
    scaled = transported_curvature(model, p, t * v, 400).matrix
    print(f"sphere: |R(t v) - t^2 R(v)| at t={t}: {np.linalg.norm(scaled - t*t*base):.2e}")
