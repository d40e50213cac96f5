"""Remainder order of the truncated series.

Truncating the series at degree N leaves a remainder of order N+1 in the
velocity.  Scaling the velocity by t and measuring the distance to the ODE
oracle, the log-log slope of distance against t should be at least N+1
(here it comes out ~7 for the generic connection at N = 6, ~8 on the sphere,
where odd-degree components vanish).
"""

import numpy as np

from dexpseries import (
    closed_form_components,
    curvature_jet,
    dexp_oracle,
    polynomial_connection,
    sphere,
)

N = 6
ts = np.array([0.05, 0.1, 0.2, 0.3, 0.4])

for model, p, v in [
    (sphere(2, 1.0), np.array([0.1, -0.05]), np.array([0.8, 0.6])),
    (polynomial_connection(3, 3, 0.5, 42), np.zeros(3), np.array([0.6, -0.5, 0.45])),
]:
    jet = curvature_jet(model, p, N - 2)
    comps = closed_form_components(jet, v, N)
    print(f"--- {model.name}, degree {N} ---")
    dists = []
    for t in ts:
        truncated = sum(t**k * c for k, c in enumerate(comps))
        oracle = dexp_oracle(model, p, t * v, 2000).matrix
        dists.append(np.linalg.norm(truncated - oracle))
        print(f"  t = {t:4.2f}   distance = {dists[-1]:.3e}")
    slope = np.polyfit(np.log(ts), np.log(dists), 1)[0]
    print(f"  fitted slope: {slope:.2f} (remainder order >= {N + 1})\n")
