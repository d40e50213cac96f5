"""Each allocating routine's byte count against the tracemalloc peak of the routine.

The CLI refuses an input whose count exceeds cli.MAX_ARRAY_BYTES before the
routine runs, so a count far below the peak would let a run past the budget.
"""

import tracemalloc

import numpy as np
import pytest

from dexpseries.geometry import curvature_jet, curvature_jet_bytes
from dexpseries.manifolds import flat, hyperbolic, polynomial_connection, sphere
from dexpseries.oracle import (curvature_derivative_table, dexp_oracle, dexp_oracle_bytes,
                               stencil_bytes)

# fixed overheads (temporaries, small index tables) dominate a count in d = 3:
# the polynomial oracle there peaks at 4.7x a 33 KB count
SMALL_D_SLACK = 2**20


def _poly(d, seed=0):
    return polynomial_connection(d, 3, 0.5, seed)


def _dense(d, n):
    # the dense prediction of lemma2 --n n; the count includes two contract blocks
    # of CHUNK_BYTES, which small towers do not fill
    model, p = sphere(d), np.full(d, 0.05)
    return lambda: curvature_jet(model, p, n - 2), curvature_jet_bytes(d, n - 2), 0.5, 1.25


def _oracle(model, batch, steps):
    # one block of the batch's nodes; a polynomial model's per-node monomial gathers
    # are d M doubles, not d^2 M, and stay uncounted
    d = model.dimension
    p, v = np.zeros(d), np.outer(np.linspace(0.5, 1.0, batch), np.full(d, 0.02))
    return (lambda: dexp_oracle(model, p, v, steps), dexp_oracle_bytes(d, steps, batch),
            0.5, 1.25)


def _stencil(model, steps):
    # orders 0 and 1 build no jet, so the peak is the sample sweep's
    d = model.dimension
    p, v = np.zeros(d), np.full(d, 0.02)
    return (lambda: curvature_derivative_table(model, p, v, [0, 1], steps),
            stencil_bytes(d, steps), 0.5, 1.25)


CASES = [  # (id, case factory, slack in bytes)
    ("dense-sphere6-n4", lambda: _dense(6, 4), 0),
    ("dense-sphere8-n4", lambda: _dense(8, 4), 0),
    ("dense-sphere14-n3", lambda: _dense(14, 3), 0),
    ("dense-sphere30-n2", lambda: _dense(30, 2), 0),
    ("oracle-polynomial10-batch1", lambda: _oracle(_poly(10), 1, 8), 0),
    ("oracle-polynomial10-batch2", lambda: _oracle(_poly(10), 2, 8), 0),
    ("oracle-polynomial14-batch1", lambda: _oracle(_poly(14), 1, 8), 0),
    ("oracle-polynomial3-batch1", lambda: _oracle(_poly(3), 1, 8), SMALL_D_SLACK),
    ("oracle-flat3-batch5", lambda: _oracle(flat(3), 5, 100), 0),
    ("oracle-sphere8-batch5", lambda: _oracle(sphere(8), 5, 100), 0),
    ("oracle-hyperbolic20-batch1", lambda: _oracle(hyperbolic(20), 1, 8), 0),
    ("stencil-polynomial3", lambda: _stencil(_poly(3), 8), SMALL_D_SLACK),
    ("stencil-polynomial8", lambda: _stencil(_poly(8), 8), 0),
    ("stencil-flat20", lambda: _stencil(flat(20), 8), 0),
    ("stencil-sphere8", lambda: _stencil(sphere(8), 100), 0),
    ("stencil-hyperbolic14", lambda: _stencil(hyperbolic(14), 8), 0),
]


@pytest.mark.parametrize("make, slack", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_peak_stays_near_the_count(make, slack):
    run, count, low, high = make()
    run()  # builds the cached tables
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert low * count <= peak <= high * count + slack, (peak, count)
