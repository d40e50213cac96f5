import numpy as np
import pytest

from dexpseries.evaluate import (
    closed_form_components,
    evaluate_closed_form,
    evaluate_recurrence,
    evaluate_symmetric,
    recurrence_components,
)
from dexpseries.geometry import curvature_jet
from dexpseries.manifolds import flat, hyperbolic, polynomial_connection, sphere
from dexpseries.taylor import curvature_operators
from dexpseries.tensors import operator_distance


def test_flat_gives_identity():
    jet = curvature_jet(flat(3), np.zeros(3), 8)
    v = np.array([0.3, -0.2, 0.1])
    for N in (0, 1, 4, 10):
        ev = evaluate_closed_form(jet, v, N)
        assert np.array_equal(ev.operator.matrix, np.eye(3))
        assert operator_distance(evaluate_recurrence(jet, v, N).operator, ev.operator) == 0.0


def test_low_degrees_are_identity_everywhere():
    model = polynomial_connection(3, 3, 0.5, 42)
    jet = curvature_jet(model, np.zeros(3), 0)
    v = np.array([0.2, 0.1, -0.1])
    for N in (0, 1):
        for ev in (evaluate_closed_form(jet, v, N), evaluate_recurrence(jet, v, N)):
            assert np.array_equal(ev.operator.matrix, np.eye(3))


def test_component_norm_invariants():
    model = polynomial_connection(3, 3, 0.5, 42)
    jet = curvature_jet(model, np.zeros(3), 6)
    v = np.array([0.2, -0.15, 0.1])
    ev = evaluate_closed_form(jet, v, 8)
    assert ev.per_degree_norms[0] == pytest.approx(np.sqrt(3))
    assert ev.per_degree_norms[1] == 0.0
    assert ev.truncation_estimate == ev.per_degree_norms[-1]
    assert len(ev.per_degree_norms) == 9


def test_insufficient_jet_order_rejected():
    model = polynomial_connection(3, 3, 0.5, 42)
    jet = curvature_jet(model, np.zeros(3), 2)
    with pytest.raises(ValueError):
        evaluate_closed_form(jet, np.array([0.1, 0.0, 0.0]), 5)
    with pytest.raises(ValueError):
        evaluate_recurrence(jet, np.array([0.1, 0.0, 0.0]), 5)


ZOO = [
    flat(3),
    sphere(2, 1.0),
    sphere(3, 2.0),
    hyperbolic(2),
    polynomial_connection(3, 3, 0.5, 42),
    polynomial_connection(2, 2, 0.4, 7),
]


@pytest.mark.parametrize("model", ZOO, ids=lambda m: f"{m.name}{m.dimension}")
def test_closed_form_equals_recurrence(model):
    rng = np.random.default_rng(123)
    N = 10
    jet = curvature_jet(model, rng.uniform(-0.1, 0.1, model.dimension), N - 2)
    for _ in range(10):
        v = rng.uniform(-0.4, 0.4, model.dimension)
        a = evaluate_closed_form(jet, v, N)
        b = evaluate_recurrence(jet, v, N)
        norm = np.linalg.norm(a.operator.matrix)
        assert operator_distance(a.operator, b.operator) <= 1e-12 * (1.0 + norm)


def test_component_homogeneity_exact_in_powers_of_two():
    model = polynomial_connection(3, 3, 0.5, 42)
    jet = curvature_jet(model, np.zeros(3), 6)
    rng = np.random.default_rng(5)
    v = rng.uniform(-0.2, 0.2, 3)
    base = closed_form_components(jet, v, 8)
    scaled = closed_form_components(jet, 2.0 * v, 8)
    for n in range(9):
        assert np.allclose(scaled[n], 2.0**n * base[n], rtol=1e-12, atol=1e-300)


def test_component_homogeneity_generic_scale():
    model = polynomial_connection(2, 2, 0.4, 7)
    jet = curvature_jet(model, np.zeros(2), 6)
    rng = np.random.default_rng(6)
    v = rng.uniform(-0.3, 0.3, 2)
    t = 1.7
    base = recurrence_components(jet, v, 8)
    scaled = recurrence_components(jet, t * v, 8)
    for n in range(9):
        ref = np.linalg.norm(base[n]) * t**n
        assert np.linalg.norm(scaled[n] - t**n * base[n]) <= 1e-12 * (1.0 + ref)


@pytest.mark.parametrize("source", ["jet", "operators"])
@pytest.mark.parametrize("model", [sphere(2, 1.0), hyperbolic(2)], ids=["sphere", "hyperbolic"])
def test_symmetric_space_degeneration(model, source):
    rng = np.random.default_rng(11)
    p = rng.uniform(-0.1, 0.1, 2)
    jet = curvature_jet(model, p, 8)
    for _ in range(5):
        v = rng.uniform(-0.5, 0.5, 2)
        args = (jet, v) if source == "jet" else (curvature_operators(model, p, v, 8), None)
        full = evaluate_closed_form(*args, 10)
        sym = evaluate_symmetric(*args, 5)
        assert operator_distance(full.operator, sym) <= 1e-10


def test_symmetric_zero_terms_is_identity():
    jet = curvature_jet(sphere(2, 1.0), np.zeros(2), 0)
    op = evaluate_symmetric(jet, np.array([0.3, 0.1]), 0)
    assert np.array_equal(op.matrix, np.eye(2))


def test_scale_degeneration_to_flat():
    # halving the Christoffel scale roughly halves the deviation from identity
    rng = np.random.default_rng(21)
    v = rng.uniform(-0.3, 0.3, 3)
    devs = []
    for scale in (0.2, 0.1, 0.05):
        model = polynomial_connection(3, 3, scale, 13)
        jet = curvature_jet(model, np.zeros(3), 4)
        ev = evaluate_closed_form(jet, v, 6)
        devs.append(np.linalg.norm(ev.operator.matrix - np.eye(3)))
    assert devs[0] > devs[1] > devs[2] > 0
    for a, b in zip(devs, devs[1:]):
        assert a / b == pytest.approx(2.0, rel=0.2)


def test_default_truncation_degree():
    jet = curvature_jet(sphere(2, 1.0), np.zeros(2), 6)
    ev = evaluate_closed_form(jet, np.array([0.2, 0.1]))
    assert ev.max_degree == 8


def test_series_evaluation_json():
    jet = curvature_jet(sphere(2, 1.0), np.zeros(2), 2)
    ev = evaluate_closed_form(jet, np.array([0.2, 0.1]), 4)
    blob = ev.to_json()
    assert blob["max_degree"] == 4
    assert len(blob["per_degree_norms"]) == 5
    assert np.allclose(np.asarray(blob["operator"]["matrix"]), ev.operator.matrix)
