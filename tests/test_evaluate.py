import functools
import math

import numpy as np
import pytest

from dexpseries.evaluate import (
    _word_table,
    closed_form_components,
    evaluate_closed_form,
    evaluate_recurrence,
    evaluate_symmetric,
    recurrence_components,
)
from dexpseries.geometry import curvature_jet, jacobi_operator
from dexpseries.manifolds import flat, hyperbolic, polynomial_connection, sphere
from dexpseries.series import coefficient, words_of_degree, words_up_to_degree
from dexpseries.taylor import curvature_operators
from dexpseries.tensors import operator_distance


@functools.cache
def _float_coefficients(n: int) -> dict:
    return {word: float(coefficient(word)) for word in words_up_to_degree(n)}


def _closed_form_loop(ops, max_degree: int) -> list[np.ndarray]:
    """The per-word loop closed_form_components ran before its batched products:
    each word's matrix from its cached suffix, added word by word."""
    d = ops[0].shape[0]
    weights = _float_coefficients(max_degree)
    comps = [np.eye(d)] + [np.zeros((d, d)) for _ in range(max_degree)]
    cache = {(): np.eye(d)}
    for n in range(2, max_degree + 1):
        for word in words_of_degree(n):
            cache[word] = ops[word[0]] @ cache[word[1:]]
            comps[n] += weights[word] * cache[word]
    return comps


def _recurrence_loop(ops, max_degree: int) -> list[np.ndarray]:
    """The per-term loop recurrence_components ran before its stacked products."""
    d = ops[0].shape[0]
    comps = [np.eye(d), np.zeros((d, d))]
    for n in range(2, max_degree + 1):
        acc = np.zeros((d, d))
        for m in range(0, n - 1):
            acc += (1.0 / math.factorial(m)) * (ops[m] @ comps[n - m - 2])
        comps.append(acc / (n * (n + 1)))
    return comps[:max_degree + 1]


@pytest.mark.parametrize("d", [2, 3, 6])
def test_batched_routes_match_the_per_word_and_per_term_loops(d):
    top = 20
    ops = np.random.default_rng([17, d]).normal(size=(top - 1, d, d))
    references = {closed_form_components: _closed_form_loop(ops, top),
                  recurrence_components: _recurrence_loop(ops, top)}
    for route, reference in references.items():
        for N in range(top + 1):
            comps = route(list(ops[:max(1, N - 1)]), max_degree=N)
            assert comps.shape == (N + 1, d, d)
            for n in range(N + 1):
                err = np.linalg.norm(comps[n] - reference[n])
                assert err <= 1e-14 * np.linalg.norm(reference[n]), (route.__name__, N, n, err)


def test_batched_routes_match_the_loops_on_a_dense_jet():
    model = polynomial_connection(3, 3, 0.5, 42)
    jet = curvature_jet(model, np.array([0.1, -0.05, 0.02]), 6)
    v = np.array([0.25, -0.15, 0.1])
    ops = [jacobi_operator(jet, v, m).matrix for m in range(7)]
    for route, loop in ((closed_form_components, _closed_form_loop),
                        (recurrence_components, _recurrence_loop)):
        for a, b in zip(route(jet, v, 8), loop(ops, 8)):
            assert np.linalg.norm(a - b) <= 1e-14 * np.linalg.norm(b)


def test_word_tables_list_each_degree_in_order_and_are_read_only():
    for n in range(2, 17):
        firsts, suffixes, weights = _word_table(n)
        shorter = words_up_to_degree(n - 1)  # the stack the suffix rows index
        words = [(int(m),) + shorter[row] for m, row in zip(firsts, suffixes)]
        assert words == words_of_degree(n)
        assert weights.tolist() == [float(coefficient(word)) for word in words]
        for table in (firsts, suffixes, weights):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0


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
