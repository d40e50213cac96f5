import ast
import pathlib

import numpy as np
import pytest

import dexpseries
from dexpseries import (
    closed_form_components,
    curvature_jet,
    curvature_operators,
    evaluate_closed_form,
    flat,
    hyperbolic,
    jacobi_operator,
    polynomial_connection,
    recurrence_components,
    sphere,
)
from dexpseries.geometry import ChartDomainError

MAX_ORDER = 6

MODELS = [
    flat(3),
    sphere(2, 1.0),
    sphere(3, 1.3),
    hyperbolic(3),
    polynomial_connection(3, 3, 0.5, 42),
    polynomial_connection(4, 3, 0.5, 7),
]


def _cases(model, count=2, seed=11):
    """`count` points, each with `count` vectors."""
    rng = np.random.default_rng([seed, model.dimension])
    return [(rng.uniform(-0.25, 0.25, model.dimension),
             [rng.uniform(-0.3, 0.3, model.dimension) for _ in range(count)])
            for _ in range(count)]


def _assert_matches_dense(ops, jet, v):
    assert len(ops) == jet.max_order + 1
    for n, r in enumerate(ops):
        ref = jacobi_operator(jet, v, n).matrix
        err = np.linalg.norm(r - ref)
        # relative 1e-12; absolute 1e-13 where the dense value is ~0 (nabla R = 0
        # on symmetric spaces)
        assert err <= max(1e-12 * np.linalg.norm(ref), 1e-13), (n, err, np.linalg.norm(ref))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m.name}-{m.dimension}")
def test_operators_match_dense_jet(model):
    for p, vs in _cases(model):
        jet = curvature_jet(model, p, MAX_ORDER)
        for v in vs:
            _assert_matches_dense(curvature_operators(model, p, v, MAX_ORDER), jet, v)


def test_series_routes_agree_on_both_sources():
    model = polynomial_connection(3, 3, 0.5, 3)
    p, v = np.array([0.1, -0.05, 0.02]), np.array([0.2, 0.1, -0.15])
    jet = curvature_jet(model, p, 6)
    ops = curvature_operators(model, p, v, 6)
    for route in (closed_form_components, recurrence_components):
        dense = route(jet, v, 8)
        taylor = route(ops, max_degree=8)
        for a, b in zip(dense, taylor):
            assert np.linalg.norm(a - b) <= 1e-13


def test_operator_list_rejects_v_and_short_lists():
    model = polynomial_connection(3, 3, 0.5, 3)
    v = np.array([0.2, 0.1, -0.15])
    ops = curvature_operators(model, np.zeros(3), v, 2)
    with pytest.raises(TypeError):
        evaluate_closed_form(ops, v, 4)
    with pytest.raises(ValueError):
        evaluate_closed_form(ops, max_degree=5)
    assert evaluate_closed_form(ops, max_degree=4).max_degree == 4


def test_point_outside_chart_and_bad_order():
    with pytest.raises(ChartDomainError):
        curvature_operators(hyperbolic(2), [0.8, 0.8], [0.1, 0.0], 3)
    with pytest.raises(ValueError):
        curvature_operators(flat(2), [0.0, 0.0], [0.1, 0.0], -1)


def _imported_modules(module: str) -> set[str]:
    """In-package modules reachable from `module` through its import statements."""
    src = pathlib.Path(dexpseries.__file__).parent
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        tree = ast.parse((src / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.level == 1 and node.module:
                    todo.append(node.module)
                elif node.level == 1:
                    todo.extend(alias.name for alias in node.names)
                elif node.module and node.module.startswith("dexpseries."):
                    todo.append(node.module.split(".", 1)[1])
            elif isinstance(node, ast.Import):
                todo.extend(alias.name.split(".", 1)[1] for alias in node.names
                            if alias.name.startswith("dexpseries."))
    return seen


def test_oracle_does_not_import_taylor():
    reachable = _imported_modules("oracle")
    assert "geometry" in reachable
    assert "taylor" not in reachable


def test_taylor_route_avoids_dense_machinery(monkeypatch):
    cases = [(model, p, vs[0]) for model in (flat(3), polynomial_connection(3, 3, 0.5, 42),
                                             polynomial_connection(4, 3, 0.5, 7))
             for p, vs in _cases(model, count=1, seed=5)]
    jets = [curvature_jet(model, p, 4) for model, p, _ in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("dense-tower code called on the Taylor route")

    for module in (dexpseries.polyjet, dexpseries.geometry, dexpseries.manifolds):
        if hasattr(module, "contract"):
            monkeypatch.setattr(module, "contract", forbidden)
    monkeypatch.setattr(dexpseries.geometry, "covariant_derivative", forbidden)
    monkeypatch.setattr(dexpseries.geometry, "curvature_polynomial", forbidden)
    with pytest.raises(AssertionError):
        curvature_jet(*cases[0][:2], 4)
    for (model, p, v), jet in zip(cases, jets):
        _assert_matches_dense(curvature_operators(model, p, v, 4), jet, v)
