"""The benchmark's per-layer targets still name real program code.

perfbench/layers.py names the functions and methods that a traced run wraps as
strings.  A name that stops resolving turns its metrics absent instead of
failing the run, so a rename in the package would go unnoticed there.  These
tests resolve every name the way perfbench's installer looks it up, without
installing any wrapper, and feed the return-value hooks real results.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402

import dexpseries.cli  # noqa: E402,F401  (the benchmark's workloads load the CLI too)
from dexpseries.geometry import curvature_jet  # noqa: E402
from dexpseries.manifolds import polynomial_connection  # noqa: E402
from dexpseries.oracle import integrate_geodesic  # noqa: E402


def _package_classes():
    for module in spans.package_modules(layers.PACKAGE):
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith(layers.PACKAGE):
                yield value


def _resolved_spans() -> set[str]:
    """Span names whose target exists, as spans.install_function and
    spans.install_method would find it."""
    names = {name for module, attr, name in layers.FUNCTIONS
             if callable(getattr(sys.modules.get(module), attr, None))}
    names |= {name for attr, name in layers.METHODS
              if any(callable(cls.__dict__.get(attr)) for cls in _package_classes())}
    return names


@pytest.mark.parametrize("metric", sorted(layers.SPAN_METRICS))
def test_span_metric_has_a_target(metric):
    group = layers.SPAN_METRICS[metric][2]
    assert set(group) & _resolved_spans(), f"{metric}: none of {group} resolves"


@pytest.mark.parametrize("metric", sorted(layers.COMPUTED_METRICS))
def test_computed_metric_has_a_target(metric):
    span = layers.COMPUTED_METRICS[metric][1]
    assert span in _resolved_spans(), f"{metric}: {span} does not resolve"


def test_return_hooks_read_real_results():
    model = polynomial_connection(3, 3, 0.5, 42)
    p, v = np.zeros(3), np.array([0.12, -0.1, 0.08])
    tracer = spans.Tracer()
    layers._jet_sizes(tracer, curvature_jet(model, p, 3))
    layers._rk4_steps(tracer, integrate_geodesic(model, p, v, 50))
    assert not [key for key in tracer.counters if key.endswith(".unreadable")]
    assert tracer.counters["jet_bytes"] > 0
    assert tracer.counters["jet_useful_bytes"] > 0
    assert tracer.counters["rk4_steps"] > 0
