"""The benchmark's per-layer targets still name real program code, and a short
benchmark run ends in the result line the benchmark's reader parses.

perfbench/layers.py names the functions and methods that a traced run wraps as
strings.  A name that stops resolving turns its metrics absent instead of
failing the run, so a rename in the package would go unnoticed there.  These
tests resolve every name the way perfbench's installer looks it up, without
installing any wrapper, and feed the return-value hooks real results.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

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


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("workload", ["eval-sweep", "oracle-stencil"])
def test_short_run_ends_in_a_strict_json_result(workload):
    # a run whose last line is not a parsable result measures nothing
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
