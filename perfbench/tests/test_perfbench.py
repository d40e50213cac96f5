"""Tests of the benchmark's own machinery: inputs, span arithmetic, percentiles."""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- seeded inputs -------------------------------------------------------------------

def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_equal_seeds_give_identical_inputs(workload):
    first = workloads.generate(workload, 7, count=6)
    assert _same(first, workloads.generate(workload, 7, count=6))
    assert not _same(first, workloads.generate(workload, 8, count=6))
    # a longer stream starts with the same inputs
    assert _same(first, workloads.generate(workload, 7, count=9)[:7])


def test_inputs_respect_the_workload_shapes():
    for item in workloads.generate("eval-fresh", 3, count=20):
        cfg = item["config"]
        assert np.linalg.norm(cfg["point"]) <= workloads.POINT_RADIUS
        assert 0.1 <= np.linalg.norm(cfg["vector"]) <= 0.3
        assert cfg["max_degree"] == 9 and cfg["manifold"]["kind"] == "polynomial"
    stencil = workloads.generate("oracle-stencil", 3, count=10)
    assert [item["argv"][-1] for item in stencil[1:]] == [str(k % 5) for k in range(10)]
    sweep = workloads.generate("eval-sweep", 3, count=2)[1]
    assert sweep["vectors"].shape == (workloads.SWEEP_VECTORS, 3)
    assert np.abs(sweep["vectors"]).max() <= 0.3


def test_materialized_configs_are_the_generated_ones(tmp_path):
    inputs = workloads.generate("oracle-verify", 5, count=3)
    items = workloads.materialize(inputs, str(tmp_path))
    for raw, item in zip(inputs, items):
        path = item["argv"][item["argv"].index("--config") + 1]
        assert json.loads(Path(path).read_text()) == raw["config"]
        assert Path(item["artifact"]).parent == tmp_path


# -- self-time arithmetic --------------------------------------------------------------

def _tree():
    """op [0, 10] > a [1, 6] > b [2, 4], and op > b [7, 8]; a second op [20, 23]."""
    t = spans.Tracer()
    op = t.record("op", 0.0, 10.0)
    a = t.record("a", 1.0, 6.0, parent=op)
    t.record("b", 2.0, 4.0, parent=a)
    t.record("b", 7.0, 8.0, parent=op)
    t.record("op", 20.0, 23.0)
    return t


def test_self_time_subtracts_direct_children_only():
    table = spans.SpanTable(_tree())
    assert table.self_seconds(["op"]) == pytest.approx((10 - 5 - 1) + 3)
    assert table.self_seconds(["a"]) == pytest.approx(3.0)
    assert table.self_seconds(["b"]) == pytest.approx(3.0)
    assert np.all(table.self_time <= table.duration)
    # every second inside an op is counted exactly once across all spans
    assert table.self_time.sum() == pytest.approx(table.outer_seconds(["op"]))


def test_nested_spans_of_one_group_are_not_double_counted():
    table = spans.SpanTable(_tree())
    assert table.outer_seconds(["a", "b"]) == pytest.approx(5.0 + 1.0)
    assert table.outer_seconds(["b"]) == pytest.approx(3.0)
    assert table.calls(["b"]) == 2


def test_wrapper_records_nesting_and_survives_exceptions():
    t = spans.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_traced = t.wrap(inner, "inner")
    outer_traced = t.wrap(lambda x: inner_traced(x) + 1, "outer")
    assert outer_traced(1) == 2
    with pytest.raises(ValueError):
        outer_traced(-1)
    assert outer_traced(2) == 3
    table = spans.SpanTable(t)
    assert list(table.parent) == [-1, 0, -1, 2, -1, 4]
    assert np.all(table.self_time >= 0)


def test_install_replaces_every_binding_and_reports_missing(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work():
        return 3

    class Model:
        def step(self):
            return core.work()

    core.work, user.work, core.Model = work, work, Model
    Model.__module__ = "fakepkg.core"
    for name, mod in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)

    t = spans.Tracer()
    assert spans.install_function(t, "fakepkg", "fakepkg.core", "work", "work") == 2
    assert spans.install_function(t, "fakepkg", "fakepkg.core", "gone", "gone") == 0
    assert spans.install_function(t, "fakepkg", "fakepkg.nowhere", "work", "x") == 0
    assert spans.install_method(t, "fakepkg", "step", "step") == 1
    assert user.work() == 3 and Model().step() == 3
    assert [t.names[i] for i in t.name_id] == ["work", "step", "work"]


def test_missing_targets_make_metrics_absent_not_errors():
    t = spans.Tracer()
    t.record("op", 0.0, 1.0)
    metrics, absent = layers.layer_metrics(t, set(), "op")
    assert metrics == {}
    assert set(absent) == set(layers.SPAN_METRICS) | set(layers.COMPUTED_METRICS)


# -- percentile rule -------------------------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    hundred = run.latency_summary([float(i) for i in range(1, 101)])
    assert hundred["p90"] == 90.0 and hundred["p90_beyond"] == 10
    assert not hundred["p90_flagged"]
    short = run.latency_summary([float(i) for i in range(1, 100)])
    assert short["p90_beyond"] == 9 and short["p90_flagged"]
    assert run.latency_summary([1.0, 2.0, 3.0])["p90"] == 3.0
    assert run.latency_summary([4.0, 1.0, 2.0, 3.0])["p50"] == 2.5
