"""Which program functions the traced run wraps, and the per-layer metrics.

Targets are named, never imported: ``install`` looks each one up in the loaded
``dexpseries`` modules, and a metric whose targets are missing is reported as
absent instead of stopping the run.
"""

from __future__ import annotations

import spans

PACKAGE = "dexpseries"

# (defining module, attribute, span name)
FUNCTIONS = [
    ("dexpseries.cli", "main", "cli.main"),
    ("dexpseries.series", "coefficient", "series.coefficient"),
    ("dexpseries.series", "words_of_degree", "series.words_of_degree"),
    ("dexpseries.tensors", "contract_leading", "tensors.contract_leading"),
    ("dexpseries.polyjet", "contract", "polyjet.contract"),
    ("dexpseries.geometry", "curvature_jet", "geometry.curvature_jet"),
    ("dexpseries.geometry", "curvature", "geometry.curvature"),
    ("dexpseries.geometry", "jacobi_operator", "geometry.jacobi_operator"),
    ("dexpseries.evaluate", "evaluate_closed_form", "evaluate.evaluate_closed_form"),
    ("dexpseries.evaluate", "evaluate_recurrence", "evaluate.evaluate_recurrence"),
    ("dexpseries.evaluate", "closed_form_components", "evaluate.closed_form_components"),
    ("dexpseries.evaluate", "recurrence_components", "evaluate.recurrence_components"),
    ("dexpseries.oracle", "integrate_geodesic", "oracle.geodesic"),
    ("dexpseries.oracle", "transport_frame", "oracle.transport"),
    ("dexpseries.oracle", "dexp_oracle", "oracle.jacobi"),
    ("dexpseries.oracle", "curvature_derivative_table", "oracle.fd_sweep.table"),
    ("dexpseries.oracle", "curvature_derivative_check", "oracle.fd_sweep.check"),
]
# (method name, span name): wrapped on every model class that defines it
METHODS = [
    ("christoffel", "manifolds.christoffel"),
    ("christoffel_jet", "manifolds.christoffel_jet"),
]

EVALUATE = ["evaluate.evaluate_closed_form", "evaluate.evaluate_recurrence",
            "evaluate.closed_form_components", "evaluate.recurrence_components"]
SERIES = ["series.coefficient", "series.words_of_degree"]
FD_SWEEP = ["oracle.fd_sweep.table", "oracle.fd_sweep.check"]

# metric name -> (unit, kind, span names); kinds are described in layer_metrics
SPAN_METRICS = {
    "cli.self_s": ("s/op", "self", ["cli.main"]),
    "series.self_s": ("s/op", "self", SERIES),
    "series.coefficient.calls": ("calls/op", "calls", ["series.coefficient"]),
    "tensors.contract_leading.self_s": ("s/op", "self", ["tensors.contract_leading"]),
    "tensors.contract_leading.calls": ("calls/op", "calls", ["tensors.contract_leading"]),
    "polyjet.contract.self_s": ("s/op", "self", ["polyjet.contract"]),
    "polyjet.contract.calls": ("calls/op", "calls", ["polyjet.contract"]),
    "manifolds.christoffel.self_s": ("s/op", "self", ["manifolds.christoffel"]),
    "manifolds.christoffel.calls": ("calls/op", "calls", ["manifolds.christoffel"]),
    "manifolds.christoffel_jet.self_s": ("s/op", "self", ["manifolds.christoffel_jet"]),
    "manifolds.christoffel_jet.calls": ("calls/op", "calls", ["manifolds.christoffel_jet"]),
    "geometry.curvature_jet.s": ("s/op", "inclusive", ["geometry.curvature_jet"]),
    "geometry.curvature_jet.self_s": ("s/op", "self", ["geometry.curvature_jet"]),
    "geometry.curvature_jet.share": ("frac", "share", ["geometry.curvature_jet"]),
    "geometry.curvature.s": ("s/op", "inclusive", ["geometry.curvature"]),
    "geometry.curvature.calls": ("calls/op", "calls", ["geometry.curvature"]),
    "geometry.jacobi_operator.self_s": ("s/op", "self", ["geometry.jacobi_operator"]),
    "geometry.jacobi_operator.calls": ("calls/op", "calls", ["geometry.jacobi_operator"]),
    "evaluate.self_s": ("s/op", "self", EVALUATE),
    "evaluate.share": ("frac", "share", EVALUATE),
    "oracle.geodesic.s": ("s/op", "inclusive", ["oracle.geodesic"]),
    "oracle.geodesic.share": ("frac", "share", ["oracle.geodesic"]),
    "oracle.transport.s": ("s/op", "inclusive", ["oracle.transport"]),
    "oracle.jacobi.self_s": ("s/op", "self", ["oracle.jacobi"]),
    "oracle.jacobi.share": ("frac", "share", ["oracle.jacobi"]),
    "oracle.fd_sweep.self_s": ("s/op", "self", FD_SWEEP),
    "oracle.fd_sweep.share": ("frac", "share", FD_SWEEP),
}
# metrics computed from return values: name -> (unit, span it hangs on)
COMPUTED_METRICS = {
    "geometry.jet_bytes": ("B", "geometry.curvature_jet"),
    "geometry.jet_useful_frac": ("frac", "geometry.curvature_jet"),
    "oracle.geodesic.rk4_steps": ("steps/op", "oracle.geodesic"),
}


def _jet_sizes(tracer: spans.Tracer, jet):
    try:
        nbytes = sum(t.components.nbytes for t in jet.tensors)
        d = jet.dimension
        useful = (jet.max_order + 1) * d * d * 8
    except (AttributeError, TypeError):
        tracer.count("geometry.curvature_jet.unreadable")
        return
    tracer.count("jet_count")
    tracer.count("jet_bytes", nbytes)
    tracer.count("jet_useful_bytes", useful)


def _rk4_steps(tracer: spans.Tracer, traj):
    try:
        steps = len(traj.times) - 1
    except (AttributeError, TypeError):
        tracer.count("oracle.geodesic.unreadable")
        return
    tracer.count("rk4_steps", steps)


RETURN_HOOKS = {"geometry.curvature_jet": _jet_sizes, "oracle.geodesic": _rk4_steps}


def install(tracer: spans.Tracer) -> set[str]:
    """Wrap every target that exists; returns the span names that were installed."""
    installed = set()
    for module, attr, name in FUNCTIONS:
        if spans.install_function(tracer, PACKAGE, module, attr, name, RETURN_HOOKS.get(name)):
            installed.add(name)
    for attr, name in METHODS:
        if spans.install_method(tracer, PACKAGE, attr, name):
            installed.add(name)
    return installed


def layer_metrics(tracer: spans.Tracer, installed: set[str], op_span: str):
    """Per-op layer metrics over the traced ops, and the names that are absent.

    self: summed self time per op; inclusive: time inside the group's outermost
    spans per op; calls: spans per op; share: inclusive time over time in ops.
    """
    table = spans.SpanTable(tracer)
    ops = max(table.calls([op_span]), 1)
    op_seconds = table.outer_seconds([op_span])
    metrics, absent = {}, []
    for name, (unit, kind, group) in SPAN_METRICS.items():
        if not any(g in installed for g in group):
            absent.append(name)
            continue
        if kind == "self":
            value = table.self_seconds(group) / ops
        elif kind == "inclusive":
            value = table.outer_seconds(group) / ops
        elif kind == "calls":
            value = table.calls(group) / ops
        else:
            value = table.outer_seconds(group) / op_seconds if op_seconds > 0 else 0.0
        metrics[name] = {"value": value, "unit": unit}

    c = tracer.counters
    for name, (unit, span) in COMPUTED_METRICS.items():
        if span not in installed or c.get(span + ".unreadable"):
            absent.append(name)
            continue
        if name == "geometry.jet_bytes":
            value = c.get("jet_bytes", 0.0) / max(c.get("jet_count", 0.0), 1.0)
        elif name == "geometry.jet_useful_frac":
            value = c["jet_useful_bytes"] / c["jet_bytes"] if c.get("jet_bytes") else 0.0
        else:
            value = c.get("rk4_steps", 0.0) / ops
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent
