"""One workload in one process: set up, run the timed closed loop, report.

Started by run.py with the thread variables pinned and ``src`` on the path.
Set-up time counts from the top of this file, before ``dexpseries`` is
imported, to the start of the first timed op; it covers input generation and
one untimed warm-up op.  The last stdout line is a JSON object for run.py.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

MAX_FAILURE_MESSAGES = 5


def run_phase(stream, first: int, seconds: float, run_op, check_op) -> dict:
    """Closed loop over the op stream: one op at a time until `seconds` have passed."""
    latencies, gaps, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        item = stream[(first + attempted) % len(stream)]
        attempted += 1
        try:
            t = time.perf_counter()
            result = run_op(item)
            latency = time.perf_counter() - t
            gap = check_op(item, result)
        except Exception as exc:  # any op error is a failed op, and the loop goes on
            failures.append(f"{type(exc).__name__}: {exc}")
        else:
            latencies.append(latency)
            gaps.append(gap)
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    return {"attempted": attempted, "failed": len(failures), "failures": failures,
            "latencies": latencies, "elapsed": elapsed, "gap_max": max(gaps, default=0.0),
            "ops_per_s": len(latencies) / elapsed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="directory for configs and artifacts")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", help="where the traced run saves its spans")
    args = parser.parse_args(argv)

    import workloads  # imports dexpseries

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    source = os.path.abspath(workloads.dexpseries.__file__)
    if not source.startswith(os.path.join(root, "src") + os.sep):
        print(f"error: dexpseries was imported from {source}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    inputs = workloads.materialize(workloads.generate(args.workload, args.seed), args.tmp)
    run_op, check_op = workloads.op_functions(args.workload)
    warmup = run_phase(inputs[:1], 0, 0.0, run_op, check_op)
    setup_s = time.perf_counter() - T0
    out = {"setup_s": setup_s, "warmup_failures": warmup["failures"]}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    stream = inputs[1:]
    if args.trace:
        import layers
        import spans

        untraced = run_phase(stream, 0, args.seconds / 2, run_op, check_op)
        tracer = spans.Tracer()
        installed = layers.install(tracer)
        op_span = tracer.wrap(run_op, "op")

        def traced_op(item):
            tracer.current_op += 1
            return op_span(item)

        traced = run_phase(stream, untraced["attempted"], args.seconds / 2, traced_op, check_op)
        metrics, absent = layers.layer_metrics(tracer, installed, "op")
        metrics["trace.overhead_frac"] = {
            "value": 1.0 - traced["ops_per_s"] / untraced["ops_per_s"]
            if untraced["ops_per_s"] else 0.0, "unit": "frac"}
        metrics["trace.ops"] = {"value": len(traced["latencies"]), "unit": "count"}
        metrics["oracle.gap_max"] = {"value": max(untraced["gap_max"], traced["gap_max"]),
                                     "unit": "norm"}
        if args.spans_out:
            tracer.save(args.spans_out)
        phases = [untraced, traced]
        out.update(metrics=metrics, absent=absent, spans=len(tracer.start))
    else:
        phases = [run_phase(stream, 0, args.seconds, run_op, check_op)]
        out.update(phases[0])

    failures = [f for p in phases for f in p["failures"]]
    out.update(
        attempted=sum(p["attempted"] for p in phases),
        failed=len(failures),
        failures=failures[:MAX_FAILURE_MESSAGES],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
