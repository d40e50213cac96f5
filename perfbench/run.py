"""Benchmark launcher for dexpseries.

    python3 perfbench/run.py --workload eval-fresh --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout.  Each workload runs in fresh worker
processes (worker.py) with one BLAS/OpenMP thread and ``src`` on the path, one
process at a time.  The untraced run first starts SETUP_PROBES set-up-only
workers, then the measured worker; ``setup_s`` is the median over all of them.
With ``--trace 1`` a single worker runs half the time untraced and half traced
and reports the per-layer metrics instead.

Latency percentiles are taken by nearest rank, and ``op_p90_s`` is flagged
when fewer than MIN_TAIL samples lie beyond it, i.e. below 100 ops.

A human-readable report goes to stdout, followed by one JSON line with the
keys correct, attempted, failed and metrics.  Configs and artifacts live in a
temporary directory under ``.perfbench_tmp`` that is removed at the end; the
traced run saves its spans under ``.perfbench_out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_TAIL = 10


class WorkerFailed(RuntimeError):
    pass


def nearest_rank(values, q: float):
    """The ceil(q*n)-th smallest value (1-based) and the count of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def latency_summary(latencies) -> dict:
    p90, beyond = nearest_rank(latencies, 0.9)
    return {
        "p50": statistics.median(latencies),
        "p90": p90,
        "p90_beyond": beyond,
        "p90_flagged": beyond < MIN_TAIL,
    }


def _worker(args, tmp: Path, deadline: float, *extra: str) -> dict:
    env = dict(os.environ, **{name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    workdir = Path(tempfile.mkdtemp(dir=tmp))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(workdir), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker did not finish within the time limit")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _untraced_metrics(args, result: dict, setups: list[float]) -> dict:
    n = len(result["latencies"])
    if n == 0:
        raise WorkerFailed("no op succeeded, so there is no latency to report; first "
                           "failures:\n" + "\n".join(result["failures"]))
    lat = latency_summary(result["latencies"])
    tail = f"{lat['p90_beyond']} beyond" + (" (FLAGGED: fewer than 10)" if lat["p90_flagged"]
                                             else "")
    rows = [
        ("setup_s", statistics.median(setups), "s",
         f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups)),
        ("ops_per_s", result["ops_per_s"], "1/s", f"{n} ops in {result['elapsed']:.2f} s"),
        ("op_p50_s", lat["p50"], "s", f"n={n}"),
        ("op_p90_s", lat["p90"], "s", f"n={n}, {tail}"),
        ("peak_rss_mb", result["peak_rss_mb"], "MB", "ru_maxrss of the measured worker"),
    ]
    for name, value, unit, note in rows:
        print(f"{name:<14} {value:12.6g} {unit:<4} {note}")
    print(f"{'failed_frac':<14} {result['failed'] / result['attempted']:12.6g}      "
          f"{result['failed']} of {result['attempted']} ops")
    if args.workload == "oracle-verify":
        print(f"{'oracle_gap_max':<14} {result['gap_max']:12.6g}      "
              "largest series-oracle distance")
    return {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}


def _traced_metrics(result: dict) -> dict:
    for name, m in sorted(result["metrics"].items()):
        print(f"{name:<36} {m['value']:14.6g} {m['unit']}")
    for name in result["absent"]:
        print(f"{name:<36} {'absent':>14}")
    print(f"{result['spans']} spans over {result['metrics']['trace.ops']['value']} traced ops")
    return result["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dexpseries benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (ROOT / "src" / "dexpseries" / "__init__.py").is_file():
        print(f"error: no dexpseries sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}")
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans_out = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
            result = _worker(args, tmp, deadline, "--spans-out", str(spans_out))
            metrics = _traced_metrics(result)
            warmup_failures = result["warmup_failures"]
        else:
            probes = [_worker(args, tmp, deadline, "--setup-only") for _ in range(SETUP_PROBES)]
            result = _worker(args, tmp, deadline)
            metrics = _untraced_metrics(args, result, [p["setup_s"] for p in probes + [result]])
            warmup_failures = [f for p in probes + [result] for f in p["warmup_failures"]]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    for message in warmup_failures + result["failures"]:
        print(f"FAILED op: {message}")
    correct = result["failed"] == 0 and not warmup_failures
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
