"""The four workloads: seeded inputs, one op each, and the check of its output.

Every op uses a seeded polynomial connection (d=3, poly-degree 3, scale 0.5)
with a fresh model seed and a point with |p| <= 0.2.  The CLI workloads call
``dexpseries.cli.main`` in-process on generated config files; the sweep uses
the library quick-start API.  An op returns nothing on success and raises
``OpFailed`` (or anything else) when its output is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import zlib

import numpy as np

import dexpseries
import dexpseries.cli

WORKLOADS = ("eval-fresh", "eval-sweep", "oracle-verify", "oracle-stencil")
DIMENSION = 3
MODEL = {"kind": "polynomial", "dimension": DIMENSION, "degree": 3, "scale": 0.5}
POINT_RADIUS = 0.2
INPUTS_PER_RUN = 256          # the op stream cycles through these
SWEEP_VECTORS = 64
SWEEP_ORDER = 6
SWEEP_DEGREE = 8
VERIFY_TOLERANCE = 1e-6       # the CLI default for verify
LEMMA2_TOLERANCE = 1e-5       # the CLI default for lemma2


class OpFailed(Exception):
    pass


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    """Input `index` of a workload; the warm-up input has index -1."""
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), index + 1])


def _ball_point(rng, radius: float) -> np.ndarray:
    direction = rng.standard_normal(DIMENSION)
    return direction / np.linalg.norm(direction) * radius * rng.uniform() ** (1.0 / DIMENSION)


def _vector(rng, lo: float, hi: float) -> np.ndarray:
    direction = rng.standard_normal(DIMENSION)
    return direction / np.linalg.norm(direction) * rng.uniform(lo, hi)


def _model_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


# -- input generation ----------------------------------------------------------

def _cli_input(workload: str, seed: int, index: int) -> dict:
    rng = _rng(seed, workload, index)
    manifold = dict(MODEL, seed=_model_seed(rng))
    point = _ball_point(rng, POINT_RADIUS)
    if workload == "eval-fresh":
        vector, extra, argv = _vector(rng, 0.1, 0.3), {"max_degree": 9}, ["eval"]
    elif workload == "oracle-verify":
        vector, extra, argv = _vector(rng, 0.15, 0.15), {"max_degree": 8, "steps": 500}, ["verify"]
    else:
        k = index % 5
        vector, extra, argv = _vector(rng, 0.1, 0.25), {"steps": 150}, ["lemma2", "--n", str(k)]
    config = {"manifold": manifold, "point": point.tolist(), "vector": vector.tolist(), **extra}
    return {"config": config, "argv": argv}


def _sweep_input(seed: int, index: int) -> dict:
    rng = _rng(seed, "eval-sweep", index)
    return {
        "model_seed": _model_seed(rng),
        "point": _ball_point(rng, POINT_RADIUS),
        "vectors": rng.uniform(-0.3, 0.3, size=(SWEEP_VECTORS, DIMENSION)),
    }


def generate(workload: str, seed: int, count: int = INPUTS_PER_RUN) -> list[dict]:
    """Inputs 0..count-1 of the workload; index -1 is the warm-up op's input."""
    indices = [-1] + list(range(count))
    if workload == "eval-sweep":
        return [_sweep_input(seed, i) for i in indices]
    return [_cli_input(workload, seed, i) for i in indices]


def materialize(inputs: list[dict], directory: str) -> list[dict]:
    """Write each CLI input's config file; the program sees only these files."""
    out = []
    for i, item in enumerate(inputs):
        if "config" not in item:
            out.append(item)
            continue
        path = os.path.join(directory, f"config-{i}.json")
        with open(path, "w") as fh:
            json.dump(item["config"], fh)
        artifact = os.path.join(directory, f"artifact-{i}.json")
        out.append({**item, "argv": item["argv"][:1] + ["--config", path] + item["argv"][1:]
                    + ["--out", artifact], "artifact": artifact})
    return out


# -- ops and checks --------------------------------------------------------------

def _matrix(blob) -> np.ndarray:
    m = np.asarray(blob["matrix"], dtype=float)
    if m.shape != (DIMENSION, DIMENSION) or not np.all(np.isfinite(m)):
        raise OpFailed(f"bad operator in artifact: shape {m.shape}")
    return m


def run_cli(item: dict):
    """The timed part of a CLI op: one in-process ``dexpseries`` command."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        try:
            code = dexpseries.cli.main(item["argv"])
        except SystemExit as exc:
            code = exc.code
    return code, captured.getvalue()


def check_cli(item: dict, result) -> float:
    """Check a CLI op's artifact; returns the series-oracle distance for verify."""
    code, text = result
    if code != 0:
        raise OpFailed(f"exit code {code}: {text.strip()[-300:]}")
    with open(item["artifact"]) as fh:
        blob = json.load(fh)
    os.remove(item["artifact"])
    if blob.get("pass") is not True:
        raise OpFailed(f"artifact reports pass={blob.get('pass')!r}")
    command = blob["command"]
    if command == "eval":
        closed = _matrix(blob["closed_form"]["operator"])
        gap = float(np.linalg.norm(closed - _matrix(blob["recurrence"]["operator"])))
        if not gap <= 1e-12 * (1.0 + np.linalg.norm(closed)):
            raise OpFailed(f"closed form vs recurrence gap {gap:.3e}")
    elif command == "verify":
        gap = float(np.linalg.norm(_matrix(blob["series"]["operator"])
                                   - _matrix(blob["oracle"])))
        if not gap <= VERIFY_TOLERANCE:
            raise OpFailed(f"series vs oracle distance {gap:.3e}")
        return gap
    elif command == "lemma2":
        gap = float(np.linalg.norm(_matrix(blob["lhs"]) - _matrix(blob["rhs"])))
        if not gap <= LEMMA2_TOLERANCE:
            raise OpFailed(f"order {blob['order']} derivative distance {gap:.3e}")
    else:
        raise OpFailed(f"unexpected artifact command {command!r}")
    return 0.0


def run_sweep(item: dict):
    """The timed part of a sweep op: one jet, then every vector both ways."""
    model = dexpseries.polynomial_connection(DIMENSION, MODEL["degree"], MODEL["scale"],
                                             item["model_seed"])
    jet = dexpseries.curvature_jet(model, item["point"], SWEEP_ORDER)
    return [(dexpseries.evaluate_closed_form(jet, v, SWEEP_DEGREE).operator.matrix,
             dexpseries.evaluate_recurrence(jet, v, SWEEP_DEGREE).operator.matrix)
            for v in item["vectors"]]


def check_sweep(item: dict, result) -> float:
    if len(result) != SWEEP_VECTORS:
        raise OpFailed(f"{len(result)} results for {SWEEP_VECTORS} vectors")
    for closed, recur in result:
        gap = float(np.linalg.norm(closed - recur))
        if not np.all(np.isfinite(closed)) or not gap <= 1e-12 * (1.0 + np.linalg.norm(closed)):
            raise OpFailed(f"closed form vs recurrence gap {gap:.3e}")
    return 0.0


def op_functions(workload: str):
    if workload == "eval-sweep":
        return run_sweep, check_sweep
    return run_cli, check_cli
