"""Command-line driver.

Subcommands:

* coeffs       -- exact coefficient table of the operator series, CSV or JSON,
                  with a built-in closed-form/recurrence equality check
* eval         -- evaluate the truncated series both ways on a configured
                  manifold and report their distance
* verify       -- series against the Jacobi-field ODE oracle
* convergence  -- remainder decay: fitted log-log slope of the series/oracle
                  distance over a range of velocity scalings, through the
                  distances well above their rounding floor
* lemma2       -- t-derivatives of the transported curvature operator against
                  the scaled curvature-derivative operators

eval, verify and convergence get the curvature operators r_n(v) by Taylor-mode
propagation along the geodesic (taylor.curvature_operators); lemma2 checks the
transported curvature against the dense covariant-derivative tower.

Each of those four checks maps the loaded config to its artifact fields and
verdict; run_check writes every check artifact and verdict line.

Exit codes: 0 all embedded checks pass, 1 a check fails, 2 invalid input or a
lemma2 comparison whose rounding floor exceeds its tolerance.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import manifolds, series
from .evaluate import closed_form_components, evaluate_closed_form, evaluate_recurrence
from .geometry import ChartDomainError, curvature_jet_bytes
from .oracle import (EPS, block_steps, curvature_derivative_table, dexp_oracle,
                     dexp_oracle_bytes, stencil_bytes)
from .taylor import curvature_operators
from .tensors import operator_distance

MAX_DEGREE_CAP = 12
MIN_STEPS = 100
MAX_STEPS = 100_000  # bounds the oracle's time: 2*steps RK4 steps per geodesic
MAX_ARRAY_BYTES = 2**29  # each counted array set of a command, checked before it exists;
# the budget bounds the counted arrays, not the process's resident memory
DEFAULT_T_VALUES = (0.05, 0.1, 0.2, 0.3, 0.4)
# convergence fits its slope through the distances this many times above their
# rounding floor eps sqrt(steps) (1 + |E(t v)|), which rounding alone stayed below
# half of in measurements from 100 to 100000 steps
FIT_ABOVE_FLOOR = 10.0


class InvalidInput(ValueError):
    pass


def _t_values(value, name: str) -> list[float]:
    """At least two distinct t in (0, 0.5], sorted: the fewest a slope can be fitted to."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of numbers, got {value!r}")
    out = sorted(manifolds.number(t, f"{name} entry", above=0.0, high=0.5) for t in value)
    if len(set(out)) < 2:
        raise ValueError(f"{name} needs at least two distinct values, got {value!r}")
    return out


# run field -> (reader, default); a flag of the same name overrides the config value
RUN_FIELDS = {
    "max_degree": (functools.partial(manifolds.integer, low=0, high=MAX_DEGREE_CAP), 10),
    "steps": (functools.partial(manifolds.integer, low=MIN_STEPS, high=MAX_STEPS), 2000),
    "fd_step": (functools.partial(manifolds.number, above=0.0), 1e-2),
    "tolerance": (functools.partial(manifolds.number, above=0.0), None),
    "t_values": (_t_values, DEFAULT_T_VALUES),
    "n": (functools.partial(manifolds.integer, low=0, high=4), None),
}
CONFIG_FIELDS = frozenset({"manifold", "point", "vector", *RUN_FIELDS})


def _run_field(name: str, value):
    """value through the field's reader; None stays None where the default is None."""
    read, default = RUN_FIELDS[name]
    if value is None and default is None:
        return None
    try:
        return read(value, name)
    except ValueError as exc:
        raise InvalidInput(str(exc)) from None


def _components(value, name: str, dimension: int) -> np.ndarray:
    if not isinstance(value, list) or len(value) != dimension:
        raise InvalidInput(f"{name} must be a list of {dimension} numbers")
    try:
        return np.array([manifolds.number(x, f"{name} component") for x in value])
    except ValueError as exc:
        raise InvalidInput(str(exc)) from None


def _load_config(args) -> dict:
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, or an integer too long to read
        raise InvalidInput(f"cannot read config {args.config!r}: {exc}")

    if not isinstance(cfg, dict):
        raise InvalidInput("config must be a JSON object")
    unknown = sorted(set(cfg) - CONFIG_FIELDS)
    if unknown:
        raise InvalidInput(f"unknown config fields: {unknown}")
    manifold_cfg = cfg.get("manifold") or {}
    if not isinstance(manifold_cfg, dict):
        raise InvalidInput("manifold must be a JSON object")
    if getattr(args, "seed", None) is not None:
        if (kind := manifold_cfg.get("kind")) in ("flat", "sphere", "hyperbolic"):
            raise InvalidInput(f"--seed applies only to a polynomial manifold, not to {kind!r}")
        manifold_cfg["seed"] = args.seed
    try:
        model = manifolds.from_config(manifold_cfg)
    except (ValueError, TypeError) as exc:
        raise InvalidInput(f"bad manifold config: {exc}")

    point = _components(cfg.get("point", [0.0] * model.dimension), "point", model.dimension)
    vector = _components(cfg.get("vector", []), "vector", model.dimension)
    out = {"model": model, "point": point, "vector": vector}
    for name, (_, default) in RUN_FIELDS.items():
        flag = getattr(args, name, None)
        out[name] = _run_field(name, flag if flag is not None else cfg.get(name, default))

    norm = math.hypot(*vector)  # no overflow for components near the double range
    if norm > 1.0:
        print(f"warning: |vector| = {norm:.4g} > 1; the truncated series is not "
              "trustworthy there", file=sys.stderr)
    elif norm > 0.5:
        print(f"note: |vector| = {norm:.4g} > 0.5, outside the recommended envelope",
              file=sys.stderr)
    return out


def _check_out(path):
    """Refuse an --out that names a directory or lies in a missing one before any work;
    _emit still catches what this cannot see (permissions, a full disk)."""
    if path and os.path.isdir(path):
        raise InvalidInput(f"cannot write --out {path!r}: it is a directory")
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise InvalidInput(f"cannot write --out {path!r}: its directory does not exist")


def _emit(args, text: str):
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInput(f"cannot write --out {args.out!r}: {exc}") from None
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _verdict(passed: bool, message: str) -> int:
    print(f"{'PASS' if passed else 'FAIL'}: {message}")
    return 0 if passed else 1


def cmd_coeffs(args) -> int:
    n = _run_field("max_degree", args.max_degree)
    closed = series.closed_form_series(n)
    rows = series.series_table(closed)
    matches = series.recurrence_series(n) == closed
    if args.format == "csv":
        _emit(args, series.table_to_csv(rows))
    else:
        blob = series.table_to_json(rows)
        blob["max_degree"] = n
        blob["recurrence_matches_closed_form"] = matches
        _emit(args, json.dumps(blob, indent=2))
    return _verdict(matches, f"{len(rows)} terms through degree {n}; "
                             "recurrence and closed form "
                             + ("agree" if matches else "DISAGREE"))


@contextlib.contextmanager
def _double_range(stage: str):
    """Raise floating-point errors inside the block: a value that leaves the
    double range there makes the input invalid, and the error names the stage."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise InvalidInput(f"{stage} not finite in double precision ({exc}); "
                           "the input is out of range") from None


def _within_budget(nbytes: int, what: str):
    """Refuse the input before an array of nbytes is allocated past MAX_ARRAY_BYTES."""
    if nbytes > MAX_ARRAY_BYTES:
        raise InvalidInput(f"{what} needs {nbytes / 2**30:.2f} GiB "
                           f"(limit {MAX_ARRAY_BYTES / 2**30:g} GiB)")


def _series(cfg, route):
    """route(ops) on the Taylor-route operators r_n(v), each stage in the double range."""
    with _double_range("curvature operators r_n(v)"):
        ops = curvature_operators(cfg["model"], cfg["point"], cfg["vector"],
                                  max(0, cfg["max_degree"] - 2))
        if not np.all(np.isfinite(ops)):  # einsum raises no floating-point errors
            raise FloatingPointError("non-finite value")
    with _double_range("series sum"):
        return route(ops)


def _series_and_oracle(cfg, v, route):
    """_series(cfg, route) and dexp_oracle at the velocity v, one (d,) or a batch
    (B, d), with the oracle's node store checked before either runs."""
    d, steps, batch = cfg["model"].dimension, cfg["steps"], 1 if v.ndim == 1 else len(v)
    _within_budget(dexp_oracle_bytes(d, steps, batch), f"ODE oracle node store ({batch} x "
                   f"{block_steps(steps)}-step block in dimension {d})")
    out = _series(cfg, route)
    with _double_range("ODE oracle"):
        return out, dexp_oracle(cfg["model"], cfg["point"], v, steps)


def cmd_eval(cfg: dict) -> tuple[dict, bool, str]:
    n = cfg["max_degree"]
    closed, recur = _series(cfg, lambda ops: (evaluate_closed_form(ops, max_degree=n),
                                              evaluate_recurrence(ops, max_degree=n)))
    dist = operator_distance(closed.operator, recur.operator)
    tol = float(1e-12 * (1.0 + np.linalg.norm(closed.operator.matrix)))
    return ({"max_degree": n, "closed_form": closed.to_json(), "recurrence": recur.to_json(),
             "distance": dist, "tolerance": tol},
            dist <= tol, f"closed-form vs recurrence distance {dist:.3e} (tol {tol:.1e})")


def cmd_verify(cfg: dict) -> tuple[dict, bool, str]:
    n = cfg["max_degree"]
    ev, oracle_op = _series_and_oracle(cfg, cfg["vector"],
                                       lambda ops: evaluate_closed_form(ops, max_degree=n))
    dist = operator_distance(ev.operator, oracle_op)
    tol = cfg["tolerance"] if cfg["tolerance"] is not None else 1e-6
    return ({"max_degree": n, "steps": cfg["steps"], "series": ev.to_json(),
             "oracle": oracle_op.to_json(), "distance": dist, "tolerance": tol},
            dist <= tol, f"series vs ODE oracle distance {dist:.3e} (tol {tol:.1e})")


def cmd_convergence(cfg: dict) -> tuple[dict, bool, str]:
    n = cfg["max_degree"]
    t_values = cfg["t_values"]
    comps, oracle_ops = _series_and_oracle(cfg, np.outer(t_values, cfg["vector"]),
                                           lambda ops: closed_form_components(ops, max_degree=n))
    rows = []
    for t, oracle_op in zip(t_values, oracle_ops):
        truncated = sum(t**k * comp for k, comp in enumerate(comps))
        distance = float(np.linalg.norm(truncated - oracle_op.matrix))
        floor = float(EPS * math.sqrt(cfg["steps"]) * (1.0 + np.linalg.norm(truncated)))
        rows.append({"t": t, "distance": distance, "floor": floor,
                     "fitted": distance >= FIT_ABOVE_FLOOR * floor})

    fitted = [r for r in rows if r["fitted"]]
    degenerate = len(fitted) < 2
    used = f"{len(fitted)} of {len(rows)} distances {FIT_ABOVE_FLOOR:g}x above their floor"
    if degenerate:
        slope, passed, message = None, True, f"{used}; slope test degenerate"
    else:
        slope = float(np.polyfit(np.log([r["t"] for r in fitted]),
                                 np.log([r["distance"] for r in fitted]), 1)[0])
        passed = slope >= n + 0.5
        message = f"fitted remainder slope {slope:.2f} through {used} (needs >= {n + 0.5})"
    return ({"max_degree": n, "rows": rows, "slope": slope, "degenerate": degenerate},
            passed, message)


def cmd_lemma2(cfg: dict) -> tuple[dict, bool, str]:
    if cfg["n"] is None:
        raise InvalidInput("lemma2 needs a derivative order: config field 'n' or --n")
    order, d, steps = cfg["n"], cfg["model"].dimension, cfg["steps"]
    _within_budget(stencil_bytes(d, steps),  # 13 geodesics, one per stencil sample
                   f"stencil node store (13 x {block_steps(steps)}-step block in dimension {d})")
    if order >= 2:  # the dense prediction is n (n - 1) r_(n-2) on curvature_jet(n - 2)
        _within_budget(curvature_jet_bytes(d, order - 2),
                       f"dense prediction for order {order} in dimension {d}")
    with _double_range("transported curvature derivatives"):
        check = curvature_derivative_table(cfg["model"], cfg["point"], cfg["vector"], [order],
                                           steps=steps, fd_step=cfg["fd_step"])[order]
    tol = cfg["tolerance"] if cfg["tolerance"] is not None else 1e-5
    if check.floor > tol:
        raise InvalidInput(f"derivative order {order}: the rounding floor {check.floor:.3e} "
                           f"exceeds the tolerance {tol:.1e}; the check cannot resolve it")
    return ({**check.to_json(), "tolerance": tol}, check.distance <= tol,
            f"derivative order {order}: distance {check.distance:.3e} (tol {tol:.1e})")


# command -> (check, help, flags beyond --config, --seed, --steps and --out)
CHECKS = {
    "eval": (cmd_eval, "closed form vs recurrence on a manifold", {}),
    "verify": (cmd_verify, "series vs the Jacobi-field ODE oracle",
               {"--tolerance": {"type": float}}),
    "convergence": (cmd_convergence, "remainder decay slope over velocity scalings",
                    {"--t-values": {"type": float, "nargs": "+"}}),
    "lemma2": (cmd_lemma2, "transported-curvature derivatives vs jet prediction",
               {"--n": {"type": int}, "--fd-step": {"type": float},
                "--tolerance": {"type": float}}),
}


def run_check(args) -> int:
    """Load the config, run the command's check, write its artifact and verdict line."""
    cfg = _load_config(args)
    fields, passed, message = CHECKS[args.command][0](cfg)
    _emit(args, json.dumps({"command": args.command, "manifold": cfg["model"].name,
                            **fields, "pass": passed}, indent=2))
    return _verdict(passed, message)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="dexpseries",
        description="Taylor series of the transported differential of the exponential "
                    "map: exact coefficient tables, numerical evaluation, and ODE "
                    "cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="emit the exact coefficient table")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_coeffs)

    for name, (_, help_text, flags) in CHECKS.items():
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--config", required=True, help="JSON run configuration")
        q.add_argument("--seed", type=int, help="override the manifold seed")
        q.add_argument("--steps", type=int, help="override the integrator step count")
        q.add_argument("--out", help="write the JSON artifact here instead of stdout")
        for flag, kwargs in flags.items():
            q.add_argument(flag, **kwargs)
        q.set_defaults(func=run_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except (InvalidInput, ChartDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
