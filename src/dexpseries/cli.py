"""Command-line driver.

Subcommands:

* coeffs       -- exact coefficient table of the operator series, CSV or JSON,
                  with a built-in closed-form/recurrence equality check
* eval         -- evaluate the truncated series both ways on a configured
                  manifold and report their distance
* verify       -- series against the Jacobi-field ODE oracle
* convergence  -- remainder decay: fitted log-log slope of the series/oracle
                  distance over a range of velocity scalings
* lemma2       -- t-derivatives of the transported curvature operator against
                  the scaled curvature-derivative operators

eval, verify and convergence get the curvature operators r_n(v) by Taylor-mode
propagation along the geodesic (taylor.curvature_operators); lemma2 checks the
transported curvature against the dense covariant-derivative tower.

Exit codes: 0 all embedded checks pass, 1 a check fails, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import manifolds, series
from .evaluate import closed_form_components, evaluate_closed_form, evaluate_recurrence
from .geometry import ChartDomainError
from .oracle import curvature_derivative_check, dexp_oracle
from .taylor import curvature_operators
from .tensors import operator_distance

MAX_DEGREE_CAP = 12
MIN_STEPS = 100
DEFAULT_T_VALUES = (0.05, 0.1, 0.2, 0.3, 0.4)


class InvalidInput(ValueError):
    pass


def _integer(value, name: str) -> int:
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if not number.is_integer():
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    return int(number)


def _positive(value, name: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInput(f"{name} must be a number, got {value!r}")
    if not (math.isfinite(number) and number > 0.0):
        raise InvalidInput(f"{name} must be positive and finite, got {value!r}")
    return number


def _finite_vector(value, name: str, dimension: int) -> np.ndarray:
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInput(f"{name} must be a list of numbers")
    if out.shape != (dimension,):
        raise InvalidInput(f"{name} must have {dimension} components")
    if not np.all(np.isfinite(out)):
        raise InvalidInput(f"{name} components must be finite")
    return out


def _load_config(args) -> dict:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read config {args.config!r}: {exc}")

    cfg = dict(raw)
    manifold_cfg = dict(cfg.get("manifold") or {})
    if getattr(args, "seed", None) is not None:
        manifold_cfg["seed"] = args.seed
    try:
        model = manifolds.from_config(manifold_cfg)
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidInput(f"bad manifold config: {exc}")

    point = _finite_vector(cfg.get("point", [0.0] * model.dimension), "point", model.dimension)
    vector = _finite_vector(cfg.get("vector", []), "vector", model.dimension)

    out = {
        "model": model,
        "point": point,
        "vector": vector,
        "max_degree": cfg.get("max_degree", 10),
        "steps": cfg.get("steps", 2000),
        "fd_step": cfg.get("fd_step", 1e-2),
        "tolerance": cfg.get("tolerance"),
        "t_values": cfg.get("t_values"),
        "n": cfg.get("n"),
    }
    if getattr(args, "steps", None) is not None:
        out["steps"] = args.steps
    if getattr(args, "tolerance", None) is not None:
        out["tolerance"] = args.tolerance
    if getattr(args, "fd_step", None) is not None:
        out["fd_step"] = args.fd_step
    if getattr(args, "n", None) is not None:
        out["n"] = args.n
    if getattr(args, "t_values", None):
        out["t_values"] = args.t_values

    out["max_degree"] = _integer(out["max_degree"], "max_degree")
    out["steps"] = _integer(out["steps"], "steps")
    out["fd_step"] = _positive(out["fd_step"], "fd_step")
    if out["tolerance"] is not None:
        out["tolerance"] = _positive(out["tolerance"], "tolerance")
    if out["n"] is not None:
        out["n"] = _integer(out["n"], "n")
    if out["max_degree"] > MAX_DEGREE_CAP or out["max_degree"] < 0:
        raise InvalidInput(f"max_degree must lie in 0..{MAX_DEGREE_CAP}")
    if out["steps"] < MIN_STEPS:
        raise InvalidInput(f"steps must be at least {MIN_STEPS}")

    norm = float(np.linalg.norm(vector))
    if norm > 1.0:
        print(f"warning: |vector| = {norm:.3f} > 1; the truncated series is not "
              "trustworthy there", file=sys.stderr)
    elif norm > 0.5:
        print(f"note: |vector| = {norm:.3f} > 0.5, outside the recommended envelope",
              file=sys.stderr)
    return out


def _emit(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _verdict(passed: bool, message: str) -> int:
    print(f"{'PASS' if passed else 'FAIL'}: {message}")
    return 0 if passed else 1


def cmd_coeffs(args) -> int:
    n = args.max_degree
    if n > MAX_DEGREE_CAP or n < 0:
        raise InvalidInput(f"max_degree must lie in 0..{MAX_DEGREE_CAP}")
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


def _operators(cfg) -> list[np.ndarray]:
    return curvature_operators(cfg["model"], cfg["point"], cfg["vector"],
                               max(0, cfg["max_degree"] - 2))


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    n = cfg["max_degree"]
    ops = _operators(cfg)
    closed = evaluate_closed_form(ops, max_degree=n)
    recur = evaluate_recurrence(ops, max_degree=n)
    dist = operator_distance(closed.operator, recur.operator)
    tol = float(1e-12 * (1.0 + np.linalg.norm(closed.operator.matrix)))
    passed = bool(dist <= tol)
    _emit(args, json.dumps({
        "command": "eval",
        "manifold": cfg["model"].name,
        "max_degree": n,
        "closed_form": closed.to_json(),
        "recurrence": recur.to_json(),
        "distance": dist,
        "tolerance": tol,
        "pass": passed,
    }, indent=2))
    return _verdict(passed, f"closed-form vs recurrence distance {dist:.3e} (tol {tol:.1e})")


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    n = cfg["max_degree"]
    ev = evaluate_closed_form(_operators(cfg), max_degree=n)
    oracle_op = dexp_oracle(cfg["model"], cfg["point"], cfg["vector"], cfg["steps"])
    dist = operator_distance(ev.operator, oracle_op)
    tol = cfg["tolerance"] if cfg["tolerance"] is not None else 1e-6
    passed = dist <= tol
    _emit(args, json.dumps({
        "command": "verify",
        "manifold": cfg["model"].name,
        "max_degree": n,
        "steps": cfg["steps"],
        "series": ev.to_json(),
        "oracle": oracle_op.to_json(),
        "distance": dist,
        "tolerance": tol,
        "pass": passed,
    }, indent=2))
    return _verdict(passed, f"series vs ODE oracle distance {dist:.3e} (tol {tol:.1e})")


def cmd_convergence(args) -> int:
    cfg = _load_config(args)
    n = cfg["max_degree"]
    t_values = cfg["t_values"] or DEFAULT_T_VALUES
    if not isinstance(t_values, (list, tuple)):
        raise InvalidInput("t_values must be a list of numbers")
    t_values = [_positive(t, "t value") for t in t_values]
    if any(t > 0.5 for t in t_values):
        raise InvalidInput("t values must lie in (0, 0.5]")

    comps = closed_form_components(_operators(cfg), max_degree=n)
    rows = []
    for t in sorted(t_values):
        truncated = sum(t**k * comp for k, comp in enumerate(comps))
        oracle_op = dexp_oracle(cfg["model"], cfg["point"], t * cfg["vector"], cfg["steps"])
        rows.append({"t": t, "distance": float(np.linalg.norm(truncated - oracle_op.matrix))})

    distances = np.array([r["distance"] for r in rows])
    degenerate = bool(np.all(distances < 1e-12))
    if degenerate:
        slope = None
        passed = True
        message = "all distances below 1e-12; slope test degenerate"
    else:
        slope = float(np.polyfit(np.log([r["t"] for r in rows]), np.log(distances), 1)[0])
        passed = slope >= n + 0.5
        message = f"fitted remainder slope {slope:.2f} (needs >= {n + 0.5})"
    _emit(args, json.dumps({
        "command": "convergence",
        "manifold": cfg["model"].name,
        "max_degree": n,
        "rows": rows,
        "slope": slope,
        "degenerate": degenerate,
        "pass": passed,
    }, indent=2))
    return _verdict(passed, message)


def cmd_lemma2(args) -> int:
    cfg = _load_config(args)
    if cfg["n"] is None:
        raise InvalidInput("lemma2 needs a derivative order: config field 'n' or --n")
    order = cfg["n"]
    if not 0 <= order <= 4:
        raise InvalidInput("derivative order must lie in 0..4")
    check = curvature_derivative_check(cfg["model"], cfg["point"], cfg["vector"], order,
                                       steps=cfg["steps"], fd_step=cfg["fd_step"])
    tol = cfg["tolerance"] if cfg["tolerance"] is not None else 1e-5
    passed = check.distance <= tol
    blob = check.to_json()
    blob.update({"command": "lemma2", "manifold": cfg["model"].name,
                 "tolerance": tol, "pass": passed})
    _emit(args, json.dumps(blob, indent=2))
    return _verdict(passed, f"derivative order {order}: distance {check.distance:.3e} "
                            f"(tol {tol:.1e})")


def _build_parser() -> argparse.ArgumentParser:
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

    def config_command(name, help_text, func, extra=()):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--config", required=True, help="JSON run configuration")
        q.add_argument("--seed", type=int, help="override the manifold seed")
        q.add_argument("--steps", type=int, help="override the integrator step count")
        q.add_argument("--out", help="write the JSON artifact here instead of stdout")
        for add in extra:
            add(q)
        q.set_defaults(func=func)

    config_command("eval", "closed form vs recurrence on a manifold", cmd_eval)
    config_command("verify", "series vs the Jacobi-field ODE oracle", cmd_verify,
                   extra=(lambda q: q.add_argument("--tolerance", type=float),))
    config_command("convergence", "remainder decay slope over velocity scalings",
                   cmd_convergence,
                   extra=(lambda q: q.add_argument("--t-values", type=float, nargs="+"),))
    config_command("lemma2", "transported-curvature derivatives vs jet prediction",
                   cmd_lemma2,
                   extra=(lambda q: q.add_argument("--n", type=int),
                          lambda q: q.add_argument("--fd-step", type=float),
                          lambda q: q.add_argument("--tolerance", type=float)))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChartDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
