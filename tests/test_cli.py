import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dexpseries
from dexpseries.cli import main

SPHERE_CONFIG = {
    "manifold": {"kind": "sphere", "dimension": 2, "radius": 1.0},
    "point": [0.1, -0.05],
    "vector": [0.18, 0.12],
    "max_degree": 8,
    "steps": 400,
}

POLY_CONFIG = {
    "manifold": {"kind": "polynomial", "dimension": 3, "degree": 3, "scale": 0.5, "seed": 42},
    "point": [0.0, 0.0, 0.0],
    "vector": [0.12, -0.1, 0.08],
    "max_degree": 8,
    "steps": 400,
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_coeffs_csv_golden_table(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["coeffs", "--max-degree", "6", "--out", str(out)]) == 0
    text = out.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "word,degree,numerator,denominator"
    assert len(lines) == 14  # header + 13 terms
    import csv
    import io

    table = {row[0]: (int(row[2]), int(row[3])) for row in csv.reader(io.StringIO(text)) if row[0] != "word"}
    assert table == {
        "[]": (1, 1),
        "[0]": (1, 6),
        "[1]": (1, 12),
        "[2]": (1, 40),
        "[0,0]": (1, 120),
        "[3]": (1, 180),
        "[1,0]": (1, 180),
        "[0,1]": (1, 360),
        "[4]": (1, 1008),
        "[2,0]": (1, 504),
        "[1,1]": (1, 504),
        "[0,2]": (1, 1680),
        "[0,0,0]": (1, 5040),
    }
    assert "PASS" in capsys.readouterr().out


def test_coeffs_json(capsys):
    assert main(["coeffs", "--max-degree", "2", "--format", "json"]) == 0
    out = capsys.readouterr().out
    blob = json.loads(out[: out.rindex("}") + 1])
    assert blob["recurrence_matches_closed_form"] is True
    assert blob["rows"] == [
        {"word": [], "degree": 0, "numerator": 1, "denominator": 1},
        {"word": [0], "degree": 2, "numerator": 1, "denominator": 6},
    ]


def test_coeffs_degree_cap():
    assert main(["coeffs", "--max-degree", "13"]) == 2


def test_eval_flat_identity(tmp_path, capsys):
    cfg = {
        "manifold": {"kind": "flat", "dimension": 2},
        "point": [0.0, 0.0],
        "vector": [0.2, 0.1],
        "max_degree": 6,
        "steps": 200,
    }
    out = tmp_path / "eval.json"
    assert main(["eval", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["pass"] is True
    assert blob["distance"] == 0.0
    assert np.allclose(blob["closed_form"]["operator"]["matrix"], np.eye(2))


def test_eval_polynomial(tmp_path):
    out = tmp_path / "eval.json"
    assert main(["eval", "--config", write_config(tmp_path, POLY_CONFIG), "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["distance"] <= 1e-12 * (1 + np.linalg.norm(blob["closed_form"]["operator"]["matrix"]))
    assert blob["closed_form"]["per_degree_norms"][1] == 0.0


def test_verify_sphere(tmp_path):
    out = tmp_path / "verify.json"
    code = main(["verify", "--config", write_config(tmp_path, SPHERE_CONFIG),
                 "--tolerance", "1e-8", "--out", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["pass"] is True
    assert blob["distance"] <= 1e-8


def test_verify_fail_exit_code(tmp_path):
    # an absurdly tight tolerance must flip the exit code to 1
    code = main(["verify", "--config", write_config(tmp_path, POLY_CONFIG),
                 "--tolerance", "1e-30"])
    assert code == 1


def test_verify_steps_override_and_floor(tmp_path):
    cfg_path = write_config(tmp_path, SPHERE_CONFIG)
    assert main(["verify", "--config", cfg_path, "--steps", "50"]) == 2


def test_convergence_sphere(tmp_path):
    cfg = dict(SPHERE_CONFIG)
    cfg["max_degree"] = 6
    cfg["vector"] = [0.5, 0.35]
    cfg["steps"] = 600
    out = tmp_path / "conv.json"
    code = main(["convergence", "--config", write_config(tmp_path, cfg),
                 "--t-values", "0.1", "0.2", "0.3", "0.4", "--out", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["slope"] >= 6.5
    assert blob["degenerate"] is False


def test_convergence_flat_degenerate(tmp_path):
    cfg = {
        "manifold": {"kind": "flat", "dimension": 2},
        "point": [0.0, 0.0],
        "vector": [0.3, 0.1],
        "max_degree": 4,
        "steps": 200,
    }
    out = tmp_path / "conv.json"
    assert main(["convergence", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["degenerate"] is True and blob["pass"] is True


def test_convergence_rejects_bad_t(tmp_path):
    assert main(["convergence", "--config", write_config(tmp_path, SPHERE_CONFIG),
                 "--t-values", "0.7"]) == 2


def test_lemma2_low_orders(tmp_path):
    cfg = dict(POLY_CONFIG)
    cfg["steps"] = 200
    path = write_config(tmp_path, cfg)
    for n in (0, 1):
        assert main(["lemma2", "--config", path, "--n", str(n)]) == 0


def test_lemma2_order_three(tmp_path):
    cfg = dict(POLY_CONFIG)
    cfg["vector"] = [0.15, -0.1, 0.1]
    cfg["steps"] = 300
    out = tmp_path / "lemma2.json"
    code = main(["lemma2", "--config", write_config(tmp_path, cfg), "--n", "3",
                 "--out", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["distance"] <= 1e-5
    assert blob["pass"] is True


def test_lemma2_requires_order(tmp_path):
    assert main(["lemma2", "--config", write_config(tmp_path, POLY_CONFIG)]) == 2
    assert main(["lemma2", "--config", write_config(tmp_path, POLY_CONFIG), "--n", "7"]) == 2


# sphere of radius 0.5, vector [x, 0.5]: the stencil's rounding floor grows as
# |v|^n, so from x = 1e3 on an order-4 distance, and from x = 1e6 on an order-2
# one, is below what double precision resolves at the default tolerance 1e-5
@pytest.mark.parametrize("x, n, code", [(0.2, 2, 0), (0.2, 4, 0), (1e3, 2, 0), (1e3, 4, 2),
                                        (1e6, 2, 2), (1e20, 2, 2)])
def test_lemma2_below_its_rounding_floor_is_unresolved(tmp_path, capsys, x, n, code):
    cfg = {"manifold": {"kind": "sphere", "dimension": 2, "radius": 0.5},
           "point": [0.0, 0.0], "vector": [x, 0.5], "steps": 100}
    out = tmp_path / "lemma2.json"
    capsys.readouterr()
    assert main(["lemma2", "--config", write_config(tmp_path, cfg), "--n", str(n),
                 "--out", str(out)]) == code
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    if code == 2:
        assert len(errors) == 1 and "cannot resolve" in errors[0], errors
        assert not out.exists()
    else:
        blob = json.loads(out.read_text())
        assert not errors and 0.0 < blob["floor"] <= blob["tolerance"]
        assert blob["distance"] <= blob["tolerance"]


def test_lemma2_perturbed_prediction_still_fails(tmp_path, monkeypatch):
    # at |v| = 0.2 the floor is far below the tolerance, so a prediction off by
    # one part in 1e3 is a FAIL, not an unresolved check
    import dexpseries.oracle

    cfg = {"manifold": {"kind": "sphere", "dimension": 2, "radius": 0.5},
           "point": [0.0, 0.0], "vector": [0.12, 0.16], "steps": 100}
    argv = ["lemma2", "--config", write_config(tmp_path, cfg), "--n", "2"]
    assert main(argv) == 0
    exact = dexpseries.oracle.jacobi_operator
    monkeypatch.setattr(dexpseries.oracle, "jacobi_operator",
                        lambda *args: (1 + 1e-3) * exact(*args))
    assert main(argv) == 1


# the rows left out sit at the rounding floor; fitted too, they pull the slope
# under N + 0.5 (to 5.53 and 4.23)
@pytest.mark.parametrize("cfg, slope, fitted", [
    (dict(POLY_CONFIG, max_degree=6, steps=300), 6.98, [False, False, True, True, True]),
    ({"manifold": {"kind": "hyperbolic", "dimension": 2}, "point": [0.0, 0.0],
      "vector": [0.2, 0.15], "max_degree": 6, "steps": 300}, 8.00,
     [False, False, False, True, True]),
], ids=["polynomial", "hyperbolic"])
def test_convergence_fits_only_rows_above_their_floor(tmp_path, cfg, slope, fitted):
    out = tmp_path / "conv.json"
    assert main(["convergence", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert [row["fitted"] for row in blob["rows"]] == fitted
    assert all(row["floor"] > 0.0 for row in blob["rows"])
    assert blob["slope"] == pytest.approx(slope, abs=0.01)


def test_convergence_perturbed_operator_still_fails(tmp_path, monkeypatch):
    # r_3 off by one part in 1e3 leaves a degree-5 remainder: slope 6.24 < 6.5
    import dexpseries.cli

    cfg = dict(POLY_CONFIG, vector=[0.3, -0.25, 0.2], max_degree=6, steps=300)
    argv = ["convergence", "--config", write_config(tmp_path, cfg)]
    assert main(argv) == 0
    exact = dexpseries.cli.curvature_operators

    def perturbed(*args):
        ops = exact(*args).copy()
        ops[3] *= 1 + 1e-3
        return ops

    monkeypatch.setattr(dexpseries.cli, "curvature_operators", perturbed)
    assert main(argv) == 1


def test_seed_override_changes_result(tmp_path):
    path = write_config(tmp_path, POLY_CONFIG)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["eval", "--config", path, "--out", str(out_a)]) == 0
    assert main(["eval", "--config", path, "--seed", "1", "--out", str(out_b)]) == 0
    mat_a = json.loads(out_a.read_text())["closed_form"]["operator"]["matrix"]
    mat_b = json.loads(out_b.read_text())["closed_form"]["operator"]["matrix"]
    assert not np.allclose(mat_a, mat_b)


@pytest.mark.parametrize("kind", ["flat", "sphere", "hyperbolic"])
def test_seed_flag_on_a_seedless_manifold_names_the_flag(tmp_path, capsys, kind):
    cfg = {"manifold": {"kind": kind, "dimension": 2}, "vector": [0.1, 0.2], "max_degree": 6}
    line = assert_invalid(["eval", "--config", write_config(tmp_path, cfg), "--seed", "3"],
                          capsys)
    assert "--seed" in line and repr(kind) in line and "config" not in line, line


def test_seed_field_in_a_sphere_config_is_unused(tmp_path, capsys):
    cfg = {"manifold": {"kind": "sphere", "dimension": 2, "seed": 3}, "vector": [0.1, 0.2]}
    line = assert_invalid(["eval", "--config", write_config(tmp_path, cfg)], capsys)
    assert line == "error: bad manifold config: unused manifold config fields: ['seed']", line


@pytest.mark.parametrize("command, extra", [("verify", []), ("convergence", []),
                                            ("lemma2", ["--n", "2"])])
def test_flat_line_end_to_end(tmp_path, command, extra):
    # d = 1, the flat floor: identity operator, zero distances, no -0.0 printed
    cfg = {"manifold": {"kind": "flat", "dimension": 1}, "point": [-0.3], "vector": [0.2],
           "max_degree": 6, "steps": 200}
    out = tmp_path / "out.json"
    assert main([command, "--config", write_config(tmp_path, cfg), *extra,
                 "--out", str(out)]) == 0
    text = out.read_text()
    blob = json.loads(text)
    assert blob["pass"] is True and "-0.0" not in text
    if command == "verify":
        assert blob["series"]["operator"]["matrix"] == blob["oracle"]["matrix"] == [[1.0]]
        assert blob["distance"] == 0.0
    elif command == "convergence":
        assert [row["distance"] for row in blob["rows"]] == [0.0] * 5
    else:
        assert blob["lhs"]["matrix"] == blob["rhs"]["matrix"] == [[0.0]]
        assert blob["distance"] == 0.0


def test_cached_parser_keeps_no_state_between_commands(tmp_path):
    # the parser is built once per process; a --seed of one command must not
    # carry over into the next
    from dexpseries.cli import _build_parser

    path = write_config(tmp_path, POLY_CONFIG)
    seeded, cached, fresh = (tmp_path / name for name in ("seeded.json", "cached.json",
                                                          "fresh.json"))
    assert main(["eval", "--config", path, "--seed", "5", "--out", str(seeded)]) == 0
    assert main(["eval", "--config", path, "--out", str(cached)]) == 0
    _build_parser.cache_clear()
    assert main(["eval", "--config", path, "--out", str(fresh)]) == 0
    assert cached.read_text() == fresh.read_text() != seeded.read_text()


def test_vector_norm_warning(tmp_path, capsys):
    cfg = dict(SPHERE_CONFIG)
    cfg["vector"] = [0.9, 0.8]
    cfg["max_degree"] = 4
    assert main(["eval", "--config", write_config(tmp_path, cfg)]) == 0
    assert "warning" in capsys.readouterr().err


# the run configuration shown in README
README_CONFIG = {
    "manifold": {"kind": "polynomial", "dimension": 3, "degree": 3, "scale": 0.5, "seed": 42},
    "point": [0.0, 0.0, 0.0],
    "vector": [0.12, -0.10, 0.08],
    "max_degree": 6,
    "steps": 2000,
}

# each check command's own artifact keys, between "command"/"manifold" and "pass"
ARTIFACT_FIELDS = {
    "eval": ["max_degree", "closed_form", "recurrence", "distance", "tolerance"],
    "verify": ["max_degree", "steps", "series", "oracle", "distance", "tolerance"],
    "convergence": ["max_degree", "rows", "slope", "degenerate"],
    "lemma2": ["order", "lhs", "rhs", "distance", "floor", "tolerance"],
}


@pytest.mark.parametrize("command", sorted(ARTIFACT_FIELDS))
def test_check_artifact_names_its_command_and_verdict(tmp_path, capsys, command):
    # perfbench dispatches on "command"; --steps 100 keeps the oracle runs short
    argv = [command, "--config", write_config(tmp_path, README_CONFIG), "--steps", "100"]
    capsys.readouterr()
    code = main(argv + (["--n", "2"] if command == "lemma2" else []))
    out = capsys.readouterr().out
    blob = json.loads(out[: out.rindex("}") + 1])
    assert list(blob) == ["command", "manifold", *ARTIFACT_FIELDS[command], "pass"]
    assert blob["command"] == command and blob["manifold"] == "polynomial"
    last = out.strip().splitlines()[-1]
    assert last.startswith("PASS:") == (blob["pass"] is True) == (code == 0), last


def test_missing_config_is_invalid_input(tmp_path):
    assert main(["eval", "--config", str(tmp_path / "nope.json")]) == 2


def test_runs_are_deterministic(tmp_path):
    path = write_config(tmp_path, POLY_CONFIG)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["eval", "--config", path, "--out", str(out_a)]) == 0
    assert main(["eval", "--config", path, "--out", str(out_b)]) == 0
    assert out_a.read_text() == out_b.read_text()


def _child_env() -> dict:
    """The environment of a child process that imports the package this process imported."""
    package_root = str(pathlib.Path(dexpseries.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "dexpseries", "coeffs", "--max-degree", "4"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert result.returncode == 0
    assert "PASS" in result.stdout


IMPORT_PROBE = """
import json, sys
import dexpseries.cli
print(json.dumps({f"{name}.{attr}": value.cache_info().currsize
                  for name, module in sorted(sys.modules.items()) if name.startswith("dexpseries")
                  for attr, value in vars(module).items()
                  if hasattr(value, "cache_info") and value.__module__ == name}))
"""


def test_import_builds_no_cached_table():
    # every lru_cache of the package is still empty after `import dexpseries.cli` in a
    # fresh interpreter: the tables are built by the first run that needs them, so
    # importing costs the commands that never use them nothing
    result = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                            text=True, env=_child_env(), check=True)
    sizes = json.loads(result.stdout)
    assert {"dexpseries.polyjet.product_table", "dexpseries.polyjet.quotient_table",
            "dexpseries.polyjet.monomial_exponents",
            "dexpseries.manifolds._poly_tables", "dexpseries.manifolds._pattern_table"} <= set(sizes)
    assert {name: size for name, size in sizes.items() if size} == {}


def assert_invalid(argv, capsys) -> str:
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["eval", "coeffs"])
def test_unwritable_out_is_invalid(tmp_path, capsys, command, target):
    out = str(tmp_path / "missing" / "x.json" if target == "missing-directory" else tmp_path)
    argv = (["eval", "--config", write_config(tmp_path, POLY_CONFIG)] if command == "eval"
            else ["coeffs", "--max-degree", "4"])
    line = assert_invalid(argv + ["--out", out], capsys)
    assert line.startswith("error: cannot write --out") and out in line, line


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command, work", [("eval", "dexpseries.cli.curvature_operators"),
                                           ("coeffs", "dexpseries.series.closed_form_series")])
def test_unwritable_out_is_refused_before_the_work(tmp_path, capsys, monkeypatch,
                                                   command, work, target):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{work} ran before --out was checked")

    monkeypatch.setattr(work, forbidden)
    out = str(tmp_path / "missing" / "x.json" if target == "missing-directory" else tmp_path)
    argv = (["eval", "--config", write_config(tmp_path, POLY_CONFIG)] if command == "eval"
            else ["coeffs", "--max-degree", "4"])
    line = assert_invalid(argv + ["--out", out], capsys)
    assert line.startswith(f"error: cannot write --out {out!r}: "), line


# a run field is a JSON integer or number: bools, numeric strings and, for the
# integer fields, integer-valued floats are refused instead of being converted
@pytest.mark.parametrize("value", ["ten", 8.5, None, True, "6", "1e1", 8.0])
def test_non_integer_max_degree_is_invalid(tmp_path, capsys, value):
    cfg = dict(POLY_CONFIG, max_degree=value)
    assert_invalid(["eval", "--config", write_config(tmp_path, cfg)], capsys)


@pytest.mark.parametrize("value", ["many", 400.5, True, "200", 400.0])
def test_non_integer_steps_is_invalid(tmp_path, capsys, value):
    cfg = dict(SPHERE_CONFIG, steps=value)
    assert_invalid(["verify", "--config", write_config(tmp_path, cfg)], capsys)


# n true ran lemma2 at order 1; tolerance true passed it at 1.0, six orders of
# magnitude looser than the default
@pytest.mark.parametrize("field, value", [("n", True), ("n", "3"), ("n", 3.0),
                                          ("tolerance", True), ("tolerance", "0.01"),
                                          ("fd_step", True), ("fd_step", "0.01")])
def test_non_number_lemma2_field_is_invalid(tmp_path, capsys, field, value):
    cfg = {**POLY_CONFIG, "steps": 150, "n": 1, field: value}
    assert_invalid(["lemma2", "--config", write_config(tmp_path, cfg)], capsys)


@pytest.mark.parametrize("field, values", [
    pytest.param("vector", [0.1, float("nan"), 0.0], id="vector"),
    pytest.param("point", [0.1, float("nan"), 0.0], id="point"),
    pytest.param("vector", [True, False, 0], id="vector-bools"),
    pytest.param("vector", [0.1, "0.1", 0.0], id="vector-string"),
    pytest.param("point", [False, 0.0, 0.0], id="point-bool"),
    pytest.param("point", [0.1, "0", 0.0], id="point-string"),
    pytest.param("t_values", [0.1, True, 0.3], id="t_values-bool"),
    pytest.param("t_values", [0.1, "0.2", 0.3], id="t_values-string"),
])
def test_nan_component_is_invalid(tmp_path, capsys, field, values):
    cfg = dict(POLY_CONFIG, **{field: values})
    command = "convergence" if field == "t_values" else "eval"
    assert_invalid([command, "--config", write_config(tmp_path, cfg)], capsys)


# one t value, two equal ones or none leave the log-log slope underdetermined
@pytest.mark.parametrize("t_values, flags", [([0.5], []), ([0.5, 0.5], []), ([], []),
                                             (None, ["--t-values", "0.5"])],
                         ids=["one", "two-equal", "empty", "one-flag"])
def test_convergence_needs_two_distinct_t_values(tmp_path, capsys, t_values, flags):
    cfg = dict(POLY_CONFIG, vector=[0.3, -0.25, 0.2], max_degree=4)
    if t_values is not None:
        cfg["t_values"] = t_values
    line = assert_invalid(["convergence", "--config", write_config(tmp_path, cfg)] + flags,
                          capsys)
    assert "t_values" in line


def test_lemma2_zero_fd_step_is_invalid(tmp_path, capsys):
    cfg = dict(POLY_CONFIG, steps=150)
    assert_invalid(["lemma2", "--config", write_config(tmp_path, cfg), "--n", "2",
                    "--fd-step", "0"], capsys)


def test_verify_negative_tolerance_is_invalid(tmp_path, capsys):
    assert_invalid(["verify", "--config", write_config(tmp_path, SPHERE_CONFIG),
                    "--tolerance", "-1"], capsys)


# json.load reads an integer of more than 4300 digits with a plain ValueError,
# not a JSONDecodeError
@pytest.mark.parametrize("text", ["[1, 2]", json.dumps(dict(SPHERE_CONFIG, manifold="sphere")),
                                  '{"manifold": {"kind": "flat", "dimension": ' + "9" * 5000
                                  + '}, "vector": [0.1, 0.0]}'],
                         ids=["list", "string-manifold", "5000-digit-integer"])
def test_malformed_config_shape_is_invalid(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert_invalid(["eval", "--config", str(path)], capsys)


def test_unknown_config_field_is_invalid(tmp_path, capsys):
    # a misspelt max_degree would otherwise run silently at the default degree
    cfg = dict(POLY_CONFIG, max_degre=4)
    assert_invalid(["eval", "--config", write_config(tmp_path, cfg)], capsys)


def test_huge_steps_is_invalid(tmp_path, capsys):
    assert_invalid(["verify", "--config", write_config(tmp_path, SPHERE_CONFIG),
                    "--steps", str(10**30)], capsys)


def test_polynomial_degree_over_bound_is_invalid(tmp_path, capsys):
    # C(63, 3) = 39711 monomials, far past the cap on their count (degree 19 at d = 3)
    cfg = dict(POLY_CONFIG, manifold=dict(POLY_CONFIG["manifold"], degree=60))
    assert_invalid(["eval", "--config", write_config(tmp_path, cfg)], capsys)


@pytest.mark.parametrize("command", ["verify", "convergence"])
def test_christoffel_jet_over_budget_is_invalid(tmp_path, capsys, monkeypatch, command):
    # d = 50, 200 steps: the oracle's node store is refused before the Taylor route runs
    monkeypatch.setattr("dexpseries.cli.curvature_operators", _never_called)
    monkeypatch.setattr("dexpseries.cli.dexp_oracle", _never_called)
    cfg = {"manifold": {"kind": "flat", "dimension": 50}, "point": [0.0] * 50,
           "vector": [0.01] * 50, "max_degree": 12, "steps": 200}
    line = assert_invalid([command, "--config", write_config(tmp_path, cfg)], capsys)
    assert line.startswith("error: ODE oracle node store"), line


@pytest.mark.parametrize("dimension", [10, 20, 53])
def test_sphere_eval_runs_past_dimension_eight(tmp_path, capsys, dimension):
    # the Christoffel jet of these inputs needed 2.6 GiB (d = 10) and 5047 GiB (d = 20);
    # the Taylor route holds 12 d^3 doubles of Gamma series, and d = 53 is the largest
    # dimension that from_config admits
    cfg = {"manifold": {"kind": "sphere", "dimension": dimension}, "point": [0.0] * dimension,
           "vector": [0.3 / math.sqrt(dimension)] * dimension, "max_degree": 12}
    out = tmp_path / "eval.json"
    assert main(["eval", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["pass"] is True and blob["distance"] <= blob["tolerance"]


@pytest.mark.parametrize("command, extra", [("lemma2", ["--n", "2"]), ("convergence", [])])
def test_one_geodesic_of_the_batch_leaving_the_chart_is_invalid(tmp_path, capsys, command, extra):
    # the stencil samples beyond t = 0 (lemma2) and the larger t values
    # (convergence) leave |x| < 1; the others stay inside
    cfg = {"manifold": {"kind": "polynomial", "dimension": 2, "degree": 2, "scale": 0.2, "seed": 5},
           "point": [0.97, 0.0], "vector": [0.45, 0.0], "max_degree": 6, "steps": 150}
    assert_invalid([command, "--config", write_config(tmp_path, cfg)] + extra, capsys)


# json writes inf and nan as Infinity and NaN, which Python's json reads back
# (as it reads 1e400); an infinite radius would otherwise run as flat space.
# degree and seed were truncated by int(), radius and scale read by float()
BAD_MODEL_PARAMETERS = {
    "radius-inf": {"kind": "sphere", "dimension": 2, "radius": float("inf")},
    "radius-nan": {"kind": "sphere", "dimension": 2, "radius": float("nan")},
    "scale-inf": {"kind": "polynomial", "dimension": 2, "scale": float("inf")},
    "scale-minus-inf": {"kind": "polynomial", "dimension": 2, "scale": float("-inf")},
    "degree-2.5": {"kind": "polynomial", "dimension": 2, "degree": 2.5},
    "degree-true": {"kind": "polynomial", "dimension": 2, "degree": True},
    "degree-inf": {"kind": "polynomial", "dimension": 2, "degree": float("inf")},
    "seed-1.9": {"kind": "polynomial", "dimension": 2, "seed": 1.9},
    "seed-inf": {"kind": "polynomial", "dimension": 2, "seed": float("inf")},
    "seed-string": {"kind": "polynomial", "dimension": 2, "seed": "3"},
    "scale-true": {"kind": "polynomial", "dimension": 2, "scale": True},
    "scale-string": {"kind": "polynomial", "dimension": 2, "scale": "2"},
    "scale-400-digits": {"kind": "polynomial", "dimension": 2, "scale": 10**400},
    # finite, but uniform(-scale, scale) overflowed on high - low
    "scale-1e308": {"kind": "polynomial", "dimension": 2, "scale": 1e308},
    "scale-minus-1e308": {"kind": "polynomial", "dimension": 2, "scale": -1e308},
    "radius-true": {"kind": "sphere", "dimension": 2, "radius": True},
    "radius-string": {"kind": "sphere", "dimension": 2, "radius": "2"},
    "radius-400-digits": {"kind": "sphere", "dimension": 2, "radius": 10**400},
    # numpy's default_rng refused it with a message that named no field
    "seed-negative": {"kind": "polynomial", "dimension": 2, "seed": -1},
}


@pytest.mark.parametrize("command, extra", [("eval", []), ("verify", []), ("lemma2", ["--n", "2"])],
                         ids=["eval", "verify", "lemma2"])
@pytest.mark.parametrize("name", BAD_MODEL_PARAMETERS)
def test_non_finite_model_parameter_is_invalid(tmp_path, capsys, command, extra, name):
    cfg = {"manifold": BAD_MODEL_PARAMETERS[name], "vector": [0.1, 0.05], "steps": 100}
    line = assert_invalid([command, "--config", write_config(tmp_path, cfg)] + extra, capsys)
    assert name.split("-")[0] in line, line


NON_FINITE_SERIES = {
    "sphere-radius-1e-300": {"manifold": {"kind": "sphere", "dimension": 2, "radius": 1e-300},
                             "point": [0.0, 0.0], "vector": [0.1, 0.2]},
    "polynomial-scale-1e300": {"manifold": {"kind": "polynomial", "dimension": 3,
                                            "scale": 1e300},
                               "vector": [0.1, 0.2, 0.1]},
    "sphere-vector-1e200": {"manifold": {"kind": "sphere", "dimension": 2},
                            "vector": [1e200, 0.0]},
    # the operators are finite, the per-degree norms of the series overflow;
    # convergence reports no such norms, so it is not a row here
    "sphere-vector-1e20": {"manifold": {"kind": "sphere", "dimension": 2},
                           "vector": [1e20, 1e19], "max_degree": 12},
}


def assert_out_of_range(argv, capsys, stage):
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "not finite in double precision" in errors[0], err
    assert errors[0].startswith(f"error: {stage}"), err


@pytest.mark.parametrize("name, command", [(name, command) for name in sorted(NON_FINITE_SERIES)
                                           for command in ("eval", "verify", "convergence")
                                           if (name, command) != ("sphere-vector-1e20",
                                                                  "convergence")])
def test_non_finite_series_is_invalid(tmp_path, capsys, name, command):
    stage = "series sum" if name == "sphere-vector-1e20" else "curvature operators"
    assert_out_of_range([command, "--config", write_config(tmp_path, NON_FINITE_SERIES[name])],
                        capsys, stage)


@pytest.mark.parametrize("name, command, stage", [
    ("sphere-radius-1e-300", "lemma2", "transported curvature derivatives"),
    ("sphere-vector-1e200", "lemma2", "transported curvature derivatives"),
    # the series is finite here; the oracle's geodesic overflows
    ("sphere-vector-1e20", "convergence", "ODE oracle"),
], ids=["sphere-radius-1e-300-lemma2", "sphere-vector-1e200-lemma2",
        "sphere-vector-1e20-convergence"])
def test_non_finite_oracle_is_invalid(tmp_path, capsys, name, command, stage):
    argv = [command, "--config", write_config(tmp_path, NON_FINITE_SERIES[name])]
    assert_out_of_range(argv + (["--n", "2"] if command == "lemma2" else []), capsys, stage)


@pytest.mark.parametrize("dimension", [2.5, True, float("inf"), 1e12, 54],
                         ids=["fraction", "boolean", "infinity", "1e12", "54"])
def test_bad_dimension_is_invalid(tmp_path, capsys, dimension):
    # 2.5 and true used to run as d = 2 and d = 1; Infinity and 1e12 ended in
    # OverflowError and MemoryError tracebacks.  d = 54 is the first whose
    # (d, d, d, d) curvature exceeds the 64 MiB budget.
    cfg = {"manifold": {"kind": "flat", "dimension": dimension}, "vector": [0.1, 0.0]}
    path = write_config(tmp_path, cfg)
    capsys.readouterr()
    assert main(["eval", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad manifold config: dimension") and err.count("\n") == 1, err


@pytest.mark.parametrize("kind, dimension", [("flat", 0), ("flat", -1), ("sphere", 1),
                                              ("hyperbolic", 1), ("hyperbolic", 0)])
def test_dimension_below_the_kind_floor_is_invalid(tmp_path, capsys, kind, dimension):
    # flat space starts at d = 1, the sphere and hyperbolic space at d = 2
    cfg = {"manifold": {"kind": kind, "dimension": dimension}, "vector": [0.1]}
    line = assert_invalid(["eval", "--config", write_config(tmp_path, cfg)], capsys)
    assert line.startswith("error: bad manifold config: dimension"), line


def _never_called(*args, **kwargs):
    raise AssertionError("the byte budget must refuse the input before this runs")


@pytest.mark.parametrize("command, manifold, steps, extra, patched, stage", [
    # one block of 129 nodes x (30^4 + 2 * 30^3 + 12 * 30^2) doubles: about 0.8 GiB
    ("verify", {"kind": "sphere", "dimension": 30}, 100_000, [], "dexp_oracle",
     "ODE oracle node store"),
    # one d = 18 geodesic's block fits (0.1 GiB); those of the five t values do not
    ("convergence", {"kind": "sphere", "dimension": 18}, 100_000, [], "dexp_oracle",
     "ODE oracle node store"),
    # Gamma at the 129 nodes of a block of 13 geodesics in d = 36: about 0.8 GiB
    ("lemma2", {"kind": "sphere", "dimension": 36}, 10_000, ["--n", "2"],
     "curvature_derivative_table", "stencil node store"),
    # the tower's last stage in d = 20 holds nabla R and two 20^6-double arrays
    ("lemma2", {"kind": "flat", "dimension": 20}, 100, ["--n", "4"],
     "curvature_derivative_table", "dense prediction"),
    # 608 MiB counted for the tower in d = 17, the smallest refused at n = 4; the jet
    # and nabla^2 R alone are 227 MiB
    ("lemma2", {"kind": "sphere", "dimension": 17}, 100, ["--n", "4"],
     "curvature_derivative_table", "dense prediction"),
], ids=["verify-d30", "convergence-batch", "lemma2-nodes", "lemma2-dense", "lemma2-dense-d17"])
def test_oracle_and_lemma2_over_budget_are_refused_before_they_allocate(
        tmp_path, capsys, monkeypatch, command, manifold, steps, extra, patched, stage):
    monkeypatch.setattr(f"dexpseries.cli.{patched}", _never_called)
    d = manifold["dimension"]
    cfg = {"manifold": manifold, "point": [0.0] * d, "vector": [0.1] + [0.0] * (d - 1),
           "max_degree": 4, "steps": steps}
    capsys.readouterr()
    assert main([command, "--config", write_config(tmp_path, cfg)] + extra) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: " + stage), err


class _PastTheBudget(Exception):
    pass


def _past_the_budget(*args, **kwargs):
    raise _PastTheBudget


@pytest.mark.parametrize("command, manifold, steps, extra, patched", [
    ("verify", {"kind": "sphere", "dimension": 10}, 100_000, [], "dexp_oracle"),
    ("convergence", {"kind": "polynomial", "dimension": 3}, 100_000, [], "dexp_oracle"),
    ("lemma2", {"kind": "sphere", "dimension": 10}, 10_000, ["--n", "2"],
     "curvature_derivative_table"),
], ids=["verify-d10", "convergence-d3", "lemma2-d10"])
def test_streamed_oracle_inputs_pass_the_budget(tmp_path, monkeypatch, command, manifold,
                                                steps, extra, patched):
    # the oracle holds one block of BLOCK_STEPS coarse steps, whatever steps is:
    # these inputs were refused while it held every node, and are stopped here
    # where the oracle would start
    monkeypatch.setattr(f"dexpseries.cli.{patched}", _past_the_budget)
    d = manifold["dimension"]
    cfg = {"manifold": manifold, "point": [0.0] * d, "vector": [0.1] + [0.0] * (d - 1),
           "max_degree": 4, "steps": steps}
    with pytest.raises(_PastTheBudget):
        main([command, "--config", write_config(tmp_path, cfg)] + extra)


# -- the exit-code contract over drawn configs -----------------------------------------

# every field sometimes takes one of these instead of a value of its own
ODD_VALUES = [True, False, "2", "x", None, 0, -1, -2.5, 2.0, math.inf, -math.inf, 1e300, -1e300,
              1e308, -1e308, 1e-300]
MODEL_FIELDS = {"sphere": {"radius": [1.0, 0.5, 3]}, "hyperbolic": {}, "flat": {},
                "polynomial": {"degree": [0, 2, 3], "scale": [0.5, 0.2], "seed": [0, 7]}}


def _odd(draw) -> bool:
    return draw(st.integers(0, 7)) == 0  # one draw in eight, so about a fifth of configs are valid


def _draw_value(draw, good, odd=()):
    return draw(st.sampled_from(ODD_VALUES + list(odd) if _odd(draw) else good))


def _draw_list(draw, good, size):
    return [_draw_value(draw, good)
            for _ in range(draw(st.sampled_from([0, 1, 4])) if _odd(draw) else size)]


@st.composite
def run_configs(draw):
    """Small configs: a valid one runs every command in a few tens of milliseconds."""
    kind = _draw_value(draw, sorted(MODEL_FIELDS), ["torus"])
    dimension = _draw_value(draw, [2, 3], [1, 54, 400, 10**12])
    manifold = {"kind": kind, "dimension": dimension}
    for name, good in MODEL_FIELDS.get(kind, {}).items():
        if draw(st.booleans()):
            manifold[name] = _draw_value(draw, good)
    size = dimension if dimension in (2, 3) and type(dimension) is int else 2
    cfg = {"manifold": manifold,
           "point": _draw_list(draw, [0.0, 0.05, -0.1], size),
           "vector": _draw_list(draw, [0.0, 0.1, -0.2, 0.3], size),
           "steps": _draw_value(draw, [100, 150], [99, 100_001])}
    for name, good, odd in [("max_degree", [0, 2, 5, 8], [13]), ("n", [0, 2, 4], [5]),
                            ("fd_step", [1e-2, 2e-2], []), ("tolerance", [1e-6, 1e-3], [])]:
        if draw(st.booleans()):
            cfg[name] = _draw_value(draw, good, odd)
    if draw(st.booleans()):
        cfg["t_values"] = _draw_list(draw, [0.1, 0.2, 0.3, 0.5], 3)
    return cfg


def _has_bool_or_string(value) -> bool:
    if isinstance(value, dict):
        return any(_has_bool_or_string(v) for k, v in value.items() if k != "kind")
    if isinstance(value, list):
        return any(map(_has_bool_or_string, value))
    return isinstance(value, (bool, str))


def _sphere(**fields):
    return {"manifold": {"kind": "sphere", "dimension": 2}, "vector": [0.1, 0.2], "steps": 100,
            **fields}


POLY3 = dict(POLY_CONFIG, steps=100, max_degree=4, n=2)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(cfg=run_configs())
# the configs that broke the contract before: a traceback, or a wrong run
@example(cfg={"manifold": {"kind": "flat", "dimension": 400}, "vector": [0.1], "steps": 100,
              "n": 2})
@example(cfg={"manifold": {"kind": "flat", "dimension": 1e12}, "vector": [0.1, 0.0]})
@example(cfg={"manifold": {"kind": "flat", "dimension": 2.5}, "vector": [0.1, 0.0]})
@example(cfg={"manifold": {"kind": "flat", "dimension": True}, "vector": [0.1]})
@example(cfg={"manifold": {"kind": "flat", "dimension": math.inf}, "vector": [0.1, 0.0]})
@example(cfg=_sphere(manifold={"kind": "sphere", "dimension": 2, "radius": 1e-300}, n=2))
@example(cfg=dict(POLY3, manifold=dict(POLY_CONFIG["manifold"], scale=1e300)))
@example(cfg=dict(POLY3, manifold=dict(POLY_CONFIG["manifold"], scale=1e308)))
@example(cfg=_sphere(vector=[1e200, 0.0], n=2))
@example(cfg=_sphere(vector=[1e20, 1e19], max_degree=12))
@example(cfg=_sphere(manifold={"kind": "sphere", "dimension": 2, "radius": math.inf}))
# run fields that were converted with float() and ran
@example(cfg=dict(POLY3, max_degree=True))
@example(cfg=dict(POLY3, max_degree="6"))
@example(cfg=dict(POLY3, max_degree="1e1"))
@example(cfg=dict(POLY3, tolerance=True))
@example(cfg=dict(POLY3, n=True))
@example(cfg=dict(POLY3, steps="200"))
@example(cfg=dict(POLY3, vector=[True, False, 0]))
@example(cfg=dict(POLY3, point=["0", 0.0, 0.0]))
@example(cfg=dict(POLY3, vector=["0.1", 0.0, 0.0]))
@example(cfg=dict(POLY3, t_values=[0.1, "0.2"]))
def test_every_config_exits_0_1_or_2(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        commands = [[name, "--config", path] for name in ("eval", "verify", "convergence",
                                                          "lemma2")]
        if type(cfg.get("max_degree")) is int:
            commands.append(["coeffs", "--max-degree", str(cfg["max_degree"])])
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(argv)
            errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
            assert code in (0, 1, 2), argv
            assert len(errors) == (code == 2), (argv, err.getvalue())
            if argv[0] != "coeffs" and _has_bool_or_string(cfg):
                assert code == 2, argv
