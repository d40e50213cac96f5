import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

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


def test_seed_override_changes_result(tmp_path):
    path = write_config(tmp_path, POLY_CONFIG)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["eval", "--config", path, "--out", str(out_a)]) == 0
    assert main(["eval", "--config", path, "--seed", "1", "--out", str(out_b)]) == 0
    mat_a = json.loads(out_a.read_text())["closed_form"]["operator"]["matrix"]
    mat_b = json.loads(out_b.read_text())["closed_form"]["operator"]["matrix"]
    assert not np.allclose(mat_a, mat_b)


def test_vector_norm_warning(tmp_path, capsys):
    cfg = dict(SPHERE_CONFIG)
    cfg["vector"] = [0.9, 0.8]
    cfg["max_degree"] = 4
    assert main(["eval", "--config", write_config(tmp_path, cfg)]) == 0
    assert "warning" in capsys.readouterr().err


def test_missing_config_is_invalid_input(tmp_path):
    assert main(["eval", "--config", str(tmp_path / "nope.json")]) == 2


def test_runs_are_deterministic(tmp_path):
    path = write_config(tmp_path, POLY_CONFIG)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["eval", "--config", path, "--out", str(out_a)]) == 0
    assert main(["eval", "--config", path, "--out", str(out_b)]) == 0
    assert out_a.read_text() == out_b.read_text()


def test_module_entry_point(tmp_path):
    # the child process imports the same package this process imported
    package_root = str(pathlib.Path(dexpseries.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "dexpseries", "coeffs", "--max-degree", "4"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0
    assert "PASS" in result.stdout


def assert_invalid(argv, capsys):
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


@pytest.mark.parametrize("value", ["ten", 8.5, None])
def test_non_integer_max_degree_is_invalid(tmp_path, capsys, value):
    cfg = dict(POLY_CONFIG, max_degree=value)
    assert_invalid(["eval", "--config", write_config(tmp_path, cfg)], capsys)


@pytest.mark.parametrize("value", ["many", 400.5])
def test_non_integer_steps_is_invalid(tmp_path, capsys, value):
    cfg = dict(SPHERE_CONFIG, steps=value)
    assert_invalid(["verify", "--config", write_config(tmp_path, cfg)], capsys)


@pytest.mark.parametrize("field", ["vector", "point"])
def test_nan_component_is_invalid(tmp_path, capsys, field):
    cfg = dict(POLY_CONFIG)
    cfg[field] = [0.1, float("nan"), 0.0]
    assert_invalid(["eval", "--config", write_config(tmp_path, cfg)], capsys)


def test_lemma2_zero_fd_step_is_invalid(tmp_path, capsys):
    cfg = dict(POLY_CONFIG, steps=150)
    assert_invalid(["lemma2", "--config", write_config(tmp_path, cfg), "--n", "2",
                    "--fd-step", "0"], capsys)


def test_verify_negative_tolerance_is_invalid(tmp_path, capsys):
    assert_invalid(["verify", "--config", write_config(tmp_path, SPHERE_CONFIG),
                    "--tolerance", "-1"], capsys)
