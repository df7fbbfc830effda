import importlib.util
import json
from pathlib import Path

from weakkam.cli import run_config

TOOL = Path(__file__).resolve().parents[1] / "tools" / "diff_artifacts.py"
_spec = importlib.util.spec_from_file_location("diff_artifacts", TOOL)
diff_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_artifacts)


def test_two_critical_runs_compare_equal_and_a_perturbed_value_is_reported(tmp_path, capsys):
    cfg = {
        "model": {"family": "mechanical",
                  "potential": {"terms": [[0, -0.5, 0.0], [2, 0.5, 0.0]]}},
        "grid": {"nx": 32, "nt": 8},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_config(str(path), "critical", out_dir=str(out)) == 0
    capsys.readouterr()
    # wall_times are not compared
    (fb,) = b.glob("critical_*.json")
    payload = json.loads(fb.read_text())
    payload["wall_times"] = {"critical": -1.0}
    fb.write_text(json.dumps(payload))
    assert diff_artifacts.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.strip() == "1 files equal"

    payload["results"]["c_power"] += 1e-15 * max(1.0, abs(payload["results"]["c_power"]))
    fb.write_text(json.dumps(payload))
    (a / "table.csv").write_text("x\n0.1\n")
    (b / "table.csv").write_text("x\n0.10\n")
    assert diff_artifacts.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert f"{fb.name}: results.c_power" in out
    assert "table.csv: bytes differ" in out
    assert "2 of 2 files differ" in out


def _write(root: Path, payload: dict, table: str) -> None:
    root.mkdir()
    (root / "run.json").write_text(json.dumps(payload))
    (root / "run_table.csv").write_text(table)


def test_tolerance_matches_floats_and_keeps_everything_else_exact(tmp_path, capsys):
    base = {"results": {"c": -0.25, "trace": [1e-3, 2.0], "n_periods": 4, "pass": True,
                        "regime": "exact"},
            "wall_times": {"run": 1.0}}
    table = "i,x,phi\n0,0.0,0.125\n1,0.5,-3.5\n"
    _write(tmp_path / "a", base, table)
    near = json.loads(json.dumps(base))
    near["results"]["c"] = -0.25 + 3e-13
    near["results"]["trace"][1] = 2.0 * (1 + 1e-12)
    _write(tmp_path / "b", near, f"i,x,phi\n0,0.0,{0.125 + 2.0 ** -45!r}\n1,0.5,-3.5\n")
    a, b = str(tmp_path / "a"), str(tmp_path / "b")

    # exact without the flag; within 1e-10 with it, and each file's largest deviation printed
    assert diff_artifacts.main([a, b]) == 1
    assert "2 of 2 files differ" in capsys.readouterr().out
    assert diff_artifacts.main([a, b, "--tol", "1e-10"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["run.json: largest deviation 1e-12", "run_table.csv: largest deviation 2.84e-14",
                   "2 files equal"]
    assert diff_artifacts.main(["--tol", "1e-13", a, b]) == 1
    out = capsys.readouterr().out
    assert "run.json: results.c, results.trace" in out
    assert "1 of 2 files differ" in out

    # integers, strings, booleans, lengths and integer cells stay exact
    for key, value in (("n_periods", 5), ("regime", "fallback"), ("pass", False),
                       ("trace", [1e-3]), ("c", -1)):
        moved = json.loads(json.dumps(base))
        moved["results"][key] = value
        (tmp_path / "b" / "run.json").write_text(json.dumps(moved))
        assert diff_artifacts.main([a, b, "--tol", "1e-10"]) == 1
        assert f"run.json: results.{key}" in capsys.readouterr().out
    (tmp_path / "b" / "run.json").write_text(json.dumps(base))
    for row in ("1.0,0.0,0.125", "0,0.0,0.125,7", "0,0.0,nan"):
        (tmp_path / "b" / "run_table.csv").write_text(f"i,x,phi\n{row}\n1,0.5,-3.5\n")
        assert diff_artifacts.main([a, b, "--tol", "1e-10"]) == 1
        assert "run_table.csv: cells differ" in capsys.readouterr().out


def test_tolerance_flag_needs_a_nonnegative_number(tmp_path, capsys):
    for bad in ([], ["x"], ["-1"], ["nan"]):
        assert diff_artifacts.main([str(tmp_path), str(tmp_path), "--tol", *bad]) == 2
    assert "usage" in capsys.readouterr().err
