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
