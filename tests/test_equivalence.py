import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "equivalence.py"
_spec = importlib.util.spec_from_file_location("equivalence", TOOL)
equivalence = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(equivalence)


def tree(root: Path, nx: int) -> Path:
    """A source tree that shares this checkout's ``src`` and ships a tiny config."""
    root.mkdir()
    (root / "src").symlink_to(ROOT / "src")
    cfg = {"model": {"family": "mechanical",
                     "potential": {"terms": [[0, -0.5, 0.0], [2, 0.5, 0.0]]}},
           "grid": {"nx": nx, "nt": 8}}
    (root / "tiny.json").write_text(json.dumps(cfg))
    return root


def test_equal_trees_compare_equal_and_changed_outputs_are_reported(tmp_path, capsys):
    runs = (("tiny.json", "critical"),)
    a, b, c = tree(tmp_path / "a", 32), tree(tmp_path / "b", 32), tree(tmp_path / "c", 36)
    assert equivalence.equivalence(a, b, runs) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["0_tiny_critical: exit 0/0, [critical] PASS", "1 files equal"]

    # another grid changes the config, whose hash names the artifact
    assert equivalence.equivalence(a, c, runs) == 1
    out = capsys.readouterr().out
    assert out.count("0_tiny_critical/critical_") == 2
    assert "2 of 2 files differ" in out

    # a run that fails in one tree moves its exit status and its verdicts
    d = tree(tmp_path / "d", 1)
    assert equivalence.equivalence(a, d, runs) == 1
    out = capsys.readouterr().out
    assert "0_tiny_critical: exit 0/1, [critical] PASS / (no stages)  MOVED" in out
    assert "1 of 1 files differ" in out


def test_tolerance_reports_deviations_and_keeps_statuses_exact(tmp_path, capsys):
    runs = (("tiny.json", "critical"),)
    a, b, d = tree(tmp_path / "a", 32), tree(tmp_path / "b", 32), tree(tmp_path / "d", 1)
    assert equivalence.equivalence(a, b, runs, tol=1e-10) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "0_tiny_critical: exit 0/0, [critical] PASS"
    assert out[1].startswith("0_tiny_critical/critical_")
    assert out[1].endswith(".json: largest deviation 0")
    assert out[2:] == ["1 files equal"]
    assert equivalence.equivalence(a, d, runs, tol=1.0) == 1
    assert "MOVED" in capsys.readouterr().out


def test_usage_and_tree_check(tmp_path, capsys):
    assert equivalence.main([str(tmp_path)]) == 2
    assert equivalence.main([str(tmp_path), str(tmp_path), "--tol"]) == 2
    assert equivalence.main([str(tmp_path), str(tmp_path)]) == 2
    assert "no src/weakkam" in capsys.readouterr().err
