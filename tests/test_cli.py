import json
from pathlib import Path

import pytest

from weakkam.cli import config_hash, load_config, main, run_config, validate_config
from weakkam.errors import ConfigError

SMALL_MODEL = {
    "family": "mechanical",
    "potential": {"terms": [[0, -0.5, 0.0], [1, -0.125, 0.0],
                            [2, 0.5, 0.0], [3, 0.125, 0.0]]},
    "growth_constant": 8.0,
}


def write_config(tmp_path, name="cfg.json", **over):
    cfg = {
        "model": SMALL_MODEL,
        "grid": {"nx": 96, "nt": 8},
        "sweep": {"eps_list": [0.05, 0.03, 0.02]},
        "output": {"directory": str(tmp_path / "out"), "formats": ["json", "csv"]},
    }
    cfg.update(over)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def strip_wall_times(payload):
    payload = dict(payload)
    payload.pop("wall_times", None)
    return payload


def test_critical_roundtrip(tmp_path):
    path = write_config(tmp_path)
    assert run_config(str(path), "critical") == 0
    out = list((tmp_path / "out").glob("critical_*.json"))
    assert len(out) == 1
    payload = json.loads(out[0].read_text())
    assert payload["results"]["pass"] is True
    assert abs(payload["results"]["c"]) <= 1e-3
    assert payload["version"].startswith("weakkam ")


def test_malformed_eps_list_names_field(tmp_path, capsys):
    path = write_config(tmp_path, sweep={"eps_list": [0.01, 0.02]})
    assert run_config(str(path), "critical") == 1
    assert "sweep.eps_list" in capsys.readouterr().err


def test_unknown_command(tmp_path):
    path = write_config(tmp_path)
    assert run_config(str(path), "frobnicate") == 1


def test_missing_blocks_rejected():
    with pytest.raises(ConfigError):
        validate_config({"grid": {"nx": 8, "nt": 2}})
    with pytest.raises(ConfigError):
        validate_config({"model": SMALL_MODEL})


def test_deterministic_payloads(tmp_path):
    p1 = write_config(tmp_path, name="a.json",
                      output={"directory": str(tmp_path / "o1"), "formats": ["json"]})
    p2 = write_config(tmp_path, name="b.json",
                      output={"directory": str(tmp_path / "o2"), "formats": ["json"]})
    # same numeric content apart from the output path: run each twice
    assert run_config(str(p1), "orbits") == 0
    first = json.loads(next((tmp_path / "o1").glob("orbits_*.json")).read_text())
    next((tmp_path / "o1").glob("orbits_*.json")).unlink()
    assert run_config(str(p1), "orbits") == 0
    second = json.loads(next((tmp_path / "o1").glob("orbits_*.json")).read_text())
    assert strip_wall_times(first) == strip_wall_times(second)


def test_hash_changes_with_numeric_field(tmp_path):
    cfg1 = load_config(str(write_config(tmp_path, name="h1.json")))
    cfg2 = load_config(str(write_config(tmp_path, name="h2.json",
                                        grid={"nx": 96, "nt": 16})))
    assert config_hash(cfg1) != config_hash(cfg2)


def test_sweep_csv_headers(tmp_path):
    path = write_config(tmp_path)
    assert run_config(str(path), "sweep") == 0
    csv = next((tmp_path / "out").glob("sweep_*_sweep.csv"))
    header = csv.read_text().splitlines()[0]
    assert header == ("epsilon,c_eps,secant,limit_error,grad_error,"
                      "lip_x,semiconvexity_const")


def test_viscous_csv_headers(tmp_path):
    path = write_config(tmp_path, sweep={"eps_list": [0.05]})
    assert run_config(str(path), "viscous") == 0
    csv = next((tmp_path / "out").glob("viscous_*_eps0.05.csv"))
    assert csv.read_text().splitlines()[0] == "x_index,t_index,x,t,phi"


def test_barrier_csv_headers(tmp_path):
    path = write_config(tmp_path)
    assert run_config(str(path), "barrier") == 0
    csv = next((tmp_path / "out").glob("barrier_*_anchor0.csv"))
    assert csv.read_text().splitlines()[0] == "x_index,t_index,x,t,h,phi_pot"


def test_stochastic_exit_csv_headers(tmp_path):
    path = write_config(tmp_path, stochastic={
        "n_paths": 200, "dt": 5e-4, "delta": 0.1, "kappa": 5.0, "seed": 77,
        "eps_list": [0.08, 0.04]})
    # 0 or 2 (stage verdict); 1 would be a config or numerical error
    assert run_config(str(path), "stochastic") in (0, 2)
    csv = next((tmp_path / "out").glob("stochastic_*_exit.csv"))
    assert csv.read_text().splitlines()[0] == (
        "epsilon,n_paths,mean_tau,ci_low,ci_high,eps_log_mean_tau,"
        "capped_fraction,mean_tau_free,eps_log_ratio")
    payload = json.loads(next((tmp_path / "out").glob("stochastic_*.json")).read_text())
    rows = payload["results"]["exit_records"]
    assert payload["results"]["exit_all_positive"] == all(r[8] > 0 for r in rows)


def test_rescale_vacuous_pass(tmp_path):
    path = write_config(tmp_path)
    assert run_config(str(path), "rescale") == 0
    payload = json.loads(next((tmp_path / "out").glob("rescale_*.json")).read_text())
    assert payload["results"]["vacuous"] is True


def test_example_requires_traveling_wave(tmp_path):
    path = write_config(tmp_path)
    assert run_config(str(path), "example") == 1


def test_out_flag_wins_over_config_directory(tmp_path):
    path = write_config(tmp_path)   # the config names tmp_path / "out"
    explicit = tmp_path / "explicit"
    assert main(["--config", str(path), "--command", "critical",
                 "--out", str(explicit)]) == 0
    assert len(list(explicit.glob("critical_*.json"))) == 1
    assert not (tmp_path / "out").exists()


def test_main_entrypoint(tmp_path):
    path = write_config(tmp_path)
    assert main(["--config", str(path), "--command", "critical"]) == 0
    assert main(["--config", str(tmp_path / "absent.json"),
                 "--command", "critical"]) == 1
