import copy
from dataclasses import asdict, fields
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from weakkam.cli import (_Pipeline, config_hash, load_config, main, run_config,
                         validate_config)
from weakkam.errors import ConfigError
from weakkam.variational import GridSpec, Numerics

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


def translated_terms(terms, shift):
    """Trig terms of V(x + shift)."""
    out = []
    for k, c, s in terms:
        a = 2 * math.pi * k * shift
        out.append([k, c * math.cos(a) + s * math.sin(a), s * math.cos(a) - c * math.sin(a)])
    return out


def test_sweep_with_maxima_off_a_coarser_grid(tmp_path):
    # V translated by 3/160 puts its maxima on nodes of the 160x32 grid but off
    # those of 256x32, where Karp and power iteration disagree; orbits are
    # confirmed on the config's own grid, so the sweep runs
    model = {**SMALL_MODEL, "potential": {
        "terms": translated_terms(SMALL_MODEL["potential"]["terms"], 3 / 160)}}
    path = write_config(tmp_path, model=model, grid={"nx": 160, "nt": 32},
                        sweep={"eps_list": [0.02, 0.01, 0.005]})
    assert main(["--config", str(path), "--command", "sweep"]) == 0


TRAVELING_WAVE = {"family": "traveling_wave", "wind": 2,
                  "potential": {"terms": [[0, -0.5, 0.0], [2, 0.5, 0.0]]}}


def test_every_stage_honours_max_sweeps(tmp_path, capsys):
    path = write_config(tmp_path, model=TRAVELING_WAVE, grid={"nx": 32, "nt": 8},
                        numerics={"shoot_tol": 1e-5, "max_sweeps": 5})
    assert run_config(str(path), "rescale") == 1
    assert "barrier iteration did not settle in 5 sweeps" in capsys.readouterr().err


def test_numerics_seeds_is_not_an_option(tmp_path, capsys):
    path = write_config(tmp_path, numerics={"seeds": [["a", 0]]})
    assert run_config(str(path), "orbits") == 1
    assert "config error at 'numerics.seeds'" in capsys.readouterr().err


@pytest.mark.parametrize("over, field", [
    ({"numerics": {"max_sweep": 5}}, "numerics.max_sweep"),
    ({"output": {"formats": ["jsn"]}}, "output.formats"),
    ({"output": {"directory": 123}}, "output.directory"),
])
def test_misspelt_or_mistyped_config_is_refused(tmp_path, capsys, over, field):
    # the first two once ran on a default in place of the value, the last
    # died with a TypeError when the first artifact was written
    path = write_config(tmp_path, **over)
    assert run_config(str(path), "critical") == 1
    assert f"config error at '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_single_period_cap_fails_cleanly(tmp_path, capsys):
    # one period leaves no periodicity residual to report
    path = write_config(tmp_path, sweep={"eps_list": [0.05]}, numerics={"max_periods": 1})
    assert main(["--config", str(path), "--command", "viscous"]) == 1
    assert capsys.readouterr().err.startswith(
        "viscous failed: cell problem did not reach periodicity in 1 periods")


SOLVERS = {"critical_value": "weakkam.variational", "solve_cell": "weakkam.viscous",
           "anchored_barrier": "weakkam.variational"}


def record_solver_calls(monkeypatch):
    """{solver: [bound arguments of each call]}, through every weakkam binding."""
    calls = {name: [] for name in SOLVERS}
    for name, home in SOLVERS.items():
        original = getattr(importlib.import_module(home), name)

        def wrapper(*args, _name=name, _fn=original, **kwargs):
            calls[_name].append(inspect.signature(_fn).bind(*args, **kwargs).arguments)
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "weakkam":
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, wrapper)
    return calls


def test_all_builds_each_artifact_once(tmp_path, monkeypatch):
    # the stochastic eps list shares its minimum with the sweep's; the
    # mechanical model's rescale stage is vacuous and it has no example stage
    path = write_config(tmp_path, stochastic={
        "n_paths": 100, "dt": 5e-4, "delta": 0.1, "kappa": 1.0, "seed": 7,
        "eps_list": [0.08, 0.04, 0.02]})
    calls = record_solver_calls(monkeypatch)
    assert run_config(str(path), "all") in (0, 2)
    assert sorted(c["epsilon"] for c in calls["solve_cell"]) == [0.02, 0.03, 0.05]
    assert [c["kernels"].grid for c in calls["critical_value"]] == [GridSpec(96, 8)]
    barriers = calls["anchored_barrier"]
    assert [c["kernels"].grid for c in barriers] == [GridSpec(96, 8)] * 2
    assert sorted(c["anchor_x"] for c in barriers) == pytest.approx([0.0, 0.5], abs=1e-9)


def test_traveling_wave_all_builds_each_grids_critical_value_once(tmp_path, monkeypatch):
    # rescale_check reuses the pipeline's c(0) and barriers; the rescaled grid
    # (nt doubled) and the example's autonomous companion build their own
    cfg = {"model": TRAVELING_WAVE, "grid": {"nx": 32, "nt": 8},
           "numerics": {"shoot_tol": 1e-5},
           "output": {"directory": str(tmp_path / "out"), "formats": ["json"]}}
    path = tmp_path / "tw.json"
    path.write_text(json.dumps(cfg))
    calls = record_solver_calls(monkeypatch)
    assert run_config(str(path), "all") in (0, 2)
    grid, rescaled = GridSpec(32, 8), GridSpec(32, 16)
    assert [c["kernels"].grid for c in calls["critical_value"]] == [grid, rescaled, grid]
    assert [c["kernels"].grid for c in calls["anchored_barrier"]] == [grid, rescaled,
                                                                      rescaled, grid]


def test_out_flag_wins_over_config_directory(tmp_path):
    path = write_config(tmp_path)   # the config names tmp_path / "out"
    explicit = tmp_path / "explicit"
    assert main(["--config", str(path), "--command", "critical",
                 "--out", str(explicit)]) == 0
    assert len(list(explicit.glob("critical_*.json"))) == 1
    assert not (tmp_path / "out").exists()


def test_model_keys_the_family_ignores_fail_the_run(tmp_path, capsys):
    # a mechanical model once ran as plain mechanical with these keys ignored
    path = write_config(tmp_path, model={**SMALL_MODEL, "momentum_shift": 0.7, "wind": 3})
    assert run_config(str(path), "critical") == 1
    assert "config error at 'model.momentum_shift'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_entrypoint(tmp_path):
    path = write_config(tmp_path)
    assert main(["--config", str(path), "--command", "critical"]) == 0
    assert main(["--config", str(tmp_path / "absent.json"),
                 "--command", "critical"]) == 1


def test_a_run_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy serves the tests as an oracle
    path = write_config(tmp_path)
    code = ("import sys, weakkam, weakkam.cli\n"
            f"status = weakkam.cli.run_config({str(path)!r}, 'orbits')\n"
            "print(status, sorted(m for m in sys.modules\n"
            "                    if m == 'scipy' or m.startswith('scipy.')))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_setup_does_not_import_multiprocessing(tmp_path):
    # the stochastic drivers import multiprocessing when they fan out, so the
    # set-up every wkam invocation pays (import, load, build the model) skips it
    path = write_config(tmp_path)
    code = ("import sys, weakkam.cli\n"
            "from weakkam.model import model_from_config\n"
            f"model_from_config(weakkam.cli.load_config({str(path)!r})['model'])\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'multiprocessing' or m.startswith('multiprocessing.')))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


FULL_CONFIG = {
    "model": {**SMALL_MODEL, "momentum_shift": 0.0, "wind": 1},
    "grid": {"nx": 96, "nt": 8},
    "numerics": {"vmax": 4.0, "cell_tol": 1e-6, "barrier_tol": 1e-7,
                 "shoot_tol": 1e-10, "slope_tol": 0.15, "grid_tol": 0.02,
                 "aubry_tol": 0.02, "lip_cap": 4.0, "max_sweeps": 400,
                 "max_periods": 600},
    "sweep": {"eps_list": [0.05, 0.03, 0.02]},
    "stochastic": {"n_paths": 200, "dt": 5e-4, "delta": 0.1, "kappa": 5.0,
                   "seed": 77, "eps_list": [0.08, 0.04]},
    "output": {"directory": "out", "formats": ["json", "csv"]},
}

# every numeric entry of FULL_CONFIG: (path to it, field the error must name)
NUMERIC_FIELDS = (
    [(("model", key), f"model.{key}")
     for key in ("momentum_shift", "wind", "growth_constant")]
    + [(("model", "potential", "terms", 1, i), "model.potential.terms") for i in range(3)]
    + [(("grid", key), f"grid.{key}") for key in ("nx", "nt")]
    + [(("numerics", key), f"numerics.{key}") for key in FULL_CONFIG["numerics"]]
    + [(("sweep", "eps_list", 1), "sweep.eps_list")]
    + [(("stochastic", key), f"stochastic.{key}")
       for key in ("n_paths", "dt", "delta", "kappa", "seed")]
    + [(("stochastic", "eps_list", 0), "stochastic.eps_list")])

JUNK = st.one_of(st.text(max_size=6), st.none(), st.booleans(),
                 st.lists(st.one_of(st.integers(), st.floats(), st.text(max_size=3)),
                          max_size=3),
                 st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400]))


def test_negative_seed_override_names_field(tmp_path, capsys):
    # the --seed override skips the config file, so it is checked on its own
    path = write_config(tmp_path)
    assert run_config(str(path), "critical", seed_override=-1) == 1
    assert "stochastic.seed" in capsys.readouterr().err


def test_seed_past_the_philox_key_range_is_a_config_error(tmp_path, capsys):
    # a path's Philox key is (seed + offset) as a uint64: 2**64 - 1 once died
    # with an OverflowError at the second exit ensemble
    stochastic = {"n_paths": 20, "dt": 5e-4, "delta": 0.1, "kappa": 1.0, "seed": 2 ** 64 - 1,
                  "eps_list": [0.08, 0.04]}
    path = write_config(tmp_path, grid={"nx": 64, "nt": 8}, stochastic=stochastic)
    assert main(["--config", str(path), "--command", "stochastic"]) == 1
    assert "config error at 'stochastic.seed'" in capsys.readouterr().err
    path = write_config(tmp_path, grid={"nx": 64, "nt": 8},
                        stochastic={**stochastic, "seed": 1})
    assert main(["--config", str(path), "--command", "stochastic",
                 "--seed", "18446744073709551615"]) == 1
    assert "config error at 'stochastic.seed'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    for seed in (2 ** 63, 1e19):
        with pytest.raises(ConfigError, match="below 2") as info:
            validate_config({**FULL_CONFIG, "stochastic": {**stochastic, "seed": seed}})
        assert info.value.field == "stochastic.seed"
    validate_config({**FULL_CONFIG, "stochastic": {**stochastic, "seed": 2 ** 63 - 1}})


def test_one_path_is_a_config_error(tmp_path, capsys):
    # one path has no standard error: every se and CI95 was NaN, and the NaN
    # tokens made the artifact invalid JSON
    stochastic = {**FULL_CONFIG["stochastic"], "n_paths": 1}
    path = write_config(tmp_path, grid={"nx": 64, "nt": 8}, stochastic=stochastic)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", str(path), "--command", "stochastic"]) == 1
    err = capsys.readouterr().err
    assert "config error at 'stochastic.n_paths'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    validate_config({**FULL_CONFIG, "stochastic": {**stochastic, "n_paths": 2}})


@pytest.mark.parametrize("over, field", [
    ({"delta": 0.6}, "stochastic.delta"),
    ({"delta": 0.5}, "stochastic.delta"),
    ({"dt": 0.05}, "stochastic.dt"),
    # no stochastic.eps_list: the stage reads sweep.eps_list, whose largest
    # eps, 0.05, allows dt up to 0.1^2/(8 * 0.05) = 0.025
    ({"dt": 0.03, "eps_list": None}, "stochastic.dt"),
])
def test_unresolved_exit_scale_is_refused_before_the_first_stage(tmp_path, capsys, over, field):
    # exit_times refuses these too, but only once the stochastic stage runs,
    # after the orbits, kernels, c(0) and barriers have been built and written
    stochastic = {k: v for k, v in {**FULL_CONFIG["stochastic"], **over}.items()
                  if v is not None}
    path = write_config(tmp_path, grid={"nx": 64, "nt": 8}, stochastic=stochastic)
    assert main(["--config", str(path), "--command", "all"]) == 1
    assert f"config error at '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sweep, stoch_eps", [({}, None), (FULL_CONFIG["sweep"], [])])
def test_stochastic_block_without_viscosities_is_refused_before_the_first_stage(
        tmp_path, capsys, sweep, stoch_eps):
    # neither list set, or an empty one: all once ran orbits, critical,
    # barrier and rescale and wrote their artifacts before the stochastic stage
    stochastic = {k: v for k, v in {**FULL_CONFIG["stochastic"], "eps_list": stoch_eps}.items()
                  if v is not None}
    path = write_config(tmp_path, grid={"nx": 64, "nt": 8}, sweep=sweep, stochastic=stochastic)
    assert main(["--config", str(path), "--command", "all"]) == 1
    assert "config error at 'stochastic.eps_list'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["all", "sweep"])
def test_short_sweep_is_refused_before_the_first_stage(tmp_path, capsys, command):
    path = write_config(tmp_path, grid={"nx": 64, "nt": 8}, sweep={"eps_list": [0.05, 0.03]})
    assert main(["--config", str(path), "--command", command]) == 1
    assert "config error at 'sweep.eps_list'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_viscous_runs_on_one_viscosity(tmp_path):
    path = write_config(tmp_path, grid={"nx": 64, "nt": 8}, sweep={"eps_list": [0.05]})
    assert main(["--config", str(path), "--command", "viscous"]) == 0
    assert len(list((tmp_path / "out").glob("viscous_*.json"))) == 1


def test_exit_scale_bounds_admit_their_limits():
    # delta^2/(8 max eps) itself is resolved; the largest eps sets the bound
    stochastic = {**FULL_CONFIG["stochastic"], "delta": 0.2, "eps_list": [0.08, 0.04]}
    validate_config({**FULL_CONFIG, "stochastic": {**stochastic, "dt": 0.2 * 0.2 / (8.0 * 0.08)}})
    with pytest.raises(ConfigError) as info:
        validate_config({**FULL_CONFIG, "stochastic": {**stochastic, "dt": 0.0625 * 1.001}})
    assert info.value.field == "stochastic.dt"
    validate_config({**FULL_CONFIG, "stochastic": {**stochastic, "delta": 0.4999, "dt": 1e-4}})


def test_numerics_reach_the_pipeline_record_and_leave_the_config_as_written():
    written = {**FULL_CONFIG, "numerics": {
        "vmax": 5.0, "cell_tol": 2e-6, "barrier_tol": 3e-7, "shoot_tol": 1e-9,
        "slope_tol": 0.2, "grid_tol": 0.03, "aubry_tol": 0.04, "lip_cap": 4.5,
        "max_sweeps": 400.0, "max_periods": 700}}
    before = copy.deepcopy(written)
    cfg = validate_config(written)
    assert written == before and cfg == before
    assert config_hash(cfg) == config_hash(before)
    assert isinstance(cfg["numerics"]["max_sweeps"], float)
    numerics = _Pipeline(cfg).numerics
    for f in fields(Numerics):
        assert getattr(numerics, f.name) == written["numerics"][f.name]
        assert type(getattr(numerics, f.name)) is type(f.default)
    bare = validate_config({k: v for k, v in FULL_CONFIG.items() if k != "numerics"})
    assert bare["numerics"] == asdict(Numerics())
    assert json.dumps(bare["numerics"]) == json.dumps(asdict(Numerics()))


def test_seed_override_without_stochastic_block_is_not_a_stochastic_config(tmp_path, capsys):
    # --seed must not create the block: the stage refuses it as without the flag
    path = write_config(tmp_path, grid={"nx": 32, "nt": 8})
    for extra in ([], ["--seed", "5"]):
        assert main(["--config", str(path), "--command", "stochastic", *extra]) == 1
        assert "config error at 'stochastic'" in capsys.readouterr().err


def test_seed_override_without_stochastic_block_keeps_the_artifact(tmp_path):
    path = write_config(tmp_path, grid={"nx": 32, "nt": 8})
    plain, seeded = tmp_path / "plain", tmp_path / "seeded"
    assert main(["--config", str(path), "--command", "critical", "--out", str(plain)]) == 0
    assert main(["--config", str(path), "--command", "critical", "--out", str(seeded),
                 "--seed", "5"]) == 0
    (a,), (b,) = plain.glob("critical_*.json"), seeded.glob("critical_*.json")
    assert a.name == b.name
    assert json.loads(a.read_text())["config"] == json.loads(b.read_text())["config"]


def test_full_config_is_valid():
    validate_config(copy.deepcopy(FULL_CONFIG))


@settings(max_examples=300, deadline=None)
@given(entry=st.sampled_from(NUMERIC_FIELDS), junk=JUNK)
@example(entry=(("grid", "nx"), "grid.nx"), junk="abc")
@example(entry=(("model", "wind"), "model.wind"), junk="x")
@example(entry=(("numerics", "vmax"), "numerics.vmax"), junk="fast")
@example(entry=(("stochastic", "dt"), "stochastic.dt"), junk="x")
@example(entry=(("grid", "nx"), "grid.nx"), junk=10 ** 400)
@example(entry=(("stochastic", "seed"), "stochastic.seed"), junk=10 ** 400)
def test_junk_in_any_numeric_field_names_it(entry, junk):
    path, field = entry
    cfg = copy.deepcopy(FULL_CONFIG)
    block = cfg
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = junk
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    assert info.value.field == field


BLOCKS = ("", "model", "model.potential", "grid", "numerics", "sweep", "stochastic",
          "output")


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(BLOCKS), key=st.text(min_size=1, max_size=12))
@example(name="", key="stochastc")
@example(name="model", key="wnd")
@example(name="model.potential", key="term")
@example(name="grid", key="nz")
@example(name="numerics", key="max_sweep")
@example(name="sweep", key="eps")
@example(name="stochastic", key="n_path")
@example(name="output", key="format")
def test_unknown_key_in_any_block_names_it(name, key):
    # FULL_CONFIG carries every known key, so any key it lacks is unknown
    cfg = copy.deepcopy(FULL_CONFIG)
    block = cfg
    for part in filter(None, name.split(".")):
        block = block[part]
    assume(key not in block)
    block[key] = 1
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    assert info.value.field == (f"{name}.{key}" if name else key)
