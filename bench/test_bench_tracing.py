"""The tracer counts calls that reach a solver through ``from ... import`` bindings."""

import json

from weakkam import cli, viscous, vv_analysis

from tracing import Tracer

MECHANICAL = {
    "model": {"family": "mechanical",
              "potential": {"terms": [[0, -0.5, 0.0], [1, -0.125, 0.0], [2, 0.5, 0.0],
                                      [3, 0.125, 0.0]]}},
    "grid": {"nx": 64, "nt": 8},
    "sweep": {"eps_list": [0.04, 0.02, 0.01]},
    "output": {"directory": "out", "formats": ["json"]},
}
TRAVELING_WAVE = {
    "model": {"family": "traveling_wave", "wind": 2,
              "potential": {"terms": [[0, -0.5, 0.0], [2, 0.5, 0.0]]}},
    "grid": {"nx": 32, "nt": 8},
    "numerics": {"shoot_tol": 1e-5},
    "output": {"directory": "out", "formats": ["json"]},
}


def _traced(tmp_path, monkeypatch, cfg, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    with Tracer("test") as tracer:
        cli.run_config("cfg.json", command)
    return tracer


def _calls_under(tracer, name, ancestor):
    spans = {s[0]: s for s in tracer.spans}

    def has_ancestor(span):
        while span[4] is not None:
            span = spans[span[4]]
            if span[1] == ancestor:
                return True
        return False
    return sum(1 for s in tracer.spans if s[1] == name and has_ancestor(s))


def test_solve_cell_counted_through_cli_and_sweep(tmp_path, monkeypatch):
    tracer = _traced(tmp_path, monkeypatch, MECHANICAL, "viscous")
    assert _calls_under(tracer, "viscous.solve_cell", "cli.run_config") == 3
    assert tracer.counts["viscous.steps"] > 0
    tracer = _traced(tmp_path, monkeypatch, MECHANICAL, "sweep")
    assert _calls_under(tracer, "viscous.solve_cell", "vv_analysis.sweep") == 3
    assert tracer.metrics()["viscous.solve_cell_calls"] == 3


def test_critical_value_counted_through_rescale_check(tmp_path, monkeypatch):
    tracer = _traced(tmp_path, monkeypatch, TRAVELING_WAVE, "rescale")
    # the original and the period-rescaled grid
    assert _calls_under(tracer, "variational.critical_value", "vv_analysis.rescale_check") == 2
    assert tracer.metrics()["variational.compose_minplus_ops"] > 0


def test_restore_puts_every_binding_back():
    originals = (cli.solve_cell, viscous.solve_cell, vv_analysis.solve_cell,
                 cli.critical_value, vv_analysis.critical_value, cli.run_config)
    with Tracer("test"):
        assert cli.solve_cell is not originals[0]
        assert vv_analysis.solve_cell is cli.solve_cell is viscous.solve_cell
    assert (cli.solve_cell, viscous.solve_cell, vv_analysis.solve_cell,
            cli.critical_value, vv_analysis.critical_value, cli.run_config) == originals
