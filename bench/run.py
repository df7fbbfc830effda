"""Benchmark of the weak-KAM pipeline through ``weakkam.cli.run_config``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Closed loop, one client: rounds run one
after another, each in a fresh interpreter and its own temporary working
directory (the configs name ``output.directory: "out"``, which overrides
``--out``), at least twice and until another round would end after S
seconds.  Every round runs
the same config and command; its stages are the operations counted in
``attempted``, and a stage that does not PASS counts in ``failed``.  The
artifacts of every round are checked against oracles computed from the config
alone.

With ``--trace 0`` the result holds the end-to-end metrics: ``wall_s`` the
mean over the rounds, ``setup_s`` the median and ``peak_rss_mb`` the largest
round.  With ``--trace 1`` one untraced round is followed by traced rounds
and the result holds the per-layer metrics (medians over the traced rounds)
and the tracing overhead.  The last line of standard output is the JSON
result; spans and results are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import load_artifacts, passed_stages, run_checks  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, make_config, program_seed  # noqa: E402

ROUND_TIMEOUT_S = 150.0
MIN_ROUNDS = 2      # so that every run sets up, and times, more than once


def run_round(root: Path, workload, cfg: dict, seed: int, trace_file: Path | None):
    """One child process on one config; returns (report, stages passed, checks)."""
    scratch = root / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        pseed = program_seed(workload, seed)
        spawned_at = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(cfg_path), workload.command,
             "-" if pseed is None else str(pseed), repr(spawned_at),
             str(trace_file) if trace_file else "-"],
            cwd=work, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"round process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        arts = load_artifacts(work / "out")
        return report, passed_stages(arts, workload.stages), run_checks(
            workload.name, cfg, arts, workload.stages)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "weakkam" / "cli.py").is_file():
        print(f"no weakkam sources under {root / 'src'}: run from a checkout's root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cfg = make_config(workload, args.seed)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    rounds, traced, failures = [], [], []
    attempted = failed = 0
    durations = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        trace_file = None
        if args.trace and rounds:
            trace_file = out_dir / f"trace-{tag}-round{len(rounds) + len(traced)}.json"
        report, ok_stages, checks = run_round(root, workload, cfg, args.seed, trace_file)
        durations.append(time.monotonic() - t0)
        attempted += len(workload.stages)
        failed += len(workload.stages) - len(ok_stages)
        failures += [(name, detail) for name, ok, detail in checks if not ok]
        (traced if trace_file else rounds).append(report)
        elapsed = time.monotonic() - start
        if len(durations) < MIN_ROUNDS:
            continue
        if elapsed + max(durations) > args.seconds:
            break

    for name, detail in failures:
        print(f"check {name} FAILED: {detail}", file=sys.stderr)
    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name, _ in PER_LAYER if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in rounds))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        # The host's speed drifts over minutes rather than throwing single slow
        # rounds, and over two to five rounds the mean then spreads less from
        # run to run than the median.  Identical rounds of sde_ensembles peak at
        # about 129 MB or 144 MB; the larger is what a user must provision.
        metrics = {
            "wall_s": {"value": statistics.fmean(r["wall_s"] for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out_dir / f"result-{tag}.json").write_text(json.dumps(
        {"rounds": rounds, "traced": traced, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
