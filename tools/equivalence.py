"""Run the same ``wkam`` commands on two source trees and compare the artifacts.

Usage: python tools/equivalence.py TREE_A TREE_B [--tol T]

Each run imports ``weakkam`` from the tree's own ``src`` and reads its config
from the tree, with the tree as working directory:

    bench/configs/traveling_wave.json   all
    bench/configs/sde_ensembles.json    stochastic --seed 1
    bench/configs/viscous_sweep.json    all
    configs/benchmark.json              orbits
    configs/traveling_wave.json         rescale
    configs/traveling_wave.json         example

The artifacts of both trees go to a temporary directory, one subdirectory per
run, and are compared with ``diff_artifacts.compare``, exactly or, with
``--tol T``, with floats matching to the relative tolerance T (see that
module; each file's largest deviation is then printed).  The script prints,
for each run, the stage verdicts of both trees, then every artifact that
differs.  It exits 0 when every exit status, every verdict and every artifact
matches (``N files equal``), and 1 otherwise.  Exit statuses and verdicts are
always compared exactly.  The shipped-config runs take minutes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from diff_artifacts import compare, print_comparison, split_tol  # noqa: E402

RUNS = (
    ("bench/configs/traveling_wave.json", "all"),
    ("bench/configs/sde_ensembles.json", "stochastic", "--seed", "1"),
    ("bench/configs/viscous_sweep.json", "all"),
    ("configs/benchmark.json", "orbits"),
    ("configs/traveling_wave.json", "rescale"),
    ("configs/traveling_wave.json", "example"),
)
USAGE = "usage: python tools/equivalence.py TREE_A TREE_B [--tol T]"
CLI = "import sys; from weakkam.cli import main; sys.exit(main())"


def run_name(index: int, run: tuple) -> str:
    config, command = run[:2]
    return f"{index}_{Path(config).stem}_{command}"


def run_tree(tree: Path, out: Path, runs=RUNS) -> list[tuple[int, list[str]]]:
    """(exit status, stage verdict lines) of each run, artifacts under ``out``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    outcomes = []
    for i, run in enumerate(runs):
        config, command, *extra = run
        proc = subprocess.run(
            [sys.executable, "-c", CLI, "--config", config, "--command", command,
             "--out", str(out / run_name(i, run)), *extra],
            cwd=tree, env=env, capture_output=True, text=True)
        # "[stage] PASS -> files": the file list names the tree's own directory
        verdicts = [line.split(" -> ")[0] for line in proc.stdout.splitlines()
                    if line.startswith("[")]
        outcomes.append((proc.returncode, verdicts))
    return outcomes


def equivalence(tree_a: Path, tree_b: Path, runs=RUNS, tol: float | None = None) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out_a, out_b = Path(tmp) / "a", Path(tmp) / "b"
        outcomes = zip(run_tree(tree_a, out_a, runs), run_tree(tree_b, out_b, runs))
        moved = 0
        for i, (run, (a, b)) in enumerate(zip(runs, outcomes)):
            same = a == b
            moved += not same
            print(f"{run_name(i, run)}: exit {a[0]}/{b[0]}, {' '.join(a[1]) or '(no stages)'}"
                  + ("" if same else f" / {' '.join(b[1]) or '(no stages)'}  MOVED"))
        out_a.mkdir(exist_ok=True)
        out_b.mkdir(exist_ok=True)
        n, report, deviations = compare(out_a, out_b, tol)
    print_comparison(n, report, deviations)
    return 1 if report or moved else 0


def main(argv=None) -> int:
    try:
        args, tol = split_tol(sys.argv[1:] if argv is None else argv)
    except ValueError:
        args = []
    if len(args) != 2:
        print(USAGE, file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in args]
    for tree in trees:
        if not (tree / "src" / "weakkam").is_dir():
            print(f"not a source tree (no src/weakkam): {tree}", file=sys.stderr)
            return 2
    return equivalence(*trees, tol=tol)


if __name__ == "__main__":
    sys.exit(main())
