"""The benchmark's workloads: which config, which command, which stages.

``BENCHMARK.json`` times all but ``viscous_sweep``, which runs by hand (see
README.md for why).

Each workload's config is a file in ``configs/`` owned by the benchmark.  The
seed makes the inputs.  For the deterministic pipelines it adds a constant in
[-0.5, 0.5) to V: every critical value and c(eps) moves by that constant,
while the orbits, the barriers, the viscous profiles and so the work do not,
which keeps the runs of different seeds comparable.  (Translating V instead
would change the work and runs into two faults of the program; see
CHANGES.md.)  For the stochastic workload the seed is the ensembles' root
seed, passed to the program as ``wkam --seed`` passes it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    command: str
    stages: tuple[str, ...]
    seed_is_program_seed: bool      # else the seed sets the constant term of V


WORKLOADS = {w.name: w for w in (
    Workload("viscous_sweep", "viscous_sweep.json", "sweep", ("sweep",), False),
    Workload("pipeline_traveling_wave", "traveling_wave.json", "all",
             ("orbits", "critical", "barrier", "viscous", "sweep", "rescale",
              "example"), False),
    Workload("sde_ensembles", "sde_ensembles.json", "stochastic", ("stochastic",),
             True),
)}


def make_config(workload: Workload, seed: int) -> dict:
    """The config one run of ``workload`` feeds to the program for ``seed``."""
    with open(CONFIG_DIR / workload.config) as fh:
        cfg = json.load(fh)
    if not workload.seed_is_program_seed:
        terms = cfg["model"]["potential"]["terms"]
        next(t for t in terms if t[0] == 0)[1] += energy_offset(seed)
    return cfg


def program_seed(workload: Workload, seed: int) -> int | None:
    """The ``seed_override`` handed to run_config, as ``wkam --seed`` would."""
    return int(seed) if workload.seed_is_program_seed else None


def energy_offset(seed: int) -> float:
    return (seed % 1000) / 1000.0 - 0.5
