"""Shared fixtures and independent oracles for the test suite.

The barrier oracle is a dense trapezoid quadrature of the degenerate-metric
speed sqrt(-2V) around the circle, computed with no reference to the min-plus
machinery it checks.
"""

from __future__ import annotations

import numpy as np
import pytest

from weakkam.model import HamiltonianModel, PotentialSpec, benchmark_potential


class JacobiOracle:
    """Circle distances in the metric with speed sqrt(max(-2V, 0))."""

    def __init__(self, potential: PotentialSpec, n: int = 200001):
        xs = np.linspace(0.0, 1.0, n)
        speed = np.sqrt(np.maximum(-2.0 * potential.value(xs), 0.0))
        self.xs = xs
        self.G = np.concatenate([[0.0],
                                 np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(xs))])
        self.total = float(self.G[-1])

    def cumulative(self, x):
        return np.interp(np.asarray(x, dtype=float) % 1.0, self.xs, self.G)

    def distance(self, x, y):
        d = np.abs(self.cumulative(x) - self.cumulative(y))
        return np.minimum(d, self.total - d)


@pytest.fixture(scope="session")
def bench_potential():
    return benchmark_potential()


@pytest.fixture(scope="session")
def bench_model(bench_potential):
    return HamiltonianModel(family="mechanical", potential=bench_potential)


@pytest.fixture(scope="session")
def bench_oracle(bench_potential):
    return JacobiOracle(bench_potential)


@pytest.fixture(scope="session")
def tw_potential():
    # (cos(4 pi y) - 1)/2: 1/2-periodic, single cell maximum at 0, V'' = -8 pi^2
    return PotentialSpec.from_terms([(0, -0.5, 0.0), (2, 0.5, 0.0)])


@pytest.fixture(scope="session")
def tw_model(tw_potential):
    return HamiltonianModel(family="traveling_wave", potential=tw_potential, wind=2)


@pytest.fixture(scope="session")
def tw_oracle(tw_potential):
    return JacobiOracle(tw_potential)


@pytest.fixture(scope="session")
def bench_small_setup(bench_model):
    """Kernel set, critical value and both anchored fields on a fast grid."""
    from weakkam.variational import GridSpec, anchored_barrier, build_kernels, critical_value

    grid = GridSpec(200, 32)
    kernels = build_kernels(bench_model, grid)
    cv = critical_value(kernels)
    fields = [anchored_barrier(kernels, cv.c, a, window=1) for a in (0.0, 0.5)]
    return {"grid": grid, "kernels": kernels, "cv": cv, "fields": fields}


@pytest.fixture(scope="session")
def bench_orbits(bench_model):
    from weakkam.dynamics import aubry_orbits

    return aubry_orbits(bench_model)
