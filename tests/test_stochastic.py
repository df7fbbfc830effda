import math
import multiprocessing
import os
import threading

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from weakkam import stochastic
from weakkam.errors import ConfigError
from weakkam.model import HamiltonianModel, PotentialSpec
from weakkam.stochastic import (DriftField, StaticCenter, exit_time_scaling,
                                exit_times, lax_residual, simulate_paths)
from weakkam.variational import GridSpec
from weakkam.viscous import solve_cell

FREE = HamiltonianModel(family="mechanical")


def test_zero_noise_zero_drift_paths_constant():
    ens = simulate_paths(FREE, DriftField.zero(), 0.0, 16, 1e-2, 3, 1.0,
                         start_x=0.37)
    assert np.max(np.abs(ens.paths - 0.37)) == 0.0


def test_zero_noise_optimal_drift_follows_orbit(tw_model):
    # the deterministic flow of the interpolated optimal drift tracks the
    # orbit x_I - t/k; oracle = RK4 on the same interpolated field
    sol = solve_cell(tw_model, 0.02, GridSpec(128, 16))
    drift = DriftField.from_viscous(tw_model, sol)
    dt = 5e-4
    ens = simulate_paths(tw_model, drift, 0.0, 1, dt, 1, 2.0, start_x=0.0)
    xs = ens.paths[0]
    # RK4 oracle on the interpolated drift
    x, path = 0.0, [0.0]
    for n in range(len(xs) - 1):
        s = n * dt
        k1 = float(drift(np.array([x]), s)[0])
        k2 = float(drift(np.array([x + dt * k1 / 2]), s + dt / 2)[0])
        k3 = float(drift(np.array([x + dt * k2 / 2]), s + dt / 2)[0])
        k4 = float(drift(np.array([x + dt * k3]), s + dt)[0])
        x += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        path.append(x)
    np.testing.assert_allclose(xs, path, atol=5e-3)
    # and the whole trajectory hugs the traveling crest
    gap = np.abs((xs + ens.times / 2 + 0.25) % 0.5 - 0.25)
    assert np.max(gap) <= 0.06


def test_martingale_mean_displacement():
    eps, t_end, n = 0.02, 1.0, 4000
    ens = simulate_paths(FREE, DriftField.zero(), eps, n, 1e-3, 11, t_end)
    disp = ens.paths[:, -1] - ens.paths[:, 0]
    assert abs(np.mean(disp)) <= 3 * math.sqrt(2 * eps * t_end / n)


def test_bit_reproducibility_and_resize_stability():
    a = exit_times(FREE, DriftField.zero(), StaticCenter(0.0), 0.01, 0.1,
                   400, 3e-5, 42, 4.0)
    b = exit_times(FREE, DriftField.zero(), StaticCenter(0.0), 0.01, 0.1,
                   400, 3e-5, 42, 4.0)
    c = exit_times(FREE, DriftField.zero(), StaticCenter(0.0), 0.01, 0.1,
                   700, 3e-5, 42, 4.0)
    assert np.array_equal(a.tau_samples, b.tau_samples)
    assert np.array_equal(a.tau_samples, c.tau_samples[:400])


def test_streams_stable_under_block_and_chunk_resizing(bench_model, monkeypatch):
    # every path owns its noise stream, so the block and chunk sizes, and the
    # paths stopped around it, cannot change what a path samples
    sol = solve_cell(bench_model, 0.05, GridSpec(64, 8))
    drift = _linear_drift(-2 * np.pi)

    def run():
        ens = exit_times(FREE, drift, StaticCenter(0.5), 0.04, 0.1, 20, 1e-3, 4, 2.0)
        paths = simulate_paths(FREE, drift, 0.04, 20, 1e-3, 4, 0.103, start_x=0.3,
                               start_t=0.2).paths
        probes = lax_residual(bench_model, sol, DriftField.from_viscous(bench_model, sol),
                              kappa=0.103, n_paths=20, dt=1e-3, seed=4,
                              probes=[(0.25, 0.0), (0.6, 0.3)])
        return ens.tau_samples, paths, [(p.lhs, p.rhs, p.se) for p in probes]

    taus, paths, probes = run()
    monkeypatch.setattr(stochastic, "BLOCK_PATHS", 7)
    monkeypatch.setattr(stochastic, "CHUNK_STEPS", 5)
    taus_small, paths_small, probes_small = run()
    steps = np.round(taus / 1e-3).astype(int)
    assert np.any((steps % 5 != 0) & (taus < 2.0))   # exits inside a chunk
    assert np.array_equal(taus, taus_small)
    assert np.array_equal(paths, paths_small)
    assert probes == probes_small


def test_lax_probes_batch_like_single_probes(bench_model, monkeypatch):
    # probes sharing a start time run as one ensemble; each keeps its own
    # keys (seed + 7919 k, i), so it samples what it samples on its own
    monkeypatch.setattr(stochastic, "BLOCK_PATHS", 8)
    sol = solve_cell(bench_model, 0.05, GridSpec(64, 8))
    drift = DriftField.from_viscous(bench_model, sol)
    P = [(0.25, 0.0), (0.6, 0.3), (0.8, 0.0), (0.1, 0.3), (0.45, 0.0)]

    def lax(seed, probes):
        return [(p.lhs, p.rhs, p.se) for p in lax_residual(
            bench_model, sol, drift, kappa=0.05, n_paths=13, dt=1e-3, seed=seed,
            probes=probes)]

    single = [lax(4 + 7919 * k, [p])[0] for k, p in enumerate(P)]
    assert lax(4, P) == single


def _force_cpus(monkeypatch, n):
    """Make the drivers see n CPUs, whatever the machine has."""
    monkeypatch.setattr(stochastic.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def test_results_do_not_depend_on_the_worker_count(bench_model, monkeypatch):
    # an odd path count splits unevenly, and the first Lax group's ranges cut
    # through a probe, so a range that drops, repeats or re-keys a path shows
    monkeypatch.setattr(stochastic, "BLOCK_PATHS", 64)
    monkeypatch.setattr(stochastic, "CHUNK_STEPS", 7)
    sol = solve_cell(bench_model, 0.05, GridSpec(64, 8))
    opt = DriftField.from_viscous(bench_model, sol)

    def run(n_cpus):
        _force_cpus(monkeypatch, n_cpus)
        rep = exit_time_scaling(FREE, StaticCenter(0.5), _linear_drift(-2 * np.pi),
                                [0.08, 0.04], 0.1, 301, kappa=1.0, dt=1e-3, seed=6)
        probes = lax_residual(bench_model, sol, opt, kappa=0.05, n_paths=301, dt=1e-3,
                              seed=6, probes=[(0.25, 0.0), (0.6, 0.3), (0.8, 0.0)])
        return rep, [(p.lhs, p.rhs, p.se) for p in probes]

    serial = run(1)
    for n_cpus in (2, 3):
        assert run(n_cpus) == serial, n_cpus
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn", "forkserver"])
    for n_cpus in (2, 3):
        assert run(n_cpus) == serial, ("no fork", n_cpus)


class _WorkerOnlyFailure(DriftField):
    """A linear drift that raises once a worker process steps it past s = 0.01."""

    def __call__(self, x, s):
        if os.getpid() != self.parent_pid and s >= 0.01:
            raise FloatingPointError(f"drift failed at s >= 0.01 in {type(self).__name__}")
        return super().__call__(x, s)


def test_workers_end_with_the_drivers_and_pass_errors_back(bench_model, monkeypatch):
    _force_cpus(monkeypatch, 2)
    threads = set(threading.enumerate())
    sol = solve_cell(bench_model, 0.05, GridSpec(64, 8))
    lin = _linear_drift(-2 * np.pi)
    exit_time_scaling(FREE, StaticCenter(0.5), lin, [0.08, 0.04], 0.1, 50, kappa=1.0,
                      dt=1e-3, seed=2)
    lax_residual(bench_model, sol, DriftField.from_viscous(bench_model, sol), kappa=0.05,
                 n_paths=50, dt=1e-3, seed=2)
    assert multiprocessing.active_children() == []

    failing = _WorkerOnlyFailure(kind=lin.kind, grid=lin.grid, values=lin.values)
    failing.parent_pid = os.getpid()
    message = "drift failed at s >= 0.01 in _WorkerOnlyFailure"
    with pytest.raises(FloatingPointError) as info:
        exit_time_scaling(FREE, StaticCenter(0.5), failing, [0.08, 0.04], 0.1, 50,
                          kappa=1.0, dt=1e-3, seed=2)
    assert str(info.value) == message
    with pytest.raises(FloatingPointError) as info:
        lax_residual(bench_model, sol, failing, kappa=0.05, n_paths=50, dt=1e-3, seed=2)
    assert str(info.value) == message
    assert multiprocessing.active_children() == []
    assert set(threading.enumerate()) == threads   # the pool's handler threads are gone


def test_a_fan_out_inside_a_worker_runs_in_process(monkeypatch):
    # a daemonic pool worker may not start processes of its own
    _force_cpus(monkeypatch, 2)

    def inner():
        return os.getpid(), stochastic._fan_out([os.getpid, os.getpid])

    (worker, pids), _ = stochastic._fan_out([inner, inner])
    assert worker != os.getpid()
    assert pids == [worker, worker]


def test_lax_horizon_is_the_simulated_time():
    # V = 0.7 gives c(eps) = 0.7, a flat profile and L = v^2/2 - 0.7, so the
    # two sides agree exactly when phi is read and c(eps) is charged at the
    # time the paths ran, 3333 dt here, not at kappa = 1
    model = HamiltonianModel(family="mechanical",
                             potential=PotentialSpec.from_terms([(0, 0.7, 0.0)]))
    sol = solve_cell(model, 0.02, GridSpec(50, 8))
    drift = DriftField.from_viscous(model, sol)
    for dt in (1e-3, 3e-4):
        probe, = lax_residual(model, sol, drift, kappa=1.0, n_paths=20, dt=dt,
                              seed=3, probes=[(0.2, 0.0)])
        assert probe.residual <= 1e-12, dt


def _bilinear_reference(table, xs, t):
    """Bilinear interpolation point by point, both indices wrapped modulo the table."""
    nx, nt = table.shape
    tpos = (t % 1.0) * nt
    j = math.floor(tpos)
    wt = tpos - j
    out = []
    for x in xs:
        pos = (x % 1.0) * nx
        i = math.floor(pos)
        wx = pos - i
        a, b = table[i % nx, j % nt], table[(i + 1) % nx, j % nt]
        c, d = table[i % nx, (j + 1) % nt], table[(i + 1) % nx, (j + 1) % nt]
        out.append((1 - wt) * ((1 - wx) * a + wx * b) + wt * ((1 - wx) * c + wx * d))
    return np.array(out)


def test_bilinear_matches_reference():
    rng = np.random.default_rng(5)
    table = rng.normal(size=(40, 8))
    # x % 1.0 is 1.0 at x = -1e-20: the cell index must wrap to 0
    xs = np.concatenate([rng.uniform(-2.0, 3.0, 300), [-1e-20, 0.0, 1.0, 0.999999, 1 / 40]])
    for t in [*rng.uniform(-2.0, 3.0, 200), -1e-20, 0.0, 7 / 8]:
        assert np.array_equal(stochastic._bilinear(table, xs, t),
                              _bilinear_reference(table, xs, t)), t
    assert stochastic._bilinear(table, np.array([-1e-20]), -1e-20)[0] == table[0, 0]


def _bilinear_by_remainder(table, x, t):
    """The interpolator as it wrapped by ``%``: x % 1.0, then the cell index % nx."""
    nx, nt = table.shape
    pos = (np.asarray(x, dtype=float) % 1.0) * nx
    cell = np.floor(pos)
    wx = pos - cell
    vx = 1 - wx
    i0 = cell.astype(int) % nx
    i1 = i0 + 1
    i1[i1 == nx] = 0
    tpos = (t % 1.0) * nt
    tcell = math.floor(tpos)
    j0 = int(tcell) % nt
    j1 = (j0 + 1) % nt
    wt = tpos - tcell
    c0, c1 = table[:, j0], table[:, j1]
    return (1 - wt) * (vx * c0[i0] + wx * c0[i1]) + wt * (vx * c1[i0] + wx * c1[i1])


def _outside_tube_by_remainder(X, center, delta):
    return np.abs((X - center + 0.5) % 1.0 - 0.5) >= delta


def _wrap_edge_values():
    """Signed zeros and subnormals, the float below 0 and -1, powers of two, huge values."""
    powers = 2.0 ** -np.arange(1, 64)
    edges = np.concatenate([
        [0.0, 5e-324, 1.0, 0.5, 1e15, 1e15 + 0.5, 123456789.25, np.nextafter(1.0, 0.0)],
        powers, 1.0 - powers, 1.0 + powers, 37.0 + powers])
    return np.concatenate([edges, -edges, [np.nextafter(-1.0, 0.0), np.nextafter(0.0, -1.0)]])


def test_floor_wrap_matches_the_remainder_wrap():
    # x - floor(x) is x % 1.0 bit for bit, -0.0 and the 1.0 of x just below 0
    # included, so the interpolator and the tube test keep every bit
    rng = np.random.default_rng(11)
    edges = _wrap_edge_values()
    assert np.array_equal(np.copysign(1.0, edges - np.floor(edges)), np.copysign(1.0, edges % 1.0))
    xs = np.concatenate([edges, rng.uniform(-3.0, 4.0, 2000),
                         rng.uniform(-1.0, 1.0, 500) * 10.0 ** rng.integers(-20, 16, 500)])
    for nx, nt in ((40, 8), (200, 32), (3, 1)):
        table = rng.normal(size=(nx, nt))
        for t in (*rng.uniform(-2.0, 3.0, 20), 0.0, -0.0, -1e-20, 5e-324, 1e15):
            assert np.array_equal(stochastic._bilinear(table, xs, t),
                                  _bilinear_by_remainder(table, xs, t)), (nx, t)
    for center in (*rng.uniform(-5.0, 5.0, 20), 0.0, -0.0, 0.5, -0.5, 1e15):
        for delta in (0.1, 0.05, 0.4999):
            assert np.array_equal(stochastic._outside_tube(xs, center, delta),
                                  _outside_tube_by_remainder(xs, center, delta)), (center, delta)


def test_flat_case_exit_oracle():
    # oracle: eps u'' = -1 on (-delta, delta), u(+-delta) = 0 -> E tau = delta^2/(2 eps)
    delta = 0.1
    for eps in (0.01, 0.005):
        ens = exit_times(FREE, DriftField.zero(), StaticCenter(0.0), eps, delta,
                         5000, 1.5e-5, 11, 10.0)
        oracle = delta ** 2 / (2 * eps)
        assert abs(ens.mean_tau - oracle) <= 3 * ens.tau_ci95
        assert ens.capped_fraction == 0.0


def test_exit_time_monotone_in_radius():
    eps = 0.02
    small = exit_times(FREE, DriftField.zero(), StaticCenter(0.0), eps, 0.05,
                       2000, 2e-5, 5, 10.0)
    large = exit_times(FREE, DriftField.zero(), StaticCenter(0.0), eps, 0.10,
                       2000, 2e-5, 5, 10.0)
    assert large.mean_tau > small.mean_tau


def test_exit_requires_resolved_scale():
    with pytest.raises(ConfigError):
        exit_times(FREE, DriftField.zero(), StaticCenter(0.0), 0.5, 0.05,
                   10, 1e-2, 1, 1.0)


def test_kappa_too_small_flagged():
    with pytest.raises(ConfigError):
        exit_time_scaling(FREE, StaticCenter(0.0), DriftField.zero(),
                          [0.001], 0.2, 200, kappa=0.05, dt=1e-4, seed=9)


def _linear_drift(rate):
    """Drift rate * (x - 1/2) on a grid; bilinear interpolation is exact for it."""
    grid = GridSpec(200, 4)
    xs = grid.nodes()
    U = rate * ((xs[:, None] - 0.5) * np.ones((1, grid.nt)))
    return DriftField(kind="barrier_drift", grid=grid, values=U)


def _ou_mean_exit(eps, lam, delta):
    """E tau from 0 for dX = -lam X ds + sqrt(2 eps) dW leaving (-delta, delta).

    Solves eps u'' - lam x u' = -1, u(+-delta) = 0 by quadrature:
    u(0) = (1/eps) int_0^delta e^{a y^2} int_0^y e^{-a z^2} dz dy, a = lam/(2 eps).
    """
    a = lam / (2 * eps)
    inner = lambda y: math.sqrt(math.pi / (4 * a)) * erf(math.sqrt(a) * y)
    return quad(lambda y: math.exp(a * y * y) * inner(y), 0.0, delta)[0] / eps


def test_linear_drift_exit_oracle():
    # oracle: the Ornstein-Uhlenbeck mean exit time at lambda = 2 pi.  The
    # allowance for discrete exit monitoring is the leading-order shift of the
    # boundary by beta sigma sqrt(dt), beta = -zeta(1/2)/sqrt(2 pi) = 0.5826
    # (Broadie-Glasserman-Kou), which only lengthens the measured exit time.
    eps, delta, dt = 0.04, 0.1, 2e-5
    lam = 2 * np.pi
    ens = exit_times(FREE, _linear_drift(-lam), StaticCenter(0.5), eps, delta,
                     8000, dt, 5, 10.0)
    oracle = _ou_mean_exit(eps, lam, delta)
    bias = _ou_mean_exit(eps, lam, delta + 0.5826 * math.sqrt(2 * eps * dt)) - oracle
    assert ens.capped_fraction == 0.0
    assert abs(ens.mean_tau - oracle) <= 3 * ens.tau_ci95 + bias


def test_exit_scaling_trend_confined():
    # an attracting drift produces the increasing eps log E(tau) staircase and
    # holds paths in the tube longer than free noise does
    rep = exit_time_scaling(FREE, StaticCenter(0.5), _linear_drift(-2 * np.pi),
                            [0.08, 0.04, 0.02], 0.1, 3000, kappa=20.0, dt=5e-4,
                            seed=3)
    vals = [r.eps_log_mean_tau for r in rep.records]
    assert rep.nondecreasing
    assert vals[2] > vals[0]
    assert all(r.capped_fraction <= 0.5 for r in rep.records)
    assert rep.all_positive


def test_exit_scaling_repelling_not_positive():
    # a repelling drift pushes paths out faster than free noise
    rep = exit_time_scaling(FREE, StaticCenter(0.5), _linear_drift(2 * np.pi),
                            [0.08, 0.04, 0.02], 0.1, 3000, kappa=20.0, dt=5e-4,
                            seed=3)
    assert all(r.eps_log_ratio < 0 for r in rep.records)
    assert not rep.all_positive


def test_exit_scaling_zero_drift_not_positive():
    # common noise makes the zero-drift ensemble its own reference: ratio 1
    rep = exit_time_scaling(FREE, StaticCenter(0.5), DriftField.zero(),
                            [0.08, 0.04, 0.02], 0.1, 3000, kappa=20.0, dt=5e-4,
                            seed=3)
    assert all(r.mean_tau == r.mean_tau_free for r in rep.records)
    assert all(r.eps_log_ratio == 0.0 for r in rep.records)
    assert not rep.all_positive


def test_lax_trivial_case():
    sol = solve_cell(FREE, 0.02, GridSpec(100, 8))
    drift = DriftField.from_viscous(FREE, sol)
    probes = lax_residual(FREE, sol, drift, kappa=1.0, n_paths=500, dt=1e-3,
                          seed=3, probes=[(0.2, 0.0)])
    assert probes[0].residual <= max(1e-12, 2 * probes[0].se)


def test_lax_benchmark_and_suboptimal_bound(bench_model):
    sol = solve_cell(bench_model, 0.02, GridSpec(200, 32), normalize_node=100)
    opt = DriftField.from_viscous(bench_model, sol)
    probes = lax_residual(bench_model, sol, opt, kappa=2.0, n_paths=3000,
                          dt=1e-3, seed=7, probes=[(0.25, 0.0), (0.5, 0.0)])
    for p in probes:
        assert p.residual <= max(0.02, 2 * p.se) + 0.01

    # any admissible drift stays below the optimal value (supremum property)
    grid = sol.grid
    const = DriftField(kind="zero", grid=grid,
                       values=np.full((grid.nx, grid.nt), 0.3))
    const.kind = "constant"
    sub = lax_residual(bench_model, sol, const, kappa=2.0, n_paths=3000,
                       dt=1e-3, seed=13, probes=[(0.25, 0.0), (0.5, 0.0)])
    for p_opt, p_sub in zip(probes, sub):
        assert p_sub.rhs <= p_opt.lhs + 2 * p_sub.se + 0.01
