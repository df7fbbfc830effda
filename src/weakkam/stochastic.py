"""Monte Carlo verification layer: controlled SDE ensembles and exit times.

Paths follow dX = U(X, s) ds + sqrt(2 eps) dW on the circle via Euler-Maruyama.
Every path carries its own start and its own counter-based generator, keyed
by a pair (root seed, path index): ``simulate_paths`` and ``exit_times`` key
path i by (seed, i), and ``lax_residual`` keys path i of probe k by
(seed + 7919 k, i).  A path is bit-reproducible and independent of the
ensemble it runs in, its size and its neighbours.  Exit times are always
reported capped, tau ^ kappa, together with the capped fraction.

All ensembles run through one stepping core, ``_euler_maruyama``, which takes
one start and one key per path and a common start time t0.  Paths go in
blocks of ``BLOCK_PATHS``; each live path draws its noise ``CHUNK_STEPS``
steps at a time, in place, into one (live paths, CHUNK_STEPS) float64 array
of at most BLOCK_PATHS x CHUNK_STEPS x 8 bytes (16 MiB).  At every step
n = 0..n_steps the core evaluates u = U(X, t0 + n dt) for the live paths and
calls

    observe(idx, X, u, n, s) -> stop mask or None

with the paths' global indices ``idx``, positions ``X``, drifts ``u`` and the
time s = t0 + n dt; the observer must not modify ``X`` or ``u``.  It may
return a boolean mask over the live paths: those paths are dropped before the
update X + u dt + sqrt(2 eps dt) xi and draw no further noise.  As every path
owns its generator, dropping a path leaves every other path's stream position
untouched, so the samples of a path do not depend on its neighbours, the block
size or the chunk size.  The drivers are observers: ``simulate_paths`` stores
X, ``exit_times`` stops paths on leaving the tube, and ``lax_residual``
accumulates the running Lagrangian cost.  ``lax_residual`` runs the probes
that share a start time as one ensemble, so the five default probes, all at
t0 = 0, step together.

An observer sees one block at a time: ``idx`` holds at most BLOCK_PATHS
indices, those of the block's live paths, in increasing order.  An observer
that never stops a path may read and write its per-path arrays through the
contiguous slice idx[0]:idx[-1] + 1, as ``lax_residual`` does; one that
stops paths must index by ``idx``, and none may assume the block is the
whole ensemble.

Positions are wrapped onto the circle by x - floor(x), which equals x % 1.0
bit for bit (signed zeros and the 1.0 of x just below 0 included) and costs
a fraction of it.  ``exit_times`` tabulates the tube's center once per
ensemble, at the engine's own times.

The two verification drivers run their ensembles in worker processes, one
per CPU the process may run on (``os.sched_getaffinity``, else one), through
``_fan_out``: ``exit_time_scaling`` runs each of its 2 len(eps) ``exit_times``
calls as one job, and ``lax_residual`` splits each start-time group's paths
into one contiguous range per CPU.  Workers are forked, so the jobs, which
close over the model and the drift, reach them without pickling; their
results come back by pickle.  With one CPU, or where ``fork`` is not a start
method, the jobs run in the calling process.  As a path's samples depend on
its start and key alone, which process runs it, and how many processes
share the work, cannot change a bit of the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
import math
import os

import numpy as np

from .errors import ConfigError
from .variational import BarrierField, GridSpec, periodic_cell
from .viscous import ViscousSolution, centered_gradient

BLOCK_PATHS = 8192
CHUNK_STEPS = 256

ZERO = "zero"
OPTIMAL_FROM_VISCOUS = "optimal_from_viscous"
BARRIER_DRIFT = "barrier_drift"


@dataclass
class DriftField:
    """Drift U(x, t) on the (node, substep) grid with bilinear interpolation."""

    kind: str
    grid: GridSpec | None = None
    values: np.ndarray | None = None   # (nx, nt)

    @classmethod
    def zero(cls) -> "DriftField":
        return cls(kind=ZERO)

    @classmethod
    def from_viscous(cls, model, sol: ViscousSolution) -> "DriftField":
        """Optimal control U = H_p(x, D phi_eps, t) from the converged profile."""
        return cls._from_profile(OPTIMAL_FROM_VISCOUS, model, sol.grid, sol.phi)

    @classmethod
    def from_barrier(cls, model, fld: BarrierField) -> "DriftField":
        """Drift of the descending barrier profile -h, smoothed in x by two binomial passes."""
        h = fld.h.copy()
        kernel = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
        for _ in range(2):
            acc = np.zeros_like(h)
            for k, w in zip(range(-2, 3), kernel):
                acc += w * np.roll(h, k, axis=0)
            h = acc
        return cls._from_profile(BARRIER_DRIFT, model, fld.grid, -h)

    @classmethod
    def _from_profile(cls, kind: str, model, grid: GridSpec, profile) -> "DriftField":
        """U = H_p(x, D profile, t) with the centered difference in x."""
        U = model.h_p_of_gradient(grid.nodes()[:, None], centered_gradient(profile, grid.dx),
                                  grid.substep_times()[None, :])
        return cls(kind=kind, grid=grid, values=U)

    def __call__(self, x, s):
        """Evaluate the drift at positions x (array) and scalar time s."""
        if self.kind == ZERO:
            return np.zeros_like(np.asarray(x, dtype=float))
        return _bilinear(self.values, x, s)


def _bilinear(table: np.ndarray, x, t: float):
    """Bilinear interpolation of a 1-periodic (nx, nt) table at positions x, scalar time t.

    Crossing the period boundary in t re-enters the table at column 0: both
    tabulated fields (drift and viscous profile) are 1-periodic in time.
    """
    nx, nt = table.shape
    i0, i1, wx = periodic_cell(x, nx)
    vx = 1 - wx
    tpos = (t % 1.0) * nt
    tcell = math.floor(tpos)
    j0 = int(tcell) % nt
    j1 = (j0 + 1) % nt
    wt = tpos - tcell
    c0, c1 = table[:, j0], table[:, j1]
    return (1 - wt) * (vx * c0[i0] + wx * c0[i1]) + wt * (vx * c1[i0] + wx * c1[i1])


def _outside_tube(X, center, delta: float):
    """Mask of the positions X at circle distance delta or more from ``center``."""
    d = X - center + 0.5
    return np.abs(d - np.floor(d) - 0.5) >= delta    # d - floor(d) is bit for bit d % 1.0


@dataclass
class SdeEnsemble:
    epsilon: float
    drift_kind: str
    n_paths: int
    dt: float
    seed: int
    kappa: float
    delta: float | None = None
    tau_samples: np.ndarray | None = None
    capped_fraction: float = 0.0
    paths: np.ndarray | None = None
    times: np.ndarray | None = None

    @property
    def mean_tau(self) -> float:
        return float(np.mean(self.tau_samples))

    @property
    def tau_ci95(self) -> float:
        n = len(self.tau_samples)
        return 1.96 * float(np.std(self.tau_samples, ddof=1)) / math.sqrt(n)


def _cpus() -> int:
    """The number of CPUs this process may run on, or 1 where the OS cannot tell
    (``os.sched_getaffinity`` exists on Linux only)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


_jobs = ()   # in a forked worker, the jobs of the pool that started it


def _adopt_jobs(jobs) -> None:
    global _jobs
    _jobs = jobs


def _run_job(i: int):
    return _jobs[i]()


def _fan_out(jobs: list) -> list:
    """Results of the zero-argument callables ``jobs``, in order.

    The jobs run in min(len(jobs), CPUs) forked workers; they reach the
    workers as the pool initializer's arguments, which a forked worker
    inherits without pickling.  An exception raised by a job is raised here,
    with its class and message.  With one worker to run, no ``fork`` start
    method, or inside a daemonic worker, which may not start processes, the
    jobs run here.  ``multiprocessing`` is imported here, not at module
    level, so a run that never fans out does not pay for its import.
    """
    import multiprocessing

    n_workers = min(len(jobs), _cpus())
    if (n_workers < 2 or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return [job() for job in jobs]
    pool = multiprocessing.get_context("fork").Pool(n_workers, _adopt_jobs, (jobs,))
    try:
        return pool.map(_run_job, range(len(jobs)), chunksize=1)
    finally:
        pool.close()
        pool.join()


def _path_keys(seed: int, n_paths: int) -> np.ndarray:
    """Philox keys (seed, i) of paths i = 0..n_paths-1, one row per path."""
    keys = np.empty((n_paths, 2), dtype=np.uint64)
    keys[:, 0] = seed
    keys[:, 1] = np.arange(n_paths)
    return keys


def _euler_maruyama(drift: DriftField, starts, keys: np.ndarray, epsilon: float,
                    dt: float, n_steps: int, t0: float, observe) -> None:
    """The one Euler-Maruyama loop; path i starts at starts[i] with Philox key keys[i].

    ``observe`` sees every live path at every step; see the module docstring
    for the observer contract.
    """
    sigma = math.sqrt(2.0 * epsilon * dt)
    starts = np.asarray(starts, dtype=float)
    for lo in range(0, len(keys), BLOCK_PATHS):
        hi = min(lo + BLOCK_PATHS, len(keys))
        gens = [np.random.Generator(np.random.Philox(key=key)) for key in keys[lo:hi]]
        idx = np.arange(lo, hi)
        X = starts[lo:hi]
        rows = np.arange(hi - lo)    # live paths' rows in the noise chunk
        for n in range(n_steps + 1):
            s = t0 + n * dt
            u = drift(X, s)
            stop = observe(idx, X, u, n, s)
            if stop is not None and np.any(stop):
                keep = ~stop
                idx, X, u, rows = idx[keep], X[keep], u[keep], rows[keep]
            if n == n_steps or not idx.size:
                break
            m = n % CHUNK_STEPS
            if m == 0:
                # (live paths, chunk): row r continues the stream of path idx[r],
                # drawn in place; column m holds the step's noise
                noise = np.empty((idx.size, min(CHUNK_STEPS, n_steps - n)))
                for r, i in enumerate((idx - lo).tolist()):
                    gens[i].standard_normal(out=noise[r])
                rows = np.arange(idx.size)
            X = X + u * dt + sigma * noise[rows, m]


def simulate_paths(model, drift: DriftField, epsilon: float, n_paths: int,
                   dt: float, seed: int, kappa: float, start_x: float = 0.0,
                   start_t: float = 0.0) -> SdeEnsemble:
    """Euler-Maruyama ensemble from a common start, every path stored."""
    if dt <= 0:
        raise ConfigError("dt must be positive", field="stochastic.dt")
    n_steps = int(round(kappa / dt))
    paths = np.empty((n_paths, n_steps + 1))

    def store(idx, X, u, n, s):
        paths[idx, n] = X

    _euler_maruyama(drift, np.full(n_paths, float(start_x)), _path_keys(seed, n_paths),
                    epsilon, dt, n_steps, start_t, store)
    times = start_t + dt * np.arange(n_steps + 1)
    return SdeEnsemble(epsilon=epsilon, drift_kind=drift.kind, n_paths=n_paths,
                       dt=dt, seed=seed, kappa=kappa, paths=paths, times=times)


def exit_times(model, drift: DriftField, center, epsilon: float, delta: float,
               n_paths: int, dt: float, seed: int, kappa: float) -> SdeEnsemble:
    """Capped exit times from the moving delta-tube around ``center``.

    ``center`` must provide position(s) -> lifted coordinate; distances are
    measured on the circle at matching times.  Requires dt <= delta^2/(8 eps)
    so the exit scale is resolved.
    """
    if delta >= 0.5:
        raise ConfigError("exit radius must be below half the circle", field="stochastic.delta")
    if dt > delta * delta / (8.0 * epsilon):
        raise ConfigError(
            f"dt={dt} too coarse for the exit scale (need <= delta^2/(8 eps) = "
            f"{delta * delta / (8 * epsilon):.3e})", field="stochastic.dt")
    n_steps = int(round(kappa / dt))
    taus = np.full(n_paths, kappa)
    # the center at the engine's times s = 0 + n dt
    g_pos = center.position(0.0 + np.arange(n_steps + 1) * dt)

    def first_exit(idx, X, u, n, s):
        out = _outside_tube(X, g_pos[n], delta)
        taus[idx[out]] = n * dt
        return out

    _euler_maruyama(drift, np.full(n_paths, float(center.position(0.0))),
                    _path_keys(seed, n_paths), epsilon, dt, n_steps, 0.0, first_exit)
    capped = float(np.mean(taus >= kappa))
    return SdeEnsemble(epsilon=epsilon, drift_kind=drift.kind, n_paths=n_paths,
                       dt=dt, seed=seed, kappa=kappa, delta=delta,
                       tau_samples=taus, capped_fraction=capped)


@dataclass
class FwRecord:
    epsilon: float
    mean_tau: float
    ci_low: float
    ci_high: float
    eps_log_mean_tau: float
    capped_fraction: float
    mean_tau_free: float
    eps_log_ratio: float


@dataclass
class FwReport:
    """Freidlin-Wentzell verdict across eps.

    ``all_positive`` holds when eps log(E tau / E tau_free) > 0 at every eps:
    the drift holds paths in the tube longer than free noise does.  The ratio
    carries no unit of time, unlike eps log E tau, whose sign changes with the
    time unit and is promised positive only as eps -> 0.
    """

    records: list[FwRecord]
    all_positive: bool
    nondecreasing: bool

    @property
    def ok(self) -> bool:
        return self.all_positive and self.nondecreasing


def exit_time_scaling(model, center, drift: DriftField, eps_list, delta: float,
                      n_paths: int, kappa: float, dt: float, seed: int) -> FwReport:
    """Freidlin-Wentzell diagnostics: eps log E(tau ^ kappa) across eps.

    Each eps also runs a zero-drift ensemble in the same tube (same center,
    delta, dt, n_paths and seed), so both ensembles share their noise.  PASS
    requires eps log(E tau / E tau_free) > 0 at every eps, and eps log E tau
    nondecreasing as eps decreases, within confidence-interval overlap.

    The ratio is free of units and its Euler-Maruyama exit-monitoring bias
    largely cancels; it equals 1 exactly when the drift is zero.  Around a
    hyperbolic orbit with exponent lambda both eps log E tau and the ratio
    tend to the barrier lambda delta^2/2 > 0 as eps -> 0, but eps log E tau
    can stay negative down to small eps.  A capped fraction above one half
    at the largest eps flags kappa as too small.
    """
    eps_arr = [float(e) for e in eps_list]
    ensembles = _fan_out([partial(exit_times, model, u, center, eps, delta, n_paths, dt,
                                  seed + i, kappa)
                          for i, eps in enumerate(eps_arr)
                          for u in (drift, DriftField.zero())])
    records = []
    for eps, ens, free in zip(eps_arr, ensembles[::2], ensembles[1::2]):
        mean = ens.mean_tau
        ci = ens.tau_ci95
        rec = FwRecord(epsilon=eps, mean_tau=mean,
                       ci_low=mean - ci, ci_high=mean + ci,
                       eps_log_mean_tau=eps * math.log(max(mean, 1e-300)),
                       capped_fraction=ens.capped_fraction,
                       mean_tau_free=free.mean_tau,
                       eps_log_ratio=eps * math.log(max(mean, 1e-300) / free.mean_tau))
        records.append(rec)
    if records and records[0].capped_fraction > 0.5:
        raise ConfigError(
            f"kappa too small: {records[0].capped_fraction:.0%} of paths capped "
            f"at the largest viscosity", field="stochastic.kappa")
    all_positive = all(r.eps_log_ratio > 0 for r in records)
    nondecreasing = True
    for a, b in zip(records, records[1:]):
        # CI-overlap slack: compare b against a with both intervals honored
        slack = (a.epsilon * (math.log(max(a.ci_high, 1e-300)) - math.log(max(a.mean_tau, 1e-300)))
                 + b.epsilon * (math.log(max(b.mean_tau, 1e-300)) - math.log(max(b.ci_low, 1e-300))))
        if b.eps_log_mean_tau < a.eps_log_mean_tau - slack:
            nondecreasing = False
    return FwReport(records=records, all_positive=all_positive,
                    nondecreasing=nondecreasing)


@dataclass
class StaticCenter:
    """Fixed-point stand-in for orbit centers (flat-case oracles)."""

    x: float

    def position(self, s):
        return np.broadcast_to(np.float64(self.x), np.shape(s)) if np.ndim(s) else float(self.x)


@dataclass
class LaxProbe:
    x: float
    t: float
    lhs: float
    rhs: float
    se: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def lax_residual(model, sol: ViscousSolution, drift: DriftField, kappa: float,
                 n_paths: int, dt: float, seed: int,
                 probes=None) -> list[LaxProbe]:
    """Monte Carlo check of the stochastic representation of the viscous profile.

    With the optimal drift and the deterministic horizon T,
    phi(x, t) = E[ phi(X_T, t + T) - int L(X, U(X,s), s) ds ] - c(eps) T
    holds up to discretization and sampling error; each probe reports the
    two sides and the standard error of the estimator.  The paths take
    n_steps = round(kappa / dt) steps, so T = n_steps dt, which is kappa
    when kappa / dt is an integer.  The running cost is the trapezoid rule
    over the Euler-Maruyama steps.

    Probe k draws n_paths paths keyed (seed + 7919 k, i); the probes that
    share a start time run as one ensemble, split into one contiguous range
    of paths per CPU, and each probe's mean and standard error are taken
    over its own paths.
    """
    if probes is None:
        probes = [(x, 0.0) for x in (0.1, 0.3, 0.5, 0.7, 0.9)]
    n_steps = int(round(kappa / dt))
    horizon = n_steps * dt
    jobs, order = [], []   # order: the probes in the order the jobs run their paths
    for t0 in dict.fromkeys(t for _, t in probes):
        group = [k for k, (_, t) in enumerate(probes) if t == t0]
        starts = np.repeat([probes[k][0] for k in group], n_paths)
        keys = np.concatenate([_path_keys(seed + 7919 * k, n_paths) for k in group])
        n = min(_cpus(), len(keys))
        bounds = [len(keys) * w // n for w in range(n + 1)]
        jobs += [partial(_lax_ends, model, sol, drift, starts[lo:hi], keys[lo:hi],
                         dt, n_steps, t0)
                 for lo, hi in zip(bounds, bounds[1:])]
        order += group
    ends = np.empty((len(probes), n_paths))   # phi(X_T, t0 + T) - running cost
    ends[order] = np.concatenate(_fan_out(jobs)).reshape(len(probes), n_paths)
    out = []
    for (x0, t0), end in zip(probes, ends):
        rhs = float(np.mean(end)) - sol.c_eps * horizon
        se = float(np.std(end, ddof=1)) / math.sqrt(n_paths)
        lhs = float(_bilinear(sol.phi, np.array([x0]), t0)[0])
        out.append(LaxProbe(x=x0, t=t0, lhs=lhs, rhs=rhs, se=se))
    return out


def _lax_ends(model, sol: ViscousSolution, drift: DriftField, starts, keys: np.ndarray,
              dt: float, n_steps: int, t0: float) -> np.ndarray:
    """phi(X_T, t0 + T) minus the running cost, for the paths of ``starts`` and ``keys``."""
    horizon = n_steps * dt
    cost = np.zeros(len(keys))
    l_prev = np.empty(len(keys))
    acc = np.empty(len(keys))

    def running_cost(idx, X, u, n, s):
        # no probe path stops, so the block's paths are one contiguous run
        block = slice(idx[0], idx[-1] + 1)
        l_now, _ = model.lagrangian(X, u, s)
        if n:
            cost[block] += 0.5 * (l_prev[block] + l_now) * dt
        l_prev[block] = l_now
        if n == n_steps:
            acc[block] = _bilinear(sol.phi, X, t0 + horizon) - cost[block]

    _euler_maruyama(drift, starts, keys, sol.epsilon, dt, n_steps, t0, running_cost)
    return acc
