"""Discrete Lax-Oleinik machinery on a space-time grid.

A period of the flow is discretized into ``nt`` substeps; within a substep a
path moves along a straight segment between grid nodes, paying the Lagrangian
quoted at the segment midpoint in space and time.  Everything downstream is
min-plus algebra over these substep kernels:

* the critical value is minus the minimum mean (per period) over closed cycles
  of the chained kernels, computed independently by Karp's algorithm on the
  one-period composed graph and by min-plus power iteration;
* anchored Peierls barriers come from backward value iteration seeded at an
  orbit anchor, with the liminf realized as the minimum over a trailing window
  of whole periods;
* the action potential is the running minimum over all finite iterates.

Unreached states are explicit ``inf`` entries of the value fields (the neutral
element of (min, +)); kernel tables themselves contain only finite costs for
the allowed displacements.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
import math

import numpy as np

from .errors import ConfigError, ConvergenceError, NumericalQualityError, WeakKamError

INF = np.inf
ROW_CHUNK = 16            # rows per block of a dense (min,+) product
POWER_MAX_ITERS = 4000    # power iterations before the Cesaro fallback
POWER_MAX_PERIOD = 128    # longest eventual period the power iteration detects
AGREEMENT_TOL = 1e-6      # largest Karp - power gap critical_value accepts


@dataclass(frozen=True)
class GridSpec:
    """nx spatial nodes on [0,1), nt substeps per unit time.

    ``node`` and ``trace`` are the grid's one way to read a field at a point
    or along an orbit: the nearest node, and the orbit sampled at the substep
    times together with the columns those samples fall in.
    """

    nx: int
    nt: int

    def __post_init__(self):
        if self.nx < 2 or self.nt < 1:
            raise ConfigError(f"grid must have nx >= 2, nt >= 1, got {self.nx}x{self.nt}",
                              field="grid")

    @property
    def dx(self) -> float:
        return 1.0 / self.nx

    def nodes(self) -> np.ndarray:
        return np.arange(self.nx) / self.nx

    def substep_times(self) -> np.ndarray:
        return np.arange(self.nt) / self.nt

    def node(self, x):
        """Index of the node nearest x on the circle, ties to even as round() does.

        An ``int`` for a scalar x, an integer array for an array; a non-finite
        x, which has no nearest node, is refused.
        """
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise WeakKamError(f"no grid node is nearest a non-finite position {x!r}")
        i = np.rint((x % 1.0) * self.nx).astype(int) % self.nx
        return int(i) if i.ndim == 0 else i

    def trace(self, orbit, n: int | None = None):
        """Orbit positions mod 1 at the substep times j/nt, j < n, and columns j mod nt.

        ``n`` defaults to ``nt * orbit.period``, one whole period of the orbit.
        """
        j = np.arange(self.nt * orbit.period if n is None else n)
        return orbit.position(j / self.nt) % 1.0, j % self.nt


@dataclass(frozen=True)
class Numerics:
    """A run's ten numerical settings (the config's ``numerics`` block) and
    their defaults; the two counts are held as ``int``."""

    vmax: float = 4.0            # velocity cap of the action kernels
    cell_tol: float = 1e-6       # periodicity residual of the viscous cell problem
    barrier_tol: float = 1e-7    # window oscillation of a settled barrier
    shoot_tol: float = 1e-10     # return-map residual of a periodic orbit
    slope_tol: float = 0.15      # relative slack of the slope law
    grid_tol: float = 0.02       # grid slack of barrier identities and compatibility
    aubry_tol: float = 0.02      # barrier diagonal along an Aubry orbit
    lip_cap: float = 4.0         # a-priori gradient bound of the viscous profile
    max_sweeps: int = 400        # barrier sweeps before giving up
    max_periods: int = 600       # viscous periods before giving up

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if isinstance(f.default, int):
                object.__setattr__(self, f.name, int(getattr(self, f.name)))


@dataclass
class ActionKernelSet:
    """Substep cost tables K_j[d, a] for moves node a -> a + offsets[d]."""

    grid: GridSpec
    vmax: float
    offsets: np.ndarray              # integer node displacements, shape (ndisp,)
    costs: list[np.ndarray]          # nt tables, each (ndisp, nx), all finite
    time_independent: bool = False

    @property
    def dmax(self) -> int:
        return int(self.offsets[-1])

    def target_index(self) -> np.ndarray:
        """(ndisp, nx) table of arrival nodes (a + d) mod nx."""
        nx = self.grid.nx
        return (np.arange(nx)[None, :] + self.offsets[:, None]) % nx


def build_kernels(model, grid: GridSpec, vmax: float = Numerics.vmax) -> ActionKernelSet:
    """Cost tables K_j(a -> b) = L(x_mid, v, t_mid)/nt for |v| <= vmax.

    The potential is sampled at the segment midpoint (second order, without a
    telescoping boundary bias).
    """
    nx, nt = grid.nx, grid.nt
    dmax = int(math.floor(vmax * nx / nt))
    if dmax < 2:
        raise ConfigError(
            f"velocity cap {vmax} resolves fewer than two neighbors per substep "
            f"on a {nx}x{nt} grid (need vmax/nt >= 2/nx)", field="numerics.vmax")
    if dmax > nx // 2:
        dmax = nx // 2
    offsets = np.arange(-dmax, dmax + 1)
    velocities = offsets * (nt / nx)
    xq = grid.nodes()[None, :] + offsets[:, None] / (2.0 * nx)
    costs = []
    time_independent = model.speed == 0   # V does not move: one kernel serves every substep
    for j in range(nt if not time_independent else 1):
        t_mid = (j + 0.5) / nt
        lval, _ = model.lagrangian(xq, np.broadcast_to(velocities[:, None], xq.shape), t_mid)
        costs.append(np.ascontiguousarray(lval / nt))
    if time_independent:
        costs = costs * nt
    return ActionKernelSet(grid=grid, vmax=vmax, offsets=offsets, costs=costs,
                           time_independent=time_independent)


def _backward_apply(cost: np.ndarray, tgt: np.ndarray, u_next: np.ndarray) -> np.ndarray:
    """(min,+) application u(a) = min_d cost[d,a] + u_next[(a+d) mod nx]."""
    return np.min(cost + u_next[tgt], axis=0)


def _dense_from_kernel(cost: np.ndarray, offsets: np.ndarray, nx: int) -> np.ndarray:
    cols = np.arange(nx)
    W = np.full((nx, nx), INF)
    for i, d in enumerate(offsets):
        tgt = (cols + d) % nx
        W[cols, tgt] = np.minimum(W[cols, tgt], cost[i, :])
    return W


def _minplus_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(min,+) matrix product out[a, b] = min_k A[a, k] + B[k, b].

    Blocks of ROW_CHUNK rows, each one (ROW_CHUNK, n, n) broadcast minimum,
    bound the temporaries.
    """
    n = A.shape[0]
    out = np.empty((n, n))
    with np.errstate(invalid="ignore"):
        for lo in range(0, n, ROW_CHUNK):
            hi = min(lo + ROW_CHUNK, n)
            out[lo:hi] = np.min(A[lo:hi, :, None] + B[None, :, :], axis=1)
    return out


def compose_period(kernels: ActionKernelSet) -> np.ndarray:
    """Dense one-period cost matrix W[a, b] = min path cost a -> b over nt substeps.

    A time-independent kernel set is composed by binary exponentiation of its
    dense one-substep matrix.  Otherwise each substep j maps W to
    W'[a, b] = min_d W[a, (b - d) mod nx] + K_j[d, (b - d) mod nx], computed
    on the transpose V = W^T: V is held between dmax wrapped rows on each side
    (K_j likewise, by columns), so that offset d reads the contiguous row
    block dmax - d .. dmax - d + nx.  The first offset writes V' and every
    later one takes the minimum with it, in place.
    """
    nx, nt = kernels.grid.nx, kernels.grid.nt
    offsets = kernels.offsets
    if kernels.time_independent:
        base = _dense_from_kernel(kernels.costs[0], offsets, nx)
        result = None
        power = base
        n = nt
        while n:
            if n & 1:
                result = power if result is None else _minplus_product(result, power)
            n >>= 1
            if n:
                power = _minplus_product(power, power)
        return result
    # in place: an nx x nx temporary per offset and substep churns the
    # allocator (a page fault per 4 KB when the heap is trimmed between them)
    dmax = kernels.dmax
    V, V_next = np.empty((nx + 2 * dmax, nx)), np.empty((nx + 2 * dmax, nx))
    V[dmax:dmax + nx] = _dense_from_kernel(kernels.costs[0], offsets, nx).T
    cand = np.empty((nx, nx))
    for cj in kernels.costs[1:]:
        V[:dmax] = V[nx:nx + dmax]
        V[dmax + nx:] = V[dmax:2 * dmax]
        cpad = np.concatenate((cj[:, nx - dmax:], cj, cj[:, :dmax]), axis=1)[:, :, None]
        out = V_next[dmax:dmax + nx]
        for i, d in enumerate(offsets):
            rows = slice(dmax - d, dmax - d + nx)
            if i == 0:
                np.add(V[rows], cpad[i, rows], out=out)
            else:
                np.add(V[rows], cpad[i, rows], out=cand)
                np.minimum(out, cand, out=out)
        V, V_next = V_next, V
    return np.ascontiguousarray(V[dmax:dmax + nx].T)


@dataclass
class CriticalValueResult:
    """Critical value with both independent estimates attached."""

    c: float
    c_karp: float
    c_power: float
    power_iterations: int
    exact_regime: bool

    @property
    def agreement(self) -> float:
        return abs(self.c_karp - self.c_power)


def _karp_min_mean(W: np.ndarray) -> float:
    """Karp's minimum mean cycle on a dense (min,+) weight matrix."""
    nx = W.shape[0]
    n = nx
    D = np.full((n + 1, nx), INF)
    D[0, 0] = 0.0
    for k in range(n):
        with np.errstate(invalid="ignore"):
            D[k + 1] = np.min(D[k][:, None] + W, axis=0)
    if not np.all(np.isfinite(D[n])):
        raise ConfigError("reachability graph is disconnected at this vmax/grid",
                          field="numerics.vmax")
    ks = np.arange(n)
    with np.errstate(invalid="ignore"):
        ratios = (D[n][None, :] - D[:n]) / (n - ks)[:, None]
    ratios = np.where(np.isfinite(D[:n]), ratios, -INF)
    per_node = np.max(ratios, axis=0)
    return float(np.min(per_node))


def _power_min_mean(W: np.ndarray):
    """Min-plus power iteration; detects the exact eventually-periodic regime.

    Every 4 iterations it looks for a period sigma <= POWER_MAX_PERIOD over
    which the iterate moves by a constant (to 1e-10 relative).  Returns
    (mean, iterations, exact) where exact=False marks the Cesaro fallback
    after POWER_MAX_ITERS iterations.
    """
    nx = W.shape[0]
    sigma_max = POWER_MAX_PERIOD
    hist = np.zeros((sigma_max + 1, nx))
    v = np.zeros(nx)
    hist[0] = v
    for n in range(1, POWER_MAX_ITERS + 1):
        v = np.min(W + v[None, :], axis=1)
        hist[n % (sigma_max + 1)] = v
        if n >= sigma_max and n % 4 == 0:
            scale = max(1.0, float(np.max(np.abs(v))))
            for sigma in range(1, sigma_max + 1):
                r = v - hist[(n - sigma) % (sigma_max + 1)]
                if float(np.ptp(r)) <= 1e-10 * scale:
                    return float(np.mean(r)) / sigma, n, True
    # Cesaro fallback over the longest available stride
    r = v - hist[(n - sigma_max) % (sigma_max + 1)]
    return float(np.mean(r)) / sigma_max, n, False


def critical_value(kernels: ActionKernelSet) -> CriticalValueResult:
    """Critical value c = -(minimum mean cycle) of the one-period composed graph.

    Karp's algorithm and min-plus power iteration must agree within
    ``AGREEMENT_TOL``; disagreement raises NumericalQualityError.
    """
    W = compose_period(kernels)
    lam_karp = _karp_min_mean(W)
    lam_power, iters, exact = _power_min_mean(W)
    if abs(lam_karp - lam_power) > AGREEMENT_TOL:
        raise NumericalQualityError(
            f"critical value estimates disagree: Karp {-lam_karp:.9g} vs "
            f"power iteration {-lam_power:.9g}")
    return CriticalValueResult(c=-lam_karp, c_karp=-lam_karp, c_power=-lam_power,
                               power_iterations=iters, exact_regime=exact)


@dataclass
class BarrierField:
    """Anchored barrier h(., ., anchor) and action potential on the grid.

    ``h[a, j]`` approximates the barrier from node a at substep j to the
    anchor point (anchor_x, [0]); ``phi_pot`` is the minimum over all finite
    transfer times.
    """

    anchor_x: float
    grid: GridSpec
    h: np.ndarray
    phi_pot: np.ndarray
    window_osc: float
    n_sweeps: int
    osc_trace: list = field(default_factory=list)

    def value_at(self, x, j):
        """Linear interpolation of the barrier h along x at substep column(s) j."""
        i0, i1, w = periodic_cell(x, self.grid.nx)
        return (1.0 - w) * self.h[i0, j] + w * self.h[i1, j]


def periodic_cell(x, nx: int):
    """Nodes i0 and i1 = i0 + 1 (mod nx) around x on nx periodic nodes, and the
    weight w of i1 in the linear interpolant at x (broadcasts over arrays).

    x - floor(x) is bit for bit x % 1.0, at a fraction of its cost; it is 1.0
    for x just below 0, so the cell may be nx, which wraps to 0.
    """
    x = np.asarray(x, dtype=float)
    pos = (x - np.floor(x)) * nx
    cell = np.floor(pos)
    i0 = np.asarray(cell).astype(int)    # asarray: a 0-d x gives a scalar cell
    i0[i0 == nx] = 0
    i1 = np.asarray(i0 + 1)
    i1[i1 == nx] = 0
    return i0, i1, pos - cell


def anchored_barrier(kernels: ActionKernelSet, c: float, anchor_x: float,
                     window: int, barrier_tol: float = Numerics.barrier_tol,
                     max_sweeps: int = Numerics.max_sweeps) -> BarrierField:
    """Backward value iteration from an indicator seed at the anchor.

    Each sweep propagates the cost-to-anchor field through one more whole
    period (adding c per period); the barrier is the minimum over the trailing
    ``window`` sweeps, iterated until that window minimum has moved by at
    most ``barrier_tol`` for max(2 window, 6) sweeps in a row, counted from
    sweep max(2 window + 4, 12) on.  A window minimum that never settles
    raises ``ConvergenceError``: the anchor then need not lie on a hyperbolic
    rest orbit, which the paper assumes the Aubry set consists of.
    """
    grid = kernels.grid
    nx, nt = grid.nx, grid.nt
    if window < 1:
        raise WeakKamError("window must be >= 1")
    anchor_node = grid.node(anchor_x)
    tgt = kernels.target_index()
    c_sub = c / nt

    w_cur = np.full(nx, INF)
    w_cur[anchor_node] = 0.0
    phi = np.full((nx, nt), INF)
    phi[anchor_node, 0] = 0.0

    recent: list[np.ndarray] = []
    h_prev = None
    window_osc = INF
    osc_trace: list[float] = []
    patience = max(2 * window, 6)
    stable = 0
    n_sweeps = 0
    g = np.empty((nx, nt))
    for sweep in range(1, max_sweeps + 1):
        u = w_cur
        for j in range(nt - 1, -1, -1):
            u = _backward_apply(kernels.costs[j], tgt, u) + c_sub
            g[:, j] = u
        w_cur = g[:, 0].copy()
        np.minimum(phi, g, out=phi)
        recent.append(g.copy())
        if len(recent) > window:
            recent.pop(0)
        h_now = np.minimum.reduce(recent) if len(recent) > 1 else recent[0].copy()
        n_sweeps = sweep
        if h_prev is not None:
            both_inf = np.isinf(h_prev) & np.isinf(h_now)
            diff = np.where(both_inf, 0.0, np.abs(h_now - h_prev))
            window_osc = float(np.max(diff)) if np.all(np.isfinite(diff)) else INF
            osc_trace.append(window_osc)
            if sweep >= max(2 * window + 4, 12) and np.all(np.isfinite(h_now)) \
                    and window_osc <= barrier_tol:
                stable += 1
                if stable >= patience:
                    h_prev = h_now
                    break
            else:
                stable = 0
        h_prev = h_now
    else:
        raise ConvergenceError(
            f"barrier iteration did not settle in {max_sweeps} sweeps "
            f"(last window oscillation {window_osc:.3e}); the anchor x = {anchor_x:.6g} "
            "may not lie on a hyperbolic rest orbit, as the Aubry set is assumed to "
            "consist of such orbits", trace=osc_trace)

    return BarrierField(anchor_x=anchor_x, grid=grid, h=h_prev, phi_pot=phi,
                        window_osc=window_osc, n_sweeps=n_sweeps,
                        osc_trace=osc_trace)


def action_potential_pair(field_i: BarrierField, field_j: BarrierField):
    """Barrier matrix entries (h(x_i, x_j), Phi(x_i, x_j)) read off field_j.

    field_j is anchored at x_j; its value at the node nearest x_i gives the
    cost from (x_i, [0]) to (x_j, [0]).  ``GridSpec.node`` refuses a
    non-finite anchor.
    """
    node = field_j.grid.node(field_i.anchor_x)
    return float(field_j.h[node, 0]), float(field_j.phi_pot[node, 0])


def barrier_matrix(fields: list[BarrierField]):
    """All pairwise entries h[i, j] = h(anchor_i, anchor_j), and Phi likewise."""
    m = len(fields)
    H = np.empty((m, m))
    Phi = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            H[i, j], Phi[i, j] = action_potential_pair(fields[i], fields[j])
    return H, Phi


@dataclass
class AubryResidual:
    residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.residual <= self.tol


def aubry_verify(fields: list[BarrierField], orbits, aubry_tol: float = Numerics.aubry_tol):
    """Barrier diagonal along each candidate orbit's own trace.

    For orbit i the residual is max over substep samples (x(t), [t]) of
    |h_i(x(t), [t])|; it vanishes (to grid error) exactly on the Aubry set.
    """
    out = []
    for fld, orbit in zip(fields, orbits):
        vals = fld.value_at(*fld.grid.trace(orbit))
        out.append(AubryResidual(residual=float(np.max(np.abs(vals))), tol=aubry_tol))
    return out

