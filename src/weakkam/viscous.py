"""Viscous cell problem: the ergodic constant c(eps) and periodic profile.

The equation phi_t + eps Lap(phi) + H(x, D phi, t) = c(eps) carries a backward
heat term in forward time; substituting s = -t yields a forward parabolic
evolution

    psi_s = eps Lap(psi) + H(x, D psi, -s)

which is marched with centered second differences for the Laplacian and a
monotone local Lax-Friedrichs Hamiltonian whose dissipation coefficient is the
stencil-local max of |H_p| (capped by the a-priori gradient bound, which the
converged profile is checked against).  After the profile locks onto the
time-periodic regime, the per-period mean increment is c(eps) and the
drift-corrected profile, mapped back to forward time, is the solution
normalized at a configured anchor node.  The solution keeps the reversed
state at the end of its last period, so ``residual_check`` marches one period
more from there.

Every model is H = m q^2/2 + e0 + W(x, t) with q = p + b.  A step works on
the ghost-cell row ext = (chi[-1], chi, chi[0]) of length nx + 2: the nx + 1
face differences d = ext[1:] - ext[:-1] are taken once and read by both
neighbouring nodes.  With g = d/dx + b and, per node, the capped dissipation
coefficient alpha = min(max(|g_left|, |g_right|), q_cap), q_cap = lip_cap + |b|,
the step is

    chi += (d_right - d_left) (ds eps/dx^2 + m ds alpha/(2 dx))
           + (m ds/8) (g_left + g_right)^2 + src,    src = ds (e0 + W(x, tau)).

The constants are folded once per march and every operation writes into a
preallocated buffer, so a step is 16 numpy calls.

The source is tabulated once per row block, at the block's m_sub step times
s = S + j/nt + m ds, into a table and a term buffer allocated once per
march.  W(x, -s) = V(x - w s) comes by angle addition: the nodes'
cos/sin(w_k x) are taken once per march, and each time adds one cos/sin
pair per term (``PotentialSpec.translates``).  A model with w = 0 has one
row for all times.

Two equality contracts hold.  ``step_operator`` runs the same kernel on the
same tabulation for one time, so a march and its steps taken one by one
agree bit for bit.  Against the unfolded step (rolled neighbours, H
assembled term by term, W evaluated at every node) the scheme is the same
in exact arithmetic and only rounding moves: whole solves lock in the same
periods and agree to about 1e-13 in c(eps) and phi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import ConfigError, ConvergenceError, NumericalQualityError
from .variational import GridSpec, Numerics

MAX_SUBSTEPS = 200_000


@dataclass
class ViscousSolution:
    """Converged pair (c(eps), phi) on the forward (x-node, substep) grid."""

    epsilon: float
    c_eps: float
    phi: np.ndarray                 # (nx, nt), zero at the normalization node and t = 0
    lip_x: float
    semiconvexity_const: float
    periodicity_residual: float
    grid: GridSpec
    n_periods: int
    ds: float
    m_sub: int
    residual_history: list = field(default_factory=list)
    reversed_snaps: np.ndarray | None = None   # final-period state at substep phases
    end_state: np.ndarray | None = None        # reversed state at s = n_periods
    lip_cap: float = Numerics.lip_cap


def _ghost_row(chi) -> np.ndarray:
    """The row (chi[-1], chi, chi[0]) of length nx + 2 that ``_stepper`` advances."""
    chi = np.asarray(chi, dtype=float)
    return np.concatenate((chi[-1:], chi, chi[:1]))


def _stepper(ext: np.ndarray, model, dx: float, ds: float, eps: float, lip_cap: float):
    """step(src): one explicit monotone update of the ghost-cell row ``ext``, in place.

    The update of psi_s = eps Lap(psi) + H(x, D psi, tau), with src the row
    ds (e0 + W(x, tau)), is folded as in the module docstring; every ufunc
    writes into a buffer allocated here.
    """
    m, b = model.mass, model.momentum_offset
    # ufuncs take 0-d arrays faster than Python floats, at the same value
    b, dx_, q_cap, diffusion, dissipation, kinetic = map(np.array, (
        b, dx, lip_cap + abs(b), ds * eps / (dx * dx), 0.5 * m * ds / dx, m * ds / 8.0))
    nx = ext.size - 2
    d, g, g_abs = np.empty(nx + 1), np.empty(nx + 1), np.empty(nx + 1)
    coef, lap, kin = np.empty(nx), np.empty(nx), np.empty(nx)
    chi, upper, lower = ext[1:-1], ext[1:], ext[:-1]
    d_right, d_left, g_right, g_left = d[1:], d[:-1], g[1:], g[:-1]
    abs_right, abs_left = g_abs[1:], g_abs[:-1]
    # closure names skip a module lookup per call
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    absolute, maximum, minimum = np.absolute, np.maximum, np.minimum

    def step(src):
        ext[0] = ext[nx]
        ext[nx + 1] = ext[1]
        subtract(upper, lower, out=d)
        divide(d, dx_, out=g)
        add(g, b, out=g)
        absolute(g, out=g_abs)
        # the +H sign of the evolution flips the usual dissipation sign: with
        # m alpha >= |H_p| this upwinds correctly (H = a p picks p_plus for a > 0)
        maximum(abs_left, abs_right, out=coef)
        minimum(coef, q_cap, out=coef)
        multiply(coef, dissipation, out=coef)
        add(coef, diffusion, out=coef)
        subtract(d_right, d_left, out=lap)
        multiply(lap, coef, out=lap)
        add(g_left, g_right, out=kin)
        multiply(kin, kin, out=kin)
        multiply(kin, kinetic, out=kin)
        add(chi, lap, out=chi)
        add(chi, kin, out=chi)
        add(chi, src, out=chi)

    return step


def _source_table(model, basis, tau: np.ndarray, ds: float, out=None, work=None) -> np.ndarray:
    """Rows ds (e0 + W(x, tau)) at the nodes of ``basis``, one per time tau.

    W(x, tau) = V(x + w tau) comes from ``PotentialSpec.translates``, written
    into ``out`` with ``work`` for its terms when they are given; a model
    with w = 0 gives one row, whatever the times.
    """
    u = model.speed * tau if model.speed else np.zeros(1)
    table = model.potential.translates(basis, u, out, work)
    table += model.energy_offset
    table *= ds
    return table


def step_operator(model, chi, tau, ds, grid: GridSpec, eps, lip_cap=Numerics.lip_cap):
    """Public single-step wrapper (used by monotonicity spot checks)."""
    ext = _ghost_row(chi)
    src = _source_table(model, model.potential.node_basis(grid.nodes()),
                        np.array([tau], dtype=float), ds)
    _stepper(ext, model, grid.dx, ds, eps, lip_cap)(src[0])
    return ext[1:-1].copy()


def _march_period(model, chi: np.ndarray, S: float, grid: GridSpec, m_sub: int,
                  ds: float, eps: float, lip_cap: float, snaps: np.ndarray) -> np.ndarray:
    """March chi through the reversed period [S, S + 1] in nt * m_sub steps.

    Step m of row block j runs at tau = -s, s = S + j/nt + m ds; the source
    rows of all m_sub times of a block are tabulated, into one table buffer
    per march, before the block is stepped.  ``snaps[:, j]`` receives chi at
    s = S + j/nt.
    """
    nt, nx = grid.nt, grid.nx
    ext = _ghost_row(chi)
    step = _stepper(ext, model, grid.dx, ds, eps, lip_cap)
    basis = model.potential.node_basis(grid.nodes())
    offsets = np.arange(m_sub) * ds
    table = np.empty((m_sub if model.speed else 1, nx))
    work = np.empty_like(table)
    state = ext[1:-1]
    for j in range(nt):
        snaps[:, j] = state
        _source_table(model, basis, -(S + j / nt + offsets), ds, table, work)
        for src in np.broadcast_to(table, (m_sub, nx)):
            step(src)
    return state.copy()


def cfl_timestep(grid: GridSpec, eps: float, alpha_max: float) -> float:
    dx = grid.dx
    return 0.45 * min(dx * dx / (2.0 * eps), dx / alpha_max)


def solve_cell(model, epsilon: float, grid: GridSpec, cell_tol: float = Numerics.cell_tol,
               max_periods: int = Numerics.max_periods, lip_cap: float = Numerics.lip_cap,
               normalize_node: int = 0, initial_offset: float = 0.0) -> ViscousSolution:
    """Long-time integration of the reversed evolution until time-periodicity.

    Convergence is measured on consecutive-period snapshot fields after
    removing the uniform drift, from the fourth period on; the drift itself
    is the ergodic constant.
    """
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive", field="sweep.eps_list")
    nx, nt = grid.nx, grid.nt
    dx = grid.dx
    # |H_p| = m |p + b| <= m (lip_cap + |b|) while |p| <= lip_cap
    ds_cfl = cfl_timestep(grid, epsilon, model.mass * (lip_cap + abs(model.momentum_offset)))
    m_sub = max(1, int(math.ceil((1.0 / nt) / ds_cfl)))
    if m_sub * nt > MAX_SUBSTEPS:
        raise ConfigError(
            f"CFL-infeasible grid: {m_sub * nt} steps per period exceed the cap "
            f"(eps={epsilon}, nx={nx})", field="grid")
    ds = 1.0 / (nt * m_sub)

    chi = np.full(nx, float(initial_offset))
    prev_snaps = None
    snaps = np.empty((nx, nt))
    residual_history: list[float] = []
    c_est = 0.0
    converged = False
    period = 0
    for period in range(max_periods):
        chi = _march_period(model, chi, period, grid, m_sub, ds, epsilon, lip_cap, snaps)
        if prev_snaps is not None:
            diff = snaps - prev_snaps
            c_est = float(np.mean(diff))
            res = float(np.max(np.abs(diff - c_est)))
            residual_history.append(res)
            if res <= cell_tol and period >= 3:
                converged = True
                prev_snaps = snaps.copy()
                break
        prev_snaps = snaps.copy()
    if not converged:
        # a single period leaves no residual: the first compares periods 0 and 1
        last = residual_history[-1] if residual_history else math.nan
        raise ConvergenceError(
            f"cell problem did not reach periodicity in {max_periods} periods "
            f"(eps={epsilon}, last residual {last:.3e})", trace=residual_history)

    # hard ergodic-constant bracket: inf_x,t H(x,0,t) <= c(eps) <= sup H(x,0,t)
    tprobe = np.arange(4 * nt) / (4 * nt)
    h0 = model.hamiltonian(grid.nodes(), 0.0, tprobe[:, None])
    c_tol = 1e-6
    if not (h0.min() - c_tol <= c_est <= h0.max() + c_tol):
        raise NumericalQualityError(
            f"c(eps)={c_est:.8f} violates the resting-Hamiltonian bracket "
            f"[{h0.min():.8f}, {h0.max():.8f}]")

    # map the final reversed period back to forward time and normalize: the
    # snapshot at s = period + j/nt, drift removed, is forward column (nt - j) % nt
    j = np.arange(nt)
    phi = (prev_snaps - c_est * (period + j / nt))[:, (nt - j) % nt]
    phi -= phi[normalize_node, 0]

    lip = lipschitz_constant(phi, dx)
    if lip > lip_cap:
        # alpha is capped at lip_cap + |b|, which bounds |D psi + b| only
        # while |D psi| <= lip_cap: past it the step is not monotone
        raise NumericalQualityError(
            f"profile gradient lip_x={lip:.6g} exceeds lip_cap={lip_cap:.6g}; "
            "the Lax-Friedrichs step is not monotone there")
    semi = semiconvexity_constant(phi, dx)
    return ViscousSolution(
        epsilon=epsilon, c_eps=c_est, phi=phi, lip_x=lip,
        semiconvexity_const=semi,
        periodicity_residual=residual_history[-1],
        grid=grid, n_periods=period + 1, ds=ds, m_sub=m_sub,
        residual_history=residual_history, reversed_snaps=prev_snaps, end_state=chi,
        lip_cap=lip_cap)


def centered_gradient(phi: np.ndarray, dx: float) -> np.ndarray:
    """Centered difference in x of an (nx, ...) field on the circle."""
    return (np.roll(phi, -1, axis=0) - np.roll(phi, 1, axis=0)) / (2 * dx)


def lipschitz_constant(phi: np.ndarray, dx: float) -> float:
    """Max discrete spatial gradient magnitude over the field."""
    return float(np.max(np.abs(np.roll(phi, -1, axis=0) - phi) / dx))


def semiconvexity_constant(phi: np.ndarray, dx: float) -> float:
    """Smallest C >= 0 with phi(x+y) - 2 phi(x) + phi(x-y) >= -C y^2 at |y| = dx."""
    second = (np.roll(phi, -1, axis=0) - 2.0 * phi + np.roll(phi, 1, axis=0)) / (dx * dx)
    return float(max(0.0, -np.min(second)))


def residual_check(model, sol: ViscousSolution) -> float:
    """March one period past the solve; sup deviation from the c(eps) drift.

    The march starts from the state ``solve_cell`` ended on, at s = n_periods.
    A perfectly periodic converged profile reproduces itself shifted by
    exactly c(eps) per period; the reported residual is the sup-norm defect
    of that extra period against the stored substep snapshots.
    """
    snaps = sol.reversed_snaps
    extra = np.empty_like(snaps)
    chi = _march_period(model, sol.end_state, sol.n_periods, sol.grid, sol.m_sub, sol.ds,
                        sol.epsilon, sol.lip_cap, extra)
    worst = float(np.max(np.abs(extra - (snaps + sol.c_eps))))
    return max(worst, float(np.max(np.abs(chi - (snaps[:, 0] + 2.0 * sol.c_eps)))))
