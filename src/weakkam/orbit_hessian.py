"""Unstable-subspace Hessians along Aubry orbits and the averaged Laplacian.

Along a hyperbolic orbit the barrier anchored at the orbit is twice
differentiable, and its spatial Hessian P(t) is the slope of the unstable
subspace of the linearized flow dx' = m dp, dp' = -V''(x + w t) dx, written
as a graph dp = P(t) dx; P solves the Riccati equation P' + V'' + m P^2 = 0.
Propagating the unstable eigenvector of the monodromy is unconditionally
stable (the direction is attracting under the tangent flow), unlike direct
integration of the Riccati equation which can blow up in finite time.  The
tangent flow is integrated once per orbit: the frames are the fundamental
matrices the orbit kept from its verification pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGraphError, WeakKamError
from .dynamics import PeriodicOrbit

TRANSVERSALITY_FLOOR = 1e-8
FD_BASE_STEP = 2     # cells each side of the base stencil of fd_crosscheck


@dataclass
class HessianCurve:
    """Graph slope P(t) = D^2_x h(orbit(t)) sampled along one period."""

    times: np.ndarray
    P: np.ndarray
    lambda_i: float
    riccati_residual: float
    periodicity_gap: float


def unstable_hessian_curve(model, orbit: PeriodicOrbit) -> HessianCurve:
    """Propagate the unstable monodromy eigenvector; read the graph slope.

    lambda_i is the period average of trace P; for the built-in families it
    equals sqrt(-V'') at a potential maximum.
    """
    if not orbit.hyperbolic:
        raise WeakKamError("Hessian curve requires a hyperbolic orbit")
    mult, vecs = np.linalg.eig(orbit.monodromy)
    idx = int(np.argmax(np.abs(mult)))
    if np.abs(mult[idx]) <= 1.0:
        raise WeakKamError("no unstable multiplier found")
    v_u = np.real(vecs[:, idx])
    if abs(v_u[0]) < TRANSVERSALITY_FLOOR:
        raise DegenerateGraphError("unstable direction is vertical at the anchor")

    W = orbit.fundamental @ v_u           # (n+1, 2) propagated frame
    dx = W[:, 0]
    rownorm = np.sqrt(W[:, 0] ** 2 + W[:, 1] ** 2)
    if np.min(np.abs(dx) / rownorm) < TRANSVERSALITY_FLOOR:
        raise DegenerateGraphError("propagated subspace grazes the vertical")
    P = W[:, 1] / dx

    times = orbit.times
    lam = float(np.trapezoid(P, times) / orbit.period)
    gap = float(abs(P[-1] - P[0]))

    # Riccati residual from centered differences of the sampled slope
    h = times[1] - times[0]
    dP = (P[2:] - P[:-2]) / (2.0 * h)
    v2 = model.potential.d2(model.wave_coordinate(orbit.x[1:-1], times[1:-1]))
    mid = P[1:-1]
    res = dP + v2 + model.mass * mid * mid
    return HessianCurve(times=times, P=P, lambda_i=lam,
                        riccati_residual=float(np.max(np.abs(res))),
                        periodicity_gap=gap)


@dataclass
class LambdaReport:
    lambdas: list[float]
    lambda_bar: float
    argmin: list[int]


def lambda_averages(curves: list[HessianCurve]) -> LambdaReport:
    """Minimum averaged Laplacian over orbits and the argmin set, ties to 1e-4 relative."""
    if not curves:
        raise WeakKamError("lambda_averages needs at least one Hessian curve")
    lams = [float(c.lambda_i) for c in curves]
    lam_bar = min(lams)
    tol = 1e-4 * abs(lam_bar)
    argmin = [i for i, lam in enumerate(lams) if lam <= lam_bar + tol]
    return LambdaReport(lambdas=lams, lambda_bar=lam_bar, argmin=argmin)


@dataclass
class FdReport:
    deviation: float
    fd_value: float
    step_cells: int
    widened: bool
    table: list  # (step_cells, fd, deviation) per trial step


def fd_crosscheck(field, orbit: PeriodicOrbit, curve: HessianCurve) -> FdReport:
    """Second central difference of the barrier along the orbit vs lambda_i.

    The base stencil is +-``FD_BASE_STEP`` cells.  Near the anchor the discrete
    field carries a velocity-quantization kink of width ~nt/lambda cells; when
    the base stencil sits inside it (detected by disagreement with the doubled
    stencil) the stencil is widened, up to nx/8 cells, until consecutive
    doublings agree to 2 %, and the report flags the widening.
    """
    nx, dxg = field.grid.nx, field.grid.dx
    max_step = max(FD_BASE_STEP, nx // 8)
    steps = []
    s = FD_BASE_STEP
    while s <= max_step:
        steps.append(s)
        s *= 2

    lam = curve.lambda_i
    xs, cols = field.grid.trace(orbit)
    i0 = field.grid.node(xs)
    table = []
    for s in steps:
        fd = (field.h[(i0 + s) % nx, cols] - 2.0 * field.h[i0, cols]
              + field.h[(i0 - s) % nx, cols]) / (s * dxg) ** 2
        fd_avg = float(np.mean(fd))
        table.append((s, fd_avg, abs(fd_avg - lam) / abs(lam)))

    chosen = len(table) - 1
    for k in range(len(table) - 1):
        a, b = table[k][1], table[k + 1][1]
        if abs(a - b) <= 0.02 * max(abs(b), 1e-30):
            chosen = k
            break
    step_cells, fd_value, deviation = table[chosen]
    return FdReport(deviation=float(deviation), fd_value=float(fd_value),
                    step_cells=int(step_cells), widened=step_cells > FD_BASE_STEP,
                    table=table)
