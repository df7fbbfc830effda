"""Hamiltonian flow integration, periodic-orbit shooting and Floquet analysis.

Every model is the form H = m (p + b)^2/2 + e0 + V(x + w t), so the flow is
x' = m (p + b), p' = -V'(y) with y = x + w t, integrated with a fixed-step
classical RK4 scheme, always together with the variational (tangent) dynamics

    dx' = m dp,      dp' = -V''(y) dx,

from the identity matrix.  Orbits of integer period are found by Newton
iteration on the return-map residual; hyperbolicity is read off the
monodromy's eigenvalues.  A found orbit keeps the fundamental matrices of its
verification pass, so each orbit's period is integrated once and the
unstable-subspace Hessian reads the stored frames.

The flow is integrated one scalar point at a time, so a step works in floats
throughout: the potential's scalar (V', V''), and the 2x2 tangent algebra
(stage slopes, one-step propagator, accumulated fundamental matrix) as
row-major 4-tuples rather than numpy arrays, whose per-call overhead would
dwarf the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import math

import numpy as np

from .errors import IntegrationError, NumericalQualityError, OrbitNotFoundError, WeakKamError
from .model import HamiltonianModel
from .variational import Numerics

MAX_STEP = 1e-3       # largest RK4 step
MAX_NEWTON = 25       # Newton iterations of the shooting
SCAN_POINTS = 4096    # sign scan of V' for the potential's maxima


@dataclass(frozen=True)
class PhasePoint:
    """Point (x, p) at time t; x is a circle coordinate, lifts are tracked separately."""

    x: float
    p: float
    t: float = 0.0


@dataclass
class Trajectory:
    """Dense output of one integration; ``x`` is the lifted (unwrapped) coordinate."""

    times: np.ndarray
    x: np.ndarray
    p: np.ndarray
    fundamental: np.ndarray    # shape (n, 2, 2), the identity first
    det_product: float         # product of per-step tangent determinants

    @property
    def end(self) -> tuple[float, float]:
        return float(self.x[-1]), float(self.p[-1])


@dataclass
class PeriodicOrbit:
    """Integer-period orbit with monodromy and Floquet data attached."""

    period: int
    anchor: PhasePoint
    times: np.ndarray
    x: np.ndarray                    # lifted samples over one period, closed
    p: np.ndarray
    winding: int
    fundamental: np.ndarray          # tangent flow at ``times``, shape (n, 2, 2)
    floquet_exponents: np.ndarray
    hyperbolic: bool
    residual: float
    det_product: float = 1.0
    newton_iterations: int = 0

    @property
    def monodromy(self) -> np.ndarray:
        return self.fundamental[-1]

    def position(self, t) -> np.ndarray:
        """Lifted orbit position at times t (periodically extended)."""
        t = np.asarray(t, dtype=float)
        wraps = np.floor(t / self.period)
        tau = t - wraps * self.period
        xs = np.interp(tau, self.times, self.x)
        return xs + wraps * self.winding

    def momentum(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        tau = t - np.floor(t / self.period) * self.period
        return np.interp(tau, self.times, self.p)


def _rhs_jac(model: HamiltonianModel, x: float, p: float, t: float):
    """Vector field (m (p + b), -V'(y)) and its row-major Jacobian (0, m, -V''(y), -0)."""
    m = model.mass
    v1, v2 = model.potential.jet(model.wave_coordinate(x, t))
    return m * (p + model.momentum_offset), -v1, (0.0, m, -v2, -0.0)


def _matmul(a, b):
    """Product of 2x2 matrices held as row-major 4-tuples."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _stage(J, A, c):
    """J (I + c A), the tangent slope of one RK4 stage."""
    a00, a01, a10, a11 = A
    return _matmul(J, (1.0 + c * a00, c * a01, c * a10, 1.0 + c * a11))


def integrate(model: HamiltonianModel, start: PhasePoint, duration: float,
              steps: int | None = None) -> Trajectory:
    """RK4 integration of the Hamiltonian flow and its tangent flow from ``start``.

    ``steps`` defaults to the fewest steps no longer than ``MAX_STEP``.  The
    variational flow is advanced with the same RK4 stages, so the fundamental
    matrix is consistent with the trajectory to the same order.  Raises
    IntegrationError on non-finite state.
    """
    if steps is None:
        steps = max(1, int(math.ceil(abs(duration) / MAX_STEP)))
    h = duration / steps
    times = start.t + h * np.arange(steps + 1)
    x, p = float(start.x), float(start.p)
    xs, ps = [x], [p]
    M = (1.0, 0.0, 0.0, 1.0)
    mats = [M]
    det_product = 1.0
    for n, t in enumerate(times[:-1].tolist()):
        # the tangent flow is linear in M: build the one-step propagator S
        # from identity (well conditioned) and accumulate M = S M
        k1x, k1p, J1 = _rhs_jac(model, x, p, t)
        k2x, k2p, J2 = _rhs_jac(model, x + 0.5 * h * k1x, p + 0.5 * h * k1p, t + 0.5 * h)
        k3x, k3p, J3 = _rhs_jac(model, x + 0.5 * h * k2x, p + 0.5 * h * k2p, t + 0.5 * h)
        k4x, k4p, J4 = _rhs_jac(model, x + h * k3x, p + h * k3p, t + h)
        A1 = J1
        A2 = _stage(J2, A1, 0.5 * h)
        A3 = _stage(J3, A2, 0.5 * h)
        A4 = _stage(J4, A3, h)
        S = tuple(e + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                  for e, a1, a2, a3, a4 in zip((1.0, 0.0, 0.0, 1.0), A1, A2, A3, A4))
        det_product *= S[0] * S[3] - S[1] * S[2]
        M = _matmul(S, M)
        mats.append(M)
        x += (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        p += (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        if not (math.isfinite(x) and math.isfinite(p)):
            raise IntegrationError(f"state blew up at t={times[n + 1]:.6g}",
                                   last_valid_time=float(times[n]))
        xs.append(x)
        ps.append(p)
    return Trajectory(times=times, x=np.array(xs), p=np.array(ps),
                      fundamental=np.array(mats).reshape(-1, 2, 2), det_product=det_product)


def find_periodic_orbit(model: HamiltonianModel, seed: PhasePoint, period: int,
                        winding: int = 0, shoot_tol: float = Numerics.shoot_tol) -> PeriodicOrbit:
    """Newton shooting for an orbit of integer ``period`` and spatial ``winding``.

    The corrected quantity is the time-N return-map residual
    (x(N) - x(0) - winding, p(N) - p(0)) on the lift.  The Newton system is
    condensed from a multiple-shooting split of the period, eight segments
    per unit time: strong hyperbolicity makes the single-segment return
    map's Newton basin impractically small, while the split keeps each
    segment's amplification moderate without changing the converged orbit.
    """
    if period < 1:
        raise WeakKamError("orbit period must be a positive integer")
    n_seg = 8 * period
    seg_len = period / n_seg
    seg_steps = max(1, int(math.ceil(seg_len / MAX_STEP)))
    target = np.array([float(winding), 0.0])

    # initial segment states along the uniform-drift predictor; following the
    # integrated seed trajectory instead can leave the target orbit's basin
    # (well oscillations resonant with the period form solution circles)
    Z = np.empty((n_seg, 2))
    taus = np.arange(n_seg) * seg_len
    Z[:, 0] = seed.x + winding * taus / period
    Z[:, 1] = seed.p

    internal_tol = min(shoot_tol, 1e-12)
    iterations = 0
    for iteration in range(MAX_NEWTON + 1):
        iterations = iteration
        ends = np.empty((n_seg, 2))
        mats = np.empty((n_seg, 2, 2))
        for i in range(n_seg):
            traj = integrate(model, PhasePoint(Z[i][0], Z[i][1], i * seg_len),
                             seg_len, steps=seg_steps)
            ends[i] = traj.end
            mats[i] = traj.fundamental[-1]
        res = np.empty((n_seg, 2))
        res[:-1] = ends[:-1] - Z[1:]
        res[-1] = ends[-1] - Z[0] - target
        residual = float(np.max(np.abs(res)))
        if residual <= internal_tol:
            break
        if iteration == MAX_NEWTON:
            raise OrbitNotFoundError(
                f"Newton shooting did not converge in {MAX_NEWTON} iterations",
                residual=residual)
        # condense: dz_{i+1} = M_i dz_i + r_i, closure (A - I) dz_0 = -b
        A = np.eye(2)
        b = np.zeros(2)
        for i in range(n_seg):
            A = mats[i] @ A
            b = mats[i] @ b + res[i]
        try:
            dz0 = np.linalg.solve(A - np.eye(2), -b)
        except np.linalg.LinAlgError as exc:
            raise OrbitNotFoundError(f"singular shooting matrix: {exc}",
                                     residual=residual)
        dz = dz0
        Z[0] = Z[0] + dz
        for i in range(n_seg - 1):
            dz = mats[i] @ dz + res[i]
            Z[i + 1] = Z[i + 1] + dz
        if not np.all(np.isfinite(Z)):
            raise OrbitNotFoundError("Newton step produced non-finite state",
                                     residual=residual)

    # verification pass: one whole period from z_0 with the tangent flow
    steps = max(int(math.ceil(period / MAX_STEP)), n_seg * seg_steps)
    traj = integrate(model, PhasePoint(Z[0][0], Z[0][1], 0.0), float(period), steps=steps)
    r = np.array(traj.end) - Z[0] - target
    residual = float(np.max(np.abs(r)))
    if residual > shoot_tol:
        raise OrbitNotFoundError(
            f"return-map residual {residual:.3e} exceeds shoot_tol {shoot_tol:.1e} "
            "after Newton convergence (hyperbolic amplification of rounding)",
            residual=residual)
    orbit = PeriodicOrbit(
        period=period,
        anchor=PhasePoint(float(Z[0][0] % 1.0), float(Z[0][1]), 0.0),
        times=traj.times,
        x=traj.x,
        p=traj.p,
        winding=winding,
        fundamental=traj.fundamental,
        floquet_exponents=np.zeros(2, dtype=complex),
        hyperbolic=False,
        residual=residual,
        det_product=traj.det_product,
        newton_iterations=iterations,
    )
    return classify_orbit(orbit)


def classify_orbit(orbit: PeriodicOrbit) -> PeriodicOrbit:
    """Attach Floquet exponents and the hyperbolicity flag; check symplecticity.

    The orbit is hyperbolic when every multiplier lies more than 0.1 off the
    unit circle, and det(monodromy) must be 1 to 1e-6.  The determinant check
    uses the accumulated product of per-step transition determinants: for
    strongly expanding orbits det(monodromy) evaluated from the final matrix
    alone loses all significance to cancellation.
    """
    det = orbit.det_product
    if abs(det - 1.0) > 1e-6:
        raise NumericalQualityError(
            f"monodromy determinant drifted from 1 by {abs(det - 1.0):.3e}")
    mult = np.linalg.eigvals(orbit.monodromy).astype(complex)
    order = np.argsort(-np.abs(mult))
    mult = mult[order]
    if abs(mult[0]) > 1.0 + 1e-9:
        # symplectic pairing: the contracting multiplier as computed from the
        # raw matrix loses all digits once the expanding one is large
        mult[1] = det / mult[0]
    exponents = np.log(mult) / orbit.period
    hyperbolic = bool(np.all(np.abs(np.abs(mult) - 1.0) > 0.1))
    return replace(orbit, floquet_exponents=exponents, hyperbolic=hyperbolic)


def orbit_window(orbits: list[PeriodicOrbit]) -> int:
    """Least common multiple of the orbit periods."""
    window = 1
    for orbit in orbits:
        window = window * orbit.period // math.gcd(window, orbit.period)
    return window


def potential_maxima(model: HamiltonianModel) -> list[float]:
    """Nondegenerate maxima of the potential in [0, 1/k), in increasing order.

    V' is sampled at ``SCAN_POINTS`` points x_i of the cell, reading V'(1/k)
    as V'(0), and every interval [x_i, x_i+1] with V'(x_i) > 0 >= V'(x_i+1)
    (a falling sign change) holds one maximum.  All these intervals are
    bisected together, on vectorised V', until no midpoint lies strictly
    inside its interval; of its two ends, the one with the smaller |V'|,
    wrapped into the cell, is the root.  Roots with V'' >= -1e-8 are
    dropped as degenerate.  Each interval gives one root, so no maximum is
    returned twice.
    """
    cell = 1.0 / model.cells
    d1 = model.potential.d1
    xs = np.linspace(0.0, cell, SCAN_POINTS + 1)
    slope = d1(xs[:-1])
    falling = (slope > 0.0) & (np.roll(slope, -1) <= 0.0)
    lo, hi = xs[:-1][falling], xs[1:][falling]
    while True:
        mid = 0.5 * (lo + hi)
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            break
        rising = d1(mid) > 0.0
        lo = np.where(inside & rising, mid, lo)
        hi = np.where(inside & ~rising, mid, hi)
    roots = np.sort(np.where(np.abs(d1(lo)) < np.abs(d1(hi)), lo, hi) % cell)
    return roots[model.potential.d2(roots) < -1e-8].tolist()


def aubry_orbits(model: HamiltonianModel,
                 shoot_tol: float = Numerics.shoot_tol) -> list[PeriodicOrbit]:
    """Candidate orbits of the projected Aubry set, one per maximum of the cell.

    In the frame moving with V (x + w t fixed) each orbit rests at a
    nondegenerate maximum x_m of V, so x' = H_p = -w fixes the momentum,
    p = -w/m - b.  The orbit closes after k periods (k = 1 when w = 0;
    w = 1/k otherwise) with winding -1 when w != 0 and 0 when w = 0.
    The maxima are distinct and each shot starts on its own rest orbit
    x = x_m - w t, so the candidates are distinct by construction.  They are
    not confirmed here: confirmation needs the anchored barriers (see
    ``vv_analysis.Artifacts``).
    """
    p_rest = -model.speed / model.mass - model.momentum_offset
    winding = -1 if model.speed else 0
    orbits: list[PeriodicOrbit] = []
    for xm in potential_maxima(model):
        try:
            orbits.append(find_periodic_orbit(model, PhasePoint(xm, p_rest, 0.0), model.cells,
                                              winding, shoot_tol=shoot_tol))
        except (OrbitNotFoundError, IntegrationError):
            continue
    if not orbits:
        raise WeakKamError("no Aubry orbit candidates survived")
    return orbits
