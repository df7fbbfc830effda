"""Vanishing-viscosity analysis: sweeps, the selection limit, and rescaling checks.

The selected limit profile is built from the anchored barriers of the orbits
minimizing the averaged barrier Laplacian: phi0 = max_i (phi0(anchor_i) - h_i)
over the minimizing set, and the eps-sweep compares each normalized viscous
profile against it.  The period-rescaling check verifies that barriers and
averaged Laplacians transform consistently when one period of the rescaled
flow H_N(x, p, t) = H(x, Np, Nt) packs N original periods.

Everything these checks read off one grid -- the confirmed Aubry orbits, the
kernels, c(0), the anchored barriers, the Hessian curves and the viscous
solutions -- is built once per run by ``Artifacts``, which also carries the
model, the grid and the ``Numerics`` record they are built with.  ``sweep``,
``rescale_check`` and ``example_verify`` each take one and read what they
need from it, tolerances included; the CLI pipeline is one.  Their companion
builds (the rescaled and the autonomous model) take the same record.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
import math
import time

import numpy as np

from .errors import CompatibilityError, WeakKamError
from .dynamics import (PeriodicOrbit, PhasePoint, aubry_orbits, find_periodic_orbit,
                       orbit_window, potential_maxima)
from .model import MECHANICAL, HamiltonianModel
from .orbit_hessian import (HessianCurve, fd_crosscheck, lambda_averages,
                            unstable_hessian_curve)
from .variational import (BarrierField, CriticalValueResult, GridSpec, Numerics,
                          anchored_barrier, aubry_verify, barrier_matrix, build_kernels,
                          critical_value)
from .viscous import ViscousSolution, centered_gradient, solve_cell

CONFIRM_TOL = 0.05   # largest barrier diagonal along a candidate's own trace


class Artifacts:
    """A run's model, grid and ``Numerics``, and the objects built from them.

    Every build reads its settings from the one ``numerics`` record.  Each
    object is built once, when first asked for.  ``orbits`` are the
    candidates of ``aubry_orbits`` whose own anchored barrier vanishes along
    their trace (to ``CONFIRM_TOL``), and ``fields`` are those barriers, over
    the window of the candidates' periods; ``solution(eps)`` is the viscous
    solution normalized at node 0.  ``wall`` holds the seconds each build took.
    """

    def __init__(self, model: HamiltonianModel, grid: GridSpec,
                 numerics: Numerics = Numerics()):
        self.model, self.grid, self.numerics = model, grid, numerics
        self.wall: dict[str, float] = {}
        self._solutions: dict[float, ViscousSolution] = {}

    def _timed(self, key, build):
        t0 = time.perf_counter()
        out = build()
        self.wall[key] = round(time.perf_counter() - t0, 3)
        return out

    @cached_property
    def kernels(self):
        return self._timed("kernels", lambda: build_kernels(
            self.model, self.grid, vmax=self.numerics.vmax))

    @cached_property
    def critical(self) -> CriticalValueResult:
        return self._timed("critical", lambda: critical_value(self.kernels))

    def barrier(self, anchor_x: float, window: int) -> BarrierField:
        n = self.numerics
        return anchored_barrier(self.kernels, self.critical.c, anchor_x, window=window,
                                barrier_tol=n.barrier_tol, max_sweeps=n.max_sweeps)

    @cached_property
    def _confirmed(self):
        candidates = self._timed("orbits", lambda: aubry_orbits(
            self.model, shoot_tol=self.numerics.shoot_tol))
        window = orbit_window(candidates)
        fields = self._timed("barriers", lambda: [
            self.barrier(o.anchor.x, window) for o in candidates])
        verdicts = aubry_verify(fields, candidates, aubry_tol=CONFIRM_TOL)
        kept = [(o, f) for o, f, r in zip(candidates, fields, verdicts) if r.ok]
        if not kept:
            raise WeakKamError("no Aubry orbit candidates survived")
        return [o for o, _ in kept], [f for _, f in kept]

    @property
    def orbits(self) -> list[PeriodicOrbit]:
        return self._confirmed[0]

    @property
    def fields(self) -> list[BarrierField]:
        return self._confirmed[1]

    @cached_property
    def curves(self) -> list[HessianCurve]:
        return [unstable_hessian_curve(self.model, o) for o in self.orbits]

    def solution(self, eps: float) -> ViscousSolution:
        eps = float(eps)
        if eps not in self._solutions:
            n = self.numerics
            self._solutions[eps] = self._timed(f"viscous_{eps}", lambda: solve_cell(
                self.model, eps, self.grid, cell_tol=n.cell_tol,
                max_periods=n.max_periods, lip_cap=n.lip_cap))
        return self._solutions[eps]


def predicted_limit(anchor_values, fields: list[BarrierField], argmin: list[int],
                    H: np.ndarray, grid_tol: float = Numerics.grid_tol) -> np.ndarray:
    """phi0 = max over minimizing orbits of (anchor value - barrier field).

    Anchor values must satisfy the compatibility bound
    value_j - value_i <= h(anchor_i, anchor_j) + grid_tol for all pairs.
    """
    values = np.asarray(anchor_values, dtype=float)
    broken = values[None, :] - values[:, None] > H + grid_tol
    np.fill_diagonal(broken, False)
    if broken.any():
        i, j = (int(n) for n in np.argwhere(broken)[0])
        raise CompatibilityError(
            f"anchor values incompatible: value[{j}] - value[{i}] = "
            f"{values[j] - values[i]:.6f} > h({i},{j}) = {H[i, j]:.6f} + tol", pair=(i, j))
    stack = [values[i] - fields[i].h for i in argmin]
    return np.maximum.reduce(stack)


def local_max_set(anchor_values, H: np.ndarray,
                  grid_tol: float = Numerics.grid_tol) -> list[int]:
    """Indices whose orbit is a local maximum of the represented solution.

    Orbit i qualifies when value_i > value_j - h(anchor_i, anchor_j) holds
    strictly (with grid slack) for every j != i.
    """
    values = np.asarray(anchor_values, dtype=float)
    above = values[:, None] > values[None, :] - H - grid_tol
    np.fill_diagonal(above, True)
    return [i for i, row in enumerate(above) if row.all()]


@dataclass
class SweepReport:
    eps_list: list[float]
    c_records: list[float]
    c0: float
    slope_secants: list[float]
    slope_fit: float
    lambda_bar: float
    lambdas: list[float]
    selected: list[int]
    anchors: list[float]
    limit_errors: list[float]
    grad_errors: list[float]
    lip_records: list[float]
    semiconvexity_records: list[float]
    anchor_values: list[float]
    fields: list[BarrierField] = field(default_factory=list)
    barrier_h: np.ndarray | None = None
    predicted: np.ndarray | None = None


@dataclass
class SlopeVerdict:
    slope_fit: float
    lambda_bar: float
    lower_bound_ok: bool
    fit_ok: bool

    @property
    def ok(self) -> bool:
        return self.lower_bound_ok and self.fit_ok


def slope_fit(report: SweepReport, slope_tol: float = Numerics.slope_tol) -> SlopeVerdict:
    """Fitted right-derivative of c(eps) at zero against -lambda_bar.

    Verdict: every secant obeys the -lambda_bar(1 + tol) lower bound, and the
    linear fit over the smallest half of the eps list lands within tol of
    -lambda_bar.
    """
    if len(report.eps_list) < 3:
        raise WeakKamError("slope_fit needs at least three viscosity values")
    lam = report.lambda_bar
    lower_ok = all(s >= -lam * (1.0 + slope_tol) for s in report.slope_secants)
    fit = report.slope_fit
    fit_ok = abs(fit + lam) <= slope_tol * lam
    return SlopeVerdict(slope_fit=fit, lambda_bar=lam, lower_bound_ok=lower_ok, fit_ok=fit_ok)


def _fit_smallest_half(eps_list, c_records):
    eps = np.asarray(eps_list, dtype=float)
    cs = np.asarray(c_records, dtype=float)
    order = np.argsort(eps)
    k = max(2, len(eps) // 2)
    sel = order[:k]
    coef = np.polyfit(eps[sel], cs[sel], 1)
    return float(coef[0])


def sweep(art: Artifacts, eps_list) -> SweepReport:
    """Full pipeline: orbits -> c(0) -> barriers -> lambdas -> eps solves -> limits.

    The solutions ``art`` holds are normalized at node 0 and are renormalized
    here at the selected orbit's anchor; ``grid_tol`` and ``aubry_tol`` are
    those of ``art.numerics``.
    """
    eps_arr = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise WeakKamError("eps_list must be strictly decreasing")

    grid = art.grid
    orbits, fields, c0 = art.orbits, art.fields, art.critical.c
    residuals = aubry_verify(fields, orbits, aubry_tol=art.numerics.aubry_tol)
    bad = [i for i, r in enumerate(residuals) if not r.ok]
    if bad:
        raise WeakKamError(f"orbits {bad} failed the barrier-diagonal check")

    lam_rep = lambda_averages(art.curves)
    selected = lam_rep.argmin
    sel_orbit = orbits[selected[0]]
    norm_node = grid.node(sel_orbit.anchor.x)

    solutions = []
    for eps in eps_arr:
        sol = art.solution(eps)
        solutions.append(replace(sol, phi=sol.phi - sol.phi[norm_node, 0]))

    H, _ = barrier_matrix(fields)
    # anchor values of the limit: zero at the selected orbit, the rest read
    # off the smallest-viscosity profile
    anchor_values = solutions[-1].phi[grid.node([o.anchor.x for o in orbits]), 0].tolist()
    anchor_values[selected[0]] = 0.0
    predicted = predicted_limit(anchor_values, fields, selected, H,
                                grid_tol=art.numerics.grid_tol)

    limit_errors = [float(np.max(np.abs(s.phi - predicted))) for s in solutions]

    # gradient mismatch on a band of 5 cells each side of the selected orbit
    xs, cols = grid.trace(sel_orbit, grid.nt)
    band = (grid.node(xs)[:, None] + np.arange(-5, 6)) % grid.nx, cols[:, None]
    gpred = centered_gradient(predicted, grid.dx)[band]
    grad_errors = [float(np.max(np.abs(centered_gradient(s.phi, grid.dx)[band] - gpred)))
                   for s in solutions]

    secants = [(s.c_eps - c0) / s.epsilon for s in solutions]
    fit = _fit_smallest_half(eps_arr, [s.c_eps for s in solutions])

    return SweepReport(
        eps_list=eps_arr,
        c_records=[s.c_eps for s in solutions],
        c0=c0,
        slope_secants=secants,
        slope_fit=fit,
        lambda_bar=lam_rep.lambda_bar,
        lambdas=lam_rep.lambdas,
        selected=selected,
        anchors=[o.anchor.x for o in orbits],
        limit_errors=limit_errors,
        grad_errors=grad_errors,
        lip_records=[s.lip_x for s in solutions],
        semiconvexity_records=[s.semiconvexity_const for s in solutions],
        anchor_values=anchor_values,
        fields=fields,
        barrier_h=H,
        predicted=predicted,
    )


@dataclass
class RescaleReport:
    N: int
    vacuous: bool
    barrier_identity_error: float
    lambda_errors: list[float]
    c_original: float
    c_rescaled: float

    def ok(self, grid_tol: float = Numerics.grid_tol) -> bool:
        if self.vacuous:
            return True
        return (self.barrier_identity_error <= grid_tol
                and all(e <= 1e-6 for e in self.lambda_errors))


def rescale_check(art: Artifacts) -> RescaleReport:
    """Compare anchored barriers and averaged Laplacians across period rescaling.

    With N the lcm of the orbit periods, one period of H_N packs N periods of
    H: the original barrier must equal N times the minimum over the rescaled
    barriers anchored at the N_i time-translates of each orbit, and the
    rescaled averaged Laplacian (compensated by the packing factor N) must
    reproduce lambda_i.  The original barriers, curves and c(0) are those of
    ``art``, whose fields span the window N already; the rescaled model gets
    its own ``Artifacts`` on nx x (N nt) with the same numerics, the velocity
    cap scaled by N.
    """
    orbits, grid = art.orbits, art.grid
    N = orbit_window(orbits)
    if N == 1:
        return RescaleReport(N=1, vacuous=True, barrier_identity_error=0.0,
                             lambda_errors=[], c_original=0.0, c_rescaled=0.0)
    rmodel = art.model.rescaled(N)
    rescaled = Artifacts(rmodel, GridSpec(grid.nx, grid.nt * N),
                         replace(art.numerics, vmax=art.numerics.vmax * N))
    shoot_tol = max(art.numerics.shoot_tol, 1e-5)

    worst_err = 0.0
    lambda_errors = []
    for orbit, field0, curve0 in zip(orbits, art.fields, art.curves):
        rfields = []
        for j in range(1, orbit.period + 1):
            anchor_j = float(orbit.position(-float(j)) % 1.0)
            p_j = float(orbit.momentum(-float(j))) / N
            rorbit = find_periodic_orbit(
                rmodel, PhasePoint(anchor_j, p_j, 0.0), 1,
                winding=orbit.winding * (N // orbit.period),
                shoot_tol=shoot_tol)
            rfields.append(rescaled.barrier(rorbit.anchor.x, window=1))
            rcurve = unstable_hessian_curve(rmodel, rorbit)
            lambda_errors.append(abs(N * rcurve.lambda_i - curve0.lambda_i))
        stack = np.stack([f.h for f in rfields])
        rescaled_min = N * np.min(stack, axis=0)
        # original substep s maps to rescaled substep s (rescaled grid is N x finer in phase)
        worst_err = max(worst_err, float(np.max(np.abs(field0.h - rescaled_min[:, :grid.nt]))))
    return RescaleReport(N=N, vacuous=False, barrier_identity_error=worst_err,
                         lambda_errors=lambda_errors,
                         c_original=art.critical.c,
                         c_rescaled=rescaled.critical.c)


@dataclass
class ExampleReport:
    k: int
    maxima: list[float]
    orbit_count_ok: bool
    translate_residual: float
    riccati_errors: list[float]
    fd_deviations: list[float]
    shift_consistency_error: float
    expected_curvatures: list[float]

    def ok(self) -> bool:
        return (self.orbit_count_ok
                and all(e <= 1e-3 for e in self.riccati_errors)
                and all(d <= 0.05 for d in self.fd_deviations)
                and self.shift_consistency_error <= 0.02)


def example_verify(art: Artifacts) -> ExampleReport:
    """Traveling-wave verification: orbits, curvature law, barrier transport.

    For the traveling wave of ``art`` (wind k = ``art.model.cells``, potential
    V) checks that (a) the orbits are the k-translates of the cell maxima,
    (b) the curvature of -h along each orbit equals -sqrt(-V'') there, via
    both the propagated-subspace average and the grid second difference,
    (c) the barrier is carried by the wave: h(x, [t], anchor) equals the
    autonomous barrier to the nearest of the k translate anchors evaluated at
    x + t/k.  The orbits, barriers and curves are those of ``art``, and its
    ``Numerics`` serve the autonomous companion.
    """
    k, potential, grid = art.model.cells, art.model.potential, art.grid
    orbits = art.orbits
    maxima = potential_maxima(art.model)
    orbit_count_ok = len(orbits) == len(maxima) and all(o.period == k for o in orbits)

    # autonomous companion on the same grid
    auto = Artifacts(HamiltonianModel(family=MECHANICAL, potential=potential), grid,
                     art.numerics)

    translate_residual = 0.0
    riccati_errors = []
    fd_deviations = []
    shift_err = 0.0
    expected = []
    js = np.arange(k)
    # wave frame of each (node, substep): x + t/k
    y = (grid.nodes()[:, None] + grid.substep_times() / k) % 1.0
    for i, orbit in enumerate(orbits):
        lam_true = math.sqrt(-potential.d2(maxima[i]))
        expected.append(lam_true)
        # (a) integer-time positions hit the translates
        gap = np.abs(orbit.position(js) % 1.0 - (maxima[i] - js / k) % 1.0)
        translate_residual = max(translate_residual,
                                 float(np.max(np.minimum(gap, 1.0 - gap))))
        # (b) curvature along the orbit
        curve, fld = art.curves[i], art.fields[i]
        riccati_errors.append(abs(curve.lambda_i - lam_true))
        rep = fd_crosscheck(fld, orbit, curve)
        fd_deviations.append(abs(rep.fd_value - lam_true) / lam_true)
        # (c) transport consistency against the autonomous field
        afld = auto.barrier(maxima[i], window=1)
        oracle = np.min(afld.value_at((y[:, :, None] - js / k) % 1.0, 0), axis=2)
        shift_err = max(shift_err, float(np.max(np.abs(fld.h - oracle))))
    return ExampleReport(k=k, maxima=maxima, orbit_count_ok=orbit_count_ok,
                         translate_residual=translate_residual,
                         riccati_errors=riccati_errors,
                         fd_deviations=fd_deviations,
                         shift_consistency_error=shift_err,
                         expected_curvatures=expected)
