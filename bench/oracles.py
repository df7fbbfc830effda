"""Closed-form and quadrature oracles computed from a config alone.

Nothing here imports ``weakkam``: every reference value is rebuilt from the
trig terms ``[[k, cos_k, sin_k], ...]`` of V(x) = sum c_k cos(2 pi k x) +
s_k sin(2 pi k x) and from the stochastic parameters, so a fault in the
program cannot leak into the values its outputs are checked against.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
# leading-order shift of an Euler-Maruyama exit boundary monitored at the
# grid times only: zeta(1/2)/sqrt(2 pi) in units of the step's noise sigma
MONITOR_SHIFT = 0.5826


def potential(terms, x, order: int = 0):
    """order-th derivative of the trig series at x (broadcasts over arrays)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for k, c, s in terms:
        w = TWO_PI * k
        phase = order * math.pi / 2.0
        out = out + (w ** order) * (c * np.cos(w * x + phase) + s * np.sin(w * x + phase))
    return out


def extrema(terms, n: int = 1 << 16) -> tuple[float, float]:
    """(max V, min V) on a dense uniform sample of the circle."""
    v = potential(terms, np.arange(n) / n)
    return float(v.max()), float(v.min())


def maxima(terms, n: int = 1 << 14) -> list[tuple[float, float]]:
    """Nondegenerate local maxima in [0, 1) as (x, sqrt(-V''(x))).

    Candidates are the dense-sample local maxima, each polished by Newton on
    V' so the curvature is read at the true critical point.
    """
    xs = np.arange(n) / n
    v = potential(terms, xs)
    idx = np.where((v >= np.roll(v, 1)) & (v > np.roll(v, -1)))[0]
    out = []
    for i in idx:
        x = float(xs[i])
        for _ in range(50):
            step = float(potential(terms, x, 1) / potential(terms, x, 2))
            x -= step
            if abs(step) < 1e-15:
                break
        d2 = float(potential(terms, x, 2))
        if d2 < 0:
            out.append((x % 1.0, math.sqrt(-d2)))
    return sorted(out)


def _jacobi_cumulative(terms, n: int):
    """Nodes y_i = i/n on [0, 1] and F(y_i) = int_0^y sqrt(2(max V - V)) (Simpson)."""
    vmax, _ = extrema(terms)
    fine = np.arange(2 * n + 1) / (2 * n)
    g = np.sqrt(np.maximum(2.0 * (vmax - potential(terms, fine)), 0.0))
    h = 1.0 / (2 * n)
    cells = (h / 3.0) * (g[0:-1:2] + 4.0 * g[1::2] + g[2::2])
    return np.arange(n + 1) / n, np.concatenate([[0.0], np.cumsum(cells)])


def jacobi_distance(terms, a, b, n: int = 1 << 14):
    """Shorter-arc distance between a and b in the metric sqrt(2(max V - V)) |dx|.

    This is the Peierls barrier of p^2/2 + V between two points at the
    critical level c = max V (Maupertuis).  Broadcasts over arrays.
    """
    nodes, F = _jacobi_cumulative(terms, n)
    total = float(F[-1])
    fa = np.interp(np.asarray(a, dtype=float) % 1.0, nodes, F)
    fb = np.interp(np.asarray(b, dtype=float) % 1.0, nodes, F)
    d = np.abs(fb - fa)
    return np.minimum(d, total - d)


def moving_frame_barrier(terms, k: int, anchor: float, x, t: float = 0.0):
    """Traveling-wave barrier h(x, [t]) to the orbit through (anchor, [0]).

    In the moving frame y = x + t/k the model p^2/2 - p/k + V(x + t/k) is the
    autonomous p^2/2 + V(y); a path from (x, t) ends at the point
    (anchor, [0]) at some whole time T, which in the moving frame is
    y = anchor + T/k, a maximum of the 1/k-periodic V.  The barrier is the
    Jacobi distance from y to the nearest of those k translates.
    """
    y = np.asarray(x, dtype=float) + t / k
    return np.minimum.reduce([jacobi_distance(terms, y, anchor + j / k)
                              for j in range(k)])


def flat_exit_mean(delta: float, eps: float, dt: float) -> float:
    """E tau of dX = sqrt(2 eps) dW leaving (-delta, delta), monitored every dt.

    delta^2/(2 eps) for continuous monitoring; discrete monitoring widens the
    tube by MONITOR_SHIFT * sqrt(2 eps dt) to leading order.
    """
    return (delta + MONITOR_SHIFT * math.sqrt(2.0 * eps * dt)) ** 2 / (2.0 * eps)


def flat_exit_ci95(mean: float, n_paths: int) -> float:
    """95% half-width of the sample mean: Var tau = (2/3) (E tau)^2 for the flat exit."""
    return 1.96 * math.sqrt(2.0 / 3.0) * mean / math.sqrt(n_paths)
