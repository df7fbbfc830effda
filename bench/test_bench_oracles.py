"""The oracles against cases with answers known in closed form."""

import math

import numpy as np
import pytest

import oracles

BENCH = [[0, -0.5, 0.0], [1, -0.125, 0.0], [2, 0.5, 0.0], [3, 0.125, 0.0]]
SIN2 = [[0, -0.5, 0.0], [2, 0.5, 0.0]]          # V = -sin^2(2 pi x)
SQRT2 = math.sqrt(2.0)


def test_potential_derivatives_of_one_mode():
    x = np.linspace(0.0, 1.0, 11)
    w = 6.0 * math.pi
    terms = [[3, 0.7, -0.2]]
    v = 0.7 * np.cos(w * x) - 0.2 * np.sin(w * x)
    assert np.allclose(oracles.potential(terms, x), v)
    assert np.allclose(oracles.potential(terms, x, 1),
                       -0.7 * w * np.sin(w * x) - 0.2 * w * np.cos(w * x))
    assert np.allclose(oracles.potential(terms, x, 2), -w * w * v)


def test_extrema():
    assert oracles.extrema(SIN2) == pytest.approx((0.0, -1.0), abs=1e-12)
    # benchmark V = -(1 - s^2)(1 + s/2) with s = cos(2 pi x); dV/ds = 0 at s = (sqrt 7 - 2)/3
    s = (math.sqrt(7.0) - 2.0) / 3.0
    vmax, vmin = oracles.extrema(BENCH)
    assert vmax == pytest.approx(0.0, abs=1e-12)
    assert vmin == pytest.approx(-(1 - s * s) * (1 + s / 2), abs=1e-7)


def test_maxima_and_curvatures():
    got = oracles.maxima(BENCH)
    assert [m[0] for m in got] == pytest.approx([0.0, 0.5], abs=1e-12)
    assert [m[1] for m in got] == pytest.approx([2 * math.pi * math.sqrt(3), 2 * math.pi],
                                                rel=1e-12)
    got = oracles.maxima(SIN2)
    assert [m[1] for m in got] == pytest.approx([2 * SQRT2 * math.pi] * 2, rel=1e-12)


def test_jacobi_distance_for_minus_sin_squared():
    # speed sqrt(-2V) = sqrt 2 |sin 2 pi x|, whose integral over [0, a] is sqrt 2 (1 - cos 2 pi a)/(2 pi)
    def arc(a):
        return SQRT2 * (1.0 - math.cos(2 * math.pi * a)) / (2 * math.pi)
    assert oracles.jacobi_distance(SIN2, 0.0, 0.5) == pytest.approx(SQRT2 / math.pi, rel=1e-9)
    assert oracles.jacobi_distance(SIN2, 0.0, 0.25) == pytest.approx(arc(0.25), rel=1e-9)
    # the shorter arc from 0.9 to 0.1 runs through 0
    assert oracles.jacobi_distance(SIN2, 0.9, 0.1) == pytest.approx(2 * arc(0.1), rel=1e-7)


def test_moving_frame_barrier_is_distance_to_nearest_translate():
    x = np.array([0.0, 0.25, 0.5, 0.125])
    h0 = oracles.moving_frame_barrier(SIN2, 2, 0.0, x)
    assert h0[0] == pytest.approx(0.0, abs=1e-12)
    assert h0[2] == pytest.approx(0.0, abs=1e-12)       # the translate 0 + 1/2
    assert h0[1] == pytest.approx(SQRT2 / (2 * math.pi), rel=1e-9)
    # half a period later the frame has moved by 1/4: x = 1/4 sits on a translate
    h_half = oracles.moving_frame_barrier(SIN2, 2, 0.0, x, t=0.5)
    assert h_half[1] == pytest.approx(0.0, abs=1e-12)
    assert h_half[0] == pytest.approx(SQRT2 / (2 * math.pi), rel=1e-9)


def test_flat_exit_mean_and_ci():
    assert oracles.flat_exit_mean(0.1, 0.02, 0.0) == pytest.approx(0.25)
    dt = 5e-4
    assert oracles.flat_exit_mean(0.1, 0.02, dt) == pytest.approx(
        (0.1 + 0.5826 * math.sqrt(0.04 * dt)) ** 2 / 0.04)
    assert oracles.flat_exit_ci95(0.25, 100) == pytest.approx(
        1.96 * math.sqrt(2.0 / 3.0) * 0.025)
