"""Closed-form Hamiltonian families on the circle with exact derivative jets.

Three families are supported, all with quadratic kinetic energy so that the
Legendre transform is closed-form and kernels stay exact:

* ``mechanical``       H(x,p)   = p^2/2 + V(x)
* ``shifted_kinetic``  H(x,p)   = (p+P)^2/2 + V(x)
* ``traveling_wave``   H(x,p,t) = p^2/2 - p/k + V(x + t/k),  V required 1/k-periodic

All three are one form, H = m (p + b)^2/2 + e0 + V(x + w t) with V periodic
on cells of length 1/k, and a model turns its family name into the numbers
(m, b, e0, w, k) once, when it is built; nothing downstream reads the name.
The families have m = 1; the rescaled model H(x, Np, Nt) is the same form
with m N^2, b/N and w N.

Potentials are finite trigonometric series, so every spatial derivative is
exact and 1-periodicity holds to rounding error.  The series is held once, as
the coefficients (A_n, B_n) of V^(n)(x) = sum A_n cos(w x) + B_n sin(w x);
every derivative is a rotation of (c, s) scaled by w^n.  Arrays are summed
against these coefficients by numpy, and a scalar (x, p, t) takes the same
coefficients through plain float arithmetic with one math.cos/math.sin pair
per term, which is what the RK4 flow calls hundreds of thousands of times.
All evaluators broadcast over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
import math

import numpy as np

from .errors import ConfigError, config_number

MECHANICAL = "mechanical"
SHIFTED_KINETIC = "shifted_kinetic"
TRAVELING_WAVE = "traveling_wave"

FAMILIES = (MECHANICAL, SHIFTED_KINETIC, TRAVELING_WAVE)

TWO_PI = 2.0 * math.pi
CONVEXITY_FLOOR = 1e-8   # least H_pp of a convex model


def _is_scalar(v) -> bool:
    # the float test first: np.ndim alone costs a microsecond per call
    return isinstance(v, float) or np.ndim(v) == 0


@dataclass(frozen=True)
class PotentialSpec:
    """Finite trig series V(x) = sum_k c_k cos(2 pi k x) + s_k sin(2 pi k x)."""

    terms: tuple[tuple[int, float, float], ...] = ()

    def __post_init__(self):
        for term in self.terms:
            if len(term) != 3:
                raise ConfigError(f"potential term must be (freq, cos, sin): {term!r}",
                                  field="model.potential.terms")
            k = term[0]
            if int(k) != k or k < 0:
                raise ConfigError(f"potential frequency must be a nonnegative integer: {k!r}",
                                  field="model.potential.terms")

    @classmethod
    def from_terms(cls, terms) -> "PotentialSpec":
        return cls(tuple((int(k), float(c), float(s)) for k, c, s in terms))

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls(())

    @cached_property
    def _modes(self):
        """Angular frequencies w = 2 pi k and the cos/sin coefficients, as arrays."""
        if not self.terms:
            return np.zeros(1), np.zeros(1), np.zeros(1)
        k, c, s = (np.array(col, dtype=float) for col in zip(*self.terms))
        return TWO_PI * k, c, s

    def _coefficients(self, order: int = 0):
        """(A, B) with V^(order)(x) = sum A cos(w x) + B sin(w x).

        Differentiation maps (A, B) to w (B, -A), so the pair cycles through
        (c, s), (s, -c), (-c, -s), (-s, c), scaled by w^order.
        """
        w, c, s = self._modes
        a, b = ((c, s), (s, -c), (-c, -s), (-s, c))[order % 4]
        wn = w ** order
        return a * wn, b * wn

    @cached_property
    def _scalar_rows(self):
        """Per term: w and the (A, B) pairs of V, V', V'' as Python floats."""
        cols = [self._modes[0]] + [v for n in range(3) for v in self._coefficients(n)]
        return tuple(zip(*(col.tolist() for col in cols)))

    def _angles(self, x):
        return np.multiply.outer(np.asarray(x, dtype=float), self._modes[0])

    def derivative(self, x, order: int = 0):
        """Exact order-th derivative of V at x (broadcasts over arrays).

        The sum is cos(w x) @ A + sin(w x) @ B, with (A, B) the coefficients
        of the order.  When all of B are zero only cos(w x) @ A is evaluated,
        and when all of A are zero only sin(w x) @ B: the value differs from
        the full sum at most in the sign of an exact zero.
        """
        a, b = self._coefficients(order)
        ang = self._angles(x)
        if not b.any():
            val = np.cos(ang) @ a
        elif not a.any():
            val = np.sin(ang) @ b
        else:
            val = np.cos(ang) @ a + np.sin(ang) @ b
        return val if val.shape else float(val)

    def jet(self, y):
        """(V, V', V'') at y from one cos/sin pair per term.

        A scalar y gives floats, summed term by term in float arithmetic; an
        array y gives arrays.
        """
        if _is_scalar(y):
            y = float(y)
            v0 = v1 = v2 = 0.0
            for w, a0, b0, a1, b1, a2, b2 in self._scalar_rows:
                cw, sw = math.cos(w * y), math.sin(w * y)
                v0 += a0 * cw + b0 * sw
                v1 += a1 * cw + b1 * sw
                v2 += a2 * cw + b2 * sw
            return v0, v1, v2
        ang = self._angles(y)
        cw, sw = np.cos(ang), np.sin(ang)
        return tuple(cw @ a + sw @ b for a, b in map(self._coefficients, range(3)))

    def value(self, x):
        return self.derivative(x, 0)

    def d1(self, x):
        return self.derivative(x, 1)

    def d2(self, x):
        return self.derivative(x, 2)

    def min_on_grid(self) -> float:
        """Minimum of V over 8192 uniform samples of the circle."""
        return float(np.min(self.value(np.arange(8192) / 8192)))

    def is_subperiodic(self, k: int) -> bool:
        """True when every active frequency is a multiple of k (V is 1/k-periodic)."""
        return all(f % k == 0 for f, c, s in self.terms if c != 0.0 or s != 0.0)


@dataclass(frozen=True)
class Jet:
    """Pointwise derivative data of H; entries broadcast with array inputs."""

    H: object
    H_p: object
    H_x: object
    H_t: object
    H_pp: object
    H_xp: object
    H_xx: object


@dataclass(frozen=True)
class HamiltonianModel:
    """One of the closed-form families plus its standing-hypothesis constants.

    ``N`` rescales time: the model with N is H(x, Np, Nt) of the model with
    N = 1.  The numbers of the form are set from the family in
    ``__post_init__``: ``mass`` m, ``momentum_offset`` b, ``energy_offset``
    e0, ``speed`` w and ``cells`` k.
    """

    family: str
    potential: PotentialSpec = field(default_factory=PotentialSpec.zero)
    momentum_shift: float = 0.0
    wind: int = 1
    growth_constant: float = 8.0
    N: int = 1
    mass: float = field(init=False)
    momentum_offset: float = field(init=False)
    energy_offset: float = field(init=False)
    speed: float = field(init=False)
    cells: int = field(init=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown Hamiltonian family {self.family!r}", field="model.family")
        if self.family == TRAVELING_WAVE:
            if self.wind < 1:
                raise ConfigError("traveling_wave wind k must be a positive integer",
                                  field="model.wind")
            if not self.potential.is_subperiodic(self.wind):
                raise ConfigError(
                    f"traveling_wave potential must be 1/{self.wind}-periodic "
                    "(all frequencies multiples of the wind)",
                    field="model.potential")
        if self.growth_constant <= 0:
            raise ConfigError("growth_constant must be positive", field="model.growth_constant")
        if int(self.N) != self.N or self.N < 1:
            raise ConfigError(f"rescaling N must be a positive integer, got {self.N!r}")
        # (b, e0, w, k) of the family, then H(x, Np, Nt) = N^2 (p + b/N)^2/2 + e0 + V(x + N w t)
        b, e0, w, k = {
            MECHANICAL: (0.0, 0.0, 0.0, 1),
            SHIFTED_KINETIC: (self.momentum_shift, 0.0, 0.0, 1),
            TRAVELING_WAVE: (-1.0 / self.wind, -0.5 / self.wind ** 2, 1.0 / self.wind,
                             self.wind),
        }[self.family]
        for name, value in (("mass", float(self.N * self.N)), ("momentum_offset", b / self.N),
                            ("energy_offset", e0), ("speed", self.N * w), ("cells", k)):
            object.__setattr__(self, name, value)

    def rescaled(self, N: int) -> "HamiltonianModel":
        """The model H_N(x, p, t) = H(x, Np, Nt), one period of which packs N of H."""
        return replace(self, N=self.N * N)

    def _space_arg(self, x, t):
        """Argument of V: x + w t, or x itself when w = 0.

        Floats stay floats; callers pass arrays when they want arrays.
        """
        return x + self.speed * t if self.speed else x

    def _space_array(self, x, t):
        return self._space_arg(np.asarray(x, dtype=float), np.asarray(t, dtype=float))

    def potential_value(self, x, t=0.0):
        return self.potential.value(self._space_array(x, t))

    def hamiltonian(self, x, p, t=0.0):
        q = np.asarray(p, dtype=float) + self.momentum_offset
        return (0.5 * self.mass * q * q + self.energy_offset
                + self.potential.value(self._space_array(x, t)))

    def jet(self, x, p, t=0.0) -> Jet:
        """Full first/second derivative jet of H at (x, p, t).

        Scalar arguments (numpy scalars included) give float entries computed
        without numpy; arrays broadcast.
        """
        m = self.mass
        if _is_scalar(x) and _is_scalar(p) and _is_scalar(t):
            y, p = self._space_arg(float(x), float(t)), float(p)
            h_pp, zero, h_t = m, 0.0, 0.0
        else:
            y, p = np.broadcast_arrays(self._space_array(x, t), np.asarray(p, dtype=float))
            h_pp, zero, h_t = np.full_like(p, m), np.zeros_like(p), np.zeros_like(p)
        v0, v1, v2 = self.potential.jet(y)
        q = p + self.momentum_offset
        h = 0.5 * m * q * q + self.energy_offset + v0
        if self.speed:
            h_t = self.speed * v1
        return Jet(H=h, H_p=m * q, H_x=v1, H_t=h_t, H_pp=h_pp, H_xp=zero, H_xx=v2)

    def lagrangian(self, x, v, t=0.0):
        """Legendre pair (L, L_v); the maximizing momentum is p* = v/m - b."""
        y = self._space_array(x, t)
        v = np.asarray(v, dtype=float)
        b = self.momentum_offset
        lval = 0.5 / self.mass * v * v - b * v - self.energy_offset - self.potential.value(y)
        return lval, v / self.mass - b

    def h_p_of_gradient(self, x, p, t=0.0):
        """Drift H_p(x, p, t) = m (p + b)."""
        return self.mass * (np.asarray(p, dtype=float) + self.momentum_offset)


@dataclass(frozen=True)
class HypothesisReport:
    """Sampled verification of convexity, growth and periodicity."""

    min_h_pp: float
    growth_min: float
    space_period_residual: float
    time_period_residual: float
    cell_period_residual: float
    convexity_ok: bool
    growth_ok: bool
    periodicity_ok: bool

    @property
    def ok(self) -> bool:
        return self.convexity_ok and self.growth_ok and self.periodicity_ok


def verify_hypotheses(model: HamiltonianModel) -> HypothesisReport:
    """Check the standing hypotheses on a 128 x 32 (x, t) sample lattice.

    The growth inequality (H_p.p - H + inf H(.,0,.)) K - |H_x| >= 0 is sampled
    at 64 values of |p| in [K, 3K]; the unbounded tail is structural for
    quadratic kinetic energy and is not sampled.  Periodicity must hold to
    1e-12.
    """
    K = model.growth_constant
    xs = np.arange(128) / 128
    ts = np.arange(32) / 32
    band = np.linspace(K, 3.0 * K, 64)
    ps = np.concatenate([band, -band])

    xg, tg = np.meshgrid(xs, ts, indexing="ij")
    h0 = model.hamiltonian(xg, np.zeros_like(xg), tg)
    inf_h0 = float(np.min(h0))

    growth_min = math.inf
    min_hpp = math.inf
    for t in ts:
        xg2, pg2 = np.meshgrid(xs, ps, indexing="ij")
        jet = model.jet(xg2, pg2, t)
        expr = (jet.H_p * pg2 - jet.H + inf_h0) * K - np.abs(jet.H_x)
        growth_min = min(growth_min, float(np.min(expr)))
        min_hpp = min(min_hpp, float(np.min(jet.H_pp)))

    # periodicity residuals at scattered probe points
    rng = np.random.default_rng(0)
    xp = rng.random(256)
    pp = rng.normal(0.0, 2.0, 256)
    tp = rng.random(256)
    hs = model.hamiltonian(xp, pp, tp)
    res_space = float(np.max(np.abs(model.hamiltonian(xp + 1.0, pp, tp) - hs)))
    res_time = float(np.max(np.abs(model.hamiltonian(xp, pp, tp + 1.0) - hs)))
    res_cell = float(np.max(np.abs(
        model.potential.value(xp + 1.0 / model.cells) - model.potential.value(xp))))

    return HypothesisReport(
        min_h_pp=min_hpp,
        growth_min=growth_min,
        space_period_residual=res_space,
        time_period_residual=res_time,
        cell_period_residual=res_cell,
        convexity_ok=min_hpp >= CONVEXITY_FLOOR,
        growth_ok=growth_min >= -1e-12,
        periodicity_ok=max(res_space, res_time, res_cell) <= 1e-12,
    )


def model_from_config(block: dict) -> HamiltonianModel:
    """Build a model from the ``model`` block of an experiment config."""
    if not isinstance(block, dict):
        raise ConfigError("model block must be an object", field="model")
    family = block.get("family")
    if family not in FAMILIES:
        raise ConfigError(f"model.family must be one of {FAMILIES}, got {family!r}",
                          field="model.family")
    pot_block = block.get("potential", {"terms": []})
    terms = pot_block.get("terms", []) if isinstance(pot_block, dict) else None
    if terms is None:
        raise ConfigError("model.potential must be {'terms': [[k, cos, sin], ...]}",
                          field="model.potential")
    field_ = "model.potential.terms"
    if not isinstance(terms, list) or not all(isinstance(t, list) and len(t) == 3
                                              for t in terms):
        raise ConfigError("model.potential.terms must be a list of [k, cos, sin]",
                          field=field_)
    potential = PotentialSpec.from_terms(
        (config_number(k, field_, integer=True), config_number(c, field_),
         config_number(s, field_)) for k, c, s in terms)
    return HamiltonianModel(
        family=family,
        potential=potential,
        momentum_shift=config_number(block.get("momentum_shift", 0.0), "model.momentum_shift"),
        wind=config_number(block.get("wind", 1), "model.wind", integer=True),
        growth_constant=config_number(block.get("growth_constant", 8.0),
                                      "model.growth_constant"),
    )


def benchmark_potential() -> PotentialSpec:
    """V(x) = -sin^2(2 pi x) (1 + cos(2 pi x)/2) as an exact trig series.

    Expansion: -1/2 - cos(2 pi x)/8 + cos(4 pi x)/2 + cos(6 pi x)/8, with
    nondegenerate maxima V=0 at x=0 (V''=-12 pi^2) and x=1/2 (V''=-4 pi^2).
    """
    return PotentialSpec.from_terms([(0, -0.5, 0.0), (1, -0.125, 0.0),
                                     (2, 0.5, 0.0), (3, 0.125, 0.0)])
