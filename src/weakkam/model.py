"""Closed-form Hamiltonian families on the circle, all of one form.

Three families are supported, all with quadratic kinetic energy so that the
Legendre transform is closed-form and kernels stay exact:

* ``mechanical``       H(x,p)   = p^2/2 + V(x)
* ``shifted_kinetic``  H(x,p)   = (p+P)^2/2 + V(x)
* ``traveling_wave``   H(x,p,t) = p^2/2 - p/k + V(x + t/k),  V required 1/k-periodic

All three are one form, H = m (p + b)^2/2 + e0 + V(x + w t) with V periodic
on cells of length 1/k, and a model turns its family name into the numbers
(m, b, e0, w, k) once, when it is built; nothing downstream reads the name.
The families have m = 1; the rescaled model H(x, Np, Nt) is the same form
with m N^2, b/N and w N.  The form is convex (H_pp = m > 0) and 1-periodic
in x and t by construction, and its flow needs only m, b and V', V'' at the
wave coordinate y = x + w t.

Potentials are finite trigonometric series, so every spatial derivative is
exact and 1-periodicity holds to rounding error.  The series is held once, as
the coefficients (A_n, B_n) of V^(n)(x) = sum A_n cos(w x) + B_n sin(w x);
every derivative is a rotation of (c, s) scaled by w^n.  Three evaluators read
these coefficients, one per access pattern:

* arrays: ``derivative`` sums V and each derivative by Clenshaw's recurrence
  from one cos (and one sin) per point; ``value``, ``d1`` and ``d2`` are its
  orders 0, 1 and 2, and H and L read ``value`` at every path-step and node;
* one scalar: ``jet`` gives the RK4 flow (V', V'') at one y in plain float
  arithmetic, with one math.cos/math.sin pair per term;
* fixed nodes under many shifts: ``translates`` gives the viscous march
  V(x + u) by angle addition from the nodes' cos/sin (``node_basis``).
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


def _rotated(modes, order: int):
    """(A, B) of the order-th derivative sum A cos(w x) + B sin(w x) of the series
    ``modes`` = (w, c, s); each order maps (A, B) to w (B, -A)."""
    w, c, s = modes
    a, b = ((c, s), (s, -c), (-c, -s), (-s, c))[order % 4]
    wn = w ** order
    return a * wn, b * wn


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

    @cached_property
    def _scalar_rows(self):
        """Per term: w and the (A, B) pairs of V', V'' as Python floats."""
        cols = [self._modes[0]] + [v for n in (1, 2) for v in _rotated(self._modes, n)]
        return tuple(zip(*(col.tolist() for col in cols)))

    def jet(self, y: float):
        """(V', V'') at the scalar y as floats, from one cos/sin pair per term."""
        v1 = v2 = 0.0
        for w, a1, b1, a2, b2 in self._scalar_rows:
            cw, sw = math.cos(w * y), math.sin(w * y)
            v1 += a1 * cw + b1 * sw
            v2 += a2 * cw + b2 * sw
        return v1, v2

    def node_basis(self, x):
        """cos(w x) and sin(w x) at the points x, one row per term, for ``translates``."""
        ang = np.multiply.outer(self._modes[0], np.asarray(x, dtype=float))
        return np.cos(ang), np.sin(ang)

    def translates(self, basis, u, out=None, work=None):
        """V(x + u) at the points of ``basis``, one row per shift u.

        Angle addition gives V(x + u) = sum cos(w x) (c cos(w u) + s sin(w u))
        + sin(w x) (s cos(w u) - c sin(w u)), so a shift costs one cos/sin
        pair per term.  The terms are summed by elementwise multiply-add, not
        by a matrix product, so each row has the same bits however many shifts
        are asked for at once.  ``out`` receives the rows and ``work`` holds
        each term, when given (arrays of the result's shape); else both are
        allocated here.
        """
        w, c, s = self._modes
        ang = np.multiply.outer(np.asarray(u, dtype=float), w)
        cu, su = np.cos(ang), np.sin(ang)
        a, b = c * cu + s * su, s * cu - c * su
        cx, sx = basis
        shape = ang.shape[:-1] + cx.shape[1:]
        out = np.empty(shape) if out is None else out
        out.fill(0.0)
        # in place: fresh temporaries this size cost more than the sums
        term = np.empty(shape) if work is None else work
        for k in range(w.size):
            out += np.multiply(a[..., k, None], cx[k], out=term)
            out += np.multiply(b[..., k, None], sx[k], out=term)
        return out

    @cached_property
    def _merged_modes(self):
        """``_modes`` with the terms merged by frequency: w_j = 2 pi j for j = 0..K."""
        top = max((k for k, _, _ in self.terms), default=0)
        c, s = np.zeros(top + 1), np.zeros(top + 1)
        for k, ck, sk in self.terms:
            c[k] += ck
            s[k] += sk
        return TWO_PI * np.arange(top + 1), c, s

    @cached_property
    def _series(self) -> dict:
        """Per order n, the lists (A_j, B_j) of floats, j = 0..K, of V^(n), filled on use."""
        return {}

    def derivative(self, x, order: int = 0):
        """Exact order-th derivative of V at x (broadcasts over arrays).

        V^(order) = sum_j A_j cos(j t) + B_j sin(j t), t = 2 pi x, with (A_j, B_j)
        the merged (c_j, s_j) rotated and scaled as in ``_rotated``, built once
        per order.  Clenshaw's recurrence sums it from y = cos(t): with
        b_(K+1) = b_(K+2) = 0 and b_j = A_j + 2y b_(j+1) - b_(j+2), the cosine
        half is A_0 + y b_1 - b_2, as cos(j t) = T_j(y); the same run on B_j gives
        beta_1, and the sine half is sin(t) beta_1, as sin(j t) = sin(t) U_(j-1)(y).
        One cos is taken per point, and one sin when some B_j is nonzero.  The
        angle t = 2 pi (x - rint(x)) is reduced exactly into [-pi, pi], where cos
        and sin are cheaper, and keeps the digits 2 pi j x loses at large |x|.
        """
        series = self._series.get(order)
        if series is None:
            series = self._series[order] = tuple(
                v.tolist() for v in _rotated(self._merged_modes, order))
        a, b = series
        x = np.asarray(x, dtype=float)
        if len(a) == 1:
            val = np.full(x.shape, a[0])
        else:
            t = TWO_PI * (x - np.rint(x))
            y = np.cos(t)
            two_y = y + y
            b1, b2 = a[-1], 0.0
            for aj in a[-2:0:-1]:
                b1, b2 = aj + two_y * b1 - b2, b1
            val = a[0] + y * b1 - b2
            if any(b[1:]):
                b1, b2 = b[-1], 0.0
                for bj in b[-2:0:-1]:
                    b1, b2 = bj + two_y * b1 - b2, b1
                val = val + np.sin(t) * b1
        return val if val.shape else float(val)

    def value(self, x):
        """V at x (broadcasts over arrays): ``derivative`` of order 0."""
        return self.derivative(x)

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

    def wave_coordinate(self, x, t):
        """Argument y = x + w t of V, or x itself when w = 0.

        Floats stay floats; callers pass arrays when they want arrays.
        """
        return x + self.speed * t if self.speed else x

    def _space_array(self, x, t):
        return self.wave_coordinate(np.asarray(x, dtype=float), np.asarray(t, dtype=float))

    def potential_value(self, x, t=0.0):
        return self.potential.value(self._space_array(x, t))

    def hamiltonian(self, x, p, t=0.0):
        q = np.asarray(p, dtype=float) + self.momentum_offset
        return (0.5 * self.mass * q * q + self.energy_offset
                + self.potential.value(self._space_array(x, t)))

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
    """Sampled verification of the growth hypothesis; ``min_h_pp`` is the mass m."""

    min_h_pp: float
    growth_min: float
    growth_ok: bool

    @property
    def ok(self) -> bool:
        return self.growth_ok


def verify_hypotheses(model: HamiltonianModel) -> HypothesisReport:
    """Check the growth inequality on a 128 x 32 (x, t) sample lattice.

    The inequality (H_p.p - H + inf H(.,0,.)) K - |H_x| >= 0 is required for
    |p| >= K.  On the form, H_p.p - H = m p^2/2 - m b^2/2 - e0 - V grows with
    |p|, so it is evaluated at p = +-K only.  Convexity (H_pp = m) and
    space-time periodicity hold by construction and are not sampled.
    """
    K = model.growth_constant
    xg, tg = np.meshgrid(np.arange(128) / 128, np.arange(32) / 32, indexing="ij")
    inf_h0 = float(np.min(model.hamiltonian(xg, 0.0, tg)))
    abs_h_x = np.abs(model.potential.d1(model.wave_coordinate(xg, tg)))
    growth_min = min(
        float(np.min((model.h_p_of_gradient(xg, p, tg) * p - model.hamiltonian(xg, p, tg)
                      + inf_h0) * K - abs_h_x))
        for p in (K, -K))
    return HypothesisReport(min_h_pp=model.mass, growth_min=growth_min,
                            growth_ok=growth_min >= -1e-12)


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
    momentum_shift = config_number(block.get("momentum_shift", 0.0), "model.momentum_shift")
    wind = config_number(block.get("wind", 1), "model.wind", integer=True)
    # a key that only one family reads must hold its neutral value elsewhere
    for key, value, neutral, owner in (("momentum_shift", momentum_shift, 0.0, SHIFTED_KINETIC),
                                       ("wind", wind, 1, TRAVELING_WAVE)):
        if value != neutral and family != owner:
            raise ConfigError(f"model.{key} = {value!r} is read only by the {owner} family, "
                              f"not by {family}", field=f"model.{key}")
    return HamiltonianModel(
        family=family,
        potential=potential,
        momentum_shift=momentum_shift,
        wind=wind,
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
