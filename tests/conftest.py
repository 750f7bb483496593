import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

import pytest
from hypothesis import strategies as st

from herzlab.corpus import random_step_functions, record_to_object
from herzlab.herz import lq_norm
from herzlab.lorentz import conjugate_exponent
from herzlab.rearrange import RadialStepFunction, unit_ball_volume


TINY = Fraction(1, 3**200)
# mixed denominators, both signs, zero and one value far below the float range
LATTICE_VALUES = st.sampled_from(
    [Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(-9, 4), Fraction(3),
     TINY]
)


@st.composite
def lattice_functions(draw, thirds=(3, 6, 12)):
    """Radii k/3, k/6 or k/12, so the lattice denominator is not a power of two,
    built directly or decoded from a corpus record of [num, den] pairs."""
    n = draw(st.integers(min_value=1, max_value=6))
    cuts = sorted(draw(st.lists(st.integers(1, 40), min_size=n, max_size=n, unique=True)))
    den = draw(st.sampled_from(thirds))
    values = draw(st.lists(LATTICE_VALUES, min_size=n, max_size=n))
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return RadialStepFunction(dim, [0] + [Fraction(c, den) for c in cuts], values)
    return record_to_object({
        "type": "radial_step",
        "dim": dim,
        "breakpoints": [0] + [[c, den] for c in cuts],
        "values": [[v.numerator, v.denominator] for v in values],
    })


# The Fraction-built definitions that the integer lattice of RadialStepFunction
# replaces: a function is its canonical (breakpoints, values) pair of Fraction
# tuples, and each operation is written on those tuples.


def fraction_step_function(breakpoints, values):
    """The canonical form as the constructor formed it in Fractions: a missing
    leading 0 supplied, adjacent equal values merged (the last shell of each
    run kept) and trailing zero shells stripped, the zero function being
    ((0, 1), (0,)).  Raises the constructor's ValueErrors."""
    bp = [Fraction(b) for b in breakpoints]
    vals = [Fraction(v) for v in values]
    if not bp:
        raise ValueError("breakpoints must start at 0")
    if bp[0] != 0:
        if all(b > 0 for b in bp) and len(vals) == len(bp):
            bp.insert(0, Fraction(0))
        else:
            raise ValueError("breakpoints must start at 0")
    if any(a >= b for a, b in zip(bp, bp[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    if len(vals) != len(bp) - 1:
        raise ValueError("need exactly one value per shell")
    ends = [i for i, v in enumerate(vals) if i + 1 == len(vals) or vals[i + 1] != v]
    if ends and vals[ends[-1]] == 0:
        ends.pop()
    if not ends:
        return (Fraction(0), Fraction(1)), (Fraction(0),)
    return (bp[0], *(bp[i + 1] for i in ends)), tuple(vals[i] for i in ends)


def fraction_value(form, rho):
    bp, vals = form
    return next((v for b, v in zip(bp[1:], vals) if rho < b), Fraction(0))


def fraction_restrict(form, lo, hi):
    """Cut at every breakpoint, lo and hi, and keep the cells inside [lo, hi)."""
    cuts = sorted({Fraction(0), Fraction(lo), Fraction(hi), *form[0]})
    return fraction_step_function(cuts, [
        fraction_value(form, a) if lo <= a and b <= hi else 0 for a, b in zip(cuts, cuts[1:])
    ])


def fraction_sum(forms):
    cuts = sorted({b for bp, _ in forms for b in bp})
    return fraction_step_function(cuts, [sum(fraction_value(f, c) for f in forms)
                                         for c in cuts[:-1]])


@dataclass(frozen=True)
class FractionRearrangement:
    """StepRearrangement as it was stored in Fractions: knots and levels are
    the fields, and each method walks them."""

    knots: tuple[Fraction, ...]
    levels: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.knots) != len(self.levels):
            raise ValueError("knots and levels must pair up")
        if any(t <= s for s, t in zip((Fraction(0),) + self.knots, self.knots)):
            raise ValueError("knots must be strictly increasing and positive")
        if any(w <= v for w, v in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be strictly decreasing")
        if self.levels and self.levels[-1] <= 0:
            raise ValueError("levels must be positive (zero tail is implicit)")

    @property
    def support_bound(self) -> Fraction:
        return self.knots[-1] if self.knots else Fraction(0)

    @property
    def top_level(self) -> Fraction:
        return self.levels[0] if self.levels else Fraction(0)

    def value_at(self, t) -> Fraction:
        s = Fraction(t)
        if s < 0:
            raise ValueError("argument must be nonnegative")
        for knot, level in zip(self.knots, self.levels):
            if s < knot:
                return level
        return Fraction(0)

    def integral_up_to(self, t) -> Fraction:
        s = Fraction(t)
        if s < 0:
            raise ValueError("argument must be nonnegative")
        total = Fraction(0)
        prev = Fraction(0)
        for knot, level in zip(self.knots, self.levels):
            if s <= knot:
                return total + level * (s - prev)
            total += level * (knot - prev)
            prev = knot
        return total

    def total_mass(self) -> Fraction:
        return self.integral_up_to(self.support_bound)

    def segment_masses(self) -> tuple[Fraction, ...]:
        return tuple(b - a for a, b in zip((Fraction(0),) + self.knots, self.knots))

    def superlevel_measure(self, alpha) -> Fraction:
        a = Fraction(alpha)
        if a < 0:
            raise ValueError("level must be nonnegative")
        out = Fraction(0)
        for knot, level in zip(self.knots, self.levels):
            if level > a:
                out = knot
        return out

    def average(self, t) -> Fraction:
        s = Fraction(t)
        if s <= 0:
            raise ValueError("t must be positive")
        return self.integral_up_to(s) / s

    def float_steps(self) -> tuple[list[float], list[float]]:
        return [float(w) for w in self.levels], [float(t) for t in self.knots]


def fraction_rearrangement(dim, form):
    """f* of a canonical form, its shell measures grouped by |value| in Fractions."""
    bp, vals = form
    w = unit_ball_volume(dim)
    mass = {}
    for a, b, v in zip(bp, bp[1:], vals):
        if v:
            mass[abs(v)] = mass.get(abs(v), 0) + w * (b**dim - a**dim)
    levels = sorted(mass, reverse=True)
    return FractionRearrangement(tuple(accumulate(mass[x] for x in levels)), tuple(levels))


def fraction_rounded_rearrangement(dim, form):
    """float() of the levels, knots and |f| integral of f*, grouped in Fractions."""
    g = fraction_rearrangement(dim, form)
    return (*g.float_steps(), float(g.total_mass()))


@pytest.fixture(scope="session")
def two_shell():
    """Shells of measure 1/2 (value 3) and 2 (value 1) in R^1."""
    return RadialStepFunction(1, [0, Fraction(1, 4), Fraction(5, 4)], [3, 1])


@pytest.fixture(scope="session")
def step_corpus():
    return random_step_functions(40, seed=1234)


@pytest.fixture(scope="session")
def nonneg_corpus():
    return random_step_functions(30, seed=99, nonnegative=True)


def power_integral(f: RadialStepFunction, p: float) -> float:
    """Independent L^p oracle: the integral of |f|^p, evaluated shell by shell."""
    return math.fsum(
        float(abs(v)) ** p * float(m) for m, v in zip(f.shell_measures(), f.values) if v != 0
    )


def brute_rearrangement_value(f: RadialStepFunction, s: Fraction) -> Fraction:
    """Independent oracle: invert the distribution function by scanning levels.

    f*(s) = inf{alpha >= 0 : mu_f(alpha) <= s}; for a step function the
    infimum is attained at a level of |f| (or 0), so scanning the finitely
    many candidates is exact.
    """
    from herzlab.rearrange import distribution

    candidates = sorted({Fraction(0), *(abs(v) for v in f.values)})
    for alpha in candidates:
        if distribution(f, alpha) <= s:
            return alpha
    raise AssertionError("distribution never drops below s")


def dual_bound(
    s: Sequence[float],
    t: float,
    a_vec: Sequence[float],
    b_vec: Sequence[float],
    q0: float,
    q1: float,
) -> float:
    """K-J dual lower bound on K(t) built from a split s (exponents in [1, inf)).

    Any z >= 0 with ||z/a||_{q0'} <= 1 and ||z/b||_{q1'} <= t gives
    K(t) >= sum z, by Hoelder on each part of every split.  The candidates
    are the side-0 gradient z0_u = a_u^{q0} s_u^{q0-1} N0^{1-q0}, t times the
    side-1 gradient z1_u = b_u^{q1} (1-s_u)^{q1-1} N1^{1-q1}, and their
    maximum; at a minimizer z0 and z1 agree on the coordinates that matter.
    Each is rescaled to feasibility and the best bound is kept.
    """
    n0 = lq_norm([a * x for a, x in zip(a_vec, s)], q0)
    n1 = lq_norm([b * (1.0 - x) for b, x in zip(b_vec, s)], q1)
    grads = []
    if n0 > 0.0:
        grads.append([a**q0 * x ** (q0 - 1.0) * n0 ** (1.0 - q0) for a, x in zip(a_vec, s)])
    if n1 > 0.0:
        grads.append(
            [t * b**q1 * (1.0 - x) ** (q1 - 1.0) * n1 ** (1.0 - q1) for b, x in zip(b_vec, s)]
        )
    if len(grads) == 2:
        grads.append([max(z0, z1) for z0, z1 in zip(*grads)])
    qd0, qd1 = conjugate_exponent(q0), conjugate_exponent(q1)
    best = 0.0
    for z in grads:
        scale = max(
            lq_norm([zi / a for zi, a in zip(z, a_vec)], qd0),
            lq_norm([zi / b for zi, b in zip(z, b_vec)], qd1) / t,
        )
        if scale > 0.0:
            best = max(best, math.fsum(z) / scale)
    return best


def check_k_curve(
    ts: Sequence[float],
    ks: Sequence[float],
    norm0: float,
    norm1: float,
    tol: float = 1e-7,
) -> list[float]:
    """Assert the structural invariants of a K curve.

    Checks that the curve is nondecreasing and concave in t, that K(t)/t is
    nonincreasing, and that K(t) <= min(norm0, t norm1) throughout.
    """
    scale_ref = max(norm0, max(ks, default=0.0), 1e-300)
    for t, k in zip(ts, ks):
        if k > min(norm0, t * norm1) * (1.0 + tol) + tol * scale_ref:
            raise AssertionError(f"K({t}) = {k} exceeds min(N0, t N1)")
    for (t1, k1), (t2, k2) in zip(zip(ts, ks), zip(ts[1:], ks[1:])):
        if k2 < k1 * (1.0 - tol) - tol * scale_ref:
            raise AssertionError("K must be nondecreasing")
        if k2 / t2 > (k1 / t1) * (1.0 + tol) + tol * scale_ref:
            raise AssertionError("K(t)/t must be nonincreasing")
    slopes = [
        (k2 - k1) / (t2 - t1)
        for (t1, k1), (t2, k2) in zip(zip(ts, ks), zip(ts[1:], ks[1:]))
    ]
    for s1, s2 in zip(slopes, slopes[1:]):
        if s2 > s1 + tol * scale_ref:
            raise AssertionError("K must be concave in t")
    return list(ks)
