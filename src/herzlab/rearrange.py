"""Radial step functions and their decreasing rearrangements.

Everything in this module is exact: radii, values and measures are kept as
`fractions.Fraction`, so distribution functions, rearrangements and their
integrals satisfy equimeasurability and mass conservation as identities, not
up to rounding.  Floats enter only when a caller converts a measure or level
for norm evaluation.

A radial step function on R^N is piecewise constant in |x| with finitely many
shells and bounded support.  `RadialStepFunction` is its one constructor: it
takes any numbers, validates them once and stores the canonical shells, so
equal functions compare and hash equal however their shells were listed.
Its decreasing rearrangement is again a step function, obtained by sorting
shells by |value| and accumulating measures.  Shell measures
omega_N (b^N - a^N) are formed only by `RadialStepFunction.shell_measures`.
What depends on the shells alone is built on first use and kept on the
instance: the shell measures, the distribution table and the annulus
profile (`RadialStepFunction.profile`, built by `herz.annulus_profile`).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .herz import AnnulusProfile

Number = int | float | Fraction

__all__ = [
    "RadialStepFunction",
    "StepRearrangement",
    "SumBoundReport",
    "ball",
    "unit_ball_volume",
    "distribution",
    "rearrangement",
    "rearrangement_from_pairs",
    "average_rearrangement",
    "sum_bound_check",
    "pointwise_sum",
    "scale",
    "restrict_radii",
    "common_refinement",
    "integrate_abs_product",
]


def _as_fraction(x: Number) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"non-finite value {x!r}")
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _check_dim(dim: int) -> None:
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError("dimension must be a positive integer")


@lru_cache(maxsize=None, typed=True)  # typed: True and 1.0 are not cached as 1
def unit_ball_volume(dim: int) -> Fraction:
    """Volume of the unit ball in R^dim, as an exact rational.

    For dim >= 2 the value is irrational; we pin the correctly rounded float
    once so that all downstream measure arithmetic stays exact and
    self-consistent.  dim = 1 gives exactly 2.
    """
    _check_dim(dim)
    if dim == 1:
        return Fraction(2)
    try:
        return Fraction(math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0))
    except OverflowError:
        raise ValueError(f"the unit ball volume of dimension {dim} overflows") from None


@dataclass(frozen=True)
class RadialStepFunction:
    """Piecewise-constant-in-|x| function with finite support.

    ``breakpoints`` are strictly increasing radii starting at 0 (a missing
    leading 0 is supplied); ``values`` holds one (possibly signed) value per
    shell {rho_{i-1} <= |x| < rho_i}.  The function vanishes for
    |x| >= breakpoints[-1].  Any numbers are taken as exact rationals, and
    the constructor stores the canonical form: adjacent equal values are
    merged and trailing zero shells are stripped, the zero function being
    ((0, 1), (0,)), so `==` and `hash` are semantic.
    """

    dim: int
    breakpoints: tuple[Fraction, ...]  # any sequence of numbers on input
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        bp = [_as_fraction(b) for b in self.breakpoints]
        vals = [_as_fraction(v) for v in self.values]
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
        merged_bp = bp[:1]
        merged_vals: list[Fraction] = []
        for b, v in zip(bp[1:], vals):
            if merged_vals and v == merged_vals[-1]:
                merged_bp[-1] = b
            else:
                merged_bp.append(b)
                merged_vals.append(v)
        while merged_vals and merged_vals[-1] == 0:
            merged_vals.pop()
            merged_bp.pop()
        if not merged_vals:
            merged_bp, merged_vals = [Fraction(0), Fraction(1)], [Fraction(0)]
        object.__setattr__(self, "breakpoints", tuple(merged_bp))
        object.__setattr__(self, "values", tuple(merged_vals))

    @property
    def support_radius(self) -> Fraction:
        return self.breakpoints[-1]

    def shell_measures(self) -> tuple[Fraction, ...]:
        """Lebesgue measure of each shell, omega_N (rho_i^N - rho_{i-1}^N).

        Computed on first use and kept on the instance; the same tuple is
        returned on every call.
        """
        return self._shell_measures

    @cached_property
    def _shell_measures(self) -> tuple[Fraction, ...]:
        w = unit_ball_volume(self.dim)
        powers = [b**self.dim for b in self.breakpoints]
        return tuple(w * (b - a) for a, b in zip(powers, powers[1:]))

    @cached_property
    def profile(self) -> AnnulusProfile:
        """Annulus profile (see herz.annulus_profile), built on first use and kept."""
        from .herz import _step_profile  # herz imports this module

        return _step_profile(self)

    @cached_property
    def _distribution_table(self) -> tuple[list[Fraction], list[Fraction]]:
        """The nonzero |values| in ascending order, and at each index i the
        measure of the shells from i on (one more entry, 0, at the end)."""
        pieces = sorted(
            ((abs(v), m) for v, m in zip(self.values, self.shell_measures()) if v != 0),
            key=itemgetter(0),
        )
        tails = [Fraction(0)]
        for _, m in reversed(pieces):
            tails.append(tails[-1] + m)
        tails.reverse()
        return [w for w, _ in pieces], tails

    def support_measure(self) -> Fraction:
        return sum(
            (m for m, v in zip(self.shell_measures(), self.values) if v != 0),
            Fraction(0),
        )

    def abs_integral(self) -> Fraction:
        """Integral of |f| over R^N."""
        return sum(
            (abs(v) * m for m, v in zip(self.shell_measures(), self.values)),
            Fraction(0),
        )

    def value_at_radius(self, rho: Number) -> Fraction:
        r = _as_fraction(rho)
        if r < 0:
            raise ValueError("radius must be nonnegative")
        if r >= self.breakpoints[-1]:
            return Fraction(0)
        i = bisect_right(self.breakpoints, r) - 1
        return self.values[i]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def __abs__(self) -> "RadialStepFunction":
        return RadialStepFunction(self.dim, self.breakpoints, [abs(v) for v in self.values])


def ball(dim: int, measure: Number, value: Number = 1) -> RadialStepFunction:
    """Indicator (times `value`) of a centered ball with the given measure."""
    mu = _as_fraction(measure)
    if mu <= 0:
        raise ValueError("measure must be positive")
    w = unit_ball_volume(dim)
    ratio = mu / w
    if dim == 1:
        rho = ratio
    else:
        # no refinement: omega * rho^N matches `measure` only to float
        # precision; the radius is exact only for dim = 1
        rho = Fraction(float(ratio) ** (1.0 / dim))
    return RadialStepFunction(dim, [0, rho], [value])


@dataclass(frozen=True)
class StepRearrangement:
    """Nonincreasing step profile f* on [0, infinity).

    ``knots`` are the cumulative measures 0 < t_1 < ... < t_k and ``levels``
    the strictly decreasing positive values w_1 > ... > w_k taken on
    [t_{j-1}, t_j).  The profile is right-continuous and vanishes beyond t_k.
    """

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
        """f*(0), the essential supremum."""
        return self.levels[0] if self.levels else Fraction(0)

    def value_at(self, t: Number) -> Fraction:
        """Right-continuous evaluation of f* at t >= 0."""
        s = _as_fraction(t)
        if s < 0:
            raise ValueError("argument must be nonnegative")
        for knot, level in zip(self.knots, self.levels):
            if s < knot:
                return level
        return Fraction(0)

    def integral_up_to(self, t: Number) -> Fraction:
        """Exact integral of f* over [0, t]."""
        s = _as_fraction(t)
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
        prev = Fraction(0)
        out = []
        for knot in self.knots:
            out.append(knot - prev)
            prev = knot
        return tuple(out)

    def superlevel_measure(self, alpha: Number) -> Fraction:
        """Measure of {f* > alpha}; the distribution function of the profile."""
        a = _as_fraction(alpha)
        if a < 0:
            raise ValueError("level must be nonnegative")
        out = Fraction(0)
        for knot, level in zip(self.knots, self.levels):
            if level <= a:  # levels decrease, so no later one exceeds a
                break
            out = knot
        return out

    def float_steps(self) -> tuple[list[float], list[float]]:
        """(levels, knots) as floats, for norm evaluation."""
        return [float(w) for w in self.levels], [float(t) for t in self.knots]


def rearrangement_from_pairs(
    pairs: Iterable[tuple[Fraction, Fraction]],
) -> StepRearrangement:
    """Rearrangement of a step function given as (measure, |value|) pieces.

    One sort by |value|, descending, brings equal levels next to each other,
    and one pass merges them while it accumulates the knots.
    """
    pieces: list[tuple[Fraction, Fraction]] = []
    for measure, value in pairs:
        if measure < 0:
            raise ValueError("piece measures must be nonnegative")
        if measure != 0 and value != 0:
            pieces.append((abs(value), measure))
    pieces.sort(key=itemgetter(0), reverse=True)
    levels: list[Fraction] = []
    knots: list[Fraction] = []
    acc = Fraction(0)
    for w, measure in pieces:
        acc += measure
        if levels and levels[-1] == w:
            knots[-1] = acc
        else:
            levels.append(w)
            knots.append(acc)
    return StepRearrangement(tuple(knots), tuple(levels))


def distribution(f: RadialStepFunction, alpha: Number) -> Fraction:
    """Measure of the superlevel set {|f| > alpha}.

    Read off a table of f's own shells, built once per function: the sorted
    |values| and the measures of their tails, so each call is one bisection.
    """
    a = _as_fraction(alpha)
    if a < 0:
        raise ValueError("alpha must be nonnegative")
    levels, tails = f._distribution_table
    return tails[bisect_right(levels, a)]


def rearrangement(f: RadialStepFunction) -> StepRearrangement:
    """Decreasing rearrangement f* of a radial step function."""
    return rearrangement_from_pairs(zip(f.shell_measures(), f.values))


def average_rearrangement(g: StepRearrangement, t: Number) -> Fraction:
    """f**(t) = (1/t) integral_0^t f*, evaluated exactly."""
    s = _as_fraction(t)
    if s <= 0:
        raise ValueError("t must be positive")
    return g.integral_up_to(s) / s


def _merge_breakpoints(fs: Sequence[RadialStepFunction]) -> list[Fraction]:
    cuts: set[Fraction] = {Fraction(0)}
    for f in fs:
        cuts.update(f.breakpoints)
    return sorted(cuts)


def common_refinement(
    fs: Sequence[RadialStepFunction],
) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Shared breakpoint grid and per-function shell values on it."""
    if not fs:
        raise ValueError("need at least one function")
    dim = fs[0].dim
    if any(f.dim != dim for f in fs):
        raise ValueError("functions must live on the same R^N")
    cuts = _merge_breakpoints(fs)
    rows = []
    for f in fs:
        rows.append([f.value_at_radius(lo) for lo in cuts[:-1]])
    return cuts, rows


def pointwise_sum(fs: Sequence[RadialStepFunction]) -> RadialStepFunction:
    cuts, rows = common_refinement(fs)
    summed = [sum(col, Fraction(0)) for col in zip(*rows)]
    return RadialStepFunction(fs[0].dim, cuts, summed)


def scale(f: RadialStepFunction, alpha: Number) -> RadialStepFunction:
    a = _as_fraction(alpha)
    return RadialStepFunction(f.dim, f.breakpoints, [a * v for v in f.values])


def restrict_radii(
    f: RadialStepFunction, lo: Number, hi: Number
) -> RadialStepFunction:
    """Restriction of f to the shell {lo <= |x| < hi}."""
    lo_f, hi_f = _as_fraction(lo), _as_fraction(hi)
    if not 0 <= lo_f < hi_f:
        raise ValueError("need 0 <= lo < hi")
    bp, n = f.breakpoints, len(f.values)
    # shells i-1 .. j-1 meet [lo, hi): bp[i-1] <= lo < bp[i], bp[j-1] < hi <= bp[j]
    i = bisect_right(bp, lo_f)
    j = bisect_left(bp, hi_f, i)
    cuts = [lo_f, *bp[i:j]]
    vals = list(f.values[i - 1 : j])
    if j <= n:  # hi falls inside the support and closes the last shell
        cuts.append(hi_f)
    if lo_f > 0:
        cuts.insert(0, Fraction(0))
        vals.insert(0, Fraction(0))
    return RadialStepFunction(f.dim, cuts, vals)


def integrate_abs_product(f: RadialStepFunction, g: RadialStepFunction) -> Fraction:
    """Exact integral of |f g|: the `abs_integral` of the product of f and g
    on their common shell refinement."""
    cuts, (fv, gv) = common_refinement([f, g])
    return RadialStepFunction(f.dim, cuts, [x * y for x, y in zip(fv, gv)]).abs_integral()


@dataclass(frozen=True)
class SumBoundReport:
    lhs: Fraction
    rhs_thm: Fraction
    rhs_cor: Fraction
    passed: bool


def sum_bound_check(
    fs: Sequence[RadialStepFunction],
    t: Number,
    cs: Sequence[Number],
) -> SumBoundReport:
    """Rearrangement-of-sums bounds, checked exactly.

    With weights c_n > 0 summing to 1, verifies

        (sum f_n)*(3t) <= sum_n [ f_n**(t) + (1/t) int_{c_n t}^{t} f_n* ]

    and the weight-free consequence (sum f_n)*(3t) <= 2 sum_n f_n**(t).
    Both sides are rational, so `passed` reflects exact comparisons.
    """
    if not fs:
        raise ValueError("need at least one function")
    if any(any(v < 0 for v in f.values) for f in fs):
        raise ValueError("the bound applies to nonnegative functions only")
    if len(cs) != len(fs):
        raise ValueError("one weight per function required")
    weights = [_as_fraction(c) for c in cs]
    if any(c <= 0 for c in weights):
        raise ValueError("weights must be positive")
    if abs(float(sum(weights)) - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1")
    tt = _as_fraction(t)
    if tt <= 0:
        raise ValueError("t must be positive")

    total = pointwise_sum(fs)
    lhs = rearrangement(total).value_at(3 * tt)
    rhs_thm = Fraction(0)
    rhs_cor = Fraction(0)
    for f, c in zip(fs, weights):
        star = rearrangement(f)
        avg = average_rearrangement(star, tt)
        rhs_thm += avg + (star.integral_up_to(tt) - star.integral_up_to(c * tt)) / tt
        rhs_cor += 2 * avg
    return SumBoundReport(lhs, rhs_thm, rhs_cor, lhs <= rhs_thm and lhs <= rhs_cor)
