"""Radial step functions and their decreasing rearrangements.

Everything in this module is exact: radii, values and measures are rational,
so distribution functions, rearrangements and their integrals satisfy
equimeasurability and mass conservation as identities, not up to rounding.
Floats enter only when a caller converts a measure or level, or through
`rounded_rearrangement`, which rounds f* correctly from the lattice without
forming a `Fraction`; every float norm of a step function reads it, on the
whole function (`lorentz`) or on its annulus pieces (`herz`).
`rearrangement` is the exact f*, for the identities checked in rationals.

A radial step function on R^N is piecewise constant in |x| with finitely many
shells and bounded support.  `RadialStepFunction` is its one constructor: it
takes any ints, floats or Fractions, reads each as an integer pair, validates
once and stores the canonical shells, so equal functions compare and hash
equal however their shells were listed.  What it stores is one integer
lattice per function: its breakpoints as integer ticks over one denominator
and its values as integer numerators over another, each pair reduced by its
gcd, so that the measure of a shell, omega_N (b^N - a^N), is an integer
number of units times one scale per function.  The exact layer works on
these integers: the constructor validates and merges on them, restrictions,
sums, scalings and common refinements build their results on them, the
rearrangement sorts shells by |value| and accumulates units into a lattice of
its own, and the distribution table and integrals read them.  `Fraction`s are
formed from the integers only where a result is returned, and tuples of them
(`breakpoints`, `values`, `knots`, `levels`) only when read.  What depends on
the shells alone is built on first use and kept on the instance: those tuples,
the distribution table and the annulus profile (`RadialStepFunction.profile`,
built by `herz.annulus_profile`).  Reads that only the tests need, such as the
shell measures or the value at a radius, are test oracles written on the
`Fraction` tuples, not methods.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Sequence

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
    "rounded_rearrangement",
    "average_rearrangement",
    "sum_bound_check",
    "pointwise_sum",
    "scale",
    "restrict_radii",
    "integrate_abs_product",
]


def _ratio(x: Number) -> tuple[int, int]:
    """x as its integer pair (numerator, denominator > 0) in lowest terms."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, int):
        return x, 1
    if isinstance(x, float):
        try:
            return x.as_integer_ratio()
        except (OverflowError, ValueError) as exc:  # inf or nan, named by the message
            raise ValueError(str(exc)) from None
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _lattice(xs: Sequence[Number]) -> tuple[int, list[int]]:
    """xs as integer numerators over their least common denominator."""
    pairs = [_ratio(x) for x in xs]
    den = math.lcm(*(d for _, d in pairs))
    return den, [n * (den // d) for n, d in pairs]


def _as_fraction(x: Number) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(*_ratio(x))


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


@dataclass(frozen=True, init=False)
class RadialStepFunction:
    """Piecewise-constant-in-|x| function with finite support.

    ``breakpoints`` are strictly increasing radii starting at 0 (a missing
    leading 0 is supplied); ``values`` holds one (possibly signed) value per
    shell {rho_{i-1} <= |x| < rho_i}.  The function vanishes for
    |x| >= breakpoints[-1].  Any ints, floats or Fractions are taken as exact
    rationals, and the constructor stores the canonical form: adjacent equal
    values are merged and trailing zero shells are stripped, the zero
    function being ((0, 1), (0,)), so `==` and `hash` are semantic.

    The fields are the integer lattice that the exact layer works on:
    ``_ticks``, the breakpoints times ``_den``, and ``_nums``, the values
    times ``_vden``, each pair divided by its gcd, so equal functions have
    equal fields.  ``breakpoints`` and ``values`` are the `Fraction` tuples,
    formed from the lattice on first read.  Shell i has measure
    ``_units()[i]`` = tick_i^N - tick_{i-1}^N times one scale
    omega_N / den^N (``_scale()``), formed only when a measure is read, since
    omega_N overflows a float for large N.
    """

    dim: int
    _den: int
    _ticks: tuple[int, ...]
    _vden: int
    _nums: tuple[int, ...]

    def __init__(self, dim: int, breakpoints: Sequence[Number], values: Sequence[Number]) -> None:
        _check_dim(dim)
        (den, ticks), (vden, nums) = _lattice(breakpoints), _lattice(values)
        if not ticks:
            raise ValueError("breakpoints must start at 0")
        if ticks[0] != 0:
            if all(t > 0 for t in ticks) and len(nums) == len(ticks):
                ticks.insert(0, 0)
            else:
                raise ValueError("breakpoints must start at 0")
        if any(a >= b for a, b in zip(ticks, ticks[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(nums) != len(ticks) - 1:
            raise ValueError("need exactly one value per shell")
        self._store(dim, den, ticks, vden, nums)

    @classmethod
    def _from_lattice(cls, dim: int, den: int, ticks: Sequence[int], vden: int,
                      nums: Sequence[int]) -> RadialStepFunction:
        """The function with breakpoints ticks / den and values nums / vden:
        ticks start at 0 and increase strictly, one numerator per shell."""
        f = cls.__new__(cls)
        f._store(dim, den, ticks, vden, nums)
        return f

    def _store(self, dim: int, den: int, ticks: Sequence[int], vden: int,
               nums: Sequence[int]) -> None:
        """Keep the last shell of each run of equal values, except a run of
        zeros at the end, reduce both pairs by their gcd and store them."""
        ends = [i for i, v in enumerate(nums) if i + 1 == len(nums) or nums[i + 1] != v]
        if ends and nums[ends[-1]] == 0:
            ends.pop()
        if not ends:  # the zero function, ((0, 1), (0,))
            den, ticks, vden, nums = 1, (0, 1), 1, (0,)
        elif len(ends) < len(nums):  # shells were merged or stripped
            ticks = [0, *(ticks[i + 1] for i in ends)]
            nums = [nums[i] for i in ends]
        g, h = math.gcd(den, *ticks), math.gcd(vden, *nums)
        if g > 1:
            den, ticks = den // g, [t // g for t in ticks]
        if h > 1:
            vden, nums = vden // h, [v // h for v in nums]
        vars(self).update(dim=dim, _den=den, _ticks=tuple(ticks), _vden=vden, _nums=tuple(nums))

    @cached_property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(t, self._den) for t in self._ticks)

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self._vden) for v in self._nums)

    @property
    def support_radius(self) -> Fraction:
        return Fraction(self._ticks[-1], self._den)

    def _units(self) -> list[int]:
        """Shell measures in units of `_scale()`: tick_i^N - tick_{i-1}^N."""
        powers = [t**self.dim for t in self._ticks]
        return [b - a for a, b in zip(powers, powers[1:])]

    def _scale(self) -> tuple[int, int]:
        """Numerator and denominator of the measure of one unit, omega_N / den^N."""
        w = unit_ball_volume(self.dim)
        return w.numerator, w.denominator * self._den**self.dim

    @cached_property
    def profile(self) -> AnnulusProfile:
        """Annulus profile (see herz.annulus_profile), built on first use and kept."""
        from .herz import _step_profile  # herz imports this module

        return _step_profile(self)

    @cached_property
    def _distribution_table(self) -> tuple[list[int], list[Fraction]]:
        """The nonzero |value| numerators in ascending order, and at each index
        i the measure of the shells from i on (one more entry, 0, at the end).
        Sorted from the shells here, apart from the rearrangement's sort."""
        pieces = sorted((abs(v), u) for v, u in zip(self._nums, self._units()) if v)
        tails = [0]
        for _, u in reversed(pieces):
            tails.append(tails[-1] + u)
        num, den = self._scale()
        return [w for w, _ in pieces], [Fraction(t * num, den) for t in reversed(tails)]

    def abs_integral(self) -> Fraction:
        """Integral of |f| over R^N."""
        num, den = self._scale()
        total = sum(abs(v) * u for v, u in zip(self._nums, self._units()))
        return Fraction(total * num, self._vden * den)

    def is_zero(self) -> bool:
        return not any(self._nums)


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


@dataclass(frozen=True, init=False)
class StepRearrangement:
    """Nonincreasing step profile f* on [0, infinity).

    ``knots`` are the cumulative measures 0 < t_1 < ... < t_k and ``levels``
    the strictly decreasing positive values w_1 > ... > w_k taken on
    [t_{j-1}, t_j).  The profile is right-continuous and vanishes beyond t_k.
    It is stored as knots _knums / _kden and levels _lnums / _vden, each pair
    reduced by its gcd, so `==` and `hash` are semantic.
    """

    _kden: int
    _knums: tuple[int, ...]
    _vden: int
    _lnums: tuple[int, ...]

    def __init__(self, knots: Sequence[Number], levels: Sequence[Number]) -> None:
        if len(knots) != len(levels):
            raise ValueError("knots and levels must pair up")
        (kden, knums), (vden, lnums) = _lattice(knots), _lattice(levels)
        if any(t <= s for s, t in zip([0, *knums], knums)):
            raise ValueError("knots must be strictly increasing and positive")
        if any(w <= v for w, v in zip(lnums, lnums[1:])):
            raise ValueError("levels must be strictly decreasing")
        if lnums and lnums[-1] <= 0:
            raise ValueError("levels must be positive (zero tail is implicit)")
        self._store(kden, knums, vden, lnums)

    @classmethod
    def _from_lattice(cls, kden: int, knums: Sequence[int], vden: int,
                      lnums: Sequence[int]) -> StepRearrangement:
        """Knots knums / kden and levels lnums / vden, valid as given."""
        g = cls.__new__(cls)
        g._store(kden, knums, vden, lnums)
        return g

    def _store(self, kden: int, knums: Sequence[int], vden: int, lnums: Sequence[int]) -> None:
        """Reduce both pairs by their gcd and store them."""
        g, h = math.gcd(kden, *knums), math.gcd(vden, *lnums)
        vars(self).update(_kden=kden // g, _knums=tuple(t // g for t in knums),
                          _vden=vden // h, _lnums=tuple(w // h for w in lnums))

    @cached_property
    def knots(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(t, self._kden) for t in self._knums)

    @cached_property
    def levels(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(w, self._vden) for w in self._lnums)

    @property
    def support_bound(self) -> Fraction:
        return Fraction(self._knums[-1], self._kden) if self._knums else Fraction(0)

    @property
    def top_level(self) -> Fraction:
        """f*(0), the essential supremum."""
        return Fraction(self._lnums[0], self._vden) if self._lnums else Fraction(0)

    def value_at(self, t: Number) -> Fraction:
        """Right-continuous evaluation of f* at t >= 0."""
        n, d = _ratio(t)
        if n < 0:
            raise ValueError("argument must be nonnegative")
        # t < knot exactly when floor(t kden) < knot numerator
        j = bisect_right(self._knums, n * self._kden // d)
        return Fraction(self._lnums[j], self._vden) if j < len(self._lnums) else Fraction(0)

    def _integral(self, n: int, d: int) -> int:
        """The integral of f* over [0, n / d] times vden kden d."""
        knums, lnums = self._knums, self._lnums
        # t's segment ends at the first knot numerator >= ceil(t kden)
        j = bisect_left(knums, -(-n * self._kden // d))
        prev = (0, *knums)
        total = d * sum(w * (b - a) for w, a, b in zip(lnums[:j], prev, knums))
        if j < len(knums):
            total += lnums[j] * (n * self._kden - prev[j] * d)
        return total

    def integral_up_to(self, t: Number) -> Fraction:
        """Exact integral of f* over [0, t]."""
        n, d = _ratio(t)
        if n < 0:
            raise ValueError("argument must be nonnegative")
        return Fraction(self._integral(n, d), self._vden * self._kden * d)

    def total_mass(self) -> Fraction:
        total = sum(w * (b - a) for w, a, b in zip(self._lnums, (0, *self._knums), self._knums))
        return Fraction(total, self._vden * self._kden)

    def superlevel_measure(self, alpha: Number) -> Fraction:
        """Measure of {f* > alpha}; the distribution function of the profile."""
        n, d = _ratio(alpha)
        if n < 0:
            raise ValueError("level must be nonnegative")
        # the levels above alpha, those above floor(alpha vden), are a prefix
        k = bisect_left(self._lnums, -(n * self._vden // d), key=operator.neg)
        return self.knots[k - 1] if k else Fraction(0)


def distribution(f: RadialStepFunction, alpha: Number) -> Fraction:
    """Measure of the superlevel set {|f| > alpha}.

    Read off a table of f's own shells, built once per function: the sorted
    |values| and the measures of their tails, so each call is one bisection.
    """
    a = _as_fraction(alpha)
    if a.numerator < 0:
        raise ValueError("alpha must be nonnegative")
    levels, tails = f._distribution_table
    # a level w / vden is at most alpha exactly when w <= floor(alpha vden)
    return tails[bisect_right(levels, a.numerator * f._vden // a.denominator)]


def _integer_rearrangement(f: RadialStepFunction) -> tuple[list[int], list[int], int]:
    """f* on f's lattice: the strictly decreasing level numerators, the
    cumulative units at which each level ends, and the integral of |f| in
    numerator-unit products.

    One sort by |value|, descending, brings equal levels next to each other,
    and one pass merges them while it accumulates the knots.
    """
    pieces = sorted(((abs(v), u) for v, u in zip(f._nums, f._units()) if v), reverse=True)
    levels: list[int] = []
    knots: list[int] = []
    acc = total = 0
    for w, u in pieces:
        acc += u
        total += w * u
        if levels and levels[-1] == w:
            knots[-1] = acc
        else:
            levels.append(w)
            knots.append(acc)
    return levels, knots, total


def rearrangement(f: RadialStepFunction) -> StepRearrangement:
    """Decreasing rearrangement f* of a radial step function."""
    levels, knots, _ = _integer_rearrangement(f)
    num, den = f._scale()
    return StepRearrangement._from_lattice(den, [t * num for t in knots], f._vden, levels)


def rounded_rearrangement(f: RadialStepFunction) -> tuple[list[float], list[float], float]:
    """The levels and knots of f* and the integral of |f|, each the float()
    of the exact value: int true division is correctly rounded, so no
    `Fraction` is formed."""
    levels, knots, total = _integer_rearrangement(f)
    num, den = f._scale()
    vden = f._vden
    return [w / vden for w in levels], [t * num / den for t in knots], total * num / (vden * den)


def average_rearrangement(g: StepRearrangement, t: Number) -> Fraction:
    """f**(t) = (1/t) integral_0^t f*, evaluated exactly."""
    n, d = _ratio(t)
    if n <= 0:
        raise ValueError("t must be positive")
    return Fraction(g._integral(n, d), g._vden * g._kden * n)


def _common_refinement(fs: Sequence[RadialStepFunction]) -> tuple[int, list[int], list[list[int]]]:
    """Common tick denominator of fs, their merged breakpoints as ticks over
    it, and each function's value numerators on the cells between them."""
    if not fs:
        raise ValueError("need at least one function")
    dim = fs[0].dim
    if any(f.dim != dim for f in fs):
        raise ValueError("functions must live on the same R^N")
    den = math.lcm(*(f._den for f in fs))
    scaled = [[t * (den // f._den) for t in f._ticks] for f in fs]
    cuts = sorted(set().union(*scaled))
    rows = []
    for f, ticks in zip(fs, scaled):
        shells = (bisect_right(ticks, c) - 1 for c in cuts[:-1])
        rows.append([f._nums[i] if i < len(f._nums) else 0 for i in shells])
    return den, cuts, rows


def pointwise_sum(fs: Sequence[RadialStepFunction]) -> RadialStepFunction:
    den, cuts, rows = _common_refinement(fs)
    vden = math.lcm(*(f._vden for f in fs))
    scaled = [[v * (vden // f._vden) for v in row] for f, row in zip(fs, rows)]
    return RadialStepFunction._from_lattice(fs[0].dim, den, cuts, vden,
                                            [sum(col) for col in zip(*scaled)])


def scale(f: RadialStepFunction, alpha: Number) -> RadialStepFunction:
    num, den = _ratio(alpha)
    return RadialStepFunction._from_lattice(f.dim, f._den, f._ticks, f._vden * den,
                                            [num * v for v in f._nums])


def restrict_radii(
    f: RadialStepFunction, lo: Number, hi: Number
) -> RadialStepFunction:
    """Restriction of f to the shell {lo <= |x| < hi}."""
    (lo_n, lo_d), (hi_n, hi_d) = _ratio(lo), _ratio(hi)
    if not 0 <= lo_n * hi_d < hi_n * lo_d:
        raise ValueError("need 0 <= lo < hi")
    ticks, fden = f._ticks, f._den
    # shells i-1 .. j-1 meet [lo, hi): bp[i-1] <= lo < bp[i], bp[j-1] < hi <= bp[j];
    # a tick is at most lo fden exactly when it is at most floor(lo fden), and
    # below hi fden exactly when it is below ceil(hi fden)
    i = bisect_right(ticks, lo_n * fden // lo_d)
    j = bisect_left(ticks, -(-hi_n * fden // hi_d), i)
    den = math.lcm(fden, lo_d, hi_d)
    k = den // fden
    cuts = [lo_n * (den // lo_d), *(t * k for t in ticks[i:j])]
    nums = list(f._nums[i - 1 : j])
    if j < len(ticks):  # hi falls inside the support and closes the last shell
        cuts.append(hi_n * (den // hi_d))
    if lo_n > 0:
        cuts.insert(0, 0)
        nums.insert(0, 0)
    return RadialStepFunction._from_lattice(f.dim, den, cuts, f._vden, nums)


def integrate_abs_product(f: RadialStepFunction, g: RadialStepFunction) -> Fraction:
    """Exact integral of |f g|: the `abs_integral` of the product of f and g
    on their common shell refinement."""
    den, cuts, (fv, gv) = _common_refinement([f, g])
    product = [x * y for x, y in zip(fv, gv)]
    return RadialStepFunction._from_lattice(f.dim, den, cuts, f._vden * g._vden,
                                            product).abs_integral()


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
    if any(v < 0 for f in fs for v in f._nums):
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
