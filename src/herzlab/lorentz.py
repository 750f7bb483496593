"""Lorentz quasi-norms and average-rearrangement (starred) norms.

Each norm has one float core on step levels and knots, which functions and
annulus profiles alike reach: a function's steps are
`rearrange.rounded_rearrangement`, the correctly rounded f* that profiles
read, so no `Fraction` is formed on the way to a norm.  The quasi-norm has
a closed form.  The starred norm is the real-interpolation integral of
K(t) = t f**(t), which is linear between the knots of f*: quadrature.k_norm
brackets its chords and its two closed-form ends once, and the norm is the
midpoint of that bracket.
The sandwich and the pairing return a `reporting.Comparison`, and
`pairing_comparison` is the pass rule of both Hoelder pairings.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .quadrature import k_norm, power_sum_norm, root
from .rearrange import RadialStepFunction, integrate_abs_product, rounded_rearrangement
from .reporting import Comparison

INF = math.inf

__all__ = [
    "LorentzParams",
    "ChainReport",
    "conjugate_exponent",
    "char_norm_constant",
    "lorentz_norm_from_steps",
    "lorentz_quasi_norm",
    "lorentz_star_norm",
    "lorentz_star_norm_from_steps",
    "equivalence_check",
    "lorentz_holder_pairing",
    "pairing_comparison",
    "refinement_chain_check",
]


def conjugate_exponent(p: float) -> float:
    """Hoelder conjugate p' = p/(p-1), with 1 <-> infinity."""
    if p == 1:
        return INF
    if p == INF:
        return 1.0
    if p <= 1:
        raise ValueError("conjugate exponent needs p >= 1")
    return p / (p - 1.0)


@dataclass(frozen=True)
class LorentzParams:
    """Exponent pair (p, r) of a Lorentz space L^{p,r}, both in (0, inf]."""

    p: float
    r: float

    def __post_init__(self) -> None:
        if not (self.p > 0 and self.r > 0):
            raise ValueError("exponents must be positive")
        if self.p == INF and self.r != INF:
            # only a.e.-zero functions have finite norm there
            raise ValueError("p = inf with r < inf defines a trivial space")

    @property
    def allows_star_norm(self) -> bool:
        """Range in which the averaged-profile functional is a norm."""
        return (
            (1 < self.p < INF and self.r >= 1)
            or (self.p == 1 and self.r == 1)
            or (self.p == INF and self.r == INF)
        )

    @property
    def in_sandwich_range(self) -> bool:
        """Range of the quasi-norm vs norm equivalence with factor p/(p-1)."""
        return (1 < self.p < INF and self.r >= 1) or (self.p == INF and self.r == INF)

    def conjugate(self) -> "LorentzParams":
        return LorentzParams(conjugate_exponent(self.p), conjugate_exponent(self.r))

    def label(self) -> str:
        return f"L^({self.p},{self.r})"


def char_norm_constant(params: LorentzParams) -> float:
    """Quasi-norm of an indicator per unit measure^{1/p}: (p/r)^{1/r}."""
    if params.r == INF:
        return 1.0
    return (params.p / params.r) ** (1.0 / params.r)


def lorentz_norm_from_steps(
    levels: Sequence[float], knots: Sequence[float], p: float, r: float,
    starts: Sequence[int] | None = None,
) -> float | list[float]:
    """Closed-form Lorentz quasi-norm of a nonincreasing step profile.

    ``levels`` decrease and ``knots`` are the cumulative measures at which they
    end, as from `rounded_rearrangement`.  With ``starts``, nonempty segments (an
    annulus profile's annuli) lie end to end from those offsets, each with knots
    from its own origin, and their norms are returned.  For r < inf the integral
    of (t^{1/p} w)^r dt/t is a telescoping power sum, summed per segment on its
    slice with the bits of a one-segment sum; for r = inf the supremum is
    approached at the knots.  A segment whose sum, or a power of whose knots or
    levels, leaves the normal float range is redone by `_rescaled_norm`.
    """
    w, t = np.asarray(levels, dtype=float), np.asarray(knots, dtype=float)
    one = starts is None
    starts = [0] if one else list(starts)
    if w.size == 0:
        return 0.0 if one else []
    if p == INF and r != INF:
        raise ValueError("p = inf requires r = inf")
    # a power that overflows leaves the sum inf or nan; of those that can
    # underflow, a segment's least are its first knot's and its last level's
    ends, tiny = [*starts[1:], w.size], sys.float_info.min
    with np.errstate(over="ignore", invalid="ignore"):
        t_pow = t ** (1.0 / p if r == INF else r / p)
        if r == INF:
            w_pow, sums = w, np.maximum.reduceat(w * t_pow, starts).tolist()
        else:
            w_pow = w**r
            dt = t_pow.copy()
            dt[1:] -= t_pow[:-1]
            dt[starts] = t_pow[starts]  # each segment restarts at its own first knot
            terms = w_pow * dt
            sums = [(p / r) * float(np.add.reduce(terms[s:e])) for s, e in zip(starts, ends)]
        norms = [(x if r == INF else root(x, r))
                 if tiny <= x < INF and t_pow[s] >= tiny and w_pow[e - 1] >= tiny
                 else _rescaled_norm(w[s:e], t[s:e], p, r) for x, s, e in zip(sums, starts, ends)]
    return norms[0] if one else norms


def _rescaled_norm(w: np.ndarray, t: np.ndarray, p: float, r: float) -> float:
    """One segment's quasi-norm from the products x_i = w_i t_i^{1/p}, each formed
    from the binary mantissas and exponents of w_i and t_i, so no power of a
    level or a knot can leave the float range.  For r < inf power_sum_norm takes the
    sum by parts, sum_i x_i^r (1 - (w_{i+1}/w_i)^r) with w_{n+1} = 0."""
    w, t = w[w > 0], t[w > 0]  # zero levels, which can only trail, add nothing
    (m, a), (f, b) = np.frexp(w), np.frexp(t)
    e = b / p
    x = np.ldexp(m * f ** (1.0 / p) * 2.0 ** (e - np.floor(e)), a + np.floor(e).astype(int))
    if r == INF:
        return float(np.max(x, initial=0.0))
    return power_sum_norm(x, r, 1.0 - np.append(w[1:] / w[:-1], 0.0) ** r, p / r)


def lorentz_quasi_norm(f: RadialStepFunction, params: LorentzParams) -> float:
    """Lorentz quasi-norm of f, in closed form on its correctly rounded f*."""
    levels, knots, _ = rounded_rearrangement(f)
    return lorentz_norm_from_steps(levels, knots, params.p, params.r)


def lorentz_star_norm_from_steps(
    levels: Sequence[float], knots: Sequence[float], p: float, r: float
) -> float:
    """Averaged-profile Lorentz norm of a step profile, (p, r) in the star range.

    The integral of (t^{1/p} f**)^r dt/t is the (theta, r) integral of
    K(t) = t f**(t), theta = 1 - 1/p: K is the chord of the integral of f*
    between knots, t times the top level below the first knot and the total
    mass beyond the last, so quadrature.k_norm takes it with the knots as
    nodes and both corners on the ends.  The masses of the steps are the
    knot differences.  The value is the midpoint of its certified bracket,
    and for r = inf the largest t^{1/p} f**(t) at the knots.  Returns +inf
    when the tail diverges (p <= 1 with nonzero mass, r < inf).  Exponents
    outside the star range raise ValueError.
    """
    if not LorentzParams(p, r).allows_star_norm:
        raise ValueError(f"averaged-profile norm not defined for (p, r) = ({p}, {r})")
    if len(levels) == 0:
        return 0.0
    top = float(levels[0])
    if p == INF:  # p = r = inf: sup f** = f**(0+) = top level
        return top
    if p <= 1.0:  # here p = r = 1, and the tail mass/t has a log divergence
        return INF
    ws, ts = (np.asarray(x, dtype=float).tolist() for x in (levels, knots))
    mass = [w * (t - s) for w, t, s in zip(ws, ts, [0.0, *ts])]
    k = dict(zip(ts, itertools.accumulate(mass))).__getitem__
    return k_norm(k, ts, (ts[0], ts[-1]), (math.fsum(mass), top), 1.0 - 1.0 / p, r)[0]


def lorentz_star_norm(f: RadialStepFunction, params: LorentzParams) -> float:
    """Lorentz functional with the averaged profile f** in place of f*."""
    levels, knots, _ = rounded_rearrangement(f)
    return lorentz_star_norm_from_steps(levels, knots, params.p, params.r)


def equivalence_check(f: RadialStepFunction, params: LorentzParams) -> Comparison:
    """Sandwich quasi (lhs) <= star (rhs) <= p' quasi within relative slack 1e-9;
    the ratio is star/quasi (1 for a zero function), the constant p' = p/(p-1)."""
    if not params.in_sandwich_range:
        raise ValueError("equivalence holds for 1 < p < inf, 1 <= r <= inf, or p = r = inf")
    levels, knots, _ = rounded_rearrangement(f)
    q_norm = lorentz_norm_from_steps(levels, knots, params.p, params.r)
    s_norm = lorentz_star_norm_from_steps(levels, knots, params.p, params.r)
    constant = conjugate_exponent(params.p)
    if q_norm == 0.0:
        return Comparison(q_norm, s_norm, 1.0, s_norm == 0.0, constant)
    ok = q_norm <= s_norm * (1.0 + 1e-9) and s_norm <= constant * q_norm * (1.0 + 1e-9)
    return Comparison(q_norm, s_norm, s_norm / q_norm, ok, constant)


def pairing_comparison(integral: float, bound: float) -> Comparison:
    """int |fg| against a constant-free Hoelder bound: ratio 0 at 0/0, inf over 0."""
    ratio = integral / bound if bound > 0 else (0.0 if integral == 0.0 else INF)
    return Comparison(integral, bound, ratio, integral <= bound * (1.0 + 1e-12) + 1e-12)


def lorentz_holder_pairing(
    f: RadialStepFunction,
    g: RadialStepFunction,
    params: LorentzParams,
) -> Comparison:
    """Pairing bound int |fg| <= ||f||_{p,r} ||g||_{p',r'}, constant-free.

    The pairing integral is exact shell arithmetic; the declared constant is
    1 (conjugate-exponent pairing of the rearranged profiles).
    """
    if not (1 < params.p < INF and params.r >= 1):
        raise ValueError("pairing needs 1 < p < inf and 1 <= r <= inf")
    bound = lorentz_quasi_norm(f, params) * lorentz_quasi_norm(g, params.conjugate())
    return pairing_comparison(float(integrate_abs_product(f, g)), bound)


@dataclass(frozen=True)
class ChainReport:
    exponents: tuple[float, float, float, float]
    norms: tuple[float, float, float, float]
    normalized: tuple[float, float, float, float]
    ratios: tuple[float, float, float]
    passed: bool


def refinement_chain_check(
    f: RadialStepFunction,
    p: float,
    q_exp: float,
    r_exp: float,
) -> ChainReport:
    """Finiteness chain L^{p,q} -> L^p -> L^{p,r} -> L^{p,inf} for q <= p <= r.

    Passing means finiteness propagates left to right.  The reported ratios
    are the successive quotients of the norms after dividing out each space's
    indicator constant (p/r)^{1/r}, which makes the chain comparable.  The
    four norms read one rounding of f*.
    """
    if not (0 < q_exp <= p <= r_exp):
        raise ValueError("need 0 < q <= p <= r")
    seq = (q_exp, p, r_exp, INF)
    spaces = [LorentzParams(p, s) for s in seq]
    levels, knots, _ = rounded_rearrangement(f)
    norms = tuple(lorentz_norm_from_steps(levels, knots, p, s) for s in seq)
    normalized = tuple(n / char_norm_constant(x) for n, x in zip(norms, spaces))
    ratios = tuple(
        (a / b if b > 0 else INF if a > 0 else 1.0)
        for a, b in zip(normalized, normalized[1:])
    )
    passed = all(
        math.isfinite(b) or not math.isfinite(a) for a, b in zip(norms, norms[1:])
    )
    return ChainReport(seq, norms, normalized, ratios, passed)
