"""Dyadic annulus decomposition and the Lorentz-refined Herz norms.

The annuli are A_u = {2^{u-1} <= |x| < 2^u} for u >= 0 together with the
central ball A_{-1} = {|x| < 1/2}.  The HL norm aggregates per-annulus
Lorentz norms in a weighted l^q with weights 2^{ua}; r = p recovers the
classical Herz norm and r = inf its weak variant.

The annulus-profile layer is the one path from a function to those numbers:
an `AnnulusProfile` holds, as float data for both function kinds, the steps
of the decreasing rearrangement of f on each occupied annulus and the
integral of |f| there; exact arithmetic ends in its builder.  Each function
builds its own on first use and keeps it (`RadialStepFunction.profile`,
`GridFunction1D.profile`, the latter through `operators.grid_annulus_profiles`),
and `annulus_profile` returns it, so a function used many times is decomposed
once.  A profile caches per-annulus Lorentz scores per (p, r, starred) from
the float cores of `lorentz` and aggregates them with `weighted_lq`'s floats;
HL norms, the embeddings, the annulus retract, the endpoint K-functional and
the operator sweeps all read it.  The HL pairing and the embeddings return a
`reporting.Comparison`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

from . import lorentz
from .lorentz import (
    INF,
    LorentzParams,
    conjugate_exponent,
    lorentz_star_norm_from_steps,
    pairing_comparison,
)
from .quadrature import root
from .rearrange import (
    RadialStepFunction,
    _check_dim,
    integrate_abs_product,
    pointwise_sum,
    restrict_radii,
    rounded_rearrangement,
    unit_ball_volume,
)
from .reporting import Comparison

__all__ = [
    "HerzParams",
    "AnnulusMeasureSequence",
    "annulus_bounds",
    "annulus_measure",
    "annulus_indicator",
    "annulus_window",
    "annuli_decompose",
    "AnnulusProfile",
    "annulus_profile",
    "lq_norm",
    "weighted_lq",
    "hl_norm",
    "quasi_constant_probe",
    "bfs_condition_check",
    "hl_holder_check",
    "embedding_check",
    "BfsReport",
]


@dataclass(frozen=True)
class HerzParams:
    """Quadruple (a, p, q, r): weight exponent, inner Lorentz pair, outer q."""

    a: float
    p: float
    q: float
    r: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.a):
            raise ValueError(f"weight exponent a must be finite, got {self.a}")
        if not self.q > 0:
            raise ValueError("outer exponent q must be positive")
        LorentzParams(self.p, self.r)  # validates p, r and rejects (inf, r<inf)

    @property
    def lorentz(self) -> LorentzParams:
        return LorentzParams(self.p, self.r)

    def conjugate(self) -> "HerzParams":
        return HerzParams(
            -self.a,
            conjugate_exponent(self.p),
            conjugate_exponent(self.q),
            conjugate_exponent(self.r),
        )

    def label(self) -> str:
        return f"HL^(a={self.a},r={self.r})_(p={self.p},q={self.q})"


@lru_cache(maxsize=None)
def annulus_bounds(u: int) -> tuple[Fraction, Fraction]:
    """Radius interval [lo, hi) of annulus u (u = -1 is the central ball)."""
    if u < -1:
        raise ValueError("annulus index starts at -1")
    if u == -1:
        return Fraction(0), Fraction(1, 2)
    return Fraction(2) ** (u - 1), Fraction(2) ** u


@lru_cache(maxsize=None)
def annulus_measure(u: int, dim: int) -> Fraction:
    lo, hi = annulus_bounds(u)
    return unit_ball_volume(dim) * (hi**dim - lo**dim)


def annulus_indicator(u: int, dim: int = 1, value: float | Fraction = 1) -> RadialStepFunction:
    lo, hi = annulus_bounds(u)
    if u == -1:
        return RadialStepFunction(dim, (Fraction(0), hi), (Fraction(value),))
    return RadialStepFunction(
        dim, (Fraction(0), lo, hi), (Fraction(0), Fraction(value))
    )


def annulus_window(f: RadialStepFunction) -> range:
    """Indices u whose annulus meets the support of f."""
    # the last is the least u >= -1 with 2^u >= top; for u >= 0 that is the
    # least with 2^u >= ceil(top), the bit length of ceil(top) - 1
    top = f.support_radius
    num, den = top.numerator, top.denominator
    if 2 * num <= den:
        return range(-1, 0)
    return range(-1, (-(-num // den) - 1).bit_length() + 1)


def annuli_decompose(f: RadialStepFunction) -> list[tuple[int, RadialStepFunction]]:
    """Nonzero restrictions f X_{A_u}; the pieces sum back to f exactly."""
    pieces = []
    for u in annulus_window(f):
        lo, hi = annulus_bounds(u)
        piece = restrict_radii(f, lo, hi)
        if not piece.is_zero():
            pieces.append((u, piece))
    return pieces


def lq_norm(vals: Sequence[float], q: float) -> float:
    """(sum_i v_i^q)^{1/q} of nonnegative values, max at q = inf; zeros are skipped.

    Where the sum lies outside [2^-64, 2^64] (a power or the sum may have
    overflowed or underflowed, and the error of the 1/q-th power grows with
    |log sum| since 1/q is inexact), the sum is redone with the values
    scaled by the largest, so a norm that a float holds is still returned
    to within rounding; an infinite value gives inf.
    """
    if not vals:
        return 0.0
    top = max(vals)
    if q == INF or top == INF:
        return top
    try:
        total = math.fsum(math.pow(v, q) for v in vals if v != 0.0)
    except OverflowError:
        total = INF
    if 2.0**-64 <= total <= 2.0**64:
        return root(total, q)
    return top * root(math.fsum(math.pow(v / top, q) for v in vals if v != 0.0), q)


def weighted_lq(scores: Mapping[int, float], a: float, q: float) -> float:
    """Weighted aggregation (sum_u 2^{uaq} s_u^q)^{1/q}, sup form at q = inf."""
    return lq_norm([2.0 ** (u * a) * s for u, s in scores.items()], q)


@dataclass(eq=False)
class AnnulusProfile:
    """Decreasing rearrangement of a function on each occupied dyadic annulus,
    as float data.

    ``us`` lists the occupied annuli in increasing order; the steps of annulus
    ``us[i]`` start at offset ``starts[i]`` of the flat arrays, and their views
    ``levels[i]`` (decreasing) and ``knots[i]`` (cumulative measures) and
    ``integrals[i]`` (of |f|) describe f there.  Both function kinds fill the
    same fields, so every profile answers every query.
    """

    dim: int
    us: Sequence[int]
    flat_levels: np.ndarray
    flat_knots: np.ndarray
    starts: list[int]
    integrals: Sequence[float]
    # keyed by (p, r, starred)
    _scores: dict[tuple[float, float, bool], dict[int, float]] = field(
        default_factory=dict, init=False, repr=False
    )

    @classmethod
    def from_segments(cls, dim: int, us: Sequence[int], levels: Sequence[Sequence[float]],
                      knots: Sequence[Sequence[float]], integrals: Sequence[float]
                      ) -> AnnulusProfile:
        starts = list(accumulate(map(len, levels), initial=0))[:-1]
        return cls(dim, us, np.concatenate(([], *levels)), np.concatenate(([], *knots)), starts,
                   integrals)

    def _split(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[s:e] for s, e in zip(self.starts, [*self.starts[1:], flat.size])]

    @property
    def levels(self) -> list[np.ndarray]:
        return self._split(self.flat_levels)

    @property
    def knots(self) -> list[np.ndarray]:
        return self._split(self.flat_knots)

    def _cached(self, params: LorentzParams, starred: bool) -> dict[int, float]:
        key = (params.p, params.r, starred)
        if key not in self._scores:
            if starred:
                norms = [lorentz_star_norm_from_steps(w, t, params.p, params.r)
                         for w, t in zip(self.levels, self.knots)]
            else:  # one kernel call for all annuli
                norms = lorentz.lorentz_norm_from_steps(self.flat_levels, self.flat_knots,
                                                        params.p, params.r, self.starts)
            self._scores[key] = dict(zip(self.us, norms))
        return self._scores[key]

    def scores(self, params: LorentzParams) -> dict[int, float]:
        """u -> Lorentz (p, r) quasi-norm of f on A_u (cached: do not mutate)."""
        return self._cached(params, False)

    def star_scores(self, params: LorentzParams) -> dict[int, float]:
        """u -> averaged-profile Lorentz (p, r) norm of f on A_u (cached)."""
        return self._cached(params, True)

    @cached_property
    def tops(self) -> list[float]:
        """Sup level of f on each annulus: the bounded-base scores."""
        return self.flat_levels[self.starts].tolist()


def annulus_profile(f: RadialStepFunction | AnnulusProfile) -> AnnulusProfile:
    """The annulus profile kept on a function (built on first use); a profile
    passes through."""
    return f if isinstance(f, AnnulusProfile) else f.profile


def _step_profile(f: RadialStepFunction) -> AnnulusProfile:
    """Build the profile of a radial step function from the rearrangements of
    its annulus pieces, sorted on the pieces' integer lattices and rounded
    correctly from there."""
    pieces = annuli_decompose(f)
    steps = [rounded_rearrangement(piece) for _, piece in pieces]
    return AnnulusProfile.from_segments(f.dim, [u for u, _ in pieces], [w for w, _, _ in steps],
                                        [t for _, t, _ in steps], [m for _, _, m in steps])


def hl_norm(
    f: RadialStepFunction | AnnulusProfile,
    params: HerzParams,
    starred: bool = False,
) -> float:
    """Non-homogeneous Lorentz-Herz norm of a radial step function or profile.

    Finite for every finitely supported step function; the annulus window is
    finite, so no truncation is involved.
    """
    inner = params.lorentz
    if starred and not inner.allows_star_norm:
        raise ValueError("starred inner norm not available for these exponents")
    prof = annulus_profile(f)
    scores = prof.star_scores(inner) if starred else prof.scores(inner)
    return weighted_lq(scores, params.a, params.q)


@dataclass(frozen=True)
class ProbeReport:
    max_ratio: float
    argmax: tuple[int, int]
    count: int


def quasi_constant_probe(
    corpus: Sequence[RadialStepFunction],
    params: HerzParams,
    starred: bool = False,
) -> ProbeReport:
    """Largest ||f+g|| / (||f|| + ||g||) over all corpus pairs."""
    if not corpus:
        raise ValueError("corpus must be nonempty")
    norms = [hl_norm(f, params, starred) for f in corpus]
    best, arg = 0.0, (0, 0)
    n = len(corpus)
    for i in range(n):
        for j in range(i, n):
            denom = norms[i] + norms[j]
            if denom == 0.0:
                continue
            ratio = hl_norm(pointwise_sum([corpus[i], corpus[j]]), params, starred) / denom
            if ratio > best:
                best, arg = ratio, (i, j)
    return ProbeReport(best, arg, n * (n + 1) // 2)


@dataclass(frozen=True)
class AnnulusMeasureSequence:
    """Per-annulus trace measures m_u = mu(A_u and E), u >= -1.

    ``entries`` lists explicit values; an optional ``tail`` descriptor
    ("power", c, s) extends them by m_u = c / u^s for u beyond the explicit
    part.  Each m_u must respect the annulus capacity mu(A_u).
    """

    dim: int = 1
    entries: tuple[tuple[int, Fraction], ...] = field(default_factory=tuple)
    tail: tuple[str, Fraction, int] | None = None

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        seen = set()
        for u, m in self.entries:
            if u < -1:
                raise ValueError("annulus index starts at -1")
            if u in seen:
                raise ValueError("duplicate annulus index")
            seen.add(u)
            if m < 0 or m > annulus_measure(u, self.dim):
                raise ValueError(f"m_{u} violates the annulus capacity")
        if self.tail is not None:
            kind, c, s = self.tail
            if kind != "power" or c <= 0:
                raise ValueError("tail descriptor must be ('power', c>0, s)")

    @classmethod
    def from_dict(
        cls,
        entries: Mapping[int, float | Fraction],
        dim: int = 1,
        tail: tuple[str, float | Fraction, int] | None = None,
    ) -> "AnnulusMeasureSequence":
        items = tuple(sorted((int(u), Fraction(m)) for u, m in entries.items()))
        t = None if tail is None else (tail[0], Fraction(tail[1]), int(tail[2]))
        return cls(dim, items, t)

    @property
    def explicit_max(self) -> int:
        return max((u for u, _ in self.entries), default=-1)

    def measure(self, u: int) -> Fraction:
        for v, m in self.entries:
            if v == u:
                return m
        if self.tail is not None and u > self.explicit_max and u >= 1:
            _, c, s = self.tail
            m = c / Fraction(u) ** s
            return min(m, annulus_measure(u, self.dim))
        return Fraction(0)

    def finitely_supported(self) -> bool:
        return self.tail is None

    def total_measure(self, cutoff: int) -> Fraction:
        return sum((self.measure(u) for u in range(-1, cutoff + 1)), Fraction(0))


def _power_with_conventions(base: float, e: float) -> float:
    # base^0 is read as the indicator of {base > 0}: exponents q'/p' collapse
    # to 0 when p' = inf, where only positivity of the trace matters
    if e == 0.0:
        return 1.0 if base > 0 else 0.0
    if base == 0.0:
        return 0.0
    return base**e


@dataclass(frozen=True)
class BfsReport:
    partial_a: tuple[float, ...]
    partial_b: tuple[float, ...]
    terms_a: tuple[float, ...]
    terms_b: tuple[float, ...]
    verdict: str
    finite_measure: float


def bfs_condition_check(
    m: AnnulusMeasureSequence,
    params: HerzParams,
    cutoff: int,
) -> BfsReport:
    """Partial sums of both lattice-compatibility conditions up to `cutoff`.

    Condition (a) sums 2^{uaq} m_u^{q/p}, condition (b) sums the conjugate
    2^{-uaq'} m_u^{q'/p'}; at q = inf (resp. q' = inf) the running supremum
    replaces the partial sum.  The verdict is ``finite`` for finitely
    supported traces, ``growing`` when the last block of condition-(a) terms
    increases strictly, and ``inconclusive`` otherwise; no divergence proof
    is claimed for closed-form tails.

    The lattice characterization itself needs 1 < p < inf; p = 1 is
    admitted here as well so the quadratic-shell divergence diagnostics can
    run at their natural exponents.
    """
    p, q, a = params.p, params.q, params.a
    if not (1 <= p < INF and q >= 1):
        raise ValueError("conditions are formulated for 1 <= p < inf, 1 <= q <= inf")
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    p_c, q_c = conjugate_exponent(p), conjugate_exponent(q)

    us = range(-1, cutoff + 1)
    measures = [float(m.measure(u)) for u in us]

    def condition(
        weight: float, p_: float, q_: float
    ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        # terms 2^{u weight q_} m_u^{q_/p_} and their partial sums; at q_ = inf
        # the terms drop q_ and the running supremum replaces the sum
        e = 1.0 if q_ == INF else q_
        terms = tuple(
            2.0 ** (u * (weight * e)) * _power_with_conventions(mu, e / p_)
            for u, mu in zip(us, measures)
        )
        return terms, tuple(accumulate(terms, max) if q_ == INF else accumulate(terms))

    terms_a, partial_a = condition(a, p, q)
    terms_b, partial_b = condition(-a, p_c, q_c)

    if m.finitely_supported():
        verdict = "finite"
    else:
        block = max(2, (cutoff + 2) // 4)
        tail_terms = [t for t in terms_a if t > 0][-block - 1 :]
        growing = len(tail_terms) >= 2 and all(
            s < t for s, t in zip(tail_terms, tail_terms[1:])
        )
        verdict = "growing" if growing else "inconclusive"
    return BfsReport(
        partial_a,
        partial_b,
        terms_a,
        terms_b,
        verdict,
        float(m.total_measure(cutoff)),
    )


def hl_holder_check(
    f: RadialStepFunction,
    g: RadialStepFunction,
    params: HerzParams,
) -> Comparison:
    """int |fg| <= ||f||_{HL(a,p,q,r)} ||g||_{HL(-a,p',q',r')}, constant-free."""
    if not (1 < params.p < INF and params.q >= 1 and params.r >= 1):
        raise ValueError("pairing needs 1 < p < inf and 1 <= q, r <= inf")
    integral = float(integrate_abs_product(f, g))
    return pairing_comparison(integral, hl_norm(f, params) * hl_norm(g, params.conjugate()))


def _occupied_weight_constant(us: Sequence[int], a1: float, a2: float) -> float:
    """Embedding constant for lowering the weight exponent from a1 to a2.

    The weight ratio 2^{u(a2-a1)} stays at most 1 on the annuli u >= 0, so
    the constant is 1 whenever f avoids the central ball; a charged central
    ball contributes the ratio 2^{a1-a2} > 1 instead.
    """
    if not us:
        return 1.0
    return max(1.0, max(2.0 ** (u * (a2 - a1)) for u in us))


def embedding_check(
    variant: str,
    f: RadialStepFunction | AnnulusProfile,
    source: HerzParams,
    target: HerzParams,
) -> Comparison:
    """One of the four embedding directions between HL spaces: lhs is the
    target norm, rhs the source norm (for C, the weak-type bound below), and
    the check passes when lhs <= constant * rhs within relative slack 1e-9
    (for C the constant is the per-annulus factor inside rhs, and the bound 1).

    (A) r1 <= r2 at fixed (a, p, q): the sharp constant (r1/p)^{1/r1-1/r2}
        of L^{p,r1} in L^{p,r2} (Grafakos, Classical Fourier Analysis,
        Prop. 1.4.10), 1 at r1 = r2, holds on every annulus and so for the
        weighted l^q; an indicator reaches it at r2 = inf.
    (B) a2 <= a1: exact constant max_u 2^{u(a2-a1)} over occupied annuli
        (equals 1 off the central ball, 2^{a1-a2} when A_{-1} is charged).
    (C) p1 < p2: per-annulus factor mu(A_u)^{1/p1-1/p2} / (r1/p1-r1/p2)^{1/r1}
        applied inside the outer sum, target reached through L^{p2,inf}; the
        factor is in rhs, so the bound is 1.
    (D) q2 <= q1 at fixed (a, p, r): constant 1.
    """
    f = annulus_profile(f)
    v = variant.upper()
    s, t = source, target
    hypotheses = {
        "A": ((s.a, s.p, s.q) == (t.a, t.p, t.q) and s.r <= t.r, "(a,p,q) and r1 <= r2"),
        "B": ((s.p, s.q, s.r) == (t.p, t.q, t.r) and t.a <= s.a, "(p,q,r) and a2 <= a1"),
        "C": ((s.a, s.q) == (t.a, t.q) and 0 < t.p < s.p < INF, "(a,q) and p1 < p2"),
        "D": ((s.a, s.p, s.r) == (t.a, t.p, t.r) and s.q <= t.q, "(a,p,r) and q2 <= q1"),
    }
    if v not in hypotheses:
        raise ValueError(f"unknown embedding variant {variant!r}")
    holds, needs = hypotheses[v]
    if not holds:
        raise ValueError(f"variant {v} needs identical {needs}")
    rhs = None
    if v == "A":
        r1, r2 = source.r, target.r
        constant = 1.0 if r1 == r2 else (r1 / source.p) ** (1.0 / r1 - 1.0 / r2)
    elif v == "B":
        constant = _occupied_weight_constant(f.us, source.a, target.a)
    elif v == "C":
        p1, r1, p2 = target.p, target.r, source.p
        constant = (r1 / p1 - r1 / p2) ** (-1.0 / r1) if r1 != INF else 1.0
        scores = {
            u: constant * float(annulus_measure(u, f.dim)) ** (1.0 / p1 - 1.0 / p2) * weak
            for u, weak in f.scores(LorentzParams(p2, INF)).items()
        }
        rhs = weighted_lq(scores, target.a, target.q)
    else:
        constant = 1.0
    lhs = hl_norm(f, target)
    if rhs is None:
        rhs = hl_norm(f, source)
    bound = 1.0 if v == "C" else constant
    ratio = lhs / rhs if rhs > 0 else (1.0 if v == "A" else 0.0)
    return Comparison(lhs, rhs, ratio, lhs <= bound * rhs * (1 + 1e-9), constant)
