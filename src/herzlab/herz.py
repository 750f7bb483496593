"""Dyadic annulus decomposition and the Lorentz-refined Herz norms.

The annuli are A_u = {2^{u-1} <= |x| < 2^u} for u >= 0 together with the
central ball A_{-1} = {|x| < 1/2}.  The HL norm aggregates per-annulus
Lorentz norms in a weighted l^q with weights 2^{ua}; r = p recovers the
classical Herz norm and r = inf its weak variant.

The annulus-profile layer is the one path from a function to those numbers:
an `AnnulusProfile` holds the decreasing rearrangement of f on each occupied
annulus, built once per function (`annulus_profile` for radial step
functions, `operators.grid_annulus_profiles` for grid functions).  It caches
per-annulus Lorentz scores per (p, r, starred) and aggregates them only with
`weighted_lq`; HL norms, the annulus retract, the endpoint K-functional and
the operator sweeps all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

from .lorentz import (
    INF,
    HolderReport,
    LorentzParams,
    conjugate_exponent,
    lorentz_norm_from_steps,
    lorentz_star_norm,
)
from .rearrange import (
    RadialStepFunction,
    StepRearrangement,
    integrate_abs_product,
    pointwise_sum,
    rearrangement,
    rearrangement_from_pairs,
    restrict_radii,
    unit_ball_volume,
)

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
    "EmbeddingReport",
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
    top = f.support_radius
    u_max = -1
    while annulus_bounds(u_max)[1] < top:
        u_max += 1
    return range(-1, u_max + 1)


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
    """(sum_i v_i^q)^{1/q} of nonnegative values, max at q = inf; zeros are skipped."""
    if not vals:
        return 0.0
    if q == INF:
        return max(vals)
    return math.fsum(v**q for v in vals if v != 0.0) ** (1.0 / q)


def weighted_lq(scores: Mapping[int, float], a: float, q: float) -> float:
    """Weighted aggregation (sum_u 2^{uaq} s_u^q)^{1/q}, sup form at q = inf."""
    return lq_norm([2.0 ** (u * a) * s for u, s in scores.items()], q)


@dataclass(eq=False)
class AnnulusProfile:
    """Decreasing rearrangement of a function on each occupied dyadic annulus.

    ``us`` lists the occupied annuli in increasing order; ``levels[i]`` and
    ``knots[i]`` are the float steps of the profile on annulus ``us[i]``
    (levels decreasing, knots cumulative measures).  ``exact`` holds the
    exact rearrangements when the profile comes from a radial step function
    and is None for sampled data; averaged-profile scores and the endpoint
    (integrable, bounded) data need it.
    """

    dim: int
    us: Sequence[int]
    levels: Sequence[Sequence[float]]
    knots: Sequence[Sequence[float]]
    exact: Sequence[StepRearrangement] | None
    # keyed by (p, r, starred)
    _scores: dict[tuple[float, float, bool], dict[int, float]] = field(
        default_factory=dict, init=False, repr=False
    )

    def _exact(self) -> Sequence[StepRearrangement]:
        if self.exact is None:
            raise ValueError("this quantity needs the exact annulus rearrangements")
        return self.exact

    def scores(self, params: LorentzParams) -> dict[int, float]:
        """u -> Lorentz (p, r) quasi-norm of f on A_u (cached: do not mutate)."""
        key = (params.p, params.r, False)
        if key not in self._scores:
            self._scores[key] = {
                u: lorentz_norm_from_steps(w, t, params.p, params.r)
                for u, w, t in zip(self.us, self.levels, self.knots)
            }
        return self._scores[key]

    def star_scores(self, params: LorentzParams) -> dict[int, float]:
        """u -> averaged-profile Lorentz (p, r) norm of f on A_u."""
        key = (params.p, params.r, True)
        if key not in self._scores:
            self._scores[key] = {
                u: lorentz_star_norm(g, params)
                for u, g in zip(self.us, self._exact())
            }
        return self._scores[key]

    @cached_property
    def tops(self) -> list[float]:
        """Sup level of f on each annulus: the bounded-base scores."""
        return [w[0] for w in self.levels]

    @cached_property
    def integrals(self) -> list[float]:
        """Integral of |f| over each annulus: the integrable-base scores."""
        return [float(g.total_mass()) for g in self._exact()]

    @cached_property
    def masses(self) -> list[list[float]]:
        """Measure of each level set of f* on each annulus."""
        return [[float(m) for m in g.segment_masses()] for g in self._exact()]

    def truncation_cost(self, i: int, c: float) -> float:
        """Integral of (f* - c)_+ on annulus us[i]; piecewise linear in c."""
        total = 0.0
        for w, m in zip(self.levels[i], self.masses[i]):
            if w <= c:
                break
            total += (w - c) * m
        return total

    def merged_rearrangement(self) -> StepRearrangement:
        """f* of the whole function, merged exactly from the annulus pieces."""
        return rearrangement_from_pairs(
            (m, w) for g in self._exact() for m, w in zip(g.segment_masses(), g.levels)
        )


def annulus_profile(f: RadialStepFunction | AnnulusProfile) -> AnnulusProfile:
    """The annulus profile of a radial step function; a profile passes through."""
    if isinstance(f, AnnulusProfile):
        return f
    us, exact = [], []
    for u, piece in annuli_decompose(f):
        us.append(u)
        exact.append(rearrangement(piece))
    steps = [g.float_steps() for g in exact]
    return AnnulusProfile(f.dim, us, [w for w, _ in steps], [t for _, t in steps], exact)


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

    def term(u: int, mu: float, weight_exp: float, meas_exp: float) -> float:
        return 2.0 ** (u * weight_exp) * _power_with_conventions(mu, meas_exp)

    if q != INF:
        terms_a = tuple(term(u, mu, a * q, q / p) for u, mu in zip(us, measures))
        partial_a = tuple(_running_sums(terms_a))
    else:
        terms_a = tuple(term(u, mu, a, 1.0 / p) for u, mu in zip(us, measures))
        partial_a = tuple(_running_max(terms_a))
    if q_c != INF:
        terms_b = tuple(
            term(u, mu, -a * q_c, q_c / p_c if p_c != INF else 0.0)
            for u, mu in zip(us, measures)
        )
        partial_b = tuple(_running_sums(terms_b))
    else:
        terms_b = tuple(
            term(u, mu, -a, 1.0 / p_c if p_c != INF else 0.0)
            for u, mu in zip(us, measures)
        )
        partial_b = tuple(_running_max(terms_b))

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


def _running_sums(xs: Sequence[float]) -> list[float]:
    out, acc = [], 0.0
    for x in xs:
        acc += x
        out.append(acc)
    return out


def _running_max(xs: Sequence[float]) -> list[float]:
    out, acc = [], 0.0
    for x in xs:
        acc = max(acc, x)
        out.append(acc)
    return out


def hl_holder_check(
    f: RadialStepFunction,
    g: RadialStepFunction,
    params: HerzParams,
    slack: float = 1e-12,
) -> HolderReport:
    """int |fg| <= ||f||_{HL(a,p,q,r)} ||g||_{HL(-a,p',q',r')}, constant-free."""
    if not (1 < params.p < INF and params.q >= 1 and params.r >= 1):
        raise ValueError("pairing needs 1 < p < inf and 1 <= q, r <= inf")
    integral = float(integrate_abs_product(f, g))
    bound = hl_norm(f, params) * hl_norm(g, params.conjugate())
    ratio = integral / bound if bound > 0 else (0.0 if integral == 0.0 else INF)
    return HolderReport(integral, bound, ratio, integral <= bound * (1.0 + slack) + slack)


@dataclass(frozen=True)
class EmbeddingReport:
    variant: str
    lhs: float
    rhs: float
    constant: float
    ratio: float
    passed: bool


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
    slack: float = 1e-9,
) -> EmbeddingReport:
    """One of the four embedding directions between HL spaces.

    (A) r1 <= r2 at fixed (a, p, q): constant recorded empirically.
    (B) a2 <= a1: exact constant max_u 2^{u(a2-a1)} over occupied annuli
        (equals 1 off the central ball, 2^{a1-a2} when A_{-1} is charged).
    (C) p1 < p2: per-annulus factor mu(A_u)^{1/p1-1/p2} / (r1/p1-r1/p2)^{1/r1}
        applied inside the outer sum, target reached through L^{p2,inf}.
    (D) q2 <= q1 at fixed (a, p, r): constant 1.
    """
    f = annulus_profile(f)
    v = variant.upper()
    if v == "A":
        if not (
            source.a == target.a
            and source.p == target.p
            and source.q == target.q
            and source.r <= target.r
        ):
            raise ValueError("variant A needs identical (a,p,q) and r1 <= r2")
        lhs = hl_norm(f, target)
        rhs = hl_norm(f, source)
        constant = lhs / rhs if rhs > 0 else 1.0
        passed = (not math.isfinite(rhs)) or math.isfinite(lhs)
        return EmbeddingReport(v, lhs, rhs, constant, constant, passed)
    if v == "B":
        if not (
            source.p == target.p
            and source.q == target.q
            and source.r == target.r
            and target.a <= source.a
        ):
            raise ValueError("variant B needs identical (p,q,r) and a2 <= a1")
        lhs = hl_norm(f, target)
        rhs = hl_norm(f, source)
        constant = _occupied_weight_constant(f.us, source.a, target.a)
        ratio = lhs / rhs if rhs > 0 else 0.0
        return EmbeddingReport(v, lhs, rhs, constant, ratio, lhs <= constant * rhs * (1 + slack))
    if v == "C":
        if not (
            source.a == target.a
            and source.q == target.q
            and 0 < target.p < source.p < INF
        ):
            raise ValueError("variant C needs identical (a,q) and p1 < p2")
        p1, r1 = target.p, target.r
        p2 = source.p
        lhs = hl_norm(f, target)
        gap = r1 / p1 - r1 / p2
        factor_const = gap ** (-1.0 / r1) if r1 != INF else 1.0
        scores = {
            u: factor_const * float(annulus_measure(u, f.dim)) ** (1.0 / p1 - 1.0 / p2) * weak
            for u, weak in f.scores(LorentzParams(p2, INF)).items()
        }
        rhs = weighted_lq(scores, target.a, target.q)
        ratio = lhs / rhs if rhs > 0 else 0.0
        passed = lhs <= rhs * (1 + slack)
        return EmbeddingReport(v, lhs, rhs, factor_const, ratio, passed)
    if v == "D":
        if not (
            source.a == target.a
            and source.p == target.p
            and source.r == target.r
            and source.q <= target.q
        ):
            raise ValueError("variant D needs identical (a,p,r) and q2 <= q1")
        lhs = hl_norm(f, target)
        rhs = hl_norm(f, source)
        ratio = lhs / rhs if rhs > 0 else 0.0
        return EmbeddingReport(v, lhs, rhs, 1.0, ratio, lhs <= rhs * (1 + slack))
    raise ValueError(f"unknown embedding variant {variant!r}")
