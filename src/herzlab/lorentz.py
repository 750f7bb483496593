"""Lorentz quasi-norms and average-rearrangement (starred) norms.

The quasi-norm of a step profile has an exact closed form; the starred norm
is exact on the first segment and the power-law tail, and on each interior
segment, where t f**(t) is the chord of the integral of f* between two knots,
it takes the midpoint of the certified bracket of quadrature.power_integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .quadrature import power_integral
from .rearrange import (
    RadialStepFunction,
    StepRearrangement,
    integrate_abs_product,
    rearrangement,
)

INF = math.inf

__all__ = [
    "LorentzParams",
    "EquivalenceReport",
    "HolderReport",
    "ChainReport",
    "conjugate_exponent",
    "char_norm_constant",
    "lorentz_norm_from_steps",
    "lorentz_quasi_norm",
    "lorentz_star_norm",
    "equivalence_check",
    "lorentz_holder_pairing",
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
    levels: Sequence[float], knots: Sequence[float], p: float, r: float
) -> float:
    """Closed-form Lorentz quasi-norm of a nonincreasing step profile.

    ``levels``/``knots`` describe the profile as in StepRearrangement (knots
    are cumulative measures).  For r < inf the integral of (t^{1/p} w)^r dt/t
    is a telescoping power sum; for r = inf the supremum is approached at
    the right knot endpoints.
    """
    w = np.asarray(levels, dtype=float)
    if w.size == 0:
        return 0.0
    if p == INF:
        if r != INF:
            raise ValueError("p = inf requires r = inf")
        return float(w[0])
    t = np.asarray(knots, dtype=float)
    if r == INF:
        return float(np.max(w * t ** (1.0 / p)))
    t_pow = t ** (r / p)
    dt = t_pow.copy()
    dt[1:] -= t_pow[:-1]
    total = (p / r) * float(np.sum(w**r * dt))
    return total ** (1.0 / r)


def _profile(f: RadialStepFunction | StepRearrangement) -> StepRearrangement:
    if isinstance(f, StepRearrangement):
        return f
    return rearrangement(f)


def lorentz_quasi_norm(
    f: RadialStepFunction | StepRearrangement, params: LorentzParams
) -> float:
    """Lorentz quasi-norm of f, exact on step representatives."""
    levels, knots = _profile(f).float_steps()
    return lorentz_norm_from_steps(levels, knots, params.p, params.r)


def lorentz_star_norm(
    f: RadialStepFunction | StepRearrangement, params: LorentzParams
) -> float:
    """Lorentz functional with the averaged profile f** in place of f*.

    Piecewise evaluation: the first segment (f** constant) and the tail
    beyond the last knot (f** = mass/t) are integrated in closed form; on an
    interior segment t f**(t) is linear, so t^{r/p - 1} f**^r is a power
    integrand t^gamma (t f**)^r dt/t with gamma = r/p - r, and its integral is
    the midpoint of the bracket of quadrature.power_integral.
    Returns +inf when the tail diverges (p <= 1 with nonzero mass, r < inf).
    """
    if not params.allows_star_norm:
        raise ValueError(
            f"averaged-profile norm not defined for (p, r) = ({params.p}, {params.r})"
        )
    g = _profile(f)
    if not g.levels:
        return 0.0
    p, r = params.p, params.r
    if p == INF:  # p = r = inf: sup f** = f**(0+) = top level
        return float(g.top_level)

    levels, knots = g.float_steps()
    masses = [float(m) for m in g.segment_masses()]
    total_mass = math.fsum(w * m for w, m in zip(levels, masses))
    cumulative = []
    acc = 0.0
    for w, m in zip(levels, masses):
        acc += w * m
        cumulative.append(acc)

    if r == INF:
        # each segment's t^{1/p} f**(t) is decreasing-then-increasing, so the
        # sup over a segment sits at an endpoint; the tail is decreasing
        best = 0.0
        prev_t, prev_c = 0.0, 0.0
        for w, t, c in zip(levels, knots, cumulative):
            for point, c0, t0 in ((prev_t, prev_c, prev_t), (t, prev_c, prev_t)):
                if point > 0.0:  # t^{1/p} f**(t) -> 0 as t -> 0 for finite p
                    avg = (c0 + w * (point - t0)) / point
                    best = max(best, point ** (1.0 / p) * avg)
            prev_t, prev_c = t, c
        best = max(best, knots[-1] ** (1.0 / p - 1.0) * total_mass)
        return best

    if p <= 1.0 and total_mass > 0.0:
        return INF

    # first segment: f** == top level
    total = levels[0] ** r * (p / r) * knots[0] ** (r / p)
    # interior segments: t f**(t) = C + w (t - t0), the chord between knots
    prev_t, prev_c = knots[0], cumulative[0]
    for w, t in zip(levels[1:], knots[1:]):
        c = prev_c + w * (t - prev_t)
        total += 0.5 * sum(power_integral(prev_t, t, prev_c, c, r / p - r, r))
        prev_c, prev_t = c, t
    # tail: f** = mass / t gives an exact power integral, finite since p > 1
    p_conj = conjugate_exponent(p)
    total += total_mass**r * (p_conj / r) * knots[-1] ** (r / p - r)
    return total ** (1.0 / r)


@dataclass(frozen=True)
class EquivalenceReport:
    quasi: float
    star: float
    ratio: float
    factor: float
    passed: bool


def equivalence_check(
    f: RadialStepFunction | StepRearrangement,
    params: LorentzParams,
    slack: float = 1e-9,
) -> EquivalenceReport:
    """Sandwich quasi <= star <= (p/(p-1)) quasi, within relative `slack`."""
    if not params.in_sandwich_range:
        raise ValueError(
            "equivalence holds for 1 < p < inf, 1 <= r <= inf, or p = r = inf"
        )
    g = _profile(f)
    q_norm = lorentz_quasi_norm(g, params)
    s_norm = lorentz_star_norm(g, params)
    factor = conjugate_exponent(params.p)
    if q_norm == 0.0:
        return EquivalenceReport(q_norm, s_norm, 1.0, factor, s_norm == 0.0)
    ratio = s_norm / q_norm
    ok = q_norm <= s_norm * (1.0 + slack) and s_norm <= factor * q_norm * (1.0 + slack)
    return EquivalenceReport(q_norm, s_norm, ratio, factor, ok)


@dataclass(frozen=True)
class HolderReport:
    integral: float
    bound: float
    ratio: float
    passed: bool


def lorentz_holder_pairing(
    f: RadialStepFunction,
    g: RadialStepFunction,
    params: LorentzParams,
    slack: float = 1e-12,
) -> HolderReport:
    """Pairing bound int |fg| <= ||f||_{p,r} ||g||_{p',r'}, constant-free.

    The pairing integral is exact shell arithmetic; the declared constant is
    1 (conjugate-exponent pairing of the rearranged profiles).
    """
    if not (1 < params.p < INF and params.r >= 1):
        raise ValueError("pairing needs 1 < p < inf and 1 <= r <= inf")
    integral = float(integrate_abs_product(f, g))
    bound = lorentz_quasi_norm(f, params) * lorentz_quasi_norm(g, params.conjugate())
    ratio = integral / bound if bound > 0 else (0.0 if integral == 0.0 else INF)
    passed = integral <= bound * (1.0 + slack) + slack
    return HolderReport(integral, bound, ratio, passed)


@dataclass(frozen=True)
class ChainReport:
    exponents: tuple[float, float, float, float]
    norms: tuple[float, float, float, float]
    normalized: tuple[float, float, float, float]
    ratios: tuple[float, float, float]
    passed: bool


def refinement_chain_check(
    f: RadialStepFunction | StepRearrangement,
    p: float,
    q_exp: float,
    r_exp: float,
) -> ChainReport:
    """Finiteness chain L^{p,q} -> L^p -> L^{p,r} -> L^{p,inf} for q <= p <= r.

    Passing means finiteness propagates left to right.  The reported ratios
    are the successive quotients of the norms after dividing out each space's
    indicator constant (p/r)^{1/r}, which makes the chain comparable.
    """
    if not (0 < q_exp <= p <= r_exp):
        raise ValueError("need 0 < q <= p <= r")
    seq = (q_exp, p, r_exp, INF)
    norms = tuple(lorentz_quasi_norm(f, LorentzParams(p, s)) for s in seq)
    normalized = tuple(
        n / char_norm_constant(LorentzParams(p, s)) for n, s in zip(norms, seq)
    )
    ratios = tuple(
        (a / b if b > 0 else INF if a > 0 else 1.0)
        for a, b in zip(normalized, normalized[1:])
    )
    passed = all(
        math.isfinite(b) or not math.isfinite(a) for a, b in zip(norms, norms[1:])
    )
    return ChainReport(seq, norms, normalized, ratios, passed)
