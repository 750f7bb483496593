"""Weighted sequence spaces, K-functionals and real-interpolation norms.

K-functionals are computed as finite minimization programs.  For a couple of
weighted sequence spaces over a common base, both norms are absolute and
monotone, so an optimal decomposition can be taken coordinatewise aligned:
y_u = s_u y_u + (1 - s_u) y_u with s in [0,1]^U.  Wherever K is piecewise
linear in t it is a sum of lower envelopes of lines,
K(t) = sum_g min_i (c_gi + t d_gi), one evaluator and one corner formula for
all of them: outer exponents (1, 1) (the lines a_u and t b_u per coordinate),
a sup side against an exponent <= 1 or inf (one line per kink of its capped
cost), exponents both at most 1 (one line per vertex split s in {0,1}^U,
where the concave objective attains its minimum), and the endpoint Herz
couples with exponents (1, 1) and (1, inf) (one line per level cap).  Every
other K is one monotone root (_root): a sup side against 1 < q < inf at the
root of N'(beta) = -t of its convex capped cost, and other exponents both at
least 1 on the Pareto front of the two side norms, at the root in log rho of
t(rho) = t (_front_k), each front split itself a closed form or a root.  The
couple whose endpoints are the integrable and bounded functions has
K(t, f) = integral_0^t f*, the (1, inf) endpoint couple at zero weights.
A coordinate whose side weight rounds to 0 costs nothing on that side, so
a plan drops it from K and keeps it in the norms and corners.

k_functional and k_functional_curve are the only K entry points, for
sequence and endpoint couples alike.  Each source and couple builds one
memoized plan (_k_plan), which decides the branch, swaps a sup first side
once and yields K along any t list, the couple's norms (N0, N1) of the
source and, on demand, its corner range and, on a line branch, the
breakpoints between which K is linear.  A line plan runs one hull pass
(_envelope_breaks), and its first and last breakpoints are the corners.
There the interpolation integral is quadrature.k_norm, exact chord by
chord with a certified bracket; the other branches hand it an adaptive
Simpson main part, and it brackets both tails of every branch alike.  Their
sup form (q = inf) reads K only inside the corner window, and its upper end
is the sup-form bound of each piece between the nodes, since K rises and
K(t)/t falls.

The verification suites pair each source with its double; the endpoint
suites read both the norm and the target from the function itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Literal, Mapping, NamedTuple, Sequence

import numpy as np

from .herz import (
    AnnulusProfile,
    HerzParams,
    annulus_bounds,
    annulus_profile,
    hl_norm,
    lq_norm,
    weighted_lq,
)
from .lorentz import (
    INF,
    LorentzParams,
    conjugate_exponent,
    lorentz_quasi_norm,
    lorentz_star_norm,
)
from .quadrature import adaptive_simpson, k_norm
from .rearrange import (
    RadialStepFunction,
    pointwise_sum,
    scale,
)

__all__ = [
    "WeightedSeq",
    "CoupleSpec",
    "InterpolationParams",
    "InterpNormResult",
    "ell_norm",
    "retract_L",
    "coretract_M",
    "k_functional",
    "k_functional_curve",
    "interpolation_norm",
    "verify_interpolation",
    "SuiteReport",
]


@dataclass(frozen=True)
class WeightedSeq:
    """Finitely supported nonnegative sequence indexed by u >= -1."""

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        seen = set()
        for u, y in self.entries:
            if u < -1:
                raise ValueError("indices start at -1")
            if u in seen:
                raise ValueError("duplicate index")
            if y < 0:
                raise ValueError("entries must be nonnegative")
            seen.add(u)

    @classmethod
    def from_dict(cls, entries: Mapping[int, float]) -> "WeightedSeq":
        items = tuple(
            sorted((int(u), float(y)) for u, y in entries.items() if y != 0.0)
        )
        return cls(items)

    @classmethod
    def unit(cls, u: int) -> "WeightedSeq":
        return cls(((u, 1.0),))

    def as_dict(self) -> dict[int, float]:
        return dict(self.entries)

    def scaled(self, alpha: float) -> "WeightedSeq":
        return WeightedSeq(tuple((u, alpha * y) for u, y in self.entries))

    def is_zero(self) -> bool:
        return all(y == 0.0 for _, y in self.entries)


@dataclass(frozen=True)
class CoupleSpec:
    """Compatible couple of weighted sequence spaces over a shared base.

    ``base`` selects the coordinate norm: None for scalar coordinates (which
    covers sequences produced by the annulus retract: the scalar reduction
    is exact for a shared base), or the tag ``"l1-linf"`` for function
    coordinates paired between the integrable and bounded endpoint norms
    (split by level truncation).
    """

    side0: tuple[float, float]  # (a0, q0)
    side1: tuple[float, float]  # (a1, q1)
    base: Literal["l1-linf"] | None = None

    def __post_init__(self) -> None:
        for a, q in (self.side0, self.side1):
            if not math.isfinite(a):
                raise ValueError(f"weights must be finite, got {a}")
            if not q > 0:
                raise ValueError("outer exponents must be positive")
        if self.base not in (None, "l1-linf"):
            raise ValueError(f"base must be None or 'l1-linf', got {self.base!r}")


@dataclass(frozen=True)
class InterpolationParams:
    """Parameters (theta, q) plus the truncated log grid for the K integral;
    rel_tol is the tolerance of the adaptive Simpson rule between the corners,
    which runs only where K has no piecewise-linear form (the front and
    sup-finish K branches)."""

    theta: float
    q: float
    t_exponent_bound: int = 40
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.q == INF:
            if not 0.0 <= self.theta <= 1.0:
                raise ValueError("q = inf admits 0 <= theta <= 1")
        elif not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie strictly between 0 and 1")
        if not self.q > 0:
            raise ValueError("q must be positive")
        if self.t_exponent_bound < 1:
            raise ValueError("t grid bound must be >= 1")


def ell_norm(y: WeightedSeq, a: float, q: float) -> float:
    """Weighted l^q norm (sum_u 2^{uaq} y_u^q)^{1/q}, sup form at q = inf."""
    return weighted_lq(y.as_dict(), a, q)


def retract_L(f: RadialStepFunction, base: LorentzParams) -> WeightedSeq:
    """Annulus score sequence u -> ||f X_{A_u}||; an exact isometry onto l_q^a."""
    return WeightedSeq.from_dict(annulus_profile(f).scores(base))


def coretract_M(
    y: WeightedSeq,
    witnesses: Mapping[int, RadialStepFunction],
    base: LorentzParams,
) -> RadialStepFunction:
    """Reassemble a function from per-annulus witnesses scaled to scores y_u.

    Each witness must be supported in its annulus.  When the witnesses are
    the annulus pieces of some f and y its retract, the composition returns
    f exactly.
    """
    pieces = []
    dim = None
    for u, y_u in y.entries:
        if y_u == 0.0:
            continue
        if u not in witnesses:
            raise ValueError(f"no witness supplied for annulus {u}")
        g = witnesses[u]
        dim = g.dim if dim is None else dim
        lo, hi = annulus_bounds(u)
        for b, v in zip(g.breakpoints[:-1], g.values):
            if v != 0 and not (lo <= b < hi):
                raise ValueError(f"witness for annulus {u} leaks outside it")
        norm = lorentz_quasi_norm(g, base)
        if norm == 0.0:
            raise ValueError(f"witness for annulus {u} vanishes")
        factor = y_u / norm
        pieces.append(g if factor == 1.0 else scale(g, Fraction(factor)))
    if not pieces:
        return RadialStepFunction(
            dim or 1, (Fraction(0), Fraction(1)), (Fraction(0),)
        )
    return pointwise_sum(pieces)


# ---------------------------------------------------------------------------
# K-functional: coordinatewise scalar splits
# ---------------------------------------------------------------------------


def _side_vectors(y: WeightedSeq, couple: CoupleSpec) -> list[list[float]]:
    """Side weights a_u = 2^{u a0} y_u and b_u = 2^{u a1} y_u over y's support."""
    support = [(u, v) for u, v in y.entries if v > 0]
    return [
        [2.0 ** (u * a) * v for u, v in support] for a in (couple.side0[0], couple.side1[0])
    ]


def _sup_cost(
    a_vec: Sequence[float], b_vec: Sequence[float], q0: float
) -> tuple[Callable[[float], float], list[float]]:
    """The capped cost N(beta) of a sup second side, and its kinks in [0, max b].

    Capping the second part at level beta forces s_u >= 1 - beta/b_u, so
    K = min over 0 <= beta <= max b of N(beta) + t beta with
    N(beta) = ||(a_u (1 - beta/b_u))_+||_{q0}.  N has kinks at 0 and at each
    b_u and, for q0 = inf, where two capped parts cross (the vertices of the
    equivalent linear program).  Between kinks it is concave for q0 <= 1 and
    linear for q0 = inf; it is convex on [0, max b] for q0 >= 1.
    """

    def cost(beta: float) -> float:
        return lq_norm([max(0.0, a * (1.0 - beta / b)) for a, b in zip(a_vec, b_vec)], q0)

    kinks, top = {0.0, *b_vec}, max(b_vec)
    if q0 == INF:
        pairs = list(zip(a_vec, b_vec))
        for i, (a1, b1) in enumerate(pairs):
            for a2, b2 in pairs[i + 1 :]:
                denom = a2 * b1 - a1 * b2  # a1 (1 - beta/b1) = a2 (1 - beta/b2)
                if denom != 0.0:
                    kinks.add(b1 * b2 * (a2 - a1) / denom)
    return cost, sorted(beta for beta in kinks if 0.0 <= beta <= top)


def _sup_slope(a_vec: Sequence[float], b_vec: Sequence[float], q0: float, beta: float) -> float:
    """N'(beta) of the capped cost for 1 < q0 < inf and 0 <= beta < max b:
    -sum (a_u / b_u) (x_u / N)^(q0-1) over the parts x_u = a_u (1 - beta/b_u) > 0,
    with x_u / N formed as a ratio of norms scaled by the largest part, so
    no power of a side weight is formed."""
    parts = [(a * (1.0 - beta / b), a / b) for a, b in zip(a_vec, b_vec) if beta < b]
    top = max(x for x, _ in parts)
    norm = lq_norm([x / top for x, _ in parts], q0)
    return -math.fsum(d * (x / top / norm) ** (q0 - 1.0) for x, d in parts)


# K on a piecewise-linear branch: sum over groups g of min_i (c_gi + t d_gi),
# intercepts c and slopes d in two arrays with one row per group
Lines = tuple[np.ndarray, np.ndarray]


def _lines(groups: Sequence[tuple[Sequence[float], Sequence[float]]]) -> Lines:
    """Pack groups of lines (intercepts, slopes) into equal rows, padding a
    group with repeats of its own lines (its minimum and corners stay)."""
    width = max((len(c) for c, _ in groups), default=1)
    rows = [g if len(g[0]) == width else [np.resize(v, width) for v in g] for g in groups]
    packed = np.array(rows, dtype=float).reshape(len(groups), 2, width)
    return packed[:, 0], packed[:, 1]


def _envelope(lines: Lines, t: float) -> float:
    c, d = lines
    return math.fsum(np.min(c + t * d, axis=1))


def _envelope_breaks(lines: Lines) -> list[float]:
    """Sorted breakpoints t > 0 of a sum of line envelopes, where K is linear
    between consecutive ones.

    Per group the lines are sorted by slope descending; a line that one of
    smaller or equal slope matches at t = 0 lies above it for every t > 0 and
    goes, leaving intercepts that rise as slopes fall.  One monotone-chain
    pass (the hull idea of operators._hull_parents) then pops each line whose
    crossings with its neighbours come in the wrong order, and the crossings
    of the lines that remain are the group's breakpoints.

    Every group g must hold the lines t N1_g (intercept 0, N1_g = max d) and
    N0_g (slope 0, N0_g = max c): the coordinate lines a_u and t b_u, the
    vertex splits S = all and S empty, the capped cost at beta = 0 and
    beta = max b, the level caps 0 and the top cap.  Group g then follows
    t N1_g up to its first breakpoint and N0_g from its last, so the first
    and last breakpoints of all groups are the corner range (t_lo, t_hi)
    of K (see _KPlan), and (inf, 0) when there are none.
    """
    out = set()
    for c, d in zip(*lines):
        # scale intercepts and slopes below 1 by powers of two, which is exact
        # and keeps the products of the chain test from overflowing
        ec, ed = math.frexp(c.max())[1], math.frexp(d.max())[1]
        c, d = np.ldexp(c, -ec), np.ldexp(d, -ed)
        order = np.lexsort((c, -d))  # slope descending, intercept ascending
        c, d = c[order], d[order]
        first = np.append(True, d[1:] != d[:-1])  # the lowest line of each slope
        c, d = c[first], d[first]
        keep = c < np.append(np.minimum.accumulate(c[::-1])[::-1][1:], INF)
        chain: list[tuple[float, float]] = []
        for ci, di in zip(c[keep].tolist(), d[keep].tolist()):
            while len(chain) > 1:
                (c1, d1), (c2, d2) = chain[-2], chain[-1]
                if (ci - c1) * (d1 - d2) > (c2 - c1) * (d1 - di):
                    break
                chain.pop()
            chain.append((ci, di))
        crossings = [(c2 - c1) / (d1 - d2) for (c1, d1), (c2, d2) in zip(chain, chain[1:])]
        with np.errstate(over="ignore"):
            out.update(np.ldexp(crossings, ec - ed).tolist())
    return sorted(out)


# Caps of one monotone root (_root): its steps, and its bracket width relative
# to max(1, |lo|, |hi|).  Bisection alone narrows [0, 1] to the width in 47
# steps, and the safeguard keeps Illinois within 4 steps per halving.
_SLICE_STEPS = 200
_SLICE_WIDTH = 2.0**-47


def _root(
    fun: Callable[[float], float], lo: float, hi: float, f_lo: float, f_hi: float
) -> float:
    """Root in [lo, hi] of a nondecreasing function with fun(lo) = f_lo and
    fun(hi) = f_hi, by Illinois regula falsi with a bisection safeguard; lo
    itself when f_lo >= 0, and hi when f_hi <= 0.

    The bracket [lo, hi] keeps fun(lo) < 0 < fun(hi); a secant point outside
    its interior is replaced by the midpoint, the value at an end that stays
    twice in a row is halved, and a bracket that has not halved in three steps
    is bisected (a secant can crawl where fun has a Hoelder kink).  Returns an
    exact zero as soon as one is hit, and otherwise the midpoint once the
    width is at most _SLICE_WIDTH max(1, |lo|, |hi|) or after _SLICE_STEPS steps.
    """
    if not f_lo < 0.0 < f_hi:
        return lo if f_lo >= 0.0 else hi
    kept, stalled, mark = 0, 0, hi - lo
    for _ in range(_SLICE_STEPS):
        if hi - lo <= _SLICE_WIDTH * max(1.0, -lo, hi):
            break
        x = 0.5 * (lo + hi)
        if stalled < 3:
            secant = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            if lo < secant < hi:
                x = secant
        fx = fun(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            lo, f_lo, f_hi = x, fx, 0.5 * f_hi if kept < 0 else f_hi
        else:
            hi, f_hi, f_lo = x, fx, 0.5 * f_lo if kept > 0 else f_lo
        kept = -1 if fx < 0.0 else 1
        stalled += 1
        if hi - lo <= 0.5 * mark:
            mark, stalled = hi - lo, 0
    return 0.5 * (lo + hi)


def _log_sigmoid(w: float) -> float:
    """log(1 / (1 + e^-w)), the log of s at w = log(s / (1 - s)), without overflow."""
    return min(w, 0.0) - math.log1p(math.exp(-abs(w)))


def _front_split(
    x: float, logs: Sequence[tuple[float, float]], q0: float, q1: float
) -> tuple[list[float], list[float]]:
    """The split s at log rho = x of the Pareto front of the side norms, and 1 - s.

    Coordinate u minimizes a^q0 s^q0 / q0 + rho b^q1 (1 - s)^q1 / q1 over
    [0, 1] at a^q0 s^(q0-1) = rho b^q1 (1 - s)^(q1-1), which reads
    (q0 - 1) log s - (q1 - 1) log(1 - s) = c with c = log(rho b^q1 / a^q0),
    formed from logs (a pair (log a, log b) per coordinate) so that no power
    of a side weight can overflow.  Closed forms when q0 or q1 is 1;
    otherwise the left side increases in w = log(s / (1 - s)), from about
    (q0 - 1) w to about (q1 - 1) w, and its root comes from _root.
    """
    s, r = [], []
    for la, lb in logs:
        c = x + q1 * lb - q0 * la
        if q0 == 1.0:
            e = min(0.0, -c / (q1 - 1.0))  # log(1 - s)
            s_u, r_u = -math.expm1(e), math.exp(e)
        elif q1 == 1.0:
            e = min(0.0, c / (q0 - 1.0))  # log s
            s_u, r_u = math.exp(e), -math.expm1(e)
        else:

            def excess(w: float) -> float:
                return (q0 - 1.0) * _log_sigmoid(w) - (q1 - 1.0) * _log_sigmoid(-w) - c

            # log s lies in [min(w, 0) - log 2, min(w, 0)], log(1 - s) likewise at -w
            lo = min(0.0, (c - (q1 - 1.0) * math.log(2.0)) / (q0 - 1.0))
            hi = max(0.0, (c + (q0 - 1.0) * math.log(2.0)) / (q1 - 1.0))
            w = _root(excess, lo, hi, excess(lo), excess(hi))
            s_u, r_u = math.exp(_log_sigmoid(w)), math.exp(_log_sigmoid(-w))
        s.append(s_u)
        r.append(r_u)
    return s, r


# Cap on the doublings that bracket log rho; the last step, 2^63, spans any
# log rho that a float weight and exponent can call for.
_DOUBLINGS = 64


def _front_k(
    t: float, a_vec: Sequence[float], b_vec: Sequence[float], q0: float, q1: float
) -> tuple[float, list[float]]:
    """K(t) and its split for finite exponents >= 1, not both 1, traced on the
    Pareto front of the side norms.

    The split s(rho) of _front_split minimizes N0^q0 / q0 + rho N1^q1 / q1,
    so it is optimal for K at t(rho) = rho N1^(q1-1) / N0^(q0-1) (N0 and N1
    the side norms of the split), which never decreases in rho.  So K(t)
    comes from one monotone root of log t(rho) - log t in log rho, bracketed
    by at most _DOUBLINGS doubling steps from a guess; without a bracket the
    end nearest the root stands.  The value is that split's N0 + t N1, capped by
    min(||a||_q0, t ||b||_q1), and the split is returned with it.
    """
    logs = [(math.log(a), math.log(b)) for a, b in zip(a_vec, b_vec)]

    def log_power(vals: Sequence[float], q: float) -> float:
        # (q - 1) log ||vals||_q, the norm scaled by its largest value so that
        # no power underflows
        if q == 1.0:
            return 0.0
        top = max(vals)
        if top == 0.0:
            return -INF
        return (q - 1.0) * (math.log(top) + math.log(lq_norm([v / top for v in vals], q)))

    def excess(x: float) -> float:  # log t(rho) - log t at log rho = x
        s, r = _front_split(x, logs, q0, q1)
        return (x + log_power([b * v for b, v in zip(b_vec, r)], q1)
                - log_power([a * v for a, v in zip(a_vec, s)], q0) - math.log(t))

    lo = hi = math.log(t) + log_power(a_vec, q0) - log_power(b_vec, q1)
    f_lo = f_hi = excess(lo)
    for k in range(_DOUBLINGS):
        if f_lo > 0.0:
            lo, hi, f_hi = lo - 2.0**k, lo, f_lo
            f_lo = excess(lo)
        elif f_hi < 0.0:
            lo, hi, f_lo = hi, hi + 2.0**k, f_hi
            f_hi = excess(hi)
        else:
            break
    s, r = _front_split(_root(excess, lo, hi, f_lo, f_hi), logs, q0, q1)
    value = lq_norm([a * v for a, v in zip(a_vec, s)], q0) + t * lq_norm(
        [b * v for b, v in zip(b_vec, r)], q1)
    return min(value, lq_norm(a_vec, q0), t * lq_norm(b_vec, q1)), s


def _corner_dual(
    a_vec: Sequence[float], b_vec: Sequence[float], q0: float, q1: float
) -> float:
    """Dual-norm test of the corner s = 0, where all of y sits on side 1.

    The side-1 norm is smooth there, with gradient
    g_u = b_u^{q1} N1^{1-q1} = (b_u / N1)^{q1-1} b_u, formed in the second
    way so that no power of a side weight can overflow;
    z = t g certifies K(t) >= sum z = t N1 (the K-J duality) as long as
    t ||g/a||_{q0'} <= 1.  So K(t) = t N1 exactly for t <= 1/||g/a||_{q0'},
    and with the sides swapped K(t) = N0 for t >= ||h/b||_{q1'}, where
    h_u = a_u^{q0} N0^{1-q0}.  Returns ||g/a||_{q0'}.
    """
    norm_b = lq_norm(b_vec, q1)
    w = [(b / norm_b) ** (q1 - 1.0) * b / a for a, b in zip(a_vec, b_vec)]
    return lq_norm(w, conjugate_exponent(q0))


# Largest support that the sub-one branch enumerates: 2**20 vertices.
_VERTEX_CAP = 20


def _vertex_norms(
    a_vec: Sequence[float], b_vec: Sequence[float], q0: float, q1: float
) -> tuple[np.ndarray, np.ndarray]:
    """||a_S||_{q0} and ||b_{S^c}||_{q1} over all subsets S, built by doubling."""
    if len(a_vec) > _VERTEX_CAP:
        raise ValueError(f"sub-one K: support {len(a_vec)} exceeds the cap of {_VERTEX_CAP}")
    s0 = s1 = np.zeros(1)
    for a, b in zip(a_vec, b_vec):
        s0, s1 = np.concatenate((s0, s0 + a**q0)), np.concatenate((s1 + b**q1, s1))
    return s0 ** (1.0 / q0), s1 ** (1.0 / q1)


class _KPlan(NamedTuple):
    """K of one source and couple: `k(t)` evaluates it at one t, `norms`
    holds the source's couple norms (N0, N1), and `corners()` computes the
    corner range (t_lo, t_hi) on demand: K(t) = t N1 exactly for t <= t_lo
    and K(t) = N0 for t >= t_hi.  On a line branch `breaks(lo, hi)` lists
    the sorted breakpoints of K inside (lo, hi), between which K is linear;
    it is None where K has no known piecewise-linear form.  A line plan runs
    its hull pass once, on the first call of either, and reads its corners
    off the first and last breakpoints."""

    k: Callable[[float], float]
    corners: Callable[[], tuple[float, float]]
    breaks: Callable[[float, float], list[float]] | None
    norms: tuple[float, float]


def _line_plan(lines: Lines, norms: tuple[float, float]) -> _KPlan:
    breaks = functools.cache(lambda: _envelope_breaks(lines))  # one hull pass per plan

    def corners() -> tuple[float, float]:
        ts = breaks()
        return (ts[0], ts[-1]) if ts else (INF, 0.0)

    return _KPlan(functools.partial(_envelope, lines), corners,
                  lambda lo, hi: [b for b in breaks() if lo < b < hi], norms)


# a few plans suffice: interpolation_norm reads one per call, and a sup first
# side one more for the swapped couple
@functools.lru_cache(maxsize=8)
def _k_plan(
    source: WeightedSeq | RadialStepFunction | AnnulusProfile, couple: CoupleSpec
) -> _KPlan:
    """The K plan of a source and couple, built once (a pure function, so
    memoized): side vectors, lines and capped cost of a sequence, or the
    level-cap lines of a function's annulus profile for an endpoint couple,
    and the couple's norms of the source: ell_norm on both sides of a
    sequence, and for an endpoint couple the weighted aggregations of the
    profile's annulus integrals (side 0) and top levels (side 1).

    Sequence couples: exponents (1, 1) give the lines a_u and t b_u per
    coordinate, a sup second side one line N(beta) + t beta per kink of its
    capped cost, exponents both <= 1 one line ||a_S||_{q0} + t ||b_{S^c}||_{q1}
    per vertex split S; a sup first side goes through
    K(t; X0, X1) = t K(1/t; X1, X0).  The corners are the first and last
    breakpoints of the lines, except on the front branch (other exponents
    >= 1), which reads both from the dual-norm test and answers t outside
    them from the norms, and for a sup side against 1 < q0 < inf, whose
    convex capped cost N gives them as -N'(max b) and -N'(0).
    A coordinate with a side weight of 0 is left out of K and counted in
    the norms, so it moves a corner to 0 or inf.  Uncertified exponents
    raise ValueError, on an empty support too.
    """
    if isinstance(source, WeightedSeq) != (couple.base is None):
        raise ValueError("a sequence couple takes a WeightedSeq, an l1-linf couple "
                         "a function or its AnnulusProfile")
    (a0, q0), (a1, q1) = couple.side0, couple.side1
    if couple.base == "l1-linf":
        prof = annulus_profile(source)
        lines = _endpoint_lines(prof, couple.side0, couple.side1)
        return _line_plan(lines, (weighted_lq(dict(zip(prof.us, prof.integrals)), a0, q0),
                                  weighted_lq(dict(zip(prof.us, prof.tops)), a1, q1)))
    if min(q0, q1) < 1.0 < max(q0, q1) < INF:
        raise ValueError(f"no certified K for outer exponents ({q0}, {q1}): one below 1, one above")
    if q0 == INF and q1 != INF:
        swapped = _k_plan(source, CoupleSpec(couple.side1, couple.side0))

        def swapped_corners() -> tuple[float, float]:
            lo, hi = swapped.corners()  # 0 where a slope underflows, and then inf here
            return (1.0 / hi if hi else INF), (1.0 / lo if lo else INF)

        def swapped_breaks(lo: float, hi: float) -> list[float]:
            # 1/b can round onto an end of (lo, hi)
            ends = 1.0 / hi, (1.0 / lo if lo else INF)
            return sorted(t for b in swapped.breaks(*ends) if lo < (t := 1.0 / b) < hi)

        return _KPlan(
            lambda t: t * swapped.k(1.0 / t),
            swapped_corners,
            None if swapped.breaks is None else swapped_breaks,
            swapped.norms[::-1],
        )
    norms = ell_norm(source, a0, q0), ell_norm(source, a1, q1)
    a_vec, b_vec = _side_vectors(source, couple)
    if 0.0 in a_vec or 0.0 in b_vec:
        # a coordinate whose side weight rounds to 0 is free on that side, so K
        # is the K of the rest; where the norms still count it, K stays below
        # t N1 (free on side 0) or N0 (free on side 1) at every t
        rest = _k_plan(WeightedSeq(tuple((u, v) for u, v in source.entries
                                         if 2.0 ** (u * a0) * v and 2.0 ** (u * a1) * v)), couple)

        def free_corners() -> tuple[float, float]:
            lo, hi = rest.corners()
            return ((lo if norms[1] == rest.norms[1] else 0.0),
                    (hi if norms[0] == rest.norms[0] else INF))

        return rest._replace(norms=norms, corners=free_corners)
    if not a_vec or q0 == 1.0 and q1 == 1.0:  # no lines at all on an empty support: K = 0
        return _line_plan(_lines([((a, 0.0), (0.0, b)) for a, b in zip(a_vec, b_vec)]), norms)
    if q0 <= 1.0 and q1 <= 1.0:
        return _line_plan(_lines([_vertex_norms(a_vec, b_vec, q0, q1)]), norms)
    if q1 != INF:
        corners = functools.cache(lambda: (1.0 / _corner_dual(a_vec, b_vec, q0, q1),
                                           _corner_dual(b_vec, a_vec, q1, q0)))

        def front(t: float) -> float:
            t_lo, t_hi = corners()
            if t <= t_lo:
                return t * norms[1]
            return norms[0] if t >= t_hi else _front_k(t, a_vec, b_vec, q0, q1)[0]

        return _KPlan(front, corners, None, norms)
    cost, kinks = _sup_cost(a_vec, b_vec, q0)
    lines = _lines([([cost(beta) for beta in kinks], kinks)])
    if not 1.0 < q0 < INF:
        return _line_plan(lines, norms)
    # N is linear on its last kink interval, so its slope there is N'(max b)
    top, slope_lo = kinks[-1], _sup_slope(a_vec, b_vec, q0, 0.0)
    slope_hi = _sup_slope(a_vec, b_vec, q0, 0.5 * (kinks[-2] + top))

    def sup_finish(t: float) -> float:
        beta = top * _root(lambda v: t + _sup_slope(a_vec, b_vec, q0, top * v),
                           0.0, 1.0, t + slope_lo, t + slope_hi)
        return min(_envelope(lines, t), cost(beta) + t * beta)

    # K = N(0) from t = -N'(0) on, and t max b up to t = -N'(max b)
    return _KPlan(sup_finish, lambda: (-slope_hi, -slope_lo), None, norms)


def k_functional(
    t: float,
    y: WeightedSeq | RadialStepFunction | AnnulusProfile,
    couple: CoupleSpec,
) -> float:
    """K(t, y) between the two norms of the couple.

    Sequence couples take a WeightedSeq.  Restricting to coordinatewise
    scalar splits is lossless because both lattice norms are absolute and
    monotone.  Exponents (1, 1), a sup side against an exponent <= 1 or inf,
    and exponents both <= 1 (a concave objective, exact over the 2^n vertex
    splits of at most 20 coordinates) give K as a sum of lower envelopes of
    lines, evaluated exactly.  A sup side against 1 < q < inf takes the
    minimum of its convex N(beta) + t beta at the root of N'(beta) = -t,
    never above its kink lines.  Other exponents >= 1 trace the Pareto front
    of the two side norms: the split minimizing N0^q0 / q0 + rho N1^q1 / q1 is
    optimal at a t(rho) that never decreases in rho, so K(t) is one monotone
    root in log rho (see _front_k).  One exponent below 1 with the other
    finite and above 1 has no certified method: ValueError.

    The endpoint couple (base "l1-linf") takes a radial step function or its
    AnnulusProfile.  Coordinates are the annulus pieces; the side-0 norm
    aggregates their integrals (integrable base), the side-1 norm their sup
    levels (bounded base).  The optimal split of each coordinate is a level
    truncation f_u = (f_u - c_u)_+ + min(f_u, c_u), and K is exact over the
    level caps for outer exponents (1, 1) and (1, inf) (at zero weights
    (L^1, L^inf), K = integral_0^t f*); other exponents raise ValueError.

    Each source and couple builds one plan (see _k_plan), shared by every
    t; a source of the wrong kind for the couple raises ValueError.
    """
    return k_functional_curve([t], y, couple)[0]


def k_functional_curve(
    ts: Sequence[float],
    y: WeightedSeq | RadialStepFunction | AnnulusProfile,
    couple: CoupleSpec,
) -> list[float]:
    """K(t, y) along a t grid, from the one plan of y and the couple.

    Each t is solved on its own, with no state carried along the grid, so
    every branch gives k_functional's values bit for bit.  `herzlab kfunc`
    prints one such curve.
    """
    if any(t <= 0 for t in ts):
        raise ValueError("t must be positive")
    return list(map(_k_plan(y, couple).k, ts))


def _check_endpoint_exponents(q0: float, q1: float) -> None:
    """ValueError unless the endpoint Herz K of outer exponents (q0, q1) is exact."""
    if q0 != 1.0 or q1 not in (1.0, INF):
        raise ValueError(f"no certified endpoint Herz K for outer exponents ({q0}, {q1}): "
                         "only (1, 1) and (1, inf)")


def _endpoint_lines(
    prof: AnnulusProfile, side0: tuple[float, float], side1: tuple[float, float]
) -> Lines:
    """The lines of the endpoint Herz K for outer exponents (1, 1) and (1, inf).

    Capping the bounded part of annulus u at beta / w1_u leaves
    (w0_u / w1_u) integral (w1_u f* - beta)_+, convex and piecewise linear in
    beta with kinks at the level caps beta = w1_u c (c a level of f* there),
    so K is attained at a cap: per annulus for (1, 1), shared for (1, inf).
    Other exponents raise ValueError.
    """
    (a0, q0), (a1, q1) = side0, side1
    _check_endpoint_exponents(q0, q1)
    pieces = [  # the level masses are the knot differences
        (2.0 ** (u * a0) / 2.0 ** (u * a1), 2.0 ** (u * a1) * np.array(levels),
         np.diff(knots, prepend=0.0))
        for u, levels, knots in zip(prof.us, prof.levels, prof.knots)
    ]

    def group(part: list[tuple[float, np.ndarray, np.ndarray]]) -> tuple[np.ndarray, ...]:
        caps = np.concatenate([[0.0], *(c for _, c, _ in part)])
        cost = sum((r * np.maximum(c - caps[:, None], 0.0) @ m for r, c, m in part),
                   np.zeros_like(caps))
        return cost, caps

    return _lines([group([p]) for p in pieces] if q1 == 1.0 else [group(pieces)])


# ---------------------------------------------------------------------------
# interpolation norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterpNormResult:
    value: float
    lower: float
    upper: float


# Samples of K per octave of t between the corners for the sup form (q = inf)
# on the front and sup-finish branches.
_POINTS_PER_OCTAVE = 16


def interpolation_norm(
    source: WeightedSeq | RadialStepFunction | AnnulusProfile,
    params: InterpolationParams,
    couple: CoupleSpec,
) -> InterpNormResult:
    """Real-interpolation norm (integral of (t^{-theta} K)^q dt/t)^{1/q}.

    A couple norm of 0 gives K = 0 (K(t) <= min(N0, t N1)) and the norm 0.
    K(t) = t N1 exactly below the lower corner of K and K(t) = N0 above the
    upper one.  The window is the corner range clipped to [2^-T, 2^T], and
    quadrature.k_norm integrates over it and brackets the tails beyond it.
    On a line branch K is linear between its breakpoints, so K is read
    there and at both window ends, and k_norm takes the certified chord
    sum, or for q = inf, exactly, the largest t^-theta K at those nodes.
    On the front and sup-finish branches a per-octave adaptive Simpson rule
    in log t (params.rel_tol) gives the main part with no certificate, and
    the sup form reads K at the window ends and the log-grid points strictly
    between them: the value and lower end are the largest t^-theta K there,
    and the upper end is the largest K(t1)^(1-theta) (K(t0)/t0)^theta over
    the pieces [t0, t1] and the two tails, certified because K rises and
    K(t)/t falls.  Otherwise the reported value is the midpoint of the
    bracket.  Functions (endpoint couple) are read through their annulus
    profile, built once.  The norms, corners and breakpoints come from the
    plan of the source and couple (_k_plan), and K from one k_functional
    call per t, each reading that same plan.
    """
    theta, q = params.theta, params.q
    if couple.base == "l1-linf" and not isinstance(source, WeightedSeq):
        source = annulus_profile(source)
    plan = _k_plan(source, couple)  # raises for an uncertified couple, zero source included
    if 0.0 in plan.norms:  # K <= min(N0, t N1) vanishes
        return InterpNormResult(0.0, 0.0, 0.0)
    T = params.t_exponent_bound
    corners = plan.corners()
    t_lo = min(max(corners[0], 2.0**-T), 2.0**T)
    t_hi = min(max(corners[1], t_lo), 2.0**T)

    @functools.cache
    def k_of(t: float) -> float:
        return k_functional(t, source, couple)

    main = None
    if plan.breaks is not None:
        ts = [t_lo, *plan.breaks(t_lo, t_hi), t_hi]
    elif q == INF:
        grid = (2.0 ** (j / _POINTS_PER_OCTAVE)
                for j in range(-T * _POINTS_PER_OCTAVE, T * _POINTS_PER_OCTAVE + 1))
        ts = [t_lo, *(t for t in grid if t_lo < t < t_hi), t_hi]
    else:
        ln2 = math.log(2.0)

        def integrand(x: float) -> float:
            t = math.exp(x)
            return (k_of(t) / t**theta) ** q

        x_lo, x_hi = math.log(t_lo), math.log(t_hi)
        cuts = [x_lo, *(j * ln2 for j in range(-T + 1, T) if x_lo < j * ln2 < x_hi), x_hi]
        simpson = sum(adaptive_simpson(integrand, x, x_next, rel_tol=params.rel_tol)
                      for x, x_next in zip(cuts, cuts[1:]) if x < x_next)
        ts, main = [t_lo, t_hi], (simpson, simpson)
    value, lower, upper = k_norm(k_of, ts, corners, plan.norms, theta, q, main)
    if q == INF and plan.breaks is None:
        # K rises and K(t)/t falls, so t^-theta K = K^(1-theta) (K/t)^theta is
        # at most K(t1)^(1-theta) (K(t0)/t0)^theta on a piece [t0, t1], the
        # tails beyond the nodes taking K(inf) = N0 and K(t)/t -> N1 at 0
        ks, (n0, n1) = [k_of(t) for t in ts], plan.norms
        slopes = [n1, *(k / t for k, t in zip(ks, ts))]
        upper = max(upper, *(k ** (1.0 - theta) * s**theta for k, s in zip([*ks, n0], slopes)))
    return InterpNormResult(value, lower, upper)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    ratios: tuple[float, ...]
    band: tuple[float, float]
    stability: float
    scale_drift: float
    passed: bool
    notes: str = ""


# Largest spread max/min of a suite's ratios that still passes.
_STABILITY_FACTOR = 50.0


def _band_verdict(
    suite: str,
    ratios: Sequence[float],
    scale_drifts: Sequence[float],
) -> SuiteReport:
    finite = [r for r in ratios if math.isfinite(r) and r > 0]
    if not finite:
        return SuiteReport(suite, tuple(ratios), (0.0, 0.0), INF, INF, False, "no data")
    lo, hi = min(finite), max(finite)
    stability = hi / lo
    drift = max(scale_drifts) if scale_drifts else 0.0
    passed = (
        len(finite) == len(ratios)
        and stability <= _STABILITY_FACTOR
        and drift <= 1e-9
    )
    return SuiteReport(suite, tuple(ratios), (lo, hi), stability, drift, passed)


def _scale_drift(value_f: float, value_2f: float) -> float:
    if value_f == 0.0:
        return 0.0 if value_2f == 0.0 else INF
    return abs(value_2f / (2.0 * value_f) - 1.0)


def verify_interpolation(
    suite: str,
    corpus: Sequence[WeightedSeq] | Sequence[RadialStepFunction],
    theta: float = 0.5,
    q: float | None = None,
    a0: float = 0.0,
    a1: float = 1.0,
    q0: float = 1.0,
    q1: float = 1.0,
    base: LorentzParams | None = None,
) -> SuiteReport:
    """Ratio-band verification of one interpolation identity.

    Each nonzero corpus member contributes interpolation_norm / target_norm
    (a zero member has 0/0 and is skipped in every suite); the suite passes
    when the ratios stay within a band of spread at most 50 and are
    scale-stable (the ratio for 2f matches the ratio for f to 1e-9,
    reflecting homogeneity).

    Suites: ``seq-a`` interpolates the weight (a0 != a1, common q0 = q1),
    ``seq-q`` the outer exponent (common a), ``lorentz`` the endpoint couple
    against the averaged-profile Lorentz norm, ``hl-1``/``hl-2`` the Herz
    scale versions of the sequence suites through the annulus retract,
    ``hl-3`` the mixed-base sequence identity over the endpoint base pair,
    and ``hl-4`` the endpoint Herz couple against the interpolated HL norm.
    """
    if suite in ("seq-a", "hl-1"):
        if a0 == a1:
            raise ValueError("weight interpolation needs a0 != a1")
        if q is None:
            raise ValueError("target exponent q required")
        a = (1.0 - theta) * a0 + theta * a1
        q_target = q
        couple = CoupleSpec((a0, q0), (a1, q1))
    elif suite in ("seq-q", "hl-2"):
        inv_q = (1.0 - theta) / q0 + theta / q1
        q_target = INF if inv_q == 0.0 else 1.0 / inv_q
        if q is not None and not math.isclose(q, q_target, rel_tol=1e-12):
            raise ValueError("q must satisfy 1/q = (1-theta)/q0 + theta/q1")
        a = a0
        if a1 != a0:
            raise ValueError("exponent interpolation needs a common weight")
        couple = CoupleSpec((a, q0), (a, q1))
    elif suite == "lorentz":
        if q is None:
            raise ValueError("target exponent q required")
        q_target = q
        couple = CoupleSpec((0.0, 1.0), (0.0, INF), base="l1-linf")
        lorentz_target = LorentzParams(1.0 / (1.0 - theta), q)
    elif suite in ("hl-3", "hl-4"):
        # both interpolate the endpoint base pair: hl-3 against the weighted
        # aggregation of interpolated (averaged-profile) coordinate norms,
        # hl-4 against the HL norm with p = 1/(1-theta) and r = q; (1, 1) is
        # the one finite pair with a certified K
        _check_endpoint_exponents(q0, q1)
        if q1 == INF:
            raise ValueError(f"{suite} requires finite outer exponents")
        q_target = 1.0 / ((1.0 - theta) / q0 + theta / q1)
        a = (1.0 - theta) * a0 + theta * a1
        couple = CoupleSpec((a0, q0), (a1, q1), base="l1-linf")
        hl_target = HerzParams(a, 1.0 / (1.0 - theta), q_target, q_target)
    else:
        raise ValueError(f"unknown interpolation suite {suite!r}")
    params = InterpolationParams(theta, q_target, rel_tol=1e-8)

    if couple.base is None:
        if suite.startswith("hl"):
            if base is None:
                raise ValueError(f"{suite} needs the shared Lorentz base")
            seqs = [retract_L(f, base) for f in corpus]
        else:
            seqs = list(corpus)
        pairs = [(y, y.scaled(2.0)) for y in seqs if not y.is_zero()]

        def target(y: WeightedSeq) -> float:
            return ell_norm(y, a, q_target)

    else:
        pairs = [(f, scale(f, 2)) for f in corpus if not f.is_zero()]

        def target(f: RadialStepFunction) -> float:
            if suite == "lorentz":
                return lorentz_star_norm(f, lorentz_target)
            return hl_norm(f, hl_target, starred=suite == "hl-3")

    return _ratio_suite(suite, pairs, params, couple, target)


def _ratio_suite(
    suite: str,
    pairs: Sequence[tuple[Any, Any]],
    params: InterpolationParams,
    couple: CoupleSpec,
    target: Callable[[Any], float],
) -> SuiteReport:
    """Band of interpolation_norm / target over (x, 2x) pairs, with scale drifts."""
    ratios, drifts = [], []
    for x, doubled in pairs:
        val = interpolation_norm(x, params, couple).value
        tgt = target(x)
        ratios.append(val / tgt if tgt > 0 else INF)
        val2 = interpolation_norm(doubled, params, couple).value
        drifts.append(_scale_drift(val, val2))
    return _band_verdict(suite, ratios, drifts)
