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
couples with exponents (1, 1) and (1, inf) (one line per level cap).  A sup
side against 1 < q < inf finishes its best kink by a golden-section search,
and other exponents both at least 1 go through cyclic exact coordinate
minimization, each slice by bisecting its derivative.  The couple whose
endpoints are the integrable and bounded functions has
K(t, f) = integral_0^t f*, the (1, inf) endpoint couple at zero weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Literal, Mapping, Sequence

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
from .quadrature import adaptive_simpson
from .rearrange import (
    RadialStepFunction,
    StepRearrangement,
    pointwise_sum,
    rearrangement,
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
    "check_k_curve",
    "k_functional_l1_linf",
    "k_functional_herz_endpoint",
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
    """Parameters (theta, q) plus the truncated log grid for the K integral."""

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


def retract_L(
    f: RadialStepFunction, base: LorentzParams, starred: bool = False
) -> WeightedSeq:
    """Annulus score sequence u -> ||f X_{A_u}||; an exact isometry onto l_q^a."""
    prof = annulus_profile(f)
    scores = prof.star_scores(base) if starred else prof.scores(base)
    return WeightedSeq.from_dict(scores)


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


def _golden_min(
    fun: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Golden-section minimum of a unimodal function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    x = 0.5 * (a + b)
    return x, fun(x)


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


def _envelope_corners(lines: Lines) -> tuple[float, float]:
    """Corner range (t_lo, t_hi) of a sum of line envelopes (see _k_corners).

    Group g holds the lines t N1_g (N1_g = max d) and N0_g (N0_g = max c);
    it follows the first up to t_lo = min c / (N1_g - d) over lines with
    c > 0, and the second from t_hi = max (N0_g - c) / d over lines with d > 0.
    """
    c, d = lines
    n0, n1 = c.max(axis=1, keepdims=True), d.max(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = np.min(c / (n1 - d), where=c > 0.0, initial=INF)
        t_hi = np.max((n0 - c) / d, where=d > 0.0, initial=0.0)
    return float(t_lo), float(t_hi)


def _sup_finish(t: float, lines: Lines, cost: Callable[[float], float], tol: float) -> float:
    """K of a sup side whose capped cost N is convex (1 < q0 < inf): the best
    kink line N(beta) + t beta, finished by a golden-section search over the
    two kink intervals around it."""
    c, kinks = lines[0][0], lines[1][0]
    i = int(np.argmin(c + t * kinks))
    lo, hi = kinks[max(i - 1, 0)], kinks[min(i + 1, len(kinks) - 1)]
    line = _golden_min(lambda beta: cost(beta) + t * beta, lo, hi, tol * kinks[-1])[1]
    return min(float(c[i] + t * kinks[i]), line)


def _objective(
    s: Sequence[float],
    t: float,
    a_vec: Sequence[float],
    b_vec: Sequence[float],
    q0: float,
    q1: float,
) -> float:
    part0 = [a * x for a, x in zip(a_vec, s)]
    part1 = [b * (1.0 - x) for b, x in zip(b_vec, s)]
    return lq_norm(part0, q0) + t * lq_norm(part1, q1)


def _cd_sweeps(
    s: list[float],
    t: float,
    a_vec: Sequence[float],
    b_vec: Sequence[float],
    q0: float,
    q1: float,
) -> float:
    """Cyclic exact coordinate minimization, mutating s in place.

    Each coordinate slice of the convex objective is minimized by bisecting
    its derivative, with the two power sums maintained incrementally so a
    derivative evaluation costs O(1).
    """
    n = len(a_vec)
    p0 = [(a * x) ** q0 for a, x in zip(a_vec, s)]
    p1 = [(b * (1.0 - x)) ** q1 for b, x in zip(b_vec, s)]
    sum0 = math.fsum(p0)
    sum1 = math.fsum(p1)
    e0 = (1.0 - q0) / q0
    e1 = (1.0 - q1) / q1

    prev_value = INF
    for sweep in range(120):
        moved = 0.0
        for i in range(n):
            a, b = a_vec[i], b_vec[i]
            c0 = max(0.0, sum0 - p0[i])
            c1 = max(0.0, sum1 - p1[i])

            def deriv(x: float) -> float:
                g0 = c0 + (a * x) ** q0
                d0 = a if g0 == 0.0 else (a**q0) * x ** (q0 - 1.0) * g0**e0
                g1 = c1 + (b * (1.0 - x)) ** q1
                d1 = (
                    b
                    if g1 == 0.0
                    else (b**q1) * (1.0 - x) ** (q1 - 1.0) * g1**e1
                )
                return d0 - t * d1

            if deriv(0.0) >= 0.0:
                x_new = 0.0
            elif deriv(1.0) <= 0.0:
                x_new = 1.0
            else:
                lo, hi = 0.0, 1.0
                for _ in range(47):
                    mid = 0.5 * (lo + hi)
                    if deriv(mid) < 0.0:
                        lo = mid
                    else:
                        hi = mid
                x_new = 0.5 * (lo + hi)
            moved = max(moved, abs(x_new - s[i]))
            s[i] = x_new
            p0[i] = (a * x_new) ** q0
            p1[i] = (b * (1.0 - x_new)) ** q1
            sum0 = c0 + p0[i]
            sum1 = c1 + p1[i]
        if moved < 1e-13:
            break
        if sweep % 2 == 1:
            value = _objective(s, t, a_vec, b_vec, q0, q1)
            if value >= prev_value * (1.0 - 1e-14):
                break
            prev_value = value
    return _objective(s, t, a_vec, b_vec, q0, q1)


def _corner_dual(
    a_vec: Sequence[float], b_vec: Sequence[float], q0: float, q1: float
) -> tuple[list[float], float]:
    """Dual-norm test of the corner s = 0, where all of y sits on side 1.

    The side-1 norm is smooth there, with gradient g_u = b_u^{q1} N1^{1-q1};
    z = t g certifies K(t) >= sum z = t N1 (the K-J duality) as long as
    t ||g/a||_{q0'} <= 1.  So K(t) = t N1 exactly for t <= 1/||g/a||_{q0'},
    and with the sides swapped K(t) = N0 for t >= ||h/b||_{q1'}, where
    h_u = a_u^{q0} N0^{1-q0}.  Returns w = g/a and ||w||_{q0'}.
    """
    norm_b = lq_norm(b_vec, q1)
    w = [(b**q1) * norm_b ** (1.0 - q1) / a for a, b in zip(a_vec, b_vec)]
    return w, lq_norm(w, conjugate_exponent(q0))


def _corner_escape(
    s: list[float],
    t: float,
    a_vec: Sequence[float],
    b_vec: Sequence[float],
    q0: float,
    q1: float,
) -> bool:
    """Escape a suboptimal box corner, where the objective is nonsmooth.

    The only nondifferentiable points of the objective are the all-zero and
    all-one corners (one of the two part vectors vanishes there), and
    coordinatewise moves cannot always leave them: for exponents above 1 a
    joint move grows the norm sublinearly compared to the sum of single
    moves.  Corner optimality is the dual-norm test of _corner_dual; when it
    fails, the dual maximizer supplies a strictly descending direction, along
    which a line search restarts the descent.  Returns True when s moved.
    """
    n = len(a_vec)
    if all(x == 0.0 for x in s):
        w, norm = _corner_dual(a_vec, b_vec, q0, q1)
        if t * norm <= 1.0 + 1e-12:
            return False
        qd, sign, sides = conjugate_exponent(q0), 1.0, a_vec
    elif all(x == 1.0 for x in s):
        w, norm = _corner_dual(b_vec, a_vec, q1, q0)
        if norm <= t * (1.0 + 1e-12):
            return False
        qd, sign, sides = conjugate_exponent(q1), -1.0, b_vec
    else:
        return False
    if qd == INF:
        x = [1.0 if w_i == max(w) else 0.0 for w_i in w]
    else:
        x = [w_i ** (qd - 1.0) for w_i in w]
    d = [sign * x_i / c for x_i, c in zip(x, sides)]
    scale = max(abs(di) for di in d)
    d = [di / scale for di in d]

    def along(eps: float) -> float:
        trial = [min(1.0, max(0.0, x + eps * di)) for x, di in zip(s, d)]
        return _objective(trial, t, a_vec, b_vec, q0, q1)

    eps_best, val_best = _golden_min(along, 0.0, 1.0, 1e-12)
    if val_best >= _objective(s, t, a_vec, b_vec, q0, q1):
        return False
    for i in range(n):
        s[i] = min(1.0, max(0.0, s[i] + eps_best * d[i]))
    return True


def _coordinate_descent(
    t: float,
    a_vec: Sequence[float],
    b_vec: Sequence[float],
    q0: float,
    q1: float,
    s_init: list[float] | None = None,
) -> tuple[float, list[float]]:
    """Descent with corner snapping and escape; returns (value, minimizer).

    Near a box corner the per-coordinate steps contract without arriving,
    so iterates within 1e-4 of a corner are snapped onto it; the corner is
    then either certified optimal by the dual-norm test or left along the
    dual maximizer direction before resuming the sweeps.
    """
    n = len(a_vec)
    s = list(s_init) if s_init is not None else [0.5] * n
    value = _cd_sweeps(s, t, a_vec, b_vec, q0, q1)
    best_val, best_s = value, list(s)
    for _ in range(3):
        near_zero = max(s) <= 1e-4
        near_one = min(s) >= 1.0 - 1e-4
        if not (near_zero or near_one):
            break
        s = [0.0] * n if near_zero else [1.0] * n
        corner_val = _objective(s, t, a_vec, b_vec, q0, q1)
        if corner_val < best_val:
            best_val, best_s = corner_val, list(s)
        if not _corner_escape(s, t, a_vec, b_vec, q0, q1):
            break  # the corner passed its optimality test
        value = _cd_sweeps(s, t, a_vec, b_vec, q0, q1)
        if value < best_val:
            best_val, best_s = value, list(s)
    return best_val, best_s


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


def _dual_bound(
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


def _k_lines(
    a_vec: Sequence[float], b_vec: Sequence[float], q0: float, q1: float
) -> Lines | None:
    """The lines of K for nonempty side vectors; None on the descent branch.

    Exponents (1, 1): per coordinate, the lines a_u and t b_u.  A sup second
    side: one line N(beta) + t beta per kink of its capped cost (exact when
    the other exponent is <= 1 or inf; a sup first side is swapped by the
    callers).  Exponents both <= 1: one line ||a_S||_{q0} + t ||b_{S^c}||_{q1}
    per vertex split S.
    """
    if q0 == 1.0 and q1 == 1.0:
        return _lines([((a, 0.0), (0.0, b)) for a, b in zip(a_vec, b_vec)])
    if q1 == INF:
        cost, kinks = _sup_cost(a_vec, b_vec, q0)
        return _lines([([cost(beta) for beta in kinks], kinks)])
    if q0 <= 1.0 and q1 <= 1.0:
        return _lines([_vertex_norms(a_vec, b_vec, q0, q1)])
    if q0 < 1.0 or q1 < 1.0:
        raise ValueError(f"no certified K for outer exponents ({q0}, {q1}): one below 1, one above")
    return None


def _k_descent(
    t: float, a_vec: Sequence[float], b_vec: Sequence[float], q0: float, q1: float,
    s_init: list[float] | None,
) -> tuple[float, list[float]]:
    """K(t) and its split by coordinate descent (exponents >= 1), checked by
    the dual bound: from a carried split with a relative gap above 1e-12 the
    cold start is solved too, the lower value kept; a cold descent with a
    gap above 1e-6 resumes its sweeps, for at most 20 more rounds."""
    value, s = _coordinate_descent(t, a_vec, b_vec, q0, q1, s_init)
    if s_init is None:
        for _ in range(20):
            if _dual_bound(s, t, a_vec, b_vec, q0, q1) >= value * (1.0 - 1e-6):
                break
            value = _cd_sweeps(s, t, a_vec, b_vec, q0, q1)
    elif _dual_bound(s, t, a_vec, b_vec, q0, q1) < value * (1.0 - 1e-12):
        cold_value, cold_s = _k_descent(t, a_vec, b_vec, q0, q1, None)
        if cold_value < value:
            value, s = cold_value, cold_s
    return min(value, lq_norm(a_vec, q0), t * lq_norm(b_vec, q1)), s


def _k_corners(
    a_vec: Sequence[float], b_vec: Sequence[float], q0: float, q1: float
) -> tuple[float, float]:
    """Corner range (t_lo, t_hi) of K for nonempty side vectors.

    K(t) = t N1 exactly for t <= t_lo and K(t) = N0 for t >= t_hi.  The
    descent branch reads both off the dual-norm test, the others off their
    lines; a sup side against 1 < q0 < inf takes the upper corner from the
    dual-norm test (its cost is convex and smooth at 0) and the lower one
    from its kink lines (the cost is linear on the last kink interval).
    """
    if q0 == INF and q1 != INF:
        # K(t) = t K'(1/t) with the sides swapped, so the corners swap and invert
        lo, hi = _k_corners(b_vec, a_vec, q1, q0)
        return 1.0 / hi, 1.0 / lo
    lines = _k_lines(a_vec, b_vec, q0, q1)
    if lines is None:
        return 1.0 / _corner_dual(a_vec, b_vec, q0, q1)[1], _corner_dual(b_vec, a_vec, q1, q0)[1]
    t_lo, t_hi = _envelope_corners(lines)
    return t_lo, _corner_dual(b_vec, a_vec, q1, q0)[1] if 1.0 < q0 < INF else t_hi


def k_functional(
    t: float,
    y: WeightedSeq,
    couple: CoupleSpec,
    tol: float = 1e-8,
) -> float:
    """K(t, y) between the two weighted sequence norms of the couple.

    Restricting to coordinatewise scalar splits is lossless because both
    lattice norms are absolute and monotone.  Exponents (1, 1), a sup side
    against an exponent <= 1 or inf, and exponents both <= 1 (a concave
    objective, exact over the 2^n vertex splits of at most 20 coordinates)
    give K as a sum of lower envelopes of lines, evaluated exactly.  A sup
    side against 1 < q < inf finishes its best kink line by a golden-section
    search to `tol`.  Other exponents >= 1 go through cyclic exact
    coordinate minimization with corner escapes, resumed while the K-J dual
    gap exceeds 1e-6.  One exponent below 1 with the other finite and above
    1 has no certified method: ValueError.
    """
    return k_functional_curve([t], y, couple, tol)[0]


def k_functional_curve(
    ts: Sequence[float],
    y: WeightedSeq,
    couple: CoupleSpec,
    tol: float = 1e-8,
) -> list[float]:
    """K(t, y) along a t grid.

    Equivalent to calling k_functional pointwise; the lines of a
    piecewise-linear branch are built once per curve, and on the descent
    path the minimizer is carried from one grid point to the next, which
    makes dense curves far cheaper to evaluate (a carried start whose dual
    gap stays above 1e-12 is solved again from the cold start).
    """
    if couple.base == "l1-linf":
        raise ValueError("function-coordinate couples use the endpoint routines")
    if any(t <= 0 for t in ts):
        raise ValueError("t must be positive")
    q0, q1 = couple.side0[1], couple.side1[1]
    if q0 == INF and q1 != INF:
        # swap roles: K(t; X0, X1) = t K(1/t; X1, X0)
        swapped = CoupleSpec(couple.side1, couple.side0)
        ks = k_functional_curve([1.0 / t for t in ts], y, swapped, tol)
        return [t * k for t, k in zip(ts, ks)]
    a_vec, b_vec = _side_vectors(y, couple)
    if not a_vec:
        return [0.0] * len(ts)
    lines = _k_lines(a_vec, b_vec, q0, q1)
    if lines is None:
        out, s = [], None
        for t in ts:
            value, s = _k_descent(t, a_vec, b_vec, q0, q1, s)
            out.append(value)
        return out
    if 1.0 < q0 < INF:
        cost = _sup_cost(a_vec, b_vec, q0)[0]
        return [_sup_finish(t, lines, cost, tol) for t in ts]
    return [_envelope(lines, t) for t in ts]


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


def k_functional_l1_linf(f: RadialStepFunction | StepRearrangement, t: float) -> float:
    """K(t, f) between the integrable and bounded endpoints: integral_0^t f*."""
    if t <= 0:
        raise ValueError("t must be positive")
    g = f if isinstance(f, StepRearrangement) else rearrangement(f)
    return float(g.integral_up_to(Fraction(t)))


def _k_herz_endpoint(
    t: float, prof: AnnulusProfile, side0: tuple[float, float], side1: tuple[float, float]
) -> float:
    """Endpoint Herz K by a slice descent over the truncation levels c_u."""
    (a0, q0), (a1, q1) = side0, side1
    if not (1.0 <= q0 < INF and 1.0 <= q1 < INF):
        # the slice search below assumes a convex program of finite norms
        raise ValueError(f"the endpoint Herz K needs finite outer exponents >= 1 or (1, inf), "
                         f"got ({q0}, {q1})")
    if not prof.us:
        return 0.0
    w0 = [2.0 ** (u * a0) for u in prof.us]
    w1 = [2.0 ** (u * a1) for u in prof.us]
    tops = prof.tops
    cost = prof.truncation_cost

    def objective(cs: list[float]) -> float:
        part0 = [wa * cost(i, c) for i, (wa, c) in enumerate(zip(w0, cs))]
        part1 = [wb * c for wb, c in zip(w1, cs)]
        return lq_norm(part0, q0) + t * lq_norm(part1, q1)

    cs = [0.5 * top for top in tops]
    value = objective(cs)
    top_scale = max(max(tops), 1e-300)
    for sweep in range(200):
        moved = 0.0
        gtol = max(1e-12, 1e-4 * 0.1**sweep) * top_scale
        for i, top in enumerate(tops):

            def slice_fun(x: float, i: int = i) -> float:
                old = cs[i]
                cs[i] = x
                v = objective(cs)
                cs[i] = old
                return v

            x_new, v_new = _golden_min(slice_fun, 0.0, top, gtol)
            for cand in (0.0, top):
                v_c = slice_fun(cand)
                if v_c < v_new:
                    x_new, v_new = cand, v_c
            if v_new < value:
                moved = max(moved, abs(x_new - cs[i]))
                cs[i] = x_new
                value = v_new
        if moved < 1e-11 * top_scale:
            break
    return value


def _endpoint_lines(
    prof: AnnulusProfile, side0: tuple[float, float], side1: tuple[float, float]
) -> Lines | None:
    """The lines of the endpoint Herz K for outer exponents (1, 1) and (1, inf).

    Capping the bounded part of annulus u at beta / w1_u leaves
    (w0_u / w1_u) integral (w1_u f* - beta)_+, convex and piecewise linear in
    beta with kinks at the level caps beta = w1_u c (c a level of f* there),
    so K is attained at a cap: per annulus for (1, 1), shared for (1, inf).
    """
    (a0, q0), (a1, q1) = side0, side1
    if q0 != 1.0 or q1 not in (1.0, INF):
        return None
    pieces = [
        (2.0 ** (u * a0) / 2.0 ** (u * a1), 2.0 ** (u * a1) * np.array(levels), np.array(m))
        for u, levels, m in zip(prof.us, prof.levels, prof.masses)
    ]

    def group(part: list[tuple[float, np.ndarray, np.ndarray]]) -> tuple[np.ndarray, ...]:
        caps = np.concatenate([[0.0], *(c for _, c, _ in part)])
        cost = sum((r * np.maximum(c - caps[:, None], 0.0) @ m for r, c, m in part),
                   np.zeros_like(caps))
        return cost, caps

    return _lines([group([p]) for p in pieces] if q1 == 1.0 else [group(pieces)])


def k_functional_herz_endpoint(
    t: float,
    f: RadialStepFunction,
    couple: CoupleSpec,
    tol: float = 1e-8,
) -> float:
    """K(t, f) for couples of Herz-type spaces over the endpoint base pair.

    Coordinates are the annulus pieces; the side-0 norm aggregates their
    integrals (integrable base), the side-1 norm their sup levels (bounded
    base).  The optimal split of each coordinate is a level truncation
    f_u = (f_u - c_u)_+ + min(f_u, c_u).  K is read through the evaluator of
    interpolation_norm: exact over the level caps for outer exponents (1, 1)
    and (1, inf) (at zero weights (L^1, L^inf), K = integral_0^t f*), by a
    per-coordinate descent for other finite exponents >= 1; an exponent
    below 1 or another infinite one raises ValueError.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if couple.base != "l1-linf":
        raise ValueError("this routine is for the endpoint base couple")
    return _k_evaluator(annulus_profile(f), couple, tol)[0](t)


# ---------------------------------------------------------------------------
# interpolation norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterpNormResult:
    value: float
    lower: float
    upper: float


def _endpoint_norms(
    source: WeightedSeq | AnnulusProfile, couple: CoupleSpec
) -> tuple[float, float]:
    a0, q0 = couple.side0
    a1, q1 = couple.side1
    if isinstance(source, AnnulusProfile):
        return (
            weighted_lq(dict(zip(source.us, source.integrals)), a0, q0),
            weighted_lq(dict(zip(source.us, source.tops)), a1, q1),
        )
    return ell_norm(source, a0, q0), ell_norm(source, a1, q1)


def _k_evaluator(
    source: WeightedSeq | AnnulusProfile, couple: CoupleSpec, tol: float
) -> tuple[Callable[[float], float], float, float]:
    """t -> K(t), with its corner range (t_lo, t_hi): K(t) = t N1 exactly for
    t <= t_lo and K(t) = N0 for t >= t_hi.  (0, inf) where no corner is known."""
    if isinstance(source, AnnulusProfile):
        lines = _endpoint_lines(source, couple.side0, couple.side1)
        if lines is None:
            return lambda t: _k_herz_endpoint(t, source, couple.side0, couple.side1), 0.0, INF
        return lambda t: _envelope(lines, t), *_envelope_corners(lines)
    a_vec, b_vec = _side_vectors(source, couple)
    corners = _k_corners(a_vec, b_vec, couple.side0[1], couple.side1[1])
    return lambda t: k_functional(t, source, couple, tol), *corners


# Samples of K per octave of t when the sup form (q = inf) is taken on the grid.
_POINTS_PER_OCTAVE = 16


def interpolation_norm(
    source: WeightedSeq | RadialStepFunction | AnnulusProfile,
    params: InterpolationParams,
    couple: CoupleSpec,
) -> InterpNormResult:
    """Real-interpolation norm (integral of (t^{-theta} K)^q dt/t)^{1/q}.

    K(t) = t N1 exactly below the lower corner of K and K(t) = N0 above the
    upper one, so those two ranges are integrated in closed form and
    per-octave adaptive quadrature in log t runs only between the corners,
    clipped to [2^-T, 2^T].  A truncated tail beyond a window end that no
    corner covers is bracketed analytically from K(t) <= min(N0, t N1)
    together with monotonicity of K and K(t)/t.  The endpoint Herz couple
    with exponents other than (1, 1) and (1, inf) has no corners and keeps
    the full window, as does the sup form (q = inf), which samples K on the
    log grid.
    The reported value is the midpoint of the rigorous bracket.  Functions
    (endpoint couple) are read through their annulus profile, built once.
    """
    theta, q = params.theta, params.q
    if couple.base == "l1-linf":
        source = annulus_profile(source)
    n0, n1 = _endpoint_norms(source, couple)
    if n0 == 0.0 and n1 == 0.0:
        return InterpNormResult(0.0, 0.0, 0.0)
    k_of, corner_lo, corner_hi = _k_evaluator(source, couple, params.rel_tol)
    T = params.t_exponent_bound

    if q == INF:
        best = 0.0
        for j in range(-T * _POINTS_PER_OCTAVE, T * _POINTS_PER_OCTAVE + 1):
            t = 2.0 ** (j / _POINTS_PER_OCTAVE)
            best = max(best, k_of(t) / t**theta)
        if theta == 0.0:
            best = max(best, n0)  # K increases to the side-0 norm
        if theta == 1.0:
            best = max(best, n1)  # K(t)/t increases to the side-1 norm as t -> 0
        return InterpNormResult(best, best, best)

    t_lo = min(max(corner_lo, 2.0**-T), 2.0**T)
    t_hi = min(max(corner_hi, t_lo), 2.0**T)
    ln2 = math.log(2.0)

    def integrand(x: float) -> float:
        t = math.exp(x)
        return (k_of(t) / t**theta) ** q

    x_lo, x_hi = math.log(t_lo), math.log(t_hi)
    cuts = [x_lo, *(j * ln2 for j in range(-T + 1, T) if x_lo < j * ln2 < x_hi), x_hi]
    main = 0.0
    for x, x_next in zip(cuts, cuts[1:]):
        if x < x_next:
            main += adaptive_simpson(integrand, x, x_next, rel_tol=params.rel_tol)

    # upper tail t >= t_hi: K = N0 past the corner, else K(t_hi) <= K(t) <= min(n0, t n1)
    hi_upper = _tail_upper_high(n0, n1, t_hi, theta, q)
    if t_hi >= corner_hi:
        hi_lower = hi_upper
    else:
        hi_lower = min(k_of(t_hi) ** q * t_hi ** (-theta * q) / (theta * q), hi_upper)
    # lower tail t <= t_lo: K = t N1 below the corner, else (t/t_lo) K(t_lo) <= K(t)
    lo_upper = _tail_upper_low(n0, n1, t_lo, theta, q)
    if t_lo <= corner_lo:
        lo_lower = lo_upper
    else:
        slope = k_of(t_lo) / t_lo
        lo_lower = min(slope**q * t_lo ** ((1.0 - theta) * q) / ((1.0 - theta) * q), lo_upper)

    lower_q = main + hi_lower + lo_lower
    upper_q = main + hi_upper + lo_upper
    mid_q = 0.5 * (lower_q + upper_q)
    return InterpNormResult(
        mid_q ** (1.0 / q), lower_q ** (1.0 / q), upper_q ** (1.0 / q)
    )


def _tail_upper_high(n0: float, n1: float, t_hi: float, theta: float, q: float) -> float:
    """Exact integral of (t^-theta min(n0, t n1))^q dt/t over [t_hi, inf)."""
    if n0 == 0.0:
        return 0.0
    cross = n0 / n1 if n1 > 0 else 0.0
    out = 0.0
    lo = t_hi
    if cross > t_hi:
        # min is t n1 up to the crossover
        e = (1.0 - theta) * q
        out += n1**q * (cross**e - lo**e) / e
        lo = cross
    e = theta * q
    out += n0**q * lo ** (-e) / e
    return out


def _tail_upper_low(n0: float, n1: float, t_lo: float, theta: float, q: float) -> float:
    """Exact integral of (t^-theta min(n0, t n1))^q dt/t over (0, t_lo]."""
    if n1 == 0.0:
        return 0.0
    cross = n0 / n1 if n1 > 0 else INF
    out = 0.0
    hi = t_lo
    if cross < t_lo:
        e = theta * q
        out += n0**q * (cross ** (-e) - hi ** (-e)) / e if e > 0 else INF
        hi = cross
    e = (1.0 - theta) * q
    out += n1**q * hi**e / e
    return out


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
    t_exponent_bound: int = 28,
    rel_tol: float = 1e-8,
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
        # hl-4 against the HL norm with p = 1/(1-theta) and r = q
        if q0 == INF or q1 == INF:
            raise ValueError(f"{suite} requires finite outer exponents")
        q_target = 1.0 / ((1.0 - theta) / q0 + theta / q1)
        a = (1.0 - theta) * a0 + theta * a1
        couple = CoupleSpec((a0, q0), (a1, q1), base="l1-linf")
        hl_target = HerzParams(a, 1.0 / (1.0 - theta), q_target, q_target)
    else:
        raise ValueError(f"unknown interpolation suite {suite!r}")
    params = InterpolationParams(theta, q_target, t_exponent_bound, rel_tol)

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
        pairs = [(annulus_profile(f), scale(f, 2)) for f in corpus if not f.is_zero()]

        def target(prof: AnnulusProfile) -> float:
            if suite == "lorentz":
                return lorentz_star_norm(prof.merged_rearrangement(), lorentz_target)
            return hl_norm(prof, hl_target, starred=suite == "hl-3")

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
