"""Quadrature: one certified integral of (t^-theta K)^q dt/t for a
piecewise-linear K, and adaptive Simpson.

`power_integral` brackets the integral of t^gamma (A + B t)^r dt/t over a
chord of K: for an integer r below 12 by its binomial closed form, r + 1
scalar terms, and otherwise by Gauss-Legendre in x = log t with the
Bernstein-ellipse error bound.  Either bracket adds a derived rounding
term, so it is a certificate, not an estimate.
`k_norm` sums those brackets over the chords between K's nodes and adds
one tail bracket (_tail) beyond each end.  The real-interpolation norm
takes it on every line branch of K, and the averaged-profile Lorentz norm
with K(t) = t f**(t), since (L^1, L^inf)_{theta,q} = L^{p,q} for
1/p = 1 - theta (Bergh-Lofstrom, Interpolation Spaces, 5.2).
`adaptive_simpson`, which certifies nothing and accepts an interval
silently at its depth cap, gives `k_norm` the main part on the front and
sup-finish K branches, where K has no known piecewise-linear form; it
integrates the K that k_norm has scaled, as the chords do.
`lq_norm` is the one weighted l^q aggregator, (sum_i w_i v_i^q)^(1/q), of
Herz sums, K side norms and step-function integrals alike; `root` takes
the 1/q-th power of such a sum, inf where that overflows.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

import numpy as np

__all__ = ["adaptive_simpson", "k_norm", "lq_norm", "power_integral", "root"]

# Subdivision depth at which an interval is accepted whatever its error.
_MAX_DEPTH = 48


def _simpson(fa: float, fm: float, fb: float, a: float, b: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _recurse(
    f: Callable[[float], float],
    a: float,
    b: float,
    fa: float,
    fm: float,
    fb: float,
    whole: float,
    tol: float,
    depth: int,
) -> float:
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, a, m)
    right = _simpson(fm, frm, fb, m, b)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    return _recurse(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _recurse(
        f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
) -> float:
    """Integrate f over [a, b] by adaptive Simpson subdivision.

    The tolerance used per interval is rel_tol * |coarse pass|, so callers
    controlling relative error on smooth integrands get it without knowing
    the scale in advance.
    """
    if not a < b:
        if a == b:
            return 0.0
        raise ValueError("integration bounds must satisfy a <= b")
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = _simpson(fa, fm, fb, a, b)
    scale = abs(whole)
    if scale == 0.0:
        # probe a few interior points before deciding the integrand vanishes
        probes = [a + (b - a) * x for x in (0.21, 0.5 - 1e-3, 0.63, 0.87)]
        scale = max(abs(f(x)) for x in probes) * (b - a)
        if scale == 0.0:
            return 0.0
    tol = max(rel_tol * scale, 1e-300)
    return _recurse(f, a, b, fa, fm, fb, whole, tol, _MAX_DEPTH)


def root(total: float, r: float) -> float:
    """total^(1/r) of a float total >= 0, and inf where that power exceeds the
    largest float (r < 1), which a float power reports by OverflowError."""
    try:
        return total ** (1.0 / r)
    except OverflowError:
        return math.inf


def lq_norm(vals: Sequence[float] | np.ndarray, q: float,
            weights: np.ndarray | float | None = None) -> float:
    """(sum_i w_i v_i^q)^(1/q) of nonnegative values v_i, and the largest v_i
    at q = inf; zero values are skipped.  The weights w_i >= 0 (finite q
    only) are 1 when omitted and all `weights` when it is a float.

    The sum is the math.fsum of math.pow(v, q), or of numpy's w v^q.  Where
    it lies outside [2^-64, 2^64] (a power or the sum may have overflowed or
    underflowed, and the error of the 1/q-th power grows with |log sum|
    since 1/q is inexact), it is redone with the values scaled by the
    largest, so a norm that a float holds is returned to within rounding;
    an infinite value, or a norm beyond the largest float, gives inf.
    """
    if not len(vals):
        return 0.0
    top = max(vals) if weights is None else float(np.max(vals))
    if q == math.inf or top == math.inf or top == 0.0:
        return top
    if weights is None:
        try:
            total = math.fsum(math.pow(v, q) for v in vals if v != 0.0)
        except OverflowError:
            total = math.inf
    else:
        with np.errstate(over="ignore"):  # numpy's power gives inf where math.pow raises
            total = math.fsum((weights * np.power(vals, q)).tolist())
    if 2.0**-64 <= total <= 2.0**64:
        return root(total, q)
    if weights is None:
        return top * root(math.fsum(math.pow(v / top, q) for v in vals if v != 0.0), q)
    return top * root(math.fsum((weights * np.power(np.divide(vals, top), q)).tolist()), q)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n from the three-term recurrence, started at the
    Tricomi estimate cos(pi (i - 1/4) / (n + 1/2)), converges to full double
    precision in a few steps; the weight is 2 / ((1 - x^2) P_n'(x)^2).
    """
    nodes, weights = [], []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(8):
            p_prev, p = 1.0, x
            for k in range(2, n + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            dp = n * (x * p - p_prev) / (x * x - 1.0)
            x -= p / dp
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return np.array(nodes), np.array(weights)


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(12)
# Semi-minor axis of the Bernstein ellipses, well inside the strip |Im x| < pi
# where e^{gamma x} (A + B e^x)^r is analytic whenever the chord A + B t stays
# positive on the real part of the ellipse (A + B e^x is real only for real x).
_ELLIPSE_B = 0.5 * math.pi
_UNIT_ROUNDOFF = 2.0**-53
# k_norm rescales K when v^q, v = N0^(1-theta) N1^theta, lies beyond 2^(+-this).
_POWER_RANGE = 960
# C(r, j) of the integer exponents r that take the closed form.
_BINOMIALS = [[float(math.comb(r, j)) for j in range(r + 1)] for r in range(len(_GL_NODES))]
# The closed form takes factors of at least _TINY, a normal float with a bit
# to spare, and terms of at most _HUGE, whose sum stays a float; a term that
# falls below the normal range is off by at most _UNDERFLOW.
_TINY, _HUGE, _UNDERFLOW = 2.0**-1021, 2.0**1019, 2.0**-1073
# A chord is clear of its zero on [t0 / e^2, t1 e^2].
_SHRINK, _STRETCH = math.exp(-2.0), math.exp(2.0)


def power_integral(
    t0: float, t1: float, k0: float, k1: float, gamma: float, r: float
) -> tuple[float, float]:
    """Certified bracket (lo, hi) of the integral of t^gamma k(t)^r dt/t over
    [t0, t1], where k is the chord through (t0, k0) and (t1, k1).

    A chord k(t) = A + B t with a zero in [t0 e^-2, t1 e^2] (a slope made of
    rounding on a piece a few ulps wide, say) gets the bracket of the
    extremes of t^gamma and k^r on the piece.  Any other chord (a
    nondecreasing one with A >= 0, as a concave K or t f**(t) between knots
    gives) is integrated in closed form when r is an integer with
    r + 1 <= len(_GL_NODES), and by Gauss-Legendre otherwise.

    Closed form.  With s = log(t1/t0) and e_j = gamma + j, the integral is
    the sum of the r + 1 terms C(r, j) A^(r-j) (B t0)^j t0^gamma G_j, with
    G_j = expm1(e_j s)/e_j (s where e_j = 0).  A term is formed as
    C(r, j) G_j (t0^gamma c^r) a^(r-j) b^j, with c = |A| + |B t0|, a = A/c
    and b = B t0/c.  The factors after the first three are at most 1 in
    size, so once t0^gamma, c^r, their product, G_0 and the nonzero ones of
    B, B t0, a^r and b^r are at least 2^-1021, only the last three products
    of a term can fall below the normal range, each off by at most 2^-1075
    there, which the later factors do not enlarge: under 2^-1073 a term.
    To first order in u = 2^-53, and relative to S = sum_j |term_j|
    (the integral of t^gamma (|A| + |B| t)^r dt/t), the error counts: the
    chord, where B carries 3u, B t0 4u and A = k0 - B t0 is off by
    u |A| + 4u |B t0|, so k moves by at most 8u (|A| + |B| t) on [t0, t1]
    and k^r by 8ru; the powers and products, where a and b carry u each,
    raised to the powers r - j and j, each power 2u, c^r and t0^gamma 2u
    each and the five products u each, (r + 13)u; G_j, with x_j = e_j s,
    where s carries 4u (two operations and log1p), which moves G_j by
    4u (1 + |x_j|) as |d log G_j / d log s| <= 1 + |x_j|, the rounding of
    e_j moves it by u |x_j| as |d log G_j / d log e_j| <= |x_j|, that of
    e_j s by u (1 + |x_j|), expm1 by 2u and the division by u,
    (8 + 6 |x_j|)u; and the sum, u.  The bracket is value -+ (rel S +
    (r + 1) 2^-1073), rel = 2u (9r + 22 + 6 s max_j |e_j|), twice the
    first-order total so that it covers the second-order terms and the
    rounding of value -+ err.  As the chord stays positive on
    [t0 e^-2, t1 e^2], S is at most ((1 + e^-2)/(1 - e^-2))^r < 1.32^r times
    the integral.  A factor below 2^-1021 or a term above 2^1019 (or one
    that is not finite) sends the chord to Gauss-Legendre.

    Gauss-Legendre.  The piece splits in x = log t into sub-intervals of
    log-length at most 1 / max(1, |gamma| + r), each integrated by 12-point
    Gauss-Legendre.  On a sub-interval of half-length h the Bernstein
    ellipse with semi-minor axis b = pi/2 has rho = b/h + sqrt((b/h)^2 + 1)
    and semi-major axis a = sqrt(b^2 + h^2); |e^{gamma z} k(e^z)^r| <=
    e^{gamma Re z} (|A| + |B| e^{Re z})^r is log-convex in Re z, so its
    largest value M on the ellipse sits at x_mid - a or x_mid + a.  The
    truncation error is at most h (64/15) M rho^{-24} / (rho^2 - 1)
    (Trefethen, Approximation Theory and Approximation Practice, Thm 19.3).
    A first-order bound on the rounding of the nodes, the evaluations and
    the sums is added on top.
    """
    if not (t0 > 0.0 and t1 >= t0 and math.isfinite(t1)):
        raise ValueError("power_integral needs 0 < t0 <= t1 < inf")
    if not (k0 >= 0.0 and k1 >= 0.0 and r > 0.0):
        raise ValueError("power_integral needs a nonnegative chord and r > 0")
    if t1 == t0 or k0 == k1 == 0.0:
        return 0.0, 0.0
    if r < len(_GL_NODES) and r == int(r):
        bracket = _binomial_bracket(t0, t1, k0, k1, gamma, int(r))
        if bracket is not None:
            return bracket
    return _legendre_bracket(t0, t1, k0, k1, gamma, r)


def _chord(t0: float, t1: float, k0: float, k1: float) -> tuple[float, float, float, bool]:
    """log(t1/t0), slope and intercept of the chord, and whether it stays
    positive on [t0 e^-2, t1 e^2] (the ellipses reach at most
    hypot(pi/2, 1/2) < 2 out)."""
    span = math.log1p((t1 - t0) / t0)
    slope = (k1 - k0) / (t1 - t0)
    intercept = k0 - slope * t0
    clear = min(intercept + slope * t0 * _SHRINK, intercept + slope * t1 * _STRETCH) > 0.0
    return span, slope, intercept, clear


def _binomial_bracket(
    t0: float, t1: float, k0: float, k1: float, gamma: float, r: int
) -> tuple[float, float] | None:
    """power_integral's closed-form bracket for an integer r, or None where
    the chord has a zero within e^2 of the piece or a factor or term leaves
    the accepted range."""
    span, slope, intercept, clear = _chord(t0, t1, k0, k1)
    rise = slope * t0
    if not clear or not (k0 == k1 or _TINY <= min(abs(slope), abs(rise))):
        return None
    size = abs(intercept) + abs(rise)
    a, b = intercept / size, rise / size
    try:
        scale, power = t0**gamma, size**r
        common = scale * power
        growth = [math.expm1(e * span) / e if e else span for e in [gamma + j for j in range(r + 1)]]
        terms = [c * g * common * a ** (r - j) * b**j
                 for j, (c, g) in enumerate(zip(_BINOMIALS[r], growth))]
        total = math.fsum(map(abs, terms))
    except OverflowError:
        return None
    if not (total <= _HUGE and _TINY <= min(scale, power, common, growth[0])
            and (intercept == 0.0 or _TINY <= abs(a**r))
            and (k0 == k1 or _TINY <= abs(b**r))):
        return None
    rel = 2.0 * _UNIT_ROUNDOFF * (9 * r + 22 + 6.0 * span * max(abs(gamma), abs(gamma + r)))
    value = math.fsum(terms)
    err = rel * total + (r + 1) * _UNDERFLOW
    return max(value - err, 0.0), value + err


def _legendre_bracket(
    t0: float, t1: float, k0: float, k1: float, gamma: float, r: float
) -> tuple[float, float]:
    """power_integral's Gauss-Legendre bracket, or the extremes bracket of a
    chord with a zero within e^2 of the piece."""
    span, slope, intercept, clear = _chord(t0, t1, k0, k1)
    spread = abs(gamma) + r
    x0 = math.log(t0)
    # each value moves by at most (|gamma| + r) times its node's rounding,
    # about (|x| + 1) ulps, plus a few ulps per operation and per summand
    rel = 4.0 * _UNIT_ROUNDOFF * (len(_GL_NODES) + 8 + 2 * r + spread * (abs(x0) + span + 2.0))
    if not clear:
        # a zero of the chord is a branch point of k^r, as is a slope made of
        # rounding on a piece a few ulps wide: bracket by the extremes of the
        # two monotone factors t^gamma and k^r on the piece
        powers = (t0**gamma, t1**gamma)
        return (span * min(powers) * min(k0, k1) ** r * (1.0 - rel),
                span * max(powers) * max(k0, k1) ** r * (1.0 + rel))
    m = max(1, math.ceil(span * max(1.0, spread)))
    h = 0.5 * span / m
    mids = x0 + h * (2.0 * np.arange(m) + 1.0)
    x = mids[:, None] + h * _GL_NODES
    t = np.exp(x)
    chord = ((t1 - t) * k0 + (t - t0) * k1) / (t1 - t0)
    values = np.exp(gamma * x) * chord**r
    value = h * math.fsum(values @ _GL_WEIGHTS)

    b_h = _ELLIPSE_B / h
    rho = b_h + math.sqrt(b_h * b_h + 1.0)
    reach = math.hypot(_ELLIPSE_B, h)
    ends = np.concatenate((mids - reach, mids + reach))
    bounds = np.exp(gamma * ends) * (abs(intercept) + abs(slope) * np.exp(ends)) ** r
    top = np.maximum(bounds[:m], bounds[m:])
    truncation = h * (64.0 / 15.0) * rho ** (-2 * len(_GL_NODES)) / (rho * rho - 1.0)
    err = truncation * math.fsum(top) * (1.0 + 1e-12) + rel * value
    return max(value - err, 0.0), value + err


def _tail(
    n0: float, n1: float, t0: float, theta: float, q: float, k0: float | None
) -> tuple[float, float]:
    """Bracket of the integral of (t^-theta K(t))^q dt/t over [t0, inf), for
    K of norms n0, n1 > 0.  The lower tail is this one of the swapped couple
    at 1/t0, whose K at 1/t is K(t)/t.

    The upper end integrates K(t) <= min(n0, t n1) exactly, and is the value
    itself when k0 is None (K = n0 on [t0, inf)).  Otherwise k0 = K(t0) <= K(t)
    gives the lower end k0^q t0^(-theta q) / (theta q).  Where a factor of
    the upper end (n0/n1, a power of n0, n1, n0/n1 or t0) leaves the normal
    float range, both pieces are formed through the value n0^(1-theta)
    n1^theta of t^-theta min(n0, t n1) at the crossover instead.
    """
    e0, e1 = theta * q, (1.0 - theta) * q
    cross = n0 / n1  # where t n1 meets n0
    rise = cross > t0  # K <= t n1 on [t0, cross]
    p0, c0 = n0**q, max(cross, t0) ** -e0
    p1, c1, d1 = (n1**q, cross**e1, t0**e1) if rise else (1.0, 1.0, 1.0)
    if all(sys.float_info.min <= x < math.inf for x in (cross, p0, c0, p1, c1, d1)):
        upper = p0 * c0 / e0 + (p1 * (c1 - d1) / e1 if rise else 0.0)
    else:
        v_q, s = (n0 ** (1.0 - theta) * n1**theta) ** q, (t0 / cross if cross else math.inf)
        upper = v_q * s**-e0 / e0 if s >= 1.0 else v_q / e0 + v_q * (1.0 - s**e1) / e1
    lower = upper if k0 is None else min(k0**q * t0**-e0 / e0, upper)
    return lower, upper


def k_norm(
    k: Callable[[float], float],
    ts: Sequence[float],
    corners: tuple[float, float],
    norms: tuple[float, float],
    theta: float,
    q: float,
    main: Callable[[Callable[[float], float]], tuple[float, float]] | None = None,
) -> tuple[float, float, float]:
    """(value, lower, upper) of (integral of (t^-theta K(t))^q dt/t)^(1/q).

    K, of norms (N0, N1) both > 0, is t N1 up to corners[0] and N0 from
    corners[1] on, and is read through `k` at the sorted nodes `ts`, whose
    first and last are the window ends.  For finite q the main part is the
    `math.fsum` of the `power_integral` brackets of the chords between the
    nodes, or `main(k)`, the caller's bracket of the window integral of the
    K that it is handed, and a window of zero width reads no K.
    Each tail is one bracket, exact where a corner covers its end; the value
    is the midpoint of the bracket of the q-th power.  Where the q-th power
    of v = N0^(1-theta) N1^theta, the size of the integrand, would leave the
    normal float range, K and both norms are first divided by the power of
    two nearest v (exactly, if both scaled norms stay normal), `main`
    included, and the results multiplied back.  For q = inf, with K
    linear between the nodes, t^-theta (A + B t) has no interior maximum, so
    the value is the largest t^-theta K at the nodes, or N0 at theta = 0
    and N1 at theta = 1 if larger, and lower == upper == value.
    """
    n0, n1 = norms
    if q == math.inf:  # K rises to N0, and K(t)/t to N1 as t -> 0
        best = max(0.0, *(k(t) / t**theta for t in ts),
                   n0 if theta == 0.0 else 0.0, n1 if theta == 1.0 else 0.0)
        return best, best, best
    log_v, scale = (1.0 - theta) * math.log2(n0) + theta * math.log2(n1), 1.0
    if _POWER_RANGE < abs(log_v * q) < math.inf:
        s = math.ldexp(1.0, max(-1022, min(round(log_v), 1023)))
        if all(sys.float_info.min <= n / s < math.inf for n in norms):
            scale, unscaled, n0, n1 = s, k, n0 / s, n1 / s

            def k(t: float) -> float:
                return unscaled(t) / scale

    t_lo, t_hi = ts[0], ts[-1]
    if main is None:
        nodes = ts if t_lo < t_hi else []
        ks = [k(t) for t in nodes]
        pieces = [power_integral(t0, t1, k0, k1, -theta * q, q)
                  for t0, t1, k0, k1 in zip(nodes, nodes[1:], ks, ks[1:])]
        bracket = tuple(math.fsum(piece[i] for piece in pieces) for i in (0, 1))
    else:
        bracket = main(k)
    hi = _tail(n0, n1, t_hi, theta, q, None if t_hi >= corners[1] else k(t_hi))
    lo = _tail(n1, n0, 1.0 / t_lo, 1.0 - theta, q,
               None if t_lo <= corners[0] else k(t_lo) / t_lo)
    lower_q, upper_q = (m + h + l for m, h, l in zip(bracket, hi, lo))
    return tuple(scale * x ** (1.0 / q) for x in (0.5 * (lower_q + upper_q), lower_q, upper_q))
