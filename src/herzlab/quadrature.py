"""Quadrature: a certified power integral, and adaptive Simpson.

`power_integral` brackets the integral of t^gamma (A + B t)^r dt/t over a
piece [t0, t1] on which A + B t is the chord through (t0, k0) and (t1, k1).
That form covers the interior segments of the averaged-profile Lorentz norm
(t f**(t) is such a chord between knots) and the real-interpolation integral
wherever K is piecewise linear.  It runs Gauss-Legendre in x = log t with
the Bernstein-ellipse error bound and a rounding term, so the bracket is a
certificate, not an estimate.

`adaptive_simpson` is the small in-house integrator that remains for
interpolation integrals of K without a known piecewise-linear form (the
front and sup-finish K branches); it certifies nothing and accepts an
interval silently at its depth cap.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["adaptive_simpson", "power_integral"]

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


def power_integral(
    t0: float, t1: float, k0: float, k1: float, gamma: float, r: float
) -> tuple[float, float]:
    """Certified bracket (lo, hi) of the integral of t^gamma k(t)^r dt/t over
    [t0, t1], where k is the chord through (t0, k0) and (t1, k1).

    Where the chord k(t) = A + B t stays positive on [t0 e^-2, t1 e^2] (a
    nondecreasing chord with A >= 0 up to rounding, as a concave K or
    t f**(t) between knots gives, unless the piece is a few ulps wide), the
    piece splits in x = log t into sub-intervals of log-length at most
    1 / max(1, |gamma| + r), each integrated by 12-point Gauss-Legendre.
    On a sub-interval of half-length h the Bernstein ellipse with semi-minor
    axis b = pi/2 has rho = b/h + sqrt((b/h)^2 + 1) and semi-major axis
    a = sqrt(b^2 + h^2); |e^{gamma z} k(e^z)^r| <= e^{gamma Re z}
    (|A| + |B| e^{Re z})^r is log-convex in Re z, so its largest value M on
    the ellipse sits at x_mid - a or x_mid + a.  The truncation error is at
    most h (64/15) M rho^{-24} / (rho^2 - 1) (Trefethen, Approximation
    Theory and Approximation Practice, Thm 19.3).  A first-order bound on the
    rounding of the nodes, the evaluations and the sums is added on top.  Any
    other chord, nonnegative on the piece, gets the bracket of the extremes
    of t^gamma and k^r there.
    """
    if not (t0 > 0.0 and t1 >= t0 and math.isfinite(t1)):
        raise ValueError("power_integral needs 0 < t0 <= t1 < inf")
    if not (k0 >= 0.0 and k1 >= 0.0 and r > 0.0):
        raise ValueError("power_integral needs a nonnegative chord and r > 0")
    if t1 == t0 or k0 == k1 == 0.0:
        return 0.0, 0.0
    spread = abs(gamma) + r
    x0 = math.log(t0)
    span = math.log1p((t1 - t0) / t0)
    # each value moves by at most (|gamma| + r) times its node's rounding,
    # about (|x| + 1) ulps, plus a few ulps per operation and per summand
    rel = 4.0 * _UNIT_ROUNDOFF * (len(_GL_NODES) + 8 + 2 * r + spread * (abs(x0) + span + 2.0))
    slope = (k1 - k0) / (t1 - t0)
    intercept = k0 - slope * t0
    if min(intercept + slope * t0 * math.exp(-2.0), intercept + slope * t1 * math.exp(2.0)) <= 0.0:
        # a zero of the chord within e^2 of the piece (the ellipses reach at
        # most hypot(pi/2, 1/2) < 2 out) is a branch point of k^r, as is a
        # slope made of rounding on a piece a few ulps wide: bracket by the
        # extremes of the two monotone factors t^gamma and k^r on the piece
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
