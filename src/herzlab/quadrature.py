"""Adaptive Simpson quadrature.

Small self-contained integrator used for the smooth piecewise-rational
integrands that appear in average-rearrangement norms and interpolation
integrals.  Kept in-house so the test suite can cross-check against an
independent library integrator.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["adaptive_simpson"]

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
