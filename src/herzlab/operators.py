"""Size-condition operators on uniformly sampled 1-d functions.

The uncentered maximal operator is evaluated exactly over the family of
intervals with endpoints on the grid (plus the evaluation point itself): for
grid step functions an optimal interval can always be slid to that family,
so the values are exact, and they converge to the true maximal function from
below under refinement.  The sup over that family is a tangent search on the
upper hull of the cumulative integral at the nodes where |f| changes level,
so its cost is O(K + n log D) for n cells, K level changes and D the
longest hull path.  The Hilbert transform uses the exact log primitive of
the kernel against piecewise-constant data, assembled with an FFT.

A grid's cells are read-only, so what depends on them alone is built once
and kept: `GridFunction1D.profile` (its annulus profile: the same float data
as a radial step function's, with per-(p, r) annulus scores kept in turn)
and `GridFunction1D.refine` (the refined grid, with a profile of its own).
The maximal and Hilbert sweeps over one corpus share both, and
`interpolated_boundedness_check`'s diagonal is one sweep row.  A profile
costs per grid four searches, one width array and the overlaps of the few
cells a radius cuts (any other lies within one side, so its overlap is its
width), and one stable sort per annulus.  The Hilbert log kernel's spectrum
depends only on the grid shape and is kept for the last few shapes.  The
size condition and the sweeps share one drift rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .herz import AnnulusProfile, HerzParams, annulus_measure, annulus_weights, hl_norm
from .lorentz import INF, LorentzParams, char_norm_constant, conjugate_exponent
from .quadrature import lq_norm
from .rearrange import unit_ball_volume
from .reporting import Comparison

__all__ = [
    "GridFunction1D",
    "BoundednessReport",
    "WitnessReport",
    "grid_indicator",
    "maximal_operator",
    "maximal_at_points",
    "hilbert_transform",
    "hilbert_at_points",
    "kernel_integral_at_points",
    "size_condition_check",
    "annulus_interaction_bound",
    "annulus_interaction_scan",
    "grid_annulus_profiles",
    "hl_norm_from_profiles",
    "grid_hl_norm",
    "grid_lp_norm",
    "in_window_weights",
    "boundedness_sweep",
    "out_of_range_witness",
    "interpolated_boundedness_check",
]


@dataclass(frozen=True, eq=False)
class GridFunction1D:
    """Uniformly sampled function on [-R, R]: one value per cell.

    The cells are a read-only float64 array, copied from the input once, so
    the annulus profile and the refinement, built on first use, are kept on
    the instance and cannot go stale.
    """

    half_width: float
    values: np.ndarray  # any flat sequence of numbers on input

    def __post_init__(self) -> None:
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError("half width must be positive and finite")
        values = np.array(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("cell values must be a flat sequence")
        if len(values) < 2 or len(values) % 2:
            raise ValueError("cell count must be even and at least 2")
        if not np.isfinite(values).all():
            raise ValueError("cell values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridFunction1D):
            return NotImplemented
        return self.half_width == other.half_width and np.array_equal(self.values, other.values)

    @property
    def n_cells(self) -> int:
        return len(self.values)

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.n_cells

    def nodes(self) -> np.ndarray:
        return -self.half_width + self.h * np.arange(self.n_cells + 1)

    def centers(self) -> np.ndarray:
        return -self.half_width + self.h * (np.arange(self.n_cells) + 0.5)

    def array(self) -> np.ndarray:
        return self.values

    def refine(self) -> "GridFunction1D":
        """Same function on a doubled grid (each cell split in two), built once."""
        return self._refined

    @functools.cached_property
    def _refined(self) -> "GridFunction1D":
        return GridFunction1D(self.half_width, np.repeat(self.values, 2))

    @functools.cached_property
    def profile(self) -> AnnulusProfile:
        """Annulus profile of the cells (see grid_annulus_profiles), built once."""
        return grid_annulus_profiles(self)

    def value_at(self, x: float) -> float:
        if not -self.half_width <= x < self.half_width:
            return 0.0
        i = int((x + self.half_width) / self.h)
        return float(self.values[min(i, self.n_cells - 1)])


def grid_indicator(
    half_width: float, n_cells: int, lo: float, hi: float, two_sided: bool = False
) -> GridFunction1D:
    """Indicator of [lo, hi) (or {lo <= |x| < hi}) sampled on the grid."""
    h = 2.0 * half_width / n_cells
    centers = -half_width + h * (np.arange(n_cells) + 0.5)
    if two_sided:
        mask = (np.abs(centers) >= lo) & (np.abs(centers) < hi)
    else:
        mask = (centers >= lo) & (centers < hi)
    return GridFunction1D(half_width, mask.astype(float))


# ---------------------------------------------------------------------------
# uncentered maximal operator
# ---------------------------------------------------------------------------


def _cumulative_abs(absolute: np.ndarray, h: float) -> np.ndarray:
    """Integral of |f| from the left edge, at every node."""
    return np.concatenate(([0.0], np.cumsum(absolute * h)))


def _candidate_nodes(absolute: np.ndarray) -> np.ndarray:
    """Grid edges plus the interior nodes where |f| changes level."""
    kinks = np.flatnonzero(absolute[1:] != absolute[:-1]) + 1
    return np.concatenate(([0], kinks, [len(absolute)]))


def _hull_parents(t_c: np.ndarray, f_c: np.ndarray) -> np.ndarray:
    """parent[k]: the vertex after k on the upper hull of the points k, k+1, ...

    One right-to-left monotone-chain pass; a vertex that is not strictly
    above the line from the new point to the vertex after it is popped, so
    collinear points are skipped.  The last point is its own parent.
    """
    t, F = t_c.tolist(), f_c.tolist()
    last = len(t) - 1
    parent = [last] * len(t)
    below, a = [], last  # the chain under its top vertex a
    for k in range(last - 1, -1, -1):
        while below:
            b = below[-1]
            if (F[a] - F[k]) * (t[b] - t[a]) > (F[b] - F[a]) * (t[a] - t[k]):
                break
            a = below.pop()
        parent[k] = a
        below.append(a)
        a = k
    return np.array(parent)


def _jump_table(parent: np.ndarray) -> list[np.ndarray]:
    """Binary-lifting levels over `parent`: level k maps c to the vertex 2^k
    steps after it.  A level is added only while some entry still falls short
    of the last candidate, so there are (D - 1).bit_length() levels for D
    the longest parent path; a level whose jumps all land on the last
    candidate could move no tangent search."""
    last = len(parent) - 1
    jumps, up = [], parent
    while (up != last).any():
        jumps.append(up)
        up = up[up]
    return jumps


def _right_sup(
    t_c: np.ndarray, f_c: np.ndarray, x: np.ndarray, fx: np.ndarray, nxt: np.ndarray
) -> np.ndarray:
    """Sup of the chords (f_c - fx) / (t_c - x) over the candidates c >= nxt.

    Each x lies left of its first candidate nxt, and the sup over the
    candidates from nxt on sits at a vertex of their upper hull: the path
    nxt, parent[nxt], ...  Along that path a chord to the next vertex is
    larger exactly up to the tangent vertex, so binary lifting over `parent`
    finds the tangent for every x at once in log2 D vectorized steps, D the
    longest hull path, which carry the chords to v and to parent[v] along.
    """

    def chord(f: np.ndarray, t: np.ndarray, c: np.ndarray) -> np.ndarray:
        return (f[c] - fx) / (t[c] - x)

    parent = _hull_parents(t_c, f_c)
    f_p, t_p = f_c[parent], t_c[parent]  # the vertex after each candidate
    jumps = _jump_table(parent)
    # v stays on the rising part of the path, so the tangent is v or
    # parent[v]; cells whose path falls from nxt on keep v = nxt, even where
    # rounding makes a later chord pair rise again
    v, here, after = nxt, chord(f_c, t_c, nxt), chord(f_p, t_p, nxt)
    rising = after > here
    for up in reversed(jumps):
        w = up[v]
        here_w, after_w = chord(f_c, t_c, w), chord(f_p, t_p, w)
        step = rising & (after_w > here_w)
        v = np.where(step, w, v)
        here, after = np.where(step, here_w, here), np.where(step, after_w, after)
    return np.maximum(here, after)


def maximal_operator(f: GridFunction1D) -> GridFunction1D:
    """Uncentered maximal function at cell centers, exact over the grid family.

    Any interval around x splits at x into two one-sided intervals whose
    averages bound the whole, so the sup equals max(|f(x)|, right-sided sup,
    left-sided sup).  Between consecutive candidate nodes the cumulative
    integral F is linear, so the chord slope from (x, F(x)) is monotone in
    the far end b there, and its sup over grid nodes sits at a candidate or
    at a node next to x, where the average is |f(x)| itself.  The one-sided
    sups come from a hull tree over the candidates, in O(K + n log D) for n
    cells, K candidates and D the longest hull path.  The left side is the
    right side of the coordinates negated and reversed; negation is exact,
    so every chord is the same float (F(b) - F(x)) / (b - x) on either side.
    """
    absolute = np.abs(f.array())
    n, h = f.n_cells, f.h
    cum = _cumulative_abs(absolute, h)
    t = h * np.arange(n + 1)
    nodes = _candidate_nodes(absolute)
    t_c, f_c = t[nodes], cum[nodes]
    x = t[:-1] + 0.5 * h
    fx = cum[:-1] + 0.5 * h * absolute
    nxt = np.searchsorted(nodes, np.arange(n), side="right")
    right = _right_sup(t_c, f_c, x, fx, nxt)
    left = _right_sup(-t_c[::-1], -f_c[::-1], -x[::-1], -fx[::-1], len(nodes) - nxt[::-1])
    return GridFunction1D(f.half_width, np.maximum(absolute, np.maximum(right, left[::-1])))


def maximal_at_points(f: GridFunction1D, xs: Sequence[float]) -> np.ndarray:
    """Uncentered maximal function at arbitrary points (direct evaluation)."""
    absolute = np.abs(f.array())
    cum = _cumulative_abs(absolute, f.h)
    nodes = f.nodes()
    total = cum[-1]
    out = np.empty(len(xs))
    for k, x in enumerate(xs):
        if x <= nodes[0]:
            fx = 0.0
        elif x >= nodes[-1]:
            fx = total
        else:
            i = min(int((x - nodes[0]) / f.h), f.n_cells - 1)
            fx = cum[i] + absolute[i] * (x - nodes[i])
        best = abs(f.value_at(x))
        right = nodes > x
        if right.any():
            best = max(best, np.max((cum[right] - fx) / (nodes[right] - x)))
        left = nodes < x
        if left.any():
            best = max(best, np.max((fx - cum[left]) / (x - nodes[left])))
        out[k] = best
    return out


# ---------------------------------------------------------------------------
# Hilbert transform
# ---------------------------------------------------------------------------


def _node_jumps(f: GridFunction1D) -> np.ndarray:
    vals = f.array()
    return np.diff(vals, prepend=0.0, append=0.0)


def _fft_size(n_cells: int) -> int:
    """Power-of-two FFT length for the linear convolution of the n + 1 node
    jumps with the 2n log distances (3n outputs)."""
    return 1 << (3 * n_cells - 1).bit_length()


@functools.lru_cache(maxsize=4)
def _log_kernel_spectrum(n_cells: int, h: float) -> np.ndarray:
    """rfft of log |center i - node j| over i - j = -n, ..., n - 1 (read-only)."""
    m = np.arange(-n_cells, n_cells)
    spectrum = np.fft.rfft(np.log(np.abs((m + 0.5) * h)), _fft_size(n_cells))
    spectrum.flags.writeable = False
    return spectrum


def hilbert_transform(f: GridFunction1D) -> GridFunction1D:
    """Principal-value convolution with 1/(pi (x - y)) at cell centers.

    For piecewise-constant data the kernel integrates per cell to a log
    primitive; summing by parts turns the result into a convolution of the
    node jumps with log distances, evaluated by FFT.  Cell centers never
    coincide with nodes, so no singular evaluation occurs; on the cell
    containing x the principal value cancels symmetrically.  The kernel's
    spectrum depends only on (n_cells, h) and is cached for the last four
    grid shapes; each call takes the rfft of its own jumps.
    """
    n = f.n_cells
    jumps = _node_jumps(f)  # length n + 1, sums to zero
    size = _fft_size(n)
    conv = np.fft.irfft(np.fft.rfft(jumps, size) * _log_kernel_spectrum(n, f.h), size)
    out = conv[n : 2 * n] / math.pi
    return GridFunction1D(f.half_width, out)


def hilbert_at_points(f: GridFunction1D, xs: Sequence[float]) -> np.ndarray:
    """Exact evaluation at points that avoid the jump nodes of f."""
    jumps = _node_jumps(f)
    nodes = f.nodes()
    nz = np.nonzero(jumps)[0]
    out = np.empty(len(xs))
    for k, x in enumerate(xs):
        d = np.abs(x - nodes[nz])
        if np.any(d == 0.0):
            raise ValueError(f"evaluation point {x} sits on a jump of f")
        out[k] = float(np.dot(jumps[nz], np.log(d))) / math.pi
    return out


def kernel_integral_at_points(f: GridFunction1D, xs: Sequence[float]) -> np.ndarray:
    """integral of |f(y)| / |x - y| dy, exact per cell, x off the support."""
    vals = np.abs(f.array())
    nodes = f.nodes()
    nz = np.nonzero(vals)[0]
    out = np.empty(len(xs))
    for k, x in enumerate(xs):
        left = np.abs(x - nodes[nz])
        right = np.abs(x - nodes[nz + 1])
        if np.any(left == 0.0) or np.any(right == 0.0):
            raise ValueError(f"evaluation point {x} touches the support of f")
        out[k] = float(np.dot(vals[nz], np.abs(np.log(left) - np.log(right))))
    return out


_OPERATORS: dict[str, Callable[[GridFunction1D], GridFunction1D]] = {
    "maximal": maximal_operator,
    "hilbert": hilbert_transform,
}

_POINT_OPERATORS: dict[str, Callable[[GridFunction1D, Sequence[float]], np.ndarray]] = {
    "maximal": maximal_at_points,
    "hilbert": hilbert_at_points,
}


_DRIFT_TOL = 0.05


def _drift(base: float, refined: float) -> tuple[float, bool]:
    """(drift, passed): a finite base passes when refinement moves it by <= _DRIFT_TOL."""
    drift = abs(refined - base) / base if base > 0 else 0.0
    return drift, math.isfinite(base) and drift <= _DRIFT_TOL


def size_condition_check(
    operator: str,
    f: GridFunction1D,
    margin: int = 4,
) -> Comparison:
    """Pointwise kernel bound |Tf(x)| <= C int |f(y)|/|x-y| dy off the support.

    Evaluates the ratio at all cell centers at least `margin` cells away from
    the support of f, records the largest constant C, and repeats on a doubled
    grid; passing requires a finite constant that is stable under refinement.
    lhs is C, rhs C on the refined grid, ratio the drift (as in the sweeps).
    """
    if operator not in _POINT_OPERATORS:
        raise ValueError(f"unknown operator {operator!r}")

    def max_ratio(g: GridFunction1D) -> float:
        vals = np.abs(g.array())
        support = np.nonzero(vals)[0]
        if support.size == 0:
            return 0.0
        idx = np.arange(g.n_cells)
        dist = np.minimum.reduce(
            [np.abs(idx - s) for s in (support[0], support[-1])]
        )
        inside = (idx >= support[0]) & (idx <= support[-1])
        ok = (~inside) & (dist >= margin)
        pts = g.centers()[ok]
        if pts.size == 0:
            raise ValueError("no off-support evaluation points available")
        t_vals = np.abs(_POINT_OPERATORS[operator](g, pts))
        k_vals = kernel_integral_at_points(g, pts)
        return float(np.max(t_vals / k_vals))

    base, refined = max_ratio(f), max_ratio(f.refine())
    return Comparison(base, refined, *_drift(base, refined))


# ---------------------------------------------------------------------------
# annulus interaction bound
# ---------------------------------------------------------------------------


def _char_lorentz_norm(u: int, dim: int, params: LorentzParams) -> float:
    return char_norm_constant(params) * float(annulus_measure(u, dim)) ** (
        1.0 / params.p
    )


def annulus_interaction_bound(
    u: int, v: int, dim: int, params: LorentzParams
) -> tuple[float, float]:
    """(lhs, 2^{(N/p')(v-u)}) for the annulus pair (u, v).

    lhs = 2^{-uN} ||X_{A_u}||_{p,r} ||X_{A_v}||_{p',r'}; the second component
    is the claimed decay profile, so lhs / rhs is the constant the pair
    requires.
    """
    if not (1 < params.p < INF and params.r >= 1):
        raise ValueError("need 1 < p < inf and 1 <= r <= inf")
    conj = params.conjugate()
    try:
        lhs = (
            2.0 ** (-u * dim)
            * _char_lorentz_norm(u, dim, params)
            * _char_lorentz_norm(v, dim, conj)
        )
        rhs = 2.0 ** ((dim / conj.p) * (v - u))
    except OverflowError:
        raise ValueError(
            f"annulus pair (u, v) = ({u}, {v}) in dimension N = {dim} overflows a float"
        ) from None
    return lhs, rhs


def annulus_interaction_scan(
    dim: int,
    params: LorentzParams,
    window: tuple[int, int] = (-1, 60),
) -> Comparison:
    """The annulus interaction constant on [lo, hi]^2 in closed form (rhs),
    checked at the window's corners.

    With c, c' the char_norm_constant of params and of params.conjugate() and
    w_N the unit ball volume, ||X_E||_{p,r} = c |E|^{1/p}, |A_{-1}| = w_N 2^{-N}
    and |A_u| = w_N 2^{uN} (1 - 2^{-N}) for u >= 0.  As 1/p + 1/p' = 1, the powers
    of two cancel in 2^{-uN} ||X_{A_u}||_{p,r} ||X_{A_v}||_{p',r'} / 2^{(N/p')(v-u)}:
    the ratio is c c' w_N at (-1, -1), c c' w_N (1 - 2^{-N}) at every u, v >= 0,
    and the mixed pairs (-1, v), (u, -1) carry the factors (1 - 2^{-N})^{1/p'},
    (1 - 2^{-N})^{1/p}.  So the supremum over [lo, hi]^2 is attained at (lo, lo).

    The corners (lo, lo), (lo, hi), (hi, lo), (hi, hi) go through
    annulus_interaction_bound in that order, so an overflowing window names its
    first such pair; lhs (the constant) is the largest corner ratio.  It passes
    if the (lo, lo) ratio is the closed form and no corner exceeds it, to
    relative 16 e (L + 1): e = 2^-53, K = max(|lo|, |hi|) and L = N (K + 1) +
    |log2 w_N| + 1 >= |log2 |A_u||.  A corner rounds a measure, two powers and
    2^y (an ulp, 2e, each), three products and a quotient (2^{-uN} is exact):
    11 e; the closed form 4 e.  The rounded exponents 1/p (by e/p), 1/p' (3e/p':
    p - 1, p', 1/p') and y (4e N |v - u|/p') move a ratio by at most
    ln 2 e (L/p + 3L/p' + 8 N K/p') <= 8 e L, and 16 e (L + 1) doubles 15 e + 8 e L.
    No product may fall below the normal range (p' near 1, N hi near overflow).
    """
    lo, hi = window
    corners = [annulus_interaction_bound(u, v, dim, params)
               for u, v in ((lo, lo), (lo, hi), (hi, lo), (hi, hi))]
    ratios = [lhs / rhs for lhs, rhs in corners]
    omega = float(unit_ball_volume(dim))
    closed = char_norm_constant(params) * char_norm_constant(params.conjugate()) * omega
    if lo >= 0:
        closed *= 1.0 - 2.0**-dim
    tol = 2.0**-49 * (dim * (max(abs(lo), abs(hi)) + 1) + abs(math.log2(omega)) + 2)
    best = max(ratios)
    passed = abs(ratios[0] - closed) <= tol * closed and best <= closed * (1.0 + tol)
    return Comparison(best, closed, best / closed, passed, best)


# ---------------------------------------------------------------------------
# grid functions -> Lorentz-Herz norms
# ---------------------------------------------------------------------------


def grid_annulus_profiles(f: GridFunction1D) -> AnnulusProfile:
    """Annulus profile of a grid function restricted to its window.

    Cells straddling a dyadic radius are split exactly, so the annulus
    restrictions partition the grid window and the only approximation stays
    inside the operator, not the norm.  Each annulus reads only the cells that
    meet it: the two index ranges that meet (-hi, -lo] and [lo, hi), merged
    where they touch, in cell order.  A cell holding none of +-lo, +-hi lies
    within one side, where its overlap is its width (the other side clips to
    0), so only the end cells of each side are split.  Ranges, |f|, widths and
    splits are formed once per grid; each annulus takes one stable sort.
    """
    vals, nodes = np.abs(f.array()), f.nodes()
    widths = np.diff(nodes)
    us = range(-1, max(0, math.ceil(math.log2(f.half_width))) + 1)
    hi = np.array([[2.0**u] for u in us])  # exact floats; OverflowError past the float range
    lo = np.where(hi >= 1.0, hi / 2, 0.0)
    # cell i meets [lo, hi) iff node i + 1 > lo and node i < hi; the same
    # for (-hi, -lo]; only the outer ends can fall off the grid
    a = np.maximum(nodes.searchsorted(-hi, side="right") - 1, 0)
    b, c = nodes.searchsorted(-lo, side="left"), nodes.searchsorted(lo, side="right") - 1
    d = np.minimum(nodes.searchsorted(hi, side="left"), f.n_cells)
    # the sides are cells a..b-1 and c..d-1; unless both are nonempty and apart, one range s..e-1
    two = (a < b) & (b < c) & (c < d)
    s, e = np.where((a >= b) & (b < c), c, a), np.where((a < b) & (b < c), b, d)
    ends = np.hstack((a, b - 1, c, d - 1))  # the cells holding -hi, -lo, lo, hi
    cut = np.where(two, ends, np.clip(ends, s, e - 1))  # an end off the range redoes an end
    at = np.where(two, ends - np.hstack((a, a, c - b + a, c - b + a)), cut - s)
    el, er = nodes[cut], nodes[cut + 1]
    cut_m = (np.maximum(np.minimum(er, hi) - np.maximum(el, lo), 0.0)
             + np.maximum(np.minimum(er, -lo) - np.maximum(el, -hi), 0.0))
    out_us, levels, knots, integrals = [], [], [], []
    for u, apart, (a, b, c, d, s, e), at_u, m_u in zip(
            us, two.ravel().tolist(), np.hstack((a, b, c, d, s, e)).tolist(), at, cut_m):
        if apart:
            v, m = (np.concatenate((x[a:b], x[c:d])) for x in (vals, widths))
        elif s < e:
            v, m = vals[s:e], widths[s:e].copy()
        else:
            continue
        m[at_u] = m_u
        mask = (m > 0.0) & (v != 0.0)
        if not mask.any():
            continue
        w, m = v[mask], m[mask]
        order = np.argsort(-w, kind="stable")
        out_us.append(u)
        levels.append(w[order])
        knots.append(np.cumsum(m[order]))
        integrals.append(float(w @ m))
    return AnnulusProfile.from_segments(1, out_us, levels, knots, integrals)


def hl_norm_from_profiles(profiles: AnnulusProfile, params: HerzParams) -> float:
    return hl_norm(profiles, params)


def grid_hl_norm(f: GridFunction1D, params: HerzParams) -> float:
    """Lorentz-Herz norm of a grid function restricted to its window."""
    return hl_norm_from_profiles(f.profile, params)


def grid_lp_norm(f: GridFunction1D, p: float) -> float:
    """Plain Lebesgue norm: the lq_norm of the cell values, each weighted by
    the cell width, so it holds within the float range."""
    return lq_norm(np.abs(f.array()), p, f.h)


# ---------------------------------------------------------------------------
# boundedness experiments
# ---------------------------------------------------------------------------


def in_window_weights(p: float, count: int = 5) -> list[float]:
    """`count` weight exponents strictly inside (-1/p, 1/p')."""
    lo = -1.0 / p
    hi = 1.0 / conjugate_exponent(p)
    return [lo + (hi - lo) * k / (count + 1) for k in range(1, count + 1)]


@dataclass(frozen=True)
class SweepCell:
    operator: str
    a: float
    p: float
    q: float
    r: float
    ratio: float
    refined_ratio: float
    drift: float
    passed: bool


@dataclass(frozen=True)
class BoundednessReport:
    cells: tuple[SweepCell, ...]
    excluded: tuple[tuple[str, str], ...]
    max_ratio: float
    passed: bool


def _sweep_ratios(
    operator: str,
    corpus: Sequence[GridFunction1D],
    cells: Sequence[tuple[float, float, float, float]],
) -> list[SweepCell]:
    # the profiles of f and its refinement, kept on the grids, cache their
    # scores per (p, r) for every sweep of the corpus; per (p, r) they form one
    # matrix (0.0: annulus absent) whose weighted rows' lq_norm is weighted_lq
    if not any(f.array().any() for f in corpus):
        raise ValueError("the corpus holds no nonzero grid, so every ratio would be 0/0")
    op = _OPERATORS[operator]
    profiles = [prof for f in corpus for g in (f, f.refine())
                for prof in (g.profile, grid_annulus_profiles(op(g)))]
    us = sorted(set().union(*(prof.us for prof in profiles)))
    matrices: dict[LorentzParams, np.ndarray] = {}
    rows = []
    for a, p, q, r in cells:
        inner = LorentzParams(p, r)
        if inner not in matrices:
            matrices[inner] = np.array([[prof.scores(inner).get(u, 0.0) for u in us]
                                        for prof in profiles])
        weighted = matrices[inner] * annulus_weights(us, a)
        norms = [lq_norm(row, q) for row in weighted.tolist()]
        base_ratio = fine_ratio = 0.0
        for n_f, n_tf, n_fr, n_tfr in zip(*[iter(norms)] * 4):
            if n_f == 0.0:
                continue
            base_ratio = max(base_ratio, n_tf / n_f)
            fine_ratio = max(fine_ratio, n_tfr / n_fr)
        rows.append(SweepCell(operator, a, p, q, r, base_ratio, fine_ratio,
                              *_drift(base_ratio, fine_ratio)))
    return rows


def boundedness_sweep(
    operator: str,
    corpus: Sequence[GridFunction1D],
    ps: Sequence[float] = (1.5, 2.0, 4.0),
    qs: Sequence[float] = (1.0, 2.0, INF),
    rs: Sequence[float] = (1.0, 2.0, INF),
    weight_count: int = 5,
) -> BoundednessReport:
    """Operator-norm ratios over the admissible parameter grid.

    Cells outside the hypotheses (for the Hilbert transform, r = inf, whose
    endpoint Lorentz boundedness is not available) are excluded with a
    reason, never failed.  Each admitted cell reports the corpus-max ratio
    at the given grid and after one refinement doubling; passing requires
    drift at most 5%.
    """
    if operator not in _OPERATORS:
        raise ValueError(f"unknown operator {operator!r}")
    cells = []
    excluded = []
    for p in ps:
        for q in qs:
            for r in rs:
                label = f"a=*,p={p},q={q},r={r}"
                if not 1 < p < INF:
                    excluded.append((label, "needs 1 < p < inf"))
                    continue
                if q < 1 or r < 1:
                    excluded.append((label, "needs q, r >= 1"))
                    continue
                if operator == "hilbert" and r == INF:
                    excluded.append(
                        (label, "singular-kernel route needs r < inf")
                    )
                    continue
                for a in in_window_weights(p, weight_count):
                    cells.append((a, p, q, r))
    rows = _sweep_ratios(operator, corpus, cells)
    max_ratio = max((row.ratio for row in rows), default=0.0)
    passed = all(row.passed for row in rows)
    return BoundednessReport(tuple(rows), tuple(excluded), max_ratio, passed)


@dataclass(frozen=True)
class WitnessReport:
    a: float
    p: float
    q: float
    r: float
    ratios: tuple[float, ...]
    unbounded: bool


def out_of_range_witness(
    a: float | None = None,
    p: float = 2.0,
    q: float = 1.0,
    r: float = 2.0,
    family_size: int = 8,
    cells_per_side: int = 4096,
) -> WitnessReport:
    """Maximal-operator ratios of annulus indicators at a weight beyond the
    window, and the tail certificate that M is unbounded there.

    The ratios are those of f = X_{A_v} for v = 1..V on grids scaled with the
    support (half width 2^{v+1}, fixed cell count).  The verdict does not
    read them.  On R, f = X_{A_v} gives Mf(x) >= ||f||_1 / (|x| + 2^v), so
    Mf >= ||f||_1 2^{-u-1} on every annulus A_u with u > v.  HL norms are
    lattice-monotone, so annulus u adds at least C 2^{u(a - 1/p')} to the
    weighted l^q of ||Mf||: the sum is infinite, and Mf is not in HL, when
    a > 1/p', or when a = 1/p' and q < inf.  A weight where the certificate
    proves nothing (a < 1/p', or a = 1/p' with q = inf, where the tail terms
    are bounded) and a ratio that is not finite (the norms leave the float
    range) raise ValueError.
    """
    edge = 1.0 / conjugate_exponent(p)
    if a is None:
        a = edge + 0.5
    if a < edge:
        raise ValueError("witness weight must sit at or beyond the window edge")
    if a == edge and q == INF:
        raise ValueError(f"at the window edge a = 1/p' = {edge} with q = inf the tail terms "
                         "2^(u (a - 1/p')) are bounded, so the witness proves nothing")
    params = HerzParams(a, p, q, r)
    ratios = []
    for v in range(1, family_size + 1):
        half = 2.0 ** (v + 1)
        f = grid_indicator(half, 2 * cells_per_side, 2.0 ** (v - 1), 2.0**v, two_sided=True)
        mf = maximal_operator(f)
        ratios.append(grid_hl_norm(mf, params) / grid_hl_norm(f, params))
    if not all(map(math.isfinite, ratios)):
        raise ValueError(f"the witness norms leave the float range at (a, p, q, r) = "
                         f"({a}, {p}, {q}, {r})")
    return WitnessReport(a, p, q, r, tuple(ratios), a > edge or q < INF)


def interpolated_boundedness_check(
    operator: str,
    p: float,
    q: float,
    a: float,
    corpus: Sequence[GridFunction1D],
) -> SweepCell:
    """Boundedness on the r = q diagonal, where only Lebesgue bounds enter.

    Restricted to linear operators (the Hilbert transform here).  Returns
    the sweep row at (a, p, q, r = q): the corpus-max ratio at the given grid
    and after one refinement, read from the grids' kept profiles, and its
    drift verdict.
    """
    if operator != "hilbert":
        raise ValueError("the strengthened diagonal conclusion needs a linear operator")
    if not (1 < p < INF and 0 < q < INF):
        raise ValueError("need 1 < p < inf and 0 < q < inf")
    window_lo, window_hi = -1.0 / p, 1.0 / conjugate_exponent(p)
    if not window_lo < a < window_hi:
        raise ValueError("weight exponent outside the admissible window")
    (row,) = _sweep_ratios("hilbert", corpus, [(a, p, q, q)])
    return row
