import ast
import itertools
import json
import math
import random
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import check_k_curve, dual_bound, segment_masses
from herzlab import cli, interp, quadrature
from herzlab.corpus import random_step_functions, save_corpus
from herzlab.herz import HerzParams, annuli_decompose, annulus_profile, hl_norm, weighted_lq
from herzlab.interp import (
    CoupleSpec,
    InterpolationParams,
    WeightedSeq,
    coretract_M,
    interpolation_norm,
    k_functional,
    k_functional_curve,
    retract_L,
    verify_interpolation,
)
from herzlab.lorentz import INF, LorentzParams, lorentz_star_norm
from herzlab.rearrange import (
    RadialStepFunction,
    StepRearrangement,
    ball,
    rearrangement,
    scale,
)

RNG = random.Random(20240811)

L1_LINF = CoupleSpec((0.0, 1.0), (0.0, INF), base="l1-linf")


def exact_l1_linf_k(f, t):
    """Exact K(t, f) of (L^1, L^inf), integral_0^t f*, of a radial step
    function or its decreasing rearrangement."""
    g = f if isinstance(f, StepRearrangement) else rearrangement(f)
    return float(g.integral_up_to(Fraction(t)))


def _side_vectors(y: WeightedSeq, couple: CoupleSpec):
    a0, _ = couple.side0
    a1, _ = couple.side1
    us = [u for u, v in y.entries if v > 0]
    vals = np.array([v for _, v in y.entries if v > 0])
    a = np.array([2.0 ** (u * a0) for u in us]) * vals
    b = np.array([2.0 ** (u * a1) for u in us]) * vals
    return a, b


def brute_force_k(t, y: WeightedSeq, couple: CoupleSpec, zooms=3, refine_points=41):
    """Exhaustive grid search over coordinatewise splits, with zoom refinement.

    Starts from the percent grid {0, 0.01, ..., 1}^n and refines the window
    around the best point, walking sideways while the argmin sticks to a
    window edge; smooth interior optima resolve far below 1e-6.  Finite
    exponents only (the objective is then smooth enough for box zooming).
    """
    q0 = couple.side0[1]
    q1 = couple.side1[1]
    assert q0 != INF and q1 != INF
    a, b = _side_vectors(y, couple)
    n = len(a)
    if n == 0:
        return 0.0
    if n > 3:
        raise ValueError("brute force is for up to three coordinates")

    lo = np.zeros(n)
    hi = np.ones(n)
    best_val = math.inf
    level = 0
    for step in range(12):
        points = 101 if step == 0 else refine_points
        axes = [np.linspace(l, h, points) for l, h in zip(lo, hi)]
        # both power sums are separable across coordinates, so the grid can
        # be assembled from per-axis power tables by broadcast addition
        shape = [1] * n
        pow0 = np.zeros(tuple([points] * n))
        pow1 = np.zeros_like(pow0)
        for d in range(n):
            sh = shape.copy()
            sh[d] = points
            pow0 = pow0 + ((a[d] * axes[d]) ** q0).reshape(sh)
            pow1 = pow1 + ((b[d] * (1.0 - axes[d])) ** q1).reshape(sh)
        val = pow0 ** (1.0 / q0) + t * pow1 ** (1.0 / q1)
        idx = np.unravel_index(np.argmin(val), val.shape)
        best_val = min(best_val, float(val[idx]))
        best_s = np.array([axes[d][idx[d]] for d in range(n)])
        cell = (hi - lo) / (points - 1)
        on_edge = any(
            idx[d] <= 1 and lo[d] > 0.0 or idx[d] >= points - 2 and hi[d] < 1.0
            for d in range(n)
        )
        factor = (points - 1) / 2.0 if on_edge else 5.0
        lo = np.maximum(0.0, best_s - factor * cell)
        hi = np.minimum(1.0, best_s + factor * cell)
        if not on_edge:
            level += 1
            if level > zooms:
                break
    return best_val


def truncation_scan_oracle(t, y: WeightedSeq, couple: CoupleSpec, points=20001):
    """Independent oracle for couples whose second side is a supremum.

    Capping the second part at level M forces s_u >= 1 - M/b_u per
    coordinate, so K reduces to a dense one-dimensional scan over M.
    """
    q0 = couple.side0[1]
    assert couple.side1[1] == INF
    a, b = _side_vectors(y, couple)
    if len(a) == 0:
        return 0.0

    def value(ms):
        s = np.clip(1.0 - ms[:, None] / b[None, :], 0.0, 1.0)
        parts = a[None, :] * s
        first = parts.max(axis=1) if q0 == INF else (parts**q0).sum(axis=1) ** (1.0 / q0)
        return first + t * ms

    top = float(b.max())
    # kinks of the reduced objective sit exactly at M = b_u
    ms = np.unique(np.concatenate([np.linspace(0.0, top, points), b]))
    vals = value(ms)
    i = int(np.argmin(vals))
    best = float(vals[i])
    lo = ms[max(0, i - 1)]
    hi = ms[min(len(ms) - 1, i + 1)]
    if hi > lo:
        best = min(best, float(value(np.linspace(lo, hi, 4001)).min()))
    return best


def subset_oracle(y: WeightedSeq, couple: CoupleSpec):
    """Exact K for exponents <= 1: the split objective is concave, so K is
    the minimum over the vertex splits, one subset S on side 0 and the rest
    on side 1."""
    (_, q0), (_, q1) = couple.side0, couple.side1
    a, b = _side_vectors(y, couple)
    n = len(a)
    lines = [
        (math.fsum(a[i] ** q0 for i in S) ** (1.0 / q0),
         math.fsum(b[i] ** q1 for i in range(n) if i not in S) ** (1.0 / q1))
        for k in range(n + 1)
        for S in itertools.combinations(range(n), k)
    ]
    return lambda t: min(n0 + t * n1 for n0, n1 in lines)


def random_seq(n_coords=3):
    us = RNG.sample(range(-1, 5), n_coords)
    return WeightedSeq.from_dict({u: RNG.uniform(0.1, 2.0) for u in us})


def canonical(couple: CoupleSpec):
    """The couple with its smaller outer exponent on side 0, the only
    orientation that a K plan takes, and whether that exchanged its sides."""
    if couple.base is None and couple.side0[1] > couple.side1[1]:
        return CoupleSpec(couple.side1, couple.side0), True
    return couple, False


def plan_for(source, couple: CoupleSpec):
    """The K plan of the source and couple, read in the couple's own
    orientation: an exchanged couple's canonical plan with the swap
    K(t; X0, X1) = t K(1/t; X1, X0) written out, the norms reversed, the
    corners (1/t_hi, 1/t_lo) and the breakpoints 1/b (with 1/0 = inf)."""
    canon, swap = canonical(couple)
    plan = interp._k_plan(source, canon)
    if not swap:
        return plan

    def inv(t):
        return 1.0 / t if t else INF

    def corners():
        lo, hi = plan.corners()
        return inv(hi), inv(lo)

    def breaks(lo, hi):
        return sorted(t for b in plan.breaks(inv(hi), inv(lo)) if lo < (t := 1.0 / b) < hi)

    return plan._replace(k=lambda t: t * plan.k(1.0 / t), corners=corners,
                         breaks=None if plan.breaks is None else breaks, norms=plan.norms[::-1])


class TestWeightedSeq:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightedSeq(((0, -1.0),))

    def test_unit_and_scale(self):
        y = WeightedSeq.unit(2).scaled(3.0)
        assert y.as_dict() == {2: 3.0}


class TestEllNorm:
    def test_unit_vector(self):
        for u in (-1, 0, 4):
            assert weighted_lq(WeightedSeq.unit(u).as_dict(), 0.7, 2.0) == 2.0 ** (0.7 * u)

    def test_ones_weighted_l1(self):
        y = WeightedSeq.from_dict({-1: 1.0, 0: 1.0, 1: 1.0})
        assert weighted_lq(y.as_dict(), 1.0, 1.0) == pytest.approx(3.5)

    def test_euclidean(self):
        y = WeightedSeq.from_dict({0: 3.0, 1: 4.0})
        assert weighted_lq(y.as_dict(), 0.0, 2.0) == pytest.approx(5.0)

    def test_sup_form(self):
        y = WeightedSeq.from_dict({0: 3.0, 2: 1.0})
        assert weighted_lq(y.as_dict(), 1.0, INF) == pytest.approx(4.0)

    def test_power_overflow_is_scaled_away(self):
        # 2^600 is a float, its 64th power is not
        y = WeightedSeq.from_dict({200: 1.0})
        assert weighted_lq(y.as_dict(), 3.0, 64.0) == pytest.approx(2.0**600, rel=1e-15)


    def test_infinite_value_gives_inf(self):
        # 2^600 overflows its 64th power, and the scaled retry once divided
        # inf by inf
        y = WeightedSeq.from_dict({0: INF, 200: 1.0})
        assert weighted_lq(y.as_dict(), 3.0, 64.0) == INF


class TestRetract:
    def test_annulus_indicator_score(self):
        from herzlab.herz import annulus_indicator

        y = retract_L(annulus_indicator(0), LorentzParams(2, 1))
        assert y.as_dict() == {0: pytest.approx(2.0)}

    def test_isometry_exact_nine_pairs(self, step_corpus):
        base = LorentzParams(2, 1)
        pairs = [(a, q) for a in (-0.5, 0.0, 1.0) for q in (1.0, 2.0, INF)]
        for f in step_corpus[:25]:
            y = retract_L(f, base)
            for a, q in pairs:
                assert weighted_lq(y.as_dict(), a, q) == hl_norm(f, HerzParams(a, 2, q, 1))

    def test_coretract_inverts(self, step_corpus):
        base = LorentzParams(2, 2)
        for f in step_corpus[:25]:
            pieces = dict(annuli_decompose(f))
            if not pieces:
                continue
            y = retract_L(f, base)
            assert coretract_M(y, pieces, base) == f

    def test_zero_sequence(self):
        zero = RadialStepFunction(1, [0, 1], [0])
        assert retract_L(zero, LorentzParams(2, 2)).is_zero()

    def test_witness_support_violation(self):
        y = WeightedSeq.unit(3)
        bad_witness = {3: ball(1, 1)}  # supported near the origin, not in A_3
        with pytest.raises(ValueError):
            coretract_M(y, bad_witness, LorentzParams(2, 2))


class TestKFunctional:
    def test_closed_form_example(self):
        y = WeightedSeq.from_dict({-1: 1.0, 0: 1.0, 1: 1.0})
        couple = CoupleSpec((0.0, 1.0), (1.0, 1.0))
        assert k_functional(1.0, y, couple) == pytest.approx(2.5, rel=1e-14)

    def test_endpoint_limits(self):
        y = WeightedSeq.from_dict({0: 1.0, 2: 0.5})
        couple = CoupleSpec((0.0, 1.0), (1.0, 1.0))
        n0 = weighted_lq(y.as_dict(), 0.0, 1.0)
        n1 = weighted_lq(y.as_dict(), 1.0, 1.0)
        assert k_functional(1e9, y, couple) == pytest.approx(n0, rel=1e-9)
        assert k_functional(1e-9, y, couple) / 1e-9 == pytest.approx(n1, rel=1e-9)

    def test_sup_sup_couple_vertex_solution(self):
        # crossing weights over u in {-1, 1} give side vectors (1/4, 4) and
        # (4, 1/4); the optimum balances both constraints of the equivalent
        # two-variable linear program at alpha = beta = 4/17
        y = WeightedSeq.from_dict({-1: 1.0, 1: 1.0})
        couple = CoupleSpec((2.0, INF), (-2.0, INF))
        val = k_functional(1.0, y, couple)
        assert val == pytest.approx(8.0 / 17.0, rel=1e-12)
        # strictly above the coordinatewise sup-min lower bound 1/4
        assert val > 0.25 + 0.1

    @pytest.mark.parametrize("q_pair", [(1.0, 1.0), (2.0, 2.0), (1.0, 2.0), (1.5, 4.0)])
    def test_optimizer_matches_brute_force(self, q_pair):
        q0, q1 = q_pair
        couple = CoupleSpec((0.0, q0), (1.0, q1))
        for trial in range(4):
            y = random_seq()
            for t in (0.3, 2.0):
                got = k_functional(t, y, couple)
                oracle = brute_force_k(t, y, couple)
                assert got == pytest.approx(oracle, abs=1e-6 * max(1.0, oracle))

    @pytest.mark.parametrize("q0", [0.5, 1.0, 2.0, 3.0, INF])
    def test_sup_side_matches_scan_oracle(self, q0):
        couple = CoupleSpec((0.0, q0), (1.0, INF))
        for trial in range(6):
            y = random_seq()
            for t in (0.3, 1.0, 4.0):
                got = k_functional(t, y, couple)
                oracle = truncation_scan_oracle(t, y, couple)
                assert got == pytest.approx(oracle, abs=2e-6 * max(1.0, oracle))

    @pytest.mark.parametrize("q0", [0.5, 1.0])
    def test_sup_side_exact_at_kinks(self, q0):
        # for q0 <= 1 the capped cost is concave between the levels b_u, so
        # K is its exact minimum over {0} and those levels; the capped parts
        # are evaluated in exact rationals
        couple = CoupleSpec((0.0, q0), (1.0, INF))
        for trial in range(6):
            y = random_seq(4)
            a, b = (list(map(Fraction, v)) for v in _side_vectors(y, couple))
            for t in (0.3, 1.0, 4.0):
                costs = []
                for beta in [Fraction(0), *b]:
                    parts = [max(Fraction(0), a_u * (1 - beta / b_u))
                             for a_u, b_u in zip(a, b)]
                    norm = math.fsum(float(x) ** q0 for x in parts) ** (1.0 / q0)
                    costs.append(norm + float(Fraction(t) * beta))
                assert k_functional(t, y, couple) == pytest.approx(min(costs), rel=1e-13)

    @pytest.mark.parametrize("q_pair", [
        (1.0, 1.0), (2.0, INF), (INF, 2.0), (0.5, 0.7), (1.0, 2.0), (3.0, 1.5), (1.2, INF)
    ])
    def test_curve_matches_pointwise(self, q_pair):
        # every branch, front and sup-finish included, solves each t afresh
        # and must agree bit for bit
        couple = CoupleSpec((0.0, q_pair[0]), (1.0, q_pair[1]))
        y = random_seq()
        ts = [0.25, 1.0, 3.0]
        assert k_functional_curve(ts, y, couple) == [k_functional(t, y, couple) for t in ts]

    def test_curve_warm_start_does_not_stall(self):
        # a split carried from the first t once stopped 9.7e-4 relative above
        # the minimum at the second; no K solve carries state along a curve
        y = WeightedSeq.from_dict({-1: 0.5, 1: 2.0, 3: 0.25})
        couple = CoupleSpec((0.5, 1.0), (0.5, 2.0))
        ts = [1.7467673861991688, 1.7232789477462738]
        curve = k_functional_curve(ts, y, couple)
        assert curve == [k_functional(t, y, couple) for t in ts]
        assert curve[1] == pytest.approx(3.8836880262130933, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        {"side0": (math.nan, 1.0), "side1": (0.0, 1.0)},
        {"side0": (0.0, 1.0), "side1": (INF, 1.0)},
        {"side0": (0.0, 1.0), "side1": (0.0, 1.0), "base": LorentzParams(2.0, 2.0)},
    ])
    def test_couple_spec_rejects(self, kwargs):
        with pytest.raises(ValueError):
            CoupleSpec(**kwargs)

    def test_cold_descent_does_not_stall(self):
        # coordinate descent once stopped on stagnation 1.6e-4 relative above
        # the minimum here
        y = WeightedSeq.from_dict({
            -1: 1.450107072626387, 0: 0.11419386099289482, 1: 1.8522097266988595,
            3: 0.8313159135559351, 4: 0.8829038246587034, 5: 2.5754675623642673,
            6: 2.80263721924572,
        })
        couple = CoupleSpec((0.0, 3.0), (0.5, 1.0))
        got = k_functional(0.07230071540063591, y, couple)
        assert got == pytest.approx(3.36716443877377, rel=1e-12)

    def test_corner_escape_reaches_the_minimum(self):
        # t lies inside the corner range (1.4801, 2.2461); coordinate descent
        # once settled on the corner s = 0, whose value 77.30108753142962 is
        # 0.42% above the minimum
        y = WeightedSeq.from_dict(
            {3: 67.95021961636041, 6: 0.3993068738410339, 8: 0.28525231060188194}
        )
        couple = CoupleSpec((0.06474590349398635, 8.0), (-0.3244040896987568, 1.0))
        t = 2.223681878548065
        got = k_functional(t, y, couple)
        oracle = brute_force_k(t, y, couple)
        assert abs(got - oracle) <= 1e-6 * max(1.0, oracle), (got, oracle)

    @pytest.mark.parametrize("entries, couple, t, expected", [
        ({5: 1.4153069700839203, 7: 1.7755359293806887},
         CoupleSpec((0.7480978247149341, 1.0), (-0.12755047348919657, 8.0)),
         85.08433773640735, 85.85515848258886),
        ({-1: 2.26461420365204, 1: 0.5408647896742476},
         CoupleSpec((-0.5552200855378344, 8.0), (0.5553816918568073, 1.0)),
         0.40305898372813465, 0.9414476701491478),
    ], ids=["one-eight", "eight-one"])
    def test_cold_descent_dual_gap_closes(self, entries, couple, t, expected):
        # coordinate descent ended its resume rounds 3.6e-5 and 1.3e-5 high,
        # with dual gaps of 3.9e-5 and 7.3e-5
        y = WeightedSeq.from_dict(entries)
        got = k_functional(t, y, couple)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
        # eight-one runs on its canonical couple (1, 8) at 1/t, times t
        canon, swap = canonical(couple)
        tau, scale = (1.0 / t, t) if swap else (t, 1.0)
        (_, q0), (_, q1) = canon.side0, canon.side1
        a, b = interp._side_vectors(y, canon)
        value, s = interp._front_k(tau, a, b, q0, q1)
        assert scale * value == got
        assert got - scale * dual_bound(s, tau, a, b, q0, q1) <= 1e-9 * got

    def test_front_finds_the_one_coordinate_split(self):
        # the split (0, 1) costs exactly 1.0; coordinate descent returned 2.0
        y = WeightedSeq.from_dict({-1: 1.0, 200: 1.0})
        got = k_functional(1.1156177909894717e-30, y, CoupleSpec((0.0, 1.0), (1.0, 2.0)))
        assert got == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_front_split_in_log_form(self):
        # side weights 2^-3 and 2^600 against 2^3 and 2^-600: a power of a
        # side weight under- or overflows, the logs do not
        y = WeightedSeq.from_dict({-1: 1.0, 200: 1.0})
        got = k_functional(1.0, y, CoupleSpec((3.0, 1.5), (-3.0, 4.0)))
        assert got == pytest.approx(0.125, rel=1e-12, abs=0.0)

    def test_front_dual_gap_on_the_oracle_grid(self):
        # test_07's instances (seed 97), each on its 64-point grid: the front
        # split certifies its own value through the K-J dual bound
        rng = random.Random(97)
        ts = [2.0 ** (-8 + 16 * k / 63.0) for k in range(64)]
        inside = 0
        for _ in range(100):
            us = rng.sample(range(-1, 5), 3)
            y = WeightedSeq.from_dict({u: rng.uniform(0.1, 2.0) for u in us})
            q0, q1 = rng.choice([1.0, 1.5, 2.0, 4.0]), rng.choice([1.0, 1.5, 2.0, 4.0])
            couple = CoupleSpec((0.0, q0), (rng.choice([0.5, 1.0]), q1))
            rng.choice([0.3, 1.0, 4.0])  # test_07's own t, drawn to keep the stream aligned
            if q0 == q1 == 1.0:
                continue
            # a couple with q0 > q1 runs on its canonical couple at 1/t, times t
            canon, swap = canonical(couple)
            (_, p0), (_, p1) = canon.side0, canon.side1
            t_lo, t_hi = interp._k_plan(y, canon).corners()
            a, b = interp._side_vectors(y, canon)
            for t, k in zip(ts, k_functional_curve(ts, y, couple)):
                tau, scale = (1.0 / t, t) if swap else (t, 1.0)
                if t_lo < tau < t_hi:
                    value, s = interp._front_k(tau, a, b, p0, p1)
                    assert scale * value == k
                    assert k - scale * dual_bound(s, tau, a, b, p0, p1) <= 1e-9 * k, (y, couple, t)
                    inside += 1
        assert inside > 500

    def test_seq_q_closed_form(self):
        # the default seq-q instance on the couple (1, 2): with
        # S = {u : rho > a_u / b_u^2}, A = sum_S a_u^2 / b_u^2 and
        # B = sum over the rest of b_u^2, K(t) = sum_S a_u + sqrt(B (t^2 - A)),
        # where rho = sqrt((t^2 - A) / B) must give back the same S
        y = WeightedSeq.from_dict({-1: 0.5, 1: 2.0, 3: 0.25})
        couple = CoupleSpec((0.5, 1.0), (0.5, 2.0))
        a, b = interp._side_vectors(y, couple)
        cut = sorted(range(len(a)), key=lambda u: a[u] / b[u] ** 2)

        def closed(t):
            for k in range(len(cut)):
                S, rest = cut[:k], cut[k:]
                A = math.fsum(a[u] ** 2 / b[u] ** 2 for u in S)
                B = math.fsum(b[u] ** 2 for u in rest)
                if t * t > A:
                    rho = math.sqrt((t * t - A) / B)
                    if all(a[u] / b[u] ** 2 < rho for u in S) and all(
                        rho <= a[u] / b[u] ** 2 for u in rest
                    ):
                        return math.fsum(a[u] for u in S) + math.sqrt(B * (t * t - A))
            return math.fsum(a)  # S holds every coordinate: K = N0

        ts = [2.0 ** (j / 8.0 - 5.0) for j in range(81)]
        for t, k in zip(ts, k_functional_curve(ts, y, couple)):
            assert k == pytest.approx(closed(t), rel=1e-13, abs=0.0), t

    @pytest.mark.parametrize("q0", [1.2, 1.5, 2.0, 4.0])
    def test_sup_finish_below_kink_envelope(self, q0):
        couple = CoupleSpec((0.0, q0), (1.0, INF))
        rng = random.Random(str(q0))
        ts = [2.0 ** (k / 4.0) for k in range(-24, 25)]
        for n in (1, 3, 6):
            us = rng.sample(range(-1, 10), n)
            y = WeightedSeq.from_dict({u: rng.uniform(0.05, 3.0) for u in us})
            a, b = interp._side_vectors(y, couple)
            cost, kinks = interp._sup_cost(a, b, q0)
            lines = interp._lines([([cost(beta) for beta in kinks], kinks)])
            for t, k in zip(ts, k_functional_curve(ts, y, couple)):
                assert k <= interp._envelope(lines, t), (n, t)

    @pytest.mark.parametrize("side0, side1", [
        ((3.0, 1.01), (-3.0, 64.0)), ((-3.0, 64.0), (3.0, 1.01)), ((3.0, 1.01), (-3.0, 1.01)),
        ((0.075, 64.0), (-3.0, 64.0)), ((-3.0, 1.01), (3.0, INF)), ((-3.0, 64.0), (3.0, INF)),
    ])
    def test_bounded_bracketing_at_the_corners(self, side0, side1):
        # side weights from 2^-600 to 2^600, wherever the couple's norms stay
        # finite, and t one ulp inside each finite nonzero corner
        y = WeightedSeq.from_dict({-1: 1.0, 200: 1.0})
        couple = CoupleSpec(side0, side1)
        plan = plan_for(y, couple)
        n0, n1 = plan.norms
        t_lo, t_hi = plan.corners()
        ts = [math.nextafter(c, toward)
              for c, toward in ((t_lo, INF), (t_hi, 0.0)) if 0.0 < c < INF]
        assert ts
        for t in ts:
            start = time.perf_counter()
            k = k_functional(t, y, couple)
            assert time.perf_counter() - start < 1.0
            assert math.isfinite(k) and k <= min(n0, t * n1), t

    def test_sup_first_side_by_symmetry(self):
        couple = CoupleSpec((0.3, INF), (0.0, 2.0))
        swapped = CoupleSpec((0.0, 2.0), (0.3, INF))
        for trial in range(4):
            y = random_seq()
            for t in (0.5, 2.0):
                got = k_functional(t, y, couple)
                oracle = t * truncation_scan_oracle(1.0 / t, y, swapped)
                assert got == pytest.approx(oracle, abs=2e-6 * max(1.0, oracle))

    def test_curve_invariants(self):
        y = random_seq()
        couple = CoupleSpec((0.0, 2.0), (1.0, 1.5))
        ts = [2.0 ** (k / 4.0) for k in range(-24, 25)]
        n0 = weighted_lq(y.as_dict(), 0.0, 2.0)
        n1 = weighted_lq(y.as_dict(), 1.0, 1.5)
        check_k_curve(ts, [k_functional(t, y, couple) for t in ts], n0, n1)

    @pytest.mark.parametrize("q_pair", [
        (q0, q1) for q0 in (0.3, 0.5, 0.7, 1.0) for q1 in (0.3, 0.5, 0.7, 1.0)
        if (q0, q1) != (1.0, 1.0)
    ])
    def test_subunit_matches_subset_oracle(self, q_pair):
        q0, q1 = q_pair
        couple = CoupleSpec((0.0, q0), (0.5, q1))
        rng = random.Random(str(q_pair))
        ts = [10.0 ** (k / 4.0) for k in range(-12, 13)]
        for n in [n for n in range(1, 9) for _ in range(3)]:
            us = rng.sample(range(-1, 12), n)
            y = WeightedSeq.from_dict({u: rng.uniform(0.05, 3.0) for u in us})
            oracle = subset_oracle(y, couple)
            for t, got in zip(ts, k_functional_curve(ts, y, couple)):
                assert got == pytest.approx(oracle(t), rel=1e-13, abs=0.0), (n, t)

    def test_subunit_five_coordinate_values(self):
        # exact vertex minima; a slice search stops up to 1.5e-6 above them
        y = WeightedSeq.from_dict({-1: 1.0, 0: 0.2, 1: 3.0, 2: 0.05, 3: 1.5})
        couple = CoupleSpec((0.0, 0.5), (1.0, 0.5))
        expected = [3.1410793139246436, 11.307551751186637, 18.159598367359234]
        for t, k in zip((0.1, 1.0, 10.0), expected):
            assert k_functional(t, y, couple) == pytest.approx(k, rel=1e-14)

    @pytest.mark.parametrize("q_pair", [(0.5, 2.0), (1.5, 0.3), (0.99, 1.01)])
    def test_mixed_subunit_couple_rejected(self, q_pair):
        couple = CoupleSpec((0.0, q_pair[0]), (1.0, q_pair[1]))
        with pytest.raises(ValueError, match="no certified K"):
            k_functional(1.0, random_seq(), couple)

    def test_subunit_support_cap(self):
        couple = CoupleSpec((0.0, 0.5), (0.1, 0.7))
        y = WeightedSeq.from_dict({u: 1.0 + u / 50.0 for u in range(-1, 20)})
        with pytest.raises(ValueError, match="cap of 20"):
            k_functional(1.0, y, couple)


def holmstedt_oracle(a, b, q):
    """K(t) of the couple with outer exponents (1, q), 1 < q < inf, at 50
    digits, from the dual side, and the t of its kinks.

    K(t) = sup {sum z : 0 <= z <= a, ||z / b||_q' <= t}, and Lagrange gives
    z_u = min(a_u, c b_u^q), c >= 0 solving sum_u (z_u / b_u)^q' = t^q', so
    K(t) = sum_u z_u.  The capped coordinates are those with
    a_u / b_u^q <= c, a prefix in that order, and between two kinks c^q'
    solves a linear equation.  Returns K as a function of a float t > 0 and
    the kinks t_k (mpmath numbers, in increasing order), the first and last
    being the corners.
    """
    with mpmath.workdps(50):
        qq = mpmath.mpf(q)
        qc = qq / (qq - 1)
        pairs = sorted(((mpmath.mpf(x) / mpmath.mpf(y) ** qq, mpmath.mpf(x), mpmath.mpf(y))
                        for x, y in zip(a, b)))
        n = len(pairs)
        capped = [mpmath.mpf(0)] * (n + 1)  # sum of (a/b)^q' over the first k
        mass = [mpmath.mpf(0)] * (n + 1)  # sum of a over the first k
        free = [mpmath.mpf(0)] * (n + 1)  # sum of b^q over the rest
        for k, (_, x, y) in enumerate(pairs):
            capped[k + 1] = capped[k] + (x / y) ** qc
            mass[k + 1] = mass[k] + x
        for k in range(n - 1, -1, -1):
            free[k] = free[k + 1] + pairs[k][2] ** qq
        kink_powers = [c**qc * free[k] + capped[k] for k, (c, _, _) in enumerate(pairs)]
        kinks = [v ** (1 / qc) for v in kink_powers]

    def k(t):
        with mpmath.workdps(50):
            power = mpmath.mpf(t) ** qc
            for j, top in enumerate(kink_powers):
                if power < top:
                    return mass[j] + ((power - capped[j]) / free[j]) ** (1 / qc) * free[j]
            return mass[n]

    return k, kinks


class TestHolmstedtFront:
    """The front K of a couple with one outer exponent 1 takes log rho in
    closed form and runs no root; a couple (q, 1) runs as its canonical
    couple (1, q), through K(t; X0, X1) = t K(1/t; X1, X0)."""

    @pytest.fixture(autouse=True)
    def no_root(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a root ran on the closed-form route")

        monkeypatch.setattr(interp, "_root", refuse)

    @staticmethod
    def couple(q, orient, a0, a1):
        return (CoupleSpec((a0, 1.0), (a1, q)) if orient == "1-q"
                else CoupleSpec((a0, q), (a1, 1.0)))

    @staticmethod
    def oracle(a, b, q, orient):
        if orient == "1-q":
            return holmstedt_oracle(a, b, q)
        k, kinks = holmstedt_oracle(b, a, q)  # the swapped couple at 1/t
        return (lambda t: t * k(1.0 / t)), [1 / v for v in reversed(kinks)]

    @pytest.mark.parametrize("orient", ["1-q", "q-1"])
    @pytest.mark.parametrize("n", [1, 2, 3, 12, 40])
    @pytest.mark.parametrize("q", [1.25, 1.5, 2.0, 3.0, 8.0])
    def test_matches_the_dual_oracle(self, q, n, orient):
        # side weights from 2^-600 to 2^600; t on a log grid over 2^+-40, on
        # one between the corners (clipped to 2^+-1000) and within three ulps
        # of each corner and of some kinks between them
        rng = random.Random(f"{q} {n} {orient}")
        y = WeightedSeq.from_dict({u: rng.uniform(0.05, 3.0) for u in rng.sample(range(-1, 201), n)})
        couple = self.couple(q, orient, 3.0, -3.0)
        a, b = interp._side_vectors(y, couple)
        oracle, kinks = self.oracle(a, b, q, orient)
        canon, swap = canonical(couple)
        (_, q0), (_, q1) = canon.side0, canon.side1
        ca, cb = interp._side_vectors(y, canon)
        near = map(float, [kinks[0], *kinks[1:-1:max(1, n // 6)], kinks[-1]])
        ends = [math.log2(min(max(float(v), 2.0**-1000), 2.0**1000)) for v in (kinks[0], kinks[-1])]
        ts = [2.0**j for j in range(-40, 41, 4)]
        ts += [2.0 ** (ends[0] + (ends[1] - ends[0]) * j / 17) for j in range(1, 17)]
        for v in near:
            if sys.float_info.min <= v < INF:
                for toward in (0.0, INF):
                    for _ in range(4):
                        ts.append(v)
                        v = math.nextafter(v, toward)
        assert n == 1 or sum(kinks[0] < t < kinks[-1] for t in ts) >= 8
        for t, k in zip(ts, k_functional_curve(ts, y, couple)):
            exact = oracle(t)
            tau, scale = (1.0 / t, t) if swap else (t, 1.0)  # (q, 1) runs on (1, q) at 1/t
            front = scale * interp._front_k(tau, ca, cb, q0, q1)[0]
            assert abs(k - exact) <= 1e-13 * exact, (t, k, float(exact))
            assert abs(front - exact) <= 1e-13 * exact, (t, front, float(exact))

    @pytest.mark.parametrize("orient", ["1-q", "q-1"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("q", [1.25, 1.5, 2.0, 3.0, 8.0])
    def test_matches_brute_force_and_certifies_its_split(self, q, n, orient):
        rng = random.Random(f"{q} {n} {orient} brute")
        y = WeightedSeq.from_dict({u: rng.uniform(0.1, 2.0) for u in rng.sample(range(-1, 5), n)})
        couple = self.couple(q, orient, 0.0, 0.5)
        canon, swap = canonical(couple)
        (_, q0), (_, q1) = canon.side0, canon.side1
        a, b = interp._side_vectors(y, canon)
        t_lo, t_hi = plan_for(y, couple).corners()
        for t in (t_lo, math.sqrt(t_lo * t_hi), t_hi):
            # (q, 1) runs on (1, q) at 1/t, times t
            tau, scale = (1.0 / t, t) if swap else (t, 1.0)
            k, s = interp._front_k(tau, a, b, q0, q1)
            k *= scale
            oracle = brute_force_k(t, y, couple)
            assert k == pytest.approx(oracle, abs=1e-6 * max(1.0, oracle))
            assert k - scale * dual_bound(s, tau, a, b, q0, q1) <= 1e-12 * k

    @pytest.mark.parametrize("orient", ["1-q", "q-1"])
    def test_interpolation_norm_runs_no_root(self, orient):
        # the default seq-q instance, in both orientations
        y = WeightedSeq.from_dict({-1: 0.5, 1: 2.0, 3: 0.25})
        couple = self.couple(2.0, orient, 0.5, 0.5)
        res = interpolation_norm(y, InterpolationParams(0.5, 4.0 / 3.0), couple)
        assert 0.0 < res.lower <= res.value <= res.upper


class TestKL1Linf:
    """The level-cap lines of the weightless (1, inf) endpoint couple and the
    exact oracle integral_0^t f* against closed forms."""

    def test_indicator_min_form(self):
        chi = ball(1, 1)
        for k_of in (exact_l1_linf_k, lambda f, t: k_functional(t, f, L1_LINF)):
            assert k_of(chi, 0.25) == pytest.approx(0.25)
            assert k_of(chi, 7.0) == pytest.approx(1.0)

    def test_two_shell_value(self, two_shell):
        assert exact_l1_linf_k(two_shell, 1.0) == pytest.approx(2.0)
        assert k_functional(1.0, two_shell, L1_LINF) == pytest.approx(2.0)

    def test_truncation_oracle_agreement(self, step_corpus):
        # independent oracle: K(t) = min over levels c of (integral of
        # (|f| - c)_+ plus t c); exact since the cost is piecewise linear
        for f in step_corpus[:20]:
            g = rearrangement(f)
            if not g.levels:
                continue
            for t in (Fraction(1, 3), Fraction(1), Fraction(7, 2)):
                candidates = [Fraction(0), *g.levels]
                oracle = min(
                    sum(
                        ((w - c) * m for w, m in zip(g.levels, segment_masses(g)) if w > c),
                        Fraction(0),
                    )
                    + t * c
                    for c in candidates
                )
                for got in (exact_l1_linf_k(f, t), k_functional(float(t), f, L1_LINF)):
                    assert abs(got - float(oracle)) <= 1e-9 * max(1.0, float(oracle))


class TestHerzEndpointK:
    def test_single_annulus_reduces_to_scalar(self):
        from herzlab.herz import annulus_indicator

        f = annulus_indicator(2, value=3)
        couple = CoupleSpec((0.0, 1.0), (0.0, 1.0), base="l1-linf")
        # one coordinate: K(t) = min over truncation level c of
        # (3 - c) mu(A_2) + t c, the exact endpoint K of the piece
        mu = 4.0
        for t in (0.5, 2.0, 10.0):
            got = k_functional(t, f, couple)
            expected = min((3.0 - c) * mu + t * c for c in (0.0, 3.0))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_weighted_separable_matches_manual(self):
        f = RadialStepFunction(1, [0, Fraction(1, 2), 1], [2, 1])
        couple = CoupleSpec((0.0, 1.0), (1.0, 1.0), base="l1-linf")
        t = 1.0
        # coordinates A_{-1} (value 2, measure 1) and A_0 (value 1, measure 1)
        k_inner = min(2.0 * 1.0, t * 2.0 ** (-1) * 2.0, 1.0 + t * 2.0 ** (-1) * 1.0)
        k_outer = min(1.0, t * 1.0)
        got = k_functional(t, f, couple)
        assert got == pytest.approx(k_inner + k_outer, rel=1e-12)

    @pytest.mark.parametrize("weights", [(0.2, 0.5), (-0.3, 0.4)])
    def test_one_inf_matches_level_cap_scan(self, nonneg_corpus, weights):
        couple = CoupleSpec((weights[0], 1.0), (weights[1], INF), base="l1-linf")
        for f in nonneg_corpus[:5]:
            oracle = _herz_endpoint_oracle(f, couple)
            for t in (0.05, 0.5, 2.0, 7.0):
                got = k_functional(t, f, couple)
                assert got == pytest.approx(oracle(t), rel=1e-12, abs=0.0)

    def test_weightless_one_inf_is_l1_linf(self, nonneg_corpus):
        for f in nonneg_corpus[:6]:
            for t in (0.1, 0.5, 1.0, 3.0, 10.0, 40.0):
                expected = exact_l1_linf_k(f, t)
                assert k_functional(t, f, L1_LINF) == pytest.approx(
                    expected, rel=1e-13, abs=0.0
                )

    @pytest.mark.parametrize("entry", ["k_functional", "interpolation_norm",
                                       "verify_interpolation"])
    @pytest.mark.parametrize("q_pair", [
        (0.5, 1.0), (1.0, 0.7), (1.0, 2.0), (2.0, 2.0), (1.5, 3.0), (2.0, 1.0), (2.0, INF),
        (INF, 1.0), (INF, 2.0), (INF, INF),
    ], ids=lambda pair: "-".join(f"{q:g}" for q in pair))
    def test_uncertified_exponents_rejected(self, nonneg_corpus, q_pair, entry):
        # only the level-cap lines of (1, 1) and (1, inf) are certified
        f = nonneg_corpus[0]
        couple = CoupleSpec((0.2, q_pair[0]), (0.5, q_pair[1]), base="l1-linf")
        match = r"\(1, 1\) and \(1, inf\)"
        if entry == "k_functional":
            with pytest.raises(ValueError, match=match):
                k_functional(1.0, f, couple)
        elif entry == "interpolation_norm":
            for g in (f, scale(f, 0)):
                with pytest.raises(ValueError, match=match):
                    interpolation_norm(g, InterpolationParams(0.5, 1.0), couple)
        else:
            # an empty corpus evaluates no K: the gate alone must reject
            for suite in ("hl-3", "hl-4"):
                with pytest.raises(ValueError, match=match):
                    verify_interpolation(suite, [], theta=0.5, a0=0.2, a1=0.5,
                                         q0=q_pair[0], q1=q_pair[1])


_ENDPOINT_FUNCTIONS = [
    RadialStepFunction(1, [0, Fraction(1, 2), 1, 2, 4, 8], [3, 2, 1, 5, Fraction(1, 2)]),
    RadialStepFunction(2, [0, Fraction(1, 3), 3, 5], [Fraction(7, 4), 4, 1]),
]


@settings(max_examples=100, deadline=None)
@given(
    f=st.sampled_from(_ENDPOINT_FUNCTIONS),
    q0=st.sampled_from([0.3, 0.5, 1.0, 1.5, 2.0, INF]),
    q1=st.sampled_from([0.3, 0.5, 1.0, 1.5, 2.0, INF]),
    a0=st.floats(-1.0, 1.0),
    a1=st.floats(-1.0, 1.0),
    t=st.floats(1e-3, 1e3),
)
def test_endpoint_k_rejected_or_within_bounds(f, q0, q1, a0, a1, t):
    # every endpoint couple is either rejected as uncertified or gives a K
    # between 0 and min(N0, t N1)
    couple = CoupleSpec((a0, q0), (a1, q1), base="l1-linf")
    try:
        k = k_functional(t, f, couple)
    except ValueError:
        return
    prof = annulus_profile(f)
    n0 = weighted_lq(dict(zip(prof.us, prof.integrals)), a0, q0)
    n1 = weighted_lq(dict(zip(prof.us, prof.tops)), a1, q1)
    assert 0.0 <= k <= min(n0, t * n1) * (1.0 + 1e-12)


def _herz_endpoint_oracle(f, couple: CoupleSpec):
    """Exact endpoint Herz K for outer exponents (1, 1) and (1, inf), costs
    summed in exact rationals.  Capping the bounded part of annulus u at
    beta / w1_u costs w0_u integral (f* - beta / w1_u)_+ there, convex and
    piecewise linear in beta; the best cap is 0 or w1_u times a level of f*,
    chosen per annulus for (1, 1) and shared by all annuli for (1, inf)."""
    (a0, _), (a1, q1) = couple.side0, couple.side1
    pieces = [
        (Fraction(2.0 ** (u * a0)), Fraction(2.0 ** (u * a1)), rearrangement(g))
        for u, g in annuli_decompose(f)
    ]

    def best(part, t):
        caps = [Fraction(0), *(w1 * w for _, w1, g in part for w in g.levels)]
        return min(
            sum(
                w0 * sum(((w - beta / w1) * m
                          for w, m in zip(g.levels, segment_masses(g)) if w > beta / w1),
                         Fraction(0))
                for w0, w1, g in part
            )
            + t * beta
            for beta in caps
        )

    def oracle(t: float) -> float:
        if q1 == INF:
            return float(best(pieces, Fraction(t)))
        return float(sum(best([p], Fraction(t)) for p in pieces))

    return oracle


class TestCornerRange:
    """K(t) = t N1 exactly up to the lower corner and N0 from the upper one,
    and both corners are tight: K leaves each line within 5% past it."""

    @staticmethod
    def check(source, couple, oracle, n0, n1):
        t_lo, t_hi = plan_for(source, couple).corners()

        def k_of(t):
            return k_functional(t, source, couple)

        assert 0.0 < t_lo <= t_hi < INF
        for t in (t_lo / 10.0, t_lo / 1.5, t_lo):
            for k in (k_of(t), oracle(t)):
                assert k == pytest.approx(t * n1, rel=1e-12, abs=0.0), t
        for t in (t_hi, 1.5 * t_hi, 10.0 * t_hi):
            for k in (k_of(t), oracle(t)):
                assert k == pytest.approx(n0, rel=1e-12, abs=0.0), t
        # both values are objective values of some split, so either one
        # below a line shows that K has left it
        t = 1.05 * t_lo
        assert min(k_of(t), oracle(t)) < t * n1 * (1.0 - 1e-12)
        t = t_hi / 1.05
        assert min(k_of(t), oracle(t)) < n0 * (1.0 - 1e-12)

    def test_infinite_upper_corner_does_not_warn(self):
        # a slope near zero sends t_hi to +inf without an overflow warning,
        # which the suite's error::RuntimeWarning filter would raise
        y = WeightedSeq.from_dict({-1: 1.0, 200: 1.0})
        corners = interp._k_plan(y, CoupleSpec((3.0, 1.0), (-3.0, INF))).corners()
        assert corners == (0.015625, INF)

    def check_seq(self, y, couple, oracle):
        n0 = weighted_lq(y.as_dict(), *couple.side0)
        n1 = weighted_lq(y.as_dict(), *couple.side1)
        self.check(y, couple, oracle, n0, n1)

    @pytest.mark.parametrize("q_pair", [
        (1.0, 1.0), (1.0, 2.0), (1.5, 2.0), (2.0, 2.0), (3.0, 2.0), (2.0, 1.0), (1.5, 3.0)
    ])
    def test_linear_and_descent(self, q_pair):
        couple = CoupleSpec((0.0, q_pair[0]), (1.0, q_pair[1]))
        rng = random.Random(str(q_pair))
        for n in (2, 3):
            us = rng.sample(range(-1, 5), n)
            y = WeightedSeq.from_dict({u: rng.uniform(0.1, 2.0) for u in us})
            self.check_seq(y, couple, lambda t: brute_force_k(t, y, couple))

    @pytest.mark.parametrize("q0", [0.5, 1.0, 1.5, 2.0, INF])
    @pytest.mark.parametrize("sup_first", [False, True])
    def test_sup_side(self, q0, sup_first):
        sup_side = CoupleSpec((0.0, q0), (1.0, INF))
        rng = random.Random(str((q0, sup_first)))
        for n in (2, 4):
            us = rng.sample(range(-1, 5), n)
            y = WeightedSeq.from_dict({u: rng.uniform(0.1, 2.0) for u in us})
            if sup_first:
                # K(t; X0, X1) = t K(1/t; X1, X0)
                couple = CoupleSpec(sup_side.side1, sup_side.side0)
                self.check_seq(
                    y, couple, lambda t: t * truncation_scan_oracle(1.0 / t, y, sup_side)
                )
            else:
                self.check_seq(y, sup_side, lambda t: truncation_scan_oracle(t, y, sup_side))

    @pytest.mark.parametrize("q_pair", [(0.5, 0.7), (1.0, 0.5), (0.3, 1.0)])
    def test_vertex(self, q_pair):
        couple = CoupleSpec((0.0, q_pair[0]), (0.5, q_pair[1]))
        rng = random.Random(str(q_pair))
        for n in (2, 5):
            us = rng.sample(range(-1, 8), n)
            y = WeightedSeq.from_dict({u: rng.uniform(0.05, 3.0) for u in us})
            self.check_seq(y, couple, subset_oracle(y, couple))

    def test_herz_endpoint_one_one(self, nonneg_corpus):
        couple = CoupleSpec((0.2, 1.0), (0.5, 1.0), base="l1-linf")
        for f in nonneg_corpus[:4]:
            prof = annulus_profile(f)
            n0 = weighted_lq(dict(zip(prof.us, prof.integrals)), 0.2, 1.0)
            n1 = weighted_lq(dict(zip(prof.us, prof.tops)), 0.5, 1.0)
            self.check(prof, couple, _herz_endpoint_oracle(f, couple), n0, n1)

    def test_herz_endpoint_one_inf(self, nonneg_corpus):
        couple = CoupleSpec((0.2, 1.0), (0.5, INF), base="l1-linf")
        for f in nonneg_corpus[:4]:
            prof = annulus_profile(f)
            n0 = weighted_lq(dict(zip(prof.us, prof.integrals)), 0.2, 1.0)
            n1 = weighted_lq(dict(zip(prof.us, prof.tops)), 0.5, INF)
            self.check(prof, couple, _herz_endpoint_oracle(f, couple), n0, n1)

    def test_lorentz_endpoint(self, nonneg_corpus):
        for f in nonneg_corpus[:4]:
            g = rearrangement(f)
            n0, n1 = float(g.total_mass()), float(g.levels[0])
            self.check(annulus_profile(f), L1_LINF, lambda t: exact_l1_linf_k(g, t), n0, n1)


_ZERO_WEIGHT_COUPLES = [(1.0, 1.0), (0.5, 0.7), (1.0, INF), (2.0, INF), (INF, 1.0),
                        (INF, 2.0), (1.0, 2.0), (2.0, 2.0), (2.0, 1.0), (INF, INF)]


class TestZeroSideWeights:
    """A side weight 2^{u a} y_u that rounds to 0 leaves coordinate u free on
    that side: K is the K of y without u, and the norms still count u."""

    Y = WeightedSeq.from_dict({0: 1.0, 1: 2.0, 3: 4.0})
    REST = WeightedSeq.from_dict({0: 1.0, 1: 2.0})  # 2^{-1200} 4 = 0.0

    @pytest.mark.parametrize("weights", [(0.0, -400.0), (-400.0, 0.0)])
    @pytest.mark.parametrize("q_pair", _ZERO_WEIGHT_COUPLES)
    def test_k_is_that_of_the_rest(self, weights, q_pair):
        couple = CoupleSpec((weights[0], q_pair[0]), (weights[1], q_pair[1]))
        plan = plan_for(self.Y, couple)
        entries = self.Y.as_dict()
        assert plan.norms == (weighted_lq(entries, *couple.side0),
                              weighted_lq(entries, *couple.side1))
        ts = [2.0**j for j in range(-12, 13)] + [0.3, 1.7, 5.5]
        ks = k_functional_curve(ts, self.Y, couple)
        rest = k_functional_curve(ts, self.REST, couple)
        if plan.breaks is not None:
            assert ks == rest
        assert ks == pytest.approx(rest, rel=1e-12, abs=0.0)
        # u = 3 is free on side 1 for (0, -400), on side 0 for (-400, 0)
        t_lo, t_hi = plan.corners()
        n0, n1 = plan.norms
        assert (t_hi == INF) if weights[1] else (t_lo == 0.0)
        for t, k in zip(ts, ks):
            if t <= t_lo:
                assert k == pytest.approx(t * n1, rel=1e-12, abs=0.0)
            if t >= t_hi:
                assert k == pytest.approx(n0, rel=1e-12, abs=0.0)
            assert k <= min(n0, t * n1) * (1.0 + 1e-12)

    @pytest.mark.parametrize("weights", [(0.0, -400.0), (-400.0, 0.0)])
    @pytest.mark.parametrize("q_pair", _ZERO_WEIGHT_COUPLES)
    def test_norm_bracket_holds_the_rest(self, weights, q_pair):
        couple = CoupleSpec((weights[0], q_pair[0]), (weights[1], q_pair[1]))
        # a short window keeps the Simpson branches quick; the tails cover the rest
        params = InterpolationParams(0.5, 1.0, t_exponent_bound=6)
        got = interpolation_norm(self.Y, params, couple)
        value = interpolation_norm(self.REST, params, couple).value
        assert got.lower * (1.0 - 1e-8) <= value <= got.upper * (1.0 + 1e-8)

    def test_line_corners_follow_the_rest(self):
        # K = min(1, t) while N0 = 5: the upper corner is inf, not 1
        y = WeightedSeq.from_dict({0: 1.0, 3: 4.0})
        couple = CoupleSpec((0.0, 1.0), (-400.0, 1.0))
        assert interp._k_plan(y, couple).corners() == (1.0, INF)
        got = interpolation_norm(y, InterpolationParams(0.5, 1.0), couple)
        assert got.lower <= 4.0 <= got.upper  # the integral of t^-1/2 min(1, t) dt/t
        assert got.value == pytest.approx(4.0, rel=1e-5)

    def test_kfunc_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "rec.json"
        path.write_text(json.dumps({"records": [
            {"type": "radial_step", "dim": 1, "breakpoints": [0, 3, 6], "values": [1, 2]}]}))
        assert cli.main(["kfunc", "--input", str(path), "--a0", "0", "--q0", "2",
                         "--a1", "-400", "--q1", "2", "--points", "3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3


class TestKPlan:
    """One plan per source and couple, shared by every K entry point."""

    @pytest.mark.parametrize("entry", ["k_functional", "k_functional_curve", "interpolation_norm"])
    @pytest.mark.parametrize("y", [WeightedSeq(()), WeightedSeq(((0, 0.0),))],
                             ids=["empty", "zero"])
    @pytest.mark.parametrize("q_pair", [(0.5, 2.0), (2.0, 0.5)],
                             ids=lambda pair: "-".join(f"{q:g}" for q in pair))
    def test_zero_source_uncertified_rejected(self, entry, y, q_pair):
        couple = CoupleSpec((0.0, q_pair[0]), (1.0, q_pair[1]))
        with pytest.raises(ValueError, match="no certified K"):
            if entry == "k_functional":
                k_functional(1.0, y, couple)
            elif entry == "k_functional_curve":
                k_functional_curve([0.5, 2.0], y, couple)
            else:
                interpolation_norm(y, InterpolationParams(0.5, 1.0), couple)

    @pytest.mark.parametrize("couple", [
        CoupleSpec((0.0, 1.0), (1.0, 1.0)),
        CoupleSpec((0.0, 0.5), (0.5, 0.7)),
        CoupleSpec((0.2, 0.5), (1.0, INF)),
        CoupleSpec((0.3, INF), (0.0, 2.0)),
        CoupleSpec((0.0, 2.0), (1.0, INF)),
        CoupleSpec((0.0, 2.0), (1.0, 1.5)),
        CoupleSpec((0.2, 1.0), (0.5, 1.0), base="l1-linf"),
        CoupleSpec((0.2, 1.0), (0.5, INF), base="l1-linf"),
    ], ids=["linear", "vertex", "sup-second", "sup-first", "sup-finish", "descent",
            "endpoint-1-1", "endpoint-1-inf"])
    def test_norms(self, nonneg_corpus, couple):
        # the plan's (N0, N1) are the couple's norms of the source, bit for bit
        if couple.base:
            for source in (nonneg_corpus[2], annulus_profile(nonneg_corpus[2])):
                prof = annulus_profile(source)
                expected = (weighted_lq(dict(zip(prof.us, prof.integrals)), *couple.side0),
                            weighted_lq(dict(zip(prof.us, prof.tops)), *couple.side1))
                assert interp._k_plan(source, couple).norms == expected
        else:
            for y in (WeightedSeq.from_dict({-1: 0.5, 1: 2.0, 3: 0.25}), WeightedSeq(())):
                entries = y.as_dict()
                expected = (weighted_lq(entries, *couple.side0),
                            weighted_lq(entries, *couple.side1))
                assert plan_for(y, couple).norms == expected

    @pytest.mark.parametrize("couple", [
        CoupleSpec((0.0, 1.0), (1.0, 1.0)),
        CoupleSpec((0.0, 0.5), (0.5, 0.7)),
        CoupleSpec((0.2, 0.5), (1.0, INF)),
        CoupleSpec((0.3, INF), (0.0, 0.5)),
        CoupleSpec((0.2, 1.0), (0.5, 1.0), base="l1-linf"),
        CoupleSpec((0.2, 1.0), (0.5, INF), base="l1-linf"),
    ], ids=["linear", "vertex", "sup-second", "sup-first", "endpoint-1-1", "endpoint-1-inf"])
    def test_breaks_bound_linear_pieces(self, nonneg_corpus, couple):
        # K (the plan's _envelope, or t times the swapped one) is the chord
        # between consecutive breakpoints at their midpoints; a missing kink
        # would leave the concave K above its chord there
        sources = nonneg_corpus[:4] if couple.base else [
            WeightedSeq.from_dict({u: RNG.uniform(0.05, 3.0) for u in RNG.sample(range(-1, 8), n)})
            for n in (2, 3, 5)
        ]
        for source in sources:
            plan = plan_for(source, couple)
            lo, hi = plan.corners()
            breaks = plan.breaks(lo, hi)
            assert breaks == sorted(breaks) and all(lo < b < hi for b in breaks)
            ts = [lo, *breaks, hi]
            ks = list(map(plan.k, ts))
            mids = [0.5 * (t0 + t1) for t0, t1 in zip(ts, ts[1:])]
            for mid, t0, t1, k0, k1, k in zip(mids, ts, ts[1:], ks, ks[1:], map(plan.k, mids)):
                chord = ((t1 - mid) * k0 + (mid - t0) * k1) / (t1 - t0)
                assert k == pytest.approx(chord, rel=1e-13, abs=0.0), (source, mid)

    @pytest.mark.parametrize("couple", [
        CoupleSpec((0.0, 1.0), (1.0, 1.0)),
        CoupleSpec((0.0, 0.5), (0.5, 0.7)),
        CoupleSpec((0.2, 0.5), (1.0, INF)),
        CoupleSpec((0.3, INF), (0.0, 0.5)),
        CoupleSpec((0.2, 1.0), (0.5, 1.0), base="l1-linf"),
        CoupleSpec((0.2, 1.0), (0.5, INF), base="l1-linf"),
    ], ids=["linear", "vertex", "sup-second", "sup-first", "endpoint-1-1", "endpoint-1-inf"])
    def test_one_hull_pass_per_plan(self, monkeypatch, nonneg_corpus, couple):
        # corners and breakpoints both come off the plan's one hull pass
        calls = []
        hull = interp._envelope_breaks

        def counted(lines):
            calls.append(None)
            return hull(lines)

        monkeypatch.setattr(interp, "_envelope_breaks", counted)
        interp._k_plan.cache_clear()
        source = annulus_profile(nonneg_corpus[2]) if couple.base else random_seq(4)
        plan = plan_for(source, couple)
        for _ in range(3):
            lo, hi = plan.corners()
            plan.breaks(lo, hi)
            plan.breaks(2.0**-40, 2.0**40)
        for q in (1.5, INF):
            interpolation_norm(source, InterpolationParams(0.5, q), couple)
        assert len(calls) == 1

    @pytest.mark.parametrize("power", [-600, 600])
    def test_breaks_are_scale_invariant(self, power):
        # scaling every intercept and slope by one power of two moves no
        # crossing; at 2^+-600 the products of the chain test would overflow
        # or underflow unless the pass scales them back first
        y = WeightedSeq.from_dict({-1: 0.5, 1: 2.0, 3: 0.25, 4: 1.5})
        a_vec, b_vec = interp._side_vectors(y, CoupleSpec((0.0, 0.5), (0.5, 0.7)))
        c, d = interp._lines([interp._vertex_norms(a_vec, b_vec, 0.5, 0.7)])
        breaks = interp._envelope_breaks((c, d))
        assert len(breaks) >= 3
        assert interp._envelope_breaks((c * 2.0**power, d * 2.0**power)) == breaks

    def test_swapped_zero_corner_is_infinite(self):
        # -N'(max b) of the canonical couple's capped cost underflows to a
        # lower corner 0, which is an upper corner inf of the exchanged one
        y = WeightedSeq.from_dict({15: 1.5122299549928249, 18: 2.4677479758835816,
                                   28: 1.0467721484216457})
        couple = CoupleSpec((22.303229092392577, INF), (-26.51034745800751, 2.0))
        t_lo, t_hi = interp._k_plan(y, canonical(couple)[0]).corners()
        assert (t_lo, 1.0 / t_hi) == (0.0, 2.6017230203236085e+220)
        res = interpolation_norm(y, InterpolationParams(1.0, INF), couple)
        assert res.value == 2.974891504860194e-120  # N1, the sup of K(t)/t

    def test_swapped_breaks_from_zero(self):
        # the exchanged couple's breakpoints are the reciprocals of the
        # canonical plan's, which an upper end of inf reads in full
        y = WeightedSeq.from_dict({-1: 0.5, 1: 2.0, 3: 0.25})
        plan = interp._k_plan(y, CoupleSpec((0.0, 0.5), (0.3, INF)))
        expected = [0.08633881801885497, 0.11052723549445952, 1.2311444133449163]
        assert plan.breaks(0.0, INF) == plan.breaks(1e-300, 1e300)
        assert sorted(1.0 / b for b in plan.breaks(0.0, INF)) == expected

    @pytest.mark.parametrize("couple", [CoupleSpec((0.0, 2.0), (1.0, INF)),
                                        CoupleSpec((0.0, INF), (1.0, 2.0)),
                                        CoupleSpec((0.0, 2.0), (1.0, 1.5))],
                             ids=["sup-finish", "swapped-sup-finish", "descent"])
    def test_no_breaks_off_the_line_branches(self, couple):
        assert plan_for(random_seq(), couple).breaks is None

    def test_mismatched_source_rejected(self):
        with pytest.raises(ValueError, match="l1-linf couple"):
            k_functional(1.0, WeightedSeq.unit(0), CoupleSpec((0.0, 1.0), (0.0, INF), "l1-linf"))
        with pytest.raises(ValueError, match="sequence couple"):
            k_functional(1.0, ball(1, 1), CoupleSpec((0.0, 1.0), (1.0, 1.0)))

    def test_interpolation_norm_builds_one_plan(self, monkeypatch):
        # every per-t K of the descent branch reads the same plan
        calls = []
        side_vectors = interp._side_vectors

        def counted(*args):
            calls.append(None)
            return side_vectors(*args)

        monkeypatch.setattr(interp, "_side_vectors", counted)
        interp._k_plan.cache_clear()
        y = WeightedSeq.from_dict({-1: 0.5, 1: 2.0, 3: 0.25})
        params = InterpolationParams(0.5, 1.5, t_exponent_bound=20, rel_tol=1e-8)
        assert interpolation_norm(y, params, CoupleSpec((0.5, 1.0), (0.5, 2.0))).value > 0.0
        assert len(calls) <= 1

    @pytest.mark.parametrize("couple", [
        CoupleSpec((0.0, 1.0), (1.0, 1.0)),
        CoupleSpec((0.0, 2.0), (1.0, INF)),
        CoupleSpec((0.0, 0.5), (0.5, 0.7)),
        CoupleSpec((0.0, 2.0), (1.0, 1.5)),
        CoupleSpec((0.2, 1.0), (0.5, INF), base="l1-linf"),
    ], ids=["linear", "sup-finish", "vertex", "descent", "endpoint"])
    def test_cache_is_transparent(self, nonneg_corpus, couple):
        source = nonneg_corpus[0] if couple.base else random_seq()
        ts = [0.1, 0.7, 3.0, 20.0]
        cached = k_functional_curve(ts, source, couple)
        assert k_functional_curve(ts, source, couple) == cached
        interp._k_plan.cache_clear()
        assert k_functional_curve(ts, source, couple) == cached


_FIVE_ANNULI = RadialStepFunction(1, [0, Fraction(1, 2), 1, 2, 4, 8], [3, 2, 1, 5, Fraction(1, 2)])


class TestKfunc:
    """`herzlab kfunc` prints one K curve of the record's plan."""

    def test_l1_linf_matches_exact_oracle(self, tmp_path, capsys, nonneg_corpus):
        fns = [_FIVE_ANNULI, *nonneg_corpus[:4]]
        path = tmp_path / "steps.json"
        save_corpus(fns, path)
        for i, f in enumerate(fns):
            assert cli.main(["kfunc", "--input", str(path), "--index", str(i), "--l1-linf",
                             "--t-lo", "1e-3", "--t-hi", "1e3", "--points", "33"]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 33
            for line in lines:
                t, k = map(float, line.split("\t"))
                assert k == pytest.approx(exact_l1_linf_k(f, t), rel=1e-13, abs=0.0), (i, t)

    def test_descent_couple_prints_the_retract_curve(self, tmp_path, capsys):
        path = tmp_path / "steps.json"
        save_corpus([_FIVE_ANNULI], path)
        assert cli.main(["kfunc", "--input", str(path), "--q0", "1", "--q1", "2",
                         "--points", "17"]) == 0
        out = capsys.readouterr().out
        ts = [float(line.split("\t")[0]) for line in out.splitlines()]
        y = retract_L(_FIVE_ANNULI, LorentzParams(2.0, 2.0))
        ks = k_functional_curve(ts, y, CoupleSpec((0.0, 1.0), (1.0, 2.0)))
        assert out == "".join(f"{t!r}\t{k!r}\n" for t, k in zip(ts, ks))

    def test_corner_dual_forms_no_power_of_a_side_weight(self, tmp_path, capsys):
        # a0 = 80 weighs the shell at radius 2048 by 2^880, whose 16th power
        # overflows; the dual-norm corner test forms (b / N1)^(q1 - 1) b / a
        f = RadialStepFunction(1, [0, 1, 2048], [1, 1])
        path = tmp_path / "steps.json"
        save_corpus([f], path)
        assert cli.main(["kfunc", "--input", str(path), "--a0", "80", "--q0", "16",
                         "--a1", "0", "--q1", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for line in lines:
            t, k = map(float, line.split("\t"))
            assert 0.0 < k < INF
        t, k = map(float, lines[-1].split("\t"))
        assert (t, k) == (1024.0, pytest.approx(65520.9668040209, rel=1e-12))
        y = retract_L(f, LorentzParams(2.0, 2.0))
        t_lo, t_hi = plan_for(y, CoupleSpec((80.0, 16.0), (0.0, 2.0))).corners()
        assert 0.0 < t_lo <= t_hi < INF

    @pytest.mark.parametrize("q_pair", [("2", "inf"), ("inf", "2")])
    def test_sup_finish_prints_plain_floats(self, tmp_path, capsys, q_pair):
        # the golden-section value reaches the output as a plain float, never as
        # np.float64(...), which no float parser reads
        path = tmp_path / "steps.json"
        save_corpus([_FIVE_ANNULI], path)
        assert cli.main(["kfunc", "--input", str(path), "--q0", q_pair[0], "--q1", q_pair[1],
                         "--points", "17"]) == 0
        for line in capsys.readouterr().out.splitlines():
            t, k = map(float, line.split("\t"))
            assert 0.0 < k < INF


def bisect_slice_root(deriv):
    """47-step bisection on [0, 1], the reference for _root."""
    lo, hi = 0.0, 1.0
    for _ in range(47):
        mid = 0.5 * (lo + hi)
        if deriv(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def slice_deriv(t, a, b, c0, c1, q0, q1):
    """Derivative in x of (c0 + (a x)^q0)^(1/q0) + t (c1 + (b (1 - x))^q1)^(1/q1),
    one coordinate slice of the split objective (c0 and c1 the other
    coordinates' power sums); increasing on [0, 1]."""
    e0 = (1.0 - q0) / q0
    e1 = (1.0 - q1) / q1

    def deriv(x):
        g0 = c0 + (a * x) ** q0
        d0 = a if g0 == 0.0 else (a**q0) * x ** (q0 - 1.0) * g0**e0
        g1 = c1 + (b * (1.0 - x)) ** q1
        d1 = b if g1 == 0.0 else (b**q1) * (1.0 - x) ** (q1 - 1.0) * g1**e1
        return d0 - t * d1

    return deriv


def random_slice(rng, q0, q1, t):
    a, b = 10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-2, 2)
    c0 = rng.choice([0.0, rng.uniform(0.0, 3.0) * a**q0])
    c1 = rng.choice([0.0, rng.uniform(0.0, 3.0) * b**q1])
    return slice_deriv(t, a, b, c0, c1, q0, q1)


class TestSliceRoot:
    """_root, the one monotone root of every non-line K branch: Illinois regula
    falsi with a bisection safeguard, here on increasing slice derivatives."""

    @staticmethod
    def solve(deriv):
        calls = []

        def counted(x):
            calls.append(x)
            return deriv(x)

        f_lo, f_hi = deriv(0.0), deriv(1.0)
        assert f_lo < 0.0 < f_hi
        return interp._root(counted, 0.0, 1.0, f_lo, f_hi), calls

    def test_agrees_with_bisection(self):
        rng = random.Random(47)
        solved = 0
        while solved < 300:
            q0, q1 = rng.choice([1.0, 1.5, 2.0, 3.0, 8.0]), rng.choice([1.5, 2.0, 4.0])
            deriv = random_slice(rng, q0, q1, 10.0 ** rng.uniform(-3, 3))
            if not deriv(0.0) < 0.0 < deriv(1.0):
                continue
            x, _ = self.solve(deriv)
            assert x == pytest.approx(bisect_slice_root(deriv), rel=0.0, abs=1e-12)
            solved += 1

    @pytest.mark.parametrize("q", [1.5, 8.0])
    @pytest.mark.parametrize("t", [1e-6, 1e6])
    def test_terminates_within_cap(self, q, t):
        rng = random.Random(str((q, t)))
        solved = 0
        for _ in range(2000):
            deriv = random_slice(rng, q, q, t)
            if deriv(0.0) < 0.0 < deriv(1.0):
                x, calls = self.solve(deriv)
                assert len(calls) <= interp._SLICE_STEPS
                assert x == pytest.approx(bisect_slice_root(deriv), rel=0.0, abs=1e-12)
                solved += 1
        assert solved > 0

    @pytest.mark.parametrize("deriv, root", [
        (lambda x: x - 0.5, 0.5),  # the first secant point is the root
        (lambda x: max(x - 0.5, 0.0) - max(0.25 - x, 0.0), None),  # zero on [0.25, 0.5]
    ], ids=["secant-node", "flat"])
    def test_exact_zero_at_a_node(self, deriv, root):
        x, calls = self.solve(deriv)
        assert deriv(x) == 0.0 and len(calls) <= interp._SLICE_STEPS
        assert root is None or x == root

    def test_hoelder_kink_of_the_sup_slope(self):
        # N' of the capped cost has a Hoelder kink (exponent q0 - 1 = 0.2)
        # next to the root; plain Illinois spent 100 steps there and stopped
        # 6.7e-9 high, the bisection safeguard reaches the minimum
        y = WeightedSeq.from_dict({
            -1: 2.1115805079328163, 7: 0.482551632750576, 9: 1.4853204590006261,
            11: 1.8655745104273793, 12: 2.8774313839523957,
        })
        couple = CoupleSpec((0.4597868372954297, 1.2), (-0.6096015603914711, INF))
        t = 0.4787141203418233
        assert k_functional(t, y, couple) == pytest.approx(1.5353895075056272, rel=1e-14, abs=0.0)
        # the minimum sits on the kink b_u = 0.0331...; plain Illinois stops
        # 3.5e-10 relative short of it after all its steps
        a, b = interp._side_vectors(y, couple)
        _, kinks = interp._sup_cost(a, b, 1.2)
        top = kinks[-1]

        def slope(v):  # t + N'(v max b); N is linear on its last kink interval
            return t + interp._sup_slope(a, b, 1.2, v * top if v < 1.0 else 0.5 * (kinks[-2] + top))

        x, _ = self.solve(slope)
        assert top * x == pytest.approx(kinks[-2], rel=1e-12, abs=0.0)


class TestInterpolationNorm:
    def test_unit_vector_closed_form(self):
        couple = CoupleSpec((0.0, 1.0), (1.0, 1.0))
        params = InterpolationParams(0.5, 1.0, t_exponent_bound=40, rel_tol=1e-10)
        for u in range(-1, 11):
            res = interpolation_norm(WeightedSeq.unit(u), params, couple)
            assert res.value == pytest.approx(4.0 * 2.0 ** (u / 2.0), rel=1e-9)
            assert res.lower <= res.value <= res.upper

    @pytest.mark.parametrize("couple", [
        CoupleSpec((0.0, 1.0), (1.0, 1.0)),
        CoupleSpec((0.5, 1.0), (0.5, 2.0)),
        CoupleSpec((0.3, 1.0), (0.3, INF)),
        CoupleSpec((0.3, INF), (0.0, 2.0)),
        CoupleSpec((0.0, 0.5), (1.0, 0.7)),
    ])
    def test_unit_vector_needs_no_k_solve(self, monkeypatch, couple):
        # both corners of K sit at a/b, so the whole integral is closed form
        calls = []
        monkeypatch.setattr(interp, "k_functional", lambda *args: calls.append(args))
        params = InterpolationParams(0.5, 1.5, t_exponent_bound=28, rel_tol=1e-8)
        for u in (-1, 0, 3):
            res = interpolation_norm(WeightedSeq.unit(u), params, couple)
            assert res.lower == res.upper == res.value > 0.0
        assert calls == []

    def test_front_sup_form_is_bracketed_inside_the_corners(self, monkeypatch):
        # K has no linear form on the front branch: the sup form reads K at
        # the clipped corners and the grid points between them, and its upper
        # end bounds t^-theta K between nodes; a grid of 64 points per octave
        # reaches 7.593237946283086, above the 16-per-octave node maximum
        calls = []
        solve = interp.k_functional

        def counted(*args, **kwargs):
            calls.append(args[0])
            return solve(*args, **kwargs)

        monkeypatch.setattr(interp, "k_functional", counted)
        y = WeightedSeq.from_dict({0: 0.3478033125617712, 3: 1.840295142288864,
                                   4: 1.0007017194395404})
        couple = CoupleSpec((0.0, 1.0), (1.0, 2.0))
        t_lo, t_hi = interp._k_plan(y, couple).corners()
        res = interpolation_norm(y, InterpolationParams(0.5, INF, t_exponent_bound=12), couple)
        assert res.lower == res.value <= 7.593237946283086 <= res.upper
        inside = sum(t_lo < 2.0 ** (j / 16) < t_hi for j in range(-12 * 16, 12 * 16 + 1))
        assert len(calls) <= inside + 2
        assert all(t_lo <= t <= t_hi for t in calls)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 4.0, INF])
    def test_l1_linf_equals_star_norm(self, nonneg_corpus, q):
        # (L^1, L^inf)_{theta,q} has K = t f**(t): both sides integrate the
        # same chords of the same primitive
        for i, f in enumerate(nonneg_corpus[:8]):
            if f.is_zero():
                continue
            theta = (0.3, 0.5, 0.7)[i % 3]
            got = interpolation_norm(f, InterpolationParams(theta, q), L1_LINF).value
            star = lorentz_star_norm(f, LorentzParams(1.0 / (1.0 - theta), q))
            assert got == pytest.approx(star, rel=1e-12, abs=0.0), (i, theta)

    @pytest.mark.parametrize("couple", [
        CoupleSpec((0.0, 1.0), (1.0, 1.0)),
        CoupleSpec((0.0, 0.5), (0.5, 0.7)),
        CoupleSpec((0.2, 0.5), (1.0, INF)),
        CoupleSpec((0.3, INF), (0.0, 0.5)),
        CoupleSpec((0.2, 1.0), (0.5, 1.0), base="l1-linf"),
        CoupleSpec((0.2, 1.0), (0.5, INF), base="l1-linf"),
    ], ids=["linear", "vertex", "sup-second", "sup-first", "endpoint-1-1", "endpoint-1-inf"])
    def test_line_branch_bracket(self, nonneg_corpus, couple):
        sources = nonneg_corpus[:4] if couple.base else [random_seq(n) for n in (2, 3, 5)]
        for source in sources:
            for theta, q in ((0.5, 1.5), (0.3, 1.0), (0.7, 4.0)):
                res = interpolation_norm(source, InterpolationParams(theta, q), couple)
                assert res.lower <= res.value <= res.upper
                assert res.upper - res.lower <= 1e-10 * res.value

    def test_identity_bands_pinned(self, tmp_path):
        # the default weight-interpolation, hl-3 and hl-4 bands sit on their
        # exact values 4, 1 and 2
        def bands(suite):
            out = tmp_path / f"{suite}.json"
            assert cli.main(["verify", suite, "--out", str(out)]) == 0
            records = json.loads(out.read_text())["records"]
            return {r["check_id"]: ast.literal_eval(r["notes"].removeprefix("band=")) for r in records}

        seq, hl = bands("interp-seq"), bands("interp-hl")
        for band, exact in ((seq["weight-interpolation"], 4.0), (hl["hl-3"], 1.0), (hl["hl-4"], 2.0)):
            assert band == pytest.approx((exact, exact), rel=1e-13, abs=0.0)

    def test_interp_seq_k_solve_count(self, monkeypatch, tmp_path):
        # the corner ranges leave 456 K solves of the 34,696 that a
        # full [2^-28, 2^28] window takes
        calls = []
        solve = interp.k_functional

        def counted(*args, **kwargs):
            calls.append(None)
            return solve(*args, **kwargs)

        monkeypatch.setattr(interp, "k_functional", counted)
        assert cli.main(["verify", "interp-seq", "--out", str(tmp_path / "r.json")]) == 0
        assert 0 < len(calls) < 2500

    def test_indicator_endpoint_couple(self):
        couple = CoupleSpec((0.0, 1.0), (0.0, INF), base="l1-linf")
        params = InterpolationParams(0.5, 2.0, t_exponent_bound=40, rel_tol=1e-10)
        for mu in (0.25, 1.0, 9.0):
            chi = ball(1, Fraction(mu))
            res = interpolation_norm(chi, params, couple)
            assert res.value == pytest.approx(math.sqrt(2.0 * mu), abs=1e-8)
            star = lorentz_star_norm(chi, LorentzParams(2, 2))
            assert res.value == pytest.approx(star, abs=1e-8)

    def test_homogeneity(self):
        couple = CoupleSpec((0.0, 1.0), (1.0, 2.0))
        params = InterpolationParams(0.4, 1.5, t_exponent_bound=24, rel_tol=1e-9)
        y = random_seq()
        v1 = interpolation_norm(y, params, couple).value
        v2 = interpolation_norm(y.scaled(2.0), params, couple).value
        assert v2 == pytest.approx(2.0 * v1, rel=1e-9)

    def test_sup_form_endpoints(self):
        y = WeightedSeq.from_dict({0: 1.0, 1: 2.0})
        couple = CoupleSpec((0.0, 1.0), (1.0, 1.0))
        res0 = interpolation_norm(y, InterpolationParams(0.0, INF), couple)
        assert res0.value == pytest.approx(weighted_lq(y.as_dict(), 0.0, 1.0), rel=1e-9)
        res1 = interpolation_norm(y, InterpolationParams(1.0, INF), couple)
        assert res1.value == pytest.approx(weighted_lq(y.as_dict(), 1.0, 1.0), rel=1e-9)

    def test_sup_form_interior_theta(self):
        # unit vector: sup_t t^{-1/2} min(1, t 2^u) is attained at the kink
        # t = 2^{-u} with value 2^{u/2}
        couple = CoupleSpec((0.0, 1.0), (1.0, 1.0))
        params = InterpolationParams(0.5, INF, t_exponent_bound=24)
        for u in (-1, 0, 3):
            res = interpolation_norm(WeightedSeq.unit(u), params, couple)
            assert res.value == pytest.approx(2.0 ** (u / 2.0), rel=1e-12)

    def test_sup_form_on_a_line_branch_reads_the_breakpoints(self):
        # the log grid missed this sup by 0.59% (1.8927462306496876)
        f = random_step_functions(3, seed=7, nonnegative=True)[1]
        params = InterpolationParams(0.5, INF)
        res = interpolation_norm(f, params, L1_LINF)
        plan = interp._k_plan(annulus_profile(f), L1_LINF)
        t_lo, t_hi = plan.corners()  # inside [2^-40, 2^40]
        ts = [t_lo, *plan.breaks(t_lo, t_hi), t_hi]
        best = max(k_functional(t, f, L1_LINF) / t**0.5 for t in ts)
        assert res.value == res.lower == res.upper == best == 1.903943276465977
        # no sample of t^-theta K(t) on a fine log grid exceeds it
        grid = np.geomspace(2.0**-20, 2.0**20, 4001)
        assert max(k_functional(t, f, L1_LINF) / t**0.5 for t in grid) <= best * (1 + 1e-12)

    @pytest.mark.parametrize("couple", [CoupleSpec((-10.0, 1.0), (0.0, 1.0)),
                                        CoupleSpec((0.0, 1.0), (-10.0, 1.0))],
                             ids=["n0-underflows", "n1-underflows"])
    @pytest.mark.parametrize("theta, q", [(0.5, 1.0), (0.5, 2.0), (0.5, INF), (0.0, INF),
                                          (1.0, INF)])
    def test_zero_couple_norm_gives_zero(self, couple, theta, q):
        # 2^(-10 * 200) underflows to 0, so one couple norm is 0 and
        # K <= min(N0, t N1) vanishes
        y = WeightedSeq.from_dict({200: 1.0})
        res = interpolation_norm(y, InterpolationParams(theta, q), couple)
        assert res.value == res.lower == res.upper == 0.0

    @pytest.mark.parametrize("q0", [2.0, 1.0])
    def test_simpson_main_part_is_rescaled(self, q0):
        # v^q = 2^-2866 leaves the floats: k_norm rescales K, and the main
        # part that the caller integrates with it; (0, 0, 0) came back.  One
        # coordinate has K = min(a, t b), whose norm is in closed form
        y = WeightedSeq.from_dict({14: 0.7741741379366491})
        couple = CoupleSpec((-25.587140209623833, q0), (-25.17424706016302, 2.0))
        theta, q = 0.25, 8.0
        (a,), (b,) = interp._side_vectors(y, couple)
        exact = a ** (1.0 - theta) * b**theta * (theta * (1.0 - theta) * q) ** (-1.0 / q)
        res = interpolation_norm(y, InterpolationParams(theta, q), couple)
        assert [res.value, res.lower, res.upper] == pytest.approx([exact] * 3, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("q0", [2.0, 1.0])
    def test_simpson_main_part_scales_with_the_source(self, q0):
        # 2^-400 y puts v^q near 2^-3200, and Simpson runs between distinct
        # corners there: the norm is 2^-400 times that of y
        y = WeightedSeq.from_dict({-1: 0.5, 1: 2.0, 3: 0.25})
        couple = CoupleSpec((0.5, q0), (0.5, 2.0))
        params = InterpolationParams(0.25, 8.0)
        assert interp._k_plan(y, couple).breaks is None
        res = interpolation_norm(y, params, couple)
        tiny = interpolation_norm(y.scaled(2.0**-400), params, couple)
        assert [tiny.value, tiny.lower, tiny.upper] == pytest.approx(
            [math.ldexp(v, -400) for v in (res.value, res.lower, res.upper)], rel=1e-8, abs=0.0)

    def test_bracket_holds_where_line_products_overflow(self):
        # lines near 1e166 overflow the hull's products unscaled, and the
        # hull then reads the upper corner of K too early; the value here
        # is the integral of the same float lines at 50 digits (mpmath)
        y = WeightedSeq(((7, 1.5803993183189418), (15, 0.07831519543385147),
                         (21, 0.16843852268639536), (23, 2.349052267429425),
                         (35, 1.1928369443549418), (39, 2.7978317118559874)))
        couple = CoupleSpec((14.127298142488144, INF), (14.127298142488144, 0.7))
        params = InterpolationParams(0.5982733544544113, 1.5, t_exponent_bound=3)
        res = interpolation_norm(y, params, couple)
        assert res.lower <= 3.9727081434711757e166 <= res.upper

    def test_theta_bounds_enforced(self):
        with pytest.raises(ValueError):
            InterpolationParams(0.0, 2.0)
        with pytest.raises(ValueError):
            InterpolationParams(1.2, INF)


class TestTail:
    """quadrature._tail brackets the integral of (t^-theta K)^q dt/t over
    [t0, inf), and over (0, t0] as the upper tail of the swapped couple."""

    N0, N1 = 3.0, 0.75  # K = min(N0, t N1) meets N0 at t = 4

    def exact(self, lo, hi, theta, q):
        # the integral in x = log t, split at the corner, each side formed so
        # that no exponential grows
        corner = math.log(4.0)

        def integrand(x):
            if x >= corner:
                return (math.exp(-theta * x) * self.N0) ** q
            return (math.exp((1.0 - theta) * x) * self.N1) ** q

        ends = sorted({lo, hi, min(max(corner, lo), hi)})
        return math.fsum(quad(integrand, x0, x1, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                         for x0, x1 in zip(ends, ends[1:]))

    @pytest.mark.parametrize("theta", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("q", [1.0, 1.5, 4.0])
    def test_matches_quadrature(self, theta, q):
        for t0 in (0.5, 4.0, 20.0):
            upper_tail = quadrature._tail(self.N0, self.N1, t0, theta, q, None)
            lower_tail = quadrature._tail(self.N1, self.N0, 1.0 / t0, 1.0 - theta, q, None)
            for (lower, upper), (lo, hi) in ((upper_tail, (math.log(t0), INF)),
                                             (lower_tail, (-INF, math.log(t0)))):
                assert lower == upper
                assert upper == pytest.approx(self.exact(lo, hi, theta, q), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("theta", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("q", [1.0, 1.5, 4.0])
    def test_known_value_brackets(self, theta, q):
        # K(t0) = k0 bounds K below from t0 on (and K(t)/t from t0 down)
        for t0 in (0.5, 20.0):
            k0 = min(self.N0, t0 * self.N1)
            lower, upper = quadrature._tail(self.N0, self.N1, t0, theta, q, k0)
            assert lower <= self.exact(math.log(t0), INF, theta, q) * (1 + 1e-12)
            assert lower <= upper
            lower, upper = quadrature._tail(self.N1, self.N0, 1.0 / t0, 1.0 - theta, q, k0 / t0)
            assert lower <= self.exact(-INF, math.log(t0), theta, q) * (1 + 1e-12)
            assert lower <= upper

    @pytest.mark.parametrize("entry, side0, side1, theta, q", [
        # N0 / N1 underflows, and the direct form is NaN
        ((33, 0.5816261232162708), (-29.829831159521813, 1.0), (3.193693066662725, 1.0),
         0.75, 4.0),
        # N1^q underflows to 0, and the direct form is 17% low
        ((32, 2.8619616497828466), (-0.8060105551012242, INF), (-28.292095253887627, 0.5),
         0.25, 1.5),
        # (N0 / N1)^(-theta q) underflows, and the direct form is 7% low
        ((18, 2.2489048313156754), (7.560842912344, 1.0), (-12.930449845423478, 1.0),
         0.75, 4.0),
        # the q-th power of the norm underflows, and unscaled K gives (0, 0, 0)
        ((34, 0.39329992735447755), (-21.67460851801758, 1.0), (-20.043699576945706, 1.0),
         0.25, 4.0),
        # the q-th power is subnormal, and unscaled K gives lower = upper, 3e-7 low
        ((19, 2.5501274984790365), (-13.897560304471483, 1.0), (-14.024376507180747, INF),
         0.5, 4.0),
        # the power sum of the corner's dual-norm test underflows; it gave 0,
        # and the lower corner 1/0 raised ZeroDivisionError
        ((33, 1.90162218395501), (18.977418095009867, 2.0), (-7.046661983176744, 2.0),
         0.75, 1.0),
    ], ids=["ratio-underflow", "power-underflow", "crossover-power-underflow",
            "norm-power-underflow", "norm-power-subnormal", "corner-dual-underflow"])
    def test_norms_past_the_float_range(self, entry, side0, side1, theta, q):
        # both tail pieces go through the crossover value N0^(1-theta) N1^theta,
        # for K = min(N0, t N1) of one coordinate: the norm is that value
        # times (theta (1 - theta) q)^(-1/q)
        y, couple = WeightedSeq.from_dict(dict([entry])), CoupleSpec(side0, side1)
        n0, n1 = plan_for(y, couple).norms
        oracle = n0 ** (1.0 - theta) * n1**theta * (theta * (1.0 - theta) * q) ** (-1.0 / q)
        res = interpolation_norm(y, InterpolationParams(theta, q), couple)
        # the window clips the corner, so the bracket can be wide
        assert all(map(math.isfinite, (res.value, res.lower, res.upper)))
        assert res.lower <= oracle <= res.upper * (1.0 + 1e-12)


class TestVerifySuites:
    def test_seq_a_unit_vectors_ratio_four(self):
        ys = [WeightedSeq.unit(u) for u in range(-1, 11)]
        rep = verify_interpolation("seq-a", ys, theta=0.5, q=1.0, a0=0.0, a1=1.0)
        assert rep.passed
        assert rep.band[0] == pytest.approx(4.0, abs=1e-6)
        assert rep.band[1] == pytest.approx(4.0, abs=1e-6)

    def test_seq_q_band(self):
        ys = [WeightedSeq.unit(0), WeightedSeq.from_dict({-1: 1.0, 2: 0.5})]
        rep = verify_interpolation("seq-q", ys, theta=0.5, a0=0.3, a1=0.3,
                                   q0=1.0, q1=INF)
        assert rep.passed

    def test_lorentz_suite_ratio_one(self):
        fns = [ball(1, Fraction(m)) for m in (Fraction(1, 4), 1, 9)]
        rep = verify_interpolation("lorentz", fns, theta=0.5, q=2.0)
        assert rep.passed
        assert rep.band[0] == pytest.approx(1.0, abs=1e-7)
        assert rep.band[1] == pytest.approx(1.0, abs=1e-7)

    def test_hl_suites_band_stable(self):
        fns = random_step_functions(3, seed=5, nonnegative=True)
        base = LorentzParams(2.0, 2.0)
        rep1 = verify_interpolation("hl-1", fns, theta=0.5, q=1.5, a0=0.0, a1=1.0,
                                    q0=1.0, q1=1.0, base=base)
        assert rep1.passed and rep1.stability <= 50.0
        rep2 = verify_interpolation("hl-2", fns, theta=0.5, a0=0.3, a1=0.3,
                                    q0=1.0, q1=INF, base=base)
        assert rep2.passed
        rep3 = verify_interpolation("hl-3", fns, theta=0.5, a0=0.0, a1=0.5,
                                    q0=1.0, q1=1.0)
        assert rep3.passed
        assert rep3.band[1] == pytest.approx(1.0, rel=1e-6)
        rep4 = verify_interpolation("hl-4", fns, theta=0.5, a0=0.2, a1=0.2,
                                    q0=1.0, q1=1.0)
        assert rep4.passed
        # at theta = 1/2 the target base has p = 2, r = 1, where the averaged
        # and plain profiles differ by the exact factor p/(p-1) = 2
        assert rep4.band[0] == pytest.approx(2.0, rel=1e-6)
        assert rep4.band[1] == pytest.approx(2.0, rel=1e-6)

    def test_zero_member_is_skipped(self):
        # 0/0 carries no ratio: a zero function is skipped, as a zero sequence is
        fns = random_step_functions(2, seed=5, nonnegative=True)
        zero = RadialStepFunction(1, [0, 1], [0])
        kw = dict(theta=0.5, a0=0.2, a1=0.2, q0=1.0, q1=1.0)
        with_zero = verify_interpolation("hl-4", fns + [zero], **kw)
        assert with_zero == verify_interpolation("hl-4", fns, **kw)
        assert with_zero.passed
        with pytest.raises(ValueError, match="no nonzero member"):
            verify_interpolation("hl-4", [zero], **kw)

    def test_single_annulus_reduction_constant_ratio(self):
        from herzlab.herz import annulus_indicator

        fns = [annulus_indicator(u, value=1 + u % 3) for u in (0, 2, 4)]
        base = LorentzParams(2.0, 2.0)
        rep = verify_interpolation("hl-2", fns, theta=0.5, a0=0.3, a1=0.3,
                                   q0=1.0, q1=INF, base=base)
        assert rep.passed
        assert rep.stability == pytest.approx(1.0, rel=1e-6)

    def test_hypothesis_gates(self):
        ys = [WeightedSeq.unit(0)]
        with pytest.raises(ValueError):
            verify_interpolation("seq-a", ys, theta=0.5, q=1.0, a0=1.0, a1=1.0)
        with pytest.raises(ValueError):
            verify_interpolation("hl-3", [], theta=0.5, a0=0.0, a1=1.0, q0=INF, q1=1.0)
        with pytest.raises(ValueError):
            verify_interpolation("nope", ys)
