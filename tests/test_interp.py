import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from herzlab import cli, interp
from herzlab.corpus import random_step_functions
from herzlab.herz import HerzParams, annuli_decompose, annulus_profile, hl_norm, weighted_lq
from herzlab.interp import (
    CoupleSpec,
    InterpolationParams,
    WeightedSeq,
    check_k_curve,
    coretract_M,
    ell_norm,
    interpolation_norm,
    k_functional,
    k_functional_curve,
    k_functional_herz_endpoint,
    k_functional_l1_linf,
    retract_L,
    verify_interpolation,
)
from herzlab.lorentz import INF, LorentzParams, lorentz_star_norm
from herzlab.rearrange import ball, radial_step, rearrangement

RNG = random.Random(20240811)


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
            assert ell_norm(WeightedSeq.unit(u), 0.7, 2.0) == 2.0 ** (0.7 * u)

    def test_ones_weighted_l1(self):
        y = WeightedSeq.from_dict({-1: 1.0, 0: 1.0, 1: 1.0})
        assert ell_norm(y, 1.0, 1.0) == pytest.approx(3.5)

    def test_euclidean(self):
        y = WeightedSeq.from_dict({0: 3.0, 1: 4.0})
        assert ell_norm(y, 0.0, 2.0) == pytest.approx(5.0)

    def test_sup_form(self):
        y = WeightedSeq.from_dict({0: 3.0, 2: 1.0})
        assert ell_norm(y, 1.0, INF) == pytest.approx(4.0)


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
                assert ell_norm(y, a, q) == hl_norm(f, HerzParams(a, 2, q, 1))

    def test_coretract_inverts(self, step_corpus):
        base = LorentzParams(2, 2)
        for f in step_corpus[:25]:
            pieces = dict(annuli_decompose(f))
            if not pieces:
                continue
            y = retract_L(f, base)
            assert coretract_M(y, pieces, base) == f

    def test_zero_sequence(self):
        zero = radial_step(1, [0, 1], [0])
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
        n0 = ell_norm(y, 0.0, 1.0)
        n1 = ell_norm(y, 1.0, 1.0)
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

    @pytest.mark.parametrize("q_pair", [(1.0, 1.0), (2.0, INF), (INF, 2.0), (0.5, 0.7)])
    def test_curve_matches_pointwise(self, q_pair):
        # only the descent branch warm-starts along the curve; every other
        # branch solves each t afresh and must agree bit for bit
        couple = CoupleSpec((0.0, q_pair[0]), (1.0, q_pair[1]))
        y = random_seq()
        ts = [0.25, 1.0, 3.0]
        assert k_functional_curve(ts, y, couple) == [k_functional(t, y, couple) for t in ts]

    def test_curve_warm_start_does_not_stall(self):
        # carried from the first t, the descent stopped 9.7e-4 relative above
        # the minimum at the second; the dual gap now sends it to a cold start
        y = WeightedSeq.from_dict({-1: 0.5, 1: 2.0, 3: 0.25})
        couple = CoupleSpec((0.5, 1.0), (0.5, 2.0))
        ts = [1.7467673861991688, 1.7232789477462738]
        curve = k_functional_curve(ts, y, couple)
        for t, k in zip(ts, curve):
            assert k == pytest.approx(k_functional(t, y, couple), rel=1e-12, abs=0.0)
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
        # the sweeps stopped on stagnation 1.6e-4 relative above the minimum;
        # the dual gap now resumes them
        y = WeightedSeq.from_dict({
            -1: 1.450107072626387, 0: 0.11419386099289482, 1: 1.8522097266988595,
            3: 0.8313159135559351, 4: 0.8829038246587034, 5: 2.5754675623642673,
            6: 2.80263721924572,
        })
        couple = CoupleSpec((0.0, 3.0), (0.5, 1.0))
        got = k_functional(0.07230071540063591, y, couple)
        assert got == pytest.approx(3.36716443877377, rel=1e-12)

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
        n0 = ell_norm(y, 0.0, 2.0)
        n1 = ell_norm(y, 1.0, 1.5)
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


class TestKL1Linf:
    def test_indicator_min_form(self):
        chi = ball(1, 1)
        assert k_functional_l1_linf(chi, 0.25) == pytest.approx(0.25)
        assert k_functional_l1_linf(chi, 7.0) == pytest.approx(1.0)

    def test_two_shell_value(self, two_shell):
        assert k_functional_l1_linf(two_shell, 1.0) == pytest.approx(2.0)

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
                        ((w - c) * m for w, m in zip(g.levels, g.segment_masses()) if w > c),
                        Fraction(0),
                    )
                    + t * c
                    for c in candidates
                )
                got = k_functional_l1_linf(f, float(t))
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
            got = k_functional_herz_endpoint(t, f, couple)
            expected = min((3.0 - c) * mu + t * c for c in (0.0, 3.0))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_weighted_separable_matches_manual(self):
        f = radial_step(1, [0, Fraction(1, 2), 1], [2, 1])
        couple = CoupleSpec((0.0, 1.0), (1.0, 1.0), base="l1-linf")
        t = 1.0
        # coordinates A_{-1} (value 2, measure 1) and A_0 (value 1, measure 1)
        k_inner = min(2.0 * 1.0, t * 2.0 ** (-1) * 2.0, 1.0 + t * 2.0 ** (-1) * 1.0)
        k_outer = min(1.0, t * 1.0)
        got = k_functional_herz_endpoint(t, f, couple)
        assert got == pytest.approx(k_inner + k_outer, rel=1e-12)

    @pytest.mark.parametrize("q_pair", [(0.5, 1.0), (1.0, 0.7)])
    def test_subunit_exponent_rejected(self, q_pair):
        couple = CoupleSpec((0.0, q_pair[0]), (0.0, q_pair[1]), base="l1-linf")
        with pytest.raises(ValueError, match="exponents >= 1"):
            k_functional_herz_endpoint(1.0, ball(1, 1), couple)

    @pytest.mark.parametrize("weights", [(0.2, 0.5), (-0.3, 0.4)])
    def test_one_inf_matches_level_cap_scan(self, nonneg_corpus, weights):
        couple = CoupleSpec((weights[0], 1.0), (weights[1], INF), base="l1-linf")
        for f in nonneg_corpus[:5]:
            oracle = _herz_endpoint_oracle(f, couple)
            for t in (0.05, 0.5, 2.0, 7.0):
                got = k_functional_herz_endpoint(t, f, couple)
                assert got == pytest.approx(oracle(t), rel=1e-12, abs=0.0)

    def test_weightless_one_inf_is_l1_linf(self, nonneg_corpus):
        # the slice descent returned up to 31% more than integral_0^t f*
        couple = CoupleSpec((0.0, 1.0), (0.0, INF), base="l1-linf")
        for f in nonneg_corpus[:6]:
            for t in (0.1, 0.5, 1.0, 3.0, 10.0, 40.0):
                expected = k_functional_l1_linf(f, t)
                assert k_functional_herz_endpoint(t, f, couple) == pytest.approx(
                    expected, rel=1e-13, abs=0.0
                )

    @pytest.mark.parametrize("q_pair", [(2.0, INF), (INF, 1.0), (INF, 2.0), (INF, INF)])
    def test_other_infinite_exponents_rejected(self, nonneg_corpus, q_pair):
        couple = CoupleSpec((0.2, q_pair[0]), (0.5, q_pair[1]), base="l1-linf")
        with pytest.raises(ValueError, match=r"\(1, inf\)"):
            k_functional_herz_endpoint(1.0, nonneg_corpus[0], couple)

    def test_descent_matches_separable_case(self, nonneg_corpus):
        # outer exponents (1,1) have an exact separable solution; the descent
        # path must reproduce it when entered with q1 slightly above 1
        couple_exact = CoupleSpec((0.2, 1.0), (0.4, 1.0), base="l1-linf")
        couple_cd = CoupleSpec((0.2, 1.0), (0.4, 1.0 + 1e-12), base="l1-linf")
        for f in nonneg_corpus[:5]:
            for t in (0.5, 2.0):
                exact = k_functional_herz_endpoint(t, f, couple_exact)
                cd = k_functional_herz_endpoint(t, f, couple_cd)
                assert cd == pytest.approx(exact, rel=1e-6)


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
                          for w, m in zip(g.levels, g.segment_masses()) if w > beta / w1),
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
        k_of, t_lo, t_hi = interp._k_evaluator(source, couple, 1e-8)
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

    def check_seq(self, y, couple, oracle):
        n0 = ell_norm(y, *couple.side0)
        n1 = ell_norm(y, *couple.side1)
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
        couple = CoupleSpec((0.0, 1.0), (0.0, INF), base="l1-linf")
        for f in nonneg_corpus[:4]:
            g = rearrangement(f)
            n0, n1 = float(g.total_mass()), float(g.levels[0])
            self.check(annulus_profile(f), couple, lambda t: k_functional_l1_linf(g, t), n0, n1)

    def test_other_endpoint_herz_exponents_keep_the_full_window(self, nonneg_corpus):
        couple = CoupleSpec((0.2, 1.0), (0.5, 2.0), base="l1-linf")
        _, t_lo, t_hi = interp._k_evaluator(annulus_profile(nonneg_corpus[0]), couple, 1e-8)
        assert (t_lo, t_hi) == (0.0, INF)


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
        assert res0.value == pytest.approx(ell_norm(y, 0.0, 1.0), rel=1e-9)
        res1 = interpolation_norm(y, InterpolationParams(1.0, INF), couple)
        assert res1.value == pytest.approx(ell_norm(y, 1.0, 1.0), rel=1e-9)

    def test_sup_form_interior_theta(self):
        # unit vector: sup_t t^{-1/2} min(1, t 2^u) is attained at the kink
        # t = 2^{-u} with value 2^{u/2}
        couple = CoupleSpec((0.0, 1.0), (1.0, 1.0))
        params = InterpolationParams(0.5, INF, t_exponent_bound=24)
        for u in (-1, 0, 3):
            res = interpolation_norm(WeightedSeq.unit(u), params, couple)
            assert res.value == pytest.approx(2.0 ** (u / 2.0), rel=1e-12)

    def test_theta_bounds_enforced(self):
        with pytest.raises(ValueError):
            InterpolationParams(0.0, 2.0)
        with pytest.raises(ValueError):
            InterpolationParams(1.2, INF)


class TestVerifySuites:
    def test_seq_a_unit_vectors_ratio_four(self):
        ys = [WeightedSeq.unit(u) for u in range(-1, 11)]
        rep = verify_interpolation("seq-a", ys, theta=0.5, q=1.0, a0=0.0, a1=1.0,
                                   t_exponent_bound=40, rel_tol=1e-10)
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
        rep = verify_interpolation("lorentz", fns, theta=0.5, q=2.0,
                                   t_exponent_bound=40, rel_tol=1e-10)
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
        zero = radial_step(1, [0, 1], [0])
        kw = dict(theta=0.5, a0=0.2, a1=0.2, q0=1.0, q1=1.0)
        with_zero = verify_interpolation("hl-4", fns + [zero], **kw)
        assert with_zero == verify_interpolation("hl-4", fns, **kw)
        assert with_zero.passed

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
