import gc
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import power_integral
from herzlab.corpus import quadratic_shell_family, random_step_functions, shell_trace_sequence
from herzlab.herz import (
    AnnulusMeasureSequence,
    HerzParams,
    annuli_decompose,
    annulus_bounds,
    annulus_indicator,
    annulus_measure,
    annulus_profile,
    annulus_window,
    bfs_condition_check,
    embedding_check,
    hl_holder_check,
    hl_norm,
    lq_norm,
    quasi_constant_probe,
    weighted_lq,
)
from herzlab.lorentz import INF, LorentzParams, lorentz_quasi_norm, lorentz_star_norm
from herzlab.operators import grid_indicator, grid_annulus_profiles
from herzlab.rearrange import RadialStepFunction, ball, pointwise_sum, rearrangement

# partial sums of 2^u * 2/u^2 for u = 1..5: 4, 6, 7.777..., 9.777..., 12.3377...
DIVERGENCE_PARTIALS = [4.0, 6.0, 70.0 / 9.0, 88.0 / 9.0, 2776.0 / 225.0]


class TestAnnuli:
    def test_measures_r1(self):
        assert annulus_measure(-1, 1) == 1
        assert annulus_measure(0, 1) == 1
        assert annulus_measure(3, 1) == 8

    def test_bounds_are_kept_per_annulus(self):
        assert annulus_bounds(5) is annulus_bounds(5)
        assert annulus_bounds(-1) == (0, Fraction(1, 2))
        assert annulus_bounds(0) == (Fraction(1, 2), 1)
        with pytest.raises(ValueError):
            annulus_bounds(-2)

    @pytest.mark.parametrize("k", range(-4, 9))
    def test_window_matches_the_doubling_loop(self, k):
        def loop(top):  # the scan the window replaced
            u = -1
            while annulus_bounds(u)[1] < top:
                u += 1
            return range(-1, u + 1)

        power = Fraction(2) ** k
        for top in (power, power * Fraction(999, 1000), power * Fraction(1001, 1000),
                    power - Fraction(1, 3**40), power + Fraction(1, 3**40), Fraction(1, 2)):
            f = RadialStepFunction(1, [0, top], [1])
            assert annulus_window(f) == loop(top), top

    def test_unit_ball_decomposes_in_two(self):
        f = ball(1, 2)  # radius 1 in R^1
        pieces = dict(annuli_decompose(f))
        assert set(pieces) == {-1, 0}
        assert pieces[-1].support_measure() == 1
        assert pieces[0].support_measure() == 1

    def test_single_annulus_support(self):
        f = annulus_indicator(3)
        pieces = annuli_decompose(f)
        assert len(pieces) == 1
        assert pieces[0][0] == 3
        assert pieces[0][1] == f

    @pytest.mark.parametrize("u", [-1, 0, 2])
    def test_zero_annulus_indicator_is_the_zero_function(self, u):
        zero = RadialStepFunction(1, [0, 1], [0])
        chi = annulus_indicator(u, 1, 0)
        assert chi == zero and hash(chi) == hash(zero)

    def test_partition_reassembles_exactly(self, step_corpus):
        for f in step_corpus[:20]:
            pieces = annuli_decompose(f)
            if not pieces:
                continue
            assert pointwise_sum([p for _, p in pieces]) == f
            total = sum((p.support_measure() for _, p in pieces), Fraction(0))
            assert total == f.support_measure()

    def test_profile_matches_pieces(self, step_corpus):
        # the per-piece formulas the profile replaced are the reference; in
        # R^3 the shell measures are not dyadic, so float shortcuts would show
        for f in step_corpus + random_step_functions(20, seed=7, dim=3):
            pieces = annuli_decompose(f)
            prof = annulus_profile(f)
            assert list(prof.us) == [u for u, _ in pieces]
            assert prof.integrals == [float(p.abs_integral()) for _, p in pieces]
            assert prof.tops == [float(rearrangement(p).top_level) for _, p in pieces]
            base = LorentzParams(2.0, 1.0)
            assert prof.scores(base) == {u: lorentz_quasi_norm(p, base) for u, p in pieces}
            assert prof.star_scores(base) == {u: lorentz_star_norm(p, base) for u, p in pieces}

    def test_profile_steps_are_views_of_flat_arrays(self, step_corpus):
        for f in step_corpus[:10]:
            prof = annulus_profile(f)
            assert [len(w) for w in prof.levels] == [len(t) for t in prof.knots]
            assert sum(map(len, prof.levels)) == len(prof.flat_levels)
            for w, t in zip(prof.levels, prof.knots):
                assert np.shares_memory(w, prof.flat_levels)
                assert np.shares_memory(t, prof.flat_knots)

    def test_profile_is_kept_on_the_function(self, two_shell):
        assert annulus_profile(two_shell) is annulus_profile(two_shell)
        prof = annulus_profile(two_shell)
        assert annulus_profile(prof) is prof
        grid = grid_indicator(4.0, 64, -1.0, 1.0)
        assert annulus_profile(grid) is grid.profile

    def test_kept_profile_holds_no_fractions(self, step_corpus):
        # exact arithmetic ends in the builder: nothing the collector scans
        # on a kept profile is a Fraction
        for f in step_corpus[:5] + random_step_functions(5, seed=7, dim=3):
            seen, stack = set(), [annulus_profile(f)]
            while stack:
                obj = stack.pop()
                if id(obj) in seen:
                    continue
                seen.add(id(obj))
                assert not isinstance(obj, Fraction)
                if not isinstance(obj, type):  # a class reaches every module
                    stack.extend(gc.get_referents(obj))

    @pytest.mark.parametrize("p, r", [(2.0, 1.0), (2.0, 2.0), (3.0, INF), (1.0, 1.0), (INF, INF)])
    def test_grid_star_scores_match_the_ball(self, p, r):
        # a grid profile answers the averaged-profile query like a radial one:
        # the indicator of [-3/4, 3) fills each annulus with one level
        params = LorentzParams(p, r)
        prof = grid_annulus_profiles(grid_indicator(4.0, 64, -0.75, 3.0))
        measures = {-1: 1, 0: Fraction(3, 4), 1: 1, 2: 1}
        assert list(prof.us) == list(measures)
        assert prof.integrals == [float(m) for m in measures.values()]
        for u, score in prof.star_scores(params).items():
            assert score == pytest.approx(
                lorentz_star_norm(ball(1, measures[u]), params), rel=1e-15, abs=0.0
            )

    @pytest.mark.parametrize("p, r", [(0.5, 1.0), (2.0, 0.5), (1.0, 2.0)])
    def test_star_scores_reject_exponents_outside_the_star_range(self, step_corpus, p, r):
        # the functional is not a norm there, on either function kind
        for prof in (step_corpus[0].profile,
                     grid_annulus_profiles(grid_indicator(4.0, 64, -0.75, 3.0))):
            with pytest.raises(ValueError):
                prof.star_scores(LorentzParams(p, r))

    def test_disjoint_supports(self, step_corpus):
        f = step_corpus[0]
        pieces = annuli_decompose(f)
        for (u, p1), (v, p2) in zip(pieces, pieces[1:]):
            from herzlab.rearrange import integrate_abs_product

            assert integrate_abs_product(p1, p2) == 0


class TestPowerSums:
    """A power sum outside [2^-64, 2^64] is redone scaled by the largest
    value; a sum inside keeps the bits of the direct form."""

    @pytest.mark.parametrize("v", [1e-200, 1e-160, 1e200, 5e-324])
    def test_one_value_is_its_own_norm(self, v):
        for q in (0.5, 2.0, 4.0):
            assert lq_norm([v], q) == v
            assert lq_norm([0.0, v, 0.0], q) == v

    def test_weighted_sum_below_the_range(self):
        # (2^{-1.5} 1e-100)^4 underflows to 0
        assert weighted_lq({3: 1e-100}, -0.5, 4.0) == pytest.approx(
            2.0**-1.5 * 1e-100, rel=1e-15, abs=0.0
        )

    def test_two_values_beyond_the_range(self):
        for c in (1e-200, 1e200):
            assert lq_norm([3.0 * c, 4.0 * c], 2.0) == pytest.approx(5.0 * c, rel=1e-15, abs=0.0)

    def test_in_range_bits_are_kept(self):
        rng = random.Random(5)
        for _ in range(200):
            vals = [rng.uniform(0.0, 10.0) ** rng.choice((1, 2, 5)) for _ in range(6)]
            q = rng.choice((0.5, 1.0, 1.5, 2.0, 3.0))
            total = math.fsum(v**q for v in vals if v != 0.0)
            assert 2.0**-64 <= total <= 2.0**64
            assert lq_norm(vals, q) == total ** (1.0 / q)

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0, 3.0, 4.5])
    def test_scaling_by_a_power_of_two_is_exact(self, q):
        # with the largest value 1 the scaled form is the direct one, so the
        # norm of the values times 2^k is 2^k times the norm, bit for bit
        rng = random.Random(7)
        for _ in range(50):
            vals = [rng.uniform(0.0, 1.0) for _ in range(rng.randint(0, 7))] + [1.0]
            base = lq_norm(vals, q)
            for k in (100, 300, 600, -100, -300, -600):
                assert lq_norm([math.ldexp(v, k) for v in vals], q) == math.ldexp(base, k)

    def test_zeros_and_empty(self):
        assert lq_norm([], 2.0) == 0.0
        assert lq_norm([0.0, 0.0], 2.0) == 0.0

    @pytest.mark.parametrize("vals, q", [
        ([1e308] * 100, 0.5),  # the sum is a float, its square is not
        ([1e300] * 100, 0.001),  # the rescaled sum's power overflows
    ])
    def test_norm_beyond_the_largest_float_is_inf(self, vals, q):
        assert lq_norm(vals, q) == math.inf


class TestHLNorm:
    def test_two_annulus_example(self):
        f = RadialStepFunction(1, [0, Fraction(1, 2), 1], [2, 1])
        assert hl_norm(f, HerzParams(1, 2, 1, 2)) == pytest.approx(2.0, rel=1e-14)

    def test_lp_identity(self, step_corpus):
        for f in step_corpus[:15]:
            for p in (1.5, 2.0, 4.0):
                got = hl_norm(f, HerzParams(0.0, p, p, p))
                expected = power_integral(f, p) ** (1.0 / p)
                if expected == 0.0:
                    assert got == 0.0
                else:
                    assert got == pytest.approx(expected, rel=1e-12)

    def test_r_equals_p_is_classical_herz_norm(self, step_corpus):
        # independent oracle: plain Lebesgue norm per annulus, aggregated
        for f in step_corpus[:15]:
            for a, p, q in ((0.5, 2.0, 1.0), (-0.3, 1.5, 2.0), (0.2, 4.0, 3.0)):
                got = hl_norm(f, HerzParams(a, p, q, p))
                terms = [
                    (2.0 ** (u * a) * power_integral(piece, p) ** (1.0 / p)) ** q
                    for u, piece in annuli_decompose(f)
                ]
                expected = math.fsum(terms) ** (1.0 / q)
                if expected == 0.0:
                    assert got == 0.0
                else:
                    assert got == pytest.approx(expected, rel=1e-12)

    def test_annulus_indicator_any_weight(self):
        chi = annulus_indicator(0)
        for a in (-0.7, 0.0, 1.3):
            for q in (1.0, 3.0, INF):
                got = hl_norm(chi, HerzParams(a, 2, q, 1))
                assert got == pytest.approx(2.0 * 1.0, rel=1e-14)  # (p/r)^{1/r} mu^{1/p}

    def test_weak_herz_is_sup_form(self):
        f = RadialStepFunction(1, [0, Fraction(1, 2), 2], [2, 1])
        params = HerzParams(0.5, 2, INF, 2)
        scores = {
            u: lorentz_quasi_norm(p, LorentzParams(2, 2))
            for u, p in annuli_decompose(f)
        }
        assert hl_norm(f, params) == max(2.0 ** (0.5 * u) * s for u, s in scores.items())

    def test_starred_requires_range(self):
        f = ball(1, 1)
        with pytest.raises(ValueError):
            hl_norm(f, HerzParams(0, 1, 1, INF), starred=True)

    def test_finite_for_every_step_function(self, step_corpus):
        params = HerzParams(0.9, 1.5, 0.7, 0.5)
        for f in step_corpus[:10]:
            assert math.isfinite(hl_norm(f, params))


class TestQuasiProbe:
    def test_disjoint_annuli_additive_at_q1(self):
        f = annulus_indicator(0)
        g = annulus_indicator(2)
        params = HerzParams(0.3, 2, 1, 2)
        assert hl_norm(pointwise_sum([f, g]), params) == pytest.approx(
            hl_norm(f, params) + hl_norm(g, params), rel=1e-14
        )
        rep = quasi_constant_probe([f, g], params)
        assert rep.max_ratio <= 1.0 + 1e-12

    def test_self_pair_ratio_one(self):
        f = annulus_indicator(1, value=3)
        rep = quasi_constant_probe([f], HerzParams(0.5, 2, 2, 2))
        assert rep.max_ratio == pytest.approx(1.0, rel=1e-14)

    def test_starred_banach_range_is_norm(self, step_corpus):
        rep = quasi_constant_probe(step_corpus[:8], HerzParams(1, 2, 1, 2), starred=True)
        assert rep.max_ratio <= 1.0 + 1e-9


class TestBfsConditions:
    def test_finite_support_verdict(self):
        m = AnnulusMeasureSequence.from_dict({-1: Fraction(1, 2), 2: Fraction(1)})
        rep = bfs_condition_check(m, HerzParams(1, 2, 2, 2), cutoff=6)
        assert rep.verdict == "finite"
        assert rep.partial_a[-1] == rep.partial_a[-2]  # no growth beyond support

    def test_quadratic_shell_partial_sums(self):
        rep = bfs_condition_check(shell_trace_sequence(8), HerzParams(1, 1, 1, 1), cutoff=5)
        sums = [x for x in rep.partial_a if x > 0]
        assert sums == pytest.approx(DIVERGENCE_PARTIALS, rel=1e-12)
        assert sums[-1] >= 12.33
        assert rep.verdict == "growing"

    def test_growing_terms_whenever_weight_positive(self):
        # term ratio 2^{aq} (u/(u+1))^{2q/p} exceeds 1 for large u when a > 0
        m = shell_trace_sequence(40)
        for a, p, q in ((0.25, 2.0, 1.0), (1.0, 1.0, 1.0), (0.5, 1.5, 2.0)):
            rep = bfs_condition_check(m, HerzParams(a, p, q, p), cutoff=40)
            tail = [x for x in rep.terms_a if x > 0][-5:]
            assert all(s < t for s, t in zip(tail, tail[1:]))
            assert rep.verdict == "growing"

    def test_zero_weight_trace_bounded_by_measure(self):
        m = shell_trace_sequence(30)
        rep = bfs_condition_check(m, HerzParams(0.0, 1.0, 1.0, 1.0), cutoff=30)
        # condition (a) at a = 0, q = p sums the trace itself
        assert rep.partial_a[-1] <= rep.finite_measure + 1e-12
        assert rep.partial_a[-1] == pytest.approx(rep.finite_measure, rel=1e-12)

    def test_capacity_violation_rejected(self):
        with pytest.raises(ValueError):
            AnnulusMeasureSequence.from_dict({-1: Fraction(3)})

    def test_power_tail_extends_the_explicit_entries(self):
        entries = {-1: 0, 0: 0, 1: Fraction(1, 2)}
        m = AnnulusMeasureSequence.from_dict(entries, tail=("power", 2, 2))
        assert m.explicit_max == 1
        assert [m.measure(u) for u in (2, 3, 5)] == [Fraction(1, 2), Fraction(2, 9), Fraction(2, 25)]

    def test_power_tail_is_capped_by_the_annulus_measure(self):
        m = AnnulusMeasureSequence.from_dict({}, tail=("power", 100, 0))
        assert m.measure(2) == annulus_measure(2, 1) == 4

    @pytest.mark.parametrize("dim", [1.5, True, 0])
    def test_dimension_must_be_a_positive_integer(self, dim):
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            AnnulusMeasureSequence.from_dict({0: 0.5}, dim=dim)
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            AnnulusMeasureSequence.from_dict({}, dim=dim)

    def test_q_infinity_sup_modification(self):
        m = shell_trace_sequence(10)
        rep = bfs_condition_check(m, HerzParams(1, 2, INF, 2), cutoff=10)
        assert all(b >= a for a, b in zip(rep.partial_a, rep.partial_a[1:]))

    def test_shell_family_norm_matches_trace_formula(self):
        # the indicator of the shell union has the same HL norm as the
        # weighted aggregation of its trace measures
        f = quadratic_shell_family(6)
        m = shell_trace_sequence(6)
        p, q, r, a = 1.5, 1.0, 1.5, 0.5
        got = hl_norm(f, HerzParams(a, p, q, r))
        expected = weighted_lq(
            {
                u: (p / r) ** (1 / r) * float(m.measure(u)) ** (1 / p)
                for u in range(-1, 7)
                if m.measure(u) > 0
            },
            a,
            q,
        )
        assert got == pytest.approx(expected, rel=1e-12)


class TestHolder:
    def test_equality_on_annulus(self):
        chi = annulus_indicator(0)
        rep = hl_holder_check(chi, chi, HerzParams(0.4, 2, 2, 2))
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-14)
        assert rep.passed

    def test_zero(self, two_shell):
        zero = RadialStepFunction(1, [0, 1], [0])
        rep = hl_holder_check(two_shell, zero, HerzParams(0, 2, 1, 2))
        assert rep.lhs == 0.0
        assert rep.passed

    def test_profiles_give_the_same_report(self, step_corpus):
        # reused functions read their kept profiles; fresh equal copies build new ones
        def fresh(f):
            return RadialStepFunction(f.dim, f.breakpoints, f.values)

        n = len(step_corpus)
        for a in (-0.4, 0.0, 0.4):
            for i in range(n):
                j = (3 * i + 1) % n
                params = HerzParams(a, 2, 1.5, 3)
                direct = hl_holder_check(fresh(step_corpus[i]), fresh(step_corpus[j]), params)
                shared = hl_holder_check(step_corpus[i], step_corpus[j], params)
                assert shared == direct

    def test_reused_functions_build_each_profile_once(self, monkeypatch):
        from herzlab import herz

        built = []
        decompose = herz.annuli_decompose
        monkeypatch.setattr(herz, "annuli_decompose", lambda f: built.append(f) or decompose(f))
        fns = random_step_functions(5, seed=31)
        for a in (-0.4, 0.0, 0.4):
            for i in range(5):
                hl_holder_check(fns[i], fns[(i + 2) % 5], HerzParams(a, 2, 1.5, 3))
        assert len(built) == 5
        assert {id(f) for f in built} == {id(f) for f in fns}

    def test_random_sweep(self, step_corpus):
        n = len(step_corpus)
        count = 0
        for a in (-0.4, 0.0, 0.4):
            for i in range(34):
                f = step_corpus[i % n]
                g = step_corpus[(5 * i + 2) % n]
                rep = hl_holder_check(f, g, HerzParams(a, 2, 2, 2))
                assert rep.passed
                count += 1
        assert count >= 100


class TestEmbeddings:
    def test_variant_a_sharp_constant(self):
        # ||f||_{p,inf} <= (r1/p)^{1/r1} ||f||_{p,r1}, with equality on indicators
        src, tgt = HerzParams(0.3, 2, 1.5, 1), HerzParams(0.3, 2, 1.5, INF)
        rep = embedding_check("A", annulus_indicator(2), src, tgt)
        assert rep.constant == 0.5
        assert rep.ratio == pytest.approx(rep.constant, rel=1e-14)
        assert rep.passed
        rep = embedding_check("A", annulus_indicator(0), src, HerzParams(0.3, 2, 1.5, 2))
        assert rep.constant == pytest.approx(0.5**0.5, rel=1e-15)
        assert embedding_check("A", annulus_indicator(0), src, src).constant == 1.0

    def test_variant_a_fails_past_the_constant(self, monkeypatch):
        from herzlab import herz

        src, tgt = HerzParams(0.3, 2, 1.5, 1), HerzParams(0.3, 2, 1.5, INF)
        norm = herz.hl_norm

        def scaled_target(f, params, starred=False):
            return norm(f, params, starred) * (1.5 if params == tgt else 1.0)

        monkeypatch.setattr(herz, "hl_norm", scaled_target)
        rep = embedding_check("A", annulus_indicator(2), src, tgt)
        assert rep.ratio == pytest.approx(0.75, rel=1e-14)
        assert not rep.passed

    def test_variant_a_zero_function(self):
        zero = RadialStepFunction(1, [0, 1], [0])
        rep = embedding_check("A", zero, HerzParams(0, 2, 1, 1), HerzParams(0, 2, 1, 2))
        assert (rep.lhs, rep.rhs, rep.ratio, rep.passed) == (0.0, 0.0, 1.0, True)

    def test_variant_a_records_constant(self, step_corpus):
        src = HerzParams(0.3, 2, 1.5, 1)
        tgt = HerzParams(0.3, 2, 1.5, 2)
        for f in step_corpus[:10]:
            rep = embedding_check("A", f, src, tgt)
            assert rep.passed
            assert math.isfinite(rep.constant)

    def test_variant_b_single_annulus(self):
        f = annulus_indicator(3)
        rep = embedding_check("B", f, HerzParams(1, 2, 1, 2), HerzParams(0, 2, 1, 2))
        assert rep.lhs == pytest.approx(2.0**-3 * rep.rhs, rel=1e-14)
        assert rep.constant == 1.0  # support misses the central ball
        assert rep.passed

    def test_variant_b_central_ball_constant(self):
        f = annulus_indicator(-1)
        rep = embedding_check("B", f, HerzParams(1, 2, 1, 2), HerzParams(0, 2, 1, 2))
        # the weight ratio is largest on the central ball: 2^{a1 - a2}
        assert rep.constant == pytest.approx(2.0)
        assert rep.lhs == pytest.approx(2.0 * rep.rhs, rel=1e-14)
        assert rep.passed

    def test_variant_c_annulus_example(self):
        f = annulus_indicator(0)
        rep = embedding_check("C", f, HerzParams(0, 4, 2, INF), HerzParams(0, 2, 2, 2))
        assert rep.lhs == pytest.approx(1.0)
        assert rep.rhs == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert rep.passed

    def test_variant_c_corpus(self, step_corpus):
        src = HerzParams(0.2, 4, 1, INF)
        tgt = HerzParams(0.2, 2, 1, 2)
        for f in step_corpus[:10]:
            assert embedding_check("C", f, src, tgt).passed

    def test_variant_d_l1_to_l2(self, step_corpus):
        src = HerzParams(0.1, 2, 1, 2)
        tgt = HerzParams(0.1, 2, 2, 2)
        for f in step_corpus[:10]:
            rep = embedding_check("D", f, src, tgt)
            assert rep.constant == 1.0
            assert rep.passed

    def test_ordering_violations_rejected(self, two_shell):
        with pytest.raises(ValueError):
            embedding_check("A", two_shell, HerzParams(0, 2, 1, 2), HerzParams(0, 2, 1, 1))
        with pytest.raises(ValueError):
            embedding_check("C", two_shell, HerzParams(0, 2, 1, 2), HerzParams(0, 3, 1, 2))

    def test_r_monotone_finiteness(self, step_corpus):
        # item (A) direction: finiteness propagates to larger r
        for f in step_corpus[:10]:
            n1 = hl_norm(f, HerzParams(0.2, 2, 1, 1))
            n2 = hl_norm(f, HerzParams(0.2, 2, 1, 2))
            assert (not math.isfinite(n1)) or math.isfinite(n2)
