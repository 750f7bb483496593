import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import quad

from herzlab.lorentz import (
    INF,
    LorentzParams,
    char_norm_constant,
    conjugate_exponent,
    equivalence_check,
    lorentz_holder_pairing,
    lorentz_norm_from_steps,
    lorentz_quasi_norm,
    lorentz_star_norm,
    lorentz_star_norm_from_steps,
    refinement_chain_check,
)
from herzlab.rearrange import (
    RadialStepFunction,
    StepRearrangement,
    ball,
    rearrangement,
    rounded_rearrangement,
    scale,
)
from conftest import lattice_functions


def quad_quasi_norm(f, p, r):
    """Independent oracle: numerically integrate (t^{1/p} f*(t))^r dt/t."""
    g = rearrangement(f)
    levels, knots = g.float_steps()

    def star(t):
        for w, knot in zip(levels, knots):
            if t < knot:
                return w
        return 0.0

    points = [0.0] + knots
    total = 0.0
    for a, b in zip(points, points[1:]):
        val, _ = quad(lambda t: t ** (r / p - 1.0) * star(t) ** r, a, b, limit=200)
        total += val
    return total ** (1.0 / r)


def quad_star_norm(f, p, r):
    """Independent oracle for the averaged-profile functional."""
    g = rearrangement(f)
    levels, knots = g.float_steps()
    mass = float(g.total_mass())

    def integral_to(t):
        out, prev = 0.0, 0.0
        for w, knot in zip(levels, knots):
            if t <= knot:
                return out + w * (t - prev)
            out += w * (knot - prev)
            prev = knot
        return out

    def avg(t):
        return integral_to(t) / t

    points = [0.0] + knots
    total = 0.0
    for a, b in zip(points, points[1:]):
        val, _ = quad(lambda t: t ** (r / p - 1.0) * avg(t) ** r, a, b, limit=400)
        total += val
    # tail where the averaged profile is mass / t
    tail, _ = quad(
        lambda t: t ** (r / p - 1.0) * (mass / t) ** r, knots[-1], math.inf, limit=400
    )
    return (total + tail) ** (1.0 / r)


class TestParams:
    def test_rejects_weak_infinity_base(self):
        with pytest.raises(ValueError):
            LorentzParams(INF, 2.0)

    def test_conjugates(self):
        assert conjugate_exponent(1.0) == INF
        assert conjugate_exponent(INF) == 1.0
        assert conjugate_exponent(2.0) == 2.0
        assert conjugate_exponent(4.0) == pytest.approx(4.0 / 3.0)

    def test_star_norm_range(self):
        assert LorentzParams(2, 1).allows_star_norm
        assert LorentzParams(1, 1).allows_star_norm
        assert LorentzParams(INF, INF).allows_star_norm
        assert not LorentzParams(1, INF).allows_star_norm
        assert not LorentzParams(0.5, 1).allows_star_norm


class TestQuasiNorm:
    def test_indicator_closed_form_grid(self):
        for p in (1.5, 2.0, 4.0):
            for r in (1.0, 2.0, 4.0, INF):
                for mu in (Fraction(1, 4), Fraction(1), Fraction(9)):
                    got = lorentz_quasi_norm(ball(1, mu), LorentzParams(p, r))
                    expected = char_norm_constant(LorentzParams(p, r)) * float(mu) ** (
                        1.0 / p
                    )
                    assert got == pytest.approx(expected, rel=1e-13)

    def test_indicator_examples(self):
        chi = ball(1, 1)
        assert lorentz_quasi_norm(chi, LorentzParams(2, 1)) == pytest.approx(2.0)
        assert lorentz_quasi_norm(chi, LorentzParams(2, INF)) == pytest.approx(1.0)

    def test_two_shell_closed_form(self, two_shell):
        got = lorentz_quasi_norm(two_shell, LorentzParams(2, 1))
        expected = 3 * 2 * math.sqrt(0.5) + 1 * 2 * (math.sqrt(2.5) - math.sqrt(0.5))
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(5.9907, abs=2e-4)

    def test_against_quadrature_oracle(self, step_corpus):
        for f in step_corpus[:12]:
            if f.is_zero():
                continue
            for p, r in ((2.0, 1.0), (1.5, 2.0), (4.0, 2.5)):
                got = lorentz_quasi_norm(f, LorentzParams(p, r))
                assert got == pytest.approx(quad_quasi_norm(f, p, r), rel=1e-9)

    def test_higher_dimensions_against_oracle(self):
        from herzlab.corpus import random_step_functions

        for dim in (2, 3):
            for f in random_step_functions(4, seed=40 + dim, dim=dim):
                if f.is_zero():
                    continue
                got = lorentz_quasi_norm(f, LorentzParams(2.0, 1.5))
                assert got == pytest.approx(quad_quasi_norm(f, 2.0, 1.5), rel=1e-9)

    def test_zero_iff_zero(self):
        zero = RadialStepFunction(1, [0, 1], [0])
        assert lorentz_quasi_norm(zero, LorentzParams(2, 1)) == 0.0

    def test_homogeneity_exact(self, two_shell):
        params = LorentzParams(2, 3)
        assert lorentz_quasi_norm(scale(two_shell, 2), params) == 2 * lorentz_quasi_norm(
            two_shell, params
        )

    def test_rearrangement_invariance(self):
        # different shell layouts, identical rearrangements
        f = RadialStepFunction(1, [0, Fraction(1, 2), 1], [1, 2])
        g = RadialStepFunction(1, [0, Fraction(1, 2), 1], [2, 1])
        for params in (LorentzParams(2, 1), LorentzParams(3, INF)):
            assert lorentz_quasi_norm(f, params) == lorentz_quasi_norm(g, params)

    def test_sup_norm_case(self, two_shell):
        assert lorentz_quasi_norm(two_shell, LorentzParams(INF, INF)) == 3.0


class TestPowerSumRange:
    """The closed-form power sum leaves the normal float range only for
    extreme levels; it is then redone scaled by the top level."""

    @pytest.mark.parametrize("c", [1e-200, 1e-160, 1e200])
    @pytest.mark.parametrize("p, r", [(2.0, 2.0), (2.0, 1.0), (1.5, 4.0)])
    def test_scales_with_the_levels(self, c, p, r):
        levels, knots = [3.0, 1.0], [0.5, 2.0]
        unit = lorentz_norm_from_steps(levels, knots, p, r)
        got = lorentz_norm_from_steps([c * w for w in levels], knots, p, r)
        assert got == pytest.approx(c * unit, rel=1e-14, abs=0.0)

    def test_one_step_beyond_the_range(self):
        for c in (1e-200, 1e200):
            got = lorentz_norm_from_steps([c], [1.0], 2, 2)
            assert got == pytest.approx(c, rel=1e-15, abs=0.0)

    def test_in_range_bits_are_kept(self, step_corpus):
        for f in step_corpus[:20]:
            levels, knots = rearrangement(f).float_steps()
            if not levels:
                continue
            w, t = np.array(levels), np.array(knots)
            for p, r in ((2.0, 1.0), (1.5, 2.0), (4.0, 3.0)):
                t_pow = t ** (r / p)
                dt = np.diff(t_pow, prepend=0.0)
                direct = ((p / r) * float(np.sum(w**r * dt))) ** (1.0 / r)
                assert lorentz_norm_from_steps(levels, knots, p, r) == direct


def random_steps(rng, n, scale=1.0):
    """n decreasing levels and increasing knots from the origin."""
    levels = scale * np.sort(rng.uniform(0.1, 5.0, n))[::-1]
    return levels, np.cumsum(rng.uniform(0.01, 2.0, n))


class TestSegmentedKernel:
    """Several profiles end to end in one call: each norm has the bits of
    that profile's own direct form."""

    SIZES = (1, 7, 8, 9, 16, 129, 300, 2, 3)

    @staticmethod
    def direct(w, t, p, r):
        if p == INF:
            return float(w[0])
        if r == INF:
            return float(np.max(w * t ** (1.0 / p)))
        dt = np.diff(t ** (r / p), prepend=0.0)
        return ((p / r) * float(np.sum(w**r * dt))) ** (1.0 / r)

    @staticmethod
    def concat(segments):
        starts = np.cumsum([0] + [len(w) for w, _ in segments[:-1]]).tolist()
        return (np.concatenate([w for w, _ in segments]),
                np.concatenate([t for _, t in segments]), starts)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("p, r", [(2.0, 1.0), (1.5, 2.0), (4.0, 3.0), (3.0, 0.5),
                                      (2.0, INF), (0.7, INF), (INF, INF)])
    def test_each_segment_equals_its_direct_form(self, seed, p, r):
        rng = np.random.default_rng(seed)
        sizes = rng.permutation(self.SIZES)
        segments = [random_steps(rng, int(n)) for n in sizes]
        levels, knots, starts = self.concat(segments)
        got = lorentz_norm_from_steps(levels, knots, p, r, starts)
        assert got == [self.direct(w, t, p, r) for w, t in segments]
        assert all(type(x) is float for x in got)
        # the one-segment form is the same kernel
        assert [lorentz_norm_from_steps(w, t, p, r) for w, t in segments] == got

    @pytest.mark.parametrize("c", [1e-200, 1e200])
    @pytest.mark.parametrize("p, r", [(2.0, 2.0), (2.0, 1.0), (1.5, 4.0)])
    def test_segments_beyond_the_float_range(self, c, p, r):
        # the middle segment's sum leaves the normal range and is redone
        # scaled on its own slice; its neighbours keep their direct bits
        rng = np.random.default_rng(5)
        segments = [random_steps(rng, 7), random_steps(rng, 12, scale=c), random_steps(rng, 8)]
        levels, knots, starts = self.concat(segments)
        first, mid, last = lorentz_norm_from_steps(levels, knots, p, r, starts)
        assert (first, last) == tuple(self.direct(w, t, p, r) for w, t in segments[::2])
        w, t = segments[1]
        assert mid == lorentz_norm_from_steps(w, t, p, r)
        assert mid == pytest.approx(c * lorentz_norm_from_steps(w / c, t, p, r),
                                    rel=1e-14, abs=0.0)

    # (levels, knots, p, r, norm): a knot power or a level power leaves the
    # float range although the norm is a float
    EXTREMES = [
        ([1e-300], [1e200], 0.5, 2.0, 5e99),  # t^4 overflows
        ([1e-300], [1e200], 0.5, INF, 1e100),  # t^2 overflows
        ([1e300], [1e-200], 0.5, 2.0, 5e-101),  # t^4 underflows, w^2 overflows
        ([1e300], [1e-200], 0.5, INF, 1e-100),  # t^2 underflows
        ([1e-300, 1e-301], [1e199, 1e200], 0.5, 2.0, 0.5 * math.sqrt(1.0099e198)),
        # a subnormal first knot power carries the sum, which stays normal
        ([1e150, 1e-20], [1e-80, 1.0], 0.5, 2.0, 0.5 * math.sqrt(1e-20 + 1e-40)),
        # a subnormal last level power carries the sum
        ([1e-100, 1e-160], [1.0, 1e300], 2.0, 2.0, math.sqrt(1e-200 + 1e-20)),
    ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("levels, knots, p, r, norm", EXTREMES)
    def test_powers_beyond_the_float_range(self, levels, knots, p, r, norm):
        # the segment is redone from its products w t^{1/p}, alone or among
        # in-range segments, and no numpy warning is raised
        got = lorentz_norm_from_steps(levels, knots, p, r)
        assert got == pytest.approx(norm, rel=1e-13, abs=0.0)
        rng = np.random.default_rng(7)
        segments = [random_steps(rng, 5), (np.array(levels), np.array(knots)),
                    random_steps(rng, 4)]
        flat_levels, flat_knots, starts = self.concat(segments)
        first, mid, last = lorentz_norm_from_steps(flat_levels, flat_knots, p, r, starts)
        assert (first, last) == tuple(self.direct(w, t, p, r) for w, t in segments[::2])
        assert mid == lorentz_norm_from_steps(levels, knots, p, r)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("levels, knots, p, r", [
        ([1e300], [1e300], 0.5, 2.0),
        ([1e300], [1e300], 0.5, INF),
        # the power sum is a float, its 1/r-th power (r < 1) is not
        ([1e300], [1e20], 2.0, 0.5),
    ])
    def test_norm_beyond_the_largest_float_is_inf(self, levels, knots, p, r):
        assert lorentz_norm_from_steps(levels, knots, p, r) == INF
        assert lorentz_norm_from_steps([*levels, 1.0], [*knots, 1.0], p, r, [0, 1])[0] == INF

    def test_no_segments(self):
        assert lorentz_norm_from_steps([], [], 2.0, 1.0, []) == []
        assert lorentz_norm_from_steps([], [], 2.0, 1.0) == 0.0


class TestStarNorm:
    def test_core_takes_lists_and_arrays(self, step_corpus):
        # a grid profile hands the core numpy arrays, a radial one lists
        for f in step_corpus[:10]:
            levels, knots = rearrangement(f).float_steps()
            for p, r in ((2.0, 1.0), (3.0, INF), (1.0, 1.0), (INF, INF)):
                expected = lorentz_star_norm(f, LorentzParams(p, r))
                assert lorentz_star_norm_from_steps(levels, knots, p, r) == expected
                arrays = np.array(levels), np.array(knots)
                assert lorentz_star_norm_from_steps(*arrays, p, r) == expected

    @pytest.mark.parametrize("p, r", [(0.5, 1.0), (2.0, 0.5), (1.0, 2.0)])
    def test_core_rejects_exponents_outside_the_star_range(self, p, r):
        for levels, knots in (([2.0, 1.0], [1.0, 3.0]), ([], [])):
            with pytest.raises(ValueError):
                lorentz_star_norm_from_steps(levels, knots, p, r)

    def test_indicator_p2_r1(self):
        assert lorentz_star_norm(ball(1, 1), LorentzParams(2, 1)) == pytest.approx(
            4.0, rel=1e-12
        )

    def test_indicator_p2_r2(self):
        assert lorentz_star_norm(ball(1, 1), LorentzParams(2, 2)) == pytest.approx(
            math.sqrt(2.0), rel=1e-12
        )

    def test_indicator_general_closed_form(self):
        # sum of the two pieces of the split integral: (p/r) + p/(r(p-1))
        for p in (1.5, 2.0, 4.0):
            for r in (1.0, 2.0):
                for mu in (0.25, 1.0, 9.0):
                    expected = ((p / r) * (p / (p - 1.0))) ** (1.0 / r) * mu ** (1.0 / p)
                    got = lorentz_star_norm(ball(1, Fraction(mu)), LorentzParams(p, r))
                    assert got == pytest.approx(expected, rel=1e-10)

    def test_split_integral_is_sum_not_min(self):
        # the indicator integral of (t^{1/p} min(1, mu/t))^r dt/t splits at
        # t = mu into two pieces that must be ADDED; taking the smaller
        # piece alone would collapse the p = 2, r = 1 value from 4 to 2 and
        # make the averaged functional coincide with the plain one, which a
        # direct quadrature oracle rules out
        p, r = 2.0, 1.0
        star = lorentz_star_norm(ball(1, 1), LorentzParams(p, r))
        piece_low = p / r  # integral up to mu
        piece_high = p / (r * (p - 1.0))  # integral beyond mu
        assert star == pytest.approx(piece_low + piece_high, rel=1e-10)
        min_form = min(piece_low, piece_high)
        assert abs(star - min_form) > 1.0
        assert star == pytest.approx(quad_star_norm(ball(1, 1), p, r), rel=1e-8)

    def test_zero_function(self):
        assert lorentz_star_norm(RadialStepFunction(1, [0, 1], [0]), LorentzParams(2, 1)) == 0.0

    def test_divergent_tail_reported_infinite(self):
        assert lorentz_star_norm(ball(1, 1), LorentzParams(1, 1)) == INF

    def test_sup_form_matches_quasi_for_indicator(self):
        chi = ball(1, 1)
        assert lorentz_star_norm(chi, LorentzParams(2, INF)) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_pinf_sup_case(self, two_shell):
        assert lorentz_star_norm(two_shell, LorentzParams(INF, INF)) == 3.0

    def test_rejects_out_of_range(self, two_shell):
        with pytest.raises(ValueError):
            lorentz_star_norm(two_shell, LorentzParams(1, INF))

    def test_against_quadrature_oracle(self, step_corpus):
        for f in step_corpus[:8]:
            if f.is_zero():
                continue
            for p, r in ((2.0, 1.0), (1.5, 2.0), (4.0, 3.0)):
                got = lorentz_star_norm(f, LorentzParams(p, r))
                assert got == pytest.approx(quad_star_norm(f, p, r), rel=1e-8)

    def test_weak_form_against_dense_grid(self, step_corpus):
        # r = inf: sup of t^{1/p} f**(t), located at segment endpoints; an
        # independent dense grid scan must never exceed it
        import numpy as np

        for f in step_corpus[:10]:
            g = rearrangement(f)
            if not g.levels:
                continue
            for p in (1.5, 2.0, 4.0):
                got = lorentz_star_norm(f, LorentzParams(p, INF))
                top = float(g.support_bound)
                ts = np.linspace(1e-9, 4.0 * top, 4001)
                levels, knots = g.float_steps()

                def integral_to(t):
                    out, prev = 0.0, 0.0
                    for w, knot in zip(levels, knots):
                        if t <= knot:
                            return out + w * (t - prev)
                        out += w * (knot - prev)
                        prev = knot
                    return out

                dense = max(t ** (1.0 / p) * integral_to(t) / t for t in ts)
                assert dense <= got * (1.0 + 1e-9)
                assert dense == pytest.approx(got, rel=2e-3)


class TestEquivalence:
    def test_upper_factor_attained_by_indicator_r1(self):
        rep = equivalence_check(ball(1, 1), LorentzParams(2, 1))
        assert rep.ratio == pytest.approx(2.0, rel=1e-12)
        assert rep.passed

    def test_indicator_r2(self):
        rep = equivalence_check(ball(1, 1), LorentzParams(2, 2))
        assert rep.ratio == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert rep.ratio <= 2.0
        assert rep.passed

    def test_corpus_sweep(self, step_corpus):
        for f in step_corpus:
            for p in (1.5, 2.0, 4.0):
                for r in (1.0, 2.0, INF):
                    assert equivalence_check(f, LorentzParams(p, r)).passed

    def test_rejects_p_one(self, two_shell):
        with pytest.raises(ValueError):
            equivalence_check(two_shell, LorentzParams(1, 1))

    def test_rearranges_once(self, monkeypatch, two_shell):
        from herzlab import lorentz

        cases = [LorentzParams(2, 1), LorentzParams(3, INF), LorentzParams(INF, INF)]
        expected = [
            (lorentz_quasi_norm(two_shell, params), lorentz_star_norm(two_shell, params))
            for params in cases
        ]
        calls = []

        def counting(f):
            calls.append(f)
            return rounded_rearrangement(f)

        monkeypatch.setattr(lorentz, "rounded_rearrangement", counting)
        for params, (quasi, star) in zip(cases, expected):
            rep = equivalence_check(two_shell, params)
            assert (rep.lhs, rep.rhs) == (quasi, star)
        assert calls == [two_shell] * 3


class TestHolderPairing:
    def test_annulus_indicator_equality(self):
        from herzlab.herz import annulus_indicator

        chi = annulus_indicator(0)
        rep = lorentz_holder_pairing(chi, chi, LorentzParams(2, 2))
        assert rep.lhs == pytest.approx(1.0)
        assert rep.rhs == pytest.approx(1.0)
        assert rep.passed

    def test_zero_partner(self, two_shell):
        zero = RadialStepFunction(1, [0, 1], [0])
        rep = lorentz_holder_pairing(two_shell, zero, LorentzParams(2, 1))
        assert rep.lhs == 0.0
        assert rep.passed

    def test_random_pairs_constant_one(self, step_corpus):
        params = [LorentzParams(2, 2), LorentzParams(1.5, 1), LorentzParams(4, INF)]
        worst = 0.0
        n = len(step_corpus)
        for i in range(100):
            f = step_corpus[i % n]
            g = step_corpus[(3 * i + 1) % n]
            rep = lorentz_holder_pairing(f, g, params[i % 3])
            assert rep.passed
            worst = max(worst, rep.ratio)
        assert worst <= 1.0 + 1e-12


class TestPairingConventions:
    """Both Hoelder pairings share one rule: 0/0 passes with ratio 0, and a
    positive integral over a zero bound fails with ratio inf."""

    @pytest.fixture(params=["lorentz", "herz"])
    def pairing(self, request):
        from herzlab import herz, lorentz

        if request.param == "lorentz":
            return lorentz, lorentz.lorentz_holder_pairing, LorentzParams(2, 1)
        return herz, herz.hl_holder_check, herz.HerzParams(0.3, 2, 1, 2)

    def test_zero_over_zero(self, pairing):
        _, check, params = pairing
        zero = RadialStepFunction(1, [0, 1], [0])
        rep = check(zero, zero, params)
        assert (rep.lhs, rep.rhs, rep.ratio, rep.passed) == (0.0, 0.0, 0.0, True)

    def test_positive_over_zero(self, monkeypatch, pairing, two_shell):
        module, check, params = pairing
        monkeypatch.setattr(module, "integrate_abs_product", lambda f, g: Fraction(1))
        rep = check(two_shell, RadialStepFunction(1, [0, 1], [0]), params)
        assert (rep.lhs, rep.rhs, rep.ratio, rep.passed) == (1.0, 0.0, INF, False)


class TestRefinementChain:
    def test_indicator_chain(self):
        rep = refinement_chain_check(ball(1, 1), 2.0, 1.0, 4.0)
        assert rep.norms[0] == pytest.approx(2.0)
        assert rep.norms[1] == pytest.approx(1.0)
        assert rep.norms[3] == pytest.approx(1.0)
        assert rep.passed

    def test_zero(self):
        rep = refinement_chain_check(RadialStepFunction(1, [0, 1], [0]), 2.0, 1.0, 3.0)
        assert all(n == 0.0 for n in rep.norms)
        assert rep.passed

    def test_corpus_normalized_monotone(self, step_corpus):
        for f in step_corpus:
            if f.is_zero():
                continue
            rep = refinement_chain_check(f, 2.0, 1.0, 3.0)
            assert rep.passed
            assert all(r >= 1.0 - 1e-12 for r in rep.ratios)

    def test_ordering_enforced(self, two_shell):
        with pytest.raises(ValueError):
            refinement_chain_check(two_shell, 2.0, 3.0, 4.0)

    def test_rounds_once(self, monkeypatch, two_shell):
        from herzlab import lorentz

        chain = (1.0, 2.0, 3.0, INF)
        expected = [lorentz_quasi_norm(two_shell, LorentzParams(2.0, s)) for s in chain]
        calls = []

        def counting(f):
            calls.append(f)
            return rounded_rearrangement(f)

        monkeypatch.setattr(lorentz, "rounded_rearrangement", counting)
        assert list(refinement_chain_check(two_shell, 2.0, 1.0, 3.0).norms) == expected
        assert calls == [two_shell]


class TestOneRoundedPath:
    """Whole-function norms read the lattice's correctly rounded f*: the same
    floats as rounding the exact rearrangement, without forming it."""

    @given(lattice_functions())
    @settings(max_examples=80, deadline=None)
    def test_norms_are_the_cores_on_the_rounded_exact_steps(self, f):
        levels, knots = rearrangement(f).float_steps()
        for p, r in ((2.0, 1.0), (1.5, 2.0), (3.0, INF), (INF, INF)):
            params = LorentzParams(p, r)
            assert lorentz_quasi_norm(f, params) == lorentz_norm_from_steps(levels, knots, p, r)
            assert lorentz_star_norm(f, params) == lorentz_star_norm_from_steps(
                levels, knots, p, r
            )

    def test_no_exact_rearrangement_is_formed(self, monkeypatch, capsys, tmp_path):
        from herzlab.cli import main
        from herzlab.corpus import save_corpus
        from herzlab.interp import WeightedSeq, coretract_M, verify_interpolation

        f = RadialStepFunction(2, [0, Fraction(1, 3), 1, Fraction(7, 3)], [2, Fraction(-5, 7), 1])
        g = RadialStepFunction(2, [0, Fraction(1, 2), 3], [1, Fraction(2, 3)])
        params = LorentzParams(2, 1)
        witness = {1: RadialStepFunction(2, [0, 1, Fraction(4, 3)], [0, 3])}
        corpus = tmp_path / "f.json"
        save_corpus([f], corpus)
        norm_args = ["norm", "--input", str(corpus), "--p", "2", "--r", "1", "--space"]

        def run():
            cli_norms = []
            for space in ("lorentz", "lorentz-star"):
                assert main([*norm_args, space]) == 0
                cli_norms.append(capsys.readouterr().out)
            return (
                lorentz_quasi_norm(f, params),
                lorentz_star_norm(f, params),
                equivalence_check(f, params),
                refinement_chain_check(f, 2.0, 1.0, 3.0),
                lorentz_holder_pairing(f, g, params),
                coretract_M(WeightedSeq.from_dict({1: 2.0}), witness, params),
                verify_interpolation("lorentz", [ball(1, 1), ball(1, 9)], q=1.0).band,
                cli_norms,
            )

        expected = run()

        def refuse(self, *lattice):
            raise AssertionError("an exact rearrangement was formed")

        # both constructors store their lattice through _store
        monkeypatch.setattr(StepRearrangement, "_store", refuse)
        with pytest.raises(AssertionError, match="exact rearrangement"):
            rearrangement(f)
        assert run() == expected


class TestQuasiTriangleStar:
    def test_quasi_triangle_constant_recorded(self, step_corpus):
        # the plain functional is only a quasi-norm: record the empirical
        # constant per exponent pair and check it stays bounded
        from herzlab.rearrange import pointwise_sum

        for params in (LorentzParams(2, 1), LorentzParams(0.7, 0.5)):
            worst = 0.0
            for i in range(0, 12, 2):
                f, g = step_corpus[i], step_corpus[i + 1]
                denom = lorentz_quasi_norm(f, params) + lorentz_quasi_norm(g, params)
                if denom == 0.0:
                    continue
                worst = max(
                    worst, lorentz_quasi_norm(pointwise_sum([f, g]), params) / denom
                )
            assert math.isfinite(worst)
            assert worst <= 4.0

    def test_starred_norm_is_subadditive(self, step_corpus):
        params = LorentzParams(2, 1)
        from herzlab.rearrange import pointwise_sum

        for i in range(0, 16, 2):
            f, g = abs(step_corpus[i]), abs(step_corpus[i + 1])
            lhs = lorentz_star_norm(pointwise_sum([f, g]), params)
            rhs = lorentz_star_norm(f, params) + lorentz_star_norm(g, params)
            assert lhs <= rhs * (1.0 + 1e-9)
