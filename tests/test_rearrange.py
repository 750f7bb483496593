import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from herzlab import rearrange as rearrange_mod
from herzlab.herz import annuli_decompose
from herzlab.rearrange import (
    RadialStepFunction,
    StepRearrangement,
    average_rearrangement,
    ball,
    distribution,
    integrate_abs_product,
    pointwise_sum,
    rearrangement,
    restrict_radii,
    rounded_rearrangement,
    scale,
    sum_bound_check,
    unit_ball_volume,
)
from conftest import (
    TINY,
    FractionRearrangement,
    brute_rearrangement_value,
    fraction_rearrangement,
    fraction_restrict,
    fraction_rounded_rearrangement,
    fraction_step_function,
    fraction_sum,
    lattice_functions,
)


def small_fraction(num_range=32, den_choices=(1, 2, 4, 8, 16)):
    return st.builds(
        Fraction,
        st.integers(min_value=1, max_value=num_range),
        st.sampled_from(den_choices),
    )


@st.composite
def step_functions(draw, signed=True, dims=(1, 2, 3)):
    n = draw(st.integers(min_value=1, max_value=5))
    cuts = draw(
        st.lists(
            st.integers(min_value=1, max_value=64),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    bp = [Fraction(0)] + [Fraction(c, 8) for c in sorted(cuts)]
    values = []
    for _ in range(n):
        v = draw(small_fraction())
        if signed and draw(st.booleans()):
            v = -v
        if draw(st.integers(0, 9)) == 0:
            v = Fraction(0)
        values.append(v)
    return RadialStepFunction(draw(st.sampled_from(dims)), bp, values)


class TestUnitBallVolume:
    def test_dim_one_is_exactly_two(self):
        assert unit_ball_volume(1) == 2

    def test_matches_gamma_formula(self):
        for dim in (2, 3, 5):
            expected = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)
            assert float(unit_ball_volume(dim)) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("dim", [2.5, 1.0, True, 0, -2])
    def test_rejects_a_dimension_that_is_not_a_positive_integer(self, dim):
        unit_ball_volume(1)  # a cached dimension 1 must not answer for True or 1.0
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            unit_ball_volume(dim)


class TestRadialStepFunction:
    def test_shell_measures(self, two_shell):
        assert two_shell.shell_measures() == (Fraction(1, 2), Fraction(2))

    @pytest.mark.parametrize("dim, measure", [(2, Fraction(1)), (3, Fraction(1, 3))])
    def test_ball_measure_in_higher_dimensions(self, dim, measure):
        # the radius is rounded for dim >= 2, so the measure holds to float precision
        (m,) = ball(dim, measure).shell_measures()
        assert float(m) == pytest.approx(float(measure), rel=1e-15, abs=0.0)

    def test_shell_measures_computed_once(self):
        f = RadialStepFunction(3, [0, Fraction(1, 3), 2], [1, -4])
        assert f.shell_measures() is f.shell_measures()
        w = unit_ball_volume(3)
        assert f.shell_measures() == (w / 27, w * (8 - Fraction(1, 27)))
        # the cache is not a field: equality and hashing ignore it
        g = RadialStepFunction(3, [0, Fraction(1, 3), 2], [1, -4])
        assert f == g and hash(f) == hash(g)

    @pytest.mark.parametrize("dim", [1.5, 2.0, True, False, 0])
    def test_rejects_a_dimension_that_is_not_a_positive_integer(self, dim):
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            RadialStepFunction(dim, [0, 1], [1])

    def test_large_integer_dimension_constructs(self):
        f = RadialStepFunction(400, [0, 1], [1])
        assert f.dim == 400 and f.values == (1,)

    def test_profile_is_kept(self):
        f = RadialStepFunction(2, [0, Fraction(1, 3), 3], [2, -1])
        assert f.profile is f.profile
        assert f.profile.us == [-1, 0, 1, 2]
        # the profile is not a field: equality and hashing ignore it
        g = RadialStepFunction(2, [0, Fraction(1, 3), 3], [2, -1])
        assert f == g and hash(f) == hash(g)

    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            RadialStepFunction(1, [0, 2, 1], [1, 1])

    def test_merges_equal_adjacent_values(self):
        f = RadialStepFunction(1, [0, 1, 2, 3], [5, 5, 1])
        assert f.breakpoints == (0, 2, 3)
        assert f.values == (5, 1)

    def test_strips_trailing_zeros(self):
        f = RadialStepFunction(1, [0, 1, 2], [3, 0])
        assert f.support_radius == 1

    def test_zero_function(self):
        f = RadialStepFunction(1, [0, 1], [0])
        assert f.is_zero()
        assert rearrangement(f).levels == ()

    def test_split_shells_are_one_function(self):
        f = RadialStepFunction(1, (0, 1, 2), (3, 3))
        g = RadialStepFunction(1, (0, 2), (3,))
        assert f == g and hash(f) == hash(g)
        assert f.breakpoints == (0, 2) and f.values == (3,)

    def test_constructor_strips_trailing_zero_shells(self):
        f = RadialStepFunction(2, (0, 1, 2, 5), (3, 0, 0))
        assert f.breakpoints == (0, 1) and f.values == (3,)
        assert f == RadialStepFunction(2, (0, 1), (3,))

    def test_all_zero_shells_give_the_zero_function(self):
        f = RadialStepFunction(3, (0, Fraction(1, 3), 7), (0, 0))
        assert f.breakpoints == (0, 1) and f.values == (0,)
        assert f == RadialStepFunction(3, [0, 1], [0])

    def test_missing_leading_zero_and_any_numbers(self):
        f = RadialStepFunction(1, [0.5, 2], [1, 2.25])
        assert f.breakpoints == (0, Fraction(1, 2), 2)
        assert f.values == (1, Fraction(9, 4))
        assert all(type(x) is Fraction for x in f.breakpoints + f.values)

    @pytest.mark.parametrize("dim, bp, values, message", [
        (0, [0, 1], [1], "dimension must be a positive integer"),
        (1, [], [], "breakpoints must start at 0"),
        (1, [-1, 1], [1], "breakpoints must start at 0"),
        (1, [0, 2, 1], [1, 1], "breakpoints must be strictly increasing"),
        (1, [0, 1, 2], [1], "need exactly one value per shell"),
    ])
    def test_exact_messages(self, dim, bp, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RadialStepFunction(dim, bp, values)

    @given(step_functions(), st.lists(st.integers(1, 7), max_size=6), st.data())
    @settings(max_examples=80, deadline=None)
    def test_splitting_shells_keeps_equality_and_hash(self, f, eighths, data):
        # cut shells at interior radii, each piece repeating its shell's value,
        # and append a zero shell: the same function
        bp, vals = list(f.breakpoints), list(f.values)
        for k in eighths:
            i = data.draw(st.integers(0, len(vals) - 1))
            bp.insert(i + 1, bp[i] + (bp[i + 1] - bp[i]) * Fraction(k, 8))
            vals.insert(i, vals[i])
        bp.append(bp[-1] + 1)
        vals.append(Fraction(0))
        g = RadialStepFunction(f.dim, bp, vals)
        assert g == f and hash(g) == hash(f)


class TestDistribution:
    def test_above_middle_level(self, two_shell):
        assert distribution(two_shell, 2) == Fraction(1, 2)

    def test_below_both_levels(self, two_shell):
        assert distribution(two_shell, Fraction(1, 2)) == Fraction(5, 2)

    def test_at_top_level_strict(self, two_shell):
        assert distribution(two_shell, 3) == 0

    def test_rejects_negative_alpha(self, two_shell):
        with pytest.raises(ValueError):
            distribution(two_shell, -1)


class TestRearrangement:
    def test_two_shell_sorting(self, two_shell):
        g = rearrangement(two_shell)
        assert g.knots == (Fraction(1, 2), Fraction(5, 2))
        assert g.levels == (3, 1)

    def test_signed_values_merge(self):
        # shells of measure 1 with values -2 and 2 rearrange to 2 on [0, 2)
        f = RadialStepFunction(1, [0, Fraction(1, 2), 1], [-2, 2])
        g = rearrangement(f)
        assert g.knots == (2,)
        assert g.levels == (2,)
        for s in (Fraction(0), Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)):
            assert g.value_at(s) == brute_rearrangement_value(f, s)

    def test_right_continuity_and_top(self, two_shell):
        g = rearrangement(two_shell)
        assert g.value_at(0) == 3
        assert g.value_at(Fraction(1, 2)) == 1
        assert g.value_at(Fraction(5, 2)) == 0

    @given(step_functions())
    @settings(max_examples=60, deadline=None)
    def test_equimeasurable_exactly(self, f):
        g = rearrangement(f)
        levels = {Fraction(0), *(abs(v) for v in f.values)}
        for w in levels:
            for alpha in (w, w + Fraction(1, 7), w * Fraction(3, 4)):
                assert distribution(f, alpha) == g.superlevel_measure(alpha)

    @given(step_functions())
    @settings(max_examples=60, deadline=None)
    def test_mass_conservation_exact(self, f):
        assert rearrangement(f).total_mass() == f.abs_integral()

    @given(step_functions())
    @settings(max_examples=40, deadline=None)
    def test_brute_force_inversion_oracle(self, f):
        g = rearrangement(f)
        top = g.support_bound + 1
        for k in range(9):
            s = top * Fraction(k, 8)
            assert g.value_at(s) == brute_rearrangement_value(f, s)

    @given(step_functions(signed=False))
    @settings(max_examples=40, deadline=None)
    def test_monotone_under_shellwise_domination(self, f):
        bigger = RadialStepFunction(
            f.dim, f.breakpoints, [v + Fraction(1, 3) for v in f.values]
        )
        gf, gb = rearrangement(f), rearrangement(bigger)
        for s in (Fraction(0), Fraction(1, 2), Fraction(3, 2), Fraction(4)):
            assert gf.value_at(s) <= gb.value_at(s)

    def test_groups_equal_levels_on_non_adjacent_shells(self):
        # |value| 2 on the shells of measure 1 and 3, split by 5 on measure 1
        f = RadialStepFunction(1, [0, Fraction(1, 2), 1, Fraction(5, 2)], [2, -5, -2])
        g = rearrangement(f)
        assert g.levels == (5, 2)
        assert g.knots == (1, 5)


# the direct definitions that distribution, rearrangement and
# superlevel_measure replace with a bisected table, a sort and an early stop


def distribution_oracle(f, alpha):
    return sum((m for m, v in zip(f.shell_measures(), f.values) if abs(v) > alpha), Fraction(0))


def from_pairs_oracle(pairs):
    groups = {}
    for measure, value in pairs:
        if measure == 0 or value == 0:
            continue
        groups[abs(value)] = groups.get(abs(value), Fraction(0)) + measure
    levels = sorted(groups, reverse=True)
    knots, acc = [], Fraction(0)
    for w in levels:
        acc += groups[w]
        knots.append(acc)
    return StepRearrangement(tuple(knots), tuple(levels))


def superlevel_oracle(g, alpha):
    out = Fraction(0)
    for knot, level in zip(g.knots, g.levels):
        if level > alpha:
            out = knot
    return out


# few magnitudes, both signs and zeros, so levels repeat across shells
REPEATING_VALUES = st.sampled_from(
    [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)]
).flatmap(lambda v: st.sampled_from([v, -v]))


@st.composite
def repeating_step_functions(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    cuts = draw(st.lists(st.integers(1, 64), min_size=n, max_size=n, unique=True))
    values = draw(st.lists(REPEATING_VALUES, min_size=n, max_size=n))
    dim = draw(st.sampled_from((1, 2, 3)))
    return RadialStepFunction(dim, [0] + [Fraction(c, 8) for c in sorted(cuts)], values)


PIECES = st.lists(
    st.tuples(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1), Fraction(5, 2)]),
              REPEATING_VALUES),
    max_size=10,
)

# up to 16 distinct levels over 3, 5 and 7
MANY_LEVELS = st.lists(
    st.tuples(st.sampled_from([Fraction(1, 3), Fraction(1), Fraction(5, 2)]),
              st.builds(Fraction, st.integers(-40, 40), st.sampled_from([3, 5, 7]))),
    max_size=16,
)


def probe_levels(levels):
    """Each level, each half level, 0, a point strictly between each two
    adjacent levels and a point above the largest."""
    ordered = sorted(set(levels))
    top = max(levels, default=Fraction(0))
    return {Fraction(0), top + 1, *levels, *(w / 2 for w in levels),
            *((v + w) / 2 for v, w in zip(ordered, ordered[1:]))}


class TestExactKernelOracles:
    @given(repeating_step_functions())
    @settings(max_examples=80, deadline=None)
    def test_distribution_equals_shell_sum(self, f):
        for alpha in probe_levels([abs(v) for v in f.values]):
            assert distribution(f, alpha) == distribution_oracle(f, alpha)

    @given(PIECES | MANY_LEVELS)
    @settings(max_examples=80, deadline=None)
    def test_superlevel_measure_equals_full_scan(self, pairs):
        # the bisection over the decreasing levels against a scan of them all
        g = from_pairs_oracle(pairs)
        for alpha in probe_levels(g.levels):
            assert g.superlevel_measure(alpha) == superlevel_oracle(g, alpha)
        with pytest.raises(ValueError, match="level must be nonnegative"):
            g.superlevel_measure(Fraction(-1, 7))

    @given(repeating_step_functions())
    @settings(max_examples=40, deadline=None)
    def test_rearrangement_equals_dict_grouping(self, f):
        assert rearrangement(f) == from_pairs_oracle(zip(f.shell_measures(), f.values))


class TestAverageRearrangement:
    def test_two_shell_at_one(self, two_shell):
        g = rearrangement(two_shell)
        assert average_rearrangement(g, 1) == 2

    def test_indicator_flat_then_decay(self):
        g = rearrangement(ball(1, 1))
        assert average_rearrangement(g, Fraction(1, 2)) == 1
        assert average_rearrangement(g, 1) == 1
        assert average_rearrangement(g, 2) == Fraction(1, 2)

    def test_requires_positive_t(self, two_shell):
        with pytest.raises(ValueError):
            average_rearrangement(rearrangement(two_shell), 0)

    @given(step_functions())
    @settings(max_examples=40, deadline=None)
    def test_average_dominates_and_decreases(self, f):
        g = rearrangement(f)
        if not g.levels:
            return
        ts = [g.support_bound * Fraction(k, 4) for k in (1, 2, 3, 5)]
        prev_avg = None
        prev_mass = Fraction(-1)
        for t in ts:
            avg = average_rearrangement(g, t)
            assert avg >= g.value_at(t)
            if prev_avg is not None:
                assert avg <= prev_avg
            mass = t * avg  # running integral: nondecreasing and concave
            assert mass >= prev_mass
            prev_mass = mass
            prev_avg = avg

    @given(step_functions())
    @settings(max_examples=30, deadline=None)
    def test_running_integral_concave(self, f):
        g = rearrangement(f)
        top = g.support_bound + 1
        ts = [top * Fraction(k, 6) for k in range(1, 6)]
        vals = [g.integral_up_to(t) for t in ts]
        slopes = [
            (b - a) / (t2 - t1)
            for (a, b), (t1, t2) in zip(zip(vals, vals[1:]), zip(ts, ts[1:]))
        ]
        assert all(s2 <= s1 for s1, s2 in zip(slopes, slopes[1:]))


class TestAlgebra:
    def test_pointwise_sum_refines(self):
        f = RadialStepFunction(1, [0, 1], [1])
        g = RadialStepFunction(1, [0, Fraction(1, 2), 2], [2, 3])
        h = pointwise_sum([f, g])
        assert h.value_at_radius(Fraction(1, 4)) == 3
        assert h.value_at_radius(Fraction(3, 4)) == 4
        assert h.value_at_radius(Fraction(3, 2)) == 3

    def test_restrict_is_partition_piece(self, two_shell):
        inner = restrict_radii(two_shell, 0, Fraction(1, 4))
        outer = restrict_radii(two_shell, Fraction(1, 4), 10)
        assert pointwise_sum([inner, outer]) == two_shell

    def test_product_integral(self):
        f = RadialStepFunction(1, [0, 1], [2])
        g = RadialStepFunction(1, [0, Fraction(1, 2), 1], [3, -1])
        # |fg| = 6 on measure 1, 2 on measure 1
        assert integrate_abs_product(f, g) == 8

    def test_scale(self, two_shell):
        assert scale(two_shell, Fraction(-1, 2)).abs_integral() == two_shell.abs_integral() / 2


def restrict_radii_oracle(f, lo, hi):
    """The sort-the-union definition: cut at every breakpoint, lo and hi."""
    lo, hi = Fraction(lo), Fraction(hi)
    cuts = sorted({lo, hi, *f.breakpoints, Fraction(0)})
    vals = [
        f.value_at_radius(a) if lo <= a and b <= hi else Fraction(0)
        for a, b in zip(cuts, cuts[1:])
    ]
    return RadialStepFunction(f.dim, cuts, vals)


@st.composite
def restriction_cases(draw):
    """(f, lo, hi) in dims 1 and 3, with lo and hi on or off the breakpoints."""
    f = draw(step_functions(dims=(1, 3)))
    top = f.support_radius
    radii = st.one_of(
        st.sampled_from(f.breakpoints),
        st.integers(1, 80).map(lambda k: Fraction(k, 16)),  # mostly off the breakpoints
        st.integers(1, 8).map(lambda k: top + Fraction(k, 7)),  # past the support
    )
    kind = draw(st.sampled_from(["zero", "past-support", "any"]))
    if kind == "zero":
        lo = Fraction(0)
    elif kind == "past-support":
        lo = top + draw(st.sampled_from([Fraction(0), Fraction(1, 3)]))
    else:
        lo = draw(radii)
    hi = draw(radii.filter(lambda r: r > lo) | st.just(lo + Fraction(1, 5)))
    return f, lo, hi


class TestRestrictRadii:
    @settings(max_examples=300, deadline=None)
    @given(restriction_cases())
    def test_matches_sort_the_union_oracle(self, case):
        f, lo, hi = case
        piece = restrict_radii(f, lo, hi)
        assert piece == restrict_radii_oracle(f, lo, hi)
        assert piece.dim == f.dim

    @settings(max_examples=150, deadline=None)
    @given(step_functions(dims=(1, 3)))
    def test_annulus_pieces_sum_back(self, f):
        pieces = [piece for _, piece in annuli_decompose(f)]
        if f.is_zero():
            assert pieces == []
        else:
            assert pointwise_sum(pieces) == f

    @pytest.mark.parametrize("lo, hi", [
        (0, Fraction(1, 2)),  # lo = 0, hi inside a shell
        (Fraction(1, 2), 1),  # on breakpoints
        (Fraction(3, 4), 3),  # hi past the support
        (1, 2),  # lo at the support radius
        (Fraction(5, 4), 7),  # lo beyond the support
        (0, 9),  # the whole function
    ])
    def test_edge_windows(self, lo, hi):
        f = RadialStepFunction(3, [0, Fraction(1, 2), 1], [2, -1])
        assert restrict_radii(f, lo, hi) == restrict_radii_oracle(f, lo, hi)

    def test_rejects_empty_window(self, two_shell):
        with pytest.raises(ValueError):
            restrict_radii(two_shell, 1, 1)
        with pytest.raises(ValueError):
            restrict_radii(two_shell, -1, 1)


def value_oracle(f, rho):
    return next((v for b, v in zip(f.breakpoints[1:], f.values) if rho < b), Fraction(0))


TINY_CASE = RadialStepFunction(3, [0, Fraction(1, 3), Fraction(7, 3)], [TINY, Fraction(-5, 7)])


class TestLattice:
    """The integer lattice against the Fraction definitions it replaces."""

    @example(TINY_CASE)
    @given(lattice_functions())
    @settings(max_examples=80, deadline=None)
    def test_profile_is_the_rounded_exact_rearrangements(self, f):
        pieces = annuli_decompose(f)
        prof = f.profile
        assert list(prof.us) == [u for u, _ in pieces]
        for i, (_, piece) in enumerate(pieces):
            g = rearrangement(piece)
            assert prof.levels[i].tolist() == [float(w) for w in g.levels]
            assert prof.knots[i].tolist() == [float(t) for t in g.knots]
            assert prof.integrals[i] == float(piece.abs_integral())

    @example(TINY_CASE)
    @given(lattice_functions())
    @settings(max_examples=80, deadline=None)
    def test_measures_and_integrals_are_the_fraction_sums(self, f):
        w, n, bp = unit_ball_volume(f.dim), f.dim, f.breakpoints
        measures = tuple(w * (b**n - a**n) for a, b in zip(bp, bp[1:]))
        assert f.shell_measures() == measures
        assert f.abs_integral() == sum(
            (abs(v) * m for v, m in zip(f.values, measures)), Fraction(0)
        )
        assert f.support_measure() == sum(
            (m for v, m in zip(f.values, measures) if v != 0), Fraction(0)
        )
        for alpha in probe_levels([abs(v) for v in f.values]):
            assert distribution(f, alpha) == distribution_oracle(f, alpha)
        assert rearrangement(f) == from_pairs_oracle(zip(measures, f.values))

    @given(lattice_functions(), lattice_functions(thirds=(5, 10)))
    @settings(max_examples=60, deadline=None)
    def test_refinement_across_lattices(self, f, g):
        g = RadialStepFunction(f.dim, g.breakpoints, g.values)
        cuts = sorted({*f.breakpoints, *g.breakpoints})
        fv = [value_oracle(f, c) for c in cuts[:-1]]
        gv = [value_oracle(g, c) for c in cuts[:-1]]
        w, n = unit_ball_volume(f.dim), f.dim
        assert integrate_abs_product(f, g) == sum(
            (abs(x * y) * w * (b**n - a**n) for x, y, a, b in zip(fv, gv, cuts, cuts[1:])),
            Fraction(0),
        )
        assert pointwise_sum([f, g]) == RadialStepFunction(
            f.dim, cuts, [x + y for x, y in zip(fv, gv)]
        )
        for c in cuts:
            assert f.value_at_radius(c) == value_oracle(f, c)

    def test_distribution_does_not_read_the_rearrangement(self, monkeypatch):
        # the equimeasurability check compares two independent computations
        f = RadialStepFunction(2, [0, Fraction(1, 3), 1, Fraction(5, 3)], [2, Fraction(-1, 7), 2])

        def refuse(f):
            raise AssertionError("distribution read the rearrangement")

        monkeypatch.setattr(rearrange_mod, "_integer_rearrangement", refuse)
        assert distribution(f, Fraction(1, 7)) == distribution_oracle(f, Fraction(1, 7))

    def test_dimension_400_reads_its_lattice_without_measures(self):
        f = RadialStepFunction(400, [0, 1], [1])
        assert f.value_at_radius(Fraction(1, 2)) == 1 and not f.is_zero()
        assert [u for u, _ in annuli_decompose(f)] == [-1, 0]
        with pytest.raises(ValueError, match="overflows"):
            f.shell_measures()


def as_listed(x: Fraction, draw):
    """x as a caller may pass it: an int, a float where one is exact, or a Fraction."""
    kind = draw(st.sampled_from(["int", "float", "fraction"]))
    if kind == "int" and x.denominator == 1:
        return int(x)
    if kind == "float" and x.denominator & (x.denominator - 1) == 0:
        return float(x)
    return x


NON_DYADIC_RADII = st.builds(Fraction, st.integers(1, 60), st.sampled_from([1, 2, 3, 5, 7]))
NON_DYADIC_VALUES = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 5, 7]))


@st.composite
def listed_functions(draw):
    """(dim, breakpoints, values) as a caller lists them: radii over 3, 5 and 7
    among others, values that repeat across neighbours (merged shells), zeros,
    trailing zero shells, and a leading 0 sometimes left out."""
    cuts = sorted(set(draw(st.lists(NON_DYADIC_RADII, min_size=1, max_size=8))))
    values = []
    for _ in cuts:
        repeat = values and draw(st.integers(0, 2)) == 0
        values.append(values[-1] if repeat else draw(NON_DYADIC_VALUES))
    tail = draw(st.integers(0, 2))  # trailing zero shells
    cuts += [cuts[-1] + Fraction(k, 5) for k in range(1, tail + 1)]
    values += [Fraction(0)] * tail
    bp = [Fraction(0), *cuts] if draw(st.booleans()) else cuts
    return (draw(st.integers(1, 3)), [as_listed(b, draw) for b in bp],
            [as_listed(v, draw) for v in values])


def relisted(dim, form, draw):
    """The same function listed differently: every shell cut at a point over
    3, 5 or 7, each piece repeating its value, and a zero shell appended."""
    bp, vals = form
    cuts, values = [bp[0]], []
    for a, b, v in zip(bp, bp[1:], vals):
        cuts += [a + (b - a) * draw(st.sampled_from([Fraction(1, 3), Fraction(2, 5),
                                                    Fraction(4, 7)])), b]
        values += [v, v]
    return RadialStepFunction(dim, [*cuts, cuts[-1] + 1], [*values, 0])


def form(f):
    return f.breakpoints, f.values


class TestLatticeStorage:
    """The integer lattice as the storage, against the Fraction-built
    constructor and operations it replaced (conftest)."""

    @given(listed_functions())
    @settings(max_examples=150, deadline=None)
    def test_fields_are_the_fraction_forms(self, listed):
        dim, bp, vals = listed
        f = RadialStepFunction(dim, bp, vals)
        assert form(f) == fraction_step_function(bp, vals)
        assert all(type(x) is Fraction for x in f.breakpoints + f.values)
        assert f.breakpoints is f.breakpoints and f.values is f.values
        # the stored lattice is reduced
        assert math.gcd(f._den, *f._ticks) == 1 and math.gcd(f._vden, *f._nums) == 1

    @given(listed_functions(), listed_functions(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equality_and_hash_follow_the_fraction_forms(self, a, b, data):
        f, g = RadialStepFunction(*a), RadialStepFunction(*b)
        fa, fb = fraction_step_function(*a[1:]), fraction_step_function(*b[1:])
        assert (f == g) == (a[0] == b[0] and fa == fb)
        h = relisted(f.dim, fa, data.draw)
        assert h == f and hash(h) == hash(f)
        assert RadialStepFunction(f.dim, *fa) == f

    def test_equal_functions_listed_differently(self):
        f = RadialStepFunction(2, [0, Fraction(1, 3), 1], [1, 1])
        for g in (RadialStepFunction(2, [0, 1], [1]),
                  RadialStepFunction(2, [1.0], [1.0]),
                  RadialStepFunction(2, [0, Fraction(2, 5), Fraction(4, 7), 1, 3], [1, 1, 1, 0])):
            assert g == f and hash(g) == hash(f) and form(g) == ((0, 1), (1,))
        assert RadialStepFunction(3, [0, 1], [1]) != f
        assert RadialStepFunction(2, [0, 1], [Fraction(1, 3)]) != f

    @given(listed_functions(), listed_functions(), NON_DYADIC_RADII, NON_DYADIC_RADII,
           NON_DYADIC_VALUES | st.sampled_from([0.375, -2]))
    @settings(max_examples=200, deadline=None)
    def test_operations_match_the_fraction_oracle(self, a, b, x, y, alpha):
        dim = a[0]
        f, g = RadialStepFunction(*a), RadialStepFunction(dim, *b[1:])
        fa, fb = fraction_step_function(*a[1:]), fraction_step_function(*b[1:])
        lo, hi = sorted((x, y))
        if lo == hi:
            lo = Fraction(0)
        cases = [
            (f, fa),
            (restrict_radii(f, lo, hi), fraction_restrict(fa, lo, hi)),
            (pointwise_sum([f, g]), fraction_sum([fa, fb])),
            (scale(f, alpha), fraction_step_function(fa[0], [Fraction(alpha) * v for v in fa[1]])),
            (abs(f), fraction_step_function(fa[0], [abs(v) for v in fa[1]])),
        ]
        for h, expected in cases:
            assert form(h) == expected
            rebuilt = RadialStepFunction(dim, *expected)
            assert h == rebuilt and hash(h) == hash(rebuilt)
            assert rounded_rearrangement(h) == fraction_rounded_rearrangement(dim, expected)


def bits(xs):
    return [x.hex() for x in xs]


class TestRearrangementLattice:
    """f*'s integer lattice against the Fraction-stored profile it replaced
    (conftest), built from the Fraction form of the same function."""

    @given(listed_functions())
    @settings(max_examples=150, deadline=None)
    def test_every_read_equals_the_fraction_oracle(self, listed):
        dim, bp, vals = listed
        g = rearrangement(RadialStepFunction(dim, bp, vals))
        o = fraction_rearrangement(dim, fraction_step_function(bp, vals))
        assert g.knots == o.knots and g.levels == o.levels
        assert all(type(x) is Fraction for x in g.knots + g.levels)
        assert g.knots is g.knots and g.levels is g.levels
        assert (g.support_bound, g.top_level) == (o.support_bound, o.top_level)
        assert g.total_mass() == o.total_mass()
        assert g.segment_masses() == o.segment_masses()
        ts = {Fraction(0), o.support_bound + 1, *o.knots, *(t / 2 for t in o.knots),
              *((s + t) / 2 for s, t in zip(o.knots, o.knots[1:]))}
        for t in ts | {float(t) for t in ts}:
            assert g.value_at(t) == o.value_at(t)
            assert g.integral_up_to(t) == o.integral_up_to(t)
            if t > 0:
                assert average_rearrangement(g, t) == o.average(t)
        halfway = ((v + w) / 2 for v, w in zip(o.levels, o.levels[1:]))
        for alpha in {Fraction(0), *o.levels, *halfway}:
            assert g.superlevel_measure(alpha) == o.superlevel_measure(alpha)
        (gl, gk), (ol, ok) = g.float_steps(), o.float_steps()
        assert bits(gl) == bits(ol) and bits(gk) == bits(ok)

    @given(listed_functions())
    @settings(max_examples=100, deadline=None)
    def test_public_constructor_round_trips_and_validates(self, listed):
        g = rearrangement(RadialStepFunction(*listed))
        h = StepRearrangement(g.knots, g.levels)
        assert h == g and hash(h) == hash(g)
        assert math.gcd(g._kden, *g._knums) == 1 and math.gcd(g._vden, *g._lnums) == 1
        knots, levels = g.knots, g.levels
        bad = [(knots, levels + (Fraction(1, 9),), "pair up")]
        if levels:
            bad += [((Fraction(0), *knots[1:]), levels, "knots must be strictly increasing"),
                    (knots, (*levels[:-1], Fraction(0)), "levels must be positive"),
                    (knots, (*levels[:-1], -levels[-1]), "levels must be positive")]
        if len(levels) > 1:
            swapped = (knots[1], knots[0], *knots[2:])
            bad += [(swapped, levels, "knots must be strictly increasing"),
                    (knots, (levels[0], *levels[:-1]), "levels must be strictly decreasing")]
        for ks, ls, message in bad:
            for cls in (StepRearrangement, FractionRearrangement):
                with pytest.raises(ValueError, match=message):
                    cls(tuple(ks), tuple(ls))

    def test_rearrangement_forms_no_fraction_until_read(self, step_corpus, monkeypatch):
        made = []

        def counting(*args):
            made.append(args)
            return Fraction(*args)

        for f in step_corpus:  # omega_N is formed once per dimension and cached
            unit_ball_volume(f.dim)
        monkeypatch.setattr(rearrange_mod, "Fraction", counting)
        for f in step_corpus:
            g = rearrangement(f)
            assert made == []
            knots = g.knots
            assert len(made) == len(knots)
            levels = g.levels
            assert len(made) == len(knots) + len(levels)
            made.clear()


class TestSumBound:
    def test_single_function_tight(self, two_shell):
        f = abs(two_shell)
        rep = sum_bound_check([f], Fraction(1, 3), [1.0])
        g = rearrangement(f)
        assert rep.lhs == g.value_at(1)
        assert rep.rhs_thm == average_rearrangement(g, Fraction(1, 3))
        assert rep.passed

    def test_two_indicators(self):
        f = ball(1, 1)
        rep = sum_bound_check([f, f], Fraction(1, 3), [0.5, 0.5])
        # the sum rearranges to 2 on [0, 1); at 3t = 1 the right-continuous
        # profile has already dropped to 0
        assert rep.lhs == 0
        assert rep.rhs_cor == 4
        assert rep.passed

    def test_two_indicators_inside_support(self):
        f = ball(1, 1)
        rep = sum_bound_check([f, f], Fraction(3, 10), [0.5, 0.5])
        assert rep.lhs == 2  # 3t = 9/10 < 1
        assert rep.passed

    def test_rejects_signed_input(self, two_shell):
        f = RadialStepFunction(1, [0, 1], [-1])
        with pytest.raises(ValueError):
            sum_bound_check([f], 1, [1.0])

    def test_rejects_bad_weights(self):
        f = ball(1, 1)
        with pytest.raises(ValueError):
            sum_bound_check([f, f], 1, [0.5, 0.6])

    def test_randomized_corpus_always_passes(self, nonneg_corpus):
        rng = random.Random(7)
        for trial in range(100):
            fs = rng.sample(nonneg_corpus, 5)
            raw = [rng.random() + 0.05 for _ in fs]
            cs = [Fraction(x).limit_denominator(10**6) for x in raw]
            total = sum(cs)
            cs = [c / total for c in cs]
            t = Fraction(rng.randint(1, 80), 16)
            rep = sum_bound_check(fs, t, cs)
            assert rep.passed, f"trial {trial}: {rep}"
