import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herzlab import cli
from herzlab.corpus import load_corpus, random_grid_functions, save_corpus
from herzlab.herz import HerzParams
from herzlab.lorentz import INF, LorentzParams
from herzlab.rearrange import unit_ball_volume
from herzlab import operators
from herzlab.operators import (
    GridFunction1D,
    annulus_interaction_bound,
    annulus_interaction_scan,
    boundedness_sweep,
    grid_annulus_profiles,
    grid_hl_norm,
    grid_indicator,
    grid_lp_norm,
    hilbert_at_points,
    hilbert_transform,
    in_window_weights,
    interpolated_boundedness_check,
    kernel_integral_at_points,
    maximal_at_points,
    maximal_operator,
    out_of_range_witness,
    size_condition_check,
)

RNG = np.random.default_rng(42)


def small_grid(n=64, half=2.0, seed=0):
    rng = np.random.default_rng(seed)
    return GridFunction1D(half, rng.uniform(-1.0, 1.0, n))


def chord_table_maximal(f):
    """Reference maximal function: every chord from each cell center to every
    candidate node, O(n * K), in row blocks so memory stays flat."""
    absolute = np.abs(f.array())
    n, h = f.n_cells, f.h
    cum = np.concatenate(([0.0], np.cumsum(absolute * h)))
    t = h * np.arange(n + 1)
    nodes = operators._candidate_nodes(absolute)
    t_c, f_c = t[nodes], cum[nodes]
    x = t[:-1] + 0.5 * h
    fx = cum[:-1] + 0.5 * h * absolute
    out = np.empty(n)
    rows = max(1, (1 << 15) // len(nodes))
    for lo in range(0, n, rows):
        chords = np.subtract(f_c, fx[lo : lo + rows, None])
        chords /= t_c - x[lo : lo + rows, None]
        out[lo : lo + rows] = chords.max(axis=1)
    return np.maximum(absolute, out)


def full_table_right_sup(t_c, f_c, x, fx, nxt):
    """`operators._right_sup` with the full binary-lifting table of
    bit_length(K - 1) levels, K the candidate count, as an oracle."""

    def chord(f, t, c):
        return (f[c] - fx) / (t[c] - x)

    parent = operators._hull_parents(t_c, f_c)
    f_p, t_p = f_c[parent], t_c[parent]
    jumps = [parent]
    for _ in range((len(parent) - 1).bit_length() - 1):
        jumps.append(jumps[-1][jumps[-1]])
    v, here, after = nxt, chord(f_c, t_c, nxt), chord(f_p, t_p, nxt)
    rising = after > here
    for up in reversed(jumps):
        w = up[v]
        here_w, after_w = chord(f_c, t_c, w), chord(f_p, t_p, w)
        step = rising & (after_w > here_w)
        v = np.where(step, w, v)
        here, after = np.where(step, here_w, here), np.where(step, after_w, after)
    return np.maximum(here, after)


def full_table_maximal(f):
    with mock.patch.object(operators, "_right_sup", full_table_right_sup):
        return maximal_operator(f).array()


def hull_parents(f):
    """The parent arrays of both one-sided searches of `maximal_operator`."""
    absolute = np.abs(f.array())
    cum = operators._cumulative_abs(absolute, f.h)
    nodes = operators._candidate_nodes(absolute)
    t_c, f_c = f.h * nodes, cum[nodes]
    return operators._hull_parents(t_c, f_c), operators._hull_parents(-t_c[::-1], -f_c[::-1])


def longest_path(parent):
    """Steps from the farthest candidate to the last one along `parent`."""
    steps = [0] * len(parent)
    for k in range(len(parent) - 2, -1, -1):
        steps[k] = steps[parent[k]] + 1
    return max(steps)


def rough_grids():
    """Benchmark-shaped rough grids (4,096 cells in 2,048 blocks) and their
    refinements."""
    grids = random_grid_functions(2, seed=20240801, half_width=8.0, n_cells=4096, blocks=2048)
    return [
        pytest.param(g, id=f"rough{k}-n{g.n_cells}")
        for k, f in enumerate(grids)
        for g in (f, f.refine())
    ]


def whole_window_profiles(f):
    """Reference annulus profile: every cell of the window is split against
    every annulus, as (us, levels, knots)."""
    vals = f.array()
    el = f.nodes()[:-1]
    er = f.nodes()[1:]
    u_max = max(0, math.ceil(math.log2(f.half_width)))
    us, levels, knots = [], [], []
    for u in range(-1, u_max + 1):
        if u == -1:
            lo, hi = 0.0, 0.5
        else:
            lo, hi = 2.0 ** (u - 1), 2.0**u
        pos = np.clip(np.minimum(er, hi) - np.maximum(el, lo), 0.0, None)
        neg = np.clip(np.minimum(er, -lo) - np.maximum(el, -hi), 0.0, None)
        widths = pos + neg
        mask = (widths > 0.0) & (vals != 0.0)
        if not mask.any():
            continue
        w = np.abs(vals[mask])
        m = widths[mask]
        order = np.argsort(-w, kind="stable")
        us.append(u)
        levels.append(w[order])
        knots.append(np.cumsum(m[order]))
    return us, levels, knots


def profile_bytes(us, levels, knots):
    return list(us), [w.tobytes() for w in levels], [t.tobytes() for t in knots]


def linear_convolve(a, b):
    """Reference linear convolution by FFT, both spectra taken per call."""
    n_out = len(a) + len(b) - 1
    size = 1
    while size < n_out:
        size <<= 1
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n_out]


def direct_hilbert(f):
    """Reference Hilbert transform: node jumps against the log kernel built
    for this call."""
    n = f.n_cells
    jumps = np.diff(f.array(), prepend=0.0, append=0.0)
    kernel = np.log(np.abs((np.arange(-n, n) + 0.5) * f.h))
    return linear_convolve(jumps, kernel)[n : 2 * n] / math.pi


def grid_corpus(seed, blocks, count=3, n_cells=4096):
    """The benchmark's kind of corpus: an indicator plus block-constant grids."""
    return [grid_indicator(8.0, n_cells, -1.0, 1.0)] + random_grid_functions(
        count, seed, half_width=8.0, n_cells=n_cells, blocks=blocks
    )


class TestGridFunction:
    def test_geometry(self):
        f = grid_indicator(4.0, 16, -1.0, 1.0)
        assert f.h == 0.5
        assert len(f.nodes()) == 17
        assert f.value_at(0.1) == 1.0
        assert f.value_at(3.9) == 0.0

    def test_refine_preserves_function(self):
        f = small_grid()
        g = f.refine()
        assert g.n_cells == 2 * f.n_cells
        xs = np.linspace(-1.9, 1.9, 23)
        assert all(f.value_at(x) == g.value_at(x) for x in xs)

    def test_cell_count_must_be_even(self):
        with pytest.raises(ValueError):
            GridFunction1D(1.0, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("values", [
        [0.0, math.inf],
        [math.nan, 1.0],
        [[1.0, 2.0], [3.0, 4.0]],
        [1.0],
        [],
    ])
    def test_rejects_non_finite_odd_and_2d_cells(self, values):
        with pytest.raises(ValueError):
            GridFunction1D(1.0, values)

    def test_cells_are_read_only(self):
        f = small_grid(n=8)
        with pytest.raises(ValueError):
            f.values[0] = 1.0
        with pytest.raises(ValueError):
            f.array()[1] = 1.0
        assert f.values.dtype == np.float64

    def test_from_array_copies_its_input(self):
        src = np.array([0.0, 1.0, 2.0, 3.0])
        f = GridFunction1D(1.0, src)
        src[0] = 9.0
        assert f.values.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_equality_compares_width_and_cells(self):
        f = small_grid(n=8)
        assert f == GridFunction1D(f.half_width, f.values.tolist())
        assert f != GridFunction1D(2.0 * f.half_width, f.values)
        assert f != f.refine()
        assert f != f.values.tolist()

    def test_corpus_round_trip_is_equal(self, tmp_path):
        fs = [small_grid(n=48, seed=1), grid_indicator(8.0, 64, -1.0, 1.0)]
        path = tmp_path / "grids.json"
        save_corpus(fs, path)
        back = load_corpus(path)
        assert back == fs
        assert not back[0].values.flags.writeable

    def test_profile_steps_are_views_of_flat_arrays(self):
        prof = small_grid(n=64).profile
        assert len(prof.levels) == len(prof.us) > 1
        for i in range(len(prof.us)):
            assert np.shares_memory(prof.levels[i], prof.flat_levels)
            assert np.shares_memory(prof.knots[i], prof.flat_knots)

    def test_profile_and_refinement_are_built_once(self):
        f = small_grid(n=64)
        assert f.refine() is f.refine()
        assert f.profile is f.profile
        assert f.refine().profile is f.refine().profile
        assert profile_bytes(f.profile.us, f.profile.levels, f.profile.knots) == profile_bytes(
            *whole_window_profiles(f)
        )


class TestMaximal:
    def test_indicator_at_three(self):
        f = grid_indicator(4.0, 2**14, -1.0, 1.0)
        got = maximal_at_points(f, [3.0])[0]
        assert got == pytest.approx(0.5, abs=f.h)

    def test_indicator_analytic_profile(self):
        # uncentered maximal of the unit-interval indicator is 2/(1+|x|)
        f = grid_indicator(8.0, 2**12, -1.0, 1.0)
        xs = [1.5, 2.0, 3.0, 5.0, -2.5]
        got = maximal_at_points(f, xs)
        for x, g in zip(xs, got):
            assert g == pytest.approx(2.0 / (1.0 + abs(x)), abs=2 * f.h)

    def test_dominates_function(self):
        f = small_grid(seed=3)
        m = maximal_operator(f)
        assert np.all(m.array() >= np.abs(f.array()) - 1e-15)

    def test_constant_function_fixed(self):
        f = GridFunction1D(1.0, [0.7] * 32)
        m = maximal_operator(f)
        assert np.allclose(m.array(), 0.7, rtol=1e-12)

    def test_hull_matches_direct_evaluation(self):
        fs = [small_grid(n=48, seed=seed) for seed in range(4)] + [
            random_grid_functions(1, seed=3, n_cells=512)[0],
            # a new level in every cell: every node is a hull-tree candidate
            small_grid(n=1024, seed=7),
            # sign flips at equal |f|, then zero cells at both edges
            GridFunction1D(2.0, [0.5, -0.5, 0.5, -0.5, 1.5, -1.5, -1.5, 1.5] * 4),
            GridFunction1D(2.0, [0.0] * 10 + [0.3, 1.2, 1.2, -0.7] * 3 + [0.0] * 10),
        ]
        for f in fs:
            m_full = maximal_operator(f).array()
            m_direct = maximal_at_points(f, f.centers())
            assert np.max(np.abs(m_full - m_direct)) < 1e-12

    @pytest.mark.parametrize("f", [
        GridFunction1D(1.0, [0.0, 1.0]),
        GridFunction1D(1.0, [1.0, -2.0]),
        GridFunction1D(1.0, [0.7] * 32),
        grid_indicator(8.0, 4096, -1.0, 1.0),
        grid_indicator(8.0, 512, 2.0, 5.0),
        grid_indicator(4.0, 1024, 0.5, 2.0, two_sided=True),
        GridFunction1D(2.0, [0.5, -0.5, 0.5, -0.5, 1.5, -1.5, -1.5, 1.5] * 4),
        GridFunction1D(2.0, [0.0] * 10 + [0.3, 1.2, 1.2, -0.7] * 3 + [0.0] * 10),
        small_grid(n=1024, seed=7),
        small_grid(n=16384, half=8.0, seed=11),
        # every other node of F lies on one line: collinear hull vertices
        GridFunction1D(2.0, [1.0, 3.0] * 16),
        # up to eight candidates tie for the sup at one cell center
        GridFunction1D(1.0, [1.0, 2.0, 3.0] * 4 + [0.0, 2.0, 1.0, 2.0]),
        # a zero run, then 257 falling levels: from the leftmost cells the
        # tangent is the last of 258 hull vertices, the longest lift for K
        GridFunction1D(8.0, [0.0] * 255 + np.linspace(2.0, 1.0, 257).tolist()),
        # rounded chords rise again along the path after falling at the next
        # candidate, which holds the sup; the lift must not start there
        GridFunction1D(
            1.9595770141756232,
            [1.0] * 5 + [2.0] * 5 + [0.0] * 5 + [2.0] * 10 + [3.0] * 10 + [2.0] * 5,
        ),
        *[small_grid(n=48, seed=seed) for seed in range(4)],
        *random_grid_functions(2, seed=3, n_cells=512, blocks=256),
        *rough_grids(),
    ], ids=lambda f: f"n{f.n_cells}")
    def test_hull_tree_equals_chord_table(self, f):
        got = maximal_operator(f).array()
        assert got.tobytes() == chord_table_maximal(f).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.25, -0.5, 1.0, 2.0, -3.0]) | st.floats(-4.0, 4.0),
                st.integers(1, 6),
            ),
            min_size=1,
            max_size=40,
        ),
        st.sampled_from([0.5, 1.0, 8.0]),
    )
    def test_hull_tree_equals_chord_table_on_random_blocks(self, blocks, half):
        # zero-padded to a power-of-two cell count, so the cell width is a
        # power of two and tied chords from dyadic levels are exact floats
        vals = [level for level, length in blocks for _ in range(length)]
        n = max(2, 1 << (len(vals) - 1).bit_length())
        f = GridFunction1D(half, vals + [0.0] * (n - len(vals)))
        got = maximal_operator(f).array()
        assert got.tobytes() == chord_table_maximal(f).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0, -3.0]), st.integers(1, 6)),
            min_size=1,
            max_size=40,
        ),
        st.floats(0.3, 9.0),
    )
    def test_hull_tree_within_rounding_on_any_cell_width(self, blocks, half):
        # With a cell width that is not a power of two, chords that tie in
        # exact arithmetic round apart, and the table keeps the largest
        # rounding; the hull tree returns the chord of one maximizer.
        vals = [level for level, length in blocks for _ in range(length)]
        f = GridFunction1D(half, vals + [0.0] * (len(vals) % 2))
        np.testing.assert_allclose(
            maximal_operator(f).array(), chord_table_maximal(f), rtol=1e-13, atol=0.0
        )

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0, -3.0]), st.integers(1, 6)),
            min_size=1,
            max_size=40,
        ),
        st.floats(1e-3, 1e3) | st.just(1.9595770141756232),
    )
    def test_depth_sized_table_equals_full_table_on_any_cell_width(self, blocks, half):
        # the levels dropped from the full table move no tangent search, so
        # the values agree bit for bit where the chord table agrees only to
        # rounding
        vals = [level for level, length in blocks for _ in range(length)]
        f = GridFunction1D(half, vals + [0.0] * (len(vals) % 2))
        assert maximal_operator(f).array().tobytes() == full_table_maximal(f).tobytes()

    @pytest.mark.parametrize("f, levels, full_levels", [
        # K = 1,539 candidates, but no hull path is longer than 12 steps
        (random_grid_functions(1, 20240801, half_width=8.0, n_cells=4096, blocks=2048)[0], 4, 11),
        # the right side's path visits all 259 candidates: the full table
        (GridFunction1D(8.0, [0.0] * 255 + np.linspace(2.0, 1.0, 257).tolist()), 9, 9),
        # K = 2: every path is one step long, so no level can move a search
        (GridFunction1D(1.0, [0.7] * 32), 0, 1),
    ], ids=["rough", "falling", "constant"])
    def test_jump_table_has_one_level_per_bit_of_the_longest_path(self, f, levels, full_levels):
        right, left = hull_parents(f)
        for parent in (right, left):
            jumps = operators._jump_table(parent)
            assert len(jumps) == (longest_path(parent) - 1).bit_length()
            up = parent
            for level in jumps:
                assert level.tobytes() == up.tobytes()
                up = up[up]
        assert len(operators._jump_table(right)) == levels
        assert (len(right) - 1).bit_length() == full_levels

    def test_sign_flip_at_equal_level_is_not_a_candidate(self):
        f = GridFunction1D(1.0, [0.0, 0.5, -0.5, 0.5, -0.5, 0.0])
        nodes = operators._candidate_nodes(np.abs(f.array()))
        assert nodes.tolist() == [0, 1, 5, 6]

    def test_sublinear(self):
        f = small_grid(seed=5)
        g = small_grid(seed=6)
        fg = GridFunction1D(f.half_width, f.array() + g.array())
        m_sum = maximal_operator(fg).array()
        bound = maximal_operator(f).array() + maximal_operator(g).array()
        assert np.all(m_sum <= bound + 1e-12)

    def test_refinement_monotone_at_fixed_points(self):
        f = grid_indicator(4.0, 64, -1.0, 1.0)
        xs = [1.7, 2.3, 3.1]
        coarse = maximal_at_points(f, xs)
        fine = maximal_at_points(f.refine(), xs)
        assert np.all(fine >= coarse - 1e-15)


class TestHilbert:
    def test_indicator_log_value(self):
        f = grid_indicator(4.0, 2**14, -1.0, 1.0)
        got = hilbert_at_points(f, [2.0])[0]
        assert got == pytest.approx(math.log(3.0) / math.pi, abs=1e-12)

    def test_indicator_analytic_profile_from_grid(self):
        f = grid_indicator(4.0, 2**12, -1.0, 1.0)
        h_grid = hilbert_transform(f)
        for x in (1.5, 2.5, -3.1):
            expected = math.log(abs((x + 1.0) / (x - 1.0))) / math.pi
            assert h_grid.value_at(x) == pytest.approx(expected, abs=1e-3)

    def test_even_function_gives_odd_output(self):
        f = grid_indicator(2.0, 256, -0.5, 0.5)
        h = hilbert_transform(f).array()
        assert np.max(np.abs(h + h[::-1])) < 1e-12

    def test_linearity(self):
        f = small_grid(seed=7)
        g = small_grid(seed=8)
        fg = GridFunction1D(f.half_width, f.array() + g.array())
        lhs = hilbert_transform(fg).array()
        rhs = hilbert_transform(f).array() + hilbert_transform(g).array()
        scale = np.max(np.abs(lhs)) + 1.0
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale

    def test_kernel_matrix_skew_symmetric(self):
        # dense kernel entries ln|(m+1/2)/(m-1/2)| are odd in m = i - k
        for m in (1, 2, 5, 30):
            left = math.log(abs((m + 0.5) / (m - 0.5)))
            right = math.log(abs((-m + 0.5) / (-m - 0.5)))
            assert left == pytest.approx(-right, rel=1e-15)

    def test_cached_kernel_spectrum_on_alternating_shapes(self):
        # six shapes, two of which share n and differ in h, cycle through a
        # four-entry cache, so spectra are evicted and built again
        shapes = [(4.0, 64), (2.0, 128), (4.0, 64), (3.0, 64), (1.0, 32), (5.0, 16),
                  (2.0, 128), (0.5, 8), (4.0, 64), (3.0, 64)]
        for k, (half, n) in enumerate(shapes):
            f = small_grid(n, half, seed=k)
            assert hilbert_transform(f).array().tobytes() == direct_hilbert(f).tobytes()
        assert not operators._log_kernel_spectrum(64, 0.125).flags.writeable

    def test_fft_matches_direct_sum(self):
        f = small_grid(n=32, seed=9)
        h_fft = hilbert_transform(f).array()
        h_direct = hilbert_at_points(f, f.centers())
        assert np.max(np.abs(h_fft - h_direct)) < 1e-10


class TestDriftRule:
    """The one refinement-drift rule of the size condition and the sweeps."""

    def test_edges(self):
        assert operators._DRIFT_TOL == 0.05
        assert operators._drift(20.0, 21.0) == (0.05, True)
        # 1 / nextafter(20, 0) rounds to the float just above 0.05
        base = math.nextafter(20.0, 0.0)
        assert operators._drift(base, base + 1.0) == (math.nextafter(0.05, math.inf), False)
        assert operators._drift(0.0, 3.0) == (0.0, True)
        assert not operators._drift(INF, INF)[1]
        assert not operators._drift(INF, 1.0)[1]

    def test_size_condition_reads_it(self):
        rep = size_condition_check("maximal", grid_indicator(8.0, 1024, -1.0, 1.0), margin=8)
        assert (rep.ratio, rep.passed) == operators._drift(rep.lhs, rep.rhs)


class TestSizeCondition:
    def test_hilbert_ratio_one_over_pi(self):
        f = grid_indicator(4.0, 1024, -1.0, 1.0)
        x = 2.0
        t_val = abs(hilbert_at_points(f, [x])[0])
        k_val = kernel_integral_at_points(f, [x])[0]
        assert t_val / k_val == pytest.approx(1.0 / math.pi, rel=1e-12)
        rep = size_condition_check("hilbert", f, margin=8)
        assert rep.passed
        assert rep.lhs <= 1.0 / math.pi + 1e-9

    def test_maximal_point_ratio(self):
        f = grid_indicator(8.0, 2**12, -1.0, 1.0)
        x = 3.0
        t_val = maximal_at_points(f, [x])[0]
        k_val = kernel_integral_at_points(f, [x])[0]
        assert k_val == pytest.approx(math.log(2.0), rel=1e-10)
        assert t_val / k_val == pytest.approx(0.5 / math.log(2.0), rel=1e-3)

    def test_maximal_passes(self):
        f = grid_indicator(8.0, 1024, -1.0, 1.0)
        rep = size_condition_check("maximal", f, margin=8)
        assert rep.passed and math.isfinite(rep.lhs)

    def test_zero_function(self):
        f = GridFunction1D(1.0, [0.0] * 16)
        rep = size_condition_check("hilbert", f, margin=2)
        assert rep.lhs == 0.0


class TestAnnulusInteraction:
    def test_diagonal_r1_identity(self):
        params = LorentzParams(2, 2)
        for u in range(0, 20):
            lhs, rhs = annulus_interaction_bound(u, u, 1, params)
            assert lhs == pytest.approx(1.0, rel=1e-12)
            assert rhs == 1.0

    def test_off_diagonal_equality(self):
        lhs, rhs = annulus_interaction_bound(2, 0, 1, LorentzParams(2, 2))
        assert lhs == pytest.approx(0.5, rel=1e-12)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_scan_single_constant(self):
        for dim in (1, 2, 3):
            for p, r in ((1.5, 1.0), (2.0, 2.0), (4.0, INF)):
                rep = annulus_interaction_scan(dim, LorentzParams(p, r), window=(-1, 60))
                assert rep.passed
                assert math.isfinite(rep.constant)
                assert rep.constant > 0

    @staticmethod
    def pairwise_scan(dim, params, window):
        """The largest ratio over the window, one annulus_interaction_bound call per pair."""
        span = range(window[0], window[1] + 1)
        pairs = [annulus_interaction_bound(u, v, dim, params) for u in span for v in span]
        return max(lhs / rhs for lhs, rhs in pairs)

    @pytest.mark.parametrize("window", [(-1, 60), (-1, -1), (5, 5), (0, 40)])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("p, r", [(1.5, 1.0), (2.0, 2.0), (4.0, INF)])
    def test_scan_equals_pairwise_loop(self, dim, p, r, window):
        # from u = -1 the largest ratio is (-1, -1)'s; from u >= 0 every
        # ratio is one constant, equal up to the scan's stated rounding bound
        params = LorentzParams(p, r)
        rep = annulus_interaction_scan(dim, params, window)
        best = self.pairwise_scan(dim, params, window)
        lo, hi = window
        if lo == -1:
            assert rep.constant == best
        else:
            omega = float(unit_ball_volume(dim))
            tol = 2.0**-49 * (dim * (max(abs(lo), abs(hi)) + 1) + abs(math.log2(omega)) + 2)
            assert abs(rep.constant - best) <= tol * best
        assert rep.passed and rep.lhs == rep.constant
        assert rep.ratio == rep.lhs / rep.rhs


class TestGridNorms:
    def test_annulus_split_preserves_measure(self):
        f = small_grid(n=128, half=4.0, seed=11)
        profiles = grid_annulus_profiles(f)
        total = sum(knots[-1] for knots in profiles.knots)
        support = np.sum(np.abs(f.array()) > 0) * f.h
        assert total == pytest.approx(support, rel=1e-12)

    def test_lp_identity(self):
        for seed in range(3):
            f = small_grid(n=256, half=4.0, seed=seed)
            for p in (1.5, 2.0, 4.0):
                hl = grid_hl_norm(f, HerzParams(0.0, p, p, p))
                lp = grid_lp_norm(f, p)
                assert hl == pytest.approx(lp, rel=1e-10)

    @pytest.mark.parametrize("c", [1e-200, 1e200])
    def test_cells_beyond_the_float_range(self, c):
        # the power sums leave the normal range; the norms scale with the cells
        f = small_grid(n=128, half=4.0, seed=3)
        g = GridFunction1D(f.half_width, c * f.array())
        assert grid_lp_norm(g, 2.0) == pytest.approx(c * grid_lp_norm(f, 2.0), rel=1e-13, abs=0.0)
        for params in (HerzParams(0.3, 2.0, 1.5, 2.0), HerzParams(-0.2, 1.5, 4.0, 1.0)):
            assert grid_hl_norm(g, params) == pytest.approx(
                c * grid_hl_norm(f, params), rel=1e-12, abs=0.0
            )

    def test_cells_near_1e_minus_200_scale_within_rounding(self):
        # the weighted sum of the scores lies near 1e-300: the direct form's
        # 1/q-th power of it was 2.6e-14 relative off, the scaled form is not
        params = HerzParams(0.3, 2, 1.5, 2)
        for f in grid_corpus(seed=5, blocks=16):
            g = GridFunction1D(f.half_width, 1e-200 * f.array())
            assert grid_hl_norm(g, params) == pytest.approx(
                1e-200 * grid_hl_norm(f, params), rel=1e-15, abs=0.0
            )

    def test_indicator_value(self):
        f = grid_indicator(4.0, 2048, 0.5, 1.0, two_sided=True)  # = A_0
        got = grid_hl_norm(f, HerzParams(0.7, 2, 1, 1))
        assert got == pytest.approx(2.0, rel=1e-12)  # (p/r)^{1/r} mu^{1/2} = 2


class TestGridProfiles:
    """grid_annulus_profiles reads only each annulus's cells; the levels and
    knots must be the bytes of the whole-window split."""

    @staticmethod
    def check(f):
        prof = grid_annulus_profiles(f)
        assert profile_bytes(prof.us, prof.levels, prof.knots) == profile_bytes(
            *whole_window_profiles(f)
        )

    @pytest.mark.parametrize("half, n", [
        (0.3, 2), (3.7, 10), (100.0, 1000),
        (8.0, 4),  # each cell spans several annuli
        (0.9, 6), (0.9, 14),  # the middle node rounds to -/+1.1e-16: one cell holds 0
    ])
    def test_equals_whole_window(self, half, n):
        rng = np.random.default_rng(n)
        vals = rng.uniform(-2.0, 2.0, n) * (rng.random(n) < 0.8)
        self.check(GridFunction1D(half, vals))

    @pytest.mark.parametrize("blocks", [16, 2048])
    def test_equals_whole_window_on_benchmark_grids(self, blocks):
        for f in grid_corpus(20240801, blocks):
            for g in (f, maximal_operator(f), hilbert_transform(f)):
                self.check(g)

    @given(
        st.floats(0.05, 300.0),
        st.integers(1, 300),
        st.lists(st.sampled_from([0.0, -1.5, 0.25, 3.0]), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_whole_window_on_any_width(self, half, pairs, pattern):
        vals = np.resize(pattern, 2 * pairs)
        self.check(GridFunction1D(half, vals))


class TestWindow:
    def test_weights_strictly_inside(self):
        for p in (1.5, 2.0, 4.0):
            ws = in_window_weights(p, 5)
            lo, hi = -1.0 / p, 1.0 - 1.0 / p
            assert len(ws) == 5
            assert all(lo < a < hi for a in ws)


@pytest.fixture(scope="module")
def sweep_corpus():
    return [grid_indicator(8.0, 2048, -1.0, 1.0)] + random_grid_functions(
        2, seed=17, half_width=8.0, n_cells=2048
    )


class TestSweep:

    def test_maximal_cells_bounded_and_stable(self, sweep_corpus):
        rep = boundedness_sweep("maximal", sweep_corpus, ps=(2.0,), qs=(1.0, INF), rs=(2.0,))
        assert rep.passed
        assert all(math.isfinite(c.ratio) and c.ratio >= 1.0 - 1e-9 for c in rep.cells)

    def test_hilbert_excludes_weak_inner_norm(self, sweep_corpus):
        rep = boundedness_sweep("hilbert", sweep_corpus, ps=(2.0,), qs=(1.0,), rs=(2.0, INF))
        labels = [lbl for lbl, _ in rep.excluded]
        assert any("r=inf" in lbl for lbl in labels)
        assert all(c.r != INF for c in rep.cells)

    def test_lp_cell_matches_plain_ratio_oracle(self, sweep_corpus):
        # at (a, q, r) = (0, p, p) the ratio must agree with the plain
        # Lebesgue operator ratio
        p = 2.0
        f = sweep_corpus[0]
        num = grid_lp_norm(maximal_operator(f), p)
        den = grid_lp_norm(f, p)
        hl_ratio = grid_hl_norm(maximal_operator(f), HerzParams(0.0, p, p, p)) / grid_hl_norm(
            f, HerzParams(0.0, p, p, p)
        )
        assert hl_ratio == pytest.approx(num / den, rel=1e-10)


def assert_rows_are_cell_by_cell_ratios(operator, corpus, rep):
    op = {"maximal": maximal_operator, "hilbert": hilbert_transform}[operator]
    for row in rep.cells:
        params = HerzParams(row.a, row.p, row.q, row.r)
        base = fine = 0.0
        for f in corpus:
            denom = grid_hl_norm(f, params)
            if denom == 0.0:
                continue
            base = max(base, grid_hl_norm(op(f), params) / denom)
            fr = f.refine()
            fine = max(fine, grid_hl_norm(op(fr), params) / grid_hl_norm(fr, params))
        assert (row.ratio, row.refined_ratio) == (base, fine)


@pytest.mark.parametrize("operator", ["maximal", "hilbert"])
def test_sweep_rows_equal_cell_by_cell_ratios(operator):
    corpus = [grid_indicator(4.0, 256, -1.0, 1.0)] + random_grid_functions(
        2, seed=11, half_width=4.0, n_cells=256
    )
    rep = boundedness_sweep(operator, corpus, ps=(1.5, 4.0), qs=(1.0, INF),
                            rs=(2.0,), weight_count=2)
    assert len(rep.cells) == 8
    assert_rows_are_cell_by_cell_ratios(operator, corpus, rep)


@pytest.mark.parametrize("operator", ["maximal", "hilbert"])
@pytest.mark.parametrize("case", ["zero-grid-among-others", "image-beyond-support"])
def test_sweep_rows_equal_cell_by_cell_ratios_on_edge_corpora(operator, case):
    # a zero grid is skipped cell by cell; an image Tf that reaches annuli
    # f lacks has scores where f's row of the sweep matrix holds 0.0
    if case == "zero-grid-among-others":
        corpus = [GridFunction1D(4.0, np.zeros(256))] + random_grid_functions(
            2, seed=11, half_width=4.0, n_cells=256
        )
    else:
        corpus = [grid_indicator(8.0, 512, -0.25, 0.25), grid_indicator(8.0, 512, 3.0, 4.0)]
        assert set(grid_annulus_profiles(corpus[0]).us) == {-1}
        assert set(grid_annulus_profiles(operators._OPERATORS[operator](corpus[0])).us) > {-1}
    rep = boundedness_sweep(operator, corpus, ps=(1.5, 4.0), qs=(1.0, 2.5, INF),
                            rs=(1.0, 2.0), weight_count=2)
    assert len(rep.cells) == 24
    assert_rows_are_cell_by_cell_ratios(operator, corpus, rep)


class TestZeroGridCorpus:
    """A corpus of zero grids has only 0/0 ratios: the sweeps refuse it
    rather than pass every cell with ratio 0."""

    def test_sweeps_raise(self):
        corpus = [GridFunction1D(4.0, np.zeros(64)), GridFunction1D(2.0, np.zeros(32))]
        for operator in ("maximal", "hilbert"):
            with pytest.raises(ValueError, match="no nonzero grid"):
                boundedness_sweep(operator, corpus)
        with pytest.raises(ValueError, match="no nonzero grid"):
            interpolated_boundedness_check("hilbert", 2.0, 1.5, 0.2, corpus)

    @pytest.mark.parametrize("suite", ["boundedness", "interp-boundedness"])
    def test_cli_exits_2_without_a_report(self, tmp_path, capsys, suite):
        path, out = tmp_path / "zero.json", tmp_path / "report.json"
        save_corpus([GridFunction1D(4.0, np.zeros(64))], path)
        assert cli.main(["verify", suite, "--corpus", str(path), "--out", str(out)]) == 2
        assert "no nonzero grid" in capsys.readouterr().err
        assert not out.exists()


def test_sweeps_sharing_a_corpus_equal_fresh_sweeps():
    # the maximal sweep fills the grids' cached profiles and scores; the
    # Hilbert sweep after it reads them
    corpus = grid_corpus(5, 16, count=2, n_cells=512)
    kw = dict(ps=(1.5, 4.0), qs=(1.0, 2.0), rs=(1.0, 2.0), weight_count=2)
    shared = [boundedness_sweep(op, corpus, **kw) for op in ("maximal", "hilbert")]
    fresh = [
        boundedness_sweep(
            op, [GridFunction1D(f.half_width, f.values) for f in corpus], **kw
        )
        for op in ("maximal", "hilbert")
    ]
    assert shared == fresh


def test_threads_sharing_a_corpus_equal_one_thread():
    # verify --jobs runs the two sweeps of one corpus on threads, which then
    # build and read the same cached profiles and scores
    corpus = grid_corpus(9, 16, count=2, n_cells=256)
    kw = dict(ps=(2.0,), qs=(1.0, INF), rs=(1.0, 2.0), weight_count=2)
    ops = ("maximal", "hilbert") * 3
    expected = [
        boundedness_sweep(op, [GridFunction1D(f.half_width, f.values) for f in corpus],
                          **kw)
        for op in ops
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(ops)) as pool:
            futures = [pool.submit(boundedness_sweep, op, corpus, **kw) for op in ops]
            results = [fut.result(timeout=120) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == expected


class TestWorkCounts:
    """Each grid's profile and refinement are built once per corpus, so the
    operator images are all that a second sweep adds."""

    K = 3

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            operators, "grid_annulus_profiles", counted("profile", grid_annulus_profiles)
        )
        for name, fn in list(operators._OPERATORS.items()):
            monkeypatch.setitem(operators._OPERATORS, name, counted(name, fn))
        return calls

    def test_verify_boundedness(self, calls, tmp_path):
        path = tmp_path / "grids.json"
        save_corpus(random_grid_functions(self.K, 3, half_width=4.0, n_cells=256), path)
        code = cli.main(["verify", "boundedness", "--corpus", str(path),
                         "--out", str(tmp_path / "report.json")])
        assert code in (0, 1)
        # f, its refinement, and Mf, Hf at both sizes
        assert calls == {"profile": 6 * self.K, "maximal": 2 * self.K, "hilbert": 2 * self.K}

    def test_interpolated_boundedness_check(self, calls):
        corpus = random_grid_functions(self.K, 3, half_width=4.0, n_cells=256)
        interpolated_boundedness_check("hilbert", 2.0, 1.5, 0.2, corpus)
        assert calls == {"profile": 4 * self.K, "hilbert": 2 * self.K}


class TestWitness:
    def test_outside_window_grows(self):
        rep = out_of_range_witness(family_size=5, cells_per_side=1024)
        assert rep.growing
        assert all(s < t for s, t in zip(rep.ratios, rep.ratios[1:]))

    def test_inside_window_bounded(self):
        ratios = []
        for v in range(1, 6):
            half = 2.0 ** (v + 1)
            f = grid_indicator(half, 2048, 2.0 ** (v - 1), 2.0**v, two_sided=True)
            params = HerzParams(0.2, 2.0, 1.0, 2.0)
            ratios.append(
                grid_hl_norm(maximal_operator(f), params) / grid_hl_norm(f, params)
            )
        assert max(ratios) < 10.0

    def test_rejects_in_window_weight(self):
        with pytest.raises(ValueError):
            out_of_range_witness(a=0.1, p=2.0)

    def test_single_member_family(self):
        rep = out_of_range_witness(family_size=1, cells_per_side=512)
        assert len(rep.ratios) == 1
        assert not rep.growing


class TestInterpolatedBoundedness:

    def test_matches_sweep_on_diagonal(self, sweep_corpus):
        rep = interpolated_boundedness_check("hilbert", 2.0, 1.5, 0.2, sweep_corpus)
        assert rep.passed
        params = HerzParams(0.2, 2.0, 1.5, 1.5)
        assert rep.ratio == max(
            grid_hl_norm(hilbert_transform(g), params) / grid_hl_norm(g, params)
            for g in sweep_corpus
        )

    def test_herz_diagonal_coincides(self, sweep_corpus):
        # q = p reduces to the classical Herz case r = p
        rep = interpolated_boundedness_check("hilbert", 2.0, 2.0, 0.1, sweep_corpus)
        f = sweep_corpus[0]
        params = HerzParams(0.1, 2.0, 2.0, 2.0)
        direct = grid_hl_norm(hilbert_transform(f), params) / grid_hl_norm(f, params)
        assert rep.ratio >= direct - 1e-12

    def test_scaling_invariance(self, sweep_corpus):
        f = sweep_corpus[0]
        params = HerzParams(0.2, 2.0, 1.5, 1.5)
        r1 = grid_hl_norm(hilbert_transform(f), params) / grid_hl_norm(f, params)
        f2 = GridFunction1D(f.half_width, 2.0 * f.array())
        r2 = grid_hl_norm(hilbert_transform(f2), params) / grid_hl_norm(f2, params)
        assert r2 == pytest.approx(r1, rel=1e-12)

    def test_sublinear_operator_rejected(self, sweep_corpus):
        with pytest.raises(ValueError):
            interpolated_boundedness_check("maximal", 2.0, 1.5, 0.2, sweep_corpus)
