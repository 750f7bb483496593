"""Acceptance criteria, one test per criterion.

Each test prints a single pass line with its runtime so the suite can be
read as a checklist (run with -s or check the captured output).  Tolerances
and runtime budgets are asserted as stated, never loosened at run time.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from conftest import brute_rearrangement_value, check_k_curve, power_integral
from herzlab.corpus import (
    random_grid_functions,
    random_step_functions,
    shell_trace_sequence,
)
from herzlab.herz import (
    HerzParams,
    annuli_decompose,
    annulus_indicator,
    bfs_condition_check,
    hl_holder_check,
    hl_norm,
    weighted_lq,
)
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
from herzlab.lorentz import (
    INF,
    LorentzParams,
    char_norm_constant,
    equivalence_check,
    lorentz_quasi_norm,
    lorentz_star_norm,
)
from herzlab.operators import (
    annulus_interaction_bound,
    annulus_interaction_scan,
    boundedness_sweep,
    grid_hl_norm,
    grid_indicator,
    grid_lp_norm,
    hilbert_at_points,
    hilbert_transform,
    interpolated_boundedness_check,
    maximal_at_points,
    out_of_range_witness,
    size_condition_check,
)
from herzlab.rearrange import ball, distribution, rearrangement
from test_interp import brute_force_k


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s < {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded its runtime budget"
        return False


def test_01_rearrangement_exactness():
    with Budget("01 rearrangement-exactness", 5.0):
        corpus = random_step_functions(200, seed=31415)
        sample_points = 0
        for f in corpus:
            g = rearrangement(f)
            assert g.total_mass() == f.abs_integral()
            for w in {abs(v) for v in f.values}:
                for alpha in (w, w * Fraction(2, 3)):
                    assert distribution(f, alpha) == g.superlevel_measure(alpha)
            top = g.support_bound + 1
            for k in range(5):
                s = top * Fraction(2 * k + 1, 10)
                exact = g.value_at(s)
                oracle = brute_rearrangement_value(f, s)
                assert abs(float(exact) - float(oracle)) <= 1e-12
                sample_points += 1
        assert sample_points == 1000


def test_02_characteristic_lorentz_norms():
    with Budget("02 characteristic-norms", 1.0):
        for p in (1.5, 2.0, 4.0):
            for r in (1.0, 2.0, 4.0, INF):
                params = LorentzParams(p, r)
                for mu in (Fraction(1, 4), Fraction(1), Fraction(9)):
                    got = lorentz_quasi_norm(ball(1, mu), params)
                    expected = char_norm_constant(params) * float(mu) ** (1.0 / p)
                    assert abs(got - expected) <= 1e-12 * max(1.0, expected)


def test_03_sandwich_equivalence():
    with Budget("03 norm-sandwich", 10.0):
        corpus = random_step_functions(200, seed=31415)
        for f in corpus:
            for p in (1.5, 2.0, 4.0):
                for r in (1.0, 2.0, INF):
                    assert equivalence_check(f, LorentzParams(p, r)).passed
        rep = equivalence_check(ball(1, 1), LorentzParams(2, 1))
        assert rep.lhs == pytest.approx(2.0, rel=1e-12)
        assert rep.rhs == pytest.approx(4.0, rel=1e-9)
        assert rep.ratio == pytest.approx(2.0, rel=1e-9)  # p/(p-1) attained


def test_04_divergence_example():
    with Budget("04 divergence-example", 1.0):
        rep = bfs_condition_check(
            shell_trace_sequence(8), HerzParams(1, 1, 1, 1), cutoff=5
        )
        partials = [x for x in rep.partial_a if x > 0]
        assert partials[-1] >= 12.33
        assert rep.verdict == "growing"
        terms = [x for x in rep.terms_a if x > 0]
        assert terms[-1] > terms[-2]  # eventually increasing
        # the same set has finite measure sum 2/u^2 < pi^2/3
        assert rep.finite_measure < float(2 * math.pi**2 / 6)


def test_05_hl_holder_pairs():
    with Budget("05 hl-holder", 20.0):
        corpus = random_step_functions(120, seed=2718)
        rng = random.Random(5)
        checked = 0
        for a in (-0.4, 0.0, 0.4):
            params = HerzParams(a, 2.0, 2.0, 2.0)
            for _ in range(167):
                f, g = rng.sample(corpus, 2)
                assert hl_holder_check(f, g, params).passed
                checked += 1
        assert checked >= 500
        chi = annulus_indicator(0)
        rep = hl_holder_check(chi, chi, HerzParams(0.3, 2, 2, 2))
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-14)


def test_06_retract_isometry():
    with Budget("06 retract-isometry", 5.0):
        corpus = random_step_functions(60, seed=1618)
        base = LorentzParams(2, 1)
        pairs = [(a, q) for a in (-0.5, 0.0, 1.0) for q in (1.0, 2.0, INF)]
        assert len(pairs) == 9
        for f in corpus:
            y = retract_L(f, base)
            for a, q in pairs:
                assert weighted_lq(y.as_dict(), a, q) == hl_norm(f, HerzParams(a, 2, q, 1))
            pieces = dict(annuli_decompose(f))
            if pieces:
                assert coretract_M(y, pieces, base) == f


def test_07_k_functional_oracle():
    with Budget("07 k-functional-oracle", 30.0):
        rng = random.Random(97)
        q_choices = [1.0, 1.5, 2.0, 4.0]
        for instance in range(100):
            us = rng.sample(range(-1, 5), 3)
            y = WeightedSeq.from_dict({u: rng.uniform(0.1, 2.0) for u in us})
            q0, q1 = rng.choice(q_choices), rng.choice(q_choices)
            a0, a1 = 0.0, rng.choice([0.5, 1.0])
            couple = CoupleSpec((a0, q0), (a1, q1))
            t = rng.choice([0.3, 1.0, 4.0])
            got = k_functional(t, y, couple)
            oracle = brute_force_k(t, y, couple)
            assert abs(got - oracle) <= 1e-6 * max(1.0, oracle), (
                instance,
                q0,
                q1,
                got,
                oracle,
            )
            # invariants on a 64-point grid, at the optimizer's certified
            # accuracy (the oracle agreement above pins it at 1e-6)
            ts = [2.0 ** (-8 + 16 * k / 63.0) for k in range(64)]
            n0 = weighted_lq(y.as_dict(), a0, q0)
            n1 = weighted_lq(y.as_dict(), a1, q1)
            check_k_curve(ts, k_functional_curve(ts, y, couple), n0, n1, tol=2e-6)


def test_08_interpolation_identities():
    with Budget("08 interpolation-identities", 60.0):
        # (i) unit vectors: ratio exactly 1/(theta(1-theta)) = 4
        couple = CoupleSpec((0.0, 1.0), (1.0, 1.0))
        params = InterpolationParams(0.5, 1.0, t_exponent_bound=40, rel_tol=1e-10)
        for u in range(-1, 11):
            res = interpolation_norm(WeightedSeq.unit(u), params, couple)
            target = weighted_lq(WeightedSeq.unit(u).as_dict(), 0.5, 1.0)
            assert res.value / target == pytest.approx(4.0, abs=1e-6)
        # (ii) indicators against the averaged-profile norm
        ep_couple = CoupleSpec((0.0, 1.0), (0.0, INF), base="l1-linf")
        ep_params = InterpolationParams(0.5, 2.0, t_exponent_bound=40, rel_tol=1e-10)
        for mu in (0.25, 1.0, 9.0):
            chi = ball(1, Fraction(mu))
            got = interpolation_norm(chi, ep_params, ep_couple).value
            assert got == pytest.approx(math.sqrt(2.0) * math.sqrt(mu), abs=1e-8)
            assert got == pytest.approx(
                lorentz_star_norm(chi, LorentzParams(2, 2)), abs=1e-8
            )
        # (iii) interpolation suites on the Herz scale: band stability and
        # scale invariance
        fns = random_step_functions(4, seed=5, nonnegative=True)
        base = LorentzParams(2.0, 2.0)
        reports = [
            verify_interpolation("hl-1", fns, theta=0.5, q=1.5, a0=0.0, a1=1.0,
                                 q0=1.0, q1=1.0, base=base),
            verify_interpolation("hl-2", fns, theta=0.5, a0=0.3, a1=0.3,
                                 q0=1.0, q1=INF, base=base),
            verify_interpolation("hl-3", fns, theta=0.5, a0=0.0, a1=0.5,
                                 q0=1.0, q1=1.0),
            verify_interpolation("hl-4", fns, theta=0.5, a0=0.2, a1=0.2,
                                 q0=1.0, q1=1.0),
        ]
        for rep in reports:
            assert rep.passed
            assert rep.stability <= 50.0
            assert rep.scale_drift <= 1e-9


def test_09_interaction_bound():
    with Budget("09 interaction-bound", 5.0):
        for dim in (1, 2, 3):
            for p in (1.5, 2.0, 4.0):
                for r in (1.0, 2.0, INF):
                    rep = annulus_interaction_scan(
                        dim, LorentzParams(p, r), window=(-1, 60)
                    )
                    assert math.isfinite(rep.constant)
        # equality cases at N = 1, p = r = 2
        for u, v in ((0, 0), (3, 3), (2, 0), (7, 5)):
            lhs, rhs = annulus_interaction_bound(u, v, 1, LorentzParams(2, 2))
            assert lhs / rhs == pytest.approx(1.0, rel=1e-12)


def test_10_operator_point_oracles():
    with Budget("10 operator-oracles", 10.0):
        f = grid_indicator(4.0, 2 * 2**14, -1.0, 1.0)
        assert f.n_cells == 2**15  # 2M cells with M = 2^14
        m_val = maximal_at_points(f, [3.0])[0]
        assert abs(m_val - 0.5) <= f.h
        h_val = hilbert_at_points(f, [2.0])[0]
        assert abs(h_val - math.log(3.0) / math.pi) <= 1e-6
        rep_h = size_condition_check("hilbert", grid_indicator(4.0, 2048, -1.0, 1.0))
        rep_m = size_condition_check("maximal", grid_indicator(8.0, 2048, -1.0, 1.0))
        assert rep_h.passed and rep_m.passed


def test_11_boundedness_sweep_and_witness():
    with Budget("11 boundedness-sweep", 300.0):
        corpus = [grid_indicator(8.0, 8192, -1.0, 1.0)] + random_grid_functions(
            3, seed=7, half_width=8.0, n_cells=8192
        )
        for operator in ("maximal", "hilbert"):
            rep = boundedness_sweep(operator, corpus)
            assert rep.passed, [c for c in rep.cells if not c.passed]
            assert all(math.isfinite(c.ratio) for c in rep.cells)
            assert all(c.drift <= 0.05 for c in rep.cells)
            per_p = {c.p for c in rep.cells}
            assert per_p == {1.5, 2.0, 4.0}
            if operator == "hilbert":
                assert all(c.r != INF for c in rep.cells)
                assert rep.excluded
        wit = out_of_range_witness(family_size=8, cells_per_side=4096)
        assert wit.a == pytest.approx(1.0 / 2.0 + 0.5)  # N/p' + 0.5 at p = 2
        assert wit.growing
        assert all(s < t for s, t in zip(wit.ratios, wit.ratios[1:]))


def test_12_consistency_identity():
    with Budget("12 consistency-identity", 30.0):
        # radial step functions: HL at (0, p, p) vs the direct power integral
        corpus = random_step_functions(50, seed=123)
        for f in corpus:
            for p in (1.5, 2.0, 4.0):
                direct = power_integral(f, p) ** (1.0 / p)
                got = hl_norm(f, HerzParams(0.0, p, p, p))
                assert abs(got - direct) <= 1e-10 * max(1.0, direct)
        # grid functions: same identity against the plain Lebesgue oracle
        grids = random_grid_functions(4, seed=11, n_cells=2048)
        for g in grids:
            for p in (1.5, 2.0, 4.0):
                direct = grid_lp_norm(g, p)
                got = grid_hl_norm(g, HerzParams(0.0, p, p, p))
                assert abs(got - direct) <= 1e-10 * max(1.0, direct)
        # the interpolated-boundedness route reproduces the sweep ratio
        op_corpus = [grid_indicator(8.0, 2048, -1.0, 1.0)] + random_grid_functions(
            2, seed=29, half_width=8.0, n_cells=2048
        )
        rep = interpolated_boundedness_check("hilbert", 2.0, 1.5, 0.2, op_corpus)
        assert rep.passed
        params = HerzParams(0.2, 2.0, 1.5, 1.5)
        assert rep.ratio == max(
            grid_hl_norm(hilbert_transform(g), params) / grid_hl_norm(g, params) for g in op_corpus
        )
