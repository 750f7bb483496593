import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from herzlab.quadrature import (
    _GL_NODES,
    _GL_WEIGHTS,
    _binomial_bracket,
    _legendre_bracket,
    adaptive_simpson,
    lq_norm,
    power_integral,
)


class TestAdaptiveSimpson:
    def test_polynomial_exact(self):
        got = adaptive_simpson(lambda x: x**3 - 2 * x, 0.0, 2.0)
        assert got == pytest.approx(0.0, abs=1e-13)

    def test_smooth_vs_library(self):
        for fun, a, b in (
            (math.exp, 0.0, 3.0),
            (lambda x: math.sin(7 * x) + 2.0, 0.0, 5.0),
            (lambda x: 1.0 / (1.0 + x * x), -4.0, 4.0),
        ):
            expected, _ = quad(fun, a, b, epsabs=1e-13, epsrel=1e-13)
            assert adaptive_simpson(fun, a, b, rel_tol=1e-11) == pytest.approx(
                expected, rel=1e-9
            )

    def test_power_law_near_zero(self):
        # integrable singularity in the derivative, as in the norm integrands
        got = adaptive_simpson(lambda x: x**0.25, 1e-6, 1.0, rel_tol=1e-11)
        expected = (1.0 - 1e-6 ** 1.25) / 1.25
        assert got == pytest.approx(expected, rel=1e-9)

    def test_zero_function(self):
        assert adaptive_simpson(lambda x: 0.0, 0.0, 1.0) == 0.0

    def test_empty_interval(self):
        assert adaptive_simpson(math.sin, 1.0, 1.0) == 0.0

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            adaptive_simpson(math.sin, 1.0, 0.0)

    def test_kinked_integrand(self):
        got = adaptive_simpson(lambda x: min(x, 1.0 - x), 0.0, 1.0, rel_tol=1e-11)
        assert got == pytest.approx(0.25, rel=1e-9)


def binomial_power_integral(t0, t1, k0, k1, gamma, r):
    """Exact integral of t^gamma k(t)^r dt/t over [t0, t1] for the chord k
    through (t0, k0) and (t1, k1) and an integer r: the binomial sum of
    positive terms C(r, j) A^(r-j) B^j (t1^e - t0^e) / e with e = gamma + j,
    the chord's A and B taken exactly from the floats."""
    slope = (Fraction(k1) - Fraction(k0)) / (Fraction(t1) - Fraction(t0))
    a, b = float(Fraction(k0) - slope * Fraction(t0)), float(slope)
    span = math.log1p((t1 - t0) / t0)
    terms = []
    for j in range(r + 1):
        e = gamma + j
        growth = span if e == 0 else t0**e * math.expm1(e * span) / e
        terms.append(math.comb(r, j) * a ** (r - j) * b**j * growth)
    return math.fsum(terms)


def mpmath_power_integral(t0, t1, k0, k1, gamma, r):
    """The same integral at 40 digits, by tanh-sinh quadrature in log t.
    The integrand, log-convex in log t, is divided by its value at the end
    where it is largest, as mpmath.quad stops on an absolute error."""
    with mpmath.workdps(40):
        t0m, t1m, k0m, k1m = map(mpmath.mpf, (t0, t1, k0, k1))
        slope = (k1m - k0m) / (t1m - t0m)
        a = k0m - slope * t0m
        x0, x1 = mpmath.log(t0m), mpmath.log(t1m)

        def f(x):
            return mpmath.exp(gamma * x) * (a + slope * mpmath.exp(x)) ** r

        top = max(f(x0), f(x1))
        return top * mpmath.quad(lambda x: f(x) / top, mpmath.linspace(x0, x1, int(x1 - x0) + 2))


def random_piece(rng, r):
    t0 = 10.0 ** rng.uniform(-8.0, 6.0)
    t1 = t0 * 10.0 ** rng.uniform(0.0, 5.0)
    a = rng.choice([0.0, 10.0 ** rng.uniform(-3.0, 3.0)])
    b = 10.0 ** rng.uniform(-3.0, 3.0) if a > 0.0 and rng.random() < 0.8 else 1.0
    theta = rng.uniform(0.05, 0.95)
    gamma = rng.choice([-theta * r, r * theta - r, r / rng.uniform(1.1, 4.0) - r])
    return t0, t1, a + b * t0, a + b * t1, gamma, r


class TestPowerIntegral:
    def test_nodes_match_library(self):
        nodes, weights = np.polynomial.legendre.leggauss(12)
        order = np.argsort(_GL_NODES)
        assert np.allclose(_GL_NODES[order], nodes, rtol=0.0, atol=1e-15)
        assert np.allclose(_GL_WEIGHTS[order], weights, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_integer_r_contains_binomial_sum(self, r):
        rng = random.Random(r)
        for _ in range(150):
            piece = random_piece(rng, r)
            lo, hi = power_integral(*piece)
            exact = binomial_power_integral(*piece)
            assert lo <= exact <= hi, piece
            assert hi - lo <= 1e-11 * exact, piece

    @pytest.mark.parametrize("r", [0.7, 1.5, 2.5, 8.0])
    def test_real_r_contains_mpmath(self, r):
        rng = random.Random(str(r))
        for _ in range(10):
            piece = random_piece(rng, r)
            lo, hi = power_integral(*piece)
            exact = mpmath_power_integral(*piece)
            assert lo <= exact <= hi, piece
            assert hi - lo <= 1e-11 * exact, piece

    def test_empty_piece_and_zero_chord(self):
        assert power_integral(2.0, 2.0, 1.0, 1.0, -0.5, 1.5) == (0.0, 0.0)
        assert power_integral(1.0, 8.0, 0.0, 0.0, -0.5, 1.5) == (0.0, 0.0)

    @pytest.mark.parametrize("gamma, r", [(-0.5, 1.0), (-1.0, 2.0), (0.25, 1.5), (-3.0, 8.0)])
    def test_zero_intercept(self, gamma, r):
        # k = B t: the integral of B^r t^(gamma + r - 1)
        t0, t1, b = 0.3, 70.0, 1.7
        e = gamma + r
        exact = b**r * (t1**e - t0**e) / e
        lo, hi = power_integral(t0, t1, b * t0, b * t1, gamma, r)
        assert lo <= exact * (1 + 1e-15) and exact * (1 - 1e-15) <= hi
        assert hi - lo <= 1e-11 * exact

    @pytest.mark.parametrize("gamma", [-0.5, 0.0, 1.5])
    def test_zero_slope(self, gamma):
        t0, t1, k, r = 1e-3, 5.0, 2.5, 1.5
        exact = k**r * (math.log(t1 / t0) if gamma == 0.0 else (t1**gamma - t0**gamma) / gamma)
        lo, hi = power_integral(t0, t1, k, k, gamma, r)
        assert lo <= exact * (1 + 1e-15) and exact * (1 - 1e-15) <= hi
        assert hi - lo <= 1e-11 * exact

    def test_rounding_slope_on_a_piece_few_ulps_wide(self):
        # two breakpoints of K a few ulps apart: the chord's slope is made of
        # rounding, and its zero falls next to the piece
        piece = (1.4142135623730943, 1.414213562373095, 38.69422798364528, 38.6942279836453,
                 -0.5, 1)
        lo, hi = power_integral(*piece)
        exact = binomial_power_integral(*piece)
        assert 0.0 < lo <= exact <= hi
        assert hi - lo <= 1e-15 * 38.7

    @pytest.mark.parametrize("r", [1, 2, 3, 8, 11])
    def test_closed_form_contains_mpmath(self, r):
        # chords whose zero lies just outside [t0 e^-2, t1 e^2], where the
        # binomial terms alternate, and chords through the origin or above
        # it, at t0 near 2^-60, 1 and 2^60
        rng = random.Random(f"closed-{r}")
        for t0 in (2.0**-60 * 1.3, 1.0, 2.0**60 / 1.7):
            for kind in ("below", "beyond", "origin", "above"):
                t1 = t0 * 10.0 ** rng.uniform(0.01, 3.0)
                b = 10.0 ** rng.uniform(-3.0, 3.0)
                gamma = rng.choice([-0.5 * r, 0.25 - r, 1.0 - r, 0.0])
                if kind == "below":
                    zero = t0 * math.exp(-2.0) * (1.0 - 10.0 ** rng.uniform(-12.0, -1.0))
                    k0, k1 = b * (t0 - zero), b * (t1 - zero)
                elif kind == "beyond":
                    zero = t1 * math.exp(2.0) * (1.0 + 10.0 ** rng.uniform(-12.0, -1.0))
                    k0, k1 = b * (zero - t0), b * (zero - t1)
                else:
                    a = 0.0 if kind == "origin" else b * t0 * 10.0 ** rng.uniform(-3.0, 3.0)
                    k0, k1 = a + b * t0, a + b * t1
                piece = (t0, t1, k0, k1, gamma, r)
                bracket = _binomial_bracket(*piece)
                assert bracket is not None and power_integral(*piece) == bracket, piece
                lo, hi = bracket
                exact = mpmath_power_integral(*piece)
                assert lo <= exact <= hi, piece
                assert hi - lo <= 1e-11 * exact, piece

    @pytest.mark.parametrize("r", range(1, len(_GL_NODES)))
    def test_closed_form_meets_gauss_legendre(self, r):
        rng = random.Random(f"meet-{r}")
        for _ in range(300):
            piece = random_piece(rng, r)
            closed = power_integral(*piece)
            assert closed == _binomial_bracket(*piece), piece
            legendre = _legendre_bracket(*piece)
            assert max(closed[0], legendre[0]) <= min(closed[1], legendre[1]), piece
            exact = binomial_power_integral(*piece)
            for lo, hi in (closed, legendre):
                assert hi - lo <= 1e-11 * exact, piece

    @pytest.mark.parametrize("r", [0.5, 1.5, len(_GL_NODES), 20.0])
    def test_other_exponents_take_gauss_legendre(self, r):
        piece = (0.3, 70.0, 0.5, 9.0, -0.4 * r, r)
        assert power_integral(*piece) == _legendre_bracket(*piece)

    def test_factor_below_the_normal_range_falls_back(self):
        # b = B t0 / (|A| + |B t0|) is about 1e-200, so b^2 underflows: the
        # closed form declines, and Gauss-Legendre brackets the integral
        piece = (1.0, 1e200, 1.0, 2.0, -3.0, 2)
        assert _binomial_bracket(*piece) is None
        lo, hi = power_integral(*piece)
        assert (lo, hi) == _legendre_bracket(*piece)
        assert lo <= binomial_power_integral(*piece) <= hi

    @pytest.mark.parametrize("piece", [
        (1e-300, 2e-300, 1.0, 2.0, -2.0, 2),  # t0^gamma overflows
        (1.0, 1e300, 1.0, 2.0, 3.0, 3),  # expm1(e_j s) overflows
        (1.0, 2.0, 1e200, 2e200, 0.5, 2),  # the size c^r overflows
    ])
    def test_term_beyond_the_float_range_declines(self, piece):
        assert _binomial_bracket(*piece) is None

    def test_bad_pieces_rejected(self):
        for piece in ((2.0, 1.0, 1.0, 1.0, 0.0, 1.0), (0.0, 1.0, 1.0, 1.0, 0.0, 1.0),
                      (1.0, 2.0, -1.0, 1.0, 0.0, 1.0), (1.0, 2.0, 1.0, 1.0, 0.0, 0.0)):
            with pytest.raises(ValueError):
                power_integral(*piece)


class TestPowerSumNorm:
    """lq_norm's (sum w v^r)^(1/r), redone scaled by the largest value where
    the sum lies outside [2^-64, 2^64]."""

    def test_in_range_bits_are_the_direct_form(self):
        # unweighted: math.fsum of math.pow; weighted: math.fsum of numpy's w v^r
        rng = np.random.default_rng(5)
        for _ in range(50):
            v, w = rng.random(7) * 10.0, rng.random(7)
            r, c = float(rng.uniform(0.5, 6.0)), float(rng.uniform(0.1, 3.0))
            total = math.fsum(math.pow(x, r) for x in v.tolist() if x != 0.0)
            assert 2.0**-64 <= total <= 2.0**64
            assert lq_norm(v.tolist(), r) == total ** (1.0 / r)
            assert lq_norm(v, r, c * w) == math.fsum((c * w * v**r).tolist()) ** (1.0 / r)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e200, 1e300])
    @pytest.mark.parametrize("r", [1.0, 2.0, 4.5])
    def test_scales_with_the_values(self, scale, r):
        v, w = np.array([3.0, 1.0, 0.0, 2.0]), 0.75 * np.array([0.5, 2.0, 1.0, 1.5])
        unit = lq_norm(v / 3.0, r, w)
        got = lq_norm(scale * v / 3.0, r, w)
        assert got == pytest.approx(scale * unit, rel=1e-14, abs=0.0)

    def test_zero_empty_and_infinite_values(self):
        assert lq_norm(np.zeros(3), 2.0, 0.5) == 0.0
        assert lq_norm(np.zeros(0), 2.0, 0.5) == 0.0
        assert lq_norm(np.array([1.0, math.inf]), 2.0, 0.5) == math.inf

    @pytest.mark.parametrize("values, r", [
        (np.full(100, 1e308), 0.5),  # the sum is a float, its square is not
        (np.full(100, 1e300), 0.001),  # the rescaled sum's power overflows
    ])
    def test_norm_beyond_the_largest_float_is_inf(self, values, r):
        assert lq_norm(values, r, 1.0) == math.inf
