from fractions import Fraction

import pytest

from herzlab.corpus import random_step_functions
from herzlab.rearrange import RadialStepFunction


@pytest.fixture(scope="session")
def two_shell():
    """Shells of measure 1/2 (value 3) and 2 (value 1) in R^1."""
    return RadialStepFunction(1, [0, Fraction(1, 4), Fraction(5, 4)], [3, 1])


@pytest.fixture(scope="session")
def step_corpus():
    return random_step_functions(40, seed=1234)


@pytest.fixture(scope="session")
def nonneg_corpus():
    return random_step_functions(30, seed=99, nonnegative=True)


def brute_rearrangement_value(f: RadialStepFunction, s: Fraction) -> Fraction:
    """Independent oracle: invert the distribution function by scanning levels.

    f*(s) = inf{alpha >= 0 : mu_f(alpha) <= s}; for a step function the
    infimum is attained at a level of |f| (or 0), so scanning the finitely
    many candidates is exact.
    """
    from herzlab.rearrange import distribution

    candidates = sorted({Fraction(0), *(abs(v) for v in f.values)})
    for alpha in candidates:
        if distribution(f, alpha) <= s:
            return alpha
    raise AssertionError("distribution never drops below s")
