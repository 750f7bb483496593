"""Laws of real interpolation, checked on the code that computes it.

The swap law: exchanging the two sides of a couple gives
K(t; X0, X1) = t K(1/t; X1, X0), and so the theta norm of (X0, X1) is the
1 - theta norm of (X1, X0) (Bergh-Loefstroem, Interpolation Spaces, 3.4).
A sequence couple whose side 0 has the larger outer exponent is exchanged
once, at entry, so on those branches both sides of the law run the same
plan and agree bit for bit.  Couples with equal exponents are never
exchanged; there the law holds to rounding, and the norm brackets meet.
"""

import random

import pytest

from herzlab import interp
from herzlab.interp import (
    CoupleSpec,
    InterpolationParams,
    WeightedSeq,
    interpolation_norm,
    k_functional_curve,
)
from herzlab.lorentz import INF
from herzlab.rearrange import ball

# each sequence K branch, by the outer exponents (q0, q1) of its canonical
# couple, side 0 the smaller
BRANCHES = {
    "linear": (1.0, 1.0),
    "sup-sup": (INF, INF),
    "sup-below-one": (0.5, INF),
    "sup-finish": (2.0, INF),
    "vertex": (0.5, 0.7),
    "holmstedt-front": (1.0, 2.0),
    "root-front": (1.5, 4.0),
}
EXCHANGED = [name for name, (q0, q1) in BRANCHES.items() if q0 < q1]
TS = [2.0 ** (j / 3.0) for j in range(-24, 25)] + [0.3, 1.7, 5.5]
NORM_CASES = [(theta, q) for theta in (0.25, 0.5, 0.75) for q in (2.0, INF)]
NORM_CASES += [(0.0, INF), (1.0, INF)]


def couples(name):
    """(canonical couple, the same couple with its sides exchanged)."""
    q0, q1 = BRANCHES[name]
    canonical = CoupleSpec((0.0, q0), (1.0, q1))
    return canonical, CoupleSpec(canonical.side1, canonical.side0)


def sources(name):
    rng = random.Random(f"swap law {name}")
    return [WeightedSeq.from_dict({u: rng.uniform(0.1, 2.0) for u in rng.sample(range(-1, 6), n)})
            for n in (1, 2, 4)]


def params(theta, q):
    # a short window and a loose Simpson tolerance keep the front and
    # sup-finish branches quick; the tails cover the rest of the line
    return InterpolationParams(theta, q, t_exponent_bound=4, rel_tol=1e-6)


@pytest.mark.parametrize("name", EXCHANGED)
def test_k_of_an_exchanged_couple_is_t_k_at_one_over_t(name):
    canonical, exchanged = couples(name)
    for y in sources(name):
        ks = k_functional_curve([1.0 / t for t in TS], y, canonical)
        assert k_functional_curve(TS, y, exchanged) == [t * k for t, k in zip(TS, ks)]


@pytest.mark.parametrize("name", EXCHANGED)
def test_norm_of_an_exchanged_couple_is_the_one_at_one_minus_theta(name):
    canonical, exchanged = couples(name)
    for y in sources(name):
        for theta, q in NORM_CASES:
            assert (interpolation_norm(y, params(theta, q), exchanged)
                    == interpolation_norm(y, params(1.0 - theta, q), canonical)), (theta, q)


@pytest.mark.parametrize("name", ["linear", "sup-sup"])
def test_law_to_rounding_on_equal_exponents(name):
    canonical, exchanged = couples(name)
    for y in sources(name):
        ks = k_functional_curve([1.0 / t for t in TS], y, canonical)
        for t, k, swap in zip(TS, ks, k_functional_curve(TS, y, exchanged)):
            assert swap == pytest.approx(t * k, rel=1e-14, abs=0.0), t
        for theta, q in NORM_CASES:
            one = interpolation_norm(y, params(theta, q), exchanged)
            other = interpolation_norm(y, params(1.0 - theta, q), canonical)
            assert max(one.lower, other.lower) <= min(one.upper, other.upper) * (1.0 + 1e-13)


def test_endpoint_couple_is_never_exchanged():
    # its sides carry different base norms, and (inf, 1) has no certified K
    couple = CoupleSpec((0.0, INF), (0.0, 1.0), base="l1-linf")
    with pytest.raises(ValueError, match="no certified endpoint Herz K"):
        k_functional_curve([1.0], ball(1, 1), couple)
    with pytest.raises(ValueError, match="no certified endpoint Herz K"):
        interpolation_norm(ball(1, 1), params(0.5, 1.0), couple)


@pytest.mark.parametrize("name", EXCHANGED)
def test_k_plan_refuses_an_exchanged_couple(name):
    _, exchanged = couples(name)
    with pytest.raises(ValueError, match="canonical couple"):
        interp._k_plan(sources(name)[0], exchanged)
