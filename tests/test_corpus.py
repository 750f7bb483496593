import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import lattice_functions
from herzlab.corpus import (
    _REQUIRED_FIELDS,
    generate_corpus,
    load_corpus,
    object_to_record,
    quadratic_shell_family,
    random_grid_functions,
    random_step_functions,
    record_to_object,
    save_corpus,
    shell_trace_sequence,
)
from herzlab.herz import AnnulusMeasureSequence
from herzlab.operators import GridFunction1D
from herzlab.rearrange import RadialStepFunction


class TestRoundTrip:
    def test_radial_step(self, two_shell, tmp_path):
        path = tmp_path / "c.json"
        save_corpus([two_shell], path)
        (back,) = load_corpus(path)
        assert back == two_shell

    def test_non_dyadic_radii_kept_exact(self, tmp_path):
        f = quadratic_shell_family(5)
        path = tmp_path / "shells.json"
        save_corpus([f], path)
        (back,) = load_corpus(path)
        assert back == f
        assert Fraction(2) ** 3 - Fraction(1, 9) in back.breakpoints

    @given(lattice_functions(), st.sampled_from([1, 3, 2**60 + 1]))
    @settings(max_examples=80, deadline=None)
    def test_radial_numbers_are_written_as_the_fraction_encoding(self, f, k):
        # an int, else the float equal to the Fraction, else [num, den]; the
        # record is written from the lattice and read back to f
        def encoded(x):
            if x.denominator == 1:
                return x.numerator
            return float(x) if Fraction(float(x)) == x else [x.numerator, x.denominator]

        g = RadialStepFunction(f.dim, f.breakpoints, [v * k for v in f.values])
        rec = object_to_record(g)
        # json text tells 1 from 1.0
        assert json.dumps(rec["breakpoints"]) == json.dumps([encoded(b) for b in g.breakpoints])
        assert json.dumps(rec["values"]) == json.dumps([encoded(v) for v in g.values])
        assert record_to_object(json.loads(json.dumps(rec))) == g

    def test_grid_function(self, tmp_path):
        f = random_grid_functions(1, seed=5, n_cells=64)[0]
        path = tmp_path / "g.json"
        save_corpus([f], path)
        (back,) = load_corpus(path)
        assert back == f

    def test_annulus_trace(self, tmp_path):
        m = shell_trace_sequence(6)
        path = tmp_path / "m.json"
        save_corpus([m], path)
        (back,) = load_corpus(path)
        assert back == m

    def test_reader_rejects_nonincreasing_breakpoints(self):
        rec = {"type": "radial_step", "dim": 1, "breakpoints": [0, 2, 1], "values": [1, 1]}
        with pytest.raises(ValueError):
            record_to_object(rec)

    def test_loader_names_the_record_with_unordered_breakpoints(self, tmp_path):
        path = tmp_path / "c.json"
        bad = {"type": "radial_step", "dim": 1, "breakpoints": [0, 2, 1], "values": [1, 1]}
        good = {"type": "radial_step", "dim": 1, "breakpoints": [0, 1], "values": [1]}
        path.write_text(json.dumps({"records": [good, bad]}))
        with pytest.raises(ValueError, match="record 1: breakpoints must be strictly increasing"):
            load_corpus(path)

    def test_reader_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            record_to_object({"type": "mystery"})

    def test_grid_values_mixing_ints_and_floats(self):
        rec = {"type": "grid1d", "half_width": 2, "values": [0, 1.5, -2, 2**60 + 1]}
        expected = GridFunction1D(2.0, [0.0, 1.5, -2.0, float(2**60 + 1)])
        assert record_to_object(rec).values.tobytes() == expected.values.tobytes()

    @pytest.mark.parametrize("bad", [True, None, "1.0", [1.0]])
    def test_grid_values_name_a_non_number(self, bad):
        rec = {"type": "grid1d", "half_width": 1.0, "values": [0.0, 1.0, bad, 2.0]}
        with pytest.raises(ValueError, match="expected a number"):
            record_to_object(rec)

    def test_grid_cell_count_must_match(self):
        rec = {"type": "grid1d", "half_width": 1.0, "cells": 4, "values": [1.0, 2.0]}
        with pytest.raises(ValueError):
            record_to_object(rec)


# arbitrary JSON, with small integers (so dimensions and annulus indices stay
# cheap to evaluate) and every float, infinities and NaN included
_NUMBER = st.integers(-3, 400) | st.floats()
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBER | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=10,
)
# a rational is a number or a [numerator, denominator] pair
_RATIONAL = _NUMBER | st.lists(st.integers(-2, 3), min_size=2, max_size=2)
_RATIONALS = st.lists(_RATIONAL, max_size=4)
_JUNK = st.sampled_from([None, True, "x", [], {}, [[]]])
# each field near its valid form, or a value of the wrong shape
_FIELDS = {
    "dim": _NUMBER | _JUNK,
    "breakpoints": _RATIONALS.map(lambda xs: [0, *xs]) | _JUNK,
    "values": _RATIONALS | _JUNK,
    "half_width": _NUMBER | _JUNK,
    "cells": _NUMBER | _JUNK,
    "entries": st.dictionaries(st.sampled_from(["-2", "-1", "0", "2", "x"]), _RATIONAL,
                               max_size=3) | _JUNK,
    "tail": st.tuples(st.sampled_from(["power", "x"]), _RATIONAL, _NUMBER).map(list)
    | st.lists(_RATIONAL, max_size=2) | _JUNK,
}
# each record type with its required fields present, plus optional extras
_RECORD = st.sampled_from(sorted(_REQUIRED_FIELDS)).flatmap(
    lambda kind: st.fixed_dictionaries(
        {"type": st.just(kind), **{name: _FIELDS[name] for name in _REQUIRED_FIELDS[kind]}},
        optional={"cells": _FIELDS["cells"], "tail": _FIELDS["tail"]},
    )
)
_DOCUMENT = (
    _JSON
    | st.fixed_dictionaries({"records": st.lists(_RECORD | _JSON, max_size=3)})
    | st.fixed_dictionaries({"records": st.lists(_RECORD, min_size=1, max_size=2)})
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_DOCUMENT)
def test_load_corpus_raises_only_value_error(tmp_path, doc):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    try:
        load_corpus(path)
    except ValueError:
        pass


class TestGenerators:
    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_corpus(generate_corpus("random-step", 10, seed=7), p1)
        save_corpus(generate_corpus("random-step", 10, seed=7), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_changes_content(self):
        a = generate_corpus("random-step", 5, seed=1)
        b = generate_corpus("random-step", 5, seed=2)
        assert a != b

    def test_characteristic_measures(self):
        objs = generate_corpus("characteristic", 3, seed=0, measures=[0.25, 1.0, 9.0])
        assert all(isinstance(o, RadialStepFunction) for o in objs)
        assert [float(o.support_measure()) for o in objs] == [0.25, 1.0, 9.0]

    def test_quadratic_shell_kind(self):
        family, trace = generate_corpus("shells", 5, seed=0, quadratic_shells=True)
        assert isinstance(family, RadialStepFunction)
        assert isinstance(trace, AnnulusMeasureSequence)
        assert trace.measure(3) == Fraction(2, 9)
        # shell u has measure 2/u^2 exactly
        assert family.support_measure() == sum(Fraction(2, u * u) for u in range(1, 6))

    def test_grid_kind(self):
        objs = generate_corpus("grid", 3, seed=4, n_cells=128)
        assert all(isinstance(o, GridFunction1D) for o in objs)
        assert all(o.n_cells == 128 for o in objs)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_corpus("nope", 1, seed=0)

    def test_step_functions_are_valid(self):
        for f in random_step_functions(30, seed=11):
            assert f.breakpoints[0] == 0
            assert all(b < c for b, c in zip(f.breakpoints, f.breakpoints[1:]))
