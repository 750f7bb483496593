import json
import math
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herzlab import cli, operators, rearrange
from herzlab.cli import ConfigError, SuiteConfig, main, run_suite
from herzlab.corpus import load_corpus, random_step_functions, save_corpus
from herzlab.herz import HerzParams, hl_norm
from herzlab.operators import (
    GridFunction1D,
    grid_hl_norm,
    grid_indicator,
    grid_lp_norm,
    hilbert_transform,
)
from herzlab.rearrange import RadialStepFunction, StepRearrangement
from herzlab.reporting import CheckRecord, _clean, json_text, summarize, write_report
from fractions import Fraction


@pytest.fixture()
def two_annuli_file(tmp_path):
    f = RadialStepFunction(1, [0, Fraction(1, 2), 1], [2, 1])
    path = tmp_path / "two_annuli.json"
    save_corpus([f], path)
    return str(path)


class TestCommands:
    def test_gen_corpus_and_norm(self, tmp_path, capsys, two_annuli_file):
        code = main(
            ["norm", "--space", "hl", "--a", "1", "--p", "2", "--q", "1",
             "--r", "2", "--input", two_annuli_file]
        )
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(2.0, rel=1e-14)

    def test_norm_lorentz_star(self, tmp_path, capsys):
        path = tmp_path / "chi.json"
        main(["gen-corpus", "--kind", "characteristic", "--size", "1",
              "--seed", "0", "--measures", "1", "--out", str(path)])
        capsys.readouterr()
        code = main(["norm", "--space", "lorentz-star", "--p", "2", "--r", "1",
                     "--input", str(path)])
        assert code == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(4.0, rel=1e-10)

    def test_rearrange_command(self, capsys, two_annuli_file):
        code = main(["rearrange", "--input", two_annuli_file, "--points", "1/2,3/2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "knots" in out and "levels" in out
        assert "f**" in out

    def test_rearrange_negative_point_exits_2_before_any_output(self, capsys, two_annuli_file):
        assert main(["rearrange", "--input", two_annuli_file, "--points", "1,-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--points" in captured.err and "negative" in captured.err

    def test_kfunc_two_column_output(self, tmp_path, two_annuli_file):
        out = tmp_path / "curve.tsv"
        code = main(["kfunc", "--input", two_annuli_file, "--l1-linf",
                     "--points", "16", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 16
        ts, ks = zip(*(map(float, ln.split("\t")) for ln in lines))
        assert all(a < b for a, b in zip(ts, ts[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(ks, ks[1:]))

    def test_verify_pass_and_report(self, tmp_path, capsys):
        report = tmp_path / "rep.json"
        code = main(["verify", "example-divergence", "--a", "1", "--p", "1",
                     "--q", "1", "--r", "1", "--cutoff", "5",
                     "--out", str(report)])
        assert code == 0
        capsys.readouterr()
        doc = json.loads(report.read_text())
        assert doc["summary"]["passed"] is True
        assert main(["report", "--input", str(report)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["failed"] == 0

    def test_verify_hypothesis_violation_exit_2(self):
        code = main(["verify", "lorentz-equivalence", "--p", "1", "--r", "2"])
        assert code == 2

    def test_unknown_suite_rejected(self):
        cfg = SuiteConfig(suite="never-heard-of-it")
        with pytest.raises(ConfigError):
            run_suite(cfg)

    def test_missing_corpus_exit_2(self):
        code = main(["verify", "rearrange", "--corpus", "/nonexistent/path.json"])
        assert code == 2

    def test_index_out_of_range_exit_2(self, capsys, two_annuli_file):
        code = main(["rearrange", "--input", two_annuli_file, "--index", "5"])
        assert code == 2
        assert "--index 5" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--points", "1"], "--points"),
        (["--t-lo", "0"], "--t-lo"),
        (["--t-hi", "-1"], "--t-hi"),
        (["--t-hi", "inf"], "--t-hi"),
        (["--t-lo", "nan"], "--t-lo"),
    ])
    def test_kfunc_bad_grid_exit_2(self, capsys, two_annuli_file, flags, message):
        code = main(["kfunc", "--input", two_annuli_file, "--l1-linf", *flags])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "bfs", "--a", "nan"],
        ["verify", "witness", "--a", "nan"],
        ["norm", "--space", "hl", "--a", "nan", "--p", "2", "--input", "{record}"],
        ["kfunc", "--a0", "nan", "--input", "{record}"],
        ["kfunc", "--a1", "inf", "--input", "{record}"],
    ])
    def test_non_finite_weight_exit_2(self, capsys, two_annuli_file, argv):
        # a nan weight used to run to nan values or vacuous passes
        assert main([arg.format(record=two_annuli_file) for arg in argv]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("top, q1, message", [
        (2, "2", "no certified K"),
        (21, "0.5", "cap of 20"),
    ])
    def test_kfunc_uncertified_exit_2(self, tmp_path, capsys, top, q1, message):
        # annuli -1 .. top - 1: at top = 21 that is 22, above the sub-one cap
        radii = [0, Fraction(1, 2)] + [Fraction(2) ** k for k in range(top)]
        path = tmp_path / "steps.json"
        save_corpus([RadialStepFunction(1, radii, [1] * (len(radii) - 1))], path)
        assert main(["kfunc", "--input", str(path), "--q0", "0.5", "--q1", q1]) == 2
        assert message in capsys.readouterr().err

    def test_kfunc_descending_grid(self, capsys, two_annuli_file):
        code = main(["kfunc", "--input", two_annuli_file, "--l1-linf",
                     "--t-lo", "4", "--t-hi", "0.25", "--points", "3"])
        assert code == 0
        ts = [float(line.split("\t")[0]) for line in capsys.readouterr().out.splitlines()]
        assert ts == pytest.approx([4.0, 1.0, 0.25], rel=1e-14)

    @pytest.mark.parametrize("record, field", [
        ({"type": "radial_step", "dim": 1, "values": [1]}, "'breakpoints'"),
        ({"type": "annulus_measures", "dim": 1, "entries": [1, 2]}, "items"),
        ({"type": "radial_step", "dim": 1, "breakpoints": [0, [1, 0]], "values": [1]},
         "Fraction(1, 0)"),
        ({"type": "radial_step", "dim": 1, "breakpoints": [0, math.inf], "values": [1]},
         "Infinity"),
        ({"type": "annulus_measures", "dim": 1, "entries": {"0": 1},
          "tail": ["power", 1, math.inf]}, "infinity"),
        ({"type": "radial_step", "dim": 343, "breakpoints": [0, 1], "values": [1]},
         "dimension 343"),
        # integer fields are never truncated
        ({"type": "radial_step", "dim": 2.7, "breakpoints": [0, 1], "values": [1]}, "2.7"),
        ({"type": "radial_step", "dim": True, "breakpoints": [0, 1], "values": [1]}, "True"),
        ({"type": "grid1d", "half_width": 1.0, "cells": 4.9, "values": [0, 1, 1, 0]}, "4.9"),
        ({"type": "annulus_measures", "dim": 1, "entries": {"0": 1},
          "tail": ["power", 1, 2.9]}, "2.9"),
        ({"type": "radial_step", "dim": 1, "breakpoints": [0, [3.5, 2]], "values": [1]},
         "3.5"),
        # a JSON boolean is not a number
        ({"type": "radial_step", "dim": 1, "breakpoints": [0, True], "values": [True]},
         "True"),
        ({"type": "grid1d", "half_width": True, "values": [False, True]}, "False"),
        ({"type": "grid1d", "half_width": True, "values": [0.0, 1.0]}, "True"),
        ({"type": "grid1d", "half_width": 1.0, "values": [0.0, math.inf]}, "finite"),
        ({"type": "grid1d", "half_width": math.nan, "values": [0.0, 1.0]}, "finite"),
        ({"type": "grid1d", "half_width": math.inf, "values": [0.0, 1.0]}, "finite"),
    ])
    def test_malformed_record_exit_2(self, tmp_path, capsys, record, field):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"records": [record]}))
        code = main(["norm", "--space", "lp", "--p", "2", "--input", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "record 0" in err and field in err

    @pytest.mark.parametrize("breakpoints, values, message", [
        ([0, [1, -2], 1], [1, 1], "breakpoints must be strictly increasing"),
        ([0, 1, 2], [1, math.nan], "cannot convert NaN to integer ratio"),
        ([0, 1, 2], [1, True], "cannot decode rational from True"),
    ])
    def test_malformed_radial_numbers_exit_2(self, tmp_path, capsys, breakpoints, values,
                                             message):
        path = tmp_path / "broken.json"
        record = {"type": "radial_step", "dim": 1, "breakpoints": breakpoints, "values": values}
        path.write_text(json.dumps({"records": [record]}))
        assert main(["norm", "--space", "lp", "--p", "2", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "record 0" in err and message in err and "Traceback" not in err

    def test_pair_with_a_negative_denominator_is_a_negative_value(self, tmp_path):
        path = tmp_path / "pair.json"
        record = {"type": "radial_step", "dim": 1, "breakpoints": [0, 1, 2], "values": [1, [1, -2]]}
        path.write_text(json.dumps({"records": [record]}))
        (f,) = load_corpus(path)
        assert f.values == (1, Fraction(-1, 2)) and f == RadialStepFunction(1, [0, 1, 2], [1, -0.5])

    @pytest.mark.parametrize("argv", [
        ["verify", "embeddings", "--corpus", "{record}"],
        ["verify", "rearrange", "--corpus", "{record}"],
        ["norm", "--space", "lorentz", "--p", "2", "--r", "2", "--input", "{record}"],
        ["norm", "--space", "hl", "--a", "0", "--p", "2", "--input", "{record}"],
        ["norm", "--space", "lp", "--p", "2", "--input", "{record}"],
    ])
    def test_radius_beyond_float_range_exit_2(self, tmp_path, capsys, argv):
        # a valid JSON integer radius whose shell measure no float can hold
        path = tmp_path / "huge.json"
        record = {"type": "radial_step", "dim": 3, "breakpoints": [0, 2**400], "values": [1]}
        path.write_text(json.dumps({"records": [record]}))
        assert main([arg.format(record=path) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert "overflows a float" in err and "Traceback" not in err
        # the exact rearrangement needs no float and still runs
        assert main(["rearrange", "--input", str(path), "--points", "1"]) == 0

    def test_verify_tsv_output(self, tmp_path):
        report = tmp_path / "rep.tsv"
        code = main(["verify", "bfs", "--out", str(report), "--format", "tsv"])
        assert code == 0
        header = report.read_text().splitlines()[0].split("\t")
        assert header == ["suite", "check_id", "params", "lhs", "rhs", "ratio",
                          "passed", "notes"]

    def test_report_tsv_matches_verify_tsv(self, tmp_path, capsys):
        # one TSV writer: infinite params read "inf" in both outputs
        direct, report = tmp_path / "direct.tsv", tmp_path / "rep.json"
        main(["verify", "bfs", "--q", "inf", "--format", "tsv", "--out", str(direct)])
        main(["verify", "bfs", "--q", "inf", "--out", str(report)])
        capsys.readouterr()
        assert main(["report", "--input", str(report), "--format", "tsv"]) == 0
        assert capsys.readouterr().out.encode() == direct.read_bytes()
        assert '"q": "inf"' in direct.read_text()

    @pytest.mark.parametrize("command, content, message", [
        ("verify", [1, 2], "JSON object"),
        ("verify", {"size": "x"}, "'size'"),
        ("summary", [1, 2], "JSON object"),
        ("tsv", "text", "JSON object"),
        ("tsv", {"records": [{"suite": "s", "check_id": "c", "extra": 1}]}, "'extra'"),
        ("summary", {"records": [{"suite": "s"}], "summary": {}}, "record 0"),
        ("verify", {"sise": 3}, "'sise'"),
        ("verify herz-holder", {"a_values": "x"}, "'a_values'"),
        ("verify lemma-bound", {"window": [-1, 60, 2]}, "'window'"),
        # no vacuous passes: an empty list or a reversed window runs nothing
        ("verify lemma-bound", {"window": [60, -1]}, "'window'"),
        ("verify lemma-bound", {"dims": []}, "'dims'"),
        ("verify herz-holder", {"a_values": []}, "'a_values'"),
        # the measure of annulus 341 in R^3 is above the largest float
        ("verify lemma-bound", {"window": [-1, 341]}, "(u, v) = (-1, 341) in dimension N = 3"),
        ("verify lemma-bound", {"dims": [10], "pr": [[1000, 2]], "window": [-1, 102]},
         "dimension N = 10 overflows"),
    ])
    def test_malformed_config_or_report_exit_2(self, tmp_path, capsys, command,
                                               content, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        if command.startswith("verify"):
            suite = command.partition(" ")[2] or "bfs"
            argv = ["verify", suite, "--config", str(path)]
        else:
            argv = ["report", "--input", str(path), "--format", command]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_lemma_bound_largest_float_window_exit_0(self, tmp_path):
        path = tmp_path / "window.json"
        path.write_text(json.dumps({"window": [-1, 340]}))
        assert main(["verify", "lemma-bound", "--config", str(path)]) == 0

    def test_lemma_bound_fails_on_scaled_annulus_norms(self, tmp_path, monkeypatch):
        # the indicator norms scaled by 2^u move every corner ratio off the
        # closed form; the constant stays finite, so finiteness alone passes
        out = tmp_path / "lemma.json"
        assert main(["verify", "lemma-bound", "--out", str(out)]) == 0
        norm = operators._char_lorentz_norm
        monkeypatch.setattr(operators, "_char_lorentz_norm",
                            lambda u, dim, params: 2.0**u * norm(u, dim, params))
        assert main(["verify", "lemma-bound", "--out", str(out)]) == 1
        records = json.loads(out.read_text())["records"]
        assert all(math.isfinite(r["lhs"]) and not r["passed"] for r in records)

    @pytest.mark.parametrize("mutant, failing", [("superlevel-at-least", "equimeasurable["),
                                                 ("mass-high", "mass[")])
    def test_rearrange_fails_under_a_mutant(self, tmp_path, monkeypatch, mutant, failing):
        # each mutant breaks one identity of f*, checked exactly, on every
        # nonzero function of the default corpus
        out = tmp_path / "rearrange.json"
        assert main(["verify", "rearrange", "--out", str(out)]) == 0
        if mutant == "superlevel-at-least":
            def at_least(self, alpha):  # the measure of {f* >= alpha}
                n, d = rearrange._ratio(alpha)
                k = sum(w * d >= n * self._vden for w in self._lnums)
                return self.knots[k - 1] if k else Fraction(0)

            monkeypatch.setattr(StepRearrangement, "superlevel_measure", at_least)
        else:
            mass = StepRearrangement.total_mass
            monkeypatch.setattr(StepRearrangement, "total_mass",
                                lambda self: mass(self) * (1 + Fraction(1, 2**60)))
        assert main(["verify", "rearrange", "--out", str(out)]) == 1
        records = json.loads(out.read_text())["records"]
        failed = [r["check_id"] for r in records if not r["passed"]]
        assert len(records) == 50 and len(failed) == 20
        assert all(c.startswith(failing) for c in failed)

    def test_report_matches_asdict_rendering(self, tmp_path):
        # records are written from their fields without a deep copy; the
        # bytes are those of the dataclasses.asdict rendering
        records = [
            CheckRecord("s", "a", {"w": (1, 2), "q": math.inf, "n": {"b": [0.5, -math.inf]}},
                        lhs=1.5, rhs=math.nan, ratio=None, passed=False, notes="x"),
            CheckRecord("s", "b"),
        ]
        path = tmp_path / "rep.json"
        write_report(records, path)
        doc = {"records": [_clean(asdict(r)) for r in records], "summary": summarize(records)}
        assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert records[0].params["w"] == (1, 2)

    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text()
        | st.tuples(st.integers(), st.integers(1)),  # [num, den] pairs
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4),
        max_leaves=30,
    ))
    @settings(max_examples=300, deadline=None)
    def test_json_text_is_the_indented_json_dumps(self, doc):
        # unicode text, inf and nan, bools, None and ints, in report- and
        # corpus-shaped nesting; a non-finite float is written as _clean writes it
        for shaped in (doc, {"records": [{"params": doc, "lhs": doc}], "summary": {}}):
            expected = json.dumps(_clean(shaped), indent=2, sort_keys=True)
            assert json_text(shaped) == expected

    def test_json_text_types_in_json_order(self):
        # subclasses of float, numpy floats, bools among ints and escapes land
        # where json.dumps puts them; keys must be str
        class Level(float):
            pass

        doc = {"b": [True, False, None, 1, Level(0.25), np.float64(1e300), (1, 2)],
               "a": {"x": [], "y": {}, "z": {"\u00e9\u2603": [True, 1]}},
               "c": "\x00\n\"", "d": [np.float64("inf"), -math.inf, math.nan, 2.0]}
        assert json_text(doc) == json.dumps(_clean(doc), indent=2, sort_keys=True)
        for scalar in (1.5, True, None, 7, "s", math.inf, np.float64(-math.inf)):
            assert json_text(scalar) == json.dumps(_clean(scalar))
        for bad in ({"a": object()}, {1: 2}):
            with pytest.raises(TypeError):
                json_text(bad)

    def test_report_determinism(self, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for path in (r1, r2):
            main(["verify", "rearrange", "--size", "4", "--seed", "5",
                  "--out", str(path)])
        assert r1.read_bytes() == r2.read_bytes()

    def test_parallel_jobs_same_records(self, tmp_path):
        r1, r2 = tmp_path / "s.json", tmp_path / "p.json"
        main(["verify", "rearrange", "--size", "4", "--seed", "5", "--out", str(r1)])
        main(["verify", "rearrange", "--size", "4", "--seed", "5",
              "--jobs", "4", "--out", str(r2)])
        assert r1.read_bytes() == r2.read_bytes()

    def test_gen_corpus_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "c1.json", tmp_path / "c2.json"
        for p in (p1, p2):
            main(["gen-corpus", "--kind", "grid", "--size", "3", "--seed", "9",
                  "--out", str(p), "--cells", "64"])
        assert p1.read_bytes() == p2.read_bytes()


class TestSuitesViaApi:
    def test_all_light_suites_pass(self):
        for suite in ("rearrange", "lorentz-equivalence", "herz-holder", "bfs",
                      "example-divergence", "embeddings", "witness"):
            cfg = SuiteConfig(suite=suite, size=6)
            records, code = run_suite(cfg)
            assert code == 0, f"{suite}: {[r for r in records if not r.passed]}"
            assert records

    def test_herz_holder_builds_one_profile_per_function(self, monkeypatch):
        from herzlab import herz

        built = []
        decompose = herz.annuli_decompose
        monkeypatch.setattr(herz, "annuli_decompose", lambda f: built.append(f) or decompose(f))
        assert main(["verify", "herz-holder"]) == 0
        # 20 pairs at 3 weights read each of the 20 default functions, once
        # per pair and weight before: 120 builds
        assert len(built) == 20
        assert len({id(f) for f in built}) == 20

    def test_suite_with_no_checks_exits_2(self):
        with pytest.raises(ConfigError, match="no checks"):
            run_suite(SuiteConfig(suite="herz-holder", extra={"a_values": []}))

    def test_failing_report_exits_one(self, tmp_path, capsys):
        from herzlab.reporting import CheckRecord, write_report

        path = tmp_path / "bad.json"
        write_report(
            [CheckRecord("demo", "ok", passed=True),
             CheckRecord("demo", "broken", lhs=2.0, rhs=1.0, passed=False)],
            path,
        )
        assert main(["report", "--input", str(path)]) == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["failed"] == 1


class TestRarelyRunPaths:
    """Command paths that the suites above do not reach, each on small input."""

    @pytest.fixture()
    def grid_file(self, tmp_path):
        path = tmp_path / "grids.json"
        main(["gen-corpus", "--kind", "grid", "--size", "2", "--seed", "3", "--cells", "256",
              "--out", str(path)])
        return str(path)

    def test_gen_corpus_shells_writes_annulus_indicators(self, tmp_path):
        from herzlab.herz import annulus_indicator

        path = tmp_path / "shells.json"
        args = ["gen-corpus", "--kind", "shells", "--size", "3", "--dim", "2", "--out", str(path)]
        assert main(args) == 0
        indicators = {annulus_indicator(u, 2) for u in range(-1, 7)}
        objs = load_corpus(path)
        assert len(objs) == 3 and all(f in indicators for f in objs)

    def test_main_builds_the_parser_once(self, monkeypatch, capsys, two_annuli_file):
        built = []
        build = cli.build_parser

        def counting():
            built.append(None)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        for space in ("lorentz", "lp"):
            assert main(["norm", "--space", space, "--p", "2", "--input", two_annuli_file]) == 0
        assert len(built) == 1
        assert cli._parser() is cli._parser()

    def test_verify_interp_lorentz(self, tmp_path):
        report = tmp_path / "rep.json"
        assert main(["verify", "interp-lorentz", "--out", str(report)]) == 0
        (rec,) = json.loads(report.read_text())["records"]
        assert rec["check_id"] == "endpoint-couple" and rec["passed"]
        assert rec["params"] == {"theta": 0.5, "q": 1.0}

    def test_verify_interp_boundedness(self, tmp_path, grid_file):
        report = tmp_path / "rep.json"
        assert main(["verify", "interp-boundedness", "--corpus", grid_file,
                     "--out", str(report)]) == 0
        (rec,) = json.loads(report.read_text())["records"]
        params = HerzParams(0.2, 2.0, 1.0, 1.0)
        expected = max(grid_hl_norm(hilbert_transform(g), params) / grid_hl_norm(g, params)
                       for g in load_corpus(grid_file))
        assert rec["lhs"] == rec["rhs"] == expected
        assert rec["ratio"] == 0.0 and rec["passed"]

    def test_default_grid_corpus(self):
        grids = cli._load_objects(SuiteConfig("boundedness", size=3), GridFunction1D)
        assert len(grids) == 3
        assert grids[0] == grid_indicator(8.0, 4096, -1.0, 1.0)
        assert all(g.half_width == 8.0 and g.n_cells == 4096 for g in grids)

    def test_norm_on_a_grid_record(self, capsys, grid_file):
        g = load_corpus(grid_file)[1]
        argv = ["norm", "--input", grid_file, "--index", "1", "--p", "2"]
        capsys.readouterr()
        assert main([*argv, "--space", "lp"]) == 0
        assert float(capsys.readouterr().out) == grid_lp_norm(g, 2.0)
        assert main([*argv, "--space", "hl", "--a", "0.2", "--q", "1.5"]) == 0
        assert float(capsys.readouterr().out) == grid_hl_norm(g, HerzParams(0.2, 2.0, 1.5, 2.0))
        assert main([*argv, "--space", "lorentz"]) == 2
        assert "grid records support --space hl or lp" in capsys.readouterr().err

    @pytest.mark.parametrize("c", [1e-200, 1e200])
    def test_norm_of_a_grid_beyond_the_float_range(self, tmp_path, capsys, c):
        unit = grid_indicator(2.0, 16, -1.0, 1.5)
        path = tmp_path / "tiny.json"
        save_corpus([GridFunction1D(2.0, c * unit.array())], path)
        for space, expected in (("lp", grid_lp_norm(unit, 2.0)),
                                ("hl", grid_hl_norm(unit, HerzParams(0.5, 2.0, 1.0, 2.0)))):
            capsys.readouterr()
            assert main(["norm", "--space", space, "--a", "0.5", "--p", "2", "--q", "1",
                         "--input", str(path)]) == 0
            assert float(capsys.readouterr().out) == pytest.approx(c * expected, rel=1e-13,
                                                                  abs=0.0)

    def test_norm_hl_star(self, capsys, two_annuli_file):
        assert main(["norm", "--space", "hl-star", "--a", "0.5", "--p", "2", "--q", "1",
                     "--input", two_annuli_file]) == 0
        f = load_corpus(two_annuli_file)[0]
        expected = hl_norm(f, HerzParams(0.5, 2.0, 1.0, 2.0), starred=True)
        assert float(capsys.readouterr().out) == expected

    def test_report_json(self, tmp_path, capsys):
        report = tmp_path / "rep.json"
        main(["verify", "bfs", "--q", "inf", "--out", str(report)])
        capsys.readouterr()
        assert main(["report", "--input", str(report), "--format", "json"]) == 0
        assert capsys.readouterr().out == report.read_text()

    @pytest.mark.parametrize("field, value, message", [
        ("size", 0, "corpus size must be >= 1"),
        ("cutoff", 0, "cutoff must be >= 1"),
        ("jobs", 0, "jobs must be >= 1"),
        ("format", "xml", "unknown report format 'xml'; choose json or tsv"),
    ])
    def test_suite_config_ranges(self, field, value, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_suite(SuiteConfig("bfs", **{field: value}))

    def test_format_rejected_through_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"format": "xml"}))
        assert main(["verify", "bfs", "--config", str(path)]) == 2
        assert "unknown report format 'xml'" in capsys.readouterr().err

    def test_herz_holder_threads_write_the_same_bytes(self, tmp_path):
        # the threads share the functions, and so the profiles kept on them
        threaded, serial = tmp_path / "j4.json", tmp_path / "j1.json"
        assert main(["verify", "herz-holder", "--jobs", "4", "--out", str(threaded)]) == 0
        assert main(["verify", "herz-holder", "--jobs", "1", "--out", str(serial)]) == 0
        assert threaded.read_bytes() == serial.read_bytes()


def test_readme_names_every_config_key():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = text[text.index("`verify --config"):].split("\n\n")[0]
    named = set(re.findall(r"`([a-z_]+)`", paragraph)) - set(cli.SUITES)
    extras = {key for keys in cli._SUITE_EXTRAS.values() for key in keys}
    assert named == set(cli._SETTINGS) | extras


@pytest.fixture(scope="module")
def five_annuli_file(tmp_path_factory):
    f = RadialStepFunction(1, [0, Fraction(1, 2), 1, 2, 4, 8], [3, 2, 1, 5, Fraction(1, 2)])
    path = tmp_path_factory.mktemp("kfunc") / "five_annuli.json"
    save_corpus([f], path)
    return str(path)


_EXPONENTS = st.sampled_from(["-1", "0", "0.3", "0.5", "1", "1.5", "2", "inf"])


@settings(max_examples=100, deadline=None)
@given(q0=_EXPONENTS, q1=_EXPONENTS)
def test_kfunc_exponents_exit_0_or_2(five_annuli_file, q0, q1):
    # every exponent pair is either solved (exit 0) or rejected as a
    # hypothesis violation (exit 2); none may raise or claim a failed check
    code = main(["kfunc", "--input", five_annuli_file, "--q0", q0, "--q1", q1,
                 "--points", "8"])
    assert code in (0, 2)


class TestComparisonRecords:
    """Each record of a two-sided suite is its check's `Comparison.record`."""

    def test_lorentz_equivalence(self):
        from herzlab.lorentz import INF, LorentzParams, equivalence_check

        records, _ = run_suite(SuiteConfig("lorentz-equivalence", size=5, p=3.0, r=INF))
        fns = random_step_functions(5, 20240801)
        assert records == [
            equivalence_check(f, LorentzParams(3.0, INF)).record(
                "lorentz-equivalence", f"sandwich[{i}]", {"p": 3.0, "r": INF}
            )
            for i, f in enumerate(fns)
        ]

    def test_herz_holder(self):
        from herzlab.herz import hl_holder_check

        records, _ = run_suite(SuiteConfig("herz-holder", size=4))
        fns = random_step_functions(4, 20240801)
        expected = []
        for a in (-0.4, 0.0, 0.4):
            herz, params = HerzParams(a, 2.0, 1.0, 2.0), {"a": a, "p": 2.0, "q": 1.0, "r": 2.0}
            for i in range(4):
                rep = hl_holder_check(fns[i % 4], fns[(7 * i + 3) % 4], herz)
                expected.append(rep.record("herz-holder", f"pair[{i},a={a}]", params))
        assert records == expected

    def test_embeddings(self):
        from herzlab.herz import embedding_check
        from herzlab.lorentz import INF

        records, _ = run_suite(SuiteConfig("embeddings", size=3))
        cases = [
            ("A", HerzParams(0.3, 2.0, 1.5, 1.0), HerzParams(0.3, 2.0, 1.5, 2.0)),
            ("B", HerzParams(1.0, 2.0, 1.0, 2.0), HerzParams(0.0, 2.0, 1.0, 2.0)),
            ("C", HerzParams(0.0, 4.0, 2.0, INF), HerzParams(0.0, 2.0, 2.0, 2.0)),
            ("D", HerzParams(0.0, 2.0, 1.0, 2.0), HerzParams(0.0, 2.0, 2.0, 2.0)),
        ]
        expected = []
        for i, f in enumerate(random_step_functions(3, 20240801)):
            for v, src, tgt in cases:
                rep = embedding_check(v, f, src, tgt)
                params = {"source": src.label(), "target": tgt.label()}
                expected.append(rep.record("embeddings", f"{v}[{i}]", params,
                                           notes=f"constant={rep.constant:.6g}"))
        assert records == expected


class TestNormExponents:
    """`norm` builds its exponent pair before any norm; L^p is read as L^{p,p}."""

    @pytest.fixture()
    def radial_file(self, tmp_path):
        path = tmp_path / "radial.json"
        record = {"type": "radial_step", "dim": 1, "breakpoints": [0, 3, 6], "values": [5, 2]}
        path.write_text(json.dumps({"records": [record]}))
        return str(path)

    @pytest.fixture()
    def grid_file(self, tmp_path):
        path = tmp_path / "grid.json"
        save_corpus([grid_indicator(2.0, 16, -1.0, 1.5)], path)
        return str(path)

    def test_lp_at_infinity_is_the_sup(self, capsys, radial_file):
        assert main(["norm", "--space", "lp", "--p", "inf", "--input", radial_file]) == 0
        assert capsys.readouterr().out == "5.0\n"

    @pytest.mark.parametrize("p", ["0", "-1", "nan"])
    @pytest.mark.parametrize("kind", ["radial", "grid"])
    def test_bad_exponent_exit_2(self, capsys, request, p, kind):
        path = request.getfixturevalue(f"{kind}_file")
        assert main(["norm", "--space", "lp", "--p", p, "--input", path]) == 2
        err = capsys.readouterr().err
        assert "exponents must be positive" in err and "Traceback" not in err

    @pytest.mark.parametrize("c", [1e-200, 1e200])
    def test_lp_beyond_the_float_range(self, tmp_path, capsys, c):
        path = tmp_path / "scaled.json"
        save_corpus([RadialStepFunction(1, [0, 1], [c])], path)
        assert main(["norm", "--space", "lp", "--p", "2", "--input", str(path)]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(c * math.sqrt(2.0), rel=1e-15,
                                                              abs=0.0)

    def test_lp_norm_beyond_the_largest_float_is_inf(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        save_corpus([GridFunction1D(8.0, np.full(4096, 1e308))], path)
        assert main(["norm", "--space", "lp", "--p", "0.5", "--input", str(path)]) == 0
        assert capsys.readouterr().out == "inf\n"

    def test_lp_matches_the_power_integral(self, capsys, two_annuli_file):
        from conftest import power_integral

        f = load_corpus(two_annuli_file)[0]
        for p in ("1", "1.5", "2", "3.7"):
            assert main(["norm", "--space", "lp", "--p", p, "--input", two_annuli_file]) == 0
            expected = power_integral(f, float(p)) ** (1.0 / float(p))
            assert float(capsys.readouterr().out) == pytest.approx(expected, rel=1e-14)


class TestZeroDenominators:
    def test_rearrange_points(self, capsys, two_annuli_file):
        assert main(["rearrange", "--input", two_annuli_file, "--points", "1/2,1/0"]) == 2
        captured = capsys.readouterr()
        assert "--points" in captured.err and "zero denominator" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_gen_corpus_measures(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["gen-corpus", "--kind", "characteristic", "--size", "2",
                     "--measures", "1,1/0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--measures" in err and "zero denominator" in err and "Traceback" not in err
        assert not out.exists()
