import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herzlab import cli
from herzlab.cli import ConfigError, SuiteConfig, main, run_suite
from herzlab.corpus import save_corpus
from herzlab.rearrange import radial_step
from fractions import Fraction


@pytest.fixture()
def two_annuli_file(tmp_path):
    f = radial_step(1, [0, Fraction(1, 2), 1], [2, 1])
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
        save_corpus([radial_step(1, radii, [1] * (len(radii) - 1))], path)
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
    ])
    def test_malformed_record_exit_2(self, tmp_path, capsys, record, field):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"records": [record]}))
        code = main(["norm", "--space", "lp", "--p", "2", "--input", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "record 0" in err and field in err

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


def test_readme_names_every_config_key():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = text[text.index("`verify --config"):].split("\n\n")[0]
    named = set(re.findall(r"`([a-z_]+)`", paragraph)) - set(cli.SUITES)
    extras = {key for keys in cli._SUITE_EXTRAS.values() for key in keys}
    assert named == set(cli._SETTINGS) | extras


@pytest.fixture(scope="module")
def five_annuli_file(tmp_path_factory):
    f = radial_step(1, [0, Fraction(1, 2), 1, 2, 4, 8], [3, 2, 1, 5, Fraction(1, 2)])
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
