"""The names the benchmark harness hooks into must exist in the package.

`benchmarks/tracer.py` wraps each function in its LAYERS table by name, and
`benchmarks/run.py` reads the default `SuiteConfig.jobs` for its metadata,
so a rename there would otherwise first show as a crashed benchmark run.
The tracer names K spans by the branch of `interp.k_functional`, so the
interpolation norm must keep reaching K through that module attribute; the
grid workload must show calls to `lorentz.lorentz_norm_from_steps`, so the
profile scores must keep reaching the Lorentz kernel through that one.
The benchmark's invocations that read no input are run here too, and their
rows are checked against its stored reference with `benchmarks/run.py`'s
own comparison.
"""

import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import herzlab.cli
from herzlab import interp, lorentz, operators
from herzlab.herz import annulus_profile
from herzlab.interp import CoupleSpec, InterpolationParams, WeightedSeq, interpolation_norm
from herzlab.lorentz import INF, LorentzParams
from herzlab.rearrange import RadialStepFunction

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
TRACER = BENCHMARKS / "tracer.py"


def _bench_module(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # where its dataclasses look up their globals
    spec.loader.exec_module(module)
    return module


def _tracer_module():
    return _bench_module(TRACER, "bench_tracer")


@pytest.mark.parametrize("layer, names", sorted(_tracer_module().LAYERS.items()))
def test_traced_names_are_callables(layer, names):
    module = importlib.import_module(f"herzlab.{layer}")
    assert [n for n in names if not callable(getattr(module, n, None))] == []


def test_default_jobs_setting_exists():
    assert herzlab.cli.SuiteConfig("").jobs >= 1


@pytest.mark.parametrize("kind", ["sequence", "endpoint-profile"])
def test_interpolation_norm_calls_k_functional(monkeypatch, kind):
    calls = []
    solve = interp.k_functional

    def counted(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(interp, "k_functional", counted)
    if kind == "sequence":
        source = WeightedSeq.from_dict({0: 1.0, 1: 0.5, 3: 2.0})
        couple = CoupleSpec((0.0, 1.0), (1.0, 1.0))
    else:
        source = annulus_profile(RadialStepFunction(1, [0, 1, 2, 5], [3, 1, 2]))
        couple = CoupleSpec((0.2, 1.0), (0.5, INF), base="l1-linf")
    assert interpolation_norm(source, InterpolationParams(0.5, 1.5), couple).value > 0.0
    assert len(calls) >= 1


@pytest.mark.parametrize("kind", ["sequence", "endpoint-profile"])
def test_line_branch_norm_calls_k_functional_at_breakpoints(monkeypatch, kind):
    # on a line branch K is read at the corners and the breakpoints between
    # them, once each; the tracer's K counts of the benchmark see these calls
    calls = []
    solve = interp.k_functional

    def counted(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(interp, "k_functional", counted)
    if kind == "sequence":
        source = WeightedSeq.from_dict({0: 1.0, 1: 0.5, 3: 2.0})
        couple = CoupleSpec((0.0, 1.0), (1.0, 1.0))
    else:
        source = annulus_profile(RadialStepFunction(1, [0, 1, 2, 5], [3, 1, 2]))
        couple = CoupleSpec((0.2, 1.0), (0.5, INF), base="l1-linf")
    plan = interp._k_plan(source, couple)
    breaks = plan.breaks(*plan.corners())
    assert interpolation_norm(source, InterpolationParams(0.5, 1.5), couple).value > 0.0
    assert 2 <= len(calls) <= len(breaks) + 2


def test_interaction_scan_calls_annulus_interaction_bound(monkeypatch):
    # the benchmark requires annulus_interaction_bound calls on exact-radial,
    # which reach it only through the scan's corner pairs
    calls = []
    bound = operators.annulus_interaction_bound

    def counted(*args, **kwargs):
        calls.append(None)
        return bound(*args, **kwargs)

    monkeypatch.setattr(operators, "annulus_interaction_bound", counted)
    assert operators.annulus_interaction_scan(2, LorentzParams(2.0, 2.0), (-1, 8)).passed
    assert len(calls) >= 1


def test_exact_radial_paths_reach_the_decomposition_and_the_rearrangement(tmp_path):
    # the benchmark's exact-radial coverage needs calls to all three: a radial
    # profile is built from annuli_decompose -> restrict_radii pieces, and the
    # rearrange suite forms the exact f* through rearrangement (the float norms
    # of lorentz-equivalence read rounded_rearrangement instead)
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        annulus_profile(RadialStepFunction(3, [0, Fraction(1, 3), 5], [2, -1]))
        profile_calls = tracer.summary()
        tracer.reset()
        out = tmp_path / "rearrange.json"
        assert herzlab.cli.main(["verify", "rearrange", "--size", "2", "--out", str(out)]) == 0
        suite_calls = tracer.summary()
    finally:
        tracer.uninstall()
    assert profile_calls["herz.annuli_decompose.calls"] == 1
    assert profile_calls["rearrange.restrict_radii.calls"] >= 1
    assert suite_calls["rearrange.rearrangement.calls"] >= 2


@pytest.mark.parametrize("kind", ["radial-profile", "grid-profile", "sweep"])
def test_profile_scores_call_the_lorentz_kernel(monkeypatch, kind):
    # one call per profile and (p, r): the benchmark requires these calls on
    # the grid workload, and a rename or a bypass would remove them
    calls = []
    kernel = lorentz.lorentz_norm_from_steps

    def counted(*args, **kwargs):
        calls.append(None)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(lorentz, "lorentz_norm_from_steps", counted)
    grid = operators.grid_indicator(4.0, 64, -1.0, 3.0)
    if kind == "radial-profile":
        scores = annulus_profile(RadialStepFunction(1, [0, 1, 2, 5], [3, 1, 2])).scores(
            LorentzParams(2.0, 1.0))
        assert len(calls) == 1 and len(scores) == 5
    elif kind == "grid-profile":
        assert len(grid.profile.scores(LorentzParams(2.0, 1.0))) == 4
        assert len(calls) == 1
    else:
        rep = operators.boundedness_sweep("maximal", [grid], ps=(2.0,), qs=(1.0,),
                                          rs=(1.0, 2.0), weight_count=1)
        assert len(rep.cells) == 2
        assert len(calls) == 2 * 4  # f, Mf and both refined, per (p, r)


# the invocations of the benchmark that read no input file, at their default
# config; their rows are in the stored reference of the workload named
INPUT_FREE = {
    "bfs": "exact-radial", "example-divergence": "exact-radial", "lemma-bound": "exact-radial",
    "witness": "grid",
    "interp-seq": "interpolation", "interp-lorentz": "interpolation", "interp-hl": "interpolation",
}


@pytest.mark.parametrize("suite", sorted(INPUT_FREE))
def test_input_free_reports_match_the_benchmark_reference(tmp_path, suite):
    # the benchmark run compares every report with its reference rows; this
    # makes a drift of these seven fail the tests too
    run = _bench_module(BENCHMARKS / "run.py", "bench_run")
    reference = json.loads((run.REFERENCE / f"{INPUT_FREE[suite]}.json").read_text())
    out = tmp_path / f"{suite}.json"
    assert herzlab.cli.main(["verify", suite, "--out", str(out)]) == 0
    rows = run.report_rows(out.read_bytes())
    assert run.row_problems(suite, rows, reference["reports"][suite]) == []
