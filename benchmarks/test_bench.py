"""Self-tests of the benchmark harness.

    python3 -m pytest benchmarks/test_bench.py

A short traced run of each workload must record calls in the layers the
workload claims to stress and none in the layers it claims to bypass.  The
runs use the held-out seed, so they also show that every check passes there,
and their reference pass shows it at the reference seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer  # noqa: E402
import workloads  # noqa: E402
from herzlab import corpus, operators  # noqa: E402

# workload -> (functions that must be called, functions that must not be)
COVERAGE = {
    "exact-radial": (
        [
            "rearrange.rearrangement",
            "rearrange.restrict_radii",
            "rearrange.sum_bound_check",
            "lorentz.equivalence_check",
            "herz.annuli_decompose",
            "herz.annulus_measure",
            "herz.hl_holder_check",
            "herz.embedding_check",
            "operators.annulus_interaction_bound",
        ],
        ["interp.k_functional", "operators.maximal_operator", "operators.hilbert_transform"],
    ),
    "interpolation": (
        [
            "interp.k_functional.linear",
            "interp.k_functional.mixed",
            "interp.k_functional.descent",
            "interp.interpolation_norm",
            "interp.retract_L",
            "quadrature.adaptive_simpson",
        ],
        [
            "operators.maximal_operator",
            "operators.hilbert_transform",
            "operators.grid_annulus_profiles",
            "operators.hl_norm_from_profiles",
            "operators.boundedness_sweep",
        ],
    ),
    "grid": (
        [
            "operators.maximal_operator",
            "operators.hilbert_transform",
            "operators.grid_annulus_profiles",
            "operators.hl_norm_from_profiles",
            "lorentz.lorentz_norm_from_steps",
            "operators.boundedness_sweep",
            "operators.out_of_range_witness",
            "operators.interpolated_boundedness_check",
        ],
        ["rearrange.restrict_radii", "interp.k_functional"],
    ),
}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("workload", sorted(COVERAGE))
def test_layer_coverage(workload: str) -> None:
    seed = str(workloads.HELD_OUT_SEED)
    proc = _run(ROOT, "--workload", workload, "--seed", seed, "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    stressed, bypassed = COVERAGE[workload]
    assert [f for f in stressed if metrics[f"{f}.calls"] == 0] == []
    assert [f for f in bypassed if metrics[f"{f}.calls"] != 0] == []
    if workload == "interpolation":
        assert metrics["quadrature.adaptive_simpson.evals"] > 0
    if workload == "grid":
        # both sweeps apply it to every grid and its refinement, reaching it
        # only through operators._OPERATORS; the witness alone would give 8
        sweep_grids = 2 + workloads.BLOCKY_GRIDS + workloads.ROUGH_GRIDS
        assert metrics["operators.maximal_operator.calls"] >= 2 * sweep_grids
        assert 0 < metrics["operators.maximal_operator.jump_frac"] < 1


def test_grid_inputs_span_the_jump_fraction(tmp_path: Path) -> None:
    """Blocky grids jump at few nodes, rough ones at many: both sides of a
    jump-node maximal operator's fallback run on the grid workload."""
    workloads.WORKLOADS["grid"].write_inputs(tmp_path, workloads.HELD_OUT_SEED)

    def jump_frac(name: str) -> float:
        grids = corpus.load_corpus(tmp_path / name)
        jumps = sum(int(np.count_nonzero(np.diff(g.array(), prepend=0.0, append=0.0)))
                    for g in grids)
        return jumps / sum(g.n_cells for g in grids)

    assert jump_frac("blocky.json") < 0.01
    assert jump_frac("rough.json") > 0.25


def test_tracer_sees_registry_calls_and_restores() -> None:
    original = operators.maximal_operator
    grids = [operators.grid_indicator(4.0, 64, -1.0, 1.0)]
    tr = tracer.Tracer()
    tr.install()
    try:
        operators.boundedness_sweep("maximal", grids, ps=(2.0,), qs=(1.0,), rs=(2.0,))
        corpus.random_step_functions(2, 0)
    finally:
        tr.uninstall()
    counts = tr.summary()
    assert counts["operators.maximal_operator.calls"] == 2  # f and its refinement
    assert counts["operators.maximal_operator.cells"] == 64 + 128
    assert counts["corpus.random_step_functions.calls"] == 1
    assert operators.maximal_operator is original
    assert operators._OPERATORS["maximal"] is original


def test_refuses_to_run_without_the_package(tmp_path: Path) -> None:
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "grid", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
