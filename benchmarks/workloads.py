"""The benchmark's workloads: seeded input files and the suite invocations.

Each workload writes its inputs with ``herzlab.corpus`` from a seed, then
drives the package through its public entry points: ``herzlab.cli.main`` for
every ``verify`` suite, and one library call for the rough-grid sweep.  Every
invocation writes a report file; the harness compares those files across
iterations, against the traced run, and against the stored reference.

Module attributes (``cli.main``, ``operators.boundedness_sweep``, ...) are
looked up at call time so that the tracer's wrappers are seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from herzlab import cli, corpus, operators, reporting

# The CLI's default seed.  The stored reference outputs are taken here.
REFERENCE_SEED = 20240801
# Not used to tune the benchmark: a later change confirms its claim on these inputs.
HELD_OUT_SEED = 20240917

# Sizes that reproduce the call mix of the profiles the workloads were chosen
# from; the traced counts per iteration are in benchmarks/README.md.
# Two hundred step functions, half of them dim 3 with up to 16 shells.
RADIAL_PER_DIM = 100
# The CLI default --size: with embeddings it gives about 10.8k restrict_radii
# calls per iteration (profiled: 9.6k); 60 pairs gave 13.4k.
HOLDER_PAIRS = 20
# An indicator plus 7 grids: about 33k lorentz_norm_from_steps calls from the
# blocky suites per iteration (profiled: 31.8k).
BLOCKY_GRIDS = 7
# An indicator plus 5 rough grids: the fallback sweep takes about as long as
# the blocky boundedness suite, so a slowdown of it shows in wall_s.
ROUGH_GRIDS = 5
# The CLI default grid size
GRID_CELLS = 4096


@dataclass(frozen=True)
class Invocation:
    suite: str  # the suite whose wall time this invocation counts toward
    name: str  # report file stem, unique within a workload
    call: Callable[[Path], int]  # writes the report to the path, returns the exit code


@dataclass(frozen=True)
class Workload:
    name: str
    write_inputs: Callable[[Path, int], None]
    invocations: Callable[[Path, int], list[Invocation]]  # (input directory, seed)


def _verify(suite: str, name: str, *flags: str) -> Invocation:
    def call(out: Path) -> int:
        return cli.main(["verify", suite, *flags, "--out", str(out)])

    return Invocation(suite, name, call)


def _grids(seed: int, count: int, blocks: int) -> list[operators.GridFunction1D]:
    indicator = operators.grid_indicator(8.0, GRID_CELLS, -1.0, 1.0)
    return [indicator] + corpus.random_grid_functions(
        count, seed, half_width=8.0, n_cells=GRID_CELLS, blocks=blocks
    )


# ---------------------------------------------------------------------------
# exact-radial: the exact-rational path (rearrangements, annuli, Herz norms)
# ---------------------------------------------------------------------------


def _radial_inputs(out: Path, seed: int) -> None:
    # herz-holder pairs functions of one corpus, so each dimension gets a file
    corpus.save_corpus(
        corpus.random_step_functions(RADIAL_PER_DIM, seed, dim=1), out / "radial-d1.json"
    )
    corpus.save_corpus(
        corpus.random_step_functions(RADIAL_PER_DIM, seed + 1, dim=3, max_shells=16),
        out / "radial-d3.json",
    )


def _radial_invocations(inputs: Path, seed: int) -> list[Invocation]:
    out = []
    for dim in ("d1", "d3"):
        # --seed drives the rearrange suite's sum-bound trials and their corpus
        src = ("--corpus", str(inputs / f"radial-{dim}.json"), "--seed", str(seed))
        out += [
            _verify("rearrange", f"rearrange.{dim}", *src),
            _verify("lorentz-equivalence", f"lorentz-equivalence.p2-r1.{dim}", *src,
                    "--p", "2", "--r", "1"),
            _verify("lorentz-equivalence", f"lorentz-equivalence.p3-rinf.{dim}", *src,
                    "--p", "3", "--r", "inf"),
            _verify("herz-holder", f"herz-holder.{dim}", *src, "--size", str(HOLDER_PAIRS)),
            _verify("embeddings", f"embeddings.{dim}", *src),
        ]
    out += [
        _verify("bfs", "bfs"),
        _verify("example-divergence", "example-divergence"),
        _verify("lemma-bound", "lemma-bound"),
    ]
    return out


# ---------------------------------------------------------------------------
# interpolation: K-functionals and interpolation norms
# ---------------------------------------------------------------------------


def _no_inputs(out: Path, seed: int) -> None:
    """interp-hl stays at its CLI default seed: hl-3 and hl-4 fail their 1e-9
    scale-drift test at some seeds (9, 13, 20, 35, 37 and 69 of 0-95), a
    finding of the check that a benchmark input must not trip."""


def _interp_invocations(inputs: Path, seed: int) -> list[Invocation]:
    return [
        _verify("interp-seq", "interp-seq"),
        _verify("interp-lorentz", "interp-lorentz"),
        _verify("interp-hl", "interp-hl"),
    ]


# ---------------------------------------------------------------------------
# grid: the grid operators and the boundedness sweep, on blocky and rough grids
# ---------------------------------------------------------------------------


def _grid_inputs(out: Path, seed: int) -> None:
    # 16-block grids (few jumps), the CLI's default kind
    corpus.save_corpus(_grids(seed, BLOCKY_GRIDS, blocks=16), out / "blocky.json")
    # two-cell blocks: the level changes at about 3/8 of the nodes, where the
    # maximal operator's hull scan stays the fallback of a jump-node method
    corpus.save_corpus(_grids(seed, ROUGH_GRIDS, blocks=GRID_CELLS // 2), out / "rough.json")


def _grid_invocations(inputs: Path, seed: int) -> list[Invocation]:
    # the seed is in the grid files; witness has no input
    src = ("--corpus", str(inputs / "blocky.json"))
    return [
        _verify("boundedness", "boundedness", *src),
        _verify("interp-boundedness", "interp-boundedness", *src),
        _verify("witness", "witness"),
        _rough_sweep(inputs / "rough.json"),
    ]


def _rough_sweep(grids: Path) -> Invocation:
    """The library sweep, not ``verify boundedness``: that suite's Hilbert half
    fails 17 of its 90 cells on these grids (drift above 5%), a finding of the
    check that a benchmark input must not trip."""

    def call(out: Path) -> int:
        rep = operators.boundedness_sweep("maximal", corpus.load_corpus(grids))
        records = [
            reporting.CheckRecord(
                "sweep-maximal",
                f"maximal[a={row.a:.4g},p={row.p},q={row.q},r={row.r}]",
                {"a": row.a, "p": row.p, "q": row.q, "r": row.r},
                lhs=row.ratio,
                rhs=row.refined_ratio,
                ratio=row.drift,
                passed=row.passed,
            )
            for row in rep.cells
        ]
        reporting.write_report(records, out)
        return 0 if rep.passed else 1

    return Invocation("sweep-maximal", "sweep-maximal", call)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("exact-radial", _radial_inputs, _radial_invocations),
        Workload("interpolation", _no_inputs, _interp_invocations),
        Workload("grid", _grid_inputs, _grid_invocations),
    )
}

SUITES = (*cli.SUITES, "sweep-maximal")
