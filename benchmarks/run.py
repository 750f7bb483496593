"""Run one herzlab benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload exact-radial --seed 7 --seconds 35 --trace 0

The package is imported from the ``src/`` beside this directory; without it
the command exits with code 2 and prints no result.  One run is one process
and a closed loop: each invocation starts when the previous one has ended,
at the CLI's default ``--jobs``.

A run times set-ups in fresh interpreters (import herzlab, write the seeded
inputs): one before the timed iterations and two after each, so that their
median spans the same host conditions as the iterations.  It makes one
untimed pass over the reference-seed inputs, compared with
``reference/<workload>.json``, and repeats the workload at the requested seed
until ``--seconds`` are used.  With ``--trace 0`` it reports the end-to-end
metrics as medians over those iterations, each time scaled to a reference
host speed (see ``HostClock``); with ``--trace 1`` it alternates untraced and
traced iterations and reports the per-layer metrics.  Every report file must
be byte-identical across iterations and between traced and untraced
iterations.

The last line of standard output is the JSON result; the line before it holds
the run metadata.  The exit code is 1 when any check failed, raised, strayed
from the reference or was not reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference"
SETUPS_PER_ITERATION = 2
MIN_SETUPS = 11
# BLAS and OpenMP pools pinned to one thread (at most nproc), before numpy loads
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Verdicts must equal the reference; numbers agree to this tolerance, because
# planned changes (hoisting the sweep's per-annulus norms, the jump-node
# maximal operator, exact K-functional minima) move values in the last digits.
REL_TOL = 1e-6
ABS_TOL = 1e-9
# Seconds of one HostClock loop on a reference host (2 vCPUs, Python 3.11).
REFERENCE_LOOP_S = 0.010


@dataclass
class Outcome:
    """Checks attempted and failed over the whole run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempted: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(problems)
        self.problems += problems


@dataclass
class Iteration:
    wall: float  # seconds as measured
    suites: Counter[str]  # seconds per suite, scaled by the host clock
    reports: dict[str, bytes]
    layers: dict[str, float] | None = None


def report_rows(report: bytes) -> list[list[Any]]:
    """(check_id, passed, lhs, rhs, ratio) of every record in a report file."""
    return [
        [r["check_id"], r["passed"], r["lhs"], r["rhs"], r["ratio"]]
        for r in json.loads(report)["records"]
    ]


def _same_number(a: Any, b: Any) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b  # None, or a non-finite value written as a string


def row_problems(name: str, rows: list[list[Any]], expected: list[list[Any]] | None) -> list[str]:
    """One line per check that did not pass or strayed from the reference rows."""
    if expected is not None and len(rows) != len(expected):
        return [f"{name}: {len(rows)} checks, the reference has {len(expected)}"]
    out = []
    for i, row in enumerate(rows):
        want = None if expected is None else expected[i]
        if not row[1]:
            out.append(f"{name}/{row[0]}: did not pass")
        elif want is not None and (
            row[:2] != want[:2] or not all(map(_same_number, row[2:], want[2:]))
        ):
            out.append(f"{name}/{row[0]}: {row[1:]} differs from the reference {want[1:]}")
    return out


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_setup(workload: str, seed: int, inputs: Path) -> tuple[float, str]:
    """Seconds of one fresh-interpreter set-up into ``inputs``, and a digest of its files."""
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_inputs.py"), workload, str(seed), str(inputs)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.split()[-1]), _digest(inputs)


@dataclass
class Setups:
    """The run's set-up times; every set-up must write the same files as the first."""

    workload: str
    seed: int
    inputs: Path  # the first set-up's files, which the iterations read
    times: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    digest: str = ""

    def run(self, outcome: Outcome, clock: HostClock) -> None:
        target = self.inputs if not self.times else self.inputs.with_name("setup-check")
        before = clock.sample()
        seconds, digest = run_setup(self.workload, self.seed, target)
        self.times.append(seconds)
        self.scaled.append(clock.scaled(seconds, before, clock.sample()))
        self.digest = self.digest or digest
        outcome.add(1, [] if digest == self.digest else ["inputs differ between set-ups"])


def run_iteration(invocations: list, reports: Path, outcome: Outcome, clock: HostClock,
                  expected: dict[str, list] | None = None) -> Iteration:
    """One closed-loop pass over the workload's invocations, then its checks.

    The host clock is sampled between invocations, outside their timing.
    """
    reports.mkdir(parents=True, exist_ok=True)
    wall = 0.0
    suites: Counter[str] = Counter()
    errors: dict[str, str] = {}
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        before = clock.sample()
        for inv in invocations:
            begin = time.perf_counter()
            try:
                code = inv.call(reports / f"{inv.name}.json")
            except Exception as exc:  # a check that raised counts as failed
                errors[inv.name] = f"raised {exc!r}"
            else:
                if code != 0:
                    errors[inv.name] = f"exit code {code}"
            seconds = time.perf_counter() - begin
            after = clock.sample()
            wall += seconds
            suites[inv.suite] += clock.scaled(seconds, before, after)
            before = after
    texts = {}
    for inv in invocations:
        path = reports / f"{inv.name}.json"
        if inv.name in errors or not path.is_file():
            outcome.add(1, [f"{inv.name}: {errors.get(inv.name, 'no report')}"])
            continue
        texts[inv.name] = path.read_bytes()
        rows = report_rows(texts[inv.name])
        want = None if expected is None else expected.get(inv.name, [])
        outcome.add(1 + len(rows), row_problems(inv.name, rows, want))
    return Iteration(wall, suites, texts)


def check_identical(it: Iteration, baseline: Iteration, what: str, outcome: Outcome) -> None:
    """Compare with the baseline's reports, then drop them so memory stays flat."""
    problems = [
        f"{name}: {what} report differs from the first iteration's"
        for name, text in it.reports.items()
        if baseline.reports.get(name) != text
    ]
    outcome.add(len(it.reports), problems)
    if it is not baseline:
        it.reports = {}


class HostClock:
    """The host's speed, from a fixed pure-Python loop timed through the run.

    The host's speed drifts by up to 1.8x within seconds, and CPU time drifts
    with it, so raw times of one program spread by more than a regression
    bound across runs.  The loop is sampled right before and right after
    each timed invocation and set-up; ``scaled`` gives the interval in
    seconds on a host where the loop takes REFERENCE_LOOP_S.  The loop is the
    benchmark's own code, so no change to herzlab moves it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        """Times the loop twice; returns the mean."""
        for _ in range(2):
            start = time.perf_counter()
            acc = 0
            for i in range(100_000):
                acc = (acc + i * i) % 1_000_003
            self.samples.append(time.perf_counter() - start)
        return (self.samples[-1] + self.samples[-2]) / 2

    def scaled(self, seconds: float, before: float, after: float) -> float:
        return seconds * REFERENCE_LOOP_S / ((before + after) / 2)

    def loop_s(self) -> float:
        return median(self.samples)


def source_metadata() -> dict[str, Any]:
    """Commit (when the tree is a git checkout), hash and line count of src/."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    sources = sorted(SRC.rglob("*.py"))
    return {
        "commit": commit,
        "src_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


def write_reference(workload: str, seed: int, reports: dict[str, bytes]) -> Path:
    """One check per line, so that a changed reference reads as a short diff."""
    parts = [
        json.dumps(name) + ": [\n" + ",\n".join(json.dumps(r) for r in report_rows(text)) + "\n]"
        for name, text in reports.items()
    ]
    REFERENCE.mkdir(exist_ok=True)
    path = REFERENCE / f"{workload}.json"
    path.write_text(f'{{"seed": {seed},\n"reports": {{\n' + ",\n".join(parts) + "\n}}\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the reference seed)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the reference-seed outputs instead of running")
    args = parser.parse_args(argv)

    if not (SRC / "herzlab" / "__init__.py").is_file():
        print(f"benchmark: no herzlab package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import herzlab
    import numpy
    import tracer
    import workloads

    if Path(herzlab.__file__).resolve().parent != SRC / "herzlab":
        print(f"benchmark: herzlab imported from {herzlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = workloads.REFERENCE_SEED
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    outcome = Outcome()

    # untimed pass over the reference inputs; it also warms lazy state
    ref_inputs = work / "reference-inputs"
    ref_inputs.mkdir(parents=True)
    workload.write_inputs(ref_inputs, workloads.REFERENCE_SEED)
    clock = HostClock()
    if args.write_reference:
        it = run_iteration(workload.invocations(ref_inputs, workloads.REFERENCE_SEED),
                           work / "reference", outcome, clock)
        if outcome.failed:
            print("\n".join(outcome.problems), file=sys.stderr)
            return 1
        print(f"wrote {write_reference(args.workload, workloads.REFERENCE_SEED, it.reports)}")
        return 0
    expected = json.loads((REFERENCE / f"{args.workload}.json").read_text())["reports"]

    setups = Setups(args.workload, args.seed, work / "inputs")
    setups.run(outcome, clock)
    run_iteration(workload.invocations(ref_inputs, workloads.REFERENCE_SEED),
                  work / "reference", outcome, clock, expected)

    invocations = workload.invocations(setups.inputs, args.seed)
    reports = work / "reports"
    plain: list[Iteration] = []
    traced: list[Iteration] = []
    tr = tracer.Tracer()
    start = time.perf_counter()
    while True:
        plain.append(run_iteration(invocations, reports, outcome, clock))
        check_identical(plain[-1], plain[0], "untraced", outcome)
        for _ in range(SETUPS_PER_ITERATION):
            setups.run(outcome, clock)
        if args.trace:
            tr.reset()
            tr.install()
            try:
                traced.append(run_iteration(invocations, reports, outcome, clock))
            finally:
                tr.uninstall()
            traced[-1].layers = tr.summary()
            check_identical(traced[-1], plain[0], "traced", outcome)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > args.seconds:
            break
    while len(setups.times) < MIN_SETUPS:
        setups.run(outcome, clock)

    suites = sorted({inv.suite for inv in invocations})
    suite_s = {s: median(it.suites[s] for it in plain) for s in suites}
    wall_raw_s = median(it.wall for it in plain)
    setup_raw_s = median(setups.times)
    if args.trace:
        metrics = {
            name: (median(it.layers[name] for it in traced), unit)
            for name, unit in tracer.metric_units().items()
        }
        metrics["trace.overhead_s"] = (median(it.wall for it in traced) - wall_raw_s, "s")
        metrics["host.calib_s"] = (clock.loop_s(), "s")
        for suite in workloads.SUITES:
            metrics[f"suite.{suite}_s"] = (suite_s.get(suite, 0.0), "s")
    else:
        metrics = {
            "wall_s": (median(sum(it.suites.values()) for it in plain), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (median(setups.scaled), "s"),
        }

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(plain)} untraced "
          f"and {len(traced)} traced iterations, {outcome.attempted} checks, "
          f"{outcome.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        for suite in suites:
            print(f"suite.{suite}_s = {suite_s[suite]:.6g} s")
        print(f"wall_raw_s = {wall_raw_s:.6g} s")
        print(f"setup_raw_s = {setup_raw_s:.6g} s")
        print(f"host.calib_s = {clock.loop_s():.6g} s")
    print(f"failed_frac = {outcome.failed / max(outcome.attempted, 1):.6g}")
    for problem in outcome.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "reference_seed": workloads.REFERENCE_SEED,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": herzlab.cli.SuiteConfig("").jobs,
        **source_metadata(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
    print("meta " + json.dumps(meta))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
