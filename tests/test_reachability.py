"""Every function defined in src/herzlab runs on the command-line surface, or
it is on ALLOWED with its reason.

The surface below runs `cli.main` in process under `sys.setprofile`, which
records the code object of every Python call; an `ast` walk of the package
lists every function and method by its qualified name and the line its
code object starts on (its first decorator's, if it has one); a function
nested in a function f is listed as f.<locals>.name, as Python names it.  A
definition that no command reaches is code that no report depends on: it
goes, it moves to the tests, or it joins ALLOWED.  Caches are cleared first,
so the result does not depend on which tests ran before.
"""

import ast
import sys
from pathlib import Path

import herzlab
from herzlab.cli import SUITES, main
from herzlab.corpus import save_corpus
from herzlab.operators import GridFunction1D
from herzlab.rearrange import RadialStepFunction

SRC = Path(herzlab.__file__).resolve().parent

# (module, qualified name) -> why it stays though no command reaches it
ACCEPTANCE = "imported by tests/test_acceptance.py"
ALLOWED = {
    ("interp", "coretract_M"): ACCEPTANCE,
    ("operators", "maximal_at_points"): ACCEPTANCE,
    ("operators", "hilbert_at_points"): ACCEPTANCE,
    ("operators", "size_condition_check"): ACCEPTANCE,
    ("operators", "size_condition_check.<locals>.max_ratio"):
        ACCEPTANCE + " (through size_condition_check)",
    ("operators", "kernel_integral_at_points"): ACCEPTANCE + " (through size_condition_check)",
    ("operators", "GridFunction1D.centers"): ACCEPTANCE + " (through size_condition_check)",
    ("operators", "GridFunction1D.value_at"): ACCEPTANCE + " (through maximal_at_points)",
    ("rearrange", "RadialStepFunction.breakpoints"): ACCEPTANCE + " (through coretract_M)",
    ("rearrange", "StepRearrangement.support_bound"): "read by tests/test_acceptance.py",
    ("lorentz", "lorentz_holder_pairing"): "wired into herz-holder by ROADMAP item 4",
    ("operators", "GridFunction1D.__eq__"): "grid records compare by value",
    ("rearrange", "StepRearrangement.__init__"):
        "the public constructor, which validates; the library builds f* on its lattice",
    ("cli", "_is"): "runs at import",
    ("cli", "_list_of"): "runs at import",
    ("quadrature", "_gauss_legendre"): "runs at import",
    ("interp", "_k_plan.<locals>.free_corners"):
        "the corners of a plan with a zero side weight, read by interpolation_norm; "
        "no default suite or kfunc curve has one",
}


def _definitions() -> dict[tuple[str, int], tuple[str, str]]:
    """(module, first line) -> (module, qualified name) of every function and
    method in the package."""
    found = {}

    def walk(node: ast.AST, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[module, first] = (module, prefix + child.name)
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in SRC.glob("*.py"):
        walk(ast.parse(path.read_text()), path.stem, "")
    return found


def _surface(tmp: Path) -> list[list[str]]:
    """Every subcommand, and inputs that reach the fallback branches."""
    radial = tmp / "radial.json"
    # the second record lies in the annuli -1 and 0 only
    save_corpus([RadialStepFunction(1, [0, 0.5, 1, 3], [2, -1, 0.5]),
                 RadialStepFunction(1, [0, 0.25, 0.75], [2, 1])], radial)
    tiny = tmp / "tiny.json"  # levels near 1e-200, whose squares underflow
    save_corpus([RadialStepFunction(1, [0, 1, 2], [1e-200, 2e-200])], tiny)
    grid = tmp / "grid.json"
    save_corpus([GridFunction1D(4.0, [0.0, 1.0, 2.0, 0.5, 0.0, 3.0, 1.0, 0.0])], grid)
    shells, report = tmp / "shells.json", tmp / "report.json"
    commands = [["verify", suite, "--out", str(tmp / f"{suite}.json")] for suite in SUITES]
    for space in ("lorentz", "lorentz-star", "hl", "hl-star", "lp"):
        commands.append(["norm", "--space", space, "--p", "2", "--input", str(radial)])
    for space in ("hl", "lp"):
        commands.append(["norm", "--space", space, "--p", "2", "--input", str(grid)])
    for space in ("lorentz", "lorentz-star"):  # the star norm rescales its K
        commands.append(["norm", "--space", space, "--p", "2", "--input", str(tiny)])
    for kind in ("characteristic", "shells", "random-step", "grid"):
        commands.append(["gen-corpus", "--kind", kind, "--size", "2", "--cells", "16",
                         "--out", str(tmp / f"{kind}.json")])
    commands += [
        ["gen-corpus", "--kind", "shells", "--size", "3", "--quadratic-shells",
         "--out", str(shells)],
        # the shell radii 1/u^2 are [num, den] pairs in the file
        ["norm", "--space", "hl", "--p", "2", "--input", str(shells)],
        # its trace lists 3 annuli, so its tail is read beyond them
        ["verify", "bfs", "--corpus", str(shells), "--cutoff", "12", "--out", str(report)],
        ["rearrange", "--input", str(radial), "--points", "0,1/2,3"],
        ["kfunc", "--input", str(radial), "--l1-linf", "--points", "4"],
    ]
    # outer exponents (q0, q1) for the linear, front, vertex, sup-second (a kink
    # line branch and the sup-finish root), sup-sup and swapped branches, and a
    # side-0 weight 2^{1100 u} that rounds to 0 on the central ball
    for q0, q1, a0, index in (("1", "1", "0", "0"), ("2", "2", "0", "0"),
                              ("0.5", "0.5", "0", "0"), ("1", "inf", "0", "0"),
                              ("2", "inf", "0", "0"), ("inf", "inf", "0", "0"),
                              ("inf", "1", "0", "0"), ("1", "1", "1100", "1")):
        commands.append(["kfunc", "--input", str(radial), "--index", index, "--q0", q0,
                         "--q1", q1, "--a0", a0, "--points", "8", "--out", str(tmp / "k.tsv")])
    commands += [["report", "--input", str(report), "--format", fmt]
                 for fmt in ("tsv", "json", "summary")]
    return commands


def _reached(commands: list[list[str]]) -> set[tuple[str, int]]:
    """(module, first line) of every package code object that the commands run."""
    codes = set()
    # a cached function that an earlier caller filled runs no code here
    for path in SRC.glob("*.py"):
        module = sys.modules[f"herzlab.{path.stem}".removesuffix(".__init__")]
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        exits = [main(argv) for argv in commands]
    finally:
        sys.setprofile(previous)
    assert exits == [0] * len(commands), [argv for argv, c in zip(commands, exits) if c]
    return {(Path(c.co_filename).stem, c.co_firstlineno) for c in codes
            if Path(c.co_filename).resolve().parent == SRC}


def test_every_definition_runs_on_the_cli_or_is_allowed(tmp_path, capsys):
    definitions = _definitions()
    reached = {definitions[key] for key in _reached(_surface(tmp_path)) if key in definitions}
    capsys.readouterr()
    defined = set(definitions.values())
    unreached = defined - reached
    missing = sorted(unreached - ALLOWED.keys())
    assert not missing, f"defined in src/herzlab but not reached from the CLI: {missing}"
    stale = sorted(ALLOWED.keys() & reached)
    assert not stale, f"reached from the CLI, so take them off ALLOWED: {stale}"
    gone = sorted(ALLOWED.keys() - defined)
    assert not gone, f"on ALLOWED but no longer defined: {gone}"
