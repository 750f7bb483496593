"""Per-layer tracing of herzlab from outside the package.

`Tracer.install` replaces every reference to each function in `LAYERS` with a
wrapper that records a span (name, start, end, parent): the defining module's
attribute, the names other herzlab modules imported, and the values of
module-level dicts such as ``operators._OPERATORS``, through which
``boundedness_sweep`` reaches ``maximal_operator``.  `uninstall` restores the
originals.  Spans are kept in memory; `summary` turns them into call counts
and self times (a span's duration minus that of its wrapped children).
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter
from typing import Any, Callable

import numpy as np

LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "corpus": ("random_step_functions", "random_grid_functions", "save_corpus", "load_corpus"),
    "reporting": ("write_report",),
    "rearrange": ("rearrangement", "restrict_radii", "distribution", "sum_bound_check"),
    "lorentz": (
        "lorentz_quasi_norm",
        "lorentz_star_norm",
        "lorentz_norm_from_steps",
        "equivalence_check",
    ),
    "herz": (
        "annuli_decompose",
        "annulus_measure",
        "weighted_lq",
        "hl_norm",
        "hl_holder_check",
        "embedding_check",
    ),
    "interp": ("k_functional", "interpolation_norm", "retract_L", "verify_interpolation"),
    "quadrature": ("adaptive_simpson",),
    "operators": (
        "maximal_operator",
        "hilbert_transform",
        "grid_annulus_profiles",
        "hl_norm_from_profiles",
        "annulus_interaction_bound",
        "annulus_interaction_scan",
        "boundedness_sweep",
        "out_of_range_witness",
        "interpolated_boundedness_check",
    ),
}

# k_functional's spans are named by the branch its arguments select
K_BRANCHES = ("linear", "sup_sup", "mixed", "descent", "multistart")

COUNTS = (
    "quadrature.adaptive_simpson.evals",
    "operators.maximal_operator.cells",
    "operators.hilbert_transform.cells",
)


def function_names() -> list[str]:
    names = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            names.append(f"{layer}.{fn}")
            if (layer, fn) == ("interp", "k_functional"):
                names += [f"interp.k_functional.{b}" for b in K_BRANCHES]
    return names


def metric_units() -> dict[str, str]:
    """Name and unit of every metric `Tracer.summary` reports."""
    out = {}
    for name in function_names():
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
    out.update((name, "count") for name in COUNTS)
    out["operators.maximal_operator.jump_frac"] = "ratio"
    return out


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _k_branch(couple: Any) -> str:
    """The branch of k_functional that a couple's outer exponents select."""
    q0, q1 = couple.side0[1], couple.side1[1]
    if q0 == 1.0 and q1 == 1.0:
        return "linear"
    if q0 == math.inf and q1 == math.inf:
        return "sup_sup"
    if q0 == math.inf or q1 == math.inf:
        return "mixed"
    if q0 < 1.0 or q1 < 1.0:
        return "multistart"
    return "descent"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []
        self._patches: list[tuple[dict, str, Any]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- wrapping -----------------------------------------------------------

    def _note(self, name: str, args: tuple, kwargs: dict) -> tuple[str, tuple, dict]:
        """Span name and arguments for a call, counting the work it carries."""
        if name == "interp.k_functional":
            return f"{name}.{_k_branch(_arg(args, kwargs, 2, 'couple'))}", args, kwargs
        if name == "quadrature.adaptive_simpson":
            f = _arg(args, kwargs, 0, "f")
            counts = self.counts

            def counted(x: float) -> float:
                counts["quadrature.adaptive_simpson.evals"] += 1
                return f(x)

            if args:
                return name, (counted, *args[1:]), kwargs
            return name, args, {**kwargs, "f": counted}
        if name in ("operators.maximal_operator", "operators.hilbert_transform"):
            f = _arg(args, kwargs, 0, "f")
            self.counts[f"{name}.cells"] += f.n_cells
            if name == "operators.maximal_operator":
                jumps = np.diff(f.array(), prepend=0.0, append=0.0)
                self.counts["operators.maximal_operator.jumps"] += int(np.count_nonzero(jumps))
        return name, args, kwargs

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            label, args, kwargs = self._note(name, args, kwargs)
            parent = open_spans[-1] if open_spans else -1
            idx = len(spans)
            spans.append(None)
            open_spans.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[idx] = (label, start, end, parent)

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [
            vars(m)
            for name, m in sorted(sys.modules.items())
            if name == "herzlab" or name.startswith("herzlab.")
        ]
        # module-level registries, e.g. operators._OPERATORS / _POINT_OPERATORS
        namespaces += [v for ns in namespaces for v in ns.values() if type(v) is dict]
        for layer, fns in LAYERS.items():
            module = sys.modules[f"herzlab.{layer}"]
            for fn_name in fns:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for ns in namespaces:
                    for key in [k for k, v in ns.items() if v is original]:
                        self._patches.append((ns, key, original))
                        ns[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            ns[key] = original
        self._patches.clear()

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Calls and self seconds per traced function, plus the work counts."""
        if self._open:
            raise RuntimeError("summary taken inside an open span")
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for (label, start, end, _), inner in zip(self.spans, child):
            calls[label] += 1
            self_s[label] += end - start - inner
        out: dict[str, float] = {}
        for name in function_names():
            keys = [k for k in calls if k == name or k.startswith(name + ".")]
            out[f"{name}.calls"] = sum(calls[k] for k in keys)
            out[f"{name}.self_s"] = sum(self_s[k] for k in keys)
        for name in COUNTS:
            out[name] = self.counts[name]
        cells = self.counts["operators.maximal_operator.cells"]
        jumps = self.counts["operators.maximal_operator.jumps"]
        out["operators.maximal_operator.jump_frac"] = jumps / cells if cells else 0.0
        return out
