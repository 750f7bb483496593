"""Corpus files: JSON records for step functions, grid functions and traces.

Generation is fully determined by the seed; identical (kind, size, seed)
calls produce byte-identical files.  Radial breakpoints and values are drawn
from dyadic rationals so JSON round trips keep the exact arithmetic intact;
non-dyadic radii (the near-dyadic shell family) are stored as [num, den]
pairs.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from .herz import AnnulusMeasureSequence, annulus_indicator
from .operators import GridFunction1D
from .rearrange import RadialStepFunction, ball, unit_ball_volume
from .reporting import json_text

__all__ = [
    "load_corpus",
    "save_corpus",
    "record_to_object",
    "object_to_record",
    "generate_corpus",
    "random_step_functions",
    "random_grid_functions",
    "quadratic_shell_family",
    "shell_trace_sequence",
]

CorpusObject = RadialStepFunction | GridFunction1D | AnnulusMeasureSequence


def _encode_rational(num: int, den: int) -> Any:
    """num / den (den > 0) as JSON: an int, else the float that equals it,
    else the pair [num, den] in lowest terms; no `Fraction` is formed."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if den == 1:
        return num
    as_float = num / den  # correctly rounded
    if as_float.as_integer_ratio() == (num, den):
        return as_float
    return [num, den]


def _decode_int(x: Any) -> int:
    """An integer field; a float must be integral, so nothing is truncated."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or x != int(x):
        raise ValueError(f"expected an integer, got {x!r}")
    return int(x)


def _decode_float(x: Any) -> float:
    """A real field: a JSON number, not a boolean or a string."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"expected a number, got {x!r}")
    return float(x)


def _decode_rational(x: Any) -> Fraction:
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, list) and len(x) == 2:
        return Fraction(_decode_int(x[0]), _decode_int(x[1]))
    raise ValueError(f"cannot decode rational from {x!r}")


def _decode_numbers(xs: Any) -> list[Any]:
    """Radii or values for the step function constructor, which reads JSON ints
    and floats as exact rationals itself; anything else must decode as one."""
    return [x if type(x) is int or type(x) is float else _decode_rational(x) for x in xs]


def object_to_record(obj: CorpusObject) -> dict[str, Any]:
    if isinstance(obj, RadialStepFunction):
        return {
            "type": "radial_step",
            "dim": obj.dim,
            "breakpoints": [_encode_rational(t, obj._den) for t in obj._ticks],
            "values": [_encode_rational(v, obj._vden) for v in obj._nums],
        }
    if isinstance(obj, GridFunction1D):
        return {
            "type": "grid1d",
            "half_width": obj.half_width,
            "cells": obj.n_cells,
            "values": obj.values.tolist(),
        }
    if isinstance(obj, AnnulusMeasureSequence):
        rec: dict[str, Any] = {
            "type": "annulus_measures",
            "dim": obj.dim,
            "entries": {str(u): _encode_rational(m.numerator, m.denominator)
                        for u, m in obj.entries},
        }
        if obj.tail is not None:
            kind, c, s = obj.tail
            rec["tail"] = [kind, _encode_rational(c.numerator, c.denominator), s]
        return rec
    raise TypeError(f"cannot serialize {type(obj).__name__}")


_REQUIRED_FIELDS = {
    "radial_step": ("dim", "breakpoints", "values"),
    "grid1d": ("half_width", "values"),
    "annulus_measures": ("dim", "entries"),
}


def record_to_object(rec: dict[str, Any]) -> CorpusObject:
    if not isinstance(rec, dict):
        raise ValueError("a corpus record must be a JSON object")
    kind = rec.get("type")
    if kind not in _REQUIRED_FIELDS:
        raise ValueError(f"unknown corpus record type {kind!r}")
    for name in _REQUIRED_FIELDS[kind]:
        if name not in rec:
            raise ValueError(f"{kind} record has no {name!r} field")
    if kind == "radial_step":
        bp = _decode_numbers(rec["breakpoints"])
        dim = _decode_int(rec["dim"])
        unit_ball_volume(dim)  # rejects a dimension whose measures overflow floats
        return RadialStepFunction(dim, bp, _decode_numbers(rec["values"]))
    if kind == "grid1d":
        values = rec["values"]
        # a list of JSON numbers goes to the array whole; anything else is
        # decoded one value at a time, so a bad entry is named
        if not (isinstance(values, list) and set(map(type, values)) <= {int, float}):
            values = [_decode_float(v) for v in values]
        if "cells" in rec and _decode_int(rec["cells"]) != len(values):
            raise ValueError("declared cell count does not match values")
        return GridFunction1D(_decode_float(rec["half_width"]), values)
    entries = {int(u): _decode_rational(m) for u, m in rec["entries"].items()}
    tail = rec.get("tail")
    tail_t = None if tail is None else (tail[0], _decode_rational(tail[1]), _decode_int(tail[2]))
    return AnnulusMeasureSequence.from_dict(entries, _decode_int(rec["dim"]), tail_t)


def save_corpus(objects: Sequence[CorpusObject], path: str | Path) -> None:
    doc = {"records": [object_to_record(o) for o in objects]}
    Path(path).write_text(json_text(doc) + "\n")


def load_corpus(path: str | Path) -> list[CorpusObject]:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or not isinstance(doc.get("records"), list):
        raise ValueError(f"{path}: a corpus file holds a 'records' list")
    out = []
    for i, rec in enumerate(doc["records"]):
        try:
            out.append(record_to_object(rec))
        except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: record {i}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# deterministic generators
# ---------------------------------------------------------------------------


def random_step_functions(
    size: int,
    seed: int,
    dim: int = 1,
    max_shells: int = 8,
    nonnegative: bool = False,
) -> list[RadialStepFunction]:
    """Random radial step functions with dyadic breakpoints and values."""
    rng = random.Random(seed)
    out = []
    for _ in range(size):
        n_shells = rng.randint(1, max_shells)
        cuts = sorted(rng.sample(range(1, 16 * max_shells), n_shells))
        breakpoints = [Fraction(0)] + [Fraction(c, 16) for c in cuts]
        values = []
        for _ in range(n_shells):
            mag = Fraction(rng.randint(1, 64), 8)
            if not nonnegative and rng.random() < 0.4:
                mag = -mag
            values.append(mag if rng.random() > 0.1 else Fraction(0))
        out.append(RadialStepFunction(dim, breakpoints, values))
    return out


def random_grid_functions(
    size: int,
    seed: int,
    half_width: float = 8.0,
    n_cells: int = 1024,
    blocks: int = 16,
) -> list[GridFunction1D]:
    """Random block-constant grid functions (exactly representable after refining)."""
    rng = random.Random(seed)
    if n_cells % blocks:
        raise ValueError("cell count must be a multiple of the block count")
    reps = n_cells // blocks
    out = []
    for _ in range(size):
        vals: list[float] = []
        for _ in range(blocks):
            level = rng.choice([0.0, rng.uniform(-2.0, 2.0)])
            vals.extend([level] * reps)
        out.append(GridFunction1D(half_width, vals))
    return out


def quadratic_shell_family(count: int = 8) -> RadialStepFunction:
    """Indicator of the union of shells {2^u - 1/u^2 <= |x| < 2^u}, u = 1..count.

    The union has finite measure sum 2/u^2 while its annulus trace decays
    only quadratically, which defeats any positive weight exponent.
    """
    if count < 1:
        raise ValueError("need at least one shell")
    breakpoints = [Fraction(0)]
    values = []
    for u in range(1, count + 1):
        inner = Fraction(2) ** u - Fraction(1, u * u)
        outer = Fraction(2) ** u
        breakpoints.extend([inner, outer])
        values.extend([Fraction(0), Fraction(1)])
    return RadialStepFunction(1, breakpoints, values)


def shell_trace_sequence(explicit: int = 8) -> AnnulusMeasureSequence:
    """Annulus trace of the shell family: m_u = 2/u^2 with a power tail."""
    entries = {-1: Fraction(0), 0: Fraction(0)}
    for u in range(1, explicit + 1):
        entries[u] = Fraction(2, u * u)
    return AnnulusMeasureSequence.from_dict(entries, dim=1, tail=("power", 2, 2))


def generate_corpus(
    kind: str,
    size: int,
    seed: int,
    dim: int = 1,
    measures: Sequence[float] | None = None,
    quadratic_shells: bool = False,
    half_width: float = 8.0,
    n_cells: int = 1024,
) -> list[CorpusObject]:
    """Deterministic corpus of the requested kind."""
    if size < 1:
        raise ValueError("size must be at least 1")
    if kind == "characteristic":
        mus = list(measures) if measures else [0.25, 1.0, 9.0]
        return [ball(dim, Fraction(m)) for m in mus[:size]] + (
            [ball(dim, Fraction(k + 1, 2)) for k in range(size - len(mus))]
            if size > len(mus)
            else []
        )
    if kind == "shells":
        if quadratic_shells:
            return [
                quadratic_shell_family(max(size, 5)),
                shell_trace_sequence(max(size, 5)),
            ]
        rng = random.Random(seed)
        return [annulus_indicator(rng.randint(-1, 6), dim) for _ in range(size)]
    if kind == "random-step":
        return list(random_step_functions(size, seed, dim))
    if kind == "grid":
        return list(random_grid_functions(size, seed, half_width, n_cells))
    raise ValueError(f"unknown corpus kind {kind!r}")
