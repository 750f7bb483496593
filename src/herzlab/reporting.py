"""Flat check records shared by every verification suite, and the one result,
`Comparison`, of a two-sided check (a left side against a bound)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Sequence

__all__ = ["CheckRecord", "Comparison", "json_text", "write_report", "read_report", "render_tsv",
           "summarize"]


@dataclass(frozen=True)
class CheckRecord:
    suite: str
    check_id: str
    params: dict[str, Any] = field(default_factory=dict)
    lhs: float | None = None
    rhs: float | None = None
    ratio: float | None = None
    passed: bool = True
    notes: str = ""

    def row(self) -> dict[str, Any]:
        d = _as_dict(self)
        d["params"] = json.dumps(_clean(self.params), sort_keys=True)
        return d


@dataclass(frozen=True)
class Comparison:
    lhs: float
    rhs: float
    ratio: float
    passed: bool
    constant: float = 1.0

    def record(
        self, suite: str, check_id: str, params: dict[str, Any], notes: str = ""
    ) -> CheckRecord:
        return CheckRecord(
            suite, check_id, params, self.lhs, self.rhs, self.ratio, self.passed, notes
        )


_FIELDS = tuple(f.name for f in fields(CheckRecord))


def _as_dict(r: CheckRecord) -> dict[str, Any]:
    # shares the field values: `dataclasses.asdict` would deep-copy params
    return {name: getattr(r, name) for name in _FIELDS}


def _clean(x: Any) -> Any:
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    if isinstance(x, dict):
        return {k: _clean(v) for k, v in sorted(x.items())}
    if isinstance(x, (list, tuple)):
        return [_clean(v) for v in x]
    return x


_STR = json.encoder.encode_basestring_ascii
# json.dumps's scalar types in the order of its isinstance tests; a non-finite
# float is written as `_clean` writes it, as the string of its repr
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: _STR, type(None): lambda x: "null", bool: lambda x: "true" if x else "false",
    int: int.__repr__, float: lambda x: float.__repr__(x) if math.isfinite(x) else _STR(repr(x)),
}


def json_text(doc: Any, indent: str = "") -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` of a document with str keys,
    bit for bit, but with non-finite floats written as `_clean` writes them
    (``indent`` is the enclosing container's).  The json module encodes an
    indented document token by token in Python; this does a container a pass."""
    inner = indent + "  "
    if isinstance(doc, dict):
        body = [_STR(k) + ": " + (w(v) if (w := _SCALARS.get(type(v))) else json_text(v, inner))
                for k, v in sorted(doc.items())]
    elif isinstance(doc, (list, tuple)):
        body = [w(v) if (w := _SCALARS.get(type(v))) else json_text(v, inner) for v in doc]
    else:
        kind = next((t for t in _SCALARS if isinstance(doc, t)), None)
        if kind is None:
            raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")
        return _SCALARS[kind](doc)
    ends = "{}" if isinstance(doc, dict) else "[]"
    sep = "\n" + inner
    return ends[0] + sep + ("," + sep).join(body) + "\n" + indent + ends[1] if body else ends


def write_report(records: Sequence[CheckRecord], path: str | Path) -> None:
    doc = {"records": [_as_dict(r) for r in records], "summary": summarize(records)}
    Path(path).write_text(json_text(doc) + "\n")


def read_report(path: str | Path) -> tuple[list[CheckRecord], dict[str, Any]]:
    """Records of a report file and the file's document; ValueError if the
    file breaks the report schema."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a report is a JSON object, not {type(doc).__name__}")
    raw, summary = doc.get("records", []), doc.get("summary", {})
    if not isinstance(raw, list) or not isinstance(summary, dict):
        raise ValueError(f"{path}: 'records' must be a list and 'summary' an object")
    names = set(_FIELDS)
    for i, rec in enumerate(raw):
        if not (isinstance(rec, dict) and {"suite", "check_id"} <= rec.keys() <= names):
            raise ValueError(
                f"{path}: record {i} is not a report record (fields {sorted(names)}, "
                f"suite and check_id required): {rec!r}"
            )
    return [CheckRecord(**rec) for rec in raw], doc


def render_tsv(records: Sequence[CheckRecord]) -> str:
    cols = ["suite", "check_id", "params", "lhs", "rhs", "ratio", "passed", "notes"]
    lines = ["\t".join(cols)]
    for r in records:
        row = r.row()
        lines.append("\t".join(str(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def summarize(records: Sequence[CheckRecord]) -> dict[str, Any]:
    return {
        "checks": len(records),
        "failed": sum(not r.passed for r in records),
        "passed": all(r.passed for r in records),
    }
