"""Batch command-line entry point.

Subcommands: ``norm``, ``rearrange``, ``kfunc``, ``verify <suite>``,
``gen-corpus``, ``report``.  Exit codes: 0 all checks pass, 1 at least one
check failed, 2 configuration or hypothesis violation.  Identical config and
seed produce byte-identical outputs; no timestamps are written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Sequence

from . import corpus as corpus_mod
from .herz import (
    AnnulusMeasureSequence,
    HerzParams,
    annulus_weights,
    bfs_condition_check,
    embedding_check,
    hl_holder_check,
    hl_norm,
)
from .interp import (
    CoupleSpec,
    WeightedSeq,
    k_functional_curve,
    retract_L,
    verify_interpolation,
)
from .lorentz import (
    INF,
    LorentzParams,
    equivalence_check,
    lorentz_quasi_norm,
    lorentz_star_norm,
)
from .operators import (
    GridFunction1D,
    annulus_interaction_scan,
    boundedness_sweep,
    grid_hl_norm,
    grid_lp_norm,
    interpolated_boundedness_check,
    out_of_range_witness,
)
from .rearrange import (
    RadialStepFunction,
    average_rearrangement,
    distribution,
    rearrangement,
    sum_bound_check,
)
from .reporting import CheckRecord, read_report, render_tsv, summarize, write_report


class ConfigError(Exception):
    """Configuration or hypothesis violation: exit code 2."""


_Pred = Callable[[Any], bool]


def _is(*kinds: type) -> _Pred:
    return lambda v: isinstance(v, kinds) and not isinstance(v, bool)


def _list_of(check: _Pred, length: int | None = None) -> _Pred:
    """A nonempty list (of the given length) whose items pass the check."""
    return lambda v: (isinstance(v, list) and len(v) > 0 and length in (None, len(v))
                      and all(map(check, v)))


def _fractions(text: str, flag: str) -> list[tuple[str, Fraction]]:
    """The tokens of a comma list and their exact values; a zero denominator
    is a configuration error, as a malformed token is."""
    try:
        return [(tok, Fraction(tok)) for tok in text.split(",")]
    except ZeroDivisionError as exc:
        raise ConfigError(f"{flag} {text!r} has a zero denominator") from exc


def _float(x: str) -> float:
    if x in ("inf", "Inf", "INF", "oo"):
        return INF
    return float(x)


# every verify setting, declared once: its name is the SuiteConfig field, the
# --flag and the --config key; it maps to the flag's argparse options and the
# check a --config value must pass (SuiteConfig.validate checks the ranges)
_NUM, _NONE, _FORMATS = (int, float), type(None), ("json", "tsv")
_SETTINGS: dict[str, tuple[dict[str, Any], _Pred]] = {
    "seed": ({"type": int}, _is(int)),
    "size": ({"type": int}, _is(int)),
    "corpus": ({}, _is(str, _NONE)),
    "a": ({"type": _float}, _is(*_NUM, _NONE)),
    "p": ({"type": _float}, _is(*_NUM)),
    "q": ({"type": _float}, _is(*_NUM)),
    "r": ({"type": _float}, _is(*_NUM)),
    "theta": ({"type": float}, _is(*_NUM)),
    "cutoff": ({"type": int}, _is(int)),
    "jobs": ({"type": int}, _is(int)),
    "out": ({}, _is(str, _NONE)),
    "format": ({"choices": _FORMATS}, _is(str)),
}
# the --config keys that one suite reads from SuiteConfig.extra, each with its
# default and its check; any key in neither table is rejected
_SUITE_EXTRAS: dict[str, dict[str, tuple[Any, _Pred]]] = {
    "herz-holder": {"a_values": ((-0.4, 0.0, 0.4), _list_of(_is(*_NUM)))},
    "interp-lorentz": {"measures": ((0.25, 1.0, 9.0), _list_of(_is(*_NUM)))},
    "lemma-bound": {
        "dims": ((1, 2, 3), _list_of(_is(int))),
        "pr": (((1.5, 1.0), (2.0, 2.0), (4.0, INF)), _list_of(_list_of(_is(*_NUM), 2))),
        "window": ((-1, 60), lambda v: _list_of(_is(int), 2)(v) and v[0] <= v[1]),
    },
}


@dataclass
class SuiteConfig:
    suite: str
    seed: int = 20240801
    size: int = 20
    corpus: str | None = None
    a: float | None = None
    p: float = 2.0
    q: float = 1.0
    r: float = 2.0
    theta: float = 0.5
    cutoff: int = 5
    jobs: int = 1
    out: str | None = None
    format: str = "json"
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        defaults = _SUITE_EXTRAS.get(self.suite, {})
        self.extra = {**{k: d for k, (d, _) in defaults.items()}, **self.extra}

    def validate(self) -> None:
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; choose from {SUITES}")
        if self.size < 1:
            raise ConfigError("corpus size must be >= 1")
        if self.cutoff < 1:
            raise ConfigError("cutoff must be >= 1")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.format not in _FORMATS:
            raise ConfigError(f"unknown report format {self.format!r}; choose json or tsv")


def _load_objects(cfg: SuiteConfig, want: type) -> list[Any]:
    if cfg.corpus:
        objs = [o for o in corpus_mod.load_corpus(cfg.corpus) if isinstance(o, want)]
        if not objs:
            raise ConfigError(f"corpus {cfg.corpus} holds no usable records")
        if want is GridFunction1D and not any(g.array().any() for g in objs):
            raise ConfigError(f"corpus {cfg.corpus} holds no nonzero grid")
        return objs
    if want is RadialStepFunction:
        return corpus_mod.random_step_functions(cfg.size, cfg.seed)
    if want is GridFunction1D:
        from .operators import grid_indicator

        return [grid_indicator(8.0, 4096, -1.0, 1.0)] + corpus_mod.random_grid_functions(
            max(1, cfg.size - 1), cfg.seed, half_width=8.0, n_cells=4096
        )
    # annulus traces: one finitely supported, one with the divergent shell tail
    finite = AnnulusMeasureSequence.from_dict(
        {-1: Fraction(1, 2), 0: Fraction(1, 2), 1: Fraction(1)}, dim=1
    )
    return [finite, corpus_mod.shell_trace_sequence(cfg.cutoff + 3)]


# ---------------------------------------------------------------------------
# suites: each returns a list of zero-argument checks producing records
# ---------------------------------------------------------------------------

Check = Callable[[], list[CheckRecord]]


def _suite_rearrange(cfg: SuiteConfig) -> list[Check]:
    import random

    fns = _load_objects(cfg, RadialStepFunction)
    rng = random.Random(cfg.seed + 1)

    def per_function(i: int, f: RadialStepFunction) -> list[CheckRecord]:
        g = rearrangement(f)
        records = []
        levels = sorted({abs(v) for v in f.values if v != 0}, reverse=True)
        equi = all(
            distribution(f, alpha) == g.superlevel_measure(alpha)
            for w in levels
            for alpha in (w, w / 2, Fraction(0))
        )
        records.append(
            CheckRecord("rearrange", f"equimeasurable[{i}]", {}, passed=equi)
        )
        mass, integral = g.total_mass(), f.abs_integral()
        records.append(
            CheckRecord(
                "rearrange",
                f"mass[{i}]",
                {},
                lhs=float(mass),
                rhs=float(integral),
                passed=mass == integral,
            )
        )
        return records

    def sum_bound_trials() -> list[CheckRecord]:
        records = []
        nonneg = corpus_mod.random_step_functions(
            5 * max(2, cfg.size // 4), cfg.seed + 2, nonnegative=True
        )
        for trial in range(max(2, cfg.size // 2)):
            fs = [nonneg[(trial * 5 + j) % len(nonneg)] for j in range(5)]
            raw = [rng.random() + 0.05 for _ in fs]
            total = sum(raw)
            cs = [c / total for c in raw]
            cs[-1] = 1.0 - sum(cs[:-1])
            t = Fraction(rng.randint(1, 64), 16)
            rep = sum_bound_check(fs, t, cs)
            records.append(
                CheckRecord(
                    "rearrange",
                    f"sum-bound[{trial}]",
                    {"t": float(t)},
                    lhs=float(rep.lhs),
                    rhs=float(min(rep.rhs_thm, rep.rhs_cor)),
                    passed=rep.passed,
                )
            )
        return records

    checks: list[Check] = [
        (lambda i=i, f=f: per_function(i, f)) for i, f in enumerate(fns)
    ]
    checks.append(sum_bound_trials)
    return checks


def _suite_lorentz_equivalence(cfg: SuiteConfig) -> list[Check]:
    params = LorentzParams(cfg.p, cfg.r)
    if not params.in_sandwich_range:
        raise ConfigError("equivalence requires 1 < p < inf with r >= 1, or p = r = inf")
    fns = _load_objects(cfg, RadialStepFunction)

    def one(i: int, f: RadialStepFunction) -> list[CheckRecord]:
        rep = equivalence_check(f, params)
        return [rep.record("lorentz-equivalence", f"sandwich[{i}]", {"p": cfg.p, "r": cfg.r})]

    return [(lambda i=i, f=f: one(i, f)) for i, f in enumerate(fns)]


def _suite_herz_holder(cfg: SuiteConfig) -> list[Check]:
    if not (1 < cfg.p < INF and cfg.q >= 1 and cfg.r >= 1):
        raise ConfigError("pairing requires 1 < p < inf and q, r >= 1")
    fns = _load_objects(cfg, RadialStepFunction)

    def pair(i: int, a: float) -> list[CheckRecord]:
        k, m = i % len(fns), (i * 7 + 3) % len(fns)
        rep = hl_holder_check(fns[k], fns[m], HerzParams(a, cfg.p, cfg.q, cfg.r))
        params = {"a": a, "p": cfg.p, "q": cfg.q, "r": cfg.r}
        return [rep.record("herz-holder", f"pair[{i},a={a}]", params)]

    checks = []
    for a in cfg.extra["a_values"]:
        checks.extend((lambda i=i, a=a: pair(i, a)) for i in range(cfg.size))
    return checks


def _suite_bfs(cfg: SuiteConfig) -> list[Check]:
    a = 1.0 if cfg.a is None else cfg.a
    params = HerzParams(a, cfg.p, cfg.q, cfg.r)
    seqs = _load_objects(cfg, AnnulusMeasureSequence)

    def one(i: int, m: AnnulusMeasureSequence) -> list[CheckRecord]:
        rep = bfs_condition_check(m, params, cfg.cutoff)
        expected = "finite" if m.finitely_supported() else None
        ok = rep.verdict == expected if expected else rep.verdict in ("growing", "bounded")
        return [
            CheckRecord(
                "bfs",
                f"trace[{i}]",
                {"a": a, "p": cfg.p, "q": cfg.q, "cutoff": cfg.cutoff},
                lhs=rep.partial_a[-1],
                rhs=rep.partial_b[-1],
                passed=ok,
                notes=f"verdict={rep.verdict}",
            )
        ]

    return [(lambda i=i, m=m: one(i, m)) for i, m in enumerate(seqs)]


def _suite_example_divergence(cfg: SuiteConfig) -> list[Check]:
    a = 1.0 if cfg.a is None else cfg.a
    if a <= 0:
        raise ConfigError("the divergence example needs a positive weight exponent")
    params = HerzParams(a, cfg.p, cfg.q, cfg.r)

    def run() -> list[CheckRecord]:
        m = corpus_mod.shell_trace_sequence(cfg.cutoff + 3)
        rep = bfs_condition_check(m, params, cfg.cutoff)
        sums = [x for x in rep.partial_a if x > 0]
        records = [
            CheckRecord(
                "example-divergence",
                "partial-sums",
                {"a": a, "p": cfg.p, "q": cfg.q, "r": cfg.r, "cutoff": cfg.cutoff},
                lhs=sums[-1] if sums else 0.0,
                passed=rep.verdict == "growing",
                notes="partial sums " + ", ".join(f"{x:.3f}" for x in sums),
            ),
            CheckRecord(
                "example-divergence",
                "finite-measure",
                {"cutoff": cfg.cutoff},
                lhs=rep.finite_measure,
                rhs=float(2 * math.pi**2 / 6),
                passed=rep.finite_measure < 2 * math.pi**2 / 6,
                notes="set measure stays below sum 2/u^2",
            ),
        ]
        return records

    return [run]


def _suite_embeddings(cfg: SuiteConfig) -> list[Check]:
    fns = _load_objects(cfg, RadialStepFunction)

    def one(i: int, f: RadialStepFunction) -> list[CheckRecord]:
        records = []
        cases = [
            ("A", HerzParams(0.3, 2.0, 1.5, 1.0), HerzParams(0.3, 2.0, 1.5, 2.0)),
            ("B", HerzParams(1.0, 2.0, 1.0, 2.0), HerzParams(0.0, 2.0, 1.0, 2.0)),
            ("C", HerzParams(0.0, 4.0, 2.0, INF), HerzParams(0.0, 2.0, 2.0, 2.0)),
            ("D", HerzParams(0.0, 2.0, 1.0, 2.0), HerzParams(0.0, 2.0, 2.0, 2.0)),
        ]
        for variant, src, tgt in cases:
            rep = embedding_check(variant, f, src, tgt)
            params = {"source": src.label(), "target": tgt.label()}
            records.append(rep.record("embeddings", f"{variant}[{i}]", params,
                                      notes=f"constant={rep.constant:.6g}"))
        return records

    return [(lambda i=i, f=f: one(i, f)) for i, f in enumerate(fns)]


def _suite_interp_seq(cfg: SuiteConfig) -> list[Check]:
    ys = [WeightedSeq.unit(u) for u in range(-1, 6)]
    ys += [
        WeightedSeq.from_dict({-1: 0.5, 1: 2.0, 3: 0.25}),
        WeightedSeq.from_dict({0: 1.0, 2: 1.0}),
    ]

    def one(suite: str, check_id: str, params: dict[str, float], **kw: float) -> list[CheckRecord]:
        rep = verify_interpolation(suite, ys, theta=cfg.theta, **kw)
        return [
            CheckRecord(
                "interp-seq",
                check_id,
                {"theta": cfg.theta, **params},
                ratio=rep.stability,
                passed=rep.passed,
                notes=f"band={rep.band}",
            )
        ]

    return [
        lambda: one("seq-a", "weight-interpolation", {"q": cfg.q},
                    q=cfg.q, a0=0.0, a1=1.0, q0=1.0, q1=1.0),
        lambda: one("seq-q", "exponent-interpolation", {"q0": 1.0, "q1": 2.0},
                    a0=0.5, a1=0.5, q0=1.0, q1=2.0),
    ]


def _suite_interp_lorentz(cfg: SuiteConfig) -> list[Check]:
    from .rearrange import ball

    fns = [ball(1, Fraction(m)) for m in cfg.extra["measures"]]

    def run() -> list[CheckRecord]:
        rep = verify_interpolation("lorentz", fns, theta=cfg.theta, q=cfg.q)
        return [
            CheckRecord(
                "interp-lorentz",
                "endpoint-couple",
                {"theta": cfg.theta, "q": cfg.q},
                ratio=rep.stability,
                passed=rep.passed and abs(rep.band[1] - 1.0) < 1e-6,
                notes=f"band={rep.band}",
            )
        ]

    return [run]


def _suite_interp_hl(cfg: SuiteConfig) -> list[Check]:
    fns = corpus_mod.random_step_functions(4, cfg.seed, nonnegative=True)
    base = LorentzParams(cfg.p, cfg.r)

    def one(suite: str, **kw: Any) -> list[CheckRecord]:
        rep = verify_interpolation(suite, fns, **kw)
        return [
            CheckRecord(
                "interp-hl",
                suite,
                {k: (v.label() if isinstance(v, LorentzParams) else v) for k, v in kw.items()},
                ratio=rep.stability,
                passed=rep.passed,
                notes=f"band={rep.band}",
            )
        ]

    return [
        lambda: one("hl-1", theta=cfg.theta, q=1.5, a0=0.0, a1=1.0, q0=1.0, q1=1.0, base=base),
        lambda: one("hl-2", theta=cfg.theta, a0=0.3, a1=0.3, q0=1.0, q1=INF, base=base),
        lambda: one("hl-3", theta=cfg.theta, a0=0.0, a1=0.5, q0=1.0, q1=1.0),
        lambda: one("hl-4", theta=cfg.theta, a0=0.2, a1=0.2, q0=1.0, q1=1.0),
    ]


def _suite_lemma_bound(cfg: SuiteConfig) -> list[Check]:
    window = cfg.extra["window"]

    def one(dim: int, p: float, r: float) -> list[CheckRecord]:
        rep = annulus_interaction_scan(dim, LorentzParams(p, r), window)
        params = {"dim": dim, "p": p, "r": r, "window": list(window)}
        return [CheckRecord("lemma-bound", f"scan[N={dim},p={p},r={r}]", params, lhs=rep.constant,
                            passed=rep.passed, notes=f"closed_form={rep.rhs!r}")]

    return [
        (lambda dim=dim, p=p, r=r: one(dim, p, r))
        for dim in cfg.extra["dims"]
        for p, r in cfg.extra["pr"]
    ]


def _suite_boundedness(cfg: SuiteConfig) -> list[Check]:
    corpus = _load_objects(cfg, GridFunction1D)

    def one(operator: str) -> list[CheckRecord]:
        rep = boundedness_sweep(operator, corpus)
        records = [
            CheckRecord(
                "boundedness",
                f"{operator}[a={row.a:.4g},p={row.p},q={row.q},r={row.r}]",
                {"a": row.a, "p": row.p, "q": row.q, "r": row.r},
                lhs=row.ratio,
                rhs=row.refined_ratio,
                ratio=row.drift,
                passed=row.passed,
            )
            for row in rep.cells
        ]
        records.extend(
            CheckRecord(
                "boundedness",
                f"{operator}-excluded[{label}]",
                {},
                passed=True,
                notes=reason,
            )
            for label, reason in rep.excluded
        )
        return records

    return [lambda: one("maximal"), lambda: one("hilbert")]


def _suite_witness(cfg: SuiteConfig) -> list[Check]:
    def run() -> list[CheckRecord]:
        rep = out_of_range_witness(cfg.a, cfg.p, cfg.q, cfg.r)
        return [
            CheckRecord(
                "witness",
                "outside-window",
                {"a": rep.a, "p": rep.p, "q": rep.q, "r": rep.r},
                lhs=rep.ratios[0],
                rhs=rep.ratios[-1],
                passed=rep.unbounded,
                notes="ratios " + ", ".join(f"{x:.5f}" for x in rep.ratios),
            )
        ]

    return [run]


def _suite_interp_boundedness(cfg: SuiteConfig) -> list[Check]:
    corpus = _load_objects(cfg, GridFunction1D)
    a = 0.2 if cfg.a is None else cfg.a

    def run() -> list[CheckRecord]:
        row = interpolated_boundedness_check("hilbert", cfg.p, cfg.q, a, corpus)
        return [
            CheckRecord(
                "interp-boundedness",
                "diagonal",
                {"p": cfg.p, "q": cfg.q, "a": a},
                lhs=row.ratio,
                rhs=row.ratio,
                ratio=0.0 if math.isfinite(row.ratio) else math.nan,
                passed=row.passed,
            )
        ]

    return [run]


_SUITE_BUILDERS: dict[str, Callable[[SuiteConfig], list[Check]]] = {
    "rearrange": _suite_rearrange,
    "lorentz-equivalence": _suite_lorentz_equivalence,
    "herz-holder": _suite_herz_holder,
    "bfs": _suite_bfs,
    "example-divergence": _suite_example_divergence,
    "embeddings": _suite_embeddings,
    "interp-seq": _suite_interp_seq,
    "interp-lorentz": _suite_interp_lorentz,
    "interp-hl": _suite_interp_hl,
    "lemma-bound": _suite_lemma_bound,
    "boundedness": _suite_boundedness,
    "witness": _suite_witness,
    "interp-boundedness": _suite_interp_boundedness,
}
SUITES = tuple(_SUITE_BUILDERS)


def run_suite(cfg: SuiteConfig) -> tuple[list[CheckRecord], int]:
    """Execute a named suite; returns (records, exit_code)."""
    cfg.validate()
    try:
        checks = _SUITE_BUILDERS[cfg.suite](cfg)
    except (ConfigError, ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    # checks are pure and independent; results are merged in submission order
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            chunks = list(pool.map(lambda c: c(), checks))
    else:
        chunks = [c() for c in checks]
    records = [rec for chunk in chunks for rec in chunk]
    if not records:
        raise ConfigError(f"suite {cfg.suite} ran no checks")
    code = 0 if all(r.passed for r in records) else 1
    if cfg.out:
        if cfg.format == "tsv":
            Path(cfg.out).write_text(render_tsv(records))
        else:
            write_report(records, cfg.out)
    return records, code


# ---------------------------------------------------------------------------
# command-line surface
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    defaults = SuiteConfig("")
    for name, (flag, _) in _SETTINGS.items():
        sub.add_argument(f"--{name}", default=getattr(defaults, name), **flag)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="herzlab",
        description="Numerical laboratory for Lorentz-Herz function spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="evaluate a norm on a corpus record")
    p_norm.add_argument("--space", required=True,
                        choices=("lorentz", "lorentz-star", "hl", "hl-star", "lp"))
    p_norm.add_argument("--input", required=True)
    p_norm.add_argument("--index", type=int, default=0)
    p_norm.add_argument("--a", type=_float, default=0.0)
    p_norm.add_argument("--p", type=_float, required=True)
    p_norm.add_argument("--q", type=_float, default=1.0)
    p_norm.add_argument("--r", type=_float, default=None)

    p_re = sub.add_parser("rearrange", help="print the decreasing rearrangement")
    p_re.add_argument("--input", required=True)
    p_re.add_argument("--index", type=int, default=0)
    p_re.add_argument("--points", default=None, help="comma list of t values for f*, f**")

    p_k = sub.add_parser("kfunc", help="export a K-functional curve")
    p_k.add_argument("--input", required=True)
    p_k.add_argument("--index", type=int, default=0)
    p_k.add_argument("--a0", type=_float, default=0.0)
    p_k.add_argument("--q0", type=_float, default=1.0)
    p_k.add_argument("--a1", type=_float, default=1.0)
    p_k.add_argument("--q1", type=_float, default=1.0)
    p_k.add_argument("--base-p", type=_float, default=2.0)
    p_k.add_argument("--base-r", type=_float, default=2.0)
    p_k.add_argument("--l1-linf", action="store_true",
                     help="use the integrable/bounded endpoint couple directly")
    p_k.add_argument("--t-lo", type=float, default=2.0**-10)
    p_k.add_argument("--t-hi", type=float, default=2.0**10)
    p_k.add_argument("--points", type=int, default=64)
    p_k.add_argument("--out")

    p_v = sub.add_parser("verify", help="run a named verification suite")
    p_v.add_argument("suite", choices=SUITES)
    _add_common(p_v)
    p_v.add_argument("--config", help="JSON file with SuiteConfig overrides")

    p_g = sub.add_parser("gen-corpus", help="write a deterministic corpus file")
    p_g.add_argument("--kind", required=True,
                     choices=("characteristic", "shells", "random-step", "grid"))
    p_g.add_argument("--size", type=int, required=True)
    p_g.add_argument("--seed", type=int, default=0)
    p_g.add_argument("--out", required=True)
    p_g.add_argument("--dim", type=int, default=1)
    p_g.add_argument("--measures", default=None, help="comma list for characteristic kind")
    p_g.add_argument("--quadratic-shells", action="store_true",
                     help="emit the quadratic-shell family and its annulus trace")
    p_g.add_argument("--half-width", type=float, default=8.0)
    p_g.add_argument("--cells", type=int, default=1024)

    p_r = sub.add_parser("report", help="reformat or summarize a report file")
    p_r.add_argument("--input", required=True)
    p_r.add_argument("--format", dest="fmt", choices=("json", "tsv", "summary"),
                     default="summary")
    return parser


def _load_record(path: str, index: int) -> corpus_mod.CorpusObject:
    objs = corpus_mod.load_corpus(path)
    if not 0 <= index < len(objs):
        raise ConfigError(f"--index {index} is out of range: {path} has {len(objs)} records")
    return objs[index]


def _cmd_norm(args: argparse.Namespace) -> int:
    obj = _load_record(args.input, args.index)
    # L^p is L^{p,p}; the pair is checked before any norm is formed
    inner = LorentzParams(args.p, args.p if args.space == "lp" or args.r is None else args.r)
    if isinstance(obj, GridFunction1D):
        if args.space == "lp":
            value = grid_lp_norm(obj, inner.p)
        elif args.space == "hl":
            value = grid_hl_norm(obj, HerzParams(args.a, inner.p, args.q, inner.r))
        else:
            raise ConfigError("grid records support --space hl or lp")
    elif isinstance(obj, RadialStepFunction):
        if args.space in ("lorentz", "lp"):
            value = lorentz_quasi_norm(obj, inner)
        elif args.space == "lorentz-star":
            value = lorentz_star_norm(obj, inner)
        else:
            herz = HerzParams(args.a, inner.p, args.q, inner.r)
            value = hl_norm(obj, herz, starred=args.space == "hl-star")
    else:
        raise ConfigError("record type has no norm")
    print(f"{value!r}")
    return 0


def _cmd_rearrange(args: argparse.Namespace) -> int:
    obj = _load_record(args.input, args.index)
    if not isinstance(obj, RadialStepFunction):
        raise ConfigError("rearrange needs a radial step record")
    points = _fractions(args.points, "--points") if args.points else []
    if any(t < 0 for _, t in points):  # checked before anything is printed
        raise ConfigError(f"--points {args.points!r} has a negative point")
    g = rearrangement(obj)
    print("knots:", " ".join(str(t) for t in g.knots))
    print("levels:", " ".join(str(w) for w in g.levels))
    for tok, t in points:
        star = g.value_at(t)
        avg = average_rearrangement(g, t) if t > 0 else g.top_level
        print(f"t={tok}: f*={float(star)!r} f**={float(avg)!r}")
    return 0


def _cmd_kfunc(args: argparse.Namespace) -> int:
    if args.points < 2:
        raise ConfigError("--points must be at least 2")
    if not (0 < args.t_lo < INF and 0 < args.t_hi < INF):
        raise ConfigError("--t-lo and --t-hi must be positive and finite")
    obj = _load_record(args.input, args.index)
    ts = [
        args.t_lo * (args.t_hi / args.t_lo) ** (i / (args.points - 1))
        for i in range(args.points)
    ]
    if not isinstance(obj, RadialStepFunction):
        raise ConfigError("kfunc needs a radial step record")
    if args.l1_linf:
        source, couple = obj, CoupleSpec((0.0, 1.0), (0.0, INF), base="l1-linf")
    else:
        source = retract_L(obj, LorentzParams(args.base_p, args.base_r))
        for flag, a in (("--a0", args.a0), ("--a1", args.a1)):
            try:
                annulus_weights(source.as_dict(), a)
            except ValueError as exc:
                raise ConfigError(f"{flag} {a}: {exc}") from None
        couple = CoupleSpec((args.a0, args.q0), (args.a1, args.q1))
    ks = k_functional_curve(ts, source, couple)
    lines = [f"{t!r}\t{k!r}" for t, k in zip(ts, ks)]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    settings = {name: getattr(args, name) for name in _SETTINGS}
    extra: dict[str, Any] = {}
    if args.config:
        overrides = json.loads(Path(args.config).read_text())
        if not isinstance(overrides, dict):
            raise ConfigError(f"--config {args.config} must hold a JSON object")
        extras = _SUITE_EXTRAS.get(args.suite, {})
        for key, value in overrides.items():
            if key in _SETTINGS:
                check, target = _SETTINGS[key][1], settings
            elif key in extras:
                check, target = extras[key][1], extra
            else:
                raise ConfigError(f"--config field {key!r} is not read by suite {args.suite}")
            if not check(value):
                raise ConfigError(f"--config field {key!r} has a bad type or value: {value!r}")
            target[key] = value
    cfg = SuiteConfig(args.suite, **settings, extra=extra)
    records, code = run_suite(cfg)
    for rec in records:
        status = "pass" if rec.passed else "FAIL"
        extra = f" {rec.notes}" if rec.notes else ""
        print(f"[{status}] {rec.suite}/{rec.check_id}{extra}")
    s = summarize(records)
    print(f"{s['checks']} checks, {s['failed']} failed")
    return code


def _cmd_gen_corpus(args: argparse.Namespace) -> int:
    measures = None
    if args.measures:
        measures = [float(m) for _, m in _fractions(args.measures, "--measures")]
    objs = corpus_mod.generate_corpus(
        args.kind,
        args.size,
        args.seed,
        dim=args.dim,
        measures=measures,
        quadratic_shells=args.quadratic_shells,
        half_width=args.half_width,
        n_cells=args.cells,
    )
    corpus_mod.save_corpus(objs, args.out)
    print(f"wrote {len(objs)} records to {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    records, doc = read_report(args.input)
    if args.fmt == "summary":
        s = doc.get("summary", {})
        print(json.dumps(s, indent=2, sort_keys=True))
        return 0 if s.get("passed") else 1
    if args.fmt == "tsv":
        sys.stdout.write(render_tsv(records))
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


_HANDLERS: dict[str, Callable[[argparse.Namespace], int]] = {
    "norm": _cmd_norm,
    "rearrange": _cmd_rearrange,
    "kfunc": _cmd_kfunc,
    "verify": _cmd_verify,
    "gen-corpus": _cmd_gen_corpus,
    "report": _cmd_report,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call and shared by later ones."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # an exact input quantity (a radius, a shell measure) too large for a float
        print(f"configuration error: the input overflows a float ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
