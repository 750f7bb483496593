"""The names the benchmark harness hooks into must exist in the package.

`benchmarks/tracer.py` wraps each function in its LAYERS table by name, and
`benchmarks/run.py` reads the default `SuiteConfig.jobs` for its metadata,
so a rename there would otherwise first show as a crashed benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

import herzlab.cli

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _layers() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("layer, names", sorted(_layers().items()))
def test_traced_names_are_callables(layer, names):
    module = importlib.import_module(f"herzlab.{layer}")
    assert [n for n in names if not callable(getattr(module, n, None))] == []


def test_default_jobs_setting_exists():
    assert herzlab.cli.SuiteConfig("").jobs >= 1
