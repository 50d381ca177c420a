"""The benchmark's tracer wraps functions of the program by module and name.
A renamed or removed function breaks every traced benchmark run, so the fast
suite installs the tracer's hooks once and takes them out again."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import tracer
    import workloads
    return tracer, workloads


def test_every_hook_finds_its_function_and_uninstall_restores_it(bench):
    tracer, workloads = bench
    t = tracer.Tracer()
    try:
        workloads.instrument(t)  # a missing attribute raises AttributeError here
        hooked = list(t._originals)
        assert hooked
        for owner, attr, original in hooked:
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        t.uninstall()
    for owner, attr, original in hooked:
        assert getattr(owner, attr) is original


def test_every_timed_layer_metric_has_a_hook(bench):
    tracer, workloads = bench
    t = tracer.Tracer()
    try:
        workloads.instrument(t)
    finally:
        t.uninstall()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["per_layer"]:
        span, _, kind = metric["name"].rpartition(".")
        if kind in ("ms", "self_ms", "calls"):
            assert span in t.names, metric["name"]
