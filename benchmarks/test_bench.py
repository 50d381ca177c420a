"""Tests of the benchmark itself.

    python3 -m pytest benchmarks -q

They cover the tracer's self-time arithmetic, installing and removing the
wrappers, the compare mode, the output checks, and a tiny-size run of every
workload with tracing off and on.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench  # noqa: E402
from tracer import NO_PARENT, Tracer, self_times, summarize  # noqa: E402

workloads = bench.import_program()
SPEC = bench.load_spec()
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYERS = [m["name"] for m in SPEC["per_layer"]]

TINY_STEPS = 40   # enough training on the default dataset to clear the chance floor


def tiny(name: str) -> workloads.Workload:
    """The workload on the default dataset, with fewer steps and one set-up."""
    w = workloads.WORKLOADS[name]
    config = {**w.config, "n_steps": TINY_STEPS, "eval_every": TINY_STEPS}
    return dataclasses.replace(w, config=config, synth=(), setups=1)


# -- tracer arithmetic ------------------------------------------------------


def span(name, parent, start, end):
    return [name, parent, start, end]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, NO_PARENT, 0, 100),   # root
        span(1, 0, 10, 40),           # child
        span(2, 1, 20, 30),           # grandchild: only its parent loses it
        span(1, 0, 50, 60),           # second child
    ]
    assert self_times(spans) == [60, 20, 10, 10]


def test_self_time_merges_overlapping_and_clips_stray_children():
    spans = [
        span(0, NO_PARENT, 0, 100),
        span(1, 0, 10, 50),
        span(1, 0, 30, 70),           # overlaps the first child by 20
        span(1, 0, 90, 130),          # runs past its parent's end
    ]
    assert self_times(spans)[0] == 100 - 60 - 10


def test_summary_counts_a_recursive_call_once_in_inclusive_time():
    names = ["outer", "inner"]
    spans = [
        span(0, NO_PARENT, 0, 100),
        span(0, 0, 10, 50),           # outer calls itself
        span(1, 1, 20, 30),
    ]
    s = summarize(spans, names)
    assert s["outer"] == {"ns": 100, "self_ns": 60 + 30, "calls": 2}
    assert s["inner"] == {"ns": 10, "self_ns": 10, "calls": 1}


def test_tracer_records_parents_and_uninstall_restores_originals():
    mod = types.SimpleNamespace()
    mod.leaf = lambda x: x + 1
    mod.outer = lambda x: mod.leaf(x) * mod.leaf(x)
    originals = (mod.leaf, mod.outer)

    tracer = Tracer()
    tracer.time(mod, "outer", "m.outer")
    tracer.time(mod, "leaf", "m.leaf", count=lambda args, kwargs: ("m.leaf_arg", args[0]))
    tracer.begin_op(7)
    assert mod.outer(2) == 9
    summary, counters = tracer.end_op()
    tracer.uninstall()

    assert (mod.leaf, mod.outer) == originals
    assert [(s[0], s[1]) for s in tracer.finished[0][1]] == [(0, NO_PARENT), (1, 0), (1, 0)]
    assert summary["m.leaf"]["calls"] == 2 and summary["m.outer"]["calls"] == 1
    assert counters == {"m.leaf_arg": 4}


# -- compare mode -----------------------------------------------------------


def _record(workload, metrics):
    return {"workload": workload,
            "result": {"metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}}


def test_compare_flags_only_changes_beyond_the_bound(tmp_path, capsys):
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    base.write_text("\n".join(json.dumps(_record("eval_gzsl", {"op_ms_p50": v, "su_auc": 0.5}))
                              for v in (100.0, 110.0, 90.0)) + "\n")
    slower = 100.0 * (1 + bound["op_ms_p50"] / 2)
    new.write_text(json.dumps(_record("eval_gzsl", {"op_ms_p50": slower, "su_auc": 0.5})) + "\n")
    assert bench.compare(str(base), str(new), SPEC) == 0
    assert f"{slower / 100:.4f}  within bound" in capsys.readouterr().out

    worse = 0.5 * (1 - 2 * bound["su_auc"])
    new.write_text(json.dumps(_record("eval_gzsl", {"op_ms_p50": 100.0, "su_auc": worse})) + "\n")
    assert bench.compare(str(base), str(new), SPEC) == 1
    assert "REGRESSION" in capsys.readouterr().out


# -- the workloads ----------------------------------------------------------


def test_benchmark_json_names_the_workloads_defined_here():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_untraced_run_passes_its_checks(name, tmp_path):
    res = workloads.run(tiny(name), seed=3, seconds=0, trace=False,
                        workdir=str(tmp_path), per_layer=LAYERS)
    assert res["correct"], res["problems"]
    assert res["attempted"] >= 3 and res["failed"] == 0
    assert list(res["end_to_end"]) == E2E
    assert all(math.isfinite(v) and v > 0 for v in res["end_to_end"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_traced_run_reports_every_layer_and_exact_counts(name, tmp_path):
    w = tiny(name)
    res = workloads.run(w, seed=3, seconds=0, trace=True, workdir=str(tmp_path),
                        per_layer=LAYERS)
    # op 2 runs traced with the seed of the untraced op 1: tracing must not
    # change a bit of the output, or the fingerprint check fails
    assert res["correct"], res["problems"]
    assert res["samples"]["traced_ops"] >= 1 and res["samples"]["untraced_ops"] >= 1
    layers = res["per_layer"]
    assert list(layers) == LAYERS
    assert layers["cli.main.self_ms"] > 0 and layers["diffmath.nodes"] > 0
    if w.kind == "train":
        n_d = w.config.get("n_d", 5)
        assert layers["diffmath.adam_step.calls"] == n_d + 2   # critic, generator, (gamma, beta)
        assert layers["diffmath.backward.calls"] == n_d + 1
    if w.name == "train_classic":
        # two generator passes and two trunk passes per critic step, two trunk
        # passes per generator step, two pool builds by the final evaluation
        assert layers["model.generate.calls"] == pytest.approx(10 + 2 / TINY_STEPS)
        assert layers["model.trunk_features.calls"] == 12
    if w.kind == "eval":
        assert layers["evaluation.evaluate_model.ms"] > 0
        assert layers["evaluation.scores.calls"] == 2
        assert layers["diffmath.backward.calls"] == 0


def test_check_counts_a_changed_fingerprint_as_a_failure(tmp_path):
    w = tiny("train_classic")
    prep = workloads.set_up(w, str(tmp_path / "setup"))
    out = str(tmp_path / "op")
    code = workloads._genzsl(workloads.op_argv(w, prep, out, 5))
    rec = workloads.OpRecord(0.0, False, [])
    workloads.check(w, prep, out, code, rec, {5: "not the fingerprint"}, 5)
    assert rec.problems == ["seed 5 did not reproduce its first output bit for bit"]


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--workload", "train_classic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
