"""The benchmark's workloads: set-up, one operation, and its output checks.

Every operation is one in-process call of ``genzsl.cli.main``, the function
behind the ``genzsl`` command, so argument parsing, the dataset and
checkpoint files and the run manifest are all on the timed path. The
benchmark seed picks the training and evaluation seeds handed to the
command; the datasets are the toolkit's own synthetic ones.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

from genzsl import cli, dataio, diffmath, divergences, evaluation, hallucination
from genzsl import losses, model, training

from reference import SpeedReference
from tracer import Tracer


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "train": each op trains; "eval": each op evaluates
    config: dict                   # the training config file, written at set-up
    synth: tuple[str, ...] = ()    # `genzsl synth` flags; empty gives the default dataset
    setups: int = 15               # set-up repetitions; setup_s is their median

    @property
    def steps(self) -> int:
        return self.config["n_steps"]


WORKLOADS = {w.name: w for w in (
    Workload("train_classic", "train", {"n_steps": 100, "eval_every": 100}),
    Workload("train_creative", "train", {
        "n_steps": 100, "eval_every": 100, "n_d": 1, "class_balanced": True,
        "policy": "all", "arch": {"preset": "doublenet"},
        "loss": {"segc_active": True, "segc_normalized": True,
                 "u_categorization": True, "k_unseen_cap": 100,
                 "rf_hallucinated": True, "creativity_on_discriminator": True},
    }),
    # 40 + 20 classes with 25 test points each: 1,500 mixed test points. The
    # checkpoint's 50 steps keep 15 set-ups affordable; train_steps_per_s
    # of this workload comes from them.
    Workload("eval_gzsl", "eval", {"n_steps": 50, "eval_every": 50},
             synth=("--k-seen", "40", "--k-unseen", "20", "--visual-dim", "64",
                    "--semantic-dim", "32", "--samples-per-class", "100")),
)}

# Both datasets and the eval_gzsl checkpoint are fixed, so that the quality
# figures of a run vary only with the seeds its operations are given.
DATASET_SEED = 0
CHECKPOINT_SEED = 0


class SetupError(RuntimeError):
    pass


@dataclass
class Prepared:
    data: str
    config: str
    checkpoint: str | None = None
    k_seen: int = 0
    k_unseen: int = 0
    train_s: float | None = None


@dataclass
class OpRecord:
    seconds: float
    traced: bool
    problems: list[str]
    scale: float = 1.0             # from the speed reference around this operation
    top1_unseen: float = math.nan
    su_auc: float = math.nan
    summary: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


def _genzsl(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def set_up(workload: Workload, directory: str) -> Prepared:
    """Write the dataset and config; for eval_gzsl also train the checkpoint."""
    os.makedirs(directory)
    prep = Prepared(os.path.join(directory, "data"), os.path.join(directory, "config.json"))
    if _genzsl(["synth", "--out", prep.data, "--seed", DATASET_SEED, *workload.synth]):
        raise SetupError(f"{workload.name}: genzsl synth failed")
    with open(os.path.join(prep.data, "manifest.json"), encoding="utf-8") as fh:
        counts = json.load(fh)["counts"]
    prep.k_seen, prep.k_unseen = counts["k_seen"], counts["k_unseen"]
    with open(prep.config, "w", encoding="utf-8") as fh:
        json.dump(workload.config, fh)
    if workload.kind == "eval":
        run_dir = os.path.join(directory, "run")
        t0 = time.perf_counter()
        code = _genzsl(["train", "--data", prep.data, "--out", run_dir,
                        "--config", prep.config, "--seed", CHECKPOINT_SEED])
        prep.train_s = time.perf_counter() - t0
        if code:
            raise SetupError(f"{workload.name}: genzsl train exited {code}")
        prep.checkpoint = os.path.join(run_dir, "checkpoint")
    return prep


def op_argv(workload: Workload, prep: Prepared, out: str, op_seed: int) -> list:
    if workload.kind == "train":
        return ["train", "--data", prep.data, "--out", out,
                "--config", prep.config, "--seed", op_seed]
    return ["eval", "--checkpoint", prep.checkpoint, "--data", prep.data,
            "--out", out, "--seed", op_seed]


def chance_auc(k_seen: int, k_unseen: int) -> float:
    """Area under the seen-unseen curve of a scorer that guesses: the
    triangle between all-seen guessing (1/k_seen, 0) and all-unseen
    guessing (0, 1/k_unseen)."""
    return 0.5 / (k_seen * k_unseen)


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _sha256(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def check(workload: Workload, prep: Prepared, out: str, code, rec: OpRecord,
          fingerprints: dict, op_seed: int) -> None:
    """Fill `rec` with the operation's quality figures and every failed check."""
    problems = rec.problems
    if code != 0:
        problems.append(f"exit code {code}")
        return
    with open(os.path.join(out, "run_manifest.json"), encoding="utf-8") as fh:
        status = json.load(fh).get("status")
    if status != "ok":
        problems.append(f"manifest status {status!r}")
    if workload.kind == "train":
        rows = _read_csv(os.path.join(out, "history.csv"))
        values = [float(v) for row in rows for v in row.values()]
        if not rows or not all(math.isfinite(v) for v in values):
            problems.append("history is empty or not finite")
            return
        rec.top1_unseen = float(rows[-1]["val_top1"])
        rec.su_auc = float(rows[-1]["val_auc"])
        ckpt = os.path.join(out, "checkpoint")
        fingerprint = _sha256(os.path.join(ckpt, f) for f in sorted(os.listdir(ckpt))
                              if f.endswith(".zsld"))
    else:
        (report,) = _read_csv(os.path.join(out, "eval_report.csv"))
        curve = _read_csv(os.path.join(out, "su_curve.csv"))
        values = [float(v) for v in report.values()]
        values += [float(v) for row in curve for v in row.values()]
        if not all(math.isfinite(v) for v in values):
            problems.append("report is not finite")
            return
        rec.top1_unseen = float(report["top1_unseen"])
        rec.su_auc = float(report["su_auc"])
        fingerprint = _sha256(os.path.join(out, f) for f in ("eval_report.csv", "su_curve.csv"))
    floor = chance_auc(prep.k_seen, prep.k_unseen)
    if not rec.su_auc > floor:
        problems.append(f"su_auc {rec.su_auc} is not above chance {floor}")
    if fingerprints.setdefault(op_seed, fingerprint) != fingerprint:
        problems.append(f"seed {op_seed} did not reproduce its first output bit for bit")


def instrument(tracer: Tracer) -> None:
    """Wrap the calls into each genzsl module that the per-layer metrics time."""
    timed = [
        (cli, "main"), (training, "train"),
        (diffmath, "backward"), (diffmath, "grad_scalar"), (diffmath, "adam_step"),
        (diffmath, "lipschitz_penalty_node"),
        (losses, "discriminator_loss_node"), (losses, "generator_loss_node"),
        (model, "generate"), (model, "trunk_features"),
        (divergences, "divergence_to_uniform_batch"),
        (hallucination, "sample_hallucinated_text"),
        (evaluation, "evaluate_model"), (evaluation, "su_curve_auc"),
        (evaluation, "retrieval_map"),
        (dataio, "save_checkpoint"), (dataio, "load_dataset"), (dataio, "load_checkpoint"),
    ]
    for module, attr in timed:
        tracer.time(module, attr, f"{module.__name__.removeprefix('genzsl.')}.{attr}")

    def score_matrix_bytes(args, kwargs):
        pool, x = args[0], args[1]
        rows = len(x) if getattr(x, "ndim", 2) > 1 else 1
        return "evaluation.scores.matrix_bytes", 8 * rows * pool.pools.shape[0] * pool.pools.shape[1]

    tracer.time(evaluation.GeneratedPoolClassifier, "scores", "evaluation.scores",
                count=score_matrix_bytes)
    tracer.count_calls(diffmath.Node, "__init__", "diffmath.nodes")
    first = lambda args: args[0]  # noqa: E731
    tracer.count_file_bytes(dataio, "write_matrix", "dataio.bytes_written", first)
    tracer.count_file_bytes(dataio, "_write_json_atomic", "dataio.bytes_written", first)
    tracer.count_file_bytes(dataio, "read_matrix", "dataio.bytes_read", first)
    tracer.count_file_bytes(dataio, "_read_manifest", "dataio.bytes_read",
                            lambda args: os.path.join(args[0], "manifest.json"))


def layer_value(metric: str, summary: dict, counters: dict) -> float:
    """One per-layer metric of one operation, from its span summary
    (`<layer>.<function>.ms|self_ms|calls`) or from a counter."""
    span, _, kind = metric.rpartition(".")
    if kind in ("ms", "self_ms", "calls") and span:
        entry = summary.get(span, {"ns": 0, "self_ns": 0, "calls": 0})
        return {"ms": entry["ns"] / 1e6, "self_ms": entry["self_ns"] / 1e6,
                "calls": entry["calls"]}[kind]
    return counters.get(metric, 0)


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run(workload: Workload, seed: int, seconds: float, trace: bool, workdir: str,
        per_layer=()) -> dict:
    """Set up, run operations for `seconds`, and return the result object.

    With `trace`, every other operation runs with the tracer installed; the
    per-layer metrics named in `per_layer` come from those, and the others
    give the untraced times the tracing overhead is measured against.
    """
    reference = SpeedReference()
    setup_times, preps = [], []
    for k in range(workload.setups):
        reference.measure()
        t0 = time.perf_counter()
        preps.append(set_up(workload, os.path.join(workdir, f"setup{k}")))
        setup_times.append(time.perf_counter() - t0)
    prep = preps[-1]

    tracer = Tracer() if trace else None
    fingerprints: dict = {}
    records: list[OpRecord] = []
    start = time.perf_counter()
    # at least three operations, so that one seed always runs twice
    while len(records) < 3 or time.perf_counter() - start < seconds:
        i = len(records)
        # every operation i = 2 (mod 4) repeats the seed of the one before
        op_seed = seed * 1000 + i - (i + 2) // 4
        out = os.path.join(workdir, f"op{i}")
        rec = OpRecord(0.0, trace and i % 2 == 0, [])
        reference.measure()
        if rec.traced:
            instrument(tracer)
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            code = _genzsl(op_argv(workload, prep, out, op_seed))
        except Exception as exc:  # a crash counts as a failed operation
            code = f"{type(exc).__name__}: {exc}"
        rec.seconds = time.perf_counter() - t0
        if rec.traced:
            rec.summary, rec.counters = tracer.end_op()
            tracer.uninstall()
        try:
            check(workload, prep, out, code, rec, fingerprints, op_seed)
        except (OSError, ValueError, KeyError) as exc:
            rec.problems.append(f"unreadable output: {exc}")
        shutil.rmtree(out, ignore_errors=True)
        records.append(rec)

    reference.measure()
    n_setups = len(setup_times)
    setup_s = [t * reference.scale(k) for k, t in enumerate(setup_times)]
    for i, r in enumerate(records):
        r.scale = reference.scale(n_setups + i)
    plain = [r for r in records if not r.traced]
    ok = [r for r in records if not r.problems]
    op_ms = [1e3 * r.seconds * r.scale for r in plain]
    if workload.kind == "train":
        rates = [workload.steps / (r.seconds * r.scale) for r in plain]
    else:
        rates = [workload.steps / (p.train_s * reference.scale(k))
                 for k, p in enumerate(preps)]
    result = {
        "correct": not any(r.problems for r in records),
        "attempted": len(records),
        "failed": sum(1 for r in records if r.problems),
        "problems": sorted({p for r in records for p in r.problems}),
        "end_to_end": {
            "setup_s": statistics.median(setup_s),
            "train_steps_per_s": statistics.median(rates),
            "op_ms_p50": statistics.median(op_ms),
            "op_ms_p90": _p90(op_ms),
            "su_auc": statistics.median(r.su_auc for r in ok) if ok else math.nan,
            "top1_unseen": statistics.median(r.top1_unseen for r in ok) if ok else math.nan,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "samples": {"setups": len(setup_times), "untraced_ops": len(plain),
                    "traced_ops": len(records) - len(plain)},
        "raw": {"setup_s": setup_times, "op_ms": [1e3 * r.seconds for r in plain],
                "reference_ms": reference.times_ms},
    }
    if trace:
        traced = [r for r in records if r.traced]
        # per outer step on training workloads, per operation on eval_gzsl
        norm = workload.steps if workload.kind == "train" else 1
        layers = {}
        for name in per_layer:
            if name == "tracer.overhead_ms":
                value = statistics.median(1e3 * r.seconds * r.scale for r in traced) \
                    - statistics.median(op_ms)
            else:
                value = statistics.median(
                    layer_value(name, r.summary, r.counters) * (r.scale if name.endswith("ms") else 1)
                    for r in traced)
            layers[name] = value / norm
        result["per_layer"] = layers
        result["tracer"] = tracer
    return result
