"""Command-line surface: dataset synthesis, training, evaluation, sweeps,
ablations, and retrieval, all emitting CSV artifacts plus a run manifest.

Every command writes only below its --out directory (default: the
GENZSL_OUT environment variable, falling back to the working directory).
A run manifest is written atomically when the command finishes; if the
command fails after producing partial output, the manifest records
status "failed" together with the error; an --out directory that cannot be
created gets none. Exit codes: 0 success, 2 validation error, 3 numeric
failure, 4 I/O error.

Config files are JSON mirrors of the training configuration. Any key can
also be overridden on the command line with repeated
`--set dotted.key=json-value` flags; the handful of dedicated flags
(--steps, --seed, --lambda, --policy, ...) take precedence over both.
Every value must have the JSON type of its field. The fully merged
snapshot is persisted in the run manifest.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields, replace

import numpy as np

from . import __version__
from . import dataio as io
from . import evaluation as ev
from . import training as tr
from .errors import DataFormatError, NumericOverflowError, ValidationError

ENV_OUT = "GENZSL_OUT"

# the dedicated training flags: (argparse dest, dotted config key)
_FLAG_KEYS = (("steps", "n_steps"), ("seed", "seed"), ("batch_size", "batch_size"),
             ("policy", "policy"), ("lam", "loss.lambda_creativity"),
             ("lambda_grid", "lambda_grid"))


def _fmt(value):
    if type(value) is float:  # most cells, e.g. every su_curve.csv value
        return repr(value)
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _set_by_path(tree: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = tree
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ValidationError(f"config path {dotted!r} crosses a non-object key")
    node[keys[-1]] = value


def _load_config(args) -> tr.TrainConfig:
    data: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise DataFormatError(f"cannot read config: {exc}") from exc
        except ValueError as exc:  # malformed JSON or UTF-8
            raise DataFormatError(f"{args.config}: malformed JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError(f"{args.config}: config must be a JSON object")
    for item in getattr(args, "set", None) or []:
        key, _, raw = item.partition("=")
        if not _ or not key:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings are taken literally
        _set_by_path(data, key.strip(), value)
    for dest, key in _FLAG_KEYS:
        if getattr(args, dest, None) is not None:
            _set_by_path(data, key, getattr(args, dest))
    return tr.config_from_dict(data)


class RunContext:
    """Collects output paths and writes the final manifest."""

    def __init__(self, args, command: str):
        self.command = command
        self.out_dir = args.out or os.environ.get(ENV_OUT) or "."
        os.makedirs(self.out_dir, exist_ok=True)
        self.started = time.time()
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.config_snapshot: dict = {}
        self.seeds: list[int] = []
        self.results: dict = {}  # command-specific manifest entries

    def path(self, name: str) -> str:
        full = os.path.join(self.out_dir, name)
        self.outputs.append(full)
        return full

    def write_manifest(self, status: str, error: str | None = None) -> None:
        manifest = {
            "format": "zsl-run-manifest",
            "version": 1,
            "command": self.command,
            "status": status,
            "config": self.config_snapshot,
            "seeds": self.seeds,
            "inputs": self.inputs,
            "outputs": sorted(p for p in set(self.outputs) if os.path.exists(p)),
            "wall_clock_sec": round(time.time() - self.started, 3),
            "toolkit_version": __version__,
            **self.results,
        }
        if error:
            manifest["error"] = error
        io._write_json_atomic(os.path.join(self.out_dir, "run_manifest.json"), manifest)


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args, ctx: RunContext) -> None:
    spec = io.SyntheticSpec(**{f.name: getattr(args, f.name) for f in fields(io.SyntheticSpec)})
    ctx.seeds = [args.seed]
    ctx.config_snapshot = asdict(spec)
    dataset = io.make_synthetic(spec)
    ctx.outputs.extend(io.save_dataset(dataset, ctx.out_dir))
    print(f"wrote synthetic dataset ({dataset.k_seen} seen / {dataset.k_unseen} "
          f"unseen classes, {dataset.split_mode} split) to {ctx.out_dir}")


def _training_inputs(args, ctx: RunContext):
    """The merged config and the dataset of train, sweep and ablate."""
    cfg = _load_config(args)
    ctx.config_snapshot = asdict(cfg)
    ctx.seeds = list(getattr(args, "seeds", None) or [cfg.seed])
    ctx.inputs.append(args.data)
    return cfg, io.load_dataset(args.data)


def _checkpoint_inputs(args, ctx: RunContext):
    """The dataset, the checkpoint's parameters and the seed of eval and
    retrieve; the seed defaults to the one the checkpoint was trained with.
    The checkpoint's input and output widths must be the dataset's."""
    ctx.inputs.extend([args.checkpoint, args.data])
    dataset = io.load_dataset(args.data)
    params, snapshot = io.load_checkpoint(args.checkpoint)
    for name in ("semantic_dim", "visual_dim"):
        have, want = getattr(params.generator.arch, name), getattr(dataset, name)
        if have != want:
            raise ValidationError(f"the checkpoint's {name} is {have}, the dataset's {want}")
    if not isinstance(snapshot, dict):
        raise DataFormatError(f"{args.checkpoint}: the config snapshot must be an object")
    ctx.config_snapshot = snapshot
    seed = snapshot.get("seed", 0) if args.seed is None else args.seed
    if type(seed) is not int:
        raise DataFormatError(f"{args.checkpoint}: the seed must be an integer, got {seed!r}")
    ctx.seeds = [seed]
    return dataset, params, seed


def cmd_train(args, ctx: RunContext) -> None:
    cfg, dataset = _training_inputs(args, ctx)
    params, history = tr.train(dataset, cfg)
    ctx.results["degenerate_events"] = history.degenerate_events

    ctx.outputs.extend(io.save_checkpoint(params, ctx.config_snapshot,
                                          os.path.join(ctx.out_dir, "checkpoint")))
    _write_csv(ctx.path("history.csv"), tr.TrainHistory.CSV_HEADER, history.rows())
    if history.records:
        last = history.records[-1]
        print(f"trained {cfg.n_steps} steps: val_top1={last.val_top1:.4f} "
              f"val_auc={last.val_auc:.4f}")
    else:
        print(f"trained {cfg.n_steps} steps (no evaluation points)")


def _report_rows(report: ev.EvalReport):
    header = ["top1_unseen", "su_auc", "harmonic_mean"]
    row = [report.top1_unseen, report.su_auc, report.harmonic_mean]
    for frac in sorted(report.retrieval_map):
        header.append(f"map_at_{frac}")
        row.append(report.retrieval_map[frac])
    return header, [row]


def cmd_eval(args, ctx: RunContext) -> None:
    dataset, params, seed = _checkpoint_inputs(args, ctx)
    report = ev.evaluate_model(
        params.generator, dataset, args.n_generate, io.philox(seed, tr.TAG_EVAL),
        metric=args.metric, retrieval_method=args.method)
    header, rows = _report_rows(report)
    _write_csv(ctx.path("eval_report.csv"), header, rows)
    _write_csv(ctx.path("su_curve.csv"), ["seen_acc", "unseen_acc"], report.su_curve)
    print(f"top1_unseen={report.top1_unseen:.4f} su_auc={report.su_auc:.4f} "
          f"harmonic_mean={report.harmonic_mean:.4f}")


def cmd_sweep(args, ctx: RunContext) -> None:
    if args.workers < 1:
        raise ValidationError(f"--workers must be at least 1, got {args.workers}")
    cfg, dataset = _training_inputs(args, ctx)
    run = functools.partial(tr.cross_validate, dataset)
    configs = [replace(cfg, seed=seed) for seed in ctx.seeds]
    if args.workers > 1:
        # spawned workers inherit no threads, and read the pinned BLAS
        # setting before they import numpy: N workers run N BLAS threads
        with _blas_pinned(), ProcessPoolExecutor(
                max_workers=args.workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(run, configs))
    else:
        results = list(map(run, configs))

    cell_rows = []
    winner_rows = []
    for seed, res in zip(ctx.seeds, results):
        for lam in cfg.lambda_grid:
            curve = res.curves[lam]
            best_auc = max(a for _, a, _ in curve)
            best_step = min(s for s, a, _ in curve if a == best_auc)
            cell_rows.append((seed, lam, best_auc, best_step,
                              lam == res.best_lambda))
        winner_rows.append((seed, res.best_lambda, res.best_step, res.best_metric))
    _write_csv(ctx.path("sweep.csv"),
               ["seed", "lambda", "best_val_auc", "best_step", "winner"], cell_rows)
    _write_csv(ctx.path("winners.csv"),
               ["seed", "best_lambda", "best_step", "best_val_auc"], winner_rows)
    for seed, lam, step, metric in winner_rows:
        print(f"seed {seed}: best lambda {lam} at step {step} "
              f"(val_auc {metric:.4f})")


@contextlib.contextmanager
def _blas_pinned():
    """BLAS set to one thread per product in os.environ, and the caller's
    settings restored on exit."""
    saved = {var: os.environ.get(var) for var in ev.BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(ev.BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def cmd_ablate(args, ctx: RunContext) -> None:
    cfg, dataset = _training_inputs(args, ctx)
    rows = tr.ablate(dataset, cfg, args.suite, seeds=ctx.seeds)
    _write_csv(ctx.path("ablation.csv"),
               ["row", "top1_mean", "top1_std", "auc_mean", "auc_std",
                "hm_mean", "hm_std"],
               [(r.label, r.top1_mean, r.top1_std, r.auc_mean, r.auc_std,
                 r.hm_mean, r.hm_std) for r in rows])
    for r in rows:
        print(f"{r.label}: top1 {r.top1_mean:.4f}±{r.top1_std:.4f} "
              f"auc {r.auc_mean:.4f}±{r.auc_std:.4f}")


def cmd_retrieve(args, ctx: RunContext) -> None:
    dataset, params, seed = _checkpoint_inputs(args, ctx)
    # a pool of its own for the unseen classes: these are not eval's map_at_* columns
    centers = ev.build_classifier(params.generator, dataset.unseen_semantics, args.n_generate,
                                  io.philox(seed, tr.TAG_EVAL)).pools.mean(axis=1)
    result = ev.retrieval_map(centers, dataset.unseen_test_features, dataset.unseen_test_labels,
                              dataset.k_seen + np.arange(dataset.k_unseen), args.fractions,
                              args.method)
    _write_csv(ctx.path("retrieval.csv"), ["fraction", "map"],
               sorted(result.items()))
    for frac, value in sorted(result.items()):
        print(f"map@{frac}: {value:.4f}")


# ---------------------------------------------------------------------------
# argument parsing


def _add_training_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any config key by dotted path (repeatable)")
    p.add_argument("--steps", type=int, help="override n_steps")
    p.add_argument("--seed", type=int, help="override the seed")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--policy", help="hallucination policy preset name")
    p.add_argument("--lambda", type=float, dest="lam",
                   help="override the creativity weight")


def _add_checkpoint_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-generate", type=int, default=tr.TrainConfig.n_generate_eval,
                   dest="n_generate")
    p.add_argument("--method", choices=ev.RETRIEVAL_METHODS, default=ev.RETRIEVAL_METHODS[0])


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    """--out, and one flag per SyntheticSpec field, at its default."""
    p.add_argument("--out", help="output directory (becomes the dataset directory)")
    for f in fields(io.SyntheticSpec):
        split = f.name == "split_mode"
        p.add_argument("--split" if split else "--" + f.name.replace("_", "-"),
                       type=type(f.default), choices=io.SYNTHETIC_SPLITS if split else None,
                       default=f.default, dest=f.name)


def _add_eval_flags(p: argparse.ArgumentParser) -> None:
    _add_checkpoint_flags(p)
    p.add_argument("--metric", choices=ev.METRICS, default=ev.METRICS[0])


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    _add_training_flags(p)
    p.add_argument("--lambda-grid", type=float, nargs="+", dest="lambda_grid")
    p.add_argument("--seeds", type=int, nargs="+")
    p.add_argument("--workers", type=int, default=1)


def _add_ablate_flags(p: argparse.ArgumentParser) -> None:
    _add_training_flags(p)
    p.add_argument("--suite", required=True, choices=sorted(tr.ABLATION_SUITES))
    p.add_argument("--seeds", type=int, nargs="+")


def _add_retrieve_flags(p: argparse.ArgumentParser) -> None:
    _add_checkpoint_flags(p)
    p.add_argument("--fractions", type=float, nargs="+", default=ev.DEFAULT_FRACTIONS)


# name: (help line, flag builder, handler)
COMMANDS = {
    "synth": ("write a synthetic benchmark dataset", _add_synth_flags, cmd_synth),
    "train": ("train on a dataset directory", _add_training_flags, cmd_train),
    "eval": ("evaluate a checkpoint on a dataset", _add_eval_flags, cmd_eval),
    "sweep": ("cross-validate the creativity weight", _add_sweep_flags, cmd_sweep),
    "ablate": ("run a named ablation suite", _add_ablate_flags, cmd_ablate),
    "retrieve": ("zero-shot retrieval scores", _add_retrieve_flags, cmd_retrieve),
}


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of `genzsl`. Every command is listed, but only the flags
    of `command` are built: building all six commands' flags would cost
    about a third of a short command's run time."""
    parser = argparse.ArgumentParser(
        prog="genzsl",
        description="Generative zero-shot learning toolkit (synthesis, training, "
                    "evaluation, sweeps, ablations, retrieval)")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_flags, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name == command:
            add_flags(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level options take no value, so the first other word is the command
    command = next((a for a in argv if not a.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    ctx = None  # stays None if the output directory cannot be made
    try:
        ctx = RunContext(args, args.command)
        args.func(args, ctx)
    except ValidationError as exc:
        return _fail(ctx, 2, f"validation error: {exc}")
    except NumericOverflowError as exc:
        return _fail(ctx, 3, f"numeric failure: {exc}")
    except (DataFormatError, OSError) as exc:
        return _fail(ctx, 4, f"io error: {exc}")
    ctx.write_manifest("ok")
    return 0


def _fail(ctx: RunContext | None, code: int, message: str) -> int:
    """Record `message` in a failed manifest, if there is a directory to
    write it to, and on stderr; returns the exit code `code`."""
    if ctx is not None:
        ctx.write_manifest("failed", message)
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
