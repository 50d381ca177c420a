"""Benchmark of the genzsl command: training and generalized zero-shot evaluation.

Run one workload from the repository root:

    python3 benchmarks/bench.py --workload train_classic --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones of BENCHMARK.json; with `--trace 1` they are the
per-layer ones. `--out FILE` also appends a fuller record of the run to FILE
(JSON lines), and

    python3 benchmarks/bench.py --compare BASE.jsonl NEW.jsonl

prints every metric of every workload in two such files side by side, with
the ratio and whether the change stays within the benchmark's bound.

The program is imported from `src/` next to this directory and nowhere else,
so the benchmark fails, printing no result, when that source is missing.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is first imported: on these small
# matrices a second thread measured slower, and the speed reference that
# scales every time depends on the setting too.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Import genzsl from this checkout's src/, or exit with an error."""
    sys.path.insert(0, SRC)
    try:
        import genzsl
    except ImportError as exc:
        sys.exit(f"bench: cannot import genzsl from {SRC}: {exc}")
    if not os.path.abspath(genzsl.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: genzsl resolved to {genzsl.__file__}, not under {SRC}")
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import workloads
    return workloads


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run(args, spec: dict) -> int:
    workloads = import_program()
    env = environment()
    workload = workloads.WORKLOADS[args.workload]
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    try:
        res = workloads.run(workload, args.seed, args.seconds, bool(args.trace), workdir,
                            per_layer=[m["name"] for m in spec["per_layer"]])
    except workloads.SetupError as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = res["per_layer"] if args.trace else res["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    result = {"correct": res["correct"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("samples " + " ".join(f"{k}={v}" for k, v in res["samples"].items()))
    ref_ms = res["raw"]["reference_ms"]
    print(f"speed reference: {len(ref_ms)} timings, median {statistics.median(ref_ms):.3f} ms, "
          f"range {min(ref_ms):.3f}-{max(ref_ms):.3f} ms")
    for problem in res["problems"]:
        print(f"FAILED CHECK: {problem}")
    if args.trace:
        spans = os.path.join(WORK, f"spans-{workload.name}-seed{args.seed}.csv.gz")
        res["tracer"].dump(spans)
        print(f"spans written to {os.path.relpath(spans, ROOT)}")
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    if args.out:
        record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "samples": res["samples"],
                  "problems": res["problems"], "raw": res["raw"], "result": result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def _medians(path: str) -> dict:
    """(workload, metric) -> median value over the runs recorded in `path`."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for name, m in rec["result"]["metrics"].items():
                    values.setdefault((rec["workload"], name), []).append(m["value"])
    return {key: statistics.median(v) for key, v in values.items()}


def compare(base_path: str, new_path: str, spec: dict) -> int:
    """Print every metric of both files; return 1 if an end-to-end metric
    got worse by more than its bound."""
    base, new = _medians(base_path), _medians(new_path)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    regressions = 0
    print(f"{'workload':<15} {'metric':<42} {'base':>12} {'new':>12} {'ratio':>8}  verdict")
    for workload, name in sorted(set(base) & set(new)):
        a, b = base[(workload, name)], new[(workload, name)]
        ratio = b / a if a else float("nan")
        verdict = "-"
        if name in bounds:
            lower = bounds[name]["better"] == "lower"
            worse = (b - a if lower else a - b) / abs(a) if a else 0.0
            verdict = "within bound" if worse <= bounds[name]["bound"] else "REGRESSION"
            regressions += verdict == "REGRESSION"
        print(f"{workload:<15} {name:<42} {a:>12.6g} {b:>12.6g} {ratio:>8.4f}  "
              f"{verdict} [{units.get(name, '?')}]")
    for workload, name in sorted(set(base) ^ set(new)):
        print(f"{workload:<15} {name:<42} only in {'base' if (workload, name) in base else 'new'}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append a JSON-lines record of the run to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two --out files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec)
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
