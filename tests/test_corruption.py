"""Seeded corruption fuzz of the files the CLI reads.

A tiny saved dataset and checkpoint are damaged one way per trial: cut
short, a byte flipped in a header or a payload, a non-finite payload value,
a manifest value of the wrong JSON type, or a file deleted. `train --steps 0`,
`eval` and `retrieve` then read them. Whatever the damage, each exits 0, 2
or 4, never 1 with a traceback, and writes a run manifest whose status is
"ok" exactly when it exits 0.
"""

import json
import os
import shutil
import struct

import numpy as np
import pytest

from genzsl.cli import main

TRIALS = 150
HEADER_BYTES = 14   # a ZSLD matrix file's magic, version and shape; a manifest's opening
KINDS = ("truncate", "flip_header", "flip_payload", "non_finite", "wrong_type", "delete")
# one value of each JSON type; a manifest value is replaced by one of another type
JSON_VALUES = (None, True, 3, 2.5, "x", [], {})


def _value_paths(node, prefix=()):
    """Every key path below `node` in a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _value_paths(child, prefix + (key,))


def corrupt(path, kind, rng):
    """Damage the file at `path` in the way `kind` names."""
    if kind == "delete":
        os.remove(path)
        return
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    if kind == "truncate":
        data = data[:rng.integers(0, len(data))]
    elif kind in ("flip_header", "flip_payload"):
        lo, hi = (0, HEADER_BYTES) if kind == "flip_header" else (HEADER_BYTES, len(data))
        data[rng.integers(lo, hi)] ^= int(rng.integers(1, 256))
    elif kind == "non_finite":
        slot = HEADER_BYTES + 4 * rng.integers(0, (len(data) - HEADER_BYTES) // 4)
        data[slot:slot + 4] = struct.pack("<f", rng.choice([np.nan, np.inf, -np.inf]))
    else:   # wrong_type
        doc = json.loads(data)
        paths = list(_value_paths(doc))
        where = paths[rng.integers(len(paths))]
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        old = parent[where[-1]]
        choices = [v for v in JSON_VALUES if type(v) is not type(old)]
        parent[where[-1]] = choices[rng.integers(len(choices))]
        data = json.dumps(doc).encode()
    with open(path, "wb") as fh:
        fh.write(data)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A tiny dataset in `ds/` and an untrained checkpoint of it in `ckpt/`."""
    root = tmp_path_factory.mktemp("pristine")
    assert main(["synth", "--out", str(root / "ds"), "--k-seen", "3", "--k-unseen", "2",
                 "--visual-dim", "4", "--semantic-dim", "3",
                 "--samples-per-class", "8"]) == 0
    assert main(["train", "--data", str(root / "ds"), "--out", str(root / "run"),
                 "--steps", "0", "--set", "arch.hidden_dim=5",
                 "--set", "arch.noise_dim=2"]) == 0
    shutil.copytree(root / "run" / "checkpoint", root / "ckpt")
    return root


def commands(work, out):
    ds, ckpt = str(work / "ds"), str(work / "ckpt")
    small = ["--n-generate", "3"]
    return {
        "train": ["train", "--data", ds, "--out", out, "--steps", "0",
                  "--set", "arch.hidden_dim=5", "--set", "arch.noise_dim=2"],
        "eval": ["eval", "--checkpoint", ckpt, "--data", ds, "--out", out, *small],
        "retrieve": ["retrieve", "--checkpoint", ckpt, "--data", ds, "--out", out, *small],
    }


def test_damaged_inputs_fail_with_a_contract_code_and_a_manifest(pristine, tmp_path):
    rng = np.random.default_rng(20261021)
    files = sorted(os.path.join(d, f) for d in ("ds", "ckpt")
                   for f in os.listdir(pristine / d))
    manifests = [f for f in files if f.endswith("manifest.json")]
    matrices = [f for f in files if f.endswith(".zsld")]
    codes, non_finite_weights = set(), 0
    for trial in range(TRIALS):
        kind = KINDS[trial % len(KINDS)]
        pool = {"wrong_type": manifests, "non_finite": matrices}.get(kind, files)
        target = pool[rng.integers(len(pool))]
        work = tmp_path / f"trial{trial}"
        shutil.copytree(pristine / "ds", work / "ds")
        shutil.copytree(pristine / "ckpt", work / "ckpt")
        corrupt(work / target, kind, rng)
        for name, argv in commands(work, str(work / "out")).items():
            out = work / "out"
            shutil.rmtree(out, ignore_errors=True)
            code = main(argv)
            where = f"trial {trial}: {kind} of {target}, {name}"
            assert code in (0, 2, 4), where
            with open(out / "run_manifest.json", encoding="utf-8") as fh:
                status = json.load(fh)["status"]
            assert status == ("ok" if code == 0 else "failed"), where
            if kind == "non_finite" and target.startswith("ckpt") and name != "train":
                assert code == 4, where
                non_finite_weights += 1
            codes.add(code)
    assert codes == {0, 2, 4}
    assert non_finite_weights > 0
