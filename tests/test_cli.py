import dataclasses
import inspect
import json
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import genzsl.dataio as io
import genzsl.evaluation as ev
import genzsl.training as tr
from genzsl import cli
from genzsl.cli import main

SMALL_DS = ["--k-seen", "5", "--k-unseen", "2", "--visual-dim", "8",
            "--semantic-dim", "6", "--samples-per-class", "12"]
SMALL_TRAIN = ["--steps", "4", "--batch-size", "8",
               "--set", "eval_every=2", "--set", "arch.hidden_dim=10",
               "--set", "arch.noise_dim=3", "--set", "n_generate_eval=6"]


# Scores a multi-block evaluation on threads, then starts sweep workers that
# score multi-block evaluations of their own.
SWEEP_AFTER_THREADED_SCORING = """
import sys, threading
import genzsl.dataio as io
import genzsl.evaluation as ev
import genzsl.model as mo
from genzsl.cli import main

# two scoring threads in this process, whatever the BLAS setting and the
# core count
ev._score_workers = lambda blocks: min(blocks, 2)
data, out, n_generate, *train = sys.argv[1:]
d = io.load_dataset(data)
arch = mo.ArchSpec(semantic_dim=d.semantic_dim, visual_dim=d.visual_dim, noise_dim=3,
                   hidden_dim=10)
gen, _ = mo.init_params(arch, d.k_seen, False, io.philox(8, 0))
ev.evaluate_model(gen, d, int(n_generate), io.philox(9, 0), with_retrieval=False)
assert threading.active_count() == 1
sys.exit(main(["sweep", "--data", data, "--out", out, *train,
               "--lambda-grid", "0.05", "--seeds", "1", "2", "--workers", "2"]))
"""


def multi_block_n_generate(ds_dir):
    """Pool size at which the dataset's mixed test set spans several blocks."""
    d = io.load_dataset(ds_dir)
    classes = d.k_seen + d.k_unseen
    n_generate = ev.SCORE_BLOCK_BYTES // (8 * classes * 4)
    rows = ev.SCORE_BLOCK_BYTES // (8 * classes * n_generate)
    assert len(d.seen_test_labels) + len(d.unseen_test_labels) > 2 * rows
    return n_generate


def synth(tmp_path, seed=3, extra=()):
    out = str(tmp_path / "ds")
    assert main(["synth", "--out", out, "--seed", str(seed), *SMALL_DS, *extra]) == 0
    return out


class TestSynth:
    def test_dataset_is_loadable_by_train(self, tmp_path):
        ds = synth(tmp_path)
        run = str(tmp_path / "run")
        assert main(["train", "--data", ds, "--out", run, *SMALL_TRAIN]) == 0
        assert os.path.exists(os.path.join(run, "checkpoint", "manifest.json"))

    def test_invalid_dims_exit_2_without_partial_files(self, tmp_path):
        out = str(tmp_path / "bad")
        code = main(["synth", "--out", out, "--k-seen", "0"])
        assert code == 2
        leftovers = [f for f in os.listdir(out) if f != "run_manifest.json"]
        assert leftovers == []
        manifest = json.loads((tmp_path / "bad" / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"

    def test_no_flags_write_the_default_spec(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["synth", "--out", str(out)]) == 0
        io.save_dataset(io.make_synthetic(io.SyntheticSpec()), str(tmp_path / "lib"))
        names = sorted(os.listdir(tmp_path / "lib"))
        assert names == sorted(set(os.listdir(out)) - {"run_manifest.json"})
        for name in names:
            assert (out / name).read_bytes() == (tmp_path / "lib" / name).read_bytes(), name
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"] == dataclasses.asdict(io.SyntheticSpec())

    def test_seed_repeat_gives_identical_bytes(self, tmp_path):
        a = synth(tmp_path / "a", seed=9)
        b = synth(tmp_path / "b", seed=9)
        for name in sorted(os.listdir(a)):
            if name.endswith(".zsld"):
                assert (open(os.path.join(a, name), "rb").read()
                        == open(os.path.join(b, name), "rb").read())


class TestTrainCommand:
    def test_zero_steps_checkpoint_equals_init(self, tmp_path):
        ds_dir = synth(tmp_path)
        run = str(tmp_path / "run")
        assert main(["train", "--data", ds_dir, "--out", run, "--steps", "0",
                     "--seed", "7", "--set", "arch.hidden_dim=10",
                     "--set", "arch.noise_dim=3"]) == 0
        params, snapshot = io.load_checkpoint(os.path.join(run, "checkpoint"))
        dataset = io.load_dataset(ds_dir)
        cfg = tr.config_from_dict(snapshot)
        import genzsl.model as mo
        gen0, _ = mo.init_params(cfg.arch.resolve(dataset), dataset.k_seen, False,
                                 io.philox(7, tr.TAG_INIT))
        for name in gen0.store:
            np.testing.assert_allclose(params.generator.store[name],
                                       gen0.store[name], atol=1e-6)

    def test_lambda_override_supersedes_config(self, tmp_path):
        ds = synth(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"loss": {"lambda_creativity": 0.9}}))
        run = str(tmp_path / "run")
        assert main(["train", "--data", ds, "--out", run, "--config", str(cfg_path),
                     "--lambda", "0.25", *SMALL_TRAIN]) == 0
        manifest = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
        assert manifest["config"]["loss"]["lambda_creativity"] == 0.25

    def test_emits_all_three_artifacts(self, tmp_path):
        ds = synth(tmp_path)
        run = tmp_path / "run"
        assert main(["train", "--data", ds, "--out", str(run), *SMALL_TRAIN]) == 0
        assert (run / "checkpoint" / "manifest.json").exists()
        assert (run / "history.csv").exists()
        manifest = json.loads((run / "run_manifest.json").read_text())
        assert manifest["status"] == "ok"
        for path in manifest["outputs"]:
            assert os.path.exists(path)

    @pytest.mark.parametrize("corrupt", [
        lambda m: m.update(counts=[]) or m,
        lambda m: [],
        lambda m: m["files"].update(seen_features=3) or m,
    ], ids=["counts-list", "top-level-list", "file-name-number"])
    def test_malformed_dataset_manifest_exits_4(self, tmp_path, corrupt):
        ds = synth(tmp_path)
        path = os.path.join(ds, "manifest.json")
        with open(path, encoding="utf-8") as fh:
            manifest = corrupt(json.load(fh))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        run = tmp_path / "run"
        assert main(["train", "--data", ds, "--out", str(run), *SMALL_TRAIN]) == 4
        assert json.loads((run / "run_manifest.json").read_text())["status"] == "failed"

    @pytest.mark.parametrize("config, extra, code, field", [
        ({"n_steps": "x"}, [], 2, "n_steps"),
        ({"arch": {"hidden_dim": "8"}}, [], 2, "hidden_dim"),
        ({"batch_size": 1.5}, [], 2, "batch_size"),
        ({"class_balanced": 1}, [], 2, "class_balanced"),
        ([], ["--steps", "4"], 2, "config"),
        ({}, ["--set", "n_steps=true", "--set", "eval_every=1"], 2, "n_steps"),
        # non-finite numbers: JSON's NaN and Infinity, given in a file or by --set
        ({"lr": float("nan")}, SMALL_TRAIN, 2, "lr"),
        ({}, [*SMALL_TRAIN, "--set", "lr=Infinity"], 2, "lr"),
        ({"loss": {"segc_active": True, "segc_normalized": True}},
         [*SMALL_TRAIN, "--set", "loss.eta=NaN"], 2, "eta"),
        ({}, [*SMALL_TRAIN, "--set", "loss.divergence.gamma=NaN"], 2, "gamma"),
        ({}, [*SMALL_TRAIN, "--set", "loss.divergence.beta=Infinity"], 2, "beta"),
        # an interval is exactly a [lo, hi] pair
        ({}, [*SMALL_TRAIN, "--set", 'policy={"intervals":[[0.2,0.5,0.7]]}'], 2, "intervals"),
        ({}, [*SMALL_TRAIN, "--set", 'policy={"intervals":[[]]}'], 2, "intervals"),
        ({"lr": 1, "arch": {"reduced_dim": None}}, SMALL_TRAIN, 0, None),
    ], ids=["string-for-int", "nested-string-for-int", "float-for-int", "int-for-bool",
            "list-root", "bool-for-int", "nan-lr", "infinite-lr", "nan-eta", "nan-gamma",
            "infinite-beta", "three-item-interval", "empty-interval",
            "int-for-float-and-null"])
    def test_config_values_must_have_their_field_type(self, tmp_path, config, extra, code,
                                                      field):
        ds = synth(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        run = tmp_path / "run"
        assert main(["train", "--data", ds, "--out", str(run),
                     "--config", str(cfg_path), *extra]) == code
        manifest = json.loads((run / "run_manifest.json").read_text())
        assert manifest["status"] == ("ok" if code == 0 else "failed")
        if code:
            assert field in manifest["error"]
        if code == 0:
            assert manifest["config"]["lr"] == 1.0
            assert manifest["config"]["arch"]["reduced_dim"] is None

    def test_config_that_is_not_utf8_exits_4_with_a_manifest(self, tmp_path):
        ds = synth(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b'{"lr": \xff}')
        run = tmp_path / "run"
        assert main(["train", "--data", ds, "--out", str(run),
                     "--config", str(cfg_path), *SMALL_TRAIN]) == 4
        manifest = json.loads((run / "run_manifest.json").read_text())
        assert manifest["status"] == "failed" and "malformed JSON" in manifest["error"]

    def test_leak_outside_the_unit_interval_exits_2_with_a_manifest(self, tmp_path):
        ds = synth(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"arch": {"leak": 1.5}}))
        run = tmp_path / "run"
        assert main(["train", "--data", ds, "--out", str(run),
                     "--config", str(cfg_path), *SMALL_TRAIN]) == 2
        manifest = json.loads((run / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "leak" in manifest["error"]

    def test_numeric_overflow_exits_3_naming_the_step_and_player(self, tmp_path):
        ds = synth(tmp_path)
        run = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--data", ds, "--out", str(run), *SMALL_TRAIN,
                         "--set", "lr=1e300"])
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert code == 3
        manifest = json.loads((run / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "step 1, discriminator" in manifest["error"]

    def test_manifest_records_no_degenerate_events_on_a_clean_run(self, tmp_path):
        ds = synth(tmp_path)
        run = tmp_path / "run"
        assert main(["train", "--data", ds, "--out", str(run), *SMALL_TRAIN]) == 0
        manifest = json.loads((run / "run_manifest.json").read_text())
        assert manifest["degenerate_events"] == {}

    def test_manifest_records_the_degenerate_events_of_the_run(self, tmp_path):
        # an all-zero seen descriptor has no norm for the normalized head
        ds_dir = synth(tmp_path)
        dataset = io.load_dataset(ds_dir)
        semantics = dataset.seen_semantics.copy()
        semantics[0] = 0.0
        zero_ds = str(tmp_path / "zero")
        io.save_dataset(dataclasses.replace(dataset, seen_semantics=semantics), zero_ds)
        run = tmp_path / "run"
        assert main(["train", "--data", zero_ds, "--out", str(run), *SMALL_TRAIN,
                     "--set", "loss.segc_active=true",
                     "--set", "loss.segc_normalized=true"]) == 0
        manifest = json.loads((run / "run_manifest.json").read_text())
        assert manifest["degenerate_events"]["degenerate_zero_norm"] > 0

    def test_missing_dataset_exits_4(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "run")]) == 4


class TestEvalAndRetrieve:
    @pytest.fixture()
    def trained(self, tmp_path):
        ds = synth(tmp_path)
        run = str(tmp_path / "run")
        assert main(["train", "--data", ds, "--out", run, *SMALL_TRAIN]) == 0
        return ds, os.path.join(run, "checkpoint")

    def test_eval_writes_report_and_curve(self, tmp_path, trained):
        ds, ckpt = trained
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", ckpt, "--data", ds, "--out", str(out),
                     "--n-generate", "6"]) == 0
        report = (out / "eval_report.csv").read_text().splitlines()
        assert report[0].startswith("top1_unseen,su_auc,harmonic_mean")
        curve = (out / "su_curve.csv").read_text().splitlines()
        assert curve[0] == "seen_acc,unseen_acc"
        assert all(len(line.split(",")) == 2 for line in curve[1:])
        seen, unseen = np.array([[float(v) for v in line.split(",")]
                                 for line in curve[1:]]).T
        assert np.isfinite(seen).all() and np.isfinite(unseen).all()
        assert unseen[0] == 0.0 and seen[-1] == 0.0
        assert (np.diff(seen) <= 0).all() and (np.diff(unseen) >= 0).all()

    def test_retrieve_writes_fraction_rows(self, tmp_path, trained):
        ds, ckpt = trained
        out = tmp_path / "ret"
        assert main(["retrieve", "--checkpoint", ckpt, "--data", ds, "--out", str(out),
                     "--fractions", "0.5", "1.0", "--n-generate", "6"]) == 0
        lines = (out / "retrieval.csv").read_text().splitlines()
        assert lines[0] == "fraction,map"
        assert len(lines) == 3

    @pytest.mark.parametrize("method,last", [("precision", "0.16666666666666666"),
                                             ("average_precision", "0.13888888888888887")])
    def test_retrieve_draws_its_own_unseen_pool(self, tmp_path, method, last):
        # retrieve queries with the means of an unseen-class pool of its own,
        # drawn first from the evaluation stream; pinned, so that eval's
        # sharing one pool for the whole battery leaves these bytes alone
        ds = synth(tmp_path, extra=("--k-unseen", "4"))
        run, out = tmp_path / "run", tmp_path / "ret"
        assert main(["train", "--data", ds, "--out", str(run), *SMALL_TRAIN]) == 0
        assert main(["retrieve", "--checkpoint", str(run / "checkpoint"), "--data", ds,
                     "--out", str(out), "--n-generate", "6", "--method", method]) == 0
        assert (out / "retrieval.csv").read_text() == (
            f"fraction,map\n0.25,0.25\n0.5,0.125\n1.0,{last}\n")

    @pytest.mark.parametrize("corrupt", [
        lambda m: m.pop("arch"),
        lambda m: m["arch"].update(depth=3),
        lambda m: m["tensors"]["gen/h0.W"].update(shape=[6, 9]),
        lambda m: m["tensors"]["gen/h0.W"].update(shape=[10, 6]),
        lambda m: m.update(config=[]),
        lambda m: m["config"].update(seed="x"),
        lambda m: m["tensors"]["gen/h0.W"].update(
            shape=[float(n) for n in m["tensors"]["gen/h0.W"]["shape"]]),
        lambda m: m["arch"].update(hidden_dim=m["arch"]["hidden_dim"] + 0.5),
        lambda m: m.update(k_seen=m["k_seen"] + 0.5),
        lambda m: m["tensors"]["gen/h0.W"].update(
            shape=[-n for n in m["tensors"]["gen/h0.W"]["shape"]]),
    ], ids=["missing-arch", "unknown-arch-key", "size-mismatch", "shape-mismatch",
            "config-list", "seed-string", "float-shape", "float-width", "float-k-seen",
            "negative-shape"])
    def test_malformed_checkpoint_manifest_exits_4(self, tmp_path, trained, corrupt):
        ds, ckpt = trained
        path = os.path.join(ckpt, "manifest.json")
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        corrupt(manifest)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", ckpt, "--data", ds, "--out", str(out)]) == 4
        assert json.loads((out / "run_manifest.json").read_text())["status"] == "failed"

    @pytest.mark.parametrize("count,value", [(1, np.nan), (64, np.inf)], ids=["nan", "inf"])
    @pytest.mark.parametrize("command", ["eval", "retrieve"])
    def test_non_finite_weights_exit_4_naming_the_tensor(self, tmp_path, trained, command,
                                                        count, value):
        ds, ckpt = trained
        path = os.path.join(ckpt, "t000.zsld")
        weights = io.read_matrix(path)
        weights.flat[:count] = value
        io.write_matrix(path, weights)
        out = tmp_path / "out"
        assert main([command, "--checkpoint", ckpt, "--data", ds, "--out", str(out),
                     "--n-generate", "6"]) == 4
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "gen/" in manifest["error"] and "non-finite" in manifest["error"]
        assert os.listdir(out) == ["run_manifest.json"]

    @pytest.mark.parametrize("width", ["visual_dim", "semantic_dim"])
    @pytest.mark.parametrize("command", ["eval", "retrieve"])
    def test_width_mismatch_exits_2_naming_the_width(self, tmp_path, trained, command,
                                                     width):
        _, ckpt = trained
        flag = "--" + width.replace("_", "-")
        other = synth(tmp_path / "other", extra=[flag, "11"])
        out = tmp_path / "out"
        assert main([command, "--checkpoint", ckpt, "--data", other, "--out", str(out),
                     "--n-generate", "6"]) == 2
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert width in manifest["error"]

    def test_retrieve_without_unseen_classes_exits_2(self, tmp_path, trained):
        ds, ckpt = trained
        d = io.load_dataset(ds)
        no_unseen = dataclasses.replace(d, unseen_semantics=d.unseen_semantics[:0],
                                        unseen_test_features=d.unseen_test_features[:0],
                                        unseen_test_labels=d.unseen_test_labels[:0])
        empty = str(tmp_path / "no_unseen")
        io.save_dataset(no_unseen, empty)
        out = tmp_path / "ret"
        assert main(["retrieve", "--checkpoint", ckpt, "--data", empty, "--out", str(out),
                     "--n-generate", "6"]) == 2
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert os.listdir(out) == ["run_manifest.json"]

    def test_checkpoint_determinism_across_invocations(self, tmp_path, trained):
        ds, ckpt = trained
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert main(["eval", "--checkpoint", ckpt, "--data", ds,
                         "--out", str(out), "--n-generate", "6", "--seed", "5"]) == 0
            outs.append((out / "eval_report.csv").read_bytes())
        assert outs[0] == outs[1]


class TestSweep:
    def test_single_cell_grid_gives_one_row_matching_cross_validate(self, tmp_path):
        ds = synth(tmp_path)
        out = tmp_path / "sw"
        assert main(["sweep", "--data", ds, "--out", str(out), *SMALL_TRAIN,
                     "--lambda-grid", "0.05", "--seeds", "3"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 2  # header + one cell
        winners = (out / "winners.csv").read_text().splitlines()
        from dataclasses import replace
        dataset = io.load_dataset(ds)
        cfg = tr.config_from_dict(json.loads(
            (out / "run_manifest.json").read_text())["config"])
        res = tr.cross_validate(dataset, replace(cfg, seed=3))
        seed, lam, step, metric = winners[1].split(",")
        assert float(lam) == res.best_lambda
        assert int(step) == res.best_step

    def test_byte_identical_csv_on_repeat(self, tmp_path):
        ds = synth(tmp_path)
        blobs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert main(["sweep", "--data", ds, "--out", str(out), *SMALL_TRAIN,
                         "--lambda-grid", "0.0", "0.1", "--seeds", "1"]) == 0
            blobs.append((out / "sweep.csv").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("blas", ["pinned", "default"])
    def test_parallel_workers_match_serial_results(self, tmp_path, blas, monkeypatch):
        for var in ev.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        if blas == "pinned":
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        before = dict(os.environ)
        ds = synth(tmp_path)
        blobs = {}
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert main(["sweep", "--data", ds, "--out", str(out), *SMALL_TRAIN,
                         "--lambda-grid", "0.0", "0.05", "--seeds", "1", "2",
                         "--workers", workers]) == 0
            blobs[workers] = [(out / f).read_bytes() for f in ("sweep.csv", "winners.csv")]
            assert dict(os.environ) == before
        assert blobs["1"] == blobs["2"]

    def test_blas_is_pinned_only_while_workers_run(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        with cli._blas_pinned():
            assert [os.environ[v] for v in ev.BLAS_THREAD_VARS] == ["1", "1", "1"]
        assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
        assert "MKL_NUM_THREADS" not in os.environ
        assert os.environ["OMP_NUM_THREADS"] == "2"

    def test_workers_start_cleanly_after_threaded_scoring(self, tmp_path):
        ds = synth(tmp_path)
        n_generate = multi_block_n_generate(ds)
        train = [*SMALL_TRAIN, "--set", f"n_generate_eval={n_generate}"]
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        # a session of its own, so that a hung worker is killed with its parent
        proc = subprocess.Popen([sys.executable, "-c", SWEEP_AFTER_THREADED_SCORING, ds,
                                 str(tmp_path / "parallel"), str(n_generate), *train],
                                stderr=subprocess.PIPE, text=True, start_new_session=True,
                                env=dict(os.environ, PYTHONPATH=path))
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the parallel sweep did not finish within 120 s")
        assert proc.returncode == 0, err
        assert main(["sweep", "--data", ds, "--out", str(tmp_path / "serial"), *train,
                     "--lambda-grid", "0.05", "--seeds", "1", "2"]) == 0
        assert ((tmp_path / "parallel" / "sweep.csv").read_bytes()
                == (tmp_path / "serial" / "sweep.csv").read_bytes())

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_fewer_than_one_worker_exits_2_naming_the_flag(self, tmp_path, workers):
        ds = synth(tmp_path)
        out = tmp_path / "sw"
        assert main(["sweep", "--data", ds, "--out", str(out), *SMALL_TRAIN,
                     "--lambda-grid", "0.05", "--seeds", "1", "--workers", workers]) == 2
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "--workers" in manifest["error"]
        assert not (out / "sweep.csv").exists()


class TestAblate:
    def test_policy_suite_emits_five_named_rows(self, tmp_path):
        ds = synth(tmp_path)
        out = tmp_path / "abl"
        assert main(["ablate", "--data", ds, "--out", str(out), *SMALL_TRAIN,
                     "--suite", "hallucination-policies"]) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        labels = [line.split(",")[0] for line in lines[1:]]
        assert labels == [name for name, _ in
                          tr.ABLATION_SUITES["hallucination-policies"]]
        assert len(labels) == 5

    def test_unknown_suite_is_an_argparse_error(self, tmp_path):
        ds = synth(tmp_path)
        with pytest.raises(SystemExit):
            main(["ablate", "--data", ds, "--out", str(tmp_path / "x"),
                  "--suite", "bogus"])


class TestOutDirDiscipline:
    def test_no_writes_outside_out(self, tmp_path, monkeypatch):
        ds = synth(tmp_path)
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        run = tmp_path / "run"
        assert main(["train", "--data", ds, "--out", str(run), *SMALL_TRAIN]) == 0
        assert list(workdir.iterdir()) == []

    def test_env_var_selects_default_out(self, tmp_path, monkeypatch):
        ds = synth(tmp_path)
        target = tmp_path / "envout"
        monkeypatch.setenv("GENZSL_OUT", str(target))
        assert main(["train", "--data", ds, *SMALL_TRAIN]) == 0
        assert (target / "history.csv").exists()

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_out_that_cannot_be_made_exits_4_as_an_io_error(self, tmp_path, command, capsys):
        argv = ["synth"] if command == "synth" else \
            ["train", "--data", synth(tmp_path), *SMALL_TRAIN]
        blocker = tmp_path / "file"
        blocker.write_text("")
        # no manifest can be written below a regular file
        assert main([*argv, "--out", str(blocker / "run")]) == 4
        assert capsys.readouterr().err.startswith("io error: ")


def test_write_csv_spells_each_value_type_exactly(tmp_path):
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), ["a", "b", "c", "d", "e"], [
        [True, np.bool_(False), 3, np.int64(-7), np.float64(1 / 3)],
        [0.1, 1e-20, float("nan"), np.float32(0.1), "a,b"],
        [2.0, -0.0, float("inf"), np.float64(5.0), "plain"],
    ])
    assert path.read_bytes() == (
        b"a,b,c,d,e\r\n"
        b"True,False,3,-7,0.3333333333333333\r\n"
        b'0.1,1e-20,nan,0.10000000149011612,"a,b"\r\n'
        b"2.0,-0.0,inf,5.0,plain\r\n")


TRAINING_DEFAULTS = dict(out=None, config=None, set=None, steps=None, seed=None,
                         batch_size=None, policy=None, lam=None)

# one representative command line per subcommand, and the namespace it parsed
# to when the parser built every subcommand's flags
PARSED = [
    (["synth", "--out", "d", "--k-seen", "5", "--split", "hard", "--cluster-spread", "0.3"],
     dict(command="synth", func="cmd_synth", out="d", k_seen=5, k_unseen=4, visual_dim=32,
          semantic_dim=16, samples_per_class=200, cluster_spread=0.3, semantic_noise=0.0,
          split_mode="hard", seed=0)),
    (["train", "--data", "d", "--out", "o", "--config", "c.json", "--set", "a=1", "--set",
      "b=2", "--steps", "4", "--seed", "7", "--batch-size", "8", "--policy", "all",
      "--lambda", "0.5"],
     dict(command="train", func="cmd_train", data="d", out="o", config="c.json",
          set=["a=1", "b=2"], steps=4, seed=7, batch_size=8, policy="all", lam=0.5)),
    (["eval", "--checkpoint", "k", "--data", "d", "--metric", "cosine", "--method",
      "average_precision"],
     dict(command="eval", func="cmd_eval", checkpoint="k", data="d", out=None, seed=None,
          n_generate=60, method="average_precision", metric="cosine")),
    (["sweep", "--data", "d", "--lambda-grid", "0.1", "1", "--seeds", "1", "2",
      "--workers", "2"],
     dict(TRAINING_DEFAULTS, command="sweep", func="cmd_sweep", data="d",
          lambda_grid=[0.1, 1.0], seeds=[1, 2], workers=2)),
    (["ablate", "--data", "d", "--suite", "semantic-categorizer", "--seeds", "3"],
     dict(TRAINING_DEFAULTS, command="ablate", func="cmd_ablate", data="d",
          suite="semantic-categorizer", seeds=[3])),
    (["retrieve", "--checkpoint", "k", "--data", "d", "--fractions", "0.5",
      "--n-generate", "9", "--seed", "4"],
     dict(command="retrieve", func="cmd_retrieve", checkpoint="k", data="d", out=None,
          seed=4, n_generate=9, method="precision", fractions=[0.5])),
]


class TestArgumentParsing:
    """The parser builds only the invoked command's flags."""

    @pytest.mark.parametrize("argv,expected", PARSED, ids=[a[0] for a, _ in PARSED])
    def test_each_command_parses_to_its_namespace(self, argv, expected):
        ns = vars(cli.build_parser(argv[0]).parse_args(argv))
        ns["func"] = ns["func"].__name__
        assert ns == expected

    @pytest.mark.parametrize("command", ["eval", "retrieve"])
    def test_eval_and_retrieve_parse_to_the_library_defaults(self, command):
        ns = cli.build_parser(command).parse_args([command, "--checkpoint", "k", "--data", "d"])
        evaluate = inspect.signature(ev.evaluate_model).parameters
        retrieve = inspect.signature(ev.retrieval_map).parameters
        assert ns.n_generate == tr.TrainConfig().n_generate_eval
        assert ns.method == evaluate["retrieval_method"].default == retrieve["method"].default
        if command == "eval":
            assert ns.metric == evaluate["metric"].default
        else:
            assert tuple(ns.fractions) == retrieve["fractions"].default == ev.DEFAULT_FRACTIONS

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        listing = capsys.readouterr().out
        for name, (help_line, _, _) in cli.COMMANDS.items():
            assert f"{name}" in listing and help_line in listing

    def test_command_help_lists_its_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--lambda-grid" in text and "--workers" in text and "--data" in text

    @pytest.mark.parametrize("argv", [["bogus"], ["train", "--data", "d", "--bogus"],
                                      ["train"], []])
    def test_unknown_commands_and_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
