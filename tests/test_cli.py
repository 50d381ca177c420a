import json
import os

import numpy as np
import pytest

import genzsl.dataio as io
import genzsl.training as tr
from genzsl import cli
from genzsl.cli import main

SMALL_DS = ["--k-seen", "5", "--k-unseen", "2", "--visual-dim", "8",
            "--semantic-dim", "6", "--samples-per-class", "12"]
SMALL_TRAIN = ["--steps", "4", "--batch-size", "8",
               "--set", "eval_every=2", "--set", "arch.hidden_dim=10",
               "--set", "arch.noise_dim=3", "--set", "n_generate_eval=6"]


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
        for name in gen0.store.names():
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

    @pytest.mark.parametrize("config, extra, code", [
        ({"n_steps": "x"}, [], 2),
        ({"arch": {"hidden_dim": "8"}}, [], 2),
        ({"batch_size": 1.5}, [], 2),
        ({"class_balanced": 1}, [], 2),
        ([], ["--steps", "4"], 2),
        ({}, ["--set", "n_steps=true", "--set", "eval_every=1"], 2),
        ({"lr": 1, "arch": {"reduced_dim": None}}, SMALL_TRAIN, 0),
    ], ids=["string-for-int", "nested-string-for-int", "float-for-int", "int-for-bool",
            "list-root", "bool-for-int", "int-for-float-and-null"])
    def test_config_values_must_have_their_field_type(self, tmp_path, config, extra, code):
        ds = synth(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        run = tmp_path / "run"
        assert main(["train", "--data", ds, "--out", str(run),
                     "--config", str(cfg_path), *extra]) == code
        manifest = json.loads((run / "run_manifest.json").read_text())
        assert manifest["status"] == ("ok" if code == 0 else "failed")
        if code == 0:
            assert manifest["config"]["lr"] == 1.0
            assert manifest["config"]["arch"]["reduced_dim"] is None

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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_numeric_overflow_exits_3_naming_the_step_and_player(self, tmp_path):
        ds = synth(tmp_path)
        run = tmp_path / "run"
        assert main(["train", "--data", ds, "--out", str(run), *SMALL_TRAIN,
                     "--set", "lr=1e300"]) == 3
        manifest = json.loads((run / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "step 1, discriminator" in manifest["error"]

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
    ], ids=["missing-arch", "unknown-arch-key", "size-mismatch", "shape-mismatch",
            "config-list", "seed-string", "float-shape", "float-width", "float-k-seen"])
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

    def test_parallel_workers_match_serial_results(self, tmp_path):
        ds = synth(tmp_path)
        blobs = {}
        for name, workers in (("serial", "1"), ("parallel", "2")):
            out = tmp_path / name
            assert main(["sweep", "--data", ds, "--out", str(out), *SMALL_TRAIN,
                         "--lambda-grid", "0.05", "--seeds", "1", "2",
                         "--workers", workers]) == 0
            blobs[name] = (out / "sweep.csv").read_bytes()
        assert blobs["serial"] == blobs["parallel"]


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
          split="hard", seed=0)),
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
