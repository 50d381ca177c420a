import json
import os

import numpy as np
import pytest

import genzsl.dataio as io
import genzsl.model as mo
from genzsl.errors import DataFormatError, ValidationError


class TestPhiloxStream:
    def test_pinned_vector(self):
        # alarm wire: if these drift, saved seeds no longer reproduce datasets
        g = io.philox(0, 0xDA7A)
        np.testing.assert_allclose(
            g.standard_normal(3),
            [-1.59086458, 0.50537587, -0.58855546],
            atol=1e-8,
        )
        np.testing.assert_allclose(
            io.philox(7, 1, 2).uniform(size=2),
            [0.07921795, 0.72379432],
            atol=1e-8,
        )

    def test_distinct_tags_give_distinct_streams(self):
        a = io.philox(3, 1).standard_normal(4)
        b = io.philox(3, 2).standard_normal(4)
        assert not np.allclose(a, b)


class TestMakeSynthetic:
    def test_exact_shapes(self):
        spec = io.SyntheticSpec(k_seen=5, k_unseen=3, visual_dim=10, semantic_dim=6,
                                samples_per_class=40)
        d = io.make_synthetic(spec)
        assert d.seen_features.shape == (200, 10)
        assert d.seen_labels.shape == (200,)
        assert d.seen_semantics.shape == (5, 6)
        assert d.unseen_semantics.shape == (3, 6)
        n_test = max(2, 40 // 4)
        assert d.seen_test_features.shape == (5 * n_test, 10)
        assert d.unseen_test_features.shape == (3 * n_test, 10)
        assert set(np.unique(d.unseen_test_labels)) == {5, 6, 7}

    def test_descriptors_are_an_exact_linear_image_without_noise(self):
        # square map, zero spread: features equal prototypes, so the map can
        # be solved from seen classes and must explain the unseen descriptors
        spec = io.SyntheticSpec(k_seen=8, k_unseen=4, visual_dim=8, semantic_dim=8,
                                samples_per_class=2, cluster_spread=0.0,
                                semantic_noise=0.0, seed=11)
        d = io.make_synthetic(spec)
        protos = d.class_means()
        M = np.linalg.solve(protos, d.seen_semantics)
        unseen_protos = np.stack([
            d.unseen_test_features[d.unseen_test_labels == 8 + k][0] for k in range(4)
        ])
        np.testing.assert_allclose(unseen_protos @ M, d.unseen_semantics, atol=1e-8)

    def test_easy_unseen_prototypes_sit_nearer_seen_ones_than_hard(self):
        for seed in range(10):
            easy = io.make_synthetic(io.SyntheticSpec(seed=seed, split_mode="easy"))
            hard = io.make_synthetic(io.SyntheticSpec(seed=seed, split_mode="hard"))

            def min_gap(d):
                seen_means = d.class_means()
                gaps = []
                for k in range(d.k_unseen):
                    mask = d.unseen_test_labels == d.k_seen + k
                    center = d.unseen_test_features[mask].mean(axis=0)
                    gaps.append(np.linalg.norm(seen_means - center, axis=1).min())
                return np.mean(gaps)

            assert min_gap(easy) < min_gap(hard)

    def test_same_seed_identical_datasets(self):
        a = io.make_synthetic(io.SyntheticSpec(seed=4))
        b = io.make_synthetic(io.SyntheticSpec(seed=4))
        assert a.seen_features.tobytes() == b.seen_features.tobytes()
        assert a.unseen_semantics.tobytes() == b.unseen_semantics.tobytes()

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            io.SyntheticSpec(k_seen=1)
        with pytest.raises(ValidationError):
            io.SyntheticSpec(split_mode="medium")
        with pytest.raises(ValidationError):
            io.SyntheticSpec(cluster_spread=-0.1)


class TestDatasetRoundTrip:
    def test_save_load_is_stable(self, tmp_path):
        d = io.make_synthetic(io.SyntheticSpec(samples_per_class=20))
        p1 = tmp_path / "ds1"
        io.save_dataset(d, str(p1))
        loaded1 = io.load_dataset(str(p1))
        p2 = tmp_path / "ds2"
        io.save_dataset(loaded1, str(p2))
        loaded2 = io.load_dataset(str(p2))
        for name in ("seen_features", "seen_semantics", "unseen_test_features"):
            assert getattr(loaded1, name).tobytes() == getattr(loaded2, name).tobytes()
        # narrowing to storage precision is the only loss
        np.testing.assert_allclose(loaded1.seen_features, d.seen_features, atol=1e-5)
        np.testing.assert_array_equal(loaded1.seen_labels, d.seen_labels)

    @pytest.mark.parametrize("failing_call", [1, 5, 9])
    def test_a_failed_replace_leaves_every_file_whole(self, tmp_path, monkeypatch,
                                                      failing_call):
        path = str(tmp_path / "ds")
        paths = io.save_dataset(io.make_synthetic(io.SyntheticSpec(samples_per_class=8)), path)
        assert [os.path.basename(p) for p in paths] == [
            *(f"{name}.zsld" for name in io._DATASET_FIELDS), "manifest.json"]
        old = {p: open(p, "rb").read() for p in paths}
        new_dir = str(tmp_path / "new")
        io.save_dataset(io.make_synthetic(io.SyntheticSpec(samples_per_class=8, seed=1)),
                        new_dir)
        new = {p: open(os.path.join(new_dir, os.path.basename(p)), "rb").read()
               for p in paths}
        replace, calls = os.replace, []

        def failing_replace(src, dst):
            calls.append(dst)
            if len(calls) == failing_call:
                raise OSError("no space left on device")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="no space"):
            io.save_dataset(io.make_synthetic(io.SyntheticSpec(samples_per_class=8, seed=1)),
                            path)
        # the files renamed before the failure are the new dataset's, the
        # one that failed and the rest the old one's; none is cut short
        k = failing_call - 1
        for p in paths:
            assert open(p, "rb").read() == (new if p in paths[:k] else old)[p]

    def test_truncated_matrix_file_is_reported_by_name(self, tmp_path):
        d = io.make_synthetic(io.SyntheticSpec(samples_per_class=8))
        path = tmp_path / "ds"
        io.save_dataset(d, str(path))
        victim = path / "seen_features.zsld"
        data = victim.read_bytes()
        victim.write_bytes(data[:-10])
        with pytest.raises(DataFormatError, match="seen_features.zsld"):
            io.load_dataset(str(path))

    def test_overlapping_label_ranges_rejected_on_load(self, tmp_path):
        d = io.make_synthetic(io.SyntheticSpec(samples_per_class=8))
        path = tmp_path / "ds"
        io.save_dataset(d, str(path))
        # overwrite unseen labels with seen-range ids
        io.write_matrix(str(path / "unseen_test_labels.zsld"),
                        np.zeros((len(d.unseen_test_labels), 1)))
        with pytest.raises(ValidationError, match="overlap"):
            io.load_dataset(str(path))

    @pytest.mark.parametrize("label", [0.5, 2.0**24 + 2, 1e30, np.inf])
    def test_labels_that_are_not_exact_integers_rejected(self, tmp_path, label):
        d = io.make_synthetic(io.SyntheticSpec(samples_per_class=8))
        path = tmp_path / "ds"
        io.save_dataset(d, str(path))
        labels = d.seen_labels[:, None].astype(np.float64)
        labels[0] = label
        io.write_matrix(str(path / "seen_labels.zsld"), labels)
        with pytest.raises(DataFormatError, match="seen_labels.zsld: labels must be integers"):
            io.load_dataset(str(path))

    @pytest.mark.parametrize("text", [b"{not json", b'{"format": "\xff"}'],
                             ids=["json", "utf8"])
    def test_malformed_manifest(self, tmp_path, text):
        path = tmp_path / "ds"
        os.makedirs(path)
        (path / "manifest.json").write_bytes(text)
        with pytest.raises(DataFormatError, match="malformed JSON"):
            io.load_dataset(str(path))

    def test_nan_entries_rejected(self, tmp_path):
        d = io.make_synthetic(io.SyntheticSpec(samples_per_class=8))
        path = tmp_path / "ds"
        io.save_dataset(d, str(path))
        bad = d.seen_features.copy()
        bad[0, 0] = np.nan
        io.write_matrix(str(path / "seen_features.zsld"), bad)
        with pytest.raises(ValidationError, match="non-finite"):
            io.load_dataset(str(path))

    def test_csv_fixture_import(self, tmp_path):
        path = tmp_path / "csvds"
        os.makedirs(path)

        def write_csv(name, rows):
            (path / name).write_text("\n".join(",".join(str(v) for v in r) for r in rows))

        write_csv("seen_features.csv", [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
        write_csv("seen_labels.csv", [[0], [0], [1], [1]])
        write_csv("seen_semantics.csv", [[1.0], [2.0]])
        write_csv("unseen_semantics.csv", [[3.0]])
        write_csv("unseen_test_features.csv", [[2.0, 2.0]])
        write_csv("unseen_test_labels.csv", [[2]])
        write_csv("seen_test_features.csv", [[1.0, 0.0]])
        write_csv("seen_test_labels.csv", [[0]])
        manifest = {
            "format": "zsl-dataset",
            "version": 1,
            "split_mode": "custom",
            "dims": {"visual": 2, "semantic": 1},
            "counts": {"k_seen": 2, "k_unseen": 1, "n_seen": 4,
                       "n_seen_test": 1, "n_unseen_test": 1},
            "files": {f: f + ".csv" for f in (
                "seen_features", "seen_labels", "seen_semantics", "unseen_semantics",
                "unseen_test_features", "unseen_test_labels", "seen_test_features",
                "seen_test_labels")},
        }
        (path / "manifest.json").write_text(json.dumps(manifest))
        d = io.load_dataset(str(path))
        assert d.k_seen == 2 and d.k_unseen == 1
        np.testing.assert_allclose(d.seen_features[0], [1.0, 0.0])


from genzsl.diffmath import ParamStore


def _small_model(segc=False):
    arch = mo.ArchSpec(semantic_dim=6, visual_dim=8, noise_dim=3, hidden_dim=10)
    gen, disc = mo.init_params(arch, 4, segc, io.philox(5, 99))
    div = ParamStore({"u_gamma": np.array(0.54), "u_beta": np.array(0.54)})
    return mo.ModelParams(gen, disc, div)


class TestCheckpointRoundTrip:
    def test_tensor_round_trip_is_stable(self, tmp_path):
        params = _small_model()
        cfg = {"n_steps": 10, "lr": 0.001}
        p1 = tmp_path / "ck1"
        io.save_checkpoint(params, cfg, str(p1))
        loaded1, cfg1 = io.load_checkpoint(str(p1))
        assert cfg1 == cfg
        p2 = tmp_path / "ck2"
        io.save_checkpoint(loaded1, cfg1, str(p2))
        loaded2, _ = io.load_checkpoint(str(p2))
        for store1, store2 in ((loaded1.generator.store, loaded2.generator.store),
                               (loaded1.discriminator.store, loaded2.discriminator.store),
                               (loaded1.divergence, loaded2.divergence)):
            assert list(store1) == list(store2)
            for name in store1:
                assert store1[name].tobytes() == store2[name].tobytes()

    def test_shapes_and_flags_survive(self, tmp_path):
        params = _small_model(segc=True)
        io.save_checkpoint(params, {}, str(tmp_path / "ck"))
        loaded, _ = io.load_checkpoint(str(tmp_path / "ck"))
        assert loaded.discriminator.segc is True
        assert loaded.generator.store["reduce.W"].shape == (6, 3)
        assert loaded.divergence["u_gamma"].shape == ()

    def test_version_mismatch_refused(self, tmp_path):
        params = _small_model()
        io.save_checkpoint(params, {}, str(tmp_path / "ck"))
        mpath = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["version"] = 99
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(DataFormatError, match="version"):
            io.load_checkpoint(str(tmp_path / "ck"))

    def test_resumed_evaluation_matches_pre_save(self, tmp_path):
        from genzsl import evaluation as ev
        params = _small_model()
        d = io.make_synthetic(io.SyntheticSpec(k_seen=4, k_unseen=2, visual_dim=8,
                                               semantic_dim=6, samples_per_class=12))
        io.save_checkpoint(params, {}, str(tmp_path / "ck"))
        loaded, _ = io.load_checkpoint(str(tmp_path / "ck"))
        r1 = ev.evaluate_model(loaded.generator, d, 10, io.philox(1, 2))
        io.save_checkpoint(loaded, {}, str(tmp_path / "ck2"))
        reloaded, _ = io.load_checkpoint(str(tmp_path / "ck2"))
        r2 = ev.evaluate_model(reloaded.generator, d, 10, io.philox(1, 2))
        assert r1.top1_unseen == r2.top1_unseen
        assert r1.su_auc == r2.su_auc
        assert r1.retrieval_map == r2.retrieval_map
