import json
from dataclasses import asdict

import numpy as np
import pytest

import genzsl.dataio as io
import genzsl.divergences as dv
import genzsl.hallucination as hl
import genzsl.losses as ls
import genzsl.training as tr
from genzsl.errors import ValidationError


def tiny_dataset(seed=0, k_seen=5, k_unseen=2, split="easy"):
    return io.make_synthetic(io.SyntheticSpec(
        k_seen=k_seen, k_unseen=k_unseen, visual_dim=8, semantic_dim=6,
        samples_per_class=16, split_mode=split, seed=seed))


def tiny_cfg(**kw):
    defaults = dict(
        n_steps=4, batch_size=8, n_d=2, eval_every=2, seed=1, n_generate_eval=6,
        arch=tr.ArchConfig(hidden_dim=10, noise_dim=3),
    )
    defaults.update(kw)
    return tr.TrainConfig(**defaults)


class TestTrainConfig:
    def test_defaults_follow_the_training_procedure(self):
        cfg = tr.TrainConfig()
        assert (cfg.n_steps, cfg.batch_size, cfg.n_d) == (3000, 64, 5)
        assert (cfg.lr, cfg.beta1, cfg.beta2) == (0.001, 0.5, 0.9)
        assert cfg.eval_every == 100
        assert cfg.lambda_grid == (0.0001, 0.001, 0.01, 0.1, 1.0)
        assert cfg.n_generate_eval == 60

    def test_eval_cadence_must_divide_steps(self):
        with pytest.raises(ValidationError):
            tr.TrainConfig(n_steps=150, eval_every=100)

    def test_round_trip_through_dict(self):
        cfg = tiny_cfg(loss=ls.LossConfig(
            lambda_creativity=0.5, segc_active=True,
            divergence=dv.DivergenceSpec("renyi", 3.0, learn_gamma=True)),
            policy=hl.PRESETS["neg_pos"])
        again = tr.config_from_dict(json.loads(json.dumps(asdict(cfg))))
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown config"):
            tr.config_from_dict({"n_steps": 3, "learning_rate": 0.1})
        with pytest.raises(ValidationError, match="unknown loss"):
            tr.config_from_dict({"loss": {"lambda": 0.1}})
        with pytest.raises(ValidationError, match="unknown policy"):
            tr.config_from_dict({"policy": {"mode": "uniform", "intervals": [[0.2, 0.8]],
                                            "intervalz": [[1.2, 1.5]]}})


class TestTrain:
    def test_zero_steps_returns_initial_parameters(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(n_steps=0)
        params, hist = tr.train(ds, cfg)
        import genzsl.model as mo
        gen0, disc0 = mo.init_params(cfg.arch.resolve(ds), ds.k_seen, False,
                                     io.philox(cfg.seed, tr.TAG_INIT))
        for name in gen0.store.names():
            np.testing.assert_array_equal(params.generator.store[name], gen0.store[name])
        for name in disc0.store.names():
            np.testing.assert_array_equal(params.discriminator.store[name], disc0.store[name])
        assert hist.records == []

    def test_same_seed_bitwise_identical(self):
        ds = tiny_dataset()
        cfg = tiny_cfg()
        p1, h1 = tr.train(ds, cfg)
        p2, h2 = tr.train(ds, cfg)
        for name in p1.generator.store.names():
            assert p1.generator.store[name].tobytes() == p2.generator.store[name].tobytes()
        for name in p1.discriminator.store.names():
            assert p1.discriminator.store[name].tobytes() == p2.discriminator.store[name].tobytes()
        assert h1.rows() == h2.rows()

    def test_update_counts_follow_the_schedule(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(n_steps=6, n_d=3, eval_every=3)
        _, hist = tr.train(ds, cfg)
        assert hist.n_disc_updates == 18
        assert hist.n_gen_updates == 6
        assert hist.n_entropy_updates == 6  # default spec learns gamma and beta

    def test_no_entropy_updates_for_fixed_families(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(loss=ls.LossConfig(
            divergence=dv.DivergenceSpec("kl", learn_gamma=False, learn_beta=False)))
        _, hist = tr.train(ds, cfg)
        assert hist.n_entropy_updates == 0

    def test_history_grid_and_finiteness(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(n_steps=6, eval_every=2)
        _, hist = tr.train(ds, cfg)
        assert [r.step for r in hist.records] == [2, 4, 6]
        for row in hist.rows():
            assert all(np.isfinite(v) for v in row)

    def test_one_step_moves_both_parameter_groups(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(n_steps=1, n_d=1, eval_every=1)
        params, _ = tr.train(ds, cfg)
        import genzsl.model as mo
        gen0, disc0 = mo.init_params(cfg.arch.resolve(ds), ds.k_seen, False,
                                     io.philox(cfg.seed, tr.TAG_INIT))
        assert any(
            not np.array_equal(params.generator.store[n], gen0.store[n])
            for n in gen0.store.names())
        assert any(
            not np.array_equal(params.discriminator.store[n], disc0.store[n])
            for n in disc0.store.names())

    def test_discriminator_phase_is_isolated_from_generator_parameters(self):
        # the discriminator step consumes generator outputs as plain values,
        # so its gradient map holds the critic's parameters and nothing else
        import genzsl.losses as ls
        import genzsl.model as mo
        ds = tiny_dataset()
        cfg = tiny_cfg()
        arch = cfg.arch.resolve(ds)
        gen, disc = mo.init_params(arch, ds.k_seen, False, io.philox(0, 1))
        g = io.philox(2, 2)
        y = ds.seen_labels[:6]
        x_fake = mo.generate(gen, ds.seen_semantics[y], g.standard_normal((6, arch.noise_dim)))
        x = ds.seen_features[:6]
        x_t = ls.lipschitz_interpolate(x, x_fake, g)
        terms, backward = ls.discriminator_loss_node(disc.store, disc, x, y, x_fake, y,
                                                     x_t, cfg.loss)
        grads = backward(dict.fromkeys(terms, 1.0))
        assert list(grads) == disc.store.names()
        assert any(np.any(grads[n] != 0) for n in disc.store.names())

    @pytest.mark.parametrize("spec", [
        dv.DivergenceSpec("sharma_mittal", 2.0, 2.5, learn_gamma=True, learn_beta=True),
        dv.DivergenceSpec("kl", learn_gamma=False, learn_beta=False),
    ], ids=["learnable", "kl"])
    def test_returned_stores_keep_the_initial_names_and_order(self, spec):
        import genzsl.model as mo
        ds = tiny_dataset()
        cfg = tiny_cfg(n_steps=2, loss=ls.LossConfig(divergence=spec))
        params, _ = tr.train(ds, cfg)
        gen0, _ = mo.init_params(cfg.arch.resolve(ds), ds.k_seen, False,
                                 io.philox(cfg.seed, tr.TAG_INIT))
        assert params.generator.store.names() == gen0.store.names()
        assert params.divergence.names() == list(spec.unconstrained_init())

    def test_segc_and_ucat_training_runs(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(loss=ls.LossConfig(
            segc_active=True, u_categorization=True, k_unseen_cap=4,
            rf_hallucinated=True,
            divergence=dv.DivergenceSpec("tsallis", 2.0, learn_gamma=True)))
        params, hist = tr.train(ds, cfg)
        assert params.discriminator.segc
        assert hist.n_entropy_updates == 4

    def test_new_class_ablation_training_runs(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(loss=ls.LossConfig(entropy_term=False, new_class_ablation=True))
        params, _ = tr.train(ds, cfg)
        assert params.discriminator.extra_class
        assert params.discriminator.store["cls.W"].shape[1] == ds.k_seen + 1

    def test_needs_two_seen_classes(self):
        ds = tiny_dataset()
        mono = io.ZslDataset(
            seen_features=ds.seen_features[ds.seen_labels == 0],
            seen_labels=np.zeros((ds.seen_labels == 0).sum(), dtype=int),
            seen_semantics=ds.seen_semantics[:1],
            unseen_semantics=ds.unseen_semantics,
            unseen_test_features=ds.unseen_test_features,
            unseen_test_labels=ds.unseen_test_labels - ds.k_seen + 1,
            seen_test_features=ds.seen_test_features[ds.seen_test_labels == 0],
            seen_test_labels=np.zeros((ds.seen_test_labels == 0).sum(), dtype=int),
        )
        with pytest.raises(ValidationError):
            tr.train(mono, tiny_cfg())

    def test_class_balanced_sampling_runs(self):
        ds = tiny_dataset()
        _, hist = tr.train(ds, tiny_cfg(class_balanced=True))
        assert hist.n_gen_updates == 4


class TestSplitForValidation:
    def test_eighty_twenty_by_class(self):
        ds = tiny_dataset(k_seen=10)
        pseudo = tr.split_for_validation(ds, seed=3)
        assert pseudo.k_seen == 8
        assert pseudo.k_unseen == 2
        assert pseudo.split_mode == "custom"
        pseudo.validate()

    def test_validation_classes_leave_the_seen_pool(self):
        ds = tiny_dataset(k_seen=10)
        pseudo = tr.split_for_validation(ds, seed=3)
        # validation examples equal the held-out classes' training examples
        n_val_examples = len(pseudo.unseen_test_features)
        assert n_val_examples == 2 * 16
        assert len(pseudo.seen_features) == 8 * 16

    def test_too_few_classes(self):
        with pytest.raises(ValidationError):
            tr.split_for_validation(tiny_dataset(k_seen=4), seed=0)

    def test_deterministic_split(self):
        ds = tiny_dataset(k_seen=10)
        a = tr.split_for_validation(ds, seed=5)
        b = tr.split_for_validation(ds, seed=5)
        np.testing.assert_array_equal(a.seen_semantics, b.seen_semantics)


class TestCrossValidate:
    def test_single_value_grid_returns_it(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(lambda_grid=(0.05,))
        res = tr.cross_validate(ds, cfg)
        assert res.best_lambda == 0.05
        assert res.best_step in (2, 4)
        assert list(res.curves) == [0.05]

    def test_duplicate_grid_entries_break_to_the_first(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(lambda_grid=(0.05, 0.05))
        res = tr.cross_validate(ds, cfg)
        assert res.best_lambda == 0.05
        # the winner's metric equals the first curve's maximum
        best_first = max(a for _, a, _ in res.curves[0.05])
        assert res.best_metric == best_first

    def test_final_model_trained_to_winning_step(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(lambda_grid=(0.0, 0.1))
        res = tr.cross_validate(ds, cfg)
        assert res.final_history.n_gen_updates == res.best_step

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            tr.cross_validate(tiny_dataset(), tiny_cfg(lambda_grid=()))


class TestAblate:
    def test_empty_suite_gives_empty_table(self):
        assert tr.ablate(tiny_dataset(), tiny_cfg(), []) == []

    def test_unknown_suite_name(self):
        with pytest.raises(ValidationError, match="unknown suite"):
            tr.ablate(tiny_dataset(), tiny_cfg(), "no-such-suite")

    def test_suite_shapes_match_the_study_layout(self):
        assert len(tr.ABLATION_SUITES["creative-loss"]) == 9
        assert len(tr.ABLATION_SUITES["hallucination-policies"]) == 5
        assert len(tr.ABLATION_SUITES["semantic-categorizer"]) == 2
        assert len(tr.ABLATION_SUITES["segc-and-hallucinated-rf"]) == 4
        assert len(tr.ABLATION_SUITES["hallucinated-class-count"]) == 2

    def test_rows_follow_suite_order_and_aggregate_seeds(self):
        ds = tiny_dataset()
        rows = tr.ablate(ds, tiny_cfg(), "semantic-categorizer", seeds=[1, 2])
        assert [r.label for r in rows] == ["classic-head", "semantic-guided-head"]
        for row in rows:
            assert 0.0 <= row.top1_mean <= 1.0
            assert row.top1_std >= 0.0

    def test_baseline_row_is_invariant_to_lambda(self):
        ds = tiny_dataset()
        bundle = [lbl_fn for lbl_fn in tr.ABLATION_SUITES["creative-loss"]
                  if lbl_fn[0] == "baseline-no-creative-terms"]
        lo = tr.ablate(ds, tiny_cfg(loss=ls.LossConfig(lambda_creativity=0.0)), bundle)
        hi = tr.ablate(ds, tiny_cfg(loss=ls.LossConfig(lambda_creativity=1.0)), bundle)
        assert lo[0].top1_mean == hi[0].top1_mean
        assert lo[0].auc_mean == hi[0].auc_mean

    def test_seed_aggregation_matches_individual_runs(self):
        # the mean +- deviation cells must equal plain arithmetic over the
        # per-seed results
        ds = tiny_dataset()
        bundle = [("classic-head", tr._with_loss(segc_active=False))]
        combined = tr.ablate(ds, tiny_cfg(), bundle, seeds=[1, 2])[0]
        singles = [tr.ablate(ds, tiny_cfg(), bundle, seeds=[s])[0] for s in (1, 2)]
        tops = [s.top1_mean for s in singles]
        assert combined.top1_mean == pytest.approx(np.mean(tops), abs=1e-15)
        assert combined.top1_std == pytest.approx(np.std(tops), abs=1e-15)
