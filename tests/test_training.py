import json
from dataclasses import asdict

import numpy as np
import pytest

import genzsl.dataio as io
import genzsl.divergences as dv
import genzsl.hallucination as hl
import genzsl.losses as ls
import genzsl.model as mo
import genzsl.training as tr
from genzsl.errors import ValidationError
from helpers import fingerprint


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


# every policy preset and every ablation bundle, plus one config that sets
# a field of each nested dataclass
ROUND_TRIP_CONFIGS = {
    "renyi-segc-neg_pos": tiny_cfg(loss=ls.LossConfig(
        lambda_creativity=0.5, segc_active=True,
        divergence=dv.DivergenceSpec("renyi", 3.0, learn_gamma=True)),
        policy=hl.PRESETS["neg_pos"]),
    **{f"policy-{name}": tiny_cfg(policy=policy) for name, policy in hl.PRESETS.items()},
    **{f"{suite}-{label}": transform(tiny_cfg())
       for suite, bundles in tr.ABLATION_SUITES.items() for label, transform in bundles},
}


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

    @pytest.mark.parametrize("cfg", ROUND_TRIP_CONFIGS.values(), ids=ROUND_TRIP_CONFIGS.keys())
    def test_round_trip_through_dict(self, cfg):
        again = tr.config_from_dict(json.loads(json.dumps(asdict(cfg))))
        assert again == cfg

    def test_arch_resolves_to_its_own_fields_at_the_dataset_widths(self):
        import genzsl.model as mo
        arch = tr.ArchConfig(preset="doublenet", hidden_dim=10, noise_dim=3, leak=0.1)
        spec = arch.resolve(tiny_dataset())
        assert spec == mo.ArchSpec(**asdict(arch), semantic_dim=6, visual_dim=8)
        # the checkpoint manifest stores asdict(spec) and loads it back this way
        assert spec == mo.ArchSpec(**asdict(spec))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown config"):
            tr.config_from_dict({"n_steps": 3, "learning_rate": 0.1})
        with pytest.raises(ValidationError, match="unknown loss"):
            tr.config_from_dict({"loss": {"lambda": 0.1}})
        with pytest.raises(ValidationError, match="unknown policy"):
            tr.config_from_dict({"policy": {"intervals": [[0.2, 0.8]],
                                            "intervalz": [[1.2, 1.5]]}})
        # keys of settings that no longer exist
        with pytest.raises(ValidationError, match=r"unknown policy keys: \['mode'\]"):
            tr.config_from_dict({"policy": {"mode": "uniform"}})
        with pytest.raises(ValidationError, match=r"unknown divergence keys: \['orientation'\]"):
            tr.config_from_dict({"loss": {"divergence": {"orientation": "softmax_first"}}})

    @pytest.mark.parametrize("arch", [mo.ArchSpec(semantic_dim=6, visual_dim=8),
                                      {"preset": "doublenet"}], ids=["ArchSpec", "dict"])
    def test_arch_must_be_an_arch_config(self, arch):
        # train resolves the architecture at the dataset's widths itself
        with pytest.raises(ValidationError, match="arch must be an ArchConfig"):
            tr.TrainConfig(arch=arch)


# 100 steps on the default synthetic dataset: the first 16 hex digits of
# helpers.fingerprint per config override and seed. A change that moves
# these on purpose updates the table and says why.
FINGERPRINTS = {
    "defaults": ({}, "ed9edd2506641b69", "60dbb71004d2a335"),
    "creative": ({"n_d": 1, "class_balanced": True, "policy": "all",
                  "arch": {"preset": "doublenet"},
                  "loss": {"segc_active": True, "segc_normalized": True,
                           "u_categorization": True, "k_unseen_cap": 100,
                           "rf_hallucinated": True, "creativity_on_discriminator": True}},
                 "1d7b6d8f807e0038", "0294673f17651318"),
    "segc": ({"loss": {"segc_active": True}}, "45e2d0f1d80e06c0", "be1c258a21e3561a"),
    "new-class": ({"loss": {"entropy_term": False, "new_class_ablation": True}},
                  "076bfc58e858d913", "cd13b3745c236c72"),
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", list(FINGERPRINTS))
def test_fingerprint_table(name, seed):
    override, *expected = FINGERPRINTS[name]
    cfg = tr.config_from_dict({**override, "seed": seed, "n_steps": 100, "eval_every": 100})
    run = tr.train(io.make_synthetic(io.SyntheticSpec(seed=0)), cfg)
    assert fingerprint(*run)[:16] == expected[seed - 1]


class TestTrain:
    def test_zero_steps_returns_initial_parameters(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(n_steps=0)
        params, hist = tr.train(ds, cfg)
        import genzsl.model as mo
        gen0, disc0 = mo.init_params(cfg.arch.resolve(ds), ds.k_seen, False,
                                     io.philox(cfg.seed, tr.TAG_INIT))
        for name in gen0.store:
            np.testing.assert_array_equal(params.generator.store[name], gen0.store[name])
        for name in disc0.store:
            np.testing.assert_array_equal(params.discriminator.store[name], disc0.store[name])
        assert hist.records == []

    def test_same_seed_bitwise_identical(self):
        ds = tiny_dataset()
        cfg = tiny_cfg()
        assert fingerprint(*tr.train(ds, cfg)) == fingerprint(*tr.train(ds, cfg))

    def test_no_entropy_parameters_for_fixed_families(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(loss=ls.LossConfig(
            divergence=dv.DivergenceSpec("kl", learn_gamma=False, learn_beta=False)))
        params, _ = tr.train(ds, cfg)
        assert len(params.divergence) == 0

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
            for n in gen0.store)
        assert any(
            not np.array_equal(params.discriminator.store[n], disc0.store[n])
            for n in disc0.store)

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
        terms, backward = ls.discriminator_loss_node(disc, x, y, x_fake, y,
                                                     x_t, cfg.loss)
        grads = backward(dict.fromkeys(terms, 1.0))
        assert list(grads) == list(disc.store)
        assert any(np.any(grads[n] != 0) for n in disc.store)

    def test_non_finite_critic_gradient_names_the_first_parameter(self):
        import genzsl.diffmath as dm
        import genzsl.model as mo
        from genzsl.errors import NumericOverflowError
        ds = tiny_dataset()
        cfg = tiny_cfg()
        gen, disc = mo.init_params(cfg.arch.resolve(ds), ds.k_seen, False, io.philox(0, 1))
        x = ds.seen_features[:6]
        y = ds.seen_labels[:6]
        terms, backward = ls.discriminator_loss_node(disc, x, y, x[::-1], y,
                                                     x, cfg.loss)
        grads = dm.finite_grads(sum(terms.values()), lambda: backward(dict.fromkeys(terms, 1.0)))
        assert isinstance(grads, dm.ParamStore) and list(grads) == list(disc.store)
        # a NaN weight on the class head reaches its tensors and the whole trunk
        weights = dict.fromkeys(terms, 1.0) | {"cls_fake": np.nan}
        with pytest.raises(NumericOverflowError, match="parameter 'trunk0.W'"):
            dm.finite_grads(1.0, lambda: backward(weights))

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
        assert list(params.generator.store) == list(gen0.store)
        assert list(params.divergence) == list(spec.unconstrained_init())

    def test_segc_and_ucat_training_runs(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(loss=ls.LossConfig(
            segc_active=True, u_categorization=True, k_unseen_cap=4,
            rf_hallucinated=True,
            divergence=dv.DivergenceSpec("tsallis", 2.0, learn_gamma=True)))
        params, hist = tr.train(ds, cfg)
        assert params.discriminator.segc
        assert list(params.divergence) == ["u_gamma"]
        assert [r.step for r in hist.records] == [2, 4]

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
        assert [r.step for r in hist.records] == [2, 4]


class TestSampling:
    @staticmethod
    def per_sample_loop(labels, k, size, rng):
        """Class-balanced indices drawn one sample at a time, class by class."""
        per_class = [np.flatnonzero(labels == c) for c in range(k)]
        classes = rng.integers(0, k, size=size)
        offsets = rng.uniform(size=size)
        return np.array([per_class[c][int(o * len(per_class[c]))]
                         for c, o in zip(classes, offsets)])

    @pytest.mark.parametrize("seed", range(20))
    def test_class_balanced_indices_match_the_per_sample_loop(self, seed):
        labels = io.philox(seed, 9).permutation(np.repeat(np.arange(7), [3, 9, 1, 16, 5, 5, 11]))
        tables = tr.class_tables(labels, 7)
        got = tr.sample_indices(len(labels), 64, io.philox(seed, tr.TAG_BATCH), tables)
        want = self.per_sample_loop(labels, 7, 64, io.philox(seed, tr.TAG_BATCH))
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    # the largest draw below 1, and 1 itself, whose offset equals the class
    # size: a correctly rounded product never gets there from a draw below 1,
    # and the clamp keeps even that offset inside its class
    @pytest.mark.parametrize("top", [1.0 - 2.0**-53, 1.0])
    def test_the_largest_offset_takes_the_class_last_row(self, top):
        class Stub:
            """Every class in turn, each at the offset `top`."""
            def integers(self, lo, hi, size):
                return np.arange(size) % hi

            def uniform(self, size):
                return np.full(size, top)

        labels = np.array([1, 0, 2, 1, 0, 2, 1, 0, 2, 2])  # class sizes 3, 3, 4
        got = tr.sample_indices(len(labels), 6, Stub(), tr.class_tables(labels, 3))
        np.testing.assert_array_equal(labels[got], [0, 1, 2, 0, 1, 2])
        np.testing.assert_array_equal(got, [7, 6, 9, 7, 6, 9])

    @pytest.mark.parametrize("seed", range(5))
    def test_one_draw_per_critic_phase_equals_per_batch_draws(self, seed):
        n_d, m, width = 5, 64, 16

        def streams():
            return [io.philox(seed, tag) for tag in (tr.TAG_BATCH, tr.TAG_NOISE, tr.TAG_INTERP)]

        (batch, noise, interp), (batch_1, noise_1, interp_1) = streams(), streams()
        np.testing.assert_array_equal(
            tr.sample_indices(300, n_d * m, batch),
            np.concatenate([tr.sample_indices(300, m, batch_1) for _ in range(n_d)]))
        np.testing.assert_array_equal(
            noise.standard_normal((n_d * m, width)),
            np.vstack([noise_1.standard_normal((m, width)) for _ in range(n_d)]))
        np.testing.assert_array_equal(
            interp.uniform(size=(n_d * m, 1)),
            np.vstack([interp_1.uniform(size=(m, 1)) for _ in range(n_d)]))


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
        assert res.final_history.records[-1].step == res.best_step

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
