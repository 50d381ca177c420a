from dataclasses import fields

import numpy as np
import pytest

import genzsl.diffmath as dm
import genzsl.model as mo
from genzsl import events
from genzsl.errors import DimensionError, ValidationError
from helpers import discriminate, reset_events, segc_score_oracle


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def small_arch(**kw):
    defaults = dict(semantic_dim=6, visual_dim=8, noise_dim=3, hidden_dim=10)
    defaults.update(kw)
    return mo.ArchSpec(**defaults)


class TestArchSpec:
    def test_reduced_dim_defaults_to_half_rounded_up(self):
        assert small_arch(semantic_dim=7).reduced_dim == 4
        assert small_arch(semantic_dim=6).reduced_dim == 3

    def test_presets_control_depth_and_width(self):
        base = small_arch()
        double = small_arch(preset="doublenet")
        reduced = small_arch(preset="doublenet_reduced")
        assert (base.n_hidden, double.n_hidden, reduced.n_hidden) == (1, 2, 2)
        assert double.eff_hidden == base.hidden_dim
        assert reduced.eff_hidden == base.hidden_dim // 2

    def test_validation(self):
        with pytest.raises(ValidationError):
            small_arch(preset="triplenet")
        with pytest.raises(ValidationError):
            small_arch(reduced_dim=9)  # exceeds semantic_dim
        with pytest.raises(ValidationError):
            small_arch(hidden_dim=0)

    @pytest.mark.parametrize("leak", [0.0, 1.0])
    def test_leak_may_take_either_end_of_the_unit_interval(self, leak):
        assert small_arch(leak=leak).leak == leak

    @pytest.mark.parametrize("leak", [1.5, -0.1, float("nan")])
    def test_leak_outside_the_unit_interval_is_rejected(self, leak):
        # max(z, leak * z) is the leaky rectifier only for leaks in [0, 1]
        with pytest.raises(ValidationError):
            small_arch(leak=leak)

    def test_is_an_arch_config_with_the_two_dataset_widths_added(self):
        assert isinstance(small_arch(), mo.ArchConfig)
        added = {f.name for f in fields(mo.ArchSpec)} - {f.name for f in fields(mo.ArchConfig)}
        assert added == {"semantic_dim", "visual_dim"}


class TestInitParams:
    def test_same_seed_identical(self):
        a = mo.init_params(small_arch(), 4, False, rng(3))
        b = mo.init_params(small_arch(), 4, False, rng(3))
        for pa, pb in zip((a[0].store, a[1].store), (b[0].store, b[1].store)):
            for name in pa:
                np.testing.assert_array_equal(pa[name], pb[name])

    def test_doublenet_has_strictly_more_parameters(self):
        base = mo.init_params(small_arch(), 4, False, rng(0))
        double = mo.init_params(small_arch(preset="doublenet"), 4, False, rng(0))
        assert double[0].store.size() > base[0].store.size()
        assert double[1].store.size() > base[1].store.size()

    def test_forward_finite_at_init(self):
        g = rng(9)
        for preset in mo.PRESETS:
            arch = small_arch(preset=preset)
            gen, disc = mo.init_params(arch, 5, False, rng(1))
            t = g.uniform(-10, 10, size=(16, arch.semantic_dim))
            z = g.uniform(-10, 10, size=(16, arch.noise_dim))
            x = mo.generate(gen, t, z)
            assert np.all(np.isfinite(x))
            out = discriminate(disc, g.uniform(-10, 10, size=(16, arch.visual_dim)))
            assert np.all(np.isfinite(out["r"])) and np.all(np.isfinite(out["s"]))

    def test_segc_head_replaces_classic_head(self):
        _, disc = mo.init_params(small_arch(), 4, True, rng(0))
        assert "segc.W" in disc.store and "cls.W" not in disc.store
        _, classic = mo.init_params(small_arch(), 4, False, rng(0))
        assert "cls.W" in classic.store and "segc.W" not in classic.store

    def test_extra_class_widens_head_by_one(self):
        _, disc = mo.init_params(small_arch(), 4, False, rng(0), extra_class=True)
        assert disc.store["cls.W"].shape[1] == 5


class TestGenerate:
    def test_output_shape(self):
        arch = small_arch()
        gen, _ = mo.init_params(arch, 4, False, rng(0))
        out = mo.generate(gen, np.zeros((4, 6)), np.zeros((4, 3)))
        assert out.shape == (4, 8)

    def test_identical_rows_give_identical_outputs(self):
        arch = small_arch()
        gen, _ = mo.init_params(arch, 4, False, rng(0))
        t = np.tile(rng(1).standard_normal(6), (3, 1))
        z = np.tile(rng(2).standard_normal(3), (3, 1))
        out = mo.generate(gen, t, z)
        assert np.all(out == out[0])

    def test_width_mismatch(self):
        gen, _ = mo.init_params(small_arch(), 4, False, rng(0))
        with pytest.raises(DimensionError):
            mo.generate(gen, np.zeros((4, 5)), np.zeros((4, 3)))
        with pytest.raises(DimensionError):
            mo.generate(gen, np.zeros((4, 6)), np.zeros((3, 3)))


class TestDiscriminate:
    def test_softmax_rows_sum_to_one(self):
        _, disc = mo.init_params(small_arch(), 5, False, rng(4))
        out = discriminate(disc, rng(5).standard_normal((7, 8)))
        np.testing.assert_allclose(out["s"].sum(axis=1), np.ones(7), atol=1e-9)

    def test_zeroed_class_head_gives_uniform_softmax(self):
        _, disc = mo.init_params(small_arch(), 5, False, rng(4))
        disc.store["cls.W"][:] = 0.0
        disc.store["cls.b"][:] = 0.0
        out = discriminate(disc, rng(5).standard_normal((3, 8)))
        np.testing.assert_allclose(out["s"], np.full((3, 5), 0.2), atol=1e-12)

    def test_score_translation_covariant_in_head_bias(self):
        _, disc = mo.init_params(small_arch(), 5, False, rng(4))
        x = rng(6).standard_normal((9, 8))
        r0 = discriminate(disc, x)["r"]
        disc.store["real.b"][:] += 3.5
        r1 = discriminate(disc, x)["r"]
        np.testing.assert_allclose(r1, r0 + 3.5, atol=1e-12)

    def test_dimension_error(self):
        _, disc = mo.init_params(small_arch(), 5, False, rng(4))
        with pytest.raises(DimensionError):
            discriminate(disc, np.zeros((3, 7)))


class TestSegcScore:
    def test_orthogonal_pair_scores_zero(self):
        s = mo.segc_score_node(np.eye(2), [[1.0, 0.0]], [[0.0, 1.0]]).value
        assert s[0, 0] == 0.0

    def test_unit_inner_product(self):
        s = mo.segc_score_node(np.eye(2), [[1.0, 0.0]], [[1.0, 0.0]]).value
        assert s[0, 0] == 1.0

    def test_normalized_colinear_pair_scores_eta_squared(self):
        s = mo.segc_score_node(np.eye(2), [[2.0, 0.0]], [[5.0, 0.0]], normalized=True,
                               eta=3.0).value
        assert s[0, 0] == pytest.approx(9.0, abs=1e-12)

    def test_linearity_in_features(self):
        g = rng(8)
        W = g.standard_normal((4, 3))
        x = g.standard_normal((5, 4))
        T = g.standard_normal((6, 3))
        s1 = mo.segc_score_node(W, x, T).value
        s2 = mo.segc_score_node(W, 2.5 * x, T).value
        np.testing.assert_allclose(s2, 2.5 * s1, rtol=1e-12)

    def test_normalized_argmax_invariant_to_feature_scale(self):
        g = rng(9)
        W = g.standard_normal((4, 3))
        x = g.standard_normal((5, 4))
        T = g.standard_normal((6, 3))
        a = mo.segc_score_node(W, x, T, normalized=True, eta=2.0).value.argmax(axis=1)
        b = mo.segc_score_node(W, 7.0 * x, T, normalized=True, eta=2.0).value.argmax(axis=1)
        np.testing.assert_array_equal(a, b)

    def test_zero_norm_scores_zero_and_records_event(self):
        reset_events()
        s = mo.segc_score_node(np.eye(2), [[0.0, 0.0]], [[1.0, 0.0]], normalized=True,
                               eta=1.0).value
        assert s[0, 0] == 0.0
        assert events.counts().get("degenerate_zero_norm", 0) >= 1
        reset_events()

    def test_eta_must_be_positive_when_normalized(self):
        with pytest.raises(ValidationError):
            mo.segc_score_node(np.eye(2), [[1.0, 0.0]], [[1.0, 0.0]], normalized=True, eta=0.0)


class TestSegcScoreNode:
    """The one-node head against its composition from primitive tape
    operations, value and both gradients, to 1e-12."""

    @staticmethod
    def assert_close(a, b):
        a, b = np.asarray(a), np.asarray(b)
        assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1e-300)

    @staticmethod
    def value_and_grads(head, W, x, upstream):
        """The scores and the gradients of <scores, upstream> in W and x."""
        params = dm.ParamStore({"W": W, "x": x})
        out = {}
        grads = dm.grad_scalar(lambda lv: dm.vsum(dm.mul(
            out.setdefault("s", head(lv["W"], lv["x"])), dm.constant(upstream))), params)
        return out["s"].value, grads

    def check(self, W, x, T, normalized, eta):
        upstream = rng(12).standard_normal((len(x), len(T)))
        got, d_got = self.value_and_grads(
            lambda W, x: mo.segc_score_node(W, x, T, normalized, eta), W, x, upstream)
        want, d_want = self.value_and_grads(
            lambda W, x: segc_score_oracle(W, x, T, normalized, eta), W, x, upstream)
        self.assert_close(got, want)
        for name in ("W", "x"):
            self.assert_close(d_got[name], d_want[name])
        return got, d_got

    @pytest.mark.parametrize("normalized, eta", [(False, 1.0), (True, 2.0)],
                             ids=["unnormalized", "normalized"])
    def test_value_and_both_gradients_match_the_composed_oracle(self, normalized, eta):
        g = rng(11)
        self.check(g.standard_normal((4, 3)), g.standard_normal((6, 4)),
                   g.standard_normal((5, 3)), normalized, eta)

    def test_zero_norm_projected_row_gets_no_gradient_through_its_norm(self):
        W = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        # rows 1 and 3 project to norms 0 and 1e-14, both below the 1e-12 floor
        x = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 5.0], [-0.5, 0.3, 1.0], [1e-14, 0.0, 1.0]])
        T = np.array([[1.0, 0.5], [-0.3, 2.0], [0.7, 0.7]])
        reset_events()
        scores, grads = self.check(W, x, T, True, 2.0)
        assert np.all(scores[[1, 3]] == 0.0)
        assert np.all(grads["x"][[1, 3]] == 0.0)
        assert np.all(grads["x"][[0, 2], :2] != 0.0)  # W's last row is zero
        reset_events()
        for calls in (1, 2):
            mo.segc_score_node(W, x, T, normalized=True, eta=2.0)
            assert events.counts() == {"degenerate_zero_norm": calls}
        reset_events()

    @pytest.mark.parametrize("normalized", [False, True])
    def test_a_constant_operand_gets_no_gradient(self, normalized):
        g = rng(13)
        W, x, T = g.standard_normal((4, 3)), g.standard_normal((6, 4)), g.standard_normal((5, 3))
        upstream = g.standard_normal((6, 5))
        d_x, d_W = mo.segc_score_node(dm.leaf(W), x, T, normalized, 2.0).vjp(upstream)
        assert d_x is None and d_W.shape == W.shape
        d_x, d_W = mo.segc_score_node(W, dm.leaf(x), T, normalized, 2.0).vjp(upstream)
        assert d_W is None and d_x.shape == x.shape


class TestSegcSoftmaxRows:
    def test_softmax_over_scores_forms_probability_rows(self):
        g = rng(10)
        scores = mo.segc_score_node(g.standard_normal((4, 3)), g.standard_normal((6, 4)),
                                    g.standard_normal((5, 3))).value
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        soft = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(soft.sum(axis=1), np.ones(6), atol=1e-12)
        assert np.all(soft >= 0)


class TestReduceSemantics:
    def test_shape_and_determinism(self):
        arch = small_arch()
        gen, _ = mo.init_params(arch, 4, False, rng(0))
        T = rng(1).standard_normal((5, 6))
        red = mo.reduce_semantics(gen, T)
        assert red.shape == (5, arch.reduced_dim)
        np.testing.assert_array_equal(red, mo.reduce_semantics(gen, T))
