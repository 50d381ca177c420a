from dataclasses import replace

import numpy as np
import pytest

import genzsl.diffmath as dm
import genzsl.divergences as dv
import genzsl.losses as ls
import genzsl.model as mo
from genzsl.errors import ValidationError
from helpers import (directional_derivative, discriminator_terms_multipass,
                     generator_terms_multipass, random_direction, rel_err)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def small_setup(seed=0, segc=False, extra=False, k_seen=3):
    arch = mo.ArchSpec(semantic_dim=5, visual_dim=6, noise_dim=2, hidden_dim=7)
    gen, disc = mo.init_params(arch, k_seen, segc, rng(seed), extra_class=extra)
    return arch, gen, disc


def random_batches(arch, k_seen, b=4, seed=1):
    g = rng(seed)
    seen = ls.SeenBatch(
        g.standard_normal((b, arch.semantic_dim)),
        g.integers(0, k_seen, size=b),
        g.standard_normal((b, arch.noise_dim)),
    )
    hallu = ls.HalluBatch(
        g.standard_normal((b, arch.semantic_dim)),
        g.standard_normal((b, arch.noise_dim)),
    )
    pivot = ls.PivotInputs(
        g.standard_normal((k_seen, arch.semantic_dim)),
        g.standard_normal((k_seen, arch.visual_dim)),
        g.standard_normal((k_seen, 3, arch.noise_dim)),
    )
    real_x = g.standard_normal((b, arch.visual_dim))
    real_y = g.integers(0, k_seen, size=b)
    return seen, hallu, pivot, real_x, real_y


def base_cfg(**kw):
    defaults = dict(lambda_creativity=0.3,
                    divergence=dv.DivergenceSpec("kl", learn_gamma=False, learn_beta=False))
    defaults.update(kw)
    return ls.LossConfig(**defaults)


def values(terms):
    """Plain values of a builder's named terms, plus their total."""
    out = {k: float(v.value) for k, v in terms.items()}
    out["total"] = float(ls.total(terms).value)
    return out


def creativity_value(disc, gen, t_h, z, cfg):
    """The summed creativity terms of the generator builder for the
    hallucinated batch (t_h, z), beside a one-row seen batch."""
    arch = gen.arch
    seen = ls.SeenBatch(np.zeros((1, arch.semantic_dim)), np.zeros(1, dtype=int),
                        np.zeros((1, arch.noise_dim)))
    k_seen = disc.k_seen
    pivot = ls.PivotInputs(np.zeros((k_seen, arch.semantic_dim)),
                           np.zeros((k_seen, arch.visual_dim)),
                           np.zeros((k_seen, 1, arch.noise_dim)))
    terms = ls.generator_loss_node(gen.store, cfg.divergence.unconstrained_init(), disc,
                                   seen, ls.HalluBatch(t_h, z), pivot, cfg)
    return values({k: v for k, v in terms.items() if k.startswith("creativity_")})["total"]


class FixedUniform:
    """Duck-typed stand-in for a Generator whose uniform() is constant."""

    def __init__(self, value):
        self.value = value

    def uniform(self, size=None):
        return np.full(size, self.value)


class TestMinMaxNormalize:
    @staticmethod
    def minmax(values):
        return dm.minmax_normalize_node(dm.constant(values)).value

    def test_basic(self):
        np.testing.assert_allclose(self.minmax([2.0, 4.0, 6.0]), [0.0, 0.5, 1.0])

    def test_constant_batch(self):
        np.testing.assert_array_equal(self.minmax([3.0, 3.0, 3.0]), np.zeros(3))

    def test_single_element(self):
        np.testing.assert_array_equal(self.minmax([5.0]), [0.0])


class TestLipschitzInterpolate:
    def test_endpoints(self):
        x = rng(0).standard_normal((5, 4))
        y = rng(1).standard_normal((5, 4))
        np.testing.assert_array_equal(ls.lipschitz_interpolate(x, y, FixedUniform(1.0)), x)
        np.testing.assert_array_equal(ls.lipschitz_interpolate(x, y, FixedUniform(0.0)), y)

    def test_componentwise_between(self):
        x = rng(2).standard_normal((8, 4))
        y = rng(3).standard_normal((8, 4))
        z = ls.lipschitz_interpolate(x, y, rng(4))
        assert np.all(z >= np.minimum(x, y) - 1e-12)
        assert np.all(z <= np.maximum(x, y) + 1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(Exception):
            ls.lipschitz_interpolate(np.zeros((2, 3)), np.zeros((2, 4)), rng(0))


class TestCreativityLoss:
    def test_both_terms_off_gives_zero(self):
        arch, gen, disc = small_setup()
        cfg = base_cfg(lambda_creativity=0.0, realism_term=False)
        t_h = rng(1).standard_normal((4, 5))
        z = rng(2).standard_normal((4, 2))
        assert creativity_value(disc, gen, t_h, z, cfg) == 0.0

    def test_uniform_softmax_zeroes_entropy_term(self):
        arch, gen, disc = small_setup()
        disc.store["cls.W"][:] = 0.0
        disc.store["cls.b"][:] = 0.0
        cfg = base_cfg(realism_term=False, lambda_creativity=5.0)
        t_h = rng(1).standard_normal((4, 5))
        z = rng(2).standard_normal((4, 2))
        assert creativity_value(disc, gen, t_h, z, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_hand_built_batch_matches_direct_arithmetic(self):
        arch, gen, disc = small_setup(seed=5)
        cfg = base_cfg(lambda_creativity=0.7)
        t_h = rng(3).standard_normal((2, 5))
        z = rng(4).standard_normal((2, 2))
        x_h = mo.generate(gen, t_h, z)
        out = mo.discriminate(disc, x_h)
        # direct arithmetic on the critic scores and softmax rows
        u = np.full(3, 1.0 / 3.0)
        le = np.array([float((row * np.log(row / u)).sum()) for row in out["s"]])
        span = le.max() - le.min()
        norm = (le - le.min()) / span if span >= 1e-12 else np.zeros(2)
        expected = -out["r"].mean() + 0.7 * norm.mean()
        got = creativity_value(disc, gen, t_h, z, cfg)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_empty_batch_rejected(self):
        arch, gen, disc = small_setup()
        with pytest.raises(ValidationError):
            creativity_value(disc, gen, np.zeros((0, 5)), np.zeros((0, 2)), base_cfg())

    def test_new_class_ablation_targets_extra_logit(self):
        arch, gen, disc = small_setup(extra=True)
        cfg = base_cfg(entropy_term=False, new_class_ablation=True, lambda_creativity=1.0,
                       realism_term=False)
        t_h = rng(1).standard_normal((3, 5))
        z = rng(2).standard_normal((3, 2))
        x_h = mo.generate(gen, t_h, z)
        out = mo.discriminate(disc, x_h)
        expected = -np.log(out["s"][:, 3]).mean()
        assert creativity_value(disc, gen, t_h, z, cfg) == pytest.approx(expected, abs=1e-10)


class TestVisualPivot:
    def test_perfect_generator_scores_zero(self):
        arch, gen, disc = small_setup()
        g = rng(1)
        sem = g.standard_normal((3, 5))
        z = g.standard_normal((3, 4, 2))
        means = np.stack([
            mo.generate(gen, np.tile(sem[k], (4, 1)), z[k]).mean(axis=0) for k in range(3)
        ])
        pivot = ls.PivotInputs(sem, means, z)
        assert ls.visual_pivot_node(gen.store, arch, pivot).value == pytest.approx(0.0, abs=1e-18)

    def test_single_class_unit_offset(self):
        arch, gen, disc = small_setup()
        g = rng(2)
        sem = g.standard_normal((1, 5))
        z = g.standard_normal((1, 4, 2))
        mean = mo.generate(gen, np.tile(sem[0], (4, 1)), z[0]).mean(axis=0)
        offset = np.zeros(6)
        offset[0] = 1.0
        pivot = ls.PivotInputs(sem, (mean - offset)[None, :], z)
        assert ls.visual_pivot_node(gen.store, arch, pivot).value == pytest.approx(1.0, abs=1e-12)

    def test_three_classes_hand_average(self):
        arch, gen, disc = small_setup()
        g = rng(3)
        sem = g.standard_normal((3, 5))
        z = g.standard_normal((3, 2, 2))
        gen_means = np.stack([
            mo.generate(gen, np.tile(sem[k], (2, 1)), z[k]).mean(axis=0) for k in range(3)
        ])
        offsets = g.standard_normal((3, 6))
        expected = float((offsets**2).sum(axis=1).mean())
        pivot = ls.PivotInputs(sem, gen_means - offsets, z)
        got = ls.visual_pivot_node(gen.store, arch, pivot).value
        assert got == pytest.approx(expected, abs=1e-12)

    def test_class_count_mismatch(self):
        arch, gen, disc = small_setup()
        with pytest.raises(ValidationError):
            ls.visual_pivot_node(gen.store, arch, ls.PivotInputs(
                np.zeros((3, 5)), np.zeros((2, 6)), np.zeros((3, 2, 2))))


class TestGeneratorLoss:
    def test_perfect_classifier_zeroes_classification_term(self):
        arch, gen, disc = small_setup()
        # constant trunk features plus a saturated head for class 0
        disc.store["trunk0.W"][:] = 0.0
        disc.store["trunk0.b"][:] = 1.0
        disc.store["cls.W"][:] = 0.0
        disc.store["cls.b"][:] = 0.0
        disc.store["cls.b"][0] = 50.0
        seen, hallu, pivot, *_ = random_batches(arch, 3)
        seen = ls.SeenBatch(seen.t, np.zeros(4, dtype=int), seen.z)
        cfg = base_cfg(lambda_creativity=0.0, realism_term=False)
        terms = values(ls.generator_loss_node(gen.store, {}, disc, seen, hallu, pivot, cfg))
        assert terms["classification"] == pytest.approx(0.0, abs=1e-10)

    def test_matches_direct_arithmetic_without_creativity(self):
        arch, gen, disc = small_setup(seed=9)
        seen, hallu, pivot, *_ = random_batches(arch, 3, seed=11)
        cfg = base_cfg(lambda_creativity=0.0, realism_term=False)
        terms = values(ls.generator_loss_node(gen.store, {}, disc, seen, hallu, pivot, cfg))

        x_s = mo.generate(gen, seen.t, seen.z)
        out = mo.discriminate(disc, x_s)
        crit = -out["r"].mean()
        cls = -np.log(out["s"][np.arange(4), seen.y]).mean()
        piv = ls.visual_pivot_node(gen.store, arch, pivot).value
        assert terms["critic_seen"] == pytest.approx(crit, abs=1e-10)
        assert terms["classification"] == pytest.approx(cls, abs=1e-10)
        assert terms["visual_pivot"] == pytest.approx(piv, abs=1e-12)
        assert terms["total"] == pytest.approx(crit + cls + piv, abs=1e-9)

    @pytest.mark.parametrize("segc", [False, True])
    def test_gradient_matches_finite_differences(self, segc):
        arch, gen, disc = small_setup(seed=2, segc=segc)
        seen, hallu, pivot, *_ = random_batches(arch, 3, seed=4)
        # gamma and beta start apart so joint probes stay off the snap band
        cfg = base_cfg(segc_active=segc,
                       divergence=dv.DivergenceSpec("sharma_mittal", 2.0, 2.5, True, True))
        div_init = cfg.divergence.unconstrained_init()
        merged = dm.ParamStore(
            [("gen." + k, v) for k, v in gen.store.items()]
            + [("div." + k, np.asarray(v)) for k, v in div_init.items()]
        )
        # the reduced class table is frozen per evaluation by design, so the
        # finite-difference oracle freezes it at the base point as well
        reduced_seen = mo.reduce_semantics(gen, pivot.semantics) if segc else None

        def build(leaves):
            gen_map = {k[4:]: v for k, v in leaves.items() if k.startswith("gen.")}
            div_map = {k[4:]: v for k, v in leaves.items() if k.startswith("div.")}
            return ls.total(ls.generator_loss_node(gen_map, div_map, disc, seen, hallu,
                                                   pivot, cfg, reduced_seen=reduced_seen))

        grads = dm.grad_scalar(build, merged)

        def value(p):
            return float(build(p).value)

        for trial in range(3):
            direction = random_direction(merged, rng(100 + trial))
            analytic = sum((grads[k] * direction[k]).sum() for k in merged.names())
            fd = directional_derivative(value, merged, direction)
            assert rel_err(analytic, fd).max() < 1e-4

    def test_entropy_parameter_gradients_axiswise_at_equal_start(self):
        # four-direction check at gamma = beta = 2: each axis probe leaves
        # the snap band, where the surface is the native two-parameter form
        arch, gen, disc = small_setup(seed=2)
        seen, hallu, pivot, *_ = random_batches(arch, 3, seed=4)
        cfg = base_cfg(divergence=dv.DivergenceSpec("sharma_mittal", 2.0, 2.0, True, True))
        div_init = cfg.divergence.unconstrained_init()
        merged = dm.ParamStore(
            [("gen." + k, v) for k, v in gen.store.items()]
            + [("div." + k, np.asarray(v)) for k, v in div_init.items()]
        )

        def build(leaves):
            gen_map = {k[4:]: v for k, v in leaves.items() if k.startswith("gen.")}
            div_map = {k[4:]: v for k, v in leaves.items() if k.startswith("div.")}
            return ls.total(ls.generator_loss_node(gen_map, div_map, disc, seen, hallu,
                                                   pivot, cfg))

        grads = dm.grad_scalar(build, merged)

        def value(p):
            return float(build(p).value)

        # sigmoid of the shared unconstrained start maps a 1e-5 parameter
        # step to a slightly smaller gamma/beta step; stay safely outside
        h = 4e-5
        for name in ("div.u_gamma", "div.u_beta"):
            direction = {k: (np.ones_like(v) if k == name else np.zeros_like(v))
                         for k, v in merged.items()}
            analytic = float(grads[name].sum())
            fd = directional_derivative(value, merged, direction, h=h)
            assert rel_err(analytic, fd, floor=1e-4).max() < 2e-4


class TestDiscriminatorLoss:
    def test_every_term_vanishes_in_the_constructed_case(self):
        # identity trunk on positive features, unit-norm linear critic with a
        # bias cancelling the constant first coordinate, saturated classifier
        arch = mo.ArchSpec(semantic_dim=2, visual_dim=2, noise_dim=1, hidden_dim=2)
        gen, disc = mo.init_params(arch, 2, False, rng(0))
        disc.store["trunk0.W"][:] = np.eye(2)
        disc.store["trunk0.b"][:] = 0.0
        disc.store["real.W"][:] = np.array([[1.0], [0.0]])
        disc.store["real.b"][:] = -2.0
        disc.store["cls.W"][:] = 0.0
        disc.store["cls.b"][:] = np.array([50.0, 0.0])
        gen.store["out.W"][:] = 0.0
        gen.store["out.b"][:] = np.array([2.0, 1.5])  # constant positive fake

        b = 5
        g = rng(1)
        real_x = np.column_stack([np.full(b, 2.0), g.uniform(0.5, 3.0, size=b)])
        real_y = np.zeros(b, dtype=int)
        seen = ls.SeenBatch(g.standard_normal((b, 2)), real_y, g.standard_normal((b, 1)))
        hallu = ls.HalluBatch(g.standard_normal((b, 2)), g.standard_normal((b, 1)))
        x_fake = mo.generate(gen, seen.t, seen.z)
        x_t = ls.lipschitz_interpolate(real_x, x_fake, rng(2))
        terms, _ = ls.discriminator_loss_node(disc.store, disc, real_x, real_y, x_fake, seen.y,
                                              x_t, base_cfg(lambda_creativity=0.0))
        assert abs(sum(terms.values())) < 1e-6

    def test_gradient_norm_three_contributes_four(self):
        arch = mo.ArchSpec(semantic_dim=2, visual_dim=2, noise_dim=1, hidden_dim=2)
        gen, disc = mo.init_params(arch, 2, False, rng(0))
        disc.store["trunk0.W"][:] = np.eye(2)
        disc.store["trunk0.b"][:] = 0.0
        disc.store["real.W"][:] = np.array([[3.0], [0.0]])
        disc.store["real.b"][:] = 0.0
        gen.store["out.W"][:] = 0.0
        gen.store["out.b"][:] = np.array([2.0, 1.5])

        g = rng(1)
        real_x = g.uniform(0.5, 3.0, size=(4, 2))
        seen = ls.SeenBatch(g.standard_normal((4, 2)), np.zeros(4, dtype=int),
                            g.standard_normal((4, 1)))
        hallu = ls.HalluBatch(g.standard_normal((4, 2)), g.standard_normal((4, 1)))
        x_fake = mo.generate(gen, seen.t, seen.z)
        x_t = ls.lipschitz_interpolate(real_x, x_fake, rng(2))
        terms, _ = ls.discriminator_loss_node(disc.store, disc, real_x, seen.y, x_fake, seen.y,
                                              x_t, base_cfg())
        assert terms["gradient_penalty"] == pytest.approx(4.0, abs=1e-9)

    def test_hallucinated_real_fake_term(self):
        arch, gen, disc = small_setup(seed=3)
        seen, hallu, pivot, real_x, real_y = random_batches(arch, 3, seed=5)
        x_fake = mo.generate(gen, seen.t, seen.z)
        x_t = ls.lipschitz_interpolate(real_x, x_fake, rng(6))
        x_h = mo.generate(gen, hallu.t, hallu.z)
        plain, _ = ls.discriminator_loss_node(disc.store, disc, real_x, real_y, x_fake,
                                              seen.y, x_t, base_cfg())
        with_h, _ = ls.discriminator_loss_node(disc.store, disc, real_x, real_y, x_fake,
                                               seen.y, x_t, base_cfg(rf_hallucinated=True),
                                               x_h)
        expected = mo.discriminate(disc, x_h)["r"].mean()
        assert with_h["critic_hallucinated"] == pytest.approx(expected, abs=1e-10)
        assert sum(with_h.values()) - sum(plain.values()) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("segc,flags", [
        (False, {}),
        (False, {"rf_hallucinated": True, "creativity_on_discriminator": True}),
        (True, {"segc_active": True, "rf_hallucinated": True}),
        (True, {"segc_active": True, "segc_normalized": True, "eta": 3.0}),
    ])
    def test_gradient_matches_finite_differences(self, segc, flags):
        arch, gen, disc = small_setup(seed=8, segc=segc)
        seen, hallu, pivot, real_x, real_y = random_batches(arch, 3, seed=13)
        cfg = base_cfg(**flags)
        x_fake = mo.generate(gen, seen.t, seen.z)
        x_t = ls.lipschitz_interpolate(real_x, x_fake, rng(7))
        x_h = mo.generate(gen, hallu.t, hallu.z)
        reduced_seen = mo.reduce_semantics(gen, pivot.semantics) if segc else None

        def build(p):
            return ls.discriminator_loss_node(
                p, disc, real_x, real_y, x_fake, seen.y, x_t, cfg, x_h, reduced_seen,
                cfg.divergence.effective_params())

        terms, backward = build(disc.store)
        grads = backward(dict.fromkeys(terms, 1.0))

        def value(p):
            return sum(build(p)[0].values())

        for trial in range(3):
            direction = random_direction(disc.store, rng(200 + trial))
            analytic = sum((grads[k] * direction[k]).sum() for k in disc.store.names())
            fd = directional_derivative(value, disc.store, direction)
            assert rel_err(analytic, fd).max() < 1e-3

    def test_critic_terms_identical_across_heads(self):
        arch, gen, disc_c = small_setup(seed=21, segc=False)
        _, _, disc_s = small_setup(seed=21, segc=True)
        # share trunk and critic parameters bit for bit
        for name in ("trunk0.W", "trunk0.b", "real.W", "real.b"):
            disc_s.store[name][:] = disc_c.store[name]
        seen, hallu, pivot, real_x, real_y = random_batches(arch, 3, seed=23)
        x_fake = mo.generate(gen, seen.t, seen.z)
        x_t = ls.lipschitz_interpolate(real_x, x_fake, rng(3))
        a, _ = ls.discriminator_loss_node(disc_c.store, disc_c, real_x, real_y, x_fake, seen.y,
                                          x_t, base_cfg())
        b, _ = ls.discriminator_loss_node(disc_s.store, disc_s, real_x, real_y, x_fake, seen.y,
                                          x_t, base_cfg(segc_active=True),
                                          reduced_seen=mo.reduce_semantics(gen, pivot.semantics))
        for key in ("critic_fake", "critic_real", "gradient_penalty"):
            assert a[key] == b[key]


class TestStackedCriticPass:
    """Each builder's one stacked critic pass equals the multi-pass tape
    composition, term by term and gradient by gradient."""

    HEADS = {
        "classic": dict(),
        "semantic-guided": dict(segc_active=True, segc_normalized=True, eta=2.0,
                                u_categorization=True, k_unseen_cap=3),
        "new-class": dict(entropy_term=False, new_class_ablation=True),
    }

    @staticmethod
    def assert_close(a, b):
        a, b = np.asarray(a), np.asarray(b)
        assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1e-300)

    def check(self, build, oracle, params):
        got, want = {}, {}
        grads = dm.grad_scalar(lambda lv: ls.total(got.setdefault("t", build(lv))), params)
        expect = dm.grad_scalar(lambda lv: ls.total(want.setdefault("t", oracle(lv))), params)
        assert list(got["t"]) == list(want["t"])
        for name in got["t"]:
            self.assert_close(got["t"][name].value, want["t"][name].value)
        for name in params.names():
            self.assert_close(grads[name], expect[name])

    def setup_case(self, preset, head):
        flags = dict(rf_hallucinated=True, creativity_on_discriminator=True,
                     lambda_creativity=0.6,
                     divergence=dv.DivergenceSpec("sharma_mittal", 2.0, 2.5, True, True))
        flags.update(self.HEADS[head])
        cfg = ls.LossConfig(**flags)
        arch = mo.ArchSpec(semantic_dim=5, visual_dim=6, noise_dim=2, hidden_dim=7,
                           preset=preset)
        gen, disc = mo.init_params(arch, 3, cfg.segc_active, rng(41),
                                   extra_class=cfg.new_class_ablation)
        seen, hallu, pivot, real_x, real_y = random_batches(arch, 3, b=5, seed=43)
        g = rng(44)
        t_u = g.standard_normal((3, arch.semantic_dim))
        ucat = ls.UCatBatch(t_u, g.standard_normal((3, arch.noise_dim)))
        reduced = {}
        if cfg.segc_active:
            reduced = dict(reduced_seen=mo.reduce_semantics(gen, pivot.semantics))
        return cfg, gen, disc, seen, hallu, pivot, real_x, real_y, ucat, reduced

    @pytest.mark.parametrize("preset", ["base", "doublenet"])
    @pytest.mark.parametrize("head", list(HEADS))
    def test_discriminator_terms_and_gradients(self, preset, head):
        cfg, gen, disc, seen, hallu, pivot, real_x, real_y, _, reduced = \
            self.setup_case(preset, head)
        x_fake = mo.generate(gen, seen.t, seen.z)
        x_t = ls.lipschitz_interpolate(real_x, x_fake, rng(45))
        x_h = mo.generate(gen, hallu.t, hallu.z)
        weights = rng(47).uniform(-2.0, 2.0, size=7)

        def weighted(terms):
            out = dm.constant(0.0)
            for w, t in zip(weights, terms.values()):
                out = dm.add(out, dm.mul(w, t))
            return out

        # the hallucinated terms on and off; the closed form's backward map
        # must also take any weighting of the terms
        for hallucinated in (True, False):
            flags = replace(cfg, rf_hallucinated=hallucinated,
                            creativity_on_discriminator=hallucinated)
            args = (disc, real_x, real_y, x_fake, seen.y, x_t, flags, x_h,
                    reduced.get("reduced_seen"), (2.0, 2.5))
            terms, backward = ls.discriminator_loss_node(disc.store, *args)
            oracle = {}
            expect = dm.grad_scalar(lambda lv: ls.total(
                oracle.setdefault("t", discriminator_terms_multipass(lv, *args))), disc.store)
            assert list(terms) == list(oracle["t"])
            for name in terms:
                self.assert_close(terms[name], oracle["t"][name].value)
            grads = backward(dict.fromkeys(terms, 1.0))
            for name in disc.store.names():
                self.assert_close(grads[name], expect[name])
            got = backward(dict(zip(terms, weights)))
            want = dm.grad_scalar(lambda lv: weighted(discriminator_terms_multipass(lv, *args)),
                                  disc.store)
            for name in disc.store.names():
                self.assert_close(got[name], want[name])

    @pytest.mark.parametrize("preset", ["base", "doublenet"])
    @pytest.mark.parametrize("head", list(HEADS))
    def test_generator_terms_and_gradients(self, preset, head):
        cfg, gen, disc, seen, hallu, pivot, _, _, ucat, reduced = self.setup_case(preset, head)
        if cfg.u_categorization:
            reduced["reduced_ucat"] = mo.reduce_semantics(gen, ucat.t)
        merged = dm.ParamStore(
            [("gen." + k, v) for k, v in gen.store.items()]
            + [("div." + k, np.asarray(v))
               for k, v in cfg.divergence.unconstrained_init().items()])

        def split(lv):
            return ({k[4:]: v for k, v in lv.items() if k.startswith("gen.")},
                    {k[4:]: v for k, v in lv.items() if k.startswith("div.")})

        self.check(
            lambda lv: ls.generator_loss_node(*split(lv), disc, seen, hallu, pivot, cfg,
                                              ucat, **reduced),
            lambda lv: generator_terms_multipass(*split(lv), disc, seen, hallu, pivot, cfg,
                                                 ucat, **reduced),
            merged)


class TestSegcCategorizerLoss:
    """Cross-entropy of the semantic softmax over compatibility scores."""

    @staticmethod
    def loss(W, feats, labels, reduced):
        scores = mo.segc_score_node(W, feats, reduced)
        onehot = np.eye(len(reduced))[labels]
        return float(dm.vmean(dm.cross_entropy_rows(scores, dm.constant(onehot))).value)

    def test_saturated_scores_give_zero_loss(self):
        loss = self.loss(50.0 * np.eye(3), np.eye(3), np.arange(3), np.eye(3))
        assert loss == pytest.approx(0.0, abs=1e-10)

    def test_uniform_two_class_scores_give_log_two(self):
        loss = self.loss(np.zeros((3, 3)), np.ones((4, 3)), np.zeros(4, dtype=int),
                         np.eye(3)[:2])
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_hand_set_score_matrix(self):
        feats = rng(5).standard_normal((3, 3))
        labels = np.array([0, 1, 2])
        scores = feats  # W = I, descriptors = basis vectors
        expected = float(np.mean([
            -np.log(np.exp(scores[i, labels[i]]) / np.exp(scores[i]).sum()) for i in range(3)
        ]))
        got = self.loss(np.eye(3), feats, labels, np.eye(3))
        assert got == pytest.approx(expected, abs=1e-12)


class TestHallucinatedCategorizationLoss:
    def test_uniform_scores_give_log_ku(self):
        arch, gen, disc = small_setup(segc=True)
        disc.store["segc.W"][:] = 0.0
        cfg = base_cfg(segc_active=True, u_categorization=True, k_unseen_cap=2)
        t_u = rng(1).standard_normal((2, 5))
        z = rng(2).standard_normal((2, 2))
        loss = ls.hallucinated_categorization_node(gen.store, disc, ls.UCatBatch(t_u, z), cfg,
                                                   mo.reduce_semantics(gen, t_u))
        assert loss.value == pytest.approx(np.log(2.0), abs=1e-12)

    def test_dominant_own_descriptor_gives_near_zero(self):
        arch = mo.ArchSpec(semantic_dim=2, visual_dim=2, noise_dim=1, hidden_dim=2,
                           reduced_dim=2)
        gen, disc = mo.init_params(arch, 2, True, rng(0))
        gen.store["reduce.W"][:] = np.eye(2)
        gen.store["reduce.b"][:] = 0.0
        gen.store["h0.W"][:] = np.vstack([np.eye(2), np.zeros((1, 2))])
        gen.store["h0.b"][:] = 0.0
        gen.store["out.W"][:] = np.eye(2)
        gen.store["out.b"][:] = 0.0
        disc.store["trunk0.W"][:] = np.eye(2)
        disc.store["trunk0.b"][:] = 0.0
        disc.store["segc.W"][:] = 50.0 * np.eye(2)
        cfg = base_cfg(segc_active=True, u_categorization=True, k_unseen_cap=2)
        t_u = np.eye(2)
        z = np.zeros((2, 1))
        loss = ls.hallucinated_categorization_node(gen.store, disc, ls.UCatBatch(t_u, z), cfg,
                                                   mo.reduce_semantics(gen, t_u))
        assert loss.value == pytest.approx(0.0, abs=1e-10)

    def test_fewer_than_two_classes_rejected(self):
        arch, gen, disc = small_setup(segc=True)
        cfg = base_cfg(segc_active=True, u_categorization=True, k_unseen_cap=2)
        with pytest.raises(ValidationError):
            ls.hallucinated_categorization_node(gen.store, disc,
                                                ls.UCatBatch(np.ones((1, 5)), np.ones((1, 2))),
                                                cfg, np.ones((1, 3)))


class TestFinitenessAfterFlooring:
    def test_saturated_softmax_keeps_every_loss_finite(self):
        # a huge classification margin produces a numerically one-hot softmax;
        # probability flooring must keep the entropy term finite for gamma > 1
        arch, gen, disc = small_setup()
        disc.store["trunk0.W"][:] = 0.0
        disc.store["trunk0.b"][:] = 1.0
        disc.store["cls.W"][:] = 0.0
        disc.store["cls.b"][:] = 0.0
        disc.store["cls.b"][0] = 500.0
        cfg = base_cfg(lambda_creativity=2.0,
                       divergence=dv.DivergenceSpec("sharma_mittal", 4.0, 3.0))
        t_h = rng(1).standard_normal((4, 5))
        z = rng(2).standard_normal((4, 2))
        value = creativity_value(disc, gen, t_h, z, cfg)
        assert np.isfinite(value)

    def test_gradient_penalty_is_nonnegative_and_zero_only_at_unit_norm(self):
        for scale, expect_zero in ((1.0, True), (0.5, False), (3.0, False)):
            w = np.array([[scale], [0.0]])
            value = float(dm.lipschitz_penalty_node([w], [np.ones((3, 2))]).value)
            assert value >= 0.0
            assert (value < 1e-24) == expect_zero


class TestLossConfigValidation:
    def test_new_class_excludes_entropy(self):
        with pytest.raises(ValidationError):
            base_cfg(new_class_ablation=True, entropy_term=True)

    def test_u_categorization_needs_segc(self):
        with pytest.raises(ValidationError):
            base_cfg(u_categorization=True)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValidationError):
            base_cfg(lambda_creativity=-0.1)

    def test_tiny_unseen_cap_rejected(self):
        with pytest.raises(ValidationError):
            base_cfg(k_unseen_cap=1)
