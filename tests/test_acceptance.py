"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The directional-expectation criterion is reported, never asserted.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import genzsl.dataio as io
import genzsl.diffmath as dm
import genzsl.divergences as dv
import genzsl.evaluation as ev
import genzsl.losses as ls
import genzsl.model as mo
import genzsl.training as tr
from genzsl.cli import main as cli_main
from helpers import directional_derivative, random_direction, rel_err


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f" :: {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def random_prob(rng, k):
    v = rng.gamma(1.0, 1.0, size=k)
    return v / v.sum()


# ---------------------------------------------------------------------------
# criterion 1: divergence invariants


class TestCriterion1Divergences:
    def test_divergence_suite(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(1)
        fixed_specs = [
            dv.DivergenceSpec("renyi", 2.0), dv.DivergenceSpec("tsallis", 3.0),
            dv.DivergenceSpec("kl"), dv.DivergenceSpec("bhattacharyya"),
        ]

        worst_neg = 0.0
        for _ in range(1000):
            k = int(rng.integers(2, 8))
            p, q = random_prob(rng, k), random_prob(rng, k)
            gamma = float(rng.uniform(0.1, 4.0))
            if abs(gamma - 1.0) < 1e-3:
                gamma = 1.5
            beta = float(rng.uniform(-2.0, 4.0))
            worst_neg = min(worst_neg, dv.sm_divergence(p, q, gamma, beta))
            for spec in fixed_specs:
                worst_neg = min(worst_neg, dv.special_case(p, q, spec))
        report("1a non-negativity over 1000 random pairs", worst_neg >= -1e-10,
               f"min value {worst_neg:.2e}")

        worst_id = 0.0
        for _ in range(200):
            p = random_prob(rng, 5)
            worst_id = max(worst_id, dv.sm_divergence(p, p, 2.0, 3.0))
            for spec in fixed_specs:
                worst_id = max(worst_id, dv.special_case(p, p, spec))
        report("1b identity of indiscernibles", worst_id <= 1e-10,
               f"max self-divergence {worst_id:.2e}")

        worst_lim = 0.0
        for gamma in (0.3, 0.5, 2.0, 4.0):
            for _ in range(50):
                p, q = random_prob(rng, 5), random_prob(rng, 5)
                renyi = dv.special_case(p, q, dv.DivergenceSpec("renyi", gamma))
                tsallis = dv.special_case(p, q, dv.DivergenceSpec("tsallis", gamma))
                for d in (1e-6, -1e-6):
                    worst_lim = max(worst_lim,
                                    abs(dv.sm_divergence(p, q, gamma, 1.0 + d) - renyi))
                    worst_lim = max(worst_lim,
                                    abs(dv.sm_divergence(p, q, gamma, gamma + d) - tsallis))
        for _ in range(50):
            p, q = random_prob(rng, 5), random_prob(rng, 5)
            kl = dv.special_case(p, q, dv.DivergenceSpec("kl"))
            worst_lim = max(worst_lim,
                            abs(dv.sm_divergence(p, q, 1 + 1e-6, 1 + 1e-6) - kl))
            b = dv.special_case(p, q, dv.DivergenceSpec("bhattacharyya"))
            lim = dv.sm_divergence(p, q, 0.5 + 1e-6, 1.0 + 1e-6)
            worst_lim = max(worst_lim, abs(lim - 2.0 * b))
        report("1c limit agreement (renyi/tsallis/kl/2*bhattacharyya)",
               worst_lim <= 1e-5, f"max deviation {worst_lim:.2e}")

        elapsed = time.monotonic() - t0
        report("1d divergence suite runtime < 10 s", elapsed < 10.0, f"{elapsed:.2f} s")


# ---------------------------------------------------------------------------
# criterion 2: gradient suite


def _loss_instance(rng, segc=False, extra=False):
    k_seen = int(rng.integers(2, 5))
    arch = mo.ArchSpec(
        semantic_dim=int(rng.integers(3, 9)), visual_dim=int(rng.integers(3, 9)),
        noise_dim=int(rng.integers(2, 5)), hidden_dim=int(rng.integers(4, 17)),
        preset=("base", "doublenet")[int(rng.integers(0, 2))])
    seed = int(rng.integers(0, 2**31))
    gen, disc = mo.init_params(arch, k_seen, segc, io.philox(seed, 1), extra_class=extra)
    b = int(rng.integers(2, 9))
    seen = ls.SeenBatch(rng.standard_normal((b, arch.semantic_dim)),
                        rng.integers(0, k_seen, size=b),
                        rng.standard_normal((b, arch.noise_dim)))
    hallu = ls.HalluBatch(rng.standard_normal((b, arch.semantic_dim)),
                          rng.standard_normal((b, arch.noise_dim)))
    pivot = ls.PivotInputs(rng.standard_normal((k_seen, arch.semantic_dim)),
                           rng.standard_normal((k_seen, arch.visual_dim)),
                           rng.standard_normal((k_seen, 2, arch.noise_dim)))
    real_x = rng.standard_normal((b, arch.visual_dim))
    real_y = rng.integers(0, k_seen, size=b)
    return arch, gen, disc, seen, hallu, pivot, real_x, real_y


def _check_directional(grads, value, params, rng, tol):
    direction = random_direction(params, rng)
    analytic = sum((grads[k] * direction[k]).sum() for k in params.names())
    fd = directional_derivative(value, params, direction)
    return float(rel_err(analytic, fd).max())


class TestCriterion2Gradients:
    def test_gradient_suite(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(7)

        def gen_div_store(gen, cfg):
            return dm.ParamStore(
                [("gen." + k, v) for k, v in gen.store.items()]
                + [("div." + k, np.asarray(v))
                   for k, v in cfg.loss.divergence.unconstrained_init().items()])

        # generator loss (classic, semantic-guided, hallucinated categorization)
        worst = 0.0
        for i in range(100):
            segc = i % 3 > 0
            ucat = i % 3 == 2
            arch, gen, disc, seen, hallu, pivot, *_ = _loss_instance(rng, segc=segc)
            spec = dv.DivergenceSpec("sharma_mittal", 2.0, 2.5, True, True)
            loss_cfg = ls.LossConfig(
                lambda_creativity=0.4, segc_active=segc, u_categorization=ucat,
                k_unseen_cap=3, divergence=spec)
            cfg = tr.TrainConfig(loss=loss_cfg)
            ucat_batch = None
            reduced_ucat = None
            if ucat:
                t_u = rng.standard_normal((3, arch.semantic_dim))
                ucat_batch = ls.UCatBatch(t_u, rng.standard_normal((3, arch.noise_dim)))
                reduced_ucat = mo.reduce_semantics(gen, t_u)
            reduced_seen = mo.reduce_semantics(gen, pivot.semantics) if segc else None
            merged = gen_div_store(gen, cfg)

            def build(leaves):
                gen_map = {k[4:]: v for k, v in leaves.items() if k.startswith("gen.")}
                div_map = {k[4:]: v for k, v in leaves.items() if k.startswith("div.")}
                return ls.total(ls.generator_loss_node(
                    gen_map, div_map, disc, seen, hallu, pivot, loss_cfg,
                    ucat_batch, reduced_seen, reduced_ucat))

            def value(p):
                return float(build({k: dm.constant(v) for k, v in p.items()}).value)

            grads = dm.grad_scalar(build, merged)
            worst = max(worst, _check_directional(grads, value, merged, rng, 1e-4))
        report("2a generator loss gradients (100 instances)", worst < 1e-4,
               f"max rel err {worst:.2e}")

        # discriminator loss, penalty included
        worst = 0.0
        for i in range(100):
            segc = i % 3 == 2
            arch, gen, disc, seen, hallu, pivot, real_x, real_y = _loss_instance(rng, segc=segc)
            flags = {}
            if i % 3 == 1:
                flags = {"rf_hallucinated": True, "creativity_on_discriminator": True,
                         "lambda_creativity": 0.4}
            if segc:
                flags = {"segc_active": True, "rf_hallucinated": True,
                         "segc_normalized": i % 2 == 0, "eta": 2.0}
            loss_cfg = ls.LossConfig(
                divergence=dv.DivergenceSpec("sharma_mittal", 2.0, 2.5), **flags)
            x_fake = mo.generate(gen, seen.t, seen.z)
            x_t = ls.lipschitz_interpolate(real_x, x_fake, io.philox(i, 3))
            x_h = mo.generate(gen, hallu.t, hallu.z)
            reduced_seen = mo.reduce_semantics(gen, pivot.semantics) if segc else None

            def build(p):
                return ls.discriminator_loss_node(
                    p, disc, real_x, real_y, x_fake, seen.y, x_t, loss_cfg, x_h,
                    reduced_seen, loss_cfg.divergence.effective_params())

            def value(p):
                return sum(build(p)[0].values())

            terms, backward = build(disc.store)
            grads = backward(dict.fromkeys(terms, 1.0))
            worst = max(worst, _check_directional(grads, value, disc.store, rng, 1e-3))
        report("2b discriminator loss gradients incl. penalty (100 instances)",
               worst < 1e-3, f"max rel err {worst:.2e}")

        # creativity loss alone (both terms, learnable divergence parameters)
        worst = 0.0
        for i in range(100):
            arch, gen, disc, seen, hallu, pivot, *_ = _loss_instance(rng)
            spec = dv.DivergenceSpec("sharma_mittal", 2.0, 2.5, True, True)
            loss_cfg = ls.LossConfig(lambda_creativity=0.7, divergence=spec)
            cfg = tr.TrainConfig(loss=loss_cfg)
            merged = gen_div_store(gen, cfg)

            def build(leaves):
                gen_map = {k[4:]: v for k, v in leaves.items() if k.startswith("gen.")}
                div_map = {k[4:]: v for k, v in leaves.items() if k.startswith("div.")}
                terms = ls.generator_loss_node(gen_map, div_map, disc, seen, hallu, pivot,
                                               loss_cfg)
                return ls.total({k: v for k, v in terms.items()
                                 if k.startswith("creativity_")})

            def value(p):
                return float(build({k: dm.constant(v) for k, v in p.items()}).value)

            grads = dm.grad_scalar(build, merged)
            worst = max(worst, _check_directional(grads, value, merged, rng, 1e-4))
        report("2c creativity loss gradients (100 instances)", worst < 1e-4,
               f"max rel err {worst:.2e}")

        # semantic softmax categorizer over the projection
        worst = 0.0
        for i in range(100):
            f_dim = int(rng.integers(3, 10))
            r_dim = int(rng.integers(2, 8))
            c = int(rng.integers(2, 6))
            b = int(rng.integers(2, 9))
            W = rng.standard_normal((f_dim, r_dim))
            feats = rng.standard_normal((b, f_dim))
            reduced = rng.standard_normal((c, r_dim))
            onehot = np.eye(c)[rng.integers(0, c, size=b)]
            store = dm.ParamStore({"segc.W": W})
            normalized = i % 2 == 0

            def build(leaves):
                scores = mo.segc_score_node(leaves["segc.W"], dm.constant(feats),
                                            reduced, normalized, 2.0)
                return dm.vmean(dm.cross_entropy_rows(scores, dm.constant(onehot)))

            def value(p):
                return float(build({k: dm.constant(v) for k, v in p.items()}).value)

            grads = dm.grad_scalar(build, store)
            worst = max(worst, _check_directional(grads, value, store, rng, 1e-4))
        report("2d semantic categorizer gradients (100 instances)", worst < 1e-4,
               f"max rel err {worst:.2e}")

        # hallucinated real/fake term alone: mean critic score of frozen fakes
        worst = 0.0
        rf_cfg = ls.LossConfig(rf_hallucinated=True, divergence=dv.DivergenceSpec("kl"))
        for i in range(100):
            arch, gen, disc, seen, hallu, pivot, real_x, real_y = _loss_instance(rng)
            x_h = mo.generate(gen, hallu.t, hallu.z)
            x_fake = mo.generate(gen, seen.t, seen.z)

            def build(p):
                return ls.discriminator_loss_node(
                    p, disc, real_x, real_y, x_fake, seen.y, x_fake, rf_cfg, x_h)

            def value(p):
                return build(p)[0]["critic_hallucinated"]

            terms, backward = build(disc.store)
            grads = backward({k: float(k == "critic_hallucinated") for k in terms})
            worst = max(worst, _check_directional(grads, value, disc.store, rng, 1e-4))
        report("2e hallucinated real/fake gradients (100 instances)", worst < 1e-4,
               f"max rel err {worst:.2e}")

        # hallucinated-class categorization through the generator
        worst = 0.0
        for i in range(100):
            arch, gen, disc, *_ = _loss_instance(rng, segc=True)
            k_u = int(rng.integers(2, 5))
            t_u = rng.standard_normal((k_u, arch.semantic_dim))
            ucat = ls.UCatBatch(t_u, rng.standard_normal((k_u, arch.noise_dim)))
            reduced_u = mo.reduce_semantics(gen, t_u)
            loss_cfg = ls.LossConfig(
                segc_active=True, u_categorization=True, k_unseen_cap=max(2, k_u),
                divergence=dv.DivergenceSpec("kl"))

            def build(leaves):
                return ls.hallucinated_categorization_node(leaves, disc, ucat,
                                                           loss_cfg, reduced_u)

            def value(p):
                return float(build({k: dm.constant(v) for k, v in p.items()}).value)

            grads = dm.grad_scalar(build, gen.store)
            worst = max(worst, _check_directional(grads, value, gen.store, rng, 1e-4))
        report("2f hallucinated-class categorization gradients (100 instances)",
               worst < 1e-4, f"max rel err {worst:.2e}")

        # entropy loss: softmax side plus both parameters through the mapping
        worst = 0.0
        spec = dv.DivergenceSpec("sharma_mittal", 2.0, 2.5, True, True)
        for i in range(100):
            k = int(rng.integers(2, 9))
            p = 0.85 * random_prob(rng, k) + 0.15 / k
            g_soft, dg, db = dv.entropy_loss_grad(p, spec)

            def f_vec(v):
                vals, *_ = dv.divergence_to_uniform_batch(
                    v[None, :], 2.0, 2.5, "sharma_mittal")
                return float(vals[0])

            h = 1e-5
            for j in range(k):
                up, dn = p.copy(), p.copy()
                up[j] += h
                dn[j] -= h
                worst = max(worst, float(rel_err(g_soft[j],
                                                 (f_vec(up) - f_vec(dn)) / (2 * h)).max()))

            def f_gamma(gamma):
                vals, *_ = dv.divergence_to_uniform_batch(p[None, :], gamma, 2.5,
                                                          "sharma_mittal")
                return float(vals[0])

            def f_beta(beta):
                vals, *_ = dv.divergence_to_uniform_batch(p[None, :], 2.0, beta,
                                                          "sharma_mittal")
                return float(vals[0])

            fd_g = (f_gamma(2.0 + h) - f_gamma(2.0 - h)) / (2 * h)
            fd_b = (f_beta(2.5 + h) - f_beta(2.5 - h)) / (2 * h)
            worst = max(worst, float(rel_err(dg, fd_g).max()),
                        float(rel_err(db, fd_b).max()))
        report("2g entropy loss gradients incl. learnable parameters (100 instances)",
               worst < 1e-4, f"max rel err {worst:.2e}")

        elapsed = time.monotonic() - t0
        report("2h gradient suite runtime < 2 min", elapsed < 120.0, f"{elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criterion 3: ablation identity


class TestCriterion3AblationIdentity:
    def test_disabling_creative_terms_reduces_to_the_plain_objective(self):
        rng = np.random.default_rng(11)
        arch = mo.ArchSpec(semantic_dim=6, visual_dim=8, noise_dim=3, hidden_dim=12)
        gen, disc = mo.init_params(arch, 4, False, io.philox(3, 1))
        b = 6
        seen = ls.SeenBatch(rng.standard_normal((b, 6)), rng.integers(0, 4, size=b),
                            rng.standard_normal((b, 3)))
        hallu = ls.HalluBatch(rng.standard_normal((b, 6)), rng.standard_normal((b, 3)))
        pivot = ls.PivotInputs(rng.standard_normal((4, 6)), rng.standard_normal((4, 8)),
                               rng.standard_normal((4, 3, 3)))
        cfg = ls.LossConfig(realism_term=False, entropy_term=False,
                            divergence=dv.DivergenceSpec("kl"))
        nodes = ls.generator_loss_node(gen.store, {}, disc, seen, hallu, pivot, cfg)
        terms = {k: float(v.value) for k, v in nodes.items()}
        terms["total"] = float(ls.total(nodes).value)

        # the reduction, by direct arithmetic on public forward passes
        x_s = mo.generate(gen, seen.t, seen.z)
        out = mo.discriminate(disc, x_s)
        critic_ref = -out["r"].mean()
        cls_ref = -np.log(out["s"][np.arange(b), seen.y]).mean()
        t_rep = np.repeat(pivot.semantics, 3, axis=0)
        gen_means = mo.generate(gen, t_rep, pivot.z.reshape(12, 3)).reshape(4, 3, 8).mean(axis=1)
        pivot_ref = float(((gen_means - pivot.real_means) ** 2).sum(axis=1).mean())

        checks = {
            "critic term": abs(terms["critic_seen"] - critic_ref),
            "classification term": abs(terms["classification"] - cls_ref),
            "visual pivot term": abs(terms["visual_pivot"] - pivot_ref),
            "total": abs(terms["total"] - (critic_ref + cls_ref + pivot_ref)),
        }
        absent = not any(k.startswith("creativity") for k in terms)
        worst = max(checks.values())
        report("3 term-by-term identity with creative terms removed",
               absent and worst <= 1e-12,
               f"max |delta| {worst:.2e}, creative terms absent: {absent}")


# ---------------------------------------------------------------------------
# criterion 4: end-to-end learning (plus the monitored stability property)


@pytest.fixture(scope="module")
def default_benchmark_runs():
    dataset = io.make_synthetic(io.SyntheticSpec())
    runs = []
    for seed in range(5):
        t0 = time.monotonic()
        params, hist = tr.train(dataset, tr.TrainConfig(seed=seed))
        runs.append((seed, params, hist, time.monotonic() - t0))
    return dataset, runs


class TestCriterion4EndToEnd:
    def test_unseen_top1_beats_three_times_chance(self, default_benchmark_runs):
        dataset, runs = default_benchmark_runs
        passes = 0
        for seed, _, hist, wall in runs:
            final = hist.records[-1]
            ok = final.val_top1 >= 0.75
            passes += ok
            print(f"    seed {seed}: final top1 {final.val_top1:.3f} "
                  f"auc {final.val_auc:.3f} wall {wall:.0f}s")
        report("4a final unseen top-1 >= 0.75 in at least 4 of 5 seeds",
               passes >= 4, f"{passes}/5 seeds")
        slowest = max(w for *_, w in runs)
        report("4b single-core runtime <= 10 min per run", slowest <= 600.0,
               f"slowest {slowest:.0f} s")

    def test_wasserstein_estimate_shrinks_in_median(self, default_benchmark_runs):
        _, runs = default_benchmark_runs
        early, late, shrank = [], [], 0
        for seed, _, hist, _ in runs:
            w100 = abs(next(r.wasserstein for r in hist.records if r.step == 100))
            w_end = abs(hist.records[-1].wasserstein)
            early.append(w100)
            late.append(w_end)
            shrank += w_end < w100
        finite = all(np.isfinite(early + late))
        print(f"    |W| early median {np.median(early):.3f} -> "
              f"late median {np.median(late):.3f}; shrank in {shrank}/5 seeds")
        report("4c critic gap estimate finite and decreasing in median",
               finite and np.median(late) < np.median(early),
               f"{np.median(early):.3f} -> {np.median(late):.3f}")

    def test_generated_class_means_sit_nearest_their_own_class(self, default_benchmark_runs):
        dataset, runs = default_benchmark_runs
        _, params, _, _ = runs[0]
        n = 40
        t_rep = np.repeat(dataset.seen_semantics, n, axis=0)
        z = io.philox(123, 9).standard_normal((dataset.k_seen * n,
                                               params.generator.arch.noise_dim))
        gen_means = mo.generate(params.generator, t_rep, z).reshape(
            dataset.k_seen, n, -1).mean(axis=1)
        real_means = dataset.class_means()
        d = np.linalg.norm(gen_means[:, None, :] - real_means[None, :, :], axis=2)
        own = (d.argmin(axis=1) == np.arange(dataset.k_seen)).mean()
        report("4d generated per-class means nearest their own real means for >= 80%",
               own >= 0.8, f"{own:.0%} of classes")


# ---------------------------------------------------------------------------
# criterion 5: metric oracles


class TestCriterion5MetricOracles:
    def test_metric_oracles(self):
        protos = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0], [20.0, 20.0]])
        clf = ev.GeneratedPoolClassifier(np.arange(4), protos[:, None, :], "euclidean")
        x = np.vstack([protos + 0.01, protos - 0.01])
        labels = np.tile(np.arange(4), 2)
        _, auc = ev.su_curve_auc(clf, x, labels, unseen_ids=[2, 3])
        report("5a oracle scorer area = 1 within 1e-9", abs(auc - 1.0) <= 1e-9,
               f"auc {auc!r}")

        g = io.philox(5, 1)
        noisy = ev.GeneratedPoolClassifier(np.arange(8),
                                           g.standard_normal((8, 6, 4)), "euclidean")
        xs = g.standard_normal((160, 4))
        ys = np.repeat(np.arange(8), 20)
        sigma = noisy.scores(xs).std()
        auc51 = ev.su_curve_auc(noisy, xs, ys, np.arange(4, 8),
                                np.linspace(-3 * sigma, 3 * sigma, 51))[1]
        auc501 = ev.su_curve_auc(noisy, xs, ys, np.arange(4, 8),
                                 np.linspace(-3 * sigma, 3 * sigma, 501))[1]
        report("5b grid refinement agreement within 0.02",
               abs(auc51 - auc501) < 0.02, f"|{auc51:.4f} - {auc501:.4f}|")

        hm_err = abs(ev.harmonic_mean(0.6, 0.3) - 2 * 0.6 * 0.3 / 0.9)
        hm_err = max(hm_err, abs(ev.harmonic_mean(0.5, 0.5) - 0.5))
        report("5c harmonic mean matches direct arithmetic to 1e-12",
               hm_err <= 1e-12, f"max err {hm_err:.2e}")

        # retrieval precision vs a by-hand ranking on a crafted gallery
        gen = _wired_identity_generator()
        descriptors = np.array([[0.0, 0.0], [10.0, 0.0]])
        feats = np.array([[0.1, 0.0], [0.2, 0.0], [9.0, 0.0], [10.5, 0.0],
                          [5.0, 0.0], [0.3, 0.0]])
        labels = np.array([0, 1, 1, 1, 0, 0])
        result = ev.retrieval_map(gen, descriptors, feats, labels, [0, 1],
                                  fractions=(1.0,), n_generate=3, rng=io.philox(4, 4))
        # class 0 center ~ (0,0): ranking 0,1,5,4,... -> top-3 hits rows 0,5 and 4
        d0 = np.linalg.norm(feats - np.array([0.0, 0.0]), axis=1)
        top0 = labels[np.argsort(d0, kind="stable")[:3]]
        d1 = np.linalg.norm(feats - np.array([10.0, 0.0]), axis=1)
        top1_ = labels[np.argsort(d1, kind="stable")[:3]]
        expected = 0.5 * ((top0 == 0).mean() + (top1_ == 1).mean())
        report("5d retrieval precision matches direct arithmetic to 1e-12",
               abs(result[1.0] - expected) <= 1e-12,
               f"{result[1.0]!r} vs {expected!r}")


def _wired_identity_generator():
    arch = mo.ArchSpec(semantic_dim=2, visual_dim=2, noise_dim=1, hidden_dim=2,
                       reduced_dim=2)
    gen, _ = mo.init_params(arch, 2, False, io.philox(0, 1))
    gen.store["reduce.W"][:] = np.eye(2)
    gen.store["reduce.b"][:] = 0.0
    gen.store["h0.W"][:] = np.vstack([np.eye(2), np.zeros((1, 2))])
    gen.store["h0.b"][:] = 0.0
    gen.store["out.W"][:] = np.eye(2)
    gen.store["out.b"][:] = 0.0
    return gen


# ---------------------------------------------------------------------------
# criterion 6: structural table reproduction


SMALL_DS = ["--k-seen", "5", "--k-unseen", "2", "--visual-dim", "8",
            "--semantic-dim", "6", "--samples-per-class", "12"]
SMALL_TRAIN = ["--steps", "4", "--batch-size", "8",
               "--set", "eval_every=2", "--set", "arch.hidden_dim=10",
               "--set", "arch.noise_dim=3", "--set", "n_generate_eval=6"]

EXPECTED_SUITES = {
    "creative-loss": 9,
    "hallucination-policies": 5,
    "semantic-categorizer": 2,
    "segc-and-hallucinated-rf": 4,
    "hallucinated-class-count": 2,
}


class TestCriterion6StructuralTables:
    def test_every_suite_emits_its_rows(self, tmp_path):
        ds = str(tmp_path / "ds")
        assert cli_main(["synth", "--out", ds, "--seed", "1", *SMALL_DS]) == 0
        all_ok = True
        details = []
        for suite, n_rows in EXPECTED_SUITES.items():
            out = tmp_path / f"abl_{suite}"
            code = cli_main(["ablate", "--data", ds, "--out", str(out),
                             "--suite", suite, *SMALL_TRAIN,
                             "--set", "loss.k_unseen_cap=4"])
            lines = (out / "ablation.csv").read_text().splitlines()
            labels = [line.split(",")[0] for line in lines[1:]]
            expected = [name for name, _ in tr.ABLATION_SUITES[suite]]
            ok = code == 0 and labels == expected and len(labels) == n_rows
            numeric = all(
                np.isfinite([float(v) for v in line.split(",")[1:]]).all()
                for line in lines[1:])
            all_ok &= ok and numeric
            details.append(f"{suite}:{len(labels)} rows")
        report("6 ablation tables reproduce every study layout row for row",
               all_ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 7: determinism of command outputs


class TestCriterion7Determinism:
    def test_repeated_commands_give_byte_identical_csv(self, tmp_path):
        blobs = {}
        for tag in ("a", "b"):
            base = tmp_path / tag
            ds = str(base / "ds")
            assert cli_main(["synth", "--out", ds, "--seed", "9", *SMALL_DS]) == 0
            run = str(base / "run")
            assert cli_main(["train", "--data", ds, "--out", run, "--seed", "2",
                             *SMALL_TRAIN]) == 0
            ev_out = str(base / "eval")
            assert cli_main(["eval", "--checkpoint", run + "/checkpoint",
                             "--data", ds, "--out", ev_out,
                             "--n-generate", "6", "--seed", "3"]) == 0
            blobs[tag] = {
                "history": open(run + "/history.csv", "rb").read(),
                "report": open(ev_out + "/eval_report.csv", "rb").read(),
                "curve": open(ev_out + "/su_curve.csv", "rb").read(),
            }
        same = all(blobs["a"][k] == blobs["b"][k] for k in blobs["a"])
        report("7 repeated invocations produce byte-identical CSV outputs", same,
               "history, report, and curve files compared")


# ---------------------------------------------------------------------------
# criterion 8: directional expectation (reported, never asserted)


class TestCriterion8DirectionalReport:
    def test_creativity_direction_on_the_hard_split(self):
        # each run's score is its best evaluated checkpoint, matching the
        # periodic-monitoring protocol used for model selection
        dataset = io.make_synthetic(io.SyntheticSpec(split_mode="hard"))
        wins = 0
        rows = []
        for seed in range(5):
            aucs = {}
            for name, lam in (("zero", 0.0), ("creative", None)):
                cfg = tr.TrainConfig(seed=seed)
                if lam is not None:
                    cfg = replace(cfg, loss=replace(cfg.loss, lambda_creativity=lam))
                _, hist = tr.train(dataset, cfg)
                aucs[name] = max(r.val_auc for r in hist.records)
            win = aucs["creative"] > aucs["zero"]
            wins += win
            rows.append(f"seed {seed}: zero {aucs['zero']:.3f} vs "
                        f"creative {aucs['creative']:.3f} -> {'+' if win else '-'}")
        for row in rows:
            print("    " + row)
        held = wins >= 3
        marker = "direction holds" if held else "FLAG: direction does not hold"
        print(f"    [REPORT] creative loss beats zero weight on hard-split best "
              f"area in {wins}/5 seeds ({marker})")
        report("8 directional expectation reported (never asserted)", True,
               f"{wins}/5 seeds favored the creative configuration")


class TestSoftReportCrossValidation:
    def test_winner_prefers_positive_weight_when_zero_is_dominated(self):
        # reported, never asserted: on the hard split with a {0, 1} grid the
        # cross-validated winner should usually carry a positive weight
        dataset = io.make_synthetic(io.SyntheticSpec(split_mode="hard",
                                                     samples_per_class=120))
        positive = 0
        for seed in range(5):
            cfg = tr.TrainConfig(n_steps=1000, eval_every=100, seed=seed,
                                 lambda_grid=(0.0, 1.0))
            res = tr.cross_validate(dataset, cfg)
            positive += res.best_lambda > 0
            print(f"    seed {seed}: winner lambda={res.best_lambda} "
                  f"at step {res.best_step} (val_auc {res.best_metric:.3f})")
        marker = "holds" if positive >= 3 else "FLAG: does not hold"
        print(f"    [REPORT] cross-validation picked a positive creativity "
              f"weight in {positive}/5 seeds ({marker})")
        report("soft report: positive-weight winner frequency", True,
               f"{positive}/5 seeds")
