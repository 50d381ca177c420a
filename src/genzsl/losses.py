"""Every training objective, as named terms on the tape.

Generator side:
    L_G = creativity
          - mean[ critic(G(t_s, z)) ]
          + mean[ cross-entropy of the active head on G(t_s, z) ]
          + visual pivot
          [ + hallucinated-class categorization ]

    creativity = - mean[ critic(G(t_h, z)) ]                  (realism term)
                 + lambda * mean[ minmax(entropy rows) ]      (entropy term)

where the entropy rows measure the divergence of the seen-class softmax from
uniform, min-max normalized within the minibatch. The new-class ablation
swaps the entropy term for cross-entropy toward an extra class logit.

Discriminator side:
    L_D = mean[ critic(G(t_s, z)) ] - mean[ critic(x) ]
          + mean[ (||grad critic at interpolates|| - 1)^2 ]
          + 1/2 mean[ CE(x) ] + 1/2 mean[ CE(G(t_s, z)) ]
          [ + mean critic(G(t_h, z)) ]          (hallucinated real/fake)
          [ + lambda * entropy term on t_h ]    (negative-result flag)

Classification terms use either the classic softmax head or the softmax over
semantic-guided scores; the critic terms are identical either way. A
builder stacks the batches that its critic and head terms read, runs the
critic's trunk once on them, and each term reads its own rows. Each
player has one parameter store: the critic's is `disc.store`, and the
generator's also holds the learned entropy parameters. Both builders make
their nodes over leaf nodes of their player's store, read the other's
frozen, and return `({term: value}, backward)`: `backward` maps term
weights to the gradient of the weighted sum, as a store laid out like the
player's. The generator's sums the terms in one node and sweeps the tape
once; the critic's calls its trunk, score and head nodes' reverse maps
directly, so each critic layer's reverse map is written once for both
players. Neither writes onto a node or draws a random number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import diffmath as dm
from . import divergences as dv
from . import model as mo
from .errors import DimensionError, ValidationError


@dataclass(frozen=True)
class LossConfig:
    lambda_creativity: float = 1.0
    realism_term: bool = True
    entropy_term: bool = True
    new_class_ablation: bool = False
    creativity_on_discriminator: bool = False
    segc_active: bool = False
    segc_normalized: bool = False
    eta: float = 1.0
    rf_hallucinated: bool = False
    u_categorization: bool = False
    k_unseen_cap: int = 100
    # the flagship setting: the two-parameter family with both knobs learned
    divergence: dv.DivergenceSpec = field(default_factory=lambda: dv.DivergenceSpec(
        "sharma_mittal", 2.0, 2.0, learn_gamma=True, learn_beta=True))

    def __post_init__(self):
        if not np.isfinite(self.lambda_creativity) or self.lambda_creativity < 0:
            raise ValidationError("lambda_creativity must be finite and >= 0")
        if self.new_class_ablation and self.entropy_term:
            raise ValidationError("the new-class ablation replaces the entropy term")
        if self.new_class_ablation and self.segc_active:
            raise ValidationError("the new-class ablation needs the classic head")
        if self.u_categorization and not self.segc_active:
            raise ValidationError("hallucinated-class categorization reuses the "
                                  "semantic-guided head; enable segc_active")
        if self.k_unseen_cap < 2:
            raise ValidationError("k_unseen_cap must be at least 2")
        if not np.isfinite(self.eta) or (self.segc_normalized and self.eta <= 0):
            raise ValidationError("eta must be finite, and positive under normalization")


class SeenBatch(NamedTuple):
    t: np.ndarray  # (B, semantic_dim)
    y: np.ndarray  # (B,) integer labels into the seen classes
    z: np.ndarray  # (B, noise_dim)


class HalluBatch(NamedTuple):
    t: np.ndarray
    z: np.ndarray


class PivotInputs(NamedTuple):
    semantics: np.ndarray   # (K_s, semantic_dim), one descriptor per class
    real_means: np.ndarray  # (K_s, visual_dim)
    z: np.ndarray           # (K_s, n_z, noise_dim)


class UCatBatch(NamedTuple):
    t: np.ndarray  # (K_u, semantic_dim) distinct hallucinated descriptors
    z: np.ndarray  # (K_u, noise_dim)


# ---------------------------------------------------------------------------
# small pieces


def lipschitz_interpolate(x_real, x_fake, rng: np.random.Generator) -> np.ndarray:
    """Per-row uniform blend between a real feature and a fake one."""
    x_real = dm.as_tensor(x_real)
    x_fake = dm.as_tensor(x_fake)
    if x_real.shape != x_fake.shape:
        raise DimensionError(f"cannot interpolate {x_real.shape} with {x_fake.shape}")
    u = rng.uniform(size=(x_real.shape[0], 1))
    return u * x_real + (1.0 - u) * x_fake


def _seen_labels(y, k_seen) -> np.ndarray:
    """`y` as a non-empty vector of integer labels in [0, k_seen)."""
    y = np.asarray(y)
    if y.ndim != 1 or y.size == 0:
        raise ValidationError("labels must form a non-empty vector")
    if np.any((y < 0) | (y >= k_seen)):
        raise ValidationError(f"labels out of range [0, {k_seen})")
    return y


def divergence_param_nodes(spec: dv.DivergenceSpec, params) -> tuple[dm.Node, dm.Node]:
    """(gamma, beta) as tape nodes: each learnable knob maps the unconstrained
    `u_gamma` or `u_beta` of `params` through 1 + sign * softplus(u), a fixed
    one is the spec's value, and the pair goes to the family's plane point."""
    s_gamma, s_beta = spec.reparam_signs()
    gamma = dm.add(1.0, dm.mul(s_gamma, dm.softplus(params["u_gamma"]))) \
        if spec.learn_gamma else spec.gamma
    beta = dm.add(1.0, dm.mul(s_beta, dm.softplus(params["u_beta"]))) \
        if spec.learn_beta else spec.beta
    return tuple(map(dm._lift, spec.plane_point(gamma, beta)))


def current_divergence_params(spec: dv.DivergenceSpec, store) -> tuple[float, float]:
    """The (gamma, beta) currently in effect, given a store that holds the
    unconstrained parameters."""
    gamma, beta = divergence_param_nodes(spec, store)
    return float(gamma.value), float(beta.value)


def divergence_rows_node(probs: dm.Node, gamma: dm.Node, beta: dm.Node, spec: dv.DivergenceSpec) -> dm.Node:
    """Per-row divergence of softmax rows from uniform as one fused tape
    node; the reverse map reuses the analytic gradients of the divergence
    module for the rows and both parameters."""
    vals, dP, dg, db = dv.divergence_to_uniform_batch(
        probs.value, float(gamma.value), float(beta.value), spec.family)

    def vjp(g):
        return (
            g[:, None] * dP,
            np.asarray((g * dg).sum()),
            np.asarray((g * db).sum()),
        )

    return dm.Node(vals, (probs, gamma, beta), vjp)


def _head_scores(params, feat, segc, cfg, reduced_seen) -> dm.Node:
    """Logits of the active classification head for trunk features."""
    if not segc:
        return mo.class_logits(params, feat)
    if reduced_seen is None:
        raise ValidationError("semantic-guided scoring needs the reduced class table")
    return mo.segc_score_node(params["segc.W"], feat, reduced_seen,
                              cfg.segc_normalized, cfg.eta)


def _mean_ce(scores, labels) -> dm.Node:
    return dm.vmean(dm.cross_entropy_rows(scores, labels))


def _entropy_term(scores, cfg, gamma, beta) -> dm.Node:
    """lambda times the batch mean of the min-max-normalized divergence of
    the seen-class softmax rows of `scores` from uniform."""
    rows = divergence_rows_node(dm.softmax_rows(scores), gamma, beta, cfg.divergence)
    return dm.mul(cfg.lambda_creativity, dm.vmean(dm.minmax_normalize_node(rows)))


# ---------------------------------------------------------------------------
# visual pivot


def visual_pivot_node(gen_map, arch, pivot: PivotInputs) -> dm.Node:
    """Average squared distance between per-class generated means and the
    real per-class means."""
    semantics = dm.as_tensor(pivot.semantics)
    means = dm.as_tensor(pivot.real_means)
    z = dm.as_tensor(pivot.z)
    if semantics.shape[0] != means.shape[0] or z.shape[0] != means.shape[0]:
        raise ValidationError(
            f"pivot needs one descriptor, mean, and noise block per class; "
            f"got {semantics.shape[0]}, {means.shape[0]}, {z.shape[0]}"
        )
    k, n_z, _ = z.shape
    t_rep = np.repeat(semantics, n_z, axis=0)
    out = mo.generator_output(gen_map, arch, dm.constant(t_rep), dm.constant(z.reshape(k * n_z, -1)))
    gen_means = dm.vmean(dm.reshape(out, (k, n_z, arch.visual_dim)), axis=1)
    err = dm.sub(gen_means, dm.constant(means))
    return dm.vmean(dm.vsum(dm.square(err), axis=1))


# ---------------------------------------------------------------------------
# generator loss


def generator_loss_node(store: dm.ParamStore, disc: mo.DiscriminatorParams,
                        seen: SeenBatch, hallu: HalluBatch, pivot: PivotInputs,
                        cfg: LossConfig, ucat: UCatBatch | None = None,
                        reduced_seen=None, reduced_ucat=None
                        ) -> tuple[dict[str, float], Callable[[dict], dm.ParamStore]]:
    """All generator-side terms: returns `({term: value}, backward)`, where
    `backward({term: weight})` sums the weighted terms in term order as one
    node, sweeps once and returns a store laid out like `store`.
    `store` holds the generator's tensors and, after them, the learned
    unconstrained entropy parameters, if any; the critic's is read frozen.

    The hallucinated and seen rows are generated in one pass and go through
    the critic's trunk together, hallucinated rows first. The semantic-guided
    head needs `reduced_seen`, the reduced descriptors of the seen classes,
    and u-categorization `reduced_ucat`.
    """
    arch = disc.arch
    n_h, n = len(hallu.t), len(hallu.t) + len(seen.t)
    if n_h == 0 or len(seen.t) == 0:
        raise ValidationError("empty batch")
    if cfg.new_class_ablation and not disc.extra_class:
        raise ValidationError("the new-class ablation needs a discriminator "
                              "built with the extra class logit")

    leaves = {name: dm.leaf(value) for name, value in store.items()}
    x = mo.generator_output(leaves, arch, dm.constant(np.vstack((hallu.t, seen.t))),
                            dm.constant(np.vstack((hallu.z, seen.z))))
    feat = mo.trunk_features(disc.store, arch, x)[-1]
    score = mo.real_score(disc.store, feat)
    # a zero creativity weight contributes exact zeros; skip that subgraph
    entropy = cfg.entropy_term and cfg.lambda_creativity != 0.0
    # the head reads the hallucinated rows only when a creativity term needs them
    lo = 0 if entropy or cfg.new_class_ablation else n_h
    head = _head_scores(disc.store, dm.row_slice(feat, lo, n), disc.segc, cfg, reduced_seen)

    terms: dict[str, dm.Node] = {}
    if cfg.realism_term:
        terms["creativity_realism"] = dm.neg(dm.vmean(dm.row_slice(score, 0, n_h)))
    if cfg.new_class_ablation:
        # the hallucinated rows' target is the extra class logit
        terms["creativity_entropy"] = dm.mul(cfg.lambda_creativity, _mean_ce(
            dm.row_slice(head, 0, n_h), np.full(n_h, disc.k_seen)))
    elif entropy:
        gamma, beta = divergence_param_nodes(cfg.divergence, leaves)
        terms["creativity_entropy"] = _entropy_term(dm.row_slice(head, 0, n_h), cfg,
                                                    gamma, beta)

    terms["critic_seen"] = dm.neg(dm.vmean(dm.row_slice(score, n_h, n)))
    terms["classification"] = _mean_ce(dm.row_slice(head, n_h - lo, n - lo),
                                       _seen_labels(seen.y, disc.k_seen))

    terms["visual_pivot"] = visual_pivot_node(leaves, arch, pivot)

    if cfg.u_categorization:
        if ucat is None:
            raise ValidationError("u_categorization needs a hallucinated-class batch")
        terms["u_categorization"] = hallucinated_categorization_node(
            leaves, disc, ucat, cfg, reduced_ucat
        )

    def backward(w):
        weights = [w[name] for name in terms]
        out = dm.Node(sum(k * t.value for k, t in zip(weights, terms.values())),
                      tuple(terms.values()), lambda g: [k * g for k in weights])
        return dm.leaf_grads(out, leaves, store)

    return {name: float(term.value) for name, term in terms.items()}, backward


# ---------------------------------------------------------------------------
# discriminator loss


def discriminator_loss_node(disc: mo.DiscriminatorParams, real_x, real_y,
                            x_fake, fake_y, x_tilde, cfg: LossConfig, x_h=None,
                            reduced_seen=None, div_values: tuple[float, float] | None = None
                            ) -> tuple[dict[str, float], Callable[[dict], dm.ParamStore]]:
    """All discriminator-side terms: returns `({term: value}, backward)`,
    where `backward({term: weight})` gives the gradient of the weighted sum
    of the terms, as a store laid out like `disc.store`. No tape node is
    returned and no tape sweep runs, as the critic step needs neither; the
    name matches the other loss builders, and the benchmark's tracer times
    the step under it.

    The generations enter frozen: `x_fake` with its labels `fake_y`, the
    interpolates `x_tilde`, and, when a hallucinated term is on, `x_h`.
    The entropy-on-discriminator term also takes the current (gamma, beta)
    as `div_values`; those parameters only learn through the generator loss.

    The rows [real; fake; (x_h); interpolates] go through the trunk in one
    pass. The trunk, the critic score and the active head are the nodes the
    generator step builds, here over leaf nodes of the critic's parameters;
    the score and the head read row slices of the shared features, and the
    gradient penalty reads the trunk's layer outputs at the interpolate
    rows. `backward` runs those nodes' own reverse maps, the score's, the
    head's, then each trunk layer's from the last, for any weighting of the
    terms.
    """
    arch = disc.arch
    n_real, n_fake = len(real_x), len(x_fake)
    if n_real == 0 or n_fake == 0:
        raise ValidationError("empty batch")
    blocks = [real_x, x_fake]
    if cfg.rf_hallucinated or cfg.creativity_on_discriminator:
        if x_h is None or (cfg.creativity_on_discriminator and div_values is None):
            raise ValidationError("the hallucinated discriminator terms need x_h, "
                                  "and the entropy term also div_values")
        blocks.append(x_h)
    lo_h = n_real + n_fake        # first hallucinated row
    lo_t = sum(map(len, blocks))  # first interpolate row
    leaves = {name: dm.leaf(value) for name, value in disc.store.items()}
    names = {node: name for name, node in leaves.items()}

    x = np.vstack(blocks + [x_tilde])
    layers = mo.trunk_features(leaves, arch, x)
    feat = layers[-1]
    score = mo.real_score(leaves, feat)
    n_head = lo_t if cfg.creativity_on_discriminator else lo_h
    head = _head_scores(leaves, dm.row_slice(feat, 0, n_head), disc.segc, cfg, reduced_seen)
    penalty = dm.lipschitz_penalty_node([leaves[k] for k in mo.critic_weight_names(arch)],
                                        [x[lo_t:]] + [h.value[lo_t:] for h in layers],
                                        arch.leak)
    ce = dm.cross_entropy_rows(dm.constant(head.value[:lo_h]),
                               _seen_labels(np.concatenate((real_y, fake_y)), disc.k_seen))

    s = score.value
    # each mean as numpy takes it, the sum over the count
    values = {
        "critic_fake": s[n_real:lo_h].sum() / n_fake,
        "critic_real": -(s[:n_real].sum() / n_real),
        "gradient_penalty": penalty.value,
        "cls_real": 0.5 * (ce.value[:n_real].sum() / n_real),
        "cls_fake": 0.5 * (ce.value[n_real:lo_h].sum() / n_fake),
    }
    if cfg.rf_hallucinated:
        # hallucinated generations are pushed down as fakes
        values["critic_hallucinated"] = s[lo_h:lo_t].sum() / (lo_t - lo_h)
    if cfg.creativity_on_discriminator:
        # the tape's own nodes on constants; their reverse maps are called below
        probs = dm.softmax_rows(dm.constant(head.value[lo_h:lo_t]))
        div_rows = divergence_rows_node(probs, dm.constant(div_values[0]),
                                        dm.constant(div_values[1]), cfg.divergence)
        normalized = dm.minmax_normalize_node(div_rows)
        values["entropy_on_disc"] = cfg.lambda_creativity * (normalized.value.sum()
                                                             / (lo_t - lo_h))

    def backward(w):
        d_score = np.zeros_like(s)
        d_score[:n_real] = -w["critic_real"] / n_real
        d_score[n_real:lo_h] = w["critic_fake"] / n_fake
        if cfg.rf_hallucinated:
            d_score[lo_h:lo_t] = w["critic_hallucinated"] / (lo_t - lo_h)
        d_ce = np.empty(lo_h)
        d_ce[:n_real] = 0.5 * w["cls_real"] / n_real
        d_ce[n_real:] = 0.5 * w["cls_fake"] / n_fake
        d_head = np.zeros_like(head.value)
        d_head[:lo_h] = ce.vjp(d_ce)[0]
        if cfg.creativity_on_discriminator:
            d = np.full(lo_t - lo_h, cfg.lambda_creativity * w["entropy_on_disc"] / (lo_t - lo_h))
            d_head[lo_h:lo_t] = probs.vjp(div_rows.vjp(normalized.vjp(d)[0])[0])[0]

        grads = disc.store.zeros()

        def pull(node, g):
            """`g` through the reverse map of a layer node whose first operand
            is its input: the parameter gradients go to `grads`, and the
            input's gradient is returned."""
            d_in, *d_params = node.vjp(g)
            for p, d in zip(node.parents[1:], d_params):
                grads[names[p]][...] = d
            return d_in

        d_feat = pull(score, d_score)
        d_feat[:n_head] += pull(head, d_head)
        for layer in reversed(layers):  # the first layer's input rows are data
            d_feat = pull(layer, d_feat)
        for p, g in zip(penalty.parents, penalty.vjp(w["gradient_penalty"])):
            view = grads[names[p]]
            view += g
        return grads

    return {k: float(v) for k, v in values.items()}, backward


# ---------------------------------------------------------------------------
# hallucinated-class categorization


def hallucinated_categorization_node(gen_map, disc: mo.DiscriminatorParams,
                                     ucat: UCatBatch, cfg: LossConfig,
                                     reduced_ucat) -> dm.Node:
    """Semantic softmax over one generation per hallucinated descriptor,
    scored against the (reduced) descriptors themselves: each sample's own
    index is its target. Reuses the semantic-guided projection; no extra
    weights."""
    k_u = len(ucat.t)
    if k_u < 2:
        raise ValidationError("need at least 2 hallucinated classes")
    x_u = mo.generator_output(gen_map, disc.arch, dm.constant(ucat.t), dm.constant(ucat.z))
    feat = mo.trunk_features(disc.store, disc.arch, x_u)[-1]
    return _mean_ce(_head_scores(disc.store, feat, True, cfg, reduced_ucat), np.arange(k_u))
