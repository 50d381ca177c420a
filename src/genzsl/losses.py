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
critic's trunk once on them, and each term reads its own rows. The
generator builders return a dictionary of named term Nodes, and
:func:`total` sums them into the scalar that training differentiates; they
accept parameter maps whose values are tape Nodes (live) or plain arrays
(frozen), so the same code serves generator steps, gradient checks, and
plain evaluation (read `.value` off each term). The discriminator's terms
are computed in closed form on plain arrays, with their own backward map
in place of a tape.
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
        if self.segc_normalized and self.eta <= 0:
            raise ValidationError("eta must be positive")


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


def _onehot(y, n, k_valid) -> np.ndarray:
    y = np.asarray(y)
    if y.ndim != 1 or y.size == 0:
        raise ValidationError("labels must form a non-empty vector")
    if np.any((y < 0) | (y >= k_valid)):
        raise ValidationError(f"labels out of range [0, {k_valid})")
    return np.eye(n)[y]


def divergence_param_nodes(spec: dv.DivergenceSpec, div_map) -> tuple[dm.Node, dm.Node]:
    """(gamma, beta) as tape nodes, mapping unconstrained parameters through
    1 + sign * softplus(u) where learnable and pinning limits otherwise."""
    s_gamma, s_beta = spec.reparam_signs()
    if spec.learn_gamma:
        gamma = dm.add(1.0, dm.mul(s_gamma, dm.softplus(div_map["u_gamma"])))
    else:
        gamma = dm.constant(spec.effective_params()[0])
    if spec.family == "tsallis":
        beta = gamma
    elif spec.learn_beta:
        beta = dm.add(1.0, dm.mul(s_beta, dm.softplus(div_map["u_beta"])))
    else:
        beta = dm.constant(spec.effective_params()[1])
    return gamma, beta


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
        probs.value, float(gamma.value), float(beta.value), spec.family, spec.orientation
    )

    def vjp(g):
        return (
            g[:, None] * dP,
            np.asarray((g * dg).sum()),
            np.asarray((g * db).sum()),
        )

    return dm.Node(vals, (probs, gamma, beta), vjp)


def total(terms: dict[str, dm.Node]) -> dm.Node:
    """The sum of the named terms, added in dictionary order."""
    out = dm.constant(0.0)
    for t in terms.values():
        out = dm.add(out, t)
    return out


def _head_scores(disc_map, feat, segc, cfg, reduced_seen) -> dm.Node:
    """Logits of the active classification head for trunk features."""
    if not segc:
        return mo.class_logits(disc_map, feat)
    if reduced_seen is None:
        raise ValidationError("semantic-guided scoring needs the reduced class table")
    return mo.segc_score_node(disc_map["segc.W"], feat, reduced_seen,
                              cfg.segc_normalized, cfg.eta)


def _mean_ce(scores, onehot) -> dm.Node:
    return dm.vmean(dm.cross_entropy_rows(scores, dm.constant(onehot)))


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


def generator_loss_node(gen_map, div_map, disc: mo.DiscriminatorParams,
                        seen: SeenBatch, hallu: HalluBatch, pivot: PivotInputs,
                        cfg: LossConfig, ucat: UCatBatch | None = None,
                        reduced_seen=None, reduced_ucat=None) -> dict[str, dm.Node]:
    """All generator-side terms; the discriminator map is expected frozen.

    The hallucinated and seen rows are generated in one pass and go through
    the critic's trunk together, hallucinated rows first. `div_map` holds
    the unconstrained entropy parameters that are learned, if any; it may be
    `gen_map` itself, as each reads only its own names. The
    semantic-guided head needs `reduced_seen`, the reduced descriptors of
    the seen classes, and u-categorization `reduced_ucat`.
    """
    arch = disc.arch
    n_h, n = len(hallu.t), len(hallu.t) + len(seen.t)
    if n_h == 0 or len(seen.t) == 0:
        raise ValidationError("empty batch")
    if cfg.new_class_ablation and not disc.extra_class:
        raise ValidationError("the new-class ablation needs a discriminator "
                              "built with the extra class logit")
    disc_map = disc.store

    x = mo.generator_output(gen_map, arch, dm.constant(np.vstack((hallu.t, seen.t))),
                            dm.constant(np.vstack((hallu.z, seen.z))))
    feat = mo.trunk_features(disc_map, arch, x)[-1]
    score = mo.real_score(disc_map, feat)
    # a zero creativity weight contributes exact zeros; skip that subgraph
    entropy = cfg.entropy_term and cfg.lambda_creativity != 0.0
    # the head reads the hallucinated rows only when a creativity term needs them
    lo = 0 if entropy or cfg.new_class_ablation else n_h
    head = _head_scores(disc_map, dm.row_slice(feat, lo, n), disc.segc, cfg, reduced_seen)

    terms: dict[str, dm.Node] = {}
    if cfg.realism_term:
        terms["creativity_realism"] = dm.neg(dm.vmean(dm.row_slice(score, 0, n_h)))
    if cfg.new_class_ablation:
        target = np.zeros((n_h, disc.n_logits))
        target[:, disc.k_seen] = 1.0
        terms["creativity_entropy"] = dm.mul(
            cfg.lambda_creativity, _mean_ce(dm.row_slice(head, 0, n_h), target))
    elif entropy:
        gamma, beta = divergence_param_nodes(cfg.divergence, div_map)
        terms["creativity_entropy"] = _entropy_term(dm.row_slice(head, 0, n_h), cfg,
                                                    gamma, beta)

    terms["critic_seen"] = dm.neg(dm.vmean(dm.row_slice(score, n_h, n)))
    onehot = _onehot(seen.y, disc.n_logits, disc.k_seen)
    terms["classification"] = _mean_ce(dm.row_slice(head, n_h - lo, n - lo), onehot)

    terms["visual_pivot"] = visual_pivot_node(gen_map, arch, pivot)

    if cfg.u_categorization:
        if ucat is None:
            raise ValidationError("u_categorization needs a hallucinated-class batch")
        terms["u_categorization"] = hallucinated_categorization_node(
            gen_map, disc, ucat, cfg, reduced_ucat
        )
    return terms


# ---------------------------------------------------------------------------
# discriminator loss


def discriminator_loss_node(disc_map, disc: mo.DiscriminatorParams, real_x, real_y,
                            x_fake, fake_y, x_tilde, cfg: LossConfig, x_h=None,
                            reduced_seen=None, div_values: tuple[float, float] | None = None
                            ) -> tuple[dict[str, float], Callable[[dict], dict[str, np.ndarray]]]:
    """All discriminator-side terms in closed form: returns
    `({term: value}, backward)`, where `backward({term: weight})` gives
    `{critic parameter: gradient}` of the weighted sum of the terms. No tape
    node is returned, as the critic step needs no tape; the name matches the
    other loss builders, and the benchmark's tracer times the step under it.

    The generations enter frozen: `x_fake` with its labels `fake_y`, the
    interpolates `x_tilde`, and, when a hallucinated term is on, `x_h`.
    The entropy-on-discriminator term also takes the current (gamma, beta)
    as `div_values`; those parameters only learn through the generator loss.

    The rows [real; fake; (x_h); interpolates] go through the trunk in one
    pass. The critic score and the active head read row slices of the
    shared features, and the gradient penalty reads the trunk's layer
    outputs at the interpolate rows. `backward` runs one hand-written pass
    back through the heads, the score and the trunk, reading each
    rectifier's gate off its layer output as :func:`dm.critic_input_gradient`
    does, for any weighting of the terms.
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
    p = disc_map

    hidden = [np.vstack(blocks + [x_tilde])]
    hidden += [h.value for h in mo.trunk_features(p, arch, hidden[0])]
    feat = hidden[-1]
    score = mo.real_score(p, feat).value
    n_head = lo_t if cfg.creativity_on_discriminator else lo_h
    head, head_vjp = _head_closed_form(p, feat[:n_head], disc.segc, cfg, reduced_seen)
    weight_names = mo.critic_weight_names(arch)
    penalty = dm.lipschitz_penalty_node([p[k] for k in weight_names],
                                        [h[lo_t:] for h in hidden], arch.leak)
    onehot = _onehot(np.concatenate((real_y, fake_y)), disc.n_logits, disc.k_seen)
    ce = dm.cross_entropy_rows(dm.constant(head[:lo_h]), dm.constant(onehot))

    values = {
        "critic_fake": score[n_real:lo_h].mean(),
        "critic_real": -score[:n_real].mean(),
        "gradient_penalty": penalty.value,
        "cls_real": 0.5 * ce.value[:n_real].mean(),
        "cls_fake": 0.5 * ce.value[n_real:lo_h].mean(),
    }
    if cfg.rf_hallucinated:
        # hallucinated generations are pushed down as fakes
        values["critic_hallucinated"] = score[lo_h:lo_t].mean()
    if cfg.creativity_on_discriminator:
        # the tape's own nodes on constants; their reverse maps are called below
        probs = dm.softmax_rows(dm.constant(head[lo_h:lo_t]))
        div_rows = divergence_rows_node(probs, dm.constant(div_values[0]),
                                        dm.constant(div_values[1]), cfg.divergence)
        normalized = dm.minmax_normalize_node(div_rows)
        values["entropy_on_disc"] = cfg.lambda_creativity * normalized.value.mean()

    def backward(w):
        d_score = np.zeros_like(score)
        d_score[:n_real] = -w["critic_real"] / n_real
        d_score[n_real:lo_h] = w["critic_fake"] / n_fake
        if cfg.rf_hallucinated:
            d_score[lo_h:lo_t] = w["critic_hallucinated"] / (lo_t - lo_h)
        d_ce = np.empty(lo_h)
        d_ce[:n_real] = 0.5 * w["cls_real"] / n_real
        d_ce[n_real:] = 0.5 * w["cls_fake"] / n_fake
        d_head = np.zeros_like(head)
        d_head[:lo_h] = ce.vjp(d_ce)[0]
        if cfg.creativity_on_discriminator:
            d = np.full(lo_t - lo_h, cfg.lambda_creativity * w["entropy_on_disc"] / (lo_t - lo_h))
            d_head[lo_h:lo_t] = probs.vjp(div_rows.vjp(normalized.vjp(d)[0])[0])[0]

        d_feat_head, grads = head_vjp(d_head)
        d_feat = d_score * p["real.W"][:, 0]  # an outer product, not a matmul
        d_feat[:n_head] += d_feat_head
        grads["real.W"] = feat.T @ d_score
        grads["real.b"] = d_score.sum(axis=0)
        for i in reversed(range(arch.n_hidden)):
            dz = d_feat * dm.leaky_gate(hidden[i + 1] > 0.0, arch.leak)
            grads[f"trunk{i}.W"] = hidden[i].T @ dz
            grads[f"trunk{i}.b"] = dz.sum(axis=0)
            if i:  # the input rows are data
                d_feat = dz @ p[f"trunk{i}.W"].T
        for name, g in zip(weight_names, penalty.vjp(w["gradient_penalty"])):
            grads[name] += g
        return {k: grads[k] for k in p}

    return {k: float(v) for k, v in values.items()}, backward


def _head_closed_form(p, feat, segc, cfg, reduced_seen):
    """Scores of the active head on plain trunk features, and the map from
    an upstream gradient on the scores to (feature gradient, {head parameter:
    gradient}); the closed form of :func:`_head_scores`."""
    if not segc:
        W = p["cls.W"]

        def cls_vjp(d):
            return d @ W.T, {"cls.W": feat.T @ d, "cls.b": d.sum(axis=0)}

        return feat @ W + p["cls.b"], cls_vjp
    if reduced_seen is None:
        raise ValidationError("semantic-guided scoring needs the reduced class table")
    T = dm.as_tensor(reduced_seen)
    W = p["segc.W"]
    proj = feat @ W
    raw = proj @ T.T
    scores = raw
    if cfg.segc_normalized:
        inv_rows = dm.row_norm_inv(dm.constant(proj))
        col = mo.descriptor_scale(T, cfg.eta)
        scores = raw * inv_rows.value[:, None] * col[None, :]

    def segc_vjp(d):
        if not cfg.segc_normalized:
            d_proj = d @ T
        else:
            d_proj = (d * inv_rows.value[:, None] * col[None, :]) @ T
            d_proj += inv_rows.vjp((d * raw * col[None, :]).sum(axis=1))[0]
        return d_proj @ W.T, {"segc.W": feat.T @ d_proj}

    return scores, segc_vjp


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
    return _mean_ce(_head_scores(disc.store, feat, True, cfg, reduced_ucat), np.eye(k_u))
