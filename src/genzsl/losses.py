"""Every training objective, as tape expressions.

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
semantic-guided scores; the critic terms are identical either way. Each
builder returns a dictionary of named term Nodes, and :func:`total` sums
them into the scalar that training differentiates. Builders accept parameter
maps whose values are tape Nodes (live) or plain arrays (frozen), so the same
code serves generator steps, discriminator steps, gradient checks, and plain
evaluation (read `.value` off each term).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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


def minmax_normalize(values) -> np.ndarray:
    """Rescale a batch to [0, 1]; a (near-)constant batch maps to zeros."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValidationError("empty batch")
    span = v.max() - v.min()
    if span < 1e-12:
        return np.zeros_like(v)
    return (v - v.min()) / span


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


def current_divergence_params(spec: dv.DivergenceSpec, div_store) -> tuple[float, float]:
    """The (gamma, beta) currently in effect, given the unconstrained store."""
    gamma, beta = divergence_param_nodes(spec, {k: np.asarray(v) for k, v in div_store.items()})
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


def _head_ce(disc_map, arch, x, onehot, segc, cfg, reduced_seen) -> dm.Node:
    """Mean cross-entropy of the active head on a feature batch."""
    feat = mo.trunk_features(disc_map, arch, x)
    scores = _head_scores(disc_map, feat, segc, cfg, reduced_seen)
    return dm.vmean(dm.cross_entropy_rows(scores, dm.constant(onehot)))


def _entropy_term(disc_map, arch, x, segc, cfg, reduced_seen, gamma, beta) -> dm.Node:
    """lambda times the batch mean of the min-max-normalized divergence of
    the seen-class softmax rows from uniform."""
    feat = mo.trunk_features(disc_map, arch, x)
    probs = dm.softmax_rows(_head_scores(disc_map, feat, segc, cfg, reduced_seen))
    rows = divergence_rows_node(probs, gamma, beta, cfg.divergence)
    return dm.mul(cfg.lambda_creativity, dm.vmean(dm.minmax_normalize_node(rows)))


# ---------------------------------------------------------------------------
# creativity loss


def creativity_terms(x_h: dm.Node, disc_map, div_map, arch, disc_meta,
                     cfg: LossConfig, reduced_seen=None) -> dict[str, dm.Node]:
    """The two creativity terms for a batch of hallucinated generations.

    `disc_meta` is the DiscriminatorParams carrying head shape flags; either
    parameter map may hold live nodes or frozen arrays.
    """
    if x_h.value.shape[0] == 0:
        raise ValidationError("empty batch")
    terms: dict[str, dm.Node] = {}
    if cfg.realism_term:
        r = dm.affine_stack(x_h, mo.critic_layers(disc_map, arch), arch.leak)
        terms["creativity_realism"] = dm.neg(dm.vmean(r))
    if cfg.new_class_ablation:
        if not disc_meta.extra_class:
            raise ValidationError("the new-class ablation needs a discriminator "
                                  "built with the extra class logit")
        target = np.zeros((x_h.value.shape[0], disc_meta.n_logits))
        target[:, disc_meta.k_seen] = 1.0
        ce = _head_ce(disc_map, arch, x_h, target, False, cfg, None)
        terms["creativity_entropy"] = dm.mul(cfg.lambda_creativity, ce)
    elif cfg.entropy_term and cfg.lambda_creativity != 0.0:
        # a zero weight contributes exact zeros; skip building the subgraph
        gamma, beta = divergence_param_nodes(cfg.divergence, div_map)
        terms["creativity_entropy"] = _entropy_term(
            disc_map, arch, x_h, disc_meta.segc, cfg, reduced_seen, gamma, beta)
    return terms


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

    `div_map` holds the unconstrained entropy parameters (empty when none
    are learned); the semantic-guided head needs `reduced_seen`, the reduced
    descriptors of the seen classes, and u-categorization `reduced_ucat`.
    """
    arch = disc.arch
    if len(seen.t) == 0 or len(hallu.t) == 0:
        raise ValidationError("empty batch")
    disc_map = disc.store

    x_h = mo.generator_output(gen_map, arch, dm.constant(hallu.t), dm.constant(hallu.z))
    terms = creativity_terms(x_h, disc_map, div_map, arch, disc, cfg, reduced_seen)

    x_s = mo.generator_output(gen_map, arch, dm.constant(seen.t), dm.constant(seen.z))
    r_s = dm.affine_stack(x_s, mo.critic_layers(disc_map, arch), arch.leak)
    terms["critic_seen"] = dm.neg(dm.vmean(r_s))

    onehot = _onehot(seen.y, disc.n_logits, disc.k_seen)
    terms["classification"] = _head_ce(disc_map, arch, x_s, onehot, disc.segc, cfg,
                                       reduced_seen)

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
                            reduced_seen=None,
                            div_values: tuple[float, float] | None = None) -> dict[str, dm.Node]:
    """All discriminator-side terms.

    The generations enter frozen: `x_fake` with its labels `fake_y`, the
    interpolates `x_tilde`, and, when a hallucinated term is on, `x_h`.
    The entropy-on-discriminator term also takes the current (gamma, beta)
    as `div_values`; those parameters only learn through the generator loss.
    """
    arch = disc.arch
    real_x = dm.constant(real_x)
    x_fake = dm.constant(x_fake)
    if len(real_x.value) == 0 or len(x_fake.value) == 0:
        raise ValidationError("empty batch")
    layers = mo.critic_layers(disc_map, arch)

    terms: dict[str, dm.Node] = {}
    terms["critic_fake"] = dm.vmean(dm.affine_stack(x_fake, layers, arch.leak))
    terms["critic_real"] = dm.neg(dm.vmean(dm.affine_stack(real_x, layers, arch.leak)))
    terms["gradient_penalty"] = dm.lipschitz_penalty_node(dm.constant(x_tilde), layers, arch.leak)

    onehot_real = _onehot(real_y, disc.n_logits, disc.k_seen)
    onehot_fake = _onehot(fake_y, disc.n_logits, disc.k_seen)
    terms["cls_real"] = dm.mul(0.5, _head_ce(disc_map, arch, real_x, onehot_real,
                                             disc.segc, cfg, reduced_seen))
    terms["cls_fake"] = dm.mul(0.5, _head_ce(disc_map, arch, x_fake, onehot_fake,
                                             disc.segc, cfg, reduced_seen))

    if cfg.rf_hallucinated or cfg.creativity_on_discriminator:
        if x_h is None or (cfg.creativity_on_discriminator and div_values is None):
            raise ValidationError("the hallucinated discriminator terms need x_h, "
                                  "and the entropy term also div_values")
        x_h = dm.constant(x_h)
        if cfg.rf_hallucinated:
            # hallucinated generations are pushed down as fakes
            terms["critic_hallucinated"] = dm.vmean(dm.affine_stack(x_h, layers, arch.leak))
        if cfg.creativity_on_discriminator:
            gamma, beta = dm.constant(div_values[0]), dm.constant(div_values[1])
            terms["entropy_on_disc"] = _entropy_term(
                disc_map, arch, x_h, disc.segc, cfg, reduced_seen, gamma, beta)
    return terms


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
    return _head_ce(disc.store, disc.arch, x_u, np.eye(k_u), True, cfg, reduced_ucat)
