"""Shared oracles: finite differences for gradient checks, the tape
operations that only the oracles compose, the semantic-guided head composed
from them that the program's one-node head must reproduce, the multi-pass
critic composition on the tape that the program's stacked critic step and
its stacked generator pass must reproduce, and the unblocked pool scorer
that the row-blocked one must reproduce.

It also holds the fingerprint of a training run that the bit-identity
checks compare, and the small conveniences over the program's API that
only the tests call: the numeric critic readout, the single-vector entropy
gradient, the one-weight draw and the event-tally reset.

Central differences at h=1e-5 on float64 keep the truncation and roundoff
error orders of magnitude below the tolerances asserted in the tests, so a
disagreement always means the analytic gradient is wrong.
"""

from __future__ import annotations

import hashlib

import numpy as np

import genzsl.diffmath as dm
import genzsl.divergences as dv
import genzsl.hallucination as hl
import genzsl.losses as ls
import genzsl.model as mo
from genzsl import events
from genzsl.diffmath import ParamStore
from genzsl.errors import DimensionError


def rel_err(a, b, floor=1e-3):
    """|a - b| relative to the larger magnitude, with an absolute floor so
    near-zero pairs compare on an absolute scale."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def numeric_grad(f, x, h=1e-5):
    """Dense central-difference gradient of a scalar function of one array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        up = f(x)
        flat[i] = old - h
        down = f(x)
        flat[i] = old
        gf[i] = (up - down) / (2.0 * h)
    return g


def numeric_grad_params(f, params: ParamStore, h=1e-5):
    """Per-component central differences of a scalar function of a store."""
    grads = {}
    for name in params:
        arr = params[name]

        def slot(v, _name=name, _arr=arr):
            return f(params)

        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            up = f(params)
            flat[i] = old - h
            down = f(params)
            flat[i] = old
            gf[i] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def directional_derivative(f, params: ParamStore, direction, h=1e-5):
    """Central-difference derivative of f along a {name: array} direction."""
    shifted_up = ParamStore((k, v + h * direction[k]) for k, v in params.items())
    shifted_dn = ParamStore((k, v - h * direction[k]) for k, v in params.items())
    return (f(shifted_up) - f(shifted_dn)) / (2.0 * h)


def random_direction(params: ParamStore, rng) -> dict:
    d = {k: rng.standard_normal(v.shape) for k, v in params.items()}
    norm = np.sqrt(sum((v * v).sum() for v in d.values()))
    return {k: v / norm for k, v in d.items()}


# ---------------------------------------------------------------------------
# tape operations that only the oracles compose


def matmul(a, b):
    a, b = dm._lift(a), dm._lift(b)
    return dm.Node(a.value @ b.value, (a, b), lambda g: (g @ b.value.T, a.value.T @ g))


def transpose(a):
    a = dm._lift(a)
    return dm.Node(a.value.T, (a,), lambda g: (g.T,))


def log(a):
    a = dm._lift(a)
    return dm.Node(np.log(a.value), (a,), lambda g: (g / a.value,))


def leaky_relu(a, slope=0.2):
    a = dm._lift(a)
    gate = dm.leaky_gate(a.value > 0.0, slope)
    return dm.Node(a.value * gate, (a,), lambda g: (g * gate,))


def row_norm(a):
    """Euclidean norm of each row. Rows with norm below 1e-12 get a zero
    gradient and raise a degenerate event; their value passes through."""
    a = dm._lift(a)
    n = np.sqrt((a.value * a.value).sum(axis=1))
    degenerate = n < dm.NORM_EPS
    if degenerate.any():
        events.record("degenerate_gradient_penalty")
    safe = np.where(degenerate, 1.0, n)

    def vjp(g):
        scale = np.where(degenerate, 0.0, g / safe)
        return (scale[:, None] * a.value,)

    return dm.Node(n, (a,), vjp)


def row_norm_inv(a):
    """1 / row norm. Rows with norm below 1e-12 map to 0, get a zero
    gradient and raise a degenerate event."""
    a = dm._lift(a)
    n = np.sqrt((a.value * a.value).sum(axis=1))
    degenerate = n < dm.NORM_EPS
    if degenerate.any():
        events.record("degenerate_zero_norm")
    inv = np.where(degenerate, 0.0, 1.0 / np.where(degenerate, 1.0, n))

    def vjp(g):
        scale = np.where(degenerate, 0.0, g * inv**3)
        return (-scale[:, None] * a.value,)

    return dm.Node(inv, (a,), vjp)


def segc_score_oracle(W, feat, T, normalized=False, eta=1.0):
    """The semantic-guided scores composed from primitive tape operations:
    (feat W) T^T, times 1 / ||feat_i W|| and eta^2 / ||t_c|| when normalized
    (zero-norm descriptors score 0)."""
    T = np.asarray(T, dtype=np.float64)
    proj = matmul(feat, W)
    scores = matmul(proj, dm.constant(T.T))
    if not normalized:
        return scores
    t_norms = np.sqrt((T * T).sum(axis=1))
    col = np.where(t_norms < dm.NORM_EPS, 0.0, eta * eta / np.maximum(t_norms, dm.NORM_EPS))
    inv_rows = dm.reshape(row_norm_inv(proj), (-1, 1))
    return dm.mul(dm.mul(scores, inv_rows), dm.constant(col[None, :]))


def dense_input_grad(g, W, gate=None):
    """`(g * gate) @ W.T`, the reverse map of a dense layer onto its input,
    as one tape node that is itself differentiable in `g` and `W` (the gate
    is a constant array of the shape of `g`)."""
    g, W = dm._lift(g), dm._lift(W)
    gg = g.value if gate is None else g.value * gate

    def vjp(u):
        gu = None
        if not g.const:
            gu = u @ W.value
            if gate is not None:
                gu = gu * gate
        return (gu, None if W.const else u.T @ gg)

    return dm.Node(gg @ W.value.T, (g, W), vjp)


# ---------------------------------------------------------------------------
# the multi-pass critic, composed from primitive tape operations
#
# The program runs the critic once per batch on fused dense nodes. These
# oracles keep the composition it replaced: one pass per batch, a node per
# matmul, bias add and rectifier, and the penalty's input gradient built
# from mul/matmul/transpose.


def affine_stack(x, layers, slope=0.2):
    """Forward pass of (W, b, "leaky" | "linear") layers."""
    h = dm._lift(x)
    for W, b, act in layers:
        z = dm.add(matmul(h, dm._lift(W)), dm._lift(b))
        h = leaky_relu(z, slope) if act == "leaky" else z
    return h


def affine_stack_with_input_gradient(x, layers, slope=0.2):
    """Forward pass plus the input gradient of a scalar-headed stack, both
    as tape expressions; the rectifier gates enter as constants."""
    h = dm._lift(x)
    pre = []
    for W, b, act in layers:
        z = dm.add(matmul(h, dm._lift(W)), dm._lift(b))
        h = leaky_relu(z, slope) if act == "leaky" else z
        pre.append((z, dm._lift(W), act))
    g = dm.constant(np.ones((len(h.value), 1)))
    for z, W, act in reversed(pre):
        if act == "leaky":
            g = dm.mul(g, dm.constant(np.where(z.value > 0.0, 1.0, slope)))
        g = matmul(g, transpose(W))
    return h, g


def penalty_oracle(x, layers, slope=0.2):
    _, g = affine_stack_with_input_gradient(x, layers, slope)
    return dm.vmean(dm.square(dm.sub(row_norm(g), 1.0)))


def total(terms):
    """The sum of the named term nodes, added in dictionary order onto a
    zero constant."""
    out = dm.constant(0.0)
    for t in terms.values():
        out = dm.add(out, t)
    return out


def critic_layers(params, arch):
    """The trunk plus the score head of a discriminator parameter map."""
    layers = [(params[f"trunk{i}.W"], params[f"trunk{i}.b"], "leaky")
              for i in range(arch.n_hidden)]
    return layers + [(params["real.W"], params["real.b"], "linear")]


def generator_oracle(params, arch, t, z):
    def affine(h, name):
        return dm.add(matmul(h, params[f"{name}.W"]), params[f"{name}.b"])

    h = dm.concat_cols(leaky_relu(affine(dm.constant(t), "reduce"), arch.leak),
                       dm.constant(z))
    for i in range(arch.n_hidden):
        h = leaky_relu(affine(h, f"h{i}"), arch.leak)
    return affine(h, "out")


def _head_oracle(disc_map, disc, x, cfg, table):
    feat = affine_stack(x, critic_layers(disc_map, disc.arch)[:-1], disc.arch.leak)
    if not disc.segc:
        return dm.add(matmul(feat, disc_map["cls.W"]), disc_map["cls.b"])
    return segc_score_oracle(disc_map["segc.W"], feat, table, cfg.segc_normalized, cfg.eta)


def _mean_ce_oracle(scores, labels):
    return dm.vmean(dm.cross_entropy_rows(scores, labels))


def _entropy_oracle(scores, cfg, gamma, beta):
    rows = ls.divergence_rows_node(dm.softmax_rows(scores), gamma, beta, cfg.divergence)
    return dm.mul(cfg.lambda_creativity, dm.vmean(dm.minmax_normalize_node(rows)))


def discriminator_terms_multipass(disc_map, disc, real_x, real_y, x_fake, fake_y, x_tilde,
                                  cfg, x_h=None, reduced_seen=None, div_values=None):
    """The discriminator terms with one critic pass per batch."""
    arch = disc.arch
    layers = critic_layers(disc_map, arch)
    real_x, x_fake = dm.constant(real_x), dm.constant(x_fake)
    terms = {
        "critic_fake": dm.vmean(affine_stack(x_fake, layers, arch.leak)),
        "critic_real": dm.neg(dm.vmean(affine_stack(real_x, layers, arch.leak))),
        "gradient_penalty": penalty_oracle(dm.constant(x_tilde), layers, arch.leak),
        "cls_real": dm.mul(0.5, _mean_ce_oracle(
            _head_oracle(disc_map, disc, real_x, cfg, reduced_seen), real_y)),
        "cls_fake": dm.mul(0.5, _mean_ce_oracle(
            _head_oracle(disc_map, disc, x_fake, cfg, reduced_seen), fake_y)),
    }
    if cfg.rf_hallucinated:
        terms["critic_hallucinated"] = dm.vmean(
            affine_stack(dm.constant(x_h), layers, arch.leak))
    if cfg.creativity_on_discriminator:
        scores = _head_oracle(disc_map, disc, dm.constant(x_h), cfg, reduced_seen)
        terms["entropy_on_disc"] = _entropy_oracle(
            scores, cfg, dm.constant(div_values[0]), dm.constant(div_values[1]))
    return terms


def generator_terms_multipass(gen_map, div_map, disc, seen, hallu, pivot, cfg,
                              ucat=None, reduced_seen=None, reduced_ucat=None):
    """The generator terms with one generator and one critic pass per batch."""
    arch = disc.arch
    layers = critic_layers(disc.store, arch)
    x_h = generator_oracle(gen_map, arch, hallu.t, hallu.z)
    x_s = generator_oracle(gen_map, arch, seen.t, seen.z)
    terms = {}
    if cfg.realism_term:
        terms["creativity_realism"] = dm.neg(dm.vmean(affine_stack(x_h, layers, arch.leak)))
    if cfg.new_class_ablation:
        scores = _head_oracle(disc.store, disc, x_h, cfg, None)
        terms["creativity_entropy"] = dm.mul(cfg.lambda_creativity, _mean_ce_oracle(
            scores, np.full(len(hallu.t), disc.k_seen)))
    elif cfg.entropy_term and cfg.lambda_creativity != 0.0:
        gamma, beta = ls.divergence_param_nodes(cfg.divergence, div_map)
        scores = _head_oracle(disc.store, disc, x_h, cfg, reduced_seen)
        terms["creativity_entropy"] = _entropy_oracle(scores, cfg, gamma, beta)
    terms["critic_seen"] = dm.neg(dm.vmean(affine_stack(x_s, layers, arch.leak)))
    terms["classification"] = _mean_ce_oracle(
        _head_oracle(disc.store, disc, x_s, cfg, reduced_seen), seen.y)

    k, n_z, _ = pivot.z.shape
    out = generator_oracle(gen_map, arch, np.repeat(pivot.semantics, n_z, axis=0),
                           pivot.z.reshape(k * n_z, -1))
    gen_means = dm.vmean(dm.reshape(out, (k, n_z, arch.visual_dim)), axis=1)
    err = dm.sub(gen_means, dm.constant(pivot.real_means))
    terms["visual_pivot"] = dm.vmean(dm.vsum(dm.square(err), axis=1))

    if cfg.u_categorization:
        x_u = generator_oracle(gen_map, arch, ucat.t, ucat.z)
        terms["u_categorization"] = _mean_ce_oracle(
            _head_oracle(disc.store, disc, x_u, cfg, reduced_ucat), np.arange(len(ucat.t)))
    return terms


def pool_scores_unblocked(pools, x, metric):
    """Nearest-pool-member scores from one (len(x), C * n_generate) matrix."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    c, n, d = pools.shape
    flat = pools.reshape(c * n, d)
    if metric == "euclidean":
        d2 = (x * x).sum(axis=1)[:, None] + (flat * flat).sum(axis=1)[None, :] \
            - 2.0 * x @ flat.T
        d2 = np.maximum(d2, 0.0).reshape(len(x), c, n)
        return -np.sqrt(d2.min(axis=2))
    xn = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
    fn = flat / np.maximum(np.linalg.norm(flat, axis=1, keepdims=True), 1e-12)
    return (xn @ fn.T).reshape(len(x), c, n).max(axis=2)


def argmax_sweep(table, labels, unseen_ids, biases):
    """(seen_acc, unseen_acc) by argmax at each bias, repeats dropped."""
    labels = np.asarray(labels)
    unseen_cols = np.isin(np.arange(table.shape[1]), unseen_ids)
    test_unseen = np.isin(labels, unseen_ids)
    curve = []
    for b in biases:
        hits = np.argmax(table + b * unseen_cols, axis=1) == labels
        pair = (hits[~test_unseen].mean(), hits[test_unseen].mean())
        if not curve or curve[-1] != pair:
            curve.append(pair)
    return curve


def fingerprint(params, history) -> str:
    """sha256 over group/name plus the float64 bytes of every tensor of the
    generator, discriminator and divergence stores, in store order, then
    `repr(history.rows())`: equal fingerprints mean bit-identical runs."""
    h = hashlib.sha256()
    for group, store in (("gen", params.generator.store),
                         ("disc", params.discriminator.store),
                         ("div", params.divergence)):
        for name, value in store.items():
            h.update(f"{group}/{name}".encode())
            h.update(np.asarray(value, dtype=np.float64).tobytes())
    h.update(repr(history.rows()).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# conveniences over the program's API that only the tests call


def discriminate(disc, x) -> dict:
    """Critic score, seen-class softmax (classic head only), and trunk
    features for a batch of visual features."""
    x = dm.as_tensor(x)
    if x.ndim != 2 or x.shape[1] != disc.arch.visual_dim:
        raise DimensionError(f"visual batch has shape {x.shape}, expected (*, {disc.arch.visual_dim})")
    feat = mo.trunk_features(disc.store, disc.arch, dm.constant(x))[-1]
    r = mo.real_score(disc.store, feat).value[:, 0]
    s = None
    if not disc.segc:
        s = dm.softmax_rows(mo.class_logits(disc.store, feat)).value
    return {"r": r, "s": s, "feat": feat.value}


def entropy_loss_grad(softmax, spec):
    """Gradient of :func:`genzsl.divergences.entropy_loss` w.r.t. the softmax
    vector and the (gamma, beta) parameters. Non-learnable knobs report zero."""
    _, dsoft, dg, db = dv.divergence_to_uniform_batch(np.asarray(softmax)[None, :], spec.gamma,
                                                      spec.beta, spec.family)
    d_gamma = float(dg[0]) if spec.learn_gamma else 0.0
    d_beta = float(db[0]) if spec.learn_beta else 0.0
    return dsoft[0], d_gamma, d_beta


def sample_alpha(policy, rng) -> float:
    return float(hl.sample_alphas(policy, 1, rng)[0])


def reset_events() -> None:
    """Clear the process's degenerate-event tally."""
    events._counts.clear()
