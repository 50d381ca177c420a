"""Conditional generator and two-headed discriminator over feature vectors.

The generator reduces the semantic descriptor through one affine layer,
concatenates the result with Gaussian noise, and maps through leaky-rectified
hidden layers to visual-feature space. The discriminator shares a
leaky-rectified trunk between an unbounded real/fake score (a critic in the
Wasserstein sense, no squashing) and one of two classification heads:

  * classic: an affine map to one logit per seen class;
  * semantic-guided: scores each class as the inner product between the
    projected trunk feature and that class's reduced semantic descriptor,
    optionally L2-normalized on both sides and scaled by eta^2.

Exactly one classification head exists at a time. Three presets control
depth: `base` uses one hidden layer per network, `doublenet` two, and
`doublenet_reduced` two at half the hidden width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffmath as dm
from . import events
from .errors import DimensionError, ValidationError

PRESETS = ("base", "doublenet", "doublenet_reduced")
# the integer widths of an ArchSpec
WIDTHS = ("semantic_dim", "visual_dim", "noise_dim", "hidden_dim", "reduced_dim")


@dataclass(frozen=True)
class ArchSpec:
    semantic_dim: int
    visual_dim: int
    preset: str = "base"
    noise_dim: int = 16
    hidden_dim: int = 64
    reduced_dim: int | None = None
    leak: float = 0.2

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValidationError(f"unknown preset {self.preset!r}")
        if self.reduced_dim is None:
            object.__setattr__(self, "reduced_dim", math.ceil(self.semantic_dim / 2))
        for name in WIDTHS:
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be positive")
        if self.reduced_dim > self.semantic_dim:
            raise ValidationError("reduced_dim cannot exceed semantic_dim")
        if not 0.0 <= self.leak <= 1.0:
            raise ValidationError(f"leak must lie in [0, 1], got {self.leak}")

    @property
    def n_hidden(self) -> int:
        return 1 if self.preset == "base" else 2

    @property
    def eff_hidden(self) -> int:
        if self.preset == "doublenet_reduced":
            return max(1, self.hidden_dim // 2)
        return self.hidden_dim


@dataclass
class GeneratorParams:
    arch: ArchSpec
    store: dm.ParamStore


@dataclass
class DiscriminatorParams:
    arch: ArchSpec
    k_seen: int
    segc: bool
    extra_class: bool
    store: dm.ParamStore

    @property
    def n_logits(self) -> int:
        return self.k_seen + (1 if self.extra_class else 0)


@dataclass
class ModelParams:
    generator: GeneratorParams
    discriminator: DiscriminatorParams
    divergence: dm.ParamStore  # unconstrained entropy-loss parameters; may be empty


def init_params(
    arch: ArchSpec,
    k_seen: int,
    segc: bool,
    rng: np.random.Generator,
    extra_class: bool = False,
) -> tuple[GeneratorParams, DiscriminatorParams]:
    """Fan-in-scaled Gaussian weights, zero biases; reproducible by seed."""
    if k_seen < 1:
        raise ValidationError("need at least one seen class")
    if segc and extra_class:
        raise ValidationError("the new-class ablation needs the classic head")

    def dense(store, name, fan_in, fan_out, bias=True):
        store.add(f"{name}.W", rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)))
        if bias:
            store.add(f"{name}.b", np.zeros(fan_out))

    g = dm.ParamStore()
    dense(g, "reduce", arch.semantic_dim, arch.reduced_dim)
    width = arch.reduced_dim + arch.noise_dim
    for i in range(arch.n_hidden):
        dense(g, f"h{i}", width, arch.eff_hidden)
        width = arch.eff_hidden
    dense(g, "out", width, arch.visual_dim)

    d = dm.ParamStore()
    width = arch.visual_dim
    for i in range(arch.n_hidden):
        dense(d, f"trunk{i}", width, arch.eff_hidden)
        width = arch.eff_hidden
    dense(d, "real", width, 1)
    if segc:
        dense(d, "segc", width, arch.reduced_dim, bias=False)
    else:
        dense(d, "cls", width, k_seen + (1 if extra_class else 0))

    return GeneratorParams(arch, g), DiscriminatorParams(arch, k_seen, segc, extra_class, d)


# ---------------------------------------------------------------------------
# graph builders: `params` may hold Nodes (live) or plain arrays (frozen)


def _dense(x, params, name, slope=None):
    return dm.dense(x, params[f"{name}.W"], params[f"{name}.b"], slope)


def reduce_semantics_node(params, arch: ArchSpec, t) -> dm.Node:
    return _dense(t, params, "reduce", arch.leak)


def generator_output(params, arch: ArchSpec, t, z) -> dm.Node:
    h = dm.concat_cols(reduce_semantics_node(params, arch, t), dm._lift(z))
    for i in range(arch.n_hidden):
        h = _dense(h, params, f"h{i}", arch.leak)
    return _dense(h, params, "out")


def trunk_features(params, arch: ArchSpec, x) -> list[dm.Node]:
    """The output of every trunk layer for the rows `x`, first to last; the
    last is the feature batch that both heads read."""
    hidden = []
    h = x
    for i in range(arch.n_hidden):
        h = _dense(h, params, f"trunk{i}", arch.leak)
        hidden.append(h)
    return hidden


def critic_weight_names(arch: ArchSpec) -> list[str]:
    """Names of the critic's weight matrices from the input to the score
    head, in the order :func:`diffmath.critic_input_gradient` takes them."""
    return [f"trunk{i}.W" for i in range(arch.n_hidden)] + ["real.W"]


def real_score(params, feat) -> dm.Node:
    return _dense(feat, params, "real")


def class_logits(params, feat) -> dm.Node:
    return _dense(feat, params, "cls")


def segc_score_node(W, feat, reduced_T, normalized: bool = False, eta: float = 1.0) -> dm.Node:
    """Compatibility scores S[i, c] = <feat_i W, t_c>, or eta^2 times the
    cosine when normalized. The class descriptors are treated as constants.

    Zero-norm rows or descriptors under normalization score 0 for every
    pairing and raise a degenerate event rather than dividing by zero.
    """
    T = np.asarray(reduced_T.value if isinstance(reduced_T, dm.Node) else reduced_T, dtype=np.float64)
    proj = dm.dense(feat, W)
    scores = dm.dense(proj, T.T)
    if not normalized:
        return scores
    if eta <= 0:
        raise ValidationError("eta must be positive under normalization")
    inv_rows = dm.reshape(dm.row_norm_inv(proj), (-1, 1))
    return dm.mul(dm.mul(scores, inv_rows), dm.constant(descriptor_scale(T, eta)[None, :]))


def descriptor_scale(T, eta: float) -> np.ndarray:
    """eta^2 / ||t_c|| per class descriptor row of `T`: the column factor of
    the normalized semantic-guided scores. Zero-norm descriptors get 0 and
    raise a degenerate event."""
    t_norms = np.sqrt((T * T).sum(axis=1))
    degenerate = t_norms < dm.NORM_EPS
    if degenerate.any():
        events.record("degenerate_zero_norm")
    return eta * eta * np.where(degenerate, 0.0, 1.0 / np.where(degenerate, 1.0, t_norms))


# ---------------------------------------------------------------------------
# numeric wrappers


def _check_widths(t, z, arch):
    t = dm.as_tensor(t)
    z = dm.as_tensor(z)
    if t.ndim != 2 or t.shape[1] != arch.semantic_dim:
        raise DimensionError(f"semantic batch has shape {t.shape}, expected (*, {arch.semantic_dim})")
    if z.ndim != 2 or z.shape[1] != arch.noise_dim:
        raise DimensionError(f"noise batch has shape {z.shape}, expected (*, {arch.noise_dim})")
    if t.shape[0] != z.shape[0]:
        raise DimensionError("semantic and noise batch sizes differ")
    return t, z


def generate(gen: GeneratorParams, t, z) -> np.ndarray:
    """Visual features for a batch of (descriptor, noise) rows."""
    t, z = _check_widths(t, z, gen.arch)
    return generator_output(gen.store, gen.arch, dm.constant(t), dm.constant(z)).value


def reduce_semantics(gen: GeneratorParams, T) -> np.ndarray:
    """Reduced-dimension descriptors from the generator's reduction layer,
    evaluated with the current weights and returned as plain data."""
    T = dm.as_tensor(T)
    if T.ndim != 2 or T.shape[1] != gen.arch.semantic_dim:
        raise DimensionError(f"descriptor table has shape {T.shape}")
    return reduce_semantics_node(gen.store, gen.arch, dm.constant(T)).value


def discriminate(disc: DiscriminatorParams, x) -> dict:
    """Critic score, seen-class softmax (classic head only), and trunk
    features for a batch of visual features."""
    x = dm.as_tensor(x)
    if x.ndim != 2 or x.shape[1] != disc.arch.visual_dim:
        raise DimensionError(f"visual batch has shape {x.shape}, expected (*, {disc.arch.visual_dim})")
    feat = trunk_features(disc.store, disc.arch, dm.constant(x))[-1]
    r = real_score(disc.store, feat).value[:, 0]
    s = None
    if not disc.segc:
        s = dm.softmax_rows(class_logits(disc.store, feat)).value
    return {"r": r, "s": s, "feat": feat.value}
