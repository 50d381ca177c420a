"""Alternating adversarial training, cross-validation, and ablation runs.

One outer step draws a fresh hallucinated minibatch, runs `n_d` Adam updates
of the discriminator, then one Adam update of the generator together with
the entropy loss's learnable parameters, if any, from one gradient of the
generator loss. All randomness is drawn from purpose-keyed
Philox streams, so a (dataset, config) pair reproduces its run bit for bit.

Cross-validation splits the seen classes 80/20, treats the held-out classes
as pseudo-unseen, trains once per creativity-weight candidate, and retrains
on all seen classes with the winning (weight, step) pair.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import diffmath as dm
from . import divergences as dv
from . import evaluation as ev
from . import events
from . import hallucination as hl
from . import losses as ls
from . import model as mo
from .dataio import ZslDataset, philox
from .errors import NumericOverflowError, ValidationError

# stream purpose tags
TAG_INIT, TAG_HALLU, TAG_BATCH, TAG_NOISE = 1, 2, 3, 4
TAG_INTERP, TAG_UCAT, TAG_EVAL, TAG_SPLIT = 5, 6, 7, 8

DEFAULT_LAMBDA_GRID = (0.0001, 0.001, 0.01, 0.1, 1.0)


@dataclass(frozen=True)
class ArchConfig:
    """Architecture knobs that do not depend on the dataset; the semantic and
    visual widths are read off the dataset at train time."""

    preset: str = "base"
    hidden_dim: int = 64
    noise_dim: int = 16
    reduced_dim: int | None = None
    leak: float = 0.2

    def resolve(self, dataset: ZslDataset) -> mo.ArchSpec:
        return mo.ArchSpec(
            semantic_dim=dataset.semantic_dim,
            visual_dim=dataset.visual_dim,
            preset=self.preset,
            noise_dim=self.noise_dim,
            hidden_dim=self.hidden_dim,
            reduced_dim=self.reduced_dim,
            leak=self.leak,
        )


@dataclass(frozen=True)
class TrainConfig:
    n_steps: int = 3000
    batch_size: int = 64
    n_d: int = 5
    lr: float = 0.001
    beta1: float = 0.5
    beta2: float = 0.9
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    eval_every: int = 100
    seed: int = 0
    n_generate_eval: int = 60
    class_balanced: bool = False
    loss: ls.LossConfig = field(default_factory=ls.LossConfig)
    arch: ArchConfig = field(default_factory=ArchConfig)
    policy: hl.HallucinationPolicy = field(
        default_factory=lambda: hl.PRESETS["interpolate"])

    def __post_init__(self):
        if self.n_steps < 0 or self.batch_size < 1 or self.n_d < 1:
            raise ValidationError("n_steps >= 0, batch_size >= 1, n_d >= 1 required")
        if self.lr <= 0:
            raise ValidationError("lr must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValidationError("beta1 and beta2 must lie in [0, 1)")
        if self.eval_every < 1:
            raise ValidationError("eval_every must be positive")
        if self.n_steps and self.n_steps % self.eval_every:
            raise ValidationError("eval_every must divide n_steps")
        if self.n_generate_eval < 1:
            raise ValidationError("n_generate_eval must be positive")


@dataclass
class HistoryRecord:
    step: int
    loss_g: float
    loss_d: float
    wasserstein: float
    val_top1: float
    val_auc: float
    gamma: float
    beta: float


@dataclass
class TrainHistory:
    records: list[HistoryRecord] = field(default_factory=list)
    n_disc_updates: int = 0
    n_gen_updates: int = 0
    n_entropy_updates: int = 0
    degenerate_events: dict[str, int] = field(default_factory=dict)

    CSV_HEADER = tuple(f.name for f in fields(HistoryRecord))

    def rows(self):
        return [astuple(r) for r in self.records]


# ---------------------------------------------------------------------------
# config (de)serialization


def config_from_dict(d: dict) -> TrainConfig:
    """The TrainConfig that a JSON mirror (`dataclasses.asdict` of one)
    describes. Missing keys take their defaults, unknown keys are rejected
    at every level, lists become tuples, and values follow the field
    annotations: a bool field takes only true/false, an int field only an
    integer, a float field an integer or a number (read as a float), an
    `int | None` field also null. The policy may also be a preset name or a
    list of [lo, hi] intervals."""
    return _from_json(TrainConfig, d, "config")


# the JSON types each scalar annotation accepts; bool is not an int here
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _from_json(hint, value, where: str):
    if hint is hl.HallucinationPolicy and not isinstance(value, dict):
        return hl.policy_from_config(value)
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise ValidationError(f"{where} must be an object, got {value!r}")
        hints = get_type_hints(hint)
        unknown = set(value) - {f.name for f in fields(hint)}
        if unknown:
            raise ValidationError(f"unknown {where} keys: {sorted(unknown)}")
        return hint(**{k: _from_json(hints[k], v, k) for k, v in value.items()})
    args = get_args(hint)
    if get_origin(hint) is tuple:  # tuple[float, ...], tuple[float, float]
        if not isinstance(value, (list, tuple)):
            raise ValidationError(f"{where} must be a list, got {value!r}")
        return tuple(_from_json(args[0], v, where) for v in value)
    if type(None) in args:  # int | None
        if value is None:
            return None
        (hint,) = set(args) - {type(None)}
    if type(value) not in _JSON_TYPES[hint]:
        raise ValidationError(f"{where} must be a {hint.__name__}, got {value!r}")
    return float(value) if hint is float else value


# ---------------------------------------------------------------------------
# minibatch sampling


def _sample_indices(dataset: ZslDataset, size: int, rng, class_balanced: bool,
                    per_class: list[np.ndarray]) -> np.ndarray:
    if not class_balanced:
        return rng.integers(0, len(dataset.seen_features), size=size)
    classes = rng.integers(0, dataset.k_seen, size=size)
    offsets = rng.uniform(size=size)
    return np.array([
        per_class[c][int(o * len(per_class[c]))] for c, o in zip(classes, offsets)
    ])


# ---------------------------------------------------------------------------
# the training loop


@contextmanager
def _failing_at(where: str):
    """Prefix `where` to a NumericOverflowError raised inside."""
    try:
        yield
    except NumericOverflowError as exc:
        raise NumericOverflowError(f"{where}: {exc}") from exc


def train(dataset: ZslDataset, cfg: TrainConfig):
    """Run the alternating optimization; returns (ModelParams, TrainHistory).

    Identical (dataset, cfg) pairs produce bit-identical parameters and
    history. History metrics are computed on the dataset's test split every
    `eval_every` steps using a stream keyed by the step, leaving the
    training streams untouched.
    """
    dataset.validate()
    if dataset.k_seen < 2:
        raise ValidationError("training needs at least 2 seen classes")
    arch = cfg.arch.resolve(dataset)
    spec = cfg.loss.divergence

    gen, disc = mo.init_params(arch, dataset.k_seen, cfg.loss.segc_active,
                               philox(cfg.seed, TAG_INIT),
                               extra_class=cfg.loss.new_class_ablation)
    # while training, the generator's store also holds the unconstrained
    # entropy parameters after its own tensors, so that one gradient and one
    # Adam update serve both; every reader takes only the names it uses
    div_init = spec.unconstrained_init()
    gen.store = dm.ParamStore([*gen.store.items(), *div_init.items()])

    state_d = dm.AdamState(disc.store)
    state_g = dm.AdamState(gen.store)

    rng_hallu = philox(cfg.seed, TAG_HALLU)
    rng_batch = philox(cfg.seed, TAG_BATCH)
    rng_noise = philox(cfg.seed, TAG_NOISE)
    rng_interp = philox(cfg.seed, TAG_INTERP)
    rng_ucat = philox(cfg.seed, TAG_UCAT)

    per_class = [np.flatnonzero(dataset.seen_labels == k) for k in range(dataset.k_seen)]
    real_means = dataset.class_means()
    n_pivot = max(1, cfg.batch_size // dataset.k_seen)
    m = cfg.batch_size

    hallu_rows = cfg.loss.rf_hallucinated or cfg.loss.creativity_on_discriminator
    history = TrainHistory(degenerate_events=dict(events.counts()))
    adam_kw = dict(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)

    loss_d_val = loss_g_val = w_est = 0.0
    for step in range(1, cfg.n_steps + 1):
        t_h = hl.sample_hallucinated_text(dataset.seen_semantics, cfg.policy, m, rng_hallu)
        z_h = rng_noise.standard_normal((m, arch.noise_dim))
        hallu = ls.HalluBatch(t_h, z_h)
        div_values = ls.current_divergence_params(spec, gen.store)
        # the generator is frozen until its own update at the end of the step,
        # so every generation of the critic phase comes from one pass
        reduced_seen = mo.reduce_semantics(gen, dataset.seen_semantics) \
            if disc.segc else None
        idx = [_sample_indices(dataset, m, rng_batch, cfg.class_balanced, per_class)
               for _ in range(cfg.n_d)]
        t_rows = [dataset.seen_semantics[dataset.seen_labels[i]] for i in idx]
        z_rows = [rng_noise.standard_normal((m, arch.noise_dim)) for _ in range(cfg.n_d)]
        if hallu_rows:
            t_rows, z_rows = [t_h] + t_rows, [z_h] + z_rows
        x_gen = mo.generate(gen, np.vstack(t_rows), np.vstack(z_rows))
        x_h, x_fakes = (x_gen[:m], x_gen[m:]) if hallu_rows else (None, x_gen)

        for k in range(cfg.n_d):
            x = dataset.seen_features[idx[k]]
            y = dataset.seen_labels[idx[k]]
            x_fake = x_fakes[k * m:(k + 1) * m]
            x_tilde = ls.lipschitz_interpolate(x, x_fake, rng_interp)
            terms_d, backward = ls.discriminator_loss_node(
                disc.store, disc, x, y, x_fake, y, x_tilde, cfg.loss, x_h,
                reduced_seen, div_values)
            loss_d_val = sum(terms_d.values())
            with _failing_at(f"step {step}, discriminator"):
                grads = dm.finite_grads(loss_d_val,
                                        lambda: backward(dict.fromkeys(terms_d, 1.0)))
            del backward  # it holds the critic step's whole forward pass
            disc.store, state_d = dm.adam_step(disc.store, grads, state_d, **adam_kw)
            w_est = -terms_d["critic_real"] - terms_d["critic_fake"]

        idx = _sample_indices(dataset, m, rng_batch, cfg.class_balanced, per_class)
        y = dataset.seen_labels[idx]
        seen = ls.SeenBatch(dataset.seen_semantics[y], y,
                            rng_noise.standard_normal((m, arch.noise_dim)))
        pivot = ls.PivotInputs(
            dataset.seen_semantics, real_means,
            rng_noise.standard_normal((dataset.k_seen, n_pivot, arch.noise_dim)))
        ucat = None
        reduced_ucat = None
        if cfg.loss.u_categorization:
            t_u = hl.sample_hallucinated_text(dataset.seen_semantics, cfg.policy,
                                              cfg.loss.k_unseen_cap, rng_ucat)
            ucat = ls.UCatBatch(t_u, rng_ucat.standard_normal(
                (cfg.loss.k_unseen_cap, arch.noise_dim)))
            reduced_ucat = mo.reduce_semantics(gen, t_u)

        terms_g: dict[str, float] = {}  # plain values, so the tape dies with grad_scalar

        def loss_g(leaves):
            terms = ls.generator_loss_node(leaves, leaves, disc, seen, hallu, pivot,
                                           cfg.loss, ucat, reduced_seen, reduced_ucat)
            terms_g.update((name, float(t.value)) for name, t in terms.items())
            return ls.total(terms)

        with _failing_at(f"step {step}, generator"):
            grads = dm.grad_scalar(loss_g, gen.store)
        gen.store, state_g = dm.adam_step(gen.store, grads, state_g, **adam_kw)
        loss_g_val = sum(terms_g.values())

        if step % cfg.eval_every == 0:
            report = ev.evaluate_model(gen, dataset, cfg.n_generate_eval,
                                       philox(cfg.seed, TAG_EVAL, step),
                                       with_retrieval=False)
            gamma, beta = ls.current_divergence_params(spec, gen.store)
            history.records.append(HistoryRecord(
                step, loss_g_val, loss_d_val, w_est,
                report.top1_unseen, report.su_auc, gamma, beta))

    history.n_disc_updates = state_d.step
    history.n_gen_updates = state_g.step
    history.n_entropy_updates = state_g.step if div_init else 0
    start = history.degenerate_events
    history.degenerate_events = {
        k: v - start.get(k, 0) for k, v in events.counts().items()
        if v - start.get(k, 0) > 0
    }
    div_store = dm.ParamStore((k, gen.store[k]) for k in div_init)
    gen.store = dm.ParamStore((k, v) for k, v in gen.store.items() if k not in div_store)
    return mo.ModelParams(gen, disc, div_store), history


# ---------------------------------------------------------------------------
# cross-validation over the creativity weight


@dataclass
class CrossValResult:
    best_lambda: float
    best_step: int
    best_metric: float
    curves: dict[float, list[tuple[int, float, float]]]  # lambda -> (step, auc, top1)
    final_params: mo.ModelParams
    final_history: TrainHistory


def split_for_validation(dataset: ZslDataset, seed: int):
    """Hold out ~20% of the seen classes as pseudo-unseen; their training
    examples become the validation test set."""
    k = dataset.k_seen
    if k < 5:
        raise ValidationError("cross-validation needs at least 5 seen classes")
    n_val = max(1, round(0.2 * k))
    order = philox(seed, TAG_SPLIT).permutation(k)
    val_classes = np.sort(order[:n_val])
    train_classes = np.sort(order[n_val:])

    remap = -np.ones(k, dtype=int)
    remap[train_classes] = np.arange(len(train_classes))
    train_mask = np.isin(dataset.seen_labels, train_classes)
    seen_test_mask = np.isin(dataset.seen_test_labels, train_classes)

    val_parts = [dataset.seen_features[dataset.seen_labels == c] for c in val_classes]
    val_features = np.vstack(val_parts)
    val_labels = np.concatenate([
        np.full(len(part), len(train_classes) + i) for i, part in enumerate(val_parts)
    ])

    return ZslDataset(
        seen_features=dataset.seen_features[train_mask],
        seen_labels=remap[dataset.seen_labels[train_mask]],
        seen_semantics=dataset.seen_semantics[train_classes],
        unseen_semantics=dataset.seen_semantics[val_classes],
        unseen_test_features=val_features,
        unseen_test_labels=val_labels,
        seen_test_features=dataset.seen_test_features[seen_test_mask],
        seen_test_labels=remap[dataset.seen_test_labels[seen_test_mask]],
        split_mode="custom",
    ).validate()


def cross_validate(dataset: ZslDataset, cfg: TrainConfig) -> CrossValResult:
    """Pick the creativity weight (and checkpoint step) with the highest
    validation seen-unseen area, then retrain on all seen classes."""
    if not cfg.lambda_grid:
        raise ValidationError("lambda_grid must be non-empty")
    pseudo = split_for_validation(dataset, cfg.seed)

    curves: dict[float, list[tuple[int, float, float]]] = {}
    best = None  # (metric, grid position, step)
    for pos, lam in enumerate(cfg.lambda_grid):
        run_cfg = replace(cfg, loss=replace(cfg.loss, lambda_creativity=lam))
        _, hist = train(pseudo, run_cfg)
        curve = [(r.step, r.val_auc, r.val_top1) for r in hist.records]
        curves.setdefault(lam, curve)
        for step, auc, _ in curve:
            key = (auc, -pos, -step)
            if best is None or key > (best[0], -best[1], -best[2]):
                best = (auc, pos, step)
    if best is None:
        raise ValidationError("no evaluation points recorded; increase n_steps")

    best_lambda = cfg.lambda_grid[best[1]]
    best_step = best[2]
    final_cfg = replace(cfg, n_steps=best_step,
                        loss=replace(cfg.loss, lambda_creativity=best_lambda))
    params, history = train(dataset, final_cfg)
    return CrossValResult(best_lambda, best_step, best[0], curves, params, history)


# ---------------------------------------------------------------------------
# ablation suites


def _with_loss(**over):
    def apply(cfg: TrainConfig) -> TrainConfig:
        return replace(cfg, loss=replace(cfg.loss, **over))
    return apply


def _with_divergence(family, gamma=2.0, beta=2.0, learn_gamma=False, learn_beta=False):
    spec = dv.DivergenceSpec(family, gamma, beta, learn_gamma, learn_beta)
    return _with_loss(divergence=spec)


def _with_policy(name):
    def apply(cfg: TrainConfig) -> TrainConfig:
        return replace(cfg, policy=hl.PRESETS[name])
    return apply


ABLATION_SUITES: dict[str, list[tuple[str, object]]] = {
    # the creative-loss study: entropy families, removed terms, and the
    # new-class alternative, ending at the no-creativity baseline
    "creative-loss": [
        ("sm-entropy-full", _with_divergence("sharma_mittal", 2.0, 2.0, True, True)),
        ("new-class-instead-of-entropy",
         _with_loss(entropy_term=False, new_class_ablation=True)),
        ("no-realism-term", _with_loss(realism_term=False)),
        ("no-entropy-term", _with_loss(entropy_term=False)),
        ("bhattacharyya-entropy", _with_divergence("bhattacharyya", 0.5, 1.0)),
        ("renyi-entropy", _with_divergence("renyi", 2.0, learn_gamma=True)),
        ("kl-entropy", _with_divergence("kl", 1.0, 1.0)),
        ("tsallis-entropy", _with_divergence("tsallis", 2.0, learn_gamma=True)),
        ("baseline-no-creative-terms",
         _with_loss(realism_term=False, entropy_term=False)),
    ],
    "hallucination-policies": [
        ("interpolate", _with_policy("interpolate")),
        ("negative-extrapolate", _with_policy("neg_extrapolate")),
        ("positive-extrapolate", _with_policy("pos_extrapolate")),
        ("negative-and-positive-extrapolate", _with_policy("neg_pos")),
        ("interpolate-and-extrapolate", _with_policy("all")),
    ],
    "semantic-categorizer": [
        ("classic-head", _with_loss(segc_active=False)),
        ("semantic-guided-head", _with_loss(segc_active=True)),
    ],
    "segc-and-hallucinated-rf": [
        ("base", _with_loss()),
        ("hallucinated-rf-loss", _with_loss(rf_hallucinated=True)),
        ("semantic-guided-head", _with_loss(segc_active=True)),
        ("semantic-guided-head-plus-rf",
         _with_loss(segc_active=True, rf_hallucinated=True)),
    ],
    "hallucinated-class-count": [
        ("ku100-without-categorization",
         _with_loss(segc_active=True, u_categorization=False)),
        ("ku100-with-categorization",
         _with_loss(segc_active=True, u_categorization=True, k_unseen_cap=100)),
    ],
}


@dataclass
class AblationRow:
    label: str
    top1_mean: float
    top1_std: float
    auc_mean: float
    auc_std: float
    hm_mean: float
    hm_std: float


def ablate(dataset: ZslDataset, cfg: TrainConfig, suite, seeds=None) -> list[AblationRow]:
    """One row per flag bundle: train, evaluate, and aggregate over seeds.

    `suite` is a suite name from ABLATION_SUITES or an explicit list of
    (label, config-transform) pairs. All bundles share the same seeds.
    """
    if isinstance(suite, str):
        try:
            bundles = ABLATION_SUITES[suite]
        except KeyError:
            raise ValidationError(
                f"unknown suite {suite!r}; known: {sorted(ABLATION_SUITES)}") from None
    else:
        bundles = list(suite)
    seeds = [cfg.seed] if seeds is None else list(seeds)

    rows = []
    for label, transform in bundles:
        metrics = []
        for seed in seeds:
            run_cfg = transform(replace(cfg, seed=seed))
            params, _ = train(dataset, run_cfg)
            report = ev.evaluate_model(params.generator, dataset, cfg.n_generate_eval,
                                       philox(seed, TAG_EVAL, cfg.n_steps + 1),
                                       with_retrieval=False)
            metrics.append((report.top1_unseen, report.su_auc, report.harmonic_mean))
        arr = np.array(metrics)
        rows.append(AblationRow(
            label,
            float(arr[:, 0].mean()), float(arr[:, 0].std()),
            float(arr[:, 1].mean()), float(arr[:, 1].std()),
            float(arr[:, 2].mean()), float(arr[:, 2].std()),
        ))
    return rows
