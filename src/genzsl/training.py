"""Alternating adversarial training, cross-validation, and ablation runs.

One outer step draws a fresh hallucinated minibatch, runs `n_d` Adam updates
of the discriminator, then one of the generator together with the entropy
loss's learnable parameters, if any; each is the same player step over its
loss builder. All randomness is drawn from purpose-keyed
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
from .model import ArchConfig  # re-exported; TrainConfig.arch holds one

# stream purpose tags
TAG_INIT, TAG_HALLU, TAG_BATCH, TAG_NOISE = 1, 2, 3, 4
TAG_INTERP, TAG_UCAT, TAG_EVAL, TAG_SPLIT = 5, 6, 7, 8

DEFAULT_LAMBDA_GRID = (0.0001, 0.001, 0.01, 0.1, 1.0)


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
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValidationError("lr must be finite and positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValidationError("beta1 and beta2 must lie in [0, 1)")
        if self.eval_every < 1:
            raise ValidationError("eval_every must be positive")
        if self.n_steps and self.n_steps % self.eval_every:
            raise ValidationError("eval_every must divide n_steps")
        if self.n_generate_eval < 1:
            raise ValidationError("n_generate_eval must be positive")
        if type(self.arch) is not ArchConfig:  # train resolves it at the dataset widths
            raise ValidationError(f"arch must be an ArchConfig, got {self.arch!r}")
        for lam in self.lambda_grid:  # each candidate weight obeys LossConfig's rule
            try:
                replace(self.loss, lambda_creativity=lam)
            except ValidationError as exc:
                raise ValidationError(f"lambda_grid entry {lam!r}: {exc}") from None
        if len(set(self.lambda_grid)) != len(self.lambda_grid):
            raise ValidationError(f"lambda_grid repeats a weight: {list(self.lambda_grid)}")


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
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ValidationError(f"{where} must hold {len(args)} items, got {value!r}")
        return tuple(_from_json(h, v, where) for h, v in zip(args, value))
    if type(None) in args:  # int | None
        if value is None:
            return None
        (hint,) = set(args) - {type(None)}
    if type(value) not in _JSON_TYPES[hint]:
        raise ValidationError(f"{where} must be a {hint.__name__}, got {value!r}")
    return float(value) if hint is float else value


# ---------------------------------------------------------------------------
# minibatch sampling


def class_tables(labels: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """The rows of each of `k` classes, for class-balanced sampling: every
    class's row indices in ascending order, class after class, and where
    each class's run starts and how many rows it holds."""
    counts = np.bincount(labels, minlength=k)
    return np.argsort(labels, kind="stable"), np.cumsum(counts) - counts, counts


def sample_indices(n_rows: int, size: int, rng, tables=None) -> np.ndarray:
    """`size` row indices into `n_rows` rows, uniform over the rows, or with
    :func:`class_tables`, over the classes and then over the chosen class's
    rows. An offset as large as its class's row count takes the last row."""
    if tables is None:
        return rng.integers(0, n_rows, size=size)
    order, starts, counts = tables
    classes = rng.integers(0, len(counts), size=size)
    counts = counts[classes]
    within = (rng.uniform(size=size) * counts).astype(np.int64)
    return order[starts[classes] + np.minimum(within, counts - 1)]


# ---------------------------------------------------------------------------
# the training loop


@contextmanager
def _failing_at(where: str):
    """Prefix `where` to a NumericOverflowError raised inside. Numpy's
    overflow and invalid-value warnings are silenced inside, as every loss
    and gradient computed there is checked by :func:`diffmath.finite_grads`."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except NumericOverflowError as exc:
        raise NumericOverflowError(f"{where}: {exc}") from exc


def _player_step(where: str, build, store, state, cfg: TrainConfig):
    """Adam on the gradient of the terms' sum of `build()`, a loss builder's
    `({term: value}, backward)`: the new store and state, and the values."""
    with _failing_at(where):
        values, backward = build()
        grads = dm.finite_grads(sum(values.values()),
                                lambda: backward(dict.fromkeys(values, 1.0)))
    return (*dm.adam_step(store, grads, state, cfg.lr, cfg.beta1, cfg.beta2), values)


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

    n_rows = len(dataset.seen_features)
    tables = class_tables(dataset.seen_labels, dataset.k_seen) if cfg.class_balanced \
        else None
    real_means = dataset.class_means()
    n_pivot = max(1, cfg.batch_size // dataset.k_seen)
    m = cfg.batch_size

    hallu_rows = cfg.loss.rf_hallucinated or cfg.loss.creativity_on_discriminator
    history = TrainHistory(degenerate_events=dict(events.counts()))

    for step in range(1, cfg.n_steps + 1):
        t_h = hl.sample_hallucinated_text(dataset.seen_semantics, cfg.policy, m, rng_hallu)
        z_h = rng_noise.standard_normal((m, arch.noise_dim))
        hallu = ls.HalluBatch(t_h, z_h)
        div_values = ls.current_divergence_params(spec, gen.store) \
            if cfg.loss.creativity_on_discriminator else None
        # the generator is frozen until its own update at the end of the step,
        # so every generation of the critic phase comes from one pass. The
        # indices are drawn batch by batch, as a class-balanced batch draws
        # its classes and then its offsets; the noise and the interpolation
        # weights of all n_d batches are one draw each, which Philox fills
        # with the values of the per-batch draws
        reduced_seen = mo.reduce_semantics(gen, dataset.seen_semantics) \
            if disc.segc else None
        idx = np.concatenate([sample_indices(n_rows, m, rng_batch, tables)
                              for _ in range(cfg.n_d)])
        xs, ys = dataset.seen_features[idx], dataset.seen_labels[idx]
        t_rows = dataset.seen_semantics[ys]
        z_rows = rng_noise.standard_normal((cfg.n_d * m, arch.noise_dim))
        if hallu_rows:
            t_rows, z_rows = np.vstack((t_h, t_rows)), np.vstack((z_h, z_rows))
        x_gen = mo.generate(gen, t_rows, z_rows)
        x_h, x_fakes = (x_gen[:m], x_gen[m:]) if hallu_rows else (None, x_gen)
        x_tildes = ls.lipschitz_interpolate(xs, x_fakes, rng_interp)

        for k in range(cfg.n_d):
            rows = slice(k * m, (k + 1) * m)
            disc.store, state_d, terms_d = _player_step(
                f"step {step}, discriminator",
                lambda: ls.discriminator_loss_node(
                    disc, xs[rows], ys[rows], x_fakes[rows], ys[rows],
                    x_tildes[rows], cfg.loss, x_h, reduced_seen, div_values),
                disc.store, state_d, cfg)
        # the stacked batches go before the generator step and the evaluation
        # allocate theirs: held to the end of the step, they raised its peak
        del xs, t_rows, z_rows, x_gen, x_h, x_fakes, x_tildes

        y = dataset.seen_labels[sample_indices(n_rows, m, rng_batch, tables)]
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

        gen.store, state_g, terms_g = _player_step(
            f"step {step}, generator",
            lambda: ls.generator_loss_node(gen.store, disc, seen, hallu, pivot, cfg.loss,
                                           ucat, reduced_seen, reduced_ucat),
            gen.store, state_g, cfg)

        if step % cfg.eval_every == 0:
            report = ev.evaluate_model(gen, dataset, cfg.n_generate_eval,
                                       philox(cfg.seed, TAG_EVAL, step),
                                       with_retrieval=False)
            gamma, beta = ls.current_divergence_params(spec, gen.store)
            history.records.append(HistoryRecord(
                step, sum(terms_g.values()), sum(terms_d.values()),
                -terms_d["critic_real"] - terms_d["critic_fake"],
                report.top1_unseen, report.su_auc, gamma, beta))

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


def best_point(curve) -> tuple[float, int]:
    """A validation curve's best area and the earliest step that reaches
    it; `curve` holds (step, auc, top1) records in step order."""
    best_auc = max(auc for _, auc, _ in curve)
    return best_auc, min(step for step, auc, _ in curve if auc == best_auc)


def cross_validate(dataset: ZslDataset, cfg: TrainConfig) -> CrossValResult:
    """Pick the creativity weight with the highest validation seen-unseen
    area, at the earliest step that reaches it (:func:`best_point`) and the
    first in the grid on a tie, then retrain on all seen classes to that step."""
    if not cfg.lambda_grid:
        raise ValidationError("lambda_grid must be non-empty")
    if cfg.n_steps == 0:
        raise ValidationError("no evaluation points recorded; increase n_steps")
    pseudo = split_for_validation(dataset, cfg.seed)

    curves: dict[float, list[tuple[int, float, float]]] = {}
    for lam in cfg.lambda_grid:
        run_cfg = replace(cfg, loss=replace(cfg.loss, lambda_creativity=lam))
        _, hist = train(pseudo, run_cfg)
        curves[lam] = [(r.step, r.val_auc, r.val_top1) for r in hist.records]
    # max keeps the first of equal areas, which is the grid order
    best_lambda = max(cfg.lambda_grid, key=lambda lam: best_point(curves[lam])[0])
    best_metric, best_step = best_point(curves[best_lambda])

    final_cfg = replace(cfg, n_steps=best_step,
                        loss=replace(cfg.loss, lambda_creativity=best_lambda))
    params, history = train(dataset, final_cfg)
    return CrossValResult(best_lambda, best_step, best_metric, curves, params, history)


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
    if not seeds:
        raise ValidationError("ablate needs at least one seed")

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
