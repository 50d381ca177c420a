"""Zero-shot and generalized zero-shot evaluation.

Recognition reduces to a conventional problem once the generator can
synthesize features for any descriptor: build a pool of generated features
per class and score a test point by its (negative) distance to the nearest
pool member. `evaluate_model` builds one pool per class, seen and unseen,
and reads the whole battery off it:

  * the seen-unseen curve follows a bias added to every unseen-class score
    through every (seen accuracy, unseen accuracy) pair it can produce,
    and its area summarizes generalized performance;
  * Top-1 restricts the label space to unseen classes, which is the
    curve's all-unseen end;
  * retrieval ranks all test images by distance to a class's generated
    center, the mean of its pool (60 generations by default), and measures
    precision at a per-class depth.

The curve is exact: it holds every pair, not a sample of biases.
`retrieval_map` takes the centers; `genzsl retrieve` draws a pool of its own
for the unseen classes and passes its means.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import model as mo
from .errors import DimensionError, ValidationError

DEFAULT_FRACTIONS = (0.25, 0.5, 1.0)
# The scorer's metrics and retrieval's methods; the first of each is the default.
METRICS = ("euclidean", "cosine")
RETRIEVAL_METHODS = ("precision", "average_precision")
# Size of one row block's (rows, C * n_generate) distance matrix. Scoring
# holds two such blocks, one per thread, however many points it scores. The
# rows per block follow from this size and the pool alone, never from the
# thread count or the batch: BLAS may round a product differently in its
# last bit at another shape. This holds at a fixed BLAS thread count: a BLAS
# that splits one product over threads may sum it in another order (euclidean
# scores at 200 classes x 60 x 2048-d differ between 1 and 2 OpenBLAS threads).
SCORE_BLOCK_BYTES = 1 << 20
# Rows of (descriptor, noise) pairs that `build_classifier` runs through the
# generator at once, so that one block's activations are alive at a time.
GENERATE_BLOCK_ROWS = 512
# A squared distance below this fraction of |x|^2 is recomputed from x - p.
NEAR_SQ_FRACTION = 1e-4
# BLAS takes its thread count from the first of these that is set; when none
# is, one product may already run on every core.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _score_workers(blocks: int) -> int:
    """Threads that score `blocks` row blocks: one per usable core, at most 2.

    One thread unless BLAS is set to one thread per product, and one in a
    worker process (`sweep --workers N`), whose sibling processes hold the
    other cores: in both cases a second scoring thread competes for a busy
    core, and it measured slower.
    """
    blas = next((os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ), None)
    if blas != "1" or multiprocessing.parent_process() is not None:
        return 1
    if hasattr(os, "sched_getaffinity"):     # Linux: the cores this process may use
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(cores, blocks, 2)


@dataclass
class EvalReport:
    top1_unseen: float
    su_curve: list[tuple[float, float]]  # (seen_acc, unseen_acc), sorted by bias
    su_auc: float
    harmonic_mean: float
    retrieval_map: dict[float, float] = field(default_factory=dict)


@dataclass
class GeneratedPoolClassifier:
    """Nearest-generated-neighbor scorer over a fixed pool per class."""

    class_ids: np.ndarray      # (C,) global label of each column
    pools: np.ndarray          # (C, n_generate, visual_dim)
    metric: str = "euclidean"

    def __post_init__(self):
        _check_metric(self.metric)
        if np.ndim(self.pools) != 3:
            raise ValidationError(f"pools have shape {np.shape(self.pools)}, "
                                  "expected (classes, n_generate, visual_dim)")
        if 0 in np.shape(self.pools)[:2]:
            raise ValidationError(f"pools have shape {np.shape(self.pools)}: "
                                  "at least one class and one member are needed")
        # the operands reduce over each member's contiguous row, whatever
        # the layout of the array given
        self.pools = np.ascontiguousarray(self.pools, dtype=np.float64)
        self.class_ids = np.asarray(self.class_ids)
        if self.class_ids.ndim != 1:
            raise ValidationError(f"class ids have shape {self.class_ids.shape}, expected (C,)")
        if len(self.class_ids) != len(self.pools):
            raise ValidationError(f"{len(self.class_ids)} class ids for "
                                  f"{len(self.pools)} pools")

    def scores(self, x: np.ndarray) -> np.ndarray:
        """Score matrix (len(x), C); larger is closer.

        Rows are scored in blocks of SCORE_BLOCK_BYTES of pool distances
        each, so the temporaries do not grow with len(x). Up to two threads
        (`_score_workers`) take the blocks from one shared iterator, so a
        thread that starts late or stalls leaves its blocks to the other;
        each scores through its own block buffers: 2 * SCORE_BLOCK_BYTES of
        distances at most. The
        calling thread allocates those buffers and the result, because a
        worker thread that allocates them grows a heap arena of its own
        and with it the process's resident memory. Every product has the
        full block shape, at least two rows: a short last block is computed
        padded, and only its own rows are read. BLAS may round a product of
        another shape differently in the last bit, and draws a one-row
        product by another route, so a row scores the same bits alone as in
        any batch, whichever thread scores its block.

        The product's columns run member-major, (member, class), so each
        class's best member is an elementwise reduction over members. The
        product's operand is written straight from `pools` into that order,
        with no member-major copy of the pool beside it: a call holds the
        pool, one operand of the pool's size and two score blocks.
        Euclidean scores use |x - p|^2 = |x|^2 + (|p|^2 - 2 x.p): one product
        of the block, with a ones column appended, and [-2 p^T; |p|^2] gives
        the bracket for every pool member, each class keeps its smallest,
        and only those (rows, C) values get |x|^2, the clip at 0 and the
        square root. All three are monotone, so taking the minimum first
        changes nothing.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        pools = self.pools
        c, n, d = pools.shape
        if x.ndim != 2 or x.shape[1] != d:
            raise DimensionError(f"test points have shape {x.shape}, expected (*, {d})")
        rows = max(2, SCORE_BLOCK_BYTES // (8 * c * n))
        sq = np.empty((n, c))         # |p|^2 of every member, member-major
        for k in range(c):            # a class at a time: no pool-sized square
            sq[:, k] = (pools[k] * pools[k]).sum(axis=1)
        if self.metric == "euclidean":
            width = d + 1
            rhs = np.empty((width, n * c))
            np.multiply(pools.transpose(2, 1, 0), -2.0, out=rhs[:d].reshape(d, n, c))
            rhs[d] = sq.ravel()

            def block(xb, lhs, prod, m):
                lhs[:len(xb), :d] = xb
                np.matmul(lhs, rhs, out=prod)
                np.minimum.reduce(prod[:len(xb)].reshape(len(xb), n, c), axis=1, out=m)
                x_sq = (xb * xb).sum(axis=1)[:, None]
                m += x_sq
                # the expansion loses the digits of a distance far below |x|,
                # and the square root magnifies the loss: a class with a
                # member that near is measured again directly
                near = m < NEAR_SQ_FRACTION * x_sq
                for k in np.flatnonzero(near.any(axis=0)):
                    r = np.flatnonzero(near[:, k])
                    diff = xb[r, None, :] - pools[k]
                    m[r, k] = (diff * diff).sum(axis=2).min(axis=1)
                np.maximum(m, 0.0, out=m)
                np.sqrt(m, out=m)
                np.negative(m, out=m)
        else:                         # cosine
            width = d
            fn = np.empty((n * c, d))
            norms = np.maximum(np.sqrt(sq), 1e-12)
            np.divide(pools.transpose(1, 0, 2), norms[:, :, None], out=fn.reshape(n, c, d))

            def block(xb, lhs, prod, m):
                np.divide(xb, np.maximum(np.linalg.norm(xb, axis=1, keepdims=True), 1e-12),
                          out=lhs[:len(xb)])
                np.matmul(lhs, fn.T, out=prod)
                np.maximum.reduce(prod[:len(xb)].reshape(len(xb), n, c), axis=1, out=m)

        out = np.empty((len(x), c))
        workers = max(1, _score_workers(-(-len(x) // rows)))
        span = rows if len(x) else 0
        slots = [(np.ones((span, width)), np.empty((span, n * c))) for _ in range(workers)]
        # next() on a range iterator holds the GIL: each start goes to one thread
        starts = iter(range(0, len(x), rows))

        def run(slot):
            lhs, prod = slots[slot]
            for lo in starts:
                block(x[lo:lo + rows], lhs, prod, out[lo:lo + rows])

        # an executor starts a thread only on submit: one worker starts none
        with ThreadPoolExecutor(max(1, workers - 1)) as pool:
            rest = [pool.submit(run, slot) for slot in range(1, workers)]
            run(0)
            for job in rest:
                job.result()
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.class_ids[np.argmax(self.scores(x), axis=1)]


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ValidationError(f"unknown metric {metric!r}")


def build_classifier(gen: mo.GeneratorParams, semantics, n_generate: int,
                     rng: np.random.Generator,
                     metric: str = "euclidean") -> GeneratedPoolClassifier:
    """Generate `n_generate` features per descriptor row and wrap them as a
    nearest-neighbor scorer over classes 0..C-1, one per row, in row order.
    Reproducible for a fixed random stream.

    The pool is allocated once and filled in blocks of GENERATE_BLOCK_ROWS
    (descriptor, noise) rows, class-major, so the generator holds one
    block's activations at a time: an evaluation holds the pool, the
    scorer's one operand, its two score blocks and one generator block.
    Each block draws its noise from `rng` in stream order, so the pool is
    the one a single generator call over all rows would give. A short last
    block is padded with zero rows, never drawn and never kept, so every
    product has the full block shape and none takes BLAS's one-row route.
    """
    semantics = np.atleast_2d(np.asarray(semantics, dtype=np.float64))
    if n_generate < 1:
        raise ValidationError("n_generate must be at least 1")
    _check_metric(metric)
    c = semantics.shape[0]
    pools = np.empty((c, n_generate, gen.arch.visual_dim))
    flat = pools.reshape(c * n_generate, gen.arch.visual_dim)
    t = np.zeros((GENERATE_BLOCK_ROWS, semantics.shape[1]))
    z = np.zeros((GENERATE_BLOCK_ROWS, gen.arch.noise_dim))
    for lo in range(0, len(flat), GENERATE_BLOCK_ROWS):
        m = min(GENERATE_BLOCK_ROWS, len(flat) - lo)
        t[:m] = semantics[np.arange(lo, lo + m) // n_generate]
        rng.standard_normal(out=z[:m])
        t[m:] = 0.0
        z[m:] = 0.0
        flat[lo:lo + m] = mo.generate(gen, t, z)[:m]
    return GeneratedPoolClassifier(np.arange(c), pools, metric)


def top1(classifier: GeneratedPoolClassifier, features, labels) -> float:
    """Fraction of test points whose top-scoring class is the true one."""
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise ValidationError("empty test set")
    return float(np.mean(classifier.predict(features) == labels))


def harmonic_mean(seen_acc: float, unseen_acc: float) -> float:
    if not (0.0 <= seen_acc <= 1.0 and 0.0 <= unseen_acc <= 1.0):
        raise ValidationError("accuracies must lie in [0, 1]")
    if seen_acc + unseen_acc == 0.0:
        return 0.0
    return 2.0 * seen_acc * unseen_acc / (seen_acc + unseen_acc)


def su_curve_auc(classifier: GeneratedPoolClassifier, features, labels, unseen_ids):
    """Seen-unseen curve and its area.

    A bias b added to every unseen-class score moves each test point from
    its best seen column to its best unseen column once b passes the margin
    between their scores; at b equal to the margin the lower column wins,
    as in `argmax`. Accuracies are measured separately over the
    seen-labeled and unseen-labeled test points, so the curve is piecewise
    constant in b and one sort of the margins gives all of it. The curve
    holds one (seen_acc, unseen_acc) pair per change, in ascending bias:
    from the all-seen end (unseen accuracy 0) to the all-unseen end (seen
    accuracy 0). The area integrates the curve over seen accuracy by the
    trapezoidal rule.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels)
    unseen_ids = np.asarray(unseen_ids)
    unseen_cols = np.isin(classifier.class_ids, unseen_ids)
    test_unseen = np.isin(labels, unseen_ids)
    if not test_unseen.any() or test_unseen.all():
        raise ValidationError("the mixed test set needs both seen and unseen examples")
    if not unseen_cols.any() or unseen_cols.all():
        raise ValidationError("the classifier needs both seen and unseen classes")

    scores = classifier.scores(features)
    rows = np.arange(len(labels))
    seen_idx, unseen_idx = np.flatnonzero(~unseen_cols), np.flatnonzero(unseen_cols)
    best_seen = seen_idx[np.argmax(scores[:, seen_idx], axis=1)]
    best_unseen = unseen_idx[np.argmax(scores[:, unseen_idx], axis=1)]
    margin = scores[rows, best_seen] - scores[rows, best_unseen]
    late = best_unseen > best_seen       # at b == margin the seen column still wins
    order = np.lexsort((late, margin))
    margin, late = margin[order], late[order]
    # at a bias that has moved the first k sorted points, the seen-labeled
    # hits are those of the unmoved points, the unseen-labeled hits those of
    # the moved ones; a point never hits through the other side's column
    seen_hit = (classifier.class_ids[best_seen] == labels) & ~test_unseen
    unseen_hit = (classifier.class_ids[best_unseen] == labels) & test_unseen
    lost = np.concatenate([[0], np.cumsum(seen_hit[order])])
    gained = np.concatenate([[0], np.cumsum(unseen_hit[order])])

    steps = np.flatnonzero((margin[1:] != margin[:-1]) | (late[1:] != late[:-1])) + 1
    moved = np.concatenate([[0], steps, [len(margin)]])
    seen_hits = lost[-1] - lost[moved]
    unseen_hits = gained[moved]
    change = np.concatenate([[True], (seen_hits[1:] != seen_hits[:-1])
                             | (unseen_hits[1:] != unseen_hits[:-1])])
    curve = list(zip((seen_hits[change] / (~test_unseen).sum()).tolist(),
                     (unseen_hits[change] / test_unseen.sum()).tolist()))

    # along ascending bias seen hits never rise and unseen hits never fall,
    # so the reversed curve ascends in seen accuracy, and at equal seen
    # accuracy it puts the higher unseen accuracy first, keeping the corners
    arr = np.array(curve)[::-1]
    auc = float(np.trapezoid(arr[:, 1], arr[:, 0]))
    return curve, auc


def retrieval_map(centers, test_features, test_labels, unseen_ids,
                  fractions=DEFAULT_FRACTIONS, method: str = "precision") -> dict[float, float]:
    """Mean retrieval score per fraction over the unseen classes.

    Class `unseen_ids[k]` queries with its visual center `centers[k]`; all
    test images are ranked by ascending distance, ties broken by stable
    image index, and the top ceil(fraction * class size) is scored.
    `method` picks precision at that depth (default) or average precision
    truncated there.
    """
    if method not in RETRIEVAL_METHODS:
        raise ValidationError(f"unknown retrieval method {method!r}")
    fractions = tuple(fractions)
    if not all(0.0 < frac <= 1.0 for frac in fractions):
        raise ValidationError("fractions must lie in (0, 1]")
    unseen_ids = np.asarray(unseen_ids)
    if unseen_ids.size == 0:
        raise ValidationError("no unseen classes to retrieve")
    if len(centers) != unseen_ids.size:
        raise ValidationError(f"{len(centers)} centers for {unseen_ids.size} unseen class ids")
    test_features = np.atleast_2d(np.asarray(test_features, dtype=np.float64))
    test_labels = np.asarray(test_labels)
    # one ranking per class, sliced at every fraction's depth; a class at a
    # time, as one broadcast over every class would hold them all at once
    rankings = []
    for c, center in zip(unseen_ids, centers):
        n_c = int((test_labels == c).sum())
        if n_c == 0:
            raise ValidationError(f"unseen class {c} has no test images")
        dist = np.linalg.norm(test_features - center[None, :], axis=1)
        order = np.argsort(dist, kind="stable")
        rankings.append((n_c, (test_labels[order] == c).astype(np.float64)))

    out = {}
    for frac in fractions:
        per_class = []
        for n_c, relevant in rankings:
            k = math.ceil(frac * n_c)
            rel = relevant[:k]
            if method == "precision":
                per_class.append(rel.mean())
            else:
                hits = np.cumsum(rel)
                ranks = np.arange(1, k + 1)
                denom = min(n_c, k)
                per_class.append(float((rel * hits / ranks).sum() / denom))
        out[float(frac)] = float(np.mean(per_class))
    return out


def evaluate_model(gen: mo.GeneratorParams, dataset, n_generate: int,
                   rng: np.random.Generator, metric: str = "euclidean",
                   with_retrieval: bool = True,
                   retrieval_method: str = "precision") -> EvalReport:
    """The full battery on a dataset's test split, with retrieval at
    DEFAULT_FRACTIONS, from one pool of `n_generate` features per class.

    Top-1 is the curve's all-unseen end: the fraction of unseen test points
    whose best unseen column is their own class, ties to the lower column,
    as `top1` over the pool's unseen classes reads it. Retrieval's centers
    are the means of those classes' pools. The reported harmonic mean is
    the best achievable along the curve, summarizing the trade-off like the
    area does.
    """
    unseen_ids = dataset.k_seen + np.arange(dataset.k_unseen)
    all_sem = np.vstack([dataset.seen_semantics, dataset.unseen_semantics])
    pool = build_classifier(gen, all_sem, n_generate, rng, metric=metric)
    mixed_x = np.vstack([dataset.seen_test_features, dataset.unseen_test_features])
    mixed_y = np.concatenate([dataset.seen_test_labels, dataset.unseen_test_labels])
    curve, auc = su_curve_auc(pool, mixed_x, mixed_y, unseen_ids)
    best_h = max(harmonic_mean(a_s, a_u) for a_s, a_u in curve)

    retrieval = {}
    if with_retrieval:
        # the unseen classes query the unseen test images
        retrieval = retrieval_map(pool.pools[dataset.k_seen:].mean(axis=1),
                                  dataset.unseen_test_features, dataset.unseen_test_labels,
                                  unseen_ids, DEFAULT_FRACTIONS, retrieval_method)
    return EvalReport(curve[-1][1], curve, auc, best_h, retrieval)
