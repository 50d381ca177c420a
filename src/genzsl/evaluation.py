"""Zero-shot and generalized zero-shot evaluation.

Recognition reduces to a conventional problem once the generator can
synthesize features for any descriptor: build a pool of generated features
per class and score a test point by its (negative) distance to the nearest
pool member. On top of that scorer:

  * Top-1 restricts the label space to unseen classes;
  * the seen-unseen curve follows a bias added to every unseen-class score
    through every (seen accuracy, unseen accuracy) pair it can produce,
    and its area summarizes generalized performance;
  * retrieval ranks all test images by distance to a class's generated
    center (the mean of 60 generations by default) and measures precision
    at a per-class depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model as mo
from .errors import ValidationError

DEFAULT_FRACTIONS = (0.25, 0.5, 1.0)
# Size of one row block's (rows, C * n_generate) distance matrix. Scoring
# holds one such temporary at a time, however many points it scores.
SCORE_BLOCK_BYTES = 2 << 20
# A squared distance below this fraction of |x|^2 is recomputed from x - p.
NEAR_SQ_FRACTION = 1e-4


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

    def scores(self, x: np.ndarray) -> np.ndarray:
        """Score matrix (len(x), C); larger is closer.

        Rows are scored in blocks of at most SCORE_BLOCK_BYTES of pool
        distances each, so the temporaries do not grow with len(x).

        Euclidean scores use |x - p|^2 = |x|^2 + (|p|^2 - 2 x.p): one product
        of the block, with a ones column appended, and [-2 p^T; |p|^2] gives
        the bracket for every pool member, each class keeps its smallest,
        and only those (rows, C) values get |x|^2, the clip at 0 and the
        square root. All three are monotone, so taking the minimum first
        changes nothing.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        c, n, d = self.pools.shape
        flat = self.pools.reshape(c * n, d)
        rows = max(1, SCORE_BLOCK_BYTES // (8 * c * n))
        if self.metric == "euclidean":
            rhs = np.empty((d + 1, c * n))
            np.multiply(flat.T, -2.0, out=rhs[:d])
            rhs[d] = (flat * flat).sum(axis=1)
            lhs = np.ones((min(len(x), rows), d + 1))

            def block(xb):
                ext = lhs[:len(xb)]
                ext[:, :d] = xb
                m = (ext @ rhs).reshape(len(xb), c, n).min(axis=2)
                x_sq = (xb * xb).sum(axis=1)[:, None]
                m += x_sq
                # the expansion loses the digits of a distance far below |x|,
                # and the square root magnifies the loss: a class with a
                # member that near is measured again directly
                near = m < NEAR_SQ_FRACTION * x_sq
                for k in np.flatnonzero(near.any(axis=0)):
                    r = np.flatnonzero(near[:, k])
                    diff = xb[r, None, :] - self.pools[k]
                    m[r, k] = (diff * diff).sum(axis=2).min(axis=1)
                np.maximum(m, 0.0, out=m)
                return -np.sqrt(m, out=m)
        elif self.metric == "cosine":
            fn = flat / np.maximum(np.linalg.norm(flat, axis=1, keepdims=True), 1e-12)

            def block(xb):
                xn = xb / np.maximum(np.linalg.norm(xb, axis=1, keepdims=True), 1e-12)
                return (xn @ fn.T).reshape(len(xb), c, n).max(axis=2)
        else:
            raise ValidationError(f"unknown metric {self.metric!r}")
        out = np.empty((len(x), c))
        for lo in range(0, len(x), rows):
            out[lo:lo + rows] = block(x[lo:lo + rows])
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.class_ids[np.argmax(self.scores(x), axis=1)]


def build_classifier(gen: mo.GeneratorParams, semantics, n_generate: int,
                     rng: np.random.Generator, class_ids=None,
                     metric: str = "euclidean") -> GeneratedPoolClassifier:
    """Generate `n_generate` features per descriptor row and wrap them as a
    nearest-neighbor scorer. Reproducible for a fixed random stream."""
    semantics = np.atleast_2d(np.asarray(semantics, dtype=np.float64))
    if n_generate < 1:
        raise ValidationError("n_generate must be at least 1")
    c = semantics.shape[0]
    ids = np.arange(c) if class_ids is None else np.asarray(class_ids)
    t = np.repeat(semantics, n_generate, axis=0)
    z = rng.standard_normal((c * n_generate, gen.arch.noise_dim))
    pools = mo.generate(gen, t, z).reshape(c, n_generate, gen.arch.visual_dim)
    return GeneratedPoolClassifier(ids, pools, metric)


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


def su_curve_auc(classifier: GeneratedPoolClassifier, features, labels,
                 unseen_ids, bias_grid=None):
    """Seen-unseen curve and its area.

    A bias b added to every unseen-class score moves each test point from
    its best seen column to its best unseen column once b passes the margin
    between their scores; at b equal to the margin the lower column wins,
    as in `argmax`. Accuracies are measured separately over the
    seen-labeled and unseen-labeled test points, so the curve is piecewise
    constant in b and one sort of the margins gives all of it. The default
    curve holds one (seen_acc, unseen_acc) pair per change, in ascending
    bias: from the all-seen end (unseen accuracy 0) to the all-unseen end
    (seen accuracy 0). An explicit `bias_grid` reads the pairs at those
    biases instead, between the same two ends. The area integrates the
    curve over seen accuracy by the trapezoidal rule.
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
    if bias_grid is not None:
        bias_grid = np.sort(np.asarray(bias_grid, dtype=np.float64))
        if bias_grid.size == 0:
            raise ValidationError("bias grid is empty")

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

    if bias_grid is None:
        steps = np.flatnonzero((margin[1:] != margin[:-1]) | (late[1:] != late[:-1])) + 1
    else:
        hi = np.searchsorted(margin, bias_grid, side="right")
        lo = np.searchsorted(margin, bias_grid, side="left")
        late_before = np.concatenate([[0], np.cumsum(late)])
        steps = hi - (late_before[hi] - late_before[lo])
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


def retrieval_map(gen: mo.GeneratorParams, unseen_semantics, test_features,
                  test_labels, unseen_ids, fractions=DEFAULT_FRACTIONS,
                  n_generate: int = 60, rng: np.random.Generator | None = None,
                  method: str = "precision") -> dict[float, float]:
    """Mean retrieval score per fraction over the unseen classes.

    Each class queries with its visual center (the mean of `n_generate`
    generated features); all test images are ranked by ascending distance,
    ties broken by stable image index, and the top ceil(fraction * class
    size) is scored. `method` picks precision at that depth (default) or
    average precision truncated there.
    """
    if rng is None:
        raise ValidationError("retrieval needs an explicit random stream")
    if method not in ("precision", "average_precision"):
        raise ValidationError(f"unknown retrieval method {method!r}")
    unseen_semantics = np.atleast_2d(np.asarray(unseen_semantics, dtype=np.float64))
    test_features = np.atleast_2d(np.asarray(test_features, dtype=np.float64))
    test_labels = np.asarray(test_labels)
    unseen_ids = np.asarray(unseen_ids)
    if unseen_semantics.shape[0] != unseen_ids.size:
        raise ValidationError("one descriptor per unseen class id is required")

    fractions = tuple(fractions)
    if not all(0.0 < frac <= 1.0 for frac in fractions):
        raise ValidationError("fractions must lie in (0, 1]")

    centers = build_classifier(gen, unseen_semantics, n_generate, rng).pools.mean(axis=1)
    # one ranking per class, sliced at every fraction's depth
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
    DEFAULT_FRACTIONS.

    The reported harmonic mean is the best achievable along the curve,
    summarizing the trade-off like the area does.
    """
    unseen_ids = dataset.k_seen + np.arange(dataset.k_unseen)
    zsl = build_classifier(gen, dataset.unseen_semantics, n_generate, rng,
                           class_ids=unseen_ids, metric=metric)
    acc = top1(zsl, dataset.unseen_test_features, dataset.unseen_test_labels)

    all_sem = np.vstack([dataset.seen_semantics, dataset.unseen_semantics])
    gzsl = build_classifier(gen, all_sem, n_generate, rng,
                            class_ids=np.arange(dataset.k_seen + dataset.k_unseen),
                            metric=metric)
    mixed_x = np.vstack([dataset.seen_test_features, dataset.unseen_test_features])
    mixed_y = np.concatenate([dataset.seen_test_labels, dataset.unseen_test_labels])
    curve, auc = su_curve_auc(gzsl, mixed_x, mixed_y, unseen_ids)
    best_h = max(harmonic_mean(a_s, a_u) for a_s, a_u in curve)

    retrieval = {}
    if with_retrieval:
        # retrieval queries the unseen classes against the unseen test pool
        retrieval = retrieval_map(gen, dataset.unseen_semantics,
                                  dataset.unseen_test_features,
                                  dataset.unseen_test_labels,
                                  unseen_ids, DEFAULT_FRACTIONS, n_generate, rng,
                                  retrieval_method)
    return EvalReport(acc, curve, auc, best_h, retrieval)
