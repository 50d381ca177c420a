import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import genzsl.dataio as io
import genzsl.evaluation as ev
import genzsl.model as mo
from genzsl.errors import DimensionError, ValidationError
from helpers import argmax_sweep, pool_scores_unblocked


def pool_classifier(points, ids=None, metric="euclidean"):
    """Classifier whose pool is exactly one point per class."""
    points = np.asarray(points, dtype=np.float64)
    ids = np.arange(len(points)) if ids is None else np.asarray(ids)
    return ev.GeneratedPoolClassifier(ids, points[:, None, :], metric)


def identity_generator():
    """Surgically wired generator with G(t, z) = t in two dimensions."""
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


def centers(gen, semantics, n_generate, rng):
    """Retrieval centers as `genzsl retrieve` draws them: the means of
    `n_generate` generations per descriptor row."""
    return ev.build_classifier(gen, semantics, n_generate, rng).pools.mean(axis=1)


class ShiftedScores:
    """Wraps a classifier, adding a constant to every class score."""

    def __init__(self, base, shift):
        self.base = base
        self.shift = shift
        self.class_ids = base.class_ids

    def scores(self, x):
        return self.base.scores(x) + self.shift

    def predict(self, x):
        return self.class_ids[np.argmax(self.scores(x), axis=1)]


class ScoreTable:
    """A scorer that returns a fixed score matrix, whatever it is given."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.float64)
        self.class_ids = np.arange(self.table.shape[1])

    def scores(self, x):
        return self.table


def unit_rows(g, n, d):
    """Rows with four entries of +-1: every norm is 2, so the unit rows and
    all their products are exact in float64."""
    x = np.zeros((n, d))
    for row in x:
        row[g.choice(d, 4, replace=False)] = g.choice([-1.0, 1.0], 4)
    return x


def scaled_unit_rows(g, n, d):
    """`unit_rows`, each scaled by its own power of two: the norms differ
    from row to row, and every product and unit row is still exact."""
    return unit_rows(g, n, d) * 2.0 ** g.integers(-3, 4, size=(n, 1))


class TestBuildClassifier:
    def test_pool_shape_and_determinism(self):
        arch = mo.ArchSpec(semantic_dim=4, visual_dim=6, noise_dim=2, hidden_dim=8)
        gen, _ = mo.init_params(arch, 3, False, io.philox(1, 1))
        sem = io.philox(2, 2).standard_normal((3, 4))
        a = ev.build_classifier(gen, sem, 7, io.philox(3, 3))
        b = ev.build_classifier(gen, sem, 7, io.philox(3, 3))
        assert a.pools.shape == (3, 7, 6)
        assert a.pools.tobytes() == b.pools.tobytes()

    def test_single_generation_degenerates_to_nearest_center(self):
        arch = mo.ArchSpec(semantic_dim=4, visual_dim=6, noise_dim=2, hidden_dim=8)
        gen, _ = mo.init_params(arch, 3, False, io.philox(1, 1))
        sem = io.philox(2, 2).standard_normal((3, 4))
        clf = ev.build_classifier(gen, sem, 1, io.philox(3, 3))
        x = io.philox(4, 4).standard_normal((10, 6))
        centers = clf.pools[:, 0, :]
        expected = np.argmin(
            ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1)
        np.testing.assert_array_equal(clf.predict(x), expected)

    def test_n_generate_must_be_positive(self):
        arch = mo.ArchSpec(semantic_dim=4, visual_dim=6, noise_dim=2, hidden_dim=8)
        gen, _ = mo.init_params(arch, 3, False, io.philox(1, 1))
        with pytest.raises(ValidationError):
            ev.build_classifier(gen, np.ones((2, 4)), 0, io.philox(0, 0))

    @pytest.mark.parametrize("c,n", [(1, 1), (2, 1), (7, 73), (8, 64), (27, 19), (41, 25)],
                             ids=["rows-1", "rows-2", "rows-511", "rows-512", "rows-513",
                                  "rows-1025"])
    def test_blocked_pool_equals_one_generator_call(self, c, n, monkeypatch):
        arch = mo.ArchSpec(semantic_dim=6, visual_dim=8, noise_dim=3, hidden_dim=10)
        gen, _ = mo.init_params(arch, 3, False, io.philox(1, 2))
        sem = io.philox(2, 3).standard_normal((c, 6))
        rng, ref_rng = io.philox(3, 4), io.philox(3, 4)
        calls = []
        generate = mo.generate
        monkeypatch.setattr(mo, "generate", lambda *a: calls.append(1) or generate(*a))
        pools = ev.build_classifier(gen, sem, n, rng).pools
        assert len(calls) == -(-c * n // ev.GENERATE_BLOCK_ROWS)
        # the same rows and noise in one call, with a zero row appended so
        # that even one row goes through a matrix product, not BLAS's
        # one-row route
        t = np.vstack([np.repeat(sem, n, axis=0), np.zeros((1, 6))])
        z = np.vstack([ref_rng.standard_normal((c * n, 3)), np.zeros((1, 3))])
        want = generate(gen, t, z)[:-1].reshape(c, n, 8)
        assert np.array_equal(pools, want)
        # and the stream is left where one draw of all the noise leaves it
        assert np.array_equal(rng.standard_normal(4), ref_rng.standard_normal(4))


class TestTop1:
    def test_oracle_pool_scores_one(self):
        protos = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        for metric in ("euclidean", "cosine"):
            clf = pool_classifier(protos, metric=metric)
            assert ev.top1(clf, protos, [0, 1, 2]) == 1.0

    def test_cosine_scores_are_the_best_cosine_and_scale_invariant(self):
        g = io.philox(8, 8)
        pools = g.standard_normal((4, 5, 3))
        x = g.standard_normal((20, 3))
        clf = ev.GeneratedPoolClassifier(np.arange(4), pools, "cosine")
        cos = np.einsum("id,cnd->icn", x, pools) / (
            np.linalg.norm(x, axis=1)[:, None, None] * np.linalg.norm(pools, axis=2)[None])
        np.testing.assert_allclose(clf.scores(x), cos.max(axis=2), rtol=0, atol=1e-12)
        scaled = ev.GeneratedPoolClassifier(np.arange(4), 0.3 * pools, "cosine")
        np.testing.assert_allclose(scaled.scores(7.0 * x), clf.scores(x), rtol=0, atol=1e-12)

    def test_adversarial_shared_pool_breaks_ties_to_lowest_index(self):
        shared = np.tile(np.array([[1.0, 1.0]]), (4, 1))
        clf = pool_classifier(shared, ids=[5, 6, 7, 8])
        labels = np.array([5, 6, 7, 8, 5, 5])
        x = np.zeros((6, 2))
        acc = ev.top1(clf, x, labels)
        assert acc == pytest.approx(np.mean(labels == 5))

    def test_random_pool_on_balanced_classes_hits_chance(self):
        accs = []
        for seed in range(10):
            g = io.philox(seed, 42)
            clf = ev.GeneratedPoolClassifier(
                np.arange(4), 100.0 * g.standard_normal((4, 5, 3)), "euclidean")
            x = g.standard_normal((200, 3))
            labels = np.repeat(np.arange(4), 50)
            accs.append(ev.top1(clf, x, labels))
        assert abs(np.mean(accs) - 0.25) < 0.03

    def test_shift_invariance(self):
        g = io.philox(9, 9)
        clf = pool_classifier(g.standard_normal((4, 3)))
        x = g.standard_normal((20, 3))
        labels = g.integers(0, 4, size=20)
        assert ev.top1(clf, x, labels) == ev.top1(ShiftedScores(clf, 11.0), x, labels)


class TestHarmonicMean:
    def test_values(self):
        assert ev.harmonic_mean(0.5, 0.5) == pytest.approx(0.5)
        assert ev.harmonic_mean(1.0, 0.0) == 0.0
        assert ev.harmonic_mean(0.0, 0.0) == 0.0
        assert ev.harmonic_mean(0.6, 0.3) == pytest.approx(0.4, abs=1e-12)

    def test_range_check(self):
        with pytest.raises(ValidationError):
            ev.harmonic_mean(1.2, 0.5)


class TestSuCurveAuc:
    def _separable_setup(self):
        protos = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0], [20.0, 20.0]])
        clf = pool_classifier(protos, ids=[0, 1, 2, 3])
        x = np.vstack([protos + 0.01, protos - 0.01])
        labels = np.array([0, 1, 2, 3, 0, 1, 2, 3])
        return clf, x, labels

    def test_oracle_scorer_reaches_unit_area(self):
        clf, x, labels = self._separable_setup()
        curve, auc = ev.su_curve_auc(clf, x, labels, unseen_ids=[2, 3])
        assert any(a_s == 1.0 and a_u == 1.0 for a_s, a_u in curve)
        assert auc == pytest.approx(1.0, abs=1e-9)

    def test_extreme_biases_pin_the_endpoints(self):
        clf, x, labels = self._separable_setup()
        curve, _ = ev.su_curve_auc(clf, x, labels, unseen_ids=[2, 3])
        assert curve[0][1] == 0.0   # most negative bias: nothing unseen wins
        assert curve[-1][0] == 0.0  # most positive bias: nothing seen wins

    def test_two_point_curve_bounded_by_rectangle(self):
        # every test point sits on the class-0 pool; class 2 is unseen and
        # one unit away, so one threshold flips all predictions at once
        pools = np.array([[0.0, 0.0], [5.0, 5.0], [1.0, 0.0]])
        clf = pool_classifier(pools, ids=[0, 1, 2])
        x = np.zeros((8, 2))
        labels = np.array([0, 1, 0, 1, 2, 2, 2, 2])
        curve, auc = ev.su_curve_auc(clf, x, labels, unseen_ids=[2])
        a_s = max(p[0] for p in curve)
        a_u = max(p[1] for p in curve)
        assert a_s == pytest.approx(0.5)
        assert a_u == pytest.approx(1.0)
        assert auc <= a_s * a_u + 1e-12

    def test_dominant_scorer_has_no_smaller_area(self):
        clf, x, labels = self._separable_setup()
        g = io.philox(47, 0)
        noisy = ev.GeneratedPoolClassifier(
            np.arange(4), 30.0 * g.standard_normal((4, 3, 2)), "euclidean")
        _, auc_good = ev.su_curve_auc(clf, x, labels, [2, 3])
        _, auc_bad = ev.su_curve_auc(noisy, x, labels, [2, 3])
        assert auc_good >= auc_bad

    def test_curve_shift_invariance(self):
        g = io.philox(13, 1)
        clf = pool_classifier(g.standard_normal((4, 3)))
        x = g.standard_normal((40, 3))
        labels = g.integers(0, 4, size=40)
        c1, a1 = ev.su_curve_auc(clf, x, labels, [2, 3])
        c2, a2 = ev.su_curve_auc(ShiftedScores(clf, 4.5), x, labels, [2, 3])
        assert c1 == c2 and a1 == a2

    def test_needs_both_populations(self):
        clf = pool_classifier(np.eye(2))
        with pytest.raises(ValidationError):
            ev.su_curve_auc(clf, np.eye(2), [0, 0], unseen_ids=[1])


class TestExactSuCurve:
    # columns 0 and 3 are unseen, so an unseen column can sit below or above
    # the seen column it ties with; rows are labeled 1, 2, 1 (seen) and
    # 0, 3, 3 (unseen)
    TABLE = np.array([
        [0.0, 3.0, 1.0, 2.0],   # seen hit; margin 1, tie goes to seen col 1
        [2.0, 0.0, 2.0, 0.0],   # seen hit; margin 0, tie goes to unseen col 0
        [0.0, 1.0, 2.0, 0.0],   # seen miss; moves at 2 without changing a count
        [1.0, 2.0, 0.0, 1.0],   # unseen hit via col 0; margin 1, tie to col 0
        [0.0, 1.0, 1.0, 0.0],   # unseen miss; margin 1, tie to col 0
        [0.0, 0.0, 0.0, 3.0],   # unseen hit via col 3; margin -3, tie to col 1
    ])
    LABELS = [1, 2, 1, 0, 3, 3]

    def test_hand_built_margins_and_ties(self):
        third = 1.0 / 3.0
        curve, auc = ev.su_curve_auc(ScoreTable(self.TABLE), None, self.LABELS, [0, 3])
        assert curve == [(2 * third, 0.0), (2 * third, third), (third, third),
                         (third, 2 * third), (0.0, 2 * third)]
        assert auc == pytest.approx(third, abs=1e-12)

    def test_matches_an_argmax_sweep_through_every_breakpoint(self):
        # integer scores and half-integer biases keep every shifted score
        # exact, so argmax is the ground truth at and between the margins
        for seed in range(20):
            g = io.philox(seed, 17)
            table = g.integers(-4, 5, size=(60, 7)).astype(np.float64)
            labels = np.concatenate([[0, 6], g.integers(0, 7, size=58)])
            curve, _ = ev.su_curve_auc(ScoreTable(table), None, labels, [1, 4, 6])
            biases = np.arange(-10.0, 10.5, 0.5)
            assert curve == argmax_sweep(table, labels, [1, 4, 6], biases)

    def test_exact_curve_is_monotone_between_the_axes(self):
        g = io.philox(3, 29)
        clf = ev.GeneratedPoolClassifier(np.arange(6), g.standard_normal((6, 4, 3)), "cosine")
        x = g.standard_normal((90, 3))
        labels = np.repeat(np.arange(6), 15)
        curve, _ = ev.su_curve_auc(clf, x, labels, [1, 3, 5])
        seen, unseen = np.array(curve).T
        assert unseen[0] == 0.0 and seen[-1] == 0.0
        assert (np.diff(seen) <= 0).all() and (np.diff(unseen) >= 0).all()
        assert len(set(curve)) == len(curve)

    def test_needs_both_column_kinds(self):
        with pytest.raises(ValidationError):
            ev.su_curve_auc(ScoreTable(np.zeros((2, 2))), None, [0, 1], unseen_ids=[0, 1])


class TestBlockedScores:
    def _pool_and_points(self, g, points):
        c, n, d = 20, 30, 16
        rows = ev.SCORE_BLOCK_BYTES // (8 * c * n)
        n_x = 3 * rows + 5          # three full blocks and a remainder
        return points(g, c * n, d).reshape(c, n, d), points(g, n_x, d), rows

    @pytest.mark.parametrize("points", [unit_rows, scaled_unit_rows])
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_exact_products_match_the_unblocked_formula_bit_for_bit(self, metric, points):
        pools, x, rows = self._pool_and_points(io.philox(4, 31), points)
        assert len(x) > 3 * rows and len(x) % rows
        clf = ev.GeneratedPoolClassifier(np.arange(len(pools)), pools, metric)
        assert np.array_equal(clf.scores(x), pool_scores_unblocked(pools, x, metric))

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_random_inputs_agree_with_the_unblocked_formula(self, metric):
        # BLAS picks its kernel by matrix size, so a block's products may
        # round differently in the last bit from the same rows of one product
        pools, x, _ = self._pool_and_points(
            io.philox(5, 31), lambda g, n, d: g.standard_normal((n, d)))
        clf = ev.GeneratedPoolClassifier(np.arange(len(pools)), pools, metric)
        np.testing.assert_allclose(clf.scores(x), pool_scores_unblocked(pools, x, metric),
                                   rtol=0, atol=1e-12)
        # the operand is written from the pool as given: another memory
        # layout of the same pool scores the same bits
        fortran = ev.GeneratedPoolClassifier(np.arange(len(pools)), np.asfortranarray(pools),
                                             metric)
        assert np.array_equal(fortran.scores(x), clf.scores(x))

    def test_peak_memory_stays_within_the_block_budget(self):
        g = io.philox(6, 31)
        pools = g.standard_normal((20, 30, 16))
        x = g.standard_normal((8 * (ev.SCORE_BLOCK_BYTES // (8 * 600)) + 7, 16))
        clf = ev.GeneratedPoolClassifier(np.arange(20), pools, "euclidean")
        tracemalloc.start()
        try:
            out = clf.scores(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one unblocked distance matrix alone would be 8 blocks; scoring
        # holds one block per thread, two at most
        assert peak < out.nbytes + 3 * ev.SCORE_BLOCK_BYTES


class TestClassifierInputs:
    def test_pools_must_be_three_dimensional(self):
        with pytest.raises(ValidationError, match="pools have shape"):
            ev.GeneratedPoolClassifier(np.arange(3), np.zeros((3, 4)))

    @pytest.mark.parametrize("shape", [(0, 2, 4), (3, 0, 4)], ids=["no-class", "no-member"])
    def test_an_empty_pool_set_is_a_validation_error(self, shape):
        with pytest.raises(ValidationError, match="at least one class and one member"):
            ev.GeneratedPoolClassifier(np.arange(shape[0]), np.zeros(shape))

    @pytest.mark.parametrize("n_ids", [2, 4], ids=["shorter", "longer"])
    def test_one_class_id_per_pool(self, n_ids):
        with pytest.raises(ValidationError, match=f"{n_ids} class ids for 3 pools"):
            ev.GeneratedPoolClassifier(np.arange(n_ids), np.zeros((3, 2, 4)))

    def test_an_unknown_metric_is_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="unknown metric 'cosin'"):
            ev.GeneratedPoolClassifier(np.arange(1), np.zeros((1, 1, 1)), "cosin")

    def test_an_unknown_metric_is_rejected_before_the_first_draw(self):
        rng = io.philox(0, 5)
        with pytest.raises(ValidationError, match="unknown metric"):
            ev.build_classifier(identity_generator(), np.eye(2), 3, rng, metric="cosin")
        assert rng.standard_normal() == io.philox(0, 5).standard_normal()

    @pytest.mark.parametrize("ids", [np.zeros((3, 1), dtype=int), np.int64(3)],
                             ids=["column", "scalar"])
    def test_class_ids_must_be_one_dimensional(self, ids):
        with pytest.raises(ValidationError, match="class ids have shape"):
            ev.GeneratedPoolClassifier(ids, np.zeros((3, 2, 4)))

    def test_class_ids_given_as_a_list_serve_every_reader(self):
        protos = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
        clf = ev.GeneratedPoolClassifier([5, 6, 7], protos[:, None, :])
        x = np.vstack([protos + 0.01, protos - 0.01])
        labels = np.array([5, 6, 7, 5, 6, 7])
        assert clf.predict(x).tolist() == labels.tolist()
        curve, auc = ev.su_curve_auc(clf, x, labels, [7])
        assert auc == 1.0 and (1.0, 1.0) in curve

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_test_points_of_another_width_are_a_dimension_error(self, metric):
        clf = ev.GeneratedPoolClassifier(np.arange(3), np.zeros((3, 2, 4)), metric)
        with pytest.raises(DimensionError, match=r"expected \(\*, 4\)"):
            clf.scores(np.zeros((5, 3)))


def late_executor(delay):
    """A ThreadPoolExecutor whose jobs start `delay` seconds late."""
    class Late(ThreadPoolExecutor):
        def submit(self, fn, *args):
            return super().submit(lambda: (time.sleep(delay), fn(*args))[1])
    return Late


class TestScoringThreads:
    def _classifier_and_points(self, metric):
        g = io.philox(11, 31)
        c, n, d = 20, 30, 16
        rows = ev.SCORE_BLOCK_BYTES // (8 * c * n)
        pools = g.standard_normal((c, n, d))
        x = g.standard_normal((5 * rows + 9, d))   # five full blocks and a remainder
        x[3 * rows + 1] = pools[7, 4]              # a test point on a pool member
        return ev.GeneratedPoolClassifier(np.arange(c), pools, metric), x, rows

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_scores_do_not_depend_on_the_worker_count(self, metric, monkeypatch):
        clf, x, rows = self._classifier_and_points(metric)
        default = clf.scores(x)
        # four workers on a fast thread switch as well: more threads than
        # cores, each writing its own rows of the one result
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cap in (1, 2, 4):
                monkeypatch.setattr(ev, "_score_workers",
                                    lambda blocks, cap=cap: min(blocks, cap))
                assert np.array_equal(clf.scores(x), default)
        finally:
            sys.setswitchinterval(interval)
        # a second thread that starts late, by 0.2 s after the first has
        # taken every block, leaves every row scored with the same bits
        for delay in (0.0, 0.2):
            monkeypatch.setattr(ev, "ThreadPoolExecutor", late_executor(delay))
            assert np.array_equal(clf.scores(x), default)
        if metric == "euclidean":
            assert default[3 * rows + 1, 7] == 0.0

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_empty_batch_and_single_row_shapes(self, metric):
        clf, x, _ = self._classifier_and_points(metric)
        assert clf.scores(np.empty((0, 16))).shape == (0, 20)
        row = clf.scores(x[3])
        assert row.shape == (1, 20)
        assert np.array_equal(row[0], clf.scores(x)[3])

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_scores_without_sched_getaffinity(self, metric, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        clf, x, _ = self._classifier_and_points(metric)
        default = clf.scores(x)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(ev.multiprocessing, "parent_process", lambda: None)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert ev._score_workers(6) == min(os.cpu_count() or 1, 2)
        assert np.array_equal(clf.scores(x), default)

    @pytest.mark.parametrize("blas,want", [
        ({}, 1),
        ({"OMP_NUM_THREADS": "2"}, 1),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),  # the first one set counts
        ({"OMP_NUM_THREADS": "1"}, 2),
        ({"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2),
    ])
    def test_a_second_thread_only_beside_single_threaded_blas(self, blas, want, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(ev.multiprocessing, "parent_process", lambda: None)
        for var in ev.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in blas.items():
            monkeypatch.setenv(var, value)
        assert ev._score_workers(6) == want
        assert ev._score_workers(1) == 1

    def test_one_thread_in_a_worker_process(self, monkeypatch):
        # sweep --workers N: the sibling processes hold the other cores
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(ev.multiprocessing, "parent_process", lambda: None)
        assert ev._score_workers(6) == 2
        monkeypatch.setattr(ev.multiprocessing, "parent_process", lambda: object())
        assert ev._score_workers(6) == 1

    @pytest.mark.parametrize("cap", [1, 2])
    def test_no_thread_outlives_a_call(self, cap, monkeypatch):
        monkeypatch.setattr(ev, "_score_workers", lambda blocks: min(blocks, cap))
        clf, x, _ = self._classifier_and_points("euclidean")
        before = threading.active_count()
        clf.scores(x)
        assert threading.active_count() == before


class TestScoresAlone:
    # (C, n_generate, d, points): blocks of 36, 109, 546 and 2 rows, each
    # batch with a short last block; 1,100 x 60 pool members leave room for
    # fewer than two rows in 1 MiB
    @pytest.mark.parametrize("c,n,d,points", [(60, 60, 64, 100), (20, 30, 16, 250),
                                              (12, 16, 8, 700), (1100, 60, 4, 7)])
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_every_row_scores_the_same_bits_alone_and_in_the_batch(self, c, n, d, points,
                                                                   metric):
        g = io.philox(c + n + d, points)
        pools = g.standard_normal((c, n, d))
        x = g.standard_normal((points, d))
        x[1] = pools[c // 2, n - 1]                # a test point on a pool member
        clf = ev.GeneratedPoolClassifier(np.arange(c), pools, metric)
        batch = clf.scores(x)
        for i in range(points):
            assert np.array_equal(clf.scores(x[i]), batch[i:i + 1]), i
            assert np.array_equal(clf.predict(x[i]), clf.predict(x)[i:i + 1])


class TestScoresAgainstBruteForce:
    @pytest.mark.parametrize("c,n", [(20, 30), (600, 1)], ids=["pools", "n_generate-1"])
    def test_euclidean_scores_are_minus_the_nearest_member_distance(self, c, n):
        g = io.philox(7, 31)
        d = 8
        rows = ev.SCORE_BLOCK_BYTES // (8 * c * n)
        pools = g.standard_normal((c, n, d))
        x = g.standard_normal((2 * rows + 5, d))   # two full blocks and a remainder
        x[rows + 3] = pools[c // 2, n - 1]         # a test point on a pool member
        got = ev.GeneratedPoolClassifier(np.arange(c), pools).scores(x)
        want = np.stack([-np.linalg.norm(x[:, None, :] - pool, axis=2).min(axis=1)
                         for pool in pools], axis=1)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert got[rows + 3, c // 2] == 0.0


class TestRetrievalMap:
    def test_true_centers_on_separated_clusters_are_perfect(self):
        gen = identity_generator()
        protos = np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 30.0]])
        g = io.philox(3, 5)
        feats = np.vstack([p + 0.1 * g.standard_normal((10, 2)) for p in protos])
        labels = np.repeat([4, 5, 6], 10)
        result = ev.retrieval_map(centers(gen, protos, 6, io.philox(0, 7)), feats, labels,
                                  [4, 5, 6], fractions=(0.25, 0.5, 1.0))
        assert result[1.0] == pytest.approx(1.0)
        assert result[0.25] == pytest.approx(1.0)

    def test_k_of_one_with_nearest_correct(self):
        gen = identity_generator()
        protos = np.array([[0.0, 0.0], [30.0, 0.0]])
        feats = np.array([[0.05, 0.0], [29.0, 0.0], [31.0, 0.0], [30.0, 1.0]])
        labels = np.array([7, 8, 8, 8])
        result = ev.retrieval_map(centers(gen, protos, 4, io.philox(1, 7)), feats, labels,
                                  [7, 8], fractions=(1e-9,))
        assert result[1e-9] == pytest.approx(1.0)

    def test_random_centers_on_overlapping_clusters_hit_class_prior(self):
        maps = []
        for seed in range(10):
            g = io.philox(seed, 8)
            gen = identity_generator()
            descriptors = 50.0 * g.standard_normal((4, 2))
            feats = g.standard_normal((100, 2))
            labels = np.repeat(np.arange(4), 25)
            result = ev.retrieval_map(centers(gen, descriptors, 4, io.philox(seed, 9)),
                                      feats, labels, np.arange(4), fractions=(1.0,))
            maps.append(result[1.0])
        assert abs(np.mean(maps) - 0.25) < 0.05

    def test_invariance_under_joint_isometry(self):
        gen = identity_generator()
        g = io.philox(21, 3)
        descriptors = g.standard_normal((3, 2))
        feats = g.standard_normal((30, 2))
        labels = np.repeat([0, 1, 2], 10)
        theta = 0.7
        Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        shift = np.array([3.0, -1.0])
        base = ev.retrieval_map(centers(gen, descriptors, 1, io.philox(5, 5)), feats,
                                labels, [0, 1, 2], fractions=(0.5, 1.0))
        moved = ev.retrieval_map(centers(gen, descriptors @ Q.T + shift, 1, io.philox(5, 5)),
                                 feats @ Q.T + shift, labels, [0, 1, 2], fractions=(0.5, 1.0))
        for frac in (0.5, 1.0):
            assert base[frac] == pytest.approx(moved[frac], abs=1e-12)

    def test_average_precision_variant(self):
        gen = identity_generator()
        protos = np.array([[0.0, 0.0], [30.0, 0.0]])
        feats = np.vstack([protos[0] + 0.01, protos[1] + 0.01,
                           protos[0] - 0.01, protos[1] - 0.01])
        labels = np.array([0, 1, 0, 1])
        res = ev.retrieval_map(centers(gen, protos, 2, io.philox(2, 2)), feats, labels,
                               [0, 1], fractions=(1.0,), method="average_precision")
        assert res[1.0] == pytest.approx(1.0)

    def test_one_center_per_class_id(self):
        with pytest.raises(ValidationError, match="2 centers for 3 unseen class ids"):
            ev.retrieval_map(np.zeros((2, 2)), np.ones((3, 2)), [0, 1, 2], [0, 1, 2])

    def test_no_unseen_classes_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="no unseen classes"):
            ev.retrieval_map(np.zeros((0, 2)), np.ones((3, 2)), [0, 1, 2], [])

    def test_missing_class_images_rejected(self):
        with pytest.raises(ValidationError):
            ev.retrieval_map(np.zeros((1, 2)), np.ones((3, 2)), [1, 1, 1], [0],
                             fractions=(1.0,))


class TestEvaluateModel:
    def test_full_battery_is_deterministic_and_in_range(self):
        d = io.make_synthetic(io.SyntheticSpec(k_seen=4, k_unseen=2, visual_dim=8,
                                               semantic_dim=6, samples_per_class=16,
                                               seed=3))
        arch = mo.ArchSpec(semantic_dim=6, visual_dim=8, noise_dim=3, hidden_dim=10)
        gen, _ = mo.init_params(arch, 4, False, io.philox(8, 0))
        r1 = ev.evaluate_model(gen, d, 12, io.philox(9, 0))
        r2 = ev.evaluate_model(gen, d, 12, io.philox(9, 0))
        assert r1 == r2
        assert 0.0 <= r1.top1_unseen <= 1.0
        assert 0.0 <= r1.su_auc <= 1.0
        assert 0.0 <= r1.harmonic_mean <= 1.0
        assert set(r1.retrieval_map) == {0.25, 0.5, 1.0}
        assert all(p[0] <= 1.0 and p[1] <= 1.0 for p in r1.su_curve)

    def _model_and_data(self):
        """4 seen and 3 unseen classes whose test points the generator itself
        drew, 10 per class: small pools read their top-1 off their own draws."""
        arch = mo.ArchSpec(semantic_dim=6, visual_dim=8, noise_dim=3, hidden_dim=10)
        gen, _ = mo.init_params(arch, 4, False, io.philox(8, 1))
        g = io.philox(6, 1)
        sem = g.standard_normal((7, 6))
        labels = np.repeat(np.arange(7), 10)
        x = mo.generate(gen, sem[labels], g.standard_normal((70, 3)))
        d = io.ZslDataset(x[:40], labels[:40], sem[:4], sem[4:], x[40:], labels[40:],
                          x[:40], labels[:40])
        return gen, d

    @staticmethod
    def _pool(gen, d, n_generate, rng):
        """The pool evaluate_model draws from `rng`: every class, seen first."""
        return ev.build_classifier(gen, np.vstack([d.seen_semantics, d.unseen_semantics]),
                                   n_generate, rng)

    @pytest.mark.parametrize("seed", range(8))
    def test_top1_is_top1_over_the_pools_unseen_classes(self, seed):
        gen, d = self._model_and_data()
        report = ev.evaluate_model(gen, d, 4, io.philox(seed, 3))
        pool = self._pool(gen, d, 4, io.philox(seed, 3))
        zsl = ev.GeneratedPoolClassifier(pool.class_ids[d.k_seen:], pool.pools[d.k_seen:])
        assert report.top1_unseen == ev.top1(zsl, d.unseen_test_features,
                                              d.unseen_test_labels)
        assert report.top1_unseen == report.su_curve[-1][1]

    def test_a_tie_between_unseen_columns_goes_to_the_lower_one(self):
        # G(t, z) = t: unseen classes 2 and 3 share a descriptor, so their
        # pools are equal and every score ties between their columns
        gen = identity_generator()
        sem = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [0.0, 10.0], [10.0, 10.0]])
        unseen_x = np.array([[0.0, 10.1], [0.1, 10.0], [0.0, 9.9], [9.9, 10.0]])
        d = io.ZslDataset(np.zeros((2, 2)), np.array([0, 1]), sem[:2], sem[2:],
                          unseen_x, np.array([2, 3, 3, 4]),
                          sem[:2] + 0.1, np.array([0, 1]))
        report = ev.evaluate_model(gen, d, 3, io.philox(0, 4))
        zsl = ev.GeneratedPoolClassifier(np.array([2, 3, 4]), self._pool(
            gen, d, 3, io.philox(0, 4)).pools[2:])
        assert report.top1_unseen == ev.top1(zsl, unseen_x, d.unseen_test_labels) == 0.5

    def test_one_pool_and_one_scoring_per_evaluation(self, monkeypatch):
        gen, d = self._model_and_data()
        calls = {"generate": 0, "scores": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(mo, "generate", counted("generate", mo.generate))
        monkeypatch.setattr(ev.GeneratedPoolClassifier, "scores",
                            counted("scores", ev.GeneratedPoolClassifier.scores))
        report = ev.evaluate_model(gen, d, 12, io.philox(2, 3))
        assert report.retrieval_map
        assert calls == {"generate": 1, "scores": 1}

    def test_a_mistyped_metric_fails_before_any_generation(self, monkeypatch):
        gen, d = self._model_and_data()
        def generate(*args):
            raise AssertionError("generated a pool for an unknown metric")
        monkeypatch.setattr(mo, "generate", generate)
        with pytest.raises(ValidationError, match="unknown metric 'cosin'"):
            ev.evaluate_model(gen, d, 12, io.philox(2, 3), metric="cosin")

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_peak_memory_is_the_pool_its_operand_and_one_block_of_each(self, metric):
        # 40 classes x 60 x 256-d: a 4.9 MB pool, 4,800 generated rows
        arch = mo.ArchSpec(semantic_dim=16, visual_dim=256, noise_dim=8, hidden_dim=64)
        gen, _ = mo.init_params(arch, 30, False, io.philox(8, 2))
        g = io.philox(6, 2)
        sem = g.standard_normal((40, 16))
        labels = np.repeat(np.arange(40), 5)
        x = g.standard_normal((200, 256))
        d = io.ZslDataset(x[:150], labels[:150], sem[:30], sem[30:], x[150:], labels[150:],
                          x[:150], labels[:150])
        n_generate = 60
        block = ev.GENERATE_BLOCK_ROWS
        tracemalloc.start()
        try:
            mo.generate(gen, np.zeros((block, 16)), np.zeros((block, 8)))
            _, generator_block = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            ev.evaluate_model(gen, d, n_generate, io.philox(2, 2), metric=metric)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        pool = 40 * n_generate * 256 * 8
        operand = 40 * n_generate * 257 * 8
        test_and_scores = len(x) * (256 + 40) * 8
        # a generator graph over the whole pool, or a member-major copy of
        # the pool and its square beside the operand, would not fit: the
        # bound is about 2.9 pool sizes, and those make about 4
        assert peak - base < (pool + operand + 2 * ev.SCORE_BLOCK_BYTES + generator_block
                              + test_and_scores)

    @pytest.mark.parametrize("method", ["precision", "average_precision"])
    def test_retrieval_queries_the_means_of_the_pools_unseen_classes(self, method):
        gen, d = self._model_and_data()
        report = ev.evaluate_model(gen, d, 12, io.philox(4, 3), retrieval_method=method)
        pool = self._pool(gen, d, 12, io.philox(4, 3))
        assert report.retrieval_map == ev.retrieval_map(
            pool.pools[d.k_seen:].mean(axis=1), d.unseen_test_features,
            d.unseen_test_labels, d.k_seen + np.arange(d.k_unseen), ev.DEFAULT_FRACTIONS,
            method)
