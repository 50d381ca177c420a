import numpy as np
import pytest

import genzsl.hallucination as hl
from genzsl.errors import ValidationError
from helpers import sample_alpha


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


class TestPolicyValidation:
    def test_presets_exist(self):
        assert set(hl.PRESETS) >= {"interpolate", "neg_extrapolate", "pos_extrapolate",
                                   "neg_pos", "all"}

    def test_interval_must_be_nonempty(self):
        with pytest.raises(ValidationError):
            hl.HallucinationPolicy(((0.8, 0.2),))

    def test_interval_cannot_straddle_zero_or_one(self):
        with pytest.raises(ValidationError):
            hl.HallucinationPolicy(((-0.1, 0.1),))
        with pytest.raises(ValidationError):
            hl.HallucinationPolicy(((0.9, 1.1),))

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(ValidationError):
            hl.HallucinationPolicy(((0.2, 0.6), (0.5, 0.8)))

    def test_from_config(self):
        assert hl.policy_from_config("interpolate") == hl.PRESETS["interpolate"]
        p = hl.policy_from_config([[0.2, 0.8], [1.2, 1.5]])
        assert p.intervals == ((0.2, 0.8), (1.2, 1.5))
        with pytest.raises(ValidationError):
            hl.policy_from_config("no_such_preset")


class TestSampleAlpha:
    def test_single_interval_support_and_mean(self):
        alphas = hl.sample_alphas(hl.PRESETS["interpolate"], 100_000, rng(1))
        assert np.all((alphas > 0.2) & (alphas < 0.8))
        assert abs(alphas.mean() - 0.5) < 0.01

    def test_neg_pos_excludes_the_middle(self):
        alphas = hl.sample_alphas(hl.PRESETS["neg_pos"], 50_000, rng(2))
        assert not np.any((alphas >= -0.2) & (alphas <= 1.2))
        assert np.all((alphas > -0.5) | (alphas < 1.5))

    def test_length_weighted_union(self):
        # (0.2, 0.8) is twice as long as (1.2, 1.5), so it should receive
        # two thirds of the draws
        policy = hl.HallucinationPolicy(((0.2, 0.8), (1.2, 1.5)))
        alphas = hl.sample_alphas(policy, 90_000, rng(3))
        frac = np.mean(alphas < 1.0)
        assert abs(frac - 2.0 / 3.0) < 0.01

    def test_same_seed_gives_identical_sequence(self):
        a = hl.sample_alphas(hl.PRESETS["all"], 1000, rng(7))
        b = hl.sample_alphas(hl.PRESETS["all"], 1000, rng(7))
        np.testing.assert_array_equal(a, b)

    def test_scalar_form(self):
        a = sample_alpha(hl.PRESETS["interpolate"], rng(5))
        assert 0.2 < a < 0.8


class TestSampleHallucinatedText:
    def test_midpoint(self):
        T = np.array([[1.0, 0.0], [0.0, 1.0]])
        policy = hl.HallucinationPolicy(((0.5 - 1e-9, 0.5 + 1e-9),))
        batch = hl.sample_hallucinated_text(T, policy, 4, rng(0))
        np.testing.assert_allclose(batch, np.full((4, 2), 0.5))

    def test_positive_extrapolation_affine_formula(self):
        T = np.array([[1.0, 0.0], [0.0, 1.0]])
        policy = hl.HallucinationPolicy(((1.5 - 1e-9, 1.5 + 1e-9),))
        batch = hl.sample_hallucinated_text(T, policy, 8, rng(1))
        # alpha = 1.5 within 1e-9, rows are (1.5, -0.5) in either class order
        for row in batch:
            hi, lo = row.max(), row.min()
            assert hi == pytest.approx(1.5, abs=1e-6)
            assert lo == pytest.approx(-0.5, abs=1e-6)

    def test_batch_uses_independent_alphas(self):
        alphas = hl.sample_alphas(hl.PRESETS["interpolate"], 64, rng(11))
        assert len(np.unique(alphas)) == 64
        T = np.array([[1.0, 0.0], [0.0, 1.0]])
        batch = hl.sample_hallucinated_text(T, hl.PRESETS["interpolate"], 64, rng(11))
        assert len(np.unique(batch[:, 0])) == 64

    def test_interpolation_stays_in_the_open_hull(self):
        # with two orthogonal unit descriptors the mixing weight can be read
        # off each row directly
        T = np.array([[1.0, 0.0], [0.0, 1.0]])
        batch = hl.sample_hallucinated_text(T, hl.PRESETS["interpolate"], 5000, rng(13))
        np.testing.assert_allclose(batch.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((batch > 0.2) & (batch < 0.8))

    def test_distinct_classes_always(self):
        # if the two picked classes could coincide, a row would be a pure
        # descriptor; with the interpolate preset that is impossible
        T = np.array([[1.0, 0.0], [0.0, 1.0]])
        batch = hl.sample_hallucinated_text(T, hl.PRESETS["interpolate"], 5000, rng(17))
        assert not np.any(np.all(batch == np.array([1.0, 0.0]), axis=1))
        assert not np.any(np.all(batch == np.array([0.0, 1.0]), axis=1))

    def test_reproducible_batches(self):
        T = np.random.default_rng(0).standard_normal((6, 9))
        a = hl.sample_hallucinated_text(T, hl.PRESETS["all"], 32, rng(23))
        b = hl.sample_hallucinated_text(T, hl.PRESETS["all"], 32, rng(23))
        assert a.tobytes() == b.tobytes()

    def test_validation(self):
        with pytest.raises(ValidationError):
            hl.sample_hallucinated_text(np.ones((1, 4)), hl.PRESETS["interpolate"], 2, rng(0))
        with pytest.raises(ValidationError):
            hl.sample_hallucinated_text(np.ones((3, 4)), hl.PRESETS["interpolate"], 0, rng(0))
