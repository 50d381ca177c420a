import numpy as np
import pytest

import genzsl.divergences as dv
from genzsl.errors import ValidationError
from helpers import entropy_loss_grad, rel_err


def random_prob(rng, k):
    v = rng.gamma(1.0, 1.0, size=k)
    return v / v.sum()


ALL_SPECS = [
    dv.DivergenceSpec("sharma_mittal", 2.0, 2.0, False, False),
    dv.DivergenceSpec("sharma_mittal", 0.5, 3.0, False, False),
    dv.DivergenceSpec("renyi", 2.0, learn_gamma=False, learn_beta=False),
    dv.DivergenceSpec("tsallis", 3.0, learn_gamma=False, learn_beta=False),
    dv.DivergenceSpec("kl", learn_gamma=False, learn_beta=False),
    dv.DivergenceSpec("bhattacharyya", learn_gamma=False, learn_beta=False),
]


class TestSmDivergence:
    def test_identical_distributions_give_zero(self):
        assert dv.sm_divergence([0.5, 0.5], [0.5, 0.5], 2.0, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_tsallis_at_equal_parameters(self):
        # direct-summation oracle: sum p^2/q - 1 at gamma = beta = 2
        p, q = np.array([0.9, 0.1]), np.array([0.5, 0.5])
        oracle = float((p**2 / q).sum() - 1.0)
        assert oracle == pytest.approx(0.64, abs=1e-12)
        assert dv.sm_divergence(p, q, 2.0, 2.0) == pytest.approx(oracle, abs=1e-9)

    def test_joint_limit_agrees_with_kl(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p, q = random_prob(rng, 4), random_prob(rng, 4)
            kl = dv.special_case(p, q, dv.DivergenceSpec("kl", learn_gamma=False, learn_beta=False))
            near = dv.sm_divergence(p, q, 1.0 + 1e-6, 1.0 + 1e-6)
            assert abs(near - kl) < 1e-6

    def test_validation(self):
        with pytest.raises(ValidationError):
            dv.sm_divergence([0.5, 0.5], [0.5, 0.4], 2.0, 2.0)
        with pytest.raises(ValidationError):
            dv.sm_divergence([0.7, 0.3], [0.5, 0.5, 0.0], 2.0, 2.0)
        with pytest.raises(ValidationError):
            dv.sm_divergence([1.2, -0.2], [0.5, 0.5], 2.0, 2.0)
        with pytest.raises(ValidationError):
            dv.sm_divergence([0.5, 0.5], [0.5, 0.5], -1.0, 2.0)


class TestSpecialCases:
    def test_kl_oracle(self):
        p, q = np.array([0.9, 0.1]), np.array([0.5, 0.5])
        oracle = float((p * np.log(p / q)).sum())
        spec = dv.DivergenceSpec("kl", learn_gamma=False, learn_beta=False)
        assert dv.special_case(p, q, spec) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(0.368064, abs=5e-7)

    def test_bhattacharyya_oracle(self):
        p, q = np.array([0.5, 0.5]), np.array([0.9, 0.1])
        oracle = float(-np.log(np.sqrt(p * q).sum()))
        spec = dv.DivergenceSpec("bhattacharyya", learn_gamma=False, learn_beta=False)
        assert dv.special_case(p, q, spec) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(0.111572, abs=5e-7)

    def test_tsallis_identity(self):
        p = np.array([0.3, 0.3, 0.4])
        for gamma in (0.5, 2.0, 4.0):
            spec = dv.DivergenceSpec("tsallis", gamma, learn_gamma=False, learn_beta=False)
            assert dv.special_case(p, p, spec) == pytest.approx(0.0, abs=1e-12)


class TestLimitConsistency:
    """The two-parameter form must approach each named limit."""

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 2.0, 4.0])
    def test_renyi_limit(self, gamma):
        rng = np.random.default_rng(int(gamma * 10))
        for _ in range(25):
            p, q = random_prob(rng, 5), random_prob(rng, 5)
            spec = dv.DivergenceSpec("renyi", gamma, learn_gamma=False, learn_beta=False)
            renyi = dv.special_case(p, q, spec)
            for delta in (1e-6, -1e-6):
                assert abs(dv.sm_divergence(p, q, gamma, 1.0 + delta) - renyi) <= 1e-5

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 2.0, 4.0])
    def test_tsallis_limit(self, gamma):
        rng = np.random.default_rng(int(gamma * 100))
        for _ in range(25):
            p, q = random_prob(rng, 5), random_prob(rng, 5)
            spec = dv.DivergenceSpec("tsallis", gamma, learn_gamma=False, learn_beta=False)
            tsallis = dv.special_case(p, q, spec)
            assert dv.sm_divergence(p, q, gamma, gamma) == pytest.approx(tsallis, abs=1e-9)
            for delta in (1e-6, -1e-6):
                assert abs(dv.sm_divergence(p, q, gamma, gamma + delta) - tsallis) <= 1e-5

    def test_bhattacharyya_is_half_the_limit(self):
        # the limit at (0.5, 1) equals twice the Bhattacharyya distance
        rng = np.random.default_rng(77)
        spec = dv.DivergenceSpec("bhattacharyya", learn_gamma=False, learn_beta=False)
        for _ in range(25):
            p, q = random_prob(rng, 6), random_prob(rng, 6)
            b = dv.special_case(p, q, spec)
            for dg, db in ((1e-6, 1e-6), (-1e-6, -1e-6)):
                lim = dv.sm_divergence(p, q, 0.5 + dg, 1.0 + db)
                assert abs(lim - 2.0 * b) <= 1e-5

    def test_direct_formula_approaches_the_routed_value(self):
        # just outside the routing window the raw expression should already
        # be close to the limit formula it routes to
        rng = np.random.default_rng(5)
        p, q = random_prob(rng, 4), random_prob(rng, 4)
        spec = dv.DivergenceSpec("renyi", 2.0, learn_gamma=False, learn_beta=False)
        renyi = dv.special_case(p, q, spec)
        assert abs(dv.sm_divergence(p, q, 2.0, 1.0 + 1e-4) - renyi) < 1e-3


class TestNonNegativityAndIdentity:
    def test_thousand_random_pairs(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            k = int(rng.integers(2, 8))
            p, q = random_prob(rng, k), random_prob(rng, k)
            gamma = float(rng.uniform(0.1, 4.0))
            if abs(gamma - 1.0) < 1e-3:
                gamma = 1.5
            beta = float(rng.uniform(-2.0, 4.0))
            assert dv.sm_divergence(p, q, gamma, beta) >= -1e-10
            for spec in ALL_SPECS:
                assert dv.special_case(p, q, spec) >= -1e-10

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(321)
        for _ in range(50):
            p = random_prob(rng, 5)
            assert dv.sm_divergence(p, p, 2.0, 3.0) <= 1e-10
            for spec in ALL_SPECS:
                assert dv.special_case(p, p, spec) <= 1e-10


class TestEntropyLoss:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_uniform_softmax_is_zero(self, spec):
        u = np.full(6, 1.0 / 6.0)
        assert dv.entropy_loss(u, spec) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_kl_is_log_k(self):
        soft = np.zeros(5)
        soft[2] = 1.0
        spec = dv.DivergenceSpec("kl", learn_gamma=False, learn_beta=False)
        assert dv.entropy_loss(soft, spec) == pytest.approx(np.log(5.0), abs=1e-9)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_concentration_increases_loss(self, spec):
        rng = np.random.default_rng(9)
        u = np.full(5, 0.2)
        for _ in range(20):
            sharp = 0.02 * random_prob(rng, 5) + 0.98 * np.eye(5)[rng.integers(0, 5)]
            flat = 0.98 * u + 0.02 * random_prob(rng, 5)
            assert dv.entropy_loss(sharp, spec) > dv.entropy_loss(flat, spec)


def _fd_vector(f, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        up, dn = x.copy(), x.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2 * h)
    return g


class TestEntropyLossGrad:
    def test_uniform_softmax_has_zero_gradient(self):
        # at the minimizer the raw-input gradient vanishes entirely: the
        # renormalization chain removes the common normal component as well
        spec = dv.DivergenceSpec("sharma_mittal", 2.0, 2.0, False, False)
        g, _, _ = entropy_loss_grad(np.full(4, 0.25), spec)
        np.testing.assert_allclose(g, np.zeros(4), atol=1e-10)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_softmax_gradient_matches_finite_differences(self, spec):
        rng = np.random.default_rng(abs(hash(spec.family)) % 1000)
        gamma, beta = spec.plane_point(spec.gamma, spec.beta)
        for _ in range(10):
            # mixed toward uniform: near-zero entries make the central
            # difference itself inaccurate (third derivative ~ 1/p^2)
            p = 0.85 * random_prob(rng, 5) + 0.15 / 5

            def f(v):
                vals, *_ = dv.divergence_to_uniform_batch(v[None, :], gamma, beta, spec.family)
                return float(vals[0])

            g, _, _ = entropy_loss_grad(p, spec)
            fd = _fd_vector(f, p)
            assert rel_err(g, fd).max() < 1e-4

    def test_parameter_gradients_match_finite_differences(self):
        spec = dv.DivergenceSpec("sharma_mittal", 2.0, 2.0, True, True)
        rng = np.random.default_rng(42)
        for _ in range(10):
            p = random_prob(rng, 6)
            _, dg, db = entropy_loss_grad(p, spec)

            def f_gamma(gamma):
                vals, *_ = dv.divergence_to_uniform_batch(p[None, :], gamma, 2.0,
                                                          "sharma_mittal")
                return float(vals[0])

            def f_beta(beta):
                vals, *_ = dv.divergence_to_uniform_batch(p[None, :], 2.0, beta,
                                                          "sharma_mittal")
                return float(vals[0])

            h = 1e-5
            fd_g = (f_gamma(2.0 + h) - f_gamma(2.0 - h)) / (2 * h)
            fd_b = (f_beta(2.0 + h) - f_beta(2.0 - h)) / (2 * h)
            assert rel_err(dg, fd_g).max() < 1e-4
            assert rel_err(db, fd_b).max() < 1e-4

    def test_renyi_parameter_gradient(self):
        spec = dv.DivergenceSpec("renyi", 2.5, learn_gamma=True, learn_beta=False)
        p = np.array([0.5, 0.2, 0.2, 0.1])
        _, dg, db = entropy_loss_grad(p, spec)
        assert db == 0.0

        def f(gamma):
            vals, *_ = dv.divergence_to_uniform_batch(p[None, :], gamma, 1.0, "renyi")
            return float(vals[0])

        h = 1e-5
        fd = (f(2.5 + h) - f(2.5 - h)) / (2 * h)
        assert rel_err(dg, fd).max() < 1e-4

    def test_singular_interior_point_routes_to_limit_gradient(self):
        # within the routing window the value is the limit family's, so its
        # gradient must be the limit family's as well
        p = np.array([0.5, 0.2, 0.3])
        vals, dP, dg, db = dv.divergence_to_uniform_batch(p[None, :], 2.0, 1.0 + 1e-7,
                                                          "sharma_mittal")
        r_vals, r_dP, r_dg, _ = dv.divergence_to_uniform_batch(p[None, :], 2.0, 1.0, "renyi")
        np.testing.assert_allclose(vals, r_vals, atol=1e-12)
        np.testing.assert_allclose(dP, r_dP, atol=1e-12)
        np.testing.assert_allclose(dg, r_dg, atol=1e-12)
        assert db[0] == 0.0


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ValidationError):
            dv.DivergenceSpec("hellinger")

    def test_fixed_families_reject_learnables(self):
        with pytest.raises(ValidationError):
            dv.DivergenceSpec("kl", learn_gamma=True, learn_beta=False)
        with pytest.raises(ValidationError):
            dv.DivergenceSpec("renyi", 2.0, learn_gamma=True, learn_beta=True)

    @pytest.mark.parametrize("family", ["sharma_mittal", "kl"])
    @pytest.mark.parametrize("knob", ["gamma", "beta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, family, knob, value):
        with pytest.raises(ValidationError, match=knob):
            dv.DivergenceSpec(family, **{knob: value})

    def test_unconstrained_init_round_trips(self):
        spec = dv.DivergenceSpec("sharma_mittal", 2.0, 3.5, True, True)
        init = spec.unconstrained_init()
        assert 1.0 + np.logaddexp(0, init["u_gamma"]) == pytest.approx(2.0, rel=1e-12)
        assert 1.0 + np.logaddexp(0, init["u_beta"]) == pytest.approx(3.5, rel=1e-12)
