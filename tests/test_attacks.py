import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regrobust import attacks
from regrobust.attacks import (
    DEFAULT_FGSM,
    DEFAULT_PGD,
    AttackConfig,
    apply_attack,
    fgsm,
    pgd,
)
from regrobust.errors import ConfigError
from regrobust.nn import ACTIVATIONS, RegressionNet, forward, input_gradient

from conftest import random_net


def scaled_identity_net(w=2.0):
    """f(x) = w * x on x > -10 (single relu kept active by a bias shift)."""
    return RegressionNet(
        w1=np.array([[1.0]]), b1=np.array([10.0]), w2=np.array([w]), b2=-10.0 * w
    )


class TestAttackConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            AttackConfig(kind="cw")

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            AttackConfig(kind="fgsm", epsilon=0.0)

    def test_bad_steps_rejected(self):
        with pytest.raises(ConfigError):
            AttackConfig(kind="pgd", steps=0)

    def test_oversized_step_warns(self):
        with pytest.warns(UserWarning):
            AttackConfig(kind="pgd", epsilon=1.0, rho=0.1)

    def test_defaults(self):
        assert DEFAULT_FGSM.epsilon == 0.1
        assert DEFAULT_PGD.epsilon == 0.025
        assert DEFAULT_PGD.rho == 0.1
        assert DEFAULT_PGD.steps == 10


class TestFgsm:
    def test_constant_net_unmoved(self):
        net = RegressionNet(w1=np.zeros((2, 2)), b1=np.zeros(2), w2=np.zeros(2), b2=1.0)
        x = np.array([0.4, -0.2])
        assert np.array_equal(fgsm(net, x, 5.0, 0.1), x)

    def test_moves_against_fit_direction_1d(self):
        # f(x) = 2x; y below f(x) means increasing x increases the error.
        net = scaled_identity_net(2.0)
        x = np.array([1.0])
        up = fgsm(net, x, y=0.0, epsilon=0.25)
        assert up[0] == pytest.approx(1.25, abs=1e-12)
        down = fgsm(net, x, y=10.0, epsilon=0.25)
        assert down[0] == pytest.approx(0.75, abs=1e-12)

    def test_zero_gradient_at_exact_fit(self):
        net = scaled_identity_net(2.0)
        x = np.array([1.5])
        adv = fgsm(net, x, y=forward(net, x), epsilon=0.1)
        assert np.array_equal(adv, x)

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_coordinates_move_by_exactly_epsilon_or_zero(self, seed):
        rng = np.random.default_rng(seed)
        net = random_net(rng, input_dim=4)
        X = rng.normal(size=(8, 4))
        Y = rng.normal(size=8)
        eps = 0.07
        adv = fgsm(net, X, Y, eps)
        steps = adv - X
        ok = np.isclose(np.abs(steps), eps, atol=1e-12) | (steps == 0.0)
        assert np.all(ok)
        assert np.abs(steps).max() <= eps + 1e-12
        signs = np.sign(input_gradient(net, X, Y))
        moved = signs != 0
        assert np.allclose(adv[moved], (X + eps * signs)[moved], atol=1e-12)

    def test_batch_matches_pointwise(self, rng):
        net = random_net(rng, input_dim=3)
        X = rng.normal(size=(5, 3))
        Y = rng.normal(size=5)
        batch = fgsm(net, X, Y, 0.1)
        for i in range(5):
            assert np.array_equal(batch[i], fgsm(net, X[i], Y[i], 0.1))

    @pytest.mark.parametrize("head", ACTIVATIONS)
    def test_equals_closed_form_bit_for_bit(self, head):
        # fgsm runs the shared clipped loop; its one clipped step must be the
        # unclipped X + eps * sign(gradient) exactly, zeros and signed zeros included.
        rng = np.random.default_rng(4242)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            net = random_net(rng, input_dim=d, output_activation=head)
            X = rng.normal(size=(int(rng.integers(1, 9)), d))
            X[rng.random(X.shape) < 0.1] = rng.choice([0.0, -0.0])
            Y = rng.normal(size=len(X))
            eps = float(rng.choice([1e-3, 0.1, 0.7, 3.0]))
            expected = X + eps * np.sign(input_gradient(net, X, Y))
            assert fgsm(net, X, Y, eps).tobytes() == expected.tobytes()


class TestPgd:
    def test_single_step_full_epsilon_equals_fgsm(self, rng):
        net = random_net(rng, input_dim=4)
        X = rng.normal(size=(6, 4))
        Y = rng.normal(size=6)
        cfg = AttackConfig(kind="pgd", epsilon=0.1, rho=0.1, steps=1)
        assert np.array_equal(pgd(net, X, Y, cfg), fgsm(net, X, Y, 0.1))

    def test_linear_net_saturates_ball(self):
        # Constant ascent direction: 10 steps of 0.025 pin x at the rho=0.1 face.
        net = scaled_identity_net(3.0)
        x = np.array([0.3])
        adv = pgd(net, x, y=0.0, cfg=DEFAULT_PGD)
        assert abs(adv[0] - x[0]) == pytest.approx(0.1, abs=1e-12)
        assert adv[0] >= x[0]

    def test_ball_containment_randomized(self):
        rng = np.random.default_rng(31337)
        for _ in range(30):
            net = random_net(rng, input_dim=3)
            X = rng.normal(size=(20, 3))
            Y = rng.normal(size=20)
            adv = pgd(net, X, Y, DEFAULT_PGD)
            assert np.abs(adv - X).max() <= DEFAULT_PGD.rho + 1e-12

    def test_constant_net_fixed_point(self):
        net = RegressionNet(w1=np.zeros((2, 2)), b1=np.zeros(2), w2=np.zeros(2), b2=0.5)
        X = np.array([[0.1, 0.2], [0.3, -0.4]])
        assert np.array_equal(pgd(net, X, np.array([1.0, 2.0]), DEFAULT_PGD), X)

    def test_more_steps_never_hurt_on_linear_net(self):
        net = scaled_identity_net(1.5)
        x = np.array([0.2])
        y = np.array([0.0])
        errs = []
        for q in (1, 3, 10):
            cfg = AttackConfig(kind="pgd", epsilon=0.025, rho=0.1, steps=q)
            adv = pgd(net, x, y, cfg)
            errs.append((forward(net, adv) - y[0]) ** 2)
        assert errs[0] <= errs[1] <= errs[2]

    def test_deterministic(self, rng):
        net = random_net(rng, input_dim=3)
        X = rng.normal(size=(4, 3))
        Y = rng.normal(size=4)
        assert np.array_equal(pgd(net, X, Y, DEFAULT_PGD), pgd(net, X, Y, DEFAULT_PGD))

    def test_wrong_config_kind_rejected(self, rng):
        net = random_net(rng)
        with pytest.raises(ConfigError):
            pgd(net, np.zeros(3), 0.0, DEFAULT_FGSM)


class TestApplyAttack:
    def test_none_returns_copy(self, rng):
        net = random_net(rng, input_dim=3)
        X = rng.normal(size=(4, 3))
        out = apply_attack(net, X, rng.normal(size=4), AttackConfig(kind="none"))
        assert np.array_equal(out, X)
        assert out is not X

    def test_dispatches_fgsm_and_pgd(self, rng):
        net = random_net(rng, input_dim=3)
        X = rng.normal(size=(4, 3))
        Y = rng.normal(size=4)
        assert np.array_equal(
            apply_attack(net, X, Y, DEFAULT_FGSM), fgsm(net, X, Y, DEFAULT_FGSM.epsilon)
        )
        assert np.array_equal(apply_attack(net, X, Y, DEFAULT_PGD), pgd(net, X, Y, DEFAULT_PGD))

    @pytest.mark.parametrize("cfg,calls", [(AttackConfig(kind="none"), 0), (DEFAULT_FGSM, 1),
                                           (DEFAULT_PGD, DEFAULT_PGD.steps)])
    def test_input_gradient_calls_per_attack(self, rng, monkeypatch, cfg, calls):
        seen = []
        monkeypatch.setattr(attacks, "input_gradient",
                            lambda *a: seen.append(1) or input_gradient(*a))
        net = random_net(rng, input_dim=3)
        apply_attack(net, rng.normal(size=(4, 3)), rng.normal(size=4), cfg)
        assert len(seen) == calls

    def test_attack_monotonicity_on_average(self):
        # On a fixed random net and test set, the 10-step attack should do at
        # least as much damage as the single big step, up to small slack.
        rng = np.random.default_rng(2718)
        net = random_net(rng, input_dim=5)
        X = rng.normal(size=(200, 5))
        Y = rng.normal(size=200)
        mse_f = np.mean((Y - forward(net, fgsm(net, X, Y, 0.1))) ** 2)
        mse_p = np.mean((Y - forward(net, pgd(net, X, Y, DEFAULT_PGD))) ** 2)
        assert mse_p >= mse_f - 1e-6
