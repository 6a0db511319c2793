import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regrobust.errors import ConfigError, DimensionError, NonFiniteError
from regrobust.nn import (
    RegressionNet,
    _clean_terms,
    _param_grad,
    batch_backward,
    forward,
    grad_penalty_batch,
    initialize,
    input_gradient,
    params_to_vector,
    vector_to_net,
)

from conftest import fd_gradient, max_rel_err, random_net, safe_case


def small_net(act="identity"):
    return RegressionNet(
        w1=np.array([[0.2, -0.3], [0.5, 0.1]]),
        b1=np.array([0.1, -0.2]),
        w2=np.array([0.4, -0.6]),
        b2=0.05,
        output_activation=act,
    )


class TestForward:
    def test_zero_weights_returns_output_bias(self):
        net = RegressionNet(w1=np.zeros((2, 3)), b1=np.zeros(2), w2=np.zeros(2), b2=0.7)
        assert forward(net, np.array([1.0, -2.0, 3.0])) == 0.7

    def test_hand_computed_case(self):
        # z = (-0.3, 0.5), relu kills the first unit, u = -0.6*0.5 + 0.05
        assert forward(small_net(), np.array([1.0, 2.0])) == pytest.approx(-0.25, abs=1e-12)

    def test_hand_computed_sigmoid(self):
        expected = 1.0 / (1.0 + np.exp(0.25))
        got = forward(small_net("sigmoid"), np.array([1.0, 2.0]))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_batch_matches_pointwise(self, rng):
        net = random_net(rng, input_dim=4)
        X = rng.normal(size=(10, 4))
        batch = forward(net, X)
        assert batch.shape == (10,)
        for i in range(10):
            # batched and single-row matmuls may round a few ulps apart
            single = forward(net, X[i])
            assert abs(batch[i] - single) <= 4 * np.spacing(abs(single) + 1.0)

    def test_output_layer_linearity(self, rng):
        net = random_net(rng)
        x = rng.normal(size=3)
        doubled = RegressionNet(w1=net.w1, b1=net.b1, w2=2.0 * net.w2, b2=2.0 * net.b2)
        assert forward(doubled, x) == pytest.approx(2.0 * forward(net, x), rel=1e-12)

    def test_dimension_mismatch_raises(self, rng):
        net = random_net(rng, input_dim=3)
        with pytest.raises(DimensionError):
            forward(net, np.ones(4))

    def test_nonfinite_input_raises(self, rng):
        net = random_net(rng, input_dim=3)
        with pytest.raises(NonFiniteError):
            forward(net, np.array([1.0, np.nan, 0.0]))

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_sigmoid_output_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        net = random_net(rng, input_dim=2, output_activation="sigmoid")
        X = rng.normal(scale=50.0, size=(20, 2))
        out = forward(net, X)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_bad_activation_rejected(self):
        with pytest.raises(ConfigError):
            RegressionNet(w1=np.ones((1, 1)), b1=np.zeros(1), w2=np.ones(1), b2=0.0,
                          output_activation="tanh")


class TestInitialize:
    def test_shapes_and_zero_biases(self, rng):
        net = initialize(5, rng)
        assert net.w1.shape == (5, 5) and net.w2.shape == (5,)
        assert np.all(net.b1 == 0.0) and net.b2 == 0.0

    def test_glorot_bounds(self, rng):
        net = initialize(7, rng, hidden_dim=3)
        assert np.abs(net.w1).max() <= np.sqrt(6.0 / (7 + 3))
        assert np.abs(net.w2).max() <= np.sqrt(6.0 / (3 + 1))

    def test_deterministic_given_seed(self):
        a = initialize(4, np.random.default_rng(9))
        b = initialize(4, np.random.default_rng(9))
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)


class TestBackward:
    def test_zero_gradient_at_exact_fit(self, rng):
        net, x, _ = safe_case(rng)
        y = forward(net, x)
        values, d_theta = batch_backward(net, x[None, :], [y])
        assert values[0] == 0.0
        assert np.all(d_theta == 0.0) and np.all(input_gradient(net, x, y) == 0.0)

    def test_all_active_linear_regime_closed_form(self):
        # Positive weights and inputs keep every relu active: f = w2 @ (w1 x + b1) + b2.
        w1 = np.array([[0.5, 0.2], [0.3, 0.7]])
        b1 = np.array([0.1, 0.2])
        w2 = np.array([0.6, 0.9])
        net = RegressionNet(w1=w1, b1=b1, w2=w2, b2=0.3)
        x = np.array([1.0, 2.0])
        y = 0.0
        r = y - forward(net, x)
        _, d_theta = batch_backward(net, x[None, :], [y])
        assert np.allclose(input_gradient(net, x, y), -2.0 * r * (w2 @ w1), atol=1e-12)
        a = w1 @ x + b1
        assert np.allclose(d_theta[-3:-1], -2.0 * r * a, atol=1e-12)  # w2 block
        assert d_theta[-1] == pytest.approx(-2.0 * r, abs=1e-12)  # b2

    @pytest.mark.parametrize("loss,delta", [("squared_error", 1.0), ("pseudo_huber", 0.7)])
    @pytest.mark.parametrize("act", ["identity", "sigmoid"])
    def test_matches_finite_differences(self, loss, delta, act):
        rng = np.random.default_rng(77)
        for _ in range(5):
            net, x, y = safe_case(rng, output_activation=act)
            if act == "sigmoid":
                y = float(rng.uniform())
            _, d_theta = batch_backward(net, x[None, :], [y], loss=loss, delta=delta)
            d_x = input_gradient(net, x, y, loss=loss, delta=delta)
            # One point gives a (D,) gradient, row 0 of the same point as a batch.
            assert d_x.shape == x.shape
            assert np.array_equal(d_x, input_gradient(net, x[None, :], [y], loss, delta)[0])
            theta0 = params_to_vector(net)

            def f_theta(t):
                return batch_backward(vector_to_net(net, t), x[None, :], [y], loss, delta)[0][0]

            def f_x(xx):
                return batch_backward(net, xx[None, :], [y], loss=loss, delta=delta)[0][0]

            assert max_rel_err(fd_gradient(f_theta, theta0), d_theta) < 1e-4
            assert max_rel_err(fd_gradient(f_x, x), d_x) < 1e-4

    @pytest.mark.parametrize("n,d,h", [(1, 3, 2), (32, 13, 13), (317, 13, 5), (64, 64, 64)])
    def test_param_grad_adds_rows_in_order(self, n, d, h):
        # The column sums must equal a row-by-row loop bit for bit, so a faster
        # reduction that reorders the additions cannot slip in.
        rng = np.random.default_rng(n + d + h)
        net = random_net(rng, input_dim=d, hidden_dim=h)
        net.b1 = rng.normal(size=h)
        X = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.8)
        a = np.maximum(X @ net.w1.T + net.b1, 0.0)
        g_u = rng.normal(size=n) * (rng.random(n) < 0.8)  # zeros of both signs, mixed signs
        d_b1, d_w2 = np.zeros(h), np.zeros(h)
        for i in range(n):
            d_b1 += (a[i] > 0.0) * net.w2 * g_u[i]
            d_w2 += a[i] * g_u[i]
        dz = (a > 0.0) * net.w2 * g_u[:, None]
        expected = np.concatenate([(dz.T @ X).ravel(), d_b1, d_w2, [g_u.sum()]])
        assert _param_grad(net, X, a, g_u).tobytes() == expected.tobytes()
        assert _param_grad(net, X, a, g_u, dz=dz).tobytes() == expected.tobytes()

    def test_rejects_nonfinite_target(self, rng):
        net = random_net(rng)
        with pytest.raises(NonFiniteError):
            batch_backward(net, np.zeros((1, 3)), [np.inf])
        with pytest.raises(NonFiniteError):
            input_gradient(net, np.zeros(3), np.inf)

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize(
        "fn,extra", [(batch_backward, ()), (input_gradient, ()), (grad_penalty_batch, (0.1,))],
        ids=["batch_backward", "input_gradient", "grad_penalty_batch"],
    )
    def test_every_pseudo_huber_term_rejects_bad_delta(self, fn, extra, delta):
        X, Y = np.array([[1.0, 2.0], [-0.5, 0.3]]), [0.2, -0.1]
        with pytest.raises(ConfigError, match="pseudo-Huber delta must be positive"):
            fn(small_net(), X, Y, *extra, loss="pseudo_huber", delta=delta)


class TestGradPenalty:
    def test_zero_sigma_gives_zero(self, rng):
        net, x, y = safe_case(rng)
        assert np.all(grad_penalty_batch(net, x[None, :], [y], 0.0)[1] == 0.0)

    def test_constant_net_gives_zero(self):
        net = RegressionNet(w1=np.zeros((2, 2)), b1=np.zeros(2), w2=np.zeros(2), b2=1.0)
        _, g = grad_penalty_batch(net, np.array([[0.3, -0.4]]), [2.0], sigma=1.5)
        assert np.all(g == 0.0)

    def test_homogeneous_in_sigma(self, rng):
        net, x, y = safe_case(rng)
        _, g1 = grad_penalty_batch(net, x[None, :], [y], 1.0)
        _, g2 = grad_penalty_batch(net, x[None, :], [y], 2.0)
        assert np.allclose(g2, 2.0 * g1, rtol=1e-14)

    def test_reads_relu_mask_from_terms(self, rng):
        # relu'(z) is the clean batch's mask, so z is not compared again.
        net = random_net(rng, input_dim=4, hidden_dim=6)
        X, Y = rng.normal(size=(8, 4)), rng.normal(size=8)
        terms = _clean_terms(net, X, Y, "squared_error", 1.0)
        z = terms[2][0]
        assert terms[7].dtype == bool and np.array_equal(terms[7], z > 0.0)
        fwd = (np.full_like(z, np.nan), *terms[2][1:])
        got = grad_penalty_batch(net, X, Y, 0.7, terms=(*terms[:2], fwd, *terms[3:]))
        want = grad_penalty_batch(net, X, Y, 0.7)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("loss,delta", [("squared_error", 1.0), ("pseudo_huber", 1.3)])
    def test_matches_finite_differences(self, loss, delta):
        # FD perturbs theta, so require margins on both relu kinks and the
        # signs of d_x, which the analytic formula holds fixed.
        rng = np.random.default_rng(5150)
        sigma = 0.8
        for _ in range(5):
            net, x, y = safe_case(rng, margin=1e-2)
            _, g = grad_penalty_batch(net, x[None, :], [y], sigma, loss=loss, delta=delta)
            theta0 = params_to_vector(net)

            def f(t):
                d_x = input_gradient(vector_to_net(net, t), x, y, loss=loss, delta=delta)
                return sigma * np.abs(d_x).sum()

            assert max_rel_err(fd_gradient(f, theta0), g) < 1e-3


class TestSerialization:
    def test_params_vector_roundtrip(self, rng):
        net = random_net(rng, input_dim=3, hidden_dim=2)
        theta = params_to_vector(net)
        assert theta.shape == (net.n_params,)
        back = vector_to_net(net, theta)
        assert np.array_equal(back.w1, net.w1)
        assert np.array_equal(back.b1, net.b1)
        assert np.array_equal(back.w2, net.w2)
        assert back.b2 == net.b2

    def test_params_vector_layout(self):
        # [w1 row-major, b1, w2, b2]
        net = RegressionNet(
            w1=np.array([[1.0, 2.0], [3.0, 4.0]]),
            b1=np.array([5.0, 6.0]),
            w2=np.array([7.0, 8.0]),
            b2=9.0,
        )
        assert np.array_equal(
            params_to_vector(net), np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
        )

    def test_wrong_length_vector_raises(self, rng):
        net = random_net(rng)
        with pytest.raises(DimensionError):
            vector_to_net(net, np.zeros(net.n_params + 1))
