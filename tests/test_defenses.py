import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regrobust import defenses, nn
from regrobust.defenses import (
    DEFENSE_KINDS,
    DefenseConfig,
    ansr_batch,
    batch_loss_grad,
)
from regrobust.errors import ConfigError, DimensionError
from regrobust.losses import loss_terms, loss_value, pseudo_huber
from regrobust.nn import (
    RegressionNet,
    batch_backward,
    forward,
    forward_parts,
    grad_penalty_batch,
    params_to_vector,
    vector_to_net,
)

from conftest import fd_gradient, max_rel_err, random_net, safe_case


def identity_net():
    """f(x) = x for x > -10; handy because prediction deltas equal input deltas."""
    return RegressionNet(
        w1=np.array([[1.0]]), b1=np.array([10.0]), w2=np.array([1.0]), b2=-10.0
    )


def point_loss_grad(net, x, y, cfg, rng=None, nn_distance=0.5, label_gap=0.0):
    """batch_loss_grad on the single row (x, y)."""
    return batch_loss_grad(
        net, x[None, :], [y], cfg, rng=rng, nn_distances=[nn_distance], label_gaps=[label_gap]
    )


class TestPseudoHuber:
    def test_zero_at_zero(self):
        assert pseudo_huber(0.0, delta=2.0) == 0.0

    def test_known_value(self):
        # delta=1, a=sqrt(3): 1*(sqrt(1+3)-1) = 1
        assert pseudo_huber(np.sqrt(3.0), delta=1.0) == pytest.approx(1.0, abs=1e-12)

    def test_large_delta_approximates_half_square(self):
        assert pseudo_huber(1.0, delta=1000.0) == pytest.approx(0.5, abs=1e-6)

    def test_small_delta_approximates_scaled_abs(self):
        a = 7.0
        assert pseudo_huber(a, delta=0.01) == pytest.approx(0.01 * a, rel=1e-2)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ConfigError):
            pseudo_huber(1.0, delta=0.0)

    @settings(max_examples=200)
    @given(st.floats(-1e6, 1e6), st.floats(0.01, 1e3))
    def test_bounded_by_half_square_and_even(self, a, delta):
        v = pseudo_huber(a, delta)
        assert 0.0 <= v <= 0.5 * a * a + 1e-9
        assert v == pseudo_huber(-a, delta)

    @settings(max_examples=100)
    @given(st.floats(0.0, 1e3), st.floats(0.0, 1e3), st.floats(0.01, 100.0))
    def test_monotone_in_magnitude(self, a1, a2, delta):
        lo, hi = sorted([a1, a2])
        assert pseudo_huber(lo, delta) <= pseudo_huber(hi, delta) + 1e-12


class TestLossTerms:
    """loss_terms equals the textbook formulas bit for bit."""

    # Written over arrays: numpy's vector pow can round an ulp away from the scalar one.
    a = np.array([0.0, -0.0, 5e-324, -5e-324, 1e150, -1e150, 0.37, -2.5])

    def test_squared_error(self):
        values, d1, d2 = loss_terms("squared_error", self.a)
        assert values.tobytes() == (self.a * self.a).tobytes()
        assert d1.tobytes() == (2.0 * self.a).tobytes()
        assert type(d2) is float and d2 == 2.0

    @pytest.mark.parametrize("delta", [1e-3, 1.0, 5.23, 1e3])
    def test_pseudo_huber(self, delta):
        a = self.a
        values, d1, d2 = loss_terms("pseudo_huber", a, delta)
        assert values.tobytes() == (delta**2 * (np.sqrt(1.0 + (a / delta) ** 2) - 1.0)).tobytes()
        assert d1.tobytes() == (a / np.sqrt(1.0 + (a / delta) ** 2)).tobytes()
        assert d2.tobytes() == ((1.0 + (a / delta) ** 2) ** -1.5).tobytes()

    @pytest.mark.parametrize("kind", ["squared_error", "pseudo_huber"])
    def test_scalar_value_is_a_python_float(self, kind):
        assert type(loss_value(kind, 1.5, 0.5)) is float
        assert type(loss_value(kind, np.float64(-0.25))) is float
        assert type(pseudo_huber(1.5, 0.5)) is float
        assert loss_value(kind, np.array([1.5]), 0.5).shape == (1,)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown loss kind"):
            loss_terms("absolute", 1.0)


class TestDefenseConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            DefenseConfig(kind="dropout")

    @pytest.mark.parametrize(
        "field,value",
        [("delta", 0.0), ("delta", -1.0), ("sigma", -0.1), ("lam", -2.0),
         ("beta", 0.0), ("n_samples", 0)],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            DefenseConfig(kind="ansr", **{field: value})

    def test_nonfinite_irrelevant_field_rejected(self):
        # sigma is unused by kind=ansr but must still be a sane number.
        with pytest.raises(ConfigError):
            DefenseConfig(kind="ansr", sigma=float("nan"))


class TestAnsrPenalty:
    def test_constant_net_zero(self):
        net = RegressionNet(w1=np.zeros((2, 2)), b1=np.zeros(2), w2=np.zeros(2), b2=3.0)
        omega, _ = ansr_batch(net, np.zeros((1, 2)), [1.0], [0.0], 100, np.random.default_rng(0))
        assert omega[0] == 0.0

    def test_zero_nn_distance_zero(self, rng):
        net = random_net(rng)
        X = rng.normal(size=(1, 3))
        omega, _ = ansr_batch(net, X, [0.0], [0.3], 100, np.random.default_rng(0))
        assert omega[0] == 0.0

    def test_huge_gap_gates_everything_off(self, rng):
        net = random_net(rng)
        omega, _ = ansr_batch(net, rng.normal(size=(1, 3)), [0.5], [1e9], 100,
                              np.random.default_rng(0))
        assert omega[0] == 0.0
        _, g = ansr_batch(net, rng.normal(size=(1, 3)), [0.5], [1e9], 100,
                          np.random.default_rng(0))
        assert np.all(g == 0.0)

    def test_nonnegative(self, rng):
        for _ in range(20):
            net = random_net(rng)
            radius = 3.0 * float(rng.uniform(0, 2))
            gap = float(rng.uniform(0, 0.5))
            omega, _ = ansr_batch(net, rng.normal(size=(1, 3)), [radius], [gap], 100, rng)
            assert omega[0] >= 0.0

    def test_identity_net_matches_brute_force(self):
        # f(x) = x, gap 0, radius 1: penalty = E[u^2] = 1/3 over u ~ U(-1, 1).
        net = identity_net()
        n_samples = 100
        omega, _ = ansr_batch(net, np.zeros((1, 1)), [1.0], [0.0], n_samples,
                              np.random.default_rng(8))
        u = np.random.default_rng(123).uniform(-1.0, 1.0, size=1_000_000)
        oracle = float(np.mean(u * u))
        se = float(np.std(u * u, ddof=1)) / np.sqrt(n_samples)
        assert abs(omega[0] - oracle) < 3.0 * se

    def test_gate_thresholds_strictly(self):
        # Gap just above the largest |delta| gates everything; just below lets it through.
        net = identity_net()
        X = np.zeros((1, 1))
        draws = np.random.default_rng(55).uniform(-1.0, 1.0, size=(1, 64, 1))
        top = float(np.abs(draws).max())
        hi, _ = ansr_batch(net, X, [1.0], [top + 1e-12], 64, np.random.default_rng(55))
        lo, _ = ansr_batch(net, X, [1.0], [top - 1e-12], 64, np.random.default_rng(55))
        assert hi[0] == 0.0
        assert lo[0] > 0.0

    def test_deterministic_given_stream(self, rng):
        net = random_net(rng)
        X = rng.normal(size=(1, 3))
        a, _ = ansr_batch(net, X, [1.05], [0.1], 100, np.random.default_rng(99))
        b, _ = ansr_batch(net, X, [1.05], [0.1], 100, np.random.default_rng(99))
        assert a[0] == b[0]

    def test_requires_rng(self, rng):
        net = random_net(rng)
        with pytest.raises(ConfigError):
            ansr_batch(net, np.zeros((1, 3)), [0.5], [0.0], 100, None)


class TestAnsrParamGrad:
    def test_zero_lambda_gives_zeros(self, rng):
        net = random_net(rng)
        x = rng.normal(size=3)
        cfg = DefenseConfig(kind="ansr", lam=0.0)
        _, g_ansr = point_loss_grad(net, x, 0.0, cfg, np.random.default_rng(3))
        _, g_plain = batch_backward(net, x[None, :], [0.0])
        assert np.all(g_ansr == g_plain)

    def test_matches_finite_differences_frozen_samples(self):
        rng = np.random.default_rng(414)
        lam, n_samples = 2.5, 16
        radius = 1.2 * 0.4
        for _ in range(4):
            net, x, _ = safe_case(rng, margin=5e-3, loss_margin=False)
            X = x[None, :]
            _, g = ansr_batch(net, X, [radius], [0.01], n_samples, np.random.default_rng(7))
            theta0 = params_to_vector(net)

            def f(t):
                omega, _ = ansr_batch(vector_to_net(net, t), X, [radius], [0.01], n_samples,
                                      np.random.default_rng(7))
                return lam * omega[0]

            assert max_rel_err(fd_gradient(f, theta0), lam * g) < 1e-3


def param_jacobian(net, X):
    """(N, n_params) rows d u(x_i) / d theta written out from the chain rule."""
    z = X @ net.w1.T + net.b1
    m = (z > 0.0) * net.w2  # (N, H)
    d_w1 = (m[:, :, None] * X[:, None, :]).reshape(len(X), -1)
    return np.hstack([d_w1, m, np.maximum(z, 0.0), np.ones((len(X), 1))])


def dense_ansr(net, X, radii, gaps, n_samples, rng):
    """The stability penalty the direct way: every perturbed point x + r*u is
    built and forwarded, and the Jacobian is contracted over all B*S samples.

    Returns (omega, grad_sum, gate) from the same single (B, S, D) draw.
    """
    B, D = X.shape
    S = n_samples
    U = rng.uniform(-1.0, 1.0, size=(B, S, D))
    XP = (X[:, None, :] + U * radii[:, None, None]).reshape(B * S, D)
    _, _, _, y0, act1_0, _ = forward_parts(net, X)
    _, _, _, yp, act1_p, _ = forward_parts(net, XP)
    dy = y0[:, None] - yp.reshape(B, S)
    gate = (np.abs(dy) > gaps[:, None]) & (radii[:, None] > 0.0)
    gated = np.where(gate, dy, 0.0)
    coef = (2.0 / S) * gated
    grad = param_jacobian(net, X).T @ (coef.sum(axis=1) * act1_0)
    grad -= param_jacobian(net, XP).T @ (coef.ravel() * act1_p)
    return (gated * gated).mean(axis=1), grad, gate


def gaps_for_rate(net, X, radii, n_samples, seed, rate):
    """Per-row label gaps at which about `rate` of the samples drawn from `seed` gate."""
    B, D = X.shape
    U = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(B, n_samples, D))
    XP = (X[:, None, :] + U * radii[:, None, None]).reshape(-1, D)
    dy = np.abs(forward(net, X)[:, None] - forward(net, XP).reshape(B, n_samples))
    return np.quantile(dy, 1.0 - rate, axis=1)


class TestAnsrAgainstDenseOracle:
    S = 40

    def _case(self, act, B, seed=0):
        rng = np.random.default_rng(seed)
        net = random_net(rng, input_dim=4, hidden_dim=6, output_activation=act)
        X = rng.normal(size=(B, 4))
        radii = rng.uniform(0.2, 1.5, size=B)
        if B > 1:
            radii[3] = 0.0
        return net, X, radii

    def _compare(self, net, X, radii, gaps, seed=21):
        omega, grad = ansr_batch(net, X, radii, gaps, self.S, np.random.default_rng(seed))
        o_ref, g_ref, gate = dense_ansr(net, X, radii, gaps, self.S, np.random.default_rng(seed))
        np.testing.assert_allclose(omega, o_ref, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(grad, g_ref, rtol=1e-12, atol=1e-12 * np.abs(g_ref).max())
        assert np.all(omega[radii == 0.0] == 0.0)
        return gate

    @pytest.mark.parametrize("act", ["identity", "sigmoid"])
    @pytest.mark.parametrize("B", [1, 32])
    def test_mixed_gates(self, act, B):
        net, X, radii = self._case(act, B)
        gaps = gaps_for_rate(net, X, radii, self.S, 21, 0.3)
        gate = self._compare(net, X, radii, gaps)
        assert 0.15 < gate.mean() < 0.45

    @pytest.mark.parametrize("act", ["identity", "sigmoid"])
    def test_every_sample_gated(self, act):
        net, X, radii = self._case(act, 32)
        gate = self._compare(net, X, radii, np.zeros(32))
        assert np.all(gate[radii > 0.0])

    @pytest.mark.parametrize("act", ["identity", "sigmoid"])
    def test_no_sample_gated_gives_exact_zeros(self, act):
        net, X, radii = self._case(act, 32)
        omega, grad = ansr_batch(net, X, radii, np.full(32, 1e9), self.S,
                                 np.random.default_rng(21))
        assert np.all(omega == 0.0)
        assert np.all(grad == 0.0)

    @pytest.mark.parametrize("gap", [0.0, 0.05, 1e9])
    def test_stream_advances_by_one_draw(self, gap):
        net, X, radii = self._case("identity", 5)
        used, ref = np.random.default_rng(33), np.random.default_rng(33)
        ansr_batch(net, X, radii, np.full(5, gap), self.S, used)
        ref.uniform(-1.0, 1.0, size=(5, self.S, 4))
        assert used.bit_generator.state == ref.bit_generator.state


class TestAnsrMemory:
    # The wide shape: B=32 rows, S=100 samples, D=H=64.
    B, S, D = 32, 100, 64

    def _peak(self, rate):
        rng = np.random.default_rng(4)
        net = random_net(rng, input_dim=self.D)
        X = rng.normal(size=(self.B, self.D))
        radii = rng.uniform(0.2, 1.0, size=self.B)
        gaps = gaps_for_rate(net, X, radii, self.S, 9, rate) if rate < 1 else np.zeros(self.B)
        tracemalloc.start()
        try:
            ansr_batch(net, X, radii, gaps, self.S, np.random.default_rng(9))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_at_typical_gate_rate(self):
        # Four (B*S, 64) float64 buffers; the dense formulation needed about six.
        assert self._peak(0.3) < 4 * self.B * self.S * 64 * 8

    def test_peak_with_every_sample_gated(self):
        assert self._peak(1.0) <= 10_000_000


class TestTotalLossGrad:
    def test_none_equals_plain_backward(self, rng):
        net, x, y = safe_case(rng)
        values, d_theta = batch_backward(net, x[None, :], [y])
        loss, grad = batch_loss_grad(net, x[None, :], [y], DefenseConfig(kind="none"))
        assert loss == pytest.approx(values[0], rel=1e-12)
        assert np.allclose(grad, d_theta, rtol=1e-12, atol=1e-15)

    def test_combined_with_zero_weights_equals_pseudo_huber(self, rng):
        net, x, y = safe_case(rng)
        cfg_c = DefenseConfig(kind="combined", delta=1.4, sigma=0.0, lam=0.0)
        cfg_p = DefenseConfig(kind="pseudo_huber", delta=1.4)
        lc, gc = point_loss_grad(net, x, y, cfg_c, np.random.default_rng(1))
        lp, gp = batch_loss_grad(net, x[None, :], [y], cfg_p)
        assert lc == pytest.approx(lp, rel=1e-12)
        assert np.allclose(gc, gp, rtol=1e-12, atol=1e-15)

    def test_ansr_additive_decomposition(self, rng):
        net, x, y = safe_case(rng)
        cfg = DefenseConfig(kind="ansr", beta=2.0, lam=3.0)
        loss, _ = point_loss_grad(net, x, y, cfg, np.random.default_rng(21), 0.6, 0.05)
        omega, _ = ansr_batch(net, x[None, :], [2.0 * 0.6], [0.05], cfg.n_samples,
                              np.random.default_rng(21))
        base = (y - forward(net, x)) ** 2
        assert loss == pytest.approx(base + cfg.lam * omega[0], abs=1e-12)

    def test_missing_neighbor_rejected(self, rng):
        net, x, y = safe_case(rng)
        with pytest.raises(ConfigError):
            batch_loss_grad(net, x[None, :], [y], DefenseConfig(kind="ansr"),
                            rng=np.random.default_rng(0))

    def test_missing_rng_rejected(self, rng):
        net, x, y = safe_case(rng)
        with pytest.raises(ConfigError):
            point_loss_grad(net, x, y, DefenseConfig(kind="ansr"), None)

    @pytest.mark.parametrize(
        "cfg",
        [
            DefenseConfig(kind="none"),
            DefenseConfig(kind="pseudo_huber", delta=0.8),
            DefenseConfig(kind="grad_reg", sigma=0.6),
            DefenseConfig(kind="ansr", beta=1.1, lam=2.0, n_samples=16),
            DefenseConfig(kind="combined", delta=1.2, sigma=0.4, beta=0.9, lam=1.5, n_samples=16),
        ],
        ids=lambda c: c.kind,
    )
    def test_every_kind_matches_finite_differences(self, cfg):
        rng = np.random.default_rng(2024)
        for _ in range(3):
            net, x, y = safe_case(rng, margin=5e-3)
            _, grad = point_loss_grad(net, x, y, cfg, np.random.default_rng(31), 0.35, 0.01)
            theta0 = params_to_vector(net)

            def f(t):
                loss, _ = point_loss_grad(
                    vector_to_net(net, t), x, y, cfg, np.random.default_rng(31), 0.35, 0.01
                )
                return loss

            assert max_rel_err(fd_gradient(f, theta0), grad) < 1e-3

    def test_deterministic_given_stream(self, rng):
        net, x, y = safe_case(rng)
        cfg = DefenseConfig(kind="combined", delta=1.0, sigma=0.2, beta=1.0, lam=1.0)
        l1, g1 = point_loss_grad(net, x, y, cfg, np.random.default_rng(4), 0.5, 0.02)
        l2, g2 = point_loss_grad(net, x, y, cfg, np.random.default_rng(4), 0.5, 0.02)
        assert l1 == l2 and np.array_equal(g1, g2)


class TestBatchLossGrad:
    def test_matches_pointwise_mean_with_shared_stream(self, rng):
        # One (B, S, D) draw consumes the uniform stream exactly like B
        # successive (1, S, D) draws, so the two paths agree to rounding.
        net = random_net(rng, input_dim=3)
        X = rng.normal(size=(4, 3))
        Y = rng.normal(size=4)
        nn_d = np.array([0.3, 0.0, 0.8, 0.2])
        gaps = np.array([0.05, 0.0, 0.4, 0.0])
        cfg = DefenseConfig(kind="combined", delta=1.1, sigma=0.3, beta=1.7, lam=2.2, n_samples=32)
        lb, gb = batch_loss_grad(
            net, X, Y, cfg, rng=np.random.default_rng(6), nn_distances=nn_d, label_gaps=gaps
        )
        stream = np.random.default_rng(6)
        ls, gs = 0.0, np.zeros(net.n_params)
        for i in range(4):
            li, gi = point_loss_grad(net, X[i], Y[i], cfg, stream, nn_d[i], gaps[i])
            ls += li
            gs += gi
        assert lb == pytest.approx(ls / 4, rel=1e-12)
        assert np.allclose(gb, gs / 4, rtol=1e-10, atol=1e-14)

    def test_requires_neighbor_arrays_for_ansr(self, rng):
        net = random_net(rng)
        with pytest.raises(ConfigError):
            batch_loss_grad(
                net, rng.normal(size=(2, 3)), rng.normal(size=2),
                DefenseConfig(kind="ansr"), rng=np.random.default_rng(0),
            )

    def test_shape_mismatch_rejected(self, rng):
        net = random_net(rng)
        with pytest.raises(DimensionError):
            batch_loss_grad(
                net, rng.normal(size=(2, 3)), rng.normal(size=3), DefenseConfig(kind="none")
            )


def shared_forward_case(act):
    """A (net, X, Y, nn_distances, label_gaps, cfg-kwargs) batch where some ANSR gates fire."""
    rng = np.random.default_rng(77)
    net = random_net(rng, input_dim=5, hidden_dim=7, output_activation=act)
    X = rng.normal(size=(9, 5))
    Y = rng.uniform(0.05, 0.95, size=9) if act == "sigmoid" else rng.normal(size=9)
    nn_d = rng.uniform(0.1, 1.0, size=9)
    nn_d[3] = 0.0
    gaps = np.where(np.arange(9) % 2 == 0, 0.0, 0.02)
    kw = dict(delta=0.7, sigma=0.4, beta=1.3, lam=1.9, n_samples=12)
    return net, X, Y, nn_d, gaps, kw


class TestSharedForward:
    """batch_loss_grad validates once, runs forward once and builds the clean
    batch's loss terms once for every term."""

    @pytest.mark.parametrize("act", ["identity", "sigmoid"])
    @pytest.mark.parametrize("kind", DEFENSE_KINDS)
    def test_equals_public_terms_bit_for_bit(self, kind, act):
        net, X, Y, nn_d, gaps, kw = shared_forward_case(act)
        cfg = DefenseConfig(kind=kind, **kw)
        loss, grad = batch_loss_grad(net, X, Y, cfg, rng=np.random.default_rng(5),
                                     nn_distances=nn_d, label_gaps=gaps)
        loss_kind = "pseudo_huber" if kind in ("pseudo_huber", "combined") else "squared_error"
        values, g = batch_backward(net, X, Y, loss_kind, cfg.delta)
        total = values.sum()
        if kind in ("grad_reg", "combined"):
            pen, pg = grad_penalty_batch(net, X, Y, cfg.sigma, loss_kind, cfg.delta)
            total += pen.sum()
            g = g + pg
        if kind in ("ansr", "combined"):
            omega, og = ansr_batch(net, X, cfg.beta * nn_d, gaps, cfg.n_samples,
                                   np.random.default_rng(5))
            assert np.any(omega > 0)
            total += cfg.lam * omega.sum()
            g = g + cfg.lam * og
        assert loss == total / len(Y)
        assert np.array_equal(grad, g / len(Y))

    @pytest.mark.parametrize("kind", DEFENSE_KINDS)
    def test_one_validation_and_one_forward_per_step(self, kind, monkeypatch):
        # Counted through both bindings: nn's own functions look the names up in nn.
        calls = {"forward_parts": 0, "_as_batch": 0, "_clean_terms": 0}
        for name in calls:
            original = getattr(nn, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for module in (nn, defenses):
                monkeypatch.setattr(module, name, counted)
        net, X, Y, nn_d, gaps, kw = shared_forward_case("identity")
        batch_loss_grad(net, X, Y, DefenseConfig(kind=kind, **kw), rng=np.random.default_rng(5),
                        nn_distances=nn_d, label_gaps=gaps)
        assert calls == {"forward_parts": 1, "_as_batch": 1, "_clean_terms": 1}
