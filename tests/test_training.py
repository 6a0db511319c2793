import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regrobust.attacks import AttackConfig
from regrobust.data import (
    TEST,
    Dataset,
    compute_neighbors,
    fit_normalizer,
    normalize_dataset,
    split_dataset,
)
from regrobust.defenses import DEFENSE_KINDS, DefenseConfig
from regrobust.errors import ConfigError, DataError, DimensionError, SearchFailed, TrainingDiverged
from regrobust.nn import forward, params_to_vector
from regrobust import training
from regrobust.training import (
    SEARCH_RANGES,
    AdamState,
    SearchSpace,
    TrainConfig,
    adam_step,
    random_search,
    run_epochs,
    sample_defense_config,
    start_training,
    train,
)

from conftest import linear_dataset


def bounded_dataset():
    """Targets in (0, 1), so the net gets a sigmoid head."""
    X = np.random.default_rng(9).uniform(-1, 1, size=(60, 2))
    y = 1.0 / (1.0 + np.exp(-(X[:, 0] + X[:, 1])))
    return split_dataset(Dataset(features=X, targets=y, split=None, target_bounded_01=True),
                         seed=1)


class TestAdam:
    def test_zero_gradient_from_rest_leaves_params(self):
        p, s = adam_step(np.array([0.5, -0.25]), np.zeros(2), AdamState.zeros(2), t=1,
                         cfg=TrainConfig())
        assert np.array_equal(p, [0.5, -0.25])
        assert np.all(s.m == 0.0) and np.all(s.v == 0.0)

    def test_zero_gradient_decays_moments(self):
        state = AdamState(m=np.array([1.0, -2.0]), v=np.array([4.0, 9.0]))
        _, s = adam_step(np.array([0.5, 0.5]), np.zeros(2), state, t=3, cfg=TrainConfig())
        assert np.array_equal(s.m, 0.9 * state.m)
        assert np.array_equal(s.v, 0.999 * state.v)

    def test_first_step_matches_hand_computation(self):
        cfg = TrainConfig(learning_rate=1e-3)
        p, s = adam_step(np.zeros(1), np.ones(1), AdamState.zeros(1), t=1, cfg=cfg)
        m_hat = 0.1 / (1 - 0.9)
        v_hat = 0.001 / (1 - 0.999)
        expected = -1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert p[0] == pytest.approx(expected, rel=1e-12)
        assert s.m[0] == pytest.approx(0.1, rel=1e-15)
        assert s.v[0] == pytest.approx(0.001, rel=1e-15)

    @settings(max_examples=60)
    @given(st.floats(-100.0, 100.0).filter(lambda g: abs(g) > 1e-6))
    def test_first_step_moves_against_gradient(self, g):
        cfg = TrainConfig()
        p, _ = adam_step(np.zeros(1), np.array([g]), AdamState.zeros(1), t=1, cfg=cfg)
        assert np.sign(p[0]) == -np.sign(g)

    def test_update_magnitude_bounded_by_lr_scale(self):
        # With bias correction the first-step size is ~lr regardless of |g|.
        cfg = TrainConfig(learning_rate=0.01)
        for g in (1e-4, 1.0, 1e4):
            p, _ = adam_step(np.zeros(1), np.array([g]), AdamState.zeros(1), t=1, cfg=cfg)
            assert abs(p[0]) <= cfg.learning_rate * 1.0001

    @pytest.mark.parametrize("t", [1, 2, 50])
    def test_pure_and_exact(self, t):
        rng = np.random.default_rng(t)
        params, grads = rng.normal(size=40), rng.normal(size=40)
        m0, v0 = rng.normal(size=40), rng.uniform(0.0, 2.0, size=40)
        state = AdamState(m=m0.copy(), v=v0.copy())
        inputs = [a.copy() for a in (params, grads, m0, v0)]
        cfg = TrainConfig(learning_rate=3e-3)
        new, s = adam_step(params, grads, state, t, cfg)
        for before, after in zip(inputs, (params, grads, state.m, state.v)):
            assert np.array_equal(before, after)
        b1, b2, eps = training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS
        lr = cfg.learning_rate
        assert np.array_equal(s.m, b1 * m0 + (1 - b1) * grads)
        assert np.array_equal(s.v, b2 * v0 + (1 - b2) * grads * grads)
        m_hat, v_hat = s.m / (1 - b1**t), s.v / (1 - b2**t)
        assert np.array_equal(new, params - lr * m_hat / (np.sqrt(v_hat) + eps))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            adam_step(np.zeros(2), np.zeros(3), AdamState.zeros(2), t=1, cfg=TrainConfig())

    def test_bad_step_index_rejected(self):
        with pytest.raises(ConfigError):
            adam_step(np.zeros(1), np.zeros(1), AdamState.zeros(1), t=0, cfg=TrainConfig())


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kw",
        [{"learning_rate": 0.0}, {"batch_size": 0}, {"epochs": 0}, {"hidden_dim": 0},
         {"hidden_dim": -1}],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig(**kw)


class TestTrain:
    def test_fits_linear_data(self, lin_ds):
        # width 1 (the 1-d default) is a single relu hinge and cannot cover
        # the whole line, so give the fit a few units
        cfg = TrainConfig(learning_rate=0.01, epochs=400, seed=0, hidden_dim=8)
        net, hist = train(lin_ds, DefenseConfig(kind="none"), cfg)
        rows = lin_ds.rows(TEST)
        pred = forward(net, lin_ds.features[rows])
        assert np.mean((lin_ds.targets[rows] - pred) ** 2) < 1e-3
        assert len(hist) == 400
        assert hist[-1] < hist[0]
        assert all(np.isfinite(h) for h in hist)

    def test_deterministic_given_seed(self, lin_ds):
        cfg = TrainConfig(learning_rate=0.01, epochs=30, seed=5)
        n1, h1 = train(lin_ds, DefenseConfig(kind="none"), cfg)
        n2, h2 = train(lin_ds, DefenseConfig(kind="none"), cfg)
        assert np.array_equal(params_to_vector(n1), params_to_vector(n2))
        assert h1 == h2

    def test_seed_changes_the_model(self, lin_ds):
        cfg1 = TrainConfig(learning_rate=0.01, epochs=30, seed=5)
        cfg2 = TrainConfig(learning_rate=0.01, epochs=30, seed=6)
        n1, _ = train(lin_ds, DefenseConfig(kind="none"), cfg1)
        n2, _ = train(lin_ds, DefenseConfig(kind="none"), cfg2)
        assert not np.array_equal(params_to_vector(n1), params_to_vector(n2))

    def test_ansr_needs_neighbors(self, lin_ds):
        with pytest.raises(ConfigError, match="neighbors"):
            train(lin_ds, DefenseConfig(kind="ansr"), TrainConfig(epochs=1))

    def test_ansr_rejects_neighbors_of_another_split(self, lin_ds):
        short = compute_neighbors(lin_ds)._replace(distance=np.ones(3), label_gap=np.ones(3))
        with pytest.raises(DataError, match="train split"):
            train(lin_ds, DefenseConfig(kind="ansr"), TrainConfig(epochs=1), neighbors=short)

    def test_ansr_deterministic_with_neighbors(self, lin_ds):
        nbrs = compute_neighbors(lin_ds)
        cfg = TrainConfig(learning_rate=0.01, epochs=10, seed=2)
        d = DefenseConfig(kind="ansr", beta=1.0, lam=1.0, n_samples=16)
        n1, _ = train(lin_ds, d, cfg, neighbors=nbrs)
        n2, _ = train(lin_ds, d, cfg, neighbors=nbrs)
        assert np.array_equal(params_to_vector(n1), params_to_vector(n2))

    def test_strong_stability_penalty_flattens_predictions(self, lin_ds):
        # A large penalty weight should visibly shrink the prediction spread
        # relative to an unpenalized run from the same seed.
        nbrs = compute_neighbors(lin_ds)
        cfg = TrainConfig(learning_rate=0.01, epochs=300, seed=1)
        flat, _ = train(
            lin_ds,
            DefenseConfig(kind="ansr", beta=4.0, lam=500.0, n_samples=32),
            cfg,
            neighbors=nbrs,
        )
        free, _ = train(lin_ds, DefenseConfig(kind="none"), cfg)
        X = lin_ds.features
        assert np.std(forward(flat, X)) < 0.5 * np.std(forward(free, X))

    def test_divergence_aborts_with_step_info(self, lin_ds):
        cfg = TrainConfig(learning_rate=1e160, epochs=5, seed=0)
        with (pytest.warns(RuntimeWarning),
              pytest.raises(TrainingDiverged, match=r"epoch \d+, step \d+")):
            train(lin_ds, DefenseConfig(kind="none"), cfg)

    def test_divergence_after_a_resume_names_the_absolute_epoch_and_step(self):
        # On these positive inputs the one hidden unit is dead, so only b2 moves, and
        # the sigmoid head keeps every loss finite: Adam carries b2 up by 1, 1.67 and
        # 2.19 x lr, and theta overflows at step 3, the first step of epoch 2.
        X = np.random.default_rng(0).uniform(0.5, 1, size=(60, 1))
        ds = split_dataset(Dataset(features=X, targets=np.ones(60), split=None,
                                   target_bounded_01=True), seed=1)
        cfg = TrainConfig(learning_rate=1e308, batch_size=20, epochs=5, seed=1, hidden_dim=1)
        none = DefenseConfig(kind="none")
        with np.errstate(over="ignore"):
            with pytest.raises(TrainingDiverged, match=r"parameters at epoch 2, step 3$"):
                train(ds, none, cfg)
            state = start_training(ds, none, cfg)
            assert state.net.w1[0, 0] < 0
            assert len(run_epochs(state, ds, none, 1)) == 1
            assert state.step == 2 and np.isfinite(state.adam.v).all()
            with pytest.raises(TrainingDiverged, match=r"parameters at epoch 2, step 3$"):
                run_epochs(state, ds, none, cfg.epochs - 1)

    def test_overflowed_second_moment_is_divergence(self):
        # Every loss and theta stays finite through step 2, but its gradient squared
        # overflows v; that coordinate's step lr * m_hat / (sqrt(inf) + eps) would be 0,
        # freezing it while the run goes on (to a non-finite loss at step 3).
        X = np.random.default_rng(0).uniform(-1, 1, size=(60, 1))
        ds = split_dataset(Dataset(features=X, targets=1e152 * (1.0 + 0.1 * X[:, 0]), split=None),
                           seed=1)
        cfg = TrainConfig(learning_rate=10**76.5, epochs=5, hidden_dim=8)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDiverged, match=r"second moment at epoch 1, step 2$"):
            train(ds, DefenseConfig(kind="none"), cfg)

    def test_sigmoid_output_for_bounded_targets(self):
        ds = bounded_dataset()
        net, _ = train(ds, DefenseConfig(kind="none"), TrainConfig(epochs=5, seed=0))
        assert net.output_activation == "sigmoid"
        out = forward(net, ds.features)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


HEADS = {"identity": linear_dataset(n=60), "sigmoid": bounded_dataset()}
HEAD_NEIGHBORS = {head: compute_neighbors(ds) for head, ds in HEADS.items()}


@st.composite
def cut_runs(draw):
    """A run length in epochs and one to three distinct epochs to cut it at."""
    epochs = draw(st.integers(2, 6))
    cuts = draw(st.lists(st.integers(1, epochs - 1), min_size=1, max_size=3, unique=True))
    return epochs, sorted(cuts)


def _state_fields(state):
    return (state.theta, state.adam.m, state.adam.v, state.step, state.epoch,
            state.rng_shuffle.bit_generator.state,
            None if state.rng_penalty is None else state.rng_penalty.bit_generator.state)


class TestResume:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(DEFENSE_KINDS), head=st.sampled_from(sorted(HEADS)),
           run=cut_runs(), seed=st.integers(0, 2**16))
    def test_cut_run_is_the_uninterrupted_run(self, kind, head, run, seed):
        epochs, cuts = run
        ds, nbrs = HEADS[head], HEAD_NEIGHBORS[head]
        defense = DefenseConfig(kind=kind, n_samples=8)
        cfg = TrainConfig(learning_rate=0.01, batch_size=16, epochs=epochs, seed=seed)
        whole = start_training(ds, defense, cfg)
        whole_history = run_epochs(whole, ds, defense, epochs, neighbors=nbrs)
        cut = start_training(ds, defense, cfg)
        history = []
        for lo, hi in zip([0, *cuts], [*cuts, epochs]):
            history += run_epochs(cut, ds, defense, hi - lo, neighbors=nbrs)
        assert history == whole_history
        for a, b in zip(_state_fields(cut), _state_fields(whole)):
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        assert cut.epoch == epochs
        assert cut.net.output_activation == ("sigmoid" if head == "sigmoid" else "identity")

    def test_train_is_one_run_of_all_epochs(self, lin_ds):
        cfg = TrainConfig(learning_rate=0.01, epochs=7, seed=3)
        defense = DefenseConfig(kind="grad_reg")
        net, history = train(lin_ds, defense, cfg)
        state = start_training(lin_ds, defense, cfg)
        assert run_epochs(state, lin_ds, defense, cfg.epochs) == history
        assert np.array_equal(state.theta, params_to_vector(net))
        assert state.step == 7 * 3  # 90 train rows in batches of 32

    def test_zero_epochs_leave_the_state_as_it_was(self, lin_ds):
        defense = DefenseConfig(kind="ansr", n_samples=4)
        nbrs = compute_neighbors(lin_ds)
        state = start_training(lin_ds, defense, TrainConfig(epochs=3))
        run_epochs(state, lin_ds, defense, 1, neighbors=nbrs)
        before = [np.copy(f) if isinstance(f, np.ndarray) else f for f in _state_fields(state)]
        assert run_epochs(state, lin_ds, defense, 0, neighbors=nbrs) == []
        for a, b in zip(_state_fields(state), before):
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b

    @pytest.mark.parametrize("epochs", [2.5, 1.0, True, -1, "2", None])
    def test_bad_epoch_count_rejected(self, lin_ds, epochs):
        state = start_training(lin_ds, DefenseConfig(kind="none"), TrainConfig())
        with pytest.raises(ConfigError, match="epochs must be"):
            run_epochs(state, lin_ds, DefenseConfig(kind="none"), epochs)
        assert state.step == 0

    def test_other_feature_count_rejected(self, lin_ds):
        state = start_training(lin_ds, DefenseConfig(kind="none"), TrainConfig())
        with pytest.raises(DimensionError, match="2 features, the net 1"):
            run_epochs(state, bounded_dataset(), DefenseConfig(kind="none"), 1)
        assert state.step == 0

    def test_penalty_needs_a_run_started_with_one(self, lin_ds):
        state = start_training(lin_ds, DefenseConfig(kind="grad_reg"), TrainConfig())
        with pytest.raises(ConfigError, match="started under a defense that does not"):
            run_epochs(state, lin_ds, DefenseConfig(kind="combined"), 1,
                       neighbors=compute_neighbors(lin_ds))


@pytest.mark.parametrize("make,field", [
    (lambda: TrainConfig(epochs=2.5), "epochs"),
    (lambda: TrainConfig(epochs=True), "epochs"),
    (lambda: TrainConfig(epochs=3.0), "epochs"),
    (lambda: TrainConfig(batch_size=32.7), "batch_size"),
    (lambda: TrainConfig(hidden_dim=2.5), "hidden_dim"),
    (lambda: TrainConfig(hidden_dim=False), "hidden_dim"),
    (lambda: SearchSpace(n_trials=2.9), "n_trials"),
    (lambda: DefenseConfig(kind="ansr", n_samples=16.9), "n_samples"),
    (lambda: DefenseConfig(kind="none", n_samples=True), "n_samples"),
    (lambda: AttackConfig(kind="pgd", steps=2.5), "steps"),
], ids=["epochs-float", "epochs-bool", "epochs-whole-float", "batch_size", "hidden_dim",
        "hidden_dim-bool", "n_trials", "n_samples", "n_samples-bool", "steps"])
def test_non_integer_counts_rejected(make, field):
    with pytest.raises(ConfigError, match=rf"^{field} must be an integer, got "):
        make()


def test_numpy_integer_counts_accepted(lin_ds):
    i = np.int64
    cfg = TrainConfig(epochs=i(2), batch_size=i(8), hidden_dim=i(3))
    assert SearchSpace(n_trials=i(2)).n_trials == 2
    assert DefenseConfig(kind="ansr", n_samples=i(4)).n_samples == 4
    assert AttackConfig(kind="pgd", steps=i(3)).steps == 3
    state = start_training(lin_ds, DefenseConfig(kind="none"), cfg)
    assert len(run_epochs(state, lin_ds, DefenseConfig(kind="none"), cfg.epochs)) == 2
    assert state.step == 2 * 12  # 90 train rows in batches of 8


class TestSearchSpace:
    def test_defaults(self):
        assert SearchSpace().n_trials == 20


class TestSampleDefenseConfig:
    def test_draws_stay_in_ranges(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            c = sample_defense_config(DefenseConfig(kind="combined"), rng)
            for name, (lo, hi) in SEARCH_RANGES.items():
                assert lo <= getattr(c, name) <= hi

    def test_only_relevant_params_drawn(self):
        rng = np.random.default_rng(0)
        base = DefenseConfig(kind="pseudo_huber", n_samples=7)
        c = sample_defense_config(base, rng)
        assert c.sigma == base.sigma and c.beta == base.beta and c.lam == base.lam
        assert c.n_samples == base.n_samples
        assert c.delta != base.delta


PSEUDO_HUBER = DefenseConfig(kind="pseudo_huber")


class TestRandomSearch:
    def test_single_trial_returns_it_and_logs(self, lin_ds):
        space = SearchSpace(n_trials=1, objective="val_mse_clean")
        cfg = TrainConfig(learning_rate=0.01, epochs=60, seed=0)
        best, records = random_search(lin_ds, PSEUDO_HUBER, space, seed=3, train_cfg=cfg)
        assert len(records) == 1
        assert records[0] is best
        assert np.isfinite(records[0].value)
        assert records[0].source == "sampled"

    def test_log_is_complete_and_deterministic(self, lin_ds):
        space = SearchSpace(n_trials=3, objective="val_mse_clean")
        cfg = TrainConfig(learning_rate=0.01, epochs=40, seed=0)
        _, r1 = random_search(lin_ds, PSEUDO_HUBER, space, 7, cfg)
        _, r2 = random_search(lin_ds, PSEUDO_HUBER, space, 7, cfg)
        assert [r.value for r in r1] == [r.value for r in r2]
        assert [r.config for r in r1] == [r.config for r in r2]
        assert [r.trial for r in r1] == [0, 1, 2]

    def test_argmin_selected(self, lin_ds):
        space = SearchSpace(n_trials=4, objective="val_mse_clean")
        cfg = TrainConfig(learning_rate=0.01, epochs=40, seed=0)
        best, records = random_search(lin_ds, PSEUDO_HUBER, space, 11, cfg)
        vals = [r.value for r in records]
        assert best is records[int(np.argmin(vals))]

    def test_injected_candidates_run_first(self, lin_ds):
        space = SearchSpace(n_trials=1, objective="val_mse_clean")
        cfg = TrainConfig(learning_rate=0.01, epochs=40, seed=0)
        cand = DefenseConfig(kind="pseudo_huber", delta=2.5)
        _, records = random_search(lin_ds, PSEUDO_HUBER, space, 5, cfg, candidates=[cand])
        assert len(records) == 2
        assert records[0].source == "injected" and records[0].config == cand
        assert records[1].source == "sampled"

    def test_adversarial_objective_prefers_stability(self):
        # A wiggly noisy target makes the unregularized net steep. The two
        # objectives must disagree about the injected candidates: the attacked
        # one picks the stabilized config, the clean one the unregularized.
        rng = np.random.default_rng(42)
        X = rng.uniform(-2, 2, size=(120, 2))
        y = np.sin(2.0 * X[:, 0]) + 0.5 * X[:, 1] + 0.3 * rng.normal(size=120)
        ds = Dataset(features=X, targets=y, split=None, name="wiggle")
        ds = split_dataset(ds, (0.6, 0.2, 0.2), seed=3)
        ds = normalize_dataset(ds, fit_normalizer(ds))
        nbrs = compute_neighbors(ds)
        weak = DefenseConfig(kind="ansr", lam=0.001, beta=2.0, n_samples=16)
        strong = DefenseConfig(kind="ansr", lam=2.0, beta=2.0, n_samples=16)
        cfg = TrainConfig(learning_rate=0.01, batch_size=16, epochs=200, hidden_dim=12)
        attack = AttackConfig(kind="pgd", epsilon=0.05, rho=0.2, steps=10)
        picks = {}
        for objective in ("val_mse_pgd", "val_mse_clean"):
            best, _ = random_search(
                ds,
                DefenseConfig(kind="ansr", n_samples=16),
                SearchSpace(n_trials=1, objective=objective),
                seed=5,
                train_cfg=cfg,
                neighbors=nbrs,
                attack=attack,
                candidates=(weak, strong),
            )
            picks[objective] = best.config.lam
        assert picks["val_mse_pgd"] == strong.lam
        assert picks["val_mse_clean"] == weak.lam

    def test_all_diverged_raises_with_log(self, lin_ds):
        space = SearchSpace(n_trials=2, objective="val_mse_clean")
        cfg = TrainConfig(learning_rate=1e160, epochs=2, seed=0)
        with pytest.warns(RuntimeWarning), pytest.raises(SearchFailed) as exc_info:
            random_search(lin_ds, PSEUDO_HUBER, space, 1, cfg)
        assert len(exc_info.value.trials) == 2
        assert all(np.isnan(r.value) for r in exc_info.value.trials)

    def test_bad_objective_rejected(self, lin_ds):
        with pytest.raises(ConfigError, match="objective must be one of"):
            random_search(lin_ds, DefenseConfig(kind="ansr"), SearchSpace(objective="test_mse"), 0,
                          TrainConfig())

    def test_jobs_do_not_change_results(self, lin_ds):
        space = SearchSpace(n_trials=3, objective="val_mse_clean")
        cfg = TrainConfig(learning_rate=0.01, epochs=30, seed=0)
        _, serial = random_search(lin_ds, PSEUDO_HUBER, space, 13, cfg, jobs=1)
        _, par = random_search(lin_ds, PSEUDO_HUBER, space, 13, cfg, jobs=2)
        assert [r.value for r in serial] == [r.value for r in par]
