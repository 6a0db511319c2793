import copy
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regrobust.attacks import AttackConfig
from regrobust.data import (
    TEST,
    VAL,
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
from regrobust.seeding import derive_seed
from regrobust.training import (
    SEARCH_RANGES,
    SearchSpace,
    TrainConfig,
    adam_step,
    draw_trials,
    random_search,
    run_epochs,
    sample_defense_config,
    split_mse,
    start_training,
    train,
)

from conftest import linear_dataset


def with_neighbors(ds):
    return replace(ds, neighbors=compute_neighbors(ds))


def bounded_dataset():
    """Targets in (0, 1), so the net gets a sigmoid head."""
    X = np.random.default_rng(9).uniform(-1, 1, size=(60, 2))
    y = 1.0 / (1.0 + np.exp(-(X[:, 0] + X[:, 1])))
    return split_dataset(Dataset(features=X, targets=y, split=None, target_bounded_01=True),
                         seed=1)


def zeros(n):
    """A parameter vector, its gradient and Adam's two moments, all zero."""
    return [np.zeros(n) for _ in range(4)]


class TestAdam:
    def test_zero_gradient_from_rest_leaves_params(self):
        _, g, m, v = zeros(2)
        p = np.array([0.5, -0.25])
        adam_step(p, g, m, v, t=1, lr=1e-3)
        assert np.array_equal(p, [0.5, -0.25])
        assert np.all(m == 0.0) and np.all(v == 0.0)

    def test_zero_gradient_decays_moments(self):
        m0, v0 = np.array([1.0, -2.0]), np.array([4.0, 9.0])
        m, v = m0.copy(), v0.copy()
        adam_step(np.array([0.5, 0.5]), np.zeros(2), m, v, t=3, lr=1e-3)
        assert np.array_equal(m, 0.9 * m0)
        assert np.array_equal(v, 0.999 * v0)

    def test_first_step_matches_hand_computation(self):
        p, _, m, v = zeros(1)
        adam_step(p, np.ones(1), m, v, t=1, lr=1e-3)
        m_hat = 0.1 / (1 - 0.9)
        v_hat = 0.001 / (1 - 0.999)
        expected = -1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert p[0] == pytest.approx(expected, rel=1e-12)
        assert m[0] == pytest.approx(0.1, rel=1e-15)
        assert v[0] == pytest.approx(0.001, rel=1e-15)

    @settings(max_examples=60)
    @given(st.floats(-100.0, 100.0).filter(lambda g: abs(g) > 1e-6))
    def test_first_step_moves_against_gradient(self, g):
        p, _, m, v = zeros(1)
        adam_step(p, np.array([g]), m, v, t=1, lr=1e-3)
        assert np.sign(p[0]) == -np.sign(g)

    def test_update_magnitude_bounded_by_lr_scale(self):
        # With bias correction the first-step size is ~lr regardless of |g|.
        for g in (1e-4, 1.0, 1e4):
            p, _, m, v = zeros(1)
            adam_step(p, np.array([g]), m, v, t=1, lr=0.01)
            assert abs(p[0]) <= 0.01 * 1.0001

    @pytest.mark.parametrize("t", [1, 2, 50])
    def test_in_place_and_exact(self, t):
        rng = np.random.default_rng(t)
        params, grads = rng.normal(size=40), rng.normal(size=40)
        m0, v0 = rng.normal(size=40), rng.uniform(0.0, 2.0, size=40)
        theta, grad, m, v = params.copy(), grads.copy(), m0.copy(), v0.copy()
        lr = 3e-3
        assert adam_step(theta, grad, m, v, t, lr) is None
        assert np.array_equal(grad, grads)
        b1, b2, eps = training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS
        assert np.array_equal(m, b1 * m0 + (1 - b1) * grads)
        assert np.array_equal(v, b2 * v0 + (1 - b2) * grads * grads)
        m_hat, v_hat = m / (1 - b1**t), v / (1 - b2**t)
        assert np.array_equal(theta, params - lr * m_hat / (np.sqrt(v_hat) + eps))

    def test_shape_mismatch_rejected(self):
        for bad in range(4):  # theta, grad, m, v
            arrays = zeros(2)
            arrays[bad] = np.zeros(3)
            with pytest.raises(DimensionError, match="shape mismatch"):
                adam_step(*arrays, t=1, lr=1e-3)

    def test_bad_step_index_rejected(self):
        with pytest.raises(ConfigError):
            adam_step(*zeros(1), t=0, lr=1e-3)


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
        cfg = TrainConfig(learning_rate=0.01, epochs=400, hidden_dim=8)
        net, hist = train(lin_ds, DefenseConfig(kind="none"), cfg, 0)
        rows = lin_ds.rows(TEST)
        pred = forward(net, lin_ds.features[rows])
        assert np.mean((lin_ds.targets[rows] - pred) ** 2) < 1e-3
        assert len(hist) == 400
        assert hist[-1] < hist[0]
        assert all(np.isfinite(h) for h in hist)

    def test_deterministic_given_seed(self, lin_ds):
        cfg = TrainConfig(learning_rate=0.01, epochs=30)
        n1, h1 = train(lin_ds, DefenseConfig(kind="none"), cfg, 5)
        n2, h2 = train(lin_ds, DefenseConfig(kind="none"), cfg, 5)
        assert np.array_equal(params_to_vector(n1), params_to_vector(n2))
        assert h1 == h2

    def test_seed_changes_the_model(self, lin_ds):
        cfg = TrainConfig(learning_rate=0.01, epochs=30)
        n1, _ = train(lin_ds, DefenseConfig(kind="none"), cfg, 5)
        n2, _ = train(lin_ds, DefenseConfig(kind="none"), cfg, 6)
        assert not np.array_equal(params_to_vector(n1), params_to_vector(n2))

    def test_ansr_needs_neighbors(self, lin_ds):
        with pytest.raises(ConfigError, match="neighbors"):
            train(lin_ds, DefenseConfig(kind="ansr"), TrainConfig(epochs=1), 0)

    def test_ansr_rejects_neighbors_of_another_split(self, lin_ds):
        # Columns for 3 rows never reach training: the dataset refuses them.
        short = compute_neighbors(lin_ds)._replace(distance=np.ones(3), label_gap=np.ones(3))
        with pytest.raises(DataError, match=r"one entry per train row \(90\)"):
            replace(lin_ds, neighbors=short)

    @pytest.mark.parametrize("redo", [
        lambda ds: split_dataset(ds, seed=7),
        lambda ds: normalize_dataset(ds, fit_normalizer(ds)),
    ], ids=["split", "normalize"])
    def test_ansr_needs_neighbors_after_a_resplit_or_renormalize(self, lin_ds, redo):
        ds = redo(with_neighbors(lin_ds))
        assert ds.neighbors is None
        with pytest.raises(ConfigError, match="needs precomputed neighbors"):
            train(ds, DefenseConfig(kind="ansr"), TrainConfig(epochs=1), 0)

    def test_ansr_deterministic_with_neighbors(self, lin_ds):
        ds = with_neighbors(lin_ds)
        cfg = TrainConfig(learning_rate=0.01, epochs=10)
        d = DefenseConfig(kind="ansr", beta=1.0, lam=1.0, n_samples=16)
        n1, _ = train(ds, d, cfg, 2)
        n2, _ = train(ds, d, cfg, 2)
        assert np.array_equal(params_to_vector(n1), params_to_vector(n2))

    def test_strong_stability_penalty_flattens_predictions(self, lin_ds):
        # A large penalty weight should visibly shrink the prediction spread
        # relative to an unpenalized run from the same seed.
        cfg = TrainConfig(learning_rate=0.01, epochs=300)
        flat, _ = train(
            with_neighbors(lin_ds),
            DefenseConfig(kind="ansr", beta=4.0, lam=500.0, n_samples=32),
            cfg,
            1,
        )
        free, _ = train(lin_ds, DefenseConfig(kind="none"), cfg, 1)
        X = lin_ds.features
        assert np.std(forward(flat, X)) < 0.5 * np.std(forward(free, X))

    def test_divergence_aborts_with_step_info(self, lin_ds):
        cfg = TrainConfig(learning_rate=1e160, epochs=5)
        with (pytest.warns(RuntimeWarning),
              pytest.raises(TrainingDiverged, match=r"epoch \d+, step \d+")):
            train(lin_ds, DefenseConfig(kind="none"), cfg, 0)

    def test_divergence_after_a_resume_names_the_absolute_epoch_and_step(self):
        # On these positive inputs the one hidden unit is dead, so only b2 moves, and
        # the sigmoid head keeps every loss finite: Adam carries b2 up by 1, 1.67 and
        # 2.19 x lr, and theta overflows at step 3, the first step of epoch 2.
        X = np.random.default_rng(0).uniform(0.5, 1, size=(60, 1))
        ds = split_dataset(Dataset(features=X, targets=np.ones(60), split=None,
                                   target_bounded_01=True), seed=1)
        cfg = TrainConfig(learning_rate=1e308, batch_size=20, epochs=5, hidden_dim=1)
        none = DefenseConfig(kind="none")
        with np.errstate(over="ignore"):
            with pytest.raises(TrainingDiverged, match=r"parameters at epoch 2, step 3$"):
                train(ds, none, cfg, 1)
            state = start_training(ds, none, cfg, 1)
            assert state.net.w1[0, 0] < 0
            assert len(run_epochs(state, 1)) == 1
            assert state.epoch == 1 and np.isfinite(state.v).all()
            with pytest.raises(TrainingDiverged, match=r"parameters at epoch 2, step 3$"):
                run_epochs(state, cfg.epochs - 1)

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
            train(ds, DefenseConfig(kind="none"), cfg, 0)

    def test_sigmoid_output_for_bounded_targets(self):
        ds = bounded_dataset()
        net, _ = train(ds, DefenseConfig(kind="none"), TrainConfig(epochs=5), 0)
        assert net.output_activation == "sigmoid"
        out = forward(net, ds.features)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


HEADS = {"identity": with_neighbors(linear_dataset(n=60)),
         "sigmoid": with_neighbors(bounded_dataset())}


@st.composite
def cut_runs(draw):
    """A run length in epochs and one to three distinct epochs to cut it at."""
    epochs = draw(st.integers(2, 6))
    cuts = draw(st.lists(st.integers(1, epochs - 1), min_size=1, max_size=3, unique=True))
    return epochs, sorted(cuts)


def _state_fields(state):
    return (state.theta, state.m, state.v, state.epoch, state.history,
            state.rng_shuffle.bit_generator.state,
            None if state.rng_penalty is None else state.rng_penalty.bit_generator.state)


class TestResume:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(DEFENSE_KINDS), head=st.sampled_from(sorted(HEADS)),
           run=cut_runs(), seed=st.integers(0, 2**16))
    def test_cut_run_is_the_uninterrupted_run(self, kind, head, run, seed):
        epochs, cuts = run
        ds = HEADS[head]
        defense = DefenseConfig(kind=kind, n_samples=8)
        cfg = TrainConfig(learning_rate=0.01, batch_size=16, epochs=epochs)
        whole = start_training(ds, defense, cfg, seed)
        whole_history = run_epochs(whole, epochs)
        cut = start_training(ds, defense, cfg, seed)
        history = []
        for lo, hi in zip([0, *cuts], [*cuts, epochs]):
            history += run_epochs(cut, hi - lo)
        assert history == whole_history
        for a, b in zip(_state_fields(cut), _state_fields(whole)):
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        assert cut.epoch == epochs
        assert cut.net.output_activation == ("sigmoid" if head == "sigmoid" else "identity")

    def test_train_is_one_run_of_all_epochs(self, lin_ds):
        cfg = TrainConfig(learning_rate=0.01, epochs=7)
        defense = DefenseConfig(kind="grad_reg")
        net, history = train(lin_ds, defense, cfg, 3)
        state = start_training(lin_ds, defense, cfg, 3)
        assert run_epochs(state, cfg.epochs) == history
        assert np.array_equal(state.theta, params_to_vector(net))
        assert state.epoch == 7 and state.history == history

    def test_zero_epochs_leave_the_state_as_it_was(self, lin_ds):
        defense = DefenseConfig(kind="ansr", n_samples=4)
        ds = with_neighbors(lin_ds)
        state = start_training(ds, defense, TrainConfig(epochs=3), 0)
        run_epochs(state, 1)
        before = copy.deepcopy(_state_fields(state))
        assert run_epochs(state, 0) == []
        for a, b in zip(_state_fields(state), before):
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b

    def test_every_weight_is_a_view_of_theta(self, lin_ds):
        state = start_training(lin_ds, DefenseConfig(kind="none"), TrainConfig(), 0)
        X = lin_ds.features[:5]
        before = forward(state.net, X)
        state.theta[-1] += 1.0  # b2 moves every prediction of the identity head
        assert np.array_equal(forward(state.net, X), before + 1.0)
        state.theta[:] = 0.0
        assert np.array_equal(forward(state.net, X), np.zeros(5))
        assert state.net.b2.shape == () and state.net.b2.base is state.theta

    def test_the_state_holds_its_dataset_and_defense(self, lin_ds):
        defense = DefenseConfig(kind="grad_reg")
        state = start_training(lin_ds, defense, TrainConfig(), 0)
        assert state.dataset is lin_ds and state.defense is defense

    def test_run_inputs_cannot_be_reassigned(self, lin_ds):
        state = start_training(lin_ds, DefenseConfig(kind="none"), TrainConfig(), 0)
        for name, value in [("defense", DefenseConfig(kind="ansr")),
                            ("dataset", with_neighbors(lin_ds)),
                            ("cfg", TrainConfig(learning_rate=1.0))]:
            with pytest.raises(FrozenInstanceError):
                setattr(state, name, value)
        assert state.defense.kind == "none" and state.dataset is lin_ds
        assert state.cfg == TrainConfig()

    def test_seed_is_an_argument_not_a_config_field(self):
        with pytest.raises(TypeError, match="seed"):
            TrainConfig(seed=1)

    def test_empty_train_split_rejected_before_the_first_step(self, lin_ds):
        no_train = replace(lin_ds, split=np.where(lin_ds.split == 0, 1, lin_ds.split))
        with pytest.raises(ConfigError, match="train split is empty"):
            start_training(no_train, DefenseConfig(kind="none"), TrainConfig(), 0)

    @pytest.mark.parametrize("epochs", [2.5, 1.0, True, -1, "2", None])
    def test_bad_epoch_count_rejected(self, lin_ds, epochs):
        state = start_training(lin_ds, DefenseConfig(kind="none"), TrainConfig(), 0)
        with pytest.raises(ConfigError, match="epochs must be"):
            run_epochs(state, epochs)
        assert state.epoch == 0 and not state.m.any()


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
    state = start_training(lin_ds, DefenseConfig(kind="none"), cfg, 0)
    assert len(run_epochs(state, cfg.epochs)) == 2
    assert state.epoch == 2


class TestSearchSpace:
    def test_defaults(self):
        assert SearchSpace().n_trials == 20

    def test_bad_objective_rejected(self):
        with pytest.raises(ConfigError, match="objective must be one of"):
            SearchSpace(objective="test_mse")


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


class TestDrawTrials:
    def test_trial_i_draws_from_its_own_stream(self):
        base = DefenseConfig(kind="combined", n_samples=7)
        trials = draw_trials(base, 4, 21)
        assert trials == [
            (sample_defense_config(base, np.random.default_rng(derive_seed(21, "sample", i))),
             "sampled")
            for i in range(4)]
        assert all(config.n_samples == 7 for config, _ in trials)

    def test_a_longer_draw_extends_a_shorter_one(self):
        assert draw_trials(PSEUDO_HUBER, 5, 3)[:2] == draw_trials(PSEUDO_HUBER, 2, 3)

    @pytest.mark.parametrize("n_trials", [2.5, True])
    def test_count_must_be_an_integer(self, n_trials):
        with pytest.raises(ConfigError, match=rf"^n_trials must be an integer, got {n_trials}$"):
            draw_trials(PSEUDO_HUBER, n_trials, 3)


class TestRandomSearch:
    def test_single_trial_returns_it_and_logs(self, lin_ds):
        cfg = TrainConfig(learning_rate=0.01, epochs=60)
        best, records = random_search(lin_ds, draw_trials(PSEUDO_HUBER, 1, 3), 3, cfg, None)
        assert len(records) == 1
        assert records[0] is best
        assert np.isfinite(records[0].value)
        assert records[0].source == "sampled"

    def test_log_is_complete_and_deterministic(self, lin_ds):
        cfg = TrainConfig(learning_rate=0.01, epochs=40)
        trials = draw_trials(PSEUDO_HUBER, 3, 7)
        _, r1 = random_search(lin_ds, trials, 7, cfg, None)
        _, r2 = random_search(lin_ds, trials, 7, cfg, None)
        assert [r.value for r in r1] == [r.value for r in r2]
        assert [r.config for r in r1] == [r.config for r in r2]
        assert [r.trial for r in r1] == [0, 1, 2]

    def test_argmin_selected(self, lin_ds):
        cfg = TrainConfig(learning_rate=0.01, epochs=40)
        best, records = random_search(lin_ds, draw_trials(PSEUDO_HUBER, 4, 11), 11, cfg, None)
        vals = [r.value for r in records]
        assert best is records[int(np.argmin(vals))]

    def test_scores_exactly_the_given_trials(self, lin_ds):
        # A hand-built list is scored as given: its configs and sources in order,
        # trial k trained from derive_seed(seed, "trial", k), and nothing drawn.
        cfg = TrainConfig(learning_rate=0.01, epochs=20)
        trials = [(replace(PSEUDO_HUBER, delta=2.5), "injected"),
                  (replace(PSEUDO_HUBER, delta=0.5), "sampled"),
                  (replace(PSEUDO_HUBER, delta=2.5), "injected")]
        _, records = random_search(lin_ds, trials, 5, cfg, None)
        assert [(r.config, r.source) for r in records] == trials
        assert [r.trial for r in records] == [0, 1, 2]
        assert [r.train_seed for r in records] == [derive_seed(5, "trial", k) for k in range(3)]
        net, _ = train(lin_ds, trials[1][0], cfg, records[1].train_seed)
        assert records[1].value == split_mse(net, lin_ds, VAL, None)
        # The same config under another train seed trains another model.
        assert records[0].value != records[2].value

    def test_empty_trial_list_rejected(self, lin_ds):
        with pytest.raises(ConfigError, match="there is no trial to score"):
            random_search(lin_ds, [], 0, TrainConfig(epochs=1), None)

    def test_adversarial_objective_prefers_stability(self):
        # A wiggly noisy target makes the unregularized net steep. The two
        # objectives must disagree about the injected candidates: the attacked
        # one picks the stabilized config, the clean one the unregularized.
        rng = np.random.default_rng(42)
        X = rng.uniform(-2, 2, size=(120, 2))
        y = np.sin(2.0 * X[:, 0]) + 0.5 * X[:, 1] + 0.3 * rng.normal(size=120)
        ds = Dataset(features=X, targets=y, split=None, name="wiggle")
        ds = split_dataset(ds, (0.6, 0.2, 0.2), seed=3)
        ds = with_neighbors(normalize_dataset(ds, fit_normalizer(ds)))
        weak = DefenseConfig(kind="ansr", lam=0.001, beta=2.0, n_samples=16)
        strong = DefenseConfig(kind="ansr", lam=2.0, beta=2.0, n_samples=16)
        cfg = TrainConfig(learning_rate=0.01, batch_size=16, epochs=200, hidden_dim=12)
        attack = AttackConfig(kind="pgd", epsilon=0.05, rho=0.2, steps=10)
        trials = ([(weak, "injected"), (strong, "injected")]
                  + draw_trials(DefenseConfig(kind="ansr", n_samples=16), 1, 5))
        picks = {}
        for objective, tuning_attack in (("val_mse_pgd", attack), ("val_mse_clean", None)):
            best, _ = random_search(ds, trials, 5, cfg, tuning_attack)
            picks[objective] = best.config.lam
        assert picks["val_mse_pgd"] == strong.lam
        assert picks["val_mse_clean"] == weak.lam

    def test_all_diverged_raises_with_log(self, lin_ds):
        cfg = TrainConfig(learning_rate=1e160, epochs=2)
        with pytest.warns(RuntimeWarning), pytest.raises(SearchFailed) as exc_info:
            random_search(lin_ds, draw_trials(PSEUDO_HUBER, 2, 1), 1, cfg, None)
        assert len(exc_info.value.trials) == 2
        assert all(np.isnan(r.value) for r in exc_info.value.trials)

    def test_jobs_do_not_change_results(self, lin_ds):
        cfg = TrainConfig(learning_rate=0.01, epochs=30)
        trials = draw_trials(PSEUDO_HUBER, 3, 13)
        _, serial = random_search(lin_ds, trials, 13, cfg, None, jobs=1)
        _, par = random_search(lin_ds, trials, 13, cfg, None, jobs=2)
        assert [r.value for r in serial] == [r.value for r in par]
