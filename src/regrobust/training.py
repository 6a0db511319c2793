"""Minibatch Adam training, and a search that scores the trials it is given.

A training run is a TrainState, which holds all the run reads and its
progress: start_training builds it from a prepared dataset, a defense, a
TrainConfig and a seed, and run_epochs(state, epochs) advances it in place,
so a run can be stopped, inspected and resumed. train is the two in one call.
split_mse scores a net on one split; draw_trials draws a search's trials.
"""
import ctypes
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import data as data_mod
from .attacks import AttackConfig, apply_attack
from .defenses import DefenseConfig, batch_loss_grad
from .errors import ConfigError, DimensionError, SearchFailed, TrainingDiverged, check_count
from .losses import mse
from .nn import RegressionNet, forward, initialize, params_to_vector, vector_to_net
from .parallel import pmap
from .seeding import derive_seed

OBJECTIVES = ("val_mse_clean", "val_mse_pgd")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 200
    hidden_dim: int | None = None  # None: hidden layer as wide as the input

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        check_count("batch_size", self.batch_size)
        check_count("epochs", self.epochs)
        if self.hidden_dim is not None:
            check_count("hidden_dim", self.hidden_dim)


def adam_step(theta, grad, m, v, t: int, lr: float) -> None:
    """One bias-corrected Adam update of theta and its moments m and v, in place, by grad;
    t is 1-based. Each array is updated in the formula's operation order: the same bits."""
    if not theta.shape == grad.shape == m.shape == v.shape:
        raise DimensionError(f"shape mismatch: theta {theta.shape}, grad {grad.shape}, "
                             f"m {m.shape}, v {v.shape}")
    if t < 1:
        raise ConfigError(f"adam step index must be >= 1, got {t}")
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    g2 = (1.0 - ADAM_BETA2) * grad
    g2 *= grad
    v *= ADAM_BETA2
    v += g2
    step = lr * (m / (1.0 - ADAM_BETA1**t))  # lr * m_hat
    denom = v / (1.0 - ADAM_BETA2**t)  # v_hat
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    theta -= step


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameter numbers
_MMAP_THRESHOLD = 32 << 20  # glibc's cap for its own dynamic threshold on 64-bit


def _reuse_freed_arrays() -> None:
    """Let glibc reuse the large temporaries that every training step frees.

    By default glibc maps each one afresh or trims the heap after it, and
    raises those thresholds only once some large block happens to be freed,
    so a stage's speed depended on what ran before it. This sets them as
    glibc's own rule would (trim = 2 x mmap). Linux only.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


@dataclass(frozen=True, eq=False)
class TrainState:
    """A training run between epochs, as start_training builds it and run_epochs advances it.

    It trains on dataset's train split under defense, by cfg; none of its
    fields can be reassigned. run_epochs updates in place what they hold:
    theta, of which every weight of net is a view, Adam's moments m and v,
    the generators (rng_penalty is None unless defense draws stability
    perturbations) and history, one mean loss per epoch completed.
    """

    dataset: data_mod.Dataset
    defense: DefenseConfig
    cfg: TrainConfig
    net: RegressionNet
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    rng_shuffle: np.random.Generator
    rng_penalty: np.random.Generator | None
    history: list[float] = field(default_factory=list)

    @property
    def epoch(self) -> int:
        """The number of epochs completed."""
        return len(self.history)


def start_training(dataset, defense: DefenseConfig, cfg: TrainConfig, seed: int) -> TrainState:
    """A fresh network for dataset's features, every stream derived from seed, before its
    first epoch. Needs a train row, and dataset.neighbors if defense draws perturbations."""
    if len(dataset.rows(data_mod.TRAIN)) < 1:
        raise ConfigError("train split is empty")
    if defense.needs_neighbors and dataset.neighbors is None:
        raise ConfigError(f"defense {defense.kind!r} needs precomputed neighbors")
    activation = "sigmoid" if dataset.target_bounded_01 else "identity"
    rng_init = np.random.default_rng(derive_seed(seed, "init"))
    net = initialize(dataset.features.shape[1], rng_init, hidden_dim=cfg.hidden_dim,
                     output_activation=activation)
    theta = params_to_vector(net)
    return TrainState(
        dataset=dataset,
        defense=defense,
        cfg=cfg,
        net=vector_to_net(net, theta),
        theta=theta,
        m=np.zeros(theta.size),
        v=np.zeros(theta.size),
        rng_shuffle=np.random.default_rng(derive_seed(seed, "shuffle")),
        rng_penalty=(np.random.default_rng(derive_seed(seed, "penalty"))
                     if defense.needs_neighbors else None),
    )


def run_epochs(state: TrainState, epochs: int):
    """Train state's network for epochs more epochs on its train split; appends their mean
    losses to state.history and returns them.

    Each mean is the full defended objective, averaged over minibatches by
    size. Fresh stability perturbations are drawn for every minibatch step,
    from the dataset's neighbors, if the defense draws them.
    A run cut into several calls is the uninterrupted run bit for bit.
    Aborts with TrainingDiverged, naming the epoch and step counted from the
    start, the moment the loss, the parameters or Adam's second moment go
    non-finite; the state is then spent. glibc is first set to reuse freed
    arrays, so a library caller trains as fast as the CLI.
    """
    check_count("epochs", epochs, minimum=0)
    _, X, Y = state.dataset.part(data_mod.TRAIN)
    n = len(Y)
    defense, neighbors = state.defense, state.dataset.neighbors
    nn_d, gaps = ((neighbors.distance, neighbors.label_gap) if defense.needs_neighbors
                  else (None, None))

    _reuse_freed_arrays()
    # Held in locals, so a step reads no attributes.
    net, theta, m, v, lr = state.net, state.theta, state.m, state.v, state.cfg.learning_rate
    rng_shuffle, rng_penalty = state.rng_shuffle, state.rng_penalty
    bs = int(state.cfg.batch_size)
    starts = range(0, n, bs)
    first = state.epoch
    t = first * len(starts)  # the Adam steps of the epochs already run, one per minibatch
    for epoch in range(first, first + epochs):
        order = rng_shuffle.permutation(n)
        epoch_loss = 0.0
        for start in starts:
            idx = order[start : start + bs]
            loss, grad = batch_loss_grad(
                net,
                X[idx],
                Y[idx],
                defense,
                rng=rng_penalty,
                nn_distances=None if nn_d is None else nn_d[idx],
                label_gaps=None if gaps is None else gaps[idx],
            )
            t += 1
            if not math.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch + 1}, step {t}")
            adam_step(theta, grad, m, v, t, lr)
            if not np.isfinite(theta).all():
                raise TrainingDiverged(f"non-finite parameters at epoch {epoch + 1}, step {t}")
            if not math.isfinite(v.max()):  # an inf v would freeze its coordinate
                raise TrainingDiverged(f"non-finite Adam second moment at epoch {epoch + 1}, "
                                       f"step {t}")
            epoch_loss += loss * len(idx)
        state.history.append(epoch_loss / n)
    return state.history[first:]


def train(dataset, defense: DefenseConfig, cfg: TrainConfig, seed: int):
    """Train a fresh network on the train split under the given defense.

    start_training, then run_epochs for cfg.epochs epochs. Returns (net,
    history) where history is run_epochs' per-epoch mean training loss.
    """
    state = start_training(dataset, defense, cfg, seed)
    return state.net, run_epochs(state, cfg.epochs)


def split_mse(net: RegressionNet, dataset, which: int, attack: AttackConfig | None) -> float:
    """MSE of net on one split of dataset, its rows attacked first unless attack is None."""
    _, X, Y = dataset.part(which)
    if attack is not None:
        X = apply_attack(net, X, Y, attack)
    return mse(Y, forward(net, X))


# The uniform interval each defense hyperparameter is drawn from.
SEARCH_RANGES = {"delta": (0.01, 16.0), "sigma": (0.01, 16.0),
                 "beta": (0.5, 8.0), "lam": (0.1, 10.0)}


@dataclass(frozen=True)
class SearchSpace:
    """The number of trials draw_trials draws and the validation objective they are
    scored by; ExperimentConfig.tuning_attack is the attack that objective uses."""

    n_trials: int = 20
    objective: str = OBJECTIVES[-1]  # one of OBJECTIVES; the PGD one by default

    def __post_init__(self):
        check_count("n_trials", self.n_trials)
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")


def sample_defense_config(base: DefenseConfig, rng) -> DefenseConfig:
    """base with each of its kind's params drawn uniformly from SEARCH_RANGES, in order."""
    draws = {name: float(rng.uniform(*SEARCH_RANGES[name])) for name in base.params}
    return replace(base, **draws)


def draw_trials(base: DefenseConfig, n_trials: int, seed: int) -> list:
    """n_trials (config, "sampled") pairs: trial i is sample_defense_config of base
    from its own stream, derived from seed and i. So n_samples comes from base."""
    check_count("n_trials", n_trials)
    return [(sample_defense_config(base, np.random.default_rng(derive_seed(seed, "sample", i))),
             "sampled") for i in range(n_trials)]


@dataclass
class TrialRecord:
    trial: int
    source: str  # as given with its config: "injected" or "sampled" in a tune
    config: DefenseConfig
    value: float  # validation objective; NaN if training diverged
    train_seed: int


def random_search(dataset, trials, seed: int, train_cfg: TrainConfig,
                  attack: AttackConfig | None, jobs: int = 1):
    """Train and score exactly the (config, source) pairs of trials, in order.

    Trial k trains one model by train_cfg from derive_seed(seed, "trial", k),
    its train_seed, and scores split_mse on the validation split under attack
    (clean if None). Returns (best, records): every trial's record, and the
    winner's, ties going to the earliest trial. Raises ConfigError if trials
    is empty, and SearchFailed (carrying the records) if every trial diverged.
    """
    records = [
        TrialRecord(trial=k, source=source, config=config, value=float("nan"),
                    train_seed=derive_seed(seed, "trial", k))
        for k, (config, source) in enumerate(trials)
    ]
    if not records:
        raise ConfigError("random_search: there is no trial to score")

    def score(rec: TrialRecord) -> float:
        try:
            net, _ = train(dataset, rec.config, train_cfg, rec.train_seed)
        except TrainingDiverged:
            return float("nan")
        return split_mse(net, dataset, data_mod.VAL, attack)

    for rec, value in zip(records, pmap(score, records, jobs=jobs)):
        rec.value = float(value)

    finite = [r for r in records if np.isfinite(r.value)]
    if not finite:
        raise SearchFailed(f"all {len(records)} search trials diverged for kind "
                           f"{records[0].config.kind!r}", records)
    best = min(finite, key=lambda r: (r.value, r.trial))
    return best, records
