"""Minibatch Adam training and random-search hyperparameter tuning.

A training run is a TrainState: start_training builds it and run_epochs
advances it by whole epochs, so a run can be stopped, inspected and resumed.
train is the two in one call.
"""
import ctypes
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import data as data_mod
from .attacks import DEFAULT_PGD, AttackConfig, apply_attack
from .defenses import DefenseConfig, batch_loss_grad
from .errors import (ConfigError, DataError, DimensionError, SearchFailed, TrainingDiverged,
                     check_count)
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
    seed: int = 0
    hidden_dim: int | None = None  # None: hidden layer as wide as the input

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        check_count("batch_size", self.batch_size)
        check_count("epochs", self.epochs)
        if self.hidden_dim is not None:
            check_count("hidden_dim", self.hidden_dim)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, n: int):
        return cls(m=np.zeros(n), v=np.zeros(n))


def adam_step(params, grads, state: AdamState, t: int, cfg: TrainConfig):
    """One bias-corrected Adam update. t is 1-based. Pure: returns new arrays."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise DimensionError(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, state {state.m.shape}"
        )
    if t < 1:
        raise ConfigError(f"adam step index must be >= 1, got {t}")
    # In place on fresh arrays only, in the formula's operation order: the same bits.
    m = ADAM_BETA1 * state.m
    m += (1.0 - ADAM_BETA1) * grads
    v = (1.0 - ADAM_BETA2) * grads
    v *= grads
    v += ADAM_BETA2 * state.v
    step = cfg.learning_rate * (m / (1.0 - ADAM_BETA1**t))  # lr * m_hat
    denom = v / (1.0 - ADAM_BETA2**t)  # v_hat
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    return params - step, AdamState(m=m, v=v)


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


@dataclass
class TrainState:
    """A training run between epochs, as start_training builds it and run_epochs advances it.

    net's w1, b1 and w2 are views of theta, which each Adam step overwrites,
    and b2 is copied from it. step counts the Adam steps taken and epoch the
    epochs completed, both from the start. The generators go on where the
    last epoch left them; rng_penalty is None unless the defense the run was
    started under draws stability perturbations.
    """

    cfg: TrainConfig
    net: RegressionNet
    theta: np.ndarray
    adam: AdamState
    rng_shuffle: np.random.Generator
    rng_penalty: np.random.Generator | None
    step: int = 0
    epoch: int = 0


def start_training(dataset, defense: DefenseConfig, cfg: TrainConfig) -> TrainState:
    """A fresh network for dataset's features, seeded from cfg, before its first epoch."""
    activation = "sigmoid" if dataset.target_bounded_01 else "identity"
    rng_init = np.random.default_rng(derive_seed(cfg.seed, "init"))
    net = initialize(dataset.features.shape[1], rng_init, hidden_dim=cfg.hidden_dim,
                     output_activation=activation)
    theta = params_to_vector(net)
    return TrainState(
        cfg=cfg,
        net=vector_to_net(net, theta),
        theta=theta,
        adam=AdamState.zeros(theta.size),
        rng_shuffle=np.random.default_rng(derive_seed(cfg.seed, "shuffle")),
        rng_penalty=(np.random.default_rng(derive_seed(cfg.seed, "penalty"))
                     if defense.needs_neighbors else None),
    )


def run_epochs(
    state: TrainState,
    dataset,
    defense: DefenseConfig,
    epochs: int,
    neighbors: data_mod.Neighbors | None = None,
):
    """Train state's network for epochs more epochs on the train split; returns their mean losses.

    Each mean is the full defended objective, averaged over minibatches by
    size. Fresh stability perturbations are drawn for every minibatch step.
    A run cut into several calls is the uninterrupted run bit for bit.
    Aborts with TrainingDiverged, naming the epoch and step counted from the
    start, the moment the loss, the parameters or Adam's second moment go
    non-finite; the state is then spent. glibc is first set to reuse freed
    arrays, so a library caller trains as fast as the CLI.
    """
    check_count("epochs", epochs, minimum=0)
    _, X, Y = dataset.part(data_mod.TRAIN)
    n = len(Y)
    if n < 1:
        raise ConfigError("train split is empty")
    net = state.net
    if X.shape[1] != net.input_dim:
        raise DimensionError(f"the train split has {X.shape[1]} features, the net {net.input_dim}")

    if defense.needs_neighbors:
        if neighbors is None:
            raise ConfigError(f"defense {defense.kind!r} needs precomputed neighbors")
        if len(neighbors.distance) != n:
            raise DataError(f"neighbors cover {len(neighbors.distance)} rows, the train split {n}")
        if state.rng_penalty is None:
            raise ConfigError(f"defense {defense.kind!r} draws perturbations; this run was "
                              "started under a defense that does not")
        nn_d, gaps = neighbors.distance, neighbors.label_gap
    else:
        nn_d = gaps = None

    _reuse_freed_arrays()
    # Held in locals, so a step reads no attributes; written back after the loop.
    cfg, theta, adam, t = state.cfg, state.theta, state.adam, state.step
    rng_shuffle, rng_penalty = state.rng_shuffle, state.rng_penalty
    bs = int(cfg.batch_size)
    history = []
    for epoch in range(state.epoch, state.epoch + epochs):
        order = rng_shuffle.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, bs):
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
            new_theta, adam = adam_step(theta, grad, adam, t, cfg)
            if not np.isfinite(new_theta).all():
                raise TrainingDiverged(f"non-finite parameters at epoch {epoch + 1}, step {t}")
            if not math.isfinite(adam.v.max()):  # an inf v would freeze its coordinate
                raise TrainingDiverged(f"non-finite Adam second moment at epoch {epoch + 1}, "
                                       f"step {t}")
            theta[...] = new_theta
            net.b2 = float(theta[-1])
            epoch_loss += loss * len(idx)
        history.append(epoch_loss / n)
    state.adam, state.step, state.epoch = adam, t, state.epoch + epochs
    return history


def train(
    dataset,
    defense: DefenseConfig,
    cfg: TrainConfig,
    neighbors: data_mod.Neighbors | None = None,
):
    """Train a fresh network on the train split under the given defense.

    start_training, then run_epochs for cfg.epochs epochs. Returns (net,
    history) where history is run_epochs' per-epoch mean training loss.
    """
    state = start_training(dataset, defense, cfg)
    return state.net, run_epochs(state, dataset, defense, cfg.epochs, neighbors=neighbors)


# The uniform interval each defense hyperparameter is drawn from.
SEARCH_RANGES = {"delta": (0.01, 16.0), "sigma": (0.01, 16.0),
                 "beta": (0.5, 8.0), "lam": (0.1, 10.0)}


@dataclass(frozen=True)
class SearchSpace:
    """The trial count and the validation objective the trials are scored by;
    each trial draws its params from SEARCH_RANGES."""

    n_trials: int = 20
    objective: str = "val_mse_pgd"  # one of OBJECTIVES

    def __post_init__(self):
        check_count("n_trials", self.n_trials)
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")


def sample_defense_config(base: DefenseConfig, rng) -> DefenseConfig:
    """base with each of its kind's params drawn uniformly from SEARCH_RANGES, in order."""
    draws = {name: float(rng.uniform(*SEARCH_RANGES[name])) for name in base.params}
    return replace(base, **draws)


@dataclass
class TrialRecord:
    trial: int
    source: str  # "injected" or "sampled"
    config: DefenseConfig
    value: float  # validation objective; NaN if training diverged
    train_seed: int


def _objective_value(net: RegressionNet, dataset, objective: str, attack: AttackConfig) -> float:
    _, Xv, Yv = dataset.part(data_mod.VAL)
    if objective == "val_mse_pgd":
        Xv = apply_attack(net, Xv, Yv, attack)
    return mse(Yv, forward(net, Xv))


def random_search(
    dataset,
    base: DefenseConfig,
    space: SearchSpace,
    seed: int,
    train_cfg: TrainConfig,
    neighbors: data_mod.Neighbors | None = None,
    attack: AttackConfig = DEFAULT_PGD,
    candidates=(),
    jobs: int = 1,
):
    """Uniform random search over the params of base's defense kind.

    A sampled trial is base with those params drawn, so n_samples comes from
    base. Trains one model per trial (seeded from seed, so train_cfg's own
    seed is not read), scores it on the validation split by space.objective,
    and returns (best, records) where records logs every trial and best is
    the record of the winning trial. Ties go to the earliest trial. Explicit
    candidate configs, if given, are evaluated before the sampled ones.
    Raises SearchFailed (carrying the log) if every trial diverged.
    """
    configs = [(c, "injected") for c in candidates]
    for i in range(space.n_trials):
        rng = np.random.default_rng(derive_seed(seed, "sample", i))
        configs.append((sample_defense_config(base, rng), "sampled"))

    records = [
        TrialRecord(trial=k, source=source, config=config, value=float("nan"),
                    train_seed=derive_seed(seed, "trial", k))
        for k, (config, source) in enumerate(configs)
    ]

    def score(rec: TrialRecord) -> float:
        try:
            net, _ = train(dataset, rec.config, replace(train_cfg, seed=rec.train_seed),
                           neighbors=neighbors)
        except TrainingDiverged:
            return float("nan")
        return _objective_value(net, dataset, space.objective, attack)

    for rec, value in zip(records, pmap(score, records, jobs=jobs)):
        rec.value = float(value)

    finite = [r for r in records if np.isfinite(r.value)]
    if not finite:
        raise SearchFailed(f"all {len(records)} search trials diverged for kind {base.kind!r}", records)
    best = min(finite, key=lambda r: (r.value, r.trial))
    return best, records
