"""Adversarial attacks and stability-regularized training for small regression nets."""
from .attacks import DEFAULT_FGSM, DEFAULT_PGD, AttackConfig, apply_attack, fgsm, pgd
from .data import (
    TEST,
    TRAIN,
    VAL,
    Dataset,
    Neighbors,
    Normalizer,
    apply_normalizer,
    compute_neighbors,
    fit_normalizer,
    load_csv,
    load_dataset_cache,
    nearest_train_distance,
    normalize_dataset,
    save_dataset_cache,
    split_dataset,
)
from .defenses import DefenseConfig, batch_loss_grad
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    NonFiniteError,
    RegrobustError,
    SearchFailed,
    TrainingDiverged,
)
from .losses import mse, pseudo_huber
from .nn import (
    RegressionNet,
    forward,
    initialize,
    input_gradient,
    params_to_vector,
    vector_to_net,
)
from .evaluation import (
    AggregateRecord,
    CellRecord,
    PointRecord,
    aggregate,
    evaluate_cell,
    perturbation_profile,
    train_models,
)
from .seeding import derive_seed
from .training import (
    AdamState,
    SearchSpace,
    TrainConfig,
    TrainState,
    adam_step,
    random_search,
    run_epochs,
    sample_defense_config,
    split_mse,
    start_training,
    train,
)

__version__ = "0.1.0"
