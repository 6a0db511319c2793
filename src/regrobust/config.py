"""Experiment configuration: one JSON file describing a full run.

Every knob has a default matching the standard evaluation protocol, so a
minimal config only needs the dataset block. Validation errors name the
offending field path.
"""
import json
from dataclasses import dataclass, field

from .attacks import AttackConfig
from .defenses import DEFENSE_KINDS, DefenseConfig
from .errors import ConfigError
from .training import OBJECTIVES, SearchSpace, TrainConfig


@dataclass(frozen=True)
class DatasetSpec:
    path: str
    target_column: str
    name: str = "dataset"
    target_bounded_01: bool = False
    missing: str = "error"


@dataclass(frozen=True)
class DefenseEntry:
    """One defense to evaluate; tune=True replaces its params via search."""

    config: DefenseConfig
    tune: bool = False

    @property
    def label(self) -> str:
        return self.config.kind


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec
    out_dir: str = "out"
    fractions: tuple = (0.6, 0.2, 0.2)
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    search: SearchSpace = field(default_factory=SearchSpace)
    objective: str = "val_mse_pgd"
    defenses: list = field(default_factory=list)
    attacks: list = field(default_factory=list)
    n_samples: int = 100
    n_seeds: int = 6
    jobs: int = 1


def _typed(doc: dict, key: str, types, path: str, default):
    """Fetch doc[key] with a type check; _REQUIRED marks mandatory fields."""
    if key not in doc:
        if default is _REQUIRED:
            raise ConfigError(f"{path}.{key}: required field is missing")
        return default
    v = doc[key]
    if types is float and isinstance(v, int) and not isinstance(v, bool):
        v = float(v)
    if not isinstance(v, types) or isinstance(v, bool) and types is not bool:
        raise ConfigError(f"{path}.{key}: expected {getattr(types, '__name__', types)}, got {v!r}")
    return v


class _Required:
    pass


_REQUIRED = _Required()


def _floats(values, path: str) -> tuple:
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: expected numbers, got {values!r}") from e


def _parse_pair(doc, key, path, default):
    v = doc.get(key)
    if v is None:
        return default
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ConfigError(f"{path}.{key}: expected [lo, hi], got {v!r}")
    return _floats(v, f"{path}.{key}")


def _parse_dataset(doc, path="dataset") -> DatasetSpec:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object, got {doc!r}")
    return DatasetSpec(
        path=_typed(doc, "path", str, path, _REQUIRED),
        target_column=_typed(doc, "target_column", str, path, _REQUIRED),
        name=_typed(doc, "name", str, path, "dataset"),
        target_bounded_01=_typed(doc, "target_bounded_01", bool, path, False),
        missing=_typed(doc, "missing", str, path, "error"),
    )


def _parse_train(doc, path="train") -> TrainConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object, got {doc!r}")
    base = TrainConfig()
    try:
        return TrainConfig(
            learning_rate=_typed(doc, "learning_rate", float, path, base.learning_rate),
            batch_size=_typed(doc, "batch_size", int, path, base.batch_size),
            epochs=_typed(doc, "epochs", int, path, base.epochs),
            adam_beta1=_typed(doc, "adam_beta1", float, path, base.adam_beta1),
            adam_beta2=_typed(doc, "adam_beta2", float, path, base.adam_beta2),
            adam_eps=_typed(doc, "adam_eps", float, path, base.adam_eps),
            seed=_typed(doc, "seed", int, path, base.seed),
            hidden_dim=_typed(doc, "hidden_dim", int, path, None),
        )
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def _parse_search(doc, path="search"):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object, got {doc!r}")
    base = SearchSpace()
    objective = _typed(doc, "objective", str, path, "val_mse_pgd")
    if objective not in OBJECTIVES:
        raise ConfigError(f"{path}.objective: must be one of {OBJECTIVES}, got {objective!r}")
    space = SearchSpace(
        delta=_parse_pair(doc, "delta", path, base.delta),
        sigma=_parse_pair(doc, "sigma", path, base.sigma),
        beta=_parse_pair(doc, "beta", path, base.beta),
        lam=_parse_pair(doc, "lambda", path, base.lam),
        n_trials=_typed(doc, "n_trials", int, path, base.n_trials),
    )
    return space, objective


def parse_defense_config(doc, path: str, n_samples: int = 100) -> DefenseConfig:
    """Build a DefenseConfig from a JSON object like {"kind": ..., "beta": ...}."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object, got {doc!r}")
    kind = _typed(doc, "kind", str, path, _REQUIRED)
    if kind not in DEFENSE_KINDS:
        raise ConfigError(f"{path}.kind: must be one of {DEFENSE_KINDS}, got {kind!r}")
    base = DefenseConfig(kind=kind, n_samples=n_samples)
    try:
        return DefenseConfig(
            kind=kind,
            delta=_typed(doc, "delta", float, path, base.delta),
            sigma=_typed(doc, "sigma", float, path, base.sigma),
            lam=_typed(doc, "lambda", float, path, base.lam),
            beta=_typed(doc, "beta", float, path, base.beta),
            n_samples=_typed(doc, "n_samples", int, path, base.n_samples),
            norm_p=_typed(doc, "norm_p", str, path, base.norm_p),
        )
    except ConfigError as e:
        if str(e).startswith(path):
            raise
        raise ConfigError(f"{path}: {e}") from e


def defense_config_to_dict(cfg: DefenseConfig) -> dict:
    return {
        "kind": cfg.kind,
        "delta": cfg.delta,
        "sigma": cfg.sigma,
        "lambda": cfg.lam,
        "beta": cfg.beta,
        "n_samples": cfg.n_samples,
        "norm_p": cfg.norm_p,
    }


def _parse_attack(doc, path) -> AttackConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object, got {doc!r}")
    kind = _typed(doc, "kind", str, path, _REQUIRED)
    base = AttackConfig(kind="pgd")
    try:
        return AttackConfig(
            kind=kind,
            epsilon=_typed(doc, "epsilon", float, path, base.epsilon),
            rho=_typed(doc, "rho", float, path, base.rho),
            steps=_typed(doc, "steps", int, path, base.steps),
        )
    except ConfigError as e:
        if str(e).startswith(path):
            raise
        raise ConfigError(f"{path}: {e}") from e


def load_experiment_config(path) -> ExperimentConfig:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path}: top level must be an object")

    dataset = _parse_dataset(_typed(doc, "dataset", dict, "config", _REQUIRED))
    fractions = doc.get("fractions", [0.6, 0.2, 0.2])
    if not (isinstance(fractions, (list, tuple)) and len(fractions) == 3):
        raise ConfigError(f"config.fractions: expected 3 numbers, got {fractions!r}")
    fractions = _floats(fractions, "config.fractions")
    n_samples = _typed(doc, "n_samples", int, "config", 100)
    search, objective = _parse_search(doc.get("search", {}))

    defense_docs = doc.get("defenses", [{"kind": "none"}])
    if not isinstance(defense_docs, list) or not defense_docs:
        raise ConfigError("config.defenses: expected a non-empty list")
    defenses = []
    seen = set()
    for i, entry in enumerate(defense_docs):
        path_i = f"defenses[{i}]"
        cfg = parse_defense_config(entry, path_i, n_samples=n_samples)
        if cfg.kind in seen:
            raise ConfigError(f"{path_i}.kind: duplicate defense kind {cfg.kind!r}")
        seen.add(cfg.kind)
        defenses.append(DefenseEntry(config=cfg, tune=_typed(entry, "tune", bool, path_i, False)))

    attack_docs = doc.get("attacks", [{"kind": "none"}])
    if not isinstance(attack_docs, list) or not attack_docs:
        raise ConfigError("config.attacks: expected a non-empty list")
    attacks = []
    seen = set()
    for i, entry in enumerate(attack_docs):
        cfg = _parse_attack(entry, f"attacks[{i}]")
        if cfg.kind in seen:
            raise ConfigError(f"attacks[{i}].kind: duplicate attack kind {cfg.kind!r}")
        seen.add(cfg.kind)
        attacks.append(cfg)

    n_seeds = _typed(doc, "n_seeds", int, "config", 6)
    if n_seeds < 1:
        raise ConfigError(f"config.n_seeds: must be >= 1, got {n_seeds}")
    jobs = _typed(doc, "jobs", int, "config", 1)
    if jobs < 1:
        raise ConfigError(f"config.jobs: must be >= 1, got {jobs}")

    return ExperimentConfig(
        dataset=dataset,
        out_dir=_typed(doc, "out_dir", str, "config", "out"),
        fractions=fractions,
        seed=_typed(doc, "seed", int, "config", 0),
        train=_parse_train(doc.get("train", {})),
        search=search,
        objective=objective,
        defenses=defenses,
        attacks=attacks,
        n_samples=n_samples,
        n_seeds=n_seeds,
        jobs=jobs,
    )
