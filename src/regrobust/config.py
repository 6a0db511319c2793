"""Experiment configuration: one JSON file describing a full run.

The config dataclasses are the schema. Each section (``dataset``, ``train``,
``search``, every ``defenses`` and ``attacks`` entry) is read field by field
from its dataclass: a key is a field name (``lam`` is spelled ``"lambda"``),
its value must match the field's annotation, and a missing key takes the
field's default. A key that names no field fails, so a typo never falls back
to a default unnoticed. Every default matches the standard evaluation
protocol, so a minimal config only needs the dataset block. Validation errors
start with the offending field path.
"""
import json
from dataclasses import MISSING, dataclass, field, fields

from .attacks import AttackConfig
from .defenses import DefenseConfig
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


_JSON_KEYS = {"lam": "lambda"}  # field name -> JSON key, where they differ


def _check(v, typ, where: str):
    """v checked against a field annotation; a float field also takes an int."""
    if typ is float and isinstance(v, int) and not isinstance(v, bool):
        v = float(v)
    if not isinstance(v, typ) or isinstance(v, bool) and typ is not bool:
        raise ConfigError(f"{where}: expected {getattr(typ, '__name__', typ)}, got {v!r}")
    return v


def _floats(values, where: str) -> tuple:
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: expected numbers, got {values!r}") from e


def _parse_pair(v, where: str) -> tuple:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ConfigError(f"{where}: expected [lo, hi], got {v!r}")
    return _floats(v, where)


def _section(cls, doc, path: str, extra=(), **defaults):
    """Build the config dataclass cls from the JSON object doc.

    Reads one key per field of cls. extra names keys the caller reads itself;
    any other key is an error. A missing key takes defaults[field] if given,
    else the field's own default.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object, got {doc!r}")
    specs = {_JSON_KEYS.get(f.name, f.name): f for f in fields(cls)}
    for key in doc:
        if key not in specs and key not in extra:
            raise ConfigError(f"{path}.{key}: unknown field")
    kwargs = {}
    for key, f in specs.items():
        where = f"{path}.{key}"
        if key in doc:
            v = doc[key]
            kwargs[f.name] = _parse_pair(v, where) if f.type is tuple else _check(v, f.type, where)
        elif f.name in defaults:
            kwargs[f.name] = defaults[f.name]
        elif f.default is MISSING:
            raise ConfigError(f"{where}: required field is missing")
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def parse_defense_config(doc, path: str, n_samples: int = 100) -> DefenseConfig:
    """Build a DefenseConfig from a JSON object like {"kind": ..., "beta": ...}."""
    return _section(DefenseConfig, doc, path, n_samples=n_samples)


def defense_config_to_dict(cfg: DefenseConfig) -> dict:
    return {_JSON_KEYS.get(f.name, f.name): getattr(cfg, f.name) for f in fields(cfg)}


def _entries(doc, key: str, parse) -> list:
    """Parse a non-empty list of config entries whose kinds must be distinct."""
    docs = doc.get(key, [{"kind": "none"}])
    if not isinstance(docs, list) or not docs:
        raise ConfigError(f"config.{key}: expected a non-empty list")
    entries, seen = [], set()
    for i, entry in enumerate(docs):
        parsed = parse(entry, f"{key}[{i}]")
        kind = getattr(parsed, "config", parsed).kind
        if kind in seen:
            raise ConfigError(f"{key}[{i}].kind: duplicate {key[:-1]} kind {kind!r}")
        seen.add(kind)
        entries.append(parsed)
    return entries


# Top-level keys: every ExperimentConfig field but objective, which sits in search.
_TOP_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.name != "objective")


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
    for key in doc:
        if key not in _TOP_KEYS:
            raise ConfigError(f"config.{key}: unknown field")
    if "dataset" not in doc:
        raise ConfigError("config.dataset: required field is missing")

    scalars = {f.name: _check(doc[f.name], f.type, f"config.{f.name}")
               for f in fields(ExperimentConfig) if f.type in (int, str) and f.name in doc}
    for key in ("n_seeds", "jobs"):
        if scalars.get(key, 1) < 1:
            raise ConfigError(f"config.{key}: must be >= 1, got {scalars[key]}")
    n_samples = scalars.get("n_samples", ExperimentConfig.n_samples)

    fractions = doc.get("fractions", ExperimentConfig.fractions)
    if not (isinstance(fractions, (list, tuple)) and len(fractions) == 3):
        raise ConfigError(f"config.fractions: expected 3 numbers, got {fractions!r}")

    train = doc.get("train", {})
    if isinstance(train, dict) and "seed" in train:
        raise ConfigError(
            "train.seed: unknown field; training seeds derive from the top-level seed"
        )
    search = doc.get("search", {})
    space = _section(SearchSpace, search, "search", extra=("objective",))
    objective = _check(search.get("objective", ExperimentConfig.objective), str, "search.objective")
    if objective not in OBJECTIVES:
        raise ConfigError(f"search.objective: must be one of {OBJECTIVES}, got {objective!r}")

    def defense_entry(entry, where):
        cfg = _section(DefenseConfig, entry, where, extra=("tune",), n_samples=n_samples)
        return DefenseEntry(cfg, _check(entry.get("tune", False), bool, f"{where}.tune"))

    return ExperimentConfig(
        dataset=_section(DatasetSpec, doc["dataset"], "dataset"),
        fractions=_floats(fractions, "config.fractions"),
        train=_section(TrainConfig, train, "train"),
        search=space,
        objective=objective,
        defenses=_entries(doc, "defenses", defense_entry),
        attacks=_entries(doc, "attacks", lambda entry, where: _section(AttackConfig, entry, where)),
        **scalars,
    )
