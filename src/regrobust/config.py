"""Experiment configuration: one JSON file describing a full run.

The config dataclasses are the schema. Each section (``dataset``, ``train``,
``search``, every ``defenses`` and ``attacks`` entry) is read field by field
from its dataclass: a key is a field name (``lam`` is spelled ``"lambda"``),
its value must match the field's annotation, and a missing key takes the
field's default. A defense entry takes ``kind``, ``tune`` and the fields its
kind reads (``DefenseConfig.params``), but only ``kind`` and ``tune`` when
tuned; ``read_defense_entry`` reads this form here and in ``tuned_*.json``,
and ``defense_to_dict`` writes it. An attack entry takes ``kind`` and the
fields its kind reads (``AttackConfig.params``). The top level sets every
defense's ``n_samples``, and every training run's seed derives from its
``seed``. Any other key fails, so a typo never falls back to a default
unnoticed, and so does a key given twice in one object, here and in
``tuned_*.json``. Every default matches the standard evaluation protocol, so
a minimal config only needs the dataset block. Validation errors start with
the offending field path.
"""
import json
from dataclasses import MISSING, dataclass, field, fields
from functools import partial

from .attacks import DEFAULT_PGD, AttackConfig
from .defenses import DefenseConfig
from .errors import ConfigError, unique_keys
from .training import SearchSpace, TrainConfig


@dataclass(frozen=True)
class DatasetSpec:
    path: str
    target_column: str
    name: str = "dataset"
    target_bounded_01: bool = False
    missing: str = "error"


@dataclass(frozen=True)
class DefenseEntry:
    """One defense to evaluate, named by its kind; tune=True replaces its params via search."""

    config: DefenseConfig
    tune: bool = False


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec
    out_dir: str = "out"
    fractions: tuple = (0.6, 0.2, 0.2)
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    search: SearchSpace = field(default_factory=SearchSpace)
    defenses: list = field(default_factory=list)
    attacks: list = field(default_factory=list)
    n_samples: int = 100
    n_seeds: int = 6
    jobs: int = 1
    tuning_attack: AttackConfig = field(init=False)  # derived; not a JSON key

    def __post_init__(self):
        # The attack tune optimises: the first pgd entry, else DEFAULT_PGD. Fixed
        # here, so narrowing attacks afterwards (--attack) leaves it unchanged.
        self.tuning_attack = next((a for a in self.attacks if a.kind == "pgd"), DEFAULT_PGD)


_JSON_KEYS = {"lam": "lambda"}  # field name -> JSON key, where they differ


def _check(v, typ, where: str):
    """v checked against a field annotation; a float field also takes an int."""
    if typ is float and isinstance(v, int) and not isinstance(v, bool):
        v = float(v)
    if not isinstance(v, typ) or isinstance(v, bool) and typ is not bool:
        raise ConfigError(f"{where}: expected {getattr(typ, '__name__', typ)}, got {v!r}")
    return v


def _section(cls, doc, path: str, extra=(), **fixed):
    """Build the config dataclass cls from the JSON object doc.

    Reads one key per field of cls. extra names keys the caller reads itself;
    any other key is an error, as is the key of a field in fixed, which the
    caller sets from the top level. A missing key takes the field's default.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object, got {doc!r}")
    specs = {_JSON_KEYS.get(f.name, f.name): f for f in fields(cls)}
    for key in doc:
        if key not in specs and key not in extra:
            raise ConfigError(f"{path}.{key}: unknown field")
        if key in specs and specs[key].name in fixed:
            raise ConfigError(f"{path}.{key}: unknown field; the top-level {key} sets it")
    kwargs = dict(fixed)
    for key, f in specs.items():
        where = f"{path}.{key}"
        if key in doc:
            kwargs[f.name] = _check(doc[key], f.type, where)
        elif f.default is MISSING:
            raise ConfigError(f"{where}: required field is missing")
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def _takes_only(doc, path: str, takes, owner: str) -> None:
    """Fail on the first key of the entry doc that is not in takes, naming it."""
    for key in doc:
        if key not in takes:
            raise ConfigError(f"{path}.{key}: unknown field; a {owner} entry takes only "
                              f"{', '.join(takes)}")


def read_defense_entry(doc, path: str, n_samples: int) -> DefenseEntry:
    """A defense entry from its JSON object, with n_samples from the top level.

    It holds kind, an optional tune and, unless tune is true, exactly the
    fields its kind reads; any other key fails, naming itself.
    """
    cfg = _section(DefenseConfig, doc, path, extra=("tune",), n_samples=n_samples)
    tune = _check(doc.get("tune", False), bool, f"{path}.tune")
    takes = ["kind", "tune"] + ([] if tune else [_JSON_KEYS.get(p, p) for p in cfg.params])
    _takes_only(doc, path, takes, "tune: true" if tune else repr(cfg.kind))
    return DefenseEntry(cfg, tune)


def read_attack_entry(doc, path: str) -> AttackConfig:
    """An attack entry: kind and exactly the fields its kind reads."""
    cfg = _section(AttackConfig, doc, path)
    _takes_only(doc, path, ["kind", *cfg.params], repr(cfg.kind))
    return cfg


def defense_to_dict(cfg: DefenseConfig) -> dict:
    """A defense as the JSON object of a fixed entry: kind and the fields it reads."""
    return {"kind": cfg.kind, **{_JSON_KEYS.get(p, p): getattr(cfg, p) for p in cfg.params}}


def section_to_dict(cfg) -> dict:
    """A config dataclass as its JSON object, keyed by JSON key."""
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


_TOP_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.init)


def load_experiment_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f, object_pairs_hook=unique_keys)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except ValueError as e:  # not UTF-8, not JSON, or a repeated key
        raise ConfigError(f"config {path} is not valid UTF-8 JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise ConfigError(f"config.{key}: unknown field")
    if "dataset" not in doc:
        raise ConfigError("config.dataset: required field is missing")

    scalars = {f.name: _check(doc.get(f.name, f.default), f.type, f"config.{f.name}")
               for f in fields(ExperimentConfig) if f.type in (int, str)}
    for key in ("n_samples", "n_seeds", "jobs"):
        if scalars[key] < 1:
            raise ConfigError(f"config.{key}: must be >= 1, got {scalars[key]}")

    fractions = doc.get("fractions", ExperimentConfig.fractions)
    if not (isinstance(fractions, (list, tuple)) and len(fractions) == 3):
        raise ConfigError(f"config.fractions: expected 3 numbers, got {fractions!r}")
    fractions = tuple(_check(v, float, f"config.fractions[{i}]") for i, v in enumerate(fractions))

    return ExperimentConfig(
        dataset=_section(DatasetSpec, doc["dataset"], "dataset"),
        fractions=fractions,
        train=_section(TrainConfig, doc.get("train", {}), "train"),
        search=_section(SearchSpace, doc.get("search", {}), "search"),
        defenses=_entries(doc, "defenses",
                          partial(read_defense_entry, n_samples=scalars["n_samples"])),
        attacks=_entries(doc, "attacks", read_attack_entry),
        **scalars,
    )
