"""Command line pipeline: prepare -> tune -> evaluate -> report.

Every command takes the same experiment config and an output directory; all
artifacts are deterministic functions of (config, master seed), including
under --jobs parallelism.
"""
import argparse
import hashlib
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import data as data_mod
from .config import (
    ExperimentConfig,
    defense_to_dict,
    load_experiment_config,
    read_defense_entry,
    section_to_dict,
)
from .defenses import KINDS, DefenseConfig
from .errors import ConfigError, DataError, RegrobustError, SearchFailed, unique_keys
from .evaluation import (
    aggregate,
    evaluate_cell,
    format_summary_table,
    perturbation_profile,
    train_models,
    write_cells_csv,
    read_cells_csv,
    write_points_csv,
    write_summary_json,
)
from .seeding import derive_seed
from .training import _reuse_freed_arrays, random_search


def _build_dataset(cfg: ExperimentConfig, stats: dict | None = None) -> data_mod.Dataset:
    """The prepared dataset: read, split, normalized, with its neighbors."""
    ds = data_mod.load_csv(
        cfg.dataset.path,
        target_column=cfg.dataset.target_column,
        name=cfg.dataset.name,
        target_bounded_01=cfg.dataset.target_bounded_01,
        missing=cfg.dataset.missing,
    )
    ds = data_mod.split_dataset(ds, cfg.fractions, seed=derive_seed(cfg.seed, "split"))
    ds = data_mod.normalize_dataset(ds, data_mod.fit_normalizer(ds))
    return replace(ds, neighbors=data_mod.compute_neighbors(ds, stats=stats))


_HASH_BLOCK = 1 << 20  # bytes of the CSV read per sha256 update


def _provenance(cfg: ExperimentConfig) -> dict:
    """What a prepared dataset is a function of, as stamped into its cache.

    The CSV enters by the sha256 of its bytes rather than by its path, so the
    cache does not depend on where the inputs live. It is hashed in blocks of
    _HASH_BLOCK bytes, so the file is never held whole.
    """
    dataset = asdict(cfg.dataset)
    path = dataset.pop("path")
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            while block := f.read(_HASH_BLOCK):
                digest.update(block)
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    return {"seed": cfg.seed, "fractions": list(cfg.fractions), "csv_sha256": digest.hexdigest(),
            **{f"dataset.{k}": v for k, v in dataset.items()}}


def _tuned_stamp(cfg: ExperimentConfig, provenance: dict) -> dict:
    """What a tuned config is a function of, as stamped into tuned_*.json.

    The data provenance (training seeds derive from the top-level seed, which
    it holds), then every train field, the search fields (n_trials,
    objective), the attack the objective uses (null for val_mse_clean), and
    n_samples, keyed by their config path. Code constants, such as Adam's and
    the search ranges, are not stamped.
    """
    return {
        **provenance,
        **{f"train.{k}": v for k, v in section_to_dict(cfg.train).items()},
        **{f"search.{k}": v for k, v in section_to_dict(cfg.search).items()},
        "search.attack": (section_to_dict(cfg.tuning_attack)
                          if cfg.search.objective == "val_mse_pgd" else None),
        "n_samples": cfg.n_samples,
    }


def _load_or_prepare(cfg: ExperimentConfig, out: Path):
    """(dataset, provenance): the checked cache, or a fresh one."""
    cache = out / "dataset_cache.json"
    provenance = _provenance(cfg)
    if cache.exists():
        return data_mod.load_dataset_cache(cache, provenance), provenance
    ds = _build_dataset(cfg)
    data_mod.save_dataset_cache(cache, ds, provenance)
    return ds, provenance


def _median(x) -> float:
    """np.median's arithmetic (the mean of the one or two middle values) without
    the numpy.ma import that np.median makes."""
    return np.sort(x)[(len(x) - 1) // 2 : len(x) // 2 + 1].mean()


def cmd_prepare(cfg: ExperimentConfig, out: Path) -> int:
    stats = {}
    ds = _build_dataset(cfg, stats)
    data_mod.save_dataset_cache(out / "dataset_cache.json", ds, _provenance(cfg))
    sizes = {name: int((ds.split == i).sum()) for i, name in enumerate(data_mod.SPLIT_NAMES)}
    nn_d, gaps = ds.neighbors.distance, ds.neighbors.label_gap
    print(
        f"prepared {ds.name}: {ds.n_rows} rows, {ds.n_features} features, "
        f"splits {sizes}, cache {out / 'dataset_cache.json'}; "
        f"nearest neighbor: median distance {_median(nn_d):.4g}, "
        f"median label gap {_median(gaps):.4g}, {int((nn_d == 0).sum())} rows at distance 0, "
        f"{stats['confirmed']} of {len(nn_d)} rows confirmed exactly"
    )
    return 0


def _tuned_path(out: Path, kind: str) -> Path:
    return out / f"tuned_{kind}.json"


def _read_tuned(out: Path, kind: str, cfg: ExperimentConfig, provenance: dict):
    """The tuned config of one defense kind, checked against this run's tuned stamp."""
    path = _tuned_path(out, kind)
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f, object_pairs_hook=unique_keys)
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, not JSON, or a repeated key
        raise ConfigError(f"cannot read tuned config {path}: {e}; run tune again") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"tuned config {path} is not a JSON object; run tune again")
    data_mod.check_provenance(f"{path} was tuned", doc.get("provenance") or {},
                              _tuned_stamp(cfg, provenance), "run tune again")
    try:
        entry = read_defense_entry(doc.get("config"), f"{path}: config", cfg.n_samples)
    except ConfigError as e:
        raise ConfigError(f"{e}; run tune again") from e
    if entry.tune:
        raise ConfigError(f"{path}: config.tune: a tuned config is fixed; run tune again")
    if entry.config.kind != kind:
        raise ConfigError(f"{path} holds a {entry.config.kind!r} config; run tune again")
    return entry.config


def _combined_candidates(out: Path, cfg: ExperimentConfig, provenance: dict, base: DefenseConfig):
    """Warm-start configs for the combined search: base with the tuned params
    of every other kind that has params, when all their tuned configs exist.

    The viable corner of the 4-d space (small sigma, small lambda) is a
    sliver under uniform sampling, so the search is seeded with the merged
    individually-tuned values plus a half-strength variant (stacked
    penalties over-regularize at their solo strengths). Both still compete
    against the sampled trials on the same validation objective.
    """
    kinds = [kind for kind, (_, params) in KINDS.items() if params and kind != base.kind]
    if not all(_tuned_path(out, kind).exists() for kind in kinds):
        return ()
    parts = [_read_tuned(out, kind, cfg, provenance) for kind in kinds]
    merged = replace(base, **{p: getattr(part, p) for part in parts for p in part.params})
    tempered = replace(merged, sigma=merged.sigma / 2, lam=merged.lam / 2)
    return (merged, tempered)


def _write_trials(path: Path, records) -> None:
    """The trial log as JSON lines, one per trial; a diverged trial's value is null."""
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps({"trial": r.trial, "source": r.source,
                                "config": defense_to_dict(r.config),
                                "value": None if r.value != r.value else r.value,
                                "train_seed": r.train_seed}, sort_keys=True) + "\n")


def cmd_tune(cfg: ExperimentConfig, out: Path) -> int:
    ds, provenance = _load_or_prepare(cfg, out)
    entries = [e for e in cfg.defenses if e.tune]
    if not entries:
        print("nothing to tune: no defense entry has tune=true")
    for entry in entries:
        kind = entry.config.kind
        candidates = (_combined_candidates(out, cfg, provenance, entry.config)
                      if kind == "combined" else ())
        trials, tuned = out / f"trials_{kind}.jsonl", _tuned_path(out, kind)
        try:
            best, records = random_search(
                ds, entry.config, cfg.search, seed=derive_seed(cfg.seed, "tune", kind),
                train_cfg=cfg.train, attack=cfg.tuning_attack,
                candidates=candidates, jobs=cfg.jobs)
        except SearchFailed as e:
            # Keep this run's log, and no tuned config that no trial of it chose.
            _write_trials(trials, e.trials)
            tuned.unlink(missing_ok=True)
            raise
        _write_trials(trials, records)
        doc = {"kind": kind, "objective": cfg.search.objective, "best_value": best.value,
               "best_trial": best.trial, "n_trials": len(records),
               "config": defense_to_dict(best.config), "provenance": _tuned_stamp(cfg, provenance)}
        with open(tuned, "w", encoding="utf-8") as f:
            f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"tuned {kind}: best {cfg.search.objective}={best.value:.6g} "
              f"(trial {best.trial}/{len(records)}) -> {tuned}")
    return 0


def cmd_evaluate(cfg: ExperimentConfig, out: Path) -> int:
    # A run that fails before the try below leaves none of an earlier run's artifacts.
    for name in ("cells.csv", "points.csv", "summary.json"):
        (out / name).unlink(missing_ok=True)
    ds, provenance = _load_or_prepare(cfg, out)
    # Every tuned config is read and checked before any model is trained.
    defenses = [_read_tuned(out, e.config.kind, cfg, provenance) if e.tune else e.config
                for e in cfg.defenses]
    test_nn = data_mod.nearest_train_distance(ds, ds.features[ds.rows(data_mod.TEST)])
    cells = []
    points = []
    try:
        for defense in defenses:
            models = train_models(ds, defense, cfg.train, cfg.n_seeds,
                                  derive_seed(cfg.seed, "eval", defense.kind), jobs=cfg.jobs)
            for attack in cfg.attacks:
                cells.extend(evaluate_cell(ds, defense, attack, models))
                if attack.kind == "pgd":
                    points.extend(perturbation_profile(ds, defense, attack, models, test_nn))
            print(f"evaluated {defense.kind}: {len(cfg.attacks)} attack(s) x {cfg.n_seeds} seed(s)")
    finally:
        # A failed run still writes what finished, so a long run is not lost to
        # one bad cell, and all three artifacts come from this run: with no
        # finished cell they hold no rows, so no earlier run's numbers survive.
        write_cells_csv(out / "cells.csv", cells)
        write_points_csv(out / "points.csv", points)
        write_summary_json(out / "summary.json", aggregate(cells))
    print(f"wrote {out / 'cells.csv'}, {out / 'points.csv'}, {out / 'summary.json'}")
    return 0


def cmd_report(cfg: ExperimentConfig, out: Path) -> int:
    path = out / "cells.csv"
    cells = read_cells_csv(path)
    if not cells:
        raise DataError(f"{path} holds no cells; run evaluate again")
    aggregates = aggregate(cells)
    write_summary_json(out / "summary.json", aggregates)
    print(format_summary_table(aggregates))
    return 0


COMMANDS = {"prepare": cmd_prepare, "tune": cmd_tune, "evaluate": cmd_evaluate,
            "report": cmd_report}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regrobust",
        description="Train, attack, and evaluate defended regression networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("prepare", "ingest, split, normalize, and cache the dataset"),
        ("tune", "random-search defense hyperparameters on the validation split"),
        ("evaluate", "train final models and evaluate every defense x attack cell"),
        ("report", "aggregate a cells.csv into summary.json and print a table"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.add_argument("--jobs", type=int, default=None, help="worker processes (overrides config)")
        for flag in ("defense", "attack"):
            p.add_argument(f"--{flag}", action="append", default=None,
                           help=f"restrict to this {flag} kind (repeatable)")
    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.out is not None:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seed = int(args.seed)
    if args.jobs is not None:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        cfg.jobs = int(args.jobs)
    for flag in ("defense", "attack"):
        wanted = getattr(args, flag)
        if wanted is None:
            continue
        kinds = {getattr(e, "config", e).kind: e for e in getattr(cfg, flag + "s")}
        if unknown := set(wanted) - set(kinds):
            raise ConfigError(f"--{flag} {sorted(unknown)} not in config (has {sorted(kinds)})")
        setattr(cfg, flag + "s", [e for k, e in kinds.items() if k in set(wanted)])
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _reuse_freed_arrays()
    try:
        cfg = load_experiment_config(args.config)
        cfg = _apply_overrides(cfg, args)
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, out)
    except (RegrobustError, OSError) as e:  # OSError: the output directory or a file in it
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
