"""Test-set evaluation of defense/attack grids, plus report artifacts.

Artifacts are deterministic byte-for-byte given a config and master seed.
Each CSV has one column per field of its record dataclass, in field order,
with floats written with repr (round-trip exact); the summary JSON presents
aggregates in 3-significant-digit scientific notation.
"""
import csv
import json
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from . import data as data_mod
from .attacks import AttackConfig, apply_attack
from .defenses import DefenseConfig
from .errors import DataError, TrainingDiverged
from .losses import mse  # noqa: F401  (kept importable from here)
from .nn import forward
from .parallel import pmap
from .seeding import derive_seed
from .training import TrainConfig, split_mse, train


def sci3(x) -> str:
    """3-significant-digit scientific notation, e.g. 25.0 -> '2.50E+01'."""
    return f"{float(x):.2E}"


@dataclass(frozen=True)
class CellRecord:
    """Test MSE of one trained model under one attack."""

    dataset: str
    defense: str
    attack: str
    seed: int  # retrain seed index, 0-based
    test_mse: float


@dataclass(frozen=True)
class AggregateRecord:
    dataset: str
    defense: str
    attack: str
    n_seeds: int
    mean: float
    std: float | None  # sample std (ddof 1); None when only one seed


@dataclass(frozen=True)
class PointRecord:
    """Per test point detail for one model under one attack."""

    defense: str
    attack: str
    seed: int  # retrain seed index, 0-based
    index: int
    y: float
    pred_clean: float
    pred_adv: float
    abs_err_adv: float  # |f(x_adv) - y|
    pred_shift: float  # |f(x_adv) - f(x)|
    nn_train_distance: float


def train_models(dataset, defense: DefenseConfig, train_cfg: TrainConfig, n_seeds: int,
                 seed: int, jobs: int = 1) -> list:
    """Train n_seeds independent models; returns [(seed_index, net), ...].

    Retrain seeds are derived from seed, so the list is identical for any
    jobs setting.
    """
    def fit(i: int):
        seed_i = derive_seed(seed, "retrain", i)
        try:
            net, _ = train(dataset, defense, train_cfg, seed_i)
        except TrainingDiverged as e:
            raise TrainingDiverged(f"defense {defense.kind!r}, retrain seed index {i} "
                                   f"(seed {seed_i}): {e}") from e
        return net

    return list(enumerate(pmap(fit, range(int(n_seeds)), jobs=jobs)))


def evaluate_cell(dataset, defense: DefenseConfig, attack: AttackConfig, models: list) -> list:
    """Test MSE of each trained model (from train_models) under one attack."""
    return [CellRecord(dataset.name, defense.kind, attack.kind, seed=i,
                       test_mse=split_mse(net, dataset, data_mod.TEST, attack))
            for i, net in models]


def aggregate(cells) -> list:
    """Mean/std of test MSE per (dataset, defense, attack), sorted by that key."""
    groups = {}
    for c in cells:
        groups.setdefault((c.dataset, c.defense, c.attack), []).append(c.test_mse)
    out = []
    for key in sorted(groups):
        vals = groups[key]
        std = float(np.std(vals, ddof=1)) if len(vals) > 1 else None
        out.append(AggregateRecord(*key, n_seeds=len(vals), mean=float(np.mean(vals)), std=std))
    return out


def perturbation_profile(dataset, defense: DefenseConfig, attack: AttackConfig, models: list,
                         nn_dist) -> list:
    """Per test point adversarial errors of each trained model (from train_models).

    Each record carries y, clean and attacked predictions, |f(x_adv) - y|,
    |f(x_adv) - f(x)|, and the point's L-inf distance to the nearest train
    row, taken from nn_dist (nearest_train_distance of the test rows, which
    does not depend on the model, so callers compute it once).
    """
    rows, Xt, Yt = dataset.part(data_mod.TEST)
    out = []
    for i, net in models:
        adv = apply_attack(net, Xt, Yt, attack)
        pred_clean = np.atleast_1d(forward(net, Xt))
        pred_adv = np.atleast_1d(forward(net, adv))
        # One column per PointRecord field from y on, in field order.
        cols = zip(Yt, pred_clean, pred_adv, np.abs(pred_adv - Yt),
                   np.abs(pred_adv - pred_clean), nn_dist)
        out.extend(PointRecord(defense.kind, attack.kind, i, int(r), *map(float, vals))
                   for r, vals in zip(rows, cols))
    return out


def _write_records(path, cls, records) -> None:
    """A CSV of records of the dataclass cls: its field names, then one row each."""
    names = [f.name for f in fields(cls)]
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)  # floats are written with repr, so they round-trip exactly
        w.writerow(names)
        w.writerows(map(attrgetter(*names), records))


def write_cells_csv(path, cells) -> None:
    _write_records(path, CellRecord, cells)


def write_points_csv(path, points) -> None:
    _write_records(path, PointRecord, points)


def read_cells_csv(path) -> list:
    specs = fields(CellRecord)
    try:
        with open(path, newline="", encoding="utf-8") as f:
            cells = [CellRecord(**{s.name: s.type(r[s.name]) for s in specs})
                     for r in csv.DictReader(f)]
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"malformed cells csv {path}: {e}") from e
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    return cells


def write_summary_json(path, aggregates) -> None:
    cells = [{"dataset": a.dataset, "defense": a.defense, "attack": a.attack,
              "n_seeds": a.n_seeds, "mean_test_mse": sci3(a.mean),
              "std_test_mse": None if a.std is None else sci3(a.std)} for a in aggregates]
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"cells": cells}, indent=2, sort_keys=True) + "\n")


def format_summary_table(aggregates) -> str:
    lines = [f"{'dataset':<12} {'defense':<14} {'attack':<8} {'mean':>10} {'std':>10}"]
    for a in aggregates:
        std = "-" if a.std is None else sci3(a.std)
        lines.append(
            f"{a.dataset:<12} {a.defense:<14} {a.attack:<8} {sci3(a.mean):>10} {std:>10}"
        )
    return "\n".join(lines)
