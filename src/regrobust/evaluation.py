"""Test-set evaluation of defense/attack grids, plus report artifacts.

Artifacts are deterministic byte-for-byte given a config and master seed:
floats are written with repr (round-trip exact) in CSVs, and the summary JSON
presents aggregates in 3-significant-digit scientific notation.
"""
import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from . import data as data_mod
from .attacks import AttackConfig, apply_attack
from .defenses import DefenseConfig
from .errors import DataError, TrainingDiverged
from .nn import RegressionNet, forward
from .parallel import pmap
from .seeding import derive_seed
from .training import TrainConfig, train


def mse(y, pred) -> float:
    y = np.asarray(y, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    return float(np.mean((y - pred) ** 2))


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

    index: int
    y: float
    pred_clean: float
    pred_adv: float
    abs_err_adv: float  # |f(x_adv) - y|
    pred_shift: float  # |f(x_adv) - f(x)|
    nn_train_distance: float


def _train_seed_worker(payload):
    dataset, defense, train_cfg, neighbors, label, seed_index = payload
    try:
        net, _ = train(dataset, defense, train_cfg, neighbors=neighbors)
    except TrainingDiverged as e:
        raise TrainingDiverged(
            f"defense {label!r}, retrain seed index {seed_index} (seed {train_cfg.seed}): {e}"
        ) from e
    return net


def train_models(
    dataset,
    defense: DefenseConfig,
    train_cfg: TrainConfig,
    n_seeds: int,
    neighbors: data_mod.Neighbors | None = None,
    label: str | None = None,
    jobs: int = 1,
) -> list:
    """Train n_seeds independent models; returns [(seed_index, net), ...].

    Retrain seeds are derived from train_cfg.seed, so the list is identical
    for any jobs setting.
    """
    label = label or defense.kind
    payloads = []
    for i in range(int(n_seeds)):
        cfg_i = replace(train_cfg, seed=derive_seed(train_cfg.seed, "retrain", i))
        payloads.append((dataset, defense, cfg_i, neighbors, label, i))
    nets = pmap(_train_seed_worker, payloads, jobs=jobs)
    return list(enumerate(nets))


def evaluate_cell(
    dataset,
    defense: DefenseConfig,
    attack: AttackConfig,
    models: list,
    defense_label: str | None = None,
) -> list:
    """Test MSE of each trained model (from train_models) under one attack."""
    label = defense_label or defense.kind
    rows = dataset.rows(data_mod.TEST)
    Xt = dataset.features[rows]
    Yt = dataset.targets[rows]
    out = []
    for i, net in models:
        adv = apply_attack(net, Xt, Yt, attack)
        out.append(
            CellRecord(
                dataset=dataset.name,
                defense=label,
                attack=attack.kind,
                seed=i,
                test_mse=mse(Yt, forward(net, adv)),
            )
        )
    return out


def aggregate(cells) -> list:
    """Mean/std of test MSE per (dataset, defense, attack), sorted by that key."""
    groups = {}
    for c in cells:
        groups.setdefault((c.dataset, c.defense, c.attack), []).append(c.test_mse)
    out = []
    for key in sorted(groups):
        vals = groups[key]
        std = float(np.std(vals, ddof=1)) if len(vals) > 1 else None
        out.append(
            AggregateRecord(
                dataset=key[0],
                defense=key[1],
                attack=key[2],
                n_seeds=len(vals),
                mean=float(np.mean(vals)),
                std=std,
            )
        )
    return out


def perturbation_profile(net: RegressionNet, dataset, attack: AttackConfig, nn_dist):
    """Per test point adversarial errors for one model.

    Each record carries y, clean and attacked predictions, |f(x_adv) - y|,
    |f(x_adv) - f(x)|, and the point's L-inf distance to the nearest train
    row, taken from nn_dist (nearest_train_distance of the test rows, which
    does not depend on the model, so callers compute it once).
    """
    rows = dataset.rows(data_mod.TEST)
    Xt = dataset.features[rows]
    Yt = dataset.targets[rows]
    adv = apply_attack(net, Xt, Yt, attack)
    pred_clean = np.atleast_1d(forward(net, Xt))
    pred_adv = np.atleast_1d(forward(net, adv))
    abs_err = np.abs(pred_adv - Yt)
    return [
        PointRecord(
            index=int(rows[k]),
            y=float(Yt[k]),
            pred_clean=float(pred_clean[k]),
            pred_adv=float(pred_adv[k]),
            abs_err_adv=float(abs_err[k]),
            pred_shift=float(abs(pred_adv[k] - pred_clean[k])),
            nn_train_distance=float(nn_dist[k]),
        )
        for k in range(len(rows))
    ]


CELL_COLUMNS = ("dataset", "defense", "attack", "seed", "test_mse")
POINT_COLUMNS = (
    "defense",
    "attack",
    "seed",
    "index",
    "y",
    "pred_clean",
    "pred_adv",
    "abs_err_adv",
    "pred_shift",
    "nn_train_distance",
)


def write_cells_csv(path, cells) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CELL_COLUMNS)
        for c in cells:
            w.writerow([c.dataset, c.defense, c.attack, c.seed, repr(c.test_mse)])


def read_cells_csv(path) -> list:
    try:
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            cells = [
                CellRecord(
                    dataset=r["dataset"],
                    defense=r["defense"],
                    attack=r["attack"],
                    seed=int(r["seed"]),
                    test_mse=float(r["test_mse"]),
                )
                for r in reader
            ]
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"malformed cells csv {path}: {e}") from e
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    return cells


def write_points_csv(path, labeled_profiles) -> None:
    """labeled_profiles: iterable of (defense, attack, seed_index, records)."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(POINT_COLUMNS)
        for defense, attack, seed, records in labeled_profiles:
            for r in records:
                w.writerow(
                    [
                        defense,
                        attack,
                        seed,
                        r.index,
                        repr(r.y),
                        repr(r.pred_clean),
                        repr(r.pred_adv),
                        repr(r.abs_err_adv),
                        repr(r.pred_shift),
                        repr(r.nn_train_distance),
                    ]
                )


def write_summary_json(path, aggregates) -> None:
    doc = {
        "cells": [
            {
                "dataset": a.dataset,
                "defense": a.defense,
                "attack": a.attack,
                "n_seeds": a.n_seeds,
                "mean_test_mse": sci3(a.mean),
                "std_test_mse": None if a.std is None else sci3(a.std),
            }
            for a in aggregates
        ]
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def format_summary_table(aggregates) -> str:
    lines = [f"{'dataset':<12} {'defense':<14} {'attack':<8} {'mean':>10} {'std':>10}"]
    for a in aggregates:
        std = "-" if a.std is None else sci3(a.std)
        lines.append(
            f"{a.dataset:<12} {a.defense:<14} {a.attack:<8} {sci3(a.mean):>10} {std:>10}"
        )
    return "\n".join(lines)
