import csv
import json
from pathlib import Path

import numpy as np
import pytest

from regrobust.cli import main as cli_main
from regrobust.data import Dataset, fit_normalizer, normalize_dataset, split_dataset
from regrobust.evaluation import read_cells_csv
from regrobust.nn import initialize, input_gradient

REPO = Path(__file__).resolve().parents[1]
BOSTON_CSV = "data/boston.csv"


def fd_gradient(f, x0, h=1e-6):
    """Central finite differences of a scalar function of a vector."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.empty_like(x0)
    for i in range(x0.size):
        e = np.zeros_like(x0)
        e[i] = h
        g[i] = (f(x0 + e) - f(x0 - e)) / (2.0 * h)
    return g


def max_rel_err(approx, exact):
    """Worst relative error, with an absolute floor so zeros compare sanely."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    scale = np.maximum(np.abs(exact), 1e-6)
    return float(np.max(np.abs(approx - exact) / scale))


def random_net(rng, input_dim=3, hidden_dim=None, output_activation="identity"):
    return initialize(input_dim, rng, hidden_dim=hidden_dim, output_activation=output_activation)


def safe_case(rng, input_dim=3, margin=1e-3, output_activation="identity", loss_margin=True):
    """A (net, x, y) draw away from ReLU kinks and input-gradient sign flips.

    Finite differencing steps across a kink or a sign flip would make the
    analytic piecewise gradients disagree with the numeric quotient for
    reasons that are not bugs; resample until all margins are comfortable.
    """
    while True:
        net = random_net(rng, input_dim=input_dim, output_activation=output_activation)
        x = rng.normal(size=input_dim)
        y = float(rng.normal())
        z = net.w1 @ x + net.b1
        if np.abs(z).min() < margin:
            continue
        d_x = input_gradient(net, x, y)
        if loss_margin and np.abs(d_x).min() < margin:
            continue
        return net, x, y


def linear_dataset(n=150, slope=1.7, intercept=0.3, noise=0.0, seed=0, name="lin1d"):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(n, 1))
    y = slope * X[:, 0] + intercept + noise * rng.normal(size=n)
    ds = Dataset(features=X, targets=y, split=None, name=name)
    ds = split_dataset(ds, (0.6, 0.2, 0.2), seed=seed + 1)
    norm = fit_normalizer(ds)
    return normalize_dataset(ds, norm)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def lin_ds():
    return linear_dataset()


@pytest.fixture(scope="session")
def boston_eval_dir(tmp_path_factory):
    """The output directory of one evaluate run of the shipped tuned Boston config."""
    cfg = json.loads((REPO / "configs" / "boston_tuned.json").read_text())
    out = tmp_path_factory.mktemp("boston_eval")
    cfg["dataset"]["path"] = str(REPO / "data" / "boston.csv")
    cfg["out_dir"] = str(out)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["evaluate", "--config", str(cfg_path), "--jobs", "2"]) == 0
    return out


@pytest.fixture(scope="session")
def boston_eval(boston_eval_dir):
    """(cells, points) as that run wrote them to cells.csv and points.csv."""
    cells = read_cells_csv(boston_eval_dir / "cells.csv")
    with open(boston_eval_dir / "points.csv", newline="") as f:
        points = list(csv.DictReader(f))
    return cells, points
