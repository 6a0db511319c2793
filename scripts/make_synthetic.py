#!/usr/bin/env python3
"""Generate a small synthetic regression CSV plus a matching experiment
config, for a fast end-to-end pipeline demo (about a minute on one core):

    python scripts/make_synthetic.py
    python -m regrobust.cli prepare  --config configs/synthetic.json
    python -m regrobust.cli tune     --config configs/synthetic.json
    python -m regrobust.cli evaluate --config configs/synthetic.json
    python -m regrobust.cli report   --config configs/synthetic.json
"""
import argparse
import json
from pathlib import Path

import numpy as np


def write_csv(path: Path, n_rows: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_rows, 2))
    y = 1.5 * x[:, 0] - 0.8 * x[:, 1] + 0.1 * rng.normal(size=n_rows)
    lines = ["f1,f2,target"]
    for i in range(n_rows):
        lines.append(f"{float(x[i, 0])!r},{float(x[i, 1])!r},{float(y[i])!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_config(path: Path, csv_path: Path, out_dir: str) -> None:
    cfg = {
        "dataset": {"path": str(csv_path), "target_column": "target",
                    "name": "synthetic"},
        "out_dir": out_dir,
        "fractions": [0.6, 0.2, 0.2],
        "seed": 7,
        "train": {"learning_rate": 0.01, "batch_size": 16, "epochs": 150},
        "search": {"objective": "val_mse_pgd", "n_trials": 4},
        "defenses": [
            {"kind": "none"},
            {"kind": "grad_reg", "sigma": 0.3},
            {"kind": "ansr", "tune": True},
        ],
        "attacks": [
            {"kind": "none"},
            {"kind": "fgsm", "epsilon": 0.1},
            {"kind": "pgd", "epsilon": 0.025, "rho": 0.1, "steps": 10},
        ],
        "n_samples": 25,
        "n_seeds": 3,
        "jobs": 1,
    }
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=120)
    ap.add_argument("--seed", type=int, default=99)
    ap.add_argument("--csv", default="data/synthetic.csv")
    ap.add_argument("--config", default="configs/synthetic.json")
    ap.add_argument("--out", default="out/synthetic")
    args = ap.parse_args()

    csv_path = Path(args.csv)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    write_csv(csv_path, args.rows, args.seed)
    cfg_path = Path(args.config)
    cfg_path.parent.mkdir(parents=True, exist_ok=True)
    write_config(cfg_path, csv_path, args.out)
    print(f"wrote {csv_path} ({args.rows} rows) and {cfg_path}")


if __name__ == "__main__":
    main()
