"""scripts/run_boston.py --check rebuilds a config's out_dir and compares it byte for byte."""
import importlib.util
import json

import numpy as np
import pytest

from conftest import REPO

_spec = importlib.util.spec_from_file_location("run_boston", REPO / "scripts" / "run_boston.py")
run_boston = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_boston)


@pytest.fixture
def tiny_reference(tmp_path):
    """A tiny synthetic config whose out_dir holds a full run's files."""
    rng = np.random.default_rng(5)
    X = rng.uniform(-2, 2, size=(40, 2))
    y = 1.5 * X[:, 0] - 0.8 * X[:, 1]
    csv_path = tmp_path / "tiny.csv"
    csv_path.write_text("f1,f2,y\n" + "".join(f"{a!r},{b!r},{c!r}\n"
                                             for a, b, c in zip(*X.T.tolist(), y.tolist())))
    ref = tmp_path / "ref"
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({
        "dataset": {"path": str(csv_path), "target_column": "y", "name": "tiny"},
        "out_dir": str(ref),
        "train": {"epochs": 3, "batch_size": 16},
        "search": {"n_trials": 2},
        "defenses": [{"kind": "none"}, {"kind": "ansr", "tune": True}],
        "attacks": [{"kind": "none"}, {"kind": "fgsm", "epsilon": 0.1},
                    {"kind": "pgd", "epsilon": 0.025, "rho": 0.1, "steps": 3}],
        "n_samples": 4,
        "n_seeds": 2,
    }))
    assert run_boston.main(["--config", str(cfg)]) == 0
    return cfg, ref


def test_check_passes_then_names_a_changed_file(tiny_reference, capsys):
    cfg, ref = tiny_reference
    names = sorted(p.name for p in ref.iterdir())
    assert "cells.csv" in names and "tuned_ansr.json" in names
    capsys.readouterr()
    assert run_boston.main(["--config", str(cfg), "--check"]) == 0
    assert f"check: all {len(names)} files in {ref} equal" in capsys.readouterr().out

    cells = bytearray((ref / "cells.csv").read_bytes())
    cells[-2] = ord("0") if cells[-2] != ord("0") else ord("1")
    (ref / "cells.csv").write_bytes(bytes(cells))
    assert run_boston.main(["--config", str(cfg), "--check"]) == 1
    assert f"check: {ref / 'cells.csv'} differs" in capsys.readouterr().out


def test_check_refuses_stage_flags():
    with pytest.raises(SystemExit):
        run_boston.main(["--check", "--skip-tune"])


def test_check_fails_without_reference_or_config(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": {"path": "x.csv", "target_column": "y"},
                               "out_dir": str(tmp_path / "missing")}))
    assert run_boston.main(["--config", str(cfg), "--check"]) == 1
    assert "holds no files to compare" in capsys.readouterr().out
    assert run_boston.main(["--config", str(tmp_path / "none.json"), "--check"]) == 1
    assert "check: cannot read config" in capsys.readouterr().out
