import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from regrobust import cli
from regrobust import data as data_mod
from regrobust.cli import main
from regrobust.config import (
    _JSON_KEYS,
    defense_to_dict,
    load_experiment_config,
    read_defense_entry,
)
from regrobust.data import compute_neighbors, load_dataset_cache
from regrobust.defenses import KINDS, DefenseConfig
from regrobust.evaluation import CellRecord, PointRecord

from conftest import BOSTON_CSV

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def write_synthetic_csv(path, n=80, seed=0, bounded=False):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 2))
    y = 1.5 * X[:, 0] - 0.8 * X[:, 1] + 0.1 * rng.normal(size=n)
    if bounded:
        y = 1.0 / (1.0 + np.exp(-y))  # squashed into [0, 1]
    with open(path, "w") as f:
        f.write("f1,f2,y\n")
        for i in range(n):
            f.write(f"{float(X[i, 0])!r},{float(X[i, 1])!r},{float(y[i])!r}\n")


def write_config(path, csv_path, out_dir, **overrides):
    doc = {
        "dataset": {"path": str(csv_path), "target_column": "y", "name": "syn"},
        "out_dir": str(out_dir),
        "seed": 0,
        "train": {"learning_rate": 0.02, "epochs": 60, "batch_size": 16},
        "search": {"objective": "val_mse_pgd", "n_trials": 2},
        "defenses": [
            {"kind": "none"},
            {"kind": "grad_reg", "sigma": 0.3},
            {"kind": "ansr", "tune": True},
        ],
        "attacks": [
            {"kind": "none"},
            {"kind": "fgsm", "epsilon": 0.1},
            {"kind": "pgd", "epsilon": 0.025, "rho": 0.1, "steps": 5},
        ],
        "n_samples": 8,
        "n_seeds": 2,
        "jobs": 1,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc, indent=2))
    return path


@pytest.fixture
def workspace(tmp_path):
    csv_path = tmp_path / "syn.csv"
    write_synthetic_csv(csv_path)
    cfg_path = write_config(tmp_path / "exp.json", csv_path, tmp_path / "out")
    return tmp_path, cfg_path


class TestPrepare:
    def test_writes_cache_and_is_idempotent(self, workspace, capsys):
        tmp, cfg = workspace
        assert main(["prepare", "--config", str(cfg)]) == 0
        cache = tmp / "out" / "dataset_cache.json"
        assert cache.exists()
        first = cache.read_bytes()
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert cache.read_bytes() == first
        assert "prepared syn" in capsys.readouterr().out

    def test_summary_reports_neighbor_stats(self, tmp_path, capsys):
        csv_path = tmp_path / "syn.csv"
        write_synthetic_csv(csv_path)
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join(lines + lines[1:21]) + "\n")  # 20 duplicated rows
        cfg = write_config(tmp_path / "exp.json", csv_path, tmp_path / "out")
        assert main(["prepare", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "dataset_cache.json").read_text())
        d = doc["neighbors"]["distance"]
        g = doc["neighbors"]["label_gap"]
        out = capsys.readouterr().out
        assert f"median distance {np.median(d):.4g}," in out
        assert f"median label gap {np.median(g):.4g}," in out
        assert d.count(0.0) > 0
        assert f" {d.count(0.0)} rows at distance 0" in out

    def test_boston_prepare_counts(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "b.json", BOSTON_CSV, tmp_path / "out",
            dataset={"path": BOSTON_CSV, "target_column": "MEDV", "name": "boston"},
        )
        assert main(["prepare", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "dataset_cache.json").read_text())
        assert len(doc["targets"]) == 506
        assert np.load(tmp_path / "out" / "dataset_cache.npy").shape == (506, 13)
        counts = {s: doc["split"].count(s) for s in ("train", "val", "test")}
        assert counts == {"train": 304, "val": 101, "test": 101}
        assert {k: len(v) for k, v in doc["neighbors"].items()} == \
            {"index": 304, "distance": 304, "label_gap": 304}

    def test_summary_reports_confirmed_rows(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "b.json", BOSTON_CSV, tmp_path / "out",
            dataset={"path": BOSTON_CSV, "target_column": "MEDV", "name": "boston"},
        )
        assert main(["prepare", "--config", str(cfg)]) == 0
        ds = load_dataset_cache(tmp_path / "out" / "dataset_cache.json")[0]
        stats = {}
        compute_neighbors(ds, stats=stats)
        assert 0 < stats["confirmed"] < 304
        assert f", {stats['confirmed']} of 304 rows confirmed exactly" in capsys.readouterr().out

    @staticmethod
    def _prepare_without_pool(config, out, jobs) -> str:
        """stdout of prepare in a fresh process that must never import the process pool."""
        script = ("import sys; from regrobust.cli import main; "
                  f"assert main(['prepare', '--config', {str(config)!r}, "
                  f"'--out', {str(out)!r}, '--jobs', '{jobs}']) == 0; "
                  "assert 'concurrent.futures' not in sys.modules, 'pool imported'")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-c", script], cwd=REPO, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_cache_bytes_equal_on_both_csv_paths(self, tmp_path, monkeypatch):
        # A 600 x 16 CSV read by numpy's C reader alone, then with it disabled.
        values = np.random.default_rng(6).normal(size=(600, 17))
        csv_path = tmp_path / "g.csv"
        np.savetxt(csv_path, values, delimiter=",", fmt="%.17g", comments="",
                   header=",".join([f"f{j}" for j in range(16)] + ["y"]))
        cfg = write_config(tmp_path / "g.json", csv_path, tmp_path / "out")
        def disabled(*args, **kwargs):
            raise ValueError("disabled")

        caches = []
        for name, owner, attr in (("c", data_mod, "_convert_chunk"), ("per-cell", np, "loadtxt")):
            with monkeypatch.context() as m:
                m.setattr(owner, attr, disabled)
                assert main(["prepare", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
            caches.append([(tmp_path / name / f"dataset_cache.{ext}").read_bytes()
                           for ext in ("json", "npy")])
        assert caches[0] == caches[1]
        assert np.load(tmp_path / "c" / "dataset_cache.npy").shape == (600, 16)

    def test_one_job_never_imports_process_pool(self, tmp_path):
        self._prepare_without_pool(CONFIGS / "synthetic.json", tmp_path, 1)

    def test_two_jobs_prepare_never_imports_process_pool(self, tmp_path):
        # 100 distinct points, 6 copies each: most train rows tie at distance 0
        # and are confirmed in float64, over two row blocks, in-process.
        X = np.random.default_rng(3).normal(size=(100, 3))
        csv_path = tmp_path / "dup.csv"
        with open(csv_path, "w") as f:
            f.write("f1,f2,f3,y\n")
            for row in np.repeat(X, 6, axis=0):
                f.write(",".join(repr(float(v)) for v in row) + f",{float(row.sum())!r}\n")
        cfg = write_config(tmp_path / "dup.json", csv_path, tmp_path / "out")
        out = self._prepare_without_pool(cfg, tmp_path / "jobs2", 2)
        assert ", 328 of 360 rows confirmed exactly" in out
        assert main(["prepare", "--config", str(cfg), "--out", str(tmp_path / "jobs1"),
                     "--jobs", "1"]) == 0
        assert (tmp_path / "jobs2" / "dataset_cache.json").read_bytes() == \
            (tmp_path / "jobs1" / "dataset_cache.json").read_bytes()

    def test_prepare_never_imports_numpy_ma(self, tmp_path):
        # np.median imports numpy.ma; the summary's medians must not.
        script = ("import sys; from regrobust.cli import main; "
                  f"assert main(['prepare', '--config', {str(CONFIGS / 'boston.json')!r}, "
                  f"'--out', {str(tmp_path)!r}]) == 0; "
                  "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-c", script], cwd=REPO, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "median distance 0.5315, median label gap 2.05," in proc.stdout

    def test_nan_fraction_is_machine_parseable_error(self, workspace, capsys):
        tmp, cfg = workspace
        doc = json.loads(cfg.read_text())
        cfg.write_text(json.dumps({**doc, "fractions": [float("nan"), 0.5, 0.5]}))
        assert main(["prepare", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "fractions must be 3 finite positive numbers summing to 1" in err["message"]

    @pytest.mark.parametrize("key,text", [
        ("seed", '{"seed": 7, "seed": 9, '),
        ("epochs", '{"train": {"epochs": 1, "epochs": 2}, '),
    ], ids=["top-level", "nested"])
    def test_repeated_config_key_is_rejected(self, workspace, capsys, key, text):
        tmp, cfg = workspace
        doc = json.loads(cfg.read_text())
        del doc["train"]
        doc.pop(key, None)
        cfg.write_text(text + json.dumps(doc)[1:])
        assert main(["prepare", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert str(cfg) in err["message"]
        assert f"key '{key}' is repeated in one object" in err["message"]

    def test_out_below_a_file_is_machine_parseable_error(self, workspace, capsys):
        tmp, cfg = workspace
        assert main(["prepare", "--config", str(cfg), "--out", str(cfg / "out")]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "NotADirectoryError"
        assert str(cfg / "out") in err["message"]

    def test_missing_csv_is_machine_parseable_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", tmp_path / "nope.csv", tmp_path / "out")
        assert main(["prepare", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DataError"
        assert "nope.csv" in err["message"]

    @pytest.mark.parametrize("target,error", [("syn.csv", "DataError"),
                                              ("exp.json", "ConfigError")])
    def test_file_not_utf8_is_machine_parseable_error(self, workspace, capsys, target, error):
        tmp, cfg = workspace
        with open(tmp / target, "ab") as f:
            f.write(b"0.5,caf\xe9,1\n" if target.endswith(".csv") else b" \xe9")
        assert main(["prepare", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == error
        assert str(tmp / target) in err["message"] and "UTF-8" in err["message"]

    @pytest.mark.parametrize(
        "edit,field",
        [
            (lambda d: d["defenses"][0].update(kind="voodoo"), "defenses[0]"),
            (lambda d: d.update(fractions=[0.6, "x", 0.2]), "config.fractions"),
            (lambda d: d.update(fractions=[0.6, None, 0.2]), "config.fractions"),
            (lambda d: d["search"].update(n_trials="x"), "search.n_trials: expected int"),
            (lambda d: d["search"].update(n_trials=None), "search.n_trials: expected int"),
            (lambda d: d["train"].update(epoch=5), "train.epoch: unknown field"),
            (lambda d: d["defenses"][1].update(lam=2), "defenses[1].lam: unknown field"),
            (lambda d: d["attacks"][2].update(sptes=3), "attacks[2].sptes: unknown field"),
            (lambda d: d["attacks"][1].update(rho=5.0, steps=3),
             "attacks[1].rho: unknown field; a 'fgsm' entry takes only kind, epsilon"),
            (lambda d: d["attacks"][0].update(epsilon=9.0),
             "attacks[0].epsilon: unknown field; a 'none' entry takes only kind"),
            (lambda d: d["defenses"][2].update(norm_p="inf"), "defenses[2].norm_p: unknown field"),
            (lambda d: d["train"].update(seed=3),
             "train.seed: unknown field; the top-level seed sets it"),
            (lambda d: d.update(n_samples=0), "config.n_samples: must be >= 1, got 0"),
            (lambda d: d["defenses"][2].update(n_samples=4),
             "defenses[2].n_samples: unknown field; the top-level n_samples sets it"),
            (lambda d: d["defenses"][2].update(beta=2.0),
             "defenses[2].beta: unknown field; a tune: true entry takes only kind, tune"),
            (lambda d: d["defenses"][1].update({"lambda": 50.0}),
             "defenses[1].lambda: unknown field; a 'grad_reg' entry takes only kind, tune, sigma"),
            (lambda d: d["search"].update(n_trials=0), "search"),
            (lambda d: d["search"].update(objective="test_mse"),
             "search: objective must be one of"),
            (lambda d: d["search"].update(objective=3), "search.objective: expected str"),
            (lambda d: d["train"].update(hidden_dim=0), "train: hidden_dim must be >= 1, got 0"),
            (lambda d: d["train"].update(hidden_dim=-1),
             "train: hidden_dim must be >= 1, got -1"),
        ],
        ids=["defense-kind", "fractions-str", "fractions-null", "search-str", "search-null",
             "train-epoch", "defense-lam", "attack-sptes", "fgsm-rho", "none-epsilon",
             "norm-p", "train-seed", "n-samples-zero", "tuned-n-samples", "tuned-beta",
             "grad-reg-lambda", "search-n-trials", "search-objective", "search-objective-int",
             "hidden-dim-zero", "hidden-dim-negative"],
    )
    def test_invalid_config_names_field(self, workspace, capsys, edit, field):
        tmp, cfg = workspace
        doc = json.loads(cfg.read_text())
        edit(doc)
        cfg.write_text(json.dumps(doc))
        assert main(["prepare", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert field in err["message"]
        assert err["message"].startswith(field.split(":")[0])


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_shipped_config_loads_strictly(path):
    cfg = load_experiment_config(path)
    assert cfg.defenses and cfg.attacks


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_defense_to_dict_round_trips_through_reader(kind):
    cfg = DefenseConfig(kind=kind, delta=2.5, sigma=0.25, lam=3.5, beta=1.25, n_samples=7)
    doc = defense_to_dict(cfg)
    assert list(doc) == ["kind", *(_JSON_KEYS.get(p, p) for p in cfg.params)]
    entry = read_defense_entry(doc, "defense", n_samples=7)
    assert entry.tune is False
    assert defense_to_dict(entry.config) == doc
    assert all(getattr(entry.config, p) == getattr(cfg, p) for p in (*cfg.params, "n_samples"))


class TestStaleCache:
    @pytest.mark.parametrize(
        "stage_args,edit,field",
        [
            (["--seed", "1"], None, "seed"),
            ([], lambda doc, csv: doc.update(fractions=[0.5, 0.25, 0.25]), "fractions"),
            ([], lambda doc, csv: doc["dataset"].update(name="other"), "dataset.name"),
            ([], lambda doc, csv: csv.write_text(csv.read_text() + "0.5,0.5,0.5\n"), "csv_sha256"),
        ],
        ids=["seed", "fractions", "dataset-name", "csv-bytes"],
    )
    def test_mismatched_cache_names_field(self, workspace, capsys, stage_args, edit, field):
        tmp, cfg = workspace
        assert main(["prepare", "--config", str(cfg), "--seed", "0"]) == 0
        if edit is not None:
            doc = json.loads(cfg.read_text())
            edit(doc, tmp / "syn.csv")
            cfg.write_text(json.dumps(doc))
        for stage in ("tune", "evaluate"):
            assert main([stage, "--config", str(cfg), *stage_args]) == 1
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"] == "ConfigError"
            assert f"prepared with {field}=" in err["message"]

    def test_tune_rejects_cache_with_extra_stamp_key(self, workspace, capsys):
        tmp, cfg = workspace
        assert main(["prepare", "--config", str(cfg)]) == 0
        cache = tmp / "out" / "dataset_cache.json"
        doc = json.loads(cache.read_text())
        doc["provenance"]["dataset.encoding"] = "latin-1"
        cache.write_text(json.dumps(doc))
        assert main(["tune", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert ("prepared with dataset.encoding='latin-1' but this run has no "
                "dataset.encoding; run prepare again") in err["message"]
        assert not (tmp / "out" / "tuned_ansr.json").exists()

    def test_csv_hash_streamed_over_blocks_is_whole_file_sha256(self, tmp_path):
        csv_path = tmp_path / "big.csv"
        csv_path.write_bytes(np.random.default_rng(2).bytes(2 * cli._HASH_BLOCK + 12345))
        cfg = load_experiment_config(write_config(tmp_path / "c.json", csv_path, tmp_path))
        assert cli._provenance(cfg)["csv_sha256"] == \
            hashlib.sha256(csv_path.read_bytes()).hexdigest()

    def test_same_seed_reuses_cache(self, workspace):
        tmp, cfg = workspace
        cache = tmp / "out" / "dataset_cache.json"
        assert main(["prepare", "--config", str(cfg), "--seed", "1"]) == 0
        stamped = cache.read_bytes()
        assert json.loads(stamped)["provenance"]["seed"] == 1
        assert main(["tune", "--config", str(cfg), "--seed", "1"]) == 0
        assert cache.read_bytes() == stamped

    def test_tune_without_cache_writes_stamped_cache(self, workspace):
        tmp, cfg = workspace
        assert main(["tune", "--config", str(cfg), "--seed", "3"]) == 0
        doc = json.loads((tmp / "out" / "dataset_cache.json").read_text())
        assert doc["provenance"]["seed"] == 3
        assert main(["evaluate", "--config", str(cfg), "--seed", "4"]) == 1


def _edit_tuned_config(text, edit):
    """A tuned file's text with its config replaced by edit(config)."""
    doc = json.loads(text)
    return json.dumps({**doc, "config": edit(doc["config"])})


class TestStaleTuned:
    def test_evaluate_rejects_tuned_config_of_other_seed(self, workspace, capsys):
        tmp, cfg = workspace
        for stage in ("prepare", "tune"):
            assert main([stage, "--config", str(cfg), "--seed", "0"]) == 0
        assert main(["prepare", "--config", str(cfg), "--seed", "1"]) == 0
        assert main(["evaluate", "--config", str(cfg), "--seed", "1"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "tuned_ansr.json was tuned with seed=0" in err["message"]
        assert not (tmp / "out" / "cells.csv").exists()

    def test_combined_warm_start_rejects_tuned_configs_of_other_seed(self, workspace, capsys):
        tmp, cfg = workspace
        doc = json.loads(cfg.read_text())
        doc["defenses"] = [{"kind": k, "tune": True}
                           for k in ("pseudo_huber", "grad_reg", "ansr", "combined")]
        doc["train"]["epochs"] = 5
        cfg.write_text(json.dumps(doc))
        parts = ["--defense", "pseudo_huber", "--defense", "grad_reg", "--defense", "ansr"]
        assert main(["tune", "--config", str(cfg), "--seed", "0", *parts]) == 0
        assert main(["prepare", "--config", str(cfg), "--seed", "1"]) == 0
        assert main(["tune", "--config", str(cfg), "--seed", "1", "--defense", "combined"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "was tuned with seed=0" in err["message"]
        assert not (tmp / "out" / "tuned_combined.json").exists()
        # At the seed the parts were tuned with, they warm-start the search.
        assert main(["prepare", "--config", str(cfg), "--seed", "0"]) == 0
        assert main(["tune", "--config", str(cfg), "--seed", "0", "--defense", "combined"]) == 0
        trials = (tmp / "out" / "trials_combined.jsonl").read_text().splitlines()
        assert [json.loads(t)["source"] for t in trials].count("injected") == 2

    def test_combined_warm_start_merges_tuned_parts(self, workspace):
        tmp, cfg = workspace
        doc = json.loads(cfg.read_text())
        doc["defenses"] = [{"kind": k, "tune": True}
                           for k in ("pseudo_huber", "grad_reg", "ansr", "combined")]
        doc["train"]["epochs"] = 5
        cfg.write_text(json.dumps(doc))
        assert main(["tune", "--config", str(cfg)]) == 0
        out = tmp / "out"
        tuned = {k: json.loads((out / f"tuned_{k}.json").read_text())["config"]
                 for k in ("pseudo_huber", "grad_reg", "ansr")}
        merged = defense_to_dict(DefenseConfig(
            kind="combined", delta=tuned["pseudo_huber"]["delta"],
            sigma=tuned["grad_reg"]["sigma"], beta=tuned["ansr"]["beta"],
            lam=tuned["ansr"]["lambda"]))
        tempered = {**merged, "sigma": merged["sigma"] / 2, "lambda": merged["lambda"] / 2}
        trials = [json.loads(t) for t in (out / "trials_combined.jsonl").read_text().splitlines()]
        assert [t["config"] for t in trials if t["source"] == "injected"] == [merged, tempered]


    @pytest.mark.parametrize(
        "edit,field",
        [
            (lambda doc: doc["train"].update(epochs=7), "train.epochs=5"),
            (lambda doc: doc["search"].update(n_trials=3), "search.n_trials=2"),
            (lambda doc: doc.update(n_samples=4), "n_samples=8"),
            (lambda doc: doc["attacks"][2].update(rho=0.3),
             "search.attack={'epsilon': 0.025, 'kind': 'pgd', 'rho': 0.1, 'steps': 5}"),
        ],
        ids=["train-epochs", "search-n-trials", "n-samples", "tuning-attack-rho"],
    )
    def test_evaluate_rejects_tuned_config_of_other_settings(self, workspace, capsys, edit,
                                                              field):
        tmp, cfg = workspace
        doc = json.loads(cfg.read_text())
        doc["train"]["epochs"] = 5
        cfg.write_text(json.dumps(doc))
        assert main(["tune", "--config", str(cfg)]) == 0
        edit(doc)
        cfg.write_text(json.dumps(doc))
        assert main(["evaluate", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert f"tuned_ansr.json was tuned with {field} but this run has" in err["message"]
        assert not (tmp / "out" / "cells.csv").exists()

    def test_evaluate_rejects_tuned_file_with_extra_stamp_key(self, workspace, capsys):
        tmp, cfg = workspace
        doc = json.loads(cfg.read_text())
        doc["train"]["epochs"] = 5
        cfg.write_text(json.dumps(doc))
        assert main(["tune", "--config", str(cfg)]) == 0
        tuned = tmp / "out" / "tuned_ansr.json"
        doc = json.loads(tuned.read_text())
        doc["provenance"]["train.adam_beta1"] = 0.5
        tuned.write_text(json.dumps(doc))
        assert main(["evaluate", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert ("tuned_ansr.json was tuned with train.adam_beta1=0.5 but this run has no "
                "train.adam_beta1; run tune again") in err["message"]
        assert not (tmp / "out" / "cells.csv").exists()

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (lambda text: text[: len(text) // 2], "cannot read tuned config"),
            (lambda text: f"[{text}]", "is not a JSON object"),
            (lambda text: _edit_tuned_config(text, lambda c: {"kind": "grad_reg", "sigma": 0.3}),
             "holds a 'grad_reg' config"),
            (lambda text: _edit_tuned_config(text, lambda c: {"kind": "ansr", "tune": True}),
             "config.tune: a tuned config is fixed"),
            (lambda text: _edit_tuned_config(text, lambda c: {**c, "sigma": 5.0}),
             "config.sigma: unknown field; a 'ansr' entry takes only kind, tune, beta, lambda"),
            (lambda text: _edit_tuned_config(text, lambda c: {**c, "n_samples": 8}),
             "config.n_samples: unknown field; the top-level n_samples sets it"),
            (lambda text: text.replace("{", '{"kind": "grad_reg", ', 1),
             "key 'kind' is repeated in one object"),
        ],
        ids=["truncated", "list", "other-kind", "tune-true", "unread-sigma", "unread-n-samples",
             "repeated-key"],
    )
    def test_evaluate_rejects_corrupt_tuned_file(self, workspace, capsys, corrupt, message):
        tmp, cfg = workspace
        doc = json.loads(cfg.read_text())
        doc["train"]["epochs"] = 5
        cfg.write_text(json.dumps(doc))
        assert main(["tune", "--config", str(cfg)]) == 0
        tuned = tmp / "out" / "tuned_ansr.json"
        tuned.write_text(corrupt(tuned.read_text()))
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "tuned_ansr.json" in err["message"] and message in err["message"]
        assert err["message"].endswith("run tune again")
        assert not (tmp / "out" / "cells.csv").exists()

    def test_attack_filter_keeps_tuned_config_valid(self, workspace):
        # --attack fgsm leaves no pgd entry, but the tuning attack is the config's.
        tmp, cfg = workspace
        doc = json.loads(cfg.read_text())
        doc["train"]["epochs"] = 5
        cfg.write_text(json.dumps(doc))
        assert main(["tune", "--config", str(cfg)]) == 0
        assert main(["evaluate", "--config", str(cfg), "--attack", "fgsm"]) == 0
        with open(tmp / "out" / "cells.csv", newline="") as f:
            assert {c["attack"] for c in csv.DictReader(f)} == {"fgsm"}


class TestTuneEvaluateReport:
    def test_full_pipeline(self, workspace, capsys):
        tmp, cfg = workspace
        out = tmp / "out"
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert main(["tune", "--config", str(cfg)]) == 0

        tuned = json.loads((out / "tuned_ansr.json").read_text())
        assert tuned["kind"] == "ansr"
        assert 0.5 <= tuned["config"]["beta"] <= 8.0
        assert 0.1 <= tuned["config"]["lambda"] <= 10.0
        trials = [json.loads(l) for l in (out / "trials_ansr.jsonl").read_text().splitlines()]
        assert len(trials) == 2
        assert {t["trial"] for t in trials} == {0, 1}
        assert tuned["best_value"] == min(t["value"] for t in trials)

        assert main(["evaluate", "--config", str(cfg)]) == 0
        with open(out / "cells.csv", newline="") as f:
            cells = list(csv.DictReader(f))
        # 3 defenses x 3 attacks x 2 seeds
        assert len(cells) == 18
        assert {c["defense"] for c in cells} == {"none", "grad_reg", "ansr"}
        assert {c["attack"] for c in cells} == {"none", "fgsm", "pgd"}

        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["cells"]) == 9
        sci = re.compile(r"^\d\.\d{2}E[+-]\d{2}$")
        for cell in summary["cells"]:
            assert sci.match(cell["mean_test_mse"])
            assert cell["n_seeds"] == 2
            assert cell["std_test_mse"] is None or sci.match(cell["std_test_mse"])

        with open(out / "points.csv", newline="") as f:
            points = list(csv.DictReader(f))
        # pgd profiles for each defense x seed on the 16-row test split
        assert len(points) == 3 * 2 * 16
        assert {p["attack"] for p in points} == {"pgd"}

        assert main(["report", "--config", str(cfg)]) == 0
        assert "defense" in capsys.readouterr().out

    def test_failed_tune_writes_its_log_and_drops_the_tuned_config(self, workspace, capsys):
        tmp, cfg = workspace
        out = tmp / "out"
        assert main(["tune", "--config", str(cfg)]) == 0
        assert (out / "tuned_ansr.json").exists()
        # Every trial now diverges.
        doc = json.loads(cfg.read_text())
        doc["train"]["learning_rate"] = 1e160
        cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        with pytest.warns(RuntimeWarning):
            assert main(["tune", "--config", str(cfg)]) == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "SearchFailed"
        assert not (out / "tuned_ansr.json").exists()
        lines = (out / "trials_ansr.jsonl").read_text().splitlines()
        trials = [json.loads(line) for line in lines]
        assert [t["trial"] for t in trials] == [0, 1]
        assert all(t["value"] is None for t in trials)
        assert main(["evaluate", "--config", str(cfg)]) == 1
        assert "run tune again" in json.loads(capsys.readouterr().err.strip())["message"]

    def test_evaluate_without_tuned_file_errors(self, workspace, capsys):
        tmp, cfg = workspace
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert main(["evaluate", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "tune" in err["message"]

    def test_defense_and_attack_filters(self, workspace):
        tmp, cfg = workspace
        out = tmp / "out"
        assert main(["prepare", "--config", str(cfg)]) == 0
        rc = main(["evaluate", "--config", str(cfg),
                   "--defense", "none", "--attack", "none", "--attack", "fgsm"])
        assert rc == 0
        with open(out / "cells.csv", newline="") as f:
            cells = list(csv.DictReader(f))
        assert len(cells) == 4  # 1 defense x 2 attacks x 2 seeds
        assert {c["defense"] for c in cells} == {"none"}
        assert {c["attack"] for c in cells} == {"none", "fgsm"}

    def test_unknown_filter_rejected(self, workspace, capsys):
        tmp, cfg = workspace
        assert main(["evaluate", "--config", str(cfg), "--defense", "magic"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "magic" in err["message"]

    def test_unknown_attack_filter_rejected(self, workspace, capsys):
        tmp, cfg = workspace
        assert main(["evaluate", "--config", str(cfg), "--attack", "magic"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == "--attack ['magic'] not in config (has ['fgsm', 'none', 'pgd'])"

    def test_failed_evaluate_leaves_no_stale_points(self, workspace, capsys):
        tmp, cfg = workspace
        out = tmp / "out"
        doc = json.loads(cfg.read_text())
        doc["defenses"] = [{"kind": "none"}, {"kind": "grad_reg", "sigma": 0.3}]
        cfg.write_text(json.dumps(doc))
        assert main(["evaluate", "--config", str(cfg)]) == 0
        assert len((out / "points.csv").read_text().splitlines()) == 1 + 2 * 2 * 16
        # The second defense diverges at once; only the none/fgsm cells finish.
        doc["defenses"][1]["sigma"] = 1e308
        cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        with pytest.warns(RuntimeWarning):
            assert main(["evaluate", "--config", str(cfg), "--attack", "fgsm"]) == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "TrainingDiverged"
        with open(out / "cells.csv", newline="") as f:
            assert [(c["defense"], c["attack"]) for c in csv.DictReader(f)] == \
                [("none", "fgsm")] * 2
        assert (out / "points.csv").read_text().splitlines() == \
            [",".join(f.name for f in fields(PointRecord))]
        summary = json.loads((out / "summary.json").read_text())
        assert [(c["defense"], c["attack"]) for c in summary["cells"]] == [("none", "fgsm")]

    def test_evaluate_with_no_finished_cell_leaves_no_stale_artifacts(self, workspace, capsys):
        tmp, cfg = workspace
        out = tmp / "out"
        doc = json.loads(cfg.read_text())
        doc["defenses"] = [{"kind": "grad_reg", "sigma": 0.3}]
        cfg.write_text(json.dumps(doc))
        assert main(["evaluate", "--config", str(cfg)]) == 0
        assert main(["report", "--config", str(cfg)]) == 0
        # Now the only defense diverges at once, so no cell finishes.
        doc["defenses"][0]["sigma"] = 1e308
        cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        with pytest.warns(RuntimeWarning):
            assert main(["evaluate", "--config", str(cfg)]) == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "TrainingDiverged"
        for name, cls in (("cells.csv", CellRecord), ("points.csv", PointRecord)):
            assert (out / name).read_text().splitlines() == [",".join(f.name for f in fields(cls))]
        assert json.loads((out / "summary.json").read_text()) == {"cells": []}
        assert main(["report", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DataError" and str(out / "cells.csv") in err["message"]

    def test_evaluate_failing_before_training_leaves_no_stale_artifacts(self, workspace, capsys):
        tmp, cfg = workspace
        out = tmp / "out"
        assert main(["tune", "--config", str(cfg)]) == 0
        assert main(["evaluate", "--config", str(cfg), "--attack", "fgsm"]) == 0
        (out / "tuned_ansr.json").unlink()
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg), "--attack", "fgsm"]) == 1
        assert "run tune again" in json.loads(capsys.readouterr().err.strip())["message"]
        for name in ("cells.csv", "points.csv", "summary.json"):
            assert not (out / name).exists()
        assert main(["report", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DataError" and str(out / "cells.csv") in err["message"]

    def test_report_without_cells_errors(self, workspace, capsys):
        tmp, cfg = workspace
        assert main(["report", "--config", str(cfg)]) == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "DataError"


class TestDeterminism:
    def _run(self, tmp, cfg_path, out_dir, jobs, seed=None):
        args_common = ["--config", str(cfg_path), "--out", str(out_dir), "--jobs", str(jobs)]
        if seed is not None:
            args_common += ["--seed", str(seed)]
        assert main(["prepare", *args_common]) == 0
        assert main(["tune", *args_common]) == 0
        assert main(["evaluate", *args_common]) == 0
        return {
            name: (out_dir / name).read_bytes()
            for name in ("dataset_cache.json", "dataset_cache.npy", "cells.csv", "points.csv",
                         "summary.json", "tuned_ansr.json")
        }

    def test_byte_identical_across_jobs(self, workspace):
        tmp, cfg = workspace
        a = self._run(tmp, cfg, tmp / "o1", jobs=1)
        b = self._run(tmp, cfg, tmp / "o2", jobs=2)
        assert a == b

    def test_sigmoid_head_byte_identical_across_jobs(self, tmp_path):
        # No tracked config trains the sigmoid head; this runs every kind through it.
        csv_path = tmp_path / "bounded.csv"
        write_synthetic_csv(csv_path, bounded=True)
        cfg = write_config(
            tmp_path / "exp.json", csv_path, tmp_path / "out",
            dataset={"path": str(csv_path), "target_column": "y", "name": "bounded",
                     "target_bounded_01": True},
            train={"learning_rate": 0.02, "epochs": 4, "batch_size": 16},
            defenses=[
                {"kind": "none"},
                {"kind": "pseudo_huber", "delta": 0.3},
                {"kind": "grad_reg", "sigma": 0.3},
                {"kind": "ansr", "tune": True},
                {"kind": "combined", "delta": 0.3, "sigma": 0.1, "beta": 0.5, "lambda": 2.0},
            ],
        )
        a = self._run(tmp_path, cfg, tmp_path / "o1", jobs=1)
        b = self._run(tmp_path, cfg, tmp_path / "o2", jobs=2)
        assert json.loads(a["dataset_cache.json"])["target_bounded_01"] is True
        with open(tmp_path / "o1" / "cells.csv", newline="") as f:
            assert {c["defense"] for c in csv.DictReader(f)} == set(KINDS)
        assert a == b

    @pytest.mark.parametrize("name", ["synthetic", "boston"])
    def test_prepare_cache_byte_identical_across_jobs(self, tmp_path, name):
        # The neighbour search runs in-process at any --jobs (Boston confirms
        # 24 rows, one row block); both caches must equal the tracked one.
        for jobs in (1, 3):
            out = tmp_path / f"jobs{jobs}"
            assert main(["prepare", "--config", str(CONFIGS / f"{name}.json"),
                         "--out", str(out), "--jobs", str(jobs)]) == 0
            for cache in ("dataset_cache.json", "dataset_cache.npy"):
                assert (out / cache).read_bytes() == (REPO / "out" / name / cache).read_bytes()

    def test_seed_changes_results(self, workspace):
        tmp, cfg = workspace
        a = self._run(tmp, cfg, tmp / "s1", jobs=1, seed=1)
        b = self._run(tmp, cfg, tmp / "s2", jobs=1, seed=2)
        assert a["cells.csv"] != b["cells.csv"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_every_text_file_is_opened_as_utf8(workspace, jobs):
    # Each stage runs in a fresh process in which an open() that falls back to
    # the locale's encoding is an error; at jobs=2 the forked workers run too.
    tmp, cfg = workspace
    cfg = write_config(cfg, tmp / "syn.csv", tmp / "out",
                       train={"learning_rate": 0.02, "epochs": 2, "batch_size": 16})
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    for stage in ("prepare", "tune", "evaluate", "report"):
        script = ("import sys; from regrobust.cli import main; "
                  f"sys.exit(main([{stage!r}, '--config', {str(cfg)!r}, '--jobs', '{jobs}']))")
        proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                               "-W", "error::EncodingWarning", "-c", script],
                              cwd=REPO, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
