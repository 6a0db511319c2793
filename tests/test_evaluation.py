import csv
import json
import statistics
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from regrobust.attacks import DEFAULT_PGD, AttackConfig
from regrobust.data import TEST, nearest_train_distance
from regrobust.defenses import DefenseConfig
from regrobust.errors import DataError, TrainingDiverged
from regrobust.evaluation import (
    AggregateRecord,
    CellRecord,
    PointRecord,
    aggregate,
    evaluate_cell,
    format_summary_table,
    mse,
    perturbation_profile,
    read_cells_csv,
    sci3,
    train_models,
    write_cells_csv,
    write_points_csv,
    write_summary_json,
)
from regrobust.nn import RegressionNet, forward
from regrobust.training import TrainConfig, train

from conftest import random_net

REFERENCE = Path(__file__).resolve().parents[1] / "out" / "boston"


def nn_to_train(ds):
    return nearest_train_distance(ds, ds.features[ds.rows(TEST)])


class TestSci3:
    @pytest.mark.parametrize(
        "value,expected",
        [(25.0, "2.50E+01"), (0.0001234, "1.23E-04"), (1.47e1, "1.47E+01"),
         (4.89e1, "4.89E+01"), (0.0, "0.00E+00"), (123456.0, "1.23E+05")],
    )
    def test_formats(self, value, expected):
        assert sci3(value) == expected


class TestAggregate:
    def test_matches_independent_stats(self):
        rng = np.random.default_rng(0)
        cells = [
            CellRecord("d", "none", "pgd", i, float(v))
            for i, v in enumerate(rng.uniform(10, 50, size=6))
        ]
        (agg,) = aggregate(cells)
        vals = [c.test_mse for c in cells]
        assert agg.mean == pytest.approx(statistics.fmean(vals), rel=1e-12)
        assert agg.std == pytest.approx(statistics.stdev(vals), rel=1e-12)
        assert agg.n_seeds == 6

    def test_single_seed_std_is_none(self):
        (agg,) = aggregate([CellRecord("d", "none", "none", 0, 3.0)])
        assert agg.std is None and agg.mean == 3.0 and agg.n_seeds == 1

    def test_groups_and_sorts_by_key(self):
        cells = [
            CellRecord("d", "b_def", "pgd", 0, 1.0),
            CellRecord("d", "a_def", "pgd", 0, 2.0),
            CellRecord("d", "a_def", "fgsm", 0, 3.0),
        ]
        aggs = aggregate(cells)
        assert [(a.defense, a.attack) for a in aggs] == [
            ("a_def", "fgsm"), ("a_def", "pgd"), ("b_def", "pgd")
        ]


class TestEvaluateCell:
    def test_clean_cell_on_learnable_data(self, lin_ds):
        # width 1 (the 1-d default) is a single relu hinge and leaves some
        # seeds stuck near the 1e-2 bar, so give the fit a few units
        cfg = TrainConfig(learning_rate=0.01, epochs=300, seed=0, hidden_dim=8)
        defense = DefenseConfig(kind="none")
        models = train_models(lin_ds, defense, cfg, 2)
        cells = evaluate_cell(lin_ds, defense, AttackConfig(kind="none"), models)
        assert len(cells) == 2
        assert {c.seed for c in cells} == {0, 1}
        assert all(c.test_mse < 1e-2 for c in cells)
        assert all(c.attack == "none" and c.defense == "none" for c in cells)

    def test_seeds_differ_but_run_is_reproducible(self, lin_ds):
        cfg = TrainConfig(learning_rate=0.01, epochs=60, seed=0)
        defense = DefenseConfig(kind="none")
        a = evaluate_cell(lin_ds, defense, DEFAULT_PGD, train_models(lin_ds, defense, cfg, 2))
        b = evaluate_cell(lin_ds, defense, DEFAULT_PGD, train_models(lin_ds, defense, cfg, 2))
        assert [c.test_mse for c in a] == [c.test_mse for c in b]
        assert a[0].test_mse != a[1].test_mse

    def test_shared_models_reused_across_attacks(self, lin_ds):
        cfg = TrainConfig(learning_rate=0.01, epochs=60, seed=0)
        defense = DefenseConfig(kind="none")
        models = train_models(lin_ds, defense, cfg, 2)
        clean = evaluate_cell(lin_ds, defense, AttackConfig(kind="none"), models)
        evaluate_cell(lin_ds, defense, DEFAULT_PGD, models)
        again = evaluate_cell(lin_ds, defense, AttackConfig(kind="none"), models)
        retrained = evaluate_cell(
            lin_ds, defense, AttackConfig(kind="none"), train_models(lin_ds, defense, cfg, 2)
        )
        assert [c.test_mse for c in clean] == [c.test_mse for c in again]
        assert [c.test_mse for c in clean] == [c.test_mse for c in retrained]

    def test_divergence_identifies_seed(self, lin_ds):
        cfg = TrainConfig(learning_rate=1e160, epochs=2, seed=0)
        with pytest.raises(TrainingDiverged, match=r"seed index 0"):
            train_models(lin_ds, DefenseConfig(kind="none"), cfg, 1)

    def test_jobs_do_not_change_models(self, lin_ds):
        cfg = TrainConfig(learning_rate=0.01, epochs=40, seed=3)
        serial = train_models(lin_ds, DefenseConfig(kind="none"), cfg, 3, jobs=1)
        par = train_models(lin_ds, DefenseConfig(kind="none"), cfg, 3, jobs=2)
        for (i, a), (j, b) in zip(serial, par):
            assert i == j
            assert np.array_equal(a.w1, b.w1) and a.b2 == b.b2


class TestPerturbationProfile:
    def test_constant_net_has_zero_shift(self, lin_ds):
        net = RegressionNet(w1=np.zeros((1, 1)), b1=np.zeros(1), w2=np.zeros(1), b2=2.0)
        records = perturbation_profile(lin_ds, DefenseConfig(kind="none"), DEFAULT_PGD,
                                       [(0, net)], nn_to_train(lin_ds))
        rows = lin_ds.rows(TEST)
        assert len(records) == len(rows)
        assert all(r.pred_shift == 0.0 for r in records)
        assert all(r.pred_clean == 2.0 and r.pred_adv == 2.0 for r in records)

    def test_fields_consistent(self, lin_ds):
        cfg = TrainConfig(learning_rate=0.01, epochs=200, seed=0)
        net, _ = train(lin_ds, DefenseConfig(kind="none"), cfg)
        records = perturbation_profile(lin_ds, DefenseConfig(kind="none"), DEFAULT_PGD,
                                       [(0, net)], nn_to_train(lin_ds))
        for r in records:
            assert r.abs_err_adv == pytest.approx(abs(r.pred_adv - r.y), abs=1e-15)
            assert r.pred_shift == pytest.approx(abs(r.pred_adv - r.pred_clean), abs=1e-15)
            assert r.nn_train_distance >= 0.0
        # the attack should hurt a plain overfit on average
        assert np.mean([r.abs_err_adv for r in records]) > np.mean(
            [abs(r.pred_clean - r.y) for r in records]
        )


class TestArtifacts:
    def _cells(self):
        return [
            CellRecord("d", "none", "pgd", 0, 48.25),
            CellRecord("d", "none", "pgd", 1, 50.5),
            CellRecord("d", "ansr", "pgd", 0, 0.1 + 0.2),  # awkward float on purpose
        ]

    def test_cells_roundtrip_exact(self, tmp_path):
        p = tmp_path / "cells.csv"
        cells = self._cells()
        write_cells_csv(p, cells)
        assert read_cells_csv(p) == cells

    def test_writes_are_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_cells_csv(a, self._cells())
        write_cells_csv(b, self._cells())
        assert a.read_bytes() == b.read_bytes()

    def test_summary_json_uses_sci3_and_null_std(self, tmp_path):
        p = tmp_path / "summary.json"
        write_summary_json(p, aggregate(self._cells()))
        doc = json.loads(p.read_text())
        by_def = {c["defense"]: c for c in doc["cells"]}
        assert by_def["none"]["mean_test_mse"] == sci3((48.25 + 50.5) / 2)
        assert by_def["ansr"]["std_test_mse"] is None
        assert by_def["ansr"]["mean_test_mse"] == "3.00E-01"

    def test_points_csv_layout(self, tmp_path, lin_ds):
        net = RegressionNet(w1=np.zeros((1, 1)), b1=np.zeros(1), w2=np.zeros(1), b2=1.0)
        records = perturbation_profile(lin_ds, DefenseConfig(kind="none"), DEFAULT_PGD,
                                       [(0, net)], nn_to_train(lin_ds))
        p = tmp_path / "points.csv"
        write_points_csv(p, records)
        with open(p, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(records)
        assert rows[0]["defense"] == "none"
        assert float(rows[0]["pred_clean"]) == records[0].pred_clean

    def test_points_csv_without_records_is_header_only(self, tmp_path):
        # evaluate writes this when no pgd attack runs
        p = tmp_path / "points.csv"
        write_points_csv(p, [])
        assert p.read_bytes() == (b"defense,attack,seed,index,y,pred_clean,pred_adv,"
                                  b"abs_err_adv,pred_shift,nn_train_distance\r\n")

    def test_writers_reproduce_tracked_reference(self, tmp_path):
        cells = read_cells_csv(REFERENCE / "cells.csv")
        write_cells_csv(tmp_path / "cells.csv", cells)
        assert (tmp_path / "cells.csv").read_bytes() == (REFERENCE / "cells.csv").read_bytes()
        specs = fields(PointRecord)
        with open(REFERENCE / "points.csv", newline="") as f:
            points = [PointRecord(**{s.name: s.type(r[s.name]) for s in specs})
                      for r in csv.DictReader(f)]
        assert len(points) == 5 * 6 * 101
        write_points_csv(tmp_path / "points.csv", points)
        assert (tmp_path / "points.csv").read_bytes() == (REFERENCE / "points.csv").read_bytes()

    def test_malformed_cells_csv_rejected(self, tmp_path):
        p = tmp_path / "cells.csv"
        p.write_text("dataset,defense\nboston,none\n")
        with pytest.raises(DataError, match="malformed"):
            read_cells_csv(p)

    def test_table_includes_every_aggregate(self):
        text = format_summary_table(aggregate(self._cells()))
        assert "ansr" in text and "none" in text and "4.94E+01" in text
