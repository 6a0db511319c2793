"""The tracked out/boston reference and configs/boston_tuned.json stay in step
with the code: evaluate reproduces the reference byte for byte, and the tuned
config is configs/boston.json plus the tracked tuned values."""
import filecmp
import json

from conftest import REPO
from regrobust.config import _JSON_KEYS
from regrobust.defenses import DefenseConfig

REFERENCE = REPO / "out" / "boston"


def test_evaluate_reproduces_tracked_boston_reference(boston_eval_dir):
    names = ("cells.csv", "points.csv", "summary.json", "dataset_cache.json")
    differ = [n for n in names
              if not filecmp.cmp(boston_eval_dir / n, REFERENCE / n, shallow=False)]
    assert differ == [], f"evaluate no longer reproduces {REFERENCE}: {differ} differ"


def test_boston_tuned_config_is_boston_plus_tracked_tuned_values():
    base = json.loads((REPO / "configs" / "boston.json").read_text())
    tuned = json.loads((REPO / "configs" / "boston_tuned.json").read_text())
    expected = []
    for entry in base.pop("defenses"):
        entry = dict(entry)
        if entry.pop("tune", False):
            doc = json.loads((REFERENCE / f"tuned_{entry['kind']}.json").read_text())
            keys = [_JSON_KEYS.get(p, p) for p in DefenseConfig(kind=entry["kind"]).params]
            entry.update({key: doc["config"][key] for key in keys})
        expected.append(entry)
    assert tuned.pop("defenses") == expected
    assert {**tuned, "out_dir": None} == {**base, "out_dir": None}
