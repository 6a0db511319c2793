"""The tracked out/boston reference and configs/boston_tuned.json stay in step
with the code: evaluate reproduces the reference byte for byte, each tuned
kind's winning trial replays to its tracked value bit for bit, the tracked
tuned files hold the form and stamp the code writes, every tracked trial is
the one draw_trials draws and trains from its position's seed, and the tuned
config is configs/boston.json plus the tracked tuned values."""
import filecmp
import json
from dataclasses import replace

from conftest import REPO
from regrobust import cli
from regrobust.config import _JSON_KEYS, defense_to_dict, load_experiment_config
from regrobust.data import VAL, load_dataset_cache
from regrobust.defenses import DefenseConfig
from regrobust.parallel import pmap
from regrobust.seeding import derive_seed
from regrobust.training import draw_trials, split_mse, train

REFERENCE = REPO / "out" / "boston"


def _boston_config():
    cfg = load_experiment_config(REPO / "configs" / "boston.json")
    return replace(cfg, dataset=replace(cfg.dataset, path=str(REPO / cfg.dataset.path)))


def _tuned_kinds(cfg):
    return [e.config.kind for e in cfg.defenses if e.tune]


def _trials(kind):
    with open(REFERENCE / f"trials_{kind}.jsonl") as f:
        return [json.loads(line) for line in f]


def test_evaluate_reproduces_tracked_boston_reference(boston_eval_dir):
    names = ("cells.csv", "points.csv", "summary.json", "dataset_cache.json",
             "dataset_cache.npy")
    differ = [n for n in names
              if not filecmp.cmp(boston_eval_dir / n, REFERENCE / n, shallow=False)]
    assert differ == [], f"evaluate no longer reproduces {REFERENCE}: {differ} differ"


def test_boston_tuned_config_is_boston_plus_tracked_tuned_values():
    base = json.loads((REPO / "configs" / "boston.json").read_text())
    tuned = json.loads((REPO / "configs" / "boston_tuned.json").read_text())
    # A tuned file's config is a fixed defense entry, so it is copied whole.
    expected = [json.loads((REFERENCE / f"tuned_{entry['kind']}.json").read_text())["config"]
                if entry.get("tune") else entry for entry in base.pop("defenses")]
    assert tuned.pop("defenses") == expected
    assert {**tuned, "out_dir": None} == {**base, "out_dir": None}


def test_tracked_tuned_files_hold_only_what_the_code_writes():
    cfg = _boston_config()
    stamp = cli._tuned_stamp(cfg, cli._provenance(cfg))
    for kind in _tuned_kinds(cfg):
        doc = json.loads((REFERENCE / f"tuned_{kind}.json").read_text())
        assert doc["provenance"] == stamp, kind
        keys = {"kind", *(_JSON_KEYS.get(p, p) for p in DefenseConfig(kind=kind).params)}
        for config in [doc["config"]] + [t["config"] for t in _trials(kind)]:
            assert set(config) == keys, (kind, config)


def test_tracked_winning_trials_replay_bit_for_bit():
    cfg = _boston_config()
    provenance = cli._provenance(cfg)
    ds = load_dataset_cache(REFERENCE / "dataset_cache.json", provenance)

    def replay(kind):
        config = cli._read_tuned(REFERENCE, kind, cfg, provenance)
        doc = json.loads((REFERENCE / f"tuned_{kind}.json").read_text())
        trial = _trials(kind)[doc["best_trial"]]
        assert trial["config"] == doc["config"]
        net, _ = train(ds, config, cfg.train, trial["train_seed"])
        return split_mse(net, ds, VAL, cfg.tuning_attack), doc["best_value"]

    # The two stability-penalty kinds go first: they take most of the time.
    kinds = sorted(_tuned_kinds(cfg), key=lambda k: "lam" not in DefenseConfig(kind=k).params)
    for kind, (value, best) in zip(kinds, pmap(replay, kinds, jobs=2)):
        assert value == best, f"{kind}: replayed {value!r}, tracked best_value {best!r}"


def test_tracked_trials_are_draw_trials_and_positional_seeds():
    # Nothing is trained: the tracked logs hold the warm starts, then exactly
    # draw_trials' list, and trial k of each was trained from its position's seed.
    cfg = _boston_config()
    for entry in (e for e in cfg.defenses if e.tune):
        kind = entry.config.kind
        seed = derive_seed(cfg.seed, "tune", kind)
        records = _trials(kind)
        sampled = [r["config"] for r in records if r["source"] == "sampled"]
        drawn = draw_trials(entry.config, cfg.search.n_trials, seed)
        assert sampled == [defense_to_dict(config) for config, _ in drawn], kind
        sources = [r["source"] for r in records]
        n_injected = len(records) - len(sampled)
        assert sources == ["injected"] * n_injected + ["sampled"] * len(sampled), kind
        assert [r["trial"] for r in records] == list(range(len(records))), kind
        assert [r["train_seed"] for r in records] == [derive_seed(seed, "trial", k)
                                                      for k in range(len(records))], kind
