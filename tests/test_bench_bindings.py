"""The benchmark's trace points must name real bindings of the package.

bench/tracer.py wraps globals by name; a rename in the package would leave a
layer untraced (or break the call counts run.py checks) only at benchmark
time. These tests read the tracer's tables without installing it, and run
one traced benchmark iteration per stage mix on a tiny synthetic config.
"""
import importlib
import json
import pkgutil
import sys
import types
from pathlib import Path

import pytest

import regrobust
from regrobust.cli import _apply_overrides, build_parser, main
from regrobust.config import load_experiment_config

REPO = Path(__file__).resolve().parents[1]
TRACER = REPO / "bench" / "tracer.py"
RUN = REPO / "bench" / "run.py"


def _compiled(path: Path, name: str):
    """A bench script as a module, compiled from its source so nothing is written there."""
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


tracer = _compiled(TRACER, "bench_tracer")


@pytest.mark.parametrize("module_name,attr,span", tracer.BINDINGS,
                         ids=[f"{m}.{a}" for m, a, _ in tracer.BINDINGS])
def test_binding_resolves(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{span}: {module_name} has no {attr}"


@pytest.mark.parametrize("module_name", tracer.PMAP_CALLERS)
def test_pmap_caller_binds_pmap(module_name):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, "pmap", None)), f"{module_name} has no pmap"


def test_every_pmap_caller_is_traced():
    # A module that binds pmap but is not in PMAP_CALLERS runs an untraced
    # pool, which parallel.pmap_s and worker_busy_frac would leave out.
    names = (f"regrobust.{m.name}" for m in pkgutil.iter_modules(regrobust.__path__))
    callers = {name for name in names
               if name != "regrobust.parallel" and hasattr(importlib.import_module(name), "pmap")}
    assert callers <= set(tracer.PMAP_CALLERS)


def test_cli_stages_are_wrappable():
    cli = importlib.import_module("regrobust.cli")
    assert set(cli.COMMANDS) == {"prepare", "tune", "evaluate", "report"}


def test_cache_fields_read_by_run_py(tmp_path):
    # bench/run.py counts train rows from split and features from feature_names.
    assert main(["prepare", "--config", str(REPO / "configs" / "synthetic.json"),
                 "--out", str(tmp_path)]) == 0
    cache = json.loads((tmp_path / "dataset_cache.json").read_text())
    n, d = len(cache["targets"]), len(cache["normalizer"]["mean"])
    assert isinstance(cache["split"], list) and len(cache["split"]) == n
    assert set(cache["split"]) <= {"train", "val", "test"}
    assert isinstance(cache["feature_names"], list) and len(cache["feature_names"]) == d
    assert all(isinstance(name, str) for name in cache["feature_names"])


@pytest.fixture
def bench_run(monkeypatch):
    """bench/run.py as a module; the environment and modules it touches are restored after."""
    monkeypatch.setitem(sys.modules, "tracer", tracer)  # run.py's `import tracer`
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py pins these when it is loaded
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")  # the runner process writes no .pyc
    return _compiled(RUN, "bench_run")


def test_workload_configs_load(bench_run, tmp_path):
    # A key the config parser rejects would fail every run of that workload.
    for name, workload in bench_run.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(workload.make_config(0, work)))
        args = build_parser().parse_args(
            [workload.stages[-1], "--config", str(cfg_path), *workload.extra_args])
        cfg = _apply_overrides(load_experiment_config(cfg_path), args)
        assert cfg.defenses and cfg.attacks, name


def _tiny_config(tune: bool) -> dict:
    cfg = json.loads((REPO / "configs" / "synthetic.json").read_text())
    cfg["dataset"]["path"] = str(REPO / cfg["dataset"]["path"])
    cfg["train"]["epochs"] = 2
    cfg["search"]["n_trials"] = 2
    cfg["defenses"] = [{"kind": "none"}, {"kind": "ansr", "tune": tune}]
    cfg.update(n_samples=4, n_seeds=2)
    return cfg


@pytest.mark.parametrize("stages", [("prepare", "evaluate", "report"), ("prepare", "tune")],
                         ids=["evaluate", "tune"])
def test_traced_counts_match_run_py(bench_run, tmp_path, stages):
    # A change to how often the package trains or attacks must move run.py's
    # computed_counts with it, or every traced benchmark run fails check_trace.
    cfg = _tiny_config(tune="tune" in stages)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    workload = bench_run.Workload("tiny-" + stages[-1], stages, make_config=None)
    rec = bench_run.run_iteration(workload, cfg_path, cfg, tmp_path / "it", traced=True,
                                  time_left=120.0)
    assert rec["errors"] == []
    assert rec["untraced_bindings"] == []
    assert rec["diverged"] == 0
    assert bench_run.check_trace(rec) == []
    assert rec["trace"]["attacks.apply_attack"]["calls"] == rec["counts"]["apply_attack_calls"] > 0
