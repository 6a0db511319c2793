"""The benchmark's trace points must name real bindings of the package.

bench/tracer.py wraps globals by name; a rename in the package would leave a
layer untraced (or break the call counts run.py checks) only at benchmark
time. These tests read the tracer's tables without installing it.
"""
import importlib
import json
import types
from pathlib import Path

import pytest

from regrobust.cli import main

REPO = Path(__file__).resolve().parents[1]
TRACER = REPO / "bench" / "tracer.py"


def _tracer():
    """bench/tracer.py as a module, compiled from its source so nothing is written there."""
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


tracer = _tracer()


@pytest.mark.parametrize("module_name,attr,span", tracer.BINDINGS,
                         ids=[f"{m}.{a}" for m, a, _ in tracer.BINDINGS])
def test_binding_resolves(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{span}: {module_name} has no {attr}"


@pytest.mark.parametrize("module_name", tracer.PMAP_CALLERS)
def test_pmap_caller_binds_pmap(module_name):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, "pmap", None)), f"{module_name} has no pmap"


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
