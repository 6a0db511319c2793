"""Span tracing around calls into regrobust's layers, from outside the package.

The package binds most names with ``from x import f``, so a wrapper on the
defining module is never called. Each entry of ``BINDINGS`` names the module
whose global the *caller* looks up at call time, and that global is replaced.

Spans are ``(id, parent, name, start, end)`` with ``time.perf_counter``
stamps (CLOCK_MONOTONIC on Linux, so forked workers share the time base).
They stay in memory and are written as JSON lines when the run process ends.
Workers forked by ``parallel.pmap`` leave through ``os._exit`` without running
``atexit``, so each task flushes its worker's spans to a per-pid file when it
returns.
"""
import functools
import importlib
import json
import os
import time
from pathlib import Path

# (caller module, global name looked up there, span name)
BINDINGS = (
    ("regrobust.data", "load_csv", "data.load_csv"),
    ("regrobust.data", "compute_neighbors", "data.compute_neighbors"),
    ("regrobust.data", "save_dataset_cache", "data.save_dataset_cache"),
    ("regrobust.data", "load_dataset_cache", "data.load_dataset_cache"),
    ("regrobust.cli", "random_search", "training.random_search"),
    ("regrobust.cli", "train_models", "evaluation.train_models"),
    ("regrobust.cli", "evaluate_cell", "evaluation.evaluate_cell"),
    ("regrobust.cli", "perturbation_profile", "evaluation.perturbation_profile"),
    ("regrobust.cli", "write_cells_csv", "evaluation.write"),
    ("regrobust.cli", "write_points_csv", "evaluation.write"),
    ("regrobust.cli", "write_summary_json", "evaluation.write"),
    ("regrobust.training", "train", "training.train"),
    ("regrobust.training", "batch_loss_grad", "defenses.batch_loss_grad"),
    ("regrobust.training", "adam_step", "training.adam_step"),
    ("regrobust.training", "apply_attack", "attacks.apply_attack"),
    ("regrobust.evaluation", "train", "training.train"),
    ("regrobust.evaluation", "apply_attack", "attacks.apply_attack"),
    ("regrobust.defenses", "batch_backward", "nn.batch_backward"),
    ("regrobust.defenses", "grad_penalty_batch", "nn.grad_penalty_batch"),
    ("regrobust.attacks", "input_gradient", "nn.input_gradient"),
)
PMAP_CALLERS = ("regrobust.training", "regrobust.evaluation")

_TRACER = None  # the tracer installed in this process; forked workers inherit it


class Tracer:
    def __init__(self, run_id: str, spans_dir: Path):
        self.run_id = run_id
        self.spans_dir = Path(spans_dir)
        self.main_pid = os.getpid()
        self.spans = []
        self.stack = [None]
        self._next = 0

    def span(self, name: str, fn):
        """Call ``fn`` under a span named ``name``; returns its result."""
        self._next += 1
        sid = f"{os.getpid()}-{self._next}"
        parent = self.stack[-1]
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def flush(self):
        """Append this process's spans to its own file and forget them."""
        path = self.spans_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as f:
            for sid, parent, name, start, end in self.spans:
                f.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                    "name": name, "start": start, "end": end}) + "\n")
        self.spans = []


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.span(name, lambda: fn(*args, **kwargs))

    return traced


class TracedTask:
    """Picklable task wrapper that pmap ships to its workers by reference."""

    def __init__(self, fn, parent):
        self.fn = fn
        self.parent = parent

    def __call__(self, item):
        tracer = _TRACER
        in_worker = os.getpid() != tracer.main_pid
        if in_worker:
            # Spans copied from the parent at fork time are the parent's to write.
            tracer.spans = []
            tracer.stack = [self.parent]
        try:
            return tracer.span("parallel.task", lambda: self.fn(item))
        finally:
            if in_worker:
                tracer.flush()


def _traced_pmap(tracer: Tracer, pmap):
    @functools.wraps(pmap)
    def traced(fn, items, jobs=1):
        def run():
            return pmap(TracedTask(fn, tracer.stack[-1]), items, jobs=jobs)

        return tracer.span("parallel.pmap", run)

    return traced


def install(run_id: str, spans_dir: Path) -> list:
    """Wrap every binding that exists; returns the span names left without one."""
    global _TRACER
    tracer = _TRACER = Tracer(run_id, spans_dir)
    missing = []
    for module_name, attr, span_name in BINDINGS:
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            missing.append(span_name)
            continue
        setattr(module, attr, _wrap(tracer, span_name, getattr(module, attr)))
    for module_name in PMAP_CALLERS:
        module = importlib.import_module(module_name)
        if hasattr(module, "pmap"):
            module.pmap = _traced_pmap(tracer, module.pmap)
        else:
            missing += ["parallel.pmap", "parallel.task"]
    cli = importlib.import_module("regrobust.cli")
    for stage, fn in list(cli.COMMANDS.items()):
        cli.COMMANDS[stage] = _wrap(tracer, f"cli.{stage}", fn)
    return missing


def finish():
    if _TRACER is not None:
        _TRACER.flush()


def load_spans(spans_dir: Path) -> list:
    spans = []
    for path in sorted(Path(spans_dir).glob("spans-*.jsonl")):
        with open(path) as f:
            spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list) -> dict:
    """Per span name: calls, total seconds, self seconds and each call's duration.

    Self time is a span's duration minus the part of it that its children
    cover; children running in parallel workers are counted once.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        dur = s["end"] - s["start"]
        self_s = dur - _covered(children.get(s["id"], ()), s["start"], s["end"])
        row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += self_s
        row["durations"].append(dur)
    return out
