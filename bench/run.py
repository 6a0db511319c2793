"""End-to-end and per-layer benchmark of the regrobust pipeline.

    python3 bench/run.py --workload boston-eval --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20   # every workload, with a table

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/``. Each iteration is a fresh Python process (bench/runner.py)
that runs the real CLI stages on a config written for the workload, with one
BLAS thread and a fresh output directory under ``.bench_work/``. Iterations
repeat until ``--seconds`` is used up and the medians are reported.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics of the
traced ones (see tracer.py) plus the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics. The
exit code is 1 if any output check fails and 2 if the checkout is incomplete.
See bench/README.md for why each workload exists and what each metric should
move.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import csv
import hashlib
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"
REQUIRED = ("src/regrobust/cli.py", "configs/boston.json", "configs/boston_tuned.json", "data/boston.csv")

# Epochs are cut from the shipped 1000 so that several iterations fit in one
# run; each workload keeps the shipped batch size, learning rate and n_samples.
EVAL_EPOCHS = 20
TUNE_CHEAP_EPOCHS = 40
WIDE_ROWS, WIDE_FEATURES = 4000, 64
WIDE_EPOCHS = 1
WIDE_TRIALS = 8
WIDE_JOBS = 2

MIN_ITERATIONS = 3
RUN_CAP_S = 165.0  # every run must end within 180 s


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple  # CLI stages, run in order in one process
    make_config: Callable  # (seed, work dir) -> experiment config dict
    extra_args: tuple = ()  # CLI flags added to every stage


def _boston_config(base: str, epochs: int):
    def make(seed: int, work: Path) -> dict:
        with open(ROOT / base) as f:
            cfg = json.load(f)
        cfg["dataset"]["path"] = str(ROOT / cfg["dataset"]["path"])
        cfg["train"]["epochs"] = epochs
        cfg["seed"] = seed
        return cfg

    return make


def _wide_config(seed: int, work: Path) -> dict:
    """A seeded 4000 x 64 regression set: smooth nonlinear target plus noise."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((WIDE_ROWS, WIDE_FEATURES))
    w = rng.standard_normal((WIDE_FEATURES, 4)) / math.sqrt(WIDE_FEATURES)
    y = 3.0 * np.tanh(X @ w[:, 0]) + np.sin(X @ w[:, 1]) + 0.5 * (X @ w[:, 2]) * (X @ w[:, 3])
    y += 0.1 * rng.standard_normal(WIDE_ROWS)
    path = work / "wide.csv"
    header = ",".join([f"x{i}" for i in range(WIDE_FEATURES)] + ["target"])
    np.savetxt(path, np.column_stack([X, y]), delimiter=",", header=header, comments="", fmt="%.17g")
    return {
        "dataset": {"path": str(path), "target_column": "target", "name": "wide"},
        "fractions": [0.6, 0.2, 0.2],
        "seed": seed,
        "train": {"learning_rate": 0.01, "batch_size": 32, "epochs": WIDE_EPOCHS},
        "search": {"objective": "val_mse_pgd", "n_trials": WIDE_TRIALS},
        "defenses": [{"kind": "none"}, {"kind": "ansr", "tune": True}],
        "attacks": [{"kind": "pgd", "epsilon": 0.025, "rho": 0.1, "steps": 10}],
        "n_samples": 100,
        "n_seeds": 6,
        "jobs": 1,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("boston-eval", ("prepare", "evaluate", "report"),
                 _boston_config("configs/boston_tuned.json", EVAL_EPOCHS)),
        Workload("boston-tune-cheap", ("prepare", "tune"),
                 _boston_config("configs/boston.json", TUNE_CHEAP_EPOCHS),
                 ("--defense", "pseudo_huber", "--defense", "grad_reg")),
        Workload("wide-ansr-jobs2", ("prepare", "tune"), _wide_config, ("--jobs", str(WIDE_JOBS))),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
PER_LAYER_UNITS = {
    "cli.prepare_s": "s",
    "cli.tune_s": "s",
    "cli.evaluate_s": "s",
    "cli.report_s": "s",
    "data.load_csv_s": "s",
    "data.compute_neighbors_s": "s",
    "data.save_dataset_cache_s": "s",
    "data.load_dataset_cache_s": "s",
    "data.cache_bytes": "bytes",
    "defenses.batch_loss_grad_self_s": "s",
    "defenses.mc_points": "count",
    "defenses.stability_gflop_computed": "GFLOP",
    "defenses.stability_mb_computed": "MB",
    "nn.batch_backward_s": "s",
    "nn.batch_backward_calls": "count",
    "nn.grad_penalty_batch_s": "s",
    "nn.grad_penalty_batch_calls": "count",
    "training.train_calls": "count",
    "training.steps": "count",
    "training.train_self_s": "s",
    "training.adam_step_s": "s",
    "training.step_us": "us",
    "training.diverged": "count",
    "attacks.apply_attack_s": "s",
    "attacks.apply_attack_calls": "count",
    "attacks.input_gradient_calls": "count",
    "evaluation.train_models_s": "s",
    "evaluation.evaluate_cell_s": "s",
    "evaluation.perturbation_profile_s": "s",
    "evaluation.write_s": "s",
    "parallel.pmap_s": "s",
    "parallel.tasks": "count",
    "parallel.worker_busy_frac": "frac",
    "trace.overhead_s": "s",
    "quality.pgd_mse_ratio": "ratio",
}


# ---------------------------------------------------------------- counts


def _effective(cfg: dict, extra_args) -> dict:
    """The config values the CLI ends up using, after --defense/--jobs flags."""
    args = list(extra_args)
    kinds = [args[i + 1] for i, a in enumerate(args) if a == "--defense"]
    defenses = [d for d in cfg["defenses"] if not kinds or d["kind"] in kinds]
    jobs = int(args[args.index("--jobs") + 1]) if "--jobs" in args else int(cfg.get("jobs", 1))
    return {"defenses": defenses, "jobs": jobs}


def computed_counts(wl: Workload, cfg: dict, n_train: int, n_features: int) -> dict:
    """Exact operation counts from the config and split sizes, assuming no divergence.

    Stability-penalty work per step with batch B, S samples, D inputs and H
    hidden units: B*S*D uniform draws; 2*B*S*D flops to perturb; 2*B*S*H*D
    for the perturbed forward and 2*B*S*H*D for the d_w1 contraction; about
    6*B*S*H for activations, masks and d_w2. Bytes count the six (B, S, .)
    float64 arrays the step materializes (U, XP: D wide; z, a, mask, dz: H wide).
    """
    eff = _effective(cfg, wl.extra_args)
    train = cfg["train"]
    epochs, S, D = train["epochs"], cfg["n_samples"], n_features
    H = train.get("hidden_dim") or D
    steps_per_train = epochs * math.ceil(n_train / train["batch_size"])
    attacks = cfg["attacks"]
    pgd_steps = [a["steps"] for a in attacks if a["kind"] == "pgd"]

    if "evaluate" in wl.stages:
        kinds = [d["kind"] for d in eff["defenses"] for _ in range(cfg["n_seeds"])]
        # every attack once, plus perturbation_profile's second PGD pass
        per_model_grads = sum(a["kind"] == "fgsm" for a in attacks) + 2 * sum(pgd_steps)
        per_model_attacks = len(attacks) + len(pgd_steps)
    else:
        kinds = [d["kind"] for d in eff["defenses"] if d.get("tune")
                 for _ in range(cfg["search"]["n_trials"])]
        # the val_mse_pgd objective runs the first PGD attack once per trial
        per_model_attacks = int(cfg["search"]["objective"] == "val_mse_pgd")
        per_model_grads = per_model_attacks * pgd_steps[0]

    stab_calls = sum(k in ("ansr", "combined") for k in kinds)
    points = stab_calls * epochs * n_train * S
    return {
        "train_calls": len(kinds),
        "steps": len(kinds) * steps_per_train,
        "mc_points": points,
        "stability_gflop": points * (4 * H * D + 2 * D + 6 * H) / 1e9,
        "stability_mb": points * 8 * (2 * D + 4 * H) / 1e6,
        "apply_attack_calls": len(kinds) * per_model_attacks,
        "input_gradient_calls": len(kinds) * per_model_grads,
        "jobs": eff["jobs"],
    }


# ---------------------------------------------------------------- checks


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_outputs(wl: Workload, cfg: dict, out: Path) -> tuple:
    """Parse the artifacts and check them. Returns (errors, diverged, quality, digest)."""
    errors, diverged, quality = [], 0, {}
    eff = _effective(cfg, wl.extra_args)
    names = ["dataset_cache.json"]
    if "evaluate" in wl.stages:
        names += ["cells.csv", "points.csv", "summary.json"]
        with open(out / "cells.csv", newline="") as f:
            cells = list(csv.DictReader(f))
        expected = len(eff["defenses"]) * cfg["n_seeds"] * len(cfg["attacks"])
        if len(cells) != expected:
            errors.append(f"cells.csv has {len(cells)} rows, expected {expected}")
        mse = collections.defaultdict(list)
        for c in cells:
            v = float(c["test_mse"])
            if not math.isfinite(v):
                errors.append(f"non-finite test_mse in cells.csv: {c}")
            mse[(c["defense"], c["attack"])].append(v)
        with open(out / "summary.json") as f:
            for cell in json.load(f)["cells"]:
                if not math.isfinite(float(cell["mean_test_mse"])):
                    errors.append(f"non-finite mean in summary.json: {cell}")
        with open(out / "points.csv", newline="") as f:
            for row in csv.DictReader(f):
                if not all(math.isfinite(float(v)) for k, v in row.items() if k not in ("defense", "attack")):
                    errors.append(f"non-finite value in points.csv: {row}")
                    break
        if mse[("ansr", "pgd")] and mse[("none", "pgd")]:
            quality["pgd_mse_ratio"] = statistics.fmean(mse[("ansr", "pgd")]) / statistics.fmean(
                mse[("none", "pgd")])
            quality["pgd_mse.ansr"] = statistics.fmean(mse[("ansr", "pgd")])
            quality["pgd_mse.none"] = statistics.fmean(mse[("none", "pgd")])
    if "tune" in wl.stages:
        n_trials = cfg["search"]["n_trials"]
        for d in eff["defenses"]:
            if not d.get("tune"):
                continue
            kind = d["kind"]
            names += [f"tuned_{kind}.json", f"trials_{kind}.jsonl"]
            with open(out / f"trials_{kind}.jsonl") as f:
                trials = [json.loads(line) for line in f if line.strip()]
            if len(trials) != n_trials:
                errors.append(f"trials_{kind}.jsonl has {len(trials)} trials, expected {n_trials}")
            diverged += sum(t["value"] is None for t in trials)
            if any(t["value"] is not None and not _finite(t["value"]) for t in trials):
                errors.append(f"non-finite objective in trials_{kind}.jsonl")
            with open(out / f"tuned_{kind}.json") as f:
                best = json.load(f)["best_value"]
            if not _finite(best):
                errors.append(f"non-finite best_value in tuned_{kind}.json")
            quality[f"best_val_pgd_mse.{kind}"] = best
            values = [t["value"] for t in trials if t["value"] is not None]
            if values:
                quality[f"best_over_median.{kind}"] = best / statistics.median(values)
    gains = [v for k, v in quality.items() if k.startswith("best_over_median.")]
    if gains:
        quality["pgd_mse_ratio"] = statistics.geometric_mean(gains)
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode() + b"\0")
        digest.update((out / name).read_bytes())
    return errors, diverged, quality, digest.hexdigest()


# ---------------------------------------------------------------- running


def run_iteration(wl: Workload, cfg_path: Path, cfg: dict, it_dir: Path, traced: bool,
                  time_left: float) -> dict:
    """Run one fresh process over the workload's stages and check what it wrote."""
    it_dir.mkdir(parents=True)
    out = it_dir / "out"
    cmd = [sys.executable, str(BENCH_DIR / "runner.py"), "--src", str(ROOT / "src"),
           "--config", str(cfg_path), "--out", str(out), "--result", str(it_dir / "result.json"),
           "--stages", ",".join(wl.stages)]
    cmd += [f"--arg={a}" for a in wl.extra_args]
    if traced:
        (it_dir / "spans").mkdir()
        cmd += ["--trace-dir", str(it_dir / "spans")]
    env = dict(os.environ, TMPDIR=str(it_dir))
    env.pop("PYTHONPATH", None)
    rec = {"traced": traced, "errors": [], "diverged": 0, "quality": {}, "digest": None}
    t0 = time.perf_counter()
    with open(it_dir / "log.txt", "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, time_left))
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            rc = None
    rec["wall_s"] = time.perf_counter() - t0
    if rc != 0:
        tail = (it_dir / "log.txt").read_text()[-2000:]
        rec["errors"].append(f"run process exit code {rc}:\n{tail}")
        return rec
    try:
        with open(it_dir / "result.json") as f:
            rec.update(json.load(f))
        with open(out / "dataset_cache.json") as f:
            cache = json.load(f)
        n_train = sum(s == "train" for s in cache["split"])
        rec["counts"] = computed_counts(wl, cfg, n_train, len(cache["feature_names"]))
        rec["cache_bytes"] = (out / "dataset_cache.json").stat().st_size
        errors, diverged, quality, digest = check_outputs(wl, cfg, out)
    except (OSError, ValueError, KeyError, TypeError) as e:
        rec["errors"].append(f"artifacts missing or malformed: {e!r}")
        rec.pop("stages", None)
        return rec
    rec["errors"] += errors
    rec.update(diverged=diverged, quality=quality, digest=digest)
    if traced:
        rec["trace"] = tracer.summarize(tracer.load_spans(it_dir / "spans"))
        rec["errors"] += check_trace(rec)
    shutil.rmtree(out)
    return rec


def check_trace(rec: dict) -> list:
    """The tracer must see exactly the calls the config implies."""
    trace, counts = rec["trace"], rec["counts"]
    if rec["diverged"]:
        return []
    expect = {
        "training.train": counts["train_calls"],
        "defenses.batch_loss_grad": counts["steps"],
        "training.adam_step": counts["steps"],
        "attacks.apply_attack": counts["apply_attack_calls"],
        "nn.input_gradient": counts["input_gradient_calls"],
        "parallel.task": counts["train_calls"],
    }
    errors = []
    for name, n in expect.items():
        if name in rec["untraced_bindings"]:
            continue
        seen = trace.get(name, {}).get("calls", 0)
        if seen != n:
            errors.append(f"traced {seen} calls to {name}, config implies {n}")
    return errors


def layer_metrics(rec: dict) -> dict:
    tr, counts = rec["trace"], rec["counts"]

    def total(name):
        return tr.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return tr.get(name, {}).get("calls", 0)

    stages = rec["stages"]
    pmap_capacity = sum(d * counts["jobs"] for d in tr.get("parallel.pmap", {}).get("durations", []))
    m = {f"cli.{s}_s": stages.get(s, {}).get("seconds", 0.0)
         for s in ("prepare", "tune", "evaluate", "report")}
    m.update({
        "data.load_csv_s": total("data.load_csv"),
        "data.compute_neighbors_s": total("data.compute_neighbors"),
        "data.save_dataset_cache_s": total("data.save_dataset_cache"),
        "data.load_dataset_cache_s": total("data.load_dataset_cache"),
        "data.cache_bytes": rec["cache_bytes"],
        "defenses.batch_loss_grad_self_s": tr.get("defenses.batch_loss_grad", {}).get("self_s", 0.0),
        "defenses.mc_points": counts["mc_points"],
        "defenses.stability_gflop_computed": counts["stability_gflop"],
        "defenses.stability_mb_computed": counts["stability_mb"],
        "nn.batch_backward_s": total("nn.batch_backward"),
        "nn.batch_backward_calls": calls("nn.batch_backward"),
        "nn.grad_penalty_batch_s": total("nn.grad_penalty_batch"),
        "nn.grad_penalty_batch_calls": calls("nn.grad_penalty_batch"),
        "training.train_calls": calls("training.train"),
        "training.steps": counts["steps"],
        "training.train_self_s": tr.get("training.train", {}).get("self_s", 0.0),
        "training.adam_step_s": total("training.adam_step"),
        "training.step_us": 1e6 * total("training.train") / max(1, counts["steps"]),
        "training.diverged": rec["diverged"],
        "attacks.apply_attack_s": total("attacks.apply_attack"),
        "attacks.apply_attack_calls": calls("attacks.apply_attack"),
        "attacks.input_gradient_calls": counts["input_gradient_calls"],
        "evaluation.train_models_s": total("evaluation.train_models"),
        "evaluation.evaluate_cell_s": total("evaluation.evaluate_cell"),
        "evaluation.perturbation_profile_s": total("evaluation.perturbation_profile"),
        "evaluation.write_s": total("evaluation.write"),
        "parallel.pmap_s": total("parallel.pmap"),
        "parallel.tasks": calls("parallel.task"),
        "parallel.worker_busy_frac": total("parallel.task") / pmap_capacity if pmap_capacity else 0.0,
        "quality.pgd_mse_ratio": rec["quality"].get("pgd_mse_ratio", 0.0),
    })
    return m


def end_to_end_metrics(rec: dict) -> dict:
    stages = rec["stages"]
    busy = sum(stages.get(s, {}).get("seconds", 0.0) for s in ("tune", "evaluate"))
    return {
        "wall_s": rec["wall_s"],
        "setup_s": rec["import_s"] + stages["prepare"]["seconds"],
        "steps_per_s": rec["counts"]["steps"] / busy,
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def high_percentile(values: list):
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it, or None."""
    n = len(values)
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10:
            best = p
    if best is None:
        return None
    ordered = sorted(values)
    return best, ordered[min(n - 1, int(math.ceil(best / 100.0 * n)) - 1)]


def machine_info() -> dict:
    info = {"python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        info["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                               "unknown")
    except OSError:
        info["cpu"] = "unknown"
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    try:
        info["commit"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                        text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        info["commit"] = "unknown"
    return info


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    work.mkdir(parents=True)
    cfg = wl.make_config(seed, work)
    cfg_path = work / "config.json"
    with open(cfg_path, "w") as f:
        json.dump(cfg, f, indent=2)
    print(f"workload {wl.name}: seed {seed}, stages {','.join(wl.stages)}, "
          f"args {' '.join(wl.extra_args) or '-'}, trace {int(trace)}", flush=True)
    started = time.perf_counter()

    records = []
    while True:
        elapsed = time.perf_counter() - started
        walls = [r["wall_s"] for r in records]
        enough = len(records) >= MIN_ITERATIONS
        if enough and elapsed + statistics.median(walls) > seconds:
            break
        if records and elapsed + 1.5 * max(walls) > RUN_CAP_S:
            break
        # Traced runs alternate, untraced first, so both see the same machine state.
        traced = trace and len(records) % 2 == 1
        rec = run_iteration(wl, cfg_path, cfg, work / f"it{len(records)}", traced,
                            RUN_CAP_S - elapsed)
        records.append(rec)
        status = "ok" if not rec["errors"] else "FAILED: " + rec["errors"][0]
        print(f"  iteration {len(records) - 1}{' traced' if traced else ''}: "
              f"{rec['wall_s']:.3f} s {status}", flush=True)
        if rec["errors"] and "stages" not in rec:
            break

    # A run whose artifacts differ from the other runs of the same code and seed fails.
    digests = collections.Counter(r["digest"] for r in records if r["digest"])
    if digests:
        reference = digests.most_common(1)[0][0]
        for r in records:
            if r["digest"] and r["digest"] != reference:
                r["errors"].append(f"artifact digest {r['digest'][:12]} differs from {reference[:12]}")

    attempted = failed = 0
    for r in records:
        units = r["counts"]["train_calls"] if "counts" in r else 1
        attempted += units
        failed += units if r["errors"] else r["diverged"]
    good = [r for r in records if not r["errors"]]
    result = {"workload": wl.name, "records": records, "attempted": attempted, "failed": failed,
              "correct": len(good) == len(records), "metrics": {}}
    if not good:
        return result
    untraced = [r for r in good if not r["traced"]]
    if trace:
        traced = [r for r in good if r["traced"]]
        if traced and untraced:
            layers = [layer_metrics(r) for r in traced]
            result["metrics"] = {k: statistics.median(m[k] for m in layers) for k in PER_LAYER_UNITS
                                 if k != "trace.overhead_s"}
            result["metrics"]["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                                     - statistics.median(r["wall_s"] for r in untraced))
            steps = sum((r["trace"].get("defenses.batch_loss_grad", {}).get("durations", [])
                         for r in traced), [])
            result["step_latency_s"] = steps
    elif untraced:
        per_it = [end_to_end_metrics(r) for r in untraced]
        result["samples"] = {k: [m[k] for m in per_it] for k in per_it[0]}
        result["metrics"] = {k: statistics.median(v) for k, v in result["samples"].items()}
        result["metrics"]["ok_frac"] = 1.0 - failed / attempted
    result["quality"] = good[0]["quality"]
    return result


def print_report(res: dict, units: dict) -> None:
    print(f"== {res['workload']}: correct={res['correct']} attempted={res['attempted']} "
          f"failed={res['failed']} failed_frac={res['failed'] / max(1, res['attempted']):.4g}")
    for r in res["records"]:
        for e in r["errors"]:
            print(f"  check failed: {e}")
    digests = sorted({r["digest"] for r in res["records"] if r["digest"]})
    print(f"  artifacts sha256: {', '.join(digests) or '-'}")
    gone = sorted({n for r in res["records"] for n in r.get("untraced_bindings", ())})
    if gone:
        print(f"  no binding left to trace for: {', '.join(gone)}")
    samples = res.get("samples", {})
    for name, value in res["metrics"].items():
        line = f"  {name:<36} {value:>14.6g} {units[name]}"
        if name in samples:
            vals = samples[name]
            hp = high_percentile(vals)
            tail = f"p{hp[0]:g} {hp[1]:.6g}" if hp else "no percentile has 10 samples beyond it"
            line += f"   (median of n={len(vals)}, min {min(vals):.6g}, max {max(vals):.6g}; {tail})"
        print(line)
    for name, value in res.get("quality", {}).items():
        unit = "mse" if name.startswith(("pgd_mse.", "best_val_pgd_mse.")) else "ratio"
        print(f"  {name:<36} {value:>14.6g} {unit}"
              f"   (deterministic for a seed)")
    steps = res.get("step_latency_s")
    if steps:
        hp = high_percentile(steps)
        tail = f", p{hp[0]:g} {1e6 * hp[1]:.1f} us" if hp else ""
        print(f"  defenses.batch_loss_grad call latency: median {1e6 * statistics.median(steps):.1f} us"
              f"{tail}, n={len(steps)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    missing = [r for r in REQUIRED if not (ROOT / r).is_file()]
    if missing:
        print(f"not a regrobust source checkout: missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"run-{os.getpid()}-{time.time_ns()}"
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    try:
        results = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), work / n)
                   for n in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run is still using it
            pass

    print("machine: " + json.dumps(machine_info(), sort_keys=True))
    for res in results:
        print_report(res, units)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] and r["metrics"] for r in results)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": units[k.rsplit("/", 1)[-1]]} for k, v in metrics.items()},
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
