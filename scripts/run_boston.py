#!/usr/bin/env python3
"""Run the full Boston housing experiment: prepare, tune, evaluate, report.

With the shipped config, --check --jobs 2 took 3 min 56 s on a 2-vCPU
machine (tune 166 s, evaluate 69 s; most of it hyperparameter search). Pass
--skip-tune to reuse tuned_*.json from a previous run, or --stage to run a
single stage.

--check runs prepare, tune and evaluate into a temporary directory and
compares each file of the config's out_dir with the file of the same name
there, byte for byte. It exits 1 and names the first file that differs.
"""
import argparse
import filecmp
import sys
import tempfile
import time
from pathlib import Path

from regrobust.cli import main as cli_main
from regrobust.config import load_experiment_config
from regrobust.errors import ConfigError

STAGES = ("prepare", "tune", "evaluate", "report")
CHECK_STAGES = ("prepare", "tune", "evaluate")


def run(stage: str, config: str, extra) -> int:
    argv = [stage, "--config", config, *extra]
    print(f"== {stage} {' '.join(extra)}", flush=True)
    t0 = time.time()
    rc = cli_main(argv)
    print(f"== {stage} done in {time.time() - t0:.0f}s (rc={rc})", flush=True)
    return rc


def run_stages(stages, config: str, extra) -> int:
    for stage in stages:
        rc = run(stage, config, extra)
        if rc != 0:
            return rc
    return 0


def check(config: str, extra) -> int:
    """Rebuild the config's out_dir in a temporary directory and compare."""
    try:
        reference = Path(load_experiment_config(config).out_dir)
    except ConfigError as e:
        print(f"check: {e}", flush=True)
        return 1
    names = sorted(p.name for p in reference.iterdir() if p.is_file()) if reference.is_dir() else []
    if not names:
        print(f"check: {reference} holds no files to compare", flush=True)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        rc = run_stages(CHECK_STAGES, config, [*extra, "--out", tmp])
        if rc != 0:
            return rc
        for name in names:
            fresh = Path(tmp) / name
            if not (fresh.is_file() and filecmp.cmp(reference / name, fresh, shallow=False)):
                print(f"check: {reference / name} differs from the rebuilt file", flush=True)
                return 1
    print(f"check: all {len(names)} files in {reference} equal", flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/boston.json")
    ap.add_argument("--stage", choices=STAGES, help="run only this stage")
    ap.add_argument("--skip-tune", action="store_true",
                    help="reuse existing tuned_*.json files")
    ap.add_argument("--check", action="store_true",
                    help="rebuild out_dir in a temporary directory and compare")
    ap.add_argument("--jobs", type=int, help="worker processes")
    args = ap.parse_args(argv)
    if args.check and (args.stage or args.skip_tune):
        ap.error("--check runs its own stages; drop --stage and --skip-tune")

    extra = []
    if args.jobs is not None:
        extra += ["--jobs", str(args.jobs)]

    if args.check:
        return check(args.config, extra)
    stages = [args.stage] if args.stage else [
        s for s in STAGES if not (args.skip_tune and s == "tune")
    ]
    return run_stages(stages, args.config, extra)


if __name__ == "__main__":
    sys.exit(main())
