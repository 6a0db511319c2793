"""One benchmark iteration in a fresh process: import regrobust, run CLI stages.

    python3 bench/runner.py --src SRC --config CFG --out OUT --result RESULT.json
        --stages prepare,evaluate,report [--arg=--jobs --arg=2] [--trace-dir DIR]

run.py starts this with one BLAS thread pinned in the environment. Stage
output goes to the inherited stdout; timings, exit codes and peak memory go to
RESULT.json. With --trace-dir the layer bindings are wrapped (see tracer.py)
and spans are written under that directory.
"""
import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--stages", required=True)
    p.add_argument("--arg", action="append", default=[], help="extra CLI argument, repeatable")
    p.add_argument("--trace-dir", default=None)
    args = p.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import regrobust
    import regrobust.cli as cli
    import_s = time.perf_counter() - t0
    if not Path(regrobust.__file__).resolve().is_relative_to(src):
        print(f"regrobust imported from {regrobust.__file__}, not {src}", file=sys.stderr)
        return 2

    missing = []
    if args.trace_dir is not None:
        import tracer

        missing = tracer.install(Path(args.out).parent.name, Path(args.trace_dir))

    stages = {}
    for stage in args.stages.split(","):
        t0 = time.perf_counter()
        rc = cli.main([stage, "--config", args.config, "--out", args.out, *args.arg])
        stages[stage] = {"seconds": time.perf_counter() - t0, "exit_code": rc}
        if rc != 0:
            break

    if args.trace_dir is not None:
        tracer.finish()
    kb_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "import_s": import_s,
        "stages": stages,
        "peak_rss_mb": (kb_self + kb_children) / 1024.0,
        "untraced_bindings": missing,
    }
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0 if all(s["exit_code"] == 0 for s in stages.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
