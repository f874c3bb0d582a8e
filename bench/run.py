"""Benchmark of the distgcn simulator: host cost, exact simulated traffic
and partition quality on the workloads named in BENCHMARK.json.

Run from the repository root:

    python3 bench/run.py --workload train-1d-p32 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

With --trace 0 the last line of standard output is one JSON object
holding every end-to-end metric; with --trace 1 it holds every per-layer
metric, measured by wrapping the package's public functions from
outside. `--workload all` runs each workload untraced and then traced.
The line before the result records the machine, the library versions and
the run's samples. Spans of a traced run are written to
bench/out/<workload>-seed<seed>-{setup,train}.spans.jsonl.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

# One BLAS thread: the rank threads are the only parallelism, and the
# machine has few cores. numpy is imported later, inside the functions
# below, so that it starts with this setting.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


def _load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def _environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "seed": seed,
    }


def run_one(name, seed, seconds, trace, spec, units):
    from workloads import WORKLOADS, Run

    w = WORKLOADS[name]
    run = Run(w, seed, seconds, _log)
    values = run.measure_traced() if trace else run.measure()
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(values) != sorted(wanted):
        diff = sorted(set(values) ^ set(wanted))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {diff}")
    if run.tracers:
        out = BENCH_DIR / "out"
        out.mkdir(exist_ok=True)
        for tag, tracer in zip(("setup", "train"), run.tracers):
            tracer.write_jsonl(out / f"{name}-seed{seed}-{tag}.spans.jsonl")
    info = {"workload": name, "p": w.p, "c": w.c, "variant": w.variant,
            "epochs_per_call": w.epochs, "seconds": seconds, "trace": trace, **run.info}
    return {
        "correct": run.checker.failed == 0,
        "attempted": run.checker.attempted,
        "failed": run.checker.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in wanted},
    }, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "distgcn").is_dir():
        _log(f"distgcn sources not found under {SRC}")
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    spec, units = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names} or all")
    env = _environment(args.seed)
    if args.workload != "all":
        result, info = run_one(args.workload, args.seed, args.seconds, args.trace, spec, units)
        print(json.dumps({"env": env, "run": info}))
        print(json.dumps(result))
        return 0
    # every workload untraced, then each once more traced
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in (0, 1):
        for name in names:
            result, info = run_one(name, args.seed, args.seconds, trace, spec, units)
            print(json.dumps({"env": env, "run": info}))
            print(json.dumps(result), flush=True)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
