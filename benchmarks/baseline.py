"""Measure a baseline and write it to a BENCH_<n>.json file.

Run from the repository root:

    python3 benchmarks/baseline.py --out benchmarks/BENCH_2.json

Every workload runs once per seed untraced, then once traced on the first
seed, one process after another. For each end-to-end metric the file keeps
the values, the median, the quartiles (``statistics.quantiles(n=4)``) and
their spread as a share of the median, next to the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", *argv, "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    path = os.path.join(".bench_out", f"result_{workload}_{seed}_trace{trace}.json")
    with open(path) as handle:
        record = json.load(handle)
    record["run_wall_s"] = time.perf_counter() - start
    return record


def summarize(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "spread_below_third_of_bound": spread < bound / 3,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="path of the BENCH_<n>.json to write")
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    args = parser.parse_args()
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(seeds) < 2:
        parser.error("need at least two seeds for quartiles")
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    out = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        records = [run(name, seed, seconds, 0) for seed in seeds]
        traced = run(name, seeds[0], seconds, 1)
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in records]
            end_to_end[metric["name"]] = {
                "unit": metric["unit"],
                **summarize(values, metric["bound"]),
            }
            line = end_to_end[metric["name"]]
            print(
                f"{name:16s} {metric['name']:14s} median={line['median']:.6g} "
                f"spread={line['spread']:.4f} bound={metric['bound']}"
            )
        out["env"] = traced["env"]
        out["workloads"][name] = {
            "sizes": traced["sizes"],
            "attempted": sum(r["attempted"] for r in records + [traced]),
            "failed": sum(r["failed"] for r in records + [traced]),
            "end_to_end": end_to_end,
            "run_wall_s": [r["run_wall_s"] for r in records + [traced]],
            "trace_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "op_ms_p50_by_variant": traced["op_ms_p50_by_variant"],
            "self_s_by_variant": traced["self_s_by_variant"],
        }
    with open(args.out, "w") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
