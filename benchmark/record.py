"""Run the benchmark on several seeds and record a summary as a result file.

Usage (from the root of a checkout):

    python3 benchmark/record.py --out benchmark/results/BENCH_1.json --seeds 1-10

Runs ``run.py`` once per workload and seed with ``--trace 0``, then once per
workload with ``--trace 1`` on the first seed, one process at a time.  For
each end-to-end metric the file holds every run's value, the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread, the distance
between the quartiles as a share of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmark", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    line = json.loads(result.stdout.strip().splitlines()[-1])
    record_path = os.path.join(ROOT, "benchmark", "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(record_path, encoding="utf-8") as handle:
        record = json.load(handle)
    return {"result": line, "detail": record["detail"], "environment": record["environment"]}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    seeds = _seeds(args.seeds)
    names = [w["name"] for w in spec["workloads"]]
    out = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        runs = [_run(name, seed, seconds, 0) for seed in seeds]
        traced = _run(name, seeds[0], seconds, 1)
        out["environment"] = runs[0]["environment"]
        out["workloads"][name] = {
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "end_to_end": {
                m["name"]: summary([r["result"]["metrics"][m["name"]]["value"] for r in runs])
                for m in spec["end_to_end"]
            },
            "tail_percentiles": [r["detail"]["op_s.tail_percentile"] for r in runs],
            "traced": {
                "seed": seeds[0],
                "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
                "detail": traced["detail"],
            },
        }
        print(name, {k: round(v["spread"], 4) for k, v in
                     out["workloads"][name]["end_to_end"].items()}, flush=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
