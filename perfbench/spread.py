"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10 [--workloads table1,campaign]

Runs every workload ``--runs`` times, round-robin (never two at once),
each run with its own seed, and prints for each metric the median and
the spread: the distance between the first and third quartile as a
share of the median, beside the metric's bound from BENCHMARK.json.
A spread above a third of its bound is flagged.  ``--output`` keeps
the raw results as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)
    workloads = (
        args.workloads.split(",")
        if args.workloads
        else [w["name"] for w in spec["workloads"]]
    )
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {w: [] for w in workloads}
    for index in range(args.runs):
        for workload in workloads:
            seed = args.first_seed + index
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT,
                capture_output=True,
                text=True,
            )
            if out.returncode != 0:
                print(out.stderr[-2000:], file=sys.stderr)
                return 1
            lines = out.stdout.splitlines()
            record = json.loads(lines[-1])
            record["seed"] = seed
            record["detail"] = json.loads(lines[-2])
            results[workload].append(record)
            values = {k: round(v["value"], 4) for k, v in record["metrics"].items()}
            print(f"{workload} seed={seed} correct={record['correct']} "
                  f"attempted={record['attempted']} failed={record['failed']} "
                  f"{values}", flush=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
    worst = 0
    for workload, records in results.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in records]
            share = spread(values) if len(values) >= 2 else 0.0
            flag = "" if name == "setup_s" or share < bound / 3 else "  > bound/3"
            if flag:
                worst = 1
            print(f"{workload:15s} {name:12s} median={statistics.median(values):11.4f} "
                  f"spread={share:6.3f} bound={bound}{flag}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
