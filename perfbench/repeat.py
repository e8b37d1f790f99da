#!/usr/bin/env python3
"""Run the benchmark several times and report each metric's spread.

    python3 perfbench/repeat.py --workloads recognize stream train
        --seeds 1 2 3 4 5 6 7 8 9 10 [--trace 0] [--out FILE]

For every workload and metric it prints the median of the runs, the
quartiles from statistics.quantiles(values, n=4), and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json. Runs
go one after another, never in parallel.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

import checkout


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result and the summary here as JSON")
    args = parser.parse_args()
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    runs = {}
    summary = {}
    failures = 0
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            started = time.monotonic()
            done = subprocess.run([sys.executable, str(checkout.BENCH_DIR / "run.py"),
                                   "--workload", workload, "--seed", str(seed),
                                   "--trace", str(args.trace)],
                                  capture_output=True, text=True, timeout=600)
            wall = time.monotonic() - started
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if done.returncode != 0 or result is None or not result["correct"]:
                failures += 1
                problems = [line for line in lines if line.startswith("  ")]
                print(f"{workload} seed {seed}: FAILED (exit {done.returncode})\n"
                      + "\n".join(problems) + done.stderr)
                result = None
            runs[workload].append({"seed": seed, "exit": done.returncode,
                                   "wall_seconds": round(wall, 2), "result": result})
            print(f"{workload} seed {seed}: {wall:.1f} s", flush=True)
        results = [r["result"] for r in runs[workload] if r["result"]]
        summary[workload] = {}
        for name in (results[0]["metrics"] if results else {}):
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else float("inf")
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                       "bound": bounds.get(name), "runs": len(values)}
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
            print(f"{workload:<10} {name:<40} median {median:<12.6g} spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": runs, "summary": summary}, f, indent=1)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
