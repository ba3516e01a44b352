#!/usr/bin/env python3
"""Steadiness check: runs each workload once per seed and prints, for every
end-to-end metric, the median and the quartile spread as a share of it.

    python3 perfbench/steady.py [--workloads cold_panel,edit_loop,warm_service]
        [--runs 10] [--first-seed 1] [--seconds S]

Run it from the root of a checkout.  `--seconds` defaults to
`run_seconds` of BENCHMARK.json; a spread above a third of the metric's
bound is flagged with `!`.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as file:
        bench = json.load(file)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.exit(f"steady.py: {workload} seed {seed} failed (exit {done.returncode})")
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} checks failed", file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={result['metrics'][name]['value']:.4g}" for name in bounds),
                file=sys.stderr, flush=True)
        print(f"{workload} ({args.runs} runs)")
        for name, bound in bounds.items():
            q1, median, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median
            flag = "!" if spread > bound / 3 else " "
            print(f"  {name:<16} median {median:>12.4f}  spread {spread:6.3f} "
                  f"(bound {bound}){flag}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
