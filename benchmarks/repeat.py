#!/usr/bin/env python3
"""The noise harness: run each workload several times, each time with another
seed, and say whether the benchmark's own bounds hold.

    python3 benchmarks/repeat.py [--sets 2] [--runs 10] [--seconds S]
                                 [--workloads a,b] [--out DIR]

Run from the repository root.  The command, the run length, the metrics and
their bounds come from BENCHMARK.json.  For every workload x end-to-end
metric the script prints, per set, the median, the quartiles and the spread
(distance between the first and third quartile of the runs, as
statistics.quantiles(values, n=4) gives them, over their median), and
whether the sets' medians agree within the metric's bound.  Both sets use
the same seeds, so each run's deck_digest must repeat from set to set.
With --out, each set is written to DIR/set<N>.json.

Exit status 1 if a run fails, a spread (other than setup_s's) or a
difference of medians exceeds its bound, or a digest differs.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} failed ({done.returncode}):\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(argv)}: {result['failed']} of {result['attempted']} operations failed")
    digest = re.search(r"deck_digest ([0-9a-f]{16})", done.stderr)
    return {
        "seed": seed,
        "deck_digest": digest.group(1) if digest else None,
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workloads")
    parser.add_argument("--out")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = [20020603 + r for r in range(args.runs)]

    sets = []
    for s in range(args.sets):
        runs = {}
        for workload in workloads:
            runs[workload] = []
            for seed in seeds:
                run = run_once(spec["command"], workload, seed, seconds)
                runs[workload].append(run)
                shown = "  ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items())
                print(f"set {s + 1} {workload} seed {seed}: {shown}", flush=True)
        sets.append(runs)
        if args.out:
            with open(f"{args.out}/set{s + 1}.json", "w") as f:
                json.dump({"run_seconds": seconds, "runs": runs}, f, indent=1)
                f.write("\n")

    ok = True
    print(f"\n{'workload':16} {'metric':12} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s, runs in enumerate(sets):
                median, q1, q3, spread = summary([r["metrics"][name] for r in runs[workload]])
                medians.append(median)
                verdict = ""
                if name != "setup_s" and spread > bound:
                    verdict, ok = "  SPREAD OVER BOUND", False
                elif name != "setup_s" and spread > bound / 3:
                    verdict = "  (over a third of the bound)"
                print(f"{workload:16} {name:12} {s + 1:>3} {median:10.4g} {q1:10.4g} {q3:10.4g} "
                      f"{spread:7.2%} {bound:6.0%}{verdict}")
            for later in medians[1:]:
                change = later / medians[0] - 1
                worse = change if metric["better"] == "lower" else -change
                verdict = "agree"
                if worse > bound:
                    verdict, ok = "DISAGREE", False
                print(f"{workload:16} {name:12} medians {verdict}: {change:+.2%} against {bound:.0%}")
        for later_set in sets[1:]:
            for first, later in zip(sets[0][workload], later_set[workload]):
                if first["deck_digest"] != later["deck_digest"]:
                    print(f"{workload} seed {first['seed']}: deck_digest differs between sets")
                    ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
