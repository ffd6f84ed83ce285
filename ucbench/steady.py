#!/usr/bin/env python3
"""A/A steadiness mode for the repository benchmark.

Runs the benchmark command from BENCHMARK.json several times on one
workload, each run with another seed, and prints for every metric its
median, first and third quartile (as statistics.quantiles(values, n=4)
gives them) and the quartile spread as a share of the median, against
the metric's bound. A spread above its bound is flagged UNRESOLVED.
With --against, the medians are also compared with an earlier set.

    python3 ucbench/steady.py --workload serve-rw --runs 10 --seed-base 1 \
        [--seconds S] [--trace 0|1] [--save aa.json] [--against aa.json]

Run it from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--save", help="write the collected values as JSON")
    ap.add_argument("--against", help="an earlier --save file to compare medians with")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    declared = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    better = {m["name"]: m["better"] for m in declared}

    values = {}
    for i in range(args.runs):
        seed = args.seed_base + i
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        missing = set(bounds) - set(result["metrics"])
        if missing:
            sys.exit(f"seed {seed}: metrics missing: {sorted(missing)}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={result['metrics'][n]['value']:.4g}" for n in sorted(bounds)), flush=True)

    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)["values"]
    unresolved = []
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, seeds "
          f"{args.seed_base}..{args.seed_base + args.runs - 1}")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in sorted(bounds):
        vals = values[name]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds[name]
        flag = ""
        if bound is not None:
            if spread > bound and name != "setup_s":
                flag = "UNRESOLVED"
                unresolved.append(name)
            elif spread > bound / 3:
                flag = "above bound/3"
        line = f"{name:32} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {bound if bound is not None else '-':>6} {flag}"
        if name in earlier:
            before = statistics.median(earlier[name])
            worse = (med - before) / abs(before) if before else 0.0
            if better[name] == "higher":
                worse = -worse
            line += f"  vs earlier median {before:.5g} ({worse:+.3f} worse)"
            if bound is not None and worse > bound:
                line += " REGRESSED"
        print(line)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "values": values}, f)
    if unresolved:
        print(f"\nunresolved: {', '.join(unresolved)}")
        sys.exit(1)


if __name__ == "__main__":
    main()
