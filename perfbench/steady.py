#!/usr/bin/env python3
"""Steadiness report for the perfbench benchmark.

Runs each workload N times, each with another seed, and prints for every
end-to-end metric the median, the quartiles and the spread (interquartile
range as a share of the median) against the metric's bound in
BENCHMARK.json. A spread under a third of the bound is marked "steady".
With --trace it also takes one traced run per workload and prints the
measured layer shares and the tracing overhead (traced versus untraced
latency_p50_ms at the same seed).

Run from the repository root:
    python3 perfbench/steady.py --runs 10 --trace
    python3 perfbench/steady.py --runs 5 --workloads sweep --seed0 101
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        print(f"  {workload} seed {seed}: NOT CORRECT {proc.stdout.splitlines()[-2]}", file=sys.stderr)
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1, help="seed of the first run; run i uses seed0+i")
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--seconds", type=int, help="run length (default: run_seconds)")
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--json", help="also write the raw values to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    for w in workloads:
        values = {m: [] for m in bounds}
        for i in range(args.runs):
            res = run(bench, w, args.seed0 + i, seconds, 0)
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            print(f"  {w} seed {args.seed0 + i}: " + " ".join(
                f"{m}={res['metrics'][m]['value']:.5g}" for m in bounds), file=sys.stderr, flush=True)
        raw[w] = {"values": values}
        print(f"\n{w} ({args.runs} runs of {seconds} s, seeds {args.seed0}..{args.seed0 + args.runs - 1})")
        print(f"  {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "steady" if spread < bounds[m] / 3 else ("within bound" if spread <= bounds[m] else "NOISY")
            print(f"  {m:16} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%} {bounds[m]:6.2f}  {verdict}")
        if args.trace:
            tr = run(bench, w, args.seed0, seconds, 1)
            lm = tr["metrics"]
            raw[w]["trace"] = {k: v["value"] for k, v in lm.items()}
            # The same seed's untraced run, so both saw the same inputs.
            untraced = values["latency_p50_ms"][0]
            traced = lm["trace.op_p50_ms"]["value"]
            print(f"  traced run (seed {args.seed0}): {int(lm['trace.ops']['value'])} ops, "
                  f"{int(lm['trace.replayed_ops']['value'])} replayed, "
                  f"{int(lm['trace.reconcile_fail']['value'])} failing to reconcile")
            print(f"  layer shares of op time: milp {lm['trace.milp_share']['value']:.1%}, "
                  f"engine {lm['trace.engine_share']['value']:.1%}, "
                  f"self (core and above) {lm['trace.self_share']['value']:.1%}")
            print(f"  tracing overhead: traced op p50 {traced:.5g} ms vs untraced latency_p50_ms "
                  f"{untraced:.5g} ms at seed {args.seed0} ({traced / untraced - 1:+.1%})")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
