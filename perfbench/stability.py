#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark once per seed on each workload, from the repository
root, and prints a markdown table per workload: each metric's median,
first and third quartile (statistics.quantiles(n=4)), the spread
(q3 - q1) / median, and the metric's bound from BENCHMARK.json, then
each seed's statistics digest. It stops at the first failed run.

    python3 perfbench/stability.py --workloads figs,sampled,serve --seeds 1-10
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    p = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({p.returncode}): {p.stderr[-2000:]}")
    digest = next((l.split(": ")[-1] for l in lines if l.startswith("digest ")), "")
    return json.loads(lines[-1]), digest


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="figs,sampled,serve")
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seeds_of(args.seeds)
    for wl in args.workloads.split(","):
        values, digests = {}, {}
        for seed in seeds:
            res, digests[seed] = run(wl, seed, spec["run_seconds"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: digest {digests[seed]}, wall_s {res['metrics']['wall_s']['value']:.4f}",
                  file=sys.stderr, flush=True)
        print(f"\n### {wl} ({len(seeds)} runs, seeds {args.seeds}, {spec['run_seconds']} s each)\n")
        print("| metric | median | q1 | q3 | spread | bound | spread / bound |")
        print("|---|---|---|---|---|---|---|")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            print(f"| `{m['name']}` | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | "
                  f"{bounds[m['name']]} | {spread / bounds[m['name']]:.2f} |")
        print("\ndigests: " + ", ".join(f"seed {s}: {d}" for s, d in digests.items()))


if __name__ == "__main__":
    main()
