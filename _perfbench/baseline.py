#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise its end-to-end metrics.

    python3 _perfbench/baseline.py --seeds 201-210 [--workload chaos-soc ...] [--write]

Run it from the root of a checkout.  For every workload (all of
BENCHMARK.json's by default) it runs `python3 _perfbench/run.py` once per
seed with BENCHMARK.json's run_seconds and --trace 0, and prints the
median, first and third quartiles (Python's statistics.quantiles, n=4) and
the spread (q3 - q1) / median of every end-to-end metric.  With --write the
summary replaces the "baseline" section of _perfbench/BASELINE.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_workload(name, seeds, seconds):
    values, failed = {}, []
    correct = True
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if out.returncode != 0:
            sys.exit(f"{name} seed {seed}: exit status {out.returncode}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        correct = correct and res["correct"]
        failed.append(res["failed"] / res["attempted"])
        for metric, v in res["metrics"].items():
            values.setdefault(metric, (v["unit"], []))[1].append(v["value"])
        print(f"{name} seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
              + " ".join(f"{m}={v['value']:.6g}" for m, v in sorted(res["metrics"].items())), flush=True)
    summary = {"runs": len(seeds), "seeds": seeds, "all_correct": correct,
               "failed_frac_median": statistics.median(failed), "metrics": {}}
    for metric, (unit, xs) in sorted(values.items()):
        q1, med, q3 = statistics.quantiles(xs, n=4)
        summary["metrics"][metric] = {"unit": unit, "median": round(statistics.median(xs), 6),
                                      "q1": round(q1, 6), "q3": round(q3, 6),
                                      "spread": round((q3 - q1) / statistics.median(xs), 4)}
        print(f"{name} {metric}: median {statistics.median(xs):.6g} {unit}, spread {(q3 - q1) / statistics.median(xs):.4f}")
    return summary


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="201-210", help="seed range lo-hi")
    ap.add_argument("--workload", action="append", help="workload to run (repeatable; default all)")
    ap.add_argument("--write", action="store_true", help="replace BASELINE.json's baseline section")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = seed_range(args.seeds)
    if len(seeds) < 2:
        sys.exit("need at least two seeds")
    baseline = {name: run_workload(name, seeds, bench["run_seconds"]) for name in names}
    if args.write:
        path = os.path.join(HERE, "BASELINE.json")
        with open(path) as f:
            doc = json.load(f)
        doc["baseline"] = baseline
        with open(path, "w") as f:
            f.write(json.dumps(doc, indent=2, ensure_ascii=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
