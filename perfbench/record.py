#!/usr/bin/env python3
"""Records a run set: every workload of BENCHMARK.json run once per seed.

Run from the repository root:

    python3 perfbench/record.py --seeds 1-10 --label after --out perfbench/results/after.json

For each workload and end-to-end metric it prints the median and the
spread, (Q3 - Q1) / median over the seeds, beside the metric's bound.
With --trace it also makes one traced run per workload at the first seed.
The output file holds every run's result line and the host metadata.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), [l for l in lines if l.startswith(("note:", "#"))]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"), help="seed range, e.g. 1-10")
parser.add_argument("--label", required=True, help="name of the run set, e.g. the commit it measures")
parser.add_argument("--commit", default="", help="commit the run set measures")
parser.add_argument("--trace", action="store_true", help="also make one traced run per workload")
parser.add_argument("--out", required=True, help="JSON file to write")
args = parser.parse_args()

with open("BENCHMARK.json") as f:
    bench = json.load(f)
workloads = [w["name"] for w in bench["workloads"]]
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

doc = {
    "label": args.label,
    "commit": args.commit,
    "host": {"cpu": cpu_model(), "nproc": os.cpu_count(), "platform": platform.platform()},
    "run_seconds": bench["run_seconds"],
    "seeds": args.seeds,
    "runs": {},
    "traced": {},
    "summary": {},
}
for w in workloads:
    results = []
    for seed in args.seeds:
        res, meta = run(w, seed, bench["run_seconds"], 0)
        results.append({"seed": seed, "result": res, "meta": meta})
        print(f"{w} seed {seed}: " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items())), flush=True)
    doc["runs"][w] = results
    summary = {}
    for name, bound in bounds.items():
        vals = [r["result"]["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("inf")
        summary[name] = {"median": med, "spread": spread, "bound": bound}
        print(f"  {w} {name}: median {med:.5g} spread {spread:.4f} (bound {bound})", flush=True)
    doc["summary"][w] = summary
    if args.trace:
        res, meta = run(w, args.seeds[0], bench["run_seconds"], 1)
        doc["traced"][w] = {"seed": args.seeds[0], "result": res, "meta": meta}

with open(args.out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
