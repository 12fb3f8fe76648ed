#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the way the benchmark's
acceptance rule measures it: run each workload N times, each with another
seed, and report for every end-to-end metric the distance between the first
and third quartile of its N values as a share of their median, next to the
metric's bound from BENCHMARK.json.

    python3 benchmark/spread.py            # 10 runs per workload, seeds 1..10
    python3 benchmark/spread.py 5 101      # 5 runs per workload, seeds 101..105
    python3 benchmark/spread.py 10 31 values.json   # also write every value measured

Run it from the repository root. It exits 1 when a spread (setup_s excepted,
as in the rule) exceeds its bound.
"""
import json
import statistics
import subprocess
import sys

runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
first_seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
values_out = sys.argv[3] if len(sys.argv) > 3 else None

with open("BENCHMARK.json") as f:
    spec = json.load(f)

bad = False
measured = {}
for workload in (w["name"] for w in spec["workloads"]):
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(first_seed, first_seed + runs):
        cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    measured[workload] = values
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med
        flag = ""
        if spread > m["bound"] and m["name"] != "setup_s":
            flag, bad = "  > bound", True
        elif spread > m["bound"] / 3:
            flag = "  > bound/3"
        print(f"{workload:16} {m['name']:16} median {med:12.6g} {m['unit']:4} "
              f"spread {spread:7.4f}  bound {m['bound']:.2f}{flag}")
        print(" " * 34 + " ".join(f"{x:.5g}" for x in v), flush=True)
if values_out:
    with open(values_out, "w") as f:
        json.dump({"runs": runs, "first_seed": first_seed, "values": measured}, f, indent=1)
sys.exit(1 if bad else 0)
