#!/usr/bin/env python3
"""Run-to-run spread of the repo benchmark's end-to-end metrics.

Runs each workload once per seed (seeds 1..N by default), then reports for
every end-to-end metric the median, the quartiles from
statistics.quantiles(values, n=4), and their distance as a share of the
median, against the metric's bound in BENCHMARK.json. A spread above the
bound (setup_s excepted) fails; above a third of it is flagged.

    python3 dlrbench/spread.py --runs 10 --workload ks_zipf_sched
    python3 dlrbench/spread.py --runs 10            # every workload
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in workloads:
        values = {name: [] for name in bounds}
        for k in range(args.runs):
            seed = args.first_seed + k
            proc = subprocess.run(
                [sys.executable, str(ROOT / "dlrbench" / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not res["correct"]:
                print(f"{w} seed {seed}: incorrect run (exit {proc.returncode})")
                ok = False
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        print(f"\n{w} ({args.runs} runs, {args.seconds:g} s)")
        print(f"  {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if name != "setup_s" and spread > bounds[name]:
                flag, ok = "FAIL", False
            elif spread > bounds[name] / 3:
                flag = "above bound/3"
            print(f"  {name:16} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
                  f"{bounds[name]:6.2f} {flag}")
        print("  values: " + json.dumps({n: [round(v, 5) for v in vs] for n, vs in values.items()}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
