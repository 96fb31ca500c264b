#!/usr/bin/env python3
"""Build and run the repo benchmark (dlrbench) from the root of a checkout.

One workload, as BENCHMARK.json's command runs it:

    python3 dlrbench/run.py --workload svc_mock_dec --seed 1 --seconds 20 --trace 0

The last line of stdout is the benchmark's JSON result. Every workload, one
process each, with one row of end-to-end metrics per workload:

    python3 dlrbench/run.py --all --seed 1 --seconds 20

The program is built from the checkout's sources with CMake into
$CARGO_TARGET_DIR/dlrbench (default .bench_build/dlrbench); build output goes
to stderr.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["svc_mock_dec", "svc_ss256_refresh", "ks_zipf_sched"]
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "dlrbench"


def build() -> Path:
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "dlrbench", "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "dlrbench"


def run_one(binary: Path, workload: str, seed: int, seconds: float, trace: int):
    """Run one workload; returns (exit code, stdout)."""
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--tmp-dir", str(tmp)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"dlrbench: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def last_json(stdout: str):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def run_all(binary: Path, seed: int, seconds: float) -> int:
    rows, names, ok = [], [], True
    for w in WORKLOADS:
        code, out = run_one(binary, w, seed, seconds, 0)
        res = last_json(out)
        if res is None:
            print(out, file=sys.stderr)
            print(f"{w}: no result (exit {code})", file=sys.stderr)
            return 1
        ok &= code == 0 and res["correct"]
        for name in res["metrics"]:
            if name not in names:
                names.append(name)
        rows.append((w, res))
    header = ["workload"] + [f"{n} [{rows[0][1]['metrics'][n]['unit']}]" for n in names]
    header += ["ops_failed_frac", "ops_attempted", "correct"]
    table = [header]
    for w, res in rows:
        m = res["metrics"]
        frac = res["failed"] / res["attempted"] if res["attempted"] else 0.0
        table.append([w] + [f"{m[n]['value']:.4g}" if n in m else "-" for n in names]
                     + [f"{frac:.4g}", str(res["attempted"]), str(res["correct"]).lower()])
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(c.rjust(wd) for c, wd in zip(r, widths)))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, one row each")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("give --workload or --all")
    try:
        binary = build()
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"dlrbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.all:
        return run_all(binary, args.seed, args.seconds)
    code, out = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    if last_json(out) is None:
        print("dlrbench: the program printed no result", file=sys.stderr)
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
