#!/usr/bin/env python3
"""Run the repo benchmark.

Builds perfbench (a CMake package in this directory that compiles the realm
sources in ../src) into $CARGO_TARGET_DIR/perfbench, else .bench_build/perfbench,
then runs one workload. The last line of stdout is one JSON object:
correct, attempted, failed, metrics.

  python3 perfbench/run.py --workload decode-lowvolt --seed 1 --seconds 55 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0
  python3 perfbench/run.py --self-test

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--workload all runs every workload and prints one table of every metric.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure once, then build; the build is a no-op when nothing changed."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return out


def run_one(exe, workload, args):
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4, None, ""
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="build and run the benchmark's tests")
    args = ap.parse_args()

    if not args.self_test:
        if not args.workload:
            ap.error("--workload is required")
        if not 1 <= args.seconds <= 60:
            ap.error("--seconds must be 1..60")

    out = build()
    if out is None:
        return 2
    if args.self_test:
        return subprocess.run([str(out / "perfbench_tests")]).returncode

    exe = out / "perfbench"
    if args.workload != "all":
        code, result, stdout = run_one(exe, args.workload, args)
        sys.stdout.write(stdout)
        if code == 0 and result is None:
            print("run.py: no result line", file=sys.stderr)
            return 4
        return code

    # Every workload: one table, then one combined result line.
    workloads = subprocess.run([str(exe), "--list"], stdout=subprocess.PIPE, text=True,
                               check=True).stdout.split()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    print(f"{'workload':<16} {'metric':<32} {'value':>16}  unit")
    for name in workloads:
        code, result, _ = run_one(exe, name, args)
        worst = worst or code
        if result is None:
            print(f"{name:<16} (no result, exit {code})")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            print(f"{name:<16} {metric:<32} {m['value']:>16.6g}  {m['unit']}")
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
