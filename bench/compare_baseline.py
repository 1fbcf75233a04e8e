#!/usr/bin/env python3
"""CI perf-regression gate for protected_gemm_bench --json output.

Compares a single-thread run per shape against the checked-in
bench/baseline.json and fails (exit 1) on any regression beyond tolerance in:

  * raw_gops     — floor:   current >= baseline * (1 - tolerance)
  * detect_ms    — ceiling: current <= baseline * (1 + tolerance) + slack_ms
  * overhead_pct — ceiling: current <= baseline * (1 + tolerance) + slack_pct

The record must come from the kernel tier the baseline was recorded on
(its "kernel_tier"; run the bench with REALM_KERNEL set to it): overhead_pct
is screen cost over GEMM time, so a faster GEMM tier raises it with no
slower screen, and a slower tier passes raw_gops floors it should not. A
record from another tier exits nonzero before any metric is compared.

The baseline is a deliberately conservative envelope (see README "Refreshing
the baseline"): it must hold across GitHub runner generations, so the gate
catches structural regressions (losing SIMD dispatch, packing, blocking, the
fused eᵀC reduction, or the vectorized checksum screen), not single-digit
noise. The absolute slack terms exist because detect_ms on small shapes is a
difference of two ~0.1 ms measurements — a 20% relative band alone would gate
on timer noise there, while on the large shapes (where a lost fusion shows up
as whole milliseconds) the slack is negligible against the signal.

When CURRENT.json carries "mode": "serve-async" (a `--serve-async` bench run
under elevated injection), the gate dispatches to the fault-load checks
instead of the per-shape ones, against the baseline's "serve_fault" section:

  * fault_patched_p99_ms — ceiling: current <= baseline * (1 + tolerance) + slack_ms
  * fault_patch_rate     — absolute floor: current >= baseline patch_rate_floor

The p99 ceiling catches the in-place patch path silently degenerating into
recompute-class latency; the patch-rate floor catches the corrector losing
single-fault solves (every injected fault in the bench phase is a lone
magnitude hit, so the rate should sit at 1.0 with generous headroom).

With --trace-overhead the positionals are reinterpreted as a TRACED.json /
UNTRACED.json pair from two otherwise-identical --serve-async runs, and the
gate becomes the tracing-overhead budget: traced req/s must stay at or above
--min-traced-ratio (default 0.95) of the untraced run. The records' "trace"
provenance flags are checked (traced must say true, untraced false) so a CI
wiring mistake — comparing a run against itself — trips instead of passing
vacuously.

Unknown top-level keys in either record are ignored: bench JSON grows
provenance fields (git_sha, realm_trace_compiled, ...) without breaking older
baselines.

usage: compare_baseline.py CURRENT.json BASELINE.json [--tolerance 0.20]
                           [--slack-ms 0.15] [--slack-pct 10]
       compare_baseline.py --trace-overhead TRACED.json UNTRACED.json
                           [--min-traced-ratio 0.95]
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def serve_fault_gate(current, baseline, args):
    """Fault-load serving gate for a --serve-async run (mode dispatch)."""
    base = baseline.get("serve_fault")
    if base is None:
        sys.exit("current run is serve-async but baseline has no serve_fault section")
    if current.get("fault_requests", 0) <= 0:
        sys.exit("serve-async run recorded no fault-load requests")

    failures = []
    hdr = f"{'metric':>22} {'baseline':>9} {'current':>9} {'bound':>9}  status"
    print(hdr)

    p99 = current["fault_patched_p99_ms"]
    p99_bound = base["fault_patched_p99_ms"] * (1.0 + args.tolerance) + args.slack_ms
    ok = p99 <= p99_bound
    print(
        f"{'fault_patched_p99_ms':>22} {base['fault_patched_p99_ms']:>9.3f} "
        f"{p99:>9.3f} {p99_bound:>9.3f}  {'ok' if ok else 'REGRESSION'}"
    )
    if not ok:
        failures.append("fault_patched_p99_ms")

    rate = current["fault_patch_rate"]
    floor = base["patch_rate_floor"]
    ok = rate >= floor
    print(
        f"{'fault_patch_rate':>22} {floor:>9.3f} {rate:>9.3f} {floor:>9.3f}  "
        f"{'ok' if ok else 'REGRESSION'}"
    )
    if not ok:
        failures.append("fault_patch_rate")

    if failures:
        sys.exit(f"serve fault-load gate regressed: {failures}")
    print("serve fault-load gate passed")


def trace_overhead_gate(traced, untraced, args):
    """Tracing-overhead budget: traced rps >= min ratio of the untraced run."""
    for record, name, want in ((traced, "traced", True), (untraced, "untraced", False)):
        if record.get("mode") != "serve-async":
            sys.exit(f"--trace-overhead needs serve-async records, "
                     f"{name} run has mode={record.get('mode')!r}")
        if bool(record.get("trace")) != want:
            sys.exit(f"{name} run records trace={record.get('trace')!r}, expected "
                     f"{want} — traced/untraced inputs swapped or mis-wired?")

    ratio = traced["rps"] / untraced["rps"]
    ok = ratio >= args.min_traced_ratio
    print(f"{'metric':>22} {'untraced':>9} {'traced':>9} {'ratio':>9} {'floor':>9}  status")
    print(f"{'rps':>22} {untraced['rps']:>9.2f} {traced['rps']:>9.2f} {ratio:>9.3f} "
          f"{args.min_traced_ratio:>9.3f}  {'ok' if ok else 'REGRESSION'}")
    if not ok:
        sys.exit(f"tracing overhead over budget: traced/untraced rps ratio "
                 f"{ratio:.3f} < {args.min_traced_ratio}")
    print("tracing-overhead gate passed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("current")
    ap.add_argument("baseline")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed fractional regression vs baseline (default 0.20)",
    )
    ap.add_argument(
        "--slack-ms",
        type=float,
        default=0.15,
        help="absolute detect_ms headroom added to the ceiling (default 0.15)",
    )
    ap.add_argument(
        "--slack-pct",
        type=float,
        default=10.0,
        help="absolute overhead percentage-point headroom (default 10)",
    )
    ap.add_argument(
        "--trace-overhead",
        action="store_true",
        help="positionals are TRACED.json UNTRACED.json; gate the req/s ratio",
    )
    ap.add_argument(
        "--min-traced-ratio",
        type=float,
        default=0.95,
        help="traced/untraced rps floor for --trace-overhead (default 0.95)",
    )
    args = ap.parse_args()

    current = load(args.current)
    baseline = load(args.baseline)

    if args.trace_overhead:
        trace_overhead_gate(current, baseline, args)
        return

    if current.get("mode") == "serve-async":
        serve_fault_gate(current, baseline, args)
        return

    if current.get("threads") != 1:
        sys.exit(f"gate requires a single-thread run, got threads={current.get('threads')}")
    if current.get("kernel_tier") != baseline.get("kernel_tier"):
        sys.exit(f"kernel tier mismatch: record ran on {current.get('kernel_tier')!r}, baseline "
                 f"was recorded on {baseline.get('kernel_tier')!r}; rerun the bench with "
                 f"REALM_KERNEL={baseline.get('kernel_tier')}")

    base_shapes = {(s["m"], s["k"], s["n"]): s for s in baseline["shapes"]}
    failures = []
    hdr = f"{'shape':>18} {'metric':>12} {'baseline':>9} {'current':>9} {'bound':>9}  status"
    print(hdr)
    for cur in current["shapes"]:
        key = (cur["m"], cur["k"], cur["n"])
        base = base_shapes.get(key)
        if base is None:
            print(f"{str(key):>18} {'-':>12} {'-':>9} {'-':>9} {'-':>9}  (no baseline)")
            continue
        checks = [
            # (metric, bound, ok)
            (
                "raw_gops",
                base["raw_gops"] * (1.0 - args.tolerance),
                lambda cur_v, bound: cur_v >= bound,
            ),
            (
                "detect_ms",
                base["detect_ms"] * (1.0 + args.tolerance) + args.slack_ms,
                lambda cur_v, bound: cur_v <= bound,
            ),
            (
                "overhead_pct",
                base["overhead_pct"] * (1.0 + args.tolerance) + args.slack_pct,
                lambda cur_v, bound: cur_v <= bound,
            ),
        ]
        for metric, bound, ok_fn in checks:
            cur_v = cur[metric]
            ok = ok_fn(cur_v, bound)
            status = "ok" if ok else "REGRESSION"
            print(
                f"{str(key):>18} {metric:>12} {base[metric]:>9.2f} {cur_v:>9.2f} "
                f"{bound:>9.2f}  {status}"
            )
            if not ok:
                failures.append((key, metric))

    missing = set(base_shapes) - {(s["m"], s["k"], s["n"]) for s in current["shapes"]}
    if missing:
        sys.exit(f"shapes present in baseline but missing from current run: {sorted(missing)}")
    if failures:
        sys.exit(f"regressed beyond tolerance: {failures}")
    print("perf gate passed")


if __name__ == "__main__":
    main()
