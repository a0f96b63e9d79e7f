#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny n (60 nodes per workload).

    python3 mwbench/smoke_test.py

For every workload it runs mwbench/run.py untraced and traced on one seed and
asserts that
  - each run exits 0 and passes its checks (fail_ratio 0),
  - every metric BENCHMARK.json names is printed with its unit,
  - each input's run-report digest is identical across its runs (warm-up
    and timed), across the two processes, and between the traced and
    untraced runs,
  - the traced cross-check holds: shadow decodes equal total_deliveries, and
    the tx / rx / shadow spans cover the traced run's wall time.
Exits 1 on the first failed assertion.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
N = 60
SEED = 7


def run(workload, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--n", str(N)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0,
          f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stdout}"
          f"\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digests = next(line for line in lines if line.startswith("digests "))
    digests = [tuple(d.split(":")) for d in digests.split()[2:]]
    return lines, result, digests


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        seen_digests = {}  # input -> digests reported for it
        for trace in (0, 1):
            lines, result, digests = run(workload, trace)
            tag = f"{workload} trace={trace}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0,
                  f"{tag}: {result['failed']}/{result['attempted']} failed")
            check(result["attempted"] >= 2, f"{tag}: fewer than two runs")
            metrics = result["metrics"]
            check(set(metrics) == set(wanted[trace]),
                  f"{tag}: metrics {sorted(set(metrics) ^ set(wanted[trace]))}"
                  " missing or unexpected")
            for name, unit in wanted[trace].items():
                check(metrics[name]["unit"] == unit,
                      f"{tag}: {name} unit {metrics[name]['unit']} != {unit}")
                check(any(line.split()[:1] == [name] and line.split()[2] == unit
                          for line in lines),
                      f"{tag}: {name} not printed with its unit")
            check(any(line.split()[:1] == ["fail_ratio"] for line in lines),
                  f"{tag}: fail_ratio not printed")
            for k, digest in digests:
                seen_digests.setdefault(k, set()).add(digest)
            if trace == 1:
                check(metrics["sinr.decodes"]["value"]
                      == metrics["radio.deliveries"]["value"],
                      f"{tag}: shadow decodes != total_deliveries")
                coverage = metrics["trace.span_coverage"]["value"]
                check(0.95 <= coverage <= 1.0 + 1e-9,
                      f"{tag}: spans cover {coverage:.3f} of the traced run")
        for k, digest_set in sorted(seen_digests.items()):
            check(len(digest_set) == 1,
                  f"{workload} input {k}: digests differ: {sorted(digest_set)}")
        check(len(seen_digests["0"]) == 1 and len(seen_digests) >= 2,
              f"{workload}: expected input 0 and at least one more input")
        print(f"ok {workload}: {len(seen_digests)} inputs, input 0 digest "
              f"{next(iter(seen_digests['0']))} in every run")
    print("smoke test passed")


if __name__ == "__main__":
    main()
