#!/usr/bin/env python3
"""End-to-end benchmark of full MW coloring runs (see mwbench/README.md).

    python3 mwbench/run.py --workload sinr_sync --seed 1 --seconds 10 --trace 0

Builds the mwbench binary from this checkout (CMake, Release) into
$CARGO_TARGET_DIR/mwbench (default .bench_build/mwbench), runs one workload,
checks its outputs and prints a human-readable report followed, as the last
line, by one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exits 1 when any run fails its checks, 2 when the sources are missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds mwbench; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"mwbench: no sinrcolor sources under {ROOT}")
        sys.exit(2)
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not out.is_absolute():
        out = ROOT / out
    build_dir = out / "mwbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "mwbench",
                    "-j", "2"], stdout=sys.stderr, check=True)
    return build_dir / "mwbench"


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    lines = top.stdout.split()
    if len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def invalid(run):
    """A coloring that is not proper or broke Theorem 1 online. The practical
    profile leaves this w.h.p. tail at about 1% of runs (README.md), so it is
    counted and printed, not failed."""
    return not run["coloring_valid"] or run["independence_violations"] > 0


def run_failures(data):
    """Per run, the list of checks it failed (empty = passed)."""
    runs = data["runs"]
    reference = {}
    for r in runs:
        reference.setdefault(r["input"], r["digest"])
    result = []
    for r in runs:
        bad = []
        if not r["all_decided"]:
            bad.append("undecided nodes")
        if r["digest"] != reference[r["input"]]:
            bad.append(f"digest {r['digest']} != {reference[r['input']]} "
                       f"of input {r['input']}")
        if r["traced"]:
            t = data["trace"]
            for kind, decodes in t["decodes"].items():
                if decodes != r["deliveries"]:
                    bad.append(f"shadow {kind} decodes {decodes} "
                               f"!= total_deliveries {r['deliveries']}")
            if t["kind_mismatch_slots"] > 0:
                bad.append(f"resolve kinds decode differently in "
                           f"{t['kind_mismatch_slots']} slots")
        result.append(bad)
    return result


def end_to_end(data):
    """Means over the runs of distinct inputs: a run's slot count (and so its
    time) is bimodal across inputs, which a median would flip between."""
    runs = [r for r in data["runs"] if not r["traced"] and not r["repeat"]]

    def mean(key):
        return statistics.fmean(r[key] for r in runs)

    return {
        "run_s": (mean("run_s"), "s"),
        "slots_per_s": (sum(r["slots"] for r in runs)
                        / sum(r["run_s"] for r in runs), "1/s"),
        "setup_s": (statistics.median(sum(s) for s in data["setups"]), "s"),
        "peak_rss_mb": (data["peak_rss_kb"] / 1024.0, "MB"),
        "state_bytes_per_node": (mean("bytes_per_node"), "B"),
        "sim_slots": (mean("slots"), "count"),
        "palette": (mean("palette"), "count"),
    }


def per_layer(data):
    t = data["trace"]
    spans = t["spans"]
    untraced = [r for r in data["runs"] if not r["traced"]]
    traced = next(r for r in data["runs"] if r["traced"])
    default = data["resolve"]
    calls = t["resolve_calls"]
    tx, rx = spans["radio.tx_phase"], spans["radio.rx_phase"]
    resolve, shadow = spans["sinr.resolve"], spans["trace.shadow"]

    def us(seconds):
        return seconds * 1e6

    m = {
        "geometry.deploy_s": (statistics.median(s[0] for s in data["setups"]),
                              "s"),
        "graph.build_s": (statistics.median(s[1] for s in data["setups"]), "s"),
        "core.instance_s": (statistics.median(s[2] for s in data["setups"]),
                            "s"),
        "graph.bytes": (t["graph_bytes"], "B"),
        "sinr.model_bytes": (t["model_bytes"], "B"),
        "radio.state_bytes": (t["state_bytes"], "B"),
        "radio.tx_phase_s": (tx["total_s"], "s"),
        "radio.tx_phase_us.p50": (us(tx["p50_s"]), "us"),
        "radio.tx_phase_us.p99": (us(tx["p99_s"]), "us"),
        "radio.rx_phase_s": (rx["total_s"], "s"),
        "radio.rx_self_s": (rx["self_s"], "s"),
        "radio.rx_phase_us.p50": (us(rx["p50_s"]), "us"),
        "radio.rx_phase_us.p99": (us(rx["p99_s"]), "us"),
        "sinr.resolve_s": (resolve["total_s"], "s"),
        "sinr.resolve_calls": (calls, "count"),
        "sinr.resolve_us_per_call.mean": (us(resolve["total_s"]) / calls, "us"),
        "sinr.resolve_us_per_call.p50": (us(resolve["p50_s"]), "us"),
        "sinr.resolve_us_per_call.p99": (us(resolve["p99_s"]), "us"),
    }
    for kind in t["decodes"]:
        m[f"sinr.resolve_us_per_call.{kind}"] = (
            us(spans[f"sinr.resolve.{kind}"]["total_s"]) / calls, "us")
    m.update({
        "radio.slots": (traced["slots"], "count"),
        "radio.awake_node_slots": (t["awake_node_slots"], "count"),
        "radio.deliveries": (traced["deliveries"], "count"),
        "sinr.tx_per_call.mean": (t["tx_total"] / calls, "count"),
        "sinr.tx_per_call.max": (t["tx_max"], "count"),
        "sinr.covered_pairs": (t["covered_pairs"], "count"),
        "sinr.decodes": (t["decodes"][default], "count"),
        "sinr.decode_yield": (t["decodes"][default] / t["covered_pairs"],
                              "ratio"),
        "trace.run_s": (traced["run_s"], "s"),
        "trace.shadow_s": (shadow["total_s"], "s"),
        "trace.overhead_ratio": (
            (traced["run_s"] - shadow["total_s"]) / untraced[0]["run_s"],
            "ratio"),
        "trace.span_coverage": (
            (tx["total_s"] + rx["total_s"] + shadow["total_s"])
            / traced["run_s"], "ratio"),
    })
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="sinr_sync, fading_sync or graph_uniform")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=0,
                    help="shrink the workload to n nodes (smoke test)")
    args = ap.parse_args()

    exe = build()
    cmd = [str(exe), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.n > 0:
        cmd.append(f"--n={args.n}")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        log(proc.stderr)
        log(f"mwbench exited with code {proc.returncode}")
        sys.exit(1)
    data = json.loads(proc.stdout.strip().splitlines()[-1])

    failures = run_failures(data)
    attempted = len(failures)
    failed = sum(1 for bad in failures if bad)
    metrics = per_layer(data) if args.trace else end_to_end(data)

    host = dict(data["host"], git_sha=git_sha())
    print(f"mwbench {data['workload']} seed={data['seed']} n={data['n']} "
          f"side={data['side']} Delta={data['delta']} medium={data['medium']} "
          f"resolve={data['resolve']} (MwRunConfig default) "
          f"trace={args.trace}")
    print("host: " + json.dumps(host, sort_keys=True))
    print("digests (input:digest): " + " ".join(
        f"{r['input']}:{r['digest']}" for r in data["runs"]))
    for i, bad in enumerate(failures):
        for reason in bad:
            print(f"FAIL run {i}: {reason}")
    invalid_runs = [i for i, r in enumerate(data["runs"]) if invalid(r)]
    for i in invalid_runs:
        r = data["runs"][i]
        print(f"invalid coloring in run {i} (input {r['input']}): "
              f"{r['independence_violations']} Theorem-1 violations")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {unit}")
    print(f"  {'fail_ratio':<34} {failed / attempted:>16.6g} ratio "
          f"({failed}/{attempted})")
    print(f"  {'invalid_ratio':<34} {len(invalid_runs) / attempted:>16.6g} "
          f"ratio ({len(invalid_runs)}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
