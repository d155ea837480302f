#!/usr/bin/env python3
"""End-to-end benchmark of the E-Ant simulator (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the simulator and the benchmark from source into .bench_build/ (or
$CARGO_TARGET_DIR), then spends about --seconds running one workload in
fresh single-threaded processes, one after another:

  --trace 0  perfbench_timed processes; prints the end-to-end metrics, each
             the median over the processes.
  --trace 1  perfbench_traced and perfbench_timed processes, alternating;
             prints the per-layer metrics, timings as medians.

Host times are scaled to a reference host speed before the medians are
taken (see README.md, "Noise and sampling"): each process's times are
multiplied by PROBE_REFERENCE_S over the time that process measured for the
benchmark's fixed probe kernel.

Every process runs the correctness gate and exits non-zero when it fails;
this script also requires every process to compute the same simulated
outcome, traced or not.  Any failure exits 1 without a result.  The last
line of standard output is the JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("eant-wide-batch", "fair-oversub-msd", "tenant-overload-audited")

# Metric name -> unit, in the order they are printed.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "energy_kj": "kJ",
    "makespan_s": "s",
    "job_time_p50_s": "s",
    "job_time_tail_s": "s",
    "local_map_frac": "fraction",
    "jobs_done_frac": "fraction",
    "deadline_met_frac": "fraction",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.scheduled": "count",
    "sim.cancelled": "count",
    "sim.peak_pending": "count",
    "sim.queue_s": "s",
    "sim.queue_allocs": "count",
    "sim.ns_per_event": "ns",
    "net.flows": "count",
    "net.reallocs": "count",
    "net.rerated": "count",
    "net.peak_flows": "count",
    "net.self_s": "s",
    "sched.select_calls": "count",
    "sched.select_s": "s",
    "sched.select_us": "us",
    "core.control_ticks": "count",
    "core.control_s": "s",
    "mapreduce.heartbeats": "count",
    "mapreduce.heartbeat_self_s": "s",
    "mapreduce.arrival_s": "s",
    "mapreduce.other_s": "s",
    "mapreduce.tasks": "count",
    "mapreduce.rejections": "count",
    "mapreduce.retries": "count",
    "mapreduce.dropped": "count",
    "mapreduce.preempted": "count",
    "hdfs.blocks": "count",
    "hdfs.rack_local_frac": "fraction",
    "audit.records": "count",
    "audit.observer_s": "s",
    "audit.violations": "count",
    "workload.gen_s": "s",
    "workload.jobs": "count",
    "exp.construct_s": "s",
    "exp.submit_s": "s",
    "exp.finalize_s": "s",
    "host.allocs": "count",
    "host.alloc_mib": "MiB",
    "host.probe_s": "s",
    "trace.loop_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "fraction",
}

# The probe kernel's time on the reference host.  Every host time a result
# reports is scaled by PROBE_REFERENCE_S / (the probe time of the process
# that measured it), which cancels the shared host's drifting speed.
PROBE_REFERENCE_S = 0.1

# Units whose values are host times, scaled as above.
HOST_TIME_UNITS = ("s", "ns", "us")

# Rounds per run even past --seconds: enough timed processes for a median,
# and in traced mode one timed and one traced process per round.
MIN_ROUNDS_TIMED = 5
MIN_ROUNDS_TRACED = 2


class BenchFailure(Exception):
    pass


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return ROOT / target / "perfbench"


def build(targets):
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4",
                  "--target", *targets])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchFailure("build failed: " + " ".join(cmd))
    return out


def spawn(binary, workload, seed):
    proc = subprocess.run([str(binary), workload, str(seed)],
                          capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchFailure(f"{binary.name} {workload} {seed} exited "
                           f"{proc.returncode}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        raise BenchFailure(f"{binary.name} printed no JSON: {e}") from e


def median(samples, key):
    return statistics.median(s[key] for s in samples)


def scaled_median(samples, time_of):
    """Median over processes of a host time at the reference host speed."""
    return statistics.median(
        time_of(s) * PROBE_REFERENCE_S / s["probe_s"] for s in samples)


def check_same_outcome(samples):
    """Every process simulated the same run: identical simulated outputs."""
    first = samples[0]["outcome"]
    for s in samples[1:]:
        if s["outcome"] != first:
            diff = sorted(k for k in first if s["outcome"].get(k) != first[k])
            raise BenchFailure(f"{s['mode']} process disagrees with the "
                               f"first process's outcome on {diff}")


def end_to_end(timed):
    o = timed[0]["outcome"]
    return {
        "setup_s": scaled_median(timed, lambda s: s["setup_s"]),
        "wall_s": scaled_median(timed, lambda s: s["wall_s"]),
        "peak_rss_mib": median(timed, "peak_rss_mib"),
        "energy_kj": o["energy_kj"],
        "makespan_s": o["makespan_s"],
        "job_time_p50_s": o["job_time_p50_s"],
        "job_time_tail_s": o["job_time_tail_s"],
        "local_map_frac": o["local_map_frac"],
        "jobs_done_frac": o["jobs_done_frac"],
        # 1 where the workload carries no deadlines; see README.md
        "deadline_met_frac": 1.0 - o["deadline_miss_frac"],
    }


def per_layer(timed, traced):
    layers = {}
    for k in traced[0]["layers"]:
        if PER_LAYER.get(k) in HOST_TIME_UNITS:
            layers[k] = scaled_median(traced, lambda s: s["layers"][k])
        else:
            layers[k] = statistics.median(s["layers"][k] for s in traced)
    traced_wall = scaled_median(
        traced,
        lambda s: s["layers"]["trace.loop_s"] + s["layers"]["exp.finalize_s"])
    timed_wall = scaled_median(timed, lambda s: s["wall_s"])
    layers["trace.overhead_frac"] = traced_wall / timed_wall - 1.0
    layers["host.probe_s"] = median(timed + traced, "probe_s")
    return layers


def print_header(args, timed, traced):
    o = timed[0]["outcome"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"processes: {len(timed)} timed, {len(traced)} traced")
    print(f"outputs digest {o['outputs_digest']}  audit digest "
          f"{o['audit_digest']} over {o['audit_records']} records")
    print(f"jobs: {o['submitted']} submitted, {o['completed']} completed, "
          f"{o['failed']} failed, {o['dropped']} dropped by admission")
    print(f"job_time_tail_s is p{o['tail_percentile']:g} of "
          f"{o['tail_samples']} completed jobs ({o['tail_beyond']} beyond it)")
    speed = median(timed + traced, "probe_s")
    print(f"host.probe_s {speed:.4g} s (median over processes), so host "
          f"times are scaled by {PROBE_REFERENCE_S / speed:.3f}; unscaled "
          f"median wall_s {median(timed, 'wall_s'):.4g} s")
    if o["deadlined"]:
        print(f"deadline_miss_frac {o['deadline_miss_frac']:.6g} "
              f"({o['deadline_missed']} of {o['deadlined']} deadlined jobs, "
              f"{o['deadline_dropped']} of them dropped)")


def print_breakdown(traced):
    """Median per-span and per-event-class host time (scaled) and
    allocations."""
    rows = traced[0]["breakdown"]
    loop = scaled_median(traced, lambda s: s["breakdown"]["span.loop"]["s"])
    print(f"{'span / loop slice':22} {'host s':>10} {'of loop':>8} "
          f"{'events':>10} {'allocs':>11} {'MiB':>9}")
    for name, row in rows.items():
        sec = scaled_median(traced, lambda s: s["breakdown"][name]["s"])
        share = f"{100 * sec / loop:7.1f}%" if name.startswith("loop.") else ""
        print(f"{name:22} {sec:10.4f} {share:>8} {row['events']:10d} "
              f"{row['allocs']:11d} {row['bytes'] / 2**20:9.2f}")


def print_metrics(values, units):
    for name, unit in units.items():
        print(f"{name:28} {values[name]:.6g} {unit}")


def measure(args, out):
    timed_bin = out / "perfbench_timed"
    traced_bin = out / "perfbench_traced"
    timed, traced = [], []
    min_rounds = MIN_ROUNDS_TRACED if args.trace else MIN_ROUNDS_TIMED
    start = time.monotonic()
    while True:
        timed.append(spawn(timed_bin, args.workload, args.seed))
        if args.trace:
            traced.append(spawn(traced_bin, args.workload, args.seed))
        elapsed = time.monotonic() - start
        per_round = elapsed / len(timed)
        if len(timed) >= min_rounds and elapsed + per_round > args.seconds:
            break
    check_same_outcome(timed + traced)
    return timed, traced


def run(args):
    out = build(["perfbench_timed", "perfbench_traced"])
    timed, traced = measure(args, out)
    print_header(args, timed, traced)
    if args.trace:
        print_breakdown(traced)
        values = per_layer(timed, traced)
        units = PER_LAYER
    else:
        values = end_to_end(timed)
        units = END_TO_END
    missing = set(units) - set(values)
    if missing:
        raise BenchFailure(f"metrics not measured: {sorted(missing)}")
    print_metrics(values, units)
    result = {
        "correct": True,
        "attempted": len(timed) + len(traced),
        "failed": 0,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))


def selftest():
    out = build(["perfbench_selftest"])
    if subprocess.run([str(out / "perfbench_selftest")]).returncode:
        raise BenchFailure("perfbench_selftest failed")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != END_TO_END:
        raise BenchFailure("BENCHMARK.json end_to_end differs from run.py")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != PER_LAYER:
        raise BenchFailure("BENCHMARK.json per_layer differs from run.py")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        raise BenchFailure("BENCHMARK.json workloads differ from run.py")
    print("selftest passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            selftest()
        elif args.workload is None:
            parser.error("--workload is required")
        else:
            if args.seed < 1:
                parser.error("--seed must be at least 1")
            run(args)
    except BenchFailure as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
