#!/usr/bin/env python3
"""End-to-end benchmark of the taskgrind engine (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_harness from the checkout's sources (into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), then runs the
workload in fresh child processes, one at a time, for S seconds. With
--trace 0 it prints the end-to-end metrics (wall_s, cpu_s, peak_rss_mb,
setup_s); with --trace 1 it alternates untraced and traced children and
prints the per-layer metrics. Every child passes the workload's findings
gate or counts as failed and contributes no timing. The last stdout line
is the result object; the line before it gives the per-sample detail.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Children averaged into one timed sample, per workload. BENCHMARK.json
# lists lulesh-fine and dense-mesh; lulesh-coarse, the paper's Table II
# program, runs by hand and in the tests only, because host load moves its
# timings by more than the bounds within an hour (README.md, Noise).
GROUP = {"lulesh-fine": 4, "dense-mesh": 3, "lulesh-coarse": 5}
WORKLOADS = list(GROUP)

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
              "setup_s": "s"}

# Per-layer metrics the traced child reports, with their units. Metrics
# in seconds are medians over traced children; every other one must repeat
# exactly across them, except waits, which depend on thread timing.
TRACED = {
    "vex.guest_instrs": "count", "vex.exec_none_s": "s",
    "vex.callback_s": "s", "runtime.tasks": "count",
    "runtime.sched_decisions": "count", "runtime.steals": "count",
    "runtime.intrinsic_s": "s", "runtime.intrinsics": "count",
    "graph_builder.events": "count", "graph_builder.event_self_s": "s",
    "graph_builder.segments": "count", "instrument.accesses": "count",
    "instrument.access_s": "s", "interval_set.peak_tree_bytes": "bytes",
    "fingerprint.bytes": "bytes", "streaming.closes": "count",
    "streaming.close_s": "s", "streaming.sweeps": "count",
    "streaming.retire_s": "s", "streaming.sweep_visits": "count",
    "streaming.finish_s": "s", "streaming.worker_cpu_s": "s",
    "streaming.pairs_generated": "count",
    "streaming.pairs_never_generated": "count",
    "streaming.pairs_ordered": "count",
    "pair_batch.skipped_fingerprint": "count",
    "streaming.pairs_scanned": "count", "streaming.pairs_deferred": "count",
    "streaming.raw_conflicts": "count", "streaming.scan_share": "ratio",
    "streaming.enqueue_stalls": "waits",
    "streaming.segments_retired": "count",
    "streaming.peak_live_segments": "count", "trace.overhead_s": "s",
}
# Per-layer metrics run.py derives from the untraced children.
DERIVED = {"support.accounted_peak_mb": "MiB", "support.accounted_share":
           "ratio", "memory.rss_per_segment_kb": "KiB"}
NOT_REPEATED = {"s", "waits"}


class BenchError(Exception):
    pass


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stdout.splitlines()[-30:])
        raise BenchError(f"{' '.join(cmd)} failed:\n{tail}")


def build():
    """Configures once and builds the harness; returns its build info."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", bdir])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", bdir, "--target", "perfbench_harness",
               "-j", jobs])
    info = json.loads(child(["info"]))
    if not info["timeable"]:
        raise BenchError("refusing to time a build without optimization or "
                         f"with a sanitizer: {info}")
    return info


def child(args):
    """Runs one harness process and returns its stdout. The environment,
    argv and working directory are the same in every checkout, so the
    child's initial stack layout does not depend on where it runs."""
    proc = subprocess.run(["./perfbench_harness"] + args, cwd=build_dir(),
                          env={"LC_ALL": "C"}, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    if proc.returncode not in (0, 2) or not proc.stdout.strip():
        raise BenchError(f"harness {' '.join(args)} exited "
                         f"{proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout.strip().splitlines()[-1]


def run_child(args):
    """One operation: the child's result, or None when it failed."""
    try:
        result = json.loads(child(args))
    except (BenchError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"child failed: {err}", file=sys.stderr)
        return None
    if not result.get("ok"):
        print(f"findings gate failed: {result.get('error')}", file=sys.stderr)
        return None
    return result


def upper_quartile(values):
    """The upper quartile, interpolated within the data."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def repeat_for(seconds, step, at_least):
    """Calls step() at least `at_least` times, then again while the next
    call is expected to end within `seconds`, so a run overshoots its
    length by less than one step."""
    start = time.monotonic()
    done = 0
    while True:
        step()
        done += 1
        spent = time.monotonic() - start
        if done >= at_least and spent * (done + 1) / done > seconds:
            return


def untraced(workload, seed, seconds):
    """End-to-end metrics from groups of untraced children. Returns the
    metrics, the samples and the numbers of attempted and failed children."""
    args = ["sample", workload, str(seed)]
    children, samples = [], []
    attempted = 0

    def group():
        nonlocal attempted
        results = []
        for _ in range(GROUP[workload]):
            attempted += 1
            result = run_child(args)
            if result is not None:
                results.append(result)
        children.extend(results)
        if results:
            walls = [r["wall_s"] for r in results]
            cpus = [r["cpu_s"] for r in results]
            samples.append({"children": len(results),
                            "wall_s": statistics.fmean(walls),
                            "wall_min": min(walls), "wall_max": max(walls),
                            "cpu_s": statistics.fmean(cpus),
                            "cpu_min": min(cpus), "cpu_max": max(cpus)})

    repeat_for(seconds, group, at_least=1)
    metrics = {}
    if children:
        # The upper quartile of the sample means: quieter stretches of a
        # shared host come and go within a run and would make a median
        # flip between two load levels (see README.md, Noise). Set-up is
        # a fixed amount of work: its fastest timing over every child.
        metrics = {
            "wall_s": upper_quartile([s["wall_s"] for s in samples]),
            "cpu_s": upper_quartile([s["cpu_s"] for s in samples]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in children]),
            "setup_s": min(r["setup_s"] for r in children),
        }
    return metrics, samples, attempted, attempted - len(children)


def counts(result):
    return {name: result["metrics"][name] for name, unit in TRACED.items()
            if unit not in NOT_REPEATED}


def traced(workload, seed, seconds):
    """Per-layer metrics from alternating untraced and traced children.
    Returns the metrics, the detail record and the numbers of attempted and
    failed children."""
    # Relative to the children's working directory, so argv is the same
    # in every checkout.
    spans = f"spans-{workload}.tsv"
    pair = ((["sample", workload, str(seed)], []),
            (["trace", workload, str(seed), spans], []))
    attempted = 0

    def step():
        nonlocal attempted
        for args, results in pair:
            attempted += 1
            result = run_child(args)
            if result is not None:
                results.append(result)

    repeat_for(seconds, step, at_least=2)
    plain, traces = pair[0][1], pair[1][1]
    if not (plain and traces):
        return {}, {}, attempted, attempted - len(plain) - len(traces)

    # Every child must give the first traced child's canonical findings,
    # and every traced child its counts; a child that does not has failed.
    reference = traces[0]
    good_plain = [r for r in plain if r["identity"] == reference["identity"]]
    good_traces = [t for t in traces if t["identity"] == reference["identity"]
                   and counts(t) == counts(reference)]
    failed = attempted - len(good_plain) - len(good_traces)
    if failed:
        print(f"{failed} of {attempted} children failed or disagreed",
              file=sys.stderr)
    if not good_plain:
        return {}, {}, attempted, failed

    metrics = {}
    for name, unit in TRACED.items():
        values = [t["metrics"][name] for t in good_traces]
        metrics[name] = median(values) if unit in NOT_REPEATED else values[0]
    segments = reference["metrics"]["graph_builder.segments"]
    metrics["support.accounted_peak_mb"] = median(
        [r["accounted_peak_mb"] for r in good_plain])
    metrics["support.accounted_share"] = median(
        [r["accounted_peak_mb"] / r["peak_rss_mb"] for r in good_plain])
    metrics["memory.rss_per_segment_kb"] = median(
        [r["peak_rss_mb"] * 1024 / segments for r in good_plain])
    detail = {"untraced_wall_s": [r["wall_s"] for r in good_plain],
              "traced_session_s": [t["session_s"] for t in good_traces],
              "partitions": [t["partition"] for t in good_traces],
              "spans_file": os.path.join(build_dir(), spans)}
    return metrics, detail, attempted, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        info = build()
    except BenchError as err:
        print(err, file=sys.stderr)
        return 1

    detail = {"workload": args.workload, "seed": args.seed,
              "build_type": info["build_type"],
              "cxx_flags": info["cxx_flags"].strip(),
              "host_cores": info["host_cores"]}
    if args.trace:
        values, extra, attempted, failed = traced(
            args.workload, args.seed, args.seconds)
        units = {**TRACED, **DERIVED}
        detail.update(extra)
    else:
        values, samples, attempted, failed = untraced(
            args.workload, args.seed, args.seconds)
        units = END_TO_END
        detail["samples"] = samples
    print(json.dumps(detail))
    result = {"correct": failed == 0 and bool(values),
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items() if name in values}}
    print(json.dumps(result))
    return 0 if values else 1


if __name__ == "__main__":
    sys.exit(main())
