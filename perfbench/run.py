#!/usr/bin/env python3
# Copyright 2026 the pdblb authors. MIT license.
"""Host-time benchmark of the pdblb simulator.

    python3 perfbench/run.py --workload join_cpu80 --seed 42 --seconds 25 --trace 0

Builds perfbench/ (the pdblb library from this source tree plus the
pdblb_perfbench binary) with CMake into .bench_build/ (or
$CARGO_TARGET_DIR), runs one workload and checks that every point's
simulated statistics agree across repetitions, across tracing and, on the
reference seed, with reference_digests.json.  It prints every metric with
its unit; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones.  A digest mismatch makes the exit code 1.

Extra flags: --horizon tiny (self-test horizon), --perturb (a config the
reference cannot match), --write-reference (regenerate the reference
digests for the reference seed).  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference_digests.json"
REFERENCE_SEED = 42
WORKLOADS = ("join_cpu80", "mixed_oltp80", "fig5_grid")
RUN_TIMEOUT_S = 170

# Metric name -> unit.  BENCHMARK.json declares the same names and units
# (selftest.py checks that they agree).
END_TO_END = {
    "host_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "simkern.events": "count",
    "simkern.handoffs": "count",
    **{f"simkern.events.{s}": "count" for s in (
        "kernel", "cpu", "disk", "network", "lock", "channel", "latch",
        "group", "admission")},
    "simkern.ns_per_event": "ns/event",
    "simkern.allocs_per_event": "allocs/event",
    "simkern.trace_overhead": "ratio",
    "simkern.probe_ns_per_event": "ns/event",
    "simkern.probe_allocs_per_event": "allocs/event",
    "simkern.est_host_share": "ratio",
    "engine.cpu_services": "count",
    "engine.joins_completed": "count",
    "engine.oltp_completed": "count",
    "engine.cpu_util": "ratio",
    "iosim.logical_reads": "count",
    "iosim.physical_reads": "count",
    "iosim.cache_hits": "count",
    "iosim.cache_hit_ratio": "ratio",
    "iosim.disk_util": "ratio",
    "iosim.probe_ns_per_page": "ns/page",
    "iosim.probe_allocs_per_page": "allocs/page",
    "iosim.est_host_share": "ratio",
    "bufmgr.fetches": "count",
    "bufmgr.evictions": "count",
    "bufmgr.writebacks": "count",
    "bufmgr.pages_stolen": "count",
    "bufmgr.hit_ratio": "ratio",
    "bufmgr.mem_queue_wait_ms": "ms",
    "bufmgr.probe_ns_per_fetch": "ns/fetch",
    "bufmgr.probe_allocs_per_fetch": "allocs/fetch",
    "bufmgr.est_host_share": "ratio",
    "lockmgr.locks_granted": "count",
    "lockmgr.lock_waits": "count",
    "lockmgr.deadlock_aborts": "count",
    "lockmgr.probe_ns_per_lock": "ns/lock",
    "lockmgr.probe_ns_per_abort": "ns/abort",
    "lockmgr.probe_allocs_per_lock": "allocs/lock",
    "lockmgr.est_host_share": "ratio",
    "netsim.messages": "count",
    "netsim.packets": "count",
    "netsim.bytes": "bytes",
    "netsim.probe_ns_per_packet": "ns/packet",
    "netsim.probe_allocs_per_packet": "allocs/packet",
    "netsim.est_host_share": "ratio",
    "core.avg_degree": "PEs",
    "core.probe_ns_per_plan": "ns/plan",
    "core.probe_allocs_per_plan": "allocs/plan",
    "core.est_host_share": "ratio",
    "join.temp_pages_written": "pages",
    "join.temp_pages_read": "pages",
    "runner.worker_util": "ratio",
    "runner.point_host_s_p50": "s",
    "runner.point_host_s_max": "s",
    "runner.point_samples": "count",
}


class BenchError(Exception):
    """The benchmark itself could not run (build or binary failure)."""


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures (once) and builds pdblb_perfbench; returns its path."""
    cmake_dir = build_dir() / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir() / "build.log"
    configure = ["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    compile_ = ["cmake", "--build", str(cmake_dir), "-j",
                str(max(1, min(4, os.cpu_count() or 1))),
                "--target", "pdblb_perfbench"]
    steps = [compile_]
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.insert(0, configure)
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=ROOT).returncode
            except OSError as e:
                raise BenchError(f"cannot run {cmd[0]}: {e}")
            if rc != 0:
                if cmd is configure:
                    # Drop the failed configuration so the next run retries.
                    shutil.rmtree(cmake_dir, ignore_errors=True)
                raise BenchError(f"build failed, see {log_path}")
    return cmake_dir / "pdblb_perfbench"


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return cpu, commit


def run_binary(binary, workload, seed, seconds, trace, horizon, perturb):
    """Runs pdblb_perfbench; returns (its text lines, its JSON result)."""
    cpu, commit = machine()
    out_dir = build_dir() / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans = out_dir / f"spans-{workload}-seed{seed}-trace{trace}.json"
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--horizon={horizon}",
           f"--spans={spans}", f"--cpu-model={cpu}", f"--commit={commit}"]
    if perturb:
        cmd.append("--perturb")
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        raise BenchError(f"pdblb_perfbench exited with {r.returncode}")
    return lines[:-1], json.loads(lines[-1])


def load_reference(seed, horizon, workload):
    """Reference digests (point -> digest), or None off the reference seed."""
    if seed != REFERENCE_SEED:
        return None
    try:
        with open(REFERENCE) as f:
            return json.load(f)[horizon][workload]
    except (OSError, KeyError, ValueError):
        raise BenchError(f"no reference digests for {workload} ({horizon}) "
                         f"in {REFERENCE}")


def execution_key(e):
    return f"{e['replication']}/{e['point']}"


def count_failures(executions, reference):
    """Executions whose digest differs from the reference, or (off the
    reference seed) from the first execution of the same point."""
    first = {}
    failed = 0
    for e in executions:
        if reference is not None:
            want = reference.get(execution_key(e))
        else:
            want = first.setdefault(execution_key(e), e["digest"])
        failed += e["digest"] != want
    return failed


def write_reference(binary):
    ref = {"seed": REFERENCE_SEED}
    for horizon in ("standard", "tiny"):
        ref[horizon] = {}
        for workload in WORKLOADS:
            _, result = run_binary(binary, workload, REFERENCE_SEED, 0.1, 0,
                                   horizon, False)
            digests = {}
            for e in result["executions"]:
                key = execution_key(e)
                if digests.setdefault(key, e["digest"]) != e["digest"]:
                    raise BenchError(f"{key} is not deterministic")
            ref[horizon][workload] = digests
            print(f"reference {horizon} {workload}: {len(digests)} points")
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--horizon", choices=("standard", "tiny"),
                   default="standard")
    p.add_argument("--perturb", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args()
    if not args.write_reference and args.workload is None:
        p.error("--workload is required")

    try:
        t0 = time.monotonic()
        binary = build()
        print(f"build: {time.monotonic() - t0:.1f} s")
        if args.write_reference:
            write_reference(binary)
            return 0
        reference = load_reference(args.seed, args.horizon, args.workload)
        lines, result = run_binary(binary, args.workload, args.seed,
                                   args.seconds, args.trace, args.horizon,
                                   args.perturb)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    for line in lines:
        print(line)
    print("machine:", json.dumps(result["machine"], sort_keys=True))
    executions = result["executions"]
    failed = count_failures(executions, reference)
    digests = {}
    for e in executions:
        digests.setdefault(execution_key(e), e["digest"])
    for key, digest in sorted(digests.items()):
        print(f"digest {digest} {key}")
    print(f"statistics gate: {failed} of {len(executions)} point executions "
          f"failed ({'reference seed' if reference is not None else 'repeatability and tracing only'}); "
          f"failed_share {failed / len(executions):.4f}")

    declared = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in declared.items():
        if name not in result["metrics"]:
            print(f"perfbench: pdblb_perfbench did not report {name}", file=sys.stderr)
            return 2
        metrics[name] = {"value": result["metrics"][name], "unit": unit}
        print(f"metric {name} = {result['metrics'][name]:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(executions),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
